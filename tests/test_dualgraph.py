"""Intersection-matrix linear algebra against dense eigendecomposition oracles."""

import numpy as np
import pytest

from pinchlab.dualgraph import (
    Component,
    DualGraph,
    build_intersection_matrix,
    cycle_graph,
    edge_counts,
    format_graph,
    format_matrix,
    kodaira_catalog,
    pairing_constant,
    parse_graph,
    pseudoinverse,
    random_reduced_graph,
    validate_zariski,
)
from pinchlab.errors import StructureError, ValidationError

# Frozen expected values, computed by hand from the eigendecomposition:
# [[-2, 2], [2, -2]] has eigenpairs (0, (1,1)/sqrt2) and (-4, (1,-1)/sqrt2),
# so the pseudoinverse is -(1/8) * outer((1,-1),(1,-1)).
I2_MATRIX = np.array([[-2.0, 2.0], [2.0, -2.0]])
I2_PINV = np.array([[-0.125, 0.125], [0.125, -0.125]])
I3_MATRIX = np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])


def oracle_pinv(M):
    # Independent route: numpy's SVD-based pseudoinverse.
    return np.linalg.pinv(M, rcond=1e-12)


def zero_sum_vectors(rng, n, count):
    vs = rng.normal(size=(count, n))
    return vs - vs.mean(axis=1, keepdims=True)


class TestIntersectionMatrix:
    def test_i1_self_loop_gives_zero_matrix(self):
        g = kodaira_catalog("I_1")
        M = build_intersection_matrix(g)
        assert M.shape == (1, 1)
        assert M[0, 0] == 0.0

    def test_i2_parallel_edges(self):
        M = build_intersection_matrix(kodaira_catalog("I_2"))
        np.testing.assert_array_equal(M, I2_MATRIX)

    def test_i3_cycle(self):
        M = build_intersection_matrix(kodaira_catalog("I_3"))
        np.testing.assert_array_equal(M, I3_MATRIX)
        # dense eigendecomposition oracle: semidefinite, kernel spanned by ones
        w = np.linalg.eigvalsh(M)
        assert w[-1] <= 1e-12
        assert np.sum(np.abs(w) < 1e-12) == 1

    def test_kernel_contains_multiplicities_exactly(self):
        for tag in ["I_1", "I_2", "I_3", "I_4", "I_0*", "II", "III", "IV"]:
            g = kodaira_catalog(tag)
            M = build_intersection_matrix(g)
            m = g.multiplicities.astype(float)
            np.testing.assert_array_equal(M @ m, np.zeros(g.n))

    def test_isolated_vertex_keeps_negative_zero(self):
        # `pinchlab kodaira` prints this diagonal entry as "-0" for I_1 and II
        for tag in ("I_1", "II"):
            M = build_intersection_matrix(kodaira_catalog(tag))
            assert M[0, 0] == 0.0 and np.signbit(M[0, 0])

    def test_graph_laplacian_is_minus_m_on_reduced_graphs(self):
        for k in range(20):
            g = random_reduced_graph(6, seed=k)
            counts = edge_counts(g.n, g.edges)
            np.testing.assert_array_equal(np.diag(counts.sum(axis=1)) - counts,
                                          -build_intersection_matrix(g))

    def test_disconnected_graph_rejected(self):
        comps = (Component("A", 1.0), Component("B", 1.0))
        with pytest.raises(StructureError):
            DualGraph(comps, ())

    def test_non_positive_area_rejected(self):
        with pytest.raises(ValidationError):
            DualGraph((Component("A", 0.0),), ())


class TestZariski:
    def test_i3_passes(self):
        rep = validate_zariski(I3_MATRIX, np.ones(3))
        assert rep.passed
        assert rep.kernel_dimension == 1

    def test_zero_matrix_passes(self):
        rep = validate_zariski(np.array([[0.0]]), np.array([1]))
        assert rep.passed
        assert rep.kernel_dimension == 1

    def test_positive_eigenvalue_fails(self):
        rep = validate_zariski(np.array([[1.0]]), np.array([1]))
        assert not rep.passed
        assert rep.max_eigenvalue > 0

    def test_catalog_and_random_graphs(self):
        graphs = [kodaira_catalog(t) for t in
                  ["I_1", "I_2", "I_3", "I_4", "I_6", "I_0*", "II", "III", "IV"]]
        graphs += [random_reduced_graph(n, seed=100 * n + k)
                   for n in range(1, 9) for k in range(4)]
        for g in graphs:
            M = build_intersection_matrix(g)
            rep = validate_zariski(M, g.multiplicities)
            assert rep.passed, (g, rep)
            assert rep.max_eigenvalue <= 1e-10
            assert rep.kernel_residual <= 1e-10


class TestPseudoinverse:
    def test_i2_closed_form(self):
        np.testing.assert_allclose(pseudoinverse(I2_MATRIX), I2_PINV, atol=1e-14)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(pseudoinverse(np.zeros((1, 1))), np.zeros((1, 1)))

    def test_i3_penrose_and_kernel(self):
        P = pseudoinverse(I3_MATRIX)
        assert np.linalg.norm(P @ np.ones(3)) < 1e-12
        assert np.linalg.norm(I3_MATRIX @ P @ I3_MATRIX - I3_MATRIX) < 1e-12

    def test_penrose_identities_on_corpus(self):
        graphs = [kodaira_catalog(t) for t in ["I_2", "I_4", "I_0*", "IV"]]
        graphs += [random_reduced_graph(n, seed=7 * n + 1) for n in range(2, 9)]
        for g in graphs:
            M = build_intersection_matrix(g)
            P = pseudoinverse(M)
            Q = oracle_pinv(M)
            np.testing.assert_allclose(P, Q, atol=1e-10)
            assert np.linalg.norm(M @ P @ M - M) <= 1e-10
            assert np.linalg.norm(P @ M @ P - P) <= 1e-10
            assert np.linalg.norm((M @ P) - (M @ P).T) <= 1e-10
            assert np.linalg.norm((P @ M) - (P @ M).T) <= 1e-10

    def test_projection_onto_zero_sum_subspace(self):
        # For reduced fibers M M^+ is the projection orthogonal to the ones
        # vector: checked against the explicit projector I - J/n.
        for g in [kodaira_catalog("I_3"), random_reduced_graph(5, seed=42)]:
            M = build_intersection_matrix(g)
            P = pseudoinverse(M)
            n = g.n
            proj = np.eye(n) - np.ones((n, n)) / n
            np.testing.assert_allclose(M @ P, proj, atol=1e-10)
            np.testing.assert_allclose(P @ M, proj, atol=1e-10)

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValidationError):
            pseudoinverse(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPairingConstant:
    def test_i2_hand_value(self):
        res = pairing_constant(I2_PINV, [1.0, -1.0], [1.0, -1.0])
        assert res == pytest.approx(-0.5, abs=1e-14)

    def test_zero_vector(self):
        res = pairing_constant(I2_PINV, [0.0, 0.0], [1.0, -1.0])
        assert res == 0.0

    def test_symmetry_on_random_vectors(self):
        rng = np.random.default_rng(2024)
        P = pseudoinverse(build_intersection_matrix(random_reduced_graph(6, seed=3)))
        vs = zero_sum_vectors(rng, 6, 20)
        for k in range(0, 20, 2):
            v, w = vs[k], vs[k + 1]
            cvw = pairing_constant(P, v, w)
            cwv = pairing_constant(P, w, v)
            assert abs(cvw - cwv) <= 1e-12

    def test_bilinearity(self):
        rng = np.random.default_rng(5)
        P = pseudoinverse(I3_MATRIX)
        v1, v2, w = zero_sum_vectors(rng, 3, 3)
        t = 0.73
        lhs = pairing_constant(P, v1 + t * v2, w)
        rhs = pairing_constant(P, v1, w) + t * pairing_constant(P, v2, w)
        assert abs(lhs - rhs) <= 1e-12

    def test_negative_semidefinite_quadratic_form(self):
        rng = np.random.default_rng(99)
        for g in [kodaira_catalog("I_2"), kodaira_catalog("I_4"),
                  random_reduced_graph(7, seed=11)]:
            P = pseudoinverse(build_intersection_matrix(g))
            for v in zero_sum_vectors(rng, g.n, 10):
                c = pairing_constant(P, v, v)
                assert c <= 1e-12
                if np.linalg.norm(v) > 1e-8:
                    assert c < -1e-12  # definite on nonzero zero-sum vectors

    def test_nonzero_sum_rejected(self):
        with pytest.raises(ValidationError, match="general fibers"):
            pairing_constant(I2_PINV, [1.0, 1.0], [1.0, -1.0])


class TestCatalog:
    def test_i4_cycle(self):
        g = kodaira_catalog("I_4")
        assert g.n == 4
        np.testing.assert_array_equal(g.multiplicities, [1, 1, 1, 1])
        M = build_intersection_matrix(g)
        assert validate_zariski(M, g.multiplicities).passed

    def test_i0_star(self):
        g = kodaira_catalog("I_0*")
        np.testing.assert_array_equal(g.multiplicities, [2, 1, 1, 1, 1])
        M = build_intersection_matrix(g)
        np.testing.assert_array_equal(M @ np.array([2, 1, 1, 1, 1.0]), np.zeros(5))
        assert validate_zariski(M, g.multiplicities).passed

    def test_i1(self):
        g = kodaira_catalog("I_1")
        assert g.n == 1 and g.edges == ((0, 0),)

    def test_unknown_tag(self):
        with pytest.raises(ValidationError):
            kodaira_catalog("V")


class TestTextFormat:
    def test_round_trip(self):
        g = kodaira_catalog("I_0*")
        g2 = parse_graph(format_graph(g))
        assert g2 == g

    def test_cycle_graph_matches_catalog(self):
        assert cycle_graph([0.25] * 4) == kodaira_catalog("I_4")

    def test_matrix_format(self):
        text = format_matrix(I2_MATRIX)
        rows = [r.split("\t") for r in text.strip().split("\n")]
        assert [[float(x) for x in r] for r in rows] == [[-2.0, 2.0], [2.0, -2.0]]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValidationError):
            parse_graph("vertex A\n")
