"""Spectral solver against closed-form and network-limit oracles."""

import dataclasses
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from pinchlab import spectral
from pinchlab.configfile import load_config
from pinchlab.dualgraph import cycle_graph, kodaira_catalog
from pinchlab.errors import ConvergenceError, StructureError, ValidationError
from pinchlab.geometry import FamilyConfig, build_chain
from pinchlab.spectral import (
    assemble_mode_operator,
    correlation_matrix,
    full_spectrum,
    graph_limit_eigs,
    model_functions,
    solve_modes,
    truncated_green_min,
)

PI = math.pi
I2 = FamilyConfig(n_components=2)
I3 = FamilyConfig(n_components=3)
TORUS = FamilyConfig(n_components=1, no_neck=True)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def torus_chain(resolution=96):
    return build_chain(TORUS, L=100.0, resolution=resolution)


class TestAssembly:
    def test_mode0_constant_in_kernel(self):
        chain = build_chain(I2, 50.0, resolution=16)
        S, M = assemble_mode_operator(chain, 0)
        const = np.ones(chain.n_nodes)
        assert np.linalg.norm(S @ const) <= 1e-12 * np.linalg.norm(S)
        np.testing.assert_allclose(S, S.T, atol=1e-14)
        np.testing.assert_allclose(M, M.T, atol=1e-14)

    def test_mass_rows_sum_to_area(self):
        chain = build_chain(I3, 40.0, resolution=16)
        _, M = assemble_mode_operator(chain, 0)
        total = float(np.ones(chain.n_nodes) @ M @ np.ones(chain.n_nodes))
        expected = 1.0 + 2 * PI * 3 / 40.0
        assert total == pytest.approx(expected, abs=1e-12)

    def test_mass_positive_definite(self):
        chain = build_chain(I2, 30.0, resolution=12)
        _, M = assemble_mode_operator(chain, 0)
        assert np.linalg.eigvalsh(M)[0] > 0

    def test_mode1_rayleigh_bound_uniform_weight(self):
        chain = torus_chain(resolution=32)
        lam, _ = solve_modes(chain, 1, 5)
        c = chain.c_fat
        assert np.all(lam >= 1.0 / c**2 - 1e-8)


def config_chain(name: str, L: float = 100.0, resolution: int = 48):
    return build_chain(load_config(str(CONFIGS / f"{name}.cfg")).family(), L, resolution)


def seeded_four_component_chain():
    areas = np.random.default_rng(4).uniform(0.5, 2.0, 4)
    return build_chain(FamilyConfig(n_components=4, areas=tuple(areas.tolist())), 80.0,
                       resolution=32)  # n = 314


def holds_factor_of(chain) -> bool:
    """Whether the one-slot mass factor cache holds the factor of ``chain``'s forms."""
    return spectral._FACTOR is not None and spectral._FACTOR[0] == spectral._forms_key(
        chain.operators)


def assert_matches_generalized_solve(chain, m, lam, vecs):
    """Eigenvalues above 1e-8 to 1e-10 relative of eigh(S, M), and V mass-orthonormal."""
    M = chain.operators.mass.toarray()
    ref = scipy.linalg.eigh(chain.operators.stiffness(m).toarray(), M, eigvals_only=True)
    big = ref[:lam.size] > 1e-8
    assert np.array_equal(lam > 1e-8, big)
    np.testing.assert_allclose(lam[big], ref[:lam.size][big], rtol=1e-10, atol=0)
    assert np.linalg.norm(vecs.T @ M @ vecs - np.eye(vecs.shape[1])) <= 1e-10


class TestSharedMassFactor:
    """Every dense mode solve reduces the problem with one factorization of M per
    chain's forms, kept in a one-slot cache keyed by the bytes of those forms."""

    @pytest.mark.parametrize("make", [lambda: config_chain("i2_step"),
                                      lambda: config_chain("i3_bump"),
                                      seeded_four_component_chain],
                             ids=["i2_step", "i3_bump", "seeded_4_components"])
    def test_matches_the_generalized_solve(self, make):
        chain = make()
        n = chain.n_nodes
        assert n <= spectral._SPARSE_MIN_NODES
        for m in range(9):
            lam, vecs = solve_modes(chain, m, n)
            assert holds_factor_of(chain)  # the shared-factor path ran
            assert_matches_generalized_solve(chain, m, lam, vecs)

    def test_full_basis_beyond_the_sparse_threshold(self):
        # n = 576 > _SPARSE_MIN_NODES with k = n: the dense path, on the shared factor
        chain = config_chain("i2_step", resolution=192)
        n = chain.n_nodes
        assert n == 576 > spectral._SPARSE_MIN_NODES
        for m in (0, 1, 8):
            lam, vecs = solve_modes(chain, m, n)
            assert holds_factor_of(chain)
            assert_matches_generalized_solve(chain, m, lam, vecs)
        # the steps of sygvd, so mode 0 repeats its bits
        S, M = assemble_mode_operator(chain, 0)
        assert np.array_equal(solve_modes(chain, 0, n)[0], scipy.linalg.eigh(S, M)[0])

    def test_cache_is_exact(self, monkeypatch):
        factorizations = []
        cholesky = scipy.linalg.cholesky
        monkeypatch.setattr(scipy.linalg, "cholesky",
                            lambda *args, **kw: factorizations.append(1) or cholesky(*args, **kw))
        monkeypatch.setattr(spectral, "_FACTOR", None)
        a, b = config_chain("i2_step", 100.0), config_chain("i2_step", 150.0)
        for chain, count in ((a, 1), (b, 2), (a, 3)):  # one slot: a, b, a all miss
            for m in (0, 2):
                lam, vecs = solve_modes(chain, m, 32)
                assert_matches_generalized_solve(chain, m, lam, vecs)
            assert len(factorizations) == count
        rebuilt = config_chain("i2_step", 100.0)  # a new object with a's forms: a hit
        for m in (0, 2):
            lam, vecs = solve_modes(rebuilt, m, 32)
            assert_matches_generalized_solve(rebuilt, m, lam, vecs)
        assert len(factorizations) == 3
        # forms one ulp away from a's, in any one of the three, miss
        for name in ("mass", "gradient", "potential"):
            chain = config_chain("i2_step", 100.0)
            form = getattr(chain.operators, name).copy()
            form.data[0] = np.nextafter(form.data[0], np.inf)
            chain.__dict__["operators"] = dataclasses.replace(chain.operators, **{name: form})
            count = len(factorizations)
            solve_modes(chain, 2, 32)
            assert len(factorizations) == count + 1
            assert holds_factor_of(chain) and not holds_factor_of(a)

    def test_corrupted_factor_fails_the_residual_gate(self, monkeypatch):
        chain = config_chain("i2_step")
        F, A, B = spectral._mass_factor(chain)
        bad = F.copy()
        bad[1, 0] += 1e-6 * bad[1, 1]  # x = F^-T y is then no eigenvector
        monkeypatch.setattr(spectral, "_mass_factor", lambda c: (bad, A, B))
        with pytest.raises(ConvergenceError, match="eigen residual beyond tolerance mode=0"):
            full_spectrum(chain, m_max=8, k_per_mode=32)

    def test_spectrum_pickle_carries_no_factor(self):
        # a pool worker sends its EigenSystem back pickled: the arrays alone,
        # without the chain or the factor (3 n^2 doubles, 884,736 bytes)
        chain = config_chain("i3_bump")
        eigsys = full_spectrum(chain, m_max=8, k_per_mode=32)
        assert chain.n_nodes == 192 and holds_factor_of(chain)
        data = pickle.dumps(eigsys)
        assert b"WarpedChain" not in data
        arrays = eigsys.lam.nbytes + eigsys.modes.nbytes + eigsys.vecs.nbytes
        assert arrays <= len(data) <= arrays + 4096


class TestFlatTorusSpectrum:
    # closed form: lambda = (2*pi*j/P)^2 + (m/c)^2 with P = 1, c = 1/(2*pi)
    def test_lambda1(self):
        chain = torus_chain()
        eigsys = full_spectrum(chain, m_max=4, k_per_mode=12)
        lams = eigsys.expanded_eigenvalues()
        assert abs(lams[0]) <= 1e-8
        assert lams[1] == pytest.approx(4 * PI**2, rel=2e-3)

    def test_low_eigenvalues_match_closed_form(self):
        chain = torus_chain(resolution=192)
        eigsys = full_spectrum(chain, m_max=3, k_per_mode=10)
        lams = eigsys.expanded_eigenvalues()
        targets = []
        for j in range(0, 8):
            for m in range(0, 4):
                mult = (2 if j > 0 else 1) * (2 if m > 0 else 1)
                targets.extend([4 * PI**2 * (j * j + m * m)] * mult)
        targets.sort()
        # compare the first handful past zero (multiplicities included)
        for got, want in zip(lams[1:9], targets[1:9]):
            assert got == pytest.approx(want, rel=5e-3)

    def test_gap_for_torus_is_lambda1(self):
        eigsys = full_spectrum(torus_chain(), m_max=4, k_per_mode=12)
        assert eigsys.low_count == 0
        assert eigsys.gap_value == pytest.approx(4 * PI**2, rel=2e-3)


class TestSmallEigenvalues:
    def test_i2_graph_limit_16pi(self):
        g = cycle_graph([0.5, 0.5])
        pred = graph_limit_eigs(g, L=100.0)
        assert pred.shape == (1,)
        assert pred[0] == pytest.approx(16 * PI / 100.0, rel=1e-12)

    def test_i3_graph_limit_18pi_double(self):
        g = cycle_graph([1 / 3, 1 / 3, 1 / 3])
        pred = graph_limit_eigs(g, L=50.0)
        np.testing.assert_allclose(pred, [18 * PI / 50.0] * 2, rtol=1e-12)

    def test_graph_limit_positive(self):
        from pinchlab.dualgraph import random_reduced_graph
        for seed in range(5):
            g = random_reduced_graph(5, seed=seed)
            assert np.all(graph_limit_eigs(g, 60.0) > 0)

    def test_i2_lambda1_within_10pct(self):
        chain = build_chain(I2, L=100.0, resolution=48)
        eigsys = full_spectrum(chain, m_max=2, k_per_mode=8)
        lam1 = eigsys.expanded_eigenvalues()[1]
        assert lam1 == pytest.approx(16 * PI / 100.0, rel=0.10)

    def test_exactly_n_minus_1_below_half_gap(self):
        for cfg, g in [(I2, cycle_graph([0.5, 0.5])), (I3, cycle_graph([1 / 3] * 3))]:
            for L in (50.0, 100.0):
                chain = build_chain(cfg, L, resolution=32)
                eigsys = full_spectrum(chain, m_max=2, k_per_mode=8)
                lams = eigsys.expanded_eigenvalues()
                small = lams[(lams > 1e-9) & (lams < eigsys.gap_value / 2)]
                assert small.size == cfg.n_components - 1

    def test_refinement_changes_lambda1_below_half_percent(self):
        coarse = full_spectrum(build_chain(I2, 100.0, resolution=48),
                               m_max=1, k_per_mode=4)
        fine = full_spectrum(build_chain(I2, 100.0, resolution=96),
                             m_max=1, k_per_mode=4)
        l1c = coarse.expanded_eigenvalues()[1]
        l1f = fine.expanded_eigenvalues()[1]
        assert abs(l1c - l1f) / l1f < 0.005

    def test_error_decreasing_in_L(self):
        g = cycle_graph([0.5, 0.5])
        errs = []
        for L in (80.0, 120.0, 200.0):
            chain = build_chain(I2, L, resolution=32)
            lam1 = full_spectrum(chain, m_max=1, k_per_mode=4).expanded_eigenvalues()[1]
            errs.append(abs(lam1 / graph_limit_eigs(g, L)[0] - 1.0))
        assert errs[0] > errs[1] > errs[2]


class TestCertification:
    def test_certificate_below_excluded_mode_bound(self):
        chain = build_chain(I2, 60.0, resolution=24)
        eigsys = full_spectrum(chain, m_max=3, k_per_mode=10)
        bound = 16 / chain.c_fat**2
        assert eigsys.certified_below <= bound
        for e in eigsys.entries:
            if e.certified:
                assert e.lam <= eigsys.certified_below

    def test_entries_view_matches_arrays(self):
        # the benchmark reads this view: entries in (lam, mode) order, each
        # with the fields of its pair's arrays
        chain = build_chain(I3, 60.0, resolution=24)
        eigsys = full_spectrum(chain, m_max=3, k_per_mode=10)
        order = eigsys.order
        entries = eigsys.entries
        keys = [(e.lam, e.mode) for e in entries]
        assert len(keys) == eigsys.lam.size and keys == sorted(keys)
        assert [e.lam for e in entries] == eigsys.lam[order].tolist()
        assert [e.mode for e in entries] == eigsys.modes[order].tolist()
        assert [e.multiplicity for e in entries] == eigsys.multiplicity[order].tolist()
        assert [e.certified for e in entries] == eigsys.certified[order].tolist()
        assert not all(e.certified for e in entries)
        for e, j in zip(entries, order):
            np.testing.assert_array_equal(e.vec, eigsys.vecs[:, j])
        mode0 = eigsys.mode0_entries()
        assert [e.lam for e in mode0] == eigsys.lam[eigsys.modes == 0].tolist()
        assert {e.mode for e in mode0} == {0}

    def test_orthonormality(self):
        chain = build_chain(I2, 60.0, resolution=24)
        lam, vecs = solve_modes(chain, 0, 8)
        _, M = assemble_mode_operator(chain, 0)
        gram = vecs.T @ M @ vecs
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-8)

    def test_eigenvalue_curves_continuous_in_L(self):
        # adjacent sweep values stay within 5% of each other once the grid
        # ratio is below 1.05 (lambda_1 itself moves like 1/L, so the jump
        # of the collapsing branch is the grid ratio)
        Ls = np.geomspace(80, 120, 12)
        curves = []
        for L in Ls:
            eigsys = full_spectrum(build_chain(I2, L, resolution=24),
                                   m_max=1, k_per_mode=4)
            curves.append(eigsys.expanded_eigenvalues()[1:4])
        curves = np.array(curves)
        rel_jump = np.abs(np.diff(curves, axis=0)) / curves[:-1]
        assert rel_jump.max() < 0.05


class TestModelFunctions:
    def test_i2_energy_8pi_over_L(self):
        chain = build_chain(I2, L=100.0, resolution=48)
        mfs = model_functions(chain)
        np.testing.assert_allclose(mfs.energies * 100.0, [8 * PI, 8 * PI], rtol=1e-10)

    def test_norms_slightly_above_one(self):
        chain = build_chain(I2, L=100.0, resolution=48)
        mfs = model_functions(chain)
        for nrm in mfs.norms:
            assert 1.0 <= nrm <= 1.15

    def test_bounds_and_range(self):
        chain = build_chain(I3, L=60.0, resolution=24)
        mfs = model_functions(chain)
        areas = chain.cfg.area_vector()
        for i in range(3):
            assert mfs.functions[i].min() >= 0.0
            assert mfs.functions[i].max() <= 1.0 / math.sqrt(areas[i]) + 1e-12

    def test_overlap_is_order_one_over_L(self):
        # ramps of adjacent functions share a neck; the shared mass collapses
        m1 = model_functions(build_chain(I2, 50.0, resolution=24))
        m2 = model_functions(build_chain(I2, 500.0, resolution=24))
        assert m2.overlap_mass < m1.overlap_mass / 2.5

    def test_fat_cores_disjoint(self):
        chain = build_chain(I3, L=60.0, resolution=24)
        mfs = model_functions(chain)
        x = chain.nodes
        for i, fat in enumerate(chain.fat_segments()):
            core = (x >= fat.x0) & (x < fat.x1)
            for j in range(3):
                if j != i:
                    assert np.all(mfs.functions[j][core] == 0.0)

    def test_single_component_rejected(self):
        chain = build_chain(FamilyConfig(n_components=1), L=50.0, resolution=24)
        with pytest.raises(StructureError):
            model_functions(chain)


class TestCorrelation:
    def _report(self, L, resolution=32):
        chain = build_chain(I2, L, resolution=resolution)
        eigsys = full_spectrum(chain, m_max=2, k_per_mode=10)
        return correlation_matrix(chain, eigsys, model_functions(chain))

    def test_E_decreasing_in_L(self):
        efros = [self._report(L).E_fro for L in (25.0, 100.0, 400.0)]
        assert efros[0] > efros[1] > efros[2]

    def test_scaled_residual_bounded(self):
        vals = [self._report(L).scaled_residuals.max() for L in (25.0, 100.0, 400.0)]
        assert vals[-1] <= 1.5 * vals[0]

    def test_sign_flip_invariance(self):
        chain = build_chain(I2, 80.0, resolution=32)
        eigsys = full_spectrum(chain, m_max=2, k_per_mode=10)
        mfs = model_functions(chain)
        rep = correlation_matrix(chain, eigsys, mfs)
        vecs = eigsys.vecs.copy()
        vecs[:, eigsys.low] *= -1.0
        flipped = dataclasses.replace(eigsys, vecs=vecs)
        rep2 = correlation_matrix(chain, flipped, mfs)
        assert rep2.E_fro == pytest.approx(rep.E_fro, abs=1e-12)
        np.testing.assert_allclose(rep2.residual_norms, rep.residual_norms, atol=1e-12)


class TestTruncatedGreen:
    def test_flat_torus_matches_closed_form(self):
        chain = torus_chain(resolution=128)
        eigsys = full_spectrum(chain, m_max=6, k_per_mode=16)
        cutoff = 4 * PI**2 * 6.5  # halfway between eigenvalue clusters
        rep = truncated_green_min(chain, eigsys, lambda_cutoff=cutoff)

        # analytic oracle: same grid, same cutoff, closed-form eigendata
        x = chain.nodes
        f0 = np.zeros((x.size, x.size))
        habs = np.zeros_like(f0)
        for m in range(0, 7):
            for j in range(0, 64):
                lam = 4 * PI**2 * (j * j + m * m)
                if lam < 1e-9 or lam > cutoff:
                    continue
                if j == 0:
                    profiles = [np.ones_like(x)]
                else:
                    profiles = [np.sqrt(2) * np.cos(2 * PI * j * x),
                                np.sqrt(2) * np.sin(2 * PI * j * x)]
                block = sum(np.outer(u, u) for u in profiles) / lam
                if m == 0:
                    f0 += block
                else:
                    habs += 2 * np.abs(block)
        oracle_min = float((f0 - habs).min())
        assert rep.min_value == pytest.approx(oracle_min, rel=0.05)

    def test_diag_above_min(self):
        chain = build_chain(I2, 60.0, resolution=24)
        eigsys = full_spectrum(chain, m_max=4, k_per_mode=24)
        rep = truncated_green_min(chain, eigsys, tail_count=20)
        assert rep.diag_min >= rep.min_value

    def test_sweep_lower_bound_stable(self):
        # the truncation level must be held fixed across the sweep, else the
        # included set itself drifts with L
        mins = []
        for L in (20.0, 60.0, 200.0):
            chain = build_chain(I2, L, resolution=24)
            eigsys = full_spectrum(chain, m_max=8, k_per_mode=64)
            mins.append(
                truncated_green_min(chain, eigsys, lambda_cutoff=500.0).min_value
            )
        C = 1.1 * abs(mins[0])
        assert all(v >= -C for v in mins)

    def test_insufficient_pairs_rejected(self):
        chain = build_chain(I2, 60.0, resolution=24)
        eigsys = full_spectrum(chain, m_max=1, k_per_mode=4)
        with pytest.raises(ValidationError, match="insufficient"):
            truncated_green_min(chain, eigsys, tail_count=500)
