"""The operator layer: cyclic tridiagonal forms, shift-invert eigensolves,
their inertia certificate, the closed-form Poisson solve and the GEMM Green
kernel, each checked against the dense computation it replaces."""

import pickle
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from pinchlab import cli, geometry, spectral
from pinchlab.errors import ValidationError
from pinchlab.geometry import (
    FOUR_PI,
    FamilyConfig,
    build_chain,
    chain_operators,
    density_from_spec,
    step_density_spec,
)
from pinchlab.potential import solve_direct
from pinchlab.spectral import (
    assemble_mode_operator,
    full_spectrum,
    solve_modes,
    truncated_green_min,
)

I2 = FamilyConfig(n_components=2)
I2S = FamilyConfig(n_components=2, neck_length=0.25)


def _forbid(monkeypatch, module, name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{module.__name__}.{name} called")
    monkeypatch.setattr(module, name, fail)


@pytest.fixture(scope="module")
def fine_chain():
    chain = build_chain(I2, 100.0, resolution=192)
    assert chain.n_nodes == 576  # above the shift-invert crossover
    return chain


class TestAssembly:
    def test_csr_forms_match_dense_mode_operator(self):
        chain = build_chain(I2, 60.0, resolution=16)
        ops = chain_operators(chain)
        for m in (0, 1, 3):
            S, M = assemble_mode_operator(chain, m)
            np.testing.assert_allclose(ops.stiffness(m).toarray(), S, rtol=1e-14, atol=0)
            np.testing.assert_array_equal(ops.mass.toarray(), M)
            assert ops.stiffness(m).tocsr().nnz == 3 * chain.n_nodes

    def test_negative_mode_rejected(self):
        chain = build_chain(I2, 60.0, resolution=16)
        with pytest.raises(ValidationError, match="nonnegative"):
            chain_operators(chain).stiffness(-1)

    def test_each_chain_assembles_its_forms_once(self, monkeypatch, tmp_path):
        # potential on i2_step builds 5 chains: one at [sweep] L and one per L
        # of the default estimate grid 20:200:4; each form is one call
        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 1)
        tridiagonal, calls = geometry._cyclic_tridiagonal, []
        monkeypatch.setattr(geometry, "_cyclic_tridiagonal",
                            lambda *args: calls.append(1) or tridiagonal(*args))
        config = Path(__file__).resolve().parents[1] / "configs" / "i2_step.cfg"
        assert cli.main(["potential", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert len(calls) == 3 * 5

    def test_load_vector_matches_scatter_add(self):
        # the scatter it replaces: cell i adds to node i and node i+1 mod n
        chain = build_chain(I2, 60.0, resolution=16)
        a = density_from_spec(step_density_spec([1.5, -1.5]), chain).quad_values
        xi = (chain.quad_x - chain.nodes[:, None]) / chain.cell_lengths[:, None]
        common = geometry.TWO_PI * a * chain.cell_c * chain.quad_w
        want, i = np.zeros(chain.n_nodes), np.arange(chain.n_nodes)
        np.add.at(want, i, np.sum(common * (1.0 - xi), axis=1))
        np.add.at(want, (i + 1) % chain.n_nodes, np.sum(common * xi, axis=1))
        np.testing.assert_array_equal(chain.load_vector(a), want)

    def test_forms_travel_with_a_pickled_chain(self):
        chain = build_chain(I2, 60.0, resolution=16)
        ops = chain.operators
        assert chain.operators is ops
        copy = pickle.loads(pickle.dumps(chain))
        assert "operators" in vars(copy)
        np.testing.assert_array_equal(copy.operators.mass.toarray(), ops.mass.toarray())


class TestShiftInvert:
    @pytest.mark.parametrize("m", [0, 3])
    def test_matches_dense(self, fine_chain, monkeypatch, m):
        S, M = assemble_mode_operator(fine_chain, m)
        want = scipy.linalg.eigh(S, M, eigvals_only=True)[:10]
        _forbid(monkeypatch, np.linalg, "eigh")  # must take the sparse path
        lam, vecs = solve_modes(fine_chain, m, 10)
        scale = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(lam - want) / scale) <= 1e-10
        np.testing.assert_allclose(vecs.T @ M @ vecs, np.eye(10), atol=1e-10)

    def test_dropped_pair_trips_inertia_and_falls_back(self, fine_chain, monkeypatch):
        eigsh, eigh, count = scipy.sparse.linalg.eigsh, np.linalg.eigh, spectral._negative_count
        calls = {"eigsh": 0, "eigh": 0}
        dropped, shifts = [], []

        def lossy_eigsh(*args, **kwargs):
            calls["eigsh"] += 1
            theta, vecs = eigsh(*args, **kwargs)  # theta = 1/(lam - SIGMA)
            order = np.argsort(theta)
            dropped.append(spectral._SIGMA + 1.0 / theta[order[3]])
            keep = np.delete(order, 3)  # lose the fourth pair in theta order
            return theta[keep], vecs[:, keep]

        def counting_eigh(*args, **kwargs):
            calls["eigh"] += 1
            return eigh(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lossy_eigsh)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(spectral, "_negative_count",
                            lambda S, M, shift: shifts.append(shift) or count(S, M, shift))
        lam, _ = solve_modes(fine_chain, 0, 8)
        assert calls == {"eigsh": 1, "eigh": 1}
        assert dropped[0] < shifts[0]  # the count sees the lost pair below its shift
        S, M = assemble_mode_operator(fine_chain, 0)
        np.testing.assert_allclose(lam, scipy.linalg.eigh(S, M, eigvals_only=True)[:8],
                                   rtol=1e-12, atol=1e-9)

    def test_inertia_counts_eigenvalues_below_shift(self, monkeypatch):
        chain = build_chain(I2, 40.0, resolution=16)
        ops = chain_operators(chain)
        S, M = ops.stiffness(1), ops.mass
        lam = scipy.linalg.eigh(S.toarray(), M.toarray(), eigvals_only=True)
        gaps = [j for j in range(lam.size - 1) if lam[j + 1] - lam[j] > 1e-6 * lam[j + 1]]
        assert len(gaps) > 10
        _forbid(monkeypatch, spectral, "load_scipy")  # the count reads the cyclic forms only
        for j in gaps:
            assert spectral._negative_count(S, M, 0.5 * (lam[j] + lam[j + 1])) == j + 1

    @staticmethod
    def _random_pencil(n):
        """A symmetric S and a diagonally dominant, so positive definite, M."""
        rng = np.random.default_rng(n)
        return (geometry.CyclicTridiagonal(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)),
                geometry.CyclicTridiagonal(rng.uniform(2.5, 3.5, n), rng.uniform(-1.0, 1.0, n)))

    # at n = 2 the corner entry adds to the band's; at n = 3 they are neighbours in the last row
    @pytest.mark.parametrize("n", [2, 3, 5, 64])
    def test_inertia_counts_random_cyclic_pencils(self, n):
        S, M = self._random_pencil(n)
        lam = scipy.linalg.eigh(S.toarray(), M.toarray(), eigvals_only=True)
        shifts = np.concatenate([[lam[0] - 1.0], 0.5 * (lam[:-1] + lam[1:]), [lam[-1] + 1.0]])
        for j, shift in enumerate(shifts):
            negative = np.count_nonzero(np.linalg.eigvalsh(S.toarray() - shift * M.toarray()) < 0)
            assert spectral._negative_count(S, M, shift) == negative == j

    # a shift a relative 1e-10 from an eigenvalue leaves a pivot of S - shift*M
    # far smaller than the entries
    @pytest.mark.parametrize("n", [2, 5, 64, 200])
    def test_inertia_at_shifts_next_to_each_eigenvalue(self, n):
        S, M = self._random_pencil(n)
        lam = scipy.linalg.eigh(S.toarray(), M.toarray(), eigvals_only=True)
        for shift in np.concatenate([lam * (1.0 - 1e-10), lam * (1.0 + 1e-10)]):
            negative = np.count_nonzero(np.linalg.eigvalsh(S.toarray() - shift * M.toarray()) < 0)
            assert spectral._negative_count(S, M, shift) == negative == np.count_nonzero(lam < shift)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_inertia_of_a_form_that_is_not_finite_is_none(self, value):
        # a NaN pivot passes no comparison, so counting on would come out short
        ops = build_chain(I2, 100.0, resolution=48).operators
        S = ops.stiffness(3)
        assert spectral._negative_count(S, ops.mass, 500.0) == 4
        S.diag[5] = value
        assert spectral._negative_count(S, ops.mass, 500.0) is None

    def test_inertia_survives_a_zero_leading_pivot(self):
        S, M = self._random_pencil(64)
        S.diag[0], M.diag[0] = 1.5, 3.0
        shift = 0.5  # S - shift*M has an exactly zero (0, 0) entry, the first pivot
        assert S.diag[0] - shift * M.diag[0] == 0.0
        lam = scipy.linalg.eigh(S.toarray(), M.toarray(), eigvals_only=True)
        assert np.min(np.abs(lam - shift)) > 1e-6
        assert spectral._negative_count(S, M, shift) == np.count_nonzero(lam < shift)

    def test_small_grid_stays_dense(self, monkeypatch):
        _forbid(monkeypatch, scipy.sparse.linalg, "eigsh")
        chain = build_chain(I2, 100.0, resolution=48)
        solve_modes(chain, 0, 8)


def _mp_eliminate(form):
    """Pivots and last-row fill of dense Gaussian elimination at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    n = form.diag.size
    with mpmath.workdps(50):
        A = mpmath.matrix(form.toarray().tolist())  # the entries that meet add up exactly
        fill = []
        for i in range(n - 1):
            fill.append(A[n - 1, i])
            for row in range(i + 1, n):
                if A[row, i] != 0:
                    factor = A[row, i] / A[i, i]
                    for col in range(i, n):
                        A[row, col] -= factor * A[i, col]
        return [A[i, i] for i in range(n)], fill


def _circulant(n: int, a: float, b: float):
    """The form with a on the diagonal and b beside it, and its eigenvalues a + 2b cos(2 pi j / n),
    those at cos = 0, +-1/2 and +-1 exact."""
    c = np.cos(2.0 * np.pi * np.arange(n) / n)
    for exact in (0.0, 0.5, -0.5, 1.0, -1.0):
        c[np.abs(c - exact) < 1e-12] = exact
    return geometry.CyclicTridiagonal(np.full(n, a), np.full(n, b)), a + 2.0 * b * c


class TestElimination:
    """``CyclicTridiagonal.eliminate``, the one elimination of a chain form: the inertia
    count reads the signs of its pivots, and the mass factor their square roots."""

    # at n = 2 the corner entry adds to the band's; at n = 3 they are neighbours in the last row
    @pytest.mark.parametrize("n", [2, 3, 5, 64])
    def test_pivots_and_fill_match_mpmath(self, n):
        rng = np.random.default_rng(100 + n)
        # diagonally dominant, of either sign: no pivot comes near zero
        form = geometry.CyclicTridiagonal(rng.choice([-1.0, 1.0], n) * rng.uniform(2.5, 3.5, n),
                                          rng.uniform(-1.0, 1.0, n))
        pivots, fill = form.eliminate()
        want_pivots, want_fill = _mp_eliminate(form)
        assert pivots.shape == (n,) and fill.shape == (n - 1,)
        assert np.all(np.sign(pivots) == np.sign(np.array(want_pivots, dtype=float)))
        np.testing.assert_allclose(pivots, np.array(want_pivots, dtype=float), rtol=1e-14, atol=0)
        np.testing.assert_allclose(fill, np.array(want_fill, dtype=float), rtol=0, atol=1e-14)

    def test_count_near_multiple_eigenvalues(self):
        # with M = I the count is exact a relative 1e-12 from a simple eigenvalue and
        # 1e-8 from a double one; nearer a double one, and within an ulp of any, it
        # lies between the eigenvalues below it and those at or below it
        a, b = 3.0, 1.0
        ns = [n for n in range(2, 601) if n < 13 or n % 4 == 0 or n % 6 == 0]
        wrong = 0
        for n in ns:
            S, lam = _circulant(n, a, b)
            M = geometry.CyclicTridiagonal(np.ones(n), np.zeros(n))
            for target in (a - 2 * b, a - b, a, a + b, a + 2 * b):
                multiple = np.count_nonzero(lam == target)
                if multiple == 0:
                    continue
                below, at_or_below = (np.count_nonzero(lam < target),
                                      np.count_nonzero(lam <= target))
                near = [target, np.nextafter(target, 0.0), np.nextafter(target, np.inf)]
                if multiple > 1:
                    near += [target * (1.0 + s * rel)
                             for s in (-1, 1) for rel in (1e-12, 1e-10, 1e-9)]
                for shift in near:
                    count = spectral._negative_count(S, M, shift)
                    assert below <= count <= at_or_below, (n, target, shift)
                    wrong += count != np.count_nonzero(lam < shift)
                far = (1e-12,) if multiple == 1 else (1e-8, 1e-6)
                for shift in (target * (1.0 + s * rel) for s in (-1, 1) for rel in far):
                    assert spectral._negative_count(S, M, shift) == np.count_nonzero(lam < shift)
        assert wrong > 0  # the bracket is all that holds near a double eigenvalue


def test_green_kernel_matches_per_pair_loop(monkeypatch):
    chain = build_chain(I2S, 60.0, resolution=32)
    eigsys = full_spectrum(chain, m_max=4, k_per_mode=24)
    _forbid(monkeypatch, np, "outer")  # no rank-one update per pair
    rep = truncated_green_min(chain, eigsys, lambda_cutoff=500.0)
    monkeypatch.undo()

    low = set(eigsys.low.tolist())
    certified = eigsys.certified
    n = chain.n_nodes
    f0, habs, included = np.zeros((n, n)), np.zeros((n, n)), 0
    for j, (lam, mode) in enumerate(zip(eigsys.lam, eigsys.modes)):
        if not certified[j] or lam <= 1e-8 or j in low or lam > 500.0:
            continue
        outer = np.outer(eigsys.vecs[:, j], eigsys.vecs[:, j]) / lam
        if mode == 0:
            f0 += outer
            included += 1
        else:
            habs += 2.0 * np.abs(outer)
            included += 2
    assert included == rep.included_expanded > 0
    assert rep.min_value == pytest.approx(float((f0 - habs).min()), rel=1e-12)
    assert rep.diag_min == pytest.approx(float((np.diag(f0) + np.diag(habs)).min()), rel=1e-12)


class TestPoisson:
    def test_sparse_solve_matches_dense_bordered_solve(self, monkeypatch):
        chain = build_chain(I2, 80.0, resolution=32)
        dens = density_from_spec(step_density_spec([1.5, -1.5]), chain)
        S, M = assemble_mode_operator(chain, 0)
        n = chain.n_nodes
        w = M @ np.ones(n)
        K = np.block([[S, w[:, None]], [w[None, :], np.zeros((1, 1))]])
        rhs = np.append(FOUR_PI * chain.load_vector(dens.quad_values), 0.0)
        dense = scipy.linalg.solve(K, rhs, assume_a="sym")[:n]
        _forbid(monkeypatch, scipy.linalg, "solve")
        phi = solve_direct(chain, dens).phi
        assert np.max(np.abs(phi - dense)) <= 1e-10 * np.max(np.abs(dense))
