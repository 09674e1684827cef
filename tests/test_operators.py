"""The sparse operator layer: shift-invert eigensolves, their inertia
certificate, the bordered Poisson LU and the GEMM Green kernel, each checked
against the dense computation it replaces."""

import pickle
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from pinchlab import cli, geometry, spectral
from pinchlab.errors import ValidationError
from pinchlab.geometry import (
    FamilyConfig,
    build_chain,
    chain_operators,
    density_from_spec,
    step_density_spec,
)
from pinchlab.potential import FOUR_PI, solve_direct
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
            assert ops.stiffness(m).nnz == 3 * chain.n_nodes

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
        common = geometry.TWO_PI * a * chain.quad_c * chain.quad_w
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
        _forbid(monkeypatch, scipy.linalg, "eigh")  # must take the sparse path
        lam, vecs = solve_modes(fine_chain, m, 10)
        scale = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(lam - want) / scale) <= 1e-10
        np.testing.assert_allclose(vecs.T @ M @ vecs, np.eye(10), atol=1e-10)

    def test_dropped_pair_trips_inertia_and_falls_back(self, fine_chain, monkeypatch):
        eigsh, eigh = scipy.sparse.linalg.eigsh, scipy.linalg.eigh
        calls = {"eigsh": 0, "eigh": 0}

        def lossy_eigsh(*args, **kwargs):
            calls["eigsh"] += 1
            lam, vecs = eigsh(*args, **kwargs)
            order = np.argsort(lam)
            keep = np.delete(order, 3)  # lose the fourth pair
            return lam[keep], vecs[:, keep]

        def counting_eigh(*args, **kwargs):
            calls["eigh"] += 1
            return eigh(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lossy_eigsh)
        monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
        lam, _ = solve_modes(fine_chain, 0, 8)
        assert calls == {"eigsh": 1, "eigh": 1}
        S, M = assemble_mode_operator(fine_chain, 0)
        np.testing.assert_allclose(lam, eigh(S, M, eigvals_only=True)[:8],
                                   rtol=1e-12, atol=1e-9)

    def test_inertia_counts_eigenvalues_below_shift(self):
        chain = build_chain(I2, 40.0, resolution=16)
        ops = chain_operators(chain)
        S, M = ops.stiffness(1), ops.mass
        lam = scipy.linalg.eigh(S.toarray(), M.toarray(), eigvals_only=True)
        gaps = [j for j in range(lam.size - 1) if lam[j + 1] - lam[j] > 1e-6 * lam[j + 1]]
        assert len(gaps) > 10
        for j in gaps:
            assert spectral._negative_count(S, M, 0.5 * (lam[j] + lam[j + 1])) == j + 1

    def test_small_grid_stays_dense(self, monkeypatch):
        _forbid(monkeypatch, scipy.sparse.linalg, "eigsh")
        chain = build_chain(I2, 100.0, resolution=48)
        solve_modes(chain, 0, 8)


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
