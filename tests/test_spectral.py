"""Spectral solver against closed-form and network-limit oracles."""

import dataclasses
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from pinchlab import spectral
from pinchlab.configfile import load_config
from pinchlab.dualgraph import cycle_graph
from pinchlab.errors import ConvergenceError, StructureError, ValidationError
from pinchlab.geometry import (
    C_FAT,
    CyclicTridiagonal,
    FamilyConfig,
    build_chain,
    density_from_spec,
    step_density_spec,
)
from pinchlab.potential import solve_direct, solve_spectral, split_low_high
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
        assert np.all(lam >= 1.0 / C_FAT**2 - 1e-8)


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


DENSE_CHAINS = pytest.mark.parametrize("make", [lambda: config_chain("i2_step"),
                                                 lambda: config_chain("i3_bump"),
                                                 seeded_four_component_chain],
                                        ids=["i2_step", "i3_bump", "seeded_4_components"])


class TestSharedMassFactor:
    """Every dense mode solve reduces the problem with one factorization of M per
    chain's forms, kept in a one-slot cache keyed by the bytes of those forms."""

    @DENSE_CHAINS
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

    def test_factor_matches_lapack_cholesky(self):
        # the shipped configs, the n = 576 full-basis chain and TestGreenModes' seeded families
        chains = [config_chain("i2_step"), config_chain("i3_bump"),
                  config_chain("i2_step", resolution=192)]
        chains += [random_family_chain(100 * resolution + 10 * m_max + tail_count + seed,
                                       resolution)
                   for resolution in (32, 48) for m_max in (8, 16) for tail_count in (24, 20)
                   for seed in range(3)]
        for chain in chains:
            (d, l, r), _, _ = spectral._mass_factor(chain)
            C = np.linalg.cholesky(chain.operators.mass.toarray())
            ulp = np.finfo(float).eps * np.abs(C).max()
            for got, want in ((d, np.diag(C)), (l, np.diag(C, -1)[:-1]), (r, C[-1, :-1])):
                assert np.max(np.abs(got - want)) <= 4 * ulp

    def test_cache_is_exact(self, monkeypatch):
        # the dense path counts no inertia: every elimination here factors a mass form
        factorizations = []
        eliminate = CyclicTridiagonal.eliminate
        monkeypatch.setattr(CyclicTridiagonal, "eliminate",
                            lambda form: factorizations.append(1) or eliminate(form))
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
            form = getattr(chain.operators, name)
            form = dataclasses.replace(form, diag=form.diag.copy())
            form.diag[0] = np.nextafter(form.diag[0], np.inf)
            chain.__dict__["operators"] = dataclasses.replace(chain.operators, **{name: form})
            count = len(factorizations)
            solve_modes(chain, 2, 32)
            assert len(factorizations) == count + 1
            assert holds_factor_of(chain) and not holds_factor_of(a)

    def test_corrupted_factor_fails_the_residual_gate(self, monkeypatch):
        chain = config_chain("i2_step")
        (d, l, r), A, B = spectral._mass_factor(chain)
        bad = (d, l.copy(), r)
        bad[1][0] += 1e-6 * d[1]  # F[1, 0]: x = F^-T y is then no eigenvector
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


def substitute_by_rows(F, X, transpose=False):
    """The back- and forward substitution of ``_substitute`` as one statement per row."""
    d, l, r = F
    X /= d[:, None]
    if transpose:
        X[:-1] -= (r / d[:-1])[:, None] * X[-1]
        for i in reversed(range(l.size)):
            X[i] -= l[i] / d[i] * X[i + 1]
    else:
        for i in range(1, l.size + 1):
            X[i] -= l[i - 1] / d[i] * X[i - 1]
        X[-1] -= (r / d[-1]) @ X[:-1]
    return X


class TestBatchedModes:
    """``full_spectrum`` fills its k-blocks from one-mode ``solve_modes`` calls, with the
    bits of each call; the pool's blocks are checked in test_pool.py."""

    @DENSE_CHAINS
    @pytest.mark.parametrize("k", [32, "n"])
    def test_blocks_equal_one_call_per_mode(self, make, k):
        chain = make()
        k = chain.n_nodes if k == "n" else k
        eigsys = full_spectrum(chain, m_max=8, k_per_mode=k)
        assert eigsys.lam.shape == (9 * k,) and eigsys.vecs.shape == (chain.n_nodes, 9 * k)
        assert eigsys.vecs.flags.f_contiguous
        for m in range(9):
            lam_m, vecs_m = solve_modes(chain, m, k)
            assert vecs_m.flags.f_contiguous
            assert np.array_equal(eigsys.lam[m * k:(m + 1) * k], lam_m)
            assert np.array_equal(eigsys.vecs[:, m * k:(m + 1) * k], vecs_m)

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("width", [1, 32, "2n"])
    def test_substitute_equals_the_row_loop(self, transpose, width):
        chain = config_chain("i3_bump")
        n = chain.n_nodes
        F, _, _ = spectral._mass_factor(chain)
        X = np.random.default_rng(5).standard_normal((n, 2 * n if width == "2n" else width))
        expected = substitute_by_rows(F, X.copy(), transpose)
        got = X.copy()
        assert spectral._substitute(F, got, transpose) is got  # in place
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("k", [0, -3, 25])
    def test_k_outside_one_to_n_rejected(self, k):
        chain = build_chain(I2, 60.0, resolution=8)
        assert chain.n_nodes == 24
        with pytest.raises(ValidationError, match=rf"requested {k} eigenpairs .* 1 <= k <= n"):
            solve_modes(chain, 0, k)

    @staticmethod
    def _overflowing_b(monkeypatch, chain, corrupt):
        """Mode 1's reduced matrix not finite; with ``corrupt``, mode 0's residual gate fails."""
        (d, l, r), A, B = spectral._mass_factor(chain)
        l = l.copy()
        if corrupt:
            l[0] += 1e-6 * d[1]  # F[1, 0]: x = F^-T y is then no eigenvector
        B = B.copy()
        B[0, 0] = np.inf
        monkeypatch.setattr(spectral, "_mass_factor", lambda c: ((d, l, r), A, B))

    def test_errors_are_raised_in_mode_order(self, monkeypatch):
        chain = config_chain("i2_step")
        self._overflowing_b(monkeypatch, chain, corrupt=True)
        with pytest.raises(ConvergenceError, match="eigen residual beyond tolerance mode=0"):
            full_spectrum(chain, m_max=2, k_per_mode=32)

    def test_a_later_mode_matrix_that_is_not_finite_is_named(self, monkeypatch):
        chain = config_chain("i2_step")
        self._overflowing_b(monkeypatch, chain, corrupt=False)
        with pytest.raises(ConvergenceError, match="reduced mode matrix is not finite mode=1"):
            full_spectrum(chain, m_max=2, k_per_mode=32)


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
        bound = 16 / C_FAT**2
        assert eigsys.certified_below <= bound
        for e in eigsys.entries:
            if e.certified:
                assert e.lam <= eigsys.certified_below

    def test_mode_0_alone_is_the_mode_0_block(self):
        # callers that read mode 0 only skip the m >= 1 solves; the excluded
        # modes' bound is then 1 / c_max^2
        chain = build_chain(I2, 60.0, resolution=24)
        k = 10
        alone = full_spectrum(chain, m_max=0, k_per_mode=k)
        both = full_spectrum(chain, m_max=1, k_per_mode=k)
        assert np.array_equal(alone.lam, both.lam[:k])
        assert np.array_equal(alone.vecs, both.vecs[:, :k])
        assert np.array_equal(alone.modes, np.zeros(k))
        assert alone.certified_below == min(1 / C_FAT**2, alone.lam[k - 1])
        assert alone.low_count == both.low_count

    def test_negative_m_max_rejected(self):
        with pytest.raises(ValidationError, match="m_max must be at least 0"):
            full_spectrum(build_chain(I2, 60.0, resolution=24), m_max=-1)

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
        def overlap_mass(L):
            chain = build_chain(I2, L, resolution=24)
            prod = np.prod(model_functions(chain).functions, axis=0)
            return float(prod @ (chain.operators.mass @ prod)) ** 0.5

        assert overlap_mass(500.0) < overlap_mass(50.0) / 2.5

    def test_fat_cores_disjoint(self):
        chain = build_chain(I3, L=60.0, resolution=24)
        mfs = model_functions(chain)
        x = chain.nodes
        fats = [(k, seg.index) for k, seg in enumerate(chain.segments) if seg.kind == "fat"]
        for k, i in fats:
            core = chain.segment_at(x) == k
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
        np.testing.assert_allclose(rep2.scaled_residuals, rep.scaled_residuals, atol=1e-12)


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

    # each check in its own case: a cutoff below every pair beyond the
    # collapsing ones leaves an empty kernel sum
    @pytest.mark.parametrize("options, message", [
        (lambda eigsys: {"lambda_cutoff": 0.0}, "green cutoff 0 admits no pair"),
        (lambda eigsys: {"lambda_cutoff": -1.0}, "green cutoff -1 admits no pair"),
        (lambda eigsys: {"lambda_cutoff": 1e-30}, "green cutoff 1e-30 admits no pair"),
        (lambda eigsys: {"tail_count": 0}, "tail_count must be at least 1, got 0"),
        (lambda eigsys: {"lambda_cutoff": 2 * eigsys.certified_below},
         "exceeds the certified part"),
    ], ids=["cutoff-0", "cutoff-minus-1", "cutoff-1e-30", "tail-0", "cutoff-above-certified"])
    def test_bad_tail_or_cutoff_rejected(self, options, message):
        chain = build_chain(I2, 60.0, resolution=24)
        eigsys = full_spectrum(chain, m_max=4, k_per_mode=24)
        assert math.isfinite(eigsys.certified_below)
        with pytest.raises(ValidationError, match=message):
            truncated_green_min(chain, eigsys, **options(eigsys))

    @pytest.mark.parametrize("options", [{"tail_count": 40}, {"lambda_cutoff": 600.0}])
    def test_cutoff_past_the_modes_a_green_tail_spectrum_holds_rejected(self, options):
        # green_tail=24 solves modes 0-2 of i2_step: mode 3's eigenvalues are at least
        # 9 / c_max^2 = 355.3, below the cutoff tail_count = 40 puts on the full spectrum
        chain = config_chain("i2_step")
        reduced = full_spectrum(chain, m_max=8, k_per_mode=32, green_tail=24)
        assert np.array_equal(np.unique(reduced.modes), [0, 1, 2])
        with pytest.raises(ValidationError, match="reaches mode 3, which the spectrum lacks"):
            truncated_green_min(chain, reduced, **options)
        full = full_spectrum(chain, m_max=8, k_per_mode=32)
        truncated_green_min(chain, full, **options)  # its certificate covers the cutoff
        assert truncated_green_min(chain, full, tail_count=40).cutoff == pytest.approx(403.52,
                                                                                     abs=0.01)


def random_family_chain(seed: int, resolution: int):
    """A chain of a seeded family: 1-5 components, neck lengths 0.25-1, L in 20-300."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    family = FamilyConfig(n_components=n, areas=tuple(rng.uniform(0.3, 1.5, n).tolist()),
                          neck_length=float(rng.uniform(0.25, 1.0)))
    return build_chain(family, float(np.exp(rng.uniform(np.log(20.0), np.log(300.0)))),
                       resolution)


class TestGreenModes:
    """``full_spectrum(..., green_tail=t)`` solves only the modes the Green cutoff of
    ``truncated_green_min(..., tail_count=t)`` can reach and counts the rest: every
    field of the report equals that of the full spectrum."""

    @staticmethod
    def assert_reduced_equals_full(chain, m_max, tail_count):
        full = full_spectrum(chain, m_max=m_max, k_per_mode=32)
        reduced = full_spectrum(chain, m_max=m_max, k_per_mode=32, green_tail=tail_count)
        solved = int(reduced.modes.max()) + 1
        assert solved <= m_max  # some mode is only counted
        k = reduced.lam.size // solved
        assert np.array_equal(reduced.lam, full.lam[:solved * k])
        assert np.array_equal(reduced.vecs, full.vecs[:, :solved * k])
        counted = full.certified & (full.modes >= solved)
        assert reduced.counted_tail == int(full.multiplicity[counted].sum())
        assert (reduced.certified_below, reduced.gap_value, reduced.certification_limited_by_k) \
            == (full.certified_below, full.gap_value, full.certification_limited_by_k)
        assert truncated_green_min(chain, reduced, tail_count) \
            == truncated_green_min(chain, full, tail_count)
        return solved

    # i3_bump is D3-symmetric: its Green envelope depends on the basis picked
    # inside degenerate eigenspaces
    @pytest.mark.parametrize("name", ["i2_step", "i3_bump"])
    def test_shipped_grids(self, name):
        cfg = load_config(str(CONFIGS / f"{name}.cfg"))
        for L in cfg.get_grid("sweep", "L_grid", ""):
            chain = build_chain(cfg.family(), float(L), cfg.get_int("solver", "resolution", ""))
            self.assert_reduced_equals_full(chain, cfg.get_int("solver", "m_max", ""), 24)

    @pytest.mark.parametrize("resolution", [32, 48])
    @pytest.mark.parametrize("m_max", [8, 16])
    @pytest.mark.parametrize("tail_count", [24, 20])
    def test_seeded_families(self, resolution, m_max, tail_count):
        for seed in range(3):
            chain = random_family_chain(100 * resolution + 10 * m_max + tail_count + seed,
                                        resolution)
            self.assert_reduced_equals_full(chain, m_max, tail_count)

    def test_i2_step_solves_modes_0_to_2(self, monkeypatch):
        chain = config_chain("i2_step")
        assert chain.n_nodes == 144
        solved, solve = [], spectral.solve_modes
        monkeypatch.setattr(spectral, "solve_modes",
                            lambda chain, m, *args: solved.append(m) or solve(chain, m, *args))
        eigsys = full_spectrum(chain, m_max=8, k_per_mode=32, green_tail=24)
        assert solved == [0, 1, 2]
        assert np.array_equal(np.unique(eigsys.modes), [0, 1, 2])

    def test_without_a_cutoff_every_mode_is_solved(self):
        chain = config_chain("i2_step")
        eigsys = full_spectrum(chain, m_max=8, k_per_mode=32, green_tail=500)
        assert np.array_equal(np.unique(eigsys.modes), np.arange(9))
        assert eigsys.counted_tail == 0
        with pytest.raises(ValidationError, match="insufficient certified pairs: need 501"):
            truncated_green_min(chain, eigsys, tail_count=500)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_counted_mode_form_not_finite_is_named(self, monkeypatch, value):
        chain = config_chain("i2_step")
        stiffness = type(chain.operators).stiffness

        def corrupted(ops, m):
            S = stiffness(ops, m)
            if m == 3:
                S = dataclasses.replace(S, diag=S.diag.copy())
                S.diag[5] = value
            return S

        monkeypatch.setattr(type(chain.operators), "stiffness", corrupted)
        with pytest.raises(ConvergenceError, match=r"^mode form is not finite mode=3 n=144 L=100\.0$"):
            full_spectrum(chain, m_max=8, k_per_mode=32, green_tail=24)

    @pytest.mark.parametrize("seed", range(4))
    def test_computed_eigenvalues_obey_the_rayleigh_bound(self, seed):
        # the stop rule: no mode-m eigenvalue lies below m^2 / c_max^2
        chain = random_family_chain(seed, 16)
        c_max = max(seg.c for seg in chain.segments)
        for m in range(1, 9):
            lam, _ = solve_modes(chain, m, chain.n_nodes)
            assert lam.min() >= m * m / c_max**2 * (1.0 - 1e-12)


def step_density(chain):
    return density_from_spec(step_density_spec([2.0, -2.0]), chain)


def assert_values_match(values, full):
    """A ``vectors=False`` spectrum against the vector path's: the same pairs, modes and
    flags, eigenvalues to 1e-10 relative (1e-11 absolute at zero), and no vectors."""
    assert values.vecs is None
    assert np.array_equal(values.modes, full.modes)
    assert values.certification_limited_by_k == full.certification_limited_by_k
    assert (values.low_count, values.counted_tail) == (full.low_count, full.counted_tail)
    big = np.abs(full.lam) > 1e-9
    np.testing.assert_allclose(values.lam[big], full.lam[big], rtol=1e-10, atol=0)
    np.testing.assert_allclose(values.lam[~big], full.lam[~big], rtol=0, atol=1e-11)
    for name in ("certified_below", "gap_value"):
        assert getattr(values, name) == pytest.approx(getattr(full, name), rel=1e-10), name
    assert np.array_equal(values.certified, full.certified)


class TestValuesOnly:
    """``vectors=False`` solves a dense mode with eigvalsh, certified by the O(n)
    inertia count; a mode the count cannot certify, and every mode at k = n, takes eigh."""

    @pytest.mark.parametrize("name", ["i2_step", "i3_bump"])
    def test_shipped_grids(self, name):
        cfg = load_config(str(CONFIGS / f"{name}.cfg"))
        for L in cfg.get_grid("sweep", "L_grid", ""):
            chain = build_chain(cfg.family(), float(L), cfg.get_int("solver", "resolution", ""))
            options = {"m_max": cfg.get_int("solver", "m_max", ""), "k_per_mode": 32}
            assert_values_match(full_spectrum(chain, **options, vectors=False),
                                full_spectrum(chain, **options))

    @pytest.mark.parametrize("resolution", [32, 48])
    @pytest.mark.parametrize("m_max", [8, 16])
    @pytest.mark.parametrize("tail_count", [24, 20])
    def test_seeded_families(self, resolution, m_max, tail_count):
        # TestGreenModes' chains
        for seed in range(3):
            chain = random_family_chain(100 * resolution + 10 * m_max + tail_count + seed,
                                        resolution)
            assert_values_match(full_spectrum(chain, m_max=m_max, k_per_mode=32, vectors=False),
                                full_spectrum(chain, m_max=m_max, k_per_mode=32))

    def test_certified_modes_skip_the_vector_path(self, monkeypatch):
        chain = config_chain("i2_step")
        spectral._mass_factor(chain)  # factored before the patches: the factor substitutes
        monkeypatch.setattr(np.linalg, "eigh", None)  # calling it would raise
        monkeypatch.setattr(spectral, "_substitute", None)
        monkeypatch.setattr(spectral, "_residuals", None)
        for m in range(9):
            assert solve_modes(chain, m, 32, vectors=False)[1] is None

    @pytest.mark.parametrize("k", [32, "n"])
    def test_a_miscount_falls_back_to_the_vector_path(self, monkeypatch, k):
        # k = n leaves no gap above the k-th value, so no count could certify eigvalsh's
        # values: eigh alone, always
        chain = config_chain("i3_bump")
        k = chain.n_nodes if k == "n" else k
        want = [solve_modes(chain, m, k)[0] for m in range(9)]
        if k < chain.n_nodes:
            monkeypatch.setattr(spectral, "_negative_count", lambda S, M, shift: -1)
        else:
            monkeypatch.setattr(np.linalg, "eigvalsh", None)  # calling it would raise
        for m in range(9):
            lam, vecs = solve_modes(chain, m, k, vectors=False)
            assert np.array_equal(lam, want[m]) and vecs is None

    def test_full_basis_beyond_the_sparse_threshold(self):
        chain = config_chain("i2_step", resolution=192)
        options = {"m_max": 2, "k_per_mode": chain.n_nodes}
        values = full_spectrum(chain, **options, vectors=False)
        full = full_spectrum(chain, **options)
        assert values.vecs is None and np.array_equal(values.lam, full.lam)

    def test_a_green_tail_spectrum_keeps_its_vectors(self):
        chain = config_chain("i2_step")
        eigsys = full_spectrum(chain, m_max=8, k_per_mode=32, green_tail=24, vectors=False)
        assert eigsys.vecs is not None
        truncated_green_min(chain, eigsys, 24)

    def test_loads_no_scipy(self):
        # n <= _SPARSE_MIN_NODES: the dense values and their count are numpy's
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "from pinchlab import configfile, geometry, spectral\n"
            f"cfg = configfile.load_config({str(CONFIGS / 'i3_bump.cfg')!r})\n"
            "chains = [geometry.build_chain(cfg.family(), L, 48) for L in (40.0, 220.0)]\n"
            "spectra = spectral.full_spectra(chains, m_max=8, k_per_mode=32, vectors=False)\n"
            "assert all(s.vecs is None for s in spectra)\n"
            "print(sorted(name for name in sys.modules if name.startswith('scipy')))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout == "['scipy']\n"  # the blocked entry alone

    def test_spectrum_pickle_carries_no_vectors(self):
        eigsys = full_spectrum(config_chain("i3_bump"), m_max=8, k_per_mode=32, vectors=False)
        assert len(pickle.dumps(eigsys)) <= eigsys.lam.nbytes + eigsys.modes.nbytes + 4096


class TestStandardShiftInvert:
    """``_shift_invert`` runs ARPACK in its standard mode on F^T (S - SIGMA M)^-1 F, F the
    O(n) mass factor, and recovers every vector x = F^-T y with one block LU solve."""

    @staticmethod
    def recorded_eigsh(monkeypatch):
        """The calls to ARPACK, as (args, kwargs, result), with the result passed on."""
        calls, eigsh = [], scipy.sparse.linalg.eigsh

        def recording(*args, **kwargs):
            calls.append((args, kwargs, eigsh(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recording)
        return calls

    @pytest.mark.parametrize("name", ["i2_step", "i3_bump"])
    def test_matches_the_generalized_solve(self, monkeypatch, name):
        monkeypatch.setattr(np.linalg, "eigh", None)  # every solve certified, none dense
        for resolution, modes in ((192, range(9)), (768, [0])):  # n = 576 and 2304
            chain = config_chain(name, resolution=resolution)
            M = chain.operators.mass.toarray()
            for m in modes:
                lam, vecs = solve_modes(chain, m, 32)
                ref = scipy.linalg.eigh(chain.operators.stiffness(m).toarray(), M,
                                        eigvals_only=True, subset_by_index=[0, 31])
                # the dense reference errs by about eps times the pencil's largest eigenvalue,
                # 5e-10 on the smallest nonzero value at n = 2304: each value is checked to
                # 1e-10 of the larger of itself and 1% of the 32nd value
                scale = np.maximum(np.abs(ref), 1e-2 * ref[-1])
                assert np.max(np.abs(lam - ref) / scale) <= 1e-10
                np.testing.assert_allclose(vecs.T @ M @ vecs, np.eye(32), rtol=0, atol=1e-10)

    def test_arpack_gets_no_mass_and_no_pole(self, monkeypatch):
        calls = self.recorded_eigsh(monkeypatch)
        solve_modes(config_chain("i2_step", resolution=192), 3, 32)
        (args, kwargs, _), = calls
        assert len(args) == 2 and kwargs.get("M") is None and kwargs.get("sigma") is None

    def test_vectors_are_the_back_substituted_ritz_vectors(self, monkeypatch):
        calls = self.recorded_eigsh(monkeypatch)
        chain = config_chain("i3_bump", resolution=192)
        for m in (0, 4):
            _, vecs = solve_modes(chain, m, 32)
            theta, Y = calls[-1][2]
            order = np.argsort(spectral._SIGMA + 1.0 / theta)[:32]
            F = spectral._cholesky(chain.operators.mass)
            want = spectral._substitute(F, Y[:, order].copy(), transpose=True)
            # the sign convention's largest entry ties in magnitude on this symmetric
            # chain, so rounding can flip a column: compare up to sign
            want *= np.sign(np.sum(want * vecs, axis=0))
            assert np.max(np.abs(vecs - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", ["i2_step", "i3_bump"])
    def test_values_only_skips_the_ritz_vectors(self, monkeypatch, name):
        cfg = load_config(str(CONFIGS / f"{name}.cfg"))
        grid = cfg.get_grid("sweep", "L_grid", "")
        calls = self.recorded_eigsh(monkeypatch)
        for L in grid:
            chain = build_chain(cfg.family(), float(L), resolution=192)
            want = np.concatenate([solve_modes(chain, m, 32)[0] for m in range(9)])
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigh", None)  # certified by the count alone:
                patch.setattr(np.linalg, "eigvalsh", None)  # no dense fallback,
                patch.setattr(spectral, "_residuals", None)  # no vector, no residual
                solved = [solve_modes(chain, m, 32, vectors=False) for m in range(9)]
            assert all(vecs is None for _, vecs in solved)
            lam = np.concatenate([lam for lam, _ in solved])
            big = np.abs(want) > 1e-8
            np.testing.assert_allclose(lam[big], want[big], rtol=1e-12, atol=0)
            np.testing.assert_allclose(lam[~big], want[~big], rtol=0, atol=1e-12)
        assert ([kwargs["return_eigenvectors"] for _, kwargs, _ in calls]
                == ([True] * 9 + [False] * 9) * len(grid))
        assert full_spectrum(chain, m_max=8, k_per_mode=32, vectors=False).vecs is None

    def test_a_values_only_miscount_runs_arpack_once(self, monkeypatch):
        # the failed certificate sends the mode to the dense eigh, not to a second
        # ARPACK run with vectors, whose certificate would fail the same way
        chain = config_chain("i2_step", resolution=192)
        monkeypatch.setattr(spectral, "_negative_count", lambda S, M, shift: -1)
        calls = self.recorded_eigsh(monkeypatch)
        for m in (0, 4):
            want = solve_modes(chain, m, 32)[0]  # no count certifies: the dense eigh's
            del calls[:]
            lam, vecs = solve_modes(chain, m, 32, vectors=False)
            assert np.array_equal(lam, want) and vecs is None
            assert [kwargs["return_eigenvectors"] for _, kwargs, _ in calls] == [False]


class TestCertificateGap:
    """Every certificate places its shift at least _GAP_RTOL/2 from every computed value,
    past the inertia count's measured accuracy near a multiple eigenvalue (5e-9)."""

    @staticmethod
    def shifts_and_values(monkeypatch):
        seen, count, certifies = [], spectral._negative_count, spectral._count_certifies

        def recording_count(S, M, shift):
            seen[-1][0] = shift
            return count(S, M, shift)

        def recording_certifies(S, M, lam, k):
            seen.append([None, lam])
            return certifies(S, M, lam, k)

        monkeypatch.setattr(spectral, "_negative_count", recording_count)
        monkeypatch.setattr(spectral, "_count_certifies", recording_certifies)
        return seen

    @staticmethod
    def assert_clear(seen):
        for shift, lam in seen:
            assert shift is not None
            assert np.min(np.abs(lam - shift)) >= 5e-7 * abs(shift)

    @pytest.mark.parametrize("name", ["i2_step", "i3_bump"])
    def test_shift_invert_certificates(self, monkeypatch, name):
        cfg = load_config(str(CONFIGS / f"{name}.cfg"))
        seen = self.shifts_and_values(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigh", None)  # every certificate must pass
        solves = 0
        for L in (45.0, 100.0, 220.0):
            chain = build_chain(cfg.family(), L, resolution=192)
            assert chain.n_nodes > spectral._SPARSE_MIN_NODES
            for m in range(9):
                solve_modes(chain, m, 32)
                solves += 1
        solve_modes(build_chain(cfg.family(), 100.0, resolution=768), 0, 32)
        assert len(seen) == solves + 1
        self.assert_clear(seen)

    @pytest.mark.parametrize("name", ["i2_step", "i3_bump"])
    def test_values_only_certificates(self, monkeypatch, name):
        cfg = load_config(str(CONFIGS / f"{name}.cfg"))
        seen = self.shifts_and_values(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigh", None)
        for L in cfg.get_grid("sweep", "L_grid", ""):
            chain = build_chain(cfg.family(), float(L), cfg.get_int("solver", "resolution", ""))
            for m in range(9):
                solve_modes(chain, m, 32, vectors=False)
        assert len(seen) == 9 * 12
        self.assert_clear(seen)


@pytest.mark.parametrize("read", [
    lambda chain, eigsys: truncated_green_min(chain, eigsys, 24),
    lambda chain, eigsys: correlation_matrix(chain, eigsys, model_functions(chain)),
    lambda chain, eigsys: split_low_high(solve_direct(chain, step_density(chain)), eigsys),
    lambda chain, eigsys: solve_spectral(chain, step_density(chain), eigsys),
], ids=["truncated_green_min", "correlation_matrix", "split_low_high", "solve_spectral"])
def test_vector_readers_reject_a_spectrum_without_vectors(read):
    chain = config_chain("i2_step")
    read(chain, full_spectrum(chain, m_max=8, k_per_mode=32))  # accepted with its vectors
    with pytest.raises(ValidationError, match="^spectrum holds no eigenvectors$"):
        read(chain, full_spectrum(chain, m_max=8, k_per_mode=32, vectors=False))
