"""Potential solves against closed-form, circuit, and cross-route oracles."""

import math

import numpy as np
import pytest

from pinchlab.errors import ValidationError
from pinchlab.geometry import (
    TWO_PI,
    DensitySpec,
    FamilyConfig,
    build_chain,
    cosine_bump_profile,
    density_from_callable,
    density_from_spec,
    step_density_spec,
)
from pinchlab.potential import (
    circuit_potentials,
    estimate_report,
    solve_direct,
    solve_spectral,
    split_low_high,
)
from pinchlab.spectral import assemble_mode_operator, full_spectrum

PI = math.pi
I2 = FamilyConfig(n_components=2)
I3 = FamilyConfig(n_components=3)
TORUS = FamilyConfig(n_components=1, no_neck=True)


def flux_report(chain, pot) -> np.ndarray:
    """Net outward flux 2*pi*c*phi' through the necks bounding each component.

    For a solved potential this matches -4*pi * (component integral of the
    source): the circuit mechanism behind the linear-in-L growth.
    """
    h = chain.cell_lengths
    phi_ext = np.append(pot.phi, pot.phi[0])
    slope = np.diff(phi_ext) / h
    flux_at = {}
    for neck in chain.neck_segments():
        mid = neck.x0 + neck.length / 2
        cell = int(np.searchsorted(chain.nodes, mid, side="right") - 1)
        flux_at[neck.index] = TWO_PI * neck.c * slope[cell]
    N = chain.cfg.n_components
    out = np.zeros(N)
    for i in range(N):
        out[i] = flux_at[i] - flux_at[(i - 1) % N]
    return out


def torus_setup(resolution=256):
    chain = build_chain(TORUS, L=100.0, resolution=resolution)
    return chain


class TestDirectSolve:
    def test_zero_density_zero_potential(self):
        chain = build_chain(I2, 60.0, resolution=16)
        dens = density_from_spec(DensitySpec(), chain)
        pot = solve_direct(chain, dens)
        assert np.max(np.abs(pot.phi)) <= 1e-12

    def test_flat_torus_single_mode_closed_form(self):
        # phi'' = -4*pi*cos(2*pi*x)  =>  phi = (1/pi) cos(2*pi*x); the P1
        # solution is nodally exact up to the O(h^4) mean correction
        chain = torus_setup()
        dens = density_from_callable(lambda x: np.cos(2 * PI * np.asarray(x)), chain)
        pot = solve_direct(chain, dens)
        exact = np.cos(2 * PI * chain.nodes) / PI
        assert np.max(np.abs(pot.phi - exact)) <= 1e-8
        assert abs(pot.sup_norm() - 1 / PI) <= 1e-8

    def test_mean_is_zero(self):
        chain = build_chain(I3, 50.0, resolution=24)
        dens = density_from_spec(step_density_spec([1.0, -0.5, -0.5]), chain)
        pot = solve_direct(chain, dens)
        assert abs(pot.mean) <= 1e-10

    def test_i2_step_sup_norm_circuit_oracle(self):
        chain = build_chain(I2, 100.0, resolution=48)
        dens = density_from_spec(step_density_spec([2.0, -2.0]), chain)
        pot = solve_direct(chain, dens)
        # network oracle: plateau gap a0*L/2 across each neck
        plateaus = circuit_potentials(
            [0.5, 0.5], [(0, 1), (0, 1)], chain.neck_conductance, [1.0, -1.0]
        )
        assert plateaus[0] == pytest.approx(50.0, rel=1e-12)
        assert pot.sup_norm() == pytest.approx(50.0, rel=0.10)

    def test_linear_growth_in_L(self):
        sups = []
        for L in (50.0, 100.0, 200.0):
            chain = build_chain(I2, L, resolution=32)
            pot = solve_direct(chain, density_from_spec(step_density_spec([2.0, -2.0]), chain))
            sups.append(pot.sup_norm())
        assert sups[1] / sups[0] == pytest.approx(2.0, rel=0.05)
        assert sups[2] / sups[1] == pytest.approx(2.0, rel=0.05)

    def test_linearity(self):
        chain = build_chain(I2, 70.0, resolution=24)
        d1 = density_from_spec(step_density_spec([1.0, -1.0]), chain)
        d2 = density_from_spec(DensitySpec(cos_terms=((2, 0.7),)), chain)
        both = density_from_callable(
            lambda x: d1.evaluate(x) + d2.evaluate(x), chain
        )
        p1 = solve_direct(chain, d1).phi
        p2 = solve_direct(chain, d2).phi
        p12 = solve_direct(chain, both).phi
        assert np.max(np.abs(p12 - p1 - p2)) <= 1e-10 * max(1.0, np.abs(p12).max())

    def test_nonzero_mean_rejected(self):
        chain = build_chain(I2, 60.0, resolution=16)
        dens = density_from_spec(step_density_spec([1.0, -1.0]), chain)
        object.__setattr__(dens, "total_integral", 1.0)
        with pytest.raises(ValidationError, match="general fibers"):
            solve_direct(chain, dens)

    def test_permutation_invariance(self):
        # relabeling the unknowns must not change the solution
        chain = build_chain(I2, 60.0, resolution=16)
        dens = density_from_spec(step_density_spec([2.0, -2.0]), chain)
        pot = solve_direct(chain, dens)
        import scipy.linalg
        from pinchlab.potential import FOUR_PI

        S, M = assemble_mode_operator(chain, 0)
        n = chain.n_nodes
        rng = np.random.default_rng(7)
        perm = rng.permutation(n)
        w = M @ np.ones(n)
        K = np.zeros((n + 1, n + 1))
        K[:n, :n] = S[np.ix_(perm, perm)]
        K[:n, n] = w[perm]
        K[n, :n] = w[perm]
        rhs = np.append((FOUR_PI * chain.load_vector(dens.quad_values))[perm], 0.0)
        sol = scipy.linalg.solve(K, rhs, assume_a="sym")
        unpermuted = np.empty(n)
        unpermuted[perm] = sol[:n]
        assert np.max(np.abs(unpermuted - pot.phi)) <= 1e-10 * max(1.0, pot.sup_norm())


class TestGaussCircuitLaw:
    def test_flux_matches_component_integrals(self):
        for cfg, vals in [(I2, [2.0, -2.0]), (I3, [1.0, 0.2, -1.2])]:
            chain = build_chain(cfg, 90.0, resolution=48)
            dens = density_from_spec(step_density_spec(vals), chain)
            pot = solve_direct(chain, dens)
            fluxes = flux_report(chain, pot)
            expected = -4 * PI * dens.component_integrals
            np.testing.assert_allclose(fluxes, expected, rtol=0.01, atol=1e-9)


class TestSpectralSolve:
    def test_matches_direct_on_random_densities(self):
        rng = np.random.default_rng(1234)
        chain = build_chain(I3, 100.0, resolution=24)
        eigsys = full_spectrum(chain, m_max=1, k_per_mode=chain.n_nodes)
        _, M = assemble_mode_operator(chain, 0)
        for _ in range(10):
            spec = DensitySpec(
                fat_values=tuple((i, float(rng.uniform(-1, 1))) for i in range(3)),
                cos_terms=((int(rng.integers(1, 4)), float(rng.uniform(-1, 1))),),
                sin_terms=((int(rng.integers(1, 4)), float(rng.uniform(-1, 1))),),
            )
            dens = density_from_spec(spec, chain)
            direct = solve_direct(chain, dens)
            spectral, coeffs = solve_spectral(chain, dens, eigsys)
            diff = direct.phi - spectral.phi
            rel = math.sqrt(diff @ M @ diff) / math.sqrt(direct.phi @ M @ direct.phi)
            assert rel <= 1e-6
            np.testing.assert_allclose(coeffs.c * coeffs.eigenvalues, coeffs.b,
                                       rtol=0, atol=1e-15 * max(1, np.abs(coeffs.b).max()))

    def test_flat_torus_single_mode_coefficients(self):
        chain = torus_setup(resolution=64)
        eigsys = full_spectrum(chain, m_max=1, k_per_mode=20)
        dens = density_from_callable(lambda x: np.cos(2 * PI * np.asarray(x)), chain)
        _, coeffs = solve_spectral(chain, dens, eigsys, k_trunc=12)
        b = np.abs(coeffs.b)
        # only the matching eigenpair picks up weight
        assert np.sum(b > 1e-8 * b.max()) == 1

    def test_truncation_to_low_part_is_projection(self):
        chain = build_chain(I2, 80.0, resolution=24)
        eigsys = full_spectrum(chain, m_max=1, k_per_mode=chain.n_nodes)
        dens = density_from_spec(step_density_spec([2.0, -2.0]), chain)
        direct = solve_direct(chain, dens)
        low_direct, _ = split_low_high(direct, eigsys)
        truncated, _ = solve_spectral(chain, dens, eigsys, k_trunc=eigsys.low_count)
        assert np.max(np.abs(truncated.phi - low_direct)) <= 1e-8

    def test_overlong_truncation_rejected(self):
        chain = build_chain(I2, 80.0, resolution=16)
        eigsys = full_spectrum(chain, m_max=1, k_per_mode=8)
        dens = density_from_spec(step_density_spec([1.0, -1.0]), chain)
        with pytest.raises(ValidationError, match="exceeds"):
            solve_spectral(chain, dens, eigsys, k_trunc=10**6)


class TestSplit:
    def test_low_span_input_has_zero_high(self):
        chain = build_chain(I2, 80.0, resolution=24)
        eigsys = full_spectrum(chain, m_max=1, k_per_mode=8)
        phi1 = eigsys.vecs[:, eigsys.low[0]]
        from pinchlab.potential import PreferredPotential
        pot = PreferredPotential(chain=chain, phi=3.0 * phi1, mean=0.0)
        low, high = split_low_high(pot, eigsys)
        assert np.max(np.abs(high)) <= 1e-10
        np.testing.assert_allclose(low, 3.0 * phi1, atol=1e-10)

    def test_constant_input_splits_to_zero(self):
        chain = build_chain(I2, 80.0, resolution=24)
        eigsys = full_spectrum(chain, m_max=1, k_per_mode=8)
        from pinchlab.potential import PreferredPotential
        pot = PreferredPotential(chain=chain, phi=np.full(chain.n_nodes, 2.5), mean=2.5)
        low, high = split_low_high(pot, eigsys)
        assert np.max(np.abs(low)) <= 1e-10
        assert np.max(np.abs(high)) <= 1e-10

    def test_pythagoras(self):
        chain = build_chain(I3, 60.0, resolution=24)
        eigsys = full_spectrum(chain, m_max=1, k_per_mode=12)
        dens = density_from_spec(step_density_spec([1.0, -0.3, -0.7]), chain)
        pot = solve_direct(chain, dens)
        low, high = split_low_high(pot, eigsys)
        _, M = assemble_mode_operator(chain, 0)
        total = float(pot.phi @ M @ pot.phi)
        parts = float(low @ M @ low) + float(high @ M @ high) + pot.mean**2
        assert abs(total - parts) <= 1e-10 * max(1.0, total)
        recomb = low + high + pot.mean - pot.phi
        assert np.max(np.abs(recomb)) <= 1e-12 * max(1.0, pot.sup_norm())


class TestEstimateReport:
    def test_condition1_step_density(self):
        table = estimate_report(
            I2, [20.0, 50.0, 100.0, 200.0],
            lambda chain: density_from_spec(step_density_spec([2.0, -2.0]), chain),
            resolution=32,
        )
        assert table.high_bounded
        # sup_low / L stays bounded (the slope mechanism)
        assert table.low_over_L_endpoint_ratio <= 1.25

    def test_condition2_bump_density(self):
        table = estimate_report(
            I2, [20.0, 50.0, 100.0, 200.0],
            lambda chain: density_from_callable(cosine_bump_profile(chain, 0), chain),
            resolution=32,
        )
        assert table.low_over_sqrtL_decreasing
        assert table.high_bounded

    def test_zero_density_all_zero(self):
        table = estimate_report(
            I2, [20.0, 50.0, 100.0, 200.0],
            lambda chain: density_from_spec(DensitySpec(), chain),
            resolution=16,
        )
        for row in table.rows:
            assert row.sup_high == 0.0 and row.sup_low <= 1e-13

    def test_narrow_sweep_rejected(self):
        with pytest.raises(ValidationError):
            estimate_report(I2, [20.0, 25.0, 30.0, 35.0],
                            lambda chain: density_from_spec(DensitySpec(), chain))

    def test_high_over_sup_a_sweep_uniform(self):
        table = estimate_report(
            I2, [20.0, 50.0, 100.0, 200.0],
            lambda chain: density_from_spec(step_density_spec([2.0, -2.0]), chain),
            resolution=32,
        )
        r0, r1 = table.rows[0], table.rows[-1]
        assert (r1.sup_high / r1.sup_a) <= 1.25 * (r0.sup_high / r0.sup_a)
