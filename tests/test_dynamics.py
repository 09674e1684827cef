"""Translation dynamics: Birkhoff limits, quadratic growth, potential identities."""

import math

import numpy as np
import pytest

from pinchlab.dynamics import (
    TorusFibration,
    annulus_samples,
    birkhoff_hat,
    birkhoff_limit,
    fiber_poisson,
    flat_potential_identity,
    limit_potential_relation,
    pushforward_growth,
    synthesize_invariant_observable,
    translate,
)
from pinchlab.errors import ValidationError

PI = math.pi
TWO_PI = 2 * PI


def make_fib(t_coeffs=(0, 1), n=64, samples=None, **kw):
    if samples is None:
        samples = annulus_samples(0.5, 1.5, n_r=2, n_arg=4)
    return TorusFibration(t_coeffs=tuple(t_coeffs), s_samples=tuple(samples),
                          fiber_n=n, **kw)


def phi_sincos(s, A, B):
    return 0.3 * np.sin(TWO_PI * A) * np.cos(TWO_PI * B)


def u_re(s):
    return s.real


class TestSpectralPrimitives:
    def test_translation_preserves_fiber_integral(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(32, 32))
        shifted = translate(vals, 0.237 + 0.911j)
        assert shifted.mean() == pytest.approx(vals.mean(), abs=1e-12)

    def test_group_law(self):
        fib = make_fib(n=32)
        A, B = fib.grid()
        vals = np.sin(TWO_PI * A) + np.cos(TWO_PI * (A + 2 * B))
        one = translate(translate(vals, 0.3 + 0.1j), 0.45 + 0.22j)
        両 = translate(vals, 0.75 + 0.32j)
        np.testing.assert_allclose(one, 両, atol=1e-12)

    def test_birkhoff_matches_explicit_sum(self):
        vals = np.cos(TWO_PI * np.arange(16) / 16)[:, None] * np.ones((16, 16))
        t = 0.137 + 0j
        fhat = np.fft.fft2(vals)
        k = 7
        closed = np.fft.ifft2(birkhoff_hat(fhat, t, k)).real
        brute = np.zeros_like(vals)
        cur = vals.copy()
        for _ in range(k):
            brute += cur
            cur = translate(cur, t)
        np.testing.assert_allclose(closed, brute, atol=1e-10)

    def test_fiber_poisson_single_mode(self):
        n = 32
        a = np.arange(n) / n
        A, B = np.meshgrid(a, a, indexing="ij")
        rhs = np.cos(TWO_PI * A)
        phi = fiber_poisson(rhs)
        # laplace(phi) = -4 pi cos  =>  phi = cos/(pi) with laplace -> -4pi^2
        np.testing.assert_allclose(phi, np.cos(TWO_PI * A) / PI, atol=1e-12)

    def test_constant_t_rejected_without_flag(self):
        with pytest.raises(ValidationError, match="constant"):
            make_fib(t_coeffs=(0.5,))

    def test_nonperiodic_function_rejected(self):
        fib = make_fib(n=16)
        bad = lambda s, A, B: A  # not 1-periodic
        with pytest.raises(ValidationError, match="seam"):
            birkhoff_limit(fib, bad, 10, u_ref=u_re)


class TestBirkhoffLimit:
    def test_pure_pullback_exact_for_all_k(self):
        fib = make_fib(n=32)
        f, _ = synthesize_invariant_observable(fib, u_re, lambda s, A, B: 0.0 * A)
        run = birkhoff_limit(fib, f, 100, u_ref=u_re)
        assert np.max(run.sup_deviation) <= 1e-12
        assert np.max(run.constancy_defect) <= 1e-12

    def test_synthetic_deviation_bound(self):
        fib = make_fib(n=64)
        f, sup_phi = synthesize_invariant_observable(fib, u_re, phi_sincos)
        run = birkhoff_limit(fib, f, 10_000, u_ref=u_re)
        assert run.ks == (100, 1000, 10000)
        for i, k in enumerate(run.ks):
            assert np.max(run.sup_deviation[i]) <= 2 * sup_phi / k + 1e-12

    def test_convergence_between_ladder_steps(self):
        fib = make_fib(n=32)
        f, sup_phi = synthesize_invariant_observable(fib, u_re, phi_sincos)
        run = birkhoff_limit(fib, f, 1000, u_ref=u_re)
        # |u_k - u_2k|-type contraction: defects shrink like 1/k
        for i in range(len(run.ks) - 1):
            ratio = run.ks[i] / run.ks[i + 1]
            assert np.max(run.constancy_defect[i + 1]) <= (
                3 * sup_phi * ratio / run.ks[i] + 1e-12
            )

    def test_tate_bound(self):
        fib = make_fib(n=32)
        f, _ = synthesize_invariant_observable(fib, u_re, phi_sincos)
        assert birkhoff_limit(fib, f, 1000, u_ref=u_re).tate_bound_ok
        A, B = fib.grid()
        for s in fib.s_samples:
            values = np.asarray(f(s, A, B))
            # the fiber mean of f is u(s), as phi - T_*phi has mean zero
            assert values.mean() == pytest.approx(u_re(s), abs=1e-12)
            assert abs(values.mean()) <= np.abs(values).max()


class TestPushforwardGrowth:
    def test_reference_case_quadratic(self):
        # T(s) = s, rho = sin(2 pi a) sin(2 pi b): curvature sup is 2 pi^2
        fib = make_fib(t_coeffs=(0, 1), n=64, samples=[1.0 + 0.0j])
        rho = lambda s, A, B: np.sin(TWO_PI * A) * np.sin(TWO_PI * B)
        rep = pushforward_growth(fib, rho, [64, 128, 256, 512, 1024], 1.0 + 0.0j)
        assert 1.95 <= rep.exponent <= 2.05
        assert rep.expected_coefficient == pytest.approx(2 * PI**2, rel=1e-10)
        assert rep.coefficient == pytest.approx(rep.expected_coefficient, rel=0.02)
        assert rep.stable

    def test_zero_rho_nothing_above_the_floor(self):
        # a zero pushforward leaves every point on the FD floor: no fit, not stable
        fib = make_fib(t_coeffs=(0, 1), n=32, samples=[1.0 + 0.0j])
        rep = pushforward_growth(fib, lambda s, A, B: 0.0 * A, [16, 64, 256], 1.0 + 0.0j)
        assert rep.exponent == 0.0
        assert not rep.stable

    def test_critical_point_negative_control(self):
        # dT = 0 at s0 = 0 for T(s) = s^2: the n^2 law needs dT != 0
        fib = make_fib(t_coeffs=(0, 0, 1), n=32, samples=[0.5 + 0.0j])
        rho = lambda s, A, B: np.sin(TWO_PI * A) * np.sin(TWO_PI * B)
        rep = pushforward_growth(fib, rho, [64, 128, 256, 512, 1024], 0.0 + 0.0j)
        assert rep.exponent < 1.2

    def test_refinement_stability_at_reference(self):
        fib = make_fib(t_coeffs=(0, 1), n=32, samples=[1.0 + 0.0j])
        rho = lambda s, A, B: np.sin(TWO_PI * A) * np.sin(TWO_PI * B)
        rep = pushforward_growth(fib, rho, [1024], 1.0 + 0.0j)
        assert rep.stable
        assert np.max(rep.error_floors / rep.sup_values) < 0.01


class TestFlatPotentialIdentity:
    def test_zero_rho(self):
        fib = make_fib(n=32)
        assert flat_potential_identity(fib, lambda s, A, B: 0.0 * A) == 0.0

    def test_single_mode(self):
        fib = make_fib(n=32)
        rho = lambda s, A, B: 0.1 * np.cos(TWO_PI * A)
        assert flat_potential_identity(fib, rho) <= 1e-6

    def test_two_mode(self):
        fib = make_fib(n=64)
        rho = lambda s, A, B: 0.05 * np.cos(TWO_PI * A) + 0.03 * np.sin(
            TWO_PI * (A + B)
        ) + 0.02 * np.cos(TWO_PI * B)
        assert flat_potential_identity(fib, rho) <= 1e-6

    def test_oversized_rho_rejected(self):
        fib = make_fib(n=32)
        rho = lambda s, A, B: 5.0 * np.cos(TWO_PI * A)
        with pytest.raises(ValidationError, match="positive"):
            flat_potential_identity(fib, rho)


class TestLimitPotentialRelation:
    def test_oversized_rho_rejected_as_in_flat_identity(self):
        fib = make_fib(n=32)
        rho = lambda s, A, B: 5.0 * np.cos(TWO_PI * A)
        with pytest.raises(ValidationError, match="rho is too large: the perturbed fiber "
                                                  "density is not positive"):
            limit_potential_relation(fib, lambda s, A, B: np.cos(TWO_PI * A), rho,
                                     f_fiber_mean=lambda s: 0.0)

    def test_zero_alpha_reduces_to_mean(self):
        fib = make_fib(n=32)
        rep = limit_potential_relation(
            fib,
            alpha=lambda s, A, B: 0.0 * A,
            rho=lambda s, A, B: 0.05 * np.cos(TWO_PI * A),
            f_fiber_mean=lambda s: s.real,
        )
        assert rep.max_discrepancy <= 1e-10
        np.testing.assert_allclose(
            rep.u_samples, [s.real for s in fib.s_samples], atol=1e-10
        )

    def test_full_synthetic_construction(self):
        fib = make_fib(n=64)
        alpha = lambda s, A, B: (1 + 0.5 * s.real) * np.cos(TWO_PI * A) \
            + 0.4 * np.sin(TWO_PI * B)
        rho = lambda s, A, B: 0.04 * np.cos(TWO_PI * (A + B)) + 0.03 * np.sin(TWO_PI * B)
        rep = limit_potential_relation(fib, alpha, rho,
                                       f_fiber_mean=lambda s: 0.2 * abs(s))
        assert rep.max_discrepancy <= 1e-8
        assert rep.constancy_defect <= 1e-10

    def test_u_continuity_on_smooth_data(self):
        samples = tuple(1.0 + 0.1j * k for k in range(8))
        fib = make_fib(samples=samples, n=32)
        alpha = lambda s, A, B: s.real * np.cos(TWO_PI * A)
        rho = lambda s, A, B: 0.02 * np.cos(TWO_PI * B)
        rep = limit_potential_relation(fib, alpha, rho,
                                       f_fiber_mean=lambda s: math.sin(s.imag))
        # u is smooth in s: adjacent samples differ by O(spacing)
        spacing = 0.1
        lipschitz = 2.0  # d/ds of sin(Im s) plus the pairing term, bounded by 2
        assert rep.max_adjacent_jump <= lipschitz * spacing
