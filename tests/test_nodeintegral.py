"""Node-integral asymptotics against exact formulas and brute quadrature."""

import math

import numpy as np
import pytest

from pinchlab.errors import ValidationError
from pinchlab.nodeintegral import (
    EtaSpec,
    aitken_limit,
    asymptote_fit,
    check_quadrature_convergence,
    constant_eta,
    divisor_integral,
    fiber_annulus_integral,
    fiber_integral,
    gap_to_limit,
    sample_curve,
)

PI = math.pi


def exact_constant_value(t: float) -> float:
    # For eta_{22} = 1 the fiber integral has the closed form
    # I(t) = pi log|t|^2 + pi - pi |t|^2 (elementary polar integration).
    return PI * math.log(t**2) + PI - PI * t**2


class TestFiberAnnulusIntegral:
    def test_zero_eta(self):
        eta = EtaSpec({})
        assert fiber_annulus_integral(eta, 1e-3) == 0.0

    def test_constant_eta_closed_form(self):
        eta = constant_eta()
        for t in (1e-2, 1e-3, 1e-4, 1e-6):
            assert fiber_annulus_integral(eta, t) == pytest.approx(
                exact_constant_value(t), abs=1e-7
            )

    def test_log_term_bounded_after_subtraction(self):
        eta = constant_eta()
        vals = [fiber_annulus_integral(eta, t) - PI * math.log(t**2)
                for t in np.geomspace(1e-2, 1e-6, 5)]
        assert max(vals) - min(vals) <= 1e-3

    def test_doubling_below_tolerance(self):
        assert check_quadrature_convergence(constant_eta(), 1e-4) < 1e-8

    def test_split_radius_independence(self):
        eta = EtaSpec({
            (2, 2): ((0, 0, 0, 0, 1.0), (0, 0, 1, 1, -0.3)),
            (1, 1): ((0, 0, 0, 0, 0.2),),
        })
        a = fiber_annulus_integral(eta, 1e-4, split_factor=1.0)
        b = fiber_annulus_integral(eta, 1e-4, split_factor=2.0)
        assert abs(a - b) <= 1e-8

    def test_chart_swap_consistency(self):
        # exchanging the roles of z1 and z2 and rewriting the log factor via
        # log|z1|^2 = log|t|^2 - log|z2|^2 must reproduce the same number
        eta = EtaSpec({
            (1, 1): ((0, 0, 0, 0, 0.7),),
            (2, 2): ((1, 1, 0, 0, 1.0),),
        })
        swapped = EtaSpec({
            (1, 1): ((0, 0, 1, 1, 1.0),),   # old eta22 with arguments swapped
            (2, 2): ((0, 0, 0, 0, 0.7),),
        })
        t = 1e-3
        direct = fiber_annulus_integral(eta, t)
        j_swapped = fiber_integral(swapped, t)
        other = math.log(t**2) * j_swapped - fiber_annulus_integral(swapped, t)
        assert direct == pytest.approx(other, abs=1e-8)

    def test_conjugation_symmetry(self):
        eta = EtaSpec({
            (1, 2): ((1, 0, 0, 0, 0.5),),
            (2, 1): ((0, 1, 0, 0, 0.5),),
            (2, 2): ((0, 0, 0, 0, 1.0),),
        })
        t = 1e-3 * complex(math.cos(0.7), math.sin(0.7))
        assert fiber_annulus_integral(eta, np.conj(t)) == pytest.approx(
            fiber_annulus_integral(eta, t), abs=1e-10
        )

    def test_linearity_in_eta(self):
        e1 = constant_eta()
        e2 = EtaSpec({(1, 1): ((0, 0, 0, 0, 1.0),)})
        combo = EtaSpec({
            (2, 2): ((0, 0, 0, 0, 1.0),),
            (1, 1): ((0, 0, 0, 0, 0.25),),
        })
        t = 3e-4
        lhs = fiber_annulus_integral(combo, t)
        rhs = fiber_annulus_integral(e1, t) + 0.25 * fiber_annulus_integral(e2, t)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_t_out_of_range(self):
        with pytest.raises(ValidationError):
            fiber_annulus_integral(constant_eta(), 1.5)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            EtaSpec({(1, 2): ((1, 0, 0, 0, 1.0),)})


class TestAsymptoteFit:
    def test_constant_eta_slope_pi(self):
        curve = sample_curve(constant_eta(), np.geomspace(1e-2, 1e-6, 9))
        fit = asymptote_fit(curve, constant_eta())
        assert abs(fit.A_fit - PI) <= 0.01 * PI
        assert fit.A_ref == PI  # the closed form, exactly
        assert fit.remainder_bounded

    def test_brute_force_divisor_oracle(self):
        # brute 2D midpoint quadrature over the unit disk, independent route
        eta = EtaSpec({(2, 2): ((0, 0, 1, 1, 1.0), (0, 0, 0, 0, 0.5))})
        n = 600
        xs = (np.arange(n) + 0.5) / n * 2 - 1
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        inside = X**2 + Y**2 <= 1.0
        z2 = X + 1j * Y
        vals = eta.evaluate(2, 2, np.zeros_like(z2), z2).real
        brute = float(np.sum(vals * inside) * (2.0 / n) ** 2)
        assert divisor_integral(eta) == pytest.approx(brute, rel=1e-2)

    @pytest.mark.parametrize("monos", [
        ((0, 0, 1, 0, 1.0), (0, 0, 0, 1, 1.0)),               # a2 != b2
        ((0, 0, 3, 1, 0.5 + 2j), (0, 0, 1, 3, 0.5 - 2j)),
        ((1, 0, 1, 1, 1.0), (0, 1, 1, 1, 1.0)),               # a1 > 0 or b1 > 0
        ((1, 1, 0, 0, 2.0),),
    ])
    def test_divisor_integral_drops_angular_and_z1_monomials(self, monos):
        assert divisor_integral(EtaSpec({(2, 2): monos})) == 0.0

    @pytest.mark.parametrize("monos", [
        ((0, 0, 0, 0, 0.5),),
        ((0, 0, 2, 2, -1.25),),
        ((0, 0, 1, 1, 1.0), (0, 0, 2, 1, 0.3 + 0.4j), (0, 0, 1, 2, 0.3 - 0.4j)),
    ])
    def test_divisor_integral_matches_mpmath(self, monos):
        mpmath = pytest.importorskip("mpmath")

        def density(r, theta):  # eta_{22}(0, z2) r in polar coordinates
            z = mpmath.mpc(r * mpmath.cos(theta), r * mpmath.sin(theta))
            eta = sum(c * z**a2 * mpmath.conj(z) ** b2 for _, _, a2, b2, c in monos)
            return r * mpmath.re(eta)

        want = mpmath.quad(density, [0, 1], [0, 2 * mpmath.pi])
        assert abs(divisor_integral(EtaSpec({(2, 2): monos})) - float(want)) <= 1e-12

    def test_vanishing_slope_case(self):
        eta = EtaSpec({(2, 2): ((1, 1, 0, 0, 1.0),)})  # |z1|^2: zero on z1 = 0
        curve = sample_curve(eta, np.geomspace(1e-2, 1e-6, 9))
        fit = asymptote_fit(curve, eta)
        assert abs(fit.A_fit) <= 1e-3

    def test_remainder_ratio_no_growth(self):
        curve = sample_curve(constant_eta(), np.geomspace(1e-2, 1e-6, 9))
        fit = asymptote_fit(curve, constant_eta())
        half = len(fit.remainder_ratios) // 2
        assert np.max(fit.remainder_ratios[half:]) <= max(
            2.0 * np.max(fit.remainder_ratios[:half]), 1e-9
        )

    def test_short_sample_set_rejected(self):
        curve = sample_curve(constant_eta(), np.geomspace(1e-2, 1e-6, 9))
        from pinchlab.nodeintegral import NodeIntegralCurve
        small = NodeIntegralCurve(t=curve.t[:4], values=curve.values[:4])
        with pytest.raises(ValidationError):
            asymptote_fit(small, constant_eta())


class TestSmoothFiberContinuity:
    """The plain fiber integral J(t) extends continuously to the node: J(t) -> pi
    on the constant density, with the Aitken limit of its samples."""

    T_GRID = np.geomspace(1e-2, 1e-6, 7)

    def test_zero_eta(self):
        J = [fiber_integral(EtaSpec({}), t) for t in self.T_GRID]
        assert J == [0.0] * len(J)
        assert aitken_limit(J) == 0.0

    def test_constant_eta_cauchy_positive_exponent(self):
        J = np.array([fiber_integral(constant_eta(), t) for t in self.T_GRID])
        steps = np.abs(np.diff(J))
        assert np.all(steps[1:] < steps[:-1])
        limit, gap, mask = gap_to_limit(J)
        assert limit == pytest.approx(PI, abs=1e-6)
        assert mask.all() and np.all(gap[1:] < gap[:-1])

    def test_aitken_limit_of_a_geometric_sequence(self):
        # 6, 5.5, 5.25 -> 5; the second difference with its sign reversed gives 7
        assert aitken_limit([6.0, 5.5, 5.25]) == 5.0
        limit, gap, mask = gap_to_limit(np.array([5.0, 6.0, 5.5, 5.25]))
        assert limit == 5.0
        np.testing.assert_array_equal(gap, [0.0, 1.0, 0.5, 0.25])
        np.testing.assert_array_equal(mask, [False, True, True, True])

    def test_constant_eta_exponent_two(self):
        # J(t) = pi - pi |t|^2 on the constant density, to the quadrature's accuracy
        for t in self.T_GRID:
            assert abs(fiber_integral(constant_eta(), t) - (PI - PI * t**2)) <= 1e-8

    def test_refinement_stability(self):
        a = fiber_integral(constant_eta(), 1e-3, 32, 64)
        b = fiber_integral(constant_eta(), 1e-3, 64, 128)
        assert abs(a - b) <= 1e-8
