"""Height pairing: algebraic properties, slope law, base change, decay probe."""

import math

import numpy as np
import pytest

from pinchlab.dualgraph import cycle_graph
from pinchlab.errors import ValidationError
from pinchlab.geometry import (
    DensitySpec,
    FamilyConfig,
    build_chain,
    cosine_bump_profile,
    density_from_callable,
    density_from_spec,
    neck_wave_profile,
    random_step_spec,
    step_density_spec,
)
from pinchlab.pairing import (
    PairingCurve,
    base_change_consistency,
    fit_log_asymptote,
    holder_probe,
    pairing_energy,
    pairing_sweep,
    pairing_value,
    predicted_constant,
)

I2 = FamilyConfig(n_components=2)
I3 = FamilyConfig(n_components=3)

STEP = step_density_spec([2.0, -2.0])


def step_builder(spec):
    return lambda chain: density_from_spec(spec, chain)


def bump_builder(segment=0):
    return lambda chain: density_from_callable(
        cosine_bump_profile(chain, segment), chain
    )


def neck_builder(neck=0):
    return lambda chain: density_from_callable(
        neck_wave_profile(chain, neck), chain
    )


class TestPairingValue:
    def test_zero_second_slot(self):
        chain = build_chain(I2, 80.0, resolution=24)
        a = density_from_spec(STEP, chain)
        zero = density_from_spec(DensitySpec(), chain)
        assert pairing_value(chain, a, zero) == pytest.approx(0.0, abs=1e-12)

    def test_energy_identity(self):
        chain = build_chain(I2, 80.0, resolution=32)
        a = density_from_spec(STEP, chain)
        value, energy = pairing_energy(chain, a)
        assert value >= 0
        assert value == pytest.approx(energy, rel=1e-8)

    def test_i2_step_value_near_L(self):
        chain = build_chain(I2, 100.0, resolution=48)
        a = density_from_spec(STEP, chain)
        assert pairing_value(chain, a, a) == pytest.approx(100.0, rel=0.10)

    def test_symmetry(self):
        chain = build_chain(I3, 60.0, resolution=24)
        rng = np.random.default_rng(3)
        a = density_from_spec(random_step_spec(3, I3.area_vector(), rng), chain)
        b = density_from_spec(DensitySpec(cos_terms=((1, 0.4),), sin_terms=((2, 0.2),)), chain)
        v1 = pairing_value(chain, a, b)
        v2 = pairing_value(chain, b, a)
        assert abs(v1 - v2) <= 1e-10 * (1 + abs(v1))

    def test_bilinearity(self):
        chain = build_chain(I2, 70.0, resolution=24)
        a1 = density_from_spec(step_density_spec([1.0, -1.0]), chain)
        a2 = density_from_spec(DensitySpec(sin_terms=((1, 0.6),)), chain)
        b = density_from_spec(DensitySpec(cos_terms=((2, 1.0),)), chain)
        t = 0.37
        combo = density_from_callable(lambda x: a1.evaluate(x) + t * a2.evaluate(x), chain)
        lhs = pairing_value(chain, combo, b)
        rhs = pairing_value(chain, a1, b) + t * pairing_value(chain, a2, b)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    def test_positivity_and_definiteness(self):
        chain = build_chain(I2, 60.0, resolution=24)
        rng = np.random.default_rng(11)
        for _ in range(5):
            spec = DensitySpec(
                fat_values=((0, float(rng.uniform(-1, 1))), (1, float(rng.uniform(-1, 1)))),
                cos_terms=((1, float(rng.uniform(-1, 1))),),
            )
            a = density_from_spec(spec, chain)
            v = pairing_value(chain, a, a)
            assert v >= -1e-12
            if np.max(np.abs(a.values)) > 1e-6:
                assert v > 1e-10


class TestSweepAndFit:
    def test_synthetic_fit_recovers_generator(self):
        L = np.linspace(50, 200, 8)
        curve = PairingCurve(L=L, s=np.exp(-L), values=3.0 + (-2.0 * L) * 0.25)
        fit = fit_log_asymptote(curve, (50, 200))
        assert fit.c_fit == pytest.approx(0.25, abs=1e-12)
        assert fit.intercept == pytest.approx(3.0, abs=1e-10)
        assert fit.residual_rms <= 1e-12

    def test_i2_hand_slope(self):
        curve = pairing_sweep(I2, step_builder(STEP), step_builder(STEP),
                              np.geomspace(50, 200, 8), resolution=32)
        fit = fit_log_asymptote(curve)
        assert fit.c_fit == pytest.approx(-0.5, rel=0.05)

    def test_random_condition1_pairs_match_prediction(self):
        rng = np.random.default_rng(42)
        for cfg in (I2, I3):
            areas = cfg.area_vector()
            g = cycle_graph(areas)
            ref_chain = build_chain(cfg, 200.0, resolution=32)
            for _ in range(3):
                sa = random_step_spec(cfg.n_components, areas, rng)
                sb = random_step_spec(cfg.n_components, areas, rng)
                curve = pairing_sweep(cfg, step_builder(sa), step_builder(sb),
                                      np.geomspace(50, 200, 6), resolution=24)
                fit = fit_log_asymptote(curve)
                pred = predicted_constant(
                    g, density_from_spec(sa, ref_chain), density_from_spec(sb, ref_chain)
                )
                assert abs(fit.c_fit - pred) <= 0.05 * max(abs(pred), 0.01)

    def test_condition2_bump_pair_flat_slope(self):
        # a bump pair never sees the necks: the curve is flat to rounding
        curve = pairing_sweep(I2, bump_builder(0), bump_builder(0),
                              np.geomspace(25, 200, 9), resolution=32)
        fit = fit_log_asymptote(curve, (50, 200))
        scale = float(np.max(np.abs(curve.values)))
        assert abs(fit.c_fit) <= 1e-3 * scale

    def test_condition2_neck_pair_cauchy(self):
        # a neck-supported pair decays with the collapsing area: Cauchy curve
        curve = pairing_sweep(I2, neck_builder(0), neck_builder(0),
                              np.geomspace(25, 200, 9), resolution=32)
        diffs = np.abs(np.diff(curve.values))
        assert diffs[-1] < diffs[0]
        fit = fit_log_asymptote(curve, (50, 200))
        scale = float(np.max(np.abs(curve.values)))
        # the 1/L tail leaves a pseudo-slope ~ scale/(2 L0 L1), not a log term
        assert abs(fit.c_fit) <= 2e-3 * scale

    def test_condition2_intercept_window_stable(self):
        curve = pairing_sweep(I2, bump_builder(0), bump_builder(0),
                              np.geomspace(40, 220, 12), resolution=32)
        f1 = fit_log_asymptote(curve, (40, 110))
        f2 = fit_log_asymptote(curve, (100, 220))
        assert f2.intercept == pytest.approx(f1.intercept, rel=0.01)

    def test_swap_slots_same_curve(self):
        a, b = step_builder(STEP), bump_builder(0)
        c1 = pairing_sweep(I2, a, b, [50.0, 80.0, 120.0, 200.0], resolution=24)
        c2 = pairing_sweep(I2, b, a, [50.0, 80.0, 120.0, 200.0], resolution=24)
        np.testing.assert_allclose(c1.values, c2.values,
                                   atol=1e-10 * (1 + np.abs(c1.values).max()))

    def test_small_window_rejected(self):
        curve = pairing_sweep(I2, step_builder(STEP), step_builder(STEP),
                              [50.0, 60.0, 80.0, 120.0, 200.0], resolution=16)
        with pytest.raises(ValidationError):
            fit_log_asymptote(curve, (110, 130))


class TestBaseChange:
    def test_degree_one_exact(self):
        rep = base_change_consistency(I2, 1, [30.0, 40.0, 55.0, 75.0],
                                      step_builder(STEP), step_builder(STEP),
                                      resolution=24)
        assert rep.max_discrepancy == 0.0

    def test_degree_three_consistency(self):
        rep = base_change_consistency(I2, 3, [20.0, 28.0, 40.0, 60.0],
                                      step_builder(STEP), step_builder(STEP),
                                      resolution=24)
        assert rep.max_discrepancy <= 1e-12
        # log|t|^2 = log|s|^2 / d turns the slope by exactly d
        assert rep.slope_in_t == pytest.approx(3 * rep.slope_in_s, rel=1e-9)


class TestHolderProbe:
    def test_power_law_recovery(self):
        L = np.geomspace(20, 300, 12)
        curve = PairingCurve(L=L, s=np.exp(-L), values=5.0 + 1.0 / L)
        probe = holder_probe(curve)
        assert probe.best_family == "power"
        assert probe.power_exponent == pytest.approx(1.0, abs=0.05)
        assert probe.limit_estimate == pytest.approx(5.0, abs=1e-3)

    def test_exponential_recovery(self):
        L = np.linspace(10, 60, 12)
        curve = PairingCurve(L=L, s=np.exp(-L), values=5.0 + np.exp(-0.3 * L))
        probe = holder_probe(curve)
        assert probe.best_family == "exponential"
        assert probe.exp_rate == pytest.approx(0.3, rel=0.05)

    def test_real_condition2_run_reports(self):
        curve = pairing_sweep(I2, neck_builder(0), neck_builder(0),
                              np.geomspace(25, 200, 9), resolution=24)
        probe = holder_probe(curve)
        assert probe.converged
        assert math.isfinite(probe.limit_estimate)
        assert probe.best_family == "power"  # the neck area decays like 1/L
