"""Chain layout, area accounting, and density sampling."""

import math

import numpy as np
import pytest

from pinchlab.errors import ValidationError
from pinchlab.geometry import (
    DensitySpec,
    FamilyConfig,
    area_report,
    build_chain,
    density_from_callable,
    density_from_spec,
    sine_bump_profile,
    step_density_spec,
)

TWO_PI = 2.0 * math.pi

I2 = FamilyConfig(n_components=2)
I3 = FamilyConfig(n_components=3)
TORUS = FamilyConfig(n_components=1, no_neck=True)


class TestBuildChain:
    def test_i2_defaults_at_L100(self):
        chain = build_chain(I2, L=100.0)
        assert chain.c_thin == pytest.approx(0.01)
        fat_lengths = [s.length for s in chain.fat_segments()]
        assert fat_lengths == pytest.approx([0.5, 0.5])
        assert chain.total_length == pytest.approx(3.0)

    def test_thin_area_per_neck(self):
        chain = build_chain(I2, L=100.0)
        neck = chain.neck_segments()[0]
        assert TWO_PI * neck.c * neck.length == pytest.approx(0.06283185, rel=1e-6)

    def test_no_neck_flat_torus(self):
        chain = build_chain(TORUS, L=100.0)
        assert chain.total_length == pytest.approx(1.0)
        rep = area_report(chain)
        assert rep.thin_total == 0.0
        assert rep.total == pytest.approx(1.0)

    def test_model_validity_error(self):
        with pytest.raises(ValidationError, match="model validity"):
            build_chain(I2, L=5.0)

    def test_low_resolution_rejected(self):
        with pytest.raises(ValidationError):
            build_chain(I2, L=50.0, resolution=4)

    def test_grid_contains_every_interface(self):
        for cfg, L in [(I2, 30.0), (I3, 77.0)]:
            chain = build_chain(cfg, L, resolution=13)
            for seg in chain.segments:
                assert np.min(np.abs(chain.nodes - seg.x0)) < 1e-12

    def test_conductance_law(self):
        for L in [20.0, 50.0, 200.0]:
            chain = build_chain(I3, L)
            assert abs(chain.neck_conductance - TWO_PI / L) <= 1e-12

    def test_refinement_keeps_geometry(self):
        a = build_chain(I2, 60.0, resolution=16)
        b = build_chain(I2, 60.0, resolution=32)
        assert b.n_nodes > a.n_nodes
        assert area_report(a).total == pytest.approx(area_report(b).total, abs=1e-13)


class TestAreaReport:
    def test_i2_totals(self):
        rep = area_report(build_chain(I2, L=100.0))
        assert rep.thin_total == pytest.approx(0.12566, abs=1e-4)
        assert rep.total == pytest.approx(1.12566, abs=1e-4)

    def test_thin_scales_inversely_with_L(self):
        r1 = area_report(build_chain(I2, L=50.0))
        r2 = area_report(build_chain(I2, L=500.0))
        assert r1.thin_total / r2.thin_total == pytest.approx(10.0, rel=1e-12)

    def test_total_formula(self):
        for cfg in [I2, I3]:
            for L in [25.0, 80.0]:
                rep = area_report(build_chain(cfg, L))
                expected = 1.0 + TWO_PI * cfg.n_components / L
                assert rep.total == pytest.approx(expected, abs=1e-12)
                assert abs(rep.fat_areas.sum() + rep.thin_total - rep.total) <= 1e-12


class TestDensities:
    def test_constant_projects_to_zero(self):
        chain = build_chain(I2, L=100.0)
        spec = DensitySpec(fat_values=((0, 1.0), (1, 1.0)),
                           neck_values=((0, 1.0), (1, 1.0)))
        dens = density_from_spec(spec, chain)
        assert np.max(np.abs(dens.values)) <= 1e-12
        assert dens.projection_shift == pytest.approx(1.0)

    def test_i2_step_component_integrals(self):
        chain = build_chain(I2, L=100.0)
        dens = density_from_spec(step_density_spec([2.0, -2.0]), chain)
        # +-2 times area 1/2; projection shift is exactly zero here since the
        # raw integral vanishes
        assert dens.projection_shift == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(dens.component_integrals, [1.0, -1.0], atol=1e-12)

    def test_global_cosine_mean_zero(self):
        chain = build_chain(I2, L=100.0)
        dens = density_from_spec(DensitySpec(cos_terms=((1, 1.0),)), chain)
        assert abs(dens.total_integral) <= 1e-10

    def test_total_integral_always_zero_after_projection(self):
        chain = build_chain(I3, L=40.0)
        spec = DensitySpec(fat_values=((0, 0.7), (2, -0.1)), sin_terms=((2, 0.3),))
        dens = density_from_spec(spec, chain)
        assert abs(dens.total_integral) <= 1e-12 * max(1.0, np.abs(dens.values).max())

    def test_unprojected_nonzero_mean_rejected(self):
        chain = build_chain(I2, L=100.0)
        spec = DensitySpec(fat_values=((0, 1.0),), project=False)
        with pytest.raises(ValidationError, match="general fibers"):
            density_from_spec(spec, chain)

    def test_missing_segment_rejected(self):
        chain = build_chain(I2, L=100.0)
        with pytest.raises(ValidationError, match="missing fat segment"):
            density_from_spec(DensitySpec(fat_values=((5, 1.0),)), chain)

    def test_sine_bump_has_zero_component_integrals(self):
        chain = build_chain(I2, L=100.0)
        dens = density_from_callable(sine_bump_profile(chain, 0), chain)
        np.testing.assert_allclose(dens.component_integrals, [0.0, 0.0], atol=1e-10)

    def test_spec_and_samples_agree_at_nodes(self):
        chain = build_chain(I2, L=100.0)
        spec = DensitySpec(fat_values=((0, 2.0), (1, -2.0)), cos_terms=((1, 0.5),))
        dens = density_from_spec(spec, chain)
        np.testing.assert_allclose(dens.values, dens.evaluate(chain.nodes), atol=0)


class TestSmoothing:
    def test_smoothed_chain_area_close_to_sharp(self):
        sharp = build_chain(I2, 80.0)
        smooth = build_chain(
            FamilyConfig(n_components=2, smoothing_width=0.05), 80.0
        )
        assert area_report(smooth).total == pytest.approx(
            area_report(sharp).total, rel=1e-2
        )

    def test_excessive_smoothing_rejected(self):
        cfg = FamilyConfig(n_components=2, smoothing_width=2.0)
        with pytest.raises(ValidationError):
            build_chain(cfg, 80.0)
