"""Chain layout, segment lookup, area accounting, and density sampling."""

import math

import numpy as np
import pytest

from pinchlab.errors import ValidationError
from pinchlab.geometry import (
    DensitySpec,
    FamilyConfig,
    build_chain,
    cosine_bump_profile,
    density_from_callable,
    density_from_spec,
    neck_wave_profile,
    sine_bump_profile,
    step_density_spec,
)

TWO_PI = 2.0 * math.pi

I2 = FamilyConfig(n_components=2)
I3 = FamilyConfig(n_components=3)
TORUS = FamilyConfig(n_components=1, no_neck=True)


def projection_shift(chain, profile):
    """The constant density_from_callable subtracts: the area mean of ``profile``."""
    raw = np.asarray(profile(chain.quad_x.ravel()), dtype=float).reshape(chain.quad_x.shape)
    return chain.integrate_area(raw) / total_area(chain)


def areas(chain):
    """Fat area per component and the thin (neck) total, each segment 2*pi*c*length."""
    fats = np.zeros(chain.cfg.n_components)
    for seg in chain.segments:
        if seg.kind == "fat":
            fats[seg.index] += TWO_PI * seg.c * seg.length
    thin = sum(TWO_PI * seg.c * seg.length for seg in chain.segments if seg.kind == "neck")
    return fats, thin


def total_area(chain):
    return chain.integrate_area(np.ones_like(chain.quad_w))


class TestBuildChain:
    def test_i2_defaults_at_L100(self):
        chain = build_chain(I2, L=100.0)
        assert [seg.c for seg in chain.segments if seg.kind == "neck"] == pytest.approx([0.01] * 2)
        fat_lengths = [seg.length for seg in chain.segments if seg.kind == "fat"]
        assert fat_lengths == pytest.approx([0.5, 0.5])
        assert chain.total_length == pytest.approx(3.0)

    def test_thin_area_per_neck(self):
        chain = build_chain(I2, L=100.0)
        neck = next(seg for seg in chain.segments if seg.kind == "neck")
        assert TWO_PI * neck.c * neck.length == pytest.approx(0.06283185, rel=1e-6)

    def test_no_neck_flat_torus(self):
        chain = build_chain(TORUS, L=100.0)
        assert chain.total_length == pytest.approx(1.0)
        assert areas(chain)[1] == 0.0
        assert total_area(chain) == pytest.approx(1.0)

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
            for neck in (seg for seg in chain.segments if seg.kind == "neck"):
                assert abs(TWO_PI * neck.c / neck.length - TWO_PI / L) <= 1e-12

    def test_refinement_keeps_geometry(self):
        a = build_chain(I2, 60.0, resolution=16)
        b = build_chain(I2, 60.0, resolution=32)
        assert b.n_nodes > a.n_nodes
        assert total_area(a) == pytest.approx(total_area(b), abs=1e-13)


class TestSegmentAt:
    @pytest.mark.parametrize("cfg, L", [(I2, 30.0), (I3, 77.0), (TORUS, 50.0)])
    def test_nodes_and_gauss_points_lie_in_their_cells_segment(self, cfg, L):
        chain = build_chain(cfg, L, resolution=13)
        np.testing.assert_array_equal(chain.segment_at(chain.nodes), chain.cell_segment)
        expected = np.repeat(chain.cell_segment[:, None], chain.quad_x.shape[1], axis=1)
        np.testing.assert_array_equal(chain.segment_at(chain.quad_x), expected)

    def test_interface_belongs_to_the_segment_starting_there(self):
        chain = build_chain(I3, 77.0, resolution=13)
        for k, seg in enumerate(chain.segments):
            assert chain.segment_at(seg.x0) == k
            # x1 of the last segment is P, which wraps to segment 0
            assert chain.segment_at(seg.x1) == (k + 1) % len(chain.segments)


class TestAreaReport:
    def test_i2_totals(self):
        chain = build_chain(I2, L=100.0)
        assert areas(chain)[1] == pytest.approx(0.12566, abs=1e-4)
        assert total_area(chain) == pytest.approx(1.12566, abs=1e-4)

    def test_thin_scales_inversely_with_L(self):
        thin_50 = areas(build_chain(I2, L=50.0))[1]
        thin_500 = areas(build_chain(I2, L=500.0))[1]
        assert thin_50 / thin_500 == pytest.approx(10.0, rel=1e-12)

    def test_total_formula(self):
        for cfg in [I2, I3]:
            for L in [25.0, 80.0]:
                chain = build_chain(cfg, L)
                fats, thin = areas(chain)
                expected = 1.0 + TWO_PI * cfg.n_components / L
                assert total_area(chain) == pytest.approx(expected, abs=1e-12)
                assert abs(fats.sum() + thin - total_area(chain)) <= 1e-12
                # each fat area is the configured component area
                np.testing.assert_allclose(fats, cfg.area_vector(), rtol=1e-12)


class TestDensities:
    def test_constant_projects_to_zero(self):
        chain = build_chain(I2, L=100.0)
        spec = DensitySpec(fat_values=((0, 1.0), (1, 1.0)),
                           neck_values=((0, 1.0), (1, 1.0)))
        dens = density_from_spec(spec, chain)
        assert np.max(np.abs(dens.values)) <= 1e-12
        assert projection_shift(chain, spec.profile(chain)) == pytest.approx(1.0)

    def test_i2_step_component_integrals(self):
        chain = build_chain(I2, L=100.0)
        spec = step_density_spec([2.0, -2.0])
        dens = density_from_spec(spec, chain)
        # +-2 times area 1/2; projection shift is exactly zero here since the
        # raw integral vanishes
        assert projection_shift(chain, spec.profile(chain)) == pytest.approx(0.0, abs=1e-14)
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

    def test_missing_segment_rejected(self):
        chain = build_chain(I2, L=100.0)
        with pytest.raises(ValidationError, match="missing fat segment"):
            density_from_spec(DensitySpec(fat_values=((5, 1.0),)), chain)

    def test_waves_are_added_last_in_order(self):
        # the stored quadrature samples are the profile's, summed term by term
        chain = build_chain(I2, L=100.0)
        spec = DensitySpec(fat_values=((0, 1.0),),
                           waves=(("neck_wave", 1, 0.3), ("segment_cos", 0, 1.0)))
        dens = density_from_spec(spec, chain)
        qx = chain.quad_x.ravel()
        raw = (DensitySpec(fat_values=((0, 1.0),)).profile(chain)(qx)
               + neck_wave_profile(chain, 1, 0.3)(qx) + cosine_bump_profile(chain, 0, 1.0)(qx))
        np.testing.assert_array_equal(dens.profile(qx), raw)
        np.testing.assert_array_equal(dens.quad_values.ravel(),
                                      raw - projection_shift(chain, dens.profile))

    def test_missing_wave_segment_rejected(self):
        chain = build_chain(I2, L=100.0)
        with pytest.raises(ValidationError, match="no fat segment 5"):
            density_from_spec(DensitySpec(waves=(("segment_sin", 5, 1.0),)), chain)

    def test_sine_bump_has_zero_component_integrals(self):
        chain = build_chain(I2, L=100.0)
        dens = density_from_callable(sine_bump_profile(chain, 0), chain)
        np.testing.assert_allclose(dens.component_integrals, [0.0, 0.0], atol=1e-10)

    def test_spec_and_samples_agree_at_nodes(self):
        chain = build_chain(I2, L=100.0)
        spec = DensitySpec(fat_values=((0, 2.0), (1, -2.0)), cos_terms=((1, 0.5),))
        dens = density_from_spec(spec, chain)
        np.testing.assert_array_equal(
            dens.values, dens.profile(chain.nodes) - projection_shift(chain, dens.profile))

