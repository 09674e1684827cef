"""Chain layout and its P1 forms, segment lookup, per-segment integrals, area
accounting, and density sampling."""

import math
from pathlib import Path

import numpy as np
import pytest

from pinchlab import acceptance, geometry
from pinchlab.configfile import load_config
from pinchlab.errors import ValidationError
from pinchlab.geometry import (
    C_FAT,
    MAX_NODES,
    DensitySpec,
    FamilyConfig,
    build_chain,
    chain_layout,
    chain_operators,
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



# ---------------------------------------------------------------------------
# The segment layer against the code it replaced
# ---------------------------------------------------------------------------

def loop_layout(cfg, L, resolution):
    """(segments as (kind, index, x0, x1, c), nodes, cell segments, P) as the former
    build_chain laid them out, one node per loop step: the layout's reference."""
    c_thin = cfg.neck_length / L
    segments, x = [], 0.0
    for i, fat_length in enumerate(cfg.area_vector() / (TWO_PI * C_FAT)):
        x1 = x + float(fat_length)
        segments.append(("fat", i, x, x1, C_FAT))
        x = x1
        if not cfg.no_neck:
            x2 = x1 + cfg.neck_length
            segments.append(("neck", i, x1, x2, c_thin))
            x = x2
    nodes, cell_segment = [], []
    for si, (_, _, x0, x1, _) in enumerate(segments):
        ncell = max(1, int(math.ceil(resolution * (x1 - x0) - 1e-9)))
        step = (x1 - x0) / ncell
        for k in range(ncell):
            nodes.append(x0 + k * step)
            cell_segment.append(si)
    return segments, np.asarray(nodes), np.asarray(cell_segment, dtype=int), x


def quadrature_forms(chain):
    """(diag, off) of the gradient, potential and mass forms as the former chain_operators
    summed them with the 4-point rule on every cell: the closed forms' reference."""
    xi = (chain.quad_x - chain.nodes[:, None]) / chain.cell_lengths[:, None]
    psi_l, psi_r, w, c = 1.0 - xi, xi, chain.quad_w, chain.cell_c
    g = TWO_PI * np.sum(c * w, axis=1) / chain.cell_lengths**2

    def cell_form(weight):
        ll, lr, rr = (TWO_PI * np.sum(weight * a * b, axis=1)
                      for a, b in ((psi_l, psi_l), (psi_l, psi_r), (psi_r, psi_r)))
        return ll + np.roll(rr, 1), lr

    return {"gradient": (g + np.roll(g, 1), -g), "potential": cell_form(w / c),
            "mass": cell_form(c * w)}


def shipped_chains():
    """(id, family, L, resolution): the shipped configs at their [sweep] L, i2_step at
    n = 2304, and the families verify builds, at the resolutions it builds them."""
    root = Path(__file__).resolve().parents[1] / "configs"
    cases = []
    for name in ("i2_step", "i3_bump"):
        cfg = load_config(str(root / f"{name}.cfg"))
        cases.append((name, cfg.family(), cfg.get_float("sweep", "L"),
                      cfg.get_int("solver", "resolution")))
    cases.append(("i2_step-n2304", cases[0][1], 100.0, 768))
    for name in ("I2", "I3", "TORUS", "I2S", "I3S", "I4S"):
        for resolution in (24, 32, 48, 96, 128, 256):
            cases.append((f"{name}-{resolution}", getattr(acceptance, name), 120.0, resolution))
    return cases


def random_chains(count=24, seed=41):
    """(id, family, L, resolution): 1-5 components of random areas and neck length, at
    resolutions 8-768 and an L the model admits."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        n, neck = int(rng.integers(1, 6)), float(rng.uniform(0.1, 3.0))
        cfg = FamilyConfig(n, tuple(rng.uniform(0.05, 2.0, n).tolist()), neck)
        L = float(rng.uniform(1.5, 40.0)) * TWO_PI * neck
        cases.append((f"random-{k}", cfg, L, int(rng.integers(8, 769))))
    return cases


CHAINS = shipped_chains() + random_chains()


@pytest.mark.parametrize("cfg, L, resolution", [case[1:] for case in CHAINS],
                         ids=[case[0] for case in CHAINS])
class TestSegmentLayer:
    def test_layout_is_the_node_loop_bit_for_bit(self, cfg, L, resolution):
        chain = build_chain(cfg, L, resolution)
        segments, nodes, cells, P = loop_layout(cfg, L, resolution)
        assert [(s.kind, s.index, s.x0, s.x1, s.c) for s in chain.segments] == segments
        assert chain.total_length == P
        assert chain.cell_segment.dtype == cells.dtype
        np.testing.assert_array_equal(chain.nodes, nodes)
        np.testing.assert_array_equal(chain.cell_segment, cells)
        np.testing.assert_array_equal(chain.cell_lengths, np.diff(nodes, append=P))

    def test_closed_forms_match_the_quadrature_sums(self, cfg, L, resolution):
        # the reference itself loses about eps * x / h to cancellation in xi = (x - node) / h,
        # x <= P (at most 1.32 eps * P / h over 400 random families): 5e-13 bounds that on the
        # shipped chains, and long random chains get their reference's own bound
        chain = build_chain(cfg, L, resolution)
        P_over_h = chain.total_length / chain.cell_lengths.min()
        rtol = max(5e-13, 2 * np.finfo(float).eps * P_over_h)
        ops = chain_operators(chain)
        for name, (diag, off) in quadrature_forms(chain).items():
            np.testing.assert_allclose(getattr(ops, name).diag, diag, rtol=rtol, atol=0)
            np.testing.assert_allclose(getattr(ops, name).off, off, rtol=rtol, atol=0)

    def test_segment_integrals_are_the_masked_sums(self, cfg, L, resolution):
        chain = build_chain(cfg, L, resolution)
        values = np.cos(chain.quad_x) + 0.3 * chain.quad_x
        weights = TWO_PI * values * chain.cell_c * chain.quad_w
        want = [np.sum(weights[chain.cell_segment == k]) for k in range(len(chain.segments))]
        np.testing.assert_allclose(chain.segment_integrals(values), want, rtol=1e-13, atol=1e-15)
        fats = [k for k, seg in enumerate(chain.segments) if seg.kind == "fat"]
        dens = density_from_spec(DensitySpec(cos_terms=((1, 1.0),)), chain)
        np.testing.assert_array_equal(dens.component_integrals,
                                      chain.segment_integrals(dens.quad_values)[fats])

    def test_segment_position_names_every_segment(self, cfg, L, resolution):
        chain = build_chain(cfg, L, resolution)
        position = chain.segment_position
        assert len(position) == len(chain.segments)
        for k, seg in enumerate(chain.segments):
            assert position[seg.kind, seg.index] == k


def test_gauss_legendre_rule_is_leggauss_4_bit_for_bit():
    x, w = np.polynomial.legendre.leggauss(4)
    assert geometry.GL_X.tobytes() == x.tobytes()
    assert geometry.GL_W.tobytes() == w.tobytes()


class TestNodeCap:
    @pytest.fixture(autouse=True)
    def no_node_is_built(self, monkeypatch):
        # a grid past the cap is refused from Python ints, before a per-node loop or an
        # array of nodes is started: either would run until the memory ran out
        def fail(*args, **kwargs):
            raise AssertionError("a node was built")
        monkeypatch.setattr(geometry, "range", fail, raising=False)
        for name in ("arange", "repeat", "concatenate"):
            monkeypatch.setattr(np, name, fail)

    @pytest.mark.parametrize("resolution, nodes", [(10**12, 3 * 10**12), (10**18, 3 * 10**18)])
    def test_a_grid_past_the_cap_is_refused(self, resolution, nodes):
        with pytest.raises(ValidationError, match=f"resolution = {resolution} lays out "
                                                  f"{nodes} nodes, above the cap of 1048576"):
            build_chain(I2, 100.0, resolution=resolution)

    def test_a_resolution_past_the_float_range_is_refused(self):
        with pytest.raises(ValidationError, match="above the cap"):
            build_chain(I2, 100.0, resolution=10**400)

    def test_the_cap_is_a_node_count(self):
        # the flat torus has length 1: resolution r lays out r nodes
        assert sum(chain_layout(TORUS, MAX_NODES)[1]) == MAX_NODES == 2**20
        with pytest.raises(ValidationError, match=f"lays out {MAX_NODES + 1} nodes"):
            chain_layout(TORUS, MAX_NODES + 1)
