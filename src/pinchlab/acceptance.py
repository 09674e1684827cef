"""The consolidated verification suite.

Every criterion is a separate function returning a CriterionResult with the
measured quantity, its fixed threshold, and a pass flag; ``run_all`` executes
and times them in order.  Thresholds are pinned here, not configurable: loosening one
is a code change, not a config change.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import dualgraph, dynamics, geometry, nodeintegral, pairing, potential, reporting, spectral

PI = math.pi
I2 = geometry.FamilyConfig(n_components=2)
I3 = geometry.FamilyConfig(n_components=3)
TORUS = geometry.FamilyConfig(n_components=1, no_neck=True)

# Gap-sensitive criteria run on short necks: a neck of length l0 carries
# interior modes near (pi j / l0)^2, so l0 = 1 would cap the spectral gap at
# ~pi^2, far below the component scale 4*pi^2 the thresholds assume.  The
# neck weight l0/L keeps the conductance at 2*pi/L, so every collapsing-mode
# law is unchanged by this choice.
SHORT_NECK = 0.25
I2S = geometry.FamilyConfig(n_components=2, neck_length=SHORT_NECK)
I3S = geometry.FamilyConfig(n_components=3, neck_length=SHORT_NECK)
I4S = geometry.FamilyConfig(n_components=4, neck_length=SHORT_NECK)


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    measured: str
    threshold: str
    passed: bool


def _result(cid, name, measured, threshold, passed) -> CriterionResult:
    return CriterionResult(cid, name, measured, threshold, bool(passed))


def _graph_corpus(seed: int):
    graphs = [dualgraph.kodaira_catalog(t)
              for t in ["I_1", "I_2", "I_3", "I_4", "I_0*", "II", "III", "IV"]]
    rng = np.random.default_rng(seed)
    for k in range(100):
        n = int(rng.integers(1, 9))
        graphs.append(dualgraph.random_reduced_graph(n, seed=seed + 1000 + k))
    return graphs


def _step(chain):
    """The step density +2 on the first fat segment, -2 on the second."""
    return geometry.density_from_spec(geometry.step_density_spec([2.0, -2.0]), chain)


def _bump(chain):
    """One cosine wave inside the first fat segment."""
    return geometry.density_from_callable(geometry.cosine_bump_profile(chain, 0), chain)


def criterion_1_zariski(seed: int) -> CriterionResult:
    worst_eig = -np.inf
    worst_res = 0.0
    ok = True
    for g in _graph_corpus(seed):
        M = dualgraph.build_intersection_matrix(g)
        rep = dualgraph.validate_zariski(M, g.multiplicities)
        worst_eig = max(worst_eig, rep.max_eigenvalue)
        worst_res = max(worst_res, rep.kernel_residual)
        ok = ok and rep.passed
    return _result(1, "zariski_sign_and_kernel",
                   f"max_eig={worst_eig:.2e} kernel_res={worst_res:.2e}",
                   "max_eig<=1e-10 and kernel_res<=1e-10 and dim=1",
                   ok and worst_eig <= 1e-10 and worst_res <= 1e-10)


def criterion_2_pseudoinverse(seed: int) -> CriterionResult:
    worst = 0.0
    for g in _graph_corpus(seed):
        M = dualgraph.build_intersection_matrix(g)
        P = dualgraph.pseudoinverse(M)
        worst = max(
            worst,
            float(np.linalg.norm(M @ P @ M - M)),
            float(np.linalg.norm(P @ M @ P - P)),
            float(np.linalg.norm(M @ P - (M @ P).T)),
            float(np.linalg.norm(P @ M - (P @ M).T)),
        )
    i2_err = float(np.max(np.abs(
        dualgraph.pseudoinverse(np.array([[-2.0, 2.0], [2.0, -2.0]]))
        - np.array([[-0.125, 0.125], [0.125, -0.125]])
    )))
    ok = worst <= 1e-10 and i2_err <= 1e-14
    return _result(2, "pseudoinverse_penrose",
                   f"penrose={worst:.2e} i2_closed_form={i2_err:.2e}",
                   "penrose<=1e-10 and i2<=1e-14", ok)


def criterion_3_small_eigenvalues(seed: int) -> CriterionResult:
    ok = True
    detail = []
    for cfg in (I2S, I3S, I4S):
        g = dualgraph.cycle_graph(cfg.area_vector())
        errs = []
        for L in (80.0, 120.0, 200.0):
            eigsys = spectral.full_spectrum(geometry.build_chain(cfg, L, resolution=48),
                                            m_max=2, k_per_mode=8, vectors=False)
            lams = eigsys.expanded_eigenvalues()
            small = lams[(lams > 1e-9) & (lams < eigsys.gap_value / 2)]
            pred = spectral.graph_limit_eigs(g, L)
            count_ok = small.size == cfg.n_components - 1
            rel = float(np.max(np.abs(small / pred - 1.0))) if count_ok else np.inf
            errs.append(rel)
            ok = ok and count_ok and rel <= 0.10
            if L == 120.0:  # the coarse end of the refinement check below
                coarse = lams[1]
        ok = ok and errs[0] > errs[1] > errs[2]
        fine = spectral.full_spectrum(geometry.build_chain(cfg, 120.0, resolution=96), m_max=0,
                                      k_per_mode=4, vectors=False).expanded_eigenvalues()[1]
        refine = abs(coarse - fine) / fine
        ok = ok and refine <= 0.005
        detail.append(f"N={cfg.n_components}:rel={errs[-1]:.3f},refine={refine:.1e}")
    return _result(3, "small_eigenvalue_law", " ".join(detail),
                   "count=N-1, rel<=0.10 decreasing, refine<=0.5%", ok)


def criterion_4_spectral_gap(seed: int) -> CriterionResult:
    gaps = []
    for L in (20.0, 50.0, 110.0, 200.0):
        eigsys = spectral.full_spectrum(geometry.build_chain(I2S, L, resolution=48),
                                        m_max=2, k_per_mode=8, vectors=False)
        gaps.append(eigsys.gap_value)
    gaps = np.asarray(gaps)
    variation = float(gaps.max() / gaps.min() - 1.0)
    ok = bool(gaps.min() >= 30.0 and variation <= 0.10)
    return _result(4, "spectral_gap",
                   f"min_gap={gaps.min():.2f} variation={variation:.3f}",
                   "gap>=30 and variation<=10%", ok)


def criterion_5_model_functions(seed: int) -> CriterionResult:
    ok = True
    worst_energy = 0.0
    for L in (25.0, 80.0, 200.0):
        mfs = spectral.model_functions(geometry.build_chain(I2, L, resolution=48))
        rel = float(np.max(np.abs(mfs.energies * L / (8 * PI) - 1.0)))
        worst_energy = max(worst_energy, rel)
        ok = ok and rel <= 0.05
        for nrm in mfs.norms:
            ok = ok and 1.0 <= nrm <= 1.0 + 8 * PI / L
    return _result(5, "model_function_estimates",
                   f"energy_rel={worst_energy:.2e}",
                   "energy*L within 5% of 8*pi, norms in [1, 1+8pi/L]", ok)


def criterion_6_correlation(seed: int) -> CriterionResult:
    efros, scaled = [], []
    for L in (25.0, 100.0, 400.0):
        chain = geometry.build_chain(I2, L, resolution=32)
        eigsys = spectral.full_spectrum(chain, m_max=2, k_per_mode=10)
        rep = spectral.correlation_matrix(chain, eigsys, spectral.model_functions(chain))
        efros.append(rep.E_fro)
        scaled.append(float(rep.scaled_residuals.max()))
    ok = efros[0] > efros[1] > efros[2] and scaled[-1] <= 1.5 * scaled[0]
    return _result(6, "eigenfunction_correlation",
                   f"E_fro={efros} R2L_ratio={scaled[-1] / scaled[0]:.2f}",
                   "E_fro decreasing; ||R||^2 L final <= 1.5 x initial", ok)


def criterion_7_truncated_green(seed: int) -> CriterionResult:
    mins = []
    for L in (20.0, 60.0, 120.0, 200.0):
        chain = geometry.build_chain(I2S, L, resolution=32)
        eigsys = spectral.full_spectrum(chain, m_max=8, k_per_mode=64)
        rep = spectral.truncated_green_min(chain, eigsys, lambda_cutoff=500.0)
        mins.append(rep.min_value)
    C = 1.1 * abs(mins[0])
    sweep_ok = all(v >= -C for v in mins)

    chain = geometry.build_chain(TORUS, L=100.0, resolution=128)
    eigsys = spectral.full_spectrum(chain, m_max=6, k_per_mode=16)
    cutoff = 4 * PI**2 * 6.5
    numeric = spectral.truncated_green_min(chain, eigsys, lambda_cutoff=cutoff).min_value
    # the mode (m, j) adds (2 if j else 1) cos(2 pi j (x1 - x2)) / lam to the kernel
    dx = chain.nodes[:, None] - chain.nodes[None, :]
    f0 = np.zeros_like(dx)
    habs = np.zeros_like(dx)
    for m in range(0, 7):
        for j in range(0, 64):
            lam = 4 * PI**2 * (j * j + m * m)
            if lam < 1e-9 or lam > cutoff:
                continue
            block = (2 if j else 1) * np.cos(2 * PI * j * dx) / lam
            if m == 0:
                f0 += block
            else:
                habs += 2 * np.abs(block)
    oracle = float((f0 - habs).min())
    torus_ok = abs(numeric - oracle) <= 0.05 * abs(oracle)
    ok = sweep_ok and torus_ok
    return _result(7, "truncated_green_bound",
                   f"sweep_mins={['%.3f' % v for v in mins]} torus={numeric:.3f}"
                   f" oracle={oracle:.3f}",
                   "min >= -1.1|min(L=20)|; torus within 5% of closed form", ok)


def criterion_8_potential_oracles(seed: int) -> CriterionResult:
    rng = np.random.default_rng(seed)
    chain = geometry.build_chain(I3, 100.0, resolution=24)
    eigsys = spectral.full_spectrum(chain, m_max=0, k_per_mode=chain.n_nodes)
    M = chain.operators.mass
    worst = 0.0
    for _ in range(10):
        spec = geometry.DensitySpec(
            fat_values=tuple((i, float(rng.uniform(-1, 1))) for i in range(3)),
            cos_terms=((int(rng.integers(1, 4)), float(rng.uniform(-1, 1))),),
            sin_terms=((int(rng.integers(1, 4)), float(rng.uniform(-1, 1))),),
        )
        dens = geometry.density_from_spec(spec, chain)
        direct = potential.solve_direct(chain, dens).phi
        expanded = potential.solve_spectral(chain, dens, eigsys)[0].phi
        diff = direct - expanded
        worst = max(worst, math.sqrt(diff @ M @ diff) / math.sqrt(direct @ M @ direct))
    spectral_ok = worst <= 1e-6

    torus = geometry.build_chain(TORUS, L=100.0, resolution=256)
    dens = geometry.density_from_callable(lambda x: np.cos(2 * PI * np.asarray(x)), torus)
    phi = potential.solve_direct(torus, dens).phi
    torus_err = float(np.max(np.abs(phi - np.cos(2 * PI * torus.nodes) / PI)))
    torus_ok = torus_err <= 1e-8

    step = _step(geometry.build_chain(I2, 100.0, resolution=48))
    graph = dualgraph.cycle_graph(I2.area_vector())  # the circuit of the collapsed limit
    circuit = float(np.max(np.abs(potential.circuit_potentials(
        graph, 2 * PI / step.chain.L, step.component_integrals))))
    circuit_rel = abs(potential.solve_direct(step.chain, step).sup_norm() - circuit) / circuit
    circuit_ok = circuit_rel <= 0.10
    ok = spectral_ok and torus_ok and circuit_ok
    return _result(8, "potential_oracles",
                   f"spectral={worst:.2e} torus={torus_err:.2e} circuit={circuit_rel:.3f}",
                   "spectral<=1e-6, torus<=1e-8, circuit within 10%", ok)


def criterion_9_estimate_shapes(seed: int) -> CriterionResult:
    Ls = [20.0, 50.0, 100.0, 200.0]
    step_table = potential.estimate_report(I2, Ls, _step, resolution=32)
    r0, r1 = step_table.rows[0], step_table.rows[-1]
    high_ratio = (r1.sup_high / r1.sup_a) / (r0.sup_high / r0.sup_a)
    bump_table = potential.estimate_report(I2, Ls, _bump, resolution=32)
    ok = high_ratio <= 1.25 and bump_table.low_over_sqrtL_endpoint_ratio <= 0.5
    return _result(9, "potential_estimate_shapes",
                   f"high_ratio={high_ratio:.3f} "
                   f"low_sqrtL_ratio={bump_table.low_over_sqrtL_endpoint_ratio:.3f}",
                   "high endpoint ratio<=1.25; low/sqrt(L) halves", ok)


def criterion_10_pairing_algebra(seed: int) -> CriterionResult:
    chain = geometry.build_chain(I2, 80.0, resolution=32)
    rng = np.random.default_rng(seed + 5)
    a = geometry.density_from_spec(geometry.random_step_spec(2, I2.area_vector(), rng), chain)
    b = geometry.density_from_spec(
        geometry.DensitySpec(cos_terms=((1, 0.8),), sin_terms=((2, 0.3),)), chain)
    v_ab = pairing.pairing_value(chain, a, b)
    v_ba = pairing.pairing_value(chain, b, a)
    sym = abs(v_ab - v_ba) / (1 + abs(v_ab))
    t = 0.41
    combo = geometry.density_from_callable(lambda x: a.profile(x) + t * b.profile(x), chain)
    bil = abs(pairing.pairing_value(chain, combo, b)
              - (v_ab + t * pairing.pairing_value(chain, b, b))) / (1 + abs(v_ab))
    val, energy = pairing.pairing_energy(chain, a)
    energy_rel = abs(val - energy) / max(1e-300, abs(val))
    pos_ok = val >= -1e-12
    ok = sym <= 1e-10 and bil <= 1e-10 and energy_rel <= 1e-8 and pos_ok
    return _result(10, "pairing_algebra",
                   f"sym={sym:.2e} bilin={bil:.2e} energy={energy_rel:.2e}",
                   "symmetry/bilinearity<=1e-10, energy<=1e-8 rel, value>=-1e-12", ok)


def criterion_11_slope_law(seed: int) -> CriterionResult:
    rng = np.random.default_rng(seed + 11)
    ok = True
    worst = 0.0
    for cfg in (I2, I3):
        areas = cfg.area_vector()
        g = dualgraph.cycle_graph(areas)
        for _ in range(3):
            sa = geometry.random_step_spec(cfg.n_components, areas, rng)
            sb = geometry.random_step_spec(cfg.n_components, areas, rng)
            curve = pairing.pairing_sweep(
                cfg, lambda ch: geometry.density_from_spec(sa, ch),
                lambda ch: geometry.density_from_spec(sb, ch),
                np.geomspace(50, 200, 6), resolution=32,
            )
            fit = pairing.fit_log_asymptote(curve)
            # the densities of the sweep's L = 200 chain
            pred = pairing.predicted_constant(g, *curve.densities)
            err = abs(fit.c_fit - pred) / max(abs(pred), 0.01)
            worst = max(worst, err)
            ok = ok and err <= 0.05
    hand = pairing.pairing_sweep(I2, _step, _step, np.geomspace(50, 200, 8), resolution=32)
    hand_fit = pairing.fit_log_asymptote(hand)
    hand_err = abs(hand_fit.c_fit + 0.5) / 0.5
    ok = ok and hand_err <= 0.05
    return _result(11, "pairing_slope_law",
                   f"worst_random={worst:.2e} hand_c={hand_fit.c_fit:.6f}",
                   "|c_fit - v^T M^+ v| <= 5% max(|pred|, 0.01); hand = -1/2", ok)


def criterion_12_continuity_law(seed: int) -> CriterionResult:
    curve = pairing.pairing_sweep(I2, _bump, _bump, np.geomspace(40, 220, 12), resolution=32)
    scale = float(np.max(np.abs(curve.values)))
    slope = abs(pairing.fit_log_asymptote(curve, (50, 200)).c_fit)
    i1 = pairing.fit_log_asymptote(curve, (40, 110)).intercept
    i2 = pairing.fit_log_asymptote(curve, (100, 220)).intercept
    stability = abs(i2 - i1) / max(abs(i1), 1e-300)
    ok = slope <= 1e-3 * scale and stability <= 0.01
    return _result(12, "pairing_continuity_law",
                   f"slope/scale={slope / scale:.2e} intercept_change={stability:.2e}",
                   "|c_fit|<=1e-3 scale; intercept stable to 1%", ok)


# areas do not enter M, and 0.1 keeps at least 2 cells at resolution 24
EXCEPTIONAL_AREA = 0.1


def _base_changed(cfg: geometry.FamilyConfig, fat_values, d: int):
    """The family over s = t^d and its step density of ``fat_values``.

    Each node becomes a chain of d - 1 exceptional curves: every component
    is followed by d - 1 components of area EXCEPTIONAL_AREA and density 0.
    """
    areas = np.full((cfg.n_components, d), EXCEPTIONAL_AREA)
    areas[:, 0] = cfg.area_vector()
    spec = geometry.step_density_spec(np.outer(fat_values, np.eye(d)[0]).ravel())
    return (geometry.FamilyConfig(areas.size, tuple(areas.ravel()), cfg.neck_length),
            lambda chain: geometry.density_from_spec(spec, chain))


def criterion_13_base_change(seed: int) -> CriterionResult:
    t_grid = np.array([20.0, 30.0, 45.0, 65.0])
    worst = 0.0
    for d in (2, 3):
        curve_s = pairing.pairing_sweep(I2, _step, _step, d * t_grid, resolution=24)
        c_s = pairing.fit_log_asymptote(curve_s, (20.0 * d, 65.0 * d)).c_fit
        family, step_t = _base_changed(I2, [2.0, -2.0], d)
        curve_t = pairing.pairing_sweep(family, step_t, step_t, t_grid, resolution=24)
        c_t = pairing.fit_log_asymptote(curve_t, (20.0, 65.0)).c_fit
        worst = max(worst, abs(c_t - d * c_s) / max(abs(d * c_s), 0.01))
    ok = worst <= 1e-12
    return _result(13, "base_change_consistency",
                   f"max_discrepancy={worst:.2e}", "<=1e-12 for d in {2,3}", ok)


def criterion_14_dynamics(seed: int) -> CriterionResult:
    fib = dynamics.TorusFibration(
        t_coeffs=(0, 1),
        s_samples=dynamics.annulus_samples(0.5, 1.5, n_r=2, n_arg=4),
        fiber_n=64,
    )
    u_ref = lambda s: s.real
    phi = lambda s, A, B: 0.3 * np.sin(2 * PI * A) * np.cos(2 * PI * B)
    f, sup_phi = dynamics.synthesize_invariant_observable(fib, u_ref, phi)
    run = dynamics.birkhoff_limit(fib, f, 10_000, u_ref=u_ref)
    birkhoff_ok = run.tate_bound_ok and all(
        float(np.max(run.sup_deviation[i])) <= 2 * sup_phi / k + 1e-12
        for i, k in enumerate(run.ks)
    )

    growth_fib = dynamics.TorusFibration(t_coeffs=(0, 1), s_samples=(1.0 + 0.0j,),
                                         fiber_n=64)
    rho = lambda s, A, B: np.sin(2 * PI * A) * np.sin(2 * PI * B)
    rep = dynamics.pushforward_growth(growth_fib, rho, [64, 128, 256, 512, 1024], 1.0 + 0.0j)
    growth_ok = (1.95 <= rep.exponent <= 2.05 and
                 abs(rep.coefficient - rep.expected_coefficient)
                 <= 0.02 * rep.expected_coefficient)

    rho2 = lambda s, A, B: 0.05 * np.cos(2 * PI * A) + 0.03 * np.sin(2 * PI * (A + B))
    flat_defect = dynamics.flat_potential_identity(fib, rho2)
    flat_ok = flat_defect <= 1e-6
    ok = birkhoff_ok and growth_ok and flat_ok
    return _result(14, "translation_dynamics",
                   f"tate={run.tate_bound_ok} exp={rep.exponent:.3f} "
                   f"coef={rep.coefficient:.3f}/{rep.expected_coefficient:.3f} "
                   f"flat={flat_defect:.2e}",
                   "|u_k-u|<=2 sup|phi|/k; exp in [1.95,2.05]; coef within 2%; "
                   "flat<=1e-6", ok)


def criterion_15_node_integral(seed: int) -> CriterionResult:
    eta = nodeintegral.constant_eta()
    curve = nodeintegral.sample_curve(eta, np.geomspace(1e-2, 1e-6, 9))
    fit = nodeintegral.asymptote_fit(curve, eta)
    slope_ok = abs(fit.A_fit - PI) <= 0.01 * PI
    split_change = abs(
        nodeintegral.fiber_annulus_integral(eta, 1e-4, split_factor=1.0)
        - nodeintegral.fiber_annulus_integral(eta, 1e-4, split_factor=2.0)
    )
    ok = slope_ok and fit.remainder_bounded and split_change <= 1e-8
    return _result(15, "node_integral_asymptotics",
                   f"A_fit={fit.A_fit:.6f} split_change={split_change:.2e} "
                   f"bounded={fit.remainder_bounded}",
                   "A within 1% of pi; remainder bounded; split<=1e-8", ok)


def criterion_16_determinism(seed: int) -> CriterionResult:
    def emit() -> str:
        rng = np.random.default_rng(seed)
        spec = geometry.random_step_spec(2, I2.area_vector(), rng)
        curve = pairing.pairing_sweep(
            I2, lambda ch: geometry.density_from_spec(spec, ch),
            lambda ch: geometry.density_from_spec(spec, ch),
            [50.0, 80.0, 130.0, 200.0], resolution=24,
        )
        rows = [(L, s, v) for L, s, v in zip(curve.L, curve.s, curve.values)]
        return reporting.render_csv(["L", "s", "value"], rows, config_hash=f"seed{seed}")

    first = emit().encode()
    second = emit().encode()
    ok = first == second
    return _result(16, "deterministic_output",
                   f"bytes_equal={ok} length={len(first)}",
                   "byte-identical CSV on rerun with same seed", ok)


ALL_CRITERIA = [
    criterion_1_zariski,
    criterion_2_pseudoinverse,
    criterion_3_small_eigenvalues,
    criterion_4_spectral_gap,
    criterion_5_model_functions,
    criterion_6_correlation,
    criterion_7_truncated_green,
    criterion_8_potential_oracles,
    criterion_9_estimate_shapes,
    criterion_10_pairing_algebra,
    criterion_11_slope_law,
    criterion_12_continuity_law,
    criterion_13_base_change,
    criterion_14_dynamics,
    criterion_15_node_integral,
    criterion_16_determinism,
]


def run_all(seed: int) -> list[tuple[CriterionResult, float]]:
    """(result, wall seconds) of each criterion, in order."""
    results = []
    for fn in ALL_CRITERIA:
        t0 = time.perf_counter()
        try:
            result = fn(seed)
        except Exception as exc:  # a crashed criterion is a failed criterion
            cid = int(fn.__name__.split("_")[1])
            result = CriterionResult(cid, fn.__name__, f"error: {exc}",
                                     "criterion must run to completion", False)
        results.append((result, time.perf_counter() - t0))
    return results
