"""Command-line driver: experiment orchestration and CSV emission.

Exit codes: 0 success, 1 failed verification, 2 validation error (bad input
or config, with the violated condition named), 3 numerical non-convergence.
All state comes from the config file and flags; identical inputs produce
byte-identical CSV artifacts.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import acceptance, dualgraph, nodeintegral
from .configfile import ExperimentConfig, load_config, parse_grid
from .dynamics import (
    TorusFibration,
    annulus_samples,
    birkhoff_limit,
    flat_potential_identity,
    limit_potential_relation,
    pushforward_growth,
    synthesize_invariant_observable,
)
from .errors import ConvergenceError, ValidationError
from .geometry import build_chain
from .pairing import fit_log_asymptote, pairing_sweep, predicted_constant
from .potential import estimate_report, solve_direct, split_low_high
from .reporting import render_csv, write_text
from .spectral import (
    correlation_matrix,
    full_spectrum,
    model_functions,
    truncated_green_min,
)

TWO_PI = 2.0 * math.pi


def _out_path(cfg: ExperimentConfig, args, name: str) -> str:
    directory = args.out or cfg.get("output", "directory", "out")
    return os.path.join(directory, name)


def _precision(cfg: ExperimentConfig) -> int:
    precision = cfg.get_int("output", "precision", "17")
    if precision < 1:
        raise ValidationError(f"[output] precision must be at least 1, got {precision}")
    return precision


def _solver(cfg: ExperimentConfig):
    return {
        "resolution": cfg.get_int("solver", "resolution", "48"),
        "m_max": cfg.get_int("solver", "m_max", "16"),
        "k_per_mode": cfg.get_int("solver", "k_per_mode", "32"),
    }


def _fiber_L(cfg: ExperimentConfig, args) -> float:
    """--L, else [sweep] L."""
    if args.L is None:
        return cfg.get_float("sweep", "L", "100.0")
    if not math.isfinite(args.L):
        raise ValidationError(f"--L must be a finite number, got {args.L}")
    return args.L


def _grid(cfg: ExperimentConfig, flag_value, flag: str, section: str, key: str,
          default=None):
    """Grid from a flag when given, else from the config."""
    if not flag_value:
        return cfg.get_grid(section, key, default)
    try:
        return parse_grid(flag_value)
    except ValidationError as exc:
        raise ValidationError(f"{flag}: {exc}") from None


def _window(raw: str, name: str) -> tuple[float, float]:
    """Fit window ``lo,hi`` with 0 <= lo < hi < inf."""
    try:
        lo, hi = (float(p) for p in raw.split(","))
    except ValueError:
        lo = hi = math.nan
    if not 0 <= lo < hi < math.inf:
        raise ValidationError(f"{name} must be lo,hi with 0 <= lo < hi, got {raw!r}")
    return lo, hi


# -- commands -----------------------------------------------------------------

def cmd_kodaira(args) -> int:
    g = dualgraph.kodaira_catalog(args.type)
    M = dualgraph.build_intersection_matrix(g)
    rep = dualgraph.validate_zariski(M, g.multiplicities)
    print(dualgraph.format_graph(g), end="")
    print("intersection matrix:")
    print(dualgraph.format_matrix(M), end="")
    print("pseudoinverse:")
    print(dualgraph.format_matrix(dualgraph.pseudoinverse(M)), end="")
    print(f"zariski: max_eigenvalue={rep.max_eigenvalue:.3e} "
          f"kernel_dim={rep.kernel_dimension} "
          f"kernel_residual={rep.kernel_residual:.3e} "
          f"passed={rep.passed}")
    return 0


def _spectrum_rows(cfg: ExperimentConfig, L: float):
    solver = _solver(cfg)
    chain = build_chain(cfg.family(), L, resolution=solver["resolution"])
    eigsys = full_spectrum(chain, m_max=solver["m_max"],
                           k_per_mode=solver["k_per_mode"])
    rows = []
    k_index = 0
    for e in eigsys.entries:
        for _ in range(e.multiplicity):
            rows.append((L, chain.s, k_index, e.mode, e.lam, e.lam * L,
                         eigsys.gap_value, e.certified))
            k_index += 1
    return rows


SPECTRUM_COLUMNS = ["L", "s", "k", "m", "lambda", "lambda_times_L", "gap",
                    "certified"]


def cmd_spectrum(args) -> int:
    cfg = load_config(args.config)
    L = _fiber_L(cfg, args)
    text = render_csv(SPECTRUM_COLUMNS, _spectrum_rows(cfg, L),
                      config_hash=cfg.hash(), precision=_precision(cfg))
    path = _out_path(cfg, args, "spectrum.csv")
    write_text(path, text)
    print(f"wrote {path}")
    return 0


def cmd_sweep_spectrum(args) -> int:
    cfg = load_config(args.config)
    grid = _grid(cfg, args.L_grid, "--L-grid", "sweep", "L_grid")
    rows = []
    for L in np.sort(grid):
        rows.extend(_spectrum_rows(cfg, float(L)))
    text = render_csv(SPECTRUM_COLUMNS, rows, config_hash=cfg.hash(),
                      precision=_precision(cfg))
    path = _out_path(cfg, args, "sweep_spectrum.csv")
    write_text(path, text)
    print(f"wrote {path}")
    return 0


def cmd_modelfns(args) -> int:
    cfg = load_config(args.config)
    solver = _solver(cfg)
    L = _fiber_L(cfg, args)
    chain = build_chain(cfg.family(), L, resolution=solver["resolution"])
    mfs = model_functions(chain)
    rows = [
        (i, mfs.energies[i], mfs.energies[i] * L, mfs.norms[i],
         mfs.supports[i][0], mfs.supports[i][1])
        for i in range(len(mfs.norms))
    ]
    text = render_csv(
        ["component", "energy", "energy_times_L", "norm_sq",
         "support_start", "support_end"],
        rows, config_hash=cfg.hash(),
        comments=[f"overlap_sup={mfs.overlap_sup!r}"],
        precision=_precision(cfg),
    )
    path = _out_path(cfg, args, "modelfns.csv")
    write_text(path, text)
    print(f"wrote {path}")
    return 0


def cmd_green(args) -> int:
    cfg = load_config(args.config)
    solver = _solver(cfg)
    grid = _grid(cfg, args.L_grid, "--L-grid", "sweep", "L_grid", "20:200:4")
    cutoff = (cfg.get_float("solver", "green_cutoff")
              if cfg.has("solver", "green_cutoff") else None)
    tail = cfg.get_int("solver", "tail_count", "24")
    rows = []
    for L in np.sort(grid):
        chain = build_chain(cfg.family(), float(L), resolution=solver["resolution"])
        eigsys = full_spectrum(chain, m_max=solver["m_max"],
                               k_per_mode=solver["k_per_mode"])
        rep = truncated_green_min(chain, eigsys, tail_count=tail,
                                  lambda_cutoff=cutoff)
        rows.append((float(L), chain.s, rep.min_value, rep.diag_min,
                     rep.cutoff, rep.tail_bound))
    text = render_csv(
        ["L", "s", "green_min", "diag_min", "cutoff", "tail_bound"],
        rows, config_hash=cfg.hash(), precision=_precision(cfg),
    )
    path = _out_path(cfg, args, "green.csv")
    write_text(path, text)
    print(f"wrote {path}")
    return 0


def cmd_potential(args) -> int:
    cfg = load_config(args.config)
    solver = _solver(cfg)
    L = _fiber_L(cfg, args)
    family = cfg.family()
    chain = build_chain(family, L, resolution=solver["resolution"])
    builder = cfg.density_builder("alpha")
    dens = builder(chain)
    eigsys = full_spectrum(chain, m_max=2, k_per_mode=solver["k_per_mode"])
    pot = solve_direct(chain, dens)
    low, high = split_low_high(pot, eigsys)
    rows = [(x, pot.phi[i], low[i], high[i])
            for i, x in enumerate(chain.nodes)]
    text = render_csv(["x", "phi", "phi_low", "phi_high"], rows,
                      config_hash=cfg.hash(), precision=_precision(cfg))
    path = _out_path(cfg, args, "potential.csv")
    write_text(path, text)

    grid = cfg.get_grid("sweep", "estimate_L_grid", "20:200:4")
    table = estimate_report(family, grid, builder,
                            resolution=solver["resolution"])
    est_rows = [
        (r.L, r.sup_high, r.sup_low, r.sup_low_over_L, r.sup_low_over_sqrtL,
         r.sup_a, r.l1_a_fat, r.l1_a_full)
        for r in table.rows
    ]
    est_text = render_csv(
        ["L", "sup_high", "sup_low", "sup_low_over_L", "sup_low_over_sqrtL",
         "sup_a", "l1_a_fat", "l1_a_full"],
        est_rows, config_hash=cfg.hash(),
        comments=[
            f"high_bounded={table.high_bounded}",
            f"low_over_sqrtL_decreasing={table.low_over_sqrtL_decreasing}",
        ],
        precision=_precision(cfg),
    )
    est_path = _out_path(cfg, args, "potential_estimates.csv")
    write_text(est_path, est_text)
    print(f"wrote {path}")
    print(f"wrote {est_path}")
    return 0


def cmd_pairing(args) -> int:
    cfg = load_config(args.config)
    solver = _solver(cfg)
    family = cfg.family()
    grid = _grid(cfg, args.L_grid, "--L-grid", "sweep", "L_grid", "50:200:12")
    if args.fit_window:
        lo, hi = _window(args.fit_window, "--fit-window")
    else:
        lo, hi = _window(cfg.get("sweep", "fit_window", "50,200"), "[sweep] fit_window")
    a_builder = cfg.density_builder("alpha")
    b_builder = cfg.density_builder("beta")
    curve = pairing_sweep(family, a_builder, b_builder, grid,
                          resolution=solver["resolution"])
    fit = fit_log_asymptote(curve, (lo, hi))
    ref_chain = build_chain(family, float(np.max(grid)),
                            resolution=solver["resolution"])
    predicted = predicted_constant(
        dualgraph.cycle_graph(family.area_vector()),
        a_builder(ref_chain), b_builder(ref_chain),
    )
    rel_err = abs(fit.c_fit - predicted) / max(abs(predicted), 0.01)
    rows = []
    for L, s, v in zip(curve.L, curve.s, curve.values):
        fitted = fit.intercept + fit.c_fit * (-2.0 * L)
        rows.append((L, s, v, fitted, v - fitted))
    text = render_csv(
        ["L", "s", "value", "fitted", "residual"], rows,
        config_hash=cfg.hash(),
        comments=[
            f"c_fit={fit.c_fit!r}",
            f"c_predicted={predicted!r}",
            f"relative_error={rel_err!r}",
            f"intercept={fit.intercept!r}",
            f"fit_window={lo},{hi}",
        ],
        precision=_precision(cfg),
    )
    path = _out_path(cfg, args, "pairing.csv")
    write_text(path, text)
    print(f"wrote {path}")
    print(f"c_fit={fit.c_fit:.12g}")
    print(f"c_predicted={predicted:.12g}")
    print(f"relative_error={rel_err:.3e}")
    return 0


def _fibration(cfg: ExperimentConfig) -> TorusFibration:
    return TorusFibration(
        t_coeffs=cfg.get_complexes("dynamics", "t_poly", "0,1"),
        s_samples=annulus_samples(
            cfg.get_float("dynamics", "base_r_min", "0.5"),
            cfg.get_float("dynamics", "base_r_max", "1.5"),
            cfg.get_int("dynamics", "base_n_r", "2"),
            cfg.get_int("dynamics", "base_n_arg", "4"),
        ),
        fiber_n=cfg.get_int("dynamics", "fiber_n", "64"),
    )


_U_PRESETS = {
    "zero": lambda s: 0.0,
    "re_s": lambda s: s.real,
    "abs_s": lambda s: abs(s),
}

_FIBER_PRESETS = {
    "zero": lambda amp: (lambda s, A, B: 0.0 * A),
    "sinxcosy": lambda amp: (
        lambda s, A, B: amp * np.sin(TWO_PI * A) * np.cos(TWO_PI * B)),
    "sinxsiny": lambda amp: (
        lambda s, A, B: amp * np.sin(TWO_PI * A) * np.sin(TWO_PI * B)),
    "cosx": lambda amp: (lambda s, A, B: amp * np.cos(TWO_PI * A) + 0.0 * B),
    "cosxy": lambda amp: (
        lambda s, A, B: amp * np.cos(TWO_PI * (A + B))),
}


def _preset(table, name, what):
    try:
        return table[name]
    except KeyError:
        raise ValidationError(
            f"unknown {what} preset {name!r}; choose from {sorted(table)}"
        ) from None


def cmd_dynamics(args) -> int:
    cfg = load_config(args.config)
    fib = _fibration(cfg)
    precision = _precision(cfg)
    sub = args.experiment
    if sub == "birkhoff":
        u = _preset(_U_PRESETS, cfg.get("dynamics", "u_preset", "re_s"), "u")
        phi = _preset(_FIBER_PRESETS, cfg.get("dynamics", "phi_preset", "sinxcosy"),
                      "phi")(cfg.get_float("dynamics", "phi_amplitude", "0.3"))
        f, sup_phi = synthesize_invariant_observable(fib, u, phi)
        run = birkhoff_limit(fib, f, cfg.get_int("dynamics", "k_max", "10000"),
                             u_ref=u, phi_sup=sup_phi)
        rows = [
            (k, float(np.max(run.sup_deviation[i])), 2.0 * sup_phi / k,
             float(np.max(run.constancy_defect[i])))
            for i, k in enumerate(run.ks)
        ]
        text = render_csv(["k", "sup_deviation", "bound", "constancy_defect"],
                          rows, config_hash=cfg.hash(),
                          comments=[f"tate_bound_ok={run.tate_bound_ok}"],
                          precision=precision)
        path = _out_path(cfg, args, "birkhoff.csv")
    elif sub == "growth":
        rho = _preset(_FIBER_PRESETS,
                      cfg.get("dynamics", "growth_rho_preset", "sinxsiny"),
                      "rho")(cfg.get_float("dynamics", "growth_rho_amplitude", "1.0"))
        s0 = cfg.get_complexes("dynamics", "s0", "1")[0]
        rep = pushforward_growth(
            fib, rho, cfg.get_ints("dynamics", "n_list", "64,128,256,512,1024"),
            s0)
        rows = [(n, rep.sup_values[i], rep.error_floors[i])
                for i, n in enumerate(rep.n_list)]
        text = render_csv(["n", "sup_value", "error_floor"], rows,
                          config_hash=cfg.hash(),
                          comments=[
                              f"exponent={rep.exponent!r}",
                              f"coefficient={rep.coefficient!r}",
                              f"expected_coefficient={rep.expected_coefficient!r}",
                              f"stable={rep.stable}",
                          ],
                          precision=precision)
        path = _out_path(cfg, args, "growth.csv")
        print(f"exponent={rep.exponent:.4f} coefficient={rep.coefficient:.6g} "
              f"expected={rep.expected_coefficient:.6g}")
    elif sub == "flat-identity":
        rho = _preset(_FIBER_PRESETS, cfg.get("dynamics", "rho_preset", "cosx"),
                      "rho")(cfg.get_float("dynamics", "rho_amplitude", "0.1"))
        defect = flat_potential_identity(fib, rho)
        text = render_csv(["metric", "value"],
                          [("max_relative_defect", defect)],
                          config_hash=cfg.hash(), precision=precision)
        path = _out_path(cfg, args, "flat_identity.csv")
        print(f"max_relative_defect={defect:.3e}")
    elif sub == "limit-potential":
        alpha = _preset(_FIBER_PRESETS, cfg.get("dynamics", "alpha_preset", "cosx"),
                        "alpha")(cfg.get_float("dynamics", "alpha_amplitude", "1.0"))
        rho = _preset(_FIBER_PRESETS, cfg.get("dynamics", "rho_preset", "cosxy"),
                      "rho")(cfg.get_float("dynamics", "rho_amplitude", "0.04"))
        mean = _preset(_U_PRESETS, cfg.get("dynamics", "f_mean_preset", "re_s"),
                       "f_mean")
        rep = limit_potential_relation(fib, alpha, rho, f_fiber_mean=mean)
        rows = [(s.real, s.imag, rep.u_samples[i])
                for i, s in enumerate(fib.s_samples)]
        text = render_csv(["s_re", "s_im", "u"], rows, config_hash=cfg.hash(),
                          comments=[
                              f"max_discrepancy={rep.max_discrepancy!r}",
                              f"constancy_defect={rep.constancy_defect!r}",
                              f"max_adjacent_jump={rep.max_adjacent_jump!r}",
                          ],
                          precision=precision)
        path = _out_path(cfg, args, "limit_potential.csv")
        print(f"max_discrepancy={rep.max_discrepancy:.3e}")
    else:
        raise ValidationError(f"unknown dynamics experiment {sub!r}")
    write_text(path, text)
    print(f"wrote {path}")
    return 0


def parse_eta(raw: str) -> nodeintegral.EtaSpec:
    """Inline density spec: ``kl:coeff:a1,b1,a2,b2`` terms joined by ';'.

    Example: ``22:1:0,0,0,0`` is the constant density in the second slot;
    off-diagonal slots must come in conjugate pairs.
    """
    coeffs: dict[tuple[int, int], list] = {}
    for term in raw.split(";"):
        term = term.strip()
        if not term:
            continue
        parts = term.split(":")
        if len(parts) != 3:
            raise ValidationError(f"eta term must be kl:coeff:powers, got {term!r}")
        slot = parts[0].strip()
        if len(slot) != 2 or slot[0] not in "12" or slot[1] not in "12":
            raise ValidationError(f"bad eta slot {slot!r}")
        powers = [int(p) for p in parts[2].split(",")]
        if len(powers) != 4 or any(p < 0 for p in powers):
            raise ValidationError(f"bad power list in {term!r}")
        coeff = complex(parts[1].replace(" ", ""))
        key = (int(slot[0]), int(slot[1]))
        coeffs.setdefault(key, []).append((*powers, coeff))
    return nodeintegral.EtaSpec({k: tuple(v) for k, v in coeffs.items()})


def cmd_node_integral(args) -> int:
    cfg = load_config(args.config) if args.config else ExperimentConfig({})
    raw_eta = args.eta or cfg.get("node", "eta", "22:1:0,0,0,0")
    eta = parse_eta(raw_eta)
    grid = _grid(cfg, args.t_grid, "--t-grid", "node", "t_grid", "1e-6:1e-2:9")
    per_decade = cfg.get_int("node", "radial_per_decade", "32")
    angular = cfg.get_int("node", "angular", "64")
    curve = nodeintegral.sample_curve(eta, grid, per_decade, angular)
    fit = nodeintegral.asymptote_fit(curve, eta)
    rows = []
    for i, t in enumerate(curve.t):
        at = abs(t)
        fitted = fit.A_fit * math.log(at**2) + fit.B_fit
        rows.append((at, curve.values[i], fitted, curve.values[i] - fitted,
                     fit.remainder_ratios[i]))
    text = render_csv(
        ["t", "integral", "fitted", "remainder", "ratio"], rows,
        config_hash=cfg.hash(),
        comments=[
            f"A_fit={fit.A_fit!r}",
            f"A_ref={fit.A_ref!r}",
            f"remainder_bounded={fit.remainder_bounded}",
        ],
        precision=_precision(cfg),
    )
    path = _out_path(cfg, args, "node_integral.csv")
    write_text(path, text)
    print(f"wrote {path}")
    print(f"A_fit={fit.A_fit:.12g} A_ref={fit.A_ref:.12g}")
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    seed = cfg.require_seed()
    results = acceptance.run_all(seed)
    rows = [(r.cid, r.name, r.measured, r.threshold, r.passed, r.seconds)
            for r in results]
    text = render_csv(
        ["criterion", "name", "measured", "threshold", "passed", "seconds"],
        [(cid, name,
          measured.replace(",", ";"), threshold.replace(",", ";"),
          passed, secs)
         for cid, name, measured, threshold, passed, secs in rows],
        config_hash=cfg.hash(), precision=_precision(cfg),
    )
    path = _out_path(cfg, args, "verify.csv")
    write_text(path, text)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.cid:2d} {r.name}: {r.measured}")
        all_ok = all_ok and r.passed
    print(f"wrote {path}")
    print("verification " + ("PASSED" if all_ok else "FAILED"))
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchlab",
        description="numerical laboratory for pinching degenerations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kodaira", help="print catalog intersection data")
    p.add_argument("--type", required=True, help="fiber tag, e.g. I_4 or I_0*")
    p.set_defaults(func=cmd_kodaira)

    for name, func, with_L in [
        ("spectrum", cmd_spectrum, True),
        ("modelfns", cmd_modelfns, True),
        ("potential", cmd_potential, True),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if with_L:
            p.add_argument("--L", type=float, default=None)
        p.set_defaults(func=func)

    for name, func in [("sweep-spectrum", cmd_sweep_spectrum),
                       ("green", cmd_green)]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--L-grid", dest="L_grid", default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("pairing")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--L-grid", dest="L_grid", default=None)
    p.add_argument("--fit-window", dest="fit_window", default=None)
    p.set_defaults(func=cmd_pairing)

    p = sub.add_parser("dynamics")
    p.add_argument("experiment",
                   choices=["birkhoff", "growth", "flat-identity",
                            "limit-potential"])
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("node-integral")
    p.add_argument("--config", default=None)
    p.add_argument("--eta", default=None)
    p.add_argument("--t-grid", dest="t_grid", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_node_integral)

    p = sub.add_parser("verify", help="run the full acceptance suite")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
