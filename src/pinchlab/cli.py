"""Command-line driver: experiment orchestration and CSV emission.

Exit codes: 0 success, 1 failed verification, 2 validation error (bad input
or config, with the violated condition named), 3 numerical non-convergence.
All state comes from the config file and flags; identical inputs produce
byte-identical CSV artifacts.

Every CSV-writing command is a function ``(cfg, args) -> Run`` listed in
``COMMANDS``, from which the parser is built.  ``run_command`` loads the
config, replaces each flag by its parsed value or that of the config key it
overrides, writes each table of the run, prints one ``wrote <path>`` line
per file and then the run's summary lines.

Importing this module runs only ``errors`` and ``blas`` of pinchlab: every other
module is registered (perfbench's tracer finds it) and runs when a command reads it.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import math
import os
import sys
from dataclasses import astuple, dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .blas import blas_threads
from .errors import ConvergenceError, ValidationError


def _lazy(name: str):
    """``pinchlab.<name>``, in ``sys.modules`` and on the package, its body run when one of
    its attributes is first read: on the main thread, as Python 3.11's LazyLoader has no lock."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[fullname]


acceptance = _lazy("acceptance")
configfile = _lazy("configfile")
dualgraph = _lazy("dualgraph")
dynamics = _lazy("dynamics")
geometry = _lazy("geometry")
nodeintegral = _lazy("nodeintegral")
pairing = _lazy("pairing")
potential = _lazy("potential")
reporting = _lazy("reporting")
spectral = _lazy("spectral")


@dataclass(frozen=True)
class Table:
    """One CSV file: name, header, rows, and values for ``# key=value`` lines."""

    filename: str
    columns: Sequence[str]
    rows: Sequence[tuple]
    comments: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Run:
    """Tables to write, lines to print after them, and the exit code (1 = failed verify)."""

    tables: Sequence[Table]
    summary: Sequence[str] = ()
    exit_code: int = 0


def _solver(cfg: configfile.ExperimentConfig):
    return {
        "resolution": cfg.get_int("solver", "resolution", "48"),
        "m_max": cfg.get_int("solver", "m_max", "16"),
        "k_per_mode": cfg.get_int("solver", "k_per_mode", "32"),
    }


def _window(raw: str) -> tuple[float, float]:
    """Fit window ``lo,hi`` with 0 <= lo < hi < inf."""
    try:
        lo, hi = (float(p) for p in raw.split(","))
    except ValueError:
        lo = hi = math.nan
    if not 0 <= lo < hi < math.inf:
        raise ValueError(f"must be lo,hi with 0 <= lo < hi, got {raw!r}")
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


def _spectra(cfg: configfile.ExperimentConfig, L_values):
    """(L, chain, eigsys) at each L in ascending order; the chains are built
    here, the spectra may come from the worker pool, one chain per task."""
    solver = _solver(cfg)
    Ls = [float(L) for L in np.sort(L_values)]
    chains = [geometry.build_chain(cfg.family(), L, resolution=solver["resolution"]) for L in Ls]
    spectra = spectral.full_spectra(chains, m_max=solver["m_max"], k_per_mode=solver["k_per_mode"])
    return zip(Ls, chains, spectra)


def _spectrum_rows(cfg: configfile.ExperimentConfig, L_values):
    rows = []
    for L, chain, eigsys in _spectra(cfg, L_values):
        # one row per eigenvalue counted with multiplicity, in (lam, mode) order
        pairs = np.repeat(eigsys.order, eigsys.multiplicity[eigsys.order])
        rows += [(L, chain.s, i, m, lam, lam * L, eigsys.gap_value, ok) for i, (m, lam, ok)
                 in enumerate(zip(eigsys.modes[pairs].tolist(), eigsys.lam[pairs].tolist(),
                                  eigsys.certified[pairs]))]
    return rows


SPECTRUM_COLUMNS = ["L", "s", "k", "m", "lambda", "lambda_times_L", "gap",
                    "certified"]


def cmd_spectrum(cfg: configfile.ExperimentConfig, args) -> Run:
    rows = _spectrum_rows(cfg, [args.L])
    return Run([Table("spectrum.csv", SPECTRUM_COLUMNS, rows)])


def cmd_sweep_spectrum(cfg: configfile.ExperimentConfig, args) -> Run:
    rows = _spectrum_rows(cfg, args.L_grid)
    return Run([Table("sweep_spectrum.csv", SPECTRUM_COLUMNS, rows)])


def cmd_modelfns(cfg: configfile.ExperimentConfig, args) -> Run:
    chain = geometry.build_chain(cfg.family(), args.L, resolution=_solver(cfg)["resolution"])
    mfs = spectral.model_functions(chain)
    rows = [(i, energy, energy * args.L, norm, start, end) for i, (energy, norm, (start, end))
            in enumerate(zip(mfs.energies.tolist(), mfs.norms.tolist(), mfs.supports))]
    return Run([Table(
        "modelfns.csv",
        ["component", "energy", "energy_times_L", "norm_sq",
         "support_start", "support_end"],
        rows, {"overlap_sup": mfs.overlap_sup},
    )])


def cmd_green(cfg: configfile.ExperimentConfig, args) -> Run:
    cutoff = (cfg.get_float("solver", "green_cutoff")
              if cfg.has("solver", "green_cutoff") else None)
    tail = cfg.get_int("solver", "tail_count", "24")
    rows = []
    for L, chain, eigsys in _spectra(cfg, args.L_grid):
        rep = spectral.truncated_green_min(chain, eigsys, tail_count=tail,
                                           lambda_cutoff=cutoff)
        rows.append((L, chain.s, rep.min_value, rep.diag_min,
                     rep.cutoff, rep.tail_bound))
    return Run([Table(
        "green.csv", ["L", "s", "green_min", "diag_min", "cutoff", "tail_bound"], rows,
    )])


def cmd_potential(cfg: configfile.ExperimentConfig, args) -> Run:
    solver = _solver(cfg)
    family = cfg.family()
    chain = geometry.build_chain(family, args.L, resolution=solver["resolution"])
    builder = cfg.density_builder("alpha")
    dens = builder(chain)
    eigsys = spectral.full_spectrum(chain, m_max=2, k_per_mode=solver["k_per_mode"])
    pot = potential.solve_direct(chain, dens)
    low, high = potential.split_low_high(pot, eigsys)
    rows = list(zip(chain.nodes.tolist(), pot.phi.tolist(), low.tolist(), high.tolist()))

    grid = cfg.get_grid("sweep", "estimate_L_grid", "20:200:4")
    table = potential.estimate_report(family, grid, builder,
                                      resolution=solver["resolution"])
    return Run([
        Table("potential.csv", ["x", "phi", "phi_low", "phi_high"], rows),
        Table("potential_estimates.csv", [f.name for f in fields(potential.EstimateRow)],
              [astuple(r) for r in table.rows],
              {"high_bounded": table.high_bounded,
               "low_over_sqrtL_decreasing": table.low_over_sqrtL_decreasing}),
    ])


def cmd_pairing(cfg: configfile.ExperimentConfig, args) -> Run:
    solver = _solver(cfg)
    family = cfg.family()
    lo, hi = args.fit_window
    a_builder = cfg.density_builder("alpha")
    b_builder = cfg.density_builder("beta")
    curve = pairing.pairing_sweep(family, a_builder, b_builder, args.L_grid,
                                  resolution=solver["resolution"])
    fit = pairing.fit_log_asymptote(curve, (lo, hi))
    ref_chain = geometry.build_chain(family, float(np.max(args.L_grid)),
                                     resolution=solver["resolution"])
    predicted = pairing.predicted_constant(
        dualgraph.cycle_graph(family.area_vector()),
        a_builder(ref_chain), b_builder(ref_chain),
    )
    rel_err = abs(fit.c_fit - predicted) / max(abs(predicted), 0.01)
    rows = []
    for L, s, v in zip(curve.L.tolist(), curve.s.tolist(), curve.values.tolist()):
        fitted = fit.intercept + fit.c_fit * (-2.0 * L)
        rows.append((L, s, v, fitted, v - fitted))
    comments = {"c_fit": fit.c_fit, "c_predicted": predicted, "relative_error": rel_err,
                "intercept": fit.intercept, "fit_window": f"{lo},{hi}"}
    return Run(
        [Table("pairing.csv", ["L", "s", "value", "fitted", "residual"], rows, comments)],
        [f"c_fit={fit.c_fit:.12g}",
         f"c_predicted={predicted:.12g}",
         f"relative_error={rel_err:.3e}"],
    )


def _fibration(cfg: configfile.ExperimentConfig) -> dynamics.TorusFibration:
    return dynamics.TorusFibration(
        t_coeffs=cfg.get_complexes("dynamics", "t_poly", "0,1"),
        s_samples=dynamics.annulus_samples(
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
        lambda s, A, B: amp * np.sin(geometry.TWO_PI * A) * np.cos(geometry.TWO_PI * B)),
    "sinxsiny": lambda amp: (
        lambda s, A, B: amp * np.sin(geometry.TWO_PI * A) * np.sin(geometry.TWO_PI * B)),
    "cosx": lambda amp: (lambda s, A, B: amp * np.cos(geometry.TWO_PI * A) + 0.0 * B),
    "cosxy": lambda amp: (
        lambda s, A, B: amp * np.cos(geometry.TWO_PI * (A + B))),
}


def _preset(cfg: configfile.ExperimentConfig, table, key: str, default: str):
    """The ``table`` entry named by ``[dynamics] key``."""
    name = cfg.get("dynamics", key, default)
    try:
        return table[name]
    except KeyError:
        raise ValidationError(
            f"[dynamics] {key}: unknown preset {name!r}; choose from {sorted(table)}"
        ) from None


def _fiber_field(cfg: configfile.ExperimentConfig, prefix: str, preset: str, amplitude: str):
    """Fiber function from ``[dynamics] <prefix>_preset`` and ``<prefix>_amplitude``."""
    make = _preset(cfg, _FIBER_PRESETS, f"{prefix}_preset", preset)
    return make(cfg.get_float("dynamics", f"{prefix}_amplitude", amplitude))


def dynamics_birkhoff(cfg: configfile.ExperimentConfig, args) -> Run:
    fib = _fibration(cfg)
    u = _preset(cfg, _U_PRESETS, "u_preset", "re_s")
    phi = _fiber_field(cfg, "phi", "sinxcosy", "0.3")
    f, sup_phi = dynamics.synthesize_invariant_observable(fib, u, phi)
    limit = dynamics.birkhoff_limit(fib, f, cfg.get_int("dynamics", "k_max", "10000"),
                                    u_ref=u, phi_sup=sup_phi)
    rows = [
        (k, float(np.max(limit.sup_deviation[i])), 2.0 * sup_phi / k,
         float(np.max(limit.constancy_defect[i])))
        for i, k in enumerate(limit.ks)
    ]
    return Run([Table("birkhoff.csv", ["k", "sup_deviation", "bound", "constancy_defect"],
                      rows, {"tate_bound_ok": limit.tate_bound_ok})])


def dynamics_growth(cfg: configfile.ExperimentConfig, args) -> Run:
    fib = _fibration(cfg)
    rho = _fiber_field(cfg, "growth_rho", "sinxsiny", "1.0")
    s0 = cfg.get_complexes("dynamics", "s0", "1")[0]
    rep = dynamics.pushforward_growth(
        fib, rho, cfg.get_ints("dynamics", "n_list", "64,128,256,512,1024"), s0)
    rows = list(zip(rep.n_list, rep.sup_values.tolist(), rep.error_floors.tolist()))
    comments = {"exponent": rep.exponent, "coefficient": rep.coefficient,
                "expected_coefficient": rep.expected_coefficient, "stable": rep.stable}
    return Run(
        [Table("growth.csv", ["n", "sup_value", "error_floor"], rows, comments)],
        [f"exponent={rep.exponent:.4f} coefficient={rep.coefficient:.6g} "
         f"expected={rep.expected_coefficient:.6g}"],
    )


def dynamics_flat_identity(cfg: configfile.ExperimentConfig, args) -> Run:
    fib = _fibration(cfg)
    defect = dynamics.flat_potential_identity(fib, _fiber_field(cfg, "rho", "cosx", "0.1"))
    return Run(
        [Table("flat_identity.csv", ["metric", "value"], [("max_relative_defect", defect)])],
        [f"max_relative_defect={defect:.3e}"],
    )


def dynamics_limit_potential(cfg: configfile.ExperimentConfig, args) -> Run:
    fib = _fibration(cfg)
    alpha = _fiber_field(cfg, "alpha", "cosx", "1.0")
    rho = _fiber_field(cfg, "rho", "cosxy", "0.04")
    mean = _preset(cfg, _U_PRESETS, "f_mean_preset", "re_s")
    rep = dynamics.limit_potential_relation(fib, alpha, rho, f_fiber_mean=mean)
    rows = [(s.real, s.imag, u) for s, u in zip(fib.s_samples, rep.u_samples.tolist())]
    comments = {"max_discrepancy": rep.max_discrepancy,
                "constancy_defect": rep.constancy_defect,
                "max_adjacent_jump": rep.max_adjacent_jump}
    return Run([Table("limit_potential.csv", ["s_re", "s_im", "u"], rows, comments)],
               [f"max_discrepancy={rep.max_discrepancy:.3e}"])


def cmd_node_integral(cfg: configfile.ExperimentConfig, args) -> Run:
    per_decade = cfg.get_int("node", "radial_per_decade", "32")
    angular = cfg.get_int("node", "angular", "64")
    curve = nodeintegral.sample_curve(args.eta, args.t_grid, per_decade, angular)
    fit = nodeintegral.asymptote_fit(curve, args.eta)
    rows = []
    for t, value, ratio in zip(curve.t.tolist(), curve.values.tolist(),
                               fit.remainder_ratios.tolist()):
        at = abs(t)
        fitted = fit.A_fit * math.log(at**2) + fit.B_fit
        rows.append((at, value, fitted, value - fitted, ratio))
    comments = {"A_fit": fit.A_fit, "A_ref": fit.A_ref,
                "remainder_bounded": fit.remainder_bounded}
    return Run(
        [Table("node_integral.csv", ["t", "integral", "fitted", "remainder", "ratio"],
               rows, comments)],
        [f"A_fit={fit.A_fit:.12g} A_ref={fit.A_ref:.12g}"],
    )


def cmd_verify(cfg: configfile.ExperimentConfig, args) -> Run:
    # the wall times go to stdout only, so that verify.csv is byte-deterministic
    timed = acceptance.run_all(cfg.require_seed())
    rows = [(r.cid, r.name, r.measured.replace(",", ";"),
             r.threshold.replace(",", ";"), r.passed) for r, _ in timed]
    summary = [f"[{'PASS' if r.passed else 'FAIL'}] {r.cid:2d} {r.name}: {r.measured}"
               f" ({seconds:.3f} s)" for r, seconds in timed]
    all_ok = all(r.passed for r, _ in timed)
    summary.append("verification " + ("PASSED" if all_ok else "FAILED"))
    return Run(
        [Table("verify.csv", ["criterion", "name", "measured", "threshold", "passed"], rows)],
        summary, 0 if all_ok else 1,
    )


# -- command table ------------------------------------------------------------

# Each flag overrides one config key: flag -> (section, key, parser).
_FLAGS = {
    "--L": ("sweep", "L", lambda raw: configfile.finite_float(raw)),
    "--L-grid": ("sweep", "L_grid", lambda raw: configfile.parse_grid(raw)),
    "--fit-window": ("sweep", "fit_window", _window),
    "--eta": ("node", "eta", lambda raw: nodeintegral.parse_eta(raw)),
    "--t-grid": ("node", "t_grid", lambda raw: configfile.parse_grid(raw)),
}


@dataclass(frozen=True)
class Command:
    run: Callable[[configfile.ExperimentConfig, argparse.Namespace], Run]
    # flag -> default of the key it overrides (None: the key is required)
    flags: dict = field(default_factory=dict)
    config_required: bool = True
    help: str | None = None


# "dynamics <experiment>" entries share one subparser with a positional
# experiment argument.
COMMANDS = {
    "spectrum": Command(cmd_spectrum, {"--L": "100.0"}),
    "sweep-spectrum": Command(cmd_sweep_spectrum, {"--L-grid": None}),
    "modelfns": Command(cmd_modelfns, {"--L": "100.0"}),
    "green": Command(cmd_green, {"--L-grid": "20:200:4"}),
    "potential": Command(cmd_potential, {"--L": "100.0"}),
    "pairing": Command(cmd_pairing, {"--L-grid": "50:200:12", "--fit-window": "50,200"}),
    "dynamics birkhoff": Command(dynamics_birkhoff),
    "dynamics growth": Command(dynamics_growth),
    "dynamics flat-identity": Command(dynamics_flat_identity),
    "dynamics limit-potential": Command(dynamics_limit_potential),
    "node-integral": Command(cmd_node_integral,
                             {"--eta": "22:1:0,0,0,0", "--t-grid": "1e-6:1e-2:9"},
                             config_required=False),
    "verify": Command(cmd_verify, help="run the full acceptance suite"),
}


def run_command(command: Command, args) -> int:
    """Load the config, resolve the flags, run the command, write its tables and
    print its summary."""
    cfg = configfile.load_config(args.config) if args.config else configfile.ExperimentConfig({})
    precision = cfg.get_int("output", "precision", "17")
    if precision < 1:
        raise ValidationError(f"[output] precision must be at least 1, got {precision}")
    for flag, default in command.flags.items():
        section, key, parse = _FLAGS[flag]
        dest = flag[2:].replace("-", "_")  # argparse's attribute for the flag
        raw, source = getattr(args, dest), flag
        if not raw:  # absent or empty
            raw, source = cfg.get(section, key, default), f"[{section}] {key}"
        try:
            setattr(args, dest, parse(raw))
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"{source}: {exc}") from None
    run = command.run(cfg, args)
    directory = args.out or cfg.get("output", "directory", "out")
    for table in run.tables:
        path = os.path.join(directory, table.filename)
        # str() of a Python float is its shortest round-trip repr
        comments = [f"{key}={value}" for key, value in table.comments.items()]
        text = reporting.render_csv(table.columns, table.rows, config_hash=cfg.hash(),
                                    comments=comments, precision=precision)
        reporting.write_text(path, text)
        print(f"wrote {path}")
    for line in run.summary:
        print(line)
    return run.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchlab",
        description="numerical laboratory for pinching degenerations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kodaira", help="print catalog intersection data")
    p.add_argument("--type", required=True, help="fiber tag, e.g. I_4 or I_0*")

    for name, command in COMMANDS.items():
        head = name.partition(" ")[0]
        if head in sub.choices:
            continue
        p = sub.add_parser(head, help=command.help)
        experiments = [n.partition(" ")[2] for n in COMMANDS if n.startswith(head + " ")]
        if experiments:
            p.add_argument("experiment", choices=experiments)
        p.add_argument("--config", required=command.config_required)
        p.add_argument("--out")
        for flag in command.flags:
            p.add_argument(flag)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # one BLAS thread for the length of the command, unless the user chose a
    # count: the dense solves are small, and default threads compete with the
    # pool workers and with other processes for the cores
    chosen = "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ
    pinned = None if chosen else blas_threads(1)
    try:
        if args.command == "kodaira":
            return cmd_kodaira(args)
        name = f"{args.command} {args.experiment}" if "experiment" in args else args.command
        return run_command(COMMANDS[name], args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    finally:
        if pinned:
            blas_threads(pinned)  # library callers keep their own threads


# What the collector tracks by now, mostly numpy and the modules imported
# above, lives until exit: move it to the permanent generation, which no
# collection traverses, so every full collection in a command and the one at
# exit skip it.  The layers a command runs later are collected as usual.
# Consequence: cyclic garbage that exists when this module is imported is never collected.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
