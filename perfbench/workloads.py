"""The three workloads as lists of operations, and their seed-made inputs.

sweep-coarse  in-process ``cli.main`` sweeps on the shipped configs and on a
              config written from the seed, all at resolution 48: many
              small dense problems, so Python overhead, small LAPACK calls
              under BLAS threading and CSV rendering dominate.
sweep-fine    public-function jobs on the i2 family at n = 576 and 2304: the
              dense O(n^3) eigensolve and the bordered Poisson solve
              dominate; one job takes a full basis (k = n).
cli-cold      every command in a fresh process: import and config parsing
              dominate; the only workload running dynamics, nodeintegral
              and the acceptance suite.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (
    CheckError,
    check_collapsing,
    check_finite,
    check_slope,
    collapsing_count,
    comment_values,
    parse_csv,
)

SHIPPED = ("i2_step", "i3_bump")
SWEEP_COMMANDS = ("sweep-spectrum", "green", "pairing", "potential", "modelfns")
KODAIRA_TYPES = ("I_1", "I_2", "I_3", "I_4", "I_5", "I_0*", "II", "III", "IV")
DYNAMICS = ("birkhoff", "growth", "flat-identity", "limit-potential")
FINE_RES, FINE_K, FINE_M_MAX = 192, 32, 8
MODES_RES, PAIRING_RES = 768, 768


@dataclass
class Op:
    """One operation: a CLI argv (in-process or fresh process) or a call.

    ``check(out_dir, stdout, state)`` raises CheckError on a wrong output;
    ``reference`` compares the outputs with perfbench/reference.json;
    ``fibers`` is the number of chains (one L each) the operation processes;
    ``writes_out`` appends ``--out <dir>`` to the argv; operations sharing a
    ``group`` count as one operation in the per-operation wall times.
    """

    name: str
    argv: list[str] | None = None
    call: Callable[[dict], None] | None = None
    check: Callable[[Path, str, dict], None] | None = None
    fibers: int = 0
    writes_out: bool = True
    reference: bool = False
    group: str = ""


@dataclass
class Workload:
    name: str
    ops: list[Op]
    mode: str    # "main", "proc" or "call": how an op runs untraced
    warmup: str | None  # op run once, unmeasured, before in-process passes
    # In a run of the benchmark's full length: passes over ``ops``, and
    # fresh-process ``pinchlab verify`` samples (a pass's own verify counts).
    # The counts share one time budget per run.
    passes: int
    verify_samples: int

    def op(self, name: str) -> Op:
        return next(op for op in self.ops if op.name == name)


# -- seed-made inputs ---------------------------------------------------------

def _jittered_grid(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """Geometric grid with fixed endpoints and interior points jittered by 3%."""
    grid = [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]
    for i in range(1, count - 1):
        grid[i] *= math.exp(rng.uniform(-0.03, 0.03))
    return [round(x, 6) for x in grid]


def _step_values(rng: random.Random, areas: list[float]) -> list[float]:
    """Random fat-segment constants with zero area-weighted sum."""
    while True:
        vals = [rng.uniform(-2.0, 2.0) for _ in areas]
        mean = sum(v * a for v, a in zip(vals, areas)) / sum(areas)
        vals = [round(v - mean, 6) for v in vals]
        if max(abs(v * a) for v, a in zip(vals, areas)) > 0.1:
            return vals


def seed_config_text(seed: int) -> tuple[str, int]:
    """Config text for the seed's extra sweep family, and its component count.

    The family has three components whose areas and step densities, and
    the jitter of the L grid, come from the seed; the problem sizes do not.
    """
    rng = random.Random(seed)
    n = 3
    cuts = sorted(rng.uniform(0.0, 1.0) for _ in range(n - 1))
    # areas of at least 0.3 summing to 1.5: n is about 216 at resolution 48 for every seed
    areas = [round(0.3 + 0.6 * (b - a), 6) for a, b in zip([0.0, *cuts], [*cuts, 1.0])]
    alpha, beta = _step_values(rng, areas), _step_values(rng, areas)
    grid = _jittered_grid(rng, 50.0, 200.0, 6)
    L = round(100.0 * math.exp(rng.uniform(-0.2, 0.2)), 6)
    lines = [f"# generated from seed {seed}", "[family]", f"n_components = {n}",
             "areas = " + ", ".join(map(str, areas)), "", "[density.alpha]"]
    lines += [f"fat.{i} = {v}" for i, v in enumerate(alpha)]
    lines += ["", "[density.beta]"]
    lines += [f"fat.{i} = {v}" for i, v in enumerate(beta)]
    lines += ["", "[solver]", "resolution = 48", "m_max = 8", "k_per_mode = 32",
              f"seed = {seed}", "", "[sweep]", f"L = {L}",
              "L_grid = " + ", ".join(map(str, grid)), "fit_window = 50, 200",
              "", "[output]", "directory = out", "precision = 17", ""]
    return "\n".join(lines), n


def fibers_of(command: str, config: Path) -> int:
    """Chains (one L each) a CLI command processes on a config."""
    from pinchlab.configfile import load_config

    cfg = load_config(str(config))
    if command in ("sweep-spectrum", "green", "pairing"):
        default = "50:200:12" if command == "pairing" else "20:200:4"
        return len(cfg.get_grid("sweep", "L_grid", default))
    if command == "potential":
        return 1 + len(cfg.get_grid("sweep", "estimate_L_grid", "20:200:4"))
    return 1 if command in ("spectrum", "modelfns") else 0


# -- invariant checks on the seed config's CLI outputs -----------------------

def _seed_check(command: str, n_components: int):
    def check(out: Path, stdout: str, state: dict):
        if command == "sweep-spectrum":
            table = parse_csv((out / "sweep_spectrum.csv").read_text())
            check_finite(table)
            check_collapsing(table, n_components)
        elif command == "green":
            table = parse_csv((out / "green.csv").read_text())
            check_finite(table)
            for row in table["rows"]:
                rec = dict(zip(table["header"], row))
                if not rec["green_min"] <= rec["diag_min"]:
                    raise CheckError("green minimum above its diagonal")
        elif command == "pairing":
            table = parse_csv((out / "pairing.csv").read_text())
            check_finite(table)
            c = comment_values(table["comments"])
            check_slope(c["c_fit"], c["c_predicted"])
        elif command == "potential":
            table = parse_csv((out / "potential.csv").read_text())
            check_finite(table)
            rest = [r[1] - r[2] - r[3] for r in table["rows"]]
            scale = max(abs(r[1]) for r in table["rows"])
            if max(rest) - min(rest) > 1e-8 * max(1.0, scale):
                raise CheckError("phi - phi_low - phi_high is not constant")
            check_finite(parse_csv((out / "potential_estimates.csv").read_text()))
        elif command == "modelfns":
            table = parse_csv((out / "modelfns.csv").read_text())
            check_finite(table)
            if len(table["rows"]) != n_components or any(r[3] < 1.0 for r in table["rows"]):
                raise CheckError("model functions: wrong count or norm below 1")
    return check


# -- workloads ------------------------------------------------------------------

def sweep_coarse(root: Path, work: Path, seed: int) -> Workload:
    text, n = seed_config_text(seed)
    seed_cfg = work / f"seed{seed}.cfg"
    seed_cfg.write_text(text)
    ops = []
    for cfg_name in (*SHIPPED, "seed"):
        path = seed_cfg if cfg_name == "seed" else root / "configs" / f"{cfg_name}.cfg"
        for command in SWEEP_COMMANDS:
            ops.append(Op(
                name=f"{command}:{cfg_name}",
                argv=[command, "--config", str(path)],
                fibers=fibers_of(command, path),
                check=None if cfg_name != "seed" else _seed_check(command, n),
                reference=cfg_name != "seed",
                group=cfg_name,  # one config's sweep pipeline
            ))
    return Workload("sweep-coarse", ops, mode="main", warmup="potential:i2_step",
                    passes=2, verify_samples=6)


def cli_cold(root: Path, work: Path, seed: int) -> Workload:
    rng = random.Random(seed)
    cfg = root / "configs"
    fiber_type = rng.choice(KODAIRA_TYPES)
    ops = [Op(name=f"kodaira:{fiber_type}", argv=["kodaira", "--type", fiber_type],
              writes_out=False, reference=True)]
    plan = [("spectrum", "i2_step"), ("modelfns", "i3_bump"), ("potential", "i2_step"),
            ("pairing", "i2_step"), ("pairing", "i3_bump")]
    for command, name in plan:
        ops.append(Op(name=f"{command}:{name}",
                      argv=[command, "--config", str(cfg / f"{name}.cfg")],
                      fibers=fibers_of(command, cfg / f"{name}.cfg"), reference=True))
    for exp in DYNAMICS:
        ops.append(Op(name=f"dynamics-{exp}:dynamics",
                      argv=["dynamics", exp, "--config", str(cfg / "dynamics.cfg")],
                      reference=True))
    ops.append(Op(name="node-integral:node",
                  argv=["node-integral", "--config", str(cfg / "node.cfg")], reference=True))
    ops.append(verify_op(root))
    rng.shuffle(ops)
    # two passes: 24 command samples, enough for a tail with ten beyond it
    return Workload("cli-cold", ops, mode="proc", warmup="potential:i2_step",
                    passes=2, verify_samples=8)


def verify_op(root: Path) -> Op:
    return Op(name="verify:verify",
              argv=["verify", "--config", str(root / "configs" / "verify.cfg")],
              reference=True)


def sweep_fine(root: Path, work: Path, seed: int) -> Workload:
    """Jobs on the i2 family (n = 576 at resolution 192, 2304 at 768).

    The jobs look pinchlab's functions up on the package when they run, so
    that the traced run sees the tracer's wrappers.
    """
    import numpy as np
    import pinchlab as pl
    from pinchlab.configfile import load_config

    rng = random.Random(seed)
    family = load_config(str(root / "configs" / "i2_step.cfg")).family()
    areas = [float(a) for a in family.area_vector()]
    Ls = [round(L * math.exp(rng.uniform(-0.1, 0.1)), 6) for L in (50.0, 100.0, 200.0)]
    spec_a = pl.step_density_spec(_step_values(rng, areas))
    spec_b = pl.step_density_spec(_step_values(rng, areas))
    grid = _jittered_grid(rng, 50.0, 200.0, 12)
    L_mid = Ls[1]
    a = lambda ch: pl.density_from_spec(spec_a, ch)  # noqa: E731
    b = lambda ch: pl.density_from_spec(spec_b, ch)  # noqa: E731

    def spectrum_job(L):
        def call(state):
            chain = pl.build_chain(family, L, resolution=FINE_RES)
            eigsys = pl.full_spectrum(chain, m_max=FINE_M_MAX, k_per_mode=FINE_K)
            green = pl.truncated_green_min(chain, eigsys, tail_count=24)
            state[f"spectrum@{L}"] = (eigsys, green)
        return call

    def spectrum_check(L):
        def check(out, stdout, state):
            eigsys, green = state[f"spectrum@{L}"]
            if not (math.isfinite(green.min_value) and green.min_value <= green.diag_min):
                raise CheckError(f"green minimum {green.min_value!r} at L={L}")
            if L == Ls[-1]:
                lams = [state[f"spectrum@{x}"][0].expanded_eigenvalues() for x in (Ls[0], L)]
                low, high = (sorted(x * lam for lam in e if lam > 1e-8)[:8]
                             for x, e in zip((Ls[0], L), lams))
                count = collapsing_count(low, high, L / Ls[0])
                if count != family.n_components - 1:
                    raise CheckError(f"{count} collapsing eigenvalues at resolution {FINE_RES}")
        return check

    def full_basis(state):
        chain = pl.build_chain(family, L_mid, resolution=FINE_RES)
        eigsys = pl.full_spectrum(chain, m_max=FINE_M_MAX, k_per_mode=chain.n_nodes)
        dens = a(chain)
        state["full_basis"] = (pl.solve_spectral(chain, dens, eigsys)[0].phi, chain, dens)

    def full_basis_check(out, stdout, state):
        phi, chain, dens = state["full_basis"]
        direct = pl.solve_direct(chain, dens).phi
        if np.max(np.abs(phi - direct)) > 1e-6 * np.max(np.abs(direct)):
            raise CheckError("full-basis spectral potential differs from the direct solve")

    def modes(state):
        chain = pl.build_chain(family, L_mid, resolution=MODES_RES)
        state["modes"] = pl.solve_modes(chain, 0, FINE_K)[0]

    def modes_check(out, stdout, state):
        fine = state["modes"]
        coarse = sorted(e.lam for e in state[f"spectrum@{L_mid}"][0].mode0_entries())
        if abs(fine[0]) > 1e-8 or np.max(np.abs(fine[1:3] / coarse[1:3] - 1.0)) > 1e-3:
            raise CheckError(f"mode-0 eigenvalues at resolution {MODES_RES} disagree with "
                             f"resolution {FINE_RES}: {fine[:3]} vs {coarse[:3]}")

    def pairing(state):
        curve = pl.pairing_sweep(family, a, b, grid, resolution=PAIRING_RES)
        fit = pl.fit_log_asymptote(curve, (50.0, 200.0))
        ref = pl.build_chain(family, max(grid), resolution=PAIRING_RES)
        state["pairing"] = (fit.c_fit,
                            pl.predicted_constant(pl.cycle_graph(areas), a(ref), b(ref)))

    def pairing_check(out, stdout, state):
        check_slope(*state["pairing"])

    ops = [Op(name=f"spectrum-green:L{i}", call=spectrum_job(L), check=spectrum_check(L),
              fibers=1) for i, L in enumerate(Ls)]
    ops += [Op(name="full-basis", call=full_basis, check=full_basis_check, fibers=1),
            Op(name="solve-modes-2304", call=modes, check=modes_check, fibers=1),
            Op(name="pairing-768", call=pairing, check=pairing_check, fibers=len(grid))]
    return Workload("sweep-fine", ops, mode="call", warmup=None, passes=1, verify_samples=8)


WORKLOADS = {"sweep-coarse": sweep_coarse, "sweep-fine": sweep_fine, "cli-cold": cli_cold}
