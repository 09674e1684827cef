"""pinchlab benchmark: one workload per run, outputs checked, metrics as JSON.

Run from the root of a pinchlab checkout (it imports ``src/pinchlab``):

    python3 perfbench/run.py --workload sweep-coarse --seed 1 --seconds 40 --trace 0

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, measured with tracing off;
``--trace 1`` reports the per-layer metrics from a separate traced run.

Load is a closed loop from this one process with at most one child at a
time.  ``--seconds`` fixes the measured work, not a deadline.  A run of
``RUN_SECONDS`` makes the workload's own number of passes over its
operations and of verify runs (sweep-coarse 2 and 6, sweep-fine 1 and 8,
cli-cold 2 and 8) and ``SETUP_REPEATS`` set-ups; other ``--seconds`` scale
those counts in proportion, each at least 1.  At 40 a run takes 30-50 s
on a 2-core Xeon (OpenBLAS 0.3.31, default threads).  Every commit therefore
measures the same operations and the same number of samples, so percentiles
stay comparable when the program gets faster.  The BLAS/OpenMP thread
variables are inherited as they are and recorded, never set.

End-to-end metrics (every workload):
  setup_s         median over fresh processes of import + config load + first
                  build_chain, the set-up every command pays before its work
  wall_s          one pass: the sum over operations of their median wall time
  fibers_per_s    chains (one L each) processed per pass, over wall_s
  cmd_wall_p50_s  median wall time of one operation: a command in a fresh
  cmd_wall_tail_s process (cli-cold), one config's five-command pipeline
                  (sweep-coarse) or one job (sweep-fine); the tail is the
                  highest percentile with at least ten samples beyond it, or
                  the maximum when that percentile would fall below the
                  median (under 22 samples: 6 on sweep-coarse, 6 on
                  sweep-fine; cli-cold has 24), printed with the sample count
  verify_s        median fresh-process wall time of ``pinchlab verify``
                  over the run's verify samples, spread over the run
  peak_rss_mb     peak resident memory of the generator (cli-cold: of the
                  largest child)
A failed operation (exception, nonzero exit, output check miss) counts in
``failed``; the failed fraction is printed above the result line.

Per-layer metrics come from the traced run: ``<layer>.<function>_s`` is busy
time per pass, ``.self_s`` excludes wrapped children, ``.calls`` counts calls.
The layer each should move: import.* -> cmd_wall_p50_s and verify_s on
cli-cold; configfile -> setup_s; geometry and reporting -> wall_s on
sweep-coarse; spectral -> fibers_per_s and peak_rss_mb on sweep-fine, wall_s
on sweep-coarse; potential -> wall_s on sweep-fine; pairing -> fibers_per_s
on both sweeps; dualgraph, dynamics, nodeintegral -> cmd_wall_p50_s on
cli-cold; acceptance -> verify_s.  Layers a workload does not run read 0.
The ``n<size>_ms`` and ``cost_exponent`` metrics come from a fixed ladder of
solves at n = 144, 576 and 2304 that every traced run times with tracing off.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CheckError, compare, compare_text  # noqa: E402
from workloads import WORKLOADS, verify_op  # noqa: E402

# A run of RUN_SECONDS: the workload's passes and verify runs (about 1.5 s
# each) and SETUP_REPEATS fresh-process set-ups (about 0.75 s each).  One
# verify run is short and varies by 10% or more on a shared host, so a run
# takes several, spread over it, and reports their median.
RUN_SECONDS = 40
SETUP_REPEATS = 6
IMPORT_REPEATS = 3
CHILD_TIMEOUT = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Cost-law ladder: the i2 family at resolutions 48, 192, 768 -> n = 144, 576, 2304.
LADDER = ((48, 144, 5), (192, 576, 3), (768, 2304, 1))
LAUNCH = "import sys; from pinchlab.cli import main; sys.exit(main())"
SETUP_SCRIPT = """
import os, sys, time
t0 = time.perf_counter()
import pinchlab.cli
from pinchlab.configfile import load_config
from pinchlab.geometry import build_chain
cfg = load_config(sys.argv[1])
build_chain(cfg.family(), cfg.get_float("sweep", "L"),
            resolution=cfg.get_int("solver", "resolution"))
print(time.perf_counter() - t0, flush=True)
os._exit(0)  # the interpreter's teardown is not set-up; skip it
"""
LAYER_TIMES = [
    "configfile.load_config", "geometry.build_chain", "geometry.density",
    "spectral.assemble_mode_operator", "spectral.solve_modes",
    "spectral.truncated_green_min", "spectral.model_functions",
    "potential.solve_direct", "potential.solve_spectral", "potential.split_low_high",
    "pairing.fit_log_asymptote", "pairing.predicted_constant", "dualgraph.pseudoinverse",
    "dynamics.birkhoff_limit", "dynamics.pushforward_growth",
    "dynamics.flat_potential_identity", "dynamics.limit_potential_relation",
    "nodeintegral.sample_curve", "reporting.render_csv",
] + [f"acceptance.criterion_{i:02d}" for i in range(1, 17)]
LAYER_SELF = ["spectral.full_spectrum", "potential.estimate_report", "pairing.pairing_value"]
LAYER_CALLS = ["spectral.solve_modes", "potential.solve_direct"]


class Runner:
    def __init__(self, root: Path, work: Path):
        self.root, self.work = root, work
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.reference = json.loads((HERE / "reference.json").read_text())
        self.tracer = None
        self.state: dict = {}

    def child(self, args: list[str], **kw) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT, **kw)

    def run_op(self, op, mode: str) -> float:
        """Run and check one operation; return its wall time in seconds."""
        out = self.work / "out" / op.name.replace(":", "_")
        shutil.rmtree(out, ignore_errors=True)
        argv = op.argv + ["--out", str(out)] if op.writes_out and op.argv else op.argv
        self.attempted += 1
        stdout, error = "", None
        start = time.perf_counter()
        try:
            if mode == "proc":
                proc = self.child(["-c", LAUNCH, *argv])
                stdout = proc.stdout
                if proc.returncode != 0:
                    error = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
            elif mode == "main":
                from pinchlab import cli
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv)
                stdout = buf.getvalue()
                if rc != 0:
                    error = f"exit {rc}"
            else:
                op.call(self.state)
        except Exception:  # a failed operation is counted, not fatal
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        if error is None:
            error = self.check(op, out, stdout)
        if error is not None:
            self.failed += 1
            self.failures.append(f"{op.name}: {error}")
        return wall

    def check(self, op, out: Path, stdout: str) -> str | None:
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            if op.reference:
                ref = self.reference[op.name]
                if "stdout" in ref:
                    compare_text(stdout, ref["stdout"])
                for filename, digest in ref["files"].items():
                    compare((out / filename).read_text(), digest, filename)
            if op.check is not None:
                op.check(out, stdout, self.state)
        except (CheckError, OSError, KeyError, ValueError, IndexError) as exc:
            return f"check failed: {exc!r}"
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True
        return None

    def passes(self, workload, count: int, mode: str, probes=None) -> list[dict]:
        """Per pass, each operation's wall time (checks excluded).

        ``probes`` maps a slot k (before the k-th operation of the run, or
        after the last one) to callables run there, untimed by the passes.
        """
        probes = probes or {}
        walls, k = [], 0
        for _ in range(count):
            self.state.clear()
            record = {}
            for op in workload.ops:
                for probe in probes.get(k, ()):
                    probe()
                record[op.name] = self.run_op(op, mode)
                k += 1
            walls.append(record)
        for probe in probes.get(k, ()):
            probe()
        return walls

    def setup_seconds(self) -> float:
        """One fresh-process set-up: import, config load, first build_chain."""
        proc = self.child(["-c", SETUP_SCRIPT, str(self.root / "configs" / "i2_step.cfg")])
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed: {proc.stderr.strip()[-500:]}")
        return float(proc.stdout.strip().splitlines()[-1])

    def import_seconds(self) -> dict:
        pin, opt = [], []
        for _ in range(IMPORT_REPEATS):
            proc = self.child(["-X", "importtime", "-c", "import pinchlab.cli"])
            cumulative = {}
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[1].strip().isdigit():
                    cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
            pin.append(max(v for k, v in cumulative.items() if k.startswith("pinchlab")))
            opt.append(cumulative.get("scipy.optimize", 0.0))
        return {"import.pinchlab_s": (statistics.median(pin), "s"),
                "import.scipy_optimize_s": (statistics.median(opt), "s")}


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its name.

    Below 22 samples that percentile would fall under the median (or not
    exist), and the maximum is reported instead.
    """
    ordered = sorted(values)
    index = len(ordered) - 11
    if index < len(ordered) // 2:
        return ordered[-1], f"the maximum of {len(ordered)}"
    return ordered[index], f"p{100.0 * index / len(ordered):.0f} of {len(ordered)}"


def environment() -> dict:
    import numpy as np
    import scipy
    blas = ""
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": blas,
            **{v: os.environ.get(v, "unset") for v in THREAD_VARS}}


def spread(probes: list, slots: int) -> dict:
    """Place each kind of probe evenly over slots 0..slots of a run."""
    out: dict[int, list] = {}
    for probe, count in probes:
        for i in range(count):
            out.setdefault(round(i * slots / max(1, count - 1)), []).append(probe)
    return out


def plan(workload, seconds: int) -> tuple[int, int, int]:
    """Passes, set-ups and verify samples of a run of ``seconds``."""
    scale = seconds / RUN_SECONDS
    return tuple(max(1, round(count * scale))
                 for count in (workload.passes, SETUP_REPEATS, workload.verify_samples))


def end_to_end(runner: Runner, workload, seconds: int) -> dict:
    passes, setup_repeats, verify_samples = plan(workload, seconds)
    if workload.mode != "proc" and workload.warmup:
        import pinchlab.cli  # noqa: F401  (the generator's own import is not timed)
        runner.run_op(workload.op(workload.warmup), workload.mode)  # warm lazy imports
    # Set-up and extra verify samples are spread over the run, so that a
    # slow spell of the machine does not catch all of them at once.
    setups, verify_walls = [], []
    in_pass = passes * sum(op.name.startswith("verify") for op in workload.ops)
    probes = spread([(lambda: setups.append(runner.setup_seconds()), setup_repeats),
                     (lambda: verify_walls.append(runner.run_op(verify_op(runner.root), "proc")),
                      max(0, verify_samples - in_pass))], passes * len(workload.ops))
    records = runner.passes(workload, passes, workload.mode, probes)
    op_walls = []
    for r in records:
        groups = {}
        for op in workload.ops:
            groups[op.group or op.name] = groups.get(op.group or op.name, 0.0) + r[op.name]
        op_walls.extend(groups.values())
    wall = sum(statistics.median(r[op.name] for r in records) for op in workload.ops)
    fibers = sum(op.fibers for op in workload.ops)
    verify_walls += [w for r in records for name, w in r.items() if name.startswith("verify")]
    who = resource.RUSAGE_CHILDREN if workload.mode == "proc" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    tail_value, tail_name = tail(op_walls)
    print(f"cmd_wall_tail_s is {tail_name} operation walls; "
          f"{passes} passes of {len(workload.ops)} operations")
    print("set-up samples " + " ".join(f"{x:.3f}" for x in setups)
          + "; verify samples " + " ".join(f"{x:.3f}" for x in verify_walls))
    return {"setup_s": (statistics.median(setups), "s"), "wall_s": (wall, "s"),
            "fibers_per_s": (fibers / wall, "1/s"),
            "cmd_wall_p50_s": (statistics.median(op_walls), "s"),
            "cmd_wall_tail_s": (tail_value, "s"),
            "verify_s": (statistics.median(verify_walls), "s"),
            "peak_rss_mb": (peak_mb, "MB")}


def cost_ladder(runner: Runner) -> dict:
    """Median wall of mode-0 solve_modes (k=32) and solve_direct per size."""
    import numpy as np
    from pinchlab.configfile import load_config
    from pinchlab.geometry import build_chain
    from pinchlab.potential import solve_direct
    from pinchlab.spectral import solve_modes
    cfg = load_config(str(runner.root / "configs" / "i2_step.cfg"))
    family, alpha = cfg.family(), cfg.density_builder("alpha")
    out = {}
    sizes, modes_ms, direct_ms = [], [], []
    for resolution, n, repeats in LADDER:
        chain = build_chain(family, 100.0, resolution=resolution)
        if chain.n_nodes != n:
            raise SystemExit(f"ladder size {chain.n_nodes} != {n}")
        dens = alpha(chain)
        t_modes, t_direct = [], []
        for _ in range(repeats):
            t = time.perf_counter()
            solve_modes(chain, 0, 32)
            t_modes.append(time.perf_counter() - t)
        for _ in range(max(3, repeats)):
            t = time.perf_counter()
            solve_direct(chain, dens)
            t_direct.append(time.perf_counter() - t)
        sizes.append(n)
        modes_ms.append(1e3 * statistics.median(t_modes))
        direct_ms.append(1e3 * statistics.median(t_direct))
        out[f"spectral.solve_modes.n{n}_ms"] = (modes_ms[-1], "ms")
        out[f"potential.solve_direct.n{n}_ms"] = (direct_ms[-1], "ms")
    logn = np.log(sizes)
    out["spectral.solve_modes.cost_exponent"] = (float(np.polyfit(logn, np.log(modes_ms), 1)[0]), "1")
    out["potential.solve_direct.cost_exponent"] = (float(np.polyfit(logn, np.log(direct_ms), 1)[0]), "1")
    return out


def per_layer(runner: Runner, workload, seconds: int) -> tuple[dict, bool]:
    passes = plan(workload, seconds)[0]
    from tracer import Tracer, summarize
    import pinchlab.cli  # noqa: F401
    mode = "main" if workload.mode == "proc" else workload.mode
    if workload.warmup:
        runner.run_op(workload.op(workload.warmup), mode)
    half = max(1, passes // 2)
    plain = runner.passes(workload, half, mode)
    runner.tracer = tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        traced = runner.passes(workload, half, mode)
    finally:
        tracer.enabled = False
        tracer.uninstall()
        runner.tracer = None
    spans = tracer.spans
    summary = summarize(spans)
    traced_wall = sum(sum(r.values()) for r in traced) / half
    plain_wall = sum(sum(r.values()) for r in plain) / half
    self_sum = sum(v["self"] for v in summary.values()) / half
    zero = {"busy": 0.0, "self": 0.0, "calls": 0}
    get = lambda key: summary.get(key, zero)  # noqa: E731
    m = {f"{k}_s": (get(k)["busy"] / half, "s") for k in LAYER_TIMES}
    m.update({f"{k}.self_s": (get(k)["self"] / half, "s") for k in LAYER_SELF})
    m.update({f"{k}.calls": (get(k)["calls"] / half, "count") for k in LAYER_CALLS})
    green = get("spectral.truncated_green_min")
    value = get("pairing.pairing_value")
    m["spectral.operator_bytes"] = (get("spectral.assemble_mode_operator").get("bytes", 0) / half, "B")
    m["spectral.green.used_pairs_ratio"] = (
        green.get("included", 0) / green["certified"] if green.get("certified") else 0.0, "1")
    m["pairing.solves_per_value"] = (
        value.get("nested_solves", 0) / value["calls"] if value["calls"] else 0.0, "1")
    m["reporting.rows"] = (get("reporting.render_csv").get("rows", 0) / half, "count")
    m["reporting.bytes"] = (get("reporting.render_csv").get("bytes", 0) / half, "B")
    m.update(runner.import_seconds())
    m.update(cost_ladder(runner))
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    m["trace.self_sum_s"] = (self_sum, "s")
    (runner.work.parent / f"trace-{workload.name}-{os.getpid()}.json").write_text(
        json.dumps({"environment": environment(), "spans": tracer.dump()}))
    print(f"tracing overhead {traced_wall - plain_wall:+.3f} s per pass "
          f"(traced {traced_wall:.3f} s, untraced {plain_wall:.3f} s); "
          f"layer self times sum to {self_sum:.3f} s")
    return m, self_sum <= traced_wall


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "pinchlab" / "cli.py").is_file():
        print("perfbench: run from the root of a pinchlab checkout (no src/pinchlab)",
              file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, work)
        sys.path.insert(0, str(root / "src"))
        workload = WORKLOADS[args.workload](root, work, args.seed)
        if args.trace:
            metrics, consistent = per_layer(runner, workload, args.seconds)
        else:
            metrics, consistent = end_to_end(runner, workload, args.seconds), True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("environment " + json.dumps(environment()))
    frac = runner.failed / runner.attempted
    print(f"ops_failed_frac {frac:.6g} ({runner.failed} of {runner.attempted})")
    for line in runner.failures:
        print("FAILED " + line.replace("\n", " | "))
    print(json.dumps({
        "correct": runner.failed == 0 and consistent,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
