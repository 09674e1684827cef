"""Tests of the benchmark itself (kept out of the package's test discovery).

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The end-to-end cases run each workload once with ``--seconds 1`` (one pass,
the smallest run) in both modes, so they take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import CheckError, collapsing_count, compare, digest  # noqa: E402
from tracer import summarize  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# Per-layer metrics each workload's traced run must see above 0: one that
# reads 0 there means the tracer missed the layer's calls.
TRACED = {
    "sweep-coarse": [
        "configfile.load_config_s", "geometry.build_chain_s", "spectral.solve_modes_s",
        "spectral.full_spectrum.self_s", "spectral.truncated_green_min_s",
        "spectral.model_functions_s", "potential.solve_direct_s", "potential.split_low_high_s",
        "potential.estimate_report.self_s", "pairing.fit_log_asymptote_s",
        "pairing.predicted_constant_s", "reporting.render_csv_s", "reporting.rows"],
    "sweep-fine": [
        "geometry.build_chain_s", "geometry.density_s", "spectral.solve_modes.calls",
        "spectral.full_spectrum.self_s", "spectral.truncated_green_min_s",
        "spectral.green.used_pairs_ratio", "potential.solve_spectral_s",
        "pairing.pairing_value.self_s", "pairing.fit_log_asymptote_s",
        "pairing.predicted_constant_s"],
    "cli-cold": [
        "dualgraph.pseudoinverse_s", "dynamics.birkhoff_limit_s", "dynamics.pushforward_growth_s",
        "dynamics.flat_potential_identity_s", "dynamics.limit_potential_relation_s",
        "nodeintegral.sample_curve_s"] + [f"acceptance.criterion_{i:02d}_s" for i in range(1, 17)],
}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_one_pass_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0 and result["attempted"] >= 1  # ops_failed_frac = 0
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        for name in TRACED[workload]:
            assert values[name] > 0, name
        if workload == "sweep-fine":  # the n=2304 solve_modes job is traced
            assert values["spectral.solve_modes_s"] > 0.5e-3 * values["spectral.solve_modes.n2304_ms"]
    else:
        assert values["cmd_wall_tail_s"] >= values["cmd_wall_p50_s"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "cli-cold", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_span_summary_self_and_busy_times():
    spans = [
        ("a", 0.0, 10.0, -1, {}),
        ("b", 1.0, 4.0, 0, {}),
        ("a", 5.0, 7.0, 0, {}),        # nested in an "a": not busy time again
        ("potential.solve_direct", 8.0, 9.0, 0, {}),
        ("pairing.pairing_value", 11.0, 13.0, -1, {}),
        ("potential.solve_direct", 11.5, 12.5, 4, {}),
    ]
    s = summarize(spans)
    assert s["a"]["busy"] == 10.0 and s["a"]["calls"] == 2
    assert s["a"]["self"] == (10.0 - 3.0 - 2.0 - 1.0) + 2.0
    assert s["pairing.pairing_value"]["nested_solves"] == 1
    assert sum(v["self"] for v in s.values()) == 12.0   # covered time, never more


def test_reference_compare_catches_a_changed_number():
    text = "# pinchlab 0.1.0 config_hash=x\n# c_fit=-0.5\nL,value\n50,1.25\n100,2.5\n"
    ref = digest(text, "pairing.csv")
    compare(text, ref, "pairing.csv")
    compare(text.replace("2.5\n", "2.5000000001\n"), ref, "pairing.csv")
    with pytest.raises(CheckError):
        compare(text.replace("2.5\n", "2.51\n"), ref, "pairing.csv")
    with pytest.raises(CheckError):
        compare(text.replace("c_fit=-0.5", "c_fit=-0.6"), ref, "pairing.csv")


def test_collapsing_count():
    # lambda*L at L=50 and L=200: one collapsing eigenvalue, then bounded ones
    assert collapsing_count([25.0, 500.0, 900.0], [25.5, 2000.0, 3600.0], 4.0) == 1
    with pytest.raises(CheckError):
        collapsing_count([25.0, 500.0], [25.0, 700.0], 4.0)
