"""The worker pool that solves a large chain's angular modes, and a sweep's
chains, in parallel: same spectrum as the serial loop, one BLAS thread per
worker, worker errors raised in the parent, workers that end with their
owner, and serial runs wherever the rules call for them."""

import collections
import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from pinchlab import blas, spectral
from pinchlab.cli import main
from pinchlab.geometry import CyclicTridiagonal, FamilyConfig, build_chain
from pinchlab.spectral import full_spectrum

I2 = FamilyConfig(n_components=2)

pytestmark = pytest.mark.skipif(
    spectral._usable_cpus() < 2 or spectral.blas_threads() is None,
    reason="the pool needs two usable CPUs and a BLAS it can pin to one thread")


@pytest.fixture(scope="module")
def chain():
    chain = build_chain(I2, 100.0, resolution=192)
    assert chain.n_nodes == 576 > spectral._SPARSE_MIN_NODES
    return chain


@pytest.fixture
def fresh_pool():
    """Fork the pool anew for this test (after its patches) and stop it after."""
    spectral._shutdown_pool()
    yield
    spectral._shutdown_pool()


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.mark.parametrize("k", [32, None])  # None: a full basis, k = n
def test_parallel_matches_serial(chain, monkeypatch, k):
    k = k or chain.n_nodes
    par = full_spectrum(chain, m_max=8, k_per_mode=k)
    assert spectral._pool() is not None
    one_cpu(monkeypatch)
    ser = full_spectrum(chain, m_max=8, k_per_mode=k)
    for m in range(9):
        a = np.sort([e.lam for e in par.entries if e.mode == m])
        b = np.sort([e.lam for e in ser.entries if e.mode == m])
        assert a.size == b.size == k
        assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) <= 1e-10
    key = lambda e: (e.mode, round(e.lam, 6))  # noqa: E731
    assert ([e.certified for e in sorted(par.entries, key=key)]
            == [e.certified for e in sorted(ser.entries, key=key)])
    assert par.low_count == ser.low_count
    assert par.gap_value == pytest.approx(ser.gap_value, rel=1e-10)
    assert par.certified_below == pytest.approx(ser.certified_below, rel=1e-10)


@pytest.mark.parametrize("k", [32, None])  # None: a full basis, k = n
def test_pool_blocks_equal_one_call_per_mode(chain, k):
    # each block is a worker's one-mode solve_modes call, copied into place bit for bit
    k = k or chain.n_nodes
    eigsys = full_spectrum(chain, m_max=3, k_per_mode=k)
    for m in range(4):
        lam_m, vecs_m = spectral._pool().submit(spectral.solve_modes, chain, m, k).result()
        assert np.array_equal(eigsys.lam[m * k:(m + 1) * k], lam_m)
        assert np.array_equal(eigsys.vecs[:, m * k:(m + 1) * k], vecs_m)


def test_values_only_tasks_return_no_vectors(chain, monkeypatch):
    solve_in_pool, results = spectral._solve_in_pool, []

    def spy(pool, fn, items):
        for result in solve_in_pool(pool, fn, items):
            results.append(result)
            yield result

    monkeypatch.setattr(spectral, "_solve_in_pool", spy)
    values = full_spectrum(chain, m_max=2, k_per_mode=32, vectors=False)  # one task per mode
    assert values.vecs is None and [vecs for _, vecs in results] == [None] * 3
    full = full_spectrum(chain, m_max=2, k_per_mode=32)
    np.testing.assert_allclose(values.lam, full.lam, rtol=1e-10, atol=1e-11)
    results.clear()
    small = [build_chain(I2, L, resolution=48) for L in (50.0, 100.0)]
    spectra = list(spectral.full_spectra(small, m_max=2, k_per_mode=32, vectors=False))
    assert len(results) == 2 and all(s.vecs is None for s in results + spectra)  # one per chain


def test_worker_factors_a_chain_once_for_all_its_modes(chain, monkeypatch, tmp_path,
                                                       fresh_pool):
    # each task unpickles its own copy of the chain; the factor cache is keyed
    # by the forms, so a worker's later modes reuse its first mode's factor
    # (counted at the elimination kernel: a dense k = n solve counts no inertia)
    log = tmp_path / "factorizations"
    eliminate = CyclicTridiagonal.eliminate

    def logging_eliminate(form):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return eliminate(form)

    monkeypatch.setattr(CyclicTridiagonal, "eliminate", logging_eliminate)
    monkeypatch.setattr(spectral, "_FACTOR", None)  # the workers inherit no factor
    full_spectrum(chain, m_max=8, k_per_mode=chain.n_nodes)  # 9 dense modes, k = n
    per_worker = collections.Counter(int(pid) for pid in log.read_text().split())
    assert os.getpid() not in per_worker
    assert 1 <= len(per_worker) <= spectral._usable_cpus()
    assert set(per_worker.values()) == {1}, per_worker


def test_workers_run_one_blas_thread(chain):
    full_spectrum(chain, m_max=1, k_per_mode=8)
    threads = spectral._pool().submit(spectral.blas_threads).result()
    assert threads and set(threads.values()) == {1}, threads
    assert any("openblas" in os.path.basename(path) for path in threads)


# Run in a fresh process: a pool is forked before anything loads scipy, then
# one worker loads it and reports its OpenBLAS thread counts.
LATE_SCIPY_WORKER = """
import json, sys
from pinchlab import spectral

def load_then_count():
    spectral.load_scipy()
    return "scipy.linalg" in sys.modules, spectral.blas_threads()

before = spectral.blas_threads()
loaded, threads = spectral._pool().submit(load_then_count).result()
print(json.dumps(["scipy" in sys.modules, before, loaded, threads]))
"""


def test_worker_that_loads_scipy_after_the_fork_runs_it_on_one_thread():
    # the pool forks without scipy; the loader gives the OpenBLAS a worker
    # maps later the one thread its numpy library was pinned to
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", LATE_SCIPY_WORKER], capture_output=True,
                          text=True, env=env, check=True)
    in_parent, before, loaded, threads = json.loads(proc.stdout)
    if not set(threads) - set(before):
        pytest.skip("scipy maps no OpenBLAS of its own here")
    assert not in_parent and loaded and set(threads.values()) == {1}, threads


def test_worker_never_forks_a_pool_of_its_own(chain):
    full_spectrum(chain, m_max=1, k_per_mode=8)
    assert spectral._pool().submit(spectral._pool).result() is None


def test_worker_convergence_error_reaches_cli_as_exit_3(tmp_path, monkeypatch, capsys,
                                                        fresh_pool):
    cfg = tmp_path / "fine.cfg"
    text = (Path(__file__).resolve().parents[1] / "configs" / "i2_step.cfg").read_text()
    cfg.write_text(text.replace("resolution = 48", "resolution = 192")
                   .replace("m_max = 8", "m_max = 2"))
    # every residual fails: shift-invert falls back to dense, which raises; potential
    # reads mode 0's vectors and solves it in a worker at n = 576
    monkeypatch.setattr(spectral, "_residuals",
                        lambda S, M, lam, vecs: (np.ones(lam.size), np.zeros(lam.size)))
    argv = ["potential", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert spectral._POOL[1] is not None  # the error came from a worker
    parallel = capsys.readouterr().err
    one_cpu(monkeypatch)
    assert main(argv) == 3
    assert capsys.readouterr().err == parallel
    assert parallel == ("numerical non-convergence: eigen residual beyond tolerance "
                        "mode=0 worst_residual=1.0 n=576\n")


def test_dead_worker_raises_and_next_call_forks_anew(chain, monkeypatch, fresh_pool):
    solve = spectral.solve_modes

    def dying(*args, **kwargs):
        if spectral._IN_WORKER:
            os._exit(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectral, "solve_modes", dying)
    with pytest.raises(BrokenProcessPool):
        full_spectrum(chain, m_max=2, k_per_mode=8)
    assert spectral._POOL is None
    monkeypatch.undo()
    assert full_spectrum(chain, m_max=2, k_per_mode=8).low_count == 1


def test_one_usable_cpu_runs_serially(chain, monkeypatch):
    one_cpu(monkeypatch)
    monkeypatch.setattr(spectral, "_solve_in_pool", None)  # calling it would raise
    assert spectral._pool() is None
    assert full_spectrum(chain, m_max=2, k_per_mode=8).low_count == 1


def test_unpinnable_blas_stays_serial(chain, monkeypatch, fresh_pool):
    monkeypatch.setattr(blas, "_OPENBLAS_THREADS", (("no_such_setter", "no_such_getter"),))
    assert spectral.blas_threads() is None
    assert spectral._pool() is None
    monkeypatch.setattr(spectral, "_solve_in_pool", None)
    assert full_spectrum(chain, m_max=2, k_per_mode=8).low_count == 1


def test_small_grid_and_import_never_load_multiprocessing():
    code = ("import sys, pinchlab.cli\n"
            "from pinchlab.geometry import FamilyConfig, build_chain\n"
            "from pinchlab.spectral import full_spectrum\n"
            "chain = build_chain(FamilyConfig(n_components=2), 100.0, resolution=48)\n"
            "assert chain.n_nodes == 144\n"
            "full_spectrum(chain, m_max=8, k_per_mode=32)\n"
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"


# -- a sweep's chains, one pool task per chain ---------------------------------

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SWEEP_CSV = {"sweep-spectrum": "sweep_spectrum.csv", "green": "green.csv"}


def python_env() -> dict:
    """Environment for a child Python that imports this checkout's pinchlab."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}


def run_cli(argv, capsys):
    """Exit code, stderr and the bytes of each CSV written by ``main(argv)``."""
    out = Path(argv[argv.index("--out") + 1])
    code = main(argv)
    return code, capsys.readouterr().err, {p.name: p.read_bytes() for p in out.glob("*.csv")}


@pytest.mark.parametrize("config", ["i2_step", "i3_bump"])
@pytest.mark.parametrize("command", sorted(SWEEP_CSV))
def test_sweep_csvs_match_serial(tmp_path, monkeypatch, capsys, command, config):
    calls = []
    solve_in_pool = spectral._solve_in_pool

    def spy(pool, fn, items):
        calls.append(fn.func)
        return solve_in_pool(pool, fn, items)

    monkeypatch.setattr(spectral, "_solve_in_pool", spy)
    argv = [command, "--config", str(CONFIGS / f"{config}.cfg")]
    parallel = run_cli(argv + ["--out", str(tmp_path / "pool")], capsys)
    assert calls == [spectral.full_spectrum]  # one call, one task per chain
    one_cpu(monkeypatch)
    monkeypatch.setattr(spectral, "_solve_in_pool", None)  # calling it would raise
    serial = run_cli(argv + ["--out", str(tmp_path / "serial")], capsys)
    assert parallel == serial
    assert parallel[0] == 0 and list(parallel[2]) == [SWEEP_CSV[command]]


def test_worker_convergence_error_in_green_exits_3(tmp_path, monkeypatch, capsys, fresh_pool):
    monkeypatch.setattr(spectral, "_residuals",
                        lambda S, M, lam, vecs: (np.ones(lam.size), np.zeros(lam.size)))
    argv = ["green", "--config", str(CONFIGS / "i2_step.cfg"), "--out", str(tmp_path)]
    assert main(argv) == 3
    assert spectral._POOL[1] is not None  # the error came from a worker
    parallel = capsys.readouterr().err
    one_cpu(monkeypatch)
    assert main(argv) == 3
    assert capsys.readouterr().err == parallel
    assert parallel == ("numerical non-convergence: eigen residual beyond tolerance "
                        "mode=0 worst_residual=1.0 n=144\n")


def test_huge_L_exits_3_as_in_the_serial_loop(tmp_path, monkeypatch, capsys):
    # the reduced potential form overflows at L = 1e200; the error comes from a worker
    argv = ["sweep-spectrum", "--config", str(CONFIGS / "i2_step.cfg"), "--L-grid", "100,1e200"]
    parallel = run_cli(argv + ["--out", str(tmp_path / "pool")], capsys)
    assert spectral._POOL[1] is not None
    one_cpu(monkeypatch)
    assert run_cli(argv + ["--out", str(tmp_path / "serial")], capsys) == parallel
    assert parallel == (3, "numerical non-convergence: reduced mode matrix is not finite "
                           "mode=1 n=144 L=1e+200\n", {})


@pytest.mark.parametrize("k_per_mode, code", [(0, 2), (1000, 0)])  # 1000 > n = 144: k = n
def test_k_per_mode_outcome_matches_serial(tmp_path, monkeypatch, capsys, k_per_mode, code):
    cfg = tmp_path / "k.cfg"
    cfg.write_text((CONFIGS / "i2_step.cfg").read_text()
                   .replace("k_per_mode = 32", f"k_per_mode = {k_per_mode}"))
    argv = ["sweep-spectrum", "--config", str(cfg)]
    parallel = run_cli(argv + ["--out", str(tmp_path / "pool")], capsys)
    assert spectral._POOL[1] is not None
    one_cpu(monkeypatch)
    assert run_cli(argv + ["--out", str(tmp_path / "serial")], capsys) == parallel
    assert parallel[0] == code
    if code == 2:
        assert parallel[1] == "validation error: k_per_mode must be at least 1\n"


def test_one_L_spectrum_never_loads_multiprocessing(tmp_path):
    code = ("import sys\n"
            "from pinchlab.cli import main\n"
            f"assert main(['spectrum', '--config', {str(CONFIGS / 'i2_step.cfg')!r}, "
            f"'--out', {str(tmp_path)!r}]) == 0\n"
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=python_env(), check=True)
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "spectrum.csv").read_text().count("\n") > 100  # n = 144, 9 modes


def alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie waiting to be reaped counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_workers_exit_when_their_owner_is_killed():
    code = ("import multiprocessing, os, time\n"
            "from pinchlab import spectral\n"
            "spectral._pool().submit(os.getpid).result()\n"
            "print(*[p.pid for p in multiprocessing.active_children()], flush=True)\n"
            "time.sleep(60)\n")
    owner = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                             env=python_env())
    workers = [int(pid) for pid in owner.stdout.readline().split()]
    try:
        assert len(workers) == spectral._usable_cpus()
        assert all(alive(pid) for pid in workers)
        owner.kill()
        owner.wait()
        deadline = time.monotonic() + 5.0
        while any(alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(alive(pid) for pid in workers)
    finally:
        owner.kill()
        for pid in workers:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)
