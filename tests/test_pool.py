"""The worker pool that solves a large chain's angular modes in parallel:
same spectrum as the serial loop, one BLAS thread per worker, worker errors
raised in the parent, and serial runs wherever the rules call for them."""

import ctypes
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from pinchlab import spectral
from pinchlab.cli import main
from pinchlab.geometry import FamilyConfig, build_chain
from pinchlab.spectral import full_spectrum

I2 = FamilyConfig(n_components=2)

pytestmark = pytest.mark.skipif(
    spectral._usable_cpus() < 2 or spectral._openblas_libraries() is None,
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


def blas_threads() -> dict:
    """Thread count of each OpenBLAS loaded in this process, by path."""
    return {path: getattr(ctypes.CDLL(path), getter)()
            for path, _, getter in spectral._openblas_libraries()}


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


def test_workers_run_one_blas_thread(chain):
    full_spectrum(chain, m_max=1, k_per_mode=8)
    threads = spectral._pool().submit(blas_threads).result()
    assert threads and set(threads.values()) == {1}, threads
    assert any("openblas" in os.path.basename(path) for path in threads)


def test_worker_never_forks_a_pool_of_its_own(chain):
    full_spectrum(chain, m_max=1, k_per_mode=8)
    assert spectral._pool().submit(spectral._pool).result() is None


def test_worker_convergence_error_reaches_cli_as_exit_3(tmp_path, monkeypatch, capsys,
                                                        fresh_pool):
    cfg = tmp_path / "fine.cfg"
    text = (Path(__file__).resolve().parents[1] / "configs" / "i2_step.cfg").read_text()
    cfg.write_text(text.replace("resolution = 48", "resolution = 192")
                   .replace("m_max = 8", "m_max = 2"))
    # every residual fails: shift-invert falls back to dense, which raises
    monkeypatch.setattr(spectral, "_residuals",
                        lambda S, M, lam, vecs: (np.ones(lam.size), np.zeros(lam.size)))
    argv = ["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")]
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
    monkeypatch.setattr(spectral, "_OPENBLAS_THREADS", (("no_such_setter", "no_such_getter"),))
    assert spectral._openblas_libraries() is None
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
