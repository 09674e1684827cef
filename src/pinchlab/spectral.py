"""Laplace spectrum of a warped chain via per-angular-mode 1D problems.

Separating the angle, an eigenfunction u(x) e^{i m theta} of the Laplacian of
``dx^2 + c(x)^2 dtheta^2`` solves the weighted Sturm-Liouville problem

    -(c u')' + m^2 (1/c) u = lambda c u      (periodic in x),

discretized here with piecewise-linear elements on the cyclic grid.  The
weighted L2 inner product is ``2*pi * integral(u v c dx)``; all returned
eigenfunctions are orthonormal in it.  Modes with m >= 1 obey the Rayleigh
bound lambda >= m^2 / max(c)^2, which certifies completeness of a merged
spectrum below an explicit threshold.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import os
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import dualgraph, geometry
from .blas import blas_threads, keep_freed_memory
from .errors import ConvergenceError, StructureError, ValidationError

RESIDUAL_TOL = 1e-8
# Shift-invert replaces the dense O(n^3) solve when n > _SPARSE_MIN_NODES and
# k * _SPARSE_K_RATIO <= n.  Measured on a 2-core Xeon, one OpenBLAS thread: at k = n/12
# shift-invert takes 0.13-0.47x the dense time for n = 576-1152 and m = 0-5, at k = n/8
# 0.3-1.0x, at k = n/4 1.4-4.5x.  Both paths use the O(n) factor M = F F^T (_cholesky):
# the dense solves of a chain share one reduction by it (_mass_factor), in a pool worker
# as in the caller's process, and shift-invert applies F to vectors.  Only the
# shift-invert path loads scipy; its inertia count reads the cyclic forms.
_SPARSE_MIN_NODES = 384
_SPARSE_K_RATIO = 12
_SIGMA = -1.0          # shift-invert pole, below the spectrum (S >= 0)
_GAP_RTOL = 1e-6       # values closer than this count as one cluster (_count_certifies)

# A persistent pool of forked workers, one per usable CPU, each with every
# loaded OpenBLAS pinned to one thread, solves the modes of a chain with
# n > _SPARSE_MIN_NODES (full_spectrum) and the chains of a sweep, one task
# per chain (full_spectra).  A green task solves only the modes its cutoff
# can reach, one after another (_green_counted), and a single chain's green
# modes never go to the pool.  A loaded BLAS library that blas.blas_threads
# cannot pin keeps the solves serial, since its threads would compete with
# the other workers.
_FACTOR = None      # (key of a chain's forms, their _mass_factor): one slot
_POOL = None        # (owner pid, executor, or None when this process stays serial: a worker)
_TASKS_PER_WORKER = 2  # pool tasks outstanding per worker; results wait for the caller
_PARENT_POLL_S = 0.5   # a worker checks this often whether its parent is gone


@functools.cache
def load_scipy():
    """scipy, with ``scipy.sparse.linalg`` (and so ``scipy.linalg``) imported on the first call.

    No pinchlab module imports scipy as it loads.  An OpenBLAS that this import
    maps runs the fewest threads of those mapped before it: one inside a CLI
    command, which pinned them (cli.main).
    """
    before = blas_threads()
    import scipy.sparse.linalg

    after = blas_threads() if before else None
    if after:
        blas_threads({**dict.fromkeys(after, min(before.values())), **before})
    return scipy


def assemble_mode_operator(chain: geometry.WarpedChain, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense stiffness and mass matrices of the angular-mode-m weak form.

    The solvers use the cyclic tridiagonal forms of ``chain.operators``.  This dense copy
    stays because perfbench/tracer.py wraps it to count operator bytes and
    the tests use it as an oracle for those forms.
    """
    return chain.operators.stiffness(m).toarray(), chain.operators.mass.toarray()


def _signs(vecs: np.ndarray) -> np.ndarray:
    """Column signs of the deterministic convention: largest-magnitude entry positive."""
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return signs


def _residuals(S, M, lam: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual norms ||S v - lam M v|| and their bounds RESIDUAL_TOL * max(1, ||v||).

    On a huge L these overflow to infinity without a warning; the gates
    then fail them, and ``solve_modes`` names a bound that is not finite.
    """
    with np.errstate(over="ignore"):
        resid = np.linalg.norm(S @ vecs - (M @ vecs) * lam[None, :], axis=0)
        return resid, RESIDUAL_TOL * np.maximum(1.0, np.linalg.norm(vecs, axis=0))


def _negative_count(S, M, shift: float) -> int | None:
    """Eigenvalues of (S, M) below ``shift``, M positive definite, n >= 2: the negative
    pivots of S - shift*M (Sylvester).  None when S - shift*M has an entry that is not
    finite: no comparison with NaN holds, so its pivots would go uncounted."""
    with np.errstate(over="ignore", invalid="ignore"):
        form = geometry.CyclicTridiagonal(S.diag - shift * M.diag, S.off - shift * M.off)
    if not (np.all(np.isfinite(form.diag)) and np.all(np.isfinite(form.off))):
        return None
    return int(np.count_nonzero(form.eliminate()[0] < 0.0))


def _count_certifies(S, M, lam: np.ndarray, k: int) -> bool:
    """Whether S - shift*M has as many negative pivots as ``lam`` (ascending) has values below
    the shift, in the first gap wider than _GAP_RTOL from the k-th on; False with no gap."""
    gaps = np.diff(lam[k - 1:]) > _GAP_RTOL * np.abs(lam[k:])
    if not np.any(gaps):
        return False
    top = k - 1 + int(np.argmax(gaps))      # first gap at or above the k-th value
    return _negative_count(S, M, 0.5 * (lam[top] + lam[top + 1])) == top + 1


def _shift_invert(S, M, k: int, vectors: bool):
    """k smallest pairs by ARPACK shift-invert (vecs None without ``vectors``), or None if
    not certified.

    ARPACK runs in its standard mode on F^T (S - SIGMA*M)^-1 F, M = F F^T (``_cholesky``),
    whose eigenvalues are 1/(lam - SIGMA); x = F^-T y is (S - SIGMA*M)^-1 F y (lam - SIGMA),
    one block solve.  Two more pairs than asked are computed, so that ``_count_certifies``
    can place its shift in a gap above the k-th value, which rules out a pair the Lanczos
    iteration skipped.  The pole SIGMA is negative because S is singular for m = 0.
    """
    sparse, n, F = load_scipy().sparse, S.diag.size, _cholesky(M)
    shifted = geometry.CyclicTridiagonal(S.diag - _SIGMA * M.diag, S.off - _SIGMA * M.off)
    lu = sparse.linalg.splu(sparse.csc_array(shifted.entries(), shape=(n, n)))  # sums what meets
    op = sparse.linalg.LinearOperator((n, n), dtype=float, matvec=lambda y: _times_factor(
        F, lu.solve(_times_factor(F, y.reshape(n, 1))), transpose=True))
    start = np.random.default_rng(n).uniform(-1.0, 1.0, n)  # generic, deterministic
    try:
        found = sparse.linalg.eigsh(op, min(k + 2, n - 1), which="LM", v0=start,
                                    return_eigenvectors=vectors)
    except sparse.linalg.ArpackError:
        return None
    theta, Y = found if vectors else (found, None)
    lam = _SIGMA + 1.0 / theta
    order = np.argsort(lam)
    if not _count_certifies(S, M, lam[order], k):
        return None
    lam = lam[order[:k]]
    if not vectors:
        return lam, None
    vecs = lu.solve(_times_factor(F, Y[:, order[:k]])) * (lam - _SIGMA)
    vecs *= _signs(vecs)
    resid, bound = _residuals(S, M, lam, vecs)
    return (lam, vecs) if np.all((resid <= bound) & np.isfinite(bound)) else None


def _forms_key(ops) -> tuple:
    """The bytes of the diagonals of the mass, gradient and potential forms."""
    return tuple(a.tobytes() for form in (ops.mass, ops.gradient, ops.potential)
                 for a in (form.diag, form.off))


def _substitute(F, X: np.ndarray, transpose: bool = False) -> np.ndarray:
    """X overwritten by F^-1 X, or F^-T X, for the factor F = (d, l, r) of ``_mass_factor``.

    The row loop runs in Python, so every call pays a fixed cost per row on
    top of the arithmetic: callers pass all their columns in one call.
    """
    d, l, r = F
    X /= d[:, None]  # prescaled: each row then subtracts multiples of solved rows
    rows, scratch = list(X), np.empty(X.shape[1])
    if transpose:
        X[:-1] -= (r / d[:-1])[:, None] * X[-1]
        steps = zip(rows[-3::-1], rows[-2:0:-1], (l / d[:-2]).tolist()[::-1])
    else:
        steps = zip(rows[1:-1], rows[:-2], (l / d[1:-1]).tolist())
    for row, solved, ratio in steps:  # row -= ratio * solved, without temporaries
        np.subtract(row, np.multiply(ratio, solved, out=scratch), out=row)
    if not transpose:
        X[-1] -= (r / d[-1]) @ X[:-1]
    return X


def _cholesky(M):
    """F = (d, l, r) with M = F F^T, M cyclic tridiagonal and positive definite: F is lower
    bidiagonal plus a dense last row, and (d, l, r) hold its diagonal, its subdiagonal above
    the last row and its last row left of d, from the pivots and fill of ``M.eliminate()``."""
    pivots, fill = M.eliminate()
    d = np.sqrt(pivots)
    return d, M.off[:-2] / d[:-2], fill / d[:-1]


def _times_factor(F, Y: np.ndarray, transpose: bool = False) -> np.ndarray:
    """F Y, or F^T Y, for the factor F = (d, l, r) of ``_cholesky`` and a block Y."""
    d, l, r = F
    Z = d[:, None] * Y
    if transpose:
        Z[:-2] += l[:, None] * Y[1:-1]
        Z[:-1] += r[:, None] * Y[-1]
    else:
        Z[1:-1] += l[:, None] * Y[:-2]
        Z[-1] += r @ Y[:-1]
    return Z


def _mass_factor(chain: geometry.WarpedChain):
    """(F, A, B) with M = F F^T, A = F^-1 gradient F^-T and B = F^-1 potential F^-T.

    Every mode of a chain shares them: mode m is the standard problem
    A + m^2 B, whose eigenvector y gives x = F^-T y, F of ``_cholesky``.
    One slot keeps the factor of the last forms asked, keyed by the bytes of
    their diagonals, so a pool worker that gets each mode as a fresh copy of
    the chain factors it once; the slot keeps 2n^2 doubles resident (5 MB at
    n = 576) and never travels with a chain.
    """
    global _FACTOR
    ops = chain.operators
    key = _forms_key(ops)
    if _FACTOR is None or _FACTOR[0] != key:
        _FACTOR = None  # freed first: the old and new factors would peak at 4n^2 doubles
        n = chain.n_nodes
        F = _cholesky(ops.mass)
        with np.errstate(over="ignore", invalid="ignore"):
            W = _substitute(F, np.hstack([ops.gradient.toarray(), ops.potential.toarray()]))
            W = _substitute(F, np.hstack([W[:, :n].T, W[:, n:].T]))
        _FACTOR = (key, (F, W[:, :n], W[:, n:]))
    return _FACTOR[1]


def solve_modes(chain: geometry.WarpedChain, m: int, k: int, vectors: bool = True):
    """k smallest eigenpairs of the mode-m generalized problem.

    Large grids asked for few pairs use ARPACK shift-invert, certified by an
    inertia count, with the dense solver as fallback when the certificate
    fails; every other case uses the dense solver, which reduces the
    problem with the chain's shared mass factor.  Returns (lam, vecs), with
    vecs[:, j] mass-orthonormal (Fortran order, so each pair's column is
    contiguous).  With ``vectors=False`` vecs is None: a dense mode keeps the eigvalsh values
    ``_count_certifies`` accepts when k < n (at k = n no gap lies above the k-th value), else
    the eigh values, gates included.  A reduced matrix
    that is not finite (the potential form overflows first, on huge L), a residual bound
    that is not finite (||v|| overflows) and residuals beyond tolerance raise
    ConvergenceError with diagnostics.
    """
    ops, n = chain.operators, chain.n_nodes
    where = {"mode": m, "n": n, "L": chain.L}  # a ConvergenceError's diagnostics
    if not 1 <= k <= n:
        raise ValidationError(f"requested {k} eigenpairs from an n = {n} grid: need 1 <= k <= n")
    if n > _SPARSE_MIN_NODES and _SPARSE_K_RATIO * k <= n:
        found = _shift_invert(ops.stiffness(m), ops.mass, k, vectors)
        if found is not None:
            return found
    # the exact dense path; slicing after a full solve keeps the basis LAPACK
    # picks inside degenerate eigenspaces independent of k
    F, A, B = _mass_factor(chain)
    H = A if m == 0 else A + (m * m) * B  # mode 0 reads no B: 0 * inf is NaN
    if not np.all(np.isfinite(H)):
        raise ConvergenceError("reduced mode matrix is not finite", where)
    if not vectors and k < n:  # the values alone, if the inertia count certifies them
        lam = np.linalg.eigvalsh(H)
        if _count_certifies(ops.stiffness(m), ops.mass, lam, k):
            return lam[:k], None
    lam, y = np.linalg.eigh(H)  # the lower triangle, as LAPACK's syevd
    lam, X = lam[:k], y[:, :k].copy()  # C order, as _substitute walks
    with np.errstate(over="ignore", invalid="ignore"):  # huge L: the gates below fail
        _substitute(F, X, transpose=True)
    resid, bound = _residuals(ops.stiffness(m), ops.mass, lam, X)
    if not np.all(np.isfinite(bound)):  # ||v|| overflowed: no residual can be judged
        raise ConvergenceError("eigen residual bound is not finite", where)
    if not np.all(resid <= bound):  # NaN fails
        raise ConvergenceError("eigen residual beyond tolerance",
                               {"mode": m, "worst_residual": float(resid.max()), "n": n})
    return lam, np.multiply(X, _signs(X), order="F") if vectors else None


@dataclass(frozen=True)
class EigenEntry:
    """A pair in the ``EigenSystem.entries`` view, kept only because perfbench/ reads it."""

    lam: float
    mode: int
    multiplicity: int  # 1 for mode 0, 2 for the cos/sin pair when m >= 1
    certified: bool


@dataclass(frozen=True)
class EigenSystem:
    """Merged spectrum with an explicit completeness certificate.

    Pair j is (``lam[j]``, ``modes[j]``, ``vecs[:, j]``), in solve order: mode by
    mode, ascending within a mode; ``order`` sorts the indices by (lam, mode).
    ``certified_below`` bounds the region where every eigenvalue (counted
    with angular multiplicity) is present, but for the ``counted_tail`` pairs
    of the modes a Green solve only counted (``full_spectrum``'s green_tail);
    ``gap_value`` is the first eigenvalue above the N-1 collapsing ones.
    """

    lam: np.ndarray       # (K,)
    modes: np.ndarray     # (K,)
    vecs: np.ndarray | None  # (n, K); None when solved without them: read via eigenvectors()
    low_count: int
    gap_value: float
    certified_below: float
    certification_limited_by_k: bool
    counted_tail: int = 0  # certified pairs, with multiplicity, of modes not solved

    def eigenvectors(self, pairs) -> np.ndarray:
        """``vecs[:, pairs]``; ValidationError for a spectrum solved without them."""
        if self.vecs is None:
            raise ValidationError("spectrum holds no eigenvectors")
        return self.vecs[:, pairs]

    @property
    def multiplicity(self) -> np.ndarray:
        """1 for mode 0, 2 for the cos/sin pair when m >= 1."""
        return np.where(self.modes == 0, 1, 2)

    @property
    def certified(self) -> np.ndarray:
        return self.lam <= self.certified_below

    @property
    def order(self) -> np.ndarray:
        """Pair indices sorted by (lam, mode)."""
        return np.lexsort((self.modes, self.lam))

    @property
    def low(self) -> np.ndarray:
        """Indices of the N-1 small positive eigenpairs (all in mode 0); ValidationError when
        mode 0 holds fewer than N pairs."""
        low = np.flatnonzero(self.modes == 0)[1 : 1 + self.low_count]
        if low.size < self.low_count:
            raise ValidationError(f"k_per_mode = {low.size + 1} is below n_components = "
                                  f"{self.low_count + 1}: mode 0 needs every collapsing pair")
        return low

    def expanded_eigenvalues(self) -> np.ndarray:
        """Sorted eigenvalues, each repeated by its multiplicity."""
        return np.sort(np.repeat(self.lam, self.multiplicity))

    @property
    def entries(self) -> tuple[EigenEntry, ...]:
        """Read view for the benchmark, built on access: the pairs in (lam, mode) order."""
        multiplicity, certified = self.multiplicity, self.certified
        return tuple(EigenEntry(float(self.lam[j]), int(self.modes[j]), int(multiplicity[j]),
                                certified[j]) for j in self.order)

    def mode0_entries(self) -> list[EigenEntry]:
        """Read view for the benchmark: the mode-0 ``entries``."""
        return [e for e in self.entries if e.mode == 0]


def full_spectrum(chain: geometry.WarpedChain, m_max: int = 16, k_per_mode: int = 32,
                  green_tail: int | None = None, vectors: bool = True) -> EigenSystem:
    """Solve modes 0..m_max (m_max >= 0), merge, and certify completeness.

    Each mode is one ``solve_modes`` call, here or, for a chain with n > _SPARSE_MIN_NODES,
    one pool task; its k-block is copied into place as it arrives.  Excluded modes m > m_max
    have lambda >= (m_max+1)^2 / c_max^2; within a solved mode everything up to its k-th
    eigenvalue is known.  The certificate is the minimum of the two, and a flag records
    when k_per_mode (not m_max) is the binding constraint.  With ``green_tail`` (which
    keeps the vectors and the modes here), a mode is solved only if the cutoff of
    ``truncated_green_min(chain, eigsys, green_tail)`` can reach it (_green_counted): the
    spectrum then holds modes 0..j, with the same certificate, and ``counted_tail`` the
    certified pairs of modes j+1..m_max.  With ``vectors=False`` the modes are solved for
    their values alone, and a pool task returns no vectors.
    """
    if m_max < 0:
        raise ValidationError("m_max must be at least 0")
    if k_per_mode < 1:
        raise ValidationError("k_per_mode must be at least 1")
    n = chain.n_nodes
    k = min(k_per_mode, n)
    vectors = vectors or green_tail is not None
    solve, modes = functools.partial(_solve_mode, chain, k, vectors), range(m_max + 1)
    pool = _pool() if n > _SPARSE_MIN_NODES and green_tail is None else None
    if pool is not None:
        chain.operators  # assembled here, so that each task's pickled chain carries them
    blocks = map(solve, modes) if pool is None else _solve_in_pool(pool, solve, modes)
    # one contiguous (Fortran) stretch per block; sorting the columns would hold a
    # second copy of every vector
    lam = np.empty(len(modes) * k)
    vecs = np.empty((n, lam.size), order="F") if vectors else None
    counted = None
    for m, (lam_m, vecs_m) in enumerate(blocks):  # a serial block is solved when taken
        top = (m + 1) * k
        lam[m * k:top] = lam_m
        if vectors:
            vecs[:, m * k:top] = vecs_m
        if green_tail is not None and m < m_max:  # the stop rule, before mode m + 1
            solved = _eigen_system(chain, lam[:top], vecs[:, :top], k, m_max)
            counted = _green_counted(chain, solved, k, m_max, green_tail)
            if counted is not None:
                lam, vecs = lam[:top], vecs[:, :top]
                break
    if lam.min() > 1e-8:
        raise ConvergenceError("missing zero eigenvalue", {"lambda0": lam.min()})
    return _eigen_system(chain, lam, vecs, k, m_max, counted or 0)


def _eigen_system(chain: geometry.WarpedChain, lam: np.ndarray, vecs: np.ndarray, k: int,
                  m_max: int, counted_tail: int = 0) -> EigenSystem:
    """The spectrum of the k-blocks of modes 0, 1, ... in ``lam`` and ``vecs``."""
    c_max = max(seg.c for seg in chain.segments)
    excluded_bound = (m_max + 1) ** 2 / c_max**2
    lowest_top = lam[k - 1::k].min()  # mode 0's: S_m - S_0 = m^2 potential >= 0
    certified_below = min(excluded_bound, lowest_top)
    N = chain.cfg.n_components
    expanded = np.sort(np.concatenate([lam, lam[k:]]))  # modes m >= 1 count twice
    gap_value = float(expanded[N]) if expanded.size > N else float("nan")
    limited = lowest_top < excluded_bound or gap_value > certified_below
    return EigenSystem(
        lam=lam,
        modes=np.repeat(np.arange(lam.size // k), k),
        vecs=vecs,
        low_count=N - 1,
        gap_value=gap_value,
        certified_below=float(certified_below),
        certification_limited_by_k=bool(limited),
        counted_tail=counted_tail,
    )


def _green_counted(chain: geometry.WarpedChain, eigsys: EigenSystem, k: int, m_max: int,
                   tail_count: int) -> int | None:
    """The Rayleigh stop rule for the Green solve: None if the next mode m can reach the
    Green cutoff of ``eigsys``'s modes 0..m-1, else the pairs of modes m..m_max counted.

    Mode m cannot reach it when its bound m^2/c_max^2 lies above the pair just past the
    cutoff (and above the gap value).  Every eigenvalue of modes m..m_max is at least that
    bound (potential >= M/c_max^2), so the cutoff, the used pairs, the certificate and
    the gap value are those of all modes.  Modes m..m_max are then only counted:
    2 min(k, eigenvalues below certified_below) pairs each, by the O(n) inertia count.
    Without a cutoff every mode is solved, so ``truncated_green_min`` raises what it
    raises on the full spectrum.
    """
    ops, m = chain.operators, int(eigsys.modes[-1]) + 1
    c_max = max(seg.c for seg in chain.segments)
    expanded = _green_tail(eigsys)[1]
    try:
        reach = max(expanded[_green_cutoff(expanded, tail_count) + 1], eigsys.gap_value)
    except ValidationError:  # no cutoff yet
        return None
    if not m * m / c_max**2 > reach:  # a NaN reach keeps solving too
        return None
    counts = [_negative_count(ops.stiffness(j), ops.mass, eigsys.certified_below)
              for j in range(m, m_max + 1)]
    if None in counts:
        raise ConvergenceError("mode form is not finite",
                               {"mode": m + counts.index(None), "n": chain.n_nodes, "L": chain.L})
    return sum(2 * min(k, c) for c in counts)


def full_spectra(chains, **options):
    """``full_spectrum(chain, **options)`` of each chain, yielded in order.

    With more than one chain and a pool, each chain is one pool task, whose
    modes its worker solves serially; otherwise the chains are solved here,
    one after another.
    """
    chains = list(chains)
    pool = _pool() if len(chains) > 1 else None
    solve = functools.partial(full_spectrum, **options)
    return map(solve, chains) if pool is None else _solve_in_pool(pool, solve, chains)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity interface on this platform
        return 1


def _pool():
    """This process's solver pool, made on first use; None to run serially."""
    global _POOL
    cpus = _usable_cpus()
    if cpus < 2:
        return None
    if _POOL is None or _POOL[0] != os.getpid():  # none yet, or inherited through a fork
        _POOL = (os.getpid(), _make_pool(cpus))
        atexit.register(_shutdown_pool)  # while concurrent.futures can still reap it
    return _POOL[1]


def _make_pool(workers: int):
    """A fork pool whose workers run every OpenBLAS on one thread, scipy's too (load_scipy).

    None when ``fork`` is unavailable or a loaded BLAS cannot be pinned.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods() or blas_threads() is None:
        return None
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker, initargs=(os.getpid(),))


def _init_worker(parent: int):
    global _POOL
    import threading

    _POOL = (os.getpid(), None)  # a worker never forks a pool of its own
    blas_threads(1)
    keep_freed_memory()
    # a worker holds its own end of the call queue, so it never sees EOF
    # when its parent is killed: it watches for the parent to go instead
    threading.Thread(target=_exit_with_parent, args=(parent,), daemon=True).start()


def _exit_with_parent(parent: int):
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _solve_mode(chain: geometry.WarpedChain, k: int, vectors: bool, m: int):
    # solve_modes is looked up at each call, in this process or a pool task: a
    # partial of it would pickle the function object, and a traced or
    # monkeypatched solve_modes is a closure that cannot be pickled
    return solve_modes(chain, m, k, vectors)


def _solve_in_pool(pool, fn, items):
    """fn(item) for each item, run in the pool and yielded in item order.

    At most _TASKS_PER_WORKER tasks per worker are outstanding, so a result
    is held only until the caller takes it.  A worker's exception is raised
    when its item's turn comes, as the serial loop would raise it; a dead
    worker raises BrokenProcessPool and the pool is dropped, so that the next
    call forks a fresh one.
    """
    from concurrent.futures.process import BrokenProcessPool

    items = iter(items)
    window = _TASKS_PER_WORKER * _usable_cpus()  # the pool has one worker per CPU
    pending = deque()
    try:
        while True:
            pending.extend(pool.submit(fn, item)
                           for item in itertools.islice(items, window - len(pending)))
            if not pending:
                return
            yield pending.popleft().result()
    except BrokenProcessPool:
        _shutdown_pool()
        raise
    finally:
        for f in pending:
            f.cancel()


def _shutdown_pool():
    """Stop this process's pool; the next parallel call forks a fresh one."""
    global _POOL
    if _POOL is not None and _POOL[0] == os.getpid() and _POOL[1] is not None:
        _POOL[1].shutdown(cancel_futures=True)
    _POOL = None


def graph_limit_eigs(g: dualgraph.DualGraph, L: float) -> np.ndarray:
    """Predicted small eigenvalues from the conductance-network limit.

    The chain collapses onto its dual graph with one conductance 2*pi/L per
    edge; the N-1 nonzero eigenvalues of D^-1 L_G, or of D^-1/2 L_G D^-1/2,
    with D = diag(areas), predict the collapsing spectrum (all proportional to 1/L).
    """
    if not g.reduced:
        raise ValidationError("graph-limit prediction requires a reduced graph")
    # L_G = -M on reduced graphs
    L_G = -(geometry.TWO_PI / L) * dualgraph.build_intersection_matrix(g)
    scale = g.areas ** -0.5
    return np.linalg.eigvalsh(scale[:, None] * L_G * scale[None, :])[1:]


# ---------------------------------------------------------------------------
# Model functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelFunctionSet:
    """Near-indicator functions of the thick components.

    Each function equals 1/sqrt(A_i) on its fat segment and decays linearly
    to 0 across both adjacent necks (the harmonic, i.e. energy-minimizing,
    profile for constant neck weight).  Functions of adjacent components
    share a neck, where both ramps live; the overlap carries O(1/L) mass, and
    ``overlap_sup`` is the largest product of two functions there.
    """

    functions: np.ndarray        # (N, n_nodes)
    energies: np.ndarray         # Dirichlet energies, exact for P1 data
    norms: np.ndarray            # squared weighted L2 norms
    supports: tuple[tuple[float, float], ...]  # arc [ramp start, ramp end]
    overlap_sup: float


def _quadratic_forms(A, rows: np.ndarray) -> np.ndarray:
    """r^T A r for every row r of ``rows``."""
    return np.einsum("in,ni->i", rows, A @ rows.T)


def model_functions(chain: geometry.WarpedChain) -> ModelFunctionSet:
    """Build the component indicators with linear full-neck ramps.

    Requires N >= 2: with a single component both ends of the unique neck
    would ramp onto the same function.
    """
    N = chain.cfg.n_components
    if N < 2:
        raise StructureError(
            "model functions need at least two components; with N = 1 the "
            "ramps at both neck ends would overlap"
        )
    position = chain.segment_position
    areas = chain.cfg.area_vector()
    P = chain.total_length
    x = chain.nodes
    at = chain.cell_segment
    funcs = np.zeros((N, chain.n_nodes))
    supports = []
    for i in range(N):
        height = 1.0 / np.sqrt(areas[i])
        nxt, prv = (chain.segments[position["neck", j]] for j in (i, (i - 1) % N))
        funcs[i, at == position["fat", i]] = height
        mask = at == position["neck", i]               # down across the neck after fat i
        funcs[i, mask] = height * (nxt.x1 - x[mask]) / nxt.length
        mask = at == position["neck", (i - 1) % N]     # up across the neck before fat i
        funcs[i, mask] = height * (x[mask] - prv.x0) / prv.length
        supports.append((prv.x0 % P, nxt.x1 % P))
    ops = chain.operators
    energies = _quadratic_forms(ops.gradient, funcs)
    norms = _quadratic_forms(ops.mass, funcs)
    overlap_sup = max(float(np.max(f * g)) for f, g in itertools.combinations(funcs, 2))
    return ModelFunctionSet(
        functions=funcs,
        energies=energies,
        norms=norms,
        supports=tuple(supports),
        overlap_sup=overlap_sup,
    )


# ---------------------------------------------------------------------------
# Correlation of model functions with small eigenfunctions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationReport:
    """How well the model functions span the low eigenspace.

    C[i, j] is the weighted inner product of model function i with the j-th
    low eigenfunction (j = 0 being the normalized constant); E = C C^T - I.
    R_j is the residual of expanding eigenfunction j in the model functions.
    """

    E_fro: float
    scaled_residuals: np.ndarray     # ||R_j||^2 * L


def correlation_matrix(chain: geometry.WarpedChain, eigsys: EigenSystem,
                       mfs: ModelFunctionSet) -> CorrelationReport:
    if eigsys.certification_limited_by_k and np.isnan(eigsys.gap_value):
        raise ValidationError("eigen system lacks a certified low part")
    N = chain.cfg.n_components
    ops = chain.operators
    volume = float(ops.mass.sum())
    phi = np.zeros((N, chain.n_nodes))
    phi[0] = 1.0 / np.sqrt(volume)
    low = eigsys.low
    phi[1 : 1 + low.size] = eigsys.eigenvectors(low).T
    C = mfs.functions @ (ops.mass @ phi.T)
    E = C @ C.T - np.eye(N)
    resid = phi[1:] - C[:, 1:].T @ mfs.functions
    return CorrelationReport(
        E_fro=float(np.linalg.norm(E)),
        scaled_residuals=_quadratic_forms(ops.mass, resid) * chain.L,
    )


# ---------------------------------------------------------------------------
# Truncated Green's function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GreenReport:
    min_value: float
    diag_min: float
    cutoff: float
    included_expanded: int
    tail_bound: float


def _green_tail(eigsys: EigenSystem):
    """The certified pairs past the zero and the collapsing ones, as a mask, and
    their eigenvalues repeated by multiplicity, sorted."""
    lam = eigsys.lam
    tail = eigsys.certified & (lam > 1e-8)
    tail[eigsys.low] = False
    return tail, np.sort(np.repeat(lam[tail], eigsys.multiplicity[tail]))


def _green_cutoff(expanded: np.ndarray, tail_count: int) -> int:
    """The position of the Green cutoff: it lies between ``expanded[pos]`` and
    ``expanded[pos + 1]``, in the first gap at or past the tail_count-th pair, so
    ties never straddle it."""
    if tail_count < 1:
        raise ValidationError(f"tail_count must be at least 1, got {tail_count}")
    if len(expanded) < tail_count + 1:
        raise ValidationError(
            f"insufficient certified pairs: need {tail_count + 1} beyond "
            f"the low part, have {len(expanded)}"
        )
    above = expanded[tail_count - 1:]
    gaps = np.flatnonzero(np.diff(above) > 1e-9 * above[:-1])
    if gaps.size == 0:
        raise ValidationError("no clean spectral gap for the requested tail")
    return tail_count - 1 + int(gaps[0])


def truncated_green_min(chain: geometry.WarpedChain, eigsys: EigenSystem,
                        tail_count: int = 24,
                        lambda_cutoff: float | None = None) -> GreenReport:
    """Minimum of the Green's kernel truncated past the collapsing modes.

    The kernel sum starts above the constant and the N-1 small eigenvalues.
    Angular offsets are handled analytically: each m >= 1 eigenvalue
    contributes 2 u(x1) u(x2) cos(m dtheta), bounded below by its worst-case
    alignment -2|u(x1) u(x2)|.  The reported minimum is that conservative
    lower envelope over all grid pairs.  The tail bound counts the certified
    pairs past the cutoff, those of the modes ``eigsys`` only counted too; the
    cutoff, or the pair past it, lies below every mode ``eigsys`` lacks.
    """
    lam, modes = eigsys.lam, eigsys.modes
    tail, expanded = _green_tail(eigsys)
    edge = lambda_cutoff
    if lambda_cutoff is None:
        pos = _green_cutoff(expanded, tail_count)
        lambda_cutoff, edge = 0.5 * (expanded[pos] + expanded[pos + 1]), expanded[pos + 1]
    if lambda_cutoff > eigsys.certified_below:
        raise ValidationError(
            "lambda cutoff exceeds the certified part of the spectrum"
        )
    if edge >= (modes.max() + 1) ** 2 / max(seg.c for seg in chain.segments) ** 2:
        raise ValidationError(f"green cutoff {lambda_cutoff:g} reaches mode {modes.max() + 1}, "
                              "which the spectrum lacks")

    # the used pairs in (lam, mode) order, which fixes the GEMM summation order
    order = eigsys.order
    used = order[tail[order] & (lam[order] <= lambda_cutoff)]
    if used.size == 0:
        raise ValidationError(f"green cutoff {lambda_cutoff:g} admits no pair above the "
                              f"{eigsys.low_count} collapsing ones")
    zero, rest = used[modes[used] == 0], used[modes[used] != 0]

    # f0 = V0 diag(1/lam) V0^T over mode 0; each m >= 1 pair adds at worst
    # -2|u u^T|/lam, and |u_i u_j| = |u_i||u_j|, so their envelope is
    # 2|V| diag(1/lam) |V|^T: two GEMMs
    V0, inv0 = eigsys.eigenvectors(zero), 1.0 / lam[zero]
    V, inv = np.abs(eigsys.eigenvectors(rest)), 2.0 / lam[rest]
    lower = (V0 * inv0) @ V0.T - (V * inv) @ V.T
    diag = (V0**2) @ inv0 + (V**2) @ inv  # actual value at dtheta = 0
    included = V0.shape[1] + 2 * V.shape[1]
    sup_u = float(max(np.abs(V0).max(initial=0.0), V.max(initial=0.0)))
    remaining = max(0, len(expanded) + eigsys.counted_tail - included)
    return GreenReport(
        min_value=float(lower.min()),
        diag_min=float(diag.min()),
        cutoff=float(lambda_cutoff),
        included_expanded=included,
        tail_bound=remaining * sup_u**2 / float(lambda_cutoff),
    )
