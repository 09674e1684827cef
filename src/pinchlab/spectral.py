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

from .blas import blas_threads
from .dualgraph import DualGraph, build_intersection_matrix
from .errors import ConvergenceError, StructureError, ValidationError
from .geometry import TWO_PI, WarpedChain

RESIDUAL_TOL = 1e-8
# Shift-invert replaces the dense O(n^3) solve when n > _SPARSE_MIN_NODES and
# k * _SPARSE_K_RATIO <= n.  Measured on a 2-core Xeon with OpenBLAS: at
# k = n/12 shift-invert takes 0.2-0.6x the dense time for n = 576-1152 and
# m = 0-5, at k = n/8 0.6-1.3x, at k = n/4 2-6x.  Every other solve is
# dense, and the dense solves of a chain share one factorization of M
# (_mass_factor), in a pool worker as in the caller's process.  Only the
# shift-invert path and its inertia count load scipy.
_SPARSE_MIN_NODES = 384
_SPARSE_K_RATIO = 12
_SIGMA = -1.0          # shift-invert pole, below the spectrum (S >= 0)
_GAP_RTOL = 1e-8       # Ritz values closer than this count as one cluster

# A persistent pool of forked workers, one per usable CPU, each with every
# loaded OpenBLAS pinned to one thread, solves the modes of a chain with
# n > _SPARSE_MIN_NODES (full_spectrum) and the chains of a sweep, one task
# per chain (full_spectra).  A loaded BLAS library that blas.blas_threads
# cannot pin keeps the solves serial, since its threads would compete with
# the other workers.
_FACTOR = None      # (key of a chain's forms, their _mass_factor): one slot
_POOL = None        # (owner pid, executor or None when this process stays serial)
_IN_WORKER = False  # set in the workers: they never fork a pool of their own
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


def assemble_mode_operator(chain: WarpedChain, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense stiffness and mass matrices of the angular-mode-m weak form.

    The solvers use the cyclic tridiagonal forms of ``chain.operators``.  This dense copy
    stays because perfbench/tracer.py wraps it to count operator bytes and
    the tests use it as an oracle for those forms.
    """
    return chain.operators.stiffness(m).toarray(), chain.operators.mass.toarray()


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: largest-magnitude entry positive."""
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs


def _residuals(S, M, lam: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual norms ||S v - lam M v|| and their bounds RESIDUAL_TOL * max(1, ||v||).

    On a huge L these overflow to infinity without a warning; ``_within``
    then fails them, and ``solve_modes`` names a bound that is not finite.
    """
    with np.errstate(over="ignore"):
        resid = np.linalg.norm(S @ vecs - (M @ vecs) * lam[None, :], axis=0)
        return resid, RESIDUAL_TOL * np.maximum(1.0, np.linalg.norm(vecs, axis=0))


def _within(resid: np.ndarray, bound: np.ndarray) -> bool:
    """Every residual within a finite bound; NaN and infinity fail."""
    return bool(np.all((resid <= bound) & np.isfinite(bound)))


def _negative_count(S, M, shift: float) -> int | None:
    """Eigenvalues of (S, M) below ``shift``, by Sylvester's law of inertia.

    S - shift*M is factored as P (L D L^T) P^T: SuperLU in symmetric mode
    with diagonal pivoting keeps the row and column permutations equal, and
    then U = D L^T, so the negative entries of diag(U) count the negative
    eigenvalues.  Returns None when no such factorization was produced.
    """
    scipy = load_scipy()
    try:
        lu = scipy.sparse.linalg.splu((S.tocsr() - shift * M.tocsr()).tocsc(),
                                      permc_spec="MMD_AT_PLUS_A",
                                      diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular pivot
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))


def _shift_invert(S, M, k: int):
    """k smallest pairs by ARPACK shift-invert, or None if not certified.

    Two more pairs than asked are computed, so that a shift can be placed in
    a gap above the k-th Ritz value; the inertia of S - shift*M must then
    count exactly the computed values below it, which rules out a pair the
    Lanczos iteration skipped (spectrum slicing).  The pole SIGMA is negative
    because S is singular for m = 0.
    """
    S, M, scipy = S.tocsr(), M.tocsr(), load_scipy()
    n = S.shape[0]
    lu = scipy.sparse.linalg.splu((S - _SIGMA * M).tocsc())
    opinv = scipy.sparse.linalg.LinearOperator((n, n), matvec=lu.solve, dtype=float)
    start = np.random.default_rng(n).uniform(-1.0, 1.0, n)  # generic, deterministic
    try:
        lam, vecs = scipy.sparse.linalg.eigsh(S, min(k + 2, n - 1), M, sigma=_SIGMA,
                                              OPinv=opinv, which="LM", v0=start)
    except scipy.sparse.linalg.ArpackError:
        return None
    order = np.argsort(lam)
    lam, vecs = lam[order], vecs[:, order]
    gaps = np.diff(lam[k - 1:]) > _GAP_RTOL * np.abs(lam[k:])
    if not np.any(gaps):
        return None
    top = k - 1 + int(np.argmax(gaps))      # first gap at or above the k-th value
    if _negative_count(S, M, 0.5 * (lam[top] + lam[top + 1])) != top + 1:
        return None
    lam, vecs = lam[:k], _fix_signs(vecs[:, :k])
    resid, bound = _residuals(S, M, lam, vecs)
    return (lam, vecs) if _within(resid, bound) else None


def _forms_key(ops) -> tuple:
    """The bytes of the diagonals of the mass, gradient and potential forms."""
    return tuple(a.tobytes() for form in (ops.mass, ops.gradient, ops.potential)
                 for a in (form.diag, form.off))


def _substitute(F, X: np.ndarray, transpose: bool = False) -> np.ndarray:
    """X overwritten by F^-1 X, or F^-T X, for the factor F = (d, l, r) of ``_mass_factor``."""
    d, l, r = F
    X /= d[:, None]  # prescaled: each row then subtracts multiples of solved rows
    if transpose:
        X[:-1] -= (r / d[:-1])[:, None] * X[-1]
        for i in reversed(range(l.size)):
            X[i] -= l[i] / d[i] * X[i + 1]
    else:
        for i in range(1, l.size + 1):
            X[i] -= l[i - 1] / d[i] * X[i - 1]
        X[-1] -= (r / d[-1]) @ X[:-1]
    return X


def _mass_factor(chain: WarpedChain):
    """(F, A, B) with M = F F^T, A = F^-1 gradient F^-T and B = F^-1 potential F^-T.

    Every mode of a chain shares them: mode m is the standard problem
    A + m^2 B, whose eigenvector y gives x = F^-T y.  M is cyclic
    tridiagonal, so its Cholesky factor is lower bidiagonal plus a dense last
    row: F = (d, l, r) holds its diagonal, the subdiagonal above the last row
    and the last row left of d.  One slot keeps the factor of the last forms
    asked, keyed by the bytes of their diagonals, so a pool worker that gets
    each mode as a fresh copy of the chain factors it once; the slot keeps
    2n^2 doubles resident (5 MB at n = 576) and never travels with a chain.
    """
    global _FACTOR
    ops = chain.operators
    key = _forms_key(ops)
    if _FACTOR is None or _FACTOR[0] != key:
        _FACTOR = None  # freed first: the old and new factors would peak at 4n^2 doubles
        n = chain.n_nodes
        C = np.linalg.cholesky(ops.mass.toarray())
        F = (np.diag(C).copy(), np.diag(C, -1)[:-1].copy(), C[-1, :-1].copy())
        del C  # with the substitutions in place, the peak is 4n^2 doubles
        with np.errstate(over="ignore", invalid="ignore"):
            W = _substitute(F, np.hstack([ops.gradient.toarray(), ops.potential.toarray()]))
            W = _substitute(F, np.hstack([W[:, :n].T, W[:, n:].T]))
        _FACTOR = (key, (F, W[:, :n], W[:, n:]))
    return _FACTOR[1]


def solve_modes(chain: WarpedChain, m: int, k: int):
    """k smallest eigenpairs of the mode-m generalized problem.

    Large grids asked for few pairs use ARPACK shift-invert, certified by an
    inertia count, with the dense solver as fallback when the certificate
    fails; every other case uses the dense solver, which reduces the
    problem with the chain's shared mass factor.  Returns (lam, vecs) with
    vecs[:, j] mass-orthonormal.  A reduced matrix that is not finite (the
    potential form overflows first, on huge L), a residual bound that is not
    finite (||v|| overflows) and residuals beyond tolerance raise
    ConvergenceError with diagnostics.
    """
    S, M = chain.operators.stiffness(m), chain.operators.mass
    n = chain.n_nodes
    if k > n:
        raise ValidationError(f"requested {k} eigenpairs from an n = {n} grid")
    if n > _SPARSE_MIN_NODES and 0 < _SPARSE_K_RATIO * k <= n:
        found = _shift_invert(S, M, k)
        if found is not None:
            return found
    # the exact dense path; slicing after a full solve keeps the basis LAPACK
    # picks inside degenerate eigenspaces independent of k
    F, A, B = _mass_factor(chain)
    H = A if m == 0 else A + (m * m) * B  # mode 0 reads no B: 0 * inf is NaN
    if not np.all(np.isfinite(H)):
        raise ConvergenceError("reduced mode matrix is not finite",
                               {"mode": m, "n": n, "L": chain.L})
    lam, vecs = np.linalg.eigh(H)  # the lower triangle, as LAPACK's syevd
    with np.errstate(over="ignore", invalid="ignore"):  # huge L: the gates below fail
        vecs = _fix_signs(_substitute(F, vecs[:, :k], transpose=True))
    lam = lam[:k]
    resid, bound = _residuals(S, M, lam, vecs)
    if not np.all(np.isfinite(bound)):  # ||v|| overflowed: no residual can be judged
        raise ConvergenceError("eigen residual bound is not finite",
                               {"mode": m, "n": n, "L": chain.L})
    if not _within(resid, bound):
        raise ConvergenceError(
            "eigen residual beyond tolerance",
            {"mode": m, "worst_residual": float(resid.max()), "n": n},
        )
    return lam, vecs


@dataclass(frozen=True)
class EigenEntry:
    """A pair in the ``EigenSystem.entries`` view, kept only because perfbench/ reads it."""

    lam: float
    mode: int
    vec: np.ndarray
    multiplicity: int  # 1 for mode 0, 2 for the cos/sin pair when m >= 1
    certified: bool


@dataclass(frozen=True)
class EigenSystem:
    """Merged spectrum with an explicit completeness certificate.

    Pair j is (``lam[j]``, ``modes[j]``, ``vecs[:, j]``), in solve order: mode by
    mode, ascending within a mode; ``order`` sorts the indices by (lam, mode).
    ``certified_below`` bounds the region where every eigenvalue (counted
    with angular multiplicity) is present; ``gap_value`` is the first
    eigenvalue above the N-1 collapsing ones.
    """

    lam: np.ndarray       # (K,)
    modes: np.ndarray     # (K,)
    vecs: np.ndarray      # (n, K)
    low_count: int
    gap_value: float
    certified_below: float
    certification_limited_by_k: bool

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
        """Indices of the N-1 small positive eigenpairs (all in mode 0)."""
        return np.flatnonzero(self.modes == 0)[1 : 1 + self.low_count]

    def expanded_eigenvalues(self) -> np.ndarray:
        """Sorted eigenvalues, each repeated by its multiplicity."""
        return np.sort(np.repeat(self.lam, self.multiplicity))

    @property
    def entries(self) -> tuple[EigenEntry, ...]:
        """Read view for the benchmark, built on access: the pairs in (lam, mode) order."""
        multiplicity, certified = self.multiplicity, self.certified
        return tuple(EigenEntry(float(self.lam[j]), int(self.modes[j]), self.vecs[:, j],
                                int(multiplicity[j]), certified[j]) for j in self.order)

    def mode0_entries(self) -> list[EigenEntry]:
        """Read view for the benchmark: the mode-0 ``entries``."""
        return [e for e in self.entries if e.mode == 0]


def full_spectrum(chain: WarpedChain, m_max: int = 16, k_per_mode: int = 32) -> EigenSystem:
    """Solve modes 0..m_max, merge, and certify completeness.

    Excluded modes m > m_max have lambda >= (m_max+1)^2 / c_max^2; within a
    solved mode everything up to its k-th eigenvalue is known.  The
    certificate is the minimum of the two, and a flag records when k_per_mode
    (not m_max) is the binding constraint.
    """
    if m_max < 1:
        raise ValidationError("m_max must be at least 1")
    if k_per_mode < 1:
        raise ValidationError("k_per_mode must be at least 1")
    n = chain.n_nodes
    k = min(k_per_mode, n)
    c_max = max(seg.c for seg in chain.segments)
    excluded_bound = (m_max + 1) ** 2 / c_max**2

    modes = range(m_max + 1)
    pool = _pool() if n > _SPARSE_MIN_NODES else None
    if pool is None:
        solved = (solve_modes(chain, m, k) for m in modes)
    else:
        chain.operators  # assembled here, so that each task's pickled chain carries them
        solved = _solve_in_pool(pool, functools.partial(_solve_mode, chain, k), modes)
    # each mode's block is copied into place, one contiguous (Fortran) stretch,
    # as it arrives; sorting the columns would hold a second copy of every vector
    lam = np.empty(len(modes) * k)
    vecs = np.empty((n, lam.size), order="F")
    for m, (lam_m, vecs_m) in zip(modes, solved):
        lam[m * k:(m + 1) * k] = lam_m
        vecs[:, m * k:(m + 1) * k] = vecs_m
    lowest_top = lam[k - 1::k].min()
    certified_below = min(excluded_bound, lowest_top)

    N = chain.cfg.n_components
    expanded = np.sort(np.concatenate([lam, lam[k:]]))  # modes m >= 1 count twice
    if expanded[0] > 1e-8:
        raise ConvergenceError("missing zero eigenvalue", {"lambda0": expanded[0]})
    gap_value = float(expanded[N]) if expanded.size > N else float("nan")
    limited = lowest_top < excluded_bound or gap_value > certified_below
    return EigenSystem(
        lam=lam,
        modes=np.repeat(modes, k),
        vecs=vecs,
        low_count=N - 1,
        gap_value=gap_value,
        certified_below=float(certified_below),
        certification_limited_by_k=bool(limited),
    )


def full_spectra(chains, m_max: int = 16, k_per_mode: int = 32):
    """``full_spectrum`` of each chain, yielded in order.

    With more than one chain and a pool, each chain is one pool task, whose
    modes its worker solves serially; otherwise the chains are solved here,
    one after another.
    """
    chains = list(chains)
    pool = _pool() if len(chains) > 1 else None
    if pool is None:
        return (full_spectrum(chain, m_max, k_per_mode) for chain in chains)
    return _solve_in_pool(pool, functools.partial(full_spectrum, m_max=m_max,
                                                  k_per_mode=k_per_mode), chains)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity interface on this platform
        return 1


def _pool():
    """This process's solver pool, made on first use; None to run serially."""
    global _POOL
    cpus = _usable_cpus()
    if _IN_WORKER or cpus < 2:
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
    global _IN_WORKER
    import threading

    _IN_WORKER = True
    blas_threads(1)
    # a worker holds its own end of the call queue, so it never sees EOF
    # when its parent is killed: it watches for the parent to go instead
    threading.Thread(target=_exit_with_parent, args=(parent,), daemon=True).start()


def _exit_with_parent(parent: int):
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _solve_mode(chain: WarpedChain, k: int, m: int):
    # solve_modes is looked up when a task runs: a partial of it would pickle
    # the function object, and a traced or monkeypatched solve_modes is a
    # closure that cannot be pickled
    return solve_modes(chain, m, k)


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


def graph_limit_eigs(g: DualGraph, L: float) -> np.ndarray:
    """Predicted small eigenvalues from the conductance-network limit.

    The chain collapses onto its dual graph with one conductance 2*pi/L per
    edge; the N-1 nonzero eigenvalues of D^-1 L_G, or of D^-1/2 L_G D^-1/2,
    with D = diag(areas), predict the collapsing spectrum (all proportional to 1/L).
    """
    if not g.reduced:
        raise ValidationError("graph-limit prediction requires a reduced graph")
    L_G = -(TWO_PI / L) * build_intersection_matrix(g)  # L_G = -M on reduced graphs
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
    share a neck, where both ramps live; the overlap carries O(1/L) mass and
    is reported in ``overlap_sup``/``overlap_mass``.
    """

    functions: np.ndarray        # (N, n_nodes)
    energies: np.ndarray         # Dirichlet energies, exact for P1 data
    norms: np.ndarray            # squared weighted L2 norms
    supports: tuple[tuple[float, float], ...]  # arc [ramp start, ramp end]
    overlap_sup: float
    overlap_mass: float


def _quadratic_forms(A, rows: np.ndarray) -> np.ndarray:
    """r^T A r for every row r of ``rows``."""
    return np.einsum("in,ni->i", rows, A @ rows.T)


def model_functions(chain: WarpedChain) -> ModelFunctionSet:
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
    fats = chain.fat_segments()
    necks = chain.neck_segments()
    areas = chain.cfg.area_vector()
    P = chain.total_length
    x = chain.nodes
    funcs = np.zeros((N, chain.n_nodes))
    supports = []
    for i in range(N):
        height = 1.0 / np.sqrt(areas[i])
        fat = fats[i]
        nxt = necks[i]                   # neck after fat i
        prv = necks[(i - 1) % N]         # neck before fat i
        vals = np.zeros_like(x)
        vals[(x >= fat.x0 - 1e-15) & (x < fat.x1 - 1e-15)] = height
        mask = (x >= nxt.x0 - 1e-15) & (x < nxt.x1 - 1e-15)
        vals[mask] = height * (nxt.x1 - x[mask]) / nxt.length
        mask = (x >= prv.x0 - 1e-15) & (x < prv.x1 - 1e-15)
        vals[mask] = height * (x[mask] - prv.x0) / prv.length
        funcs[i] = vals
        supports.append((prv.x0 % P, nxt.x1 % P))
    ops = chain.operators
    energies = _quadratic_forms(ops.gradient, funcs)
    norms = _quadratic_forms(ops.mass, funcs)
    overlap_sup = 0.0
    overlap_mass = 0.0
    for i in range(N):
        for j in range(i + 1, N):
            prod = funcs[i] * funcs[j]
            overlap_sup = max(overlap_sup, float(np.max(prod)))
            overlap_mass = max(overlap_mass, float(prod @ (ops.mass @ prod)) ** 0.5)
    return ModelFunctionSet(
        functions=funcs,
        energies=energies,
        norms=norms,
        supports=tuple(supports),
        overlap_sup=overlap_sup,
        overlap_mass=overlap_mass,
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
    residual_norms: np.ndarray       # ||R_j||, j = 1..N-1
    scaled_residuals: np.ndarray     # ||R_j||^2 * L


def correlation_matrix(chain: WarpedChain, eigsys: EigenSystem,
                       mfs: ModelFunctionSet) -> CorrelationReport:
    if eigsys.certification_limited_by_k and np.isnan(eigsys.gap_value):
        raise ValidationError("eigen system lacks a certified low part")
    N = chain.cfg.n_components
    ops = chain.operators
    volume = float(ops.mass.sum())
    phi = np.zeros((N, chain.n_nodes))
    phi[0] = 1.0 / np.sqrt(volume)
    low = eigsys.low
    phi[1 : 1 + low.size] = eigsys.vecs[:, low].T
    C = mfs.functions @ (ops.mass @ phi.T)
    E = C @ C.T - np.eye(N)
    resid = phi[1:] - C[:, 1:].T @ mfs.functions
    res_norms = np.sqrt(_quadratic_forms(ops.mass, resid))
    return CorrelationReport(
        E_fro=float(np.linalg.norm(E)),
        residual_norms=res_norms,
        scaled_residuals=res_norms**2 * chain.L,
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


def truncated_green_min(chain: WarpedChain, eigsys: EigenSystem,
                        tail_count: int = 200,
                        lambda_cutoff: float | None = None) -> GreenReport:
    """Minimum of the Green's kernel truncated past the collapsing modes.

    The kernel sum starts above the constant and the N-1 small eigenvalues.
    Angular offsets are handled analytically: each m >= 1 eigenvalue
    contributes 2 u(x1) u(x2) cos(m dtheta), bounded below by its worst-case
    alignment -2|u(x1) u(x2)|.  The reported minimum is that conservative
    lower envelope over all grid pairs.
    """
    lam, modes = eigsys.lam, eigsys.modes
    tail = eigsys.certified & (lam > 1e-8)
    tail[eigsys.low] = False
    expanded = np.sort(np.repeat(lam[tail], eigsys.multiplicity[tail]))
    if lambda_cutoff is None:
        if tail_count < 1:
            raise ValidationError(f"tail_count must be at least 1, got {tail_count}")
        if len(expanded) < tail_count + 1:
            raise ValidationError(
                f"insufficient certified pairs: need {tail_count + 1} beyond "
                f"the low part, have {len(expanded)}"
            )
        # place the cutoff in a spectral gap so ties never straddle it
        above = expanded[tail_count - 1:]
        gaps = np.flatnonzero(np.diff(above) > 1e-9 * above[:-1])
        if gaps.size == 0:
            raise ValidationError("no clean spectral gap for the requested tail")
        pos = tail_count - 1 + int(gaps[0])
        lambda_cutoff = 0.5 * (expanded[pos] + expanded[pos + 1])
    if lambda_cutoff > eigsys.certified_below:
        raise ValidationError(
            "lambda cutoff exceeds the certified part of the spectrum"
        )

    # the used pairs in (lam, mode) order, which fixes the GEMM summation order
    order = eigsys.order
    used = order[tail[order] & (lam[order] <= lambda_cutoff)]
    zero, rest = used[modes[used] == 0], used[modes[used] != 0]

    # f0 = V0 diag(1/lam) V0^T over mode 0; each m >= 1 pair adds at worst
    # -2|u u^T|/lam, and |u_i u_j| = |u_i||u_j|, so their envelope is
    # 2|V| diag(1/lam) |V|^T: two GEMMs
    V0, inv0 = eigsys.vecs[:, zero], 1.0 / lam[zero]
    V, inv = np.abs(eigsys.vecs[:, rest]), 2.0 / lam[rest]
    lower = (V0 * inv0) @ V0.T - (V * inv) @ V.T
    diag = (V0**2) @ inv0 + (V**2) @ inv  # actual value at dtheta = 0
    included = V0.shape[1] + 2 * V.shape[1]
    sup_u = float(max(np.abs(V0).max(initial=0.0), V.max(initial=0.0)))
    remaining = max(0, len(expanded) - included)
    return GreenReport(
        min_value=float(lower.min()),
        diag_min=float(diag.min()),
        cutoff=float(lambda_cutoff),
        included_expanded=included,
        tail_bound=remaining * sup_u**2 / float(lambda_cutoff),
    )
