"""Fiberwise translation dynamics on a model elliptic fibration.

The fibration is a synthetic torus bundle over an annulus in the s-plane:
every fiber is the square torus C/(Z + iZ) and the automorphism acts as the
translation z -> z + T(s) with T a polynomial.  Fiber data lives on an n x n
grid in lattice coordinates and every transform is spectral: translations act
diagonally on fiber Fourier modes, so pushforwards are exact for band-limited
data and Birkhoff sums of 10^4 iterates reduce to closed-form Dirichlet
kernels with no drift.

Implemented experiments: Birkhoff limit potentials with the sup bound
|u| <= sup|f|, the quadratic growth of base-Laplacians of pushforwards
(the obstruction to locally uniform convergence), the flat-metric potential
identity, and the identity tying the limit potential to the height pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class TorusFibration:
    """Synthetic torus bundle with a polynomial translation section.

    ``t_coeffs`` are ascending coefficients of T(s); the section must be
    non-constant (parabolic).  Every fiber is the square torus C/(Z + iZ).
    Base samples live on the annulus r_min <= |s| <= r_max.
    """

    t_coeffs: tuple[complex, ...]
    s_samples: tuple[complex, ...]
    fiber_n: int = 64

    def __post_init__(self):
        if self.fiber_n < 8 or self.fiber_n & (self.fiber_n - 1):
            raise ValidationError("fiber_n must be a power of two >= 8")
        if not self.s_samples:
            raise ValidationError("need at least one base sample")
        if all(abs(c) == 0 for c in self.t_coeffs[1:]):
            raise ValidationError("translation section is constant")

    def T(self, s: complex) -> complex:
        """T(s) by Horner's recurrence: ``np.polyval`` on ``t_coeffs`` in descending order."""
        return np.polyval(self.t_coeffs[::-1], s)

    def dT(self, s: complex) -> complex:
        """T'(s), ``np.polyval`` on the descending coefficients ``np.polyder`` gives."""
        return np.polyval(np.polyder(self.t_coeffs[::-1]), s)

    def grid(self):
        n = self.fiber_n
        a = np.arange(n) / n
        return np.meshgrid(a, a, indexing="ij")


def annulus_samples(r_min: float, r_max: float, n_r: int = 3, n_arg: int = 6
                    ) -> tuple[complex, ...]:
    """Deterministic polar sampling of the base annulus."""
    if not (0 < r_min <= r_max):
        raise ValidationError("need 0 < r_min <= r_max")
    if n_r < 1 or n_arg < 1:
        raise ValidationError(f"need n_r >= 1 and n_arg >= 1, got n_r={n_r} n_arg={n_arg}")
    radii = np.linspace(r_min, r_max, n_r)
    args = math.tau * np.arange(n_arg) / n_arg
    return tuple(
        complex(r * math.cos(t), r * math.sin(t)) for r in radii for t in args
    )


# -- spectral fiber operations ----------------------------------------------

def _freqs(n: int) -> np.ndarray:
    return np.fft.fftfreq(n, d=1.0 / n)  # integer frequencies


def _multiply(values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """The real fiber function whose Fourier coefficients are those of ``values`` times
    ``symbol``."""
    return np.fft.ifft2(np.fft.fft2(values) * symbol).real


def translate(values: np.ndarray, t: complex) -> np.ndarray:
    """z -> f(z - t) (pushforward by +t), exact on the Fourier modes."""
    k = _freqs(values.shape[0])
    return _multiply(values, np.exp(-math.tau * 1j * (k[:, None] * t.real + k[None, :] * t.imag)))


def birkhoff_hat(fhat: np.ndarray, t: complex, k_iters: int) -> np.ndarray:
    """Fourier coefficients of sum_{i<k} (pushforward)^i f, in closed form.

    Each mode sees the geometric sum of its own phase; the Dirichlet-kernel
    form sin(k t/2)/sin(t/2) keeps it stable near resonances.
    """
    n = fhat.shape[0]
    kk = _freqs(n)
    theta = -math.tau * (kk[:, None] * t.real + kk[None, :] * t.imag)
    half = 0.5 * theta
    sin_half = np.sin(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(k_iters * half) / sin_half
    ratio = np.where(np.abs(sin_half) < 1e-13, float(k_iters), ratio)
    kernel = ratio * np.exp(1j * (k_iters - 1) * half)
    return fhat * kernel


def _dzdzbar_symbol(n: int) -> np.ndarray:
    """Fourier multiplier of d/dz d/dzbar on the n x n fiber grid."""
    k = _freqs(n)
    return -(math.pi**2) * np.abs(k[None, :] - 1j * k[:, None]) ** 2


def fiber_poisson(rhs_values: np.ndarray) -> np.ndarray:
    """Mean-zero solution of laplace(phi) = -4*pi*rhs on the fiber."""
    rhs_hat = np.fft.fft2(rhs_values)
    lap = 4.0 * _dzdzbar_symbol(rhs_hat.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_hat = -2 * math.tau * rhs_hat / lap
    phi_hat[0, 0] = 0.0
    return np.fft.ifft2(phi_hat).real


def _check_periodicity(func, s: complex, A: np.ndarray, B: np.ndarray):
    """ValidationError unless ``func`` at s takes the same values, to 1e-9, on the fiber
    grid (A, B) as on that grid shifted by one period along either lattice direction."""
    base = np.asarray(func(s, A, B))
    for shifted in (func(s, A + 1.0, B), func(s, A, B + 1.0)):
        if np.max(np.abs(np.asarray(shifted) - base)) > 1e-9:
            raise ValidationError("fiber function is not periodic across the lattice seam")


# -- Birkhoff limit potentials ----------------------------------------------

@dataclass(frozen=True)
class LimitPotentialRun:
    """Averaged Birkhoff sums of an observable over the base samples."""

    ks: tuple[int, ...]
    constancy_defect: np.ndarray     # (len(ks), n_samples): max-min of S_k/k
    sup_deviation: np.ndarray        # (len(ks), n_samples): sup|S_k/k - u_ref|
    # the fiber means of f obey |u| <= sup|f|: true by construction on finite
    # samples, because a mean never exceeds the largest absolute value
    tate_bound_ok: bool


def synthesize_invariant_observable(fib: TorusFibration, u_func, phi_func):
    """Build f = pi^*u + phi - T_*phi, the observable with limit potential u.

    Returns (f_callable, sup_phi_estimate).  The Birkhoff sums of f telescope
    to k*u + phi - T^k_*phi exactly.  f pushes phi forward by ``translate``, on whole fiber grids.
    """
    A, B = fib.grid()
    sup_phi = 0.0
    for s in fib.s_samples:
        sup_phi = max(sup_phi, float(np.max(np.abs(np.asarray(phi_func(s, A, B))))))

    def f(s, Agrid, Bgrid):
        phi_here = np.asarray(phi_func(s, Agrid, Bgrid), dtype=float)
        return float(np.real(u_func(s))) + phi_here - translate(phi_here, fib.T(s))

    return f, sup_phi


def birkhoff_limit(fib: TorusFibration, f, k_max: int, u_ref) -> LimitPotentialRun:
    """Average the pushforward sums S_k(f)/k over a ladder of k values.

    For observables of the form pi^*u + phi - T_*phi the deviation from
    u_ref = u is |phi - T^k phi|/k <= 2 sup|phi|/k; the fiber means always
    obey the sup bound |u(s)| <= sup|f|.
    """
    if k_max < 1:
        raise ValidationError("k_max must be positive")
    ks = sorted({max(1, k_max // 100), max(1, k_max // 10), k_max})
    A, B = fib.grid()
    _check_periodicity(f, fib.s_samples[0], A, B)
    n_s = len(fib.s_samples)
    u = np.zeros(n_s)
    defects = np.zeros((len(ks), n_s))
    sup_dev = np.zeros((len(ks), n_s))
    sup_f = 0.0
    for j, s in enumerate(fib.s_samples):
        values = np.asarray(f(s, A, B), dtype=float)
        sup_f = max(sup_f, float(np.max(np.abs(values))))
        fhat = np.fft.fft2(values)
        t = fib.T(s)
        u[j] = float(fhat[0, 0].real) / values.size
        for i, k in enumerate(ks):
            avg = np.fft.ifft2(birkhoff_hat(fhat, t, k)).real / k
            defects[i, j] = float(avg.max() - avg.min())
            sup_dev[i, j] = float(np.max(np.abs(avg - np.real(u_ref(s)))))
    tate_ok = bool(np.max(np.abs(u)) <= sup_f + 1e-9)
    return LimitPotentialRun(
        ks=tuple(ks),
        constancy_defect=defects,
        sup_deviation=sup_dev,
        tate_bound_ok=tate_ok,
    )


# -- quadratic growth of pushforward curvature -------------------------------

@dataclass(frozen=True)
class GrowthReport:
    n_list: tuple[int, ...]
    sup_values: np.ndarray
    error_floors: np.ndarray     # Richardson correction size per n
    exponent: float              # fitted over measurably-nonzero points only
    coefficient: float           # sup at n_max / n_max^2
    expected_coefficient: float  # |dT(s0)|^2 * sup|d_z d_zbar rho|
    stable: bool                 # some sup > 3 floor, and each such floor < 5% of its sup


def pushforward_growth(fib: TorusFibration, rho, n_list, s0: complex) -> GrowthReport:
    """Measure sup_z |d_s d_sbar (T^n_* rho)| and fit its growth in n.

    The mixed s-derivative is a 5-point finite-difference Laplacian in the
    base variable (one quarter of it), Richardson-extrapolated; the step,
    at most 1e-4 |s0|, shrinks like 1/n because the target itself grows
    like n^2.  Where dT(s0) != 0 the exponent is 2 with coefficient
    |dT(s0)|^2 sup|d_z d_zbar rho|.  The Richardson correction size serves
    as a per-n error floor: values it cannot separate from zero are excluded
    from the exponent fit (at a critical point of T the true derivative
    vanishes and everything sits on the floor, so no growth is reported).
    """
    n_list = sorted(int(n) for n in n_list)
    if not n_list or n_list[0] < 1:
        raise ValidationError("n_list must hold positive iteration counts")
    A, B = fib.grid()
    _check_periodicity(rho, s0, A, B)

    def pushed_values(s: complex, n: int) -> np.ndarray:
        vals = np.asarray(rho(s, A, B), dtype=float)
        return translate(vals, n * fib.T(s))

    def fd_field(n: int, h: float) -> np.ndarray:
        acc = -4.0 * pushed_values(s0, n)
        for ds in (h, -h, 1j * h, -1j * h):
            acc = acc + pushed_values(s0 + ds, n)
        return acc / (4.0 * h * h)  # d_s d_sbar = Laplacian_s / 4

    sups = []
    floors = []
    eps = float(np.finfo(float).eps)
    for n in n_list:
        scale = abs(s0) if s0 != 0 else 1.0
        h = min(1e-4 * scale, 0.008 / n)
        d1 = fd_field(n, h)
        d2 = fd_field(n, h / 2)
        richardson = (4.0 * d2 - d1) / 3.0
        sups.append(float(np.max(np.abs(richardson))))
        # error floor: Richardson correction plus the rounding level of the
        # 5-point stencil (cancellation of O(1) values divided by h^2)
        rounding = 16.0 * eps * float(np.max(np.abs(pushed_values(s0, n)))) / (h * h / 4.0)
        floors.append(max(float(np.max(np.abs(richardson - d2))), rounding))
    sups = np.asarray(sups)
    floors = np.asarray(floors)
    usable = sups > 3.0 * floors
    stable = bool(usable.any()) and float(np.max(floors[usable] / sups[usable])) < 0.05
    if int(usable.sum()) >= 2:
        logs_n = np.log(np.asarray(n_list, dtype=float)[usable])
        exponent = float(np.polyfit(logs_n, np.log(sups[usable]), 1)[0])
    else:
        exponent = 0.0   # nothing measurably above the finite-difference floor
    curv = _multiply(np.asarray(rho(s0, A, B), dtype=float), _dzdzbar_symbol(fib.fiber_n))
    expected = abs(fib.dT(s0)) ** 2 * float(np.max(np.abs(curv)))
    coefficient = float(sups[-1]) / n_list[-1] ** 2
    return GrowthReport(
        n_list=tuple(n_list),
        sup_values=sups,
        error_floors=floors,
        exponent=exponent,
        coefficient=coefficient,
        expected_coefficient=expected,
        stable=stable,
    )


# -- flat metric potential identity ------------------------------------------

def _perturbed_density(rho_vals: np.ndarray) -> np.ndarray:
    """Density of omega = omega_flat - ddc(rho) against the flat area form."""
    lap = 4.0 * _multiply(rho_vals, _dzdzbar_symbol(rho_vals.shape[0]))
    w = 1.0 - lap / (2 * math.tau)
    if w.min() <= 0:
        raise ValidationError("rho is too large: the perturbed fiber density is not positive")
    return w


def flat_potential_identity(fib: TorusFibration, rho) -> float:
    """Max relative defect of phi_pref(T_* omega - omega) = T_* rho - rho.

    Here omega = omega_flat - ddc(rho) fiberwise (rho small enough to keep
    the density positive); the preferred potential of the translation
    increment must reproduce T_* rho - rho up to its mean.
    """
    A, B = fib.grid()
    _check_periodicity(rho, fib.s_samples[0], A, B)
    defects = []
    scale = 0.0
    for s in fib.s_samples:
        vals = np.asarray(rho(s, A, B), dtype=float)
        w = _perturbed_density(vals)
        t = fib.T(s)
        xi = translate(w, t) - w            # density of T_* omega - omega
        phi = fiber_poisson(xi)
        target = translate(vals, t) - vals
        target = target - target.mean()
        scale = max(scale, float(np.max(np.abs(target))))
        defects.append(float(np.max(np.abs(phi - target))))
    # one common scale: fibers where the increment nearly vanishes would
    # otherwise turn a rounding-level mismatch into a 0/0 ratio
    return max(defects) / max(scale, 1e-14)


# -- limit potential vs height pairing ---------------------------------------

@dataclass(frozen=True)
class RelationReport:
    u_samples: np.ndarray
    constancy_defect: float
    max_discrepancy: float
    max_adjacent_jump: float


def limit_potential_relation(fib: TorusFibration, alpha, rho,
                             f_fiber_mean) -> RelationReport:
    """Check u(s) = integral(f omega_s) + pairing(alpha, (T^* - I) omega).

    All ingredients are synthesized consistently: alpha is a fiberwise
    mean-zero density, omega = omega_flat - ddc(rho), f solves
    ddc f = (T_* alpha - alpha) fiberwise with fiber means f_fiber_mean(s),
    and phi is the preferred potential of alpha.  Both sides of the identity
    are then evaluated independently on every base sample.
    """
    A, B = fib.grid()
    _check_periodicity(alpha, fib.s_samples[0], A, B)
    _check_periodicity(rho, fib.s_samples[0], A, B)
    lhs = []
    rhs = []
    defect = 0.0
    for s in fib.s_samples:
        a_vals = np.asarray(alpha(s, A, B), dtype=float)
        a_vals = a_vals - a_vals.mean()
        w = _perturbed_density(np.asarray(rho(s, A, B), dtype=float))
        t = fib.T(s)

        phi = fiber_poisson(a_vals)
        # ddc f = (T_* alpha - alpha)|fiber, i.e. laplace f = 4 pi (T_* a - a)
        incr = translate(a_vals, t) - a_vals
        f_vals = fiber_poisson(-incr) + float(np.real(f_fiber_mean(s)))

        invariant = f_vals + translate(phi, t) - phi
        defect = max(defect, float(invariant.max() - invariant.min()))
        lhs.append(float((invariant * w).mean()))

        # pairing slot: (T^* - I) omega has density w(z + T) - w(z)
        xi_pullback = translate(w, -t) - w
        pairing = float((phi * xi_pullback).mean())
        rhs.append(float((f_vals * w).mean()) + pairing)
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    jumps = np.abs(np.diff(lhs)) if lhs.size > 1 else np.zeros(1)
    return RelationReport(
        u_samples=lhs,
        constancy_defect=defect,
        max_discrepancy=float(np.max(np.abs(lhs - rhs))),
        max_adjacent_jump=float(jumps.max()),
    )
