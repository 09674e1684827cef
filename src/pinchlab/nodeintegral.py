"""Fiber integrals of log|z1|^2 against a (1,1)-density over a node.

The family is the local model {z1 z2 = t} inside the closed unit polydisk.
For a Hermitian coefficient matrix eta_{kl} (polynomials in z1, conj(z1),
z2, conj(z2)) the integral

    I(t) = integral over the fiber of log|z1|^2 * eta

grows like A log|t|^2 with A the integral of eta over the central divisor
branch {z1 = 0}, plus a constant and an O(|t| log^2|t|) remainder.  The
computation splits the fiber annulus at |z1| = split_factor * sqrt|t| and
pulls eta back to each coordinate chart through dz2 = -(t/z1^2) dz1;
the split is a bookkeeping device and moving it must not change the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import configfile, geometry
from .errors import ConvergenceError, ValidationError

# monomial: (a1, b1, a2, b2, coefficient) for z1^a1 conj(z1)^b1 z2^a2 conj(z2)^b2
Monomial = tuple[int, int, int, int, complex]


@dataclass(frozen=True)
class EtaSpec:
    """Hermitian (1,1)-density coefficients on the polydisk.

    ``coeffs[(k, l)]`` holds the monomials of eta_{k lbar}; Hermitian
    symmetry eta_{kl} = conj(eta_{lk}) is validated structurally.
    """

    coeffs: dict[tuple[int, int], tuple[Monomial, ...]]

    def __post_init__(self):
        for key in self.coeffs:
            if key not in {(1, 1), (1, 2), (2, 1), (2, 2)}:
                raise ValidationError(f"unknown coefficient slot {key}")
        for k, l in ((1, 1), (2, 2), (1, 2)):
            mine = _canonical(self.coeffs.get((k, l), ()))
            theirs = _canonical(_conjugate(self.coeffs.get((l, k), ())))
            if mine != theirs:
                raise ValidationError(
                    f"eta is not Hermitian: slot ({k},{l}) vs conj of ({l},{k})"
                )

    def evaluate(self, k: int, l: int, z1, z2) -> np.ndarray:
        z1 = np.asarray(z1, dtype=complex)
        z2 = np.asarray(z2, dtype=complex)
        out = np.zeros(np.broadcast(z1, z2).shape, dtype=complex)
        for a1, b1, a2, b2, c in self.coeffs.get((k, l), ()):
            out += c * z1**a1 * np.conj(z1) ** b1 * z2**a2 * np.conj(z2) ** b2
        return out


def parse_eta(raw: str) -> EtaSpec:
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
        try:
            powers = [int(p) for p in parts[2].split(",")]
            coeff = configfile.finite_complex(parts[1])
        except ValueError:
            raise ValidationError(f"eta term {term!r} needs a finite coefficient "
                                  "and integer powers") from None
        if len(powers) != 4 or any(p < 0 for p in powers):
            raise ValidationError(f"bad power list in {term!r}")
        key = (int(slot[0]), int(slot[1]))
        coeffs.setdefault(key, []).append((*powers, coeff))
    return EtaSpec({k: tuple(v) for k, v in coeffs.items()})


def _conjugate(monos) -> tuple[Monomial, ...]:
    return tuple((b1, a1, b2, a2, complex(c).conjugate())
                 for a1, b1, a2, b2, c in monos)


def _canonical(monos) -> dict:
    acc: dict[tuple[int, int, int, int], complex] = {}
    for a1, b1, a2, b2, c in monos:
        key = (a1, b1, a2, b2)
        acc[key] = acc.get(key, 0j) + complex(c)
    return {k: v for k, v in acc.items() if abs(v) > 0}


def constant_eta() -> EtaSpec:
    return EtaSpec({(2, 2): ((0, 0, 0, 0, 1 + 0j),)})


def _log_radial_nodes(r_in: float, r_out: float, per_decade: int):
    """Quadrature nodes/weights for integral f(r) dr on log-spaced panels."""
    decades = math.log10(r_out / r_in)
    panels = max(2, int(math.ceil(decades * per_decade / 4.0)))
    edges = np.geomspace(r_in, r_out, panels + 1)
    lo, hi = edges[:-1], edges[1:]  # 4-point Gauss-Legendre, panel by panel
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    return (mid + half * geometry.GL_X[None, :]).ravel(), (half * geometry.GL_W[None, :]).ravel()


def _chart_integral(eta: EtaSpec, t: complex, r, w_r, n_theta: int, chart: int):
    """Integral of [eta pulled back]_chart * weight(z) r dr dtheta.

    chart 1 integrates over z1 = r e^{i theta} with z2 = t/z1; chart 2 swaps
    the roles.  Returns (plain, logged): integrals of eta and of
    -+log|z_chart|^2 * eta needed by the two regions.
    """
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    zc = r[:, None] * np.exp(1j * theta[None, :])
    zo = t / zc
    # the chart's own slot a and the other slot b, whose differential is -t dz_a / z_a^2
    (a, b), (z1, z2) = ((1, 2), (zc, zo)) if chart == 1 else ((2, 1), (zo, zc))
    f = (
        eta.evaluate(a, a, z1, z2)
        - eta.evaluate(a, b, z1, z2) * np.conj(t) / np.conj(zc) ** 2
        - eta.evaluate(b, a, z1, z2) * t / zc**2
        + eta.evaluate(b, b, z1, z2) * abs(t) ** 2 / np.abs(zc) ** 4
    )
    dens = f.real * r[:, None]
    dtheta = 2.0 * math.pi / n_theta
    plain = float(np.sum(dens * w_r[:, None]) * dtheta)
    logged = float(np.sum(dens * (2.0 * np.log(r))[:, None] * w_r[:, None]) * dtheta)
    return plain, logged


def _split_fiber(eta: EtaSpec, t: complex, radial_per_decade: int, n_theta: int,
                 split_factor: float = 1.0):
    """(plain, logged) of the z1 chart on |z1| >= split_factor * sqrt|t| and of
    the z2 chart inside that circle, on the annulus |t| <= |z1| <= 1 over t."""
    for name, count in (("radial_per_decade", radial_per_decade), ("angular node count", n_theta)):
        if count < 1:
            raise ValidationError(f"{name} must be at least 1, got {count}")
    at = abs(t)
    if not 0 < at < 1:
        raise ValidationError("need 0 < |t| < 1")
    split = split_factor * math.sqrt(at)
    if not at < split < 1:
        raise ValidationError("split radius must lie strictly inside the annulus")
    # |t|^2, and |z|^4 down to the radius min(split, at/split), must be normal floats
    floor = math.sqrt(np.finfo(float).tiny) * max(split_factor, 1.0 / split_factor) ** 2
    if at < floor:
        raise ValidationError(f"|t| = {at:.3g} is below {floor:.3g}, where |t|^2 underflows")
    r1, w1 = _log_radial_nodes(split, 1.0, radial_per_decade)
    # inner region in the z2 chart: |z2| from at/split up to 1
    r2, w2 = _log_radial_nodes(at / split, 1.0, radial_per_decade)
    return (_chart_integral(eta, t, r1, w1, n_theta, chart=1),
            _chart_integral(eta, t, r2, w2, n_theta, chart=2))


def fiber_annulus_integral(eta: EtaSpec, t: complex, radial_per_decade: int = 32,
                           n_theta: int = 64, split_factor: float = 1.0) -> float:
    """I(t) = integral of log|z1|^2 eta over the fiber {z1 z2 = t}; the inner
    part is integrated in the z2 chart, where log|z1|^2 = log|t|^2 - log|z2|^2."""
    (_, logged1), (plain2, logged2) = _split_fiber(eta, t, radial_per_decade, n_theta,
                                                   split_factor)
    return logged1 + math.log(abs(t) ** 2) * plain2 - logged2


def fiber_integral(eta: EtaSpec, t: complex, radial_per_decade: int = 32,
                   n_theta: int = 64) -> float:
    """J(t) = integral of eta over the fiber (no logarithmic factor)."""
    (plain1, _), (plain2, _) = _split_fiber(eta, t, radial_per_decade, n_theta)
    return plain1 + plain2


def check_quadrature_convergence(eta: EtaSpec, t: complex,
                                 radial_per_decade: int = 32,
                                 n_theta: int = 64, tol: float = 1e-8) -> float:
    """Node-doubling change of I(t); raises if beyond tolerance."""
    a = fiber_annulus_integral(eta, t, radial_per_decade, n_theta)
    b = fiber_annulus_integral(eta, t, 2 * radial_per_decade, 2 * n_theta)
    change = abs(a - b)
    if change > tol * max(1.0, abs(b)):
        raise ConvergenceError("radial quadrature not converged",
                               {"change": change, "t": t})
    return change


def divisor_integral(eta: EtaSpec) -> float:
    """Reference slope: integral of eta_{22}(0, z2) over the unit disk {z1 = 0}.

    In closed form: only monomials free of z1 (a1 = b1 = 0) survive on the
    branch, and the angular integral keeps those with a2 = b2, each worth
    Re(c) * pi / (a2 + 1), the integral of |z2|^(2 a2) over the disk.
    """
    monos = eta.coeffs.get((2, 2), ())
    return float(sum(c.real * math.pi / (a2 + 1) for a1, b1, a2, b2, c in monos
                     if a1 == b1 == 0 and a2 == b2))


@dataclass(frozen=True)
class NodeIntegralCurve:
    """Samples of I(t) on a grid decreasing toward the origin."""

    t: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if not np.all(np.diff(np.abs(self.t)) < 0):
            raise ValidationError("t grid must decrease strictly toward 0")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("integral values must be finite")


def sample_curve(eta: EtaSpec, t_grid, radial_per_decade: int = 32,
                 n_theta: int = 64) -> NodeIntegralCurve:
    ts = np.asarray(sorted((complex(t) for t in t_grid), key=abs, reverse=True))
    values = [fiber_annulus_integral(eta, t, radial_per_decade, n_theta) for t in ts]
    return NodeIntegralCurve(t=ts, values=np.asarray(values))


@dataclass(frozen=True)
class AsymptoteFit:
    A_fit: float
    B_fit: float
    A_ref: float                  # closed-form divisor integral, the exact slope
    remainder_ratios: np.ndarray  # |I - A_ref X - B_ref| / (|t| log^2|t|)
    remainder_bounded: bool


def asymptote_fit(curve: NodeIntegralCurve, eta: EtaSpec) -> AsymptoteFit:
    """Fit I(t) = A log|t|^2 + B and certify the remainder scale.

    The remainder is measured against the oracle slope A_ref (divisor
    integral) with the constant pinned on the smallest-|t| samples, where
    the true remainder is negligible; boundedness then means the ratios do
    not grow as t decreases, up to the quadrature noise floor.
    """
    if curve.t.size < 6:
        raise ValidationError("need at least 6 samples")
    at = np.abs(curve.t)
    if at[0] / at[-1] < 1e3:
        raise ValidationError("samples must span at least 3 decades")
    X = 2.0 * np.log(at)
    A_fit, B_fit, _ = geometry.line_fit(X, curve.values)

    A_ref = divisor_integral(eta)
    # the middle of three; np.median would import numpy.ma for its NaN check
    B_ref = float(sorted(curve.values[-3:] - A_ref * X[-3:])[1])
    remainder = curve.values - (A_ref * X + B_ref)
    denom = at * np.log(at) ** 2
    ratios = np.abs(remainder) / denom
    # noise floor: quadrature accuracy spread over the shrinking denominator
    qtol = 1e-9 * max(1.0, float(np.max(np.abs(curve.values))))
    floors = qtol / denom
    half = at.size // 2
    large_side = float(np.max(ratios[:half]))
    small_side = float(np.max((ratios - floors)[half:]))
    bounded = small_side <= max(2.0 * large_side, 0.0) + 1e-12
    return AsymptoteFit(
        A_fit=A_fit,
        B_fit=B_fit,
        A_ref=A_ref,
        remainder_ratios=ratios,
        remainder_bounded=bool(bounded),
    )


def aitken_limit(values) -> float:
    """Aitken delta-squared limit of a sequence from its last three terms;
    exact for geometric convergence."""
    d1, d2, d3 = values[-3], values[-2], values[-1]
    denom = (d3 - d2) - (d2 - d1)  # Aitken's second difference
    return float(d3 if abs(denom) < 1e-300 else d1 - (d2 - d1) ** 2 / denom)


def gap_to_limit(values):
    """(Aitken limit of ``values``, |values - limit|, mask of the gaps above the
    rounding level 1e-13 * max(1, max|values|)): a converging sequence's error bar."""
    limit = aitken_limit(values)
    gap = np.abs(values - limit)
    return limit, gap, gap > 1e-13 * max(1.0, float(np.abs(values).max()))

