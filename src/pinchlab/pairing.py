"""The height pairing on the model family and its logarithmic asymptotics.

For two mean-zero densities a, b the pairing at parameter L = log(1/|s|) is
``integral(phi_a * b dA)`` with phi_a the preferred potential of a.  Its
leading behavior is affine in log|s|^2 = -2L, and the slope is predicted by
the intersection-matrix pseudoinverse applied to the component-integral
vectors.  This module evaluates the pairing, sweeps it over L, fits the
log-asymptote, and checks the reparametrization consistency under base
change s = t^d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dualgraph import DualGraph, build_intersection_matrix, pairing_constant, pseudoinverse
from .errors import ValidationError
from .geometry import FOUR_PI, DensityField, FamilyConfig, WarpedChain, build_chain
from .nodeintegral import aitken_limit
from .potential import solve_direct


def pairing_value(chain: WarpedChain, dens_a: DensityField, dens_b: DensityField) -> float:
    """Pairing of two densities on one fiber: integral(phi_a * b dA)."""
    pot_a = solve_direct(chain, dens_a)
    q_b = chain.load_vector(dens_b.quad_values)
    return float(pot_a.phi @ q_b)


def pairing_energy(chain: WarpedChain, dens_a: DensityField) -> tuple[float, float]:
    """Self-pairing and its Dirichlet-energy form (1/4pi) |d phi|^2.

    The two must agree: the self-pairing is a positive quadratic form.
    """
    pot = solve_direct(chain, dens_a)
    q = chain.load_vector(dens_a.quad_values)
    value = float(pot.phi @ q)
    energy = float(pot.phi @ (chain.operators.gradient @ pot.phi)) / FOUR_PI
    return value, energy


@dataclass(frozen=True)
class PairingCurve:
    """Sampled pairing over an L-grid."""

    L: np.ndarray
    s: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if not np.all(np.diff(self.L) > 0):
            raise ValidationError("L grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("pairing values must be finite")


def pairing_sweep(cfg: FamilyConfig, a_builder, b_builder, L_grid,
                  resolution: int = 48) -> PairingCurve:
    """Evaluate the pairing on each chain of an L-grid.

    ``a_builder(chain) -> DensityField`` rebuilds each slot per chain (the
    mean-zero projection depends on the fiber), keeping the sweep
    deterministic and ordered by L.
    """
    Ls = np.sort(np.asarray(list(L_grid), dtype=float))
    values = []
    for L in Ls:
        chain = build_chain(cfg, float(L), resolution=resolution)
        values.append(pairing_value(chain, a_builder(chain), b_builder(chain)))
    return PairingCurve(L=Ls, s=np.exp(-Ls), values=np.asarray(values))


@dataclass(frozen=True)
class FitResult:
    """Affine fit value = intercept + c_fit * log|s|^2 (regressor -2L)."""

    c_fit: float
    intercept: float
    residual_rms: float


def fit_log_asymptote(curve: PairingCurve, window: tuple[float, float] = (50.0, 200.0)
                      ) -> FitResult:
    lo, hi = window
    mask = (curve.L >= lo) & (curve.L <= hi)
    if int(mask.sum()) < 4:
        raise ValidationError("fit window must contain at least 4 samples")
    x = -2.0 * curve.L[mask]
    y = curve.values[mask]
    A = np.stack([x, np.ones_like(x)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return FitResult(
        c_fit=float(slope),
        intercept=float(intercept),
        residual_rms=rms,
    )


def predicted_constant(g: DualGraph, dens_a: DensityField, dens_b: DensityField) -> float:
    """Slope prediction v_a^T M^+ v_b from the component integrals.

    The fat-only component integrals carry an O(1/L) ambiguity that lies in
    the kernel direction of the pseudoinverse, so they are centered exactly
    before evaluation.
    """
    if not g.reduced:
        raise ValidationError("the slope formula is stated for reduced fibers")
    v_a = np.asarray(dens_a.component_integrals, dtype=float)
    v_b = np.asarray(dens_b.component_integrals, dtype=float)
    v_a = v_a - v_a.mean()
    v_b = v_b - v_b.mean()
    m_plus = pseudoinverse(build_intersection_matrix(g))
    return pairing_constant(m_plus, v_a, v_b)


def pullback_chain(cfg: FamilyConfig, L_t: float, d: int, resolution: int = 48) -> WarpedChain:
    """Chain of the base-changed family at parameter t: neck weight 1/(d*L_t).

    Under s = t^d the degeneration parameter satisfies L_s = d * L_t; the
    pulled-back family is the same model with the rescaled neck weight.
    """
    if d < 1:
        raise ValidationError("base-change degree must be a positive integer")
    return build_chain(cfg, d * L_t, resolution=resolution)


@dataclass(frozen=True)
class BaseChangeReport:
    degree: int
    max_discrepancy: float
    slope_in_t: float
    slope_in_s: float


def base_change_consistency(cfg: FamilyConfig, d: int, t_L_grid, a_builder,
                            b_builder, resolution: int = 48) -> BaseChangeReport:
    """Check pairing(s = t^d) against the pairing of the pulled-back family.

    In the model both sides are the same chain by construction, so this is a
    reparametrization consistency check; the fitted slopes in the two
    conventions must differ by exactly the factor d.
    """
    t_Ls = np.sort(np.asarray(list(t_L_grid), dtype=float))
    vals_s = []
    vals_t = []
    for L_t in t_Ls:
        chain_s = build_chain(cfg, d * float(L_t), resolution=resolution)
        vals_s.append(pairing_value(chain_s, a_builder(chain_s), b_builder(chain_s)))
        chain_t = pullback_chain(cfg, float(L_t), d, resolution=resolution)
        vals_t.append(pairing_value(chain_t, a_builder(chain_t), b_builder(chain_t)))
    vals_s = np.asarray(vals_s)
    vals_t = np.asarray(vals_t)
    disc = float(np.max(np.abs(vals_s - vals_t)))
    scale = max(1.0, float(np.max(np.abs(vals_s))))

    curve_t = PairingCurve(L=t_Ls, s=np.exp(-t_Ls), values=vals_t)
    curve_s = PairingCurve(L=d * t_Ls, s=np.exp(-d * t_Ls), values=vals_s)
    window_t = (float(t_Ls[0]), float(t_Ls[-1]))
    window_s = (float(d * t_Ls[0]), float(d * t_Ls[-1]))
    slope_t = fit_log_asymptote(curve_t, window_t).c_fit
    slope_s = fit_log_asymptote(curve_s, window_s).c_fit
    return BaseChangeReport(
        degree=d,
        max_discrepancy=disc / scale,
        slope_in_t=slope_t,
        slope_in_s=slope_s,
    )


@dataclass(frozen=True)
class HolderProbe:
    """Exploratory decay-model comparison for a converging pairing curve."""

    converged: bool
    limit_estimate: float
    best_family: str            # "power" or "exponential"
    power_exponent: float
    power_rms: float            # of the line fitted to log|value - limit|
    exp_rate: float
    exp_rms: float              # likewise


def holder_probe(curve: PairingCurve) -> HolderProbe:
    """Fit |value - limit| against power-law and exponential decay families.

    The limit is the Aitken extrapolation of the last three samples;
    log|value - limit| is then fitted by a line in log L (power law) and in
    L (exponential).  Output is exploratory data, never a pass/fail: the
    sharp modulus of continuity of the extension is an open question.
    """
    L = curve.L
    y = curve.values
    if L.size < 5:
        raise ValidationError("probe needs at least 5 samples")
    diffs = np.abs(np.diff(y))
    converged = bool(diffs[-1] <= diffs[0] + 1e-15)
    limit = aitken_limit(y)
    gap = np.abs(y - limit)
    mask = gap > 1e-13 * max(1.0, float(np.abs(y).max()))
    if int(mask.sum()) < 2:
        raise ValidationError("probe needs 2 samples distinguishable from the limit")
    log_gap = np.log(gap[mask])
    fits = []
    for x in (np.log(L[mask]), L[mask]):  # power law, then exponential
        slope, intercept = np.polyfit(x, log_gap, 1)
        resid = log_gap - (slope * x + intercept)
        fits.append((-float(slope), float(np.sqrt(np.mean(resid**2)))))
    (power_exponent, power_rms), (exp_rate, exp_rms) = fits
    return HolderProbe(
        converged=converged,
        limit_estimate=limit,
        best_family="power" if power_rms <= exp_rms else "exponential",
        power_exponent=power_exponent,
        power_rms=power_rms,
        exp_rate=exp_rate,
        exp_rms=exp_rms,
    )
