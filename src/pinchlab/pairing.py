"""The height pairing on the model family and its logarithmic asymptotics.

For two mean-zero densities a, b the pairing at parameter L = log(1/|s|) is
``integral(phi_a * b dA)`` with phi_a the preferred potential of a.  Its
leading behavior is affine in log|s|^2 = -2L, and the slope is predicted by
the intersection-matrix pseudoinverse applied to the component-integral
vectors.  This module evaluates the pairing, sweeps it over L, fits the
log-asymptote, and predicts its slope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dualgraph, geometry, potential
from .errors import ValidationError


def pairing_value(chain: geometry.WarpedChain, dens_a: geometry.DensityField,
                  dens_b: geometry.DensityField) -> float:
    """Pairing of two densities on one fiber: integral(phi_a * b dA)."""
    pot_a = potential.solve_direct(chain, dens_a)
    q_b = chain.load_vector(dens_b.quad_values)
    return float(pot_a.phi @ q_b)


def pairing_energy(chain: geometry.WarpedChain,
                   dens_a: geometry.DensityField) -> tuple[float, float]:
    """Self-pairing and its Dirichlet-energy form (1/4pi) |d phi|^2.

    The two must agree: the self-pairing is a positive quadratic form.
    """
    pot = potential.solve_direct(chain, dens_a)
    q = chain.load_vector(dens_a.quad_values)
    value = float(pot.phi @ q)
    energy = float(pot.phi @ (chain.operators.gradient @ pot.phi)) / geometry.FOUR_PI
    return value, energy


@dataclass(frozen=True)
class PairingCurve:
    """Sampled pairing over an L-grid, with the two densities of its largest-L chain."""

    L: np.ndarray
    s: np.ndarray
    values: np.ndarray
    densities: tuple[geometry.DensityField, ...] = field(default=(), repr=False)

    def __post_init__(self):
        if not np.all(np.diff(self.L) > 0):
            raise ValidationError("L grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("pairing values must be finite")


def pairing_sweep(cfg: geometry.FamilyConfig, a_builder, b_builder, L_grid,
                  resolution: int = 48) -> PairingCurve:
    """Evaluate the pairing on each chain of an L-grid.

    ``a_builder(chain) -> DensityField`` rebuilds each slot per chain (the
    mean-zero projection depends on the fiber), keeping the sweep
    deterministic and ordered by L.
    """
    Ls = np.sort(np.asarray(list(L_grid), dtype=float))
    values, densities = [], ()
    for L in Ls:
        chain = geometry.build_chain(cfg, float(L), resolution=resolution)
        densities = a_builder(chain), b_builder(chain)
        values.append(pairing_value(chain, *densities))
    return PairingCurve(L=Ls, s=np.exp(-Ls), values=np.asarray(values), densities=densities)


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
    return FitResult(*geometry.line_fit(-2.0 * curve.L[mask], curve.values[mask]))


def predicted_constant(g: dualgraph.DualGraph, dens_a: geometry.DensityField,
                       dens_b: geometry.DensityField) -> float:
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
    m_plus = dualgraph.pseudoinverse(dualgraph.build_intersection_matrix(g))
    return dualgraph.pairing_constant(m_plus, v_a, v_b)

