"""Preferred potentials of densities on a chain fiber.

A density a(x) with zero area integral has a unique potential phi solving
``laplace(phi) = -4*pi*a`` with zero mean against the area measure (the
factor 4*pi comes from reading a as the density of a normalized curvature
form; the energy identity then reads
``pairing(a, a) = (1/4*pi) * integral(|d phi|^2 dA)``).

Two independent routes are provided: a direct weighted Poisson solve with a
Lagrange multiplier enforcing the mean, and a spectral expansion through the
mode-0 eigenbasis whose coefficients b_i / lambda_i expose the mechanism
behind the logarithmic growth: the collapsing eigenvalues sit in the
denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .dualgraph import edge_counts
from .errors import ConvergenceError, ValidationError
from .geometry import FOUR_PI, TWO_PI, DensityField, WarpedChain, build_chain
from .spectral import EigenSystem, full_spectrum


def _require_mean_zero(dens: DensityField):
    if abs(dens.total_integral) > 1e-10 * dens.norm_scale():
        raise ValidationError(
            "density must integrate to zero on the fiber "
            "(integrability on general fibers)"
        )


@dataclass(frozen=True)
class PreferredPotential:
    """Mean-zero potential of a density."""

    chain: WarpedChain
    phi: np.ndarray
    mean: float

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.phi)))


@dataclass(frozen=True)
class SpectralCoefficients:
    """Raw expansion data b_i = (Phi_i, a), c_i = b_i / lambda_i."""

    b: np.ndarray
    c: np.ndarray
    eigenvalues: np.ndarray


def solve_direct(chain: WarpedChain, dens: DensityField) -> PreferredPotential:
    """Weighted Poisson solve with the mean constraint as a multiplier row.

    The sparse LU of [[S, w], [w^T, 0]] with w = M 1 keeps the system
    symmetric and avoids pinning a grid point; the residual of the
    unconstrained equation is checked.
    """
    _require_mean_zero(dens)
    n = chain.n_nodes
    S = chain.operators.gradient
    w = chain.operators.mass @ np.ones(n)
    coo = S.tocoo()
    nodes, last = np.arange(n), np.full(n, n)
    K = scipy.sparse.csc_array(
        (np.concatenate([coo.data, w, w]),
         (np.concatenate([coo.row, nodes, last]), np.concatenate([coo.col, last, nodes]))),
        shape=(n + 1, n + 1))
    rhs = FOUR_PI * chain.load_vector(dens.quad_values)
    sol = scipy.sparse.linalg.splu(K).solve(np.append(rhs, 0.0))
    phi = sol[:n]
    tol = 1e-8 * max(1.0, float(np.max(np.abs(rhs)))) * n
    resid = float(np.linalg.norm(S @ phi - rhs + sol[n] * w))
    if resid > tol:
        raise ConvergenceError("direct solve residual beyond tolerance",
                               {"residual": resid, "tolerance": tol, "n": n})
    mean = float(phi @ w / np.sum(w))
    return PreferredPotential(chain=chain, phi=phi, mean=mean)


def solve_spectral(chain: WarpedChain, dens: DensityField, eigsys: EigenSystem,
                   k_trunc: int | None = None):
    """Expand the potential through the mode-0 eigenbasis.

    phi = 4*pi * sum_i (b_i / lambda_i) Phi_i over the positive mode-0
    eigenvalues; with the full basis this reproduces the direct solve.
    Returns (PreferredPotential, SpectralCoefficients).
    """
    _require_mean_zero(dens)
    positives = np.flatnonzero((eigsys.modes == 0) & (eigsys.lam > 1e-9))
    if k_trunc is None:
        k_trunc = positives.size
    if k_trunc > positives.size:
        raise ValidationError(
            f"truncation {k_trunc} exceeds the {positives.size} available "
            "mode-0 eigenpairs"
        )
    q = chain.load_vector(dens.quad_values)
    used = positives[:k_trunc]
    lam = eigsys.lam[used]
    basis = eigsys.vecs[:, used].T
    b = basis @ q
    c = b / lam
    phi = FOUR_PI * (c @ basis)
    w = chain.operators.mass @ np.ones(chain.n_nodes)
    mean = float(phi @ w / np.sum(w))
    pot = PreferredPotential(chain=chain, phi=phi, mean=mean)
    coeffs = SpectralCoefficients(b=b, c=c, eigenvalues=lam)
    return pot, coeffs


def split_low_high(pot: PreferredPotential, eigsys: EigenSystem):
    """Orthogonal split of phi into the collapsing span and its complement.

    low lies in span{Phi_1 .. Phi_{N-1}}, high is orthogonal to the constant
    and the low span; low + high + mean = phi exactly.
    """
    M = pot.chain.operators.mass
    Mphi = M @ pot.phi
    low = np.zeros_like(pot.phi)
    for vec in eigsys.vecs[:, eigsys.low].T:
        low += float(Mphi @ vec) * vec
    mean = float(np.sum(Mphi) / M.sum())
    high = pot.phi - low - mean
    return low, high


@dataclass(frozen=True)
class EstimateRow:
    L: float
    sup_high: float
    sup_low: float
    sup_low_over_L: float
    sup_low_over_sqrtL: float
    sup_a: float
    l1_a_fat: float
    l1_a_full: float


@dataclass(frozen=True)
class EstimateTable:
    rows: tuple[EstimateRow, ...]
    high_endpoint_ratio: float
    low_over_L_endpoint_ratio: float
    low_over_sqrtL_endpoint_ratio: float
    high_bounded: bool           # endpoint ratio <= 1.25
    low_over_sqrtL_decreasing: bool  # endpoint ratio <= 0.5


def estimate_report(cfg, L_values, density_builder, resolution: int = 48) -> EstimateTable:
    """Sweep the sup-norm estimates of the potential split over L.

    ``density_builder(chain) -> DensityField`` rebuilds the density on each
    chain of the sweep.  Requires at least 4 values spanning a factor >= 8.
    """
    L_values = sorted(float(L) for L in L_values)
    if len(L_values) < 4 or L_values[-1] / L_values[0] < 8.0:
        raise ValidationError("sweep needs >= 4 values spanning a factor >= 8")
    rows = []
    for L in L_values:
        chain = build_chain(cfg, L, resolution=resolution)
        dens = density_builder(chain)
        eigsys = full_spectrum(chain, m_max=2, k_per_mode=8)
        pot = solve_direct(chain, dens)
        low, high = split_low_high(pot, eigsys)
        sup_low = float(np.max(np.abs(low)))
        sup_high = float(np.max(np.abs(high)))
        sup_a = float(np.max(np.abs(dens.values))) if dens.values.size else 0.0
        quad_abs = np.abs(dens.quad_values)
        fat_mask = np.zeros_like(quad_abs, dtype=bool)
        for seg_idx, seg in enumerate(chain.segments):
            if seg.kind == "fat":
                fat_mask[chain.cell_segment == seg_idx] = True
        weights = TWO_PI * chain.quad_c * chain.quad_w
        l1_fat = float(np.sum(quad_abs * weights * fat_mask))
        l1_full = float(np.sum(quad_abs * weights))
        rows.append(EstimateRow(
            L=L,
            sup_high=sup_high,
            sup_low=sup_low,
            sup_low_over_L=sup_low / L,
            sup_low_over_sqrtL=sup_low / math.sqrt(L),
            sup_a=sup_a,
            l1_a_fat=l1_fat,
            l1_a_full=l1_full,
        ))

    def ratio(get):
        a, b = get(rows[0]), get(rows[-1])
        return b / a if a > 0 else (0.0 if b == 0 else float("inf"))

    high_ratio = ratio(lambda r: r.sup_high)
    lL_ratio = ratio(lambda r: r.sup_low_over_L)
    lsq_ratio = ratio(lambda r: r.sup_low_over_sqrtL)
    return EstimateTable(
        rows=tuple(rows),
        high_endpoint_ratio=high_ratio,
        low_over_L_endpoint_ratio=lL_ratio,
        low_over_sqrtL_endpoint_ratio=lsq_ratio,
        high_bounded=high_ratio <= 1.25,
        low_over_sqrtL_decreasing=lsq_ratio <= 0.5,
    )


def circuit_potentials(g_areas, edges, conductance: float, v: np.ndarray) -> np.ndarray:
    """Network oracle: plateau potentials from the conductance circuit.

    Solves kappa * L_G phi = 4*pi*v on the component network (mean zero
    against the areas), the collapsed limit of the chain Poisson problem.
    """
    areas = np.asarray(g_areas, dtype=float)
    counts = edge_counts(areas.size, edges)
    L_G = conductance * (np.diag(counts.sum(axis=1)) - counts)
    phi = np.linalg.pinv(L_G) @ (FOUR_PI * np.asarray(v, dtype=float))
    phi -= np.dot(phi, areas) / areas.sum()
    return phi
