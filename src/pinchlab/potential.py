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
    source: DensityField
    method: str                    # "direct" or "spectral"

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.phi)))


@dataclass(frozen=True)
class SpectralCoefficients:
    """Raw expansion data b_i = (Phi_i, a), c_i = b_i / lambda_i."""

    b: np.ndarray
    c: np.ndarray
    eigenvalues: np.ndarray


class PoissonSystem:
    """Sparse LU of a chain's mode-0 Poisson system, bordered by the mean row.

    [[S, w], [w^T, 0]] with w = M 1 keeps the system symmetric and avoids
    pinning a grid point; one factorization serves any number of densities.
    """

    def __init__(self, chain: WarpedChain):
        n = chain.n_nodes
        self.chain = chain
        self.S = chain.operators.gradient
        self.w = chain.operators.mass @ np.ones(n)
        S = self.S.tocoo()
        nodes, last = np.arange(n), np.full(n, n)
        K = scipy.sparse.csc_array(
            (np.concatenate([S.data, self.w, self.w]),
             (np.concatenate([S.row, nodes, last]), np.concatenate([S.col, last, nodes]))),
            shape=(n + 1, n + 1))
        self.lu = scipy.sparse.linalg.splu(K)

    def solve(self, dens: DensityField) -> PreferredPotential:
        """Potential of ``dens``; the residual of the unconstrained equation is checked."""
        _require_mean_zero(dens)
        n = self.chain.n_nodes
        rhs = FOUR_PI * self.chain.load_vector(dens.quad_values)
        sol = self.lu.solve(np.append(rhs, 0.0))
        phi = sol[:n]
        tol = 1e-8 * max(1.0, float(np.max(np.abs(rhs)))) * n
        resid = float(np.linalg.norm(self.S @ phi - rhs + sol[n] * self.w))
        if resid > tol:
            raise ConvergenceError("direct solve residual beyond tolerance",
                                   {"residual": resid, "tolerance": tol, "n": n})
        mean = float(phi @ self.w / np.sum(self.w))
        return PreferredPotential(chain=self.chain, phi=phi, mean=mean,
                                  source=dens, method="direct")


def solve_direct(chain: WarpedChain, dens: DensityField, *,
                 system: PoissonSystem | None = None) -> PreferredPotential:
    """Weighted Poisson solve with the mean constraint as a multiplier row.

    ``system`` reuses a factorization of this chain's Poisson system.
    """
    if system is None:
        system = PoissonSystem(chain)
    elif system.chain is not chain:
        raise ValidationError("Poisson system belongs to another chain")
    return system.solve(dens)


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
    pot = PreferredPotential(chain=chain, phi=phi, mean=mean,
                             source=dens, method="spectral")
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


def flux_report(chain: WarpedChain, pot: PreferredPotential) -> np.ndarray:
    """Net outward flux 2*pi*c*phi' through the necks bounding each component.

    For a solved potential this matches -4*pi * (component integral of the
    source): the circuit mechanism behind the linear-in-L growth.
    """
    if chain.cfg.no_neck:
        raise ValidationError("flux accounting needs necks")
    n = chain.n_nodes
    h = chain.cell_lengths
    phi_ext = np.append(pot.phi, pot.phi[0])
    slope = np.diff(phi_ext) / h
    flux_at = {}
    for neck in chain.neck_segments():
        mid = neck.x0 + neck.length / 2
        cell = int(np.searchsorted(chain.nodes, mid, side="right") - 1)
        flux_at[neck.index] = TWO_PI * neck.c * slope[cell]
    N = chain.cfg.n_components
    out = np.zeros(N)
    for i in range(N):
        out[i] = flux_at[i] - flux_at[(i - 1) % N]
    return out


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


def estimate_report(cfg, L_values, density_builder, resolution: int = 48,
                    m_max: int = 2, k_per_mode: int = 8) -> EstimateTable:
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
        eigsys = full_spectrum(chain, m_max=m_max, k_per_mode=k_per_mode)
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
