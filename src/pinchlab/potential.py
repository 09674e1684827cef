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

from . import dualgraph, geometry, spectral
from .errors import ConvergenceError, ValidationError


def _require_mean_zero(dens: geometry.DensityField):
    if abs(dens.total_integral) > 1e-10 * max(1.0, np.max(np.abs(dens.values), initial=0.0)):
        raise ValidationError(
            "density must integrate to zero on the fiber "
            "(integrability on general fibers)"
        )


@dataclass(frozen=True)
class PreferredPotential:
    """Mean-zero potential of a density."""

    chain: geometry.WarpedChain
    phi: np.ndarray

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.phi)))


@dataclass(frozen=True)
class SpectralCoefficients:
    """Raw expansion data b_i = (Phi_i, a); the potential's coefficients are b_i / lambda_i."""

    b: np.ndarray


def solve_direct(chain: geometry.WarpedChain, dens: geometry.DensityField) -> PreferredPotential:
    """Weighted Poisson solve S phi + mu w = rhs, w^T phi = 0 with w = M 1, in O(n).

    S is the Laplacian of the n-cycle with conductance g[i] from node i to
    i+1 mod n: (S phi)[i] = J[i] - J[i-1] for the fluxes J = g (phi - phi[i+1]).
    Summing gives mu = sum(rhs) / sum(w); J is then a cumulative sum plus the
    constant that makes the drops J / g add up to zero around the loop.  The
    residual of the first equation is checked.
    """
    _require_mean_zero(dens)
    S, n = chain.operators.gradient, chain.n_nodes
    w = chain.operators.mass @ np.ones(n)
    rhs = geometry.FOUR_PI * chain.load_vector(dens.quad_values)
    g = -S.off
    tol = 1e-8 * max(1.0, float(np.max(np.abs(rhs)))) * n
    with np.errstate(over="ignore", invalid="ignore"):  # huge L: the residual check fails
        mu = rhs.sum() / w.sum()
        flux = np.cumsum(rhs - mu * w)
        flux -= np.sum(flux / g) / np.sum(1.0 / g)
        phi = np.concatenate(([0.0], -np.cumsum(flux[:-1] / g[:-1])))
        phi -= phi @ w / w.sum()
        resid = float(np.linalg.norm(S @ phi - rhs + mu * w))
    if not resid <= tol:
        raise ConvergenceError("direct solve residual beyond tolerance",
                               {"residual": resid, "tolerance": tol, "n": n})
    return PreferredPotential(chain=chain, phi=phi)


def solve_spectral(chain: geometry.WarpedChain, dens: geometry.DensityField,
                   eigsys: spectral.EigenSystem):
    """Expand the potential through the mode-0 eigenbasis.

    phi = 4*pi * sum_i (b_i / lambda_i) Phi_i over every positive mode-0
    eigenvalue of ``eigsys``; with the full basis this reproduces the direct
    solve.  Returns (PreferredPotential, SpectralCoefficients).
    """
    _require_mean_zero(dens)
    q = chain.load_vector(dens.quad_values)
    used = np.flatnonzero((eigsys.modes == 0) & (eigsys.lam > 1e-9))
    lam = eigsys.lam[used]
    basis = eigsys.eigenvectors(used).T
    b = basis @ q
    phi = geometry.FOUR_PI * ((b / lam) @ basis)
    return PreferredPotential(chain=chain, phi=phi), SpectralCoefficients(b=b)


def split_low_high(pot: PreferredPotential, eigsys: spectral.EigenSystem):
    """Orthogonal split of phi into the collapsing span and its complement.

    low lies in span{Phi_1 .. Phi_{N-1}}, high is orthogonal to the constant
    and the low span; low + high + mean = phi exactly.
    """
    M = pot.chain.operators.mass
    Mphi = M @ pot.phi
    low = np.zeros_like(pot.phi)
    for vec in eigsys.eigenvectors(eigsys.low).T:
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
        chain = geometry.build_chain(cfg, L, resolution=resolution)
        dens = density_builder(chain)
        eigsys = spectral.full_spectrum(chain, m_max=0, k_per_mode=8)  # the split reads mode 0
        pot = solve_direct(chain, dens)
        low, high = split_low_high(pot, eigsys)
        sup_low = float(np.max(np.abs(low)))
        sup_high = float(np.max(np.abs(high)))
        sup_a = float(np.max(np.abs(dens.values))) if dens.values.size else 0.0
        quad_abs = np.abs(dens.quad_values)
        fat_cell = np.array([seg.kind == "fat" for seg in chain.segments])[chain.cell_segment]
        weights = geometry.TWO_PI * chain.cell_c * chain.quad_w
        l1_fat = float(np.sum(quad_abs * weights * fat_cell[:, None]))
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
    lsq_ratio = ratio(lambda r: r.sup_low_over_sqrtL)
    return EstimateTable(
        rows=tuple(rows),
        low_over_sqrtL_endpoint_ratio=lsq_ratio,
        high_bounded=high_ratio <= 1.25,
        low_over_sqrtL_decreasing=lsq_ratio <= 0.5,
    )


def circuit_potentials(g: dualgraph.DualGraph, conductance: float,
                       v: np.ndarray) -> np.ndarray:
    """Network oracle: plateau potentials from the conductance circuit.

    Solves kappa * L_G phi = 4*pi*v on the component network (mean zero
    against the areas), the collapsed limit of the chain Poisson problem.
    L_G = -M holds on reduced graphs, so phi = -(4*pi/kappa) M^+ v.
    """
    if not g.reduced:
        raise ValidationError("the circuit oracle requires a reduced graph")
    m_plus = dualgraph.pseudoinverse(dualgraph.build_intersection_matrix(g))
    phi = -(geometry.FOUR_PI / conductance) * (m_plus @ np.asarray(v, dtype=float))
    return phi - np.dot(phi, g.areas) / g.areas.sum()
