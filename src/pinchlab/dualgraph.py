"""Dual graphs of degenerate fibers and their intersection linear algebra.

A degenerate fiber is encoded combinatorially: one vertex per irreducible
component (with an area and a multiplicity), one edge per node.  The
intersection matrix built from this data is negative semidefinite with the
multiplicity vector spanning its kernel; its Moore-Penrose pseudoinverse
turns component integrals of a pair of densities into the logarithmic slope
of their height pairing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StructureError, ValidationError

# Eigenvalue tolerance for all symmetric sign/kernel decisions.  The matrices
# are tiny integer (or small-rational) matrices, so double precision is ample.
ZARISKI_TOL = 1e-10

# Relative eigenvalue cutoff used for pseudoinverse rank decisions.
PINV_CUTOFF = 1e-9


@dataclass(frozen=True)
class Component:
    label: str
    area: float
    multiplicity: int = 1


@dataclass(frozen=True)
class DualGraph:
    """Vertices = irreducible components, edges = nodes (self-loops allowed).

    Edges are unordered index pairs; parallel edges are kept (one entry per
    node).  A self-loop marks a node of an irreducible component.
    """

    components: tuple[Component, ...]
    edges: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        n = len(self.components)
        if n < 1:
            raise ValidationError("a dual graph needs at least one component")
        for comp in self.components:
            if not comp.area > 0:
                raise ValidationError(
                    f"component {comp.label!r} has non-positive area {comp.area}"
                )
            if comp.multiplicity < 1 or comp.multiplicity != int(comp.multiplicity):
                raise ValidationError(
                    f"component {comp.label!r} has invalid multiplicity "
                    f"{comp.multiplicity}"
                )
        for i, j in self.edges:
            if not (0 <= i < n and 0 <= j < n):
                raise StructureError(f"edge ({i}, {j}) references a missing component")
        if not _is_connected(n, self.edges):
            raise StructureError("dual graph is disconnected")

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def areas(self) -> np.ndarray:
        return np.array([c.area for c in self.components], dtype=float)

    @property
    def multiplicities(self) -> np.ndarray:
        return np.array([c.multiplicity for c in self.components], dtype=int)

    @property
    def reduced(self) -> bool:
        return bool(np.all(self.multiplicities == 1))


def _is_connected(n: int, edges) -> bool:
    """Whether every vertex is reached from vertex 0 along the edges."""
    linked, reached = edge_counts(n, edges) > 0, np.arange(n) == 0
    for _ in range(n):  # each pass adds the neighbours of the vertices reached so far
        reached |= linked[reached].any(axis=0)
    return bool(reached.all())


def edge_counts(n: int, edges) -> np.ndarray:
    """Symmetric count of the edges between distinct vertices.

    Self-loops carry no coupling and count nothing.  With D the diagonal of
    row sums, D - counts is the graph Laplacian L_G; for a reduced graph it
    equals minus the intersection matrix.
    """
    counts = np.zeros((n, n))
    for i, j in edges:
        if i != j:
            counts[i, j] += 1
            counts[j, i] += 1
    return counts


def build_intersection_matrix(g: DualGraph) -> np.ndarray:
    """Intersection matrix of the components of a degenerate fiber.

    Off-diagonal entries count edges between distinct vertices.  Diagonal
    entries are forced by the kernel condition M @ multiplicities = 0, so a
    self-loop contributes nothing to M: the +2 it adds to a vertex degree is
    cancelled by the +2 self-intersection of the nodal component (the fiber
    class squares to zero, cf. the single-vertex loop graph with M = [0]).
    """
    m = g.multiplicities
    M = edge_counts(g.n, g.edges)
    # written into M, not subtracted as a diagonal matrix: an isolated vertex
    # keeps the -0.0 that the catalog printout shows for I_1 and II
    np.fill_diagonal(M, -(M @ m) / m)
    return M


@dataclass(frozen=True)
class ZariskiReport:
    """Outcome of the sign/kernel checks on an intersection matrix."""

    max_eigenvalue: float
    kernel_dimension: int
    kernel_residual: float
    passed: bool


def validate_zariski(M: np.ndarray, mult: np.ndarray) -> ZariskiReport:
    """Check negative semidefiniteness, kernel dimension 1, and M @ mult = 0.

    Failures are reported in the result, never raised.
    """
    M = np.asarray(M, dtype=float)
    mult = np.asarray(mult, dtype=float)
    if M.shape[0] != M.shape[1]:
        raise ValidationError("intersection matrix must be square")
    if not np.allclose(M, M.T, atol=ZARISKI_TOL):
        raise ValidationError("intersection matrix must be symmetric")
    eigvals = np.linalg.eigvalsh(M)
    scale = max(1.0, float(np.max(np.abs(eigvals)))) if eigvals.size else 1.0
    kernel_dim = int(np.sum(np.abs(eigvals) <= ZARISKI_TOL * scale))
    residual = float(np.linalg.norm(M @ mult))
    passed = (
        float(eigvals[-1]) <= ZARISKI_TOL and kernel_dim == 1 and residual <= ZARISKI_TOL
    )
    return ZariskiReport(
        max_eigenvalue=float(eigvals[-1]),
        kernel_dimension=kernel_dim,
        kernel_residual=residual,
        passed=passed,
    )


def pseudoinverse(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via symmetric eigendecomposition.

    Eigenvalues below ``PINV_CUTOFF * max(|eigenvalue|)`` are treated as zero so
    that rank decisions stay stable against rounding.
    """
    M = np.asarray(M, dtype=float)
    if not np.allclose(M, M.T, atol=1e-12 * max(1.0, np.abs(M).max())):
        raise ValidationError("pseudoinverse requires a symmetric matrix")
    w, V = np.linalg.eigh(M)
    wmax = float(np.max(np.abs(w))) if w.size else 0.0
    if wmax == 0.0:
        return np.zeros_like(M)
    inv = np.where(np.abs(w) > PINV_CUTOFF * wmax, 1.0 / np.where(w == 0, 1.0, w), 0.0)
    return (V * inv) @ V.T


def pairing_constant(m_plus: np.ndarray, v_alpha: np.ndarray, v_beta: np.ndarray) -> float:
    """Predicted logarithmic slope v_alpha^T M^+ v_beta of two component-integral vectors.

    Both vectors must sum to zero (each comes from a density with zero fiber
    integral); a violation beyond 1e-9 * max(1, |v|) is rejected.
    """
    v_alpha = np.asarray(v_alpha, dtype=float)
    v_beta = np.asarray(v_beta, dtype=float)
    m_plus = np.asarray(m_plus, dtype=float)
    if v_alpha.shape != (m_plus.shape[0],) or v_beta.shape != (m_plus.shape[0],):
        raise ValidationError("vector dimensions do not match the matrix")
    for name, v in (("alpha", v_alpha), ("beta", v_beta)):
        if abs(float(np.sum(v))) > 1e-9 * max(1.0, float(np.linalg.norm(v))):
            raise ValidationError(
                f"component integrals of {name} do not sum to zero; "
                "integrability on general fibers is violated"
            )
    return float(v_alpha @ m_plus @ v_beta)


def kodaira_catalog(fiber_type: str) -> DualGraph:
    """Catalog of standard degenerate-fiber dual graphs.

    Supported tags: ``I_n`` (n >= 1), ``I_0*``, ``II``, ``III``, ``IV``.
    Cycle fibers I_n carry multiplicity 1 everywhere; the star fiber I_0*
    has a central component of multiplicity 2 and four leaves.
    """
    tag = fiber_type.strip().replace("_", "")
    if tag == "I0*":
        comps = tuple(
            Component(lbl, 1.0 / 5.0, mult)
            for lbl, mult in [("C1", 2), ("C2", 1), ("C3", 1), ("C4", 1), ("C5", 1)]
        )
        edges = tuple((0, k) for k in range(1, 5))
        return DualGraph(comps, edges)
    if tag == "II":
        # Cuspidal fiber: one component, the cusp is not a node.
        return DualGraph((Component("C1", 1.0),), ())
    if tag == "III":
        # Two components tangent at one point: intersection number 2.
        comps = (Component("C1", 0.5), Component("C2", 0.5))
        return DualGraph(comps, ((0, 1), (0, 1)))
    if tag == "IV":
        # Three concurrent lines: pairwise intersection number 1.
        comps = tuple(Component(f"C{k+1}", 1.0 / 3.0) for k in range(3))
        return DualGraph(comps, ((0, 1), (1, 2), (0, 2)))
    if tag.startswith("I") and tag[1:].isdigit():
        n = int(tag[1:])
        if n < 1:
            raise ValidationError(f"unknown fiber type {fiber_type!r}")
        return cycle_graph(np.full(n, 1.0 / n))
    raise ValidationError(f"unknown fiber type {fiber_type!r}")


def cycle_graph(areas) -> DualGraph:
    """Reduced cycle dual graph with prescribed areas (the chain-model graph)."""
    areas = np.asarray(areas, dtype=float)
    n = areas.size
    comps = tuple(Component(f"C{k+1}", float(areas[k])) for k in range(n))
    if n == 1:
        edges = ((0, 0),)
    elif n == 2:
        edges = ((0, 1), (0, 1))
    else:
        edges = tuple((k, (k + 1) % n) for k in range(n))
    return DualGraph(comps, edges)


def random_reduced_graph(n: int, seed: int) -> DualGraph:
    """Random connected reduced dual graph on ``n`` vertices.

    The seed is an explicit input so property suites are reproducible.
    A uniform random spanning tree skeleton is decorated with extra edges
    (parallel edges and the occasional self-loop allowed).
    """
    rng = np.random.default_rng(seed)
    extra_edges = int(rng.integers(0, n + 1))
    edges = []
    for v in range(1, n):
        edges.append((int(rng.integers(0, v)), v))
    for _ in range(extra_edges):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        if i == j and n > 1 and rng.random() < 0.7:
            j = (i + 1) % n  # bias away from self-loops, keep some
        edges.append((min(i, j), max(i, j)))
    areas = rng.uniform(0.2, 1.0, size=n)
    areas /= areas.sum()
    comps = tuple(Component(f"C{k+1}", float(areas[k])) for k in range(n))
    return DualGraph(comps, tuple(edges))


# ---------------------------------------------------------------------------
# Plain text format
# ---------------------------------------------------------------------------

def format_graph(g: DualGraph) -> str:
    """One ``component`` line per vertex, one ``edge`` line per node."""
    lines = [
        f"component {c.label} area={c.area!r} mult={c.multiplicity}"
        for c in g.components
    ]
    lines += [f"edge {i} {j}" for i, j in g.edges]
    return "\n".join(lines) + "\n"


def format_matrix(M: np.ndarray) -> str:
    """Rows printed one per line, tab-separated."""
    M = np.asarray(M)
    return "\n".join("\t".join(format(x, ".17g") for x in row) for row in M) + "\n"
