"""Warped circle-chain model of a degenerating fiber, and densities on it.

The model fiber is a circle of length P carrying the metric
``dx^2 + c(x)^2 dtheta^2`` with a piecewise-constant circumference profile:
N "fat" segments of weight ``c_fat`` (one per irreducible component,
Riemannian area A_i each) alternating with N "neck" segments of weight
``c_thin = 1/L``, where ``L = log(1/|s|)`` plays the role of the degeneration
parameter.  Each neck then has conductance ``2*pi*c_thin/l0 = 2*pi/L``,
matching the modulus of the flat annulus over a node, and the total thin area
``2*pi*N/L`` collapses as L grows.

Densities are theta-invariant functions a(x) read against the area measure
dA = 2*pi*c(x) dx; they model the fiberwise restriction of a family of forms
with zero fiber integral.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError

TWO_PI = 2.0 * math.pi
FOUR_PI = 2.0 * TWO_PI

# 4-point Gauss-Legendre rule on [-1, 1]; exact for the piecewise-constant
# data used here and far beyond tolerance for the low trigonometric terms.
# The node integrals use the same rule on their radial panels.
GL_X, GL_W = np.polynomial.legendre.leggauss(4)


@dataclass(frozen=True)
class FamilyConfig:
    """Geometry of the model family (areas, neck shape, smoothing)."""

    n_components: int
    areas: tuple[float, ...] | None = None
    neck_length: float = 1.0
    fat_circumference: float = 1.0 / TWO_PI
    smoothing_width: float = 0.0
    no_neck: bool = False

    def __post_init__(self):
        if self.n_components < 1:
            raise ValidationError("need at least one component")
        if self.areas is not None and len(self.areas) != self.n_components:
            raise ValidationError("areas length must equal n_components")
        if self.areas is not None and not all(0 < a < math.inf for a in self.areas):
            raise ValidationError("all component areas must be positive and finite")
        if not 0 < self.neck_length < math.inf:
            raise ValidationError("neck_length must be positive and finite, "
                                  f"got {self.neck_length}")
        if not 0 < self.fat_circumference < math.inf:
            raise ValidationError("fat_circumference must be positive and finite, "
                                  f"got {self.fat_circumference}")
        if not 0 <= self.smoothing_width < math.inf:
            raise ValidationError("smoothing_width must be nonnegative and finite, "
                                  f"got {self.smoothing_width}")
        if self.no_neck and self.n_components != 1:
            raise ValidationError("the no-neck degenerate family requires N = 1")

    def area_vector(self) -> np.ndarray:
        if self.areas is None:
            return np.full(self.n_components, 1.0 / self.n_components)
        return np.asarray(self.areas, dtype=float)


@dataclass(frozen=True)
class Segment:
    kind: str          # "fat" or "neck"
    index: int         # component index for fat, neck index for neck
    x0: float
    x1: float
    c: float

    @property
    def length(self) -> float:
        return self.x1 - self.x0


@dataclass(frozen=True)
class WarpedChain:
    """Discretized model fiber at a single value of L = log(1/|s|)."""

    cfg: FamilyConfig
    L: float
    segments: tuple[Segment, ...]
    total_length: float
    nodes: np.ndarray          # strictly increasing, nodes[0] = 0, last < P
    cell_segment: np.ndarray   # segment index per cyclic cell

    # per-cell quadrature tables filled in by build_chain
    quad_x: np.ndarray = field(repr=False, default=None)
    quad_w: np.ndarray = field(repr=False, default=None)   # line measure dx
    quad_c: np.ndarray = field(repr=False, default=None)

    @property
    def s(self) -> float:
        return math.exp(-self.L)

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def c_fat(self) -> float:
        return self.cfg.fat_circumference

    @property
    def c_thin(self) -> float:
        # neck weight scaled so the conductance 2*pi*c_thin/l0 is exactly
        # the flat-annulus value 2*pi/L for every neck length
        return self.cfg.neck_length / self.L

    @property
    def cell_lengths(self) -> np.ndarray:
        ext = np.append(self.nodes, self.total_length)
        return np.diff(ext)

    @property
    def neck_conductance(self) -> float:
        """Per-neck conductance 2*pi*c_thin / neck_length (equals 2*pi/L)."""
        return TWO_PI * self.c_thin / self.cfg.neck_length

    def circumference(self, x) -> np.ndarray:
        """Profile c(x), with an optional linear smoothing ramp at interfaces."""
        x = np.mod(np.asarray(x, dtype=float), self.total_length)
        out = np.empty_like(x)
        for seg in self.segments:
            mask = (x >= seg.x0 - 1e-15) & (x < seg.x1)
            out[mask] = seg.c
        w = self.cfg.smoothing_width
        if w > 0 and len(self.segments) > 1:
            P = self.total_length
            for k, seg in enumerate(self.segments):
                nxt = self.segments[(k + 1) % len(self.segments)]
                xi = seg.x1 % P
                d = x - xi
                d = np.where(d > P / 2, d - P, np.where(d < -P / 2, d + P, d))
                mask = np.abs(d) <= w / 2
                t = (d[mask] + w / 2) / w
                out[mask] = seg.c + (nxt.c - seg.c) * t
        return out

    def fat_segments(self) -> list[Segment]:
        return [s for s in self.segments if s.kind == "fat"]

    def neck_segments(self) -> list[Segment]:
        return [s for s in self.segments if s.kind == "neck"]

    def integrate_area(self, values_at_quad: np.ndarray) -> float:
        """Integral against dA = 2*pi*c(x) dx of samples on the quad table."""
        return TWO_PI * float(np.sum(values_at_quad * self.quad_c * self.quad_w))

    @functools.cached_property
    def _p1_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Hat functions of node i and node i+1 mod n at cell i's quadrature points."""
        xi = (self.quad_x - self.nodes[:, None]) / self.cell_lengths[:, None]
        return 1.0 - xi, xi

    @functools.cached_property
    def operators(self) -> ChainOperators:
        """``chain_operators(self)``, kept in the instance dict: a pickled chain carries it."""
        return chain_operators(self)

    def load_vector(self, values_at_quad: np.ndarray) -> np.ndarray:
        """q[v] = integral(a * hat_v dA) of samples a on the quad table."""
        psi_l, psi_r = self._p1_basis
        common = TWO_PI * values_at_quad * self.quad_c * self.quad_w
        return np.sum(common * psi_l, axis=1) + np.roll(np.sum(common * psi_r, axis=1), 1)


def build_chain(cfg: FamilyConfig, L: float, resolution: int = 64) -> WarpedChain:
    """Lay out the alternating fat/neck segments and the cyclic grid.

    Every interface lands exactly on a grid node, so piecewise data is smooth
    within each cell.  Model validity requires ``c_thin = 1/L < c_fat``.
    """
    if resolution < 8:
        raise ValidationError("resolution must be at least 8 nodes per unit length")
    if not 0 < L < math.inf:
        raise ValidationError(f"L must be positive and finite, got {L}")
    c_thin = cfg.neck_length / L
    if not cfg.no_neck and c_thin >= cfg.fat_circumference:
        raise ValidationError(
            f"model validity requires L > "
            f"{cfg.neck_length / cfg.fat_circumference:.6g} "
            f"(neck weight must stay below c_fat); got L = {L}"
        )
    areas = cfg.area_vector()
    fat_lengths = areas / (TWO_PI * cfg.fat_circumference)

    segments: list[Segment] = []
    x = 0.0
    for i in range(cfg.n_components):
        x1 = x + float(fat_lengths[i])
        segments.append(Segment("fat", i, x, x1, cfg.fat_circumference))
        x = x1
        if not cfg.no_neck:
            x2 = x1 + cfg.neck_length
            segments.append(Segment("neck", i, x1, x2, c_thin))
            x = x2
    P = x
    min_len = min(s.length for s in segments)
    if min_len <= 0:
        raise ValidationError("degenerate segment length in chain layout")
    if cfg.smoothing_width > min_len:
        raise ValidationError("smoothing_width exceeds the shortest segment")

    nodes: list[float] = []
    cell_segment: list[int] = []
    for si, seg in enumerate(segments):
        ncell = max(1, int(math.ceil(resolution * seg.length - 1e-9)))
        step = seg.length / ncell
        for k in range(ncell):
            nodes.append(seg.x0 + k * step)
            cell_segment.append(si)
    nodes_arr = np.asarray(nodes)
    chain = WarpedChain(
        cfg=cfg,
        L=float(L),
        segments=tuple(segments),
        total_length=P,
        nodes=nodes_arr,
        cell_segment=np.asarray(cell_segment, dtype=int),
    )
    h = chain.cell_lengths
    qx = nodes_arr[:, None] + (0.5 * (GL_X + 1.0))[None, :] * h[:, None]
    qw = (0.5 * GL_W)[None, :] * h[:, None]
    qc = chain.circumference(qx.ravel()).reshape(qx.shape)
    return replace(chain, quad_x=qx, quad_w=qw, quad_c=qc)


@dataclass(frozen=True)
class ChainOperators:
    """CSR weak forms of one chain, shared by every angular mode.

    stiffness(m) = gradient + m^2 * potential with
    gradient  = 2*pi * integral(c u' v'),
    potential = 2*pi * integral((1/c) u v),
    mass      = 2*pi * integral(c u v);
    all three are symmetric and cyclic tridiagonal.
    """

    gradient: scipy.sparse.csr_array
    potential: scipy.sparse.csr_array
    mass: scipy.sparse.csr_array

    def stiffness(self, m: int) -> scipy.sparse.csr_array:
        if m < 0:
            raise ValidationError("angular mode must be nonnegative")
        return self.gradient if m == 0 else self.gradient + (m * m) * self.potential


def _cyclic_tridiagonal(ll: np.ndarray, lr: np.ndarray, rr: np.ndarray
                        ) -> scipy.sparse.csr_array:
    """Sum of the cell matrices [[ll, lr], [lr, rr]] over cells (i, i+1 mod n)."""
    # imported on first use: a module-level import made a fresh
    # `import pinchlab.cli` 15-20 ms slower (Python 3.11, 2-core Xeon)
    import scipy.sparse
    n = ll.size
    i = np.arange(n)
    # row i holds (i, i-1), (i, i), (i, i+1), cyclically
    data = np.stack([np.roll(lr, 1), ll + np.roll(rr, 1), lr], axis=1).ravel()
    cols = np.stack([(i - 1) % n, i, (i + 1) % n], axis=1).ravel()
    A = scipy.sparse.csr_array((data, cols, 3 * np.arange(n + 1)), shape=(n, n))
    A.sum_duplicates()  # sorts each row, and merges entries when n < 3
    return A


def chain_operators(chain: WarpedChain) -> ChainOperators:
    """Assemble the gradient, potential and mass forms cell by cell."""
    h = chain.cell_lengths
    psi_l, psi_r = chain._p1_basis
    w = chain.quad_w
    c = chain.quad_c

    g = TWO_PI * np.sum(c * w, axis=1) / h**2        # gradient coupling per cell

    def cell_form(weight):
        return _cyclic_tridiagonal(TWO_PI * np.sum(weight * psi_l * psi_l, axis=1),
                                   TWO_PI * np.sum(weight * psi_l * psi_r, axis=1),
                                   TWO_PI * np.sum(weight * psi_r * psi_r, axis=1))

    return ChainOperators(gradient=_cyclic_tridiagonal(g, -g, g),
                          potential=cell_form(w / c),
                          mass=cell_form(c * w))


@dataclass(frozen=True)
class AreaReport:
    fat_areas: np.ndarray
    thin_total: float
    total: float


def area_report(chain: WarpedChain) -> AreaReport:
    """Fat areas, collapsing thin area (2*pi*N/L), and their total."""
    fats = np.zeros(chain.cfg.n_components)
    thin = 0.0
    for seg_idx, seg in enumerate(chain.segments):
        if chain.cfg.smoothing_width > 0:
            mask = chain.cell_segment == seg_idx
            area = TWO_PI * float(np.sum(chain.quad_c[mask] * chain.quad_w[mask]))
        else:
            area = TWO_PI * seg.c * seg.length
        if seg.kind == "fat":
            fats[seg.index] += area
        else:
            thin += area
    return AreaReport(fat_areas=fats, thin_total=thin, total=float(fats.sum() + thin))


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensitySpec:
    """Symbolic density: per-segment constants plus global trigonometric terms.

    ``fat_values`` holds (segment index, value) pairs placing constants on fat
    segments, similarly for necks; ``cos_terms``/``sin_terms`` hold
    (harmonic k, amplitude) pairs for cos/sin(2*pi*k*x/P).  With ``project``
    the sampled density is shifted to zero mean against the area measure.
    """

    fat_values: tuple[tuple[int, float], ...] = ()
    neck_values: tuple[tuple[int, float], ...] = ()
    cos_terms: tuple[tuple[int, float], ...] = ()
    sin_terms: tuple[tuple[int, float], ...] = ()
    project: bool = True

    def profile(self, chain: WarpedChain):
        fats = {s.index: s for s in chain.fat_segments()}
        necks = {s.index: s for s in chain.neck_segments()}
        for i, _ in self.fat_values:
            if i not in fats:
                raise ValidationError(f"density references missing fat segment {i}")
        for i, _ in self.neck_values:
            if i not in necks:
                raise ValidationError(f"density references missing neck segment {i}")
        P = chain.total_length

        def f(x):
            x = np.mod(np.asarray(x, dtype=float), P)
            out = np.zeros_like(x)
            for i, v in self.fat_values:
                seg = fats[i]
                out[(x >= seg.x0 - 1e-15) & (x < seg.x1)] += v
            for i, v in self.neck_values:
                seg = necks[i]
                out[(x >= seg.x0 - 1e-15) & (x < seg.x1)] += v
            for k, amp in self.cos_terms:
                out += amp * np.cos(TWO_PI * k * x / P)
            for k, amp in self.sin_terms:
                out += amp * np.sin(TWO_PI * k * x / P)
            return out

        return f


@dataclass(frozen=True)
class DensityField:
    """A density sampled on a chain, mean-zero against the area measure."""

    chain: WarpedChain
    values: np.ndarray               # samples at grid nodes
    projection_shift: float
    total_integral: float
    component_integrals: np.ndarray  # over fat segments only
    profile: object = field(repr=False, default=None)  # raw callable, pre-shift

    def evaluate(self, x) -> np.ndarray:
        return np.asarray(self.profile(x), dtype=float) - self.projection_shift

    def norm_scale(self) -> float:
        vmax = float(np.max(np.abs(self.values))) if self.values.size else 0.0
        return max(1.0, vmax)

    @property
    def quad_values(self) -> np.ndarray:
        qx = self.chain.quad_x
        return self.evaluate(qx.ravel()).reshape(qx.shape)


def density_from_callable(f, chain: WarpedChain, project: bool = True) -> DensityField:
    """Sample a profile a(x) on a chain and enforce zero total integral.

    With ``project`` the constant component is removed (orthogonal projection
    against 1 in the area inner product); otherwise a nonzero total integral
    is rejected, since admissible densities integrate to zero on every fiber.
    """
    raw_quad = np.asarray(f(chain.quad_x.ravel()), dtype=float).reshape(chain.quad_x.shape)
    total_raw = chain.integrate_area(raw_quad)
    total_area = area_report(chain).total
    scale = max(1.0, float(np.max(np.abs(raw_quad))) if raw_quad.size else 1.0)
    if project:
        shift = total_raw / total_area
    else:
        if abs(total_raw) > 1e-12 * scale:
            raise ValidationError(
                "density has nonzero fiber integral and projection is disabled; "
                "integrability on general fibers is violated"
            )
        shift = 0.0
    quad_vals = raw_quad - shift
    comp = np.zeros(chain.cfg.n_components)
    for seg_idx, seg in enumerate(chain.segments):
        if seg.kind == "fat":
            mask = chain.cell_segment == seg_idx
            comp[seg.index] += TWO_PI * float(
                np.sum(quad_vals[mask] * chain.quad_c[mask] * chain.quad_w[mask]))
    return DensityField(
        chain=chain,
        values=np.asarray(f(chain.nodes), dtype=float) - shift,
        projection_shift=float(shift),
        total_integral=float(chain.integrate_area(quad_vals)),
        component_integrals=comp,
        profile=f,
    )


def density_from_spec(spec: DensitySpec, chain: WarpedChain) -> DensityField:
    return density_from_callable(spec.profile(chain), chain, project=spec.project)


def step_density_spec(values, project: bool = True) -> DensitySpec:
    """Constant value per fat segment, zero on necks."""
    return DensitySpec(
        fat_values=tuple((i, float(v)) for i, v in enumerate(values)),
        project=project,
    )


def random_step_spec(n: int, areas, rng: np.random.Generator) -> DensitySpec:
    """Random fat-segment constants with zero area-weighted sum.

    Centering against the areas makes the raw fiber integral vanish, so the
    component-integral vector does not drift with L; individual component
    integrals stay generically nonzero.
    """
    areas = np.asarray(areas, dtype=float)
    while True:
        vals = rng.uniform(-2.0, 2.0, size=n)
        vals = vals - np.dot(vals, areas) / areas.sum()
        if np.max(np.abs(vals * areas)) > 0.1:
            return step_density_spec(vals)


def _segment_wave(chain: WarpedChain, kind: str, index: int, amplitude: float, wave):
    """amplitude * wave(2*pi*t), t in [0, 1) across one segment, else 0."""
    segments = [s for s in chain.segments if s.kind == kind]
    if index >= len(segments):
        raise ValidationError(f"no {kind} segment {index}")
    seg = segments[index]

    def f(x):
        x = np.mod(np.asarray(x, dtype=float), chain.total_length)
        out = np.zeros_like(x)
        mask = (x >= seg.x0) & (x < seg.x1)
        out[mask] = amplitude * wave(TWO_PI * (x[mask] - seg.x0) / seg.length)
        return out

    return f


def sine_bump_profile(chain: WarpedChain, segment: int = 0, amplitude: float = 1.0):
    """One full sine wave supported inside a single fat segment.

    Integrates to zero over that segment, hence over every component: the
    model analog of zero integrals on all components of the central fiber.
    Odd about the segment midpoint, so its collapsing-mode coefficients
    vanish by parity on symmetric chains.
    """
    return _segment_wave(chain, "fat", segment, amplitude, np.sin)


def cosine_bump_profile(chain: WarpedChain, segment: int = 0, amplitude: float = 1.0):
    """One full cosine wave inside a single fat segment.

    Same zero component integrals as the sine bump, but even about the
    segment midpoint, so it excites the collapsing modes generically.
    """
    return _segment_wave(chain, "fat", segment, amplitude, np.cos)


def neck_wave_profile(chain: WarpedChain, neck: int = 0, amplitude: float = 1.0):
    """A zero-integral sine wave supported inside a single neck.

    All component integrals vanish (the wave lives over a node), yet the
    density sees the collapsing weight, so pairings against it depend on L
    and decay as the neck area does.
    """
    return _segment_wave(chain, "neck", neck, amplitude, np.sin)
