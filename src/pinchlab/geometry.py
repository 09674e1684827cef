"""Warped circle-chain model of a degenerating fiber, and densities on it.

The model fiber is a circle of length P carrying the metric
``dx^2 + c(x)^2 dtheta^2`` with a piecewise-constant circumference profile:
N "fat" segments of weight ``C_FAT`` (one per irreducible component,
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
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

TWO_PI = 2.0 * math.pi
FOUR_PI = 2.0 * TWO_PI
# circumference of every fat segment
C_FAT = 1.0 / TWO_PI

# 4-point Gauss-Legendre rule on [-1, 1]; exact for the piecewise-constant
# data used here and far beyond tolerance for the low trigonometric terms.
# The node integrals use the same rule on their radial panels.
GL_X, GL_W = np.polynomial.legendre.leggauss(4)


def line_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line y = slope * x + intercept: (slope, intercept, rms residual)."""
    A = np.stack([x, np.ones_like(x)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - (slope * x + intercept)
    return float(slope), float(intercept), float(np.sqrt(np.mean(resid**2)))


@dataclass(frozen=True)
class FamilyConfig:
    """Geometry of the model family (areas, neck shape)."""

    n_components: int
    areas: tuple[float, ...] | None = None
    neck_length: float = 1.0
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

    # per-cell quadrature tables, one row per cell
    quad_x: np.ndarray = field(repr=False)
    quad_w: np.ndarray = field(repr=False)   # line measure dx
    cell_c: np.ndarray = field(repr=False)   # (n, 1): c is constant on each cell

    @property
    def s(self) -> float:
        return math.exp(-self.L)

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def cell_lengths(self) -> np.ndarray:
        ext = np.append(self.nodes, self.total_length)
        return np.diff(ext)

    def segment_at(self, x) -> np.ndarray:
        """Index into ``segments`` of the [x0, x1) segment holding each x mod P."""
        starts = [seg.x0 for seg in self.segments]
        return np.searchsorted(starts, np.mod(x, self.total_length), side="right") - 1

    def integrate_area(self, values_at_quad: np.ndarray) -> float:
        """Integral against dA = 2*pi*c(x) dx of samples on the quad table."""
        return TWO_PI * float(np.sum(values_at_quad * self.cell_c * self.quad_w))

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
        common = TWO_PI * values_at_quad * self.cell_c * self.quad_w
        return np.sum(common * psi_l, axis=1) + np.roll(np.sum(common * psi_r, axis=1), 1)


def build_chain(cfg: FamilyConfig, L: float, resolution: int = 64) -> WarpedChain:
    """Lay out the alternating fat/neck segments and the cyclic grid.

    Every interface lands exactly on a grid node, so piecewise data is smooth
    within each cell.  Model validity requires ``c_thin = 1/L < C_FAT``.
    """
    if resolution < 8:
        raise ValidationError("resolution must be at least 8 nodes per unit length")
    if not 0 < L < math.inf:
        raise ValidationError(f"L must be positive and finite, got {L}")
    c_thin = cfg.neck_length / L
    if not cfg.no_neck and c_thin >= C_FAT:
        raise ValidationError(
            f"model validity requires L > "
            f"{cfg.neck_length / C_FAT:.6g} "
            f"(neck weight must stay below the fat circumference); got L = {L}"
        )
    areas = cfg.area_vector()
    fat_lengths = areas / (TWO_PI * C_FAT)

    segments: list[Segment] = []
    x = 0.0
    for i in range(cfg.n_components):
        x1 = x + float(fat_lengths[i])
        segments.append(Segment("fat", i, x, x1, C_FAT))
        x = x1
        if not cfg.no_neck:
            x2 = x1 + cfg.neck_length
            segments.append(Segment("neck", i, x1, x2, c_thin))
            x = x2
    P = x
    if min(s.length for s in segments) <= 0:
        raise ValidationError("degenerate segment length in chain layout")

    nodes: list[float] = []
    cell_segment: list[int] = []
    for si, seg in enumerate(segments):
        ncell = max(1, int(math.ceil(resolution * seg.length - 1e-9)))
        step = seg.length / ncell
        for k in range(ncell):
            nodes.append(seg.x0 + k * step)
            cell_segment.append(si)
    nodes_arr = np.asarray(nodes)
    cells = np.asarray(cell_segment, dtype=int)
    h = np.diff(nodes_arr, append=P)
    return WarpedChain(cfg=cfg, L=float(L), segments=tuple(segments), total_length=P,
                       nodes=nodes_arr, cell_segment=cells,
                       quad_x=nodes_arr[:, None] + (0.5 * (GL_X + 1.0))[None, :] * h[:, None],
                       quad_w=(0.5 * GL_W)[None, :] * h[:, None],
                       cell_c=np.array([seg.c for seg in segments])[cells, None])


@dataclass(frozen=True, eq=False)
class CyclicTridiagonal:
    """Symmetric cyclic tridiagonal form: ``diag[i]`` at (i, i) and ``off[i]`` at
    (i, i+1 mod n) and (i+1 mod n, i); entries that meet when n < 3 add up."""

    diag: np.ndarray
    off: np.ndarray
    __array_ufunc__ = None  # ``x @ form`` calls __rmatmul__, not numpy

    def __matmul__(self, x):
        x = np.asarray(x)
        diag, off = (a if x.ndim == 1 else a[:, None] for a in (self.diag, self.off))
        y = diag * x
        y[:-1] += off[:-1] * x[1:]   # slices, not np.roll: a roll copies an (n, k) block
        y[-1] += off[-1] * x[0]
        y[1:] += off[:-1] * x[:-1]
        y[0] += off[-1] * x[-1]
        return y

    def __rmatmul__(self, x):
        return (self @ np.asarray(x).T).T  # symmetric

    def sum(self) -> float:
        return float(self.diag.sum() + 2.0 * self.off.sum())

    def eliminate(self) -> tuple[np.ndarray, np.ndarray]:
        """(pivots, fill) of elimination without pivoting, n >= 2: Kahan's Sturm recurrence
        down the band, and fill[i] the last row's entry in column i as row i is eliminated.
        A zero pivot becomes eps times the size of the entries.  The negative pivots of S - x*M
        (M positive definite) count the eigenvalues below x exactly when x is 5e-9 relative or
        more from every multiple one; nearer, or within an ulp of one, #(< x) to #(<= x)."""
        a, b = self.diag.tolist(), self.off.tolist()
        tiny = np.finfo(float).eps * (max(map(abs, a)) + 2.0 * max(map(abs, b)))
        p, r, last, pivots, fill = a[0], b[-1], a[-1], [], []  # r: last row, column i
        for i in range(len(a) - 1):
            p = p or tiny
            r += b[-2] * (i == len(a) - 2)  # the band's (n-1, n-2); for n = 2 it meets b[-1]
            pivots.append(p)
            fill.append(r)
            last -= r * r / p
            p, r = a[i + 1] - b[i] * b[i] / p, -r * b[i] / p
        return np.array(pivots + [last or tiny]), np.array(fill)

    def _entries(self):
        """Values and (row, column) indices of the entries; those that meet when n < 3 add up."""
        i = np.arange(self.diag.size)
        j = (i + 1) % i.size
        return (np.concatenate([self.diag, self.off, self.off]),
                (np.concatenate([i, i, j]), np.concatenate([i, j, i])))

    def toarray(self) -> np.ndarray:
        values, index = self._entries()
        A = np.zeros((self.diag.size,) * 2)
        np.add.at(A, index, values)
        return A

    def tocsr(self):
        """This form as a scipy CSR array; it loads scipy."""
        from .spectral import load_scipy
        coo = load_scipy().sparse.coo_array(self._entries(), shape=(self.diag.size,) * 2)
        return coo.tocsr()  # sums the entries that meet


@dataclass(frozen=True)
class ChainOperators:
    """Weak forms of one chain, shared by every angular mode.

    stiffness(m) = gradient + m^2 * potential with
    gradient  = 2*pi * integral(c u' v'),
    potential = 2*pi * integral((1/c) u v),
    mass      = 2*pi * integral(c u v);
    all three are symmetric and cyclic tridiagonal.
    """

    gradient: CyclicTridiagonal
    potential: CyclicTridiagonal
    mass: CyclicTridiagonal

    def stiffness(self, m: int) -> CyclicTridiagonal:
        if m < 0:
            raise ValidationError("angular mode must be nonnegative")
        g, p = self.gradient, self.potential
        return g if m == 0 else CyclicTridiagonal(g.diag + m * m * p.diag, g.off + m * m * p.off)


def _cyclic_tridiagonal(ll: np.ndarray, lr: np.ndarray, rr: np.ndarray) -> CyclicTridiagonal:
    """Sum of the cell matrices [[ll, lr], [lr, rr]] over cells (i, i+1 mod n)."""
    return CyclicTridiagonal(ll + np.roll(rr, 1), lr)


def chain_operators(chain: WarpedChain) -> ChainOperators:
    """Assemble the gradient, potential and mass forms cell by cell."""
    h = chain.cell_lengths
    psi_l, psi_r = chain._p1_basis
    w = chain.quad_w
    c = chain.cell_c

    g = TWO_PI * np.sum(c * w, axis=1) / h**2        # gradient coupling per cell

    def cell_form(weight):
        return _cyclic_tridiagonal(TWO_PI * np.sum(weight * psi_l * psi_l, axis=1),
                                   TWO_PI * np.sum(weight * psi_l * psi_r, axis=1),
                                   TWO_PI * np.sum(weight * psi_r * psi_r, axis=1))

    return ChainOperators(gradient=_cyclic_tridiagonal(g, -g, g),
                          potential=cell_form(w / c),
                          mass=cell_form(c * w))


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensitySpec:
    """Symbolic density: per-segment constants plus global trigonometric terms.

    ``fat_values`` holds (segment index, value) pairs placing constants on fat
    segments, similarly for necks; ``cos_terms``/``sin_terms`` hold
    (harmonic k, amplitude) pairs for cos/sin(2*pi*k*x/P).  ``waves`` holds
    (kind, segment index, amplitude) triples, ``kind`` a key of ``WAVE_PROFILES``;
    they are added last, in order.
    """

    fat_values: tuple[tuple[int, float], ...] = ()
    neck_values: tuple[tuple[int, float], ...] = ()
    cos_terms: tuple[tuple[int, float], ...] = ()
    sin_terms: tuple[tuple[int, float], ...] = ()
    waves: tuple[tuple[str, int, float], ...] = ()

    def profile(self, chain: WarpedChain):
        position = {(s.kind, s.index): k for k, s in enumerate(chain.segments)}
        levels = np.zeros(len(chain.segments))  # the constant terms, per segment
        for kind, values in (("fat", self.fat_values), ("neck", self.neck_values)):
            for i, v in values:
                if (kind, i) not in position:
                    raise ValidationError(f"density references missing {kind} segment {i}")
                levels[position[kind, i]] += v
        waves = [WAVE_PROFILES[kind](chain, i, amp) for kind, i, amp in self.waves]
        P = chain.total_length

        def f(x):
            x = np.mod(np.asarray(x, dtype=float), P)
            out = levels[chain.segment_at(x)]
            for k, amp in self.cos_terms:
                out += amp * np.cos(TWO_PI * k * x / P)
            for k, amp in self.sin_terms:
                out += amp * np.sin(TWO_PI * k * x / P)
            for wave in waves:
                out += wave(x)
            return out

        return f


@dataclass(frozen=True)
class DensityField:
    """A density sampled on a chain, mean-zero against the area measure."""

    chain: WarpedChain
    values: np.ndarray               # samples at grid nodes
    total_integral: float
    component_integrals: np.ndarray  # over fat segments only
    quad_values: np.ndarray = field(repr=False)  # samples on the chain's quad table
    profile: object = field(repr=False, default=None)  # raw callable, pre-shift


def density_from_callable(f, chain: WarpedChain) -> DensityField:
    """Sample a profile a(x) on a chain and enforce zero total integral.

    The constant component is removed (orthogonal projection against 1 in
    the area inner product), since admissible densities integrate to zero on
    every fiber.
    """
    raw_quad = np.asarray(f(chain.quad_x.ravel()), dtype=float).reshape(chain.quad_x.shape)
    shift = chain.integrate_area(raw_quad) / chain.integrate_area(np.ones_like(chain.quad_w))
    quad_vals = raw_quad - shift
    comp = np.zeros(chain.cfg.n_components)
    for seg_idx, seg in enumerate(chain.segments):
        if seg.kind == "fat":
            mask = chain.cell_segment == seg_idx
            comp[seg.index] += TWO_PI * float(
                np.sum(quad_vals[mask] * chain.cell_c[mask] * chain.quad_w[mask]))
    return DensityField(
        chain=chain,
        values=np.asarray(f(chain.nodes), dtype=float) - shift,
        total_integral=float(chain.integrate_area(quad_vals)),
        component_integrals=comp,
        quad_values=quad_vals,
        profile=f,
    )


def density_from_spec(spec: DensitySpec, chain: WarpedChain) -> DensityField:
    return density_from_callable(spec.profile(chain), chain)


def step_density_spec(values) -> DensitySpec:
    """Constant value per fat segment, zero on necks."""
    return DensitySpec(fat_values=tuple((i, float(v)) for i, v in enumerate(values)))


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
    position = {(s.kind, s.index): k for k, s in enumerate(chain.segments)}
    if (kind, index) not in position:
        raise ValidationError(f"no {kind} segment {index}")
    seg = chain.segments[position[kind, index]]

    def f(x):
        x = np.mod(np.asarray(x, dtype=float), chain.total_length)
        out = np.zeros_like(x)
        mask = chain.segment_at(x) == position[kind, index]
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


# config prefix of a segment wave -> its profile maker
WAVE_PROFILES = {"segment_cos": cosine_bump_profile, "segment_sin": sine_bump_profile,
                 "neck_wave": neck_wave_profile}
