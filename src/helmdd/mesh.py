"""Structured triangular meshes on the unit square, snapped coarse layouts,
and piecewise-constant wave-speed fields."""

import math
from dataclasses import dataclass

import numpy as np

MESH_RULES = ("pollution_free", "points_per_wavelength", "explicit")


class DegenerateLayoutError(ValueError):
    """Snapping collapsed two coarse gridlines onto the same fine gridline."""


def ceil_snapped(x):
    # guards against float fuzz in expressions like 100**1.5
    return int(math.ceil(round(float(x), 9)))


def round_half_up(x):
    return int(math.floor(float(x) + 0.5))


class FineMesh:
    """m x m cell triangulation of the unit square, SW-NE cell diagonals.

    Nodes sit on the tensor grid xs x ys with id(ix, iy) = iy*(m+1)+ix.
    Cell (cx, cy) is split into the lower triangle (SW, SE, NE) and the upper
    triangle (SW, NE, NW), both positively oriented; their element ids are
    2*(cy*m+cx) and 2*(cy*m+cx)+1.

    The gridlines are cut from a uniform grid of N cells per side: xs =
    linspace(0, 1, N+1)[breaks_x], and widths_x = diff(breaks_x) holds the
    integer cell widths in units of 1/N (likewise in y).  By default N = m and
    the breaks are 0..m, so the widths are ones; the snapped coarse mesh of a
    nested coarse solve (CoarseLayout.as_mesh) passes the layout's breaks.
    Cells of equal integer widths have equal coordinate widths up to
    round-off, which is what keys local matrices by geometry.  Immutable
    after construction.
    """

    def __init__(self, m, breaks_x=None, breaks_y=None):
        m = int(m)
        if m < 1:
            raise ValueError("mesh needs at least one cell per side")
        self.m = m
        grids = []
        for breaks in (breaks_x, breaks_y):
            b = np.arange(m + 1) if breaks is None else np.asarray(breaks, dtype=np.int64)
            if len(b) != m + 1 or b[0] != 0 or np.any(np.diff(b) <= 0):
                raise ValueError("gridline breaks must increase from 0 with m+1 entries")
            grids.append((np.linspace(0.0, 1.0, b[-1] + 1)[b], np.diff(b)))
        (self.xs, self.widths_x), (self.ys, self.widths_y) = grids

        gx, gy = np.meshgrid(self.xs, self.ys, indexing="xy")
        self.nodes = np.column_stack([gx.ravel(), gy.ravel()])

        cc = np.arange(m * m)
        nsw = (cc // m) * (m + 1) + (cc % m)
        self.elements = np.empty((2 * m * m, 3), dtype=np.int64)
        self.elements[0::2] = np.stack([nsw, nsw + 1, nsw + m + 2], axis=1)
        self.elements[1::2] = np.stack([nsw, nsw + m + 2, nsw + m + 1], axis=1)

        edge = np.arange(m)
        # edges ordered counterclockwise: south, east, north, west
        n0 = np.concatenate([edge,
                             edge * (m + 1) + m,
                             m * (m + 1) + edge + 1,
                             (edge + 1) * (m + 1)])
        n1 = np.concatenate([edge + 1,
                             (edge + 1) * (m + 1) + m,
                             m * (m + 1) + edge,
                             edge * (m + 1)])
        self.boundary_edge_nodes = np.column_stack([n0, n1])
        self.boundary_edge_elements = np.concatenate([
            2 * edge,                          # lower triangle of cell (i, 0)
            2 * (edge * m + m - 1),            # lower triangle of cell (m-1, j)
            2 * ((m - 1) * m + edge) + 1,      # upper triangle of cell (i, m-1)
            2 * (edge * m) + 1,                # upper triangle of cell (0, j)
        ])

    @property
    def n(self):
        return (self.m + 1) ** 2

    def element_centroids(self):
        return self.nodes[self.elements].mean(axis=1)

    def __repr__(self):
        return f"FineMesh(m={self.m}, n={self.n})"


def cells_for_rule(k, rule, m=None):
    """Cells per side for a mesh rule: h ~ k^-3/2, 10 points/wavelength, or explicit."""
    if rule not in MESH_RULES:
        raise ValueError(f"unknown mesh rule {rule!r}")
    if rule == "explicit":
        if m is None or int(m) < 1:
            raise ValueError("explicit rule needs m >= 1")
        return int(m)
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    if rule == "pollution_free":
        return ceil_snapped(k ** 1.5)
    return ceil_snapped(5.0 * k / math.pi)


def build_fine_mesh(k, rule="pollution_free", m=None):
    return FineMesh(cells_for_rule(k, rule, m=m))


@dataclass
class CoarseLayout:
    """M x M coarse cells snapped to fine gridlines, nested in a FineMesh."""

    M: int
    breaks_x: np.ndarray  # fine gridline indices, length M+1
    breaks_y: np.ndarray
    mesh: FineMesh

    @property
    def widths_x(self):
        return np.diff(self.breaks_x)

    @property
    def widths_y(self):
        return np.diff(self.breaks_y)

    @property
    def g_min(self):
        return int(min(self.widths_x.min(), self.widths_y.min()))

    def as_mesh(self):
        """The coarse triangulation as a mesh of its own: its gridlines are
        the fine mesh's at the breaks, bitwise, and its integer widths those
        of the layout in the fine mesh's units."""
        def cut(widths, breaks):
            return np.concatenate([[0], np.cumsum(widths)])[breaks]
        return FineMesh(self.M, cut(self.mesh.widths_x, self.breaks_x),
                        cut(self.mesh.widths_y, self.breaks_y))


def snap_breakpoints(m, M, anchors=()):
    """Nearest-gridline snapping of the uniform breakpoints p*m/M, p=0..M.

    Anchor gridlines become breakpoints; the remaining breakpoints are then
    re-distributed uniformly within each anchor segment (cell counts per
    segment by largest remainder), which keeps the cells quasi-uniform.
    Without anchors the one segment is [0, m] with M cells.
    """
    for a in anchors:
        if not 0 < int(a) < m:
            raise ValueError(f"anchor gridline {a} not interior to the mesh")
    bounds = sorted({0, m, *(int(a) for a in anchors)})
    lengths = np.diff(bounds)
    if M < len(lengths):
        raise DegenerateLayoutError(
            f"{len(lengths)} anchor segments need at least that many coarse cells")
    raw = lengths * M / m
    counts = np.maximum(1, np.floor(raw).astype(int))
    while counts.sum() > M:
        i = int(np.argmax(np.where(counts > 1, counts - raw, -np.inf)))
        counts[i] -= 1
    while counts.sum() < M:
        counts[int(np.argmax(raw - counts))] += 1
    breaks = [0]
    for s, L, c in zip(bounds[:-1], lengths, counts):
        breaks.extend(s + round_half_up(p * L / c) for p in range(1, c))
        breaks.append(s + int(L))
    breaks = np.asarray(breaks, dtype=np.int64)
    if np.any(np.diff(breaks) <= 0):
        raise DegenerateLayoutError(
            f"snapping m={m} to M={M} collapsed coarse gridlines: {breaks.tolist()}")
    return breaks


def layout_from_blocks(mesh, M, anchors_x=(), anchors_y=()):
    """Coarse layout with an explicit number of cells per side."""
    M = int(M)
    if M < 1:
        raise ValueError("need at least one coarse cell per side")
    if M > mesh.m:
        raise ValueError(f"coarse grid finer than fine grid (M={M} > m={mesh.m})")
    return CoarseLayout(M,
                        snap_breakpoints(mesh.m, M, anchors_x),
                        snap_breakpoints(mesh.m, M, anchors_y),
                        mesh)


def build_coarse_layout(mesh, k, alpha, anchors_x=(), anchors_y=()):
    """Coarse layout with M = ceil(k^alpha) cells per side, snapped to fine lines.

    Optional anchor gridlines (fine indices) are forced to be coarse
    breakpoints, used to make the coarse grid resolve a wave-speed interface.
    """
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    return layout_from_blocks(mesh, ceil_snapped(k ** alpha), anchors_x, anchors_y)


@dataclass(frozen=True)
class WaveSpeedField:
    """Per-element wave speed c > 0; square scenarios carry the snapped square."""

    values: np.ndarray
    scenario: str
    c_star: float
    square: tuple = None  # physical (x0, x1, y0, y1) of the inner square

    def sample_on(self, mesh):
        """Re-evaluate the field on another mesh by element-centroid membership."""
        if self.square is None:
            return WaveSpeedField(np.ones(len(mesh.elements)), self.scenario, self.c_star)
        return WaveSpeedField(_square_values(mesh, self.square, self.c_star),
                              self.scenario, self.c_star, self.square)


def _square_values(mesh, square, c_star):
    x0, x1, y0, y1 = square
    cen = mesh.element_centroids()
    inside = (cen[:, 0] > x0) & (cen[:, 0] < x1) & (cen[:, 1] > y0) & (cen[:, 1] < y1)
    return np.where(inside, c_star, 1.0)


def snapped_square_indices(mesh, offset=0):
    """Gridline indices of the side-1/3 centered square, snapped to the fine
    grid and optionally shifted north-west by `offset` fine cells."""
    lo = int(np.argmin(np.abs(mesh.xs - 1.0 / 3.0)))
    hi = int(np.argmin(np.abs(mesh.xs - 2.0 / 3.0)))
    off = int(offset)
    if off < 0:
        raise ValueError("offset must be nonnegative")
    ix0, ix1 = lo - off, hi - off   # west shift
    iy0, iy1 = lo + off, hi + off   # north shift
    if ix0 < 0 or iy1 > mesh.m:
        raise ValueError(f"offset {off} pushes the inner square outside the domain")
    return (ix0, ix1, iy0, iy1)


def build_wavespeed(mesh, scenario, c_star=1.0, offset=0):
    """Wave-speed field: constant 1, or c_star on a snapped inner square."""
    scenario = scenario.replace("-", "_")
    if scenario == "constant":
        return WaveSpeedField(np.ones(len(mesh.elements)), scenario, 1.0)
    if scenario not in ("centered_square", "shifted_square"):
        raise ValueError(f"unknown wave-speed scenario {scenario!r}")
    if c_star <= 0:
        raise ValueError("inner-square speed must be positive")
    if scenario == "centered_square" and offset != 0:
        raise ValueError("centered-square scenario takes no offset; use shifted-square")
    ix0, ix1, iy0, iy1 = snapped_square_indices(mesh, offset)
    square = (mesh.xs[ix0], mesh.xs[ix1], mesh.ys[iy0], mesh.ys[iy1])
    return WaveSpeedField(_square_values(mesh, square, c_star), scenario, c_star, square)


def dump_mesh(mesh, fobj):
    """Plain-text debug dump: `nodes` block of "index x y" lines, then
    `elements` block of "index n0 n1 n2" lines."""
    fobj.write("nodes\n")
    for i, (x, y) in enumerate(mesh.nodes):
        fobj.write(f"{i} {x:.17g} {y:.17g}\n")
    fobj.write("elements\n")
    for e, (a, b, c) in enumerate(mesh.elements):
        fobj.write(f"{e} {a} {b} {c}\n")
