"""Overlapping subdomain covers with generous overlap, RAS ownership weights
with edge averaging, Dirichlet/closed index sets, and the fine-to-coarse hat
interpolation R0.

Subdomains are coarse cells extended by l_ov = (g_min-1)//2 layers of fine
cells, the largest extension for which subdomains of non-touching coarse
cells stay disjoint.  Each subdomain owns the closed nodes of its coarse
cell; a node on an interior coarse gridline is shared with weight 1/2 (1/4
at a corner), so the weights of all subdomains sum to one at every node.
The same machinery runs on a sub-rectangle of the cell grid
(build_block_decomposition) for nested inner preconditioners; there the
rectangle's boundary plays the role of the global boundary.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import _kernels
from .mesh import DegenerateLayoutError, round_half_up


@dataclass
class Subdomain:
    id: int
    core_cell: tuple
    cell_rect: tuple  # (x0, x1, y0, y1) extended fine-cell rectangle, half-open
    element_ids: np.ndarray
    interior_nodes: np.ndarray  # open extended subdomain, incl. its trace on Gamma
    closed_nodes: np.ndarray
    own_nodes: np.ndarray  # closed core cell, ascending
    own_weights: np.ndarray  # RAS partition-of-unity weight of each owned node


@dataclass
class Decomposition:
    subdomains: list
    overlap_layers: int
    coarse_interp: sp.csr_matrix = None  # R0, coarse nodes x fine nodes
    degenerate_overlap: bool = False
    layout: object = field(default=None, repr=False)


def _rect_elements(m, x0, x1, y0, y1):
    cx = np.arange(x0, x1)
    cy = np.arange(y0, y1)
    cells = (cy[:, None] * m + cx[None, :]).ravel()
    return np.sort(np.concatenate([2 * cells, 2 * cells + 1]))


def _rect_nodes(m, x0, x1, y0, y1, interior_of=None):
    """Node ids of [x0,x1] x [y0,y1] (node-index ranges).  With interior_of =
    (rx0, rx1, ry0, ry1), keep only nodes of the relatively open rectangle:
    rectangle sides lying on the region boundary keep their nodes."""
    ix = np.arange(x0, x1 + 1)
    iy = np.arange(y0, y1 + 1)
    if interior_of is not None:
        rx0, rx1, ry0, ry1 = interior_of
        ix = ix[((ix > x0) | (x0 == rx0)) & ((ix < x1) | (x1 == rx1))]
        iy = iy[((iy > y0) | (y0 == ry0)) & ((iy < y1) | (y1 == ry1))]
    return (iy[:, None] * (m + 1) + ix[None, :]).ravel()


def _gridline_weights(breaks):
    """For each cell between consecutive breaks, the weight of each gridline
    of its closed range: 1/2 on an interior break, shared with the neighbour."""
    return [np.where(np.isin(np.arange(lo, hi + 1), breaks[1:-1]), 0.5, 1.0)
            for lo, hi in zip(breaks[:-1], breaks[1:])]


def _decomposition_from_breaks(mesh, bx, by, coarse_interp=None, layout=None):
    """Cover of the rectangle (bx[0], bx[-1], by[0], by[-1]) by the extended
    cells between the breaks."""
    m = mesh.m
    region = (bx[0], bx[-1], by[0], by[-1])
    rx0, rx1, ry0, ry1 = region
    mx = len(bx) - 1
    my = len(by) - 1
    g_min = int(min(np.diff(bx).min(), np.diff(by).min()))
    l_ov = (g_min - 1) // 2
    degenerate = l_ov == 0
    if degenerate:
        warnings.warn(f"coarse cells only {g_min} fine cell(s) wide: no overlap "
                      "(subdomain interiors do not cover the mesh)", stacklevel=3)

    wxs, wys = _gridline_weights(bx), _gridline_weights(by)
    subs = []
    for cj in range(my):
        for ci in range(mx):
            x0 = max(rx0, bx[ci] - l_ov)
            x1 = min(rx1, bx[ci + 1] + l_ov)
            y0 = max(ry0, by[cj] - l_ov)
            y1 = min(ry1, by[cj + 1] + l_ov)
            subs.append(Subdomain(
                id=cj * mx + ci,
                core_cell=(ci, cj),
                cell_rect=(x0, x1, y0, y1),
                element_ids=_rect_elements(m, x0, x1, y0, y1),
                interior_nodes=_rect_nodes(m, x0, x1, y0, y1, interior_of=region),
                closed_nodes=_rect_nodes(m, x0, x1, y0, y1),
                own_nodes=_rect_nodes(m, bx[ci], bx[ci + 1], by[cj], by[cj + 1]),
                own_weights=np.outer(wys[cj], wxs[ci]).ravel(),
            ))
    return Decomposition(subs, l_ov, coarse_interp=coarse_interp,
                         degenerate_overlap=degenerate, layout=layout)


def build_coarse_interpolation(mesh, layout):
    """R0 with (R0)_{pj} = coarse hat p evaluated at fine node j."""
    r, c, v = _kernels.coarse_hat_triplets(mesh.nodes,
                                           mesh.xs[layout.breaks_x],
                                           mesh.ys[layout.breaks_y])
    nc = (layout.M + 1) ** 2
    r0 = sp.coo_matrix((v, (r, c)), shape=(nc, mesh.n)).tocsr()
    r0.sum_duplicates()
    r0.eliminate_zeros()
    r0.sort_indices()
    return r0


def build_decomposition(mesh, layout):
    """Generously overlapping cover of the whole mesh from a coarse layout."""
    return _decomposition_from_breaks(mesh, layout.breaks_x, layout.breaks_y,
                                      coarse_interp=build_coarse_interpolation(mesh, layout),
                                      layout=layout)


def build_block_decomposition(mesh, region, nbx, nby):
    """Decomposition of a cell-grid rectangle into nbx x nby extended blocks.

    Used for the nested inner preconditioners; the rectangle boundary is
    treated like the global boundary (closed sets reach it, interior sets
    include their trace on it).
    """
    rx0, rx1, ry0, ry1 = region
    wx, wy = rx1 - rx0, ry1 - ry0
    if not (0 < nbx <= wx and 0 < nby <= wy):
        raise ValueError("block counts must fit inside the region")
    bx = rx0 + np.array([round_half_up(p * wx / nbx) for p in range(nbx + 1)], dtype=np.int64)
    by = ry0 + np.array([round_half_up(p * wy / nby) for p in range(nby + 1)], dtype=np.int64)
    bx[0], bx[-1] = rx0, rx1
    by[0], by[-1] = ry0, ry1
    if np.any(np.diff(bx) <= 0) or np.any(np.diff(by) <= 0):
        raise DegenerateLayoutError("block snapping collapsed breakpoints")
    return _decomposition_from_breaks(mesh, bx, by)


def dump_decomposition(decomp, fobj):
    """Debug dump: one "id l_ov cell_i cell_j n_interior n_closed" line each."""
    for s in decomp.subdomains:
        ci, cj = s.core_cell
        fobj.write(f"{s.id} {decomp.overlap_layers} {ci} {cj} "
                   f"{len(s.interior_nodes)} {len(s.closed_nodes)}\n")
