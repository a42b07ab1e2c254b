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

A subdomain's index sets and weights depend on its position only through a
shift: nodes and elements are numbered row by row, so the sets of a
rectangle are those of the same rectangle at the origin plus the number of
its south-west node (or cell).  The subdomains are therefore built in
whole-array passes from templates, one per distinct extended and core size
and set of sides on the region (or break) boundary: 16 templates
serve the 900 subdomains of the k=30 pollution-free mesh.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import _kernels
from .mesh import snap_breakpoints


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


def _templates(m, w, h, west, east, south, north, gw, gh, w_shared, e_shared,
               s_shared, n_shared):
    """Fields of a subdomain whose extended rectangle of w x h cells has its
    south-west corner at node 0, as (element_ids, interior_nodes,
    closed_nodes, own_nodes, own_weights); the owned core of gw x gh cells has
    its south-west corner at node 0 too.  west..north say which sides of the
    extended rectangle lie on the region boundary, whose nodes the interior
    set keeps; w_shared..n_shared say which core sides lie on an interior
    break, whose nodes are owned with weight 1/2."""
    ix, iy = np.arange(w + 1), np.arange(h + 1)
    cells = (iy[:-1, None] * m + ix[:-1]).ravel()
    elements = (2 * cells[:, None] + np.arange(2)).ravel()
    closed = (iy[:, None] * (m + 1) + ix).ravel()
    interior = (iy[1 - south:h + north, None] * (m + 1) + ix[1 - west:w + east]).ravel()
    own = (np.arange(gh + 1)[:, None] * (m + 1) + np.arange(gw + 1)).ravel()
    wx, wy = np.ones(gw + 1), np.ones(gh + 1)
    wx[[0, -1]] = (0.5 if w_shared else 1.0), (0.5 if e_shared else 1.0)
    wy[[0, -1]] = (0.5 if s_shared else 1.0), (0.5 if n_shared else 1.0)
    return elements, interior, closed, own, np.outer(wy, wx).ravel()


def overlap_layers(bx, by):
    """l_ov of the cover by the extended cells between the breaks bx, by:
    (g_min - 1) // 2, where the narrowest cell is g_min fine cells wide."""
    return (int(min(np.diff(bx).min(), np.diff(by).min())) - 1) // 2


def _decomposition_from_breaks(mesh, bx, by, coarse_interp=None, layout=None):
    """Cover of the rectangle (bx[0], bx[-1], by[0], by[-1]) by the extended
    cells between the breaks.  Each field of the subdomains sharing a
    template is one array, the template plus each subdomain's shift, whose
    rows are their fields."""
    m = mesh.m
    bx, by = np.asarray(bx, dtype=np.int64), np.asarray(by, dtype=np.int64)
    rx0, rx1, ry0, ry1 = bx[0], bx[-1], by[0], by[-1]
    mx = len(bx) - 1
    my = len(by) - 1
    l_ov = overlap_layers(bx, by)
    degenerate = l_ov == 0
    if degenerate:
        warnings.warn("coarse cells under 3 fine cells wide: no overlap "
                      "(subdomain interiors do not cover the mesh)", stacklevel=3)

    # subdomain id = cj * mx + ci
    ci = np.tile(np.arange(mx), my)
    cj = np.repeat(np.arange(my), mx)
    cx0, cx1, cy0, cy1 = bx[:-1][ci], bx[1:][ci], by[:-1][cj], by[1:][cj]
    x0, x1 = np.maximum(rx0, cx0 - l_ov), np.minimum(rx1, cx1 + l_ov)
    y0, y1 = np.maximum(ry0, cy0 - l_ov), np.minimum(ry1, cy1 + l_ov)
    keys = np.column_stack([x1 - x0, y1 - y0, x0 == rx0, x1 == rx1, y0 == ry0, y1 == ry1,
                            cx1 - cx0, cy1 - cy0, ci > 0, ci < mx - 1, cj > 0, cj < my - 1])
    node_shift = y0 * (m + 1) + x0
    # one shift per field of _templates; the weights are not translated
    shifts = (2 * (y0 * m + x0), node_shift, node_shift, cy0 * (m + 1) + cx0, None)

    groups = {}
    for i, key in enumerate(map(tuple, keys.tolist())):
        groups.setdefault(key, []).append(i)
    fields = [[None] * len(ci) for _ in shifts]
    for key, members in groups.items():
        for out, shift, tpl in zip(fields, shifts, _templates(m, *key)):
            rows = (np.tile(tpl, (len(members), 1)) if shift is None
                    else shift[members, None] + tpl)
            for i, row in zip(members, rows):
                out[i] = row

    rects = np.column_stack([x0, x1, y0, y1]).tolist()
    subs = [Subdomain(id=i, core_cell=(i % mx, i // mx), cell_rect=tuple(rects[i]),
                      element_ids=e, interior_nodes=a, closed_nodes=c, own_nodes=o,
                      own_weights=w)
            for i, (e, a, c, o, w) in enumerate(zip(*fields))]
    return Decomposition(subs, l_ov, coarse_interp=coarse_interp,
                         degenerate_overlap=degenerate, layout=layout)


def build_coarse_interpolation(mesh, layout):
    """R0 with (R0)_{pj} = coarse hat p evaluated at fine node j.  Its values
    are real, held complex: a product of a real sparse matrix with a complex
    operand casts the matrix's values to complex on every call (scipy's
    sparsetools), exactly, so the products are those of the real R0 bitwise."""
    r, c, v = _kernels.coarse_hat_triplets(mesh.nodes,
                                           mesh.xs[layout.breaks_x],
                                           mesh.ys[layout.breaks_y])
    nc = (layout.M + 1) ** 2
    idx = _kernels.index_dtype(max(nc, mesh.n))
    r0 = sp.coo_matrix((v.astype(np.complex128), (r.astype(idx), c.astype(idx))),
                       shape=(nc, mesh.n)).tocsr()
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
    return _decomposition_from_breaks(mesh, rx0 + snap_breakpoints(wx, nbx),
                                      ry0 + snap_breakpoints(wy, nby))


def dump_decomposition(decomp, fobj):
    """Debug dump: one "id l_ov cell_i cell_j n_interior n_closed" line each."""
    for s in decomp.subdomains:
        ci, cj = s.core_cell
        fobj.write(f"{s.id} {decomp.overlap_layers} {ci} {cj} "
                   f"{len(s.interior_nodes)} {len(s.closed_nodes)}\n")
