"""Overlapping subdomain covers with generous overlap, RAS ownership weights
with edge averaging, Dirichlet/closed index sets, and the fine-to-coarse hat
interpolation R0.

Subdomains are coarse cells extended by l_ov = (g_min-1)//2 layers of fine
cells, the largest extension for which subdomains of non-touching coarse
cells stay disjoint.  The same machinery runs on a sub-rectangle of the cell
grid (build_block_decomposition) for nested inner preconditioners; there the
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


@dataclass
class RasWeights:
    """Partition-of-unity ownership weights, node-major and per-subdomain."""

    indptr: np.ndarray
    sub_ids: np.ndarray
    weights: np.ndarray
    by_subdomain: list  # [(nodes, weights)] per subdomain id

    def owners(self, j):
        s = slice(self.indptr[j], self.indptr[j + 1])
        return self.sub_ids[s], self.weights[s]


@dataclass
class Decomposition:
    mesh: object
    subdomains: list
    overlap_layers: int
    ras: RasWeights
    coarse_interp: sp.csr_matrix = None  # R0, coarse nodes x fine nodes
    degenerate_overlap: bool = False
    layout: object = field(default=None, repr=False)


def restrict(vec, index_set):
    """Select the entries of vec on the index set."""
    return np.asarray(vec)[np.asarray(index_set)]


def prolong(vec, index_set, n):
    """Scatter vec into a zero vector of length n."""
    out = np.zeros(n, dtype=np.asarray(vec).dtype)
    out[np.asarray(index_set)] = vec
    return out


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


def _ras_weights_from_breaks(mesh, bx, by, region, nsub):
    """Ownership by unextended cells; nodes on shared coarse edges/corners get
    weight 1/(number of incident cells)."""
    m = mesh.m
    rx0, rx1, ry0, ry1 = region
    mx = len(bx) - 1
    ix = np.arange(rx0, rx1 + 1)
    iy = np.arange(ry0, ry1 + 1)
    nix, niy = np.meshgrid(ix, iy, indexing="xy")
    nix = nix.ravel()
    niy = niy.ravel()
    node = niy * (m + 1) + nix

    cx = np.clip(np.searchsorted(bx, nix, side="right") - 1, 0, mx - 1)
    cy = np.clip(np.searchsorted(by, niy, side="right") - 1, 0, len(by) - 2)
    extra_x = (nix == bx[cx]) & (cx > 0)
    extra_y = (niy == by[cy]) & (cy > 0)
    count = (1 + extra_x.astype(int)) * (1 + extra_y.astype(int))
    w = 1.0 / count

    nodes_l, subs_l, w_l = [], [], []
    for dx in (0, 1):
        for dy in (0, 1):
            mask = np.ones(len(node), dtype=bool)
            if dx:
                mask &= extra_x
            if dy:
                mask &= extra_y
            nodes_l.append(node[mask])
            subs_l.append((cy[mask] - dy) * mx + (cx[mask] - dx))
            w_l.append(w[mask])
    nodes_a = np.concatenate(nodes_l)
    subs_a = np.concatenate(subs_l)
    w_a = np.concatenate(w_l)

    order = np.argsort(nodes_a, kind="stable")
    counts = np.zeros(mesh.n, dtype=np.int64)
    np.add.at(counts, nodes_a, 1)
    indptr = np.concatenate([[0], np.cumsum(counts)])

    by_sub = []
    sorder = np.argsort(subs_a, kind="stable")
    ssubs = subs_a[sorder]
    starts = np.searchsorted(ssubs, np.arange(nsub))
    stops = np.searchsorted(ssubs, np.arange(nsub) + 1)
    for l in range(nsub):
        sel = sorder[starts[l]:stops[l]]
        o = np.argsort(nodes_a[sel])
        by_sub.append((nodes_a[sel][o], w_a[sel][o]))

    return RasWeights(indptr, subs_a[order], w_a[order], by_sub)


def _decomposition_from_breaks(mesh, bx, by, region, coarse_interp=None, layout=None):
    m = mesh.m
    rx0, rx1, ry0, ry1 = region
    mx = len(bx) - 1
    my = len(by) - 1
    g_min = int(min(np.diff(bx).min(), np.diff(by).min()))
    l_ov = (g_min - 1) // 2
    degenerate = l_ov == 0
    if degenerate:
        warnings.warn(f"coarse cells only {g_min} fine cell(s) wide: no overlap "
                      "(subdomain interiors do not cover the mesh)", stacklevel=3)

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
            ))
    ras = _ras_weights_from_breaks(mesh, bx, by, region, mx * my)
    return Decomposition(mesh, subs, l_ov, ras, coarse_interp=coarse_interp,
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


def build_ras_weights(mesh, layout):
    return _ras_weights_from_breaks(mesh, layout.breaks_x, layout.breaks_y,
                                    (0, mesh.m, 0, mesh.m), layout.M ** 2)


def build_decomposition(mesh, layout):
    """Generously overlapping cover of the whole mesh from a coarse layout."""
    return _decomposition_from_breaks(mesh, layout.breaks_x, layout.breaks_y,
                                      (0, mesh.m, 0, mesh.m),
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
    return _decomposition_from_breaks(mesh, bx, by, region)


def dump_decomposition(decomp, fobj):
    """Debug dump: one "id l_ov cell_i cell_j n_interior n_closed" line each."""
    for s in decomp.subdomains:
        ci, cj = s.core_cell
        fobj.write(f"{s.id} {decomp.overlap_layers} {ci} {cj} "
                   f"{len(s.interior_nodes)} {len(s.closed_nodes)}\n")
