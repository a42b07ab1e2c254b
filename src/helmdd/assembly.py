"""P1 assembly of the (possibly absorbed) Helmholtz system, the energy matrix,
and impedance subdomain matrices.

All matrices are CSR with sorted indices and summed duplicates, complex but
for the real energy matrix.  The weak form of -Delta u - shift*u = f with
du/dn - i*(omega/c)*u = g on the boundary gives

    A = S - sum_e shift(e) * M_e - i * B,

where S is the stiffness matrix, M_e the element mass blocks, and B the
boundary mass matrix weighted per edge by omega/c of the adjacent element.
No absorption ever enters the boundary term.

Each matrix is the CSR sum of COO triplets: 9 per element (element-major,
from _kernels.element_blocks), then 4 per boundary edge.  Their indices are
int32 while the matrix has fewer than 2**31 - 1 rows (_kernels.index_dtype).
The order in which the conversion sums the duplicates of an entry follows
from the triplet order, so that order fixes every matrix bit for bit.  The
element values S_e - shift_e M_e of each shift are written into one
preallocated value array.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.io import mmwrite

from . import _kernels
from .mesh import WaveSpeedField


@dataclass(frozen=True)
class AssemblyCoefficients:
    """Frequency, wave speed, and the absorption shift for one assembly.

    shift_mode "additive_eps" uses shift = k^2 + i*eps with k = omega/c and
    requires a constant wave speed; "multiplicative_rho" uses
    shift = (1 + i*rho) * (omega/c)^2 per element.
    """

    omega: float
    wavespeed: WaveSpeedField
    shift_mode: str = "additive_eps"
    shift_value: float = 0.0

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.shift_mode == "additive_eps":
            v = self.wavespeed.values
            if np.any(v != v[0]):
                raise ValueError("additive_eps shift requires constant wave speed")
        elif self.shift_mode == "multiplicative_rho":
            if self.shift_value < 0:
                raise ValueError("rho must be nonnegative")
        else:
            raise ValueError(f"unknown shift mode {self.shift_mode!r}")

    @property
    def wavenumber(self):
        return self.omega / float(self.wavespeed.values[0])

    def element_shifts(self, mesh, element_ids=None):
        """Shift of each mesh element, or of the given elements only."""
        v = self.wavespeed.values
        if len(v) != len(mesh.elements):
            raise ValueError("wave-speed field does not match the mesh")
        if element_ids is not None:
            v = v[element_ids]
        if self.shift_mode == "additive_eps":
            k = self.wavenumber
            return np.full(len(v), k * k + 1j * self.shift_value, dtype=np.complex128)
        return (1.0 + 1j * self.shift_value) * (self.omega / v) ** 2

    def edge_impedance(self, adjacent_c):
        # per-edge omega/c from the adjacent element's speed; never absorbed
        return self.omega / np.asarray(adjacent_c, dtype=float)

    def on_mesh(self, mesh):
        """Same coefficients with the wave speed re-sampled on another mesh."""
        return AssemblyCoefficients(self.omega, self.wavespeed.sample_on(mesh),
                                    self.shift_mode, self.shift_value)


def _to_csr(rows, cols, vals, n):
    a = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    a.sum_duplicates()
    a.sort_indices()
    return a


def _triplets(nodes, elements, edges, edge_coeffs, n):
    """COO triplets of the element blocks, then of the impedance edges, over n
    nodes: (rows, cols, stiff, mass, vals).  rows and cols have the index
    dtype of n.  vals is complex; its tail holds -i * (edge mass block) and
    its head is left for element_system_values."""
    idx = _kernels.index_dtype(n)
    r, c, stiff, mass = _kernels.element_blocks(nodes, elements.astype(idx, copy=False))
    er, ec, ev = _kernels.edge_mass_triplets(nodes, edges.astype(idx, copy=False), edge_coeffs)
    vals = np.empty(len(r) + len(er), np.complex128)
    vals[len(r):] = -1j * ev
    return np.concatenate([r, er]), np.concatenate([c, ec]), stiff, mass, vals


def assemble_system(mesh, coeff):
    """A_eps over all mesh nodes; complex symmetric (unconjugated)."""
    return assemble_systems(mesh, coeff, [coeff.shift_value])[0]


def assemble_systems(mesh, coeff, shift_values):
    """A_eps over all mesh nodes for each of the shift values (eps or rho of
    coeff's shift mode), with coeff's frequency and wave speed.

    The triplet indices, the element stiffness and mass blocks and the
    boundary values are computed once; only the element values are written
    again for each shift.  Each matrix is bitwise the one assemble_system
    gives, and all of them share the index arrays of the first (their
    triplets have the same rows and columns).  An equal shift value gives the
    same matrix object."""
    adj_c = coeff.wavespeed.values[mesh.boundary_edge_elements]
    rows, cols, stiff, mass, vals = _triplets(mesh.nodes, mesh.elements,
                                              mesh.boundary_edge_nodes,
                                              coeff.edge_impedance(adj_c), mesh.n)
    out = {}
    for shift in shift_values:
        if shift in out:
            continue
        shifts = replace(coeff, shift_value=shift).element_shifts(mesh)
        _kernels.element_system_values(stiff, mass, shifts, vals)
        a = _to_csr(rows, cols, vals, mesh.n)  # copies vals, so the next shift may overwrite it
        if out:
            first = next(iter(out.values()))
            a.indices, a.indptr = first.indices, first.indptr
        out[shift] = a
    return tuple(out[shift] for shift in shift_values)


def assemble_energy_matrix(mesh, k):
    """D_k = S + k^2 M, the energy (k-weighted H^1) inner-product matrix."""
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    r, c, stiff, mass = _kernels.element_blocks(
        mesh.nodes, mesh.elements.astype(_kernels.index_dtype(mesh.n), copy=False))
    return _to_csr(r, c, (stiff + (k * k) * mass).T.ravel(), mesh.n)


@dataclass(frozen=True)
class BlockDiagonal:
    """Canonical CSR arrays (sorted indices, no duplicates) of a block-diagonal
    matrix: diagonal block s covers rows and columns [offs[s], offs[s+1]), and
    no entry lies outside the blocks."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    offs: np.ndarray

    def __len__(self):
        return len(self.offs) - 1

    def block(self, s):
        """CSR matrix of diagonal block s; its arrays are views."""
        lo, hi = self.offs[s], self.offs[s + 1]
        p, q = self.indptr[lo], self.indptr[hi]
        return sp.csr_matrix((self.data[p:q], self.indices[p:q] - lo,
                              self.indptr[lo:hi + 1] - p), shape=(hi - lo, hi - lo))


def assemble_local_impedance(mesh, element_sets, coeff):
    """Subdomain matrices, one per element set, each over its closed
    subdomain's nodes with the impedance term on the entire subdomain
    boundary (artificial interior boundary and any part on the global
    boundary alike), as the blocks of one BlockDiagonal.

    The sets may overlap.  All of them are assembled in one batch: a node of
    set s is keyed s*n + node, so its rank among the keys is its row in the
    block-diagonal matrix and the sets stay apart.  Each block is bitwise the
    one a batch of that set alone gives."""
    sets = [np.asarray(e, dtype=np.int64) for e in element_sets]
    sizes = np.array([len(e) for e in sets], dtype=np.int64)
    if not len(sets) or not sizes.all():
        raise ValueError("no element sets, or an empty one")
    n = mesh.n
    elems = np.concatenate(sets)
    owner = np.repeat(np.arange(len(sets)), sizes)
    tris = mesh.elements[elems]
    node_keys, pos = np.unique(owner[:, None] * n + tris, return_inverse=True)
    pos = pos.reshape(tris.shape)  # each element's vertices as block rows
    offs = np.searchsorted(node_keys, np.arange(len(sets) + 1) * n)
    coords = mesh.nodes[node_keys % n]

    # boundary edges of each set: edges incident to exactly one of its elements
    edges = np.concatenate([pos[:, [0, 1]], pos[:, [1, 2]], pos[:, [2, 0]]])
    size = len(node_keys)
    key = np.minimum(edges[:, 0], edges[:, 1]) * size + np.maximum(edges[:, 0], edges[:, 1])
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    onb = first[counts == 1]
    adjacent_c = coeff.wavespeed.values[elems[onb % len(elems)]]

    rows, cols, stiff, mass, vals = _triplets(coords, pos, edges[onb],
                                              coeff.edge_impedance(adjacent_c), size)
    _kernels.element_system_values(stiff, mass, coeff.element_shifts(mesh, elems), vals)
    block = _to_csr(rows, cols, vals, size)
    return BlockDiagonal(block.indptr, block.indices, block.data, offs)


def write_matrix_market(matrix, target):
    """Matrix Market coordinate dump (complex general, 1-based)."""
    mmwrite(target, sp.coo_matrix(matrix), field="complex", symmetry="general")
