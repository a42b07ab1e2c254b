"""P1 assembly of the (possibly absorbed) Helmholtz system, the energy matrix,
and impedance subdomain matrices.

All matrices are CSR with sorted indices and summed duplicates, complex but
for the real energy matrix.  The weak form of -Delta u - shift*u = f with
du/dn - i*(omega/c)*u = g on the boundary gives

    A = S - s * M_w - i * B,

where S is the stiffness matrix, M_w = sum_e w_e M_e the mass matrix with
element weights w_e, s a scalar (shift = s * w_e on element e), and B the
boundary mass matrix weighted per edge by omega/c of the adjacent element.
No absorption ever enters the boundary term.

The element triplets of a mesh are converted to CSR once (_shift_free), with
the complex values S_e + i w_e M_e (9 per element, element-major, from
_kernels.element_blocks): the real part of the sum is S, its imaginary part
M_w.  Every boundary edge is an element edge, so B is summed into the same
pattern as one more data array.  Each matrix is then one combination of these
data arrays on the shared index arrays.  The triplet order fixes the order in
which the conversion sums the duplicates of an entry, so it fixes every
matrix bit for bit.  Triplet indices are int32 while the matrix has fewer
than 2**31 - 1 rows (_kernels.index_dtype).
"""

import copy
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
    shift = (1 + i*rho) * (omega/c)^2 per element.  The shift of an element is
    shift_factor times its mass weight: (k^2 + i*eps) * 1, or
    (1 + i*rho) * (omega/c_e)^2.
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

    @property
    def shift_factor(self):
        """The scalar s of A = S - s M_w - iB: k^2 + i*eps, or 1 + i*rho."""
        if self.shift_mode == "additive_eps":
            k = self.wavenumber
            return complex(k * k, self.shift_value)
        return complex(1.0, self.shift_value)

    def mass_weights(self, mesh, element_ids=None):
        """Weight w_e of each mesh element's mass block in M_w, or of the given
        elements only: (omega/c_e)^2 under multiplicative_rho, else the
        scalar 1.0 for all of them."""
        v = self.wavespeed.values
        if len(v) != len(mesh.elements):
            raise ValueError("wave-speed field does not match the mesh")
        if self.shift_mode == "additive_eps":
            return 1.0
        if element_ids is not None:
            v = v[element_ids]
        return (self.omega / v) ** 2

    def edge_impedance(self, adjacent_c):
        # per-edge omega/c from the adjacent element's speed; never absorbed
        return self.omega / np.asarray(adjacent_c, dtype=float)

    def on_mesh(self, mesh):
        """Same coefficients with the wave speed re-sampled on another mesh."""
        return AssemblyCoefficients(self.omega, self.wavespeed.sample_on(mesh),
                                    self.shift_mode, self.shift_value)


def _shift_free(nodes, elements, weights, edges, edge_coeffs, n):
    """The shift-free parts of the matrices over n nodes, on one CSR pattern:
    (smw, b).  smw is the CSR sum of the element values S_e + i w_e M_e, so
    its real part is S and its imaginary part M_w.  b is the data of B on the
    same pattern: the sum over the edges of coeff * (edge mass block), in edge
    order."""
    idx = _kernels.index_dtype(n)
    rows, cols, vals = _kernels.element_blocks(nodes, elements.astype(idx, copy=False), weights)
    smw = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()  # sorted, summed
    er, ec, ev = _kernels.edge_mass_triplets(nodes, edges, edge_coeffs)
    slot = smw.indptr[er].astype(np.intp)
    while (behind := smw.indices[slot] < ec).any():  # each row holds its edges' columns
        slot[behind] += 1
    b = np.zeros(smw.nnz)
    np.add.at(b, slot, ev)
    return smw, b


def _system(smw, b, s):
    """S - s M_w - i B: a copy of smw with its own data and smw's index arrays."""
    a = copy.copy(smw)
    a.data = smw.data.real - s * smw.data.imag
    a.data.imag -= b
    return a


def assemble_system(mesh, coeff):
    """A_eps over all mesh nodes; complex symmetric (unconjugated)."""
    return assemble_systems(mesh, coeff, [coeff.shift_value])[0]


def assemble_systems(mesh, coeff, shift_values):
    """A_eps over all mesh nodes for each of the shift values (eps or rho of
    coeff's shift mode), with coeff's frequency and wave speed.

    The element triplets are converted once; each shift is one combination of
    the data arrays of S, M_w and B.  Each matrix is bitwise the one
    assemble_system gives, and all of them share one pair of index arrays.
    An equal shift value gives the same matrix object."""
    adj_c = coeff.wavespeed.values[mesh.boundary_edge_elements]
    smw, b = _shift_free(mesh.nodes, mesh.elements, coeff.mass_weights(mesh),
                         mesh.boundary_edge_nodes, coeff.edge_impedance(adj_c), mesh.n)
    out = {}
    for shift in shift_values:
        if shift not in out:
            out[shift] = _system(smw, b, replace(coeff, shift_value=shift).shift_factor)
    return tuple(out[shift] for shift in shift_values)


def assemble_energy_matrix(mesh, k):
    """D_k = S + k^2 M, the energy (k-weighted H^1) inner-product matrix."""
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    d, _ = _shift_free(mesh.nodes, mesh.elements, 1.0, mesh.boundary_edge_nodes[:0],
                       np.empty(0), mesh.n)  # no boundary term
    d.data = d.data.real + (k * k) * d.data.imag
    return d


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

    smw, b = _shift_free(coords, pos, coeff.mass_weights(mesh, elems), edges[onb],
                         coeff.edge_impedance(adjacent_c), size)
    block = _system(smw, b, coeff.shift_factor)
    return BlockDiagonal(block.indptr, block.indices, block.data, offs)


def write_matrix_market(matrix, target):
    """Matrix Market coordinate dump (complex general, 1-based)."""
    mmwrite(target, sp.coo_matrix(matrix), field="complex", symmetry="general")
