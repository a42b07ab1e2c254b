"""Independent reference implementations used to compute expected values.

Everything here recomputes results by a different route than the package:
quadrature-based assembly (edge-midpoint rule on triangles, Gauss rules on
edges) instead of closed-form blocks, explicit 0/1 restriction matrices and
dense inverses with true transposes for the preconditioners, per-triangle
affine solves for the coarse hats, an orthonormalised power basis plus
least squares for GMRES residuals, Rayleigh quotients taken in the D
inner product for points of a weighted field of values, a dense
Cholesky with dense triangular solves for the similarity transform of a
weighted field of values, a comparison of assembled matrices, one at a
time, for which local matrices may share one solver, COO assembly from
(E, 3, 3) broadcast element blocks (the shift-free sum S + i M_w with the
boundary mass placed entry by entry, whose combination the package must give
bitwise, and the element-wise complex sums S_e - shift_e M_e, which it must
give to round-off), and the hybrid preconditioner apply in the six sparse
products of its formula.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

_REF_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
_MIDPOINTS = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
_GAUSS2 = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


def _tri_quadrature_blocks(p):
    """Stiffness and mass blocks of one triangle via quadrature."""
    J = np.column_stack([p[1] - p[0], p[2] - p[0]])
    area = 0.5 * abs(np.linalg.det(J))
    grads = np.linalg.solve(J.T, _REF_GRADS.T).T
    S = area * grads @ grads.T
    phi = np.column_stack([1.0 - _MIDPOINTS.sum(axis=1), _MIDPOINTS[:, 0], _MIDPOINTS[:, 1]])
    M = (area / 3.0) * phi.T @ phi
    return S, M


def _edge_block(p0, p1):
    L = np.linalg.norm(p1 - p0)
    B = np.zeros((2, 2))
    for s in _GAUSS2:
        phi = np.array([1.0 - s, s])
        B += (L / 2.0) * np.outer(phi, phi)
    return B


def assemble_mass_matrix(mesh):
    """Consistent P1 mass matrix (real, CSR) from the quadrature blocks."""
    M = sp.lil_matrix((mesh.n, mesh.n))
    for tri in mesh.elements:
        M[np.ix_(tri, tri)] += _tri_quadrature_blocks(mesh.nodes[tri])[1]
    return M.tocsr()


def closed_node_set(mesh, element_ids):
    """Sorted global node ids of the closed subdomain spanned by the elements."""
    return np.unique(mesh.elements[np.asarray(element_ids)])


def oracle_shifts(mesh, coeff):
    c = coeff.wavespeed.values
    if coeff.shift_mode == "additive_eps":
        k = coeff.omega / c[0]
        return np.full(len(c), k * k + 1j * coeff.shift_value)
    return (1.0 + 1j * coeff.shift_value) * (coeff.omega / c) ** 2


def _boundary_edges_by_incidence(elements):
    """Edges incident to exactly one of the given triangles, with owners."""
    seen = {}
    for t, tri in enumerate(elements):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            if key in seen:
                seen[key] = None
            else:
                seen[key] = (a, b, t)
    return [v for v in seen.values() if v is not None]


def dense_system(mesh, coeff, element_ids=None, impedance_everywhere=False):
    """Quadrature-assembled system matrix.  With element_ids it assembles the
    local subdomain matrix over the closed subdomain nodes; with
    impedance_everywhere the boundary term covers the whole subdomain
    boundary (from edge incidence), else only the global boundary."""
    if element_ids is None:
        element_ids = np.arange(len(mesh.elements))
    element_ids = np.asarray(element_ids)
    tris = mesh.elements[element_ids]
    nodes_g = np.unique(tris)
    remap = {g: l for l, g in enumerate(nodes_g)}
    nl = len(nodes_g)
    A = np.zeros((nl, nl), dtype=complex)
    shifts = oracle_shifts(mesh, coeff)[element_ids]
    for tri, shift in zip(tris, shifts):
        S, M = _tri_quadrature_blocks(mesh.nodes[tri])
        loc = [remap[g] for g in tri]
        A[np.ix_(loc, loc)] += S - shift * M

    if impedance_everywhere:
        edges = _boundary_edges_by_incidence(tris)
        for a, b, t in edges:
            c_adj = coeff.wavespeed.values[element_ids[t]]
            B = _edge_block(mesh.nodes[a], mesh.nodes[b])
            loc = [remap[a], remap[b]]
            A[np.ix_(loc, loc)] += -1j * (coeff.omega / c_adj) * B
    else:
        for (a, b), owner in zip(mesh.boundary_edge_nodes, mesh.boundary_edge_elements):
            if a not in remap or b not in remap:
                continue
            c_adj = coeff.wavespeed.values[owner]
            B = _edge_block(mesh.nodes[a], mesh.nodes[b])
            loc = [remap[a], remap[b]]
            A[np.ix_(loc, loc)] += -1j * (coeff.omega / c_adj) * B
    return A, nodes_g


def broadcast_element_blocks(nodes, elements):
    """COO rows and columns of the 3 x 3 blocks of P1 triangles (9 entries per
    element, element-major) and their exact stiffness and mass blocks, each
    (E, 3, 3), formed by broadcasts over the block axes."""
    p0 = nodes[elements[:, 0]]
    p1 = nodes[elements[:, 1]]
    p2 = nodes[elements[:, 2]]
    b = np.stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1], p0[:, 1] - p1[:, 1]], axis=1)
    c = np.stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0], p1[:, 0] - p0[:, 0]], axis=1)
    area = 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                  - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))
    stiff = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (4.0 * area)[:, None, None]
    mass = np.full((1, 3, 3), 1.0) + np.eye(3)[None, :, :]
    mass = mass * (area / 12.0)[:, None, None]
    rows = np.repeat(elements, 3, axis=1).ravel()
    cols = np.tile(elements, (1, 3)).ravel()
    return rows, cols, stiff, mass


def _coo_csr(rows, cols, vals, n):
    a = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    a.sum_duplicates()
    a.sort_indices()
    return a


def oracle_split(coeff, element_ids=None):
    """(s, w) with shift_e = s * w_e: (k^2 + i eps, 1) or (1 + i rho, (omega/c_e)^2)."""
    c = coeff.wavespeed.values
    if element_ids is not None:
        c = c[element_ids]
    if coeff.shift_mode == "additive_eps":
        k = coeff.omega / coeff.wavespeed.values[0]
        return complex(k * k, coeff.shift_value), np.ones(len(c))
    return complex(1.0, coeff.shift_value), (coeff.omega / c) ** 2


def _edge_triplets(nodes, edges, edge_coeffs):
    p0, p1 = nodes[edges[:, 0]], nodes[edges[:, 1]]
    w = edge_coeffs * np.hypot(p1[:, 0] - p0[:, 0], p1[:, 1] - p0[:, 1])
    return (edges[:, [0, 0, 1, 1]].ravel(), edges[:, [0, 1, 0, 1]].ravel(),
            np.stack([w / 3.0, w / 6.0, w / 6.0, w / 3.0], axis=1).ravel())


def _coo_shift_free(nodes, elements, weights, n):
    """CSR sum of the broadcast blocks S_e + i w_e M_e: real part S, imaginary
    part M_w."""
    r, c, stiff, mass = broadcast_element_blocks(nodes, elements)
    v = np.empty(stiff.shape, np.complex128)
    v.real = stiff
    v.imag = np.asarray(weights)[:, None, None] * mass
    return _coo_csr(r, c, v.ravel(), n)


def _coo_split(nodes, elements, s, weights, edges, edge_coeffs, n):
    """S - s M_w - i B: the COO sum of the broadcast S_e + i w_e M_e, the
    boundary mass added into its entries edge triplet by edge triplet, then
    one combination."""
    K = _coo_shift_free(nodes, elements, weights, n)
    rows = np.repeat(np.arange(n), np.diff(K.indptr))
    where = {(i, j): p for p, (i, j) in enumerate(zip(rows, K.indices))}
    b = np.zeros(K.nnz)
    for i, j, v in zip(*_edge_triplets(nodes, edges, edge_coeffs)):
        b[where[i, j]] += v
    return sp.csr_matrix((K.data.real - s * K.data.imag - 1j * b, K.indices, K.indptr),
                         shape=K.shape)


def _coo_elementwise(nodes, elements, shifts, edges, edge_coeffs, n):
    """CSR of sum_e (S_e - shift_e M_e) - i sum_edges coeff * (edge mass)
    from the broadcast blocks, element triplets first, in complex arithmetic."""
    r, c, stiff, mass = broadcast_element_blocks(nodes, elements)
    v = (stiff.astype(np.complex128) - shifts[:, None, None] * mass).ravel()
    er, ec, ev = _edge_triplets(nodes, edges, edge_coeffs)
    return _coo_csr(np.concatenate([r, er]), np.concatenate([c, ec]),
                    np.concatenate([v, -1j * ev]), n)


def _global_boundary(mesh, coeff):
    adj_c = coeff.wavespeed.values[mesh.boundary_edge_elements]
    return mesh.boundary_edge_nodes, coeff.omega / adj_c


def coo_system(mesh, coeff):
    """A_eps from the broadcast element blocks and the global boundary edges."""
    return _coo_split(mesh.nodes, mesh.elements, *oracle_split(coeff),
                      *_global_boundary(mesh, coeff), mesh.n)


def elementwise_system(mesh, coeff):
    """A_eps from the element-wise sums S_e - shift_e M_e."""
    return _coo_elementwise(mesh.nodes, mesh.elements, oracle_shifts(mesh, coeff),
                            *_global_boundary(mesh, coeff), mesh.n)


def coo_energy(mesh, k):
    """D_k = S + k^2 M from the COO sum of the broadcast S_e + i M_e."""
    K = _coo_shift_free(mesh.nodes, mesh.elements, np.ones(len(mesh.elements)), mesh.n)
    return sp.csr_matrix((K.data.real + (k * k) * K.data.imag, K.indices, K.indptr),
                         shape=K.shape)


def elementwise_energy(mesh, k):
    """D_k from the element-wise sums S_e + k^2 M_e."""
    r, c, stiff, mass = broadcast_element_blocks(mesh.nodes, mesh.elements)
    return _coo_csr(r, c, (stiff + (k * k) * mass).ravel(), mesh.n)


def _local_impedance_args(mesh, element_ids, coeff):
    """Closed nodes of one element set (in global order), its elements on
    them, and its boundary edges (incident to one element of the set) in
    order of their (smaller, larger) node, each oriented as in its element,
    with their coefficients omega/c."""
    tris = mesh.elements[element_ids]
    nodes_g = np.unique(tris)
    pos = np.searchsorted(nodes_g, tris)
    edges = sorted(_boundary_edges_by_incidence(pos), key=lambda e: (min(e[:2]), max(e[:2])))
    owners = element_ids[[t for _, _, t in edges]]
    return (mesh.nodes[nodes_g], pos, np.array([(a, b) for a, b, _ in edges]),
            coeff.omega / coeff.wavespeed.values[owners], len(nodes_g))


def coo_local_impedance(mesh, element_ids, coeff):
    """Impedance subdomain matrix of one element set over its closed nodes."""
    element_ids = np.asarray(element_ids)
    nodes, pos, edges, edge_coeffs, n = _local_impedance_args(mesh, element_ids, coeff)
    return _coo_split(nodes, pos, *oracle_split(coeff, element_ids), edges,
                      edge_coeffs, n)


def elementwise_local_impedance(mesh, element_ids, coeff):
    """The same matrix from the element-wise sums S_e - shift_e M_e."""
    element_ids = np.asarray(element_ids)
    nodes, pos, edges, edge_coeffs, n = _local_impedance_args(mesh, element_ids, coeff)
    return _coo_elementwise(nodes, pos, oracle_shifts(mesh, coeff)[element_ids], edges,
                            edge_coeffs, n)


def dense_energy(mesh, k):
    n = mesh.n
    D = np.zeros((n, n))
    for tri in mesh.elements:
        S, M = _tri_quadrature_blocks(mesh.nodes[tri])
        D[np.ix_(tri, tri)] += S + k * k * M
    return D


def dense_coarse_interp(mesh, layout):
    """R0 by locating each fine node in a coarse triangle and solving the
    3x3 affine system for the hat values."""
    cmesh = layout.as_mesh()
    nc = cmesh.n
    R0 = np.zeros((nc, mesh.n))
    assigned = np.zeros(mesh.n, dtype=bool)
    for tri in cmesh.elements:
        p = cmesh.nodes[tri]
        T = np.vstack([p.T, np.ones(3)])  # rows x, y, 1
        lam = np.linalg.solve(T, np.vstack([mesh.nodes.T, np.ones(mesh.n)]))
        inside = np.all(lam >= -1e-12, axis=0) & ~assigned
        for i in range(3):
            R0[tri[i], inside] = np.clip(lam[i, inside], 0.0, 1.0)
        assigned |= inside
    assert assigned.all()
    return R0


def _restriction(index_set, n):
    R = np.zeros((len(index_set), n))
    R[np.arange(len(index_set)), index_set] = 1.0
    return R


def _ras_diag(sub, n):
    W = np.zeros(n)
    W[sub.own_nodes] = sub.own_weights
    return np.diag(W)


def dense_preconditioner(kind, mesh, decomp, A_sys, A_prec, coeff_prec):
    """Dense action matrix of each preconditioner straight from its formula."""
    n = mesh.n
    dense_Aprec = A_prec.toarray() if hasattr(A_prec, "toarray") else np.asarray(A_prec)
    dense_Asys = A_sys.toarray() if hasattr(A_sys, "toarray") else np.asarray(A_sys)
    impedance = kind in ("ImpRAS1", "ImpHRAS")
    weighted = kind in ("RAS1", "HRAS", "ImpRAS1", "ImpHRAS")

    B_loc = np.zeros((n, n), dtype=complex)
    for sub in decomp.subdomains:
        if impedance:
            A_l, nodes = dense_system(mesh, coeff_prec, sub.element_ids,
                                      impedance_everywhere=True)
            R = _restriction(nodes, n)
        else:
            idx = sub.interior_nodes
            if len(idx) == 0:
                continue
            R = _restriction(idx, n)
            A_l = R @ dense_Aprec @ R.T
        term = R.T @ np.linalg.inv(A_l) @ R
        if weighted:
            term = _ras_diag(sub, n) @ term
        B_loc += term
    if kind in ("AS1", "RAS1", "ImpRAS1"):
        return B_loc

    R0 = dense_coarse_interp(mesh, decomp.layout)
    A0 = R0 @ dense_Aprec @ R0.T
    C0 = R0.T @ np.linalg.inv(A0) @ R0
    if kind == "AS":
        return C0 + B_loc
    P0 = np.eye(n) - dense_Asys @ C0
    return C0 + P0.T @ B_loc @ P0


def gmres_residual_oracle(C, b, m_max):
    """Minimal-residual norms over growing Krylov spaces, via a twice-
    orthonormalised power basis and dense least squares."""
    n = len(b)
    Q = np.zeros((n, m_max), dtype=complex)
    res = []
    v = b.astype(complex)
    for m in range(m_max):
        for _ in range(2):
            v = v - Q[:, :m] @ (Q[:, :m].conj().T @ v)
        nv = np.linalg.norm(v)
        if nv < 1e-13 * np.linalg.norm(b):
            break
        Q[:, m] = v / nv
        CQ = C @ Q[:, :m + 1]
        y, *_ = np.linalg.lstsq(CQ, b, rcond=None)
        res.append(np.linalg.norm(b - CQ @ y))
        v = C @ Q[:, m]
    return np.array(res) / np.linalg.norm(b)


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


def slow_subdomains(m, bx, by):
    """Every subdomain's fields of the cover of (bx[0], bx[-1], by[0], by[-1])
    by the cells between the breaks, extended by (g_min-1)//2 layers, built
    rectangle by rectangle: one dict of Subdomain fields per subdomain."""
    region = (bx[0], bx[-1], by[0], by[-1])
    rx0, rx1, ry0, ry1 = region
    mx, my = len(bx) - 1, len(by) - 1
    l_ov = (int(min(np.diff(bx).min(), np.diff(by).min())) - 1) // 2

    def gridline_weights(breaks):
        return [np.where(np.isin(np.arange(lo, hi + 1), breaks[1:-1]), 0.5, 1.0)
                for lo, hi in zip(breaks[:-1], breaks[1:])]

    wxs, wys = gridline_weights(bx), gridline_weights(by)
    subs = []
    for cj in range(my):
        for ci in range(mx):
            x0 = max(rx0, bx[ci] - l_ov)
            x1 = min(rx1, bx[ci + 1] + l_ov)
            y0 = max(ry0, by[cj] - l_ov)
            y1 = min(ry1, by[cj + 1] + l_ov)
            subs.append(dict(
                id=cj * mx + ci,
                core_cell=(ci, cj),
                cell_rect=(x0, x1, y0, y1),
                element_ids=_rect_elements(m, x0, x1, y0, y1),
                interior_nodes=_rect_nodes(m, x0, x1, y0, y1, interior_of=region),
                closed_nodes=_rect_nodes(m, x0, x1, y0, y1),
                own_nodes=_rect_nodes(m, bx[ci], bx[ci + 1], by[cj], by[cj + 1]),
                own_weights=np.outer(wys[cj], wxs[ci]).ravel()))
    return subs


def rayleigh_samples(C, D, *, num=10000, seed=0):
    """|Rayleigh quotient| samples (D C x, x) / (D x, x) of W_D(C), D real
    SPD, at num random complex x: all lie >= dist(0, W_D(C))."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((C.shape[0], num)) + 1j * rng.standard_normal((C.shape[0], num))
    DX = D @ X
    return np.abs(np.einsum("ij,ij->j", DX.conj(), C @ X)
                  / np.einsum("ij,ij->j", DX.conj(), X).real)


def dense_to_euclidean(C, D, weight="D"):
    """analysis.to_euclidean by a dense Cholesky D = L L^H and dense
    triangular solves: L^H C L^-H for weight "D", L^-1 C L for "Dinv"."""
    C = np.asarray(C, dtype=complex)
    L = np.linalg.cholesky(np.asarray(D.toarray() if sp.issparse(D) else D, dtype=complex))
    if weight == "D":
        return sla.solve_triangular(L.conj(), (L.conj().T @ C).T, lower=True).T
    return sla.solve_triangular(L, C, lower=True) @ L


def one_at_a_time(mats):
    """Class of each matrix under the reference sharing rule: it joins the
    first earlier class of its shape and pattern whose first matrix it equals
    to 64 epsilons of that matrix's largest entry, or founds a new class.  An
    empty matrix has no class (-1)."""
    reps, labels = [], []
    for a in map(sp.csr_matrix, mats):
        if a.shape[0] == 0:
            labels.append(-1)
            continue
        for cls, r in enumerate(reps):
            if (r.shape == a.shape and np.array_equal(r.indptr, a.indptr)
                    and np.array_equal(r.indices, a.indices)
                    and (a.nnz == 0 or np.abs(a.data - r.data).max()
                         <= 64 * np.finfo(float).eps * np.abs(r.data).max())):
                labels.append(cls)
                break
        else:
            labels.append(len(reps))
            reps.append(a)
    return labels


def six_product_hybrid_apply(P, A, R0, v):
    """HRAS/ImpHRAS apply z + t - R0^T A0^{-1} R0 A t with z = R0^T A0^{-1} R0 v
    and t = B_local (v - A z), using P's local solves and coarse solver, the
    coarse interpolation R0 and the system matrix A itself: six sparse
    products, two of them with A."""
    R0T, solve = R0.T.tocsr(), P.coarse.solver.solve
    z = R0T @ solve(R0 @ v)
    t = P.locals_.apply(v - A @ z)
    return z + t - R0T @ solve(R0 @ (A @ t))
