import io
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.io import mmread

from helmdd import _kernels
from helmdd.assembly import (AssemblyCoefficients, assemble_energy_matrix,
                             assemble_local_impedance, assemble_system, assemble_systems,
                             write_matrix_market)
from helmdd.mesh import FineMesh, build_fine_mesh, build_wavespeed

from oracles import (assemble_mass_matrix, closed_node_set, coo_energy,
                     coo_local_impedance, coo_system, dense_energy, dense_system,
                     elementwise_energy, elementwise_local_impedance, elementwise_system)


def constant_coeff(mesh, k, eps=0.0):
    return AssemblyCoefficients(omega=k, wavespeed=build_wavespeed(mesh, "constant"),
                                shift_mode="additive_eps", shift_value=eps)


def test_unit_right_triangle_stiffness_block():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    elements = np.array([[0, 1, 2]], dtype=np.int32)
    r, c, vals = _kernels.element_blocks(nodes, elements, np.array([3.0]))
    S, M = np.zeros((3, 3)), np.zeros((3, 3))
    S[r, c], M[r, c] = vals.real, vals.imag / 3.0  # imaginary part w_e M_e, w_e = 3
    assert np.allclose(S, 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]]), atol=1e-15)
    assert np.allclose(M, np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0, atol=1e-15)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_mass_matrix_sums_to_domain_area(m):
    mesh = build_fine_mesh(1, "explicit", m=m)
    M = assemble_mass_matrix(mesh)
    assert abs(M.sum() - 1.0) < 1e-13


def test_system_complex_symmetric_exactly():
    mesh = build_fine_mesh(10, "points_per_wavelength")
    A = assemble_system(mesh, constant_coeff(mesh, 10.0, eps=0.0))
    diff = A - A.T
    assert np.abs(diff.data).max() if diff.nnz else 0.0 == 0.0
    A2 = assemble_system(mesh, constant_coeff(mesh, 10.0, eps=7.0))
    diff2 = (A2 - A2.T)
    assert diff2.nnz == 0 or np.abs(diff2.data).max() == 0.0


def test_eps_zero_equals_plain_system():
    mesh = build_fine_mesh(1, "explicit", m=6)
    A0 = assemble_system(mesh, constant_coeff(mesh, 10.0, eps=0.0))
    Ae = assemble_system(mesh, constant_coeff(mesh, 10.0))
    assert (A0 - Ae).nnz == 0


def test_shift_linearity_in_eps():
    mesh = build_fine_mesh(1, "explicit", m=5)
    k = 7.0
    A1 = assemble_system(mesh, constant_coeff(mesh, k, eps=2.0))
    A2 = assemble_system(mesh, constant_coeff(mesh, k, eps=9.0))
    M = assemble_mass_matrix(mesh)
    diff = (A2 - A1) + 1j * 7.0 * M
    assert np.abs(diff.toarray()).max() < 1e-12


@pytest.mark.parametrize("m,k", [(3, 2.0), (6, 11.0)])
def test_system_matches_quadrature_oracle(m, k):
    mesh = build_fine_mesh(1, "explicit", m=m)
    coeff = constant_coeff(mesh, k, eps=3.5)
    A = assemble_system(mesh, coeff).toarray()
    Ad, _ = dense_system(mesh, coeff)
    assert np.abs(A - Ad).max() < 1e-11 * max(1.0, np.abs(Ad).max())


def test_variable_speed_system_matches_oracle():
    mesh = build_fine_mesh(1, "explicit", m=9)
    ws = build_wavespeed(mesh, "centered-square", c_star=0.66)
    coeff = AssemblyCoefficients(omega=8.0, wavespeed=ws,
                                 shift_mode="multiplicative_rho", shift_value=0.3)
    A = assemble_system(mesh, coeff).toarray()
    Ad, _ = dense_system(mesh, coeff)
    assert np.abs(A - Ad).max() < 1e-11 * np.abs(Ad).max()


def test_energy_matrix_properties():
    mesh = build_fine_mesh(1, "explicit", m=8)
    k = 6.0
    D = assemble_energy_matrix(mesh, k)
    assert D.dtype == np.float64
    assert (D - D.T).nnz == 0 or np.abs((D - D.T).data).max() == 0.0
    M = assemble_mass_matrix(mesh)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(mesh.n) + 1j * rng.standard_normal(mesh.n)
        qd = np.real(np.vdot(x, D @ x))
        qm = np.real(np.vdot(x, M @ x))
        assert qd >= k * k * qm > 0.0


def test_energy_matrix_hand_values_m1_k1():
    mesh = build_fine_mesh(1, "explicit", m=1)
    D = assemble_energy_matrix(mesh, 1.0).toarray()
    # corner (0,0): S_00 = 1, M_00 = 1/6; shared entry (0,3): S = 0, M = 1/12
    assert D[0, 0] == pytest.approx(7.0 / 6.0, abs=1e-15)
    assert D[0, 3] == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert D[0, 1] == pytest.approx(-0.5 + 1.0 / 24.0, abs=1e-15)
    assert np.abs(D - dense_energy(mesh, 1.0)).max() < 1e-13


@pytest.mark.parametrize("m", [4, 8, 16, 32])
def test_energy_matrix_positive_definite(m):
    mesh = build_fine_mesh(1, "explicit", m=m)
    D = assemble_energy_matrix(mesh, 5.0).toarray()
    assert np.linalg.eigvalsh(D).min() > 0.0


def _assert_bitwise(a, want):
    assert a.has_canonical_format
    for name in ("indptr", "indices", "data"):  # signed zeros included
        x, y = getattr(a, name), getattr(want, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def _assert_round_off(a, want):
    # the same pattern, and real and imaginary parts within 2 ulp of the
    # largest of them
    assert np.array_equal(a.indptr, want.indptr) and np.array_equal(a.indices, want.indices)
    assert a.dtype == want.dtype
    x, y = a.data.view(np.float64), want.data.view(np.float64)
    assert np.abs(x - y).max() <= 2 * np.spacing(np.abs(y).max())


def _oracle_meshes():
    """A uniform mesh, and one whose gridlines are cut at non-uniform breaks."""
    return [build_fine_mesh(1, "explicit", m=13),
            FineMesh(7, [0, 1, 3, 4, 7, 8, 10, 13], [0, 2, 3, 5, 6, 9, 10, 11])]


def _oracle_cases():
    """(mesh, coeff, shift values) with constant and centered-square speed."""
    cases = []
    for mesh in _oracle_meshes():
        cases.append((mesh, constant_coeff(mesh, 9.0), (0.0, 9.0 ** 1.2, 0.0)))
        ws = build_wavespeed(mesh, "centered-square", c_star=0.66)
        cases.append((mesh, AssemblyCoefficients(omega=8.0, wavespeed=ws,
                                                 shift_mode="multiplicative_rho"),
                      (0.0, 8.0 ** -0.4, 0.0)))
    return cases


_ORACLE_IDS = ["constant", "centered-square", "breaks-constant", "breaks-centered-square"]


@pytest.mark.parametrize("case", range(4), ids=_ORACLE_IDS)
def test_systems_of_several_shifts_bitwise_one_pass_each(case):
    # each shift bitwise the combination of its COO sum of the (E, 3, 3)
    # broadcast blocks S_e + i w_e M_e and boundary mass, and the element-wise
    # sums S_e - shift_e M_e to round-off
    mesh, coeff, shifts = _oracle_cases()[case]
    mats = assemble_systems(mesh, coeff, shifts)
    assert mats[0] is mats[2]  # an equal shift gives the same matrix
    # one structure: the index arrays of the first matrix
    assert mats[1].indices is mats[0].indices and mats[1].indptr is mats[0].indptr
    for A, shift in zip(mats, shifts):
        want = coo_system(mesh, replace(coeff, shift_value=shift))
        _assert_bitwise(A, want)
        _assert_bitwise(assemble_system(mesh, replace(coeff, shift_value=shift)), want)
        _assert_round_off(A, elementwise_system(mesh, replace(coeff, shift_value=shift)))


@pytest.mark.parametrize("rho_mode", [False, True], ids=["eps", "rho"])
def test_systems_convert_the_element_triplets_once(rho_mode, monkeypatch):
    mesh = _oracle_meshes()[1]
    if rho_mode:
        ws = build_wavespeed(mesh, "centered-square", c_star=0.66)
        coeff = AssemblyCoefficients(omega=8.0, wavespeed=ws, shift_mode="multiplicative_rho")
        shifts = (0.0, 0.3, 8.0 ** -0.4, 0.3)
    else:
        coeff, shifts = constant_coeff(mesh, 9.0), (0.0, 9.0, 9.0 ** 1.2, 9.0)
    conversions = []
    tocsr = sp.coo_matrix.tocsr

    def counted(self, *args, **kwargs):
        conversions.append(self.nnz)
        return tocsr(self, *args, **kwargs)

    monkeypatch.setattr(sp.coo_matrix, "tocsr", counted)
    mats = assemble_systems(mesh, coeff, shifts)
    assert conversions == [9 * len(mesh.elements)]  # one conversion, of the element triplets
    assert mats[3] is mats[1]  # an equal shift gives the same matrix
    assert len({id(A) for A in mats}) == 3
    for A in mats[1:]:
        assert A.indices is mats[0].indices and A.indptr is mats[0].indptr


@pytest.mark.parametrize("mesh", _oracle_meshes(), ids=["uniform", "breaks"])
def test_energy_matrix_bitwise_oracle(mesh):
    for k in (1.0, 6.0, 30.0):
        D = assemble_energy_matrix(mesh, k)
        _assert_bitwise(D, coo_energy(mesh, k))
        _assert_round_off(D, elementwise_energy(mesh, k))


@pytest.mark.parametrize("case", range(4), ids=_ORACLE_IDS)
def test_local_impedance_bitwise_oracle(case):
    mesh, coeff, shifts = _oracle_cases()[case]
    coeff = replace(coeff, shift_value=shifts[1])
    m = mesh.m
    sets = [_cell_rect(m, 0, m, 0, m), _cell_rect(m, 1, 5, 2, 6), _cell_rect(m, 3, 7, 0, 4),
            _cell_rect(m, 2, 3, 2, 3)]
    batch = assemble_local_impedance(mesh, sets, coeff)
    for s, elems in enumerate(sets):
        _assert_bitwise(batch.block(s), coo_local_impedance(mesh, elems, coeff))
        _assert_round_off(batch.block(s), elementwise_local_impedance(mesh, elems, coeff))


def test_index_dtype_rule_and_int64_fallback():
    # no test mesh reaches 2**31 - 1 nodes: the int64 branch runs on a small mesh
    assert _kernels.index_dtype(2**31 - 2) is np.int32
    assert _kernels.index_dtype(2**31 - 1) is np.int64
    mesh, coeff, _ = _oracle_cases()[3]
    adj_c = coeff.wavespeed.values[mesh.boundary_edge_elements]
    runs = []
    for n in (mesh.n, 2**31 - 1):
        # the element triplets of an n-row matrix; the edge triplets of its index dtype
        idx = _kernels.index_dtype(n)
        runs.append(_kernels.element_blocks(mesh.nodes, mesh.elements.astype(idx),
                                            coeff.mass_weights(mesh))
                    + _kernels.edge_mass_triplets(mesh.nodes,
                                                  mesh.boundary_edge_nodes.astype(idx),
                                                  coeff.edge_impedance(adj_c)))
    small, large = runs
    assert small[0].dtype == small[1].dtype == small[3].dtype == small[4].dtype == np.int32
    assert large[0].dtype == large[1].dtype == large[3].dtype == large[4].dtype == np.int64
    for a, b in zip(small, large):
        assert np.array_equal(a, b) and (a.dtype.kind == "i" or a.tobytes() == b.tobytes())


def test_local_impedance_whole_mesh_equals_system():
    mesh = build_fine_mesh(1, "explicit", m=5)
    coeff = constant_coeff(mesh, 5.0, eps=1.0)
    A = assemble_system(mesh, coeff)
    L = assemble_local_impedance(mesh, [np.arange(len(mesh.elements))], coeff).block(0)
    assert np.abs((A - L).toarray()).max() < 1e-13


def test_local_impedance_interior_imaginary_part():
    # off the subdomain boundary the imaginary part is -eps * M (constant c)
    mesh = build_fine_mesh(1, "explicit", m=8)
    eps = 4.0
    coeff = constant_coeff(mesh, 5.0, eps=eps)
    cells = [2 * (cy * 8 + cx) + t for cx in range(2, 5) for cy in range(3, 6) for t in (0, 1)]
    elems = np.array(sorted(cells))
    L = assemble_local_impedance(mesh, [elems], coeff).block(0).toarray()
    nodes = closed_node_set(mesh, elems)
    interior = []
    for i, g in enumerate(nodes):
        ix, iy = g % 9, g // 9
        if 2 < ix < 5 and 3 < iy < 6:
            interior.append(i)
    Ml = np.zeros((len(nodes), len(nodes)))
    from oracles import _tri_quadrature_blocks
    remap = {g: l for l, g in enumerate(nodes)}
    for e in elems:
        _, M = _tri_quadrature_blocks(mesh.nodes[mesh.elements[e]])
        loc = [remap[g] for g in mesh.elements[e]]
        Ml[np.ix_(loc, loc)] += M
    for i in interior:
        assert np.abs(L[i, :].imag + eps * Ml[i, :]).max() < 1e-12


def test_local_impedance_matches_dense_oracle():
    mesh = build_fine_mesh(1, "explicit", m=4)
    coeff = constant_coeff(mesh, 5.0, eps=0.0)
    cells = [2 * (cy * 4 + cx) + t for cx in (1, 2) for cy in (1, 2) for t in (0, 1)]
    elems = np.array(sorted(cells))
    L = assemble_local_impedance(mesh, [elems], coeff).block(0).toarray()
    Ld, nodes = dense_system(mesh, coeff, elems, impedance_everywhere=True)
    assert np.array_equal(nodes, closed_node_set(mesh, elems))
    assert np.abs(L - Ld).max() < 1e-12


def _cell_rect(m, x0, x1, y0, y1):
    """Element ids of the cells [x0, x1) x [y0, y1) of an m x m explicit mesh."""
    return np.array(sorted(2 * (cy * m + cx) + t for cx in range(x0, x1)
                           for cy in range(y0, y1) for t in (0, 1)))


def _batch_cases():
    uniform = build_fine_mesh(1, "explicit", m=8)
    variable = build_fine_mesh(1, "explicit", m=9)
    vcoeff = AssemblyCoefficients(omega=8.0, wavespeed=build_wavespeed(variable, "centered-square",
                                                                       c_star=0.66),
                                  shift_mode="multiplicative_rho", shift_value=0.3)
    return [
        (uniform, constant_coeff(uniform, 5.0, eps=2.0),
         [_cell_rect(8, 1, 5, 1, 4), _cell_rect(8, 3, 8, 2, 7), _cell_rect(8, 0, 8, 0, 8),
          _cell_rect(8, 4, 6, 4, 6), _cell_rect(8, 7, 8, 0, 1)]),
        (variable, vcoeff,
         [_cell_rect(9, 0, 5, 0, 5), _cell_rect(9, 3, 9, 2, 8), _cell_rect(9, 2, 7, 2, 7),
          _cell_rect(9, 4, 5, 4, 5)]),
    ]


@pytest.mark.parametrize("case", [0, 1], ids=["uniform", "centered-square"])
def test_local_impedance_batch_equals_one_call_per_set(case):
    mesh, coeff, sets = _batch_cases()[case]
    batch = assemble_local_impedance(mesh, sets, coeff)
    assert len(batch) == len(sets)
    singles = [assemble_local_impedance(mesh, [elems], coeff) for elems in sets]
    for s, (elems, one) in enumerate(zip(sets, singles)):
        L, single = batch.block(s), one.block(0)
        assert L.format == "csr" and L.shape == single.shape
        assert np.array_equal(L.indptr, single.indptr)
        assert np.array_equal(L.indices, single.indices)
        assert np.array_equal(L.data, single.data)
        Ld, nodes = dense_system(mesh, coeff, elems, impedance_everywhere=True)
        assert np.array_equal(nodes, closed_node_set(mesh, elems))
        assert np.abs(L.toarray() - Ld).max() < 1e-12 * np.abs(Ld).max()
    # the one-set blocks tile the batch: no entry lies outside them
    assert np.array_equal(batch.offs, np.cumsum([0] + [one.offs[-1] for one in singles]))
    assert batch.indptr[-1] == sum(one.indptr[-1] for one in singles)


def test_local_impedance_empty_subdomain():
    # an empty set anywhere in a batch, or no sets at all
    mesh, coeff, sets = _batch_cases()[0]
    empty = np.array([], dtype=int)
    for bad in ([empty], [sets[0], empty], [empty, sets[1]], []):
        with pytest.raises(ValueError):
            assemble_local_impedance(mesh, bad, coeff)


def test_coefficient_validation():
    mesh = build_fine_mesh(1, "explicit", m=9)
    ws = build_wavespeed(mesh, "centered-square", c_star=2.0)
    with pytest.raises(ValueError):
        AssemblyCoefficients(omega=5.0, wavespeed=ws, shift_mode="additive_eps",
                             shift_value=1.0)
    with pytest.raises(ValueError):
        AssemblyCoefficients(omega=5.0, wavespeed=ws, shift_mode="multiplicative_rho",
                             shift_value=-0.1)
    with pytest.raises(ValueError):
        AssemblyCoefficients(omega=-1.0, wavespeed=ws, shift_mode="multiplicative_rho",
                             shift_value=0.1)
    other = build_fine_mesh(1, "explicit", m=4)
    coeff = constant_coeff(mesh, 5.0)
    with pytest.raises(ValueError):
        assemble_system(other, coeff)


def test_galerkin_consistency_plane_wave():
    # residual of the plane-wave interpolant decays (at least) first order in h
    k = 5.0
    norms = []
    for m in (10, 20, 40):
        mesh = build_fine_mesh(1, "explicit", m=m)
        coeff = constant_coeff(mesh, k, eps=0.0)
        A = assemble_system(mesh, coeff)
        u = np.exp(1j * k * mesh.nodes[:, 0])
        f = np.zeros(mesh.n, complex)
        # boundary load of g = du/dn - i k u for u = exp(ikx), 6-pt Gauss per edge
        q, w = np.polynomial.legendre.leggauss(6)
        q = (q + 1) / 2
        w = w / 2
        normals = {0: (0, -1), 1: (1, 0), 2: (0, 1), 3: (-1, 0)}
        sides = np.repeat(np.arange(4), m)  # m edges each: south, east, north, west
        for (a, b), side in zip(mesh.boundary_edge_nodes, sides):
            pa, pb = mesh.nodes[a], mesh.nodes[b]
            L = np.linalg.norm(pb - pa)
            nx = normals[side][0]
            for qi, wi in zip(q, w):
                x = pa + qi * (pb - pa)
                g = (1j * k * nx - 1j * k) * np.exp(1j * k * x[0])
                f[a] += L * wi * g * (1 - qi)
                f[b] += L * wi * g * qi
        norms.append(np.abs(A @ u - f).max())
    assert norms[1] < 0.6 * norms[0]
    assert norms[2] < 0.6 * norms[1]


def test_matrix_market_roundtrip(tmp_path):
    mesh = build_fine_mesh(1, "explicit", m=3)
    A = assemble_system(mesh, constant_coeff(mesh, 4.0, eps=1.0))
    path = tmp_path / "system.mtx"
    write_matrix_market(A, str(path))
    header = path.read_text().splitlines()[0]
    assert "complex" in header and "coordinate" in header and "general" in header
    B = sp.csr_matrix(mmread(str(path)))
    assert np.abs((A - B).toarray()).max() < 1e-12
