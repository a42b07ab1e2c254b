import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helmdd.assembly import AssemblyCoefficients, BlockDiagonal, assemble_system
from helmdd.decomposition import build_block_decomposition, build_decomposition
from helmdd.krylov import KrylovConfig, fgmres, gmres
from helmdd.mesh import build_fine_mesh, build_wavespeed, ceil_snapped, layout_from_blocks
from helmdd import harness, precond
from helmdd.precond import (KINDS, DirectFactorization, LocalSolves, NestedSolver,
                            SingularMatrixError, build_preconditioner, coarse_matrix)

from oracles import (dense_preconditioner, dense_system, one_at_a_time,
                     six_product_hybrid_apply)


def setup_problem(m, M, k=5.0, eps=None, scenario="constant", c_star=1.0):
    mesh = build_fine_mesh(1, "explicit", m=m)
    ws = build_wavespeed(mesh, scenario, c_star=c_star)
    if scenario == "constant":
        coeff0 = AssemblyCoefficients(omega=k, wavespeed=ws, shift_mode="additive_eps",
                                      shift_value=0.0)
        coeffp = AssemblyCoefficients(omega=k, wavespeed=ws, shift_mode="additive_eps",
                                      shift_value=k if eps is None else eps)
    else:
        coeff0 = AssemblyCoefficients(omega=k, wavespeed=ws,
                                      shift_mode="multiplicative_rho", shift_value=0.0)
        coeffp = AssemblyCoefficients(omega=k, wavespeed=ws,
                                      shift_mode="multiplicative_rho",
                                      shift_value=0.5 if eps is None else eps)
    A_sys = assemble_system(mesh, coeff0)
    A_prec = assemble_system(mesh, coeffp)
    layout = layout_from_blocks(mesh, M)
    decomp = build_decomposition(mesh, layout)
    return mesh, decomp, A_sys, A_prec, coeffp


def test_factorize_identity_and_permutation():
    eye = sp.identity(5, format="csr", dtype=complex)
    f = DirectFactorization(eye)
    rhs = np.arange(5.0) + 1j
    assert np.allclose(f.solve(rhs), rhs, atol=1e-14)
    perm = sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=complex))
    f2 = DirectFactorization(perm)
    assert np.allclose(f2.solve(np.array([1.0, 2.0])), [2.0, 1.0], atol=1e-14)


def test_factorize_matches_dense_lu():
    rng = np.random.default_rng(1)
    A = sp.random(50, 50, density=0.2, random_state=1, dtype=float).toarray()
    A = A + 1j * rng.standard_normal((50, 50)) * (A != 0) + 5 * np.eye(50)
    f = DirectFactorization(sp.csr_matrix(A))
    b = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    x = f.solve(b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10
    assert np.linalg.norm(x - np.linalg.solve(A, b)) / np.linalg.norm(x) < 1e-10
    assert f.fill_nnz > 0


def test_factorize_singular_raises():
    with pytest.raises(SingularMatrixError):
        DirectFactorization(sp.csr_matrix(np.zeros((3, 3), dtype=complex)))
    big = sp.identity(300, format="csr", dtype=complex).tolil()
    big[7, 7] = 0.0
    with pytest.raises(SingularMatrixError):
        DirectFactorization(big.tocsr())
    # structurally nonsingular, exactly singular: two equal rows and columns
    big[7, 7] = big[7, 8] = big[8, 7] = 1.0
    with pytest.raises(SingularMatrixError):
        DirectFactorization(big.tocsr())


def _zero_diagonal_symmetric(n=300, big=1e6, seed=0):
    """A complex symmetric n x n matrix whose odd rows have zero diagonal
    entries: each even row 2i holds big on its diagonal and 1 at 2i+1, and
    the odd rows couple at random.  Eliminating row 2i leaves -1/big on the
    diagonal of row 2i+1, far below the rest of its column."""
    rng = np.random.default_rng(seed)
    e, o = np.arange(0, n, 2), np.arange(1, n, 2)
    i, j = o[rng.integers(0, len(o), 4 * n)], o[rng.integers(0, len(o), 4 * n)]
    v = rng.standard_normal(4 * n) + 1j * rng.standard_normal(4 * n)
    upper = sp.csr_matrix((v[i < j], (i[i < j], j[i < j])), shape=(n, n))
    upper += sp.csr_matrix((np.ones(len(e)), (e, e + 1)), shape=(n, n))
    return upper + upper.T + sp.diags(np.where(np.arange(n) % 2, 0.0, big))


def test_zero_diagonal_symmetric_matrix_pivots_off_the_diagonal():
    # SuperLU keeps a diagonal pivot only while it is at least 0.1 of its
    # column's largest entry: with diag_pivot_thresh=0.0 it takes the
    # -1e-6 diagonals left by the even rows, and the residual is 3e-8 (3e-14
    # at 0.1; the condition number is 4e7)
    A = _zero_diagonal_symmetric()
    assert A.shape[0] > precond.DENSE_SOLVE_CUTOFF
    assert (A != A.T).nnz == 0 and not A.diagonal()[1::2].any()
    rng = np.random.default_rng(1)
    b = rng.standard_normal((A.shape[0], 3)) + 1j * rng.standard_normal((A.shape[0], 3))
    x = DirectFactorization(A).solve(b)
    res = np.linalg.norm(A @ x - b, axis=0) / np.linalg.norm(b, axis=0)
    assert res.max() <= 1e-12


def test_factorization_well_conditioned_contract():
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(8, 2)
    f = DirectFactorization(A_prec)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(mesh.n) + 1j * rng.standard_normal(mesh.n)
    x = f.solve(b)
    assert np.linalg.norm(A_prec @ x - b) / np.linalg.norm(b) < 1e-10


def test_dense_solve_is_stored_inverse_product_bitwise():
    # a dense solve is one product with the inverse formed at set-up: zgemv
    # for a vector or a single column, zgemm for a block; it agrees with the
    # LU solve to round-off only
    rng = np.random.default_rng(2)
    A = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    f = DirectFactorization(sp.csr_matrix(A))
    lu = sla.lu_factor(A)
    C = rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))
    for b in (C[:, 0].copy(), C[:, :1], C, C.T.copy().T):  # vector, column, C-ordered, view
        x = f.solve(b)
        assert x.shape == b.shape
        if b.ndim == 1 or b.shape[1] == 1:
            assert np.array_equal(x.ravel(), sla.blas.zgemv(1.0, f._inv, b.ravel()))
        else:
            assert np.array_equal(x, sla.blas.zgemm(1.0, f._inv, b))
        want = sla.lu_solve(lu, b)
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    b = np.ones(40, complex)
    b[3] = np.nan
    with pytest.raises(ValueError):
        f.solve(b)
    # a real matrix still takes a complex right-hand side
    fr = DirectFactorization(sp.csr_matrix(A.real))
    b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    x = np.linalg.solve(A.real, b)
    assert np.linalg.norm(fr.solve(b) - x) <= 1e-12 * np.linalg.norm(x)


def test_dense_solve_of_near_resonant_block_as_accurate_as_lu():
    # the eps=0 Dirichlet block of the centre subdomain lies near a local
    # resonance at k=12.25 (condition number about 5e4): solving with the
    # inverse loses at most 10x the forward accuracy of an LU solve
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(24, 3, k=12.25, eps=0.0)
    idx = decomp.subdomains[4].interior_nodes
    A = A_sys[idx][:, idx].toarray()
    assert np.linalg.cond(A) > 1e4
    rng = np.random.default_rng(5)
    x = rng.standard_normal((len(idx), 8)) + 1j * rng.standard_normal((len(idx), 8))
    b = A @ x
    err = np.linalg.norm(DirectFactorization(sp.csr_matrix(A)).solve(b) - x)
    err_lu = np.linalg.norm(sla.lu_solve(sla.lu_factor(A), b) - x)
    assert err <= 10 * err_lu


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("setup", [
    dict(m=8, M=2, k=5.0, eps=5.0),
    dict(m=6, M=2, k=4.0, scenario="centered-square", c_star=1.5),
])
def test_dense_oracle_equivalence(kind, setup):
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(**setup)
    P = build_preconditioner(kind, mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff, system_matrix=A_sys)
    Bd = dense_preconditioner(kind, mesh, decomp, A_sys, A_prec, coeff)
    rng = np.random.default_rng(42)
    for _ in range(5):
        v = rng.standard_normal(mesh.n) + 1j * rng.standard_normal(mesh.n)
        got = P.apply(v)
        want = Bd @ v
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-10
    # and the densified operator agrees entrywise
    assert np.abs(P.to_dense() - Bd).max() < 1e-10 * np.abs(Bd).max()


_ORACLE_SETUPS = [  # the setups of test_dense_oracle_equivalence
    dict(m=8, M=2, k=5.0, eps=5.0),
    dict(m=6, M=2, k=4.0, scenario="centered-square", c_star=1.5),
]


@pytest.mark.parametrize("kind, setup, nested_coarse", [
    (kind, setup, None) for kind in ("HRAS", "ImpHRAS") for setup in _ORACLE_SETUPS
] + [("HRAS", _ORACLE_SETUPS[0], dict(k=5.0, tol=1e-12))],
    ids=["HRAS-setup0", "HRAS-setup1", "ImpHRAS-setup0", "ImpHRAS-setup1",
         "HRAS-setup0-nested"])
def test_hybrid_apply_matches_six_product_oracle(kind, setup, nested_coarse):
    # the apply in four products (R0 A formed once, its transpose for A R0^T)
    # equals the six-product formula with A at round-off; a nested coarse
    # solve at inner tolerance 1e-12 solves the coarse problem to round-off
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(**setup)
    P = build_preconditioner(kind, mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff, system_matrix=A_sys,
                             nested_coarse=nested_coarse)
    rng = np.random.default_rng(8)
    V = rng.standard_normal((mesh.n, 3)) + 1j * rng.standard_normal((mesh.n, 3))
    R0 = decomp.coarse_interp  # complex; the operator holds this matrix, not a copy
    assert P.coarse.R0 is R0
    for v in (V[:, 0].copy(), V):
        assert np.array_equal(P.coarse.R0 @ v, R0 @ v)
        assert np.array_equal(P.coarse.R0T @ v[:R0.shape[0]], R0.T @ v[:R0.shape[0]])
        got = P.apply(v)
        want = six_product_hybrid_apply(P, A_sys, R0, v)
        assert got.shape == v.shape
        err = np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)
        assert err.max() <= 1e-13


@pytest.mark.parametrize("cfg", [
    harness.ExperimentConfig(k=10, preset="table1", precond="HRAS"),
    harness.ExperimentConfig(k=20, preset="table4", mesh_rule="points_per_wavelength",
                             precond="ImpHRAS", alpha=0.5, rhs="ones"),
    harness.ExperimentConfig(k=16, preset="table6_variable", scenario="centered-square",
                             c_star=1.5, anchor_square=True, shift_family="multiplicative",
                             beta=1.2),
    harness.ExperimentConfig(k=16, preset="table6_variable", scenario="shifted-square",
                             c_star=0.66, anchor_square=True, shift_family="multiplicative",
                             beta=1.2),
], ids=["table1-hras", "table4-imphras", "table6-centred", "table6-shifted"])
def test_system_matrix_is_bitwise_symmetric(cfg):
    # the hybrid apply takes A R0^T as (R0 A)^T, which needs A^T = A
    A = harness.build_problem(cfg).A_sys
    assert (A != A.T).nnz == 0


@pytest.mark.parametrize("kind, nested, calls", [
    ("RAS1", False, 0), ("AS", False, 1), ("HRAS", False, 2), ("ImpHRAS", False, 2),
    ("HRAS", True, 2),
], ids=["RAS1", "AS", "HRAS", "ImpHRAS", "HRAS-nested"])
def test_coarse_solves_run_inside_coarse_apply(monkeypatch, kind, nested, calls):
    # perfbench wraps CoarseSolve.apply as the coarse span and counts every
    # solve outside it as a local solve: each coarse solve must run inside it
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(12, 3, k=6.0, eps=6.0)
    P = build_preconditioner(kind, mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff, system_matrix=A_sys,
                             nested_coarse=dict(k=6.0) if nested else None)
    entered, depth = [], []
    coarse_apply = precond.CoarseSolve.apply

    def counted(self, *args):
        entered.append(1)
        depth.append(1)
        try:
            return coarse_apply(self, *args)
        finally:
            depth.pop()
    monkeypatch.setattr(precond.CoarseSolve, "apply", counted)
    if P.coarse is not None:
        solve = P.coarse.solver.solve

        def guarded(rhs):
            assert depth, "coarse solve outside CoarseSolve.apply"
            return solve(rhs)
        monkeypatch.setattr(P.coarse.solver, "solve", guarded)
    v = np.ones((mesh.n, 3), complex)
    for arg in (v[:, 0], v):
        entered.clear()
        P.apply(arg)
        assert len(entered) == calls


@pytest.mark.parametrize("kind", KINDS)
def test_linearity(kind):
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(8, 2)
    P = build_preconditioner(kind, mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff, system_matrix=A_sys)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(mesh.n) + 1j * rng.standard_normal(mesh.n)
    v = rng.standard_normal(mesh.n) + 1j * rng.standard_normal(mesh.n)
    a, b = 1.3 - 0.2j, -0.7 + 2.1j
    lhs = P.apply(a * u + b * v)
    rhs = a * P.apply(u) + b * P.apply(v)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-12
    assert np.linalg.norm(P.apply(np.zeros(mesh.n, complex))) == 0.0


@pytest.mark.parametrize("kind", KINDS)
def test_apply_matches_to_dense(kind):
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(8, 2)
    P = build_preconditioner(kind, mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff, system_matrix=A_sys)
    D = P.to_dense()
    rng = np.random.default_rng(12)
    for _ in range(3):
        v = rng.standard_normal(mesh.n) + 1j * rng.standard_normal(mesh.n)
        want = D @ v
        assert np.linalg.norm(P.apply(v) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("kind, nested", [pytest.param(kind, False, id=kind) for kind in KINDS]
                         + [pytest.param("ImpRAS1", True, id="ImpRAS1-nested")])
def test_block_apply_matches_column_applies(kind, nested):
    # a nested local block apply runs one grouped inner GMRES per column, and
    # each class records each input column's members in turn, as the column
    # applies do
    if nested:  # 4 classes of different sizes in one group
        mesh, decomp, A_sys, A_prec, coeff = setup_problem(24, 3, k=8.0, eps=8.0)
        nesting = dict(nested_local=dict(k=12.0, alpha_inner=0.8))
    else:
        mesh, decomp, A_sys, A_prec, coeff = setup_problem(8, 2)
        nesting = {}
    P = build_preconditioner(kind, mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff, system_matrix=A_sys, **nesting)
    rng = np.random.default_rng(13)
    V = rng.standard_normal((mesh.n, 3)) + 1j * rng.standard_normal((mesh.n, 3))
    want = np.column_stack([P.apply(V[:, j]) for j in range(3)])
    split = [len(s.inner_counts) for s in P.nested]
    got = P.apply(V)
    assert got.shape == (mesh.n, 3)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert len(P.nested) == (4 if nested else 0)
    for s, at in zip(P.nested, split):
        assert at > 0 and s.inner_counts[at:] == s.inner_counts[:at]
    assert P.apply(V[:, 0]).shape == (mesh.n,)


@pytest.mark.parametrize("kind, nesting", [("RAS1", "nested_coarse"),
                                           ("HRAS", "nested_local")])
def test_nesting_the_kind_cannot_use_is_refused(kind, nesting):
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(12, 3, k=6.0, eps=6.0)
    with pytest.raises(ValueError, match="to nest"):
        build_preconditioner(kind, mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff, system_matrix=A_sys,
                             **{nesting: dict(k=6.0)})


def test_single_subdomain_collapse():
    mesh, _, A_sys, A_prec, coeff = setup_problem(6, 2)
    layout = layout_from_blocks(mesh, 1)
    dec1 = build_decomposition(mesh, layout)
    Ad = A_prec.toarray()
    rng = np.random.default_rng(3)
    v = rng.standard_normal(mesh.n) + 1j * rng.standard_normal(mesh.n)
    want = np.linalg.solve(Ad, v)
    for kind in ("AS1", "RAS1", "ImpRAS1"):
        P = build_preconditioner(kind, mesh=mesh, decomp=dec1, A_prec=A_prec,
                                 coeff_prec=coeff)
        assert np.linalg.norm(P.apply(v) - want) / np.linalg.norm(want) < 1e-12


def test_hras_with_full_coarse_space_is_exact():
    # M = m: R0 is the identity, the coarse term alone solves A_eps; at eps=0
    # GMRES converges in one iteration
    mesh, _, A_sys, _, _ = setup_problem(6, 2)
    ws = build_wavespeed(mesh, "constant")
    coeff0 = AssemblyCoefficients(omega=5.0, wavespeed=ws, shift_mode="additive_eps",
                                  shift_value=0.0)
    layout = layout_from_blocks(mesh, mesh.m)
    with pytest.warns(UserWarning):
        dec = build_decomposition(mesh, layout)
    R0 = dec.coarse_interp
    assert (R0 != sp.identity(mesh.n, format="csr")).nnz == 0
    P = build_preconditioner("HRAS", mesh=mesh, decomp=dec, A_prec=A_sys,
                             coeff_prec=coeff0, system_matrix=A_sys)
    b = np.ones(mesh.n, complex)
    x, rep = gmres(A_sys, P, b, KrylovConfig(rel_tol=1e-8))
    assert rep.converged and rep.iterations == 1


def test_nested_solver_tight_tolerance_matches_direct():
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(8, 2)
    A0 = coarse_matrix(decomp.coarse_interp, A_prec)
    exact = DirectFactorization(A0)
    nested = NestedSolver(A0, lambda v: exact.solve(v), inner_tol=1e-12,
                                inner_max_iters=200)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(A0.shape[0]) + 1j * rng.standard_normal(A0.shape[0])
    assert np.linalg.norm(nested.solve(b) - exact.solve(b)) < 1e-10 * np.linalg.norm(b)
    assert nested.inner_counts == [1]
    assert nested.failures == 0


def test_nested_solver_divergence_is_status_not_crash():
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(8, 2)
    nested = NestedSolver(A_sys, None, inner_tol=1e-14, inner_max_iters=2)
    b = np.ones(mesh.n, complex)
    nested.solve(b)
    assert nested.failures == 1


def test_nested_coarse_solver_flexible_flag_and_fgmres():
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(12, 3, k=6.0, eps=6.0)
    P = build_preconditioner("HRAS", mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff, system_matrix=A_sys,
                             nested_coarse=dict(k=6.0, alpha_inner=0.5))
    assert P.flexible
    assert P.nested == [P.coarse.solver]
    A0 = coarse_matrix(decomp.coarse_interp, A_prec)
    assert (P.coarse.solver.matrix != A0).nnz == 0
    b = np.ones(mesh.n, complex)
    with pytest.raises(ValueError):
        gmres(A_sys, P, b, KrylovConfig(rel_tol=1e-6))
    x, rep = fgmres(A_sys, P, b, KrylovConfig(variant="fgmres", rel_tol=1e-8))
    assert rep.converged
    assert np.linalg.norm(A_sys @ x - b) / np.linalg.norm(b) < 1e-7
    assert len(P.inner_counts()) > 0
    # exact-coarse comparison: same solve, similar iteration count
    Pex = build_preconditioner("HRAS", mesh=mesh, decomp=decomp, A_prec=A_prec,
                               coeff_prec=coeff, system_matrix=A_sys)
    x2, rep2 = gmres(A_sys, Pex, b, KrylovConfig(rel_tol=1e-8))
    assert abs(rep.iterations - rep2.iterations) <= max(3, rep2.iterations)


def test_nested_local_preconditioner():
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(16, 2, k=6.0, eps=6.0)
    P = build_preconditioner("ImpRAS1", mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff,
                             nested_local=dict(k=6.0, alpha_inner=0.8, tol=0.5))
    assert P.flexible
    b = np.ones(mesh.n, complex)
    x, rep = fgmres(A_sys, P, b, KrylovConfig(variant="fgmres", rel_tol=1e-8))
    assert rep.converged
    assert np.linalg.norm(A_sys @ x - b) / np.linalg.norm(b) < 1e-7
    assert len(P.inner_counts()) == 4 * rep.iterations  # one per subdomain per apply


def test_nested_stats_one_list_locals_then_coarse():
    # inner caps low enough that the local (2 iterations each) and the coarse
    # (1 iteration each) solves both record failures
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(16, 2, k=6.0, eps=6.0)
    P = build_preconditioner("ImpHRAS", mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff, system_matrix=A_sys,
                             nested_local=dict(k=6.0, alpha_inner=0.8, tol=0.1, max_iters=2),
                             nested_coarse=dict(k=6.0, alpha_inner=0.5, max_iters=1))
    assert P.flexible
    assert P.nested == P.locals_.solvers + [P.coarse.solver]
    b = np.ones(mesh.n, complex)
    fgmres(A_sys, P, b, KrylovConfig(variant="fgmres", rel_tol=1e-8))
    local_counts = [c for s in P.locals_.solvers for c in s.inner_counts]
    coarse_counts = P.coarse.solver.inner_counts
    assert set(local_counts) == {2} and set(coarse_counts) == {1}
    assert P.inner_counts() == local_counts + coarse_counts
    assert P.coarse.solver.failures > 0
    assert P.inner_failures() == sum(s.failures for s in P.locals_.solvers) \
        + P.coarse.solver.failures


def test_exact_preconditioner_has_no_nested_stats():
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(8, 2)
    P = build_preconditioner("HRAS", mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff, system_matrix=A_sys)
    assert not P.flexible
    assert P.inner_counts() == [] and P.inner_failures() == 0


def _distinct_count(matrices, rtol=1e-12):
    """Number of distinct dense matrices, equal meaning within rtol of the
    largest entry."""
    reps = []
    for a in matrices:
        if not any(r.shape == a.shape and np.abs(a - r).max() <= rtol * np.abs(r).max()
                   for r in reps):
            reps.append(a)
    return len(reps)


def _oracle_local_matrices(kind, mesh, decomp, A_prec, coeff):
    if kind in ("ImpRAS1", "ImpHRAS"):
        return [dense_system(mesh, coeff, sub.element_ids, impedance_everywhere=True)[0]
                for sub in decomp.subdomains]
    Ad = A_prec.toarray()
    return [Ad[np.ix_(sub.interior_nodes, sub.interior_nodes)]
            for sub in decomp.subdomains if len(sub.interior_nodes)]


@pytest.mark.parametrize("kind, nested", [
    pytest.param("HRAS", False, id="HRAS"),
    pytest.param("ImpHRAS", False, id="ImpHRAS"),
    pytest.param("ImpHRAS", True, id="ImpHRAS-nested"),
])
@pytest.mark.parametrize("setup", [
    dict(m=16, M=4, k=5.0, eps=5.0),
    dict(m=12, M=4, k=4.0, scenario="centered-square", c_star=1.5),
])
def test_local_solves_share_factors_of_equal_matrices_only(kind, nested, setup):
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(**setup)
    nesting = dict(nested_local=dict(k=setup["k"])) if nested else {}
    P = build_preconditioner(kind, mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff, system_matrix=A_sys, **nesting)
    locals_ = _oracle_local_matrices(kind, mesh, decomp, A_prec, coeff)
    # one factorisation (or nested solver) per distinct local matrix:
    # translated copies share, matrices with different coefficients never do
    assert len(P.locals_.solvers) == _distinct_count(locals_)
    if setup.get("scenario") is None:
        assert len(P.locals_.solvers) < len(decomp.subdomains)
    if nested:
        assert len(P.nested) == _distinct_count(locals_)
        return
    Bd = dense_preconditioner(kind, mesh, decomp, A_sys, A_prec, coeff)
    rng = np.random.default_rng(8)
    for _ in range(3):
        v = rng.standard_normal(mesh.n) + 1j * rng.standard_normal(mesh.n)
        want = Bd @ v
        assert np.linalg.norm(P.apply(v) - want) / np.linalg.norm(want) < 1e-10
    assert np.abs(P.to_dense() - Bd).max() < 1e-10 * np.abs(Bd).max()


def test_nested_local_classes_share_block_factorisations():
    # the inner block solves of all classes hold one factorisation per
    # distinct block matrix: 4 classes with 1, 3, 3 and 9 blocks, 9 in all
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(24, 3, k=8.0, eps=8.0)
    P = build_preconditioner("ImpRAS1", mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff, nested_local=dict(k=12.0, alpha_inner=0.8))
    factors = {id(f): f for s in P.nested for f in s.inner_precond.solvers}
    invs = [f._inv for f in factors.values()]
    assert [len(s.inner_precond.solvers) for s in P.nested] == [1, 3, 3, 9]
    assert len(invs) == _distinct_count(invs) == 9


_BENCHMARK_LAYOUTS = {
    "hras-pf-k30": harness.ExperimentConfig(
        k=30, mesh_rule="pollution_free", precond="HRAS", alpha=1.0, beta=1.0, rhs="ones"),
    "imphras-ppw-k100": harness.ExperimentConfig(
        k=100, mesh_rule="points_per_wavelength", precond="ImpHRAS", alpha=0.5, beta=1.0,
        rhs="ones"),
    "nested-local-ppw-k30": harness.ExperimentConfig(
        k=30, preset="table5_multilevel", mesh_rule="points_per_wavelength",
        precond="ImpRAS1", alpha=0.4, beta=1.2, rhs="ones",
        nesting=harness.NestingSpec(target="local", alpha_inner=0.8)),
}


@pytest.mark.parametrize("cfg, classes, factors, blocks", [
    (_BENCHMARK_LAYOUTS["hras-pf-k30"], 16, 17, None),
    (_BENCHMARK_LAYOUTS["imphras-ppw-k100"], 4, 5, None),
    (_BENCHMARK_LAYOUTS["nested-local-ppw-k30"], 4, 9, 9),
], ids=["hras-pf-k30", "imphras-ppw-k100", "nested-local-ppw-k30"])
def test_benchmark_class_partitions_pinned(monkeypatch, cfg, classes, factors, blocks):
    # the local classes and factorisations of the benchmark's solve workloads:
    # the nested classes share their block factorisations
    calls = []
    init = DirectFactorization.__init__

    def counted(self, matrix):
        calls.append(matrix.shape)
        init(self, matrix)
    monkeypatch.setattr(DirectFactorization, "__init__", counted)
    pb = harness.build_problem(cfg)
    nested = {} if cfg.nesting is None else {"nested_local": dict(
        k=float(cfg.k), alpha_inner=cfg.nesting.alpha_inner, tol=cfg.inner_tol,
        max_iters=cfg.nesting.max_iters)}
    P = build_preconditioner(cfg.precond, mesh=pb.mesh, decomp=pb.decomp,
                             A_prec=pb.A_prec, coeff_prec=pb.coeff_prec,
                             system_matrix=pb.A_sys, **nested)
    assert len(P.locals_.solvers) == classes
    assert len(calls) == factors
    if blocks is not None:
        assert len(P.nested) == classes
        assert len({id(f) for s in P.nested for f in s.inner_precond.solvers}) == blocks


def test_one_inner_gmres_per_outer_apply(monkeypatch):
    # the 4 nested classes of the nested-local benchmark's layout run one
    # inner GMRES per outer apply, entered through NestedSolver.solve, and
    # each of its steps solves each of the 9 block factorisations at most once
    cfg = _BENCHMARK_LAYOUTS["nested-local-ppw-k30"]
    pb = harness.build_problem(cfg)
    P = build_preconditioner(cfg.precond, mesh=pb.mesh, decomp=pb.decomp, A_prec=pb.A_prec,
                             coeff_prec=pb.coeff_prec, nested_local=dict(
                                 k=float(cfg.k), alpha_inner=cfg.nesting.alpha_inner,
                                 tol=cfg.inner_tol, max_iters=cfg.nesting.max_iters))
    depth, calls, events = [], [], []  # events: None per inner apply, else a solver
    nested_solve, inner_gmres = NestedSolver.solve, precond.gmres
    direct_solve = DirectFactorization.solve

    def entered(self, rhs):
        depth.append(1)
        try:
            return nested_solve(self, rhs)
        finally:
            depth.pop()

    def counted(A, M, b, config):
        calls.append(len(depth))

        class Marked:
            column_aware = getattr(M, "column_aware", False)

            def apply(self, *args):
                events.append(None)
                return M.apply(*args)
        return inner_gmres(A, Marked(), b, config)

    def solve(self, *args, **kwargs):
        events.append(id(self))
        return direct_solve(self, *args, **kwargs)
    monkeypatch.setattr(NestedSolver, "solve", entered)
    monkeypatch.setattr(precond, "gmres", counted)
    monkeypatch.setattr(DirectFactorization, "solve", solve)
    P.apply(np.ones(pb.mesh.n, complex))
    counts = P.inner_counts()
    assert calls == [1] and len(counts) == 16
    steps = []
    for e in events:
        if e is None:
            steps.append([])
        else:
            steps[-1].append(e)
    assert len(steps) == max(counts) + 1  # every step, then the solution's apply
    assert all(len(set(step)) == len(step) <= 9 for step in steps)
    assert len({e for step in steps for e in step}) == 9


@pytest.mark.parametrize("tol", [0.1, 1e-8])
def test_grouped_inner_solve_matches_class_by_class_solves(tol):
    # the one inner GMRES of 4 nested classes of different sizes gives every
    # column the iteration count, and to round-off the solution, of a GMRES
    # of its class alone; the padding rows stay zero
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(24, 3, k=8.0, eps=8.0)
    P = build_preconditioner("ImpRAS1", mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff,
                             nested_local=dict(k=12.0, alpha_inner=0.8, tol=tol))
    [(group, _, _, _)] = P.locals_.units  # one group: padding under the bound
    spans = list(zip(P.nested, group.bounds, group.bounds[1:]))
    assert len(spans) == 4 and len({s.matrix.shape[0] for s in P.nested}) > 1
    rng = np.random.default_rng(5)
    rhs = np.zeros((group.n, group.bounds[-1]), dtype=complex)
    for s, lo, hi in spans:
        m = s.matrix.shape[0]
        rhs[:m, lo:hi] = rng.standard_normal((m, hi - lo)) + 1j * rng.standard_normal((m, hi - lo))
    x = group.solve(rhs)
    for s, lo, hi in spans:
        m = s.matrix.shape[0]
        want, reps = gmres(s.matrix, s.inner_precond, rhs[:m, lo:hi], s.config)
        assert s.inner_counts == [rep.iterations for rep in reps]
        assert not x[m:, lo:hi].any()
        err = np.linalg.norm(x[:m, lo:hi] - want, axis=0) / np.linalg.norm(want, axis=0)
        assert err.max() <= 1e-12
    counts = {c for s in P.nested for c in s.inner_counts}
    assert len(counts) > 1 and max(counts) > (3 if tol == 0.1 else 20)  # columns freeze apart


def test_size_groups_of_table5_classes():
    # table5 class sizes and member counts: k=30 pads 20% of its rows and
    # runs one group; at k=160 the classes of about 3000 unknowns would pad
    # 945 rows per column, so they run apart from those of about 3900
    assert precond._size_groups([324, 414, 414, 529], [4, 4, 4, 4]) == [[0, 1, 2, 3]]
    sizes, counts = [2304, 3024, 2976, 3024, 3969, 3906, 2976, 3906, 3844], [4, 10, 2, 10, 25, 5, 2, 5, 1]
    groups = precond._size_groups(sizes, counts)
    assert groups == [[4, 5, 7, 8], [0, 1, 2, 3, 6]]
    for g in groups:
        top = max(sizes[c] for c in g)
        assert all(counts[c] * (top - sizes[c]) <= precond._GROUP_PAD_ROWS for c in g)


def test_size_groups_change_no_inner_count(monkeypatch):
    # the same nested classes solved in one group and in groups of equal size
    # give every column the same count, in the same order, and the same apply
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(24, 3, k=8.0, eps=8.0)
    rng = np.random.default_rng(6)
    vs = rng.standard_normal((3, mesh.n)) + 1j * rng.standard_normal((3, mesh.n))
    runs = []
    for bound in (precond._GROUP_PAD_ROWS, 0):
        monkeypatch.setattr(precond, "_GROUP_PAD_ROWS", bound)
        P = build_preconditioner("ImpRAS1", mesh=mesh, decomp=decomp, A_prec=A_prec,
                                 coeff_prec=coeff, nested_local=dict(k=12.0, alpha_inner=0.8))
        runs.append((len(P.locals_.units), [P.apply(v) for v in vs], P.inner_counts()))
    (one, x1, c1), (several, x2, c2) = runs
    assert one == 1 and several > 1
    assert c1 == c2
    for a, b in zip(x1, x2):
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("name", ["hras-pf-k30", "nested-local-ppw-k30"])
def test_dense_classes_of_benchmark_layouts_solve_to_round_off(monkeypatch, name):
    # every dense factorisation the build makes (local classes, nested
    # blocks) solves a random 8-column block with a relative residual of at
    # most 1e-12 per column (measured: at most 3e-15)
    cfg = _BENCHMARK_LAYOUTS[name]
    made = []
    init = DirectFactorization.__init__

    def recorded(self, matrix):
        init(self, matrix)
        made.append((self, sp.csr_matrix(matrix)))
    monkeypatch.setattr(DirectFactorization, "__init__", recorded)
    pb = harness.build_problem(cfg)
    nested = {} if cfg.nesting is None else {"nested_local": dict(
        k=float(cfg.k), alpha_inner=cfg.nesting.alpha_inner, tol=cfg.inner_tol,
        max_iters=cfg.nesting.max_iters)}
    build_preconditioner(cfg.precond, mesh=pb.mesh, decomp=pb.decomp, A_prec=pb.A_prec,
                         coeff_prec=pb.coeff_prec, system_matrix=pb.A_sys, **nested)
    dense = [(f, A) for f, A in made if f.n <= precond.DENSE_SOLVE_CUTOFF]
    assert len(dense) == {"hras-pf-k30": 16, "nested-local-ppw-k30": 9}[name]
    rng = np.random.default_rng(3)
    for f, A in dense:
        b = rng.standard_normal((f.n, 8)) + 1j * rng.standard_normal((f.n, 8))
        res = np.linalg.norm(A @ f.solve(b) - b, axis=0) / np.linalg.norm(b, axis=0)
        assert res.max() <= 1e-12


def test_superlu_classes_of_imphras_benchmark_solve_to_backward_error(monkeypatch):
    # each SuperLU class of the imphras-ppw-k100 layout (576-961 unknowns)
    # solves a random 8-column block with a normwise backward error
    # |A x - b|_1 / (|A|_1 |x|_1 + |b|_1) of at most 1e-14 per column
    # (measured: at most 9e-17)
    cfg = _BENCHMARK_LAYOUTS["imphras-ppw-k100"]
    made = []
    init = DirectFactorization.__init__

    def recorded(self, matrix):
        init(self, matrix)
        made.append((self, sp.csr_matrix(matrix)))
    monkeypatch.setattr(DirectFactorization, "__init__", recorded)
    pb = harness.build_problem(cfg)
    P = build_preconditioner(cfg.precond, mesh=pb.mesh, decomp=pb.decomp, A_prec=pb.A_prec,
                             coeff_prec=pb.coeff_prec, system_matrix=pb.A_sys)
    sparse = [(f, A) for f, A in made if f in P.locals_.solvers and not f._dense]
    assert len(sparse) == 4
    rng = np.random.default_rng(4)
    for f, A in sparse:
        b = rng.standard_normal((f.n, 8)) + 1j * rng.standard_normal((f.n, 8))
        x = f.solve(b)
        r = np.abs(A @ x - b).sum(axis=0)
        berr = r / (spla.norm(A, 1) * np.abs(x).sum(axis=0) + np.abs(b).sum(axis=0))
        assert berr.max() <= 1e-14


_LARGE_LOCALS = dict(m=32, M=2, k=5.0, eps=5.0)  # 529 and 576 local unknowns
_LARGE_COARSE = dict(m=45, M=15, k=6.0, eps=6.0)  # 256 coarse unknowns


@pytest.mark.parametrize("kind, setup, nesting", [
    pytest.param(kind, setup, {}, id=f"{kind}-{name}") for kind in KINDS
    for name, setup in (("locals", _LARGE_LOCALS),
                        ("centred", dict(m=32, M=2, k=4.0, scenario="centered-square",
                                         c_star=1.5)))]
    + [pytest.param(kind, _LARGE_COARSE, {}, id=f"{kind}-coarse")
       for kind in ("AS", "HRAS", "ImpHRAS")]
    + [pytest.param("ImpRAS1", _LARGE_LOCALS, dict(nested_local=dict(k=1.0)),
                    id="ImpRAS1-nested-local"),
       pytest.param("ImpHRAS", _LARGE_COARSE, dict(nested_local=dict(k=1.0)),
                    id="ImpHRAS-nested-local"),
       pytest.param("HRAS", dict(m=48, M=16, k=5.0, eps=5.0), dict(nested_coarse=dict(k=1.0)),
                    id="HRAS-nested-coarse")])
def test_every_superlu_matrix_is_bitwise_symmetric(monkeypatch, kind, setup, nesting):
    # SuperLU's symmetric mode (DirectFactorization) rests on A^T = A: every
    # matrix that reaches it, local (Dirichlet, impedance, nested block) or
    # Galerkin coarse (coarse_matrix), is complex symmetric bitwise
    factored = []
    splu = precond.spla.splu

    def recorded(matrix, *args, **kwargs):
        factored.append(sp.csr_matrix(matrix))
        return splu(matrix, *args, **kwargs)
    monkeypatch.setattr(precond.spla, "splu", recorded)
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(**setup)
    build_preconditioner(kind, mesh=mesh, decomp=decomp, A_prec=A_prec, coeff_prec=coeff,
                         system_matrix=A_sys, **nesting)
    assert factored
    for A in factored:
        assert (A != A.T).nnz == 0


def _table4_imphras(k):
    return harness.ExperimentConfig(k=k, preset="table4", mesh_rule="points_per_wavelength",
                                    precond="ImpHRAS", alpha=0.5, beta=1.0, rhs="ones")


def _table3_nested(k):
    return harness.ExperimentConfig(k=k, preset="table3", precond="HRAS", alpha=1.0, beta=1.0,
                                    rhs="plane_wave", nesting=harness.NestingSpec("coarse", 0.5))


def _table6(scenario, c_star, k=16):
    return harness.ExperimentConfig(k=k, preset="table6_variable", scenario=scenario,
                                    c_star=c_star, anchor_square=True,
                                    shift_family="multiplicative", precond="HRAS", alpha=1.0,
                                    beta=1.6, rhs="ones",
                                    nesting=harness.NestingSpec("coarse", 0.5))


def _keyed_local_blocks(cfg, kind):
    """(mesh, _KeyedBlocks) of one layout's local matrices: "impedance" or
    "dirichlet" on the subdomains of the fine mesh, or "coarse", the impedance
    blocks of the nested coarse solve on the snapped coarse mesh."""
    pb = harness.build_problem(cfg)
    mesh, subs, coeff = pb.mesh, pb.decomp.subdomains, pb.coeff_prec
    if kind == "coarse":
        mesh = pb.decomp.layout.as_mesh()
        Mi = min(ceil_snapped(cfg.k ** cfg.nesting.alpha_inner), mesh.m)
        subs = build_block_decomposition(mesh, (0, mesh.m, 0, mesh.m), Mi, Mi).subdomains
        coeff = coeff.on_mesh(mesh)
    if kind == "dirichlet":
        _, offs = precond._stacked([sub.interior_nodes for sub in subs])
        return mesh, precond._dirichlet_blocks(mesh, subs, offs, pb.A_prec, coeff)
    _, offs = precond._stacked([sub.closed_nodes for sub in subs])
    return mesh, precond._impedance_blocks(mesh, subs, offs, coeff)


@pytest.mark.parametrize("cfg, kind, oracle", [
    pytest.param(cfg, "impedance", True, id=name) for name, cfg in _BENCHMARK_LAYOUTS.items()]
    + [pytest.param(_table4_imphras(260), "impedance", False, id="table4-k260"),
       pytest.param(_BENCHMARK_LAYOUTS["hras-pf-k30"], "dirichlet", True,
                    id="dirichlet-hras-pf-k30"),
       pytest.param(harness.ExperimentConfig(k=40, mesh_rule="pollution_free", precond="HRAS",
                                             alpha=1.0, beta=1.0, rhs="ones"),
                    "dirichlet", True, id="dirichlet-hras-pf-k40"),
       pytest.param(_table6("centered-square", 1.5), "dirichlet", True,
                    id="dirichlet-table6-centred-k16"),
       pytest.param(_table3_nested(30), "coarse", True, id="coarse-table3-k30"),
       pytest.param(_table6("shifted-square", 0.66), "coarse", True,
                    id="coarse-table6-shifted-k16")])
def test_geometry_key_members_equal_representative_to_round_off(cfg, kind, oracle):
    # every member of a key class, assembled or gathered, is its class's first
    # member up to coordinate round-off (measured 0.14-0.20 m eps, m = 30 to
    # 414, on the mesh the blocks lie on); where the 64-eps reference rule
    # does not split classes (m below about 400) it gives the key partition
    mesh, keyed = _keyed_local_blocks(cfg, kind)
    labels = precond._MatrixClasses(lambda matrix, first: None).classify(keyed)
    reps, mats = {}, []
    tol = 0.25 * mesh.m * np.finfo(float).eps
    for lo in range(0, len(labels), 64):
        part = list(range(lo, min(lo + 64, len(labels))))
        batch = keyed.assemble(part)
        for j, i in enumerate(part):
            a = batch.block(j)
            rep = reps.setdefault(labels[i], a.copy())
            assert np.array_equal(a.indptr, rep.indptr)
            assert np.array_equal(a.indices, rep.indices)
            assert np.abs(a.data - rep.data).max() <= tol * np.abs(rep.data).max()
            if oracle:
                mats.append(a.copy())
    assert list(reps) == list(range(len(reps)))  # classes in first-appearance order
    if oracle:
        assert one_at_a_time(mats) == labels.tolist()


@pytest.mark.parametrize("cfg, kind, classes, blocks", [
    (_table3_nested(30), "coarse", 16, 36),
    (_table6("shifted-square", 0.66), "coarse", 9, 16),
    (_table6("centered-square", 1.5), "dirichlet", 60, 256),
    (_table6("shifted-square", 0.66), "dirichlet", 40, 256),
    (_table6("centered-square", 1.0), "dirichlet", 25, 256),
], ids=["coarse-table3-k30", "coarse-table6-shifted-k16", "dirichlet-table6-centred-k16",
        "dirichlet-table6-shifted-k16", "dirichlet-table6-constant-k16"])
def test_keyed_class_partitions_pinned(cfg, kind, classes, blocks):
    # the geometry-key classes of the coarse-mesh blocks of a nested coarse
    # solve and of the Dirichlet blocks of table6, one build of each founder
    _, keyed = _keyed_local_blocks(cfg, kind)
    built = []
    labels = precond._MatrixClasses(lambda matrix, first: built.append(first)).classify(keyed)
    assert len(labels) == blocks
    assert len(built) == labels.max() + 1 == classes


def test_table4_impedance_classes_do_not_split_at_k240(monkeypatch):
    # the 64-eps matrix rule split the 256 subdomains of this layout (m=382)
    # into 16 classes; keyed by geometry they form 9, one assembly each
    cfg = _table4_imphras(240)
    pb = harness.build_problem(cfg)
    calls = []
    assemble = precond.assemble_local_impedance
    monkeypatch.setattr(precond, "assemble_local_impedance",
                        lambda mesh, sets, coeff: calls.append(len(sets))
                        or assemble(mesh, sets, coeff))
    P = build_preconditioner(cfg.precond, mesh=pb.mesh, decomp=pb.decomp, A_prec=pb.A_prec,
                             coeff_prec=pb.coeff_prec, system_matrix=pb.A_sys)
    assert len(pb.decomp.subdomains) == 256
    assert len(P.locals_.solvers) == 9
    assert calls == [9]


def test_threads_other_than_one_refused_before_any_work(monkeypatch):
    # the table5 nested-local configuration, whose classes share their block
    # factorisations
    cfg = harness.ExperimentConfig(k=12, preset="table5_multilevel",
                                   mesh_rule="points_per_wavelength", precond="ImpRAS1",
                                   alpha=0.4, beta=1.2, rhs="ones")
    pb = harness.build_problem(cfg)
    calls = []
    monkeypatch.setattr(precond, "assemble_local_impedance",
                        lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError, match="threads"):
        build_preconditioner(cfg.precond, mesh=pb.mesh, decomp=pb.decomp,
                             A_prec=pb.A_prec, coeff_prec=pb.coeff_prec,
                             nested_local=dict(k=12.0, alpha_inner=0.8), threads=2)
    assert calls == []


@pytest.mark.parametrize("cfg", [
    harness.ExperimentConfig(k=12, preset="table3", precond="HRAS", alpha=1.0, beta=1.0,
                             rhs="plane_wave",
                             nesting=harness.NestingSpec("coarse", 0.5)),
    harness.ExperimentConfig(k=16, preset="table6_variable", scenario="shifted-square",
                             c_star=0.66, anchor_square=True,
                             shift_family="multiplicative", precond="HRAS", alpha=1.0,
                             beta=1.6, rhs="ones",
                             nesting=harness.NestingSpec("coarse", 0.5)),
], ids=["table3-k12", "table6-shifted-k16"])
def test_nested_coarse_inner_precond_is_one_level_impras1(cfg):
    # the nested coarse solve's inner preconditioner equals ImpRAS1 built by
    # build_preconditioner over a whole-mesh decomposition of the coarse mesh
    pb = harness.build_problem(cfg)
    nested = dict(k=float(cfg.k), alpha_inner=cfg.nesting.alpha_inner)
    inner = precond.build_nested_coarse_solver(pb.decomp, pb.A_prec, pb.coeff_prec,
                                               **nested).inner_precond
    A0 = coarse_matrix(pb.decomp.coarse_interp, pb.A_prec)
    cmesh = pb.decomp.layout.as_mesh()
    Mi = min(ceil_snapped(cfg.k ** cfg.nesting.alpha_inner), cmesh.m)
    ref = build_preconditioner("ImpRAS1", mesh=cmesh,
                               decomp=build_decomposition(cmesh, layout_from_blocks(cmesh, Mi)),
                               A_prec=A0, coeff_prec=pb.coeff_prec.on_mesh(cmesh))
    rng = np.random.default_rng(11)
    v = rng.standard_normal((cmesh.n, 3)) + 1j * rng.standard_normal((cmesh.n, 3))
    assert np.array_equal(inner.apply(v[:, 0]), ref.apply(v[:, 0]))
    assert np.array_equal(inner.apply(v), ref.apply(v))


def _block_diagonal(mats):
    """BlockDiagonal of the matrices (their nonzero entries)."""
    b = sp.block_diag([sp.csr_matrix(a) for a in mats], format="csr")
    b.sum_duplicates()
    offs = np.concatenate([[0], np.cumsum([a.shape[0] for a in mats])])
    return BlockDiagonal(b.indptr, b.indices, b.data, offs)


def _keyed(keys, mats):
    """_KeyedBlocks of the matrices under the given keys, recording which
    blocks it assembles."""
    offs = np.concatenate([[0], np.cumsum([a.shape[0] for a in mats])])
    made = []

    def assemble(firsts):
        made.append(list(firsts))
        return _block_diagonal([mats[f] for f in firsts])
    return precond._KeyedBlocks(keys, offs, assemble), made


_BASE = np.array([[4.0, 0.5, 0.0], [0.5, 4.0, 0.5], [0.0, 0.5, 4.0]], dtype=complex)


def test_batch_classes_skip_empty_blocks():
    # a subdomain with an empty solve set is an empty block: it has no class,
    # no place in the gathered vector, and its owned nodes no weight
    mats = [_BASE, np.zeros((0, 0)), _BASE, np.zeros((0, 0))]
    keyed, made = _keyed([("a",), ("e",), ("a",), ("e",)], mats)
    assert precond._MatrixClasses().classify(keyed).tolist() == [0, -1, 0, -1]
    assert one_at_a_time(mats) == [0, -1, 0, -1] and made == [[0]]
    rows = np.array([0, 1, 2, 3, 4, 5])
    own = (np.array([0, 0, 0, 1, 2, 2, 2, 3]), np.array([0, 1, 2, 7, 3, 4, 5, 6]),
           np.ones(8))
    L = LocalSolves(8, keyed, rows, own)
    assert len(L.solvers) == 1 and [u[1:] for u in L.units] == [(3, 0, 6)]
    v = np.arange(8.0) + 1j
    want = np.zeros(8, dtype=complex)
    want[:3] = np.linalg.solve(_BASE, v[:3])
    want[3:6] = np.linalg.solve(_BASE, v[3:6])
    assert np.abs(L.apply(v) - want).max() < 1e-14


def test_local_solves_restore_blas_thread_count():
    fns = precond._scipy_openblas()
    if fns is None:
        pytest.skip("scipy does not bundle OpenBLAS here")
    get, set_ = fns
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(12, 3, k=6.0, eps=6.0)
    seen = []

    def record(v):
        seen.append(get())
        return v

    nested = NestedSolver(A_prec, record, inner_tol=1e-14, inner_max_iters=2)
    own = np.arange(mesh.n)
    probe = LocalSolves(mesh.n, _keyed([("probe",)], [A_prec])[0], own,
                        (np.zeros(mesh.n, dtype=int), own, np.ones(mesh.n)),
                        classes=precond._MatrixClasses(lambda matrix, first: nested))
    v = np.ones(mesh.n, complex)
    before = get()
    try:
        set_(2)
        P = build_preconditioner("ImpHRAS", mesh=mesh, decomp=decomp, A_prec=A_prec,
                                 coeff_prec=coeff, system_matrix=A_sys)
        assert get() == 2
        P.apply(v)
        assert get() == 2
        probe.apply(v)
        assert get() == 2
    finally:
        set_(before)
    assert seen and set(seen) == {1}  # pinned inside the apply


def test_nested_inner_counts_pinned():
    # inner iteration counts of the per-subdomain implementation, which
    # batching and shared solvers must reproduce exactly; the 4 subdomains
    # form one class, whose solver records apply by apply, member by member
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(16, 2, k=6.0, eps=6.0)
    P = build_preconditioner("ImpRAS1", mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff,
                             nested_local=dict(k=6.0, alpha_inner=0.8, tol=0.5))
    b = np.ones(mesh.n, complex)
    x, rep = fgmres(A_sys, P, b, KrylovConfig(variant="fgmres", rel_tol=1e-8))
    assert rep.iterations == 19
    assert len(P.nested) == 1
    assert np.reshape(P.inner_counts(), (19, 4)).T.ravel().tolist() == [  # by subdomain
        3, 2, 1, 2, 2, 2, 1, 2, 1, 1, 1, 1, 2, 2, 1, 1, 2, 1, 1,
        3, 2, 1, 2, 2, 2, 1, 2, 1, 1, 1, 1, 2, 2, 2, 1, 1, 1, 1,
        3, 2, 1, 2, 2, 2, 1, 2, 1, 1, 1, 1, 2, 2, 2, 1, 1, 1, 1,
        3, 2, 1, 2, 2, 2, 1, 2, 1, 1, 1, 1, 2, 2, 1, 1, 2, 1, 1]

    mesh, decomp, A_sys, A_prec, coeff = setup_problem(12, 3, k=6.0, eps=6.0)
    P = build_preconditioner("HRAS", mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff, system_matrix=A_sys,
                             nested_coarse=dict(k=6.0, alpha_inner=0.5))
    b = np.ones(mesh.n, complex)
    x, rep = fgmres(A_sys, P, b, KrylovConfig(variant="fgmres", rel_tol=1e-8))
    assert rep.iterations == 14
    assert P.inner_counts() == [1, 1, 2, 1, 1, 2, 1, 2, 1, 2, 2, 1, 1, 2, 2, 1, 2, 1,
                                1, 1, 1, 1, 2, 1, 2, 1, 2, 1]
