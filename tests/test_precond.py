import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from helmdd.assembly import AssemblyCoefficients, assemble_system
from helmdd.decomposition import build_decomposition
from helmdd.krylov import KrylovConfig, fgmres, gmres
from helmdd.mesh import build_fine_mesh, build_wavespeed, ceil_snapped, layout_from_blocks
from helmdd import harness, precond
from helmdd.precond import (KINDS, DirectFactorization, LocalSolves, NestedSolver,
                            SingularMatrixError, build_preconditioner, coarse_matrix)

from oracles import dense_preconditioner, dense_system


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


def test_factorization_well_conditioned_contract():
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(8, 2)
    f = DirectFactorization(A_prec)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(mesh.n) + 1j * rng.standard_normal(mesh.n)
    x = f.solve(b)
    assert np.linalg.norm(A_prec @ x - b) / np.linalg.norm(b) < 1e-10


def test_dense_solve_equals_lu_solve_bitwise():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    f = DirectFactorization(sp.csr_matrix(A))
    for shape in ((40,), (40, 6)):
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(f.solve(b), sla.lu_solve(f._lu, b))
    b = np.ones(40, complex)
    b[3] = np.nan
    with pytest.raises(ValueError):
        f.solve(b)
    # a real matrix still takes a complex right-hand side
    fr = DirectFactorization(sp.csr_matrix(A.real))
    b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    x = np.linalg.solve(A.real, b)
    assert np.linalg.norm(fr.solve(b) - x) <= 1e-12 * np.linalg.norm(x)


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
    # a nested local solve runs one lockstep inner GMRES over the block's columns
    if nested:
        mesh, decomp, A_sys, A_prec, coeff = setup_problem(16, 2, k=6.0, eps=6.0)
        nesting = dict(nested_local=dict(k=6.0))
    else:
        mesh, decomp, A_sys, A_prec, coeff = setup_problem(8, 2)
        nesting = {}
    P = build_preconditioner(kind, mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff, system_matrix=A_sys, **nesting)
    rng = np.random.default_rng(13)
    V = rng.standard_normal((mesh.n, 3)) + 1j * rng.standard_normal((mesh.n, 3))
    want = np.column_stack([P.apply(V[:, j]) for j in range(3)])
    got = P.apply(V)
    assert got.shape == (mesh.n, 3)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
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


def test_reset_stats():
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(12, 3, k=6.0, eps=6.0)
    P = build_preconditioner("HRAS", mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff, system_matrix=A_sys,
                             nested_coarse=dict(k=6.0))
    b = np.ones(mesh.n, complex)
    fgmres(A_sys, P, b, KrylovConfig(variant="fgmres", rel_tol=1e-6))
    assert P.inner_counts()
    P.reset_stats()
    assert P.inner_counts() == []


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
    P.reset_stats()
    assert P.inner_counts() == [] and P.inner_failures() == 0
    assert all(s.inner_counts == [] and s.failures == 0 for s in P.nested)


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
    lus = [f._lu[0] for f in factors.values()]
    assert [len(s.inner_precond.solvers) for s in P.nested] == [1, 3, 3, 9]
    assert len(lus) == _distinct_count(lus) == 9


@pytest.mark.parametrize("cfg, classes, factors, blocks", [
    (harness.ExperimentConfig(k=30, mesh_rule="pollution_free", precond="HRAS",
                              alpha=1.0, beta=1.0, rhs="ones"), 16, 17, None),
    (harness.ExperimentConfig(k=100, mesh_rule="points_per_wavelength", precond="ImpHRAS",
                              alpha=0.5, beta=1.0, rhs="ones"), 4, 5, None),
    (harness.ExperimentConfig(k=30, preset="table5_multilevel",
                              mesh_rule="points_per_wavelength", precond="ImpRAS1",
                              alpha=0.4, beta=1.2, rhs="ones",
                              nesting=harness.NestingSpec(target="local", alpha_inner=0.8)),
     4, 9, 9),
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


def test_local_solves_share_only_within_round_off():
    # the first three round to the same 12 decimals, and only the round-off
    # copy shares; the last two are one ulp apart on either side of a
    # 12-decimal rounding boundary, and share
    base = np.array([[4.0, 0.5, 0.0], [0.5, 4.0, 0.5], [0.0, 0.5, 4.0]], dtype=complex)
    roundoff = base.copy()
    roundoff[0, 1] += 1e-15
    apart = base.copy()
    apart[0, 1] += 3e-13
    below = base.copy()
    below[0, 1] = 0.5000000000004999
    above = base.copy()
    above[0, 1] = np.nextafter(below[0, 1].real, 1.0)
    mats = (base, roundoff, apart, below, above)
    sets = [np.arange(3 * i, 3 * i + 3) for i in range(len(mats))]
    entries = [(sp.csr_matrix(a), idx, idx, np.ones(3)) for a, idx in zip(mats, sets)]
    L = LocalSolves(15, entries, weighted=True)
    assert len(L.solvers) == 3
    rng = np.random.default_rng(4)
    v = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    want = np.concatenate([np.linalg.solve(a, v[idx]) for a, idx in zip(mats, sets)])
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
    probe = LocalSolves(mesh.n, [(A_prec, own, own, np.ones(mesh.n))], weighted=True,
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
