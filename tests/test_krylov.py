import numpy as np
import pytest
import scipy.sparse as sp

from helmdd.assembly import AssemblyCoefficients, assemble_energy_matrix, assemble_system
from helmdd.decomposition import build_decomposition
from helmdd.krylov import GmresBreakdown, KrylovConfig, fgmres, gmres
from helmdd.mesh import build_fine_mesh, build_wavespeed, layout_from_blocks
from helmdd.precond import DirectFactorization, NestedSolver, build_preconditioner

from oracles import gmres_residual_oracle


def random_system(n, seed, diag=4.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + diag * np.eye(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return A, b


def test_identity_converges_in_one_iteration():
    b = np.arange(1.0, 6.0) + 2j
    x, rep = gmres(np.eye(5, dtype=complex), None, b, KrylovConfig(rel_tol=1e-12))
    assert rep.converged and rep.iterations == 1
    assert np.allclose(x, b, atol=1e-12)


def test_zero_rhs():
    x, rep = gmres(np.eye(4, dtype=complex), None, np.zeros(4), KrylovConfig())
    assert rep.converged and rep.iterations == 0 and np.all(x == 0)


def test_config_validation():
    with pytest.raises(ValueError):
        KrylovConfig(variant="fgmres", side="left")
    with pytest.raises(ValueError):
        KrylovConfig(variant="weighted_gmres")
    with pytest.raises(ValueError):
        KrylovConfig(variant="qmr")
    with pytest.raises(ValueError):
        KrylovConfig(side="middle")


def test_weighted_identity_reproduces_standard_iterate_for_iterate():
    A, b = random_system(12, 0)
    x1, rep1 = gmres(A, None, b, KrylovConfig(side="none", rel_tol=1e-10))
    x2, rep2 = gmres(A, None, b, KrylovConfig(variant="weighted_gmres", side="none",
                                              rel_tol=1e-10, weight=np.eye(12)))
    assert rep1.iterations == rep2.iterations
    assert np.allclose(rep1.residual_history, rep2.residual_history, atol=1e-12)
    assert np.allclose(x1, x2, atol=1e-10)


def test_residuals_match_least_squares_oracle():
    A, b = random_system(10, 1)
    _, rep = gmres(A, None, b, KrylovConfig(side="none", rel_tol=1e-14, max_iters=10))
    want = gmres_residual_oracle(A, b, rep.iterations)
    got = rep.residual_history[1:len(want) + 1]
    assert np.abs(got - want).max() < 1e-10


def test_residual_history_non_increasing():
    for seed in range(5):
        A, b = random_system(25, seed, diag=1.5)
        _, rep = gmres(A, None, b, KrylovConfig(side="none", rel_tol=1e-12, max_iters=25))
        h = rep.residual_history
        assert np.all(h[1:] <= h[:-1] + 1e-14)


def test_fgmres_fixed_preconditioner_matches_right_gmres():
    A, b = random_system(20, 3)
    Af = DirectFactorization(sp.csr_matrix(A + 2 * np.eye(20)))
    M = lambda v: Af.solve(v)
    x1, rep1 = gmres(A, M, b, KrylovConfig(side="right", rel_tol=1e-10))
    x2, rep2 = fgmres(A, M, b, KrylovConfig(variant="fgmres", rel_tol=1e-10))
    assert rep1.iterations == rep2.iterations
    assert np.allclose(rep1.residual_history, rep2.residual_history, atol=1e-12)
    assert np.allclose(x1, x2, atol=1e-9)


def test_fgmres_identity_preconditioner_identity_system():
    b = np.ones(7, dtype=complex)
    x, rep = fgmres(np.eye(7, dtype=complex), lambda v: v, b,
                    KrylovConfig(variant="fgmres", rel_tol=1e-12))
    assert rep.converged and rep.iterations == 1


def test_left_right_consistency():
    mesh = build_fine_mesh(8, "points_per_wavelength")
    ws = build_wavespeed(mesh, "constant")
    coeff = AssemblyCoefficients(omega=8.0, wavespeed=ws, shift_mode="additive_eps",
                                 shift_value=8.0)
    A = assemble_system(mesh, AssemblyCoefficients(omega=8.0, wavespeed=ws,
                                                   shift_mode="additive_eps",
                                                   shift_value=0.0))
    A_prec = assemble_system(mesh, coeff)
    decomp = build_decomposition(mesh, layout_from_blocks(mesh, 3))
    P = build_preconditioner("HRAS", mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff, system_matrix=A)
    b = np.ones(mesh.n, dtype=complex)
    xl, rl = gmres(A, P, b, KrylovConfig(side="left", rel_tol=1e-10, max_iters=150))
    xr, rr = gmres(A, P, b, KrylovConfig(side="right", rel_tol=1e-10, max_iters=150))
    assert rl.converged and rr.converged
    assert np.linalg.norm(xl - xr) / np.linalg.norm(xr) < 1e-8


def test_weighted_gmres_with_energy_matrix():
    mesh = build_fine_mesh(1, "explicit", m=6)
    ws = build_wavespeed(mesh, "constant")
    k = 4.0
    A = assemble_system(mesh, AssemblyCoefficients(omega=k, wavespeed=ws,
                                                   shift_mode="additive_eps",
                                                   shift_value=0.0))
    D = assemble_energy_matrix(mesh, k)
    b = np.ones(mesh.n, dtype=complex)
    x, rep = gmres(A, None, b, KrylovConfig(variant="weighted_gmres", side="none",
                                            weight=D, rel_tol=1e-10, max_iters=60))
    assert rep.converged
    # D-weighted residual of the returned iterate honours the reported history
    r = b - A @ x
    dnorm = np.sqrt(np.real(np.vdot(r, D @ r)) / np.real(np.vdot(b, D @ b)))
    assert dnorm <= 2 * rep.residual_history[-1] + 1e-12


def test_weighted_left_preconditioned_combination():
    # weighted residual minimisation under left preconditioning
    mesh = build_fine_mesh(1, "explicit", m=9)
    ws = build_wavespeed(mesh, "constant")
    k = 5.0
    coeff = AssemblyCoefficients(omega=k, wavespeed=ws, shift_mode="additive_eps",
                                 shift_value=k * k)
    A = assemble_system(mesh, coeff)
    D = assemble_energy_matrix(mesh, k)
    decomp = build_decomposition(mesh, layout_from_blocks(mesh, 3))
    P = build_preconditioner("AS", mesh=mesh, decomp=decomp, A_prec=A,
                             coeff_prec=coeff)
    b = np.ones(mesh.n, dtype=complex)
    x, rep = gmres(A, P, b, KrylovConfig(variant="weighted_gmres", side="left",
                                         weight=D, rel_tol=1e-9, max_iters=100))
    assert rep.converged
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-7
    h = rep.residual_history
    assert np.all(h[1:] <= h[:-1] + 1e-14)


def test_side_none_rejects_preconditioner():
    with pytest.raises(ValueError):
        gmres(np.eye(3, dtype=complex), lambda v: v, np.ones(3),
              KrylovConfig(side="none"))


def test_breakdown_raises_when_residual_large():
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(GmresBreakdown):
        gmres(A, None, np.array([1.0, 0.0], dtype=complex),
              KrylovConfig(side="none", rel_tol=1e-12))


def test_cap_reported_as_nonconverged():
    A, b = random_system(40, 9, diag=0.0)
    _, rep = gmres(A, None, b, KrylovConfig(side="none", rel_tol=1e-14, max_iters=5))
    assert not rep.converged and rep.iterations == 5


def test_basis_memory_accounting():
    # the rows a solve used, not the max_iters rows it allocated
    A, b = random_system(30, 2, diag=25.0)
    _, rep = gmres(A, None, b, KrylovConfig(side="none", rel_tol=1e-13, max_iters=30))
    assert 8 < rep.iterations < 30
    assert rep.basis_bytes == rep.iterations * 30 * 16
    # FGMRES keeps the preconditioned directions Z beside V
    _, rep = fgmres(A, _jacobi(A), b, KrylovConfig(variant="fgmres", rel_tol=1e-13,
                                                   max_iters=30))
    assert 8 < rep.iterations < 30
    assert rep.basis_bytes == 2 * rep.iterations * 30 * 16


def test_true_residual_reported():
    A, b = random_system(15, 4)
    x, rep = gmres(A, None, b, KrylovConfig(side="none", rel_tol=1e-9))
    assert rep.true_relres == pytest.approx(
        np.linalg.norm(b - A @ x) / np.linalg.norm(b), rel=1e-8)
    assert rep.true_relres <= 2e-9


# block right-hand sides: G columns in lockstep against G vector solves

def _jacobi(A):
    dinv = 1.0 / np.diag(A)
    return lambda v: (v.T * dinv).T  # (n,) or (n, g)


def _block_case(variant, side):
    """(A, M, config, B): a block whose columns converge at different steps:
    one in an invariant subspace of 11 dimensions of the preconditioned
    operator, a random column, two in invariant subspaces of 2 and 5
    dimensions, and a zero column.  The first freezes past row 8 while the
    random column behind it runs on, so the freeze moves that column's
    rows."""
    n = 40
    A, b = random_system(n, 7, diag=25.0)
    M = _jacobi(A) if side != "none" else None
    weight = None
    if variant == "weighted_gmres":
        weight = np.diag(np.linspace(1.0, 3.0, n))
    cfg = KrylovConfig(variant=variant, side=side, rel_tol=1e-10, max_iters=n,
                       weight=weight)
    Md = M(np.eye(n)) if M is not None else np.eye(n)
    K = Md @ A if side == "left" else A @ Md
    _, W = np.linalg.eig(K)
    rng = np.random.default_rng(8)
    B = np.zeros((n, 5), dtype=complex)
    B[:, 1] = b
    for c, d in ((2, 2), (3, 5), (0, 11)):
        r0 = W[:, :d] @ (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        B[:, c] = np.linalg.solve(Md, r0) if side == "left" else r0
    return A, M, cfg, B


BLOCK_VARIANTS = [("gmres", "left"), ("gmres", "right"), ("gmres", "none"),
                  ("weighted_gmres", "none"), ("weighted_gmres", "left"),
                  ("fgmres", "right")]


@pytest.mark.parametrize("variant, side", BLOCK_VARIANTS)
def test_block_matches_column_solves(variant, side):
    A, M, cfg, B = _block_case(variant, side)
    X, reps = gmres(A, M, B, cfg)
    assert X.shape == B.shape and len(reps) == B.shape[1]
    for c in range(B.shape[1]):
        x, rep = gmres(A, M, B[:, c], cfg)
        assert reps[c].iterations == rep.iterations
        assert reps[c].converged == rep.converged
        assert np.linalg.norm(X[:, c] - x) <= 1e-12 * max(np.linalg.norm(x), 1e-300)
        assert np.allclose(reps[c].residual_history, rep.residual_history,
                           rtol=1e-10, atol=1e-14)
    iters = [r.iterations for r in reps]
    # frozen columns stay frozen: each column stops at its own step, and
    # column 0 freezes deep in the basis while column 1 runs on
    assert iters[2] < iters[3] < 8 < iters[0] < iters[1] and iters[4] == 0
    assert all(r.converged for r in reps)
    assert np.all(X[:, 4] == 0) and reps[4].true_relres == 0.0


@pytest.mark.parametrize("variant, side", [("gmres", "right"), ("gmres", "left"),
                                           ("fgmres", "right")])
def test_column_aware_operators_are_told_the_active_columns(variant, side):
    # a column-aware operator and preconditioner get each block with the
    # columns of b it holds, and the solve is bitwise that of plain ones
    A, M, cfg, B = _block_case(variant, side)
    seen = []

    class Aware:
        column_aware = True

        def __init__(self, f):
            self.f = f

        def __call__(self, v, act):
            seen.append((v.shape[1], act.tolist()))
            return self.f(v)

        def apply(self, v, act):
            return self(v, act)
    X, reps = gmres(Aware(lambda v: A @ v), Aware(M), B, cfg)
    want, wreps = gmres(A, M, B, cfg)
    assert np.array_equal(X, want)
    assert [r.iterations for r in reps] == [r.iterations for r in wreps]
    assert all(g == len(act) and act == sorted(set(act)) for g, act in seen)
    assert seen[-1][1] == [0, 1, 2, 3, 4]  # the true residual of every column
    steps = [act for _, act in seen[:-1] if len(act) < 5]
    assert steps[-1] == [1] and 4 not in {c for act in steps for c in act}


def test_block_column_at_cap_beside_converging_ones():
    A, b = random_system(40, 9, diag=0.0)
    _, W = np.linalg.eig(A)
    B = np.stack([W[:, :2] @ np.array([1.0, 2.0j]), b, np.zeros(40), 2 * b + 1j], axis=1)
    nested = NestedSolver(A, None, inner_tol=1e-10, inner_max_iters=5)
    X = nested.solve(B)
    assert nested.inner_counts == [2, 5, 0, 5]
    assert nested.failures == 2  # exactly the capped columns
    _, reps = gmres(A, None, B, KrylovConfig(side="none", rel_tol=1e-10, max_iters=5))
    for c, rep in enumerate(reps):
        x, want = gmres(A, None, B[:, c], KrylovConfig(side="none", rel_tol=1e-10,
                                                       max_iters=5))
        assert (rep.converged, rep.iterations) == (want.converged, want.iterations)
        assert np.allclose(X[:, c], x, rtol=1e-12, atol=0)


# failures: happy breakdown, zero right-hand sides, capped nested solves

def test_happy_breakdown_in_invariant_subspace_converges():
    A, b = random_system(12, 11)
    A[2:, :2] = 0.0  # span(e0, e1) is invariant
    inv = np.zeros(12, dtype=complex)
    inv[:2] = (1.0, 2.0j)
    x, rep = gmres(A, None, inv, KrylovConfig(side="none", rel_tol=1e-12))
    assert rep.converged and rep.iterations <= 2
    assert rep.true_relres < 1e-12
    # in a block, the breakdown column freezes while the other one runs on
    X, reps = gmres(A, None, np.stack([inv, b], axis=1),
                    KrylovConfig(side="none", rel_tol=1e-12))
    assert reps[0].iterations == rep.iterations and reps[0].converged
    assert reps[1].converged and reps[1].iterations > rep.iterations
    assert np.allclose(X[:, 0], x, rtol=1e-12, atol=0)


def test_zero_rhs_under_fgmres():
    A, b = random_system(10, 12)
    M = _jacobi(A)
    cfg = KrylovConfig(variant="fgmres", rel_tol=1e-10)
    x, rep = fgmres(A, M, np.zeros(10), cfg)
    assert rep.converged and rep.iterations == 0 and np.all(x == 0)
    X, reps = fgmres(A, M, np.stack([np.zeros(10), b], axis=1), cfg)
    assert reps[0].converged and reps[0].iterations == 0 and np.all(X[:, 0] == 0)
    assert reps[1].converged and reps[1].iterations > 0


def test_capped_nested_local_solves_under_fgmres():
    mesh = build_fine_mesh(1, "explicit", m=16)
    ws = build_wavespeed(mesh, "constant")
    k = 6.0
    A = assemble_system(mesh, AssemblyCoefficients(omega=k, wavespeed=ws,
                                                   shift_mode="additive_eps",
                                                   shift_value=0.0))
    coeff = AssemblyCoefficients(omega=k, wavespeed=ws, shift_mode="additive_eps",
                                 shift_value=k)
    A_prec = assemble_system(mesh, coeff)
    decomp = build_decomposition(mesh, layout_from_blocks(mesh, 2))
    P = build_preconditioner("ImpRAS1", mesh=mesh, decomp=decomp, A_prec=A_prec,
                             coeff_prec=coeff,
                             nested_local=dict(k=k, alpha_inner=0.8, tol=1e-12,
                                               max_iters=1))
    b = np.ones(mesh.n, dtype=complex)
    x, rep = fgmres(A, P, b, KrylovConfig(variant="fgmres", rel_tol=1e-8))
    assert rep.converged and rep.true_relres <= 2e-8
    counts = P.inner_counts()
    assert len(counts) == 4 * rep.iterations and set(counts) == {1}
    assert P.inner_failures() == len(counts)  # every inner solve hit its cap
