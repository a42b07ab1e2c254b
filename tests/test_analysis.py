import cmath
import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.optimize import minimize_scalar

from helmdd import analysis, precond
from helmdd.analysis import (AnalysisSizeError, analysis_mesh_cells,
                             check_adjoint_identity, check_gmres_bound,
                             fov_distance, preconditioned_operator, rows_to_csv,
                             scaling_sweep, to_euclidean)
from helmdd.assembly import assemble_energy_matrix
from helmdd.mesh import build_fine_mesh

from oracles import dense_to_euclidean, rayleigh_samples


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return B @ B.T + n * np.eye(n)


def test_hermitian_interval():
    C = np.diag([2.0, 3.0, 4.5, 5.0]).astype(complex)
    est = fov_distance(C)
    assert est.dist_to_origin == pytest.approx(2.0, abs=1e-8)
    assert est.norm == pytest.approx(5.0, abs=1e-10)
    assert est.certified


def test_segment_one_to_i():
    est = fov_distance(np.diag([1.0, 1j]))
    assert est.dist_to_origin == pytest.approx(math.sqrt(2) / 2, abs=1e-8)
    assert est.norm == pytest.approx(1.0, abs=1e-10)


def test_origin_enclosed_not_certified():
    est = fov_distance(np.diag([1.0, -1.0]).astype(complex))
    assert est.dist_to_origin == 0.0
    assert not est.certified


def test_angle_minimum_count():
    est = fov_distance(np.diag([1.0, 1j]), angles=64)
    assert est.angles_used >= 256  # floor enforced


def test_invalid_weight_rejected():
    C = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        fov_distance(C, np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        to_euclidean(C, np.eye(3), weight="bogus")
    with pytest.raises(ValueError):
        to_euclidean(C, None, weight="bogus")
    with pytest.raises(ValueError):
        fov_distance(C, weight="Dnv")


def test_size_cap_refused():
    with pytest.raises(AnalysisSizeError):
        fov_distance(np.eye(50, dtype=complex), size_cap=10)


def test_norm_matches_svd_oracle():
    rng = np.random.default_rng(5)
    for seed in range(3):
        C = rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25))
        D = random_spd(25, seed)
        est = fov_distance(C, D)
        L = np.linalg.cholesky(D)
        Ct = L.conj().T @ C @ np.linalg.inv(L.conj().T)
        assert est.norm == pytest.approx(sla.svdvals(Ct)[0], rel=1e-8)


def test_rayleigh_sample_floor():
    rng = np.random.default_rng(6)
    C = np.diag([1.0, 2.0, 3.0]) + 0.3j * rng.standard_normal((3, 3))
    D = random_spd(3, 2)
    est = fov_distance(C, D)
    samples = rayleigh_samples(C, D, num=10000, seed=1)
    assert samples.min() >= est.dist_to_origin - 1e-6 * est.norm


def test_gmres_bound_identity():
    est = fov_distance(np.eye(5, dtype=complex))
    assert est.beta == pytest.approx(0.0, abs=1e-7)
    out = check_gmres_bound(np.eye(5, dtype=complex), None, est=est)
    assert out["status"] == "ok" and out["iterations"] == 1


def test_gmres_bound_shifted_skew_example():
    out = check_gmres_bound(np.diag([1.0, 1j]), np.eye(2))
    assert out["status"] == "ok"
    assert out["max_ratio"] <= 1.0 + 1e-10


def test_gmres_bound_skips_uncertified():
    out = check_gmres_bound(np.diag([1.0, -1.0]).astype(complex), np.eye(2))
    assert out["status"] == "skipped"


def test_gmres_bound_desk_scale_helmholtz():
    # left-preconditioned A_eps with eps = k^2, H = k^-1, D = D_k
    ops = preconditioned_operator(5, eps=25.0, alpha=1.0, kind="AS")
    est = fov_distance(ops["left"], ops["D"], weight="D")
    assert est.certified
    out = check_gmres_bound(ops["left"], ops["D"], est=est)
    assert out["status"] == "ok"
    assert out["max_excess"] <= 1e-10


def _energy_matrix_k5():
    return assemble_energy_matrix(build_fine_mesh(5, "explicit", m=analysis_mesh_cells(5)), 5.0)


def _complex_hpd(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return B @ B.conj().T + n * np.eye(n)


@pytest.mark.parametrize("weight", ["D", "Dinv"])
@pytest.mark.parametrize("case", ["energy-sparse", "energy-dense", "spd-full-band",
                                  "complex-hpd"])
def test_banded_transform_matches_dense_oracle(case, weight):
    D = {"energy-sparse": _energy_matrix_k5,
         "energy-dense": lambda: _energy_matrix_k5().toarray(),
         "spd-full-band": lambda: random_spd(20, 3),
         "complex-hpd": lambda: _complex_hpd(16, 4)}[case]()
    n = D.shape[0]
    rng = np.random.default_rng(14)
    C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Ct = to_euclidean(C, D, weight)
    ref = dense_to_euclidean(C, D, weight)
    assert Ct.flags.c_contiguous
    assert np.abs(Ct - ref).max() <= 1e-12 * np.abs(ref).max()


def test_sparse_weight_errors():
    C = np.eye(4, dtype=complex)
    skew = sp.csr_array(np.diag([2.0, 2.0, 2.0, 2.0]) + np.diag([0.5, 0.5, 0.5], 1))
    indefinite = sp.csr_array(np.diag([2.0, -1.0, 3.0, 1.0]) + np.diag([0.1, 0.1, 0.1], -1)
                              + np.diag([0.1, 0.1, 0.1], 1))
    for D, message in ((skew, "not Hermitian"), (indefinite, "not positive definite")):
        with pytest.raises(ValueError, match=message):
            to_euclidean(C, D, "D")
        with pytest.raises(ValueError, match=message):
            to_euclidean(C, D, "Dinv")
        with pytest.raises(ValueError, match=message):
            check_adjoint_identity(C, D)


def test_operator_energy_matrix_is_sparse_and_weights_gmres_alike():
    ops = preconditioned_operator(5, eps=25.0, alpha=1.0, kind="AS")
    D = ops["D"]
    assert sp.issparse(D)
    assert (D != _energy_matrix_k5()).nnz == 0
    est = fov_distance(ops["left"], D, weight="D")
    sparse = check_gmres_bound(ops["left"], D, est=est)
    dense = check_gmres_bound(ops["left"], D.toarray(), est=est)
    assert sparse["status"] == dense["status"] == "ok"
    assert sparse["iterations"] == dense["iterations"]
    # histories are relative to the first residual: agreement to 1e-12 of it
    assert np.abs(sparse["history"] - dense["history"]).max() <= 1e-12


def test_adjoint_identity_accepts_sparse_weight():
    rng = np.random.default_rng(15)
    D = _energy_matrix_k5()
    n = D.shape[0]
    C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    out = check_adjoint_identity(C, D, samples=5)
    assert out["status"] == "ok"
    assert out["max_error"] <= 1e-10


def test_adjoint_identity_reduces_at_identity_weight():
    rng = np.random.default_rng(8)
    C = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    out = check_adjoint_identity(C, np.eye(10))
    assert out["status"] == "ok"


def test_adjoint_identity_random_instances():
    rng = np.random.default_rng(9)
    for seed in range(5):
        C = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        out = check_adjoint_identity(C, random_spd(20, seed), samples=20, seed=seed)
        assert out["status"] == "ok"
        assert out["max_error"] <= 1e-10


def test_adjoint_distance_equality():
    D = np.array([[2.0, 0.3], [0.3, 1.0]])
    out = check_adjoint_identity(np.diag([1.0, 1j]), D, check_distance=True)
    assert out["status"] == "ok"
    assert out["dist_gap"] <= 1e-6


def test_trivial_decomposition_gives_identity_operator():
    # one-subdomain RAS1 at eps = 0: B^-1 A = I, norm = dist = 1, beta = 0
    ops = preconditioned_operator(4, eps=0.0, alpha=0.0, kind="RAS1")
    assert np.abs(ops["left"] - np.eye(ops["left"].shape[0])).max() < 1e-9
    est = fov_distance(ops["left"], ops["D"])
    assert est.dist_to_origin == pytest.approx(1.0, abs=1e-7)
    assert est.norm == pytest.approx(1.0, abs=1e-7)
    assert est.beta <= 1e-3


def test_scaling_sweep_ksq_certified_and_csv(tmp_path):
    sweep = scaling_sweep([5, 8], eps_rule="ksq", alpha=1.0, kind="AS",
                          sides=("left", "right"))
    assert len(sweep["rows"]) == 4
    assert all(r["certified"] for r in sweep["rows"])
    with open(tmp_path / "rows.csv", "w", newline="") as f:
        rows_to_csv(sweep["rows"], f)
    text = (tmp_path / "rows.csv").read_text().splitlines()
    assert text[0] == "tag,k,eps,H,dist,norm,beta,certified,max_ratio"
    assert len(text) == 5


def test_scaling_sweep_norm_slope_trend(monkeypatch):
    # ||B^-1 A_eps||_D grows at most like k^2/eps (fitted slope <= 1.3)
    sweep = scaling_sweep([4, 6, 8, 10], beta=1.0, eps_rule="k^beta", alpha=1.0,
                          kind="AS", sides=("left",))
    slope = sweep["slopes"]["norm_vs_k2_over_eps"]
    assert slope <= 1.3
    ratios = [r["norm"] / (r["k"] ** 2 / r["eps"]) for r in sweep["rows"]]
    assert max(ratios) / min(ratios) < 3.0  # bounded prefactor over the sweep
    # an unknown rule is refused before any operator is built
    monkeypatch.setattr(analysis, "preconditioned_operator",
                        lambda *a, **kw: pytest.fail("operator built"))
    with pytest.raises(ValueError, match=r"'ksq', 'k\^beta'"):
        scaling_sweep([4], eps_rule="k2")


def _random_sweep(n=80, seed=11):
    rng = np.random.default_rng(seed)
    Ct = np.diag(rng.uniform(1, 3, n)) + 0.3 * (rng.standard_normal((n, n))
                                                + 1j * rng.standard_normal((n, n)))
    return analysis._SubspaceSweep(Ct, rng)


def _rotated_hermitian_part(Ct, theta):
    # cos(t) F + sin(t) G with the Hermitian F and G of Ct = F + iG
    F = 0.5 * (Ct + Ct.conj().T)
    G = 0.5j * (Ct - Ct.conj().T)
    return math.cos(theta) * F + math.sin(theta) * G


def _reference_ritz(sweep, theta):
    U = sweep.U
    H = _rotated_hermitian_part(sweep.Ct, theta)
    w, v = np.linalg.eigh(U.conj().T @ H @ U)
    return w[-1], v[:, -1]


def test_ritz_matches_full_eigh_of_projected_matrix():
    sweep = _random_sweep()
    for theta in (0.0, 1.1, 4.0):
        lam, y, eta = sweep.ritz(theta)
        lam_ref, y_ref = _reference_ritz(sweep, theta)
        assert lam == pytest.approx(lam_ref, rel=1e-12)
        assert abs(abs(np.vdot(y, y_ref)) - 1.0) <= 1e-10
        assert sweep.lam_batch([theta])[0] == lam
        assert eta > 0.0


def test_ritz_recomputed_after_append():
    sweep = _random_sweep()
    theta = 0.7
    lam, y, _ = sweep.ritz(theta)
    size = sweep.size
    assert sweep.append(sweep.residual_vector(theta, y, lam))
    assert sweep.size == size + 1
    lam_new, y_new, _ = sweep.ritz(theta)
    assert len(y_new) == size + 1
    lam_ref, y_ref = _reference_ritz(sweep, theta)
    assert lam_new == pytest.approx(lam_ref, rel=1e-12)
    assert abs(abs(np.vdot(y_new, y_ref)) - 1.0) <= 1e-10
    assert lam_new >= lam - 1e-12 * abs(lam)  # Ritz values grow with the basis
    # the stored columns are the basis and its images
    assert np.allclose(sweep.CU, sweep.Ct @ sweep.U)
    assert np.allclose(sweep.CHU, sweep.Ct.conj().T @ sweep.U)
    assert np.allclose(sweep.Cs, sweep.U.conj().T @ sweep.Ct @ sweep.U)


def _sweep_sized_matrix(seed=12):
    n = analysis.DENSE_EIG_CUTOFF + 1  # the ARPACK path
    rng = np.random.default_rng(seed)
    d = np.r_[3.0, rng.uniform(1, 2, n - 1)]
    return np.diag(d) + 0.01 * (rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n)))


def test_norm_is_deterministic():
    Ct = _sweep_sized_matrix()
    first = analysis._norm2_upper(Ct)
    assert analysis._norm2_upper(Ct) == first
    assert first == pytest.approx(sla.svdvals(Ct)[0], rel=1e-9)
    assert first >= sla.svdvals(Ct)[0] * (1 - 1e-14)


def test_norm_and_ritz_restore_blas_thread_count(monkeypatch):
    fns = precond._scipy_openblas()
    if fns is None:
        pytest.skip("scipy does not bundle OpenBLAS here")
    get, set_ = fns
    seen = []

    def recording(solver):
        def call(*args, **kwargs):
            seen.append(get())
            return solver(*args, **kwargs)
        return call

    monkeypatch.setattr(analysis.sla, "eigh", recording(analysis.sla.eigh))
    monkeypatch.setattr(analysis.spla, "eigsh", recording(analysis.spla.eigsh))
    sweep = _random_sweep()
    Ct = _sweep_sized_matrix()
    before = get()
    try:
        set_(2)
        sweep.ritz(0.3)
        assert get() == 2
        sweep.lam_batch([0.5, 0.9])
        assert get() == 2
        analysis._norm2_upper(Ct)
        assert get() == 2
    finally:
        set_(before)
    assert seen == [1, 1, 1, 1]  # three projected eigensolves, one ARPACK run


def _eigvalsh_oracle(Ct):
    """max over theta of -lambda_max(H(theta)), clipped at 0: a grid of 2048
    angles, refined by a bounded scalar search around the best of them."""
    def top(theta):
        return np.linalg.eigvalsh(_rotated_hermitian_part(Ct, theta))[-1]

    grid = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
    tops = [top(t) for t in grid]
    t0, h = grid[int(np.argmin(tops))], 2.0 * math.pi / 2048
    res = minimize_scalar(top, bounds=(t0 - h, t0 + h), method="bounded",
                          options={"xatol": 1e-12})
    return max(0.0, -min(res.fun, min(tops)))


def test_sweep_agrees_with_eigvalsh_oracle():
    rng = np.random.default_rng(13)
    n = 100
    C = np.diag(rng.uniform(1, 3, n)) + 0.02 * (rng.standard_normal((n, n))
                                                + 1j * rng.standard_normal((n, n)))
    D = random_spd(n, 4)
    est = fov_distance(C, D)
    Ct = to_euclidean(C, D)
    oracle = _eigvalsh_oracle(Ct)
    assert est.certified
    # the sweep stops refining at a residual of 1e-8 * norm, which bounds
    # how far below the oracle its distance may fall
    assert est.dist_to_origin == pytest.approx(oracle, abs=1e-8 * est.norm)
    assert est.dist_to_origin <= oracle + 1e-12 * est.norm
    assert est.norm == pytest.approx(sla.svdvals(Ct)[0], rel=1e-8)
    for theta in (0.0, 2.0, 5.5):
        lam, eta = analysis._dense_angle_results(Ct, [theta])[theta]
        ref = np.linalg.eigvalsh(_rotated_hermitian_part(Ct, theta))[-1]
        assert lam == pytest.approx(ref, rel=1e-12)
        assert 0.0 < eta <= 1e-12 * est.norm  # the pair's own residual


def test_small_instances_agree_with_eigvalsh_oracle():
    rng = np.random.default_rng(7)
    for _ in range(3):
        C = np.diag(rng.uniform(1, 3, 12)) + 0.2j * rng.standard_normal((12, 12))
        est = fov_distance(C)
        oracle = _eigvalsh_oracle(C)
        assert est.dist_to_origin == pytest.approx(oracle, abs=1e-8 * est.norm)
        assert est.dist_to_origin <= oracle + 1e-12 * est.norm


def test_distance_never_exceeds_oracle_when_ritz_residuals_lie(monkeypatch):
    # a sweep kept at its starting basis, whose Ritz pairs claim eta = 0:
    # its Ritz values underestimate lambda_max, and only the proof at the
    # best angle keeps the distance from being inflated
    rng = np.random.default_rng(15)
    n = 60
    C = np.diag(rng.uniform(1, 3, n)) + 0.05 * (rng.standard_normal((n, n))
                                                + 1j * rng.standard_normal((n, n)))
    ritz = analysis._SubspaceSweep.ritz

    def no_residual(self, theta):
        out = list(ritz(self, theta))
        out[2] = 0.0  # eta
        return tuple(out)

    dense = analysis._dense_angle_results
    fallbacks = []

    def spy(Ct, thetas):
        fallbacks.append(thetas)
        return dense(Ct, thetas)

    monkeypatch.setattr(analysis._SubspaceSweep, "ritz", no_residual)
    monkeypatch.setattr(analysis._SubspaceSweep, "append", lambda self, u: False)
    monkeypatch.setattr(analysis, "_dense_angle_results", spy)
    monkeypatch.setattr(analysis, "DENSE_EIG_CUTOFF", 0)  # the ARPACK norm, as for large n
    est = fov_distance(C)
    oracle = _eigvalsh_oracle(C)
    assert oracle > 0.1
    assert est.dist_to_origin <= oracle + 1e-12 * est.norm
    assert len(fallbacks) == 1


def test_top_below_is_a_cholesky_test_of_lambda_max():
    rng = np.random.default_rng(16)
    n = 30
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    Ct = (Q * np.linspace(-2.0, 1.5, n)) @ Q.conj().T  # Hermitian: H(0) = Ct, H(pi) = -Ct
    for theta, top in ((0.0, 1.5), (math.pi, 2.0)):
        assert analysis._top_below(Ct, theta, top + 1e-8)
        assert not analysis._top_below(Ct, theta, top - 1e-8)


@pytest.mark.parametrize("theta", [0.0, 2.1])
def test_hermitian_part_tiles_equal_whole_matrix_formula(theta):
    # n = 2 tiles + 45 rows, with some entries equal to their mirror (whose
    # imaginary parts cancel to a signed zero), and one tile only
    rng = np.random.default_rng(17)
    for n in (2 * analysis._HERMITIAN_TILE + 45, 7):
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X[:5, :5] = X[:5, :5] + X[:5, :5].T
        Y = (0.5 * cmath.exp(1j * theta)) * X
        want = Y + Y.conj().T
        H = analysis._hermitian_part(X, theta)
        assert H.tobytes() == want.tobytes()  # bitwise, signed zeros included
        assert np.array_equal(H, H.conj().T) and not np.any(np.diag(H).imag)


def test_fov_pins_hras_k8():
    # the seed-0 FOV distances pinned by the fov-hras-k8 benchmark workload
    ops = preconditioned_operator(8, eps=64.0, alpha=1.0, kind="HRAS")
    for side, weight, pin in (("left", "D", 0.7558151584949326),
                              ("right", "Dinv", 0.7636798477441101)):
        est = fov_distance(ops[side], ops["D"], weight=weight)
        assert est.certified
        assert est.dist_to_origin == pytest.approx(pin, rel=1e-6)
