"""Field-of-values estimates and numerical verification of the GMRES
convergence theory on dense desk-scale instances.

The numerical range is traced through the extremal eigenvalues of the rotated
Hermitian parts H(theta) = (e^{i theta} C + e^{-i theta} C^H) / 2 of the
similarity-transformed matrix C, the only dense matrix of the analysis
(_hermitian_part), on a theta grid (>= 256 angles) adaptively refined near
the minimum of lambda_max.  Every angle gives the lower bound
dist >= -lambda_max(theta).  The angles share one growing Rayleigh-Ritz
subspace (_SubspaceSweep), whose Ritz values locate the best angle theta*;
a Ritz residual bounds the gap to some eigenvalue, not to the top one, so
the distance is proven at theta* alone: mu = lam + eta is an upper bound of
lambda_max(H(theta*)) when the Cholesky of mu I - H(theta*) succeeds, and
otherwise the top pair of the full H(theta*) is solved directly.  A missed
top eigenvector can thus only cost time, never inflate the estimate.

The weight D stays sparse from preconditioned_operator on.  Its banded
Cholesky factor L (D's bandwidth, 26 at k=8) gives the similarity transform
(to_euclidean) as one sparse product with L and one banded triangular solve
on n right-hand sides, weighted GMRES takes D as its sparse inner product,
and the adjoint identity solves with the banded factor.

Each angle needs only the top eigenpair, and only that pair is solved, once
per angle and basis size.

Every scipy BLAS/LAPACK call of the analysis runs with scipy's OpenBLAS on
one thread (precond._one_blas_thread): the banded Cholesky and triangular
solves of the transform, the norm (dense SVD or ARPACK), the eigensolves,
the certificate's Cholesky and the adjoint identity's banded solves.  The
dense products stay on numpy's OpenBLAS, the one threaded pool; a second
threaded pool would stall them and be stalled by them.
"""

import cmath
import csv
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dtbtrs

from .assembly import AssemblyCoefficients, assemble_energy_matrix, assemble_system
from .decomposition import build_decomposition
from .krylov import KrylovConfig, gmres
from .mesh import build_fine_mesh, build_wavespeed, ceil_snapped, layout_from_blocks
from .precond import _one_blas_thread, build_preconditioner

SIZE_CAP = 4096
# the norm by dense SVD up to here, by ARPACK above (which needs n > 2).  On
# HRAS eps=k^2 operators, both on one BLAS thread: SVD 2.3 ms against 3.0 at
# n=144, ARPACK 2.1 ms against 4.3 at n=169 and 2.9 against 11 at n=256
DENSE_EIG_CUTOFF = 150
_REFINE_ROUNDS, _REFINE_POINTS = 3, 16  # theta refinements near the minimum, angles each
_CERTIFY_RTOL = 1e-6  # an estimate is certified when dist > this * norm
_ENVELOPE_SLACK = 1e-10  # residual excess over sin^m(beta) still counted as ok
_HERMITIAN_TILE = 256  # _hermitian_part's temporaries are at most this square
_SOLVE_TILE = 256  # _solve_lower's real block holds this many columns of R at most

ANALYSIS_COLUMNS = ("tag", "k", "eps", "H", "dist", "norm", "beta", "certified",
                    "max_ratio")


class AnalysisSizeError(ValueError):
    """Instance too large for the dense analysis path."""


@dataclass
class FovEstimate:
    tag: str
    dist_to_origin: float    # certified lower bound of dist(0, W_D(C))
    norm: float              # ||C||_D
    beta: float              # angle with cos(beta) = dist / norm
    certified: bool
    angles_used: int


def _banded_cholesky(D):
    """(band, L) with D = L L^H, for a Hermitian positive definite D given
    dense or sparse: the lower band of the factor in LAPACK's storage,
    band[i - j, j] = L[i, j], and L as a sparse matrix.  D's bandwidth is
    read from its lower triangle."""
    D = sp.csr_array(D)
    if abs(D - D.conj().T).max() > 1e-10 * max(abs(D).max(), 1e-300):
        raise ValueError("weight matrix is not Hermitian")
    lower = sp.tril(D).tocoo()
    offsets = lower.row - lower.col
    band = np.zeros((offsets.max(initial=0) + 1, D.shape[0]), dtype=D.dtype)
    band[offsets, lower.col] = lower.data
    try:
        with _one_blas_thread():
            band = sla.cholesky_banded(band, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError("weight matrix is not positive definite") from exc
    return band, sp.dia_array((band, -np.arange(len(band))), shape=D.shape).tocsr()


def _solve_lower(band, R):
    """Y with L Y = R, for L lower triangular with the LAPACK band `band`.  A
    real L solves the real and imaginary parts of R as the columns of one
    real block (dtbtrs), _SOLVE_TILE columns of R at a time, into a
    Fortran-ordered Y, the only n x n array made; a complex L goes through
    solve_banded.  Both run on one BLAS thread."""
    with _one_blas_thread():
        if not np.isrealobj(band):
            return sla.solve_banded((len(band) - 1, 0), band, R)
        Y = np.empty(R.shape, dtype=complex, order="F")
        for j in range(0, R.shape[1], _SOLVE_TILE):
            Rj = R[:, j:j + _SOLVE_TILE]
            m = Rj.shape[1]
            B = np.empty((len(R), 2 * m), order="F")
            B[:, :m], B[:, m:] = Rj.real, Rj.imag
            x, info = dtbtrs(band, B, uplo="L", overwrite_b=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"dtbtrs failed with info={info}")
            Y.real[:, j:j + m], Y.imag[:, j:j + m] = x[:, :m], x[:, m:]
    return Y


def _sparse_times(A, X):
    """A @ X for a sparse A and a complex X.  A real A multiplies the float64
    view of X, which must then be C-ordered: its real and imaginary parts
    share one real product."""
    if np.isrealobj(A.data):
        return (A @ X.view(np.float64)).view(complex)
    return A @ X


def to_euclidean(C, D=None, weight="D"):
    """Similarity transform making the D (or D^-1) field of values Euclidean.

    weight "D":    Ctilde = L^H C L^-H  with D = L L^H
    weight "Dinv": Ctilde = L^-1 C L
    weight "I", or no D: Ctilde = C

    D, dense or sparse, is factored by a banded Cholesky (_banded_cholesky).
    Each transform is one banded triangular solve on n right-hand sides and
    one sparse product with L: for "D" the solve W^T = conj(L)^-1 C^T, then
    Ctilde = L^H W; for "Dinv" the solve X = L^-1 C, then Ctilde^T = L^T X^T.
    For a real D the solves return Fortran-ordered arrays, so the products
    read C-ordered transposes.  Ctilde is C-ordered.
    """
    if weight not in ("D", "Dinv", "I"):
        raise ValueError(f"unknown weight tag {weight!r}")
    C = np.asarray(C, dtype=complex)
    if D is None or weight == "I":
        return C.copy()
    band, L = _banded_cholesky(D)
    if weight == "D":
        return _sparse_times(L.conj().T, _solve_lower(band.conj(), C.T).T)
    return np.ascontiguousarray(_sparse_times(L.T, _solve_lower(band, C).T).T)


class _SubspaceSweep:
    """Rayleigh-Ritz evaluation of lambda_max(H(t)) over many angles through
    one shared subspace, enriched by Ritz residuals.

    Ritz values underestimate lambda_max and only grow with the basis;
    enrichment drives the residual eta to zero where the minimum of
    lambda_max is attained.  lam + eta bounds the gap to some eigenvalue of
    H(t), not necessarily the top one, so the sweep only locates the best
    angle, and fov_distance proves the bound there.

    It stores the basis U, its images CU = Ct U and CHU = Ct^H U, and
    Cs = U^H Ct U, whose Hermitian part is the projected H(t), in arrays of
    max_basis columns allocated once; the properties are views of the first
    size columns.  The top Ritz pair of an angle is solved once per basis
    size (_pair) and cached.
    """

    def __init__(self, Ct, rng, max_basis=260):
        self.Ct = Ct
        self.n = Ct.shape[0]
        X = rng.standard_normal((self.n, 6)) + 1j * rng.standard_normal((self.n, 6))
        U, _ = np.linalg.qr(np.hstack([X, Ct @ X, _adjoint_times(Ct, X)]))
        s = U.shape[1]
        self.max_basis = max(max_basis, s)
        self._U, self._CU, self._CHU = np.zeros((3, self.n, self.max_basis), dtype=complex)
        self._Cs = np.zeros((self.max_basis, self.max_basis), dtype=complex)
        self._U[:, :s] = U
        self._CU[:, :s] = Ct @ U
        self._CHU[:, :s] = _adjoint_times(Ct, U)
        self._Cs[:s, :s] = _adjoint_times(U, self._CU[:, :s])
        self.size = s
        self._pairs = {}  # theta -> (basis size, lam, y)

    U = property(lambda self: self._U[:, :self.size])
    CU = property(lambda self: self._CU[:, :self.size])
    CHU = property(lambda self: self._CHU[:, :self.size])
    Cs = property(lambda self: self._Cs[:self.size, :self.size])

    def append(self, u):
        s = self.size
        if s >= self.max_basis:
            return False
        U = self.U
        for _ in range(2):
            u = u - U @ _adjoint_times(U, u)
        nu = np.linalg.norm(u)
        if nu < 1e-12:
            return False
        u = u / nu
        Cu, CHu = self.Ct @ u, _adjoint_times(self.Ct, u)
        self._Cs[:s, s] = _adjoint_times(U, Cu)
        self._Cs[s, :s] = u.conj() @ self.CU
        self._Cs[s, s] = np.vdot(u, Cu)
        self._U[:, s] = u
        self._CU[:, s] = Cu
        self._CHU[:, s] = CHu
        self.size = s + 1
        return True

    def _pair(self, theta):
        """(lam, y): the top eigenpair of the projected H(theta), solved once
        per angle and basis size."""
        hit = self._pairs.get(theta)
        if hit is None or hit[0] != self.size:
            hit = (self.size, *_top_eigenpair(_hermitian_part(self.Cs, theta)))
            self._pairs[theta] = hit
        return hit[1], hit[2]

    def lam_batch(self, thetas):
        """The latest Ritz lambda_max of each angle, solved only for an angle
        never solved before.  A value from a smaller basis is a lower bound
        of the current one."""
        pairs = self._pairs
        return np.array([pairs[t][1] if t in pairs else self._pair(t)[0] for t in thetas])

    def ritz(self, theta):
        """(lam, Ritz vector y, residual norm eta) at the current basis size."""
        lam, y = self._pair(theta)
        return lam, y, float(np.linalg.norm(self.residual_vector(theta, y, lam)))

    def residual_vector(self, theta, y, lam):
        """H(theta) U y - lam U y, from the stored images of U."""
        e = 0.5 * cmath.exp(1j * theta)
        return e * (self.CU @ y) + e.conjugate() * (self.CHU @ y) - lam * (self.U @ y)


def _adjoint_times(U, X):
    """U^H X without forming the conjugate copy of U."""
    return (X.T.conj() @ U).T.conj()


def _top_eigenpair(H):
    """(lambda_max, unit eigenvector) of a Hermitian matrix.  LAPACK computes
    this one pair alone, on one BLAS thread: these matrices are small.  Its
    subset solver can return no pair for a matrix whose eigenvalues agree to
    round-off (a multiple of the identity); such a matrix gets the full solve."""
    s = H.shape[0]
    with _one_blas_thread():
        w, v = sla.eigh(H, subset_by_index=[s - 1, s - 1], check_finite=False)
        if w.size == 0:
            w, v = sla.eigh(H, check_finite=False)
    return float(w[-1]), v[:, -1]


def _hermitian_part(X, theta):
    """H(theta) = (e^{i theta} X + (e^{i theta} X)^H) / 2, exactly Hermitian,
    formed in one scaled copy Y of X.  Y is symmetrised in place, one pair of
    mirrored tiles of _HERMITIAN_TILE rows at a time, so that no temporary is
    larger than a tile; each entry is Y[i, j] + conj(Y[j, i]), as in
    Y + Y^H."""
    Y = (0.5 * cmath.exp(1j * theta)) * X
    n, t = len(Y), _HERMITIAN_TILE
    for i in range(0, n, t):
        for j in range(i, n, t):
            upper = Y[i:i + t, j:j + t]
            lower = Y[j:j + t, i:i + t]  # upper itself on the diagonal
            mirror = lower.conj().T  # a copy, taken before either tile changes
            if j > i:
                lower += upper.conj().T
            upper += mirror
    return Y


def _dense_angle_results(Ct, thetas):
    """{theta: (lambda_max, residual norm)} of the full H(theta), each pair
    solved directly."""
    out = {}
    for t in thetas:
        H = _hermitian_part(Ct, t)
        lam, vec = _top_eigenpair(H)
        out[t] = (lam, float(np.linalg.norm(H @ vec - lam * vec)))
    return out


def _top_below(Ct, theta, mu):
    """True when the Cholesky of mu I - H(theta) succeeds, which proves
    lambda_max(H(theta)) < mu up to the factorisation's round-off.  The
    matrix is H(theta) negated and shifted in place; its transpose, the
    conjugate and definite with it, is Fortran-ordered, so LAPACK factors
    it without a copy.  The Cholesky runs on one BLAS thread.  At n=625 it
    took 0.011-0.017 s there, and 0.009-0.14 s on two threads beside numpy's
    pool; at n=3721 one thread costs 1.11-1.24 s, two 0.70-0.79 s."""
    M = _hermitian_part(Ct, theta)
    np.negative(M, out=M)
    M[np.diag_indices_from(M)] += mu
    try:
        with _one_blas_thread():
            sla.cho_factor(M.T, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return False
    return True


def _subspace_converge(sweep, thetas, eta_tol, max_phases=400):
    """Enrich the shared subspace until every angle that could attain the
    support maximum has a tight Ritz pair, and return the latest Ritz value
    of each angle.  Ritz values only grow with the basis, so the scan reads
    each angle's latest value as a lower bound and solves it again only when
    it could still attain the maximum.  A converged scan ends on a phase
    without an append, so the angle of the smallest returned value has its
    pair at the final size."""
    lam = sweep.lam_batch(thetas)
    for _ in range(max_phases):
        dist_cand = -np.inf
        target = None
        for idx in np.argsort(lam):
            if -lam[idx] <= dist_cand:
                break
            t = thetas[idx]
            l, y, eta = sweep.ritz(t)
            lam[idx] = l
            if eta > eta_tol:
                target = (t, y, l)
                break
            dist_cand = max(dist_cand, -(l + eta))
        if target is None:
            break
        if not sweep.append(sweep.residual_vector(*target)):
            break  # basis cap: the best angle is still proven on its own
    return lam


def _norm2_upper(Ct):
    """||C||_2 of the transformed matrix, never an underestimate: the top
    singular value of a dense SVD up to DENSE_EIG_CUTOFF unknowns, else
    ARPACK on Ct^H Ct with its residual added.  ARPACK starts from a fixed
    vector, so the value repeats bit for bit.  Both run with scipy's BLAS on
    one thread; the products with Ct stay on numpy's."""
    n = Ct.shape[0]

    def gram(x):  # Ct^H Ct x without forming Ct^H
        return (Ct.T @ (Ct @ x).conj()).conj()

    with _one_blas_thread():
        if n <= DENSE_EIG_CUTOFF:
            return float(sla.svdvals(Ct)[0])
        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        op = spla.LinearOperator((n, n), matvec=gram, dtype=complex)
        w, v = spla.eigsh(op, k=1, which="LM", tol=1e-11, maxiter=20000, v0=v0)
        vec = v[:, 0] / np.linalg.norm(v[:, 0])
        lam = float(np.real(w[0]))
        eta = float(np.linalg.norm(gram(vec) - lam * vec))
    return math.sqrt(max(lam + eta, 0.0))


def fov_distance(C, D=None, *, weight="D", tag="", angles=256, size_cap=SIZE_CAP):
    """FovEstimate for dist(0, W_D(C)) and ||C||_D via boundary tracing.

    The subspace sweep finds the angle theta* of the smallest Ritz value of
    lambda_max; the distance is -lambda_max(H(theta*)) bounded from below,
    by the sweep's lam + eta when one Cholesky proves it an upper bound of
    lambda_max, else by the top pair of the full H(theta*).

    angles is the size of the starting theta grid, at least 256: a smaller
    value sweeps 256 angles.  Refinement adds angles near the minimum
    (angles_used counts them all)."""
    C = np.asarray(C, dtype=complex)
    n = C.shape[0]
    if n > size_cap:
        raise AnalysisSizeError(f"dense analysis refused for dimension {n} > {size_cap}")
    Ct = to_euclidean(C, D, weight)
    norm = _norm2_upper(Ct)
    eta_tol = max(1e-8 * norm, 1e-14)
    sweep = _SubspaceSweep(Ct, np.random.default_rng(2357))

    thetas = [float(t) for t in
              np.linspace(0.0, 2.0 * math.pi, max(angles, 256), endpoint=False)]
    lam = _subspace_converge(sweep, thetas, eta_tol)
    spacing = 2.0 * math.pi / len(thetas)
    for _ in range(_REFINE_ROUNDS):
        t_best = thetas[int(np.argmin(lam))]
        local = [float(t % (2.0 * math.pi))
                 for t in np.linspace(t_best - spacing, t_best + spacing, _REFINE_POINTS)]
        seen = set(thetas)
        thetas += [t for t in local if t not in seen]
        lam = _subspace_converge(sweep, thetas, eta_tol)
        spacing /= _REFINE_POINTS / 2.0

    t_best = thetas[int(np.argmin(lam))]
    l, _, eta = sweep.ritz(t_best)
    del sweep  # freed before the proof allocates its n x n matrices
    if not _top_below(Ct, t_best, l + eta):  # the subspace missed the top pair
        l, eta = _dense_angle_results(Ct, [t_best])[t_best]
    dist = max(0.0, -(l + eta))
    cosb = min(dist / norm, 1.0) if norm > 0 else 0.0
    return FovEstimate(tag=tag, dist_to_origin=dist, norm=norm,
                       beta=math.acos(cosb), certified=dist > _CERTIFY_RTOL * norm,
                       angles_used=len(thetas))


def check_gmres_bound(C, D, b=None, *, est=None, max_iters=None, seed=0, tag=""):
    """Runs weighted GMRES on C x = b and tests the sin^m(beta) envelope."""
    C = np.asarray(C, dtype=complex)
    n = C.shape[0]
    if est is None:
        est = fov_distance(C, D, tag=tag)
    if not est.certified:
        return {"status": "skipped", "estimate": est, "max_excess": None,
                "max_ratio": None}
    if b is None:
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    D = sp.identity(n, format="csr") if D is None else D
    cfg = KrylovConfig(variant="weighted_gmres", side="none", weight=D,
                       rel_tol=1e-13, max_iters=max_iters or min(n, 60))
    _, rep = gmres(C, None, b, cfg)
    sinb = math.sin(est.beta)
    hist = rep.residual_history
    bounds = sinb ** np.arange(len(hist))
    excess = hist - bounds
    ratios = hist[1:] / np.maximum(bounds[1:], 1e-300)
    ok = bool(np.all(excess <= _ENVELOPE_SLACK))
    return {"status": "ok" if ok else "violated", "estimate": est,
            "max_excess": float(excess.max()), "max_ratio": float(ratios.max()),
            "iterations": rep.iterations, "history": hist, "bounds": bounds}


def check_adjoint_identity(C, D, *, samples=20, seed=0, check_distance=False,
                           tol=1e-10):
    """Verifies the D / D^-1 adjoint identity between Rayleigh quotients of C
    and C^H, and optionally the equality of the two origin distances."""
    C = np.asarray(C, dtype=complex)
    band, _ = _banded_cholesky(D)
    D = D if sp.issparse(D) else np.asarray(D)
    rng = np.random.default_rng(seed)
    n = C.shape[0]
    worst = 0.0
    for _ in range(samples):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = D @ v
        q1 = np.vdot(C @ v, w) / np.vdot(v, w)
        with _one_blas_thread():
            winv = sla.cho_solve_banded((band, True), w)
        q2 = np.conj(np.vdot(C.conj().T @ w, winv) / np.vdot(w, winv))
        worst = max(worst, abs(q1 - q2) / max(abs(q1), 1.0))
    out = {"max_error": worst, "status": "ok" if worst <= tol else "violated"}
    if check_distance:
        e1 = fov_distance(C, D, weight="D")
        e2 = fov_distance(C.conj().T, D, weight="Dinv")
        out["dist_D"] = e1.dist_to_origin
        out["dist_Dinv_adjoint"] = e2.dist_to_origin
        out["dist_gap"] = abs(e1.dist_to_origin - e2.dist_to_origin)
        if out["dist_gap"] > 1e-5 * max(e1.norm, 1.0):
            out["status"] = "violated"
    return out


def analysis_mesh_cells(k):
    """Desk-scale dense-analysis rule: m = 3k, the coarsest mesh for which the
    alpha = 1 layout still has one overlap layer (about 19 points/wavelength)."""
    return 3 * ceil_snapped(k)


def preconditioned_operator(k, *, eps, alpha=1.0, kind="AS"):
    """Dense preconditioned matrices of the absorbed problem: returns a dict
    with A (A_eps, sparse), D (energy matrix, sparse CSR), the left/right
    products B@A and A@B of the dense preconditioner action B, and H (the
    coarse cell width 1/M).  B itself is not kept: at n=3721 it is 221 MB
    that a caller analysing left or right would hold for nothing."""
    mesh = build_fine_mesh(k, "explicit", m=analysis_mesh_cells(k))
    if mesh.n > SIZE_CAP:
        raise AnalysisSizeError(f"k={k} needs n={mesh.n} > cap {SIZE_CAP}")
    ws = build_wavespeed(mesh, "constant")
    coeff = AssemblyCoefficients(omega=float(k), wavespeed=ws,
                                 shift_mode="additive_eps", shift_value=float(eps))
    A = assemble_system(mesh, coeff)
    layout = layout_from_blocks(mesh, ceil_snapped(k ** alpha))
    decomp = build_decomposition(mesh, layout)
    P = build_preconditioner(kind, mesh=mesh, decomp=decomp, A_prec=A,
                             coeff_prec=coeff, system_matrix=A)
    B = P.to_dense()
    return {"A": A, "D": assemble_energy_matrix(mesh, float(k)), "left": B @ A,
            "right": A @ B, "H": 1.0 / layout.M}


def scaling_sweep(k_list, *, beta=None, eps_rule="k^beta", alpha=1.0, kind="AS",
                  sides=("left", "right"), angles=256, envelope=False):
    """Tabulates norm and origin distance of the preconditioned operators in
    the energy inner products across k, with log-log trend slopes against the
    theoretical k^2/eps scaling."""
    if not set(sides) <= {"left", "right"}:
        raise ValueError(f"sides must be 'left' or 'right', got {list(sides)}")
    if eps_rule not in ("ksq", "k^beta"):
        raise ValueError(f"eps_rule must be one of 'ksq', 'k^beta', got {eps_rule!r}")
    if eps_rule == "k^beta" and beta is None:
        raise ValueError("k^beta rule needs beta")
    rows = []
    for k in k_list:
        eps = float(k) ** (2 if eps_rule == "ksq" else beta)
        ops = preconditioned_operator(k, eps=eps, alpha=alpha, kind=kind)
        for side in sides:
            C = ops["left"] if side == "left" else ops["right"]
            wt = "D" if side == "left" else "Dinv"
            tag = f"{kind}-{side}"
            est = fov_distance(C, ops["D"], weight=wt, tag=tag, angles=angles)
            row = {"tag": tag, "k": k, "eps": eps, "H": ops["H"],
                   "dist": est.dist_to_origin, "norm": est.norm, "beta": est.beta,
                   "certified": est.certified, "max_ratio": None, "estimate": est}
            if envelope and side == "left":
                # the sin^m(beta) envelope lives in the D norm of the left
                # operator; the D^-1 side is exercised via the adjoint identity
                chk = check_gmres_bound(C, ops["D"], est=est, tag=tag)
                row["max_ratio"] = chk.get("max_ratio")
                row["envelope"] = chk
            rows.append(row)
    slopes = {}
    lefts = [r for r in rows if r["tag"].endswith("left")]
    if len(lefts) >= 2 and len({r["eps"] / r["k"] ** 2 for r in lefts}) > 1:
        x = np.log([r["k"] ** 2 / r["eps"] for r in lefts])
        slopes["norm_vs_k2_over_eps"] = float(np.polyfit(x, np.log([r["norm"] for r in lefts]), 1)[0])
        dists = np.array([r["dist"] for r in lefts])
        if np.all(dists > 0):
            slopes["dist_vs_eps_over_k2"] = float(
                np.polyfit(-x, np.log(dists), 1)[0])
    return {"rows": rows, "slopes": slopes}


def rows_to_csv(rows, fobj):
    writer = csv.writer(fobj)
    writer.writerow(ANALYSIS_COLUMNS)
    for r in rows:
        writer.writerow([r["tag"], r["k"], r["eps"], r["H"],
                         f"{r['dist']:.12g}", f"{r['norm']:.12g}", f"{r['beta']:.12g}",
                         str(bool(r["certified"])).lower(),
                         "" if r.get("max_ratio") is None else f"{r['max_ratio']:.12g}"])
