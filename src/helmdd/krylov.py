"""Standard, weighted, and flexible GMRES (full Arnoldi, no restarts) with
left or right preconditioning.

The weighted variant runs the Arnoldi process in the inner product induced by
a Hermitian positive definite matrix D and minimises the residual in the
D-norm; with D = I it reproduces standard GMRES iterate for iterate.  FGMRES
stores the preconditioned directions and therefore tolerates preconditioners
that change between applications (nested inner solves); it requires right
preconditioning.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

_BLOCK = 32  # Krylov basis growth increment (columns)
# a second Gram-Schmidt pass runs when the first leaves a component above this
# fraction of the new vector's norm
_REORTH_THRESHOLD = 1e-8


class GmresBreakdown(RuntimeError):
    """Arnoldi produced a zero vector while the residual was still large."""


@dataclass
class KrylovConfig:
    variant: str = "gmres"  # gmres | weighted_gmres | fgmres
    side: str = "right"     # left | right | none
    rel_tol: float = 1e-6
    max_iters: int = 200
    weight: object = None   # HPD matrix, weighted_gmres only

    def __post_init__(self):
        if self.variant not in ("gmres", "weighted_gmres", "fgmres"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.side not in ("left", "right", "none"):
            raise ValueError(f"unknown side {self.side!r}")
        if self.variant == "fgmres" and self.side != "right":
            raise ValueError("fgmres requires right preconditioning")
        if self.variant == "weighted_gmres" and self.weight is None:
            raise ValueError("weighted_gmres needs a weight matrix")


@dataclass
class KrylovReport:
    converged: bool
    iterations: int
    residual_history: np.ndarray  # relative preconditioned/weighted norms, [0] = 1
    true_relres: float            # unpreconditioned 2-norm residual at exit
    basis_bytes: int


def _as_matvec(A):
    if callable(A) and not (sp.issparse(A) or isinstance(A, np.ndarray)):
        return A
    return lambda v: A @ v


def _as_apply(M):
    if M is None:
        return None
    if hasattr(M, "apply"):
        return M.apply
    return M


def _grow(V, j, n, dtype):
    if V is None or j >= V.shape[1]:
        extra = np.zeros((n, _BLOCK), dtype=dtype)
        V = extra if V is None else np.concatenate([V, extra], axis=1)
    return V


def gmres(A, preconditioner, b, config=None):
    """GMRES of the config's variant (standard, weighted or flexible); returns
    (solution, KrylovReport)."""
    return _solve(A, preconditioner, b, config or KrylovConfig())


def fgmres(A, preconditioner, b, config=None):
    """Flexible GMRES; the preconditioner may change per application."""
    if config is None:
        config = KrylovConfig(variant="fgmres", side="right")
    if config.variant != "fgmres":
        raise ValueError("fgmres called with a non-flexible config")
    return _solve(A, preconditioner, b, config)


def _solve(A, M, b, cfg):
    flexible = cfg.variant == "fgmres"
    matvec = _as_matvec(A)
    apply_m = _as_apply(M)
    if apply_m is not None and cfg.side == "none":
        raise ValueError("side='none' does not take a preconditioner")
    if getattr(M, "flexible", False) and not flexible:
        raise ValueError("preconditioner varies per application: use fgmres")
    weight = cfg.weight if cfg.variant == "weighted_gmres" else None
    wdot = (lambda v: weight @ v) if weight is not None else None

    b = np.asarray(b, dtype=np.complex128).ravel()
    n = b.shape[0]
    bnorm = np.linalg.norm(b)

    def wnorm_sq(v, wv):
        return float(np.real(np.vdot(wv, v))) if weight is not None \
            else float(np.real(np.vdot(v, v)))

    def report(x, converged, iters, hist, basis_bytes):
        res = b - matvec(x)
        true_rel = float(np.linalg.norm(res) / bnorm) if bnorm > 0 else 0.0
        return x, KrylovReport(converged, iters, np.asarray(hist), true_rel, basis_bytes)

    r0 = apply_m(b) if (apply_m is not None and cfg.side == "left") else b
    t0 = wdot(r0) if wdot else r0
    beta = np.sqrt(wnorm_sq(r0, t0))
    if beta == 0.0 or bnorm == 0.0:
        return report(np.zeros(n, np.complex128), True, 0, [0.0], 0)

    mx = cfg.max_iters
    H = np.zeros((mx + 1, mx), dtype=np.complex128)
    giv = np.zeros((mx, 2), dtype=np.complex128)  # rows (conj(a)/r, b/r)
    g = np.zeros(mx + 1, dtype=np.complex128)
    g[0] = beta
    V = None
    Z = None
    V = _grow(V, 0, n, np.complex128)
    V[:, 0] = r0 / beta
    hist = [1.0]
    converged = False
    m = 0

    for j in range(mx):
        V = _grow(V, j + 1, n, np.complex128)
        u = V[:, j]
        if flexible and apply_m is not None:
            Z = _grow(Z, j, n, np.complex128)
            Z[:, j] = apply_m(u)
            w = matvec(Z[:, j])
        elif apply_m is not None and cfg.side == "right":
            w = matvec(apply_m(u))
        elif apply_m is not None and cfg.side == "left":
            w = apply_m(matvec(u))
        else:
            w = matvec(u)
        w = np.asarray(w, dtype=np.complex128)

        # classical Gram-Schmidt in the weighted inner product, with one
        # re-orthogonalisation pass when orthogonality loss exceeds the
        # threshold (CGS2)
        t = wdot(w) if wdot else w
        h = V[:, :j + 1].conj().T @ t
        w = w - V[:, :j + 1] @ h
        t = wdot(w) if wdot else w
        corr = V[:, :j + 1].conj().T @ t
        hh = np.sqrt(max(wnorm_sq(w, t), 0.0))
        if np.linalg.norm(corr) > _REORTH_THRESHOLD * max(hh, 1e-300):
            w = w - V[:, :j + 1] @ corr
            h = h + corr
            t = wdot(w) if wdot else w
            hh = np.sqrt(max(wnorm_sq(w, t), 0.0))

        H[:j + 1, j] = h
        H[j + 1, j] = hh
        # previously accumulated Givens rotations
        for i in range(j):
            ca, sb = giv[i]
            hi, hi1 = H[i, j], H[i + 1, j]
            H[i, j] = ca * hi + sb * hi1
            H[i + 1, j] = -sb * hi + np.conj(ca) * hi1
        a = H[j, j]
        r = np.sqrt(np.abs(a) ** 2 + hh ** 2)
        if r == 0.0:
            raise GmresBreakdown("zero column in Hessenberg update")
        giv[j, 0] = np.conj(a) / r
        giv[j, 1] = hh / r
        H[j, j] = r
        H[j + 1, j] = 0.0
        g[j + 1] = -giv[j, 1] * g[j]
        g[j] = giv[j, 0] * g[j]
        rel = float(np.abs(g[j + 1]) / beta)
        hist.append(rel)
        m = j + 1
        if rel <= cfg.rel_tol:
            converged = True
            break
        breakdown = hh <= 1e-14 * beta
        if breakdown:
            raise GmresBreakdown(
                f"Arnoldi breakdown at iteration {m} with residual {rel:.3e}")
        V[:, j + 1] = w / hh

    y = sla.solve_triangular(H[:m, :m], g[:m], lower=False)
    if flexible and apply_m is not None:
        x = Z[:, :m] @ y
    else:
        x = V[:, :m] @ y
        if apply_m is not None and cfg.side == "right":
            x = apply_m(x)
    basis_bytes = V.nbytes + (Z.nbytes if Z is not None else 0)
    return report(x, converged, m, hist, basis_bytes)
