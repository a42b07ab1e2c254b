"""Standard, weighted, and flexible GMRES (full Arnoldi, no restarts) with
right preconditioning or none.

The weighted variant runs the Arnoldi process in the inner product induced by
a Hermitian positive definite matrix D and minimises the residual in the
D-norm; with D = I it reproduces standard GMRES iterate for iterate.  FGMRES
stores the preconditioned directions and therefore tolerates preconditioners
that change between applications (nested inner solves); it requires right
preconditioning.

The right-hand side is a vector (n,) or a block (n, G) of independent
columns.  The G columns run in lockstep through one Arnoldi loop: each step
makes one block product with the operator and one block preconditioner apply
on the columns still active, while Gram-Schmidt, the Givens rotations and the
convergence test are per column.  A column freezes once it converges or
reaches max_iters (then it counts as not converged).  A vector hands (n,)
vectors to the operator and preconditioner, a block hands (n, g) blocks of
its active columns.  An operator or preconditioner whose column_aware
attribute is true is also told which columns of b a block holds (act, in
ascending order), so that it can treat groups of columns differently; any
other is called with the block alone.  V (Z too) and the rotated Hessenberg
R are allocated once, max_iters steps deep, step axis first (V[j] is step j
of every column): only the steps a solve writes become resident; a freeze
copies only those, of the columns that move.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# a second Gram-Schmidt pass runs when the first leaves a component above this
# fraction of the new vector's norm
_REORTH_THRESHOLD = 1e-8


class GmresBreakdown(RuntimeError):
    """Arnoldi produced a zero vector while the residual was still large."""


@dataclass
class KrylovConfig:
    variant: str = "gmres"  # gmres | weighted_gmres | fgmres
    side: str = "right"     # right | none
    rel_tol: float = 1e-6
    max_iters: int = 200
    weight: object = None   # HPD matrix, weighted_gmres only

    def __post_init__(self):
        if self.variant not in ("gmres", "weighted_gmres", "fgmres"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.side not in ("right", "none"):
            raise ValueError(f"unknown side {self.side!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
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


def _by_columns(op, f):
    """f as a function of (block, act): a column-aware op gets both, any
    other op the block only."""
    if f is None or getattr(op, "column_aware", False):
        return f
    return lambda v, act: f(v)


def gmres(A, preconditioner, b, config=None):
    """GMRES of the config's variant (standard, weighted or flexible).  For a
    vector b returns (x, KrylovReport); for a block b of G columns returns
    (X, list of G KrylovReports), one per column."""
    return _solve(A, preconditioner, b, config or KrylovConfig())


def fgmres(A, preconditioner, b, config=None):
    """Flexible GMRES; the preconditioner may change per application."""
    if config is None:
        config = KrylovConfig(variant="fgmres", side="right")
    if config.variant != "fgmres":
        raise ValueError("fgmres called with a non-flexible config")
    return _solve(A, preconditioner, b, config)


def _rowdots(x, y):
    """Row-wise x^H y of two (g, n) blocks."""
    return np.matmul(x.conj()[:, None, :], y[:, :, None])[:, 0, 0]


def _compacted(a, keep, depth):
    """a with the columns keep (ascending, axis 1) moved to the front; copies
    depth steps of the columns after the first dropped one."""
    lo = int(np.searchsorted(keep - np.arange(len(keep)), 0, side="right"))
    a[:depth, lo:len(keep)] = a[:depth, keep[lo:]]
    return a[:, :len(keep)]


def _solve(A, M, b, cfg):
    flexible = cfg.variant == "fgmres"
    matvec = _by_columns(A, _as_matvec(A))
    apply_m = _by_columns(M, _as_apply(M))
    if apply_m is not None and cfg.side == "none":
        raise ValueError("side='none' does not take a preconditioner")
    if getattr(M, "flexible", False) and not flexible:
        raise ValueError("preconditioner varies per application: use fgmres")
    weight = cfg.weight if cfg.variant == "weighted_gmres" else None
    right = apply_m is not None
    keep_z = flexible and apply_m is not None  # store the directions M v

    b = np.asarray(b, dtype=np.complex128)
    vector = b.ndim == 1
    B = b[None] if vector else np.ascontiguousarray(b.T)  # rows (G, n)
    G, n = B.shape

    def call(f, rows, cols):
        """f on a block of rows (g, n) of the columns cols, as (n,) for a
        vector, else as (n, g)."""
        if vector:
            return np.asarray(f(rows[0], cols), dtype=np.complex128)[None]
        return np.ascontiguousarray(np.asarray(f(rows.T, cols), dtype=np.complex128).T)

    def wdot(w):
        return call(lambda v, _: weight @ v, w, None) if weight is not None else w

    def wnorms(w, t):
        return np.sqrt(np.maximum(_rowdots(w, t).real, 0.0))

    every = np.arange(G)
    bnorm = np.linalg.norm(B, axis=1)
    beta = wnorms(B, wdot(B))
    act = np.flatnonzero((beta > 0) & (bnorm > 0))  # columns still iterating

    mx = cfg.max_iters
    Y = np.zeros((G, n), dtype=np.complex128)  # V y (Z y if flexible) per column
    iters = np.zeros(G, dtype=np.int64)
    converged = np.ones(G, dtype=bool)
    hist = np.zeros((G, mx + 1))
    hist[:, 0] = 1.0
    basis_bytes = np.zeros(G, dtype=np.int64)

    # active column act[i] is entry i of axis 1 (axis 0 of giv, g); R[j, i] is
    # column j of its rotated Hessenberg, written at step j with its zeros
    V = np.empty((mx, len(act), n), dtype=np.complex128)
    Z = np.empty_like(V) if keep_z else None
    R = np.empty((mx, len(act), mx), dtype=np.complex128)
    giv = np.zeros((len(act), mx, 2), dtype=np.complex128)  # (conj(a)/r, b/r)
    g = np.zeros((len(act), mx + 1), dtype=np.complex128)
    beta_a = beta[act]
    g[:, 0] = beta_a
    V[0] = B[act] / beta_a[:, None]

    for j in range(mx if len(act) else 0):
        u = V[j]
        if keep_z:
            Z[j] = call(apply_m, u, act)
            w = call(matvec, Z[j], act)
        elif right:
            w = call(matvec, call(apply_m, u, act), act)
        else:
            w = call(matvec, u, act)

        # classical Gram-Schmidt in the weighted inner product, with one
        # re-orthogonalisation pass for the columns whose orthogonality loss
        # exceeds the threshold (CGS2); the others subtract exact zeros
        Vj = V[:j + 1].swapaxes(0, 1)
        h = np.matmul(Vj, wdot(w).conj()[:, :, None])[:, :, 0].conj()
        w = w - np.matmul(h[:, None, :], Vj)[:, 0]
        t = wdot(w)
        corr = np.matmul(Vj, t.conj()[:, :, None])[:, :, 0].conj()
        hh = wnorms(w, t)
        redo = np.linalg.norm(corr, axis=1) > _REORTH_THRESHOLD * np.maximum(hh, 1e-300)
        if redo.any():
            corr[~redo] = 0.0
            w = w - np.matmul(corr[:, None, :], Vj)[:, 0]
            h = h + corr
            hh = wnorms(w, wdot(w))

        # previously accumulated Givens rotations, then this step's
        for i in range(j):
            ca, sb = giv[:, i, 0], giv[:, i, 1]
            hi, hi1 = h[:, i], h[:, i + 1]
            h[:, i], h[:, i + 1] = ca * hi + sb * hi1, -sb * hi + np.conj(ca) * hi1
        a = h[:, j]
        r = np.sqrt(np.abs(a) ** 2 + hh ** 2)
        if np.any(r == 0.0):
            raise GmresBreakdown("zero column in Hessenberg update")
        giv[:, j, 0] = np.conj(a) / r
        giv[:, j, 1] = hh / r
        h[:, j] = r
        R[j, :, :j + 1] = h
        R[j, :, j + 1:] = 0.0
        g[:, j + 1] = -giv[:, j, 1] * g[:, j]
        g[:, j] = giv[:, j, 0] * g[:, j]
        rel = np.abs(g[:, j + 1]) / beta_a
        hist[act, j + 1] = rel
        done = rel <= cfg.rel_tol
        broken = np.flatnonzero(~done & (hh <= 1e-14 * beta_a))
        if len(broken):
            raise GmresBreakdown(f"Arnoldi breakdown at iteration {j + 1} "
                                 f"with residual {rel[broken[0]]:.3e}")
        converged[act] = done
        if j + 1 == mx:
            done[:] = True

        # freeze the finished columns: their iterates, then drop their state
        if done.any():
            fin = slice(None) if done.all() else np.flatnonzero(done)
            y = np.linalg.solve(R[:j + 1, fin, :j + 1].transpose(1, 2, 0),
                                g[fin, :j + 1, None])[..., 0]
            Uf = (Z if keep_z else V)[:j + 1, fin].swapaxes(0, 1)
            Y[act[fin]] = np.matmul(y[:, None, :], Uf)[:, 0]
            iters[act[fin]] = j + 1
            basis_bytes[act[fin]] = (j + 1) * n * 16 * (2 if keep_z else 1)
            if done.all():
                break
            keep = np.flatnonzero(~done)
            act, beta_a, w, hh = act[keep], beta_a[keep], w[keep], hh[keep]
            giv, g = giv[keep], g[keep]
            V, R = _compacted(V, keep, j + 1), _compacted(R, keep, j + 1)
            Z = _compacted(Z, keep, j + 1) if keep_z else None
        V[j + 1] = w / hh[:, None]

    X = call(apply_m, Y, every) if right and not flexible and iters.any() else Y
    res = B - call(matvec, X, every)
    true_rel = np.linalg.norm(res, axis=1) / np.where(bnorm > 0, bnorm, np.inf)
    reports = [KrylovReport(bool(converged[c]), int(iters[c]),
                            hist[c, :iters[c] + 1].copy() if iters[c] else np.array([0.0]),
                            float(true_rel[c]), int(basis_bytes[c]))
               for c in range(G)]
    if vector:
        return X[0], reports[0]
    return np.ascontiguousarray(X.T), reports
