"""Factorised coarse/local solves and the preconditioner family of additive
Schwarz variants: AS1, AS, RAS1, HRAS, ImpRAS1, ImpHRAS.

The hybrid kinds apply the residual projection P0 = I - A R0^T A_{eps,0}^{-1} R0
built from the system matrix A being solved (not its absorbed counterpart) and
the shifted coarse inverse; A and A_{eps,0} are complex symmetric, so the
transposed projection reuses the same solves.

apply takes a vector (n,) or a block (n, c) of columns; to_dense is apply on
identity column blocks, so the analysis studies the operator GMRES applies.

The coarse solve, the local impedance solves, or both may be nested: an inner
GMRES (NestedSolver) preconditioned by a one-level ImpRAS1 over subdomains of
diameter ~k^-alpha_inner.  A nested solver takes the block of columns of one
class call and solves them in one lockstep GMRES, whose columns stop one by
one.  build_preconditioner takes either nesting as a dict of the same
keywords (k, alpha_inner, tol, max_iters).  A nested local solve is per class
of equal local matrices, as a factorisation is, and the classes share the
factorisations of their equal inner blocks.  The operator lists its nested
solvers in one place, PreconditionerOperator.nested; they hold its inner
iteration counts and failures, and any of them makes the operator vary per
application (flexible), so it must sit under flexible outer GMRES.
"""

import contextlib
import ctypes
import functools
import glob
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import assemble_local_impedance, csr_diagonal_blocks
from .decomposition import build_block_decomposition, build_decomposition
from .krylov import KrylovConfig, gmres
from .mesh import ceil_snapped, layout_from_blocks, round_half_up

DENSE_SOLVE_CUTOFF = 200  # below this, dense LAPACK beats SuperLU call overhead

# local matrices share a factorisation when their entries differ by at most
# this many machine epsilons relative to the largest entry; translated copies
# of one subdomain differ by coordinate round-off of up to about 26 epsilons
# on the uniform benchmark meshes
_SHARE_TOLERANCE_EPS = 64

# to_dense applies the identity this many columns at a time: an apply holds
# several (n, columns) temporaries (HRAS, n=3721: 566 MB peak, 1.1 GB at 2048)
_DENSE_COLUMNS = 512

KINDS = ("AS1", "AS", "RAS1", "HRAS", "ImpRAS1", "ImpHRAS")
_IMPEDANCE_KINDS = ("ImpRAS1", "ImpHRAS")
_WEIGHTED_KINDS = ("RAS1", "HRAS", "ImpRAS1", "ImpHRAS")
_COARSE_KINDS = ("AS", "HRAS", "ImpHRAS")
_HYBRID_KINDS = ("HRAS", "ImpHRAS")


class SingularMatrixError(RuntimeError):
    """A coarse/local matrix was numerically singular (possible only at eps=0)."""


@functools.cache
def _scipy_openblas():
    """(get, set) thread-count functions of the OpenBLAS bundled with scipy's
    wheel, or None where there is no such library (another BLAS, another
    platform).  numpy bundles its own OpenBLAS with its own thread pool."""
    libs = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas-*.so*"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads
            set_ = lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run scipy's BLAS on one thread inside the block, then restore the
    previous count.  Small triangular solves and LU factorisations run several
    times slower on a threaded OpenBLAS.  The count is process-wide: a block
    entered while the count is already 1 (a nested local solve, or a worker
    thread of a pinned apply) changes nothing."""
    fns = _scipy_openblas()
    prev = fns[0]() if fns is not None else 1
    if prev != 1:
        fns[1](1)
    try:
        yield
    finally:
        if prev != 1:
            fns[1](prev)


class DirectFactorization:
    """Reusable LU of a sparse complex matrix (dense LAPACK below a cutoff).
    solve takes one right-hand side or a block of them as columns."""

    def __init__(self, matrix):
        matrix = sp.csc_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        self.n = matrix.shape[0]
        self._dense = self.n <= DENSE_SOLVE_CUTOFF
        if self._dense:
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                lu, piv = sla.lu_factor(matrix.toarray().astype(np.complex128, copy=False))
            d = np.abs(np.diag(lu))
            if self.n and (np.min(d) == 0.0 or not np.all(np.isfinite(d))):
                raise SingularMatrixError("zero pivot in dense LU")
            self._lu = (lu, piv)
            # LAPACK's getrs bound once (complex LU, so real and complex
            # right-hand sides alike): sla.lu_solve spends several times the
            # solve of a small block in its per-call wrapper layers
            self._getrs, = sla.get_lapack_funcs(("getrs",), (lu,))
            self.fill_nnz = self.n * self.n
        else:
            try:
                self._splu = spla.splu(matrix)
            except RuntimeError as exc:  # "Factor is exactly singular"
                raise SingularMatrixError(str(exc)) from exc
            self.fill_nnz = self._splu.L.nnz + self._splu.U.nnz

    def solve(self, rhs):
        if not self._dense:
            return self._splu.solve(rhs)
        rhs = np.asarray_chkfinite(rhs)  # ValueError on NaN/inf, as lu_solve
        if rhs.size == 0:
            return np.zeros(rhs.shape, dtype=np.complex128)
        x, info = self._getrs(*self._lu, rhs)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of getrs")
        return x


class NestedSolver:
    """Inexact solve: right-preconditioned GMRES run to a loose tolerance.

    solve takes a vector (s,) or a block (s, G) and runs one GMRES on it: the
    G columns run in lockstep (one block product and one block preconditioner
    apply per iteration), each stopping on its own, and each records its own
    iteration count.  A column that reaches the iteration cap is recorded as a
    failure on the solver (its current iterate is still returned), never
    raised.
    """

    def __init__(self, matrix, inner_precond, inner_tol=0.5, inner_max_iters=200):
        self.matrix = matrix.tocsr() if sp.issparse(matrix) else matrix
        self.inner_precond = inner_precond
        self.config = KrylovConfig(variant="gmres", side="right", rel_tol=float(inner_tol),
                                   max_iters=int(inner_max_iters))
        self.inner_counts = []
        self.failures = 0

    def solve(self, rhs):
        x, reps = gmres(self.matrix, self.inner_precond, rhs, self.config)
        reps = [reps] if np.ndim(rhs) == 1 else reps
        self.inner_counts += [rep.iterations for rep in reps]
        self.failures += sum(not rep.converged for rep in reps)
        return x


def _same_matrix(a, rep):
    """a equals rep up to round-off: entries within _SHARE_TOLERANCE_EPS
    epsilons of rep's largest entry (a has rep's shape and pattern)."""
    if a.nnz == 0:
        return True
    tol = _SHARE_TOLERANCE_EPS * np.finfo(np.float64).eps * np.abs(rep.data).max()
    return bool(np.abs(a.data - rep.data).max() <= tol)


class _MatrixClasses:
    """Classes of equal matrices in order of first appearance, each with one
    solver.  A canonical CSR matrix is bucketed by its shape and exact pattern
    and joins the first class of its bucket whose representative (the class's
    first matrix) it equals under _same_matrix.  A new class's solver is built
    once, with scipy's BLAS on one thread, as build(matrix, first), where first
    is the position the caller gave the matrix (default build: a
    DirectFactorization of the matrix)."""

    def __init__(self, build=None):
        self.build = build or (lambda matrix, first: DirectFactorization(matrix))
        self.reps, self.solvers = [], []
        self._buckets = {}

    def index(self, mat, position):
        """The class of a canonical CSR matrix, a new one after the last if
        none fits."""
        key = (mat.shape, mat.indptr.tobytes(), mat.indices.tobytes())
        bucket = self._buckets.setdefault(key, [])
        cls = next((c for c in bucket if _same_matrix(mat, self.reps[c])), None)
        if cls is None:
            cls = len(self.reps)
            with _one_blas_thread():
                self.solvers.append(self.build(mat, position))
            self.reps.append(mat)
            bucket.append(cls)
        return cls


class LocalSolves:
    """Batched local solves with plain (AS) or RAS-weighted recombination.

    Built from one entry per subdomain: (matrix, solve_set, own_nodes,
    own_weights), where matrix is the local matrix, solve_set the sorted index
    set it acts on (interior nodes for Dirichlet local problems, closed nodes
    for impedance ones), and own_nodes/own_weights the subdomain's RAS
    partition of unity.

    Local matrices are grouped into classes that share one solver: a matrix
    joins a class when it has the class representative's pattern and its
    entries agree to round-off (_same_matrix), so translated copies of one
    subdomain share a solver while differing coefficients never do.  The
    entries are classified, each with its index as position, into the registry
    classes (a _MatrixClasses, which builds each class's solver; by default a
    fresh one of direct factorisations), and solvers lists the solvers of the
    classes met here in order of first appearance; several LocalSolves given
    one registry share one solver per class.  apply takes a vector or a block
    of c columns: it gathers every restriction with one index array, runs one
    multi-right-hand-side solve per class on the (s, G*c) block of its G
    subdomains, and recombines all local solutions with one sparse matrix:
    R_w^T (RAS weights) when weighted, else R^T.
    Factorisations and solves run with scipy's BLAS on one thread
    (_one_blas_thread).  With threads > 1 the classes are solved on a
    persistent thread pool; results are identical to the serial ones.
    """

    def __init__(self, n, entries, weighted, threads=1, classes=None):
        classes = classes or _MatrixClasses()
        members = {}  # class -> its entries, in order of first appearance
        for i, (local, solve_set, own_nodes, own_w) in enumerate(entries):
            mat = sp.csr_matrix(local, dtype=np.complex128)
            mat.sum_duplicates()
            members.setdefault(classes.index(mat, i), []).append(
                (np.asarray(solve_set, dtype=np.int64), np.asarray(own_nodes),
                 np.asarray(own_w)))
        self.solvers = [classes.solvers[c] for c in members]

        # classes occupy consecutive segments [lo, hi) of the gathered vector,
        # each laid out subdomain after subdomain
        none = np.zeros(0, dtype=np.int64)
        gather, rows, cols, vals, self._segments = [none], [none], [none], [none], []
        lo = 0
        for sets in members.values():
            hi = lo
            for solve_set, own_nodes, own_w in sets:
                gather.append(solve_set)
                if weighted:
                    pos, inside = _own_positions(solve_set, own_nodes)
                    rows.append(own_nodes[inside])
                    cols.append(hi + pos[inside])
                    vals.append(own_w[inside])
                else:
                    rows.append(solve_set)
                    cols.append(hi + np.arange(len(solve_set)))
                    vals.append(np.ones(len(solve_set)))
                hi += len(solve_set)
            self._segments.append((lo, hi, len(sets)))
            lo = hi
        self._gather = np.concatenate(gather)
        self._recombine = sp.csr_matrix(
            (np.concatenate(vals).astype(np.complex128),
             (np.concatenate(rows), np.concatenate(cols))), shape=(n, lo))
        self._pool = ThreadPoolExecutor(max_workers=threads) \
            if threads > 1 and len(self.solvers) > 1 else None

    def _solve_class(self, c, vg, ug):
        lo, hi, g = self._segments[c]
        # (s, c*G): one column per input column and subdomain
        x = self.solvers[c].solve(vg[..., lo:hi].reshape(-1, (hi - lo) // g).T)
        ug[..., lo:hi] = x.T.reshape(-1, hi - lo)

    def apply(self, v):
        # every restriction of each column of v: (len,) for a vector, (c, len)
        # for a block of c columns
        vg = v.T.take(self._gather, -1)
        ug = np.empty(vg.shape, dtype=np.complex128)
        with _one_blas_thread():
            if self._pool is not None:
                # the count is pinned here, in the calling thread, for the
                # workers; each writes a disjoint segment of ug
                list(self._pool.map(lambda c: self._solve_class(c, vg, ug),
                                    range(len(self.solvers))))
            else:
                for c in range(len(self.solvers)):
                    self._solve_class(c, vg, ug)
        return self._recombine @ ug.T


class CoarseSolve:
    """R0^T A_{eps,0}^{-1} R0 with a direct or nested coarse solver."""

    def __init__(self, coarse_interp, solver):
        self.R0 = coarse_interp
        self.R0T = coarse_interp.T.tocsr()
        self.solver = solver

    def apply(self, v):
        return self.R0T @ self.solver.solve(self.R0 @ v)


class PreconditionerOperator:
    """Linear-operator contract: apply(v) performs one preconditioner action.

    nested lists the inexact solvers (NestedSolver) among the local solves, in
    class order, then the coarse one; they hold the inner statistics, and the
    operator is flexible (varies per application) when there is any.
    """

    def __init__(self, kind, n, locals_, coarse=None, system_matrix=None):
        if kind not in KINDS:
            raise ValueError(f"unknown preconditioner kind {kind!r}")
        if kind in _COARSE_KINDS and coarse is None:
            raise ValueError(f"{kind} needs a coarse solve")
        if kind in _HYBRID_KINDS and system_matrix is None:
            raise ValueError(f"{kind} needs the system matrix for the projection")
        self.kind = kind
        self.n = n
        self.locals_ = locals_
        self.coarse = coarse
        self.system_matrix = system_matrix
        solvers = locals_.solvers + ([coarse.solver] if coarse is not None else [])
        self.nested = [s for s in solvers if isinstance(s, NestedSolver)]
        self.flexible = bool(self.nested)

    @property
    def shape(self):
        return (self.n, self.n)

    def apply(self, v):
        v = np.asarray(v, dtype=np.complex128)
        if self.kind not in _COARSE_KINDS:
            return self.locals_.apply(v)
        if self.kind == "AS":
            return self.coarse.apply(v) + self.locals_.apply(v)
        # hybrid: z + P0^T B_local P0 v, with A^T = A and A_{eps,0}^T = A_{eps,0}
        z = self.coarse.apply(v)
        t = self.locals_.apply(v - self.system_matrix @ z)
        return z + t - self.coarse.apply(self.system_matrix @ t)

    def inner_counts(self):
        return [c for s in self.nested for c in s.inner_counts]

    def inner_failures(self):
        return sum(s.failures for s in self.nested)

    def reset_stats(self):
        for s in self.nested:
            s.inner_counts = []
            s.failures = 0

    def to_dense(self):
        """Dense action matrix (exact solves only), for desk-scale analysis:
        apply on the identity, _DENSE_COLUMNS columns at a time."""
        if self.flexible:
            raise ValueError("nested preconditioners have no fixed matrix")
        out = np.empty((self.n, self.n), dtype=np.complex128)
        for j in range(0, self.n, _DENSE_COLUMNS):
            w = min(_DENSE_COLUMNS, self.n - j)
            out[:, j:j + w] = self.apply(np.eye(self.n, w, -j, dtype=np.complex128))
        return out


def _own_positions(solve_set, own_nodes):
    """Positions of owned nodes inside the solve set, and which owned nodes
    lie in it; owners outside the set (possible only in the degenerate
    no-overlap case) contribute nothing."""
    pos = np.searchsorted(solve_set, own_nodes)
    inside = solve_set[np.minimum(pos, len(solve_set) - 1)] == own_nodes
    return pos, inside


def _principal_submatrices(A, index_sets):
    """A[idx, :][:, idx] as CSR for each sorted index set, from one row
    gather of A: each gathered row keeps the columns inside its own set."""
    A = sp.csr_matrix(A)
    n = A.shape[0]
    sizes = np.array([len(idx) for idx in index_sets], dtype=np.int64)
    offs = np.concatenate([[0], np.cumsum(sizes)])
    gather = np.concatenate(index_sets).astype(np.int64)
    owner = np.repeat(np.arange(len(index_sets)), sizes)
    rows = A[gather]
    row_of = np.repeat(np.arange(len(gather)), np.diff(rows.indptr))
    # (set, node) pairs in ascending order, since every set is sorted
    keys = owner * n + gather
    want = owner[row_of] * n + rows.indices
    pos = np.searchsorted(keys, want)
    keep = keys[np.minimum(pos, len(keys) - 1)] == want
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row_of[keep],
                                                        minlength=len(gather)))])
    return csr_diagonal_blocks(indptr, pos[keep], rows.data[keep], offs)


def coarse_matrix(R0, A):
    """Galerkin coarse operator A_{eps,0} = R0 A_eps R0^T."""
    A0 = (R0 @ (A @ R0.T)).tocsr()
    A0.sum_duplicates()
    A0.sort_indices()
    return A0


def build_preconditioner(kind, *, mesh, decomp, A_prec, coeff_prec,
                         system_matrix=None, nested_coarse=None, nested_local=None,
                         threads=1):
    """Assemble and factorize everything one preconditioner kind needs.

    nested_coarse and nested_local take the same keywords: k (required),
    alpha_inner, tol and max_iters of the inner GMRES.  nested_coarse replaces
    the direct coarse factorization by build_nested_coarse_solver; nested_local
    solves every class of equal local impedance matrices by an inner GMRES
    preconditioned by a block ImpRAS1 on the class's first subdomain
    (_nested_local_solver), shared by all members as a factorisation is; the
    classes' block LocalSolves share one registry, so each distinct block
    matrix is factorised once.
    """
    impedance = kind in _IMPEDANCE_KINDS
    if nested_coarse is not None and kind not in _COARSE_KINDS:
        raise ValueError(f"{kind} has no coarse solve to nest")
    if nested_local is not None and not impedance:
        raise ValueError(f"{kind} has no impedance local solves to nest")
    subs = [sub for sub in decomp.subdomains
            if len(sub.closed_nodes if impedance else sub.interior_nodes)]
    classes = None
    if impedance:
        sets = [sub.closed_nodes for sub in subs]
        # one batch per subdomain: one batch of all of them would hold every
        # subdomain's triplets at once (2.7x the peak RSS of the assembly at
        # 100 subdomains)
        locals_iter = (assemble_local_impedance(mesh, [sub.element_ids], coeff_prec)[0]
                       for sub in subs)
        if nested_local is not None:
            blocks = _MatrixClasses()
            classes = _MatrixClasses(lambda matrix, first: _nested_local_solver(
                mesh, subs[first], matrix, coeff_prec, blocks, **nested_local))
    else:
        sets = [sub.interior_nodes for sub in subs]
        locals_iter = _principal_submatrices(A_prec, sets)
    entries = ((local, solve_set, sub.own_nodes, sub.own_weights)
               for local, solve_set, sub in zip(locals_iter, sets, subs))
    locals_ = LocalSolves(mesh.n, entries, kind in _WEIGHTED_KINDS, threads=threads,
                          classes=classes)

    coarse = None
    if kind in _COARSE_KINDS:
        if decomp.coarse_interp is None:
            raise ValueError("decomposition carries no coarse interpolation")
        if nested_coarse is not None:
            solver = build_nested_coarse_solver(decomp, A_prec, coeff_prec,
                                                threads=threads, **nested_coarse)
        else:
            solver = DirectFactorization(coarse_matrix(decomp.coarse_interp, A_prec))
        coarse = CoarseSolve(decomp.coarse_interp, solver)
    return PreconditionerOperator(kind, mesh.n, locals_, coarse=coarse,
                                  system_matrix=system_matrix)


def build_nested_coarse_solver(decomp, A_prec, coeff_prec, *, k, alpha_inner=0.5,
                               tol=0.5, max_iters=200, threads=1):
    """Inexact coarse solve: the coarse-grid problem (Galerkin matrix with the
    decomposition's R0), solved by GMRES with a one-level ImpRAS1
    preconditioner re-discretised on the coarse triangulation of the
    decomposition's layout, over a second-level decomposition of diameter
    ~k^-alpha_inner.  The Galerkin matrix is the solver's matrix."""
    A0 = coarse_matrix(decomp.coarse_interp, A_prec)
    cmesh = decomp.layout.as_mesh()
    ccoeff = coeff_prec.on_mesh(cmesh)
    Mi = min(ceil_snapped(k ** alpha_inner), cmesh.m)
    cdecomp = build_decomposition(cmesh, layout_from_blocks(cmesh, Mi))
    inner = build_preconditioner("ImpRAS1", mesh=cmesh, decomp=cdecomp, A_prec=A0,
                                 coeff_prec=ccoeff, threads=threads)
    return NestedSolver(A0, inner, tol, max_iters)


def _nested_local_solver(mesh, sub, imp_matrix, coeff_prec, blocks, *, k,
                         alpha_inner=0.8, tol=0.5, max_iters=200):
    """Inexact local impedance solve: inner GMRES on the subdomain system,
    preconditioned by ImpRAS1 over blocks of diameter ~k^-alpha_inner, whose
    block matrices are classified into the registry blocks (a _MatrixClasses)."""
    x0, x1, y0, y1 = sub.cell_rect
    wx = float(mesh.xs[x1] - mesh.xs[x0])
    wy = float(mesh.ys[y1] - mesh.ys[y0])
    nbx = max(1, min(round_half_up(wx * k ** alpha_inner), x1 - x0))
    nby = max(1, min(round_half_up(wy * k ** alpha_inner), y1 - y0))
    bdec = build_block_decomposition(mesh, sub.cell_rect, nbx, nby)
    nloc = len(sub.closed_nodes)
    mats = assemble_local_impedance(mesh, [blk.element_ids for blk in bdec.subdomains],
                                    coeff_prec)
    entries = ((mat, np.searchsorted(sub.closed_nodes, blk.closed_nodes),
                np.searchsorted(sub.closed_nodes, blk.own_nodes), blk.own_weights)
               for mat, blk in zip(mats, bdec.subdomains))
    return NestedSolver(imp_matrix, LocalSolves(nloc, entries, True, classes=blocks),
                        tol, max_iters)
