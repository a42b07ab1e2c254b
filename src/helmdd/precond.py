"""Factorised coarse/local solves and the preconditioner family of additive
Schwarz variants: AS1, AS, RAS1, HRAS, ImpRAS1, ImpHRAS.

The hybrid kinds apply the residual projection P0 = I - A R0^T A_{eps,0}^{-1} R0
built from the system matrix A being solved (not its absorbed counterpart) and
the shifted coarse inverse; A and A_{eps,0} are complex symmetric, so the
transposed projection reuses the same solves.  An apply makes four sparse
products: R0 v and R0^T y with the n0 x n restriction, and R0A t and R0A^T y
with the thin n0 x n matrix R0A = R0 A, formed once at build.  A^T = A, bitwise
for every assembled system matrix, so R0A^T (a transposed view) is A R0^T and
A itself is never applied.

apply takes a vector (n,) or a block (n, c) of columns; to_dense is apply on
identity column blocks, so the analysis studies the operator GMRES applies.

The coarse solve, the local impedance solves, or both may be nested: an inner
GMRES (NestedSolver) preconditioned by a one-level ImpRAS1 over blocks of
diameter ~k^-alpha_inner of a cell rectangle (the subdomain's, or the whole
coarse mesh), both built by _nested_solver.  A nested solver solves a block
of columns in one lockstep GMRES, whose columns stop one by one.
build_preconditioner takes either nesting as a dict of the same keywords (k,
alpha_inner, tol, max_iters).  A nested local solve is per class of equal
local matrices, as a factorisation is, and the classes share the
factorisations of their equal inner blocks.  LocalSolves runs its solves in
units, laid out alike: a class of direct solves, or a group of nested
classes of similar size (_NestedClasses), whose columns, each padded with
zero rows to the group's largest class, run in one inner GMRES per input
column (entered through NestedSolver.solve), with one solve per shared
block factorisation and inner step; the benchmark's classes form one
group.  The operator lists its nested solvers in one place,
PreconditionerOperator.nested; they hold its inner iteration counts and
failures, and any of them makes the operator vary per application
(flexible), so it must sit under flexible outer GMRES.
"""

import contextlib
import ctypes
import functools
import glob
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import BlockDiagonal, assemble_local_impedance
from .decomposition import build_block_decomposition
from .krylov import KrylovConfig, gmres
from .mesh import ceil_snapped, round_half_up

# up to this many unknowns a matrix is solved by a product with its dense
# inverse, above it by SuperLU in its symmetric mode (a minimum-degree
# ordering of A^T + A with diagonal pivots, DirectFactorization), which fills
# less on these complex symmetric matrices.  SuperLU factorises faster, but
# the product wins on a single column up to about 256 unknowns and on blocks
# of 16 or more columns (class solves) up to about 200 (README "Local solves")
DENSE_SOLVE_CUTOFF = 200

# to_dense applies the identity this many columns at a time: an apply holds
# several (n, columns) temporaries (HRAS, n=3721: 566 MB peak, 1.1 GB at 2048)
_DENSE_COLUMNS = 512

# a nested local class pads its columns to the size of a group of larger
# classes, and joins that group's inner GMRES, only while the padding adds
# at most this many zero rows over its columns: the zero rows cost Arnoldi
# work, a separate GMRES costs its per-step overhead (table5: one group at
# k=30 and k=80, two at k=160; README "Nested solves")
_GROUP_PAD_ROWS = 4096

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
    previous count, also when the block raises.

    Every call helmdd makes into scipy's BLAS and LAPACK (scipy.linalg,
    SuperLU, ARPACK) runs inside such a block, so that numpy's OpenBLAS,
    a separate copy with its own pool, is the only threaded BLAS of the
    process.  Two threaded pools on two cores stall each other: the pool
    that ran last keeps a worker spinning, and a two-thread kernel of the
    other pool waits for the core it holds (a 625-unknown Cholesky took up
    to 0.14 s in place of 0.012 s).  A block is entered once per build,
    apply, coarse solve or analysis step, never per class solve: an entry
    costs about 2 us.  The count is process-wide: a block entered while
    the count is already 1 changes nothing."""
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
    """Reusable solver of a sparse complex matrix: SuperLU, or below a cutoff
    the dense inverse.  solve takes one right-hand side or a block of them as
    columns.

    SuperLU runs in its symmetric mode: a minimum-degree ordering of the
    pattern of A^T + A (MMD_AT_PLUS_A), and threshold pivoting that keeps a
    diagonal pivot while it is at least 0.1 of its column's largest entry
    (diag_pivot_thresh=0.1, SymmetricMode).  Every matrix helmdd factorises
    (local Dirichlet or impedance blocks, coarse_matrix) is complex
    symmetric bitwise, so the diagonal pivots keep the symmetric ordering,
    and the factors fill less than with scipy's unsymmetric default (COLAMD
    on A^T A, partial pivoting): 18% less on the imphras-ppw-k100 classes,
    24-27% less at table4 k=240-320 (README "Local solves").  A smaller
    diagonal entry, or a zero one, gives way to the largest entry of its
    column.  relax and panel_size stay at scipy's defaults: larger
    supernodes (relax=64) corrupted memory in scipy 1.17.1.  fill_nnz
    counts the entries of the factors, L.nnz + U.nnz as scipy reports them
    (L's unit diagonal included), or n^2 for a dense inverse.

    A dense matrix is LU-factorised to check its pivots, and the inverse is
    formed from that LU once (getri); the LU is not kept, so the solver holds
    n^2 entries either way.  A dense solve is one product of scipy's BLAS:
    zgemv for a vector or a single column, which reads the inverse once, and
    zgemm for a block, which for the Fortran-ordered blocks LocalSolves hands
    it (transposed views of C-ordered arrays) copies nothing in or out, and
    on small blocks with many columns is several times faster than the two
    triangular solves of getrs.

    The factorisation runs with scipy's BLAS on one thread (_one_blas_thread;
    the ten of the k=8 FOV operator took 19 ms on two threads, 2 ms on one).
    solve does not pin, since it runs once per class and apply: its callers,
    LocalSolves.apply and CoarseSolve.apply, pin once around their solves."""

    def __init__(self, matrix):
        matrix = sp.csc_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        self.n = matrix.shape[0]
        self._dense = self.n <= DENSE_SOLVE_CUTOFF
        if self._dense:
            import warnings

            with warnings.catch_warnings(), _one_blas_thread():
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                lu, piv = sla.lu_factor(matrix.toarray().astype(np.complex128, copy=False))
                d = np.abs(np.diag(lu))
                if self.n and (np.min(d) == 0.0 or not np.all(np.isfinite(d))):
                    raise SingularMatrixError("zero pivot in dense LU")
                self._inv = sla.lapack.zgetri(lu, piv, overwrite_lu=True)[0] if self.n else lu
            self.fill_nnz = self.n * self.n
        else:
            try:
                with _one_blas_thread():
                    self._splu = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A",
                                           diag_pivot_thresh=0.1,
                                           options=dict(SymmetricMode=True))
            except RuntimeError as exc:  # "Factor is exactly singular"
                raise SingularMatrixError(str(exc)) from exc
            self.fill_nnz = self._splu.L.nnz + self._splu.U.nnz

    def solve(self, rhs):
        if not self._dense:
            return self._splu.solve(rhs)
        rhs = np.asarray_chkfinite(rhs)  # ValueError on NaN/inf, as lu_solve
        if self.n and (rhs.ndim == 1 or rhs.shape[1] == 1):  # zgemv refuses n = 0
            return sla.blas.zgemv(1.0, self._inv, rhs.reshape(-1)).reshape(rhs.shape)
        x = sla.blas.zgemm(1.0, self._inv, rhs if rhs.ndim == 2 else rhs[:, None])
        return x.reshape(rhs.shape)


class NestedSolver:
    """Inexact solve: right-preconditioned GMRES run to a loose tolerance.

    solve takes a vector (s,) or a block (s, G) and runs one GMRES on it: the
    G columns run in lockstep (one block product and one block preconditioner
    apply per iteration), each stopping on its own, and each records its own
    iteration count.  A column that reaches the iteration cap is recorded as a
    failure on the solver (its current iterate is still returned), never
    raised.  degenerate_overlap records that the block decomposition of the
    inner preconditioner has no overlap.  The nested local solves of an apply
    do not call each class's solve: one _NestedClasses per group of classes
    solves their columns and records each column on its class's solver.
    """

    def __init__(self, matrix, inner_precond, inner_tol=0.5, inner_max_iters=200,
                 degenerate_overlap=False):
        self.matrix = matrix.tocsr() if sp.issparse(matrix) else matrix
        self.inner_precond = inner_precond
        self.degenerate_overlap = degenerate_overlap
        self.config = KrylovConfig(variant="gmres", side="right", rel_tol=float(inner_tol),
                                   max_iters=int(inner_max_iters))
        self.inner_counts = []
        self.failures = 0

    def solve(self, rhs):
        x, reps = gmres(self.matrix, self.inner_precond, rhs, self.config)
        self._record([reps] if np.ndim(rhs) == 1 else reps)
        return x

    def _record(self, reps):
        self.inner_counts += [rep.iterations for rep in reps]
        self.failures += sum(not rep.converged for rep in reps)


class _NestedClasses(NestedSolver):
    """The nested solvers of a group of classes of one LocalSolves, solved as
    one.

    solve takes, for each input column in turn, one column per member of
    every class of the group, class by class, each padded with zero rows to
    the group's largest class, and runs one GMRES (NestedSolver.solve) per
    input column; each column's report goes to its class's solver, so every
    class records as if it had run its own GMRES.  The group is both
    column-aware operators (krylov) of that GMRES: as its matrix it applies
    each class's matrix to that class's columns, and as its preconditioner
    (apply) it runs the classes' ImpRAS1s (their LocalSolves) together.
    members is the number of members of each class."""

    column_aware = True

    def __init__(self, solvers, members):
        cfg = solvers[0].config
        self.solvers = solvers
        self.bounds = np.concatenate([[0], np.cumsum(members)]).tolist()
        self.n = max(s.matrix.shape[0] for s in solvers)
        uses = {}  # id(solver) -> (solver, [(class, lo, hi, rows of each block)])
        for c, s in enumerate(solvers):
            L = s.inner_precond
            for solver, rows, lo, hi in L.units:
                uses.setdefault(id(solver), (solver, []))[1].append(
                    (c, lo, hi, L.gather[lo:hi].reshape(-1, rows)))
        self._uses = list(uses.values())
        # blocks[c, u]: the blocks class c hands solver u per column
        self._blocks = np.zeros((len(solvers), len(self._uses)), dtype=np.int64)
        for u, (_, used) in enumerate(self._uses):
            for c, _, _, at in used:
                self._blocks[c, u] = len(at)
        super().__init__(self, self, cfg.rel_tol, cfg.max_iters)

    def solve(self, rhs):
        out = np.empty(rhs.shape[::-1], dtype=np.complex128).T  # out.T is C-ordered
        step = self.bounds[-1]
        for j in range(0, rhs.shape[1], step):
            out[:, j:j + step] = super().solve(rhs[:, j:j + step])
        return out

    def __call__(self, v, act):
        """Each class's matrix on the active columns of v (n, g) it holds."""
        out = np.empty((len(act), self.n), dtype=np.complex128)
        cut = np.searchsorted(act, self.bounds).tolist()
        for s, a, b in zip(self.solvers, cut, cut[1:]):
            if b > a:
                m = s.matrix.shape[0]
                out[a:b, :m] = (s.matrix @ v[:m, a:b]).T
                out[a:b, m:] = 0.0
        return out.T

    def apply(self, v, act):
        """Each class's ImpRAS1 on the active columns of v (n, g) it holds,
        with one solve per distinct block solver: one (s, sum) block of the
        blocks of every class that uses it, gathered class by class through
        the class's gather index, whose solutions each class recombines."""
        rows = v.T
        cut = np.searchsorted(act, self.bounds)
        # solver u's (sum, s) block holds class c's blocks at [end - took, end)
        took = np.diff(cut)[:, None] * self._blocks
        ends = np.cumsum(took, axis=0)
        cut, took, ends = cut.tolist(), took.tolist(), ends.tolist()
        ug = [np.empty((b - a, len(s.inner_precond.gather)), dtype=np.complex128)
              for s, a, b in zip(self.solvers, cut, cut[1:])]
        for u, (solver, used) in enumerate(self._uses):
            if not ends[-1][u]:
                continue
            vg = np.empty((ends[-1][u], used[0][3].shape[1]), dtype=np.complex128)
            for c, lo, hi, at in used:
                a, b, end = cut[c], cut[c + 1], ends[c][u]
                rows[a:b].take(at, -1, out=vg[end - took[c][u]:end].reshape(b - a, *at.shape),
                               mode="clip")  # in range; clip takes into out unbuffered
            x = solver.solve(vg.T)
            for c, lo, hi, at in used:
                end = ends[c][u]
                ug[c][:, lo:hi] = x[:, end - took[c][u]:end].T.reshape(-1, hi - lo)
        out = np.empty((len(act), self.n), dtype=np.complex128)
        for s, u, a, b in zip(self.solvers, ug, cut, cut[1:]):
            m = s.matrix.shape[0]
            out[a:b, :m] = s.inner_precond.recombine(u).T
            out[a:b, m:] = 0.0
        return out.T

    def _record(self, reps):
        for s, lo, hi in zip(self.solvers, self.bounds, self.bounds[1:]):
            s._record(reps[lo:hi])


def _size_groups(sizes, counts):
    """The nested classes (sizes[c] unknowns, counts[c] columns) in groups of
    one inner GMRES each, largest class first: a class joins the group of
    the larger classes before it unless padding its columns to that group's
    size adds more than _GROUP_PAD_ROWS zero rows."""
    groups = []
    for c in sorted(range(len(sizes)), key=lambda c: -sizes[c]):
        if groups and counts[c] * (sizes[groups[-1][0]] - sizes[c]) <= _GROUP_PAD_ROWS:
            groups[-1].append(c)
        else:
            groups.append([c])
    return [sorted(g) for g in groups]


def _keyed_positions(keys, want):
    """Position of each wanted key among the ascending keys, and whether it
    is there."""
    pos = np.searchsorted(keys, want)
    return pos, np.append(keys, -1)[pos] == want


@dataclass(frozen=True)
class _KeyedBlocks:
    """Local matrices known before assembly by a key of everything they
    depend on: keys[s] is block s's key (a tuple), offs the block offsets as
    a BlockDiagonal's (an empty block has no matrix), and assemble(firsts)
    the BlockDiagonal of the blocks firsts only."""

    keys: list
    offs: np.ndarray
    assemble: object


class _MatrixClasses:
    """Classes of equal matrices in order of first appearance, each with one
    solver.  classify takes a batch of _KeyedBlocks: a block joins the class
    of its key, or founds it, and only the founders are assembled.  The new
    classes follow the last one in the order of their first block, so the
    partition and the class order are those of classifying the blocks one at
    a time, and the representative of a class is its first member.  Members
    of a class equal their representative up to coordinate round-off.

    A scipy matrix is made for representatives only, and each new class's
    solver is built once, as build(matrix, first), where first is the
    representative's block (default build: a DirectFactorization of the
    matrix, which factorises on one BLAS thread)."""

    def __init__(self, build=None):
        self.build = build or (lambda matrix, first: DirectFactorization(matrix))
        self.solvers = []
        self._keys = {}  # key -> class

    def classify(self, blocks):
        """The class of each block of a _KeyedBlocks (-1 for an empty block)."""
        sizes = np.diff(blocks.offs).tolist()
        founders = {}  # key -> first block, of the classes founded here
        for i, (key, size) in enumerate(zip(blocks.keys, sizes)):
            if size and key not in self._keys:
                founders.setdefault(key, i)
        if founders:
            reps = blocks.assemble(list(founders.values()))
            for j, (key, f) in enumerate(founders.items()):
                self._keys[key] = len(self.solvers)
                self.solvers.append(self.build(reps.block(j).copy(), f))
        return np.array([self._keys[key] if size else -1
                         for key, size in zip(blocks.keys, sizes)], dtype=np.int64)


class LocalSolves:
    """Batched local solves with plain (AS) or RAS-weighted recombination.

    Built from the local matrices, rows (the vector index of each block row:
    each block acts on the sorted index set of its subdomain, interior nodes
    for Dirichlet local problems, closed nodes for impedance ones), and own,
    the RAS partition of unity as arrays (block, node, weight) of each owned
    node, or None for AS.  The local matrices come keyed by geometry, as a
    _KeyedBlocks that assembles or gathers only the first block of each new
    key.  Empty blocks are skipped.

    The blocks are classified in one batch into the registry classes (a
    _MatrixClasses, which builds each class's solver; by default a fresh one
    of direct factorisations): translated copies of one subdomain share a
    solver while differing coefficients never do.  solvers lists the solvers
    of the classes met here in order of first appearance; several
    LocalSolves given one registry share one solver per class.

    units lists the solves of an apply as (unit, rows, lo, hi).  A unit is
    one class, or, when the class solvers are nested solvers preconditioned
    by ImpRAS1s (LocalSolves), as _nested_local_solver builds them all from
    one configuration, one group of classes of similar size (_size_groups)
    solved as one _NestedClasses.  gather lays every block row out unit
    after unit, class after class, block after block, each block padded to
    its unit's rows with the index n, which gathers the zero appended to v;
    a unit holds [lo, hi) of it, and a class unit pads nothing.  apply takes
    a vector or a block of c columns: one gather of every restriction, one
    solve per unit on the (rows, c*G) block of its G blocks, written back in
    place, and one recombination of all local solutions with one sparse
    matrix (recombine): R_w^T with the RAS weights of own, else R^T.  apply
    runs its solves with scipy's BLAS on one thread (_one_blas_thread),
    entered once per apply.
    """

    def __init__(self, n, blocks, rows, own=None, classes=None):
        classes = classes or _MatrixClasses()
        labels = classes.classify(blocks)
        sizes = np.diff(blocks.offs)
        used = np.flatnonzero(labels >= 0)
        met, first, of_class = np.unique(labels[used], return_index=True,
                                         return_inverse=True)
        rank = np.argsort(np.argsort(first))[of_class]  # by first appearance
        self.solvers = [classes.solvers[c] for c in met[np.argsort(first)]]

        counts = np.bincount(rank, minlength=len(met))
        width = np.zeros(len(met), dtype=np.int64)  # each class's block rows
        width[rank] = sizes[used]
        unit_of = np.arange(len(met))  # each class's unit
        units = self.solvers
        if self.solvers and all(isinstance(s, NestedSolver)
                                and isinstance(s.inner_precond, LocalSolves)
                                for s in self.solvers):
            groups = _size_groups(width.tolist(), counts.tolist())
            units = [_NestedClasses([self.solvers[c] for c in g], counts[g]) for g in groups]
            for u, g in enumerate(groups):
                unit_of[g] = u
        unit_rows = np.zeros(len(units), dtype=np.int64)
        np.maximum.at(unit_rows, unit_of, width)

        # col: each block row's place in the gathered vector, unit after unit
        # and class after class (ascending in a group)
        by_unit = np.argsort(unit_of[rank] * len(met) + rank, kind="stable")
        span = unit_rows[unit_of[rank[by_unit]]]
        start = np.zeros(len(sizes), dtype=np.int64)
        start[used[by_unit]] = np.cumsum(span) - span
        block_of = np.repeat(np.arange(len(sizes)), sizes)
        col = start[block_of] + np.arange(len(rows)) - blocks.offs[block_of]
        self.gather = np.full(int(span.sum()), n, dtype=np.int64)
        self.gather[col] = rows
        lens = np.bincount(unit_of[rank], minlength=len(units)) * unit_rows
        bounds = np.concatenate([[0], np.cumsum(lens)]).tolist()
        self.units = list(zip(units, unit_rows.tolist(), bounds, bounds[1:]))

        if own is None:
            r, c, w = rows, col, np.ones(len(rows))
        else:  # each owned node at its row of its block, if there is one
            owner, nodes, weights = own
            pos, hit = _keyed_positions(block_of * n + rows, owner * n + nodes)
            r, c, w = nodes[hit], col[pos[hit]], weights[hit]
        self._recombine = sp.csr_matrix((w.astype(np.complex128), (r, c)),
                                        shape=(n, self.gather.size))

    def recombine(self, x):
        """The local solutions x, laid out as gather ((len,) or (c, len)),
        summed into a vector (n,) or a block (n, c)."""
        return self._recombine @ x.T

    def apply(self, v):
        # every restriction of each column of v: (len,) for a vector, (c, len)
        # for a block of c columns
        x = np.append(v, np.zeros((1,) + v.shape[1:], dtype=np.complex128), axis=0)
        x = x.T.take(self.gather, -1)
        with _one_blas_thread():
            for unit, rows, lo, hi in self.units:
                # (rows, c*G): one column per input column and block
                x_u = x[..., lo:hi]
                x_u[...] = unit.solve(x_u.reshape(-1, rows).T).T.reshape(x_u.shape)
        return self.recombine(x)


class CoarseSolve:
    """Coarse solves A_{eps,0}^{-1} (R v) with a direct or nested coarse
    solver, where the restriction R is R0 or, given the system matrix A,
    R0A = R0 A (formed once).  R0T, the transposed view of R0, takes a coarse
    vector back; R0AT, the transposed view of R0A, is A R0^T when A^T = A.
    Both views are CSC matrices sharing their CSR matrix's arrays.

    apply runs the coarse solve (zgemv or zgemm, SuperLU or a nested GMRES)
    with scipy's BLAS on one thread (_one_blas_thread)."""

    def __init__(self, coarse_interp, solver, system_matrix=None):
        self.R0 = coarse_interp
        self.R0T = self.R0.T
        self.R0A = self.R0AT = None
        if system_matrix is not None:
            self.R0A = (self.R0 @ system_matrix).tocsr()
            self.R0AT = self.R0A.T
        self.solver = solver

    def apply(self, v, restriction):
        """The coarse vector A_{eps,0}^{-1} (restriction @ v)."""
        rhs = restriction @ v
        with _one_blas_thread():
            return self.solver.solve(rhs)


class PreconditionerOperator:
    """Linear-operator contract: apply(v) performs one preconditioner action.

    nested lists the inexact solvers (NestedSolver) among the local solves, in
    class order, then the coarse one; they hold the inner statistics, and the
    operator is flexible (varies per application) when there is any.
    """

    def __init__(self, kind, n, locals_, coarse=None):
        if kind not in KINDS:
            raise ValueError(f"unknown preconditioner kind {kind!r}")
        if kind in _COARSE_KINDS and coarse is None:
            raise ValueError(f"{kind} needs a coarse solve")
        if kind in _HYBRID_KINDS and coarse.R0A is None:
            raise ValueError(f"{kind} needs the system matrix for the projection")
        self.kind = kind
        self.n = n
        self.locals_ = locals_
        self.coarse = coarse
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
        c = self.coarse
        if self.kind == "AS":
            return c.R0T @ c.apply(v, c.R0) + self.locals_.apply(v)
        # hybrid: z + P0^T B_local P0 v with z = R0^T y1, which is
        # t + R0^T (y1 - y2) with t = B_local (v - A R0^T y1) and
        # y2 = A_{eps,0}^{-1} R0 A t; A R0^T = R0AT as A^T = A, and
        # A_{eps,0}^T = A_{eps,0}
        y1 = c.apply(v, c.R0)
        t = self.locals_.apply(v - c.R0AT @ y1)
        return t + c.R0T @ (y1 - c.apply(t, c.R0A))

    def inner_counts(self):
        return [c for s in self.nested for c in s.inner_counts]

    def inner_failures(self):
        return sum(s.failures for s in self.nested)

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


def _stacked(arrays):
    """The arrays end to end, and the offsets where each starts (and the
    last ends)."""
    return (np.concatenate(arrays).astype(np.int64, copy=False),
            np.concatenate([[0], np.cumsum([len(a) for a in arrays])]))


def _ownership(subs):
    """(subdomain, node, weight) arrays of every owned node of the subdomains."""
    nodes, offs = _stacked([sub.own_nodes for sub in subs])
    return (np.repeat(np.arange(len(subs)), np.diff(offs)), nodes,
            np.concatenate([sub.own_weights for sub in subs]))


def _principal_submatrices(A, rows, offs):
    """The blocks A[idx, :][:, idx] of the sorted index sets idx =
    rows[offs[s]:offs[s+1]], as one BlockDiagonal from one row gather of A:
    each gathered row keeps the columns inside its own set."""
    A = sp.csr_matrix(A)
    n = A.shape[0]
    owner = np.repeat(np.arange(len(offs) - 1), np.diff(offs))
    gathered = A[rows]
    row_of = np.repeat(np.arange(len(rows)), np.diff(gathered.indptr))
    # (set, node) keys ascend, since every set is sorted
    pos, keep = _keyed_positions(owner * n + rows, owner[row_of] * n + gathered.indices)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row_of[keep],
                                                        minlength=len(rows)))])
    return BlockDiagonal(indptr, pos[keep], gathered.data[keep], offs)


def coarse_matrix(R0, A):
    """Galerkin coarse operator A_{eps,0} = R0 A_eps R0^T, complex symmetric
    bitwise.  The product sums the terms of entries (i, j) and (j, i) in
    different orders (they differ by up to 3e-16 relative), so it is averaged
    with its transpose: SuperLU's symmetric mode (DirectFactorization) and
    the hybrid projection take A_{eps,0}^T = A_{eps,0}."""
    A0 = R0 @ (A @ R0.T)
    A0 = ((A0 + A0.T) * 0.5).tocsr()
    A0.sum_duplicates()
    A0.sort_indices()
    return A0


def _rect_key(mesh, sub, coeff):
    """Geometry key of a subdomain: the bytes of the integer cell widths of
    its extended rectangle in x and in y (FineMesh.widths_x, widths_y), and
    of the wave speed of its elements in local order."""
    x0, x1, y0, y1 = sub.cell_rect
    return (mesh.widths_x[x0:x1].tobytes(), mesh.widths_y[y0:y1].tobytes(),
            coeff.wavespeed.values[sub.element_ids].tobytes())


def _impedance_blocks(mesh, subs, offs, coeff):
    """The local impedance matrices of the subdomains, keyed for LocalSolves
    (offs: the offsets of their closed node sets).

    A subdomain's matrix depends only on its _rect_key: the impedance term
    lies on every side, so the sides on the region boundary do not enter.
    Members of a class differ from its first by coordinate round-off only."""
    return _KeyedBlocks([_rect_key(mesh, sub, coeff) for sub in subs], offs,
                        lambda firsts: assemble_local_impedance(
                            mesh, [subs[f].element_ids for f in firsts], coeff))


def _dirichlet_blocks(mesh, subs, offs, A, coeff):
    """The Dirichlet local matrices of the subdomains, keyed for LocalSolves:
    the principal submatrices of A, the finite-element matrix of mesh and
    coeff, on their interior node sets (offs: the offsets of these sets).

    An interior set keeps its nodes on the sides of the extended rectangle
    that lie on the mesh boundary, with their impedance edges, and no element
    outside the rectangle meets two of its nodes.  So a block depends only on
    its _rect_key and on which sides lie on the boundary.  Only the first
    block of each new key is gathered from A."""
    m = mesh.m
    keys = []
    for sub in subs:
        x0, x1, y0, y1 = sub.cell_rect
        keys.append(_rect_key(mesh, sub, coeff) + (x0 == 0, x1 == m, y0 == 0, y1 == m))
    return _KeyedBlocks(keys, offs, lambda firsts: _principal_submatrices(
        A, *_stacked([subs[f].interior_nodes for f in firsts])))


def build_preconditioner(kind, *, mesh, decomp, A_prec, coeff_prec,
                         system_matrix=None, nested_coarse=None, nested_local=None,
                         threads=1):
    """Assemble and factorize everything one preconditioner kind needs.

    A_prec must be the finite-element matrix of mesh whose element
    coefficients depend only on the wave speed of coeff_prec, as
    assembly.assemble_system makes it: the local matrices are keyed by
    geometry and wave speed before they are made (_dirichlet_blocks,
    _impedance_blocks), and one matrix per class is gathered from A_prec
    (Dirichlet kinds) or assembled (impedance kinds).

    system_matrix, the A of the hybrid projection (HRAS, ImpHRAS), must be
    complex symmetric (A^T = A, as every assembled system matrix is bitwise);
    only R0 A is kept (CoarseSolve.R0A).

    nested_coarse and nested_local take the same keywords: k (required),
    alpha_inner, tol and max_iters of the inner GMRES.  nested_coarse replaces
    the direct coarse factorization by build_nested_coarse_solver; nested_local
    solves every class of local impedance matrices by an inner GMRES
    preconditioned by a block ImpRAS1 on the class's first subdomain
    (_nested_local_solver), shared by all members as a factorisation is; the
    classes' block LocalSolves share one registry, so each distinct block
    matrix is factorised once, and an apply runs each group of classes of
    similar size as one inner GMRES (_NestedClasses).

    Every factorisation, local or coarse (dense LU or SuperLU), and every
    solve of the operator runs with scipy's BLAS on one thread
    (_one_blas_thread).  threads is kept only for the call in
    perfbench/workloads.build_solve, which passes threads=1; any other value
    raises ValueError.
    """
    if threads != 1:  # shim for perfbench/workloads.build_solve only
        raise ValueError("local solves run on one thread: threads must be 1")
    impedance = kind in _IMPEDANCE_KINDS
    if nested_coarse is not None and kind not in _COARSE_KINDS:
        raise ValueError(f"{kind} has no coarse solve to nest")
    if nested_local is not None and not impedance:
        raise ValueError(f"{kind} has no impedance local solves to nest")
    subs = decomp.subdomains
    rows, offs = _stacked([sub.closed_nodes if impedance else sub.interior_nodes
                           for sub in subs])
    classes = None
    if impedance:
        blocks = _impedance_blocks(mesh, subs, offs, coeff_prec)
        if nested_local is not None:
            inner = _MatrixClasses()
            classes = _MatrixClasses(lambda matrix, first: _nested_local_solver(
                mesh, subs[first], matrix, coeff_prec, inner, **nested_local))
    else:
        blocks = _dirichlet_blocks(mesh, subs, offs, A_prec, coeff_prec)
    own = _ownership(subs) if kind in _WEIGHTED_KINDS else None
    locals_ = LocalSolves(mesh.n, blocks, rows, own, classes=classes)

    coarse = None
    if kind in _COARSE_KINDS:
        if decomp.coarse_interp is None:
            raise ValueError("decomposition carries no coarse interpolation")
        if nested_coarse is not None:
            solver = build_nested_coarse_solver(decomp, A_prec, coeff_prec, **nested_coarse)
        else:
            solver = DirectFactorization(coarse_matrix(decomp.coarse_interp, A_prec))
        coarse = CoarseSolve(decomp.coarse_interp, solver,
                             system_matrix if kind in _HYBRID_KINDS else None)
    return PreconditionerOperator(kind, mesh.n, locals_, coarse=coarse)


def build_nested_coarse_solver(decomp, A_prec, coeff_prec, *, k, alpha_inner=0.5,
                               tol=0.5, max_iters=200):
    """Inexact coarse solve: the coarse-grid problem (Galerkin matrix with the
    decomposition's R0) on the coarse triangulation of the decomposition's
    layout, nested over Mi x Mi blocks of the whole coarse mesh (diameter
    ~k^-alpha_inner).  The Galerkin matrix is the solver's matrix."""
    A0 = coarse_matrix(decomp.coarse_interp, A_prec)
    cmesh = decomp.layout.as_mesh()
    Mi = min(ceil_snapped(k ** alpha_inner), cmesh.m)
    return _nested_solver(cmesh, (0, cmesh.m, 0, cmesh.m), np.arange(cmesh.n), A0,
                          coeff_prec.on_mesh(cmesh), _MatrixClasses(), Mi, Mi,
                          tol, max_iters)


def _nested_local_solver(mesh, sub, imp_matrix, coeff_prec, blocks, *, k,
                         alpha_inner=0.8, tol=0.5, max_iters=200):
    """Inexact local impedance solve of one subdomain, nested over blocks of
    diameter ~k^-alpha_inner of its cell rectangle."""
    x0, x1, y0, y1 = sub.cell_rect
    wx = float(mesh.xs[x1] - mesh.xs[x0])
    wy = float(mesh.ys[y1] - mesh.ys[y0])
    nbx = max(1, min(round_half_up(wx * k ** alpha_inner), x1 - x0))
    nby = max(1, min(round_half_up(wy * k ** alpha_inner), y1 - y0))
    return _nested_solver(mesh, sub.cell_rect, sub.closed_nodes, imp_matrix, coeff_prec,
                          blocks, nbx, nby, tol, max_iters)


def _nested_solver(mesh, rect, closed_nodes, matrix, coeff, blocks, nbx, nby, tol,
                   max_iters):
    """Inner GMRES on matrix, the system of the closed nodes of the cell
    rectangle rect, preconditioned by ImpRAS1 over its nbx x nby blocks, whose
    block matrices (_impedance_blocks) are classified into the registry blocks
    (a _MatrixClasses)."""
    bdec = build_block_decomposition(mesh, rect, nbx, nby)
    bsubs = bdec.subdomains
    block_nodes, offs = _stacked([blk.closed_nodes for blk in bsubs])
    rows = np.searchsorted(closed_nodes, block_nodes)
    owner, nodes, weights = _ownership(bsubs)
    inner = LocalSolves(len(closed_nodes), _impedance_blocks(mesh, bsubs, offs, coeff), rows,
                        (owner, np.searchsorted(closed_nodes, nodes), weights), classes=blocks)
    return NestedSolver(matrix, inner, tol, max_iters,
                        degenerate_overlap=bdec.degenerate_overlap)
