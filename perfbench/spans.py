"""In-memory span tracing of calls into helmdd's layers, and the per-layer
metrics derived from the spans.

`instrumented(tracer)` wraps each layer's entry points for the duration of a
traced run: module-level functions are replaced in every helmdd module that
binds them (names imported with ``from ... import`` are looked up in the
importing module), methods are replaced on their class.  Each call records a
span (name, start, end, parent span, run id).  A span's self time is its
duration minus the durations of its child spans; calls are sequential, so
children never overlap.  Spans stay in memory and are written once, by
`dump`, when the benchmark ends.
"""

import contextlib
import functools
import hashlib
import json
import time
from collections import defaultdict

import numpy as np
import scipy.sparse as sp

from helmdd import analysis, assembly, decomposition, harness, krylov, mesh, precond

_MODULES = (mesh, assembly, decomposition, precond, krylov, analysis, harness)

# every span name a traced run can record; each gets a self.<name>_s metric
SPAN_NAMES = (
    "bench.run", "mesh.build", "assembly.system", "assembly.local_impedance",
    "decomposition.build", "precond.build", "precond.factor", "precond.apply",
    "precond.solve", "precond.coarse_apply", "precond.inner_solve",
    "krylov.outer", "krylov.inner", "krylov.matvec", "analysis.operator",
    "analysis.to_dense", "analysis.fov", "analysis.eig", "analysis.norm",
    "analysis.envelope",
)

# layer -> metrics -> the end-to-end metric each should move, on which
# workloads, and where it should not move
LAYER_MAP = (
    {"layer": "mesh", "metrics": ["mesh.build_s"], "moves": ["setup_s"],
     "on": ["all (small; a control)"], "not_on": []},
    {"layer": "assembly",
     "metrics": ["assembly.system_s", "assembly.local_impedance_calls",
                 "assembly.local_impedance_s"],
     "moves": ["setup_s"], "on": ["imphras-ppw-k100", "nested-local-ppw-k30"],
     "not_on": ["hras-pf-k30 (no impedance locals)"]},
    {"layer": "decomposition",
     "metrics": ["decomposition.build_s", "decomposition.subdomains"],
     "moves": ["setup_s"], "on": ["hras-pf-k30"], "not_on": ["fov-hras-k8"]},
    {"layer": "precond setup",
     "metrics": ["precond.build_s", "precond.factor_calls", "precond.factor_s",
                 "precond.factor_fill_nnz", "precond.factor_distinct_ratio"],
     "moves": ["setup_s", "peak_rss_mb"], "on": ["hras-pf-k30", "imphras-ppw-k100"],
     "not_on": ["nested-local-ppw-k30 solve phase"]},
    {"layer": "precond apply",
     "metrics": ["precond.apply_calls", "precond.apply_s", "precond.apply_ms_p50",
                 "precond.apply_ms_p90", "precond.local_solve_calls",
                 "precond.local_solve_s", "precond.coarse_solve_s"],
     "moves": ["solve_s"], "on": ["hras-pf-k30", "nested-local-ppw-k30"],
     "not_on": ["fov-hras-k8"]},
    {"layer": "precond nested",
     "metrics": ["precond.inner_solves", "precond.inner_iters_total",
                 "precond.inner_iters_avg", "precond.inner_failures"],
     "moves": ["solve_s", "inner_iters_avg"], "on": ["nested-local-ppw-k30"],
     "not_on": ["hras-pf-k30", "imphras-ppw-k100", "fov-hras-k8"]},
    {"layer": "krylov",
     "metrics": ["krylov.outer_s", "krylov.inner_s", "krylov.matvec_calls",
                 "krylov.matvec_s", "krylov.orth_s", "krylov.basis_bytes"],
     "moves": ["solve_s", "peak_rss_mb"], "on": ["imphras-ppw-k100"],
     "not_on": ["hras-pf-k30 (few iterations)"]},
    {"layer": "analysis",
     "metrics": ["analysis.operator_s", "analysis.to_dense_s", "analysis.fov_s",
                 "analysis.eig_s", "analysis.eig_calls", "analysis.norm_s",
                 "analysis.envelope_s", "analysis.angles_used"],
     "moves": ["total_s"], "on": ["fov-hras-k8"], "not_on": ["all solve workloads"]},
    {"layer": "benchmark", "metrics": ["trace.overhead_s", "trace.total_s", "trace.spans"],
     "moves": [], "on": ["all"], "not_on": []},
)


class Tracer:
    """Spans of one traced repetition, kept in parallel lists."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counters = defaultdict(float)
        self.digests = set()
        self._stack = []

    def begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def is_open(self, name):
        return any(self.names[i] == name for i in self._stack)


def _wrap(fn, name, tracer, after=None):
    """fn recording a span per call; name may be a callable of the tracer."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name(tracer) if callable(name) else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(tracer, args, out)
        return out
    return wrapper


def _digest(matrix):
    """Key of a local matrix, equal for matrices that agree to 12 decimals
    (uniform-mesh element matrices differ only by rounding of coordinates)."""
    m = sp.csc_matrix(matrix)
    h = hashlib.blake2b(repr(m.shape).encode(), digest_size=16)
    for arr in (m.indptr, m.indices, np.round(m.data, 12)):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _after_factor(tracer, args, out):
    self, matrix = args[0], args[1]
    tracer.counters["precond.factor_fill_nnz"] += self.fill_nnz
    tracer.digests.add(_digest(matrix))


def _after_decomposition(tracer, args, out):
    tracer.counters["decomposition.subdomains"] += len(out.subdomains)


def _after_fov(tracer, args, out):
    tracer.counters["analysis.angles_used"] += out.angles_used


def _after_krylov(tracer, args, out):
    # outer solves only, and once when gmres hands over to fgmres
    if not (tracer.is_open("precond.inner_solve") or tracer.is_open("krylov.outer")):
        tracer.counters["krylov.basis_bytes"] += out[1].basis_bytes


def _krylov_name(tracer):
    return "krylov.inner" if tracer.is_open("precond.inner_solve") else "krylov.outer"


_FUNCTIONS = (
    (mesh, "build_fine_mesh", "mesh.build", None),
    (mesh, "build_coarse_layout", "mesh.build", None),
    (mesh, "layout_from_blocks", "mesh.build", None),
    (mesh, "build_wavespeed", "mesh.build", None),
    (assembly, "assemble_system", "assembly.system", None),
    (assembly, "assemble_energy_matrix", "assembly.system", None),
    (assembly, "assemble_local_impedance", "assembly.local_impedance", None),
    (decomposition, "build_decomposition", "decomposition.build", _after_decomposition),
    (decomposition, "build_block_decomposition", "decomposition.build",
     _after_decomposition),
    (precond, "build_preconditioner", "precond.build", None),
    (precond, "build_nested_coarse_solver", "precond.build", None),
    (krylov, "gmres", _krylov_name, _after_krylov),
    (krylov, "fgmres", _krylov_name, _after_krylov),
    (analysis, "preconditioned_operator", "analysis.operator", None),
    (analysis, "fov_distance", "analysis.fov", _after_fov),
    (analysis, "check_gmres_bound", "analysis.envelope", None),
    # private helpers of the FOV sweep: dense eigensolves and the ARPACK norm
    (analysis, "_dense_angle_results", "analysis.eig", None),
    (analysis, "_norm2_upper", "analysis.norm", None),
)

_METHODS = (
    (precond.DirectFactorization, "__init__", "precond.factor", _after_factor),
    (precond.DirectFactorization, "solve", "precond.solve", None),
    (precond.CoarseSolve, "apply", "precond.coarse_apply", None),
    (precond.NestedSolver, "solve", "precond.inner_solve", None),
    (precond.PreconditionerOperator, "to_dense", "analysis.to_dense", None),
    (analysis._SubspaceSweep, "lam_batch", "analysis.eig", None),
    (analysis._SubspaceSweep, "ritz", "analysis.eig", None),
)


@contextlib.contextmanager
def instrumented(tracer):
    """Wrap every layer entry point with spans into tracer; restore on exit.
    A missing entry point raises, so that a renamed one cannot silently move
    its time into its caller's self time."""
    saved = []
    try:
        for home, attr, name, after in _FUNCTIONS:
            fn = getattr(home, attr)
            wrapped = _wrap(fn, name, tracer, after)
            for mod in _MODULES:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        saved.append((mod, key, val))
                        setattr(mod, key, wrapped)
        for cls, attr, name, after in _METHODS:
            fn = cls.__dict__[attr]
            saved.append((cls, attr, fn))
            setattr(cls, attr, _wrap(fn, name, tracer, after))
        yield tracer
    finally:
        for owner, key, val in reversed(saved):
            setattr(owner, key, val)


class TracedMatvec:
    """Operator A passed to gmres/fgmres as a callable timed per product."""

    def __init__(self, A, tracer):
        self.A = A
        self.tracer = tracer

    def __call__(self, v):
        idx = self.tracer.begin("krylov.matvec")
        try:
            return self.A @ v
        finally:
            self.tracer.end(idx)


class TracedPreconditioner:
    """Preconditioner passed to gmres/fgmres, timing each outer apply."""

    def __init__(self, P, tracer):
        self.P = P
        self.flexible = P.flexible
        self.tracer = tracer

    def apply(self, v):
        idx = self.tracer.begin("precond.apply")
        try:
            return self.P.apply(v)
        finally:
            self.tracer.end(idx)


def layer_metrics(tracer, inner_counts=(), inner_failures=0):
    """Per-layer metrics of one traced repetition (all names always present)."""
    names, parents = tracer.names, tracer.parents
    dur = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    self_t = dur.copy()
    for i, p in enumerate(parents):
        if p >= 0:
            self_t[p] -= dur[i]
    incl = defaultdict(float)
    calls = defaultdict(int)
    selfs = defaultdict(float)
    apply_ms = []
    local_calls, local_s = 0, 0.0
    for i, name in enumerate(names):
        selfs[name] += self_t[i]
        ancestors = []
        p = parents[i]
        while p >= 0:
            ancestors.append(names[p])
            p = parents[p]
        if name in ancestors:  # counted in its outermost same-name span
            continue
        incl[name] += dur[i]
        calls[name] += 1
        if name == "precond.apply":
            apply_ms.append(1e3 * dur[i])
        elif name == "precond.solve" and "precond.coarse_apply" not in ancestors:
            local_calls += 1
            local_s += dur[i]
    c = tracer.counters
    factor_calls = calls["precond.factor"]
    inner = list(inner_counts)
    out = {
        "mesh.build_s": incl["mesh.build"],
        "assembly.system_s": incl["assembly.system"],
        "assembly.local_impedance_calls": calls["assembly.local_impedance"],
        "assembly.local_impedance_s": incl["assembly.local_impedance"],
        "decomposition.build_s": incl["decomposition.build"],
        "decomposition.subdomains": int(c["decomposition.subdomains"]),
        "precond.build_s": incl["precond.build"],
        "precond.factor_calls": factor_calls,
        "precond.factor_s": incl["precond.factor"],
        "precond.factor_fill_nnz": int(c["precond.factor_fill_nnz"]),
        "precond.factor_distinct_ratio":
            len(tracer.digests) / factor_calls if factor_calls else 0.0,
        "precond.apply_calls": calls["precond.apply"],
        "precond.apply_s": incl["precond.apply"],
        "precond.apply_ms_p50": float(np.percentile(apply_ms, 50)) if apply_ms else 0.0,
        "precond.apply_ms_p90": float(np.percentile(apply_ms, 90)) if apply_ms else 0.0,
        "precond.local_solve_calls": local_calls,
        "precond.local_solve_s": local_s,
        "precond.coarse_solve_s": incl["precond.coarse_apply"],
        "precond.inner_solves": len(inner),
        "precond.inner_iters_total": int(sum(inner)),
        "precond.inner_iters_avg": float(np.mean(inner)) if inner else 0.0,
        "precond.inner_failures": int(inner_failures),
        "krylov.outer_s": incl["krylov.outer"],
        "krylov.inner_s": incl["krylov.inner"],
        "krylov.matvec_calls": calls["krylov.matvec"],
        "krylov.matvec_s": incl["krylov.matvec"],
        "krylov.orth_s": selfs["krylov.outer"],
        "krylov.basis_bytes": int(c["krylov.basis_bytes"]),
        "analysis.operator_s": incl["analysis.operator"],
        "analysis.to_dense_s": incl["analysis.to_dense"],
        "analysis.fov_s": incl["analysis.fov"],
        "analysis.eig_s": incl["analysis.eig"],
        "analysis.eig_calls": calls["analysis.eig"],
        "analysis.norm_s": incl["analysis.norm"],
        "analysis.envelope_s": incl["analysis.envelope"],
        "analysis.angles_used": int(c["analysis.angles_used"]),
        "trace.spans": len(names),
    }
    for name in SPAN_NAMES:
        out[f"self.{name}_s"] = float(selfs[name])
    return out


def dump(tracers, path):
    """Write the spans of every traced repetition as one JSON document."""
    table = sorted({n for tr in tracers for n in tr.names})
    code = {n: i for i, n in enumerate(table)}
    spans = [[tr.run_id, code[n], s, e, p]
             for tr in tracers
             for n, s, e, p in zip(tr.names, tr.starts, tr.ends, tr.parents)]
    with open(path, "w") as fobj:
        json.dump({"fields": ["run", "name", "start", "end", "parent"],
                   "names": table, "spans": spans}, fobj)
