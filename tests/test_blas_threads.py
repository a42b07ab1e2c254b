"""The thread rule: every call helmdd makes into scipy's BLAS/LAPACK (scipy.linalg,
SuperLU, ARPACK) runs with scipy's OpenBLAS pool at one thread, and the pool's
count is restored afterwards."""

import functools
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from helmdd import analysis, precond
from helmdd.analysis import check_adjoint_identity, fov_distance, to_euclidean
from helmdd.precond import build_preconditioner

from test_precond import setup_problem

# (owner, attribute, the name helmdd's sources call it by)
_ENTRIES = (
    (sla, "lu_factor", "sla.lu_factor"),
    (sla.lapack, "zgetri", "sla.lapack.zgetri"),
    (sla.blas, "zgemm", "sla.blas.zgemm"),
    (sla.blas, "zgemv", "sla.blas.zgemv"),
    (spla, "splu", "spla.splu"),
    (sla, "cholesky_banded", "sla.cholesky_banded"),
    (sla, "solve_banded", "sla.solve_banded"),
    (analysis, "dtbtrs", "dtbtrs"),
    (sla, "svdvals", "sla.svdvals"),
    (spla, "eigsh", "spla.eigsh"),
    (sla, "eigh", "sla.eigh"),
    (sla, "cho_factor", "sla.cho_factor"),
    (sla, "cho_solve_banded", "sla.cho_solve_banded"),
)
_NOT_BLAS = {"spla.LinearOperator"}


def _scipy_calls_in_sources():
    """Every scipy.linalg / scipy.sparse.linalg function the sources call."""
    found = set()
    for path in Path(precond.__file__).parent.glob("*.py"):
        text = path.read_text()
        found |= {f"{mod}.{fn}" for mod, fn in re.findall(r"\b(sla|spla)\.([\w.]+)\(", text)}
        found |= set(re.findall(r"from scipy\.linalg\.\w+ import (\w+)", text))
    return found - _NOT_BLAS


class _RecordedLU:
    """A SuperLU factorisation whose solve records the thread count."""

    def __init__(self, lu, record):
        self._lu, self._record = lu, record

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def solve(self, *args, **kwargs):
        self._record("SuperLU.solve")
        return self._lu.solve(*args, **kwargs)


@pytest.fixture
def blas_threads(monkeypatch):
    """(get, set, seen, fail): scipy's thread-count functions, the (entry,
    count) pairs recorded at every scipy BLAS/LAPACK entry helmdd calls, and
    a set of entries that raise LinAlgError after recording.  The count is
    set back to its value before the test."""
    fns = precond._scipy_openblas()
    if fns is None:
        pytest.skip("scipy does not bundle OpenBLAS here")
    get, set_ = fns
    seen, fail = [], set()

    def record(name):
        seen.append((name, get()))
        if name in fail:
            raise np.linalg.LinAlgError(f"{name} failed on purpose")

    def recording(fn, name):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            record(name)
            out = fn(*args, **kwargs)
            return _RecordedLU(out, record) if name == "spla.splu" else out
        return call

    for owner, attr, name in _ENTRIES:
        monkeypatch.setattr(owner, attr, recording(getattr(owner, attr), name))
    before = get()
    yield get, set_, seen, fail
    set_(before)


def test_entry_list_covers_every_scipy_call_in_the_sources():
    assert _scipy_calls_in_sources() == {name for _, _, name in _ENTRIES}


def test_every_scipy_blas_call_runs_on_one_thread(blas_threads, monkeypatch):
    get, set_, seen, fail = blas_threads
    set_(2)
    # HRAS with a dense coarse matrix (16 unknowns), ImpHRAS with a SuperLU
    # one (256 unknowns, above DENSE_SOLVE_CUTOFF)
    for kind, (m, M) in (("HRAS", (12, 3)), ("ImpHRAS", (45, 15))):
        mesh, decomp, A_sys, A_prec, coeff = setup_problem(m, M, k=6.0, eps=6.0)
        P = build_preconditioner(kind, mesh=mesh, decomp=decomp, A_prec=A_prec,
                                 coeff_prec=coeff, system_matrix=A_sys)
        assert (P.coarse.R0.shape[0] > precond.DENSE_SOLVE_CUTOFF) == (kind == "ImpHRAS")
        v = np.ones(mesh.n, complex)
        P.apply(v)
        P.to_dense()
        assert get() == 2

    # nested solves: the one inner GMRES of the nested local classes, whose
    # block solves are grouped across classes, and a nested coarse solve
    mesh, decomp, A_sys, A_prec, coeff = setup_problem(24, 3, k=8.0, eps=8.0)
    for kind, nesting in (("ImpRAS1", dict(nested_local=dict(k=12.0))),
                          ("HRAS", dict(nested_coarse=dict(k=8.0)))):
        P = build_preconditioner(kind, mesh=mesh, decomp=decomp, A_prec=A_prec,
                                 coeff_prec=coeff, system_matrix=A_sys, **nesting)
        before = len(seen)
        P.apply(np.ones(mesh.n, complex))
        assert "sla.blas.zgemm" in {name for name, _ in seen[before:]}
        assert get() == 2

    ops = analysis.preconditioned_operator(3, eps=9.0, kind="HRAS")
    D, n = ops["D"], ops["left"].shape[0]
    for cutoff in (n, 0):  # the norm by svdvals, then by ARPACK
        monkeypatch.setattr(analysis, "DENSE_EIG_CUTOFF", cutoff)
        fov_distance(ops["left"], D, weight="D")
        fov_distance(ops["right"], D, weight="Dinv")
        assert get() == 2
    to_euclidean(ops["left"], D.astype(complex))  # a complex band: solve_banded
    check_adjoint_identity(ops["left"], D)
    assert get() == 2

    # a failed certificate falls back to the direct eigensolve of the angle
    reached = []
    dense = analysis._dense_angle_results
    monkeypatch.setattr(analysis, "_dense_angle_results",
                        lambda Ct, thetas: reached.append(thetas) or dense(Ct, thetas))
    fail.add("sla.cho_factor")
    fov_distance(ops["left"], D)
    assert len(reached) == 1 and get() == 2

    assert {name for name, _ in seen} == {name for _, _, name in _ENTRIES} | {"SuperLU.solve"}
    assert {count for _, count in seen} == {1}, sorted(set(seen))


def test_one_blas_thread_restores_the_count_when_its_body_raises(blas_threads):
    get, set_, _, _ = blas_threads
    set_(2)
    with pytest.raises(ZeroDivisionError):
        with precond._one_blas_thread():
            assert get() == 1
            1 / 0
    assert get() == 2
