"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The iteration-count checks reproduce the reference table entries inside tolerance
bands (counts depend on right-hand side, overlap and orthogonalisation details
that are not fully pinned down); the operator-equivalence and theory checks
are exact to stated tolerances.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
import warnings

import numpy as np
import pytest

from helmdd.analysis import check_adjoint_identity, scaling_sweep
from helmdd.assembly import (AssemblyCoefficients, assemble_energy_matrix,
                             assemble_system)
from helmdd.decomposition import build_decomposition
from helmdd.harness import ExperimentConfig, NestingSpec, run_experiment
from helmdd.krylov import KrylovConfig, gmres
from helmdd.mesh import build_fine_mesh, build_wavespeed, layout_from_blocks
from helmdd.precond import KINDS, DirectFactorization, build_preconditioner

from oracles import dense_preconditioner


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _table_run(k, kind, alpha, beta, **kw):
    cfg = ExperimentConfig(k=k, preset="acceptance", precond=kind, alpha=alpha,
                           beta=beta, **kw)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def ksq_sweep():
    # HRAS(alpha=1, eps=k^2) applied to A_eps itself, left and right operators
    # certified in the energy inner products; envelope checked on the left
    return scaling_sweep([5, 10, 15, 20], eps_rule="ksq", alpha=1.0, kind="HRAS",
                         sides=("left", "right"), envelope=True)


def test_criterion_1_dense_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for m, M in ((8, 2), (6, 2)):
        mesh = build_fine_mesh(1, "explicit", m=m)
        ws = build_wavespeed(mesh, "constant")
        k = 5.0
        c0 = AssemblyCoefficients(omega=k, wavespeed=ws, shift_mode="additive_eps",
                                  shift_value=0.0)
        cp = AssemblyCoefficients(omega=k, wavespeed=ws, shift_mode="additive_eps",
                                  shift_value=k)
        A_sys = assemble_system(mesh, c0)
        A_prec = assemble_system(mesh, cp)
        decomp = build_decomposition(mesh, layout_from_blocks(mesh, M))
        for kind in KINDS:
            P = build_preconditioner(kind, mesh=mesh, decomp=decomp, A_prec=A_prec,
                                     coeff_prec=cp, system_matrix=A_sys)
            Bd = dense_preconditioner(kind, mesh, decomp, A_sys, A_prec, cp)
            for _ in range(20):
                v = rng.standard_normal(mesh.n) + 1j * rng.standard_normal(mesh.n)
                w = Bd @ v
                worst = max(worst, np.linalg.norm(P.apply(v) - w) / np.linalg.norm(w))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, ok, f"all kinds vs dense formulas: worst rel err {worst:.2e} "
                   f"(tol 1e-10), {elapsed:.1f}s (limit 10s)")


def test_criterion_2_table1_bands():
    runs = {}
    for k, want in ((20, 12), (40, 18), (60, 25)):
        r = _table_run(k, "HRAS", 1.0, 1.0, rhs="plane_wave")
        runs[k] = (r.outer_iters, want)
    ras20 = _table_run(20, "RAS1", 1.0, 1.0, rhs="plane_wave")
    ras40 = _table_run(40, "RAS1", 1.0, 1.0, rhs="plane_wave")
    two_level_ok = all(0.5 * w <= it <= 1.5 * w for it, w in runs.values())
    one_level_ok = ras20.outer_iters >= 60 and not ras40.converged
    detail = (f"HRAS k=20/40/60 -> {[runs[k][0] for k in (20, 40, 60)]} "
              f"(reference 12/18/25, +-50%); RAS1 k=20 -> {ras20.outer_iters} (>=60), "
              f"k=40 converged={ras40.converged} (expected cap)")
    _report(2, two_level_ok and one_level_ok, detail)


def test_criterion_3_table1_regime_flip():
    hras = _table_run(40, "HRAS", 0.6, 1.0, rhs="plane_wave")
    imp = _table_run(40, "ImpHRAS", 0.6, 1.0, rhs="plane_wave")
    hras_count = hras.outer_iters if hras.converged else 200
    ok = imp.converged and imp.outer_iters < 200 \
        and hras_count >= 2 * imp.outer_iters
    _report(3, ok, f"k=40 alpha=0.6: HRAS {hras_count} vs ImpHRAS "
                   f"{imp.outer_iters} (reference 125 vs 50; need >= 2x and ImpHRAS < 200)")


def test_criterion_4_table2_band():
    want_two = {20: 14, 40: 21, 60: 28}
    want_one = {20: 16, 40: 23, 60: 30}
    got_two, got_one = {}, {}
    for k in (20, 40, 60):
        kw = dict(mesh_rule="points_per_wavelength", eps_prob_beta=1.2,
                  rhs="plane_wave")
        got_two[k] = _table_run(k, "ImpHRAS", 0.5, 1.2, **kw).outer_iters
        got_one[k] = _table_run(k, "ImpRAS1", 0.5, 1.2, **kw).outer_iters
    ok = all(0.5 * want_two[k] <= got_two[k] <= 1.5 * want_two[k] for k in want_two) \
        and all(0.5 * want_one[k] <= got_one[k] <= 1.5 * want_one[k] for k in want_one)
    _report(4, ok, f"ImpHRAS {got_two} (reference {want_two}); "
                   f"ImpRAS1 {got_one} (reference {want_one}); +-50%")


def test_criterion_5_table3_inner_outer():
    nest = NestingSpec("coarse", 0.5)
    r20 = _table_run(20, "HRAS", 1.0, 1.0, rhs="plane_wave", nesting=nest)
    r40 = _table_run(40, "HRAS", 1.0, 1.0, rhs="plane_wave", nesting=nest)
    r40b2 = _table_run(40, "HRAS", 1.0, 2.0, rhs="plane_wave", nesting=nest)
    ok = (r20.converged and 10 <= r20.outer_iters <= 28      # reference 19 +-50%
          and abs(r20.inner_iters_avg - 2.0) <= 2.0          # reference (2)
          and r40.converged and 11 <= r40.outer_iters <= 33  # reference 22 +-50%
          and abs(r40.inner_iters_avg - 3.0) <= 2.0          # reference (3)
          and r40b2.outer_iters > r40.outer_iters)           # reference 61 vs 22
    _report(5, ok, f"k=20: {r20.outer_iters}({r20.inner_iters_avg:.1f}) "
                   f"[reference 19(2)]; k=40: {r40.outer_iters}({r40.inner_iters_avg:.1f}) "
                   f"[reference 22(3)]; beta=2 at k=40: {r40b2.outer_iters} > "
                   f"{r40.outer_iters} [reference 61 > 22]")


def test_criterion_6_table4_growth_trend():
    ks = (60, 80, 100, 120, 140, 160)
    its, ns = [], []
    for k in ks:
        r = _table_run(k, "ImpHRAS", 0.4, 1.0,
                       mesh_rule="points_per_wavelength", rhs="ones")
        assert r.converged, f"table4 run at k={k} did not converge"
        its.append(r.outer_iters)
        ns.append(r.n)
    slope = float(np.polyfit(np.log(ns), np.log(its), 1)[0])
    ok = 0.05 <= slope <= 0.35
    _report(6, ok, f"ImpHRAS alpha=0.4 counts {its} over n {ns}: "
                   f"log-log slope {slope:.3f} in [0.05, 0.35] (reference ~0.18)")


def test_criterion_7_theorem31_envelope_and_identity(ksq_sweep):
    small = [r for r in ksq_sweep["rows"]
             if r["tag"].endswith("left") and r["k"] <= 15]
    assert small, "no certified desk-scale instances"
    worst_excess = 0.0
    all_ok = True
    for r in small:
        all_ok &= bool(r["certified"])
        env = r.get("envelope")
        all_ok &= env is not None and env["status"] == "ok"
        if env and env.get("max_excess") is not None:
            worst_excess = max(worst_excess, env["max_excess"])
    rng = np.random.default_rng(77)
    worst_id = 0.0
    for seed in range(100):
        n = 20
        C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        D = B @ B.T + n * np.eye(n)
        out = check_adjoint_identity(C, D, samples=5, seed=seed)
        worst_id = max(worst_id, out["max_error"])
    ok = all_ok and worst_excess <= 1e-10 and worst_id <= 1e-10
    _report(7, ok, f"envelope holds on {len(small)} certified instances "
                   f"(worst excess {worst_excess:.2e} <= 1e-10); adjoint identity "
                   f"on 100 random instances (worst {worst_id:.2e} <= 1e-10)")


def test_criterion_8_ksq_regime(ksq_sweep):
    certified = all(r["certified"] for r in ksq_sweep["rows"])
    counts = []
    for k in (5, 10, 15, 20):
        mesh = build_fine_mesh(1, "explicit", m=3 * k)
        ws = build_wavespeed(mesh, "constant")
        coeff = AssemblyCoefficients(omega=float(k), wavespeed=ws,
                                     shift_mode="additive_eps",
                                     shift_value=float(k) ** 2)
        A_eps = assemble_system(mesh, coeff)
        decomp = build_decomposition(mesh, layout_from_blocks(mesh, k))
        P = build_preconditioner("HRAS", mesh=mesh, decomp=decomp, A_prec=A_eps,
                                 coeff_prec=coeff, system_matrix=A_eps)
        _, rep = gmres(A_eps, P, np.ones(mesh.n, complex),
                       KrylovConfig(side="right", rel_tol=1e-6))
        counts.append(rep.iterations)
    spread = max(counts) - min(counts)
    ok = certified and spread <= 3
    _report(8, ok, f"eps=k^2: all {len(ksq_sweep['rows'])} FOV instances certified "
                   f"= {certified}; GMRES counts {counts} across k=5..20 "
                   f"(spread {spread} <= 3)")


def test_criterion_9_variable_speed_ordering():
    nest = NestingSpec("coarse", 0.5)
    kw = dict(mesh_rule="pollution_free", scenario="centered-square",
              anchor_square=True, shift_family="multiplicative", rhs="ones",
              nesting=nest)
    fast = run_experiment(ExperimentConfig(k=40, precond="HRAS", alpha=1.0, beta=1.0,
                                           c_star=1.5, **kw))
    slow = run_experiment(ExperimentConfig(k=40, precond="HRAS", alpha=1.0, beta=1.0,
                                           c_star=0.66, **kw))
    slow_sh = run_experiment(ExperimentConfig(k=40, precond="HRAS", alpha=1.0,
                                              beta=1.0, c_star=0.66,
                                              **dict(kw, scenario="shifted-square")))
    ok = (fast.converged and slow.converged and slow_sh.converged
          and slow.outer_iters > fast.outer_iters
          and abs(slow.outer_iters - slow_sh.outer_iters) <= 3)
    _report(9, ok, f"omega=40 beta=1: c*=0.66 -> {slow.outer_iters} strictly above "
                   f"c*=1.5 -> {fast.outer_iters} (reference 31 vs 22); resolved "
                   f"{slow.outer_iters} vs unresolved {slow_sh.outer_iters} "
                   f"(reference 31 vs 32, diff <= 3)")


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    checks = 0
    for seed in range(52):
        m = int(rng.integers(3, 11))
        M = int(rng.integers(1, max(2, m // 3) + 1))
        k = float(rng.uniform(2.0, 12.0))
        eps = float(rng.uniform(0.0, k * k))
        mesh = build_fine_mesh(1, "explicit", m=m)
        scen = ("constant", "centered-square")[seed % 2]
        ws = build_wavespeed(mesh, scen, c_star=float(rng.uniform(0.5, 2.0)))
        mode = "additive_eps" if scen == "constant" else "multiplicative_rho"
        val = eps if scen == "constant" else float(rng.uniform(0.0, 1.0))
        coeff = AssemblyCoefficients(omega=k, wavespeed=ws, shift_mode=mode,
                                     shift_value=val)
        A = assemble_system(mesh, coeff)
        sym = (A - A.T)
        assert sym.nnz == 0 or np.abs(sym.data).max() == 0.0
        D = assemble_energy_matrix(mesh, k)
        assert np.linalg.eigvalsh(D.toarray()).min() > 0.0
        layout = layout_from_blocks(mesh, M)
        # coarse cells under 3 fine cells wide leave no overlap, flagged and warned
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dec = build_decomposition(mesh, layout)
        warned = any(issubclass(w.category, UserWarning) for w in caught)
        assert warned == dec.degenerate_overlap == (layout.g_min < 3)
        total = np.zeros(mesh.n)
        for sub in dec.subdomains:
            np.add.at(total, sub.own_nodes, sub.own_weights)
        assert np.allclose(total, 1.0, atol=1e-14)
        R0 = dec.coarse_interp
        assert np.allclose(np.asarray(R0.sum(axis=0)).ravel(), 1.0, atol=1e-13)
        # GMRES monotonicity on a random dense system
        n = 20
        Cr = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) \
            + 2 * np.eye(n)
        br = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        _, rep = gmres(Cr, None, br, KrylovConfig(side="none", rel_tol=1e-10,
                                                  max_iters=n))
        h = rep.residual_history
        assert np.all(h[1:] <= h[:-1] + 1e-14)
        # plane-wave recovery through a direct solve
        u = np.exp(1j * k * mesh.nodes[:, 0])
        x = DirectFactorization(A).solve(A @ u)
        assert np.linalg.norm(x - u) / np.linalg.norm(u) < 1e-9
        checks += 1
    elapsed = time.perf_counter() - t0
    ok = checks >= 50 and elapsed < 60.0
    _report(10, ok, f"{checks} randomized configurations: symmetry, D_k > 0, "
                    f"partition of unity, R0 column sums, GMRES monotonicity, "
                    f"plane-wave recovery; {elapsed:.1f}s (limit 60s)")
