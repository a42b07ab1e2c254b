import io

import numpy as np
import pytest

from helmdd.assembly import AssemblyCoefficients, assemble_system
from helmdd.harness import (ExperimentConfig, ExperimentError, NestingSpec, ResultRow,
                            build_problem, build_rhs, emit_results, expand_preset,
                            parse_results, plane_wave_interpolant, run_experiment,
                            run_table, solve_problem, RESULT_COLUMNS)
from helmdd.mesh import build_fine_mesh, build_wavespeed
from helmdd.precond import DirectFactorization


def test_rhs_ones():
    mesh = build_fine_mesh(1, "explicit", m=4)
    f = build_rhs(mesh, "ones", 5.0)
    assert f.shape == (25,) and np.all(f == 1.0)


def test_rhs_plane_wave_recovers_interpolant():
    mesh = build_fine_mesh(1, "explicit", m=12)
    k = 6.0
    ws = build_wavespeed(mesh, "constant")
    A = assemble_system(mesh, AssemblyCoefficients(omega=k, wavespeed=ws,
                                                   shift_mode="additive_eps",
                                                   shift_value=0.0))
    f = build_rhs(mesh, "plane_wave", k, system=A)
    u = DirectFactorization(A).solve(f)
    u_i = plane_wave_interpolant(mesh, k)
    assert np.linalg.norm(u - u_i) / np.linalg.norm(u_i) < 1e-10
    assert np.allclose(np.abs(plane_wave_interpolant(mesh, 1.0)), 1.0)
    with pytest.raises(ValueError):
        build_rhs(mesh, "plane_wave", k)
    with pytest.raises(ValueError):
        build_rhs(mesh, "delta", k)


def test_run_experiment_table1_bands_k20():
    r = run_experiment(ExperimentConfig(k=20, preset="table1", precond="HRAS",
                                        alpha=1.0, beta=1.0, rhs="plane_wave"))
    assert r.converged and 6 <= r.outer_iters <= 18  # reference: 12, +-50%
    assert r.final_relres <= 2e-6
    assert r.inner_iters_avg is None
    r1 = run_experiment(ExperimentConfig(k=20, preset="table1", precond="RAS1",
                                         alpha=1.0, beta=1.0, rhs="plane_wave"))
    assert r1.outer_iters >= 60  # reference: 92 (one-level companion)


def test_run_experiment_table4_band_k60():
    r = run_experiment(ExperimentConfig(k=60, preset="table4",
                                        mesh_rule="points_per_wavelength",
                                        precond="ImpRAS1", alpha=0.5, beta=1.0,
                                        rhs="ones"))
    assert r.n == 9409
    assert 18 <= r.outer_iters <= 52  # reference: 35, +-50%


def test_run_experiment_inner_outer_table3_k20():
    r = run_experiment(ExperimentConfig(k=20, preset="table3", precond="HRAS",
                                        alpha=1.0, beta=1.0, rhs="plane_wave",
                                        nesting=NestingSpec("coarse", 0.5)))
    assert r.converged
    assert 10 <= r.outer_iters <= 28  # reference: 19, +-50%
    assert 0.0 <= r.inner_iters_avg <= 4.0  # reference: 2, +-2


def test_inner_tol_reaches_nested_coarse_solve():
    # table3 solves the coarse problem by inner GMRES to ExperimentConfig.inner_tol
    avg = {}
    for tol in (0.5, 0.05):
        cfg, = [c for c in expand_preset("table3", [12], inner_tol=tol) if c.beta == 1.0]
        avg[tol] = run_experiment(cfg).inner_iters_avg
    assert avg[0.05] > avg[0.5]


def test_run_experiment_multilevel_table5_k100():
    # reference count 26(6); with the loose inner tolerance 0.5 this solver
    # takes noticeably more outer iterations than with exact local solves
    # (exactness is recovered as the tolerance tightens, see the test below),
    # so the band here is deliberately wide
    r = run_experiment(ExperimentConfig(k=100, preset="table5_multilevel",
                                        mesh_rule="points_per_wavelength",
                                        precond="ImpRAS1", alpha=0.4, beta=1.2,
                                        rhs="ones",
                                        nesting=NestingSpec("local", 0.8)))
    assert r.converged
    assert r.outer_iters <= 70
    assert 1.0 <= r.inner_iters_avg <= 8.0
    assert r.final_relres <= 2e-6


def test_nested_local_tight_tolerance_matches_exact_counts():
    base = ExperimentConfig(k=60, mesh_rule="points_per_wavelength",
                            precond="ImpRAS1", alpha=0.4, beta=1.2, rhs="ones")
    exact = run_experiment(base)
    nested = run_experiment(ExperimentConfig(
        k=60, mesh_rule="points_per_wavelength", precond="ImpRAS1", alpha=0.4,
        beta=1.2, rhs="ones", inner_tol=0.1, nesting=NestingSpec("local", 0.8)))
    assert abs(nested.outer_iters - exact.outer_iters) <= 3


def test_run_experiment_variable_speed_resolved_vs_unresolved():
    kw = dict(k=20, preset="table6_variable", scenario="centered-square",
              c_star=0.66, anchor_square=True, shift_family="multiplicative",
              precond="HRAS", alpha=1.0, beta=1.6, rhs="ones",
              nesting=NestingSpec("coarse", 0.5))
    res = run_experiment(ExperimentConfig(**kw))
    unres = run_experiment(ExperimentConfig(**dict(kw, scenario="shifted-square")))
    assert res.converged and unres.converged
    assert 14 <= res.outer_iters <= 42      # reference: 28(1), +-50%
    assert res.inner_iters_avg <= 3.0
    assert abs(res.outer_iters - unres.outer_iters) <= 5
    assert res.scenario == "centered-square" and unres.scenario == "shifted-square"


def test_scenario_alone_selects_the_shifted_square():
    cfg = ExperimentConfig(k=6, scenario="shifted-square", c_star=1.5,
                           shift_family="multiplicative", precond="RAS1", alpha=0.5,
                           rhs="ones")
    problem = build_problem(cfg)
    assert problem.decomp.overlap_layers > 0
    want = build_wavespeed(problem.mesh, "shifted-square", c_star=1.5,
                           offset=problem.decomp.overlap_layers)
    assert problem.scenario == "shifted_square"
    assert problem.coeff_prec.wavespeed.square == want.square
    row = solve_problem(cfg, problem)
    assert row.scenario == "shifted-square" and row.c_star == 1.5
    with pytest.raises(ValueError, match="scenario"):
        build_problem(ExperimentConfig(k=6, scenario="circle", c_star=1.5, alpha=0.5))


def test_nesting_the_kind_cannot_use_is_refused():
    # RAS1 has no coarse solve: the nesting used to be dropped silently
    with pytest.raises(ValueError, match="no coarse solve"):
        run_experiment(ExperimentConfig(k=12, precond="RAS1", rhs="ones",
                                        nesting=NestingSpec("coarse", 0.5)))


def test_threads_is_not_a_config_field():
    # local solves run on one thread; the class attribute stays 1
    with pytest.raises(TypeError):
        ExperimentConfig(k=6, threads=2)
    assert ExperimentConfig(k=6).threads == 1


def test_preset_arities():
    assert len(expand_preset("table3", [20])) == 7
    assert len(expand_preset("table4", [60, 80])) == 8
    assert len(expand_preset("table1", [20])) == 24
    assert len(expand_preset("table2", [40])) == 2
    assert len(expand_preset("table5_multilevel", [100])) == 2
    assert len(expand_preset("table6_variable", [20])) == 20
    with pytest.raises(ValueError):
        expand_preset("table9", [20])


def test_table2_preset_band_k40():
    rows = run_table("table2", [40])
    two, one = rows
    assert two.precond == "ImpHRAS" and one.precond == "ImpRAS1"
    assert 10 <= two.outer_iters <= 32   # reference: 21, +-50%
    assert 11 <= one.outer_iters <= 35   # reference: 23, +-50%


def test_table6_preset_runs_end_to_end():
    rows = run_table("table6_variable", [10])
    assert len(rows) == 20
    assert all(r.converged for r in rows)
    scenarios = {(r.scenario, r.c_star) for r in rows}
    assert ("centered-square", 1.5) in scenarios
    assert ("shifted-square", 0.66) in scenarios
    assert ("constant", 1.0) in scenarios
    assert all(r.inner_iters_avg is not None for r in rows)


def test_desk_scale_cap_and_memory_guard():
    with pytest.raises(ExperimentError):
        run_experiment(ExperimentConfig(k=70, mesh_rule="pollution_free",
                                        precond="HRAS", alpha=1.0, beta=1.0))
    with pytest.raises(ExperimentError):
        run_experiment(ExperimentConfig(k=10, mesh_rule="explicit", mesh_cells=4000,
                                        precond="RAS1", alpha=1.0, beta=1.0))


def test_run_table_records_row_errors_and_continues():
    rows = run_table("table3", [70])  # pollution_free above the cap
    assert len(rows) == 7
    assert all((not r.converged) and r.outer_iters == -1 and r.error for r in rows)


def test_error_rows_name_the_configuration_as_run_rows_do():
    # every row fails at the size guard; its scenario and c_star columns are
    # those the configuration reports when it runs (constant at c_star = 1,
    # hyphenated names)
    rows = run_table("table6_variable", [70])
    assert len(rows) == 20 and all(r.error and r.outer_iters == -1 for r in rows)
    assert {(r.scenario, r.c_star) for r in rows} == {
        ("centered-square", 1.5), ("shifted-square", 1.5), ("constant", 1.0),
        ("centered-square", 0.66), ("shifted-square", 0.66)}
    rows = run_table("table6_variable", [70], scenario="shifted_square")
    assert {(r.scenario, r.c_star) for r in rows} == {
        ("shifted-square", 1.5), ("constant", 1.0), ("shifted-square", 0.66)}


def test_determinism():
    cfg = ExperimentConfig(k=15, mesh_rule="points_per_wavelength", precond="ImpHRAS",
                           alpha=0.5, beta=1.0, rhs="ones")
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.outer_iters == b.outer_iters
    assert a.final_relres == b.final_relres


def test_emit_parse_roundtrip_csv_and_json(tmp_path):
    rows = [
        ResultRow(preset="table4", k=60.0, n=9409, mesh_rule="points_per_wavelength",
                  precond="ImpRAS1", alpha=0.5, beta=1.0, scenario="constant",
                  c_star=1.0, outer_iters=35, inner_iters_avg=None, converged=True,
                  time_total_s=1.25, time_per_iter_s=0.036, final_relres=3.1e-7),
        ResultRow(preset="table1", k=40.0, n=64516, mesh_rule="pollution_free",
                  precond="RAS1", alpha=1.0, beta=1.0, scenario="constant",
                  c_star=1.0, outer_iters=-1, inner_iters_avg=2.5, converged=False,
                  time_total_s=10.0, time_per_iter_s=0.05, final_relres=4.4e-3),
    ]
    for fmt in ("csv", "json"):
        path = tmp_path / f"rows.{fmt}"
        emit_results(rows, str(path), fmt=fmt)
        back = parse_results(str(path), fmt=fmt)
        assert back == rows
    header = (tmp_path / "rows.csv").read_text().splitlines()[0]
    assert header == ",".join(RESULT_COLUMNS)


def test_emit_single_trivial_row():
    row = ResultRow(preset="x", k=1.0, n=4, mesh_rule="explicit", precond="RAS1",
                    alpha=1.0, beta=1.0, scenario="constant", c_star=1.0,
                    outer_iters=1, inner_iters_avg=None, converged=True,
                    time_total_s=0.0, time_per_iter_s=0.0, final_relres=0.0)
    buf = io.StringIO()
    emit_results([row], buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 2
    with pytest.raises(ValueError):
        emit_results([], io.StringIO())
