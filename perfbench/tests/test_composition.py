"""The benchmark's phase-by-phase build must match what users run, and its
definitions must match BENCHMARK.json.

Run with: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from helmdd import harness, precond

import hostspeed
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]

# smaller k of each solve workload's configuration, for speed (below k=30 the
# nested-local blocks lose their overlap)
SMALL_K = {"hras-pf-k30": 12, "imphras-ppw-k100": 40, "nested-local-ppw-k30": 30}


@pytest.mark.parametrize("name", sorted(SMALL_K))
def test_phases_match_run_experiment(name):
    cfg = dataclasses.replace(workloads.WORKLOADS[name].config, k=SMALL_K[name])
    ours = workloads.run_solve(cfg, seed=0)
    ref = harness.run_experiment(cfg)
    assert ours.failures == []
    assert ours.n == ref.n
    assert ours.outer_iters == ref.outer_iters
    ours_inner = sum(ours.inner_counts) / len(ours.inner_counts) if ours.inner_counts else None
    assert ours_inner == ref.inner_iters_avg
    assert math.isclose(ours.final_relres, ref.final_relres, rel_tol=1e-10, abs_tol=0.0)


def test_traced_run_matches_untraced_and_self_times_add_up():
    wl = workloads.WORKLOADS["nested-local-ppw-k30"]
    plain = workloads.run_once(wl, seed=3)
    original = precond.DirectFactorization.solve
    tracer = spans.Tracer(run_id=0)
    with spans.instrumented(tracer):
        traced = workloads.run_once(wl, seed=3, tracer=tracer)
    assert precond.DirectFactorization.solve is original
    assert traced.outer_iters == plain.outer_iters
    assert traced.inner_counts == plain.inner_counts
    m = spans.layer_metrics(tracer, traced.inner_counts, traced.inner_failures)
    root = tracer.ends[0] - tracer.starts[0]
    assert tracer.names[0] == "bench.run"
    assert math.isclose(sum(v for k, v in m.items() if k.startswith("self.")), root,
                        rel_tol=1e-9)
    assert m["precond.inner_solves"] == len(plain.inner_counts) > 0
    assert m["krylov.matvec_calls"] == plain.outer_iters + 1
    assert m["precond.local_solve_calls"] > m["precond.factor_calls"] > 0


def test_fov_pipeline_certifies_small_instance():
    out = workloads.run_fov(3.0, seed=1)
    assert out.failures == []
    assert out.outer_iters > 0 and out.setup_s > 0 and out.solve_s > 0


def test_pins_flag_mismatches():
    wl = workloads.WORKLOADS["fov-hras-k8"]
    out = workloads.Outcome(setup_s=1.0, solve_s=1.0, total_s=2.0, n=625, outer_iters=20,
                            dists=(wl.pinned["dist_left"] * (1 + 1e-5),
                                   wl.pinned["dist_right"]))
    workloads.check_pins(wl, out)
    assert len(out.failures) == 2


def test_benchmark_json_matches_definitions():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    names = list(spans.layer_metrics(spans.Tracer(0))) + ["trace.total_s",
                                                          "trace.overhead_s"]
    assert [m["name"] for m in bench["per_layer"]] == names
    assert all(m["unit"] == run._unit(m["name"]) for m in bench["per_layer"])


def test_clock_normalises_each_segment_by_the_probes_around_it():
    clock = hostspeed.Clock(probed=True)
    clock.segments = [2.0, 3.0]
    clock.probes = [hostspeed.REFERENCE_S, 3 * hostspeed.REFERENCE_S,
                    hostspeed.REFERENCE_S]
    assert clock.normalised() == [1.0, 1.5]
    assert hostspeed.Clock().normalised() is None
    clock = hostspeed.Clock(probed=True)
    out = workloads.run_fov(3.0, seed=1, clock=clock)
    assert len(clock.probes) == len(clock.segments) + 1 == 5
    assert math.isclose(out.norm["total_s"], out.norm["setup_s"] + out.norm["solve_s"])
