"""Golden iteration counts: every configuration of golden_counts.json must
reproduce its outer count and inner average exactly, and its true final
relative residual to 1e-8 relative."""

import json
from pathlib import Path

import pytest

from helmdd.harness import ExperimentConfig, NestingSpec, run_experiment

GOLDEN = json.loads((Path(__file__).parent / "golden_counts.json").read_text())


def _config(spec):
    spec = dict(spec)
    nesting = spec.pop("nesting", None)
    return ExperimentConfig(**spec, nesting=NestingSpec(**nesting) if nesting else None)


@pytest.mark.parametrize("entry", GOLDEN["configurations"], ids=lambda e: e["name"])
def test_golden_counts(entry):
    row = run_experiment(_config(entry["config"]))
    assert row.error is None
    assert row.outer_iters == entry["outer_iters"]
    assert row.inner_iters_avg == entry["inner_iters_avg"]
    assert row.final_relres == pytest.approx(entry["final_relres"], rel=1e-8)


def test_golden_configurations_cover_kinds_nestings_and_variable_speed():
    configs = [e["config"] for e in GOLDEN["configurations"]]
    assert {c["precond"] for c in configs} == {"AS1", "AS", "RAS1", "HRAS", "ImpRAS1",
                                               "ImpHRAS"}
    assert {c["nesting"]["target"] for c in configs if "nesting" in c} == {"coarse", "local"}
    assert any(c.get("scenario", "constant") != "constant" for c in configs)
