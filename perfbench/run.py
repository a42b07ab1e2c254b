"""Time-to-solution benchmark of helmdd with a per-layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload, one process each

A run repeats one workload (build, solve, verify) until --seconds have passed
and reports the median of each end-to-end metric over the repetitions, with
quartiles and sample counts, after the environment block.  The end-to-end
times are normalised to a reference host speed by the probe of hostspeed.py,
which runs between a repetition's phases; the unscaled times and the probe
times are printed beside them.  The first SETUP_SHARE of a run repeats the
set-up phase alone, so that setup_s is the median of many set-ups (those of
the whole repetitions included) and no whole repetition runs cold.  With
--trace 1 each untraced repetition is paired with one with every layer entry
point wrapped in spans, the two in alternating order; the per-layer metrics
are unscaled medians over the traced repetitions, and trace.overhead_s is the
median over the pairs of traced minus untraced unscaled total_s.  Spans are
written to perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Every failed check or raised exception counts
as a failed repetition and makes the exit code 1.  helmdd is imported from
the checkout's src/; without it the command exits 1 and prints no result.
"""

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# name -> unit of every end-to-end metric (all must be in BENCHMARK.json)
END_TO_END = {"total_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB",
              "outer_iters": "count"}

# share of a run spent on set-up alone, before whole repetitions
SETUP_SHARE = 0.2


def _import_helmdd():
    sys.path.insert(0, str(SRC))
    try:
        import helmdd
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import helmdd from {SRC}: {exc}")
    if not Path(helmdd.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: helmdd imported from {helmdd.__file__}, not from {SRC}")


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_p50") or name.endswith("_ms_p90"):
        return "ms"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio") or name.endswith("_avg"):
        return "ratio"
    return "count"


def _summary(values):
    """(median, q1, q3, n) of the samples."""
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def _print_table(title, rows):
    print(title)
    print(f"  {'metric':34s} {'unit':6s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>4s}")
    for name, unit, values in rows:
        med, q1, q3, n = _summary(values)
        print(f"  {name:34s} {unit:6s} {med:14.6g} {q1:14.6g} {q3:14.6g} {n:4d}")


def _attempt(fn, *args):
    """(result, failures) of one repetition; an exception becomes a failure."""
    gc.collect()
    try:
        out = fn(*args)
    except Exception:  # noqa: BLE001 - every failure is counted, none dropped
        traceback.print_exc(file=sys.stdout)
        return None, ["raised " + traceback.format_exc().strip().splitlines()[-1]]
    return out, getattr(out, "failures", [])


def measure(name, seed, seconds, trace):
    _import_helmdd()
    sys.path.insert(0, str(HERE))
    import hostspeed
    import spans
    import workloads
    from env import environment

    workload = workloads.WORKLOADS.get(name)
    if workload is None:
        sys.exit(f"perfbench: unknown workload {name!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)} or all")
    print(f"perfbench {name} seed={seed} seconds={seconds} trace={trace}")
    print("why: " + workload.why)
    print("env: " + json.dumps(environment(ROOT), sort_keys=True))

    start = time.perf_counter()
    untraced, traced, setups, failures = [], [], [], []
    attempted = 0

    probes = []

    def attempt(fn, *args, probed=True):
        """Result of one repetition, timed by a Clock that is passed last."""
        nonlocal attempted
        attempted += 1
        clock = hostspeed.Clock(probed)
        out, fails = _attempt(fn, *args, clock)
        failures.append(fails)
        probes.extend(clock.probes)
        return out

    def elapsed():
        return time.perf_counter() - start

    # set-up alone first, so that set-up time is a median of many samples also
    # on workloads that fit only a few whole repetitions in a run, and so that
    # no whole repetition pays for the process's first use of each code path
    while elapsed() < SETUP_SHARE * seconds:
        clock = attempt(workloads.setup_once, workload)
        if clock is not None:
            setups.append((clock.segments[0], clock.normalised()[0]))
    while True:
        # with --trace 1, an untraced and a traced repetition side by side, in
        # alternating order, so that the overhead is a median of fair pairs;
        # only the untraced one runs the host-speed probes
        reps = [None]
        if trace:
            tracer = spans.Tracer(run_id=len(traced))
            reps = [None, tracer] if len(traced) % 2 == 0 else [tracer, None]
        outs = {}
        for tr in reps:
            with spans.instrumented(tr) if tr else contextlib.nullcontext():
                outs[tr is not None] = attempt(workloads.run_once, workload, seed, tr,
                                               probed=tr is None)
        out = outs[False]
        if out is not None:
            untraced.append(out)
            setups.append((out.setup_s, out.norm["setup_s"]))
            if outs.get(True) is not None:
                traced.append((tracer, outs[True], out))
        if elapsed() >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(bool(f) for f in failures)
    for msg in (m for f in failures for m in f):
        print("FAILED: " + msg)

    metrics = {}
    if untraced:
        # (unscaled, normalised) samples of each time
        times = {"total_s": [(o.total_s, o.norm["total_s"]) for o in untraced],
                 "setup_s": setups,
                 "solve_s": [(o.solve_s, o.norm["solve_s"]) for o in untraced]}
        rows = [(m, "s", [t for _, t in v]) for m, v in times.items()]
        rows += [("outer_iters", "count", [o.outer_iters for o in untraced]),
                 ("peak_rss_mb", "MB", [peak_rss_mb])]
        if any(o.inner_counts for o in untraced):
            rows.append(("inner_iters_avg", "ratio",
                         [statistics.mean(o.inner_counts) for o in untraced]))
        rows.append(("failed_frac", "ratio", [failed / attempted]))
        rows += [(f"unscaled.{m}", "s", [t for t, _ in v]) for m, v in times.items()]
        rows.append(("host.probe_s", "s", probes))
        _print_table(f"end-to-end (n={untraced[0].n}, repetitions={len(untraced)}; times"
                     f" at the reference host speed, probe {hostspeed.REFERENCE_S} s)", rows)
        print("samples: " + json.dumps(times))
        if not trace:
            metrics = {m: {"value": statistics.median(v), "unit": u}
                       for m, u, v in rows if m in END_TO_END}
    if traced:
        overhead = statistics.median(o.total_s - plain.total_s for _, o, plain in traced)
        layer_runs = [spans.layer_metrics(tr, o.inner_counts, o.inner_failures)
                      for tr, o, _ in traced]
        traced_total = statistics.median(o.total_s for _, o, _ in traced)
        for lm in layer_runs:
            lm["trace.total_s"] = traced_total
            lm["trace.overhead_s"] = overhead
        names = list(layer_runs[0])
        _print_table(f"per-layer (traced repetitions={len(traced)})",
                     [(m, _unit(m), [lm[m] for lm in layer_runs]) for m in names])
        selfs = {m: statistics.median(lm[m] for lm in layer_runs)
                 for m in names if m.startswith("self.")}
        print(f"self times sum {sum(selfs.values()):.6g} s; largest "
              f"{max(selfs, key=selfs.get)}")
        metrics = {m: {"value": statistics.median(lm[m] for lm in layer_runs),
                       "unit": _unit(m)} for m in names}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans.dump([tr for tr, _, _ in traced], out_dir / f"spans-{name}-seed{seed}.json")

    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_process(name, seed, seconds, trace):
    """One run of a workload in a fresh process (peak RSS is per process):
    (exit code, standard output, standard error, its JSON result or None)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, proc.stdout, proc.stderr, result


def measure_all(args):
    """Every workload, each in its own process."""
    sys.path.insert(0, str(HERE))
    _import_helmdd()
    import workloads

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        code, stdout, stderr, result = run_process(name, args.seed, args.seconds,
                                                   args.trace)
        print(stdout, end="")
        print(stderr, end="", file=sys.stderr)
        result = result or {}
        correct = correct and code == 0 and result.get("correct", False)
        attempted += result.get("attempted", 0)
        failed += result.get("failed", 0)
        for m, v in result.get("metrics", {}).items():
            metrics[f"{name}.{m}"] = v
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="workload name, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return measure_all(args)
    return measure(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
