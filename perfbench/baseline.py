"""Record the benchmark's baseline: repeated runs of every workload on
different seeds, their spread against the bounds in BENCHMARK.json, and one
traced run per workload.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py [--runs 10] [--out perfbench/baseline.json]
                                  [--compare previous.json]

Each run is a fresh `perfbench/run.py` process with seeds 0..runs-1.  For
every end-to-end metric the summary gives the median, quartiles and sample
count of the per-run medians and the spread (q3 - q1) / median, flagged when
it exceeds a third of the metric's bound.  --compare reports the change of
each median against an earlier baseline file as a share of that median,
flagged when it is worse by more than the bound.  The exit code is 1 if
anything is flagged.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(run, workload, seed, seconds, trace):
    code, stdout, stderr, result = run.run_process(workload, seed, seconds, trace)
    if code != 0 or result is None or not result["correct"]:
        sys.stderr.write(stdout[-4000:] + stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} failed (exit {code})")
    env = next(json.loads(ln[5:]) for ln in stdout.splitlines() if ln.startswith("env: "))
    return env, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default=None, help="write the baseline JSON here")
    ap.add_argument("--compare", default=None, help="earlier baseline JSON")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import run
    import spans
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    previous = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}
    record = {"env": None, "run_seconds": bench["run_seconds"], "runs": args.runs,
              "layer_map": list(spans.LAYER_MAP), "workloads": {}}
    steady = True
    for name, wl in workloads.WORKLOADS.items():
        values = {m: [] for m in bounds}
        for seed in range(args.runs):
            record["env"], result = _run(run, name, seed, bench["run_seconds"], 0)
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        e2e = {}
        print(f"{name}: {args.runs} runs")
        for m, v in values.items():
            med, q1, q3, n = run._summary(v)
            spread = (q3 - q1) / med
            e2e[m] = {"median": med, "q1": q1, "q3": q3, "n": n, "spread": spread,
                      "unit": run.END_TO_END[m], "values": v}
            flag = "" if spread <= bounds[m] / 3 else "  <- unsteady"
            line = (f"  {m:12s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g}"
                    f" spread {spread:.4f} (bound {bounds[m]}){flag}")
            old = previous.get(name, {}).get("end_to_end", {}).get(m)
            if old:
                change = med / old["median"] - 1.0
                line += f" change {change:+.4f}" + ("  <- worse" if change > bounds[m] else "")
                flag = flag or change > bounds[m]
            steady = steady and not flag
            print(line)
        _, traced = _run(run, name, 0, bench["run_seconds"], 1)
        layers = {m: v["value"] for m, v in traced["metrics"].items()}
        selfs = {m: v for m, v in layers.items() if m.startswith("self.")}
        record["workloads"][name] = {
            "why": wl.why, "pinned_seed0": wl.pinned, "end_to_end": e2e,
            "per_layer_seed0": layers, "largest_self": max(selfs, key=selfs.get)}
        print(f"  traced: total {layers['trace.total_s']:.4g} s, overhead "
              f"{layers['trace.overhead_s']:.4g} s, self sum {sum(selfs.values()):.4g} s,"
              f" largest {max(selfs, key=selfs.get)}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
