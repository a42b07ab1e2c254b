"""Command-line entry point: `helmdd run` executes a table preset, `helmdd
solve` runs one configuration, `helmdd analyze` runs the field-of-values
analysis.  Exit code 0 on full success, 2 if any row failed to converge
(analyze: if any distance is not certified or any envelope check is
violated), 1 on error.  run and solve print a row's notes (inner-solve
failures, a true residual above 2x the tolerance) to stderr, converged or
not; they do not change the exit code."""

import argparse
import sys

from .assembly import write_matrix_market
from .decomposition import dump_decomposition
from .harness import (PRESETS, ExperimentConfig, NestingSpec, build_problem,
                      emit_results, run_table, solve_problem)
from .mesh import MESH_RULES, dump_mesh
from .precond import KINDS


def _parse_k_list(text):
    return [float(t) for t in text.split(",") if t]


def _add_common(p):
    p.add_argument("--tol", type=float, default=1e-6, help="outer relative tolerance")
    p.add_argument("--inner-tol", type=float, default=0.5, help="nested-solve tolerance")
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--allow-large", action="store_true",
                   help="lift the desk-scale size caps")


def build_parser():
    ap = argparse.ArgumentParser(prog="helmdd",
                                 description="Helmholtz domain-decomposition experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a table preset")
    runp.add_argument("--preset", required=True, choices=PRESETS)
    runp.add_argument("--k", required=True, help="comma-separated wavenumbers")
    runp.add_argument("--out", required=True)
    runp.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(runp)

    sol = sub.add_parser("solve", help="run one configuration")
    sol.add_argument("--k", type=float, required=True)
    sol.add_argument("--mesh-rule", default="pollution_free", choices=MESH_RULES)
    sol.add_argument("--mesh-cells", type=int, default=None)
    sol.add_argument("--precond", default="HRAS", choices=KINDS)
    sol.add_argument("--alpha", type=float, default=1.0)
    sol.add_argument("--beta", type=float, default=1.0)
    sol.add_argument("--scenario", default="constant",
                     choices=("constant", "centered-square", "shifted-square"))
    sol.add_argument("--c-star", type=float, default=1.0)
    sol.add_argument("--rhs", default="plane_wave", choices=("plane_wave", "ones"))
    sol.add_argument("--shift-family", default=None,
                     choices=("additive", "multiplicative"))
    sol.add_argument("--eps-prob-beta", type=float, default=None)
    sol.add_argument("--nested", default=None, choices=("coarse", "local"))
    sol.add_argument("--alpha-inner", type=float, default=None)
    sol.add_argument("--out", default=None, help="also write the row here (csv)")
    sol.add_argument("--dump-mesh", default=None)
    sol.add_argument("--dump-matrix", default=None, help="Matrix Market dump of A")
    sol.add_argument("--dump-decomposition", default=None)
    _add_common(sol)

    ana = sub.add_parser("analyze", help="field-of-values analysis sweep")
    ana.add_argument("--k", required=True, help="comma-separated wavenumbers")
    ana.add_argument("--alpha", type=float, default=1.0)
    ana.add_argument("--beta", type=float, default=None,
                     help="absorption exponent; omit for eps = k^2")
    ana.add_argument("--precond", default="AS", choices=KINDS)
    ana.add_argument("--sides", default="left,right")
    ana.add_argument("--envelope", action="store_true",
                     help="also test the GMRES convergence envelope")
    ana.add_argument("--angles", type=int, default=256,
                     help="starting theta grid of the FOV sweep; values below "
                          "256 sweep 256 angles")
    ana.add_argument("--out", default=None)
    return ap


def _cmd_run(args):
    ks = _parse_k_list(args.k)
    rows = run_table(args.preset, ks, rel_tol=args.tol, inner_tol=args.inner_tol,
                     max_iters=args.max_iters, allow_large=args.allow_large,
                     progress=lambda c: print(
                         f"running {c.preset} k={c.k} {c.precond} alpha={c.alpha} "
                         f"beta={c.beta}", file=sys.stderr))
    emit_results(rows, args.out, fmt=args.format)
    for r in rows:
        where = f"k={r.k} {r.precond} alpha={r.alpha} beta={r.beta}"
        if not r.converged:
            print(f"not converged: {where} ({r.error or 'hit the iteration cap'})",
                  file=sys.stderr)
        elif r.error:  # inner failures, true-residual excess
            print(f"warning: {where} ({r.error})", file=sys.stderr)
    return 0 if all(r.converged for r in rows) else 2


def _cmd_solve(args):
    if args.alpha_inner is not None and args.nested is None:
        raise ValueError("--alpha-inner needs --nested")
    nesting = None
    if args.nested is not None:
        # an explicit 0 is valid: k^0 = 1, a single inner block
        alpha_inner = args.alpha_inner
        if alpha_inner is None:
            alpha_inner = 0.5 if args.nested == "coarse" else 0.8
        nesting = NestingSpec(target=args.nested, alpha_inner=alpha_inner)
    family = args.shift_family or (
        "multiplicative" if args.scenario != "constant" else "additive")
    cfg = ExperimentConfig(
        k=args.k, preset="custom", mesh_rule=args.mesh_rule, mesh_cells=args.mesh_cells,
        scenario=args.scenario, c_star=args.c_star, shift_family=family,
        eps_prob_beta=args.eps_prob_beta, precond=args.precond, alpha=args.alpha,
        beta=args.beta, nesting=nesting, rhs=args.rhs, rel_tol=args.tol,
        inner_tol=args.inner_tol, max_iters=args.max_iters, allow_large=args.allow_large)
    problem = build_problem(cfg)
    if args.dump_mesh:
        with open(args.dump_mesh, "w") as f:
            dump_mesh(problem.mesh, f)
    if args.dump_matrix:
        write_matrix_market(problem.A_sys, args.dump_matrix)
    if args.dump_decomposition:
        with open(args.dump_decomposition, "w") as f:
            dump_decomposition(problem.decomp, f)
    row = solve_problem(cfg, problem)
    emit_results([row], sys.stdout, fmt="csv")
    if row.error:  # inner failures, true-residual excess; not a column
        print(f"warning: {row.error}", file=sys.stderr)
    if args.out:
        emit_results([row], args.out, fmt="csv")
    return 0 if row.converged else 2


def _cmd_analyze(args):
    from .analysis import rows_to_csv, scaling_sweep

    ks = _parse_k_list(args.k)
    sides = tuple(s for s in args.sides.split(",") if s)
    sweep = scaling_sweep(ks, beta=args.beta,
                          eps_rule="ksq" if args.beta is None else "k^beta",
                          alpha=args.alpha, kind=args.precond, sides=sides,
                          angles=args.angles, envelope=args.envelope)
    if args.out:
        with open(args.out, "w", newline="") as f:
            rows_to_csv(sweep["rows"], f)
    else:
        rows_to_csv(sweep["rows"], sys.stdout)
    for name, slope in sweep["slopes"].items():
        print(f"slope {name} = {slope:.3f}", file=sys.stderr)
    failed = [r for r in sweep["rows"] if not r["certified"]
              or r.get("envelope", {}).get("status") == "violated"]
    for r in failed:
        what = "envelope violated" if r["certified"] else "not certified"
        print(f"{what}: {r['tag']} k={r['k']} eps={r['eps']}", file=sys.stderr)
    return 2 if failed else 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_analyze(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
