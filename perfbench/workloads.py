"""Benchmark workloads, each run phase by phase through helmdd's public API.

A solve workload follows `harness.run_experiment` step by step (mesh ->
assembly -> decomposition -> precond -> krylov) so each phase is timed at its
boundary and the workload seed can supply the right-hand side.  The FOV
workload runs the dense analysis of `analysis.scaling_sweep` for one k.

Seed 0 uses each configuration's documented right-hand side and is gated on
the pinned values below; any other seed draws a complex normal load vector
from the seed and is gated on convergence, true residual and certification.
"""

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from helmdd import analysis, assembly, decomposition, harness, krylov, mesh, precond

from hostspeed import Clock
from spans import TracedMatvec, TracedPreconditioner


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: harness.ExperimentConfig = None  # solve workloads
    fov_k: float = None                      # the FOV workload
    pinned: dict = field(default_factory=dict)  # exact seed-0 values


WORKLOADS = {w.name: w for w in (
    Workload(
        "hras-pf-k30",
        "HRAS, pollution-free mesh, alpha=1: 900 tiny Dirichlet subdomains; "
        "per-call local LU factor/solve overhead dominates setup and solve",
        config=harness.ExperimentConfig(
            k=30, mesh_rule="pollution_free", precond="HRAS", alpha=1.0, beta=1.0,
            rhs="ones"),
        pinned={"outer_iters": 14}),
    Workload(
        "imphras-ppw-k100",
        "ImpHRAS, 10 points/wavelength, alpha=0.5: 100 large sparse impedance "
        "factors and a 43-vector Arnoldi basis; SuperLU solves and orthogonalisation",
        config=harness.ExperimentConfig(
            k=100, mesh_rule="points_per_wavelength", precond="ImpHRAS", alpha=0.5,
            beta=1.0, rhs="ones"),
        pinned={"outer_iters": 43}),
    Workload(
        "nested-local-ppw-k30",
        "table5 ImpRAS1 with nested local GMRES: about a thousand short inner "
        "solves and tens of thousands of block solves; Python per-call overhead",
        config=harness.ExperimentConfig(
            k=30, preset="table5_multilevel", mesh_rule="points_per_wavelength",
            precond="ImpRAS1", alpha=0.4, beta=1.2, rhs="ones",
            nesting=harness.NestingSpec(target="local", alpha_inner=0.8)),
        pinned={"outer_iters": 32, "inner_iters_avg": 2.41015625}),
    Workload(
        "fov-hras-k8",
        "dense FOV of HRAS, alpha=1, eps=k^2 (n=625, subspace-sweep path): "
        "to_dense plus thousands of small dense eigensolves and ARPACK",
        fov_k=8.0,
        pinned={"outer_iters": 19, "dist_left": 0.7558151584949326,
                "dist_right": 0.7636798477441101}),
)}

DIST_RTOL = 1e-6


@dataclass
class Outcome:
    """One repetition: phase times, counts, and every failed check.  The times
    exclude the host-speed probes; norm holds them normalised to the reference
    host speed (keys setup_s, solve_s, total_s) when the clock was probed."""

    setup_s: float
    solve_s: float
    total_s: float
    n: int
    outer_iters: int
    final_relres: float = None
    inner_counts: list = field(default_factory=list)
    inner_failures: int = 0
    dists: tuple = None
    failures: list = field(default_factory=list)
    norm: dict = None


def phase_times(clock):
    """(raw, normalised) {setup_s, solve_s, total_s} of a clock whose first
    segment is the set-up; normalised is None for an unprobed clock."""
    def sums(segments):
        return {"setup_s": segments[0], "solve_s": sum(segments[1:]),
                "total_s": sum(segments)}
    norm = clock.normalised()
    return sums(clock.segments), norm and sums(norm)


def seeded_load(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _additive_shifts(cfg):
    if cfg.shift_family != "additive" or cfg.eps_prob_beta is not None:
        raise ValueError("benchmark workloads use the unabsorbed additive family")
    return 0.0, float(cfg.k) ** cfg.beta


def build_solve(cfg):
    """Mesh, assembly, decomposition and preconditioner of one configuration,
    built the way run_experiment builds them; returns (mesh, A_sys, P)."""
    if cfg.scenario != "constant" or cfg.anchor_square:
        raise ValueError("benchmark workloads use constant wave speed")
    k = float(cfg.k)
    m = mesh.cells_for_rule(k, cfg.mesh_rule, m=cfg.mesh_cells)
    fine = mesh.build_fine_mesh(k, "explicit", m=m)
    layout = mesh.build_coarse_layout(fine, k, cfg.alpha)
    ws = mesh.build_wavespeed(fine, "constant")

    shift_prob, shift_prec = _additive_shifts(cfg)
    coeff_prob = assembly.AssemblyCoefficients(
        omega=k, wavespeed=ws, shift_mode="additive_eps", shift_value=shift_prob)
    coeff_prec = assembly.AssemblyCoefficients(
        omega=k, wavespeed=ws, shift_mode="additive_eps", shift_value=shift_prec)
    A_sys = assembly.assemble_system(fine, coeff_prob)
    A_prec = A_sys if shift_prec == shift_prob else assembly.assemble_system(fine, coeff_prec)

    decomp = decomposition.build_decomposition(fine, layout)

    nested_local = None
    if cfg.nesting is not None:
        if cfg.nesting.target != "local":
            raise ValueError("benchmark workloads nest local solves only")
        nested_local = dict(k=k, alpha_inner=cfg.nesting.alpha_inner,
                            tol=cfg.inner_tol, max_iters=cfg.nesting.max_iters)
    P = precond.build_preconditioner(
        cfg.precond, mesh=fine, decomp=decomp, A_prec=A_prec, coeff_prec=coeff_prec,
        system_matrix=A_sys, nested_local=nested_local, threads=cfg.threads)
    return fine, A_sys, P


def run_solve(cfg, seed, tracer=None, clock=None):
    """Build and solve one configuration; the Krylov report's true residual
    is the verification, as in run_experiment.  The solve phase is the
    right-hand side and the Krylov call."""
    clock = clock or Clock()
    clock.start()
    fine, A_sys, P = build_solve(cfg)
    clock.lap()

    b = harness.build_rhs(fine, cfg.rhs, float(cfg.k), system=A_sys) if seed == 0 \
        else seeded_load(fine.n, seed)
    kcfg = krylov.KrylovConfig(variant="fgmres" if P.flexible else "gmres",
                               side="right", rel_tol=cfg.rel_tol, max_iters=cfg.max_iters)
    A_in = A_sys if tracer is None else TracedMatvec(A_sys, tracer)
    P_in = P if tracer is None else TracedPreconditioner(P, tracer)
    solver = krylov.fgmres if P.flexible else krylov.gmres
    x, rep = solver(A_in, P_in, b, kcfg)
    clock.lap()

    raw, norm = phase_times(clock)
    out = Outcome(**raw, n=fine.n, outer_iters=rep.iterations,
                  final_relres=rep.true_relres, norm=norm,
                  inner_counts=P.inner_counts(), inner_failures=P.inner_failures())
    if not rep.converged:
        out.failures.append(f"no convergence in {cfg.max_iters} iterations")
    if not rep.true_relres <= 2 * cfg.rel_tol:
        out.failures.append(f"true relres {rep.true_relres:.3e} above 2*rel_tol")
    return out


def build_fov(k):
    return analysis.preconditioned_operator(k, eps=k ** 2, alpha=1.0, kind="HRAS")


def run_fov(k, seed, clock=None):
    """Left/right FOV estimates of HRAS at eps=k^2 and the GMRES envelope
    check, each a segment of the solve phase."""
    clock = clock or Clock()
    clock.start()
    ops = build_fov(k)
    clock.lap()
    left = analysis.fov_distance(ops["left"], ops["D"], weight="D", tag="HRAS-left")
    clock.lap()
    right = analysis.fov_distance(ops["right"], ops["D"], weight="Dinv", tag="HRAS-right")
    clock.lap()
    b = None if seed == 0 else seeded_load(ops["A"].shape[0], seed)
    chk = analysis.check_gmres_bound(ops["left"], ops["D"], b, est=left, tag="HRAS-left")
    clock.lap()

    raw, norm = phase_times(clock)
    out = Outcome(**raw, n=ops["A"].shape[0], outer_iters=chk.get("iterations", 0),
                  dists=(left.dist_to_origin, right.dist_to_origin), norm=norm)
    for est in (left, right):
        if not est.certified:
            out.failures.append(f"{est.tag} not certified")
    if chk["status"] != "ok":
        out.failures.append(f"GMRES envelope {chk['status']}")
    return out


def setup_once(workload, clock):
    """The set-up phase of a workload alone (its objects are dropped), timed
    by clock as one segment."""
    clock.start()
    if workload.config is not None:
        build_solve(workload.config)
    else:
        build_fov(workload.fov_k)
    clock.lap()
    return clock


def run_once(workload, seed, tracer=None, clock=None):
    """One repetition of a workload, with the seed-0 pins checked; tracer, if
    given, records the repetition as a bench.run span."""
    with tracer.span("bench.run") if tracer else contextlib.nullcontext():
        if workload.config is not None:
            out = run_solve(workload.config, seed, tracer, clock)
        else:
            out = run_fov(workload.fov_k, seed, clock)
    if seed == 0:
        check_pins(workload, out)
    return out


def check_pins(workload, out):
    pins = workload.pinned
    if out.outer_iters != pins["outer_iters"]:
        out.failures.append(f"outer_iters {out.outer_iters} != {pins['outer_iters']}")
    if "inner_iters_avg" in pins:
        avg = float(np.mean(out.inner_counts)) if out.inner_counts else None
        if avg != pins["inner_iters_avg"]:
            out.failures.append(f"inner_iters_avg {avg} != {pins['inner_iters_avg']}")
    for side, dist in zip(("left", "right"), out.dists or ()):
        want = pins[f"dist_{side}"]
        if not math.isclose(dist, want, rel_tol=DIST_RTOL, abs_tol=0.0):
            out.failures.append(f"dist_{side} {dist!r} != {want!r}")
