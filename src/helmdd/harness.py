"""Experiment driver: the reference experiment tables as presets, right-hand
sides, single runs, and CSV/JSON result emission.

All presets solve the pure (unabsorbed) Helmholtz system except table2, which
adds the same absorption to problem and preconditioner.  Tables 1-3 use the
plane-wave right-hand side, the rest the all-ones vector.  A "*" (no
convergence within the iteration cap) is serialised as outer_iters = -1 with
converged false.  Reported inner iterations are the average count per inner
solve of one column (one inner GMRES call solves a class's columns in
lockstep, each with its own count).
"""

import contextlib
import csv
import json
import os
import time
from dataclasses import dataclass, field, fields
from typing import ClassVar, Optional

import numpy as np

from .assembly import AssemblyCoefficients, assemble_systems
from .decomposition import Decomposition, build_decomposition, overlap_layers
from .krylov import KrylovConfig, gmres
from .mesh import (DegenerateLayoutError, FineMesh, build_coarse_layout,
                   build_fine_mesh, build_wavespeed, cells_for_rule, layout_from_blocks,
                   snapped_square_indices)
from .precond import build_preconditioner

PRESETS = ("table1", "table2", "table3", "table4", "table5_multilevel",
           "table6_variable")

LARGE_K_CAP = 60          # pollution-free runs above this need allow_large
MEMORY_BUDGET_BYTES = int(3.5e9)


class ExperimentError(RuntimeError):
    """Configuration refused before any heavy work (size/memory guards)."""


@dataclass(frozen=True)
class NestingSpec:
    target: str              # "coarse" (inner solve of the coarse problem)
    alpha_inner: float       # or "local" (inner solves of the local problems)
    max_iters: int = 200     # the inner tolerance is ExperimentConfig.inner_tol


@dataclass
class ExperimentConfig:
    k: float
    preset: str = "custom"
    mesh_rule: str = "pollution_free"
    mesh_cells: int = None          # explicit rule only
    scenario: str = "constant"
    c_star: float = 1.0
    anchor_square: bool = False     # coarse grid forced through the square
    shift_family: str = "additive"  # additive eps = k^beta | multiplicative rho = k^(beta-2)
    eps_prob_beta: float = None     # problem absorption exponent (table2 only)
    precond: str = "HRAS"
    alpha: float = 1.0
    beta: float = 1.0
    nesting: NestingSpec = None
    rhs: str = "plane_wave"
    rel_tol: float = 1e-6
    inner_tol: float = 0.5
    max_iters: int = 200
    # local solves run on one thread; kept only for perfbench/workloads.build_solve,
    # which reads it (a ClassVar, so not a constructor argument)
    threads: ClassVar[int] = 1
    allow_large: bool = False


@dataclass(kw_only=True)
class ResultRow:
    """One result row.  Its fields but error are the output columns, in this
    order; the defaults are the row of a configuration that never ran."""

    preset: str
    k: float
    n: int = 0
    mesh_rule: str
    precond: str
    alpha: float
    beta: float
    scenario: str
    c_star: float
    outer_iters: int = -1            # -1 encodes "*"
    inner_iters_avg: Optional[float] = None  # None when there is no inner iteration
    converged: bool = False
    time_total_s: float = 0.0
    time_per_iter_s: float = 0.0
    final_relres: float = float("nan")
    degenerate_overlap: bool = False  # a decomposition, or a nested one, without overlap
    time_setup_s: float = 0.0        # wall time of build_problem + build_preconditioner
    error: str = field(default=None, compare=False)  # not serialised


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow) if f.name != "error")


def plane_wave_interpolant(mesh, k):
    """Nodal interpolant of exp(i k x . d) with d = (1, 0)."""
    return np.exp(1j * k * mesh.nodes[:, 0])


def build_rhs(mesh, kind, k, system=None):
    """ones: the all-ones load vector.  plane_wave: f = A u_I so that the
    interpolated plane wave is the exact discrete solution."""
    if kind == "ones":
        return np.ones(mesh.n, dtype=np.complex128)
    if kind == "plane_wave":
        if system is None:
            raise ValueError("plane_wave right-hand side needs the system matrix")
        return system @ plane_wave_interpolant(mesh, k)
    raise ValueError(f"unknown rhs kind {kind!r}")


def _check_budget(cfg, m):
    if cfg.mesh_rule == "pollution_free" and cfg.k > LARGE_K_CAP and not cfg.allow_large:
        raise ExperimentError(
            f"pollution_free at k={cfg.k} exceeds the desk-scale cap "
            f"{LARGE_K_CAP}; pass allow_large to run it")
    n = (m + 1) ** 2
    # basis term: the Krylov basis's virtual allocation, max_iters rows (x2 under FGMRES)
    basis = 2 if (cfg.nesting is not None) else 1
    est = n * cfg.max_iters * 16 * basis + n * 9 * 16 * 4
    if est > MEMORY_BUDGET_BYTES and not cfg.allow_large:
        raise ExperimentError(
            f"estimated {est / 1e9:.1f} GB for n={n} exceeds the memory budget")


def _refuse_unused_settings(cfg):
    """ValueError for a setting the configuration cannot use: a run would
    otherwise drop it and report a configuration it did not solve."""
    if cfg.mesh_cells is not None and cfg.mesh_rule != "explicit":
        raise ValueError(f"mesh_cells needs the explicit mesh rule, not {cfg.mesh_rule!r}")
    if cfg.c_star != 1.0 and cfg.scenario == "constant":
        raise ValueError(f"c_star={cfg.c_star} needs a square scenario, not constant")
    if cfg.eps_prob_beta is not None and cfg.shift_family == "multiplicative":
        raise ValueError("eps_prob_beta needs the additive shift family, not multiplicative")


def _anchored_layout(mesh, k, alpha, anchors):
    """Interface-resolving coarse layout: picks the cell count nearest
    ceil(k^alpha) for which forcing the square's gridlines into the grid still
    leaves enough width for overlapping subdomains."""
    M0 = max(1, round(float(k) ** alpha))
    fallback = None
    for dM in (0, 1, -1, 2, -2, 3, -3):
        M = M0 + dM
        if not 1 <= M <= mesh.m:
            continue
        try:
            layout = layout_from_blocks(mesh, M, anchors_x=anchors, anchors_y=anchors)
        except DegenerateLayoutError:
            continue
        if layout.g_min >= 3:
            return layout
        fallback = fallback or layout
    if fallback is None:
        raise ExperimentError(f"no viable interface-resolving layout near M={M0}")
    return fallback


def _shift_values(cfg):
    """(family, prob_value, prec_value) of the absorption shifts."""
    if cfg.shift_family == "additive":
        prob = 0.0 if cfg.eps_prob_beta is None else float(cfg.k) ** cfg.eps_prob_beta
        return "additive_eps", prob, float(cfg.k) ** cfg.beta
    if cfg.shift_family == "multiplicative":
        return "multiplicative_rho", 0.0, float(cfg.k) ** (cfg.beta - 2.0)
    raise ValueError(f"unknown shift family {cfg.shift_family!r}")


def _config_columns(cfg):
    """The eight columns a configuration names, the same whether its row ran
    or recorded an error: the scenario is constant whenever c_star = 1."""
    scenario = "constant" if cfg.c_star == 1.0 else cfg.scenario.replace("_", "-")
    return dict(preset=cfg.preset, k=float(cfg.k), mesh_rule=cfg.mesh_rule,
                precond=cfg.precond, alpha=cfg.alpha, beta=cfg.beta, scenario=scenario,
                c_star=cfg.c_star if scenario != "constant" else 1.0)


@dataclass
class Problem:
    """The objects one configuration is solved with; scenario is the
    normalised wave-speed scenario name, build_s the wall time of building
    them."""

    mesh: FineMesh
    decomp: Decomposition
    scenario: str
    coeff_prec: AssemblyCoefficients
    A_sys: object
    A_prec: object
    build_s: float


def build_problem(cfg):
    """Mesh, decomposition (with its coarse layout), wave speed and the system
    and preconditioner matrices of one configuration (after the size guards)."""
    t0 = time.perf_counter()
    _refuse_unused_settings(cfg)
    k = float(cfg.k)
    m = cells_for_rule(k, cfg.mesh_rule, m=cfg.mesh_cells)
    _check_budget(cfg, m)
    mesh = build_fine_mesh(k, "explicit", m=m)

    if cfg.anchor_square:
        ax0, ax1, _, _ = snapped_square_indices(mesh)
        layout = _anchored_layout(mesh, k, cfg.alpha, (ax0, ax1))
    else:
        layout = build_coarse_layout(mesh, k, cfg.alpha)
    scenario = _config_columns(cfg)["scenario"].replace("-", "_")
    # the shifted square moves north-west by the decomposition's overlap
    offset = (overlap_layers(layout.breaks_x, layout.breaks_y)
              if scenario == "shifted_square" else 0)
    ws = build_wavespeed(mesh, scenario, c_star=cfg.c_star, offset=offset)

    family, shift_prob, shift_prec = _shift_values(cfg)
    coeff_prob = AssemblyCoefficients(omega=k, wavespeed=ws, shift_mode=family,
                                      shift_value=shift_prob)
    coeff_prec = AssemblyCoefficients(omega=k, wavespeed=ws, shift_mode=family,
                                      shift_value=shift_prec)
    # assembled first: the decomposition's R0 is not alive through the
    # assembly's peak
    A_sys, A_prec = assemble_systems(mesh, coeff_prob, (shift_prob, shift_prec))
    decomp = build_decomposition(mesh, layout)
    return Problem(mesh, decomp, scenario, coeff_prec, A_sys, A_prec,
                   time.perf_counter() - t0)


def solve_problem(cfg, problem):
    """Build the preconditioner of a built problem, run the Krylov solve,
    verify the true residual."""
    k = float(cfg.k)
    mesh, A_sys = problem.mesh, problem.A_sys
    nested = {}
    if cfg.nesting is not None:
        target = cfg.nesting.target
        if target not in ("coarse", "local"):
            raise ValueError(f"unknown nesting target {target!r}")
        nested["nested_" + target] = dict(k=k, alpha_inner=cfg.nesting.alpha_inner,
                                          tol=cfg.inner_tol, max_iters=cfg.nesting.max_iters)

    t0 = time.perf_counter()
    P = build_preconditioner(cfg.precond, mesh=mesh, decomp=problem.decomp,
                             A_prec=problem.A_prec, coeff_prec=problem.coeff_prec,
                             system_matrix=A_sys, **nested)
    setup_s = problem.build_s + time.perf_counter() - t0
    b = build_rhs(mesh, cfg.rhs, k, system=A_sys)

    kcfg = KrylovConfig(variant="fgmres" if P.flexible else "gmres", side="right",
                        rel_tol=cfg.rel_tol, max_iters=cfg.max_iters)
    t0 = time.perf_counter()
    x, rep = gmres(A_sys, P, b, kcfg)
    elapsed = time.perf_counter() - t0

    inner = P.inner_counts()
    inner_avg = float(np.mean(inner)) if inner else None
    failures = P.inner_failures()
    notes = []
    if failures:
        notes.append(f"inner solves failed to converge {failures} time(s)")
    if rep.converged and rep.true_relres > 2 * cfg.rel_tol:
        notes.append(f"true residual {rep.true_relres:.3e} above 2x rel_tol")
    err = "; ".join(notes) or None
    return ResultRow(
        **_config_columns(cfg), n=mesh.n,
        outer_iters=rep.iterations if rep.converged else -1,
        inner_iters_avg=inner_avg, converged=rep.converged,
        time_total_s=elapsed,
        time_per_iter_s=elapsed / max(rep.iterations, 1),
        final_relres=rep.true_relres,
        degenerate_overlap=problem.decomp.degenerate_overlap or any(
            s.degenerate_overlap for s in P.nested),
        time_setup_s=setup_s, error=err)


def run_experiment(cfg):
    """Build and solve one configuration."""
    return solve_problem(cfg, build_problem(cfg))


# ---------------------------------------------------------------------------
# presets


def _preset_table1(k):
    out = []
    for alpha in (1.0, 0.6):
        for beta in (1.0, 1.2, 2.0):
            for kind in ("HRAS", "RAS1", "ImpHRAS", "ImpRAS1"):
                out.append(ExperimentConfig(
                    k=k, preset="table1", mesh_rule="pollution_free", precond=kind,
                    alpha=alpha, beta=beta, rhs="plane_wave"))
    return out


def _preset_table2(k):
    return [ExperimentConfig(k=k, preset="table2", mesh_rule="points_per_wavelength",
                             precond=kind, alpha=0.5, beta=1.2, eps_prob_beta=1.2,
                             rhs="plane_wave")
            for kind in ("ImpHRAS", "ImpRAS1")]


def _preset_table3(k):
    return [ExperimentConfig(k=k, preset="table3", mesh_rule="pollution_free",
                             precond="HRAS", alpha=1.0, beta=beta, rhs="plane_wave",
                             nesting=NestingSpec(target="coarse", alpha_inner=0.5))
            for beta in (0.0, 0.4, 0.8, 1.0, 1.2, 1.6, 2.0)]


def _preset_table4(k):
    return [ExperimentConfig(k=k, preset="table4", mesh_rule="points_per_wavelength",
                             precond=kind, alpha=alpha, beta=1.0, rhs="ones")
            for kind in ("ImpRAS1", "ImpHRAS") for alpha in (0.5, 0.4)]


def _preset_table5(k):
    return [ExperimentConfig(k=k, preset="table5_multilevel",
                             mesh_rule="points_per_wavelength", precond="ImpRAS1",
                             alpha=0.4, beta=beta, rhs="ones",
                             nesting=NestingSpec(target="local", alpha_inner=0.8))
            for beta in (1.2, 1.6)]


def _preset_table6(k):
    out = []
    for c_star in (1.5, 1.0, 0.66):
        squares = ("centered-square", "shifted-square") if c_star != 1.0 \
            else ("centered-square",)
        for scenario in squares:
            for beta in (1.0, 1.2, 1.6, 1.8):
                out.append(ExperimentConfig(
                    k=k, preset="table6_variable", mesh_rule="pollution_free",
                    scenario=scenario, c_star=c_star,
                    anchor_square=True, shift_family="multiplicative",
                    precond="HRAS", alpha=1.0, beta=beta, rhs="ones",
                    nesting=NestingSpec(target="coarse", alpha_inner=0.5)))
    return out


_PRESET_BUILDERS = {
    "table1": _preset_table1,
    "table2": _preset_table2,
    "table3": _preset_table3,
    "table4": _preset_table4,
    "table5_multilevel": _preset_table5,
    "table6_variable": _preset_table6,
}


def expand_preset(preset, k_values, **overrides):
    if preset not in _PRESET_BUILDERS:
        raise ValueError(f"unknown preset {preset!r}; choose from {PRESETS}")
    unknown = sorted(set(overrides) - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ValueError(f"unknown ExperimentConfig field(s) {unknown}")
    cfgs = []
    for k in k_values:
        for cfg in _PRESET_BUILDERS[preset](float(k)):
            for key, val in overrides.items():
                setattr(cfg, key, val)
            cfgs.append(cfg)
    return cfgs


def run_table(preset, k_values, progress=None, **overrides):
    """Run every configuration of a preset; per-row errors are recorded in the
    row and the run continues."""
    rows = []
    for cfg in expand_preset(preset, k_values, **overrides):
        if progress:
            progress(cfg)
        try:
            rows.append(run_experiment(cfg))
        except Exception as exc:  # noqa: BLE001 - per-row error capture
            rows.append(ResultRow(**_config_columns(cfg),
                                  error=f"{type(exc).__name__}: {exc}"))
    return rows


# ---------------------------------------------------------------------------
# emission


_COLUMN_TYPES = {f.name: f.type for f in fields(ResultRow)}
_FORMATS = ("csv", "json")


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return "" if v is None else v


def _from_cell(tp, x):
    """A column value read back by its field's type: an empty or null cell is
    None for Optional[float] and NaN for float."""
    if tp is bool:
        return x if isinstance(x, bool) else x.lower() == "true"
    if tp in (float, Optional[float]):
        if x is None or x == "":
            return float("nan") if tp is float else None
        return float(x)
    return tp(x)


def _opened(target, mode):
    """target opened when it is a path (str, bytes or os.PathLike); a file
    object is used as it is."""
    if isinstance(target, (str, bytes, os.PathLike)):
        return open(target, mode, newline="")
    return contextlib.nullcontext(target)


def emit_results(rows, target, fmt="csv"):
    """Write rows in the fixed column order; target is a path or file object.
    The format is checked before anything is opened or written."""
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if not rows:
        raise ValueError("no rows to emit")
    records = [[getattr(row, c) for c in RESULT_COLUMNS] for row in rows]
    with _opened(target, "w") as fobj:
        if fmt == "csv":
            w = csv.writer(fobj)
            w.writerow(RESULT_COLUMNS)
            w.writerows([_csv_cell(v) for v in rec] for rec in records)
        else:  # JSON has no NaN: it is written as null
            json.dump([{c: None if v != v else v for c, v in zip(RESULT_COLUMNS, rec)}
                       for rec in records], fobj, indent=1)


def parse_results(source, fmt="csv"):
    """Read back rows emitted by emit_results."""
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    with _opened(source, "r") as fobj:
        recs = csv.DictReader(fobj) if fmt == "csv" else json.load(fobj)
        return [ResultRow(**{c: _from_cell(_COLUMN_TYPES[c], rec[c]) for c in RESULT_COLUMNS})
                for rec in recs]
