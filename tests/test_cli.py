import subprocess
import sys

import numpy as np
import pytest
from scipy.io import mmread

from helmdd.assembly import AssemblyCoefficients, assemble_system
from helmdd import cli
from helmdd.cli import main
from helmdd.harness import parse_results
from helmdd.mesh import build_fine_mesh, build_wavespeed


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_prints_row(capsys):
    code, out, _ = run_cli(["solve", "--k", "10", "--mesh-rule",
                            "points_per_wavelength", "--precond", "ImpRAS1",
                            "--alpha", "0.5", "--beta", "1", "--rhs", "ones"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("preset,k,n,")
    assert ",true," in lines[1]


def test_run_preset_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "t2.csv"
    code, _, _ = run_cli(["run", "--preset", "table2", "--k", "20",
                          "--out", str(out_path)], capsys)
    assert code == 0
    rows = parse_results(str(out_path))
    assert len(rows) == 2 and all(r.converged for r in rows)


def test_run_preset_json_and_nonconvergence_exit_code(tmp_path, capsys):
    out_path = tmp_path / "t2.json"
    code, _, err = run_cli(["run", "--preset", "table2", "--k", "20",
                            "--out", str(out_path), "--format", "json",
                            "--max-iters", "4"], capsys)
    assert code == 2
    rows = parse_results(str(out_path), fmt="json")
    assert all(r.outer_iters == -1 and not r.converged for r in rows)
    assert "not converged" in err


def test_error_exit_code(capsys):
    code, _, err = run_cli(["solve", "--k", "70", "--mesh-rule", "pollution_free",
                            "--precond", "HRAS", "--alpha", "1", "--beta", "1"],
                           capsys)
    assert code == 1
    assert "error:" in err


def test_solve_dumps(tmp_path, capsys):
    mesh_p = tmp_path / "mesh.txt"
    mat_p = tmp_path / "a.mtx"
    dec_p = tmp_path / "dec.txt"
    code, _, _ = run_cli(["solve", "--k", "8", "--mesh-rule", "points_per_wavelength",
                          "--precond", "HRAS", "--alpha", "0.5", "--beta", "1",
                          "--rhs", "ones",
                          "--dump-mesh", str(mesh_p), "--dump-matrix", str(mat_p),
                          "--dump-decomposition", str(dec_p)], capsys)
    assert code == 0
    assert mesh_p.read_text().startswith("nodes\n")
    assert mat_p.read_text().startswith("%%MatrixMarket matrix coordinate complex general")
    first = dec_p.read_text().splitlines()[0].split()
    assert len(first) == 6


def _shifted_square_coeff(mesh):
    # k=6, alpha=1: 6 coarse cells of 4 fine cells, so (4-1)//2 = 1 overlap layer
    ws = build_wavespeed(mesh, "shifted-square", c_star=1.5, offset=1)
    return AssemblyCoefficients(omega=6.0, wavespeed=ws, shift_mode="multiplicative_rho",
                                shift_value=0.0)


def _absorbed_coeff(mesh):
    return AssemblyCoefficients(omega=6.0, wavespeed=build_wavespeed(mesh, "constant"),
                                shift_mode="additive_eps", shift_value=6.0 ** 1.2)


@pytest.mark.parametrize("extra, coeff", [
    (["--scenario", "shifted-square", "--c-star", "1.5"], _shifted_square_coeff),
    (["--eps-prob-beta", "1.2"], _absorbed_coeff),
], ids=["shifted-square", "eps-prob-beta"])
def test_dumped_matrix_is_the_solved_system(tmp_path, capsys, extra, coeff):
    mat_p = tmp_path / "a.mtx"
    code, _, _ = run_cli(["solve", "--k", "6", "--mesh-rule", "explicit",
                          "--mesh-cells", "24", "--rhs", "ones",
                          "--dump-matrix", str(mat_p), *extra], capsys)
    assert code == 0
    mesh = build_fine_mesh(6, "explicit", m=24)
    expected = assemble_system(mesh, coeff(mesh)).toarray()
    dumped = mmread(str(mat_p)).toarray()
    assert np.abs(dumped - expected).max() <= 1e-12 * np.abs(expected).max()


def test_analyze_writes_rows(tmp_path, capsys):
    out_path = tmp_path / "fov.csv"
    code, _, _ = run_cli(["analyze", "--k", "4", "--alpha", "1.0",
                          "--precond", "AS", "--sides", "left",
                          "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "tag,k,eps,H,dist,norm,beta,certified,max_ratio"
    assert lines[1].startswith("AS-left,4")


def test_analyze_refuses_unknown_side(tmp_path, capsys):
    out_path = tmp_path / "fov.csv"
    code, _, err = run_cli(["analyze", "--k", "4", "--sides", "left,rigth",
                            "--out", str(out_path)], capsys)
    assert code == 1
    assert "rigth" in err
    assert not out_path.exists()


def test_threads_option_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["solve", "--k", "6", "--threads", "2"])
    assert exc.value.code == 2


def test_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "helmdd.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "solve" in proc.stdout and "analyze" in proc.stdout


@pytest.mark.parametrize("target", ["coarse", "local"])
def test_solve_keeps_explicit_alpha_inner_zero(target, monkeypatch, capsys):
    # k^0 = 1: a single inner block, a valid setting and not the default
    seen = []

    def capture(cfg, problem):
        seen.append(cfg)
        raise RuntimeError("configuration captured")

    monkeypatch.setattr(cli, "solve_problem", capture)
    code, _, _ = run_cli(["solve", "--k", "10", "--mesh-rule", "points_per_wavelength",
                          "--precond", "ImpHRAS", "--alpha", "0.5", "--nested", target,
                          "--alpha-inner", "0"], capsys)
    assert code == 1
    assert seen[0].nesting.target == target
    assert seen[0].nesting.alpha_inner == 0.0
