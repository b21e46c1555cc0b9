"""Command-line interface: payload shapes, tolerancing gates and exit codes."""

import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from vankamg import cli, lfa
from vankamg.cli import main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def test_table1_json_passes(capsys):
    code, out, _ = _run(capsys, ["table1"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["tolerance"] == 5e-3
    assert len(data["rows"]) == 6
    by_pair = {(r["kind"], r["dim"]): r for r in data["rows"]}
    assert by_pair[("vanka-v", 1)]["omega_exact"] == "81/104"
    assert by_pair[("vanka-v", 1)]["mu_exact"] == "1/26"
    assert by_pair[("jacobi", 2)]["omega_exact"] == "4/5"
    assert all(r["mu_error"] <= 5e-3 for r in data["rows"])


def test_table1_csv_format(capsys):
    code, out, _ = _run(capsys, ["table1", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,dim,omega_exact,mu_exact,omega,mu,mu_error"
    assert len(lines) == 7


def test_table1_out_file(tmp_path, capsys):
    path = tmp_path / "table1.json"
    code, out, _ = _run(capsys, ["table1", "--out", str(path)])
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["pass"] is True


def test_output_is_deterministic(capsys):
    _, first, _ = _run(capsys, ["table1"])
    _, second, _ = _run(capsys, ["table1"])
    assert first == second


# ---------------------------------------------------------------------------
# table2
# ---------------------------------------------------------------------------

def test_table2_json_passes(capsys):
    code, out, _ = _run(capsys, ["table2"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert len(data["rows"]) == 7
    for row in data["rows"]:
        assert set(row["rho"]) == {"1", "2", "3", "4"}
        assert row["deviation"] <= 1.5e-2
    first = data["rows"][0]
    assert (first["kind"], first["dim"]) == ("vanka-e", 1)
    assert first["reference"] == [0.059, 0.059, 0.040, 0.031]


def test_table2_peak_memory_stays_small(capsys):
    # the 3D rows set the peak: 16.5 MiB with symbols over the whole low box,
    # 3.8 MiB over one reflection orthant of it
    tracemalloc.start()
    try:
        code, _, _ = _run(capsys, ["table2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 6 * 2**20


def test_3d_scan_peak_memory_stays_small(capsys):
    # 75 dampings at 64 samples, 6 per batch of _rank_one_radius: 6.9 MiB
    # measured; one unchunked batch holds 75 x 8 x 4912 values per array and
    # peaks at 59 MiB
    tracemalloc.start()
    try:
        code, out, _ = _run(capsys, ["scan-omega", "--kind", "mass3d", "--dim", "3", "--nu", "1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and len(json.loads(out)["rows"]) == 75
    assert peak < 10 * 2**20


# ---------------------------------------------------------------------------
# eigfield
# ---------------------------------------------------------------------------

def test_eigfield_stdout_csv_summary_stderr(capsys):
    code, out, err = _run(capsys, ["eigfield", "--kind", "mass", "--nu", "2",
                                   "--samples", "16"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta1,theta2,eig1,eig2,eig3,eig4,smoother_abs"
    assert len(lines) == 1 + 63
    summary = json.loads(err)
    assert summary["nu1"] == 1 and summary["nu2"] == 1
    assert summary["all_real"] is True
    assert abs(summary["max_abs_eig"] - 1 / 9) < 1e-12


def test_eigfield_out_file(tmp_path, capsys):
    path = tmp_path / "field.csv"
    code, out, err = _run(capsys, ["eigfield", "--kind", "vanka-v",
                                   "--samples", "32", "--out", str(path)])
    assert code == 0
    assert err == ""
    summary = json.loads(out)
    coarse = [abs(x) for x in summary["argmax_coarse_freq"]]
    assert min(coarse) < 1e-12
    assert abs(max(coarse) - 3.141592653589793) < 1e-12
    assert path.read_text().startswith("theta1,theta2,")


def test_eigfield_rejects_bad_config(capsys):
    code, _, err = _run(capsys, ["eigfield", "--kind", "vanka-e", "--dim", "1"])
    assert code == 2
    assert "error:" in err
    code, _, err = _run(capsys, ["eigfield", "--kind", "vanka-e",
                                 "--nu1", "0", "--nu2", "0"])
    assert code == 2
    assert "smoothing sweep" in err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_json_payload(capsys):
    code, out, _ = _run(capsys, ["solve", "--kind", "vanka-e", "--dim", "2",
                                 "--h", "1/16", "--cycles", "12", "--samples", "32"])
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 15
    assert data["h"] == 1 / 16
    assert len(data["cycles"]) == 12
    assert abs(data["lfa_rho"] - 0.28) < 1e-9
    assert abs(data["measured_rho"] - data["lfa_rho"]) < 0.05
    assert data["spec"]["omega"] == 24 / 25


def test_solve_vcycle_csv(capsys):
    code, out, _ = _run(capsys, ["solve", "--kind", "vanka-e", "--dim", "1",
                                 "--h", "1/32", "--cycle", "v-cycle", "--nu1", "1",
                                 "--nu2", "1", "--cycles", "10", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "cycle,ratio"
    assert len(lines) == 11


def test_solve_two_grid_fine_mesh(capsys):
    # the default two-grid cycle at h = 1/256 factorises its 127^2-point
    # coarse level sparsely; a dense LU there needed about 4 GB
    code, out, _ = _run(capsys, ["solve", "--kind", "vanka-e", "--h", "1/256",
                                 "--cycles", "20"])
    assert code == 0
    assert abs(json.loads(out)["measured_rho"] - 0.2757) <= 0.02 * 0.2757


def test_solve_rejects_bad_mesh(capsys):
    for bad in ("1/63", "0.3", "abc", "1/2"):
        code, _, err = _run(capsys, ["solve", "--kind", "vanka-e", "--h", bad])
        assert code == 2
        assert "error:" in err


@pytest.mark.parametrize("h", ["inf", "-inf", "1e400", "nan"])
def test_solve_rejects_a_non_finite_mesh_spacing(capsys, h):
    # Fraction(float("inf")) raises OverflowError, Fraction(float("nan")) ValueError
    err = _one_line_usage_error(capsys, ["solve", "--kind", "mass", f"--h={h}"])
    assert "mesh spacing" in err and "Traceback" not in err


def test_solve_rejects_unsupported_pair(capsys):
    code, _, err = _run(capsys, ["solve", "--kind", "mass3d", "--dim", "2"])
    assert code == 2
    assert "unsupported" in err


# ---------------------------------------------------------------------------
# scan-omega
# ---------------------------------------------------------------------------

def test_scan_omega_finds_optimum(capsys):
    code, out, _ = _run(capsys, ["scan-omega", "--kind", "vanka-v", "--dim", "1"])
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 75
    assert data["omega_exact"] == "81/104"
    assert abs(data["best"]["omega"] - 0.80) < 1e-9
    assert abs(data["best"]["rho"] - 0.067) < 5e-3


@pytest.mark.parametrize("kind, dim, nu", [("vanka-v", 2, 3), ("mass3d", 3, 2)])
def test_scan_omega_prints_one_two_grid_factor_per_omega(capsys, kind, dim, nu):
    code, out, _ = _run(capsys, ["scan-omega", "--kind", kind, "--dim", str(dim),
                                 "--nu", str(nu), "--samples", "16"])
    assert code == 0
    data = json.loads(out)
    grid = lfa.FrequencyGrid(dim, 16)
    nu1, nu2 = cli._nu_split(nu)
    want = [{"omega": 0.02 * k,
             "rho": lfa.two_grid_factor(lfa.SmootherSpec(kind, dim, 0.02 * k), nu1, nu2, grid)}
            for k in range(1, 76)]
    assert data["rows"] == want
    assert data["best"] == min(want, key=lambda row: row["rho"])


def test_scan_omega_degenerate_step_warns(capsys):
    code, out, err = _run(capsys, ["scan-omega", "--kind", "jacobi", "--dim", "1",
                                   "--step", "2.0"])
    assert code == 0
    assert "warning" in err
    data = json.loads(out)
    assert [row["omega"] for row in data["rows"]] == [1.5]


def test_scan_omega_rejects_bad_step(capsys):
    code, _, err = _run(capsys, ["scan-omega", "--kind", "jacobi", "--dim", "1",
                                 "--step", "-0.1"])
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize("step", ["nan", "-0.0", "-inf"])
def test_scan_omega_rejects_non_positive_step(capsys, step):
    err = _one_line_usage_error(capsys, ["scan-omega", "--kind", "jacobi", f"--step={step}"])
    assert "--step" in err and "positive" in err


@pytest.mark.parametrize("step", ["1e-9", "5e-324"])
def test_scan_omega_refuses_a_finer_scan_than_the_cap_before_listing_it(capsys, step):
    tracemalloc.start()
    try:
        err = _one_line_usage_error(capsys, ["scan-omega", "--kind", "jacobi", f"--step={step}"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f"--step {float(step)}" in err and str(cli.OMEGA_SCAN_POINTS) in err
    assert peak < 1 << 20


def test_scan_omega_point_cap_admits_the_cap(capsys, monkeypatch):
    monkeypatch.setattr(lfa, "two_grid_factors", lambda kind, dim, omegas, nu1, nu2, grid:
                        [abs(omega - 1) for omega in omegas])
    step = cli.OMEGA_SCAN_MAX / cli.OMEGA_SCAN_POINTS
    code, out, _ = _run(capsys, ["scan-omega", "--kind", "jacobi", "--step", repr(step)])
    assert code == 0
    assert len(json.loads(out)["rows"]) == cli.OMEGA_SCAN_POINTS
    _one_line_usage_error(capsys, ["scan-omega", "--kind", "jacobi",
                                   "--step", repr(0.9999 * step)])


# ---------------------------------------------------------------------------
# parser behaviour
# ---------------------------------------------------------------------------

def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["bogus"]) == 2
    capsys.readouterr()
    assert main(["table1", "--format", "xml"]) == 2
    capsys.readouterr()
    assert main(["solve"]) == 2  # --kind is required
    capsys.readouterr()


def _one_line_usage_error(capsys, argv):
    code, _, err = _run(capsys, argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_solve_stagnation_is_a_usage_error(capsys):
    err = _one_line_usage_error(capsys, ["solve", "--kind", "vanka-e", "--dim", "1",
                                         "--h", "1/8", "--nu1", "150", "--nu2", "150",
                                         "--cycles", "5"])
    assert "--nu1 150 --nu2 150" in err and "rounding level" in err


def test_solve_rejects_single_cycle(capsys):
    err = _one_line_usage_error(capsys, ["solve", "--kind", "vanka-e", "--cycles", "1"])
    assert "--cycles" in err


@pytest.mark.parametrize("argv", [["table1"], ["table2"], ["eigfield", "--kind", "mass"],
                                  ["scan-omega", "--kind", "jacobi"],
                                  ["solve", "--kind", "vanka-e"]],
                         ids=lambda argv: argv[0])
def test_odd_samples_rejected(capsys, argv):
    err = _one_line_usage_error(capsys, argv + ["--samples", "5"])
    assert "--samples 5" in err


# eigfield at 4096 samples passes the grid's one-stack estimate and is
# refused by the field's own (lfa._EIGENFIELD_STACKS stacks)
@pytest.mark.parametrize("argv", [["table2"], ["scan-omega", "--kind", "jacobi", "--dim", "3"],
                                  ["solve", "--kind", "jacobi", "--dim", "3"],
                                  ["eigfield", "--kind", "mass"]],
                         ids=lambda argv: argv[0])
def test_oversized_samples_refused_before_allocating(capsys, argv):
    tracemalloc.start()
    try:
        err = _one_line_usage_error(capsys, argv + ["--samples", "4096"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "--samples 4096" in err and "budget" in err
    assert peak < 1 << 20


def test_solve_refuses_an_oversized_3d_two_grid(capsys):
    # h = 1/512: the restriction alone would take about 5.0 GiB.
    # The refusal needs the solver's byte estimate, so the solver (and scipy
    # with it) is imported before the traced window, which then holds only
    # the request's own allocations.
    importlib.import_module("vankamg.solver")
    tracemalloc.start()
    try:
        err = _one_line_usage_error(capsys, ["solve", "--kind", "mass3d", "--dim", "3",
                                             "--h", "1/512"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "--h 1/512" in err and "budget" in err
    assert peak < 1 << 20


def test_solve_refuses_an_oversized_vanka_v_cycle(capsys):
    importlib.import_module("vankamg.solver")   # as above: scipy is not the request's
    tracemalloc.start()
    try:
        err = _one_line_usage_error(capsys, ["solve", "--kind", "vanka-e", "--h", "1/4096",
                                             "--cycle", "v-cycle"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "--h 1/4096" in err and "budget" in err
    assert peak < 1 << 20


def test_solve_cycle_cap_admits_the_cap(capsys):
    # the cap itself runs; one cycle more is refused before any cycle runs
    argv = ["solve", "--kind", "jacobi", "--dim", "1", "--h", "1/8"]
    code, out, _ = _run(capsys, argv + ["--cycles", str(cli.SOLVE_CYCLES_MAX)])
    assert code == 0
    assert len(json.loads(out)["cycles"]) == cli.SOLVE_CYCLES_MAX
    err = _one_line_usage_error(capsys, argv + ["--cycles", str(cli.SOLVE_CYCLES_MAX + 1)])
    assert f"--cycles {cli.SOLVE_CYCLES_MAX + 1}" in err and "cap" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--kind", "jacobi", "--dim", "1", "--h", "1/8", "--nu1", "1001"],
    ["solve", "--kind", "jacobi", "--dim", "1", "--h", "1/8", "--nu2", "1000"],
    ["eigfield", "--kind", "mass", "--samples", "4", "--nu", "1001"],
    ["scan-omega", "--kind", "jacobi", "--nu1", "600", "--nu2", "401"],
], ids=["solve-nu1", "solve-nu1-plus-nu2", "eigfield-nu", "scan-omega-nu1-plus-nu2"])
def test_sweeps_over_the_cap_rejected(capsys, argv):
    # nu1 + nu2 is capped whichever flags set it, on every subcommand
    err = _one_line_usage_error(capsys, argv)
    assert f"at most {cli.SWEEPS_MAX} smoothing sweeps" in err


def test_sweep_cap_admits_the_cap(capsys):
    code, _, _ = _run(capsys, ["eigfield", "--kind", "mass", "--samples", "4",
                               "--nu", str(cli.SWEEPS_MAX)])
    assert code == 0


def test_solve_rejects_single_level_v_cycle(capsys):
    err = _one_line_usage_error(capsys, ["solve", "--kind", "jacobi", "--dim", "3",
                                         "--h", "1/8", "--cycle", "v-cycle"])
    assert "--h 1/8" in err


def test_solve_too_coarse_mesh_names_flag(capsys):
    err = _one_line_usage_error(capsys, ["solve", "--kind", "vanka-e", "--h", "1/4"])
    assert "--h 1/4" in err


@pytest.mark.parametrize("argv, flag", [
    (["scan-omega", "--kind", "vanka-v", "--nu1", "-1", "--nu2", "2"], "nu1 = -1"),
    (["eigfield", "--kind", "mass", "--nu1", "-1", "--nu2", "2"], "nu1 = -1"),
    (["scan-omega", "--kind", "jacobi", "--nu", "-1"], "nu2 = -1"),
    (["solve", "--kind", "vanka-e", "--h", "1/16", "--seed", "-1"], "--seed"),
], ids=["scan-omega-nu1", "eigfield-nu1", "scan-omega-nu", "solve-seed"])
def test_negative_counts_rejected(capsys, argv, flag):
    err = _one_line_usage_error(capsys, argv)
    assert flag in err


@pytest.mark.parametrize("argv", [["table1"], ["eigfield", "--kind", "mass", "--samples", "8"]],
                         ids=lambda argv: argv[0])
def test_unwritable_out_path_rejected(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out.txt"
    err = _one_line_usage_error(capsys, argv + ["--out", str(path)])
    assert f"--out {path}" in err
    assert not path.exists()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "scan-omega" in out


# ---------------------------------------------------------------------------
# the analysis subcommands need numpy only
# ---------------------------------------------------------------------------

_SRC = Path(__file__).resolve().parents[1] / "src"

_ANALYSIS_ONLY = """
import contextlib, io, sys
from vankamg.cli import main
for argv in (["table1"], ["table2"], ["eigfield", "--kind", "mass", "--nu", "2"],
             ["scan-omega", "--kind", "vanka-v", "--nu", "1"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_analysis_subcommands_never_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _ANALYSIS_ONLY], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "[]"


_SOLVE_REFUSALS = """
import contextlib, io, sys
from vankamg.cli import main
for argv in (["jacobi", "--dim", "3", "--samples", "4096"], ["vanka-e", "--samples", "5"],
             ["vanka-e", "--h", "1/3"], ["vanka-e", "--dim", "3"],
             ["vanka-e", "--cycles", "1"], ["vanka-e", "--cycles", "1001"],
             ["vanka-e", "--seed", "-1"], ["vanka-e", "--nu1", "0"],
             ["vanka-e", "--nu1", "1001"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["solve", "--kind"] + argv) == 2, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_solve_refuses_bad_arguments_before_loading_scipy():
    # the solver import loads scipy, about 11 MB, which a traced refusal
    # would count as its own allocation
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _SOLVE_REFUSALS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "[]"
