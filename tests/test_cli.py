import json
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import expctrl.cli as cli
import expctrl.estimates
import expctrl.objective
import expctrl.optimizer
import expctrl.pde
from expctrl.cli import (ConfigError, RunConfig, load_config, main,
                         parse_field)
from expctrl.estimates import EstimateReport
from expctrl.fem import assemble_stiffness
from expctrl.objective import evaluate_DJ, evaluate_J
from expctrl.pde import solve_state
from helpers import count_vcycles, from_scipy, to_scipy


# the config of the README's command-line section
README_CONFIG = {
    "domain": {"kind": "unit_square"},
    "points": [[0.3, 0.4], [0.7, 0.6]],
    "lower": [-1.0, -1.0],
    "upper": [2.0, 2.0],
    "nu": 0.1,
    "f0": "constant 1.0",
    "y_d": "gaussian(0.5, 0.5, 0.2, 2.0)",
    "control": [0.5, -0.3],
    "mesh": {"resolution": 64},
}


def base_config(**extra):
    cfg = {
        "domain": {"kind": "unit_square"},
        "points": [[0.3, 0.4], [0.7, 0.6]],
        "lower": [-1.0, -1.0],
        "upper": [2.0, 2.0],
        "nu": 0.1,
        "mesh": {"resolution": 16},
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def subprocess_env():
    """The environment of a fresh Python process that imports this
    package from its source directory."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_parse_field_forms():
    assert parse_field("zero", "f0") is None
    assert parse_field(None, "f0") is None
    assert parse_field("constant 2.5", "f0") == 2.5
    assert parse_field("constant(2.5)", "f0") == 2.5
    assert parse_field(3, "f0") == 3.0
    g = parse_field("gaussian(0.5, 0.5, 0.2, 2.0)", "f0")
    assert_allclose(g(np.array([[0.5, 0.5]])), [2.0])
    assert g(np.array([[0.5, 0.9]]))[0] < 2.0
    s = parse_field("state_of(1.0, -0.5)", "y_d")
    assert_allclose(s.values, [1.0, -0.5])


def test_parse_field_rejects_malformed_input():
    with pytest.raises(ConfigError, match="unknown field"):
        parse_field("ramp(1.0)", "f0")
    with pytest.raises(ConfigError, match="gaussian"):
        parse_field("gaussian(0.5, 0.5)", "f0")
    with pytest.raises(ConfigError, match="bad numeric"):
        parse_field("gaussian(a, b, c, d)", "f0")
    with pytest.raises(ConfigError, match="state_of"):
        parse_field("state_of()", "y_d")
    # float() reads "nan" and "inf", and json reads NaN and Infinity; a
    # non-finite field would surface later as a solver fault
    for text in ("constant nan", "constant(inf)",
                 "gaussian(0.5, 0.5, 0.2, inf)",
                 "gaussian(nan, 0.5, 0.2, 1.0)", "state_of(1.0, -inf)",
                 float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="field 'f0'"):
            parse_field(text, "f0")


def test_run_config_defaults():
    cfg = RunConfig.from_dict(base_config())
    assert cfg.seed == 42
    assert cfg.tolerances["newton"] == 1e-10
    assert cfg.tolerances["kkt"] == 1e-6
    assert cfg.instance.points.count == 2
    assert cfg.instance.nu == 0.1


def test_run_config_rejects_missing_and_invalid_fields():
    with pytest.raises(ConfigError, match="'domain'"):
        RunConfig.from_dict({"points": [[0.5, 0.5]]})
    with pytest.raises(ConfigError, match="unknown kind"):
        RunConfig.from_dict(base_config(domain={"kind": "triangle"}))
    with pytest.raises(ConfigError, match="'points'"):
        RunConfig.from_dict(base_config(points=[[1.5, 0.5], [0.7, 0.6]]))
    with pytest.raises(ConfigError, match="component 1"):
        RunConfig.from_dict(base_config(upper=[1.0, 14.0]))
    with pytest.raises(ConfigError, match="tolerances"):
        RunConfig.from_dict(base_config(tolerances={"newton": -1.0}))
    with pytest.raises(ConfigError, match="state_of is only"):
        RunConfig.from_dict(base_config(f0="state_of(1.0, 1.0)"))
    with pytest.raises(ConfigError, match="field 'mesh'"):
        RunConfig.from_dict(base_config(mesh="abc"))
    with pytest.raises(ConfigError, match="field 'tolerances'"):
        RunConfig.from_dict(base_config(tolerances=5))


def test_run_config_rejects_a_boolean_tolerance():
    # JSON true is the Python int 1: it would loosen the Newton test
    # from 1e-10 to 1
    with pytest.raises(ConfigError, match="tolerances.newton"):
        RunConfig.from_dict(base_config(tolerances={"newton": True}))


def test_load_config_reports_json_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "domain": [1 2]\n}')
    with pytest.raises(ConfigError, match="line 2 column"):
        load_config(str(p))
    with pytest.raises(ConfigError, match="missing.json"):
        load_config(str(tmp_path / "missing.json"))


def test_solve_writes_reports_and_zero_state_for_zero_data(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    summary = dict(line.split("=") for line in
                   (out / "solve_summary.txt").read_text().splitlines()[1:])
    assert summary["converged"] == "true"
    assert abs(float(summary["max_y"])) <= 1e-12
    assert abs(float(summary["min_y"])) <= 1e-12
    assert_allclose(float(summary["int_exp_y"]), 1.0, rtol=1e-12)
    rows = (out / "solution.csv").read_text().splitlines()
    assert rows[1] == "x,y,value"
    assert len(rows) == 2 + int(summary["vertices"])


def test_solve_summary_reads_the_newton_history(tmp_path):
    path = write_config(tmp_path, base_config(f0="constant 1.0",
                                              control=[2.0, 1.0]))
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    summary = dict(line.split("=") for line in
                   (out / "solve_summary.txt").read_text().splitlines()[1:])
    rows = (out / "newton.csv").read_text().splitlines()[2:]
    assert int(summary["newton_iterations"]) == len(rows) - 1 >= 1
    assert summary["final_residual"] == rows[-1].split(",")[1]


def test_solve_green_ring_values_match_the_closed_form(tmp_path):
    cfg = {
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
        "points": [[0.0, 0.0]],
        "lower": [0.0], "upper": [1.5],
        "nu": 0.0,
        "mesh": {"resolution": 32},
        "control": [1.0],
        "linear": True,
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "green"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    rows = (out / "solution.csv").read_text().splitlines()[2:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    r = np.hypot(data[:, 0], data[:, 1])
    ring = np.abs(r - 0.5) < 0.02
    assert np.any(ring)
    # nodal values near |x| = 1/2 against (1/2pi) ln(1/|x|)
    expect = np.log(1.0 / r[ring]) / (2.0 * np.pi)
    assert np.max(np.abs(data[ring, 2] - expect)) < 5e-3


def test_solve_of_a_large_source_needs_few_newton_steps(tmp_path):
    # the state of f0 = 300 peaks near 5.7; from the linear start
    # (A + M_L) y = b, which peaks at 20.9, Newton took 19 steps, and
    # from the secant start, at 15.2, it takes 13
    path = write_config(tmp_path, dict(README_CONFIG, f0="constant 300"))
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    summary = dict(line.split("=", 1) for line in
                   (out / "solve_summary.txt").read_text().splitlines()[1:])
    assert int(summary["newton_iterations"]) <= 15


def test_a_state_solve_that_overflows_reports_it_once(tmp_path):
    # one line names the failed state solve, no numpy warning comes
    # before it, and a skipped lipschitz trial names the overflow.  The
    # secant start of f0 = 10^4 overflows the exponential (a cap on
    # Newton's start may one day solve it); f0 = 10^200 has finite load
    # entries whose norm overflows, and always fails
    for f0, fails in (("constant 10000", False), ("constant 1e200", True)):
        out = tmp_path / f0.split()[1]
        path = write_config(tmp_path, dict(
            README_CONFIG, f0=f0, verify=[{"check": "lipschitz",
                                            "trials": 1}]))
        runs = {command: subprocess.run(
            [sys.executable, "-m", "expctrl.cli", command, "--config", path,
             "--out", str(out / command)],
            env=subprocess_env(), capture_output=True, text=True,
            timeout=300) for command in ("solve", "verify")}
        for done in runs.values():
            assert "RuntimeWarning" not in done.stderr
            assert "not finite" not in done.stderr
            assert len(done.stderr.splitlines()) <= 1
        solve = runs["solve"]
        assert solve.returncode == 0 or "state solve failed" in solve.stderr
        skipped = [row for row in (out / "verify" / "estimates.csv")
                   .read_text().splitlines()
                   if row.startswith("lipschitz-skipped")]
        assert all("error=state solve failed" in row and "overflows" in row
                   for row in skipped)
        if fails:
            assert solve.returncode == 2 and skipped


@pytest.mark.parametrize("f0", ["constant 1e3", "constant 1e4",
                                "constant 1e6"])
def test_solve_of_a_huge_source_starts_at_the_bound_of_the_state(tmp_path,
                                                                 f0):
    # the secant start grows like f0 / 8 and overflowed e^y from
    # f0 = 10^4 on (f0 = 10^3 took 49 steps); capped at
    # max log1p(b^+ / m), a bound of the state, it takes at most 8
    path = write_config(tmp_path, dict(README_CONFIG, f0=f0))
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    summary = dict(line.split("=", 1) for line in
                   (out / "solve_summary.txt").read_text().splitlines()[1:])
    assert int(summary["newton_iterations"]) <= 8


_SEMILINEAR = {"check": "semilinear", "omega": [1.0, 1.0], "alpha": 6.28}


def _estimate_rows(out):
    rows = (out / "estimates.csv").read_text().splitlines()[2:]
    return [dict(zip(("name", "parameters", "lhs", "rhs", "margin",
                      "pass"), row.split(","))) for row in rows]


@pytest.mark.parametrize("f0", ["constant 30", "constant 100",
                                "constant 1000"])
def test_semilinear_certificate_holds_for_large_sources(tmp_path, f0):
    # the comparison y <= y_0 + y_1 multiplies the point-mass bound by
    # exp(k max(y_0)^+), k = (4 pi - alpha) / omega_max; the exponent
    # (2 - alpha / 2 pi) |y_0|_inf / omega_max, 2 pi times smaller,
    # failed here from f0 = 30 on
    path = write_config(tmp_path, dict(README_CONFIG, f0=f0,
                                       verify=[_SEMILINEAR]))
    out = tmp_path / "o"
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    (row,) = _estimate_rows(out)
    assert row["name"] == "semilinear-exponential" and row["pass"] == "true"
    shift = float(row["parameters"].split("shift=")[1].split(";")[0])
    assert shift > 0.0


def test_a_huge_negative_source_writes_finite_reports(tmp_path):
    # the state falls to -73,657: the exponential integral shifts each
    # divided difference by its larger value, and the certificate's
    # shift is max(y_0)^+ = 0, so nothing overflows or warns
    path = write_config(tmp_path, dict(README_CONFIG, f0="constant -1e6",
                                       verify=[_SEMILINEAR]))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        assert main(["verify", "--config", path, "--out", str(out)]) == 0
    summary = dict(line.split("=", 1) for line in
                   (out / "solve_summary.txt").read_text().splitlines()[1:])
    assert float(summary["min_y"]) < -7e4
    assert 0.0 < float(summary["int_exp_y"]) < 1e-3
    (row,) = _estimate_rows(out)
    assert "shift=0;" in row["parameters"] and row["pass"] == "true"


def test_a_non_finite_value_exits_as_a_numeric_fault(tmp_path, monkeypatch,
                                                     capsys):
    # a report value or an estimate side that is not finite is a fault
    # of the computation, exit 2 naming where it sits, not a config error
    path = write_config(tmp_path, base_config(
        f0="constant 1.0", verify=[{"check": "scalar", "samples": 10}]))
    monkeypatch.setattr(cli, "integrate_exp_linear",
                        lambda mesh, values: float("nan"))
    assert main(["solve", "--config", path, "--out",
                 str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "solver error: report solve_summary.txt: int_exp_y is not " \
        "finite" in err
    # the complete reports stay, the refused one is not left half written
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
        "newton.csv", "solution.csv"]
    with pytest.raises(RuntimeError, match="estimates.csv: lhs is not"):
        cli._write_csv(tmp_path / "estimates.csv", ("name", "lhs"),
                       [("a", 1.0), ("b", [2.0, np.inf])])
    monkeypatch.setattr(
        cli, "verify_scalar_exponential",
        lambda samples, seed: EstimateReport("scalar-exponential", np.nan,
                                             1.0, {}))
    assert main(["verify", "--config", path, "--out",
                 str(tmp_path / "v")]) == 2
    assert "solver error: estimate scalar-exponential: sides must be " \
        "finite" in capsys.readouterr().err


def test_an_overflowing_objective_fails_once_without_a_warning(tmp_path):
    # J of a target of amplitude 1e200 overflows: it is inf without a
    # numpy warning, and the adjoint's right-hand side then fails once
    path = write_config(tmp_path, dict(
        README_CONFIG, y_d="gaussian(0.5, 0.5, 0.2, 1e200)",
        mesh={"resolution": 16}, direction=[1.0, 0.0]))
    for command in ("taylor", "optimize"):
        done = subprocess.run(
            [sys.executable, "-m", "expctrl.cli", command, "--config", path,
             "--out", str(tmp_path / command)],
            env=subprocess_env(), capture_output=True, text=True,
            timeout=300)
        assert done.returncode == 2
        assert done.stderr == "solver error: right-hand side is not finite\n"


def test_an_overflowing_taylor_direction_fails_once_without_a_warning(
        tmp_path):
    # h' H h of a huge direction overflows, and so does the probe
    # u + rho h at rho = 10: both are inf without a numpy warning, and
    # the report writer refuses the second-order value once
    for k, (direction, rho_grid) in enumerate([
            ([1e200, 1e200], None), ([1e308, 1e308], [10.0, 0.1])]):
        cfg = dict(README_CONFIG, mesh={"resolution": 16},
                   direction=direction)
        if rho_grid is not None:
            cfg["rho_grid"] = rho_grid
        done = subprocess.run(
            [sys.executable, "-m", "expctrl.cli", "taylor", "--config",
             write_config(tmp_path, cfg), "--out", str(tmp_path / str(k))],
            env=subprocess_env(), capture_output=True, text=True,
            timeout=300)
        assert done.returncode == 2
        assert done.stderr == "solver error: report taylor_summary.txt: " \
            "second_order is not finite\n"


def test_a_degenerate_graded_mesh_is_a_solver_fault(tmp_path):
    # 60 levels toward one point degenerate the n = 8 disk's triangles
    # in floating point (from 55 levels on); the builder's fault exits
    # 2 in one line, without the warnings of the circumcenters
    path = write_config(tmp_path, dict(
        README_CONFIG, domain={"kind": "disk", "center": [0.0, 0.0],
                               "radius": 1.0},
        points=[[0.1, 0.05]], lower=[-1.0], upper=[2.0], control=[0.5],
        mesh={"resolution": 8, "refine_levels": 60}))
    done = subprocess.run(
        [sys.executable, "-m", "expctrl.cli", "solve", "--config", path,
         "--out", str(tmp_path / "o")],
        env=subprocess_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 2
    assert done.stderr == \
        "solver error: clockwise or degenerate triangle in mesh\n"


def test_a_source_point_outside_the_disk_mesh_is_named(tmp_path, capsys):
    # radius 0.998, the middle of the widest boundary chord of the n = 8
    # disk, whose sagitta is 0.0064: inside the disk, outside its mesh;
    # every command locates the points right after it builds the mesh,
    # a scalar-only verify too
    x, y = -0.7808924, -0.6214588
    path = write_config(tmp_path, dict(
        README_CONFIG, domain={"kind": "disk", "center": [0.0, 0.0],
                               "radius": 1.0},
        points=[[0.1, 0.05], [x, y]], control=[0.5, -0.3],
        mesh={"resolution": 8}, direction=[1.0, 0.0],
        verify=[{"check": "scalar", "samples": 10}]))
    for command in ("solve", "optimize", "verify", "taylor"):
        assert main([command, "--config", path, "--out",
                     str(tmp_path / command)]) == 1
        assert capsys.readouterr().err == (
            "config error: field 'points': source point 1 at (%r, %r) lies "
            "between the mesh's boundary chords and the circle\n" % (x, y))
        assert not (tmp_path / command).exists()


def test_a_value_error_below_the_cli_is_a_program_fault(tmp_path,
                                                         monkeypatch,
                                                         capsys):
    # only the config's own values are config errors; a ValueError that
    # a solver raises, such as a CSR shape check, exits 2
    def faulty(*args, **kwargs):
        raise ValueError("operand length does not match the matrix")
    monkeypatch.setattr(cli, "solve_state", faulty)
    path = write_config(tmp_path, base_config())
    assert main(["solve", "--config", path, "--out",
                 str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        "error: operand length does not match the matrix\n"


@pytest.mark.parametrize("fault", [
    MemoryError("Unable to allocate 728. TiB for an array"),
    TypeError("unsupported operand type(s) for +: 'CSR' and 'str'")])
def test_any_other_fault_below_the_cli_exits_2(tmp_path, monkeypatch,
                                               capsys, fault):
    # only a configuration error exits 1; a fault that main does not
    # name, such as the MemoryError of a mesh too large for the
    # machine, exits 2 with one line naming its type
    def faulty(*args, **kwargs):
        raise fault
    monkeypatch.setattr(cli, "solve_state", faulty)
    path = write_config(tmp_path, base_config())
    assert main(["solve", "--config", path, "--out",
                 str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        "error: %s: %s\n" % (type(fault).__name__, fault)


def test_solve_exit_codes_for_config_errors(tmp_path, capsys):
    bad = base_config(upper=[1.0, 13.0])
    path = write_config(tmp_path, bad)
    assert main(["solve", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "component 1" in err
    p2 = tmp_path / "syntax.json"
    p2.write_text("{")
    assert main(["solve", "--config", str(p2)]) == 1
    capsys.readouterr()
    for command, extra, field in (
            ("optimize", {"max_iters": -1}, "max_iters"),
            ("solve", {"tolerances": 5}, "tolerances"),
            ("verify", {"verify": [3]}, "verify"),
            ("solve", {"mesh": "abc"}, "mesh"),
            ("solve", {"mesh": {"resolution": 8.7}}, "resolution"),
            ("solve", {"mesh": {"resolution": 0}}, "resolution"),
            ("solve", {"mesh": {"refine_levels": True}}, "refine_levels"),
            ("solve", {"tolerances": {"kkkt": 1e-6}}, "tolerances.kkkt"),
            ("solve", {"linear": "false"}, "linear"),
            ("solve", {"mesh": {"resolutin": 8}}, "mesh.resolutin"),
            # a misspelt key would silently run the default
            ("optimize", {"max_iter": 3}, "max_iter"),
            ("solve", {"seed": None}, "seed"),
            ("solve", {"seed": [1]}, "seed"),
            ("solve", {"seed": True}, "seed"),
            ("taylor", {"direction": [1.0, 0.0], "rho_grid": [0.1, 0.0]},
             "rho_grid"),
            ("taylor", {"direction": [1.0, 0.0], "rho_grid": [-0.1]},
             "rho_grid"),
            ("taylor", {"direction": [1.0, 0.0], "rho_grid": []},
             "rho_grid"),
            # one reader for numbers: finite JSON numbers only, so no
            # string, bool, Infinity or NaN
            ("optimize", {"tolerances": {"kkt": float("inf")}},
             "tolerances.kkt"),
            ("solve", {"nu": True}, "nu"),
            ("solve", {"nu": "0.1"}, "nu"),
            ("optimize", {"upper": "22"}, "upper"),
            ("solve", {"lower": [-1.0, float("nan")]}, "lower"),
            ("solve", {"control": "11"}, "control"),
            ("solve", {"control": [True, False]}, "control"),
            ("solve", {"control": [0.5, float("nan")]}, "control"),
            ("taylor", {"direction": [1.0, float("inf")]}, "direction"),
            ("verify", {"verify": [{"check": "poisson", "omega": [1.0, 1.0],
                                    "alpha": "3"}]}, "verify.alpha"),
            ("verify", {"verify": [{"check": "poisson", "omega": "11",
                                    "alpha": 3.0}]}, "verify.omega"),
            ("verify", {"verify": [{"check": "mollified", "R": True,
                                    "rho0": 0.5, "epsilon": 0.1,
                                    "m": 1.0}]}, "verify.R"),
            ("verify", {"verify": [{"check": "mollified", "R": 1.0,
                                    "rho0": 0.5, "epsilon": 0.1,
                                    "m": float("inf")}]}, "verify.m"),
            ("solve", {"domain": {"kind": "disk", "center": [0.5, 0.5],
                                  "radius": "1"}}, "radius"),
            ("solve", {"domain": {"kind": "disk", "center": [0.5, True],
                                  "radius": 1.0}}, "center"),
            ("solve", {"domain": {"kind": "rectangle",
                                  "corners": "0011"}}, "corners"),
            ("solve", {"domain": {"kind": "rectangle",
                                  "corners": [0.0, 0.0, 2.0]}}, "corners"),
            ("solve", {"domain": {"kind": "disk", "center": [0.0, 0.0, 0.0],
                                  "radius": 1.0}}, "center"),
            ("taylor", {"direction": [1.0, 0.0],
                        "rho_grid": [0.1, float("inf")]}, "rho_grid"),
            ("taylor", {"direction": [1.0]}, "direction"),
            # numbers inside field descriptions are finite too
            ("solve", {"f0": "constant nan"}, "f0"),
            # a constant is "constant c" or "constant(c)", balanced
            ("solve", {"f0": "constant(1"}, "f0"),
            ("solve", {"f0": "constant 1)"}, "f0"),
            ("solve", {"f0": "gaussian(0.5, 0.5, 0.2, inf)"}, "f0"),
            ("optimize", {"y_d": "state_of(1.0, nan)"}, "y_d"),
            # errors that once named no config key
            ("solve", {"lower": [-1.0] * 3, "upper": [2.0] * 3}, "lower"),
            ("solve", {"nu": -0.1}, "nu"),
            ("solve", {"f0": "gaussian(0.5, 0.5, 0.0, 1.0)"}, "f0"),
            ("optimize", {"y_d": "gaussian(0.5, 0.5, 0.0, 1.0)"}, "y_d")):
        path = write_config(tmp_path, base_config(**extra))
        assert main([command, "--config", path, "--out",
                     str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error: field '%s'" % field in err


@pytest.mark.parametrize("entry,field", [
    ({"check": "lipschitz", "trials": -1}, "trials"),
    ({"check": "lipschitz", "trials": 0}, "trials"),
    ({"check": "lipschitz", "trials": 2.5}, "trials"),
    ({"check": "scalar", "samples": 2.5}, "samples"),
    ({"check": "mollified", "R": 1.0, "rho0": 0.5, "epsilon": 0.1,
      "m": 1.0, "resolution": 0}, "resolution"),
])
def test_verify_counts_must_be_positive_integers(tmp_path, capsys, entry,
                                                 field):
    # a count below one would check nothing and still exit 0
    path = write_config(tmp_path, base_config(verify=[entry]))
    assert main(["verify", "--config", path, "--out",
                 str(tmp_path / "o")]) == 1
    assert "config error: field 'verify.%s'" % field \
        in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _mollified(**values):
    entry = {"check": "mollified", "R": 1.0, "rho0": 0.5, "epsilon": 0.1,
             "m": 1.0}
    entry.update(values)
    return entry


@pytest.mark.parametrize("entry,message", [
    (_mollified(x0=[0.0, 0.0, 0.0]), "'x0': expected 2 numbers"),
    ({"check": "poisson", "omega": [1.0], "alpha": 3.0},
     "'omega': expected 2 numbers, one value per source point"),
    ({"check": "semilinear", "omega": [1.0, 2.0, 3.0], "alpha": 3.0},
     "'omega': expected 2 numbers, one value per source point"),
    # the hypotheses of the estimates, checked before the mesh
    ({"check": "poisson", "omega": [1.0, 1.0], "alpha": 0.0}, "'alpha'"),
    ({"check": "poisson", "omega": [1.0, 1.0], "alpha": 20.0}, "'alpha'"),
    ({"check": "semilinear", "omega": [1.0, 1.0], "alpha": -1.0},
     "'alpha'"),
    ({"check": "poisson", "omega": [1.0, 0.0], "alpha": 3.0}, "'omega'"),
    ({"check": "semilinear", "omega": [1.0, -0.5], "alpha": 3.0},
     "'omega'"),
    ({"check": "semilinear", "omega": [0.0, 0.0], "alpha": 3.0},
     "'omega'"),
    ({"check": "semilinear", "omega": [1.0, 13.0], "alpha": 3.0},
     "'omega': values must be below 4 pi"),
    (_mollified(R=0.0), "'R'"),
    (_mollified(R=-1.0), "'R'"),
    (_mollified(epsilon=0.0), "'epsilon'"),
    (_mollified(epsilon=0.5), "'epsilon'"),
    (_mollified(rho0=1.0), "'rho0'"),
    (_mollified(x0=[0.6, 0.0]), "'rho0'"),
    (_mollified(m=0.0), "'m'"),
    (_mollified(m=4.0 * np.pi), "'m'"),
])
def test_verify_entry_lengths_name_the_field(tmp_path, capsys, entry,
                                             message):
    path = write_config(tmp_path, base_config(verify=[entry]))
    assert main(["verify", "--config", path, "--out",
                 str(tmp_path / "o")]) == 1
    # the values of an entry are named verify.<key>
    assert "config error: field 'verify.%s" % message[1:] \
        in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_verify_reads_every_value_before_any_check_runs(tmp_path, capsys,
                                                        monkeypatch):
    # the poisson check in front would run first if values were read
    # entry by entry, as the checks run, and no mesh is built before
    # the last value is checked
    def never(*args):
        raise AssertionError("a check ran or a mesh was built before "
                             "every value was read")
    for name in ("verify_poisson_exponential", "build_mesh"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(expctrl.pde.ProblemInstance, "make_mesh", never)
    for last, field in (({"check": "lipschitz", "trials": 2.5}, "trials"),
                        ({"check": "poisson", "omega": [1.0, 1.0],
                          "alpha": 20.0}, "alpha"),
                        (_mollified(rho0=1.0), "rho0")):
        cfg = base_config(verify=[
            {"check": "poisson", "omega": [1.0, 1.0], "alpha": 3.0},
            _mollified(), last])
        path = write_config(tmp_path, cfg)
        assert main(["verify", "--config", path, "--out",
                     str(tmp_path / "o")]) == 1
        assert "config error: field 'verify.%s'" % field \
            in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("points", [
    [["0.3", "0.4"], [0.7, True]], [[0.3, 0.4], [0.7, float("nan")]],
    [], [[0.3]], [[0.3, 0.4, 0.5]], [0.3, 0.4], "0.3 0.4", None])
def test_points_must_be_pairs_of_finite_numbers(tmp_path, capsys, points):
    # every coordinate here, read as a number, lies inside [0, 2]^2
    path = write_config(tmp_path, base_config(
        domain={"kind": "rectangle", "corners": [0.0, 0.0, 2.0, 2.0]},
        points=points))
    assert main(["solve", "--config", path, "--out",
                 str(tmp_path / "o")]) == 1
    assert "config error: field 'points'" in capsys.readouterr().err


def test_indefinite_operator_exits_as_a_solver_error(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setattr(expctrl.pde, "assemble_stiffness",
                        lambda mesh: from_scipy(
                            -to_scipy(assemble_stiffness(mesh))))
    path = write_config(tmp_path, base_config(f0="constant 1.0"))
    assert main(["solve", "--config", path, "--out",
                 str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "solver error: operator is not positive definite" in err


def test_optimize_reports_manufactured_minimum(tmp_path):
    cfg = base_config(
        f0="constant 2.0",
        y_d="state_of(0.0, 0.0)",
        control=[0.6, -0.4],
        max_iters=100,
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "opt"
    assert main(["optimize", "--config", path, "--out", str(out)]) == 0
    assert_direction_in_cone(out)
    summary = dict(line.split("=", 1) for line in
                   (out / "optimize_summary.txt").read_text().splitlines()[1:])
    assert summary["converged"] == "true"
    assert float(summary["kkt_residual"]) <= 1e-6
    assert summary["second_order_pass"] == "true"
    kkt = (out / "kkt.csv").read_text().splitlines()
    assert kkt[1].split(",") == ["index", "u", "lower", "upper", "d",
                                 "classification", "residual"]
    assert len(kkt) == 4
    assert (out / "iterates.csv").exists()


def assert_direction_in_cone(out, tol_grad=1e-6):
    """second_order.csv holds a unit-l1 direction that vanishes on the
    indices kkt.csv shows blocked; returns the blocked mask."""
    kkt = [row.split(",") for row in
           (out / "kkt.csv").read_text().splitlines()[2:]]
    blocked = np.array([abs(float(row[4])) > tol_grad
                        or row[5] == "degenerate" for row in kkt])
    rows = (out / "second_order.csv").read_text().splitlines()
    assert rows[1] == "index,direction"
    h = np.array([float(row.split(",")[1]) for row in rows[2:]])
    assert h.size == len(kkt)
    assert_allclose(np.sum(np.abs(h)), 1.0, rtol=1e-12)
    assert np.all(h[blocked] == 0.0)
    return blocked


def test_optimize_reports_the_derivative_at_the_written_control(tmp_path):
    # the raised lower bound of the second point is active with d > 0
    path = write_config(tmp_path, base_config(
        f0="constant 1.0", y_d="gaussian(0.5, 0.5, 0.2, 2.0)",
        lower=[-1.0, 0.6]))
    out = tmp_path / "opt"
    assert main(["optimize", "--config", path, "--out", str(out)]) == 0
    assert assert_direction_in_cone(out).tolist() == [False, True]

    def column(name, k):
        rows = (out / name).read_text().splitlines()[2:]
        return [float(row.split(",")[k]) for row in rows]
    summary = dict(line.split("=", 1) for line in
                   (out / "optimize_summary.txt").read_text().splitlines()[1:])
    config = load_config(path)
    instance, u = config.instance, np.array(column("control.csv", 1))
    state = solve_state(instance, u, instance.make_mesh(),
                        tol=config.tolerances["newton"])
    assert column("kkt.csv", 4) == evaluate_DJ(instance, u, state)[0].tolist()
    assert float(summary["J"]) == evaluate_J(instance, u, state)


def test_optimize_solve_budget(tmp_path, monkeypatch):
    # per iterate one adjoint, shared by the gradient and the Hessian,
    # and one linearized solve per free component, here all K; J once
    # per state; the certificate at the final point reads the
    # optimizer's state, adjoint, J and active set and adds only one
    # linearized solve per unblocked component, here all K
    path = write_config(tmp_path, base_config(
        f0="constant 1.0", y_d="gaussian(0.5, 0.5, 0.2, 2.0)",
        control=[0.5, -0.3]))
    calls = []
    phase = [None]

    def counted(name, solve):
        def wrapper(*args, **kwargs):
            calls.append((phase[-1], name))
            return solve(*args, **kwargs)
        return wrapper

    def phased(name, run):
        def wrapper(*args, **kwargs):
            phase.append(name)
            try:
                return run(*args, **kwargs)
            finally:
                phase.pop()
        return wrapper
    for module in (cli, expctrl.objective, expctrl.optimizer):
        for name in ("solve_state", "solve_adjoint", "solve_linearized",
                     "evaluate_J", "kkt_residual"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    for name in ("projected_gradient", "second_order_check"):
        monkeypatch.setattr(cli, name, phased(name, getattr(cli, name)))
    out = tmp_path / "opt"
    assert main(["optimize", "--config", path, "--out", str(out)]) == 0
    summary = dict(line.split("=", 1) for line in
                   (out / "optimize_summary.txt").read_text().splitlines()[1:])
    iterations, K = int(summary["iterations"]), 2
    assert iterations >= 1
    count = Counter(calls)
    assert count["projected_gradient", "solve_adjoint"] == iterations + 1
    assert count["projected_gradient", "solve_linearized"] == K * iterations
    assert count["projected_gradient", "solve_state"] >= iterations + 1
    assert count["projected_gradient", "evaluate_J"] \
        == count["projected_gradient", "solve_state"]
    assert count["second_order_check", "solve_linearized"] == K
    assert count["second_order_check", "solve_state"] == 0
    assert count["second_order_check", "solve_adjoint"] == 0
    assert count["second_order_check", "evaluate_J"] == 0
    assert count["projected_gradient", "kkt_residual"] == iterations + 1
    assert count["second_order_check", "kkt_residual"] == 0
    assert all(where is not None for where, _ in calls)


def test_optimize_budget_exhaustion_returns_three(tmp_path):
    cfg = base_config(
        f0="constant 2.0",
        y_d="gaussian(0.5, 0.5, 0.3, 1.0)",
        control=[0.9, -0.9],
        max_iters=1,
        tolerances={"kkt": 1e-12},
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "budget"
    assert main(["optimize", "--config", path, "--out", str(out)]) == 3
    text = (out / "optimize_summary.txt").read_text()
    assert "note=max iterations" in text
    assert (out / "control.csv").exists()


def test_optimize_fully_constrained_is_noted(tmp_path):
    cfg = base_config(lower=[0.3, -0.2], upper=[0.3, -0.2],
                      control=[0.3, -0.2], f0="constant 1.0")
    path = write_config(tmp_path, cfg)
    out = tmp_path / "pinned"
    assert main(["optimize", "--config", path, "--out", str(out)]) == 0
    text = (out / "optimize_summary.txt").read_text()
    assert "fully_constrained=true" in text
    assert "iterations=0" in text


def test_verify_runs_the_configured_checks(tmp_path):
    cfg = base_config(verify=[
        {"check": "scalar", "samples": 1000},
        {"check": "poisson", "omega": [1.0, 2.0],
         "alpha": 3.141592653589793},
        {"check": "mollified", "R": 1.0, "rho0": 0.5, "epsilon": 0.1,
         "m": 6.283185307179586, "resolution": 32},
    ])
    path = write_config(tmp_path, cfg)
    out = tmp_path / "verify"
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    rows = (out / "estimates.csv").read_text().splitlines()
    assert rows[1] == "name,parameters,lhs,rhs,margin,pass"
    names = [r.split(",")[0] for r in rows[2:]]
    assert names == ["scalar-exponential", "poisson-exponential",
                     "mollified-pointwise", "mollified-integral"]
    assert all(r.endswith("true") for r in rows[2:])


def test_mollified_entries_on_one_disk_share_its_mesh(tmp_path,
                                                    monkeypatch):
    entries = [{"check": "mollified", "R": 1.0, "x0": x0, "rho0": 0.5,
                "epsilon": 0.1, "m": m, "resolution": 16}
               for x0, m in (([0.0, 0.0], 6.0), ([0.1, -0.05], 9.0))]
    plain = cli.build_mesh
    built = []

    def counted(*args):
        built.append(args)
        return plain(*args)
    monkeypatch.setattr(cli, "build_mesh", counted)

    def rows(name, chosen):
        path = write_config(tmp_path, base_config(verify=chosen),
                            name + ".json")
        out = tmp_path / name
        assert main(["verify", "--config", path, "--out", str(out)]) == 0
        return (out / "estimates.csv").read_text().splitlines()[2:]
    shared = rows("shared", entries)
    assert len(built) == 1
    assert shared == rows("first", entries[:1]) + rows("second", entries[1:])
    assert len(built) == 3


def test_verify_propagates_hypothesis_violations(tmp_path, capsys):
    cfg = base_config(verify=[{"check": "poisson", "omega": [-1.0, 1.0],
                               "alpha": 3.14}])
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", path, "--out",
                 str(tmp_path / "o")]) == 1
    assert "positive" in capsys.readouterr().err


def test_verify_exit_four_on_a_failing_estimate(tmp_path, monkeypatch):
    cfg = base_config(verify=[{"check": "scalar", "samples": 10}])
    path = write_config(tmp_path, cfg)
    monkeypatch.setattr(
        cli, "verify_scalar_exponential",
        lambda samples, seed: EstimateReport("scalar-exponential", 2.0, 1.0,
                                             {"samples": samples}))
    out = tmp_path / "fail"
    assert main(["verify", "--config", path, "--out", str(out)]) == 4
    assert "failed=1" in (out / "verify_summary.txt").read_text()


def test_verify_counts_a_skipped_trial_apart_and_exits_two(tmp_path,
                                                           monkeypatch):
    cfg = base_config(verify=[{"check": "lipschitz", "trials": 3}])
    path = write_config(tmp_path, cfg)
    plain = expctrl.estimates.solve_state
    calls = []

    def failing_third_solve(instance, u, mesh):
        calls.append(u)
        if len(calls) == 3:
            raise RuntimeError("state solve failed")
        return plain(instance, u, mesh)
    monkeypatch.setattr(expctrl.estimates, "solve_state",
                        failing_third_solve)
    out = tmp_path / "skip"
    assert main(["verify", "--config", path, "--out", str(out)]) == 2
    summary = (out / "verify_summary.txt").read_text().splitlines()[1:]
    assert summary == ["reports=7", "failed=0", "skipped=1"]
    rows = (out / "estimates.csv").read_text().splitlines()[2:]
    skipped = [r for r in rows if r.startswith("lipschitz-skipped,")]
    assert len(skipped) == 1 and skipped[0].endswith(",skipped")
    assert "error=state solve failed" in skipped[0]
    assert sum(r.endswith(",true") for r in rows) == 6


def test_semilinear_certificate_on_a_graded_disk(tmp_path):
    # unit mass at the center of the n = 96 disk graded 4 levels toward
    # it: the first Newton system's round-off floor lies above 1e-12
    cfg = {
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
        "points": [[0.0, 0.0]],
        "lower": [0.0],
        "upper": [1.0],
        "mesh": {"resolution": 96, "refine_levels": 4},
        "verify": [{"check": "semilinear", "omega": [1.0],
                    "alpha": 2.0 * np.pi}],
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "graded"
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    summary = (out / "verify_summary.txt").read_text()
    assert "failed=0" in summary and "skipped=0" in summary


def test_verify_rejects_unknown_checks(tmp_path, capsys):
    cfg = base_config(verify=[{"check": "nonsense"}])
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", path, "--out",
                 str(tmp_path / "o")]) == 1
    assert "unknown check" in capsys.readouterr().err


@pytest.mark.parametrize("entry,key", [
    ({"check": "scalar", "sampels": 5}, "sampels"),
    ({"check": "poisson", "omega": [1.0, 1.0], "alpha": 3.0,
      "alpah": 2.0}, "alpah"),
    ({"check": "semilinear", "omgea": [1.0, 1.0], "alpha": 3.0}, "omgea"),
    ({"check": "lipschitz", "trails": 1}, "trails"),
    ({"check": "mollified", "R": 1.0, "rho0": 0.5, "epsilon": 0.1,
      "m": 1.0, "resolutoin": 16}, "resolutoin"),
    # a key that another check reads is still unknown to this one
    ({"check": "scalar", "trials": 5}, "trials"),
])
def test_verify_rejects_unknown_entry_keys(tmp_path, capsys, entry, key):
    # a misspelt key would silently run the check's default; the scalar
    # entry in front shows that no check runs before the error
    cfg = base_config(verify=[{"check": "scalar", "samples": 10}, entry])
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", path, "--out",
                 str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error: field 'verify.%s': unknown key for check '%s'" \
        % (key, entry["check"]) in err
    assert not (tmp_path / "o").exists()


def test_taylor_writes_slopes(tmp_path):
    cfg = base_config(f0="constant 1.0", y_d="constant 0.4",
                      control=[0.4, -0.2], direction=[1.0, -0.5],
                      mesh={"resolution": 24})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "taylor"
    assert main(["taylor", "--config", path, "--out", str(out)]) == 0
    summary = dict(line.split("=", 1) for line in
                   (out / "taylor_summary.txt").read_text().splitlines()[1:])
    assert float(summary["slope_r1"]) > 1.9
    assert float(summary["slope_r2"]) > 2.5
    rows = (out / "remainders.csv").read_text().splitlines()
    assert rows[1] == "rho,r1,r2,state_r1,state_r2,note"
    assert len(rows) == 7      # header lines plus the default 5-point grid


def test_taylor_zero_direction_gives_zero_table(tmp_path):
    cfg = base_config(control=[0.2, 0.2], direction=[0.0, 0.0])
    path = write_config(tmp_path, cfg)
    out = tmp_path / "tz"
    assert main(["taylor", "--config", path, "--out", str(out)]) == 0
    for row in (out / "remainders.csv").read_text().splitlines()[2:]:
        rho, r1, r2, s1, s2, note = row.split(",")
        assert float(r1) == 0.0 and float(r2) == 0.0
        assert float(s1) == 0.0 and float(s2) == 0.0


def test_state_of_target_survives_a_second_command(tmp_path):
    # resolving y_d must not pin the config to the first command's mesh
    cfg = RunConfig.from_dict(
        base_config(y_d="state_of(0.5, 0.5)", control=[0.2, 0.2],
                    direction=[1.0, -0.5], rho_grid=[1e-1, 1e-2]),
        out=tmp_path / "t1")
    assert cli.cmd_taylor(cfg) == 0
    cfg.out = tmp_path / "t2"
    assert cli.cmd_taylor(cfg) == 0
    first = (tmp_path / "t1" / "taylor_summary.txt").read_text()
    second = (tmp_path / "t2" / "taylor_summary.txt").read_text()
    assert first.splitlines()[1:] == second.splitlines()[1:]
    assert isinstance(cfg.instance.y_d, cli._StateOf)


COMMAND_CONFIGS = {
    "solve": dict(f0="constant 1.0", control=[0.5, -0.3]),
    "optimize": dict(f0="constant 1.0", y_d="gaussian(0.5, 0.5, 0.2, 2.0)",
                     control=[0.5, -0.3]),
    "verify": dict(verify=[{"check": "scalar", "samples": 300},
                           {"check": "lipschitz", "trials": 2}]),
    "taylor": dict(f0="constant 1.0", y_d="constant 0.4",
                   control=[0.4, -0.2], direction=[1.0, -0.5],
                   rho_grid=[1e-1, 1e-2]),
}


@pytest.mark.parametrize("command", sorted(COMMAND_CONFIGS))
def test_reports_are_deterministic_after_the_timestamp(tmp_path, command):
    path = write_config(tmp_path, base_config(**COMMAND_CONFIGS[command]))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", path, "--out", str(a)]) == 0
    assert main([command, "--config", path, "--out", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names and names == sorted(p.name for p in b.iterdir())
    for name in names:
        la = (a / name).read_text().splitlines()
        lb = (b / name).read_text().splitlines()
        assert la[0].startswith("# generated ")
        assert la[1:] == lb[1:]


_SMOKE_DOMAINS = {
    "square": dict(domain={"kind": "unit_square"},
                   points=[[0.3, 0.4], [0.7, 0.6]], lower=[-1.0, -1.0],
                   upper=[2.0, 2.0], control=[0.5, -0.3],
                   direction=[1.0, -0.5]),
    "disk": dict(domain={"kind": "disk", "center": [0.0, 0.0],
                         "radius": 1.0},
                 points=[[0.1, 0.05]], lower=[-1.0], upper=[2.0],
                 control=[0.5], direction=[1.0]),
}
# the coarsest meshes: at resolution 1 every vertex is on the boundary
_SMOKE_MESHES = {
    "n1": {"resolution": 1},
    "n2": {"resolution": 2},
    "n2-graded-1": {"resolution": 2, "refine_levels": 1},
}


def assert_finite_reports(out):
    """Every number in the reports under out is finite and none is
    written as a negative zero."""
    paths = sorted(out.iterdir())
    assert paths
    for path in paths:
        for line in path.read_text().splitlines()[1:]:
            for cell in re.split(r"[,=\[\] ]", line):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert np.isfinite(value), (path.name, line)
                assert not (value == 0.0 and cell.startswith("-")), \
                    (path.name, line)


@pytest.mark.parametrize("mesh", sorted(_SMOKE_MESHES))
@pytest.mark.parametrize("domain", sorted(_SMOKE_DOMAINS))
def test_every_command_runs_on_the_smallest_meshes(tmp_path, domain, mesh):
    cfg = dict(_SMOKE_DOMAINS[domain], nu=0.1, f0="constant 1.0",
               y_d="constant 0.4", rho_grid=[1e-1, 1e-2],
               mesh=_SMOKE_MESHES[mesh])
    omega = [1.0] * len(cfg["points"])
    cfg["verify"] = [
        {"check": "poisson", "omega": omega, "alpha": 3.0},
        {"check": "semilinear", "omega": omega, "alpha": 3.0},
        {"check": "lipschitz", "trials": 2}]
    path = write_config(tmp_path, cfg)
    for command in ("solve", "optimize", "taylor", "verify"):
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == 0
        assert_finite_reports(out)


def test_optimize_at_a_vanishing_gradient_writes_no_negative_zero(
        tmp_path):
    # no data and a start at the lower bound 0: every gradient entry
    # is an exact zero, and so is its residual at the bound
    path = write_config(tmp_path, base_config(lower=[0.0, 0.0],
                                              control=[0.0, 0.0]))
    out = tmp_path / "out"
    assert main(["optimize", "--config", path, "--out", str(out)]) == 0
    assert_finite_reports(out)


def test_seed_override_changes_random_draws(tmp_path):
    cfg = base_config(verify=[{"check": "lipschitz", "trials": 1}])
    path = write_config(tmp_path, cfg)
    a, b = tmp_path / "s1", tmp_path / "s2"
    assert main(["verify", "--config", path, "--out", str(a),
                 "--seed", "1"]) == 0
    assert main(["verify", "--config", path, "--out", str(b),
                 "--seed", "2"]) == 0
    ra = (a / "estimates.csv").read_text().splitlines()[2]
    rb = (b / "estimates.csv").read_text().splitlines()[2]
    assert ra != rb


@pytest.mark.parametrize("command", ["solve", "optimize", "taylor", "verify"])
def test_seed_override_is_validated_like_the_config_field(tmp_path, capsys,
                                                          command):
    cfg = base_config(direction=[1.0, 0.0],
                      verify=[{"check": "scalar", "samples": 10}])
    path = write_config(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "o"),
                 "--seed", "-1"]) == 1
    assert "config error: field 'seed'" in capsys.readouterr().err


@pytest.mark.parametrize("command,extra,field", [
    ("solve", {"y_d": "state_of(0.5, -0.3, 1.0)"}, "y_d"),
    ("verify", {"y_d": "state_of(0.5, -0.3, 1.0)"}, "y_d"),
    ("optimize", {"y_d": "state_of(0.5)"}, "y_d"),
    ("taylor", {"y_d": "state_of(0.5)"}, "y_d"),
    ("solve", {"control": [1.0]}, "control"),
    ("optimize", {"control": [1.0, float("nan")]}, "control"),
    ("taylor", {"control": [1.0]}, "control"),
    ("taylor", {"direction": [1.0]}, "direction"),
    ("taylor", {"rho_grid": [0.1, -0.1]}, "rho_grid"),
    # values whose state is solved as given lie below 4 pi
    ("solve", {"control": [13.0, 1.0]}, "control"),
    ("taylor", {"control": [13.0, 1.0]}, "control"),
    ("optimize", {"y_d": "state_of(13.0, 1.0)"}, "y_d"),
    ("solve", {"y_d": "state_of(1.0, %r)" % (4.0 * np.pi)}, "y_d"),
    # optimize starts where it is told, inside its box [-1, 2]
    ("optimize", {"control": [13.0, 1.0]}, "control"),
    ("optimize", {"control": [1.0, -1.5]}, "control"),
])
def test_every_value_is_read_before_the_mesh_is_built(
        tmp_path, capsys, monkeypatch, command, extra, field):
    def no_mesh(instance):
        raise AssertionError("a mesh was built")
    monkeypatch.setattr(expctrl.pde.ProblemInstance, "make_mesh", no_mesh)
    cfg = base_config(direction=[1.0, 0.0],
                      verify=[{"check": "scalar", "samples": 10}])
    cfg.update(extra)
    path = write_config(tmp_path, cfg)
    assert main([command, "--config", path, "--out",
                 str(tmp_path / "o")]) == 1
    assert "config error: field '%s'" % field in capsys.readouterr().err


def test_optimize_reports_do_not_depend_on_the_seed(tmp_path):
    path = write_config(tmp_path, README_CONFIG)
    a, b = tmp_path / "s1", tmp_path / "s2"
    assert main(["optimize", "--config", path, "--out", str(a),
                 "--seed", "1"]) == 0
    assert main(["optimize", "--config", path, "--out", str(b),
                 "--seed", "2"]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert "second_order.csv" in names
    for name in names:
        la = (a / name).read_text().splitlines()
        lb = (b / name).read_text().splitlines()
        assert la[0].startswith("# generated ")
        assert la[1:] == lb[1:]


def read_optimize(out):
    """The summary entries and the control of an optimize run."""
    summary = dict(line.split("=", 1) for line in
                   (out / "optimize_summary.txt").read_text().splitlines()[1:])
    rows = (out / "control.csv").read_text().splitlines()[2:]
    return summary, np.array([float(row.split(",")[1]) for row in rows])


def test_optimize_with_forcing_hessians_matches_tight_ones(tmp_path,
                                                           monkeypatch):
    # the iterate Hessians only steer steps that the Armijo test guards;
    # solving their columns to the forcing tolerance instead of _CG_TOL
    # keeps the iterations and the optimum
    path = write_config(tmp_path, README_CONFIG)
    assert main(["optimize", "--config", path, "--out",
                 str(tmp_path / "forcing")]) == 0
    hessian = expctrl.optimizer.reduced_hessian

    def tight(*args, tol=None):
        return hessian(*args, tol=expctrl.pde._CG_TOL)
    monkeypatch.setattr(expctrl.optimizer, "reduced_hessian", tight)
    assert main(["optimize", "--config", path, "--out",
                 str(tmp_path / "tight")]) == 0
    forcing, u = read_optimize(tmp_path / "forcing")
    reference, u_ref = read_optimize(tmp_path / "tight")
    assert forcing["iterations"] == reference["iterations"] == "2"
    assert_allclose(float(forcing["J"]), float(reference["J"]), rtol=1e-9)
    assert_allclose(u, u_ref, atol=1e-3)
    assert forcing["second_order_pass"] == "true"
    assert forcing["critical_cone_empty"] == "false"


def test_optimize_vcycle_budget(tmp_path, monkeypatch):
    # 192 V-cycles when every solve applied one V-cycle it did not read
    # and every Hessian column was solved to _CG_TOL
    path = write_config(tmp_path, README_CONFIG)
    cycles = count_vcycles(monkeypatch)
    assert main(["optimize", "--config", path, "--out",
                 str(tmp_path / "o")]) == 0
    assert len(cycles) <= 120


def test_the_retired_second_order_count_is_ignored(tmp_path):
    # configs written for the sampled second-order check still run, to
    # the same reports
    out = {}
    for name, extra in (("plain", {}),
                        ("retired", {"second_order_count": 64})):
        path = write_config(tmp_path, base_config(
            f0="constant 1.0", y_d="constant 0.4", **extra), name + ".json")
        out[name] = tmp_path / name
        assert main(["optimize", "--config", path, "--out",
                     str(out[name])]) == 0
    for report in ("optimize_summary.txt", "control.csv"):
        plain = (out["plain"] / report).read_text().splitlines()
        retired = (out["retired"] / report).read_text().splitlines()
        assert plain[1:] == retired[1:]


def test_control_length_is_validated(tmp_path, capsys):
    cfg = base_config(control=[1.0])
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out",
                 str(tmp_path / "o")]) == 1
    assert "one value per source point" in capsys.readouterr().err


def test_rectangle_domain_roundtrip(tmp_path):
    cfg = {
        "domain": {"kind": "rectangle", "corners": [0.0, 0.0, 2.0, 1.0]},
        "points": [[1.0, 0.5]],
        "lower": [0.0], "upper": [1.0],
        "nu": 0.1,
        "mesh": {"resolution": 8},
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "rect"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    summary = (out / "solve_summary.txt").read_text()
    assert "converged=true" in summary


def test_module_entry_point_runs_the_command(tmp_path):
    env = subprocess_env()

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "expctrl.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=300)
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    done = run("solve", "--config", str(bad))
    assert done.returncode == 1
    assert "config error" in done.stderr
    out = tmp_path / "out"
    done = run("solve", "--config", write_config(tmp_path, base_config()),
               "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert (out / "solve_summary.txt").is_file()


_STARTUP_PROBE = """
import json, sys
import expctrl.cli

def loaded():
    return {name: name in sys.modules for name in
            ("scipy.sparse", "scipy._lib._array_api", "numpy.f2py",
             "numpy.random", "numpy.polynomial", "numpy.ma")}

before = loaded()
status = expctrl.cli.main([sys.argv[1], "--config", sys.argv[2],
                           "--out", sys.argv[3]])
print(json.dumps([before, loaded(), status]))
"""


def test_cli_never_imports_the_scipy_sparse_package(tmp_path):
    # scipy.sparse, with the array-API layer that loads numpy.f2py, takes
    # longer to import than numpy and scipy together; the package only
    # calls scipy's compiled kernels.  numpy.random is never loaded: the
    # sampling checks draw from Python's random module.  numpy.polynomial
    # is never loaded: the mollifier's constant is written out, not
    # integrated at import.  numpy.ma, which np.unique loads, is never
    # loaded either
    expected = {"scipy.sparse": False, "scipy._lib._array_api": False,
                "numpy.f2py": False, "numpy.random": False,
                "numpy.polynomial": False, "numpy.ma": False}
    for k, (command, extra) in enumerate([
            ("solve", {}),
            ("optimize", {}),
            ("taylor", {"control": [0.2, 0.2], "direction": [1.0, 0.0],
                        "rho_grid": [0.1]}),
            ("verify", {"verify": [{"check": "lipschitz", "trials": 1}]}),
            ("verify", {"verify": [{"check": "scalar", "samples": 100}]}),
            ("verify", {"verify": [{"check": "mollified", "R": 1.0,
                                    "rho0": 0.5, "epsilon": 0.1,
                                    "m": 2.0 * np.pi, "resolution": 16}]})]):
        path = write_config(tmp_path, base_config(f0="constant 1.0",
                                                  **extra))
        done = subprocess.run(
            [sys.executable, "-c", _STARTUP_PROBE, command, path,
             str(tmp_path / ("%s-%d" % (command, k)))],
            env=subprocess_env(), capture_output=True, text=True,
            timeout=300)
        assert done.returncode == 0, done.stderr
        before, after, status = json.loads(done.stdout.splitlines()[-1])
        assert status == 0
        assert before == expected
        assert after == expected
