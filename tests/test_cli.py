import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import expctrl.cli as cli
import expctrl.pde
from expctrl.cli import (ConfigError, RunConfig, load_config, main,
                         parse_field)
from expctrl.estimates import EstimateReport
from expctrl.fem import assemble_stiffness


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


def test_solve_exit_codes_for_config_errors(tmp_path, capsys):
    bad = base_config(upper=[1.0, 13.0])
    path = write_config(tmp_path, bad)
    assert main(["solve", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "component 1" in err
    p2 = tmp_path / "syntax.json"
    p2.write_text("{")
    assert main(["solve", "--config", str(p2)]) == 1


def test_indefinite_operator_exits_as_a_solver_error(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setattr(expctrl.pde, "assemble_stiffness",
                        lambda mesh: -assemble_stiffness(mesh))
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
        second_order_count=6,
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "opt"
    assert main(["optimize", "--config", path, "--out", str(out)]) == 0
    summary = dict(line.split("=", 1) for line in
                   (out / "optimize_summary.txt").read_text().splitlines()[1:])
    assert summary["converged"] == "true"
    assert float(summary["kkt_residual"]) <= 1e-6
    assert summary["second_order_pass"] == "true"
    kkt = (out / "kkt.csv").read_text().splitlines()
    assert kkt[1].split(",") == ["index", "u", "lower", "upper", "d",
                                 "classification", "residual"]
    assert len(kkt) == 4
    assert (out / "second_order.csv").exists()
    assert (out / "iterates.csv").exists()


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


def test_verify_rejects_unknown_checks(tmp_path, capsys):
    cfg = base_config(verify=[{"check": "nonsense"}])
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", path, "--out",
                 str(tmp_path / "o")]) == 1
    assert "unknown check" in capsys.readouterr().err


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


def test_reports_are_deterministic_after_the_timestamp(tmp_path):
    cfg = base_config(verify=[{"check": "scalar", "samples": 300},
                              {"check": "lipschitz", "trials": 2}])
    path = write_config(tmp_path, cfg)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", path, "--out", str(a)]) == 0
    assert main(["verify", "--config", path, "--out", str(b)]) == 0
    for name in ("estimates.csv", "verify_summary.txt"):
        la = (a / name).read_text().splitlines()
        lb = (b / name).read_text().splitlines()
        assert la[0].startswith("# generated ")
        assert la[1:] == lb[1:]


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
