"""Tests of the benchmark itself: span arithmetic, patching, failure
classification, and a short run of each workload.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import expctrl.cli  # noqa: E402
import expctrl.fem  # noqa: E402
import expctrl.pde  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from expctrl.mesh import Domain  # noqa: E402
from expctrl.pde import ProblemInstance  # noqa: E402
from expctrl.sequences import (BoundsPair, Control,  # noqa: E402
                               compute_separation_radii)


def _span(name, start, end, parent):
    s = spans.Span(name, parent, 0)
    s.start, s.end = start, end
    return s


def test_self_time_subtracts_union_of_children():
    tree = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 3.0, 0),
        _span("c", 2.0, 4.0, 0),   # overlaps b: the union counts once
        _span("d", 9.0, 12.0, 0),  # runs past its parent: clipped
        _span("e", 1.5, 2.5, 1),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx([10.0 - 3.0 - 1.0, 2.0 - 1.0, 2.0, 3.0,
                                 1.0])


def _module_state():
    state = {}
    for name, module in sys.modules.items():
        if name == "expctrl" or name.startswith("expctrl."):
            for attr, value in vars(module).items():
                state[(name, attr)] = value
                if isinstance(value, dict):
                    for key, entry in value.items():
                        state[(name, attr, key)] = entry
    return state


def test_tracer_patches_every_binding_and_restores_it():
    before = _module_state()
    original = expctrl.fem.solve_spd
    with spans.Tracer():
        assert expctrl.fem.solve_spd is not original
        # pde's own binding from `from .fem import solve_spd`
        assert expctrl.pde.solve_spd is expctrl.fem.solve_spd
        assert expctrl.cli._COMMANDS["verify"] is expctrl.cli.cmd_verify
        assert expctrl.cli.cmd_verify.__wrapped__ is not None
    after = _module_state()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def test_spans_nest_across_modules_and_count_newton_steps():
    domain = Domain.unit_square()
    points = compute_separation_radii([[0.31, 0.42]], domain)
    instance = ProblemInstance(domain, points, BoundsPair([0.0], [5.0]),
                               0.0, resolution=8)
    with spans.Tracer() as tracer:
        mesh = instance.make_mesh()
        state = expctrl.pde.solve_state(instance, Control([3.0]), mesh)
    names = [s.name for s in tracer.spans]
    semilinear = names.index("pde.solve_semilinear")
    spd = [s for s in tracer.spans if s.name == "fem.solve_spd"]
    assert spd and all(s.parent == semilinear for s in spd)
    m = spans.layer_metrics(tracer.spans)
    assert m["mesh.builds"] == 1
    assert m["pde.state_solves"] == 1
    assert m["pde.newton_steps"] == state.newton_iterations
    assert m["fem.spd_solves"] == len(spd) == m["pde.spd_per_state"]
    assert m["fem.spd_dofs"] == len(spd) * 7 * 7
    assert m["mesh.locate_calls"] == 1


def _verify_reports(rows, failed=0):
    csv = "name,parameters,lhs,rhs,margin,pass\n" + "".join(
        "%s,trial=%d,1,2,1,true\n" % (name, i) for i, name in
        enumerate(rows))
    return {"estimates.csv": csv,
            "verify_summary.txt": "reports=%d\nfailed=%d\n"
            % (len(rows), failed)}


def test_skipped_trial_counts_as_failed():
    good = _verify_reports(["exp-minus-one-l1", "exp-difference-l1"])
    assert workloads.check_outputs("newton-sweep", "sweep", good) == []
    # verify itself counts a skipped trial as passed: failed=0
    skipped = _verify_reports(["exp-minus-one-l1", "lipschitz-skipped"])
    reasons = workloads.check_outputs("newton-sweep", "sweep", skipped)
    assert reasons == ["1 lipschitz-skipped rows"]


def test_non_identical_repeat_counts_as_failed():
    first = _verify_reports(["exp-minus-one-l1"])
    again = dict(first)
    assert workloads.check_outputs("newton-sweep", "sweep", again,
                                   first) == []
    again["estimates.csv"] = again["estimates.csv"].replace(",1,", ",3,")
    assert workloads.check_outputs("newton-sweep", "sweep", again,
                                   first) == [
        "reports differ from the previous task"]


def test_optimize_summary_checks():
    reports = {"optimize_summary.txt": "converged=true\n"
               "second_order_pass=true\ncritical_cone_empty=true\n"}
    assert workloads.check_outputs("optimize-square", "square",
                                   reports) == ["critical_cone_empty=true"]


def test_disk_lhs_must_be_near_two_pi():
    reports = _verify_reports(["poisson-exponential"])
    assert workloads.check_outputs("certify-graded", "disk", reports) == [
        "disk lhs [1.0] not within 1e-3 of 2pi"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_points_are_off_grid(seed):
    for name, fn in workloads.WORKLOADS.items():
        for _, _, config, _ in fn(seed):
            if config["domain"]["kind"] != "unit_square":
                continue
            n = config["mesh"]["resolution"]
            for x, y in config["points"]:
                fx, fy = (x * n) % 1.0, (y * n) % 1.0
                for v in (fx, fy, fx - fy):
                    assert min(abs(v - c) for c in (-1, -0.5, 0, 0.5, 1)) \
                        >= workloads._GRID_MARGIN


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "7",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    proc = _run(ROOT, "--workload", "newton-sweep", "--seed", "7",
                "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    assert result["metrics"]["pde.state_solves"]["value"] == 40


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    proc = _run(tmp_path, "--workload", "newton-sweep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
