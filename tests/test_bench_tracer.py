"""The benchmark's tracer against the current result fields.

bench/spans.py reads some public names and result fields of expctrl:
the third argument of fem.solve_spd, a state's newton_iterations and
linear, projected_gradient's (u, report) with report.iterations,
build_mesh's num_vertices and a report's name.  Its own tests live in
bench/ and are not collected here, so this test runs every command
under the tracer on a tiny config: a renamed field fails it.  The
bench directory is only read.
"""

import json
import sys
from pathlib import Path

import numpy as np

import expctrl.cli as cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import spans  # noqa: E402

TINY = {
    "domain": {"kind": "unit_square"},
    "points": [[0.3, 0.4], [0.7, 0.6]],
    "lower": [-1.0, -1.0],
    "upper": [2.0, 2.0],
    "nu": 0.1,
    "f0": "constant 1.0",
    "y_d": "state_of(0.5, -0.3)",
    "control": [1.0, 1.0],
    "direction": [1.0, -0.5],
    "mesh": {"resolution": 8},
    "verify": [
        {"check": "scalar", "samples": 10},
        {"check": "poisson", "omega": [1.0, 0.5], "alpha": 2.0 * np.pi},
        {"check": "semilinear", "omega": [1.0, 0.5], "alpha": np.pi},
        {"check": "lipschitz", "trials": 1},
        {"check": "mollified", "R": 1.0, "rho0": 0.5, "epsilon": 0.1,
         "m": 2.0 * np.pi, "resolution": 8},
    ],
}


def test_traced_commands_give_the_tracer_its_fields(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(TINY))
    with spans.Tracer() as tracer:
        for command in ("solve", "optimize", "verify", "taylor"):
            assert cli.main([command, "--config", str(path), "--out",
                             str(tmp_path / command)]) == 0
    m = spans.layer_metrics(tracer.spans)
    assert m["pde.newton_steps"] > 0
    assert m["fem.spd_dofs"] > 0
    assert m["estimates.reports"] > 0
    assert m["mesh.vertices"] > 0
    assert m["optimizer.iterations"] > 0
    assert not m["fem.spd_failures"] and not m["pde.state_failures"]
