"""Seeded workload generation and output checks.

A workload turns a seed into a list of CLI invocations (one task) and
knows which report values make a task count as failed.  The program
only ever sees the generated JSON configs.

The seeds must keep three properties (see README.md):

- source points on the unit square sit strictly inside a triangle of
  the base grid and of its first red refinement, so point location
  never takes the full-scan fallback there;
- optimize-square has a mixed active set: one index whose target lies
  above the box, one below it, and two inside;
- the critical cone at the optimum is nonempty, which the interior
  indices guarantee.
"""

import json
import math
import random
from pathlib import Path

TWO_PI = 2.0 * math.pi

# Cell-relative coordinates are kept this far from the lines of the
# structured grid (x, y, x - y at 0) and of its red refinement (0.5).
_GRID_MARGIN = 0.05


def _off_grid_point(rng, n, x0, x1, y0, y1):
    """A point in [x0, x1] x [y0, y1] off every vertex and edge of the
    n x n criss-cross grid and of its first red refinement."""
    while True:
        x = rng.uniform(x0, x1) * n
        y = rng.uniform(y0, y1) * n
        fx, fy = x % 1.0, y % 1.0
        lines = (fx, fy, fx - fy)
        if all(min(abs(v - c) for c in (-1.0, -0.5, 0.0, 0.5, 1.0))
               >= _GRID_MARGIN for v in lines):
            return [x / n, y / n]


def _separated_points(rng, count, n, lo, hi, min_dist):
    points = []
    while len(points) < count:
        p = _off_grid_point(rng, n, lo, hi, lo, hi)
        if all(math.dist(p, q) >= min_dist for q in points):
            points.append(p)
    return points


def optimize_square(seed):
    """expctrl optimize on the unit square, n=96, K=4, state_of target.

    The seed moves each point within +-0.01 of its quadrant site and
    each target value within +-0.02.  Larger moves change the number
    of projected-gradient iterations (8 to 18 for uniformly drawn
    layouts), and with it the work of a task, which would make the
    spread between seeds measure the inputs instead of the program.
    """
    rng = random.Random(seed)
    n = 96
    sites = [(0.3, 0.3), (0.7, 0.3), (0.3, 0.7), (0.7, 0.7)]
    points = [_off_grid_point(rng, n, x - 0.01, x + 0.01,
                              y - 0.01, y + 0.01) for x, y in sites]
    lower, upper = -1.0, 2.0
    # target above the box, below it, and twice inside: a mixed active
    # set whose interior indices keep the critical cone nonempty
    target = [v + rng.uniform(-0.02, 0.02)
              for v in (upper + 0.75, lower - 0.75, 0.3, 0.8)]
    config = {
        "domain": {"kind": "unit_square"},
        "points": points,
        "lower": [lower] * 4,
        "upper": [upper] * 4,
        "nu": 1e-3,
        "f0": "zero",
        "y_d": "state_of(%s)" % ", ".join("%.17g" % v for v in target),
        "mesh": {"resolution": n},
        "second_order_count": 64,
    }
    return [("optimize", "square", config, rng.randrange(1 << 30))]


def newton_sweep(seed):
    """expctrl verify lipschitz: 20 trials, 40 state solves near 4 pi.

    The 40 controls come from the CLI seed and are drawn freely.  The
    points (a 3 x 3 grid of sites without its center) and the gaussian
    f0 only move a little with the seed: with freely drawn layouts the
    time of a task varied by up to 20 % between seeds, with one layout
    by 5 %.
    """
    rng = random.Random(seed)
    n = 64
    sites = [(x, y) for y in (0.25, 0.5, 0.75) for x in (0.25, 0.5, 0.75)
             if (x, y) != (0.5, 0.5)]
    points = [_off_grid_point(rng, n, x - 0.01, x + 0.01,
                              y - 0.01, y + 0.01) for x, y in sites]
    f0 = "gaussian(%.17g, %.17g, %.17g, %.17g)" % (
        0.5 + rng.uniform(-0.01, 0.01), 0.5 + rng.uniform(-0.01, 0.01),
        0.15 + rng.uniform(-0.005, 0.005), 1.0 + rng.uniform(-0.05, 0.05))
    config = {
        "domain": {"kind": "unit_square"},
        "points": points,
        "lower": [0.0] * 8,
        "upper": [12.5] * 8,
        "f0": f0,
        "mesh": {"resolution": n},
        "verify": [{"check": "lipschitz", "trials": 20}],
    }
    return [("verify", "sweep", config, rng.randrange(1 << 30))]


def certify_graded(seed):
    """expctrl verify: the graded disk, the mollified certificates, and
    seeded square Poisson certificates."""
    rng = random.Random(seed)
    mollified = [{"check": "mollified", "R": 1.0, "x0": [0.0, 0.0],
                  "rho0": 0.5, "epsilon": 0.1, "m": TWO_PI,
                  "resolution": 64}]
    for _ in range(5):
        radius = rng.uniform(0.0, 0.2)
        angle = rng.uniform(0.0, TWO_PI)
        rho0 = rng.uniform(0.35, 0.55)
        mollified.append({
            "check": "mollified", "R": 1.0,
            "x0": [radius * math.cos(angle), radius * math.sin(angle)],
            "rho0": rho0, "epsilon": rng.uniform(0.1, 0.4 * rho0),
            "m": rng.uniform(1.0, 10.0), "resolution": 48})
    disk = {
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
        "points": [[0.0, 0.0]],
        "lower": [0.0],
        "upper": [1.0],
        "mesh": {"resolution": 96, "refine_levels": 12},
        "verify": [{"check": "poisson", "omega": [1.0], "alpha": TWO_PI}]
        + mollified,
    }
    tasks = [("verify", "disk", disk, rng.randrange(1 << 30))]
    for k in (1, 2, 3):
        points = _separated_points(rng, k, 64, 0.25, 0.75, 0.2)
        entries = [{"check": "poisson",
                    "omega": [rng.uniform(0.1, 3.0) for _ in range(k)],
                    "alpha": rng.choice([math.pi, TWO_PI, 3.0 * math.pi])}
                   for _ in range(2)]
        tasks.append(("verify", "square%d" % k, {
            "domain": {"kind": "unit_square"},
            "points": points,
            "lower": [0.0] * k,
            "upper": [1.0] * k,
            "mesh": {"resolution": 64, "refine_levels": 1},
            "verify": entries,
        }, rng.randrange(1 << 30)))
    return tasks


WORKLOADS = {
    "optimize-square": optimize_square,
    "newton-sweep": newton_sweep,
    "certify-graded": certify_graded,
}


def write_configs(workload, seed, directory):
    """Write the workload's configs and return the task's invocations
    as (name, argv, out_dir) triples."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    calls = []
    for command, name, config, cli_seed in WORKLOADS[workload](seed):
        path = directory / ("%s.json" % name)
        path.write_text(json.dumps(config, indent=1, sort_keys=True))
        out = directory / ("out-%s" % name)
        calls.append((name, [command, "--config", str(path),
                             "--out", str(out), "--seed", str(cli_seed)],
                      out))
    return calls


def read_reports(out):
    """Report files of one invocation, without their timestamp line."""
    reports = {}
    for path in sorted(Path(out).iterdir()):
        text = path.read_text()
        reports[path.name] = text.split("\n", 1)[1] if "\n" in text else ""
    return reports


def _summary(reports, name):
    pairs = {}
    for line in reports.get(name, "").splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def _estimate_rows(reports):
    lines = reports.get("estimates.csv", "").splitlines()
    if not lines:
        return []
    columns = lines[0].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[1:]]


def check_outputs(workload, name, reports, previous=None):
    """Reasons the reports of one invocation fail the workload's
    checks; empty when they pass.  previous holds the same
    invocation's reports from the task before, which must match them
    byte for byte after the timestamp line."""
    reasons = []
    if previous is not None and previous != reports:
        reasons.append("reports differ from the previous task")
    rows = _estimate_rows(reports)
    skipped = sum(1 for r in rows if r.get("name") == "lipschitz-skipped")
    if skipped:
        reasons.append("%d lipschitz-skipped rows" % skipped)
    if workload == "optimize-square":
        summary = _summary(reports, "optimize_summary.txt")
        for key, want in (("converged", "true"),
                          ("second_order_pass", "true"),
                          ("critical_cone_empty", "false")):
            if summary.get(key) != want:
                reasons.append("%s=%s" % (key, summary.get(key)))
    else:
        summary = _summary(reports, "verify_summary.txt")
        if summary.get("failed") != "0":
            reasons.append("failed=%s" % summary.get("failed"))
        if not rows:
            reasons.append("no estimate rows")
    if workload == "certify-graded" and name == "disk":
        lhs = [float(r["lhs"]) for r in rows
               if r.get("name") == "poisson-exponential"]
        if len(lhs) != 1 or abs(lhs[0] - TWO_PI) > 1e-3 * TWO_PI:
            reasons.append("disk lhs %s not within 1e-3 of 2pi" % lhs)
    return reasons
