"""Command-line surface: config ingestion, command dispatch, report
emission.

Four commands, each driven by a JSON config: solve (one state solve),
optimize (projected Newton with the exact reduced Hessian, the
first-order report, and the exact second-order certificate, whose
minimizing critical direction goes to second_order.csv), verify (the
inequality certifications), taylor (remainder tables).  Reports are
comma-separated files plus key=value summaries; apart from the leading
timestamp line, identical config and seed produce byte-identical
files.  The seed only draws the random samples of verify.

Every value of a config is checked here, once, before any mesh is
built, and an error names its field; the layers below take the values
as checked.  Bounds, controls and weights share one 4 pi rule,
sequences.below_four_pi.  The one check that needs the mesh, that
every source point lies in a triangle of it, runs right after the mesh
is built.
No tolerance is a config value: pde._NEWTON_TOL, optimizer.KKT_TOL and
_ACTIVE_TOL, and objective._TAYLOR_TOL each have one owner.

Exit codes: 0 success, 1 config error, 2 solver failure or another
fault of the program (an estimate side or a report value that is not
finite, or any other exception from the layers below, such as a
ValueError, reported on one line that names its type), 3 iteration
budget exhausted, 4 estimate violation.
"""

import argparse
import copy
import itertools
import json
import math
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .estimates import (verify_lipschitz_family, verify_mollified_poisson,
                        verify_poisson_exponential, verify_scalar_exponential,
                        verify_semilinear_exponential)
from .fem import integrate_exp_linear
from .mesh import Domain, build_mesh
from .objective import taylor_remainder_test
from .optimizer import KKT_TOL, projected_gradient, second_order_check
from .pde import ProblemInstance, point_coupling, solve_state
from .sequences import (FOUR_PI, BoundsPair, Control, below_four_pi,
                        compute_separation_radii)

_REQUIRED = object()

#: every top-level key a config may set; the commands read those they
#: need and ignore the others
_KEYS = ("domain", "points", "lower", "upper", "nu", "f0", "y_d", "mesh",
         "seed", "out", "control", "linear", "max_iters", "verify",
         "direction", "rho_grid")
#: the sample count of the retired sampled second-order check, still
#: accepted and ignored so that configs that set it keep running
_RETIRED_KEYS = ("second_order_count",)
#: the keys each domain kind reads besides "kind"
_DOMAIN_KEYS = {"unit_square": (), "rectangle": ("corners",),
                "disk": ("center", "radius")}
#: the keys each verify check reads besides "check"; any other key of
#: an entry is a configuration error
_VERIFY_KEYS = {"scalar": ("samples",), "poisson": ("omega", "alpha"),
                "semilinear": ("omega", "alpha"), "lipschitz": ("trials",),
                "mollified": ("R", "resolution", "x0", "rho0", "epsilon",
                              "m")}


class ConfigError(Exception):
    """A config file that does not parse to a valid run."""


def _field(cfg, name, default=_REQUIRED):
    """The value of the last component of the dotted name in cfg;
    errors quote the whole name."""
    key = name.rpartition(".")[2]
    if key in cfg:
        return cfg[key]
    if default is _REQUIRED:
        raise ConfigError("field '%s': missing" % name)
    return default


def _object(cfg, name, default=_REQUIRED):
    raw = _field(cfg, name, default)
    if not isinstance(raw, dict):
        raise ConfigError("field '%s': expected an object" % name)
    return raw


def _count(cfg, name, default, minimum):
    """An integer field of at least minimum; floats are not rounded
    and a JSON true, which Python takes for the integer 1, is no
    count."""
    value = _field(cfg, name, default)
    if type(value) is not int or value < minimum:
        raise ConfigError("field '%s': expected an integer >= %d"
                          % (name, minimum))
    return value


def _is_number(value):
    # not a JSON true (the int 1), Infinity or NaN, which json reads
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _number(cfg, name, default=_REQUIRED):
    """A finite number field, as a float."""
    value = _field(cfg, name, default)
    if not _is_number(value):
        raise ConfigError("field '%s': expected a finite number" % name)
    return float(value)


def _float_list(cfg, name, default=_REQUIRED, count=None,
                per="source point"):
    """A list of finite numbers; count, when given, is its length, one
    value per source point unless per names another unit."""
    raw = _field(cfg, name, default)
    if raw is default and raw is not _REQUIRED:
        return raw
    if not (isinstance(raw, list) and all(_is_number(v) for v in raw)):
        raise ConfigError("field '%s': expected a list of finite numbers"
                          % name)
    if count is not None and len(raw) != count:
        raise ConfigError("field '%s': expected %d numbers, one value per "
                          "%s" % (name, count, per))
    return [float(v) for v in raw]


def _points(cfg, domain):
    """The source points: a nonempty list of distinct [x, y] pairs of
    finite numbers inside the domain."""
    raw = _field(cfg, "points")
    if not (isinstance(raw, list) and raw
            and all(isinstance(p, list) and len(p) == 2
                    and all(_is_number(v) for v in p) for p in raw)):
        raise ConfigError("field 'points': expected a nonempty list of "
                          "[x, y] pairs of finite numbers")
    points = [[float(x), float(y)] for x, y in raw]
    for i, p in enumerate(points):
        if not domain.boundary_distance(p) > 0.0:
            raise ConfigError("field 'points': point %d at (%r, %r) is not "
                              "inside the domain" % (i, *p))
        if p in points[:i]:
            raise ConfigError("field 'points': point %d repeats point %d"
                              % (i, points.index(p)))
    return points


class _StateOf:
    """Deferred target: the state of a fixed control, solved on the
    run's mesh once it exists."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float).reshape(-1)


def parse_field(text, where):
    """Parse a named analytic field: "zero", "constant c",
    "gaussian(cx, cy, width, amplitude)", or "state_of(u1, ...)";
    plain numbers count as constants.  Every number must be finite."""
    if text is None:
        return None
    if _is_number(text):
        return float(text)
    if not isinstance(text, str):
        raise ConfigError("field '%s': expected a finite number or a field "
                          "description" % where)
    text = text.strip()
    if text == "zero":
        return None
    m = re.fullmatch(r"(constant)\s+([^\s()]+)", text) \
        or re.fullmatch(r"(\w+)\s*\((.*)\)", text)
    if m:
        name, body = m.groups()
        try:
            args = [float(v) for v in body.split(",")] if body.strip() \
                else []
        except ValueError:
            raise ConfigError("field '%s': bad numeric argument" % where)
        # float() reads "nan" and "inf"
        if not np.all(np.isfinite(args)):
            raise ConfigError("field '%s': numbers must be finite" % where)
        if name == "constant" and len(args) == 1:
            return args[0]
        if name == "gaussian":
            if len(args) != 4:
                raise ConfigError(
                    "field '%s': gaussian needs (cx, cy, width, amplitude)"
                    % where)
            return _gaussian(where, *args)
        if name == "state_of":
            if not args:
                raise ConfigError(
                    "field '%s': state_of needs control values" % where)
            return _StateOf(args)
    raise ConfigError("field '%s': unknown field '%s'" % (where, text))


def _gaussian(where, cx, cy, width, amplitude):
    if width <= 0.0:
        raise ConfigError("field '%s': gaussian width must be positive"
                          % where)

    def field(x):
        x = np.asarray(x, dtype=float).reshape(-1, 2)
        r2 = (x[:, 0] - cx) ** 2 + (x[:, 1] - cy) ** 2
        return amplitude * np.exp(-r2 / (2.0 * width ** 2))
    return field


def _parse_domain(cfg):
    """The domain; an error names its field domain.<key>."""
    raw = _object(cfg, "domain")
    kind = _field(raw, "domain.kind")
    if not (isinstance(kind, str) and kind in _DOMAIN_KEYS):
        raise ConfigError("field 'domain.kind': unknown kind '%s'" % (kind,))
    for key in raw:
        if key != "kind" and key not in _DOMAIN_KEYS[kind]:
            raise ConfigError(
                "field 'domain.%s': unknown key for kind '%s', which reads "
                "%s" % (key, kind, ", ".join(_DOMAIN_KEYS[kind])
                        or "no other key"))
    if kind == "unit_square":
        return Domain.unit_square()
    if kind == "rectangle":
        x0, y0, x1, y1 = _float_list(raw, "domain.corners", count=4,
                                     per="corner coordinate")
        if not (x0 < x1 and y0 < y1):
            raise ConfigError("field 'domain.corners': expected x0 < x1 and "
                              "y0 < y1, a rectangle of positive area")
        return Domain.rectangle(x0, y0, x1, y1)
    cx, cy = _float_list(raw, "domain.center", count=2, per="coordinate")
    radius = _number(raw, "domain.radius")
    if not radius > 0.0:
        raise ConfigError("field 'domain.radius': expected a positive number")
    return Domain.disk(cx, cy, radius)


class RunConfig:
    """Parsed run configuration: the problem instance, seed, output
    directory, and the raw command-specific entries."""

    def __init__(self, instance, seed, out, raw):
        self.instance = instance
        self.seed = seed
        self.out = out
        self.raw = raw

    @classmethod
    def from_dict(cls, cfg, out=None, seed=None):
        for key in cfg:
            if key not in _KEYS + _RETIRED_KEYS:
                raise ConfigError("field '%s': unknown key, expected one of "
                                  "%s" % (key, ", ".join(_KEYS)))
        domain = _parse_domain(cfg)
        points = compute_separation_radii(_points(cfg, domain), domain)
        lower = _float_list(cfg, "lower", count=points.count)
        upper = _float_list(cfg, "upper", count=points.count)
        for i, (lo, up) in enumerate(zip(lower, upper)):
            if lo > up:
                raise ConfigError("field 'lower': component %d exceeds upper "
                                  "(%r > %r)" % (i, lo, up))
        bounds = BoundsPair(lower, _below_four_pi(upper, "upper"))
        nu = _number(cfg, "nu", 0.0)
        if nu < 0.0:
            raise ConfigError("field 'nu': expected a nonnegative number")
        mesh_cfg = _object(cfg, "mesh", {})
        for key in mesh_cfg:
            if key not in ("resolution", "refine_levels"):
                raise ConfigError(
                    "field 'mesh.%s': unknown key, expected one of "
                    "resolution, refine_levels" % key)
        instance = ProblemInstance(
            domain, points, bounds, nu,
            f0=parse_field(_field(cfg, "f0", "zero"), "f0"),
            y_d=parse_field(_field(cfg, "y_d", "zero"), "y_d"),
            resolution=_count(mesh_cfg, "resolution", 64, 1),
            refine_levels=_count(mesh_cfg, "refine_levels", 0, 0))
        if isinstance(instance.f0, _StateOf):
            raise ConfigError("field 'f0': state_of is only available "
                              "for y_d")
        if isinstance(instance.y_d, _StateOf):
            if instance.y_d.values.size != points.count:
                raise ConfigError(
                    "field 'y_d': state_of needs one value per source point")
            _below_four_pi(instance.y_d.values, "y_d")
        seed = _count(cfg if seed is None else {"seed": seed}, "seed", 42, 0)
        if out is None:
            out = str(_field(cfg, "out", "."))
        return cls(instance, seed, Path(out), cfg)


def load_config(path, out=None, seed=None):
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("config %s: %s" % (path, exc))
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s: line %d column %d: %s"
                          % (path, exc.lineno, exc.colno, exc.msg))
    if not isinstance(cfg, dict):
        raise ConfigError("config %s: top level must be an object" % path)
    return RunConfig.from_dict(cfg, out=out, seed=seed)


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + " ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _stamp():
    return "# generated %s\n" % datetime.now(timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")


def _finite(value):
    """False for a float that is not finite, alone or in a list."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return all(_finite(v) for v in value)
    return True


def _cells(path, keys, values):
    """The formatted values of one line of the report path; a value
    that is not _finite is a numeric fault and raises RuntimeError
    naming the file and the key."""
    cells = []
    for key, value in zip(keys, values):
        if not _finite(value):
            raise RuntimeError("report %s: %s is not finite"
                               % (path.name, key))
        cells.append(_fmt(value))
    return cells


def _write_lines(path, lines):
    """The timestamp, then one line per item of lines, to the file
    path; a line that raises removes the file, so no report is left
    half written."""
    try:
        with open(path, "w") as f:
            f.write(_stamp())
            for line in lines:
                f.write(line + "\n")
    except RuntimeError:
        path.unlink()
        raise


def _write_csv(path, columns, rows):
    _write_lines(path, itertools.chain(
        [",".join(columns)],
        (",".join(_cells(path, columns, row)) for row in rows)))


def _write_summary(path, pairs):
    _write_lines(path, ("%s=%s" % (key, *_cells(path, (key,), (value,)))
                        for key, value in pairs))


def _base_control(config):
    count = config.instance.points.count
    return Control(_float_list(config.raw, "control", [0.0] * count, count))


def _below_four_pi(values, where):
    """values, checked by the one 4 pi rule, sequences.below_four_pi,
    below the threshold where the state equation may be ill-posed."""
    if not below_four_pi(values):
        i = int(np.argmax(values))
        raise ConfigError("field '%s': values must be below 4 pi, at most "
                          "4 pi - 1e-12, where the state equation may be "
                          "ill-posed; component %d is %r"
                          % (where, i, float(values[i])))
    return values


def _located_mesh(config):
    """The run's mesh, with the config's source points located on it:
    a point of a disk that lies between the mesh's boundary chords and
    the circle is a config error naming the point."""
    mesh = config.instance.make_mesh()
    try:
        point_coupling(mesh, config.instance.points.points)
    except ValueError as exc:
        raise ConfigError("field 'points': %s" % exc) from None
    return mesh


def _resolve_target(config, mesh):
    """The run's instance, with a state_of target solved on mesh in a
    copy, so the config stays usable for another run."""
    instance = config.instance
    if isinstance(instance.y_d, _StateOf):
        state = solve_state(instance, instance.y_d.values, mesh)
        instance = copy.copy(instance)
        instance.y_d = state.y
    return instance


def cmd_solve(config):
    """One state solve: nodal solution, Newton history, summary."""
    linear = _field(config.raw, "linear", False)
    if not isinstance(linear, bool):
        raise ConfigError("field 'linear': expected true or false")
    u = _below_four_pi(_base_control(config), "control")
    instance = config.instance
    mesh = _located_mesh(config)
    state = solve_state(instance, u, mesh, linear=linear)
    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    values = state.y
    _write_csv(out / "solution.csv", ("x", "y", "value"),
               zip(mesh.vertices[:, 0], mesh.vertices[:, 1], values))
    _write_csv(out / "newton.csv", ("iteration", "residual"),
               enumerate(state.history))
    _write_summary(out / "solve_summary.txt", [
        ("converged", True),
        ("newton_iterations", state.newton_iterations),
        ("final_residual", state.final_residual),
        ("min_y", float(values.min())),
        ("max_y", float(values.max())),
        ("int_exp_y", integrate_exp_linear(mesh, values)),
        ("vertices", mesh.num_vertices),
        ("triangles", mesh.num_triangles),
    ])
    return 0


def cmd_optimize(config):
    """Projected Newton plus the first- and second-order reports.

    The run starts from control, which must lie in the box [lower,
    upper], or without one from the point of the box nearest 0.
    iterates.csv has one row per iterate: J, the aggregate KKT residual
    and the step s accepted along the search direction to reach it (1
    for a full Newton step, 0 on the starting row).  The certificate
    reads the optimizer's report (its classification, gradient, final
    J, state and adjoint), so it costs only the linearized solves of
    the reduced Hessian on the components its critical cone leaves
    unblocked, one each.
    """
    max_iters = _count(config.raw, "max_iters", 200, 0)
    bounds = config.instance.bounds
    # without a control, the start is the point of the box nearest 0
    u0 = Control(_float_list(config.raw, "control",
                             np.clip(0.0, bounds.lower, bounds.upper),
                             len(bounds)))
    if np.any(u0 < bounds.lower) or np.any(u0 > bounds.upper):
        raise ConfigError("field 'control': values must lie between lower "
                          "and upper, the box of the optimizer's iterates")
    mesh = _located_mesh(config)
    instance = _resolve_target(config, mesh)
    u, report = projected_gradient(instance, mesh, u0, max_iters=max_iters)
    converged = report.aggregate <= KKT_TOL
    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "iterates.csv", ("iteration", "J", "kkt_residual",
                                      "step"),
               ((i,) + row for i, row in enumerate(report.history)))
    _write_csv(out / "control.csv", ("index", "value"),
               enumerate(u))
    _write_csv(out / "kkt.csv",
               ("index", "u", "lower", "upper", "d", "classification",
                "residual"),
               ((i, u[i], instance.bounds.lower[i],
                 instance.bounds.upper[i], report.gradient[i],
                 report.classification[i], report.residuals[i])
                for i in range(len(u))))
    summary = [
        ("J", report.history[-1][0]),
        ("iterations", report.iterations),
        ("kkt_residual", report.aggregate),
        ("converged", converged),
        ("fully_constrained",
         all(c == "degenerate" for c in report.classification)),
    ]
    if converged:
        second = second_order_check(instance, report)
        _write_csv(out / "second_order.csv", ("index", "direction"),
                   enumerate(second.direction))
        summary += [
            ("second_order_minimum", second.minimum),
            ("second_order_pass", second.passed),
            ("critical_cone_empty", second.empty),
        ]
    else:
        summary.append(("note", "max iterations"))
    _write_summary(out / "optimize_summary.txt", summary)
    return 0 if converged else 3


def _exponent(entry, name):
    """A number field strictly between 0 and 4 pi."""
    value = _number(entry, name)
    if not 0.0 < value < FOUR_PI:
        raise ConfigError("field '%s': expected a number strictly between "
                          "0 and 4 pi" % name)
    return value


def _verify_check(config, entry, disks):
    """Read and range-check the values of one verify entry, named
    verify.<key>, and return its check: a function of the run's mesh
    that returns the entry's reports.  Mollified entries take their disk
    from disks, keyed by (R, resolution), so entries of one call share
    a mesh and its cached operators."""
    check = entry["check"]
    instance = config.instance
    if check == "scalar":
        samples = _count(entry, "verify.samples", 10000, 1)
        return lambda mesh: [verify_scalar_exponential(samples, config.seed)]
    if check in ("poisson", "semilinear"):
        omega = np.asarray(_float_list(entry, "verify.omega",
                                       count=instance.points.count))
        alpha = _exponent(entry, "verify.alpha")
        if check == "poisson":
            if np.any(omega <= 0.0):
                raise ConfigError("field 'verify.omega': poisson weights "
                                  "must be positive")
            return lambda mesh: [verify_poisson_exponential(
                instance.points, omega, alpha, mesh)]
        if np.any(omega < 0.0) or not np.any(omega > 0.0):
            raise ConfigError("field 'verify.omega': semilinear weights "
                              "must be nonnegative, one positive")
        _below_four_pi(omega, "verify.omega")
        return lambda mesh: [verify_semilinear_exponential(
            instance.points, omega, alpha, instance.f0, mesh)]
    if check == "lipschitz":
        trials = _count(entry, "verify.trials", 20, 1)
        return lambda mesh: verify_lipschitz_family(instance, mesh, trials,
                                                    config.seed)
    R = _number(entry, "verify.R")
    if not R > 0.0:
        raise ConfigError("field 'verify.R': expected a positive number")
    disk = Domain.disk(0.0, 0.0, R)
    resolution = _count(entry, "verify.resolution", instance.resolution, 1)
    x0 = _float_list(entry, "verify.x0", [0.0, 0.0], count=2,
                     per="coordinate")
    rho0, epsilon = _number(entry, "verify.rho0"), \
        _number(entry, "verify.epsilon")
    if not 0.0 < epsilon < rho0:
        raise ConfigError("field 'verify.epsilon': expected 0 < epsilon < "
                          "rho0, a mollifier inside its separation ball")
    if disk.boundary_distance(x0) <= rho0:
        raise ConfigError("field 'verify.rho0': the ball B(x0, rho0) must "
                          "lie inside the disk of radius R")
    m = _exponent(entry, "verify.m")

    def mollified(mesh):
        if (R, resolution) not in disks:
            disks[R, resolution] = build_mesh(disk, resolution)
        return list(verify_mollified_poisson(x0, rho0, epsilon, m,
                                             disks[R, resolution]))
    return mollified


def cmd_verify(config):
    """Run the configured inequality checks, one report row each.

    Every entry names a check and sets only the keys that check reads
    (_VERIFY_KEYS); the keys and their values of every entry are
    validated before any check runs.  Exits 4 when a bound is
    violated, else 2 when a check was skipped (its state solve
    failed), else 0."""
    entries = _field(config.raw, "verify")
    if not isinstance(entries, list) or not entries \
            or not all(isinstance(e, dict) for e in entries):
        raise ConfigError("field 'verify': expected a nonempty list of "
                          "objects")
    disks = {}
    checks = []
    for entry in entries:
        check = _field(entry, "verify.check")
        if not (isinstance(check, str) and check in _VERIFY_KEYS):
            raise ConfigError("field 'verify.check': unknown check '%s'"
                              % (check,))
        for key in entry:
            if key != "check" and key not in _VERIFY_KEYS[check]:
                raise ConfigError(
                    "field 'verify.%s': unknown key for check '%s', "
                    "expected one of %s"
                    % (key, check, ", ".join(_VERIFY_KEYS[check])))
        checks.append(_verify_check(config, entry, disks))
    mesh = _located_mesh(config)
    reports = []
    for run in checks:
        reports.extend(run(mesh))
    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "estimates.csv",
               ("name", "parameters", "lhs", "rhs", "margin", "pass"),
               ((r.name,
                 ";".join("%s=%s" % (k, _fmt(v))
                          for k, v in sorted(r.parameters.items())),
                 r.lhs, r.rhs, r.margin,
                 "skipped" if r.skipped else r.passed) for r in reports))
    skipped = sum(1 for r in reports if r.skipped)
    failed = sum(1 for r in reports if not (r.passed or r.skipped))
    _write_summary(out / "verify_summary.txt", [
        ("reports", len(reports)),
        ("failed", failed),
        ("skipped", skipped),
    ])
    if failed:
        return 4
    return 2 if skipped else 0


def cmd_taylor(config):
    """Remainder tables for the objective along a direction."""
    u = _below_four_pi(_base_control(config), "control")
    h = Control(_float_list(config.raw, "direction",
                            count=config.instance.points.count))
    rho_grid = _float_list(config.raw, "rho_grid", None)
    if rho_grid is not None and not (
            rho_grid and all(r > 0.0 for r in rho_grid)):
        raise ConfigError("field 'rho_grid': expected a nonempty list of "
                          "positive finite numbers")
    mesh = _located_mesh(config)
    instance = _resolve_target(config, mesh)
    report = taylor_remainder_test(instance, u, mesh, h, rho_grid=rho_grid)
    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "remainders.csv",
               ("rho", "r1", "r2", "state_r1", "state_r2", "note"),
               ((row["rho"], row["r1"], row["r2"], row["state_r1"],
                 row["state_r2"], row["note"]) for row in report.rows))
    pairs = [("J", report.value),
             ("directional_derivative",
              float(np.dot(report.gradient, h))),
             ("second_order", report.second_order)]
    for key in ("r1", "r2", "state_r1", "state_r2"):
        slope = report.slopes.get(key)
        pairs.append(("slope_%s" % key,
                      "none" if slope is None else slope))
    _write_summary(out / "taylor_summary.txt", pairs)
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "optimize": cmd_optimize,
    "verify": cmd_verify,
    "taylor": cmd_taylor,
}


def _parser():
    parser = argparse.ArgumentParser(
        prog="expctrl",
        description="Point-mass control: state solves, box-constrained "
                    "optimization, and inequality certification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        s = sub.add_parser(name, help=fn.__doc__)
        s.add_argument("--config", required=True,
                       help="path to the JSON run configuration")
        s.add_argument("--out", default=None,
                       help="output directory (overrides the config)")
        s.add_argument("--seed", type=int, default=None,
                       help="random seed (overrides the config)")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config, out=args.out, seed=args.seed)
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # any other fault, a ValueError or a MemoryError too, is the
        # program's: exit 2
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
