"""Spans around the public functions of expctrl's modules, and the
per-layer metrics computed from them.

The tracer wraps each public function at every module attribute (and
module-level dict entry) that refers to it, because `from .fem import
solve_spd` binds its own name inside `pde`: patching `expctrl.fem`
alone would miss those calls.  Spans stay in memory until the run
writes them out.
"""

import functools
import importlib
import inspect
import statistics
import sys
from time import perf_counter

# modules whose public functions get spans; sequences is traced so its
# share can be checked, but has no metric
LAYERS = ("mesh", "fem", "pde", "objective", "optimizer", "estimates",
          "cli", "sequences")


class Span:
    """One call: qualified name, start, end, index of the parent span
    (-1 at the top), task id, whether it returned, and counts taken
    from its arguments and result."""

    __slots__ = ("name", "start", "end", "parent", "task", "ok", "info")

    def __init__(self, name, parent, task):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.task = task
        self.ok = False
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "task": self.task, "ok": self.ok,
                "info": self.info}


def _state_info(args, kwargs, result):
    return {"newton": result.newton_iterations, "linear": result.linear}


def _spd_info(args, kwargs, result):
    mask = args[2] if len(args) > 2 else kwargs["dirichlet_mask"]
    return {"dofs": int(mask.size - mask.sum())}


def _mesh_info(args, kwargs, result):
    return {"vertices": result.num_vertices}


def _pg_info(args, kwargs, result):
    return {"iterations": result[1].iterations}


def _estimates_info(args, kwargs, result):
    reports = result if isinstance(result, (list, tuple)) else [result]
    return {"reports": len(reports),
            "skipped": sum(1 for r in reports
                           if r.name == "lipschitz-skipped")}


# counts read from arguments and return values, by qualified name
INFO = {
    "pde.solve_semilinear": _state_info,
    "fem.solve_spd": _spd_info,
    "mesh.build_mesh": _mesh_info,
    "optimizer.projected_gradient": _pg_info,
}


def _info_hook(name):
    if name.startswith("estimates.verify_"):
        return _estimates_info
    return INFO.get(name)


class Tracer:
    """Records a span per call of the public functions of the LAYERS
    modules of expctrl while active.

    Use as a context manager; every patched attribute and dict entry is
    put back on exit.  Spans carry the given task id.
    """

    def __init__(self, task=0):
        self.task = task
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        hook = _info_hook(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.task)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            span.ok = True
            if hook is not None:
                span.info = hook(args, kwargs, result)
            return result
        return wrapper

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module("expctrl." + layer)
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap("%s.%s" % (layer, attr),
                                                 value)

        def patch(key, value, assign):
            if inspect.isfunction(value) and value in wrappers:
                self._patched.append((assign, key, value))
                assign(key, wrappers[value])

        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "expctrl"
                                      or modname.startswith("expctrl.")):
                continue
            for attr, value in list(vars(module).items()):
                patch(attr, value, functools.partial(setattr, module))
                if isinstance(value, dict):
                    for key, entry in list(value.items()):
                        patch(key, entry, value.__setitem__)
        return self

    def __exit__(self, *exc):
        for assign, key, original in reversed(self._patched):
            assign(key, original)
        self._patched = []
        return False


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval that the union of its children's intervals covers."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for j in sorted(children[i], key=lambda k: spans[k].start):
            lo = max(spans[j].start, reach)
            hi = min(spans[j].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _has_ancestor(spans, i, name):
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def _parent_name(spans, i):
    p = spans[i].parent
    return spans[p].name if p >= 0 else None


OPERATOR_FNS = ("fem.assemble_stiffness", "fem.assemble_weighted_mass",
                "fem.lumped_mass_diagonal")
LOAD_FNS = ("fem.assemble_load", "fem.assemble_dirac_load",
            "fem.assemble_mollified_load", "fem.subdivided_quadrature",
            "fem.mollifier_value", "fem.interpolate_at_quadrature")


def layer_metrics(spans):
    """Per-layer metrics of one task's spans, whose parent indices are
    positions in this list.  cli.report_bytes and trace.overhead_frac
    are not span data; the caller adds them."""
    own = self_times(spans)
    m = dict.fromkeys(PER_LAYER, 0)
    del m["cli.report_bytes"], m["trace.overhead_frac"]
    state_spd = 0
    pg_states = 0
    pg_calls = 0
    in_parse = [False] * len(spans)
    for i, s in enumerate(spans):
        name, dur, info = s.name, s.duration, s.info or {}
        layer = name.split(".", 1)[0]
        if s.parent >= 0 and in_parse[s.parent]:
            in_parse[i] = True
        if name == "cli.load_config":
            in_parse[i] = True
            m["cli.parse_s"] += dur
        elif layer == "cli" and not in_parse[i]:
            m["cli.self_s"] += own[i]
        if name == "mesh.build_mesh":
            m["mesh.build_s"] += dur
            m["mesh.builds"] += 1
            m["mesh.vertices"] += info.get("vertices", 0)
        elif name == "mesh.locate_point":
            m["mesh.locate_calls"] += 1
            m["mesh.locate_s"] += dur
        elif name == "fem.solve_spd":
            m["fem.spd_solves"] += 1
            m["fem.spd_s"] += dur
            m["fem.spd_dofs"] += info.get("dofs", 0)
            m["fem.spd_failures"] += not s.ok
            if _parent_name(spans, i) == "pde.solve_semilinear":
                state_spd += 1
            if _has_ancestor(spans, i, "optimizer.second_order_check"):
                m["optimizer.second_order_spd"] += 1
        elif name in OPERATOR_FNS:
            m["fem.operator_s"] += dur
        elif name in LOAD_FNS:
            m["fem.load_s"] += own[i]
            if name in LOAD_FNS[:3]:
                m["fem.load_calls"] += 1
        elif name == "fem.integrate_exp_linear":
            m["fem.exp_integral_s"] += dur
        elif name == "pde.solve_semilinear":
            m["pde.state_solves"] += 1
            m["pde.newton_steps"] += info.get("newton", 0)
            m["pde.state_failures"] += not s.ok
            m["pde.state_self_s"] += own[i]
        elif name == "pde.solve_state":
            m["pde.state_self_s"] += own[i]
            if _parent_name(spans, i) == "optimizer.projected_gradient":
                pg_states += 1
        elif name == "pde.solve_adjoint":
            m["pde.adjoint_solves"] += 1
        elif name == "pde.solve_linearized":
            m["pde.linearized_solves"] += 1
        elif name == "pde.operators":
            m["pde.operators_s"] += dur
        elif name == "objective.evaluate_J":
            m["objective.J_evals"] += 1
        elif name == "objective.evaluate_DJ":
            m["objective.DJ_evals"] += 1
        elif name == "objective.evaluate_D2J":
            m["objective.D2J_evals"] += 1
        elif name == "optimizer.projected_gradient":
            pg_calls += 1
            m["optimizer.iterations"] += info.get("iterations", 0)
            m["optimizer.pg_s"] += dur
        elif name == "optimizer.second_order_check":
            m["optimizer.second_order_s"] += dur
        elif name.startswith("estimates.verify_"):
            m["estimates.reports"] += info.get("reports", 0)
            m["estimates.skipped"] += info.get("skipped", 0)
        if layer == "objective":
            m["objective.self_s"] += own[i]
        elif layer == "estimates":
            m["estimates.self_s"] += own[i]
    if m["pde.state_solves"]:
        m["pde.spd_per_state"] = state_spd / m["pde.state_solves"]
    # the first solve_state of each projected_gradient call is the
    # starting point, not a line-search trial
    m["optimizer.trial_states"] = pg_states - pg_calls
    if m["optimizer.trial_states"]:
        m["optimizer.accept_ratio"] = \
            m["optimizer.iterations"] / m["optimizer.trial_states"]
    return m


def median_metrics(per_task):
    """Median over tasks of each per-layer metric."""
    return {key: statistics.median(m[key] for m in per_task)
            for key in per_task[0]}


# name -> unit, in the order the metrics are reported
PER_LAYER = {
    "mesh.build_s": "s", "mesh.builds": "count", "mesh.vertices": "count",
    "mesh.locate_calls": "count", "mesh.locate_s": "s",
    "fem.spd_solves": "count", "fem.spd_s": "s", "fem.spd_dofs": "count",
    "fem.spd_failures": "count", "fem.operator_s": "s", "fem.load_s": "s",
    "fem.load_calls": "count", "fem.exp_integral_s": "s",
    "pde.state_solves": "count", "pde.newton_steps": "count",
    "pde.spd_per_state": "ratio", "pde.state_self_s": "s",
    "pde.state_failures": "count", "pde.adjoint_solves": "count",
    "pde.linearized_solves": "count", "pde.operators_s": "s",
    "objective.J_evals": "count", "objective.DJ_evals": "count",
    "objective.D2J_evals": "count", "objective.self_s": "s",
    "optimizer.iterations": "count", "optimizer.trial_states": "count",
    "optimizer.accept_ratio": "ratio", "optimizer.pg_s": "s",
    "optimizer.second_order_s": "s", "optimizer.second_order_spd": "count",
    "estimates.reports": "count", "estimates.skipped": "count",
    "estimates.self_s": "s",
    "cli.parse_s": "s", "cli.self_s": "s", "cli.report_bytes": "B",
    "trace.overhead_frac": "ratio",
}
