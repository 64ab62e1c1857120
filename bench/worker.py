"""One fresh benchmark process: set up, then run tasks in a closed loop.

Started by run.py, never by hand.  It imports expctrl from the
checkout's src/ (PYTHONPATH is set by run.py), writes the workload's
configs, and with --setup-only stops there.  Otherwise it runs one task
after another through `expctrl.cli.main`, in process, until --seconds
are used up, and prints one JSON object as its last line.

With --trace 1 the first task runs untraced (it is the cold one), then
traced and untraced tasks alternate; the per-layer metrics come from
the traced tasks and the tracing overhead from comparing the two kinds.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import expctrl.cli
import numpy
import scipy

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def run_task(workload, calls, previous):
    """Run every CLI invocation of one task.  Returns the summed wall
    time of the invocations, the failures found, the report bytes, and
    the reports for the next task's comparison."""
    wall = 0.0
    failures = []
    reports = {}
    size = 0
    for name, argv, out in calls:
        shutil.rmtree(out, ignore_errors=True)
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = expctrl.cli.main(argv)
        except Exception as exc:  # a crash fails the task, not the run
            code = "exception"
            err.write("%s: %s\n" % (type(exc).__name__, exc))
        wall += time.perf_counter() - start
        reasons = []
        if code != 0:
            reasons.append("exit code %s" % code)
        reports[name] = {}
        if out.is_dir():
            reports[name] = workloads.read_reports(out)
            size += sum(p.stat().st_size for p in out.iterdir())
        reasons += workloads.check_outputs(
            workload, name, reports[name],
            None if previous is None else previous.get(name, {}))
        if reasons:
            lines = err.getvalue().splitlines()
            failures.append({"call": name, "exit": code,
                             "stderr": lines[0] if lines else "",
                             "reasons": reasons})
    return wall, failures, size, reports


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-tasks", type=int, default=1)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    if not Path(expctrl.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print("expctrl imported from %s, not from %s/src"
              % (expctrl.cli.__file__, ROOT), file=sys.stderr)
        return 2

    calls = workloads.write_configs(args.workload, args.seed, args.work)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tasks = []
    traced = []
    previous = None
    loop_start = time.perf_counter()
    while True:
        k = len(tasks)
        trace_this = bool(args.trace) and k % 2 == 1
        if trace_this:
            with spans.Tracer(task=k) as tracer:
                wall, failures, size, previous = run_task(
                    args.workload, calls, previous)
            layer = spans.layer_metrics(tracer.spans)
            layer["cli.report_bytes"] = size
            traced.append((k, tracer.spans, layer))
        else:
            wall, failures, size, previous = run_task(
                args.workload, calls, previous)
        digest = hashlib.sha256(
            json.dumps(previous, sort_keys=True).encode()).hexdigest()
        tasks.append({"task": k, "wall_s": wall, "traced": trace_this,
                      "failures": failures, "reports_sha256": digest})
        elapsed = time.perf_counter() - loop_start
        estimate = statistics.median(t["wall_s"] for t in tasks[1:]) \
            if k else wall
        if len(tasks) >= args.min_tasks and \
                elapsed + estimate > args.seconds:
            break

    warm = [t["wall_s"] for t in tasks[1:] if not t["traced"]]
    result = {
        "setup_s": setup_s,
        "cold_task_s": tasks[0]["wall_s"],
        "warm_task_s": warm,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "tasks": tasks,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if args.trace:
        layer = spans.median_metrics([m for _, _, m in traced])
        traced_wall = statistics.median(
            t["wall_s"] for t in tasks if t["traced"])
        layer["trace.overhead_frac"] = \
            traced_wall / statistics.median(warm) - 1.0
        result["per_layer"] = layer
        if args.spans_out:
            with open(args.spans_out, "w") as f:
                for _, task_spans, _ in traced:
                    for s in task_spans:
                        f.write(json.dumps(s.as_dict()) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
