"""expctrl benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload optimize-square --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout.  This script times SETUP_PROBES fresh
processes that only set up, then MEASURING_PROCESSES fresh processes,
one after another, that each set up and run tasks one after another
for their share of --seconds (closed loop, one client).  With --trace
1 a single process runs for all of --seconds instead.
It prints a record line (machine, versions, sample counts, failures)
and, last, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The full record also goes to
bench/results/.  See bench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import workloads  # noqa: E402

# fresh processes that only set up; with the measuring processes they
# give the setup_s samples
SETUP_PROBES = 4
# fresh processes that share a timed run, each giving one cold_task_s
# sample and its warm task_s samples
MEASURING_PROCESSES = 2
# every run must end within this many seconds
RUN_LIMIT_S = 170.0
# pinned so the two cores do not contend inside BLAS
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}

END_TO_END = {"task_s": "s", "cold_task_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_lines():
    return sum(len(p.read_bytes().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def _worker(args, work, deadline, extra):
    """Start a fresh worker process, wait for it, return its JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREADS)
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--work", str(work)] + extra
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError("worker exited with %d: %s"
                           % (proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "expctrl" / "__init__.py").is_file():
        print("bench: no expctrl sources under %s" % SRC, file=sys.stderr)
        return 2

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = BENCH / ".work" / ("%s-%d" % (stem, os.getpid()))
    if args.trace:
        # one process: cold task, then traced and untraced alternate
        plan = [["--seconds", str(args.seconds), "--min-tasks", "3",
                 "--spans-out", str(results / (stem + ".spans.jsonl"))]]
    else:
        share = str(args.seconds / MEASURING_PROCESSES)
        plan = [["--seconds", share, "--min-tasks", "2"]] \
            * MEASURING_PROCESSES
    try:
        setups = [_worker(args, work, deadline, ["--setup-only"])["setup_s"]
                  for _ in range(SETUP_PROBES)]
        runs = [_worker(args, work, deadline, extra) for extra in plan]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups += [r["setup_s"] for r in runs]
    tasks = [t for r in runs for t in r["tasks"]]
    # a fresh process must write the same reports as the first one
    for t in tasks:
        if t["reports_sha256"] != tasks[0]["reports_sha256"]:
            t["failures"].append({"call": "*", "exit": 0, "stderr": "",
                                  "reasons": ["reports differ from the "
                                              "first task of the run"]})
    failed = [t for t in tasks if t["failures"]]
    warm = [w for r in runs for w in r["warm_task_s"]]
    if args.trace:
        values = runs[0]["per_layer"]
        units = spans.PER_LAYER
    else:
        values = {"task_s": statistics.median(warm),
                  "cold_task_s": statistics.median(
                      r["cold_task_s"] for r in runs),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(
                      r["peak_rss_mb"] for r in runs)}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model()},
        "versions": runs[0]["versions"],
        "threads": THREADS,
        "git_sha": _git_sha(),
        "src_lines": _src_lines(),
        "task_samples": len(warm),
        "warm_task_s": warm,
        "cold_task_samples_s": [r["cold_task_s"] for r in runs],
        "setup_samples_s": setups,
        "peak_rss_samples_mb": [r["peak_rss_mb"] for r in runs],
        "failures": [dict(task=t["task"], **f)
                     for t in failed for f in t["failures"]],
        "metrics": metrics,
    }
    (results / (stem + ".json")).write_text(json.dumps(record, indent=1))
    print(json.dumps({k: record[k] for k in record if k != "metrics"}))
    print(json.dumps({"correct": not failed, "attempted": len(tasks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
