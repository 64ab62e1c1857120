"""A hand-written mutation probe: does tier-1 fail when a check breaks?

Each mutant is a one-line edit of the package, given as (file, old
text, new text); the old text must occur exactly once in its file.  The
probe copies the checkout, without .git and the files that runs leave
behind, to a temporary directory and checks that the copy passes
tier-1.  Then it applies one mutant at a time to the copy, runs tier-1
with -x, and prints KILLED with the first failing test, or SURVIVED.
It exits 1 if any mutant survives.  It never writes to the tree it
copies.  pytest does not collect it: its name has no test_ prefix.
All 25 mutants below run in about 3 minutes on a 2-vCPU machine.

Run from the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py 3 19       # mutants 3 and 19 only

A check added to the package should add a mutant here that only that
check can kill.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

E, C, S = "estimates.py", "cli.py", "sequences.py"

#: (file under src/expctrl, old text, new text)
MUTANTS = [
    # checks that already failed on a broken estimate or optimizer
    (E, "rhs = (4.0 * np.pi ** 2 * R ** 2 / alpha)",
     "rhs = 10.0 * (4.0 * np.pi ** 2 * R ** 2 / alpha)"),
    (E, 'rhs *= np.exp(k * params["shift"])',
     'rhs *= 100.0 * np.exp(k * params["shift"])'),
    (E, 'rhs *= np.exp(k * params["shift"])', "rhs *= 1.0"),
    (E, "parameters, slack=1e-8,", "parameters, slack=0.5,"),
    (E, "rhs_point = (2.0 * R / (rho0 - epsilon))",
     "rhs_point = 2.0 * (2.0 * R / (rho0 - epsilon))"),
    (E, "rhs_int = 2.0 * np.pi * (epsilon + rho0) ** 2",
     "rhs_int = 4.0 * np.pi * (epsilon + rho0) ** 2"),
    (E, "coeff=(FOUR_PI - alpha) / wmax)",
     "coeff=0.5 * (FOUR_PI - alpha) / wmax)"),
    ("fem.py", "    return float(np.sum(terms))",
     "    return 1.001 * float(np.sum(terms))"),
    ("optimizer.py", 'if c != "degenerate" and abs(d[i]) <= KKT_TOL]',
     'if c != "degenerate"]'),
    ("objective.py", "(1.0 - np.exp(state.y) * adjoint)",
     "(1.0 + 0.0 * adjoint)"),
    ("objective.py", "(1.0 - np.exp(state.y) * adjoint)",
     "(1.0 - 1.01 * np.exp(state.y) * adjoint)"),
    ("optimizer.py", "KKT_TOL = 1e-6", "KKT_TOL = 1e-3"),
    # the tight L1 rows, the semilinear exponent, the allowance and the
    # sample count
    (E, "LIPSCHITZ_SLACK = 0.05", "LIPSCHITZ_SLACK = 1.0"),
    (E, "lumped @ np.abs(eu - ev),", "0.5 * (lumped @ np.abs(eu - ev)),"),
    (E, "(f0_term + float(np.sum(np.abs(u)))) * factor",
     "3.0 * (f0_term + float(np.sum(np.abs(u)))) * factor"),
    (E, "np.maximum(y.y, 0.0), coeff=k)",
     "np.maximum(y.y, 0.0), coeff=0.5 * k)"),
    (E, "allowance = m * mesh.h ** 2", "allowance = 100.0 * m * mesh.h ** 2"),
    (E, "    rng = random.Random(seed)\n    a = -10.0",
     "    rng, samples = random.Random(seed), 1\n    a = -10.0"),
    # the config checks, each where its value enters the CLI
    (S, "_FOUR_PI_GUARD = 1e-12", "_FOUR_PI_GUARD = 0.0"),
    (C, 'BoundsPair(lower, _below_four_pi(upper, "upper"))',
     "BoundsPair(lower, upper)"),
    (C, "if lo > up:", "if lo > up and i == 0:"),
    (C, "if not domain.boundary_distance(p) > 0.0:",
     "if not domain.boundary_distance(p) >= 0.0:"),
    (C, "if p in points[:i]:", "if p in points[1:i]:"),
    (C, "if not (x0 < x1 and y0 < y1):", "if not (x0 <= x1 and y0 <= y1):"),
    (C, "if not radius > 0.0:", "if not radius >= 0.0:"),
]


def run_tier1(tree, stop_first):
    """Run tier-1 in tree; return (passed, first failing test)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"] + (["-x"] if stop_first else [])
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    failed = next((line.split(" - ")[0].split(" ", 1)[1]
                   for line in proc.stdout.splitlines()
                   if line.startswith(("FAILED ", "ERROR "))),
                  "exit %d" % proc.returncode)
    return proc.returncode == 0, failed


def main(argv):
    chosen = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="expctrl-mutants-") as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT, tree, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns(
                            ".git", "__pycache__", ".hypothesis",
                            ".pytest_cache", "results", ".work"))
        passed, failed = run_tier1(tree, stop_first=False)
        if not passed:
            print("the unmutated tree fails tier-1: %s" % failed)
            return 2
        print("unmutated tree passes (%.0f s)" % (time.perf_counter() - start))
        survivors = 0
        for n in chosen:
            name, old, new = MUTANTS[n - 1]
            path = tree / "src" / "expctrl" / name
            text = path.read_text()
            if text.count(old) != 1:
                print("mutant %d: %r occurs %d times in %s"
                      % (n, old, text.count(old), name))
                return 2
            path.write_text(text.replace(old, new))
            try:
                passed, failed = run_tier1(tree, stop_first=True)
            finally:
                path.write_text(text)
            survivors += passed
            verdict = "SURVIVED" if passed else "KILLED"
            edit = next((a.strip(), b.strip()) for a, b in
                        zip(old.splitlines(), new.splitlines()) if a != b)
            print("%2d %-8s %s: %s -> %s" % (n, verdict, name, *edit))
            if not passed:
                print("            by %s" % failed)
            sys.stdout.flush()
    print("%d of %d mutants killed in %.0f s"
          % (len(chosen) - survivors, len(chosen),
             time.perf_counter() - start))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
