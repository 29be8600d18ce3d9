"""Print every benchmark grid value of this checkout, one line per query.

Run from anywhere; the script evaluates the package of the checkout it
lives in:

    python3 tools/grid_values.py > values.txt

It reads ``perfbench/grid.json`` (read only) and evaluates each f64-mix
and dd-deep query through the public calls, as ``perfbench/workloads.py``
does: a tacnode point of f64-mix runs both routes.  Each line carries
``repr`` of the value, of ``err_estimate`` and of ``rounding_floor`` (``-``
when the row has none), ``m_used`` and the route.
It then runs each cli-scan grid call, the default ``positivity-probe`` and
``scan-tacnode-pearcey --sigmas -5 -7``, whose two rows run in
double-double at once, as a fresh ``gapdet`` process with the benchmark's
row threads, and prints the sha256 of its stdout and its exit code.  Two
checkouts agree bit for bit on the grid when their outputs are identical,
so one ``diff`` of two runs checks a change that claims to move no value.
The deep dd-deep rows take most of the run, about a minute on one core.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py)


def library_lines(grid, runner):
    """One line per f64-mix and dd-deep query, in grid order."""
    from gapdet import gapprob, kernels
    for workload in ("f64-mix", "dd-deep"):
        for slot, points in sorted(grid[workload]["slots"].items()):
            for point in points:
                for q in workloads._expand(slot, point):
                    p = q["params"]
                    kind = q["kind"]
                    if kind == "F2":
                        res = gapprob.tracy_widom_F2(p["s"])
                    elif kind == "airy_gap":
                        res = gapprob.airy_gap(p["intervals"])
                    elif kind == "pearcey_gap":
                        res = gapprob.pearcey_gap(kernels.PearceyParams(
                            p["tau"], tuple(p["endpoints"])))
                    elif kind == "tacnode_gap_direct":
                        res = gapprob.tacnode_gap_direct(
                            *runner.tacnode_args(p))
                    else:
                        res = gapprob.tacnode_gap_ratio(
                            *runner.tacnode_args(p))
                    floor = res.parts.get("rounding_floor")
                    yield ("%s %s %s value=%r err=%r floor=%s m_used=%s "
                           "route=%s" % (
                               workload, kind, json.dumps(p, sort_keys=True),
                               res.value, res.err_estimate,
                               "-" if floor is None else repr(floor),
                               res.m_used, res.parts.get("route", "-")))


def cli_lines(grid):
    """sha256 of stdout and the exit code of each CLI call."""
    env = dict(os.environ, GAPDET_THREADS=str(workloads.CLI_THREADS),
               PYTHONPATH=os.path.join(ROOT, "src"))
    calls = [workloads.cli_argv(kind, point["params"])
             for kind, points in sorted(grid["cli-scan"]["slots"].items())
             for point in points]
    calls.append(["positivity-probe"])
    calls.append(["scan-tacnode-pearcey", "--sigmas", "-5", "-7"])
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "gapdet.cli"] + argv,
                              cwd=ROOT, env=env, capture_output=True,
                              timeout=300)
        yield "cli %s sha256=%s exit=%d" % (
            " ".join(argv), hashlib.sha256(proc.stdout).hexdigest(),
            proc.returncode)


def main():
    grid = workloads.load_grid()
    for line in library_lines(grid, workloads.LibraryRunner()):
        print(line, flush=True)
    for line in cli_lines(grid):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
