"""Print every benchmark grid value of this checkout, one line per query.

Run from anywhere; the script evaluates the package of the checkout it
lives in:

    python3 tools/grid_values.py > values.txt

It reads ``perfbench/grid.json`` (read only) and evaluates each f64-mix
and dd-deep query through the public calls, as ``perfbench/workloads.py``
does: a tacnode point of f64-mix runs both routes.  Each line carries
``repr`` of the value, of ``err_estimate`` and of ``rounding_floor`` (``-``
when the row has none), ``m_used`` and the route.
It then runs each cli-scan grid call and the calls of ``EXTRA_CALLS`` as
fresh ``gapdet`` processes with the benchmark's row threads, and prints the
sha256 of each one's stdout and its exit code.  Two checkouts agree bit for
bit on the grid when their outputs are identical, so one ``diff`` of two
runs checks a change that claims to move no value.  The deep dd-deep rows
take most of the run, about a minute on one core.
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

#: CLI calls hashed after the cli-scan grid: the default positivity probe;
#: two double-double rows at once; JSON diagnostics (parts, rconds, floor,
#: m_used, route) of a float64 ratio row, a direct row and a dd row; scans
#: whose reference value fails, so their error rows are covered too; an F2
#: table running into the left tail, where values lose every digit;
#: Pearcey rows at tau = 6, with its diagnostics, and at tau = 9, past the
#: documented window [0, 8]; and two dd rows whose gap block is not the
#: identity, through heat coupling at two times and through two intervals
#: at one time.
EXTRA_CALLS = [
    ["positivity-probe"],
    ["scan-tacnode-pearcey", "--sigmas", "-5", "-7"],
    ["tacnode", "--sigma", "-4", "--intervals=-1:1", "--json"],
    ["tacnode", "--route", "direct", "--sigma", "-2", "--times", "-0.5",
     "0.5", "--intervals=-1:0;-1:1", "--json"],
    ["tacnode", "--sigma", "-5", "--intervals=-1:1", "--json"],
    ["scan-pearcey-airy", "--lo", "-13", "--hi", "-12", "--n", "2"],
    ["scan-tacnode-airy", "--a", "-13", "--n", "2"],
    ["scan-tacnode-airy", "--one-sided", "--a", "1", "--b", "0", "--n", "2"],
    ["scan-tacnode-pearcey", "--sigmas", "-3", "--a-p", "1", "--b-p", "-1"],
    ["tw", "--s-min", "-10", "--s-max", "-8", "--steps", "8", "--json"],
    ["pearcey", "--tau", "6", "--json"],
    ["pearcey", "--tau", "9"],
    ["scan-tacnode-pearcey", "--sigmas", "-6", "--tau-p", "0", "0.5"],
    ["tacnode", "--sigma", "-6", "--intervals=-1:0,0.5:1", "--json"],
]


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
    for argv in calls + EXTRA_CALLS:
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
