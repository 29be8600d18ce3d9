"""Workloads: the frozen parameter grid, the seeded query order and the
correctness gate.

Every workload is a serial closed loop over *cycles*.  A cycle has a fixed
composition of slots (``CYCLES``); the seed only chooses which grid point
fills each slot and the order of the slots, so runs with different seeds
do the same mix of work.  Grid points and their reference values live in
``grid.json`` next to this file (written by ``make_grid.py``).

This module imports only the standard library at the top; the in-process
runner imports :mod:`gapdet` when it is created.
"""

import csv
import io
import json
import math
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GRID_PATH = os.path.join(HERE, "grid.json")

#: The library's default convergence tolerance; a value that misses its
#: reference by more than this fails.
TOL = 1e-8

#: Slots of one cycle.  f64-mix: one query per float64 public call, the
#: tacnode slot running both routes on the same parameters.  dd-deep: three
#: points whose ratio ladder stops at m=80 and one that climbs to m=160, so
#: the median sits on the first outcome and the time is dominated by the
#: second.  cli-scan: one call of each scan subcommand.
CYCLES = {
    "f64-mix": ["F2", "airy_gap", "pearcey_gap", "tacnode"],
    "dd-deep": ["shallow", "shallow", "shallow", "deep"],
    "cli-scan": ["scan-tacnode-airy", "scan-pearcey-airy",
                 "scan-tacnode-pearcey"],
}
WORKLOADS = tuple(CYCLES)

#: Worker-pool threads of the gapdet CLI in the cli-scan workload.
CLI_THREADS = 2


def load_grid():
    with open(GRID_PATH) as fh:
        return json.load(fh)


def _expand(slot, point):
    """Queries of one slot: the tacnode slot runs both routes."""
    if slot == "tacnode":
        return [dict(point, kind="tacnode_gap_ratio"),
                dict(point, kind="tacnode_gap_direct")]
    return [dict(point, kind=slot)]


def cycles(grid, workload, seed):
    """Endless seeded sequence of cycles, each a list of queries.

    Each slot draws from its own pool of grid points without replacement,
    reshuffling when the pool runs dry, so a long run covers the grid.
    """
    rng = random.Random(seed)
    slots = grid[workload]["slots"]
    pools = {}
    while True:
        order = list(CYCLES[workload])
        rng.shuffle(order)
        cycle = []
        for slot in order:
            if not pools.get(slot):
                pools[slot] = list(slots[slot])
                rng.shuffle(pools[slot])
            cycle.extend(_expand(slot, pools[slot].pop()))
        yield cycle


def first_query(grid, workload):
    """The fixed first query of every run, whose end closes set-up."""
    point = grid[workload]["first"]
    return _expand(point["slot"], point)[0]


def check_value(value, ref):
    """Reasons a returned value fails the gate (empty when it passes)."""
    bad = []
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        bad.append("value %r outside [0, 1]" % value)
    elif abs(value - ref) > TOL:
        bad.append("value %.15g misses reference %.15g by %.3e"
                   % (value, ref, abs(value - ref)))
    return bad


# ---------------------------------------------------------------------------
# In-process queries (f64-mix, dd-deep)

class LibraryRunner:
    """Runs library queries through the public module attributes, so that
    names rebound by the tracer are the ones called."""

    def __init__(self):
        from gapdet import cli, gapprob, kernels
        self.cli = cli
        self.gapprob = gapprob
        self.kernels = kernels
        self._ratio = {}

    def tacnode_args(self, p):
        k = self.kernels
        if "a_p" in p:
            scale, times = self.cli.tacnode_pearcey_times(p["sigma"],
                                                          p["tau_p"])
            per_time = [[(p["a_p"] / scale, p["b_p"] / scale, p["z"])]
                        for _ in times]
        else:
            times = p["times"]
            per_time = p["per_time"]
        return k.GapSpec(per_time=per_time), k.TacnodeParams(p["sigma"],
                                                             tuple(times))

    def evaluate(self, q):
        """The value of one query (a float; exceptions propagate)."""
        gp = self.gapprob
        p = q["params"]
        kind = q["kind"]
        if kind == "F2":
            res = gp.tracy_widom_F2(p["s"])
        elif kind == "airy_gap":
            res = gp.airy_gap(p["intervals"])
        elif kind == "pearcey_gap":
            res = gp.pearcey_gap(self.kernels.PearceyParams(
                p["tau"], tuple(p["endpoints"])))
        elif kind == "tacnode_gap_direct":
            res = gp.tacnode_gap_direct(*self.tacnode_args(p))
        else:       # tacnode_gap_ratio, and every dd-deep slot
            res = gp.tacnode_gap_ratio(*self.tacnode_args(p))
        return res.real

    def run(self, q):
        """(values produced, failure reasons) for one query."""
        try:
            value = self.evaluate(q)
        except Exception as exc:        # any raise is a failed query
            return 1, ["%s: %s" % (type(exc).__name__, exc)]
        bad = check_value(value, q["ref"])
        key = json.dumps(q["params"], sort_keys=True)
        if q["kind"] == "tacnode_gap_ratio":
            self._ratio[key] = value
        elif q["kind"] == "tacnode_gap_direct" and key in self._ratio:
            gap = abs(value - self._ratio.pop(key))
            if gap > TOL:
                bad.append("direct and ratio routes differ by %.3e" % gap)
        return 1, bad


# ---------------------------------------------------------------------------
# CLI queries (cli-scan)

_VALUE_COLUMN = {"scan-tacnode-airy": "F_tac", "scan-pearcey-airy": "F_P",
                 "scan-tacnode-pearcey": "F_tac"}


def cli_argv(kind, params):
    """Command-line arguments of one scan call."""
    argv = [kind]
    for name in sorted(params):
        val = params[name]
        flag = "--" + name.replace("_", "-")
        if val is True:
            argv.append(flag)
        elif isinstance(val, list):
            argv.append(flag)
            argv.extend(repr(float(v)) for v in val)
        else:
            argv.extend([flag, str(val)])
    return argv


def parse_cli_rows(kind, text):
    """Values and error cells of a scan's CSV rows."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    col = _VALUE_COLUMN[kind]
    return [(float(r[col]) if r.get(col) else math.nan, r.get("error", ""))
            for r in rows]


def check_cli(kind, returncode, stdout, stderr, refs):
    """(rows produced, failure reasons) for one finished CLI call."""
    bad = []
    if returncode != 0:
        bad.append("exit code %d: %s" % (returncode, stderr.strip()[-300:]))
    try:
        rows = parse_cli_rows(kind, stdout)
    except (KeyError, ValueError, csv.Error) as exc:
        return 0, bad + ["unparsable output: %s" % exc]
    if len(rows) != len(refs):
        bad.append("%d rows, expected %d" % (len(rows), len(refs)))
    for i, ((value, err), ref) in enumerate(zip(rows, refs)):
        if err:
            bad.append("row %d error: %s" % (i, err))
        bad.extend("row %d %s" % (i, b) for b in check_value(value, ref))
    return len(rows), bad


def cli_command(kind, params, trace_out=None):
    """The process to launch for one scan call, traced or not."""
    if trace_out is None:
        head = [sys.executable, "-m", "gapdet.cli"]
    else:
        head = [sys.executable, os.path.join(HERE, "clitrace.py"), trace_out]
    return head + cli_argv(kind, params)


def run_cli(q, cwd, trace_out=None):
    """Run one scan call to completion; (rows, failure reasons)."""
    proc = subprocess.run(cli_command(q["kind"], q["params"], trace_out),
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)
    return check_cli(q["kind"], proc.returncode, proc.stdout, proc.stderr,
                     q["ref"])
