"""Regenerate ``grid.json``: the benchmark's parameter grid and its frozen
reference values.

    PYTHONPATH=src python3 perfbench/make_grid.py

F2 references are the golden table ``tests/golden/tw_grid.csv``.  Every
other reference is the library's own value with the starting node count
``m0`` doubled.  Each point is also evaluated at the default ``m0`` and the
gap to its reference is printed; dd-deep points are put in the ``shallow``
or ``deep`` slot by the node count their default ladder stops at.  The
script reports points that miss; it never drops them.
"""

import csv
import json
import os
import sys
import time

import workloads
from gapdet import cli, gapprob
from gapdet.kernels import PearceyParams

ROOT = os.path.dirname(workloads.HERE)

F2_FIRST = -2.0

AIRY_GAPS = [
    [[-1, 1]], [[-2, 0]], [[-3, -1]], [[0, 2]], [[-0.5, 0.5]], [[-4, -2]],
    [[1, 3]], [[-3, -1], [0, 2]], [[-2, -1], [1, 3]], [[-4, -2], [-1, 0]],
    [[-1, 0], [0.5, 1.5]], [[-3, -2], [-1, 1]],
]

PEARCEY = [{"tau": t, "endpoints": e}
           for t in (0.0, 1.0, 2.0, 4.0, 6.0, 8.0)
           for e in ([-1.0, 1.0], [-2.0, 0.5])]

TACNODE = [
    {"sigma": -2.5, "times": [0.0], "per_time": [[[-1, 1]]]},
    {"sigma": -2.0, "times": [-0.5, 0.5], "per_time": [[[-1, 0]], [[-1, 1]]]},
    {"sigma": -1.0, "times": [0.5], "per_time": [[[-1, 0.5]]]},
    {"sigma": 0.0, "times": [0.0], "per_time": [[[-1, 1]]]},
    {"sigma": 0.0, "times": [-0.5, 0.5],
     "per_time": [[[-1, 1]], [[-0.5, 0.5]]]},
    {"sigma": 1.0, "times": [-1.0], "per_time": [[[-2, 0]]]},
    {"sigma": 1.0, "times": [0.0, 1.0], "per_time": [[[-1, 0]], [[0, 1]]]},
    {"sigma": 2.5, "times": [0.0], "per_time": [[[-1, 1]]]},
    {"sigma": 2.5, "times": [1.0], "per_time": [[[-1.5, 0.5]]]},
    {"sigma": 5.0, "times": [0.0], "per_time": [[[-1, 1]]]},
]

# Pearcey-scaled tacnode gaps with real weights z.
DD_VARIANTS = [
    {"a_p": -1.0, "b_p": 1.0, "tau_p": [0.0], "z": 0.0},
    {"a_p": -0.5, "b_p": 1.5, "tau_p": [0.5], "z": 0.0},
    {"a_p": -1.0, "b_p": 1.0, "tau_p": [0.0], "z": 0.5},
    {"a_p": -1.5, "b_p": 0.5, "tau_p": [-0.5], "z": 0.25},
]
DD_POINTS = ([dict(v, sigma=s) for s in (-3.0, -3.5, -4.0)
              for v in DD_VARIANTS]
             + [dict(v, sigma=s) for s in (-5.0, -6.0, -7.0, -8.0, -9.0)
                for v in (DD_VARIANTS[0], DD_VARIANTS[2])])

CLI_POINTS = {
    "scan-tacnode-airy": [
        {"a": -0.3, "b": 0.5, "mode": "sigma-sweep", "lo": 1.0, "hi": 5.0,
         "n": 5},
        {"a": -0.3, "b": 0.5, "mode": "tau-sweep", "lo": 0.5, "hi": 2.0,
         "n": 4, "fixed": 1.0},
        {"a": -1.0, "b": 0.5, "mode": "sigma-sweep", "lo": 0.5, "hi": 3.0,
         "n": 4, "one_sided": True},
        {"a": 0.0, "b": 1.0, "mode": "sigma-sweep", "lo": 1.0, "hi": 4.0,
         "n": 4},
    ],
    "scan-pearcey-airy": [
        {"tau": 5.314, "lo": -3.0, "hi": 1.0, "n": 4},
        {"tau": 4.5, "lo": -2.5, "hi": 0.5, "n": 4},
        {"tau": 6.0, "lo": -3.0, "hi": 0.0, "n": 4},
        {"tau": 5.0, "lo": -2.5, "hi": 0.5, "n": 4},
    ],
    "scan-tacnode-pearcey": [
        {"sigmas": [-3.0, -4.0], "a_p": -1.0, "b_p": 1.0, "tau_p": [0.0]},
        {"sigmas": [-3.0, -3.5], "a_p": -0.5, "b_p": 1.5, "tau_p": [0.0]},
        {"sigmas": [-3.5, -4.0], "a_p": -1.0, "b_p": 1.0, "tau_p": [0.5]},
        {"sigmas": [-4.0, -3.0], "a_p": -1.5, "b_p": 0.5, "tau_p": [0.0]},
    ],
}


def _scan_rows(kind, p, m0_scale):
    """Row values of a scan from the library call behind the subcommand."""
    if kind == "scan-tacnode-airy":
        _, rows = cli.run_scan_tacnode_airy(
            p["a"], p["b"], p["mode"], p["lo"], p["hi"], p["n"],
            fixed=p.get("fixed"), one_sided=p.get("one_sided", False),
            m0=40 * m0_scale)
        col = "F_tac"
    elif kind == "scan-pearcey-airy":
        _, rows = cli.run_scan_pearcey_airy(p["tau"], p["lo"], p["hi"],
                                            p["n"], m0=60 * m0_scale)
        col = "F_P"
    else:
        _, rows = cli.run_scan_tacnode_pearcey(
            p["sigmas"], p["a_p"], p["b_p"], p["tau_p"], m0=40 * m0_scale)
        col = "F_tac"
    for row in rows:
        if "error" in row:
            raise RuntimeError("%s %r: %s" % (kind, p, row["error"]))
    return [row[col] for row in rows]


def _report(label, value, ref, extra=""):
    gap = abs(value - ref)
    flag = "MISS" if gap > workloads.TOL or not 0 <= value <= 1 else "ok"
    print("%-4s %-22s gap %.2e %s" % (flag, label, gap, extra), flush=True)


def f64_slots():
    runner = workloads.LibraryRunner()
    with open(os.path.join(ROOT, "tests", "golden", "tw_grid.csv")) as fh:
        golden = [r for r in csv.DictReader(
            ln for ln in fh if not ln.startswith("#"))]
    slots = {"F2": [], "airy_gap": [], "pearcey_gap": [], "tacnode": []}
    for row in golden:
        s, ref = float(row["s"]), float(row["F2"])
        slots["F2"].append({"params": {"s": s}, "ref": ref})
        _report("F2 %g" % s, gapprob.tracy_widom_F2(s).real, ref)
    for ivs in AIRY_GAPS:
        ref = gapprob.airy_gap(ivs, m0=80).real
        slots["airy_gap"].append({"params": {"intervals": ivs}, "ref": ref})
        _report("airy %s" % ivs, gapprob.airy_gap(ivs).real, ref)
    for p in PEARCEY:
        params = PearceyParams(p["tau"], tuple(p["endpoints"]))
        ref = gapprob.pearcey_gap(params, m0=120).real
        slots["pearcey_gap"].append({"params": p, "ref": ref})
        _report("pearcey %g %s" % (p["tau"], p["endpoints"]),
                gapprob.pearcey_gap(params).real, ref)
    for p in TACNODE:
        spec, params = runner.tacnode_args(p)
        ref = gapprob.tacnode_gap_ratio(spec, params, m0=80).real
        slots["tacnode"].append({"params": p, "ref": ref})
        ratio = gapprob.tacnode_gap_ratio(spec, params).real
        direct = gapprob.tacnode_gap_direct(spec, params).real
        _report("tac ratio %g" % p["sigma"], ratio, ref)
        _report("tac direct %g" % p["sigma"], direct, ref,
                "routes differ %.2e" % abs(ratio - direct))
    first = dict(next(q for q in slots["F2"]
                      if q["params"]["s"] == F2_FIRST), slot="F2")
    return {"first": first, "slots": slots}


def dd_slots():
    runner = workloads.LibraryRunner()
    slots = {"shallow": [], "deep": []}
    first = None
    for p in DD_POINTS:
        spec, params = runner.tacnode_args(p)
        t0 = time.perf_counter()
        res = gapprob.tacnode_gap_ratio(spec, params)
        took = time.perf_counter() - t0
        ref = gapprob.tacnode_gap_ratio(spec, params, m0=80).real
        slot = "shallow" if res.m_used[0] <= 80 else "deep"
        point = {"params": p, "ref": ref}
        slots[slot].append(point)
        if first is None:
            first = dict(point, slot=slot)
        _report("dd %g %s" % (p["sigma"], slot), res.real, ref,
                "m=%d %.1fs" % (res.m_used[0], took))
    return {"first": first, "slots": slots}


def cli_slots():
    slots = {}
    for kind, points in CLI_POINTS.items():
        slots[kind] = []
        for p in points:
            refs = _scan_rows(kind, p, 2)
            for i, (v, r) in enumerate(zip(_scan_rows(kind, p, 1), refs)):
                _report("%s %d" % (kind, i), v, r)
            slots[kind].append({"params": p, "ref": refs})
    first = dict(slots["scan-tacnode-airy"][0], slot="scan-tacnode-airy")
    return {"first": first, "slots": slots}


def main():
    parts = sys.argv[1:] or list(workloads.WORKLOADS)
    grid = workloads.load_grid() if os.path.exists(workloads.GRID_PATH) \
        else {}
    build = {"f64-mix": f64_slots, "dd-deep": dd_slots,
             "cli-scan": cli_slots}
    for name in parts:
        grid[name] = build[name]()
        with open(workloads.GRID_PATH, "w") as fh:
            json.dump(grid, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
