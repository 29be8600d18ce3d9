"""One workload process of the benchmark, started fresh by ``run.py``.

Runs the workload's fixed first query (its end closes set-up), then either
stops (``--setup-only``), runs the closed loop until ``--seconds`` have
passed (``--trace 0``), or runs a fixed, seed-determined number of cycles
traced and then the same cycles untraced (``--trace 1``).  Prints one JSON
object on its last line of standard output.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import sys
import time

import spans
import workloads

#: Seconds one cycle takes at the commit that defined the benchmark; sizes
#: the fixed traced passes so that a traced run lasts about ``--seconds``.
NOMINAL_CYCLE_S = {"f64-mix": 0.2, "dd-deep": 12.0, "cli-scan": 6.0}


class Loop:
    """Runs queries of one workload and keeps their outcomes."""

    def __init__(self, workload, root, state):
        self.workload = workload
        self.root = root
        self.state = state
        self.cli = workload == "cli-scan"
        self.runner = None if self.cli else workloads.LibraryRunner()
        self.samples = []       # [kind, seconds, values]
        self.attempted = 0
        self.errors = []
        self.tracer = None
        self.trace_files = []

    def run(self, q, keep=True):
        trace_out = None
        if self.cli and self.tracer is not None:
            trace_out = os.path.join(
                self.state, "cli-%d.json" % len(self.trace_files))
            self.trace_files.append(trace_out)
        elif self.tracer is not None:
            self.tracer.query = self.attempted
        t0 = time.perf_counter()
        if self.cli:
            values, bad = workloads.run_cli(q, self.root, trace_out)
        else:
            values, bad = self.runner.run(q)
        took = time.perf_counter() - t0
        self.attempted += 1
        if bad:
            self.errors.append({"kind": q["kind"], "params": q["params"],
                                "problems": bad[:5]})
        if keep:
            self.samples.append([q["kind"], took, values])
        return took, values

    def rss_mb(self):
        who = resource.RUSAGE_CHILDREN if self.cli else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024.0


def machine():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version",
                                              "openblas configuration")}}


def traced(loop, grid, args):
    """Fixed cycles traced, then the same cycles untraced."""
    if args.smoke:
        queries = [workloads.first_query(grid, args.workload)]
    else:
        count = max(1, int(args.seconds
                           / (2.0 * NOMINAL_CYCLE_S[args.workload])))
        plan = workloads.cycles(grid, args.workload, args.seed)
        queries = [q for cycle in itertools.islice(plan, count)
                   for q in cycle]

    loop.tracer = spans.Tracer()
    if not loop.cli:
        loop.tracer.install()
    t0 = time.perf_counter()
    values = sum(loop.run(q, keep=False)[1] for q in queries)
    wall = time.perf_counter() - t0
    if loop.cli:
        raws = []
        for path in loop.trace_files:
            with open(path) as fh:
                raws.append(json.load(fh))
        raw = spans.merge(raws)
    else:
        raw = loop.tracer.raw(wall, values)
        loop.tracer.uninstall()
        loop.tracer.dump(os.path.join(
            loop.state, "spans-%s-%d.jsonl" % (args.workload, args.seed)))
    raw["wall_s"], raw["values"] = wall, values
    loop.tracer = None

    t0 = time.perf_counter()
    for q in queries:
        loop.run(q, keep=False)
    plain = time.perf_counter() - t0
    return spans.metrics(raw, plain / wall)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-launch", type=float, required=True,
                    help="time.monotonic() when the parent launched us")
    ap.add_argument("--state", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    loop = Loop(args.workload, root, args.state)
    grid = workloads.load_grid()
    first = workloads.first_query(grid, args.workload)
    took, _ = loop.run(first, keep=False)
    # the CLI pays its own interpreter start, which took covers
    setup_s = took if loop.cli else time.monotonic() - args.t_launch
    out = {"setup_s": setup_s}

    if args.trace:
        out["per_layer"] = traced(loop, grid, args)
    elif not args.setup_only:
        if args.smoke:
            loop.run(first)
        else:
            deadline = time.perf_counter() + args.seconds
            plan = workloads.cycles(grid, args.workload, args.seed)
            while time.perf_counter() < deadline:
                for q in next(plan):
                    loop.run(q)
                    if time.perf_counter() >= deadline:
                        break
        out["samples"] = loop.samples
        out["rss_mb"] = loop.rss_mb()
    if not args.setup_only:
        out["machine"] = machine()
    out.update(attempted=loop.attempted, failed=len(loop.errors),
               errors=loop.errors[:10])
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
