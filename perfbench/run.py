"""gapdet benchmark: time to a converged gap probability.

    python3 perfbench/run.py --workload {f64-mix,dd-deep,cli-scan}
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout (the package is imported from
``src``).  Workloads, all serial closed loops from one process:

* ``f64-mix``  float64 public calls (F2, Airy gaps, Pearcey gaps, both
  tacnode routes) on small matrices; double-double code never runs.
* ``dd-deep``  double-double tacnode ratios on Pearcey-scaled gaps at
  sigma in [-9, -3], the hot path.
* ``cli-scan`` the three scan subcommands, each a fresh ``gapdet`` process
  with two row threads.

``--trace 0`` prints the end-to-end metrics: values_per_s, latency_p50_s,
latency_tail_s, setup_s and peak_rss_mb.  ``--trace 1`` prints the
per-layer metrics of a traced pass (see ``spans.py``).  The line before the
result is a JSON report: machine, pinned thread variables, seed, the tail
percentile and its sample count, failures, and the check that exact
counters repeat.  Every value is checked against ``grid.json``; the exit
code is 1 if any query failed.  ``--smoke`` runs each workload at minimal
size, for ``smoke_check.py``.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
STATE_DIR = ".perfbench"
SETUP_RUNS = 3          # fresh processes whose set-up time is the median
WORKER_TIMEOUT_S = 150


def thread_pins(workload):
    """Thread variables, pinned so that pool threads x BLAS threads stay
    within nproc.  BLAS runs single-threaded everywhere: the matrices are
    small (n <= 800) and idle BLAS threads spinning on a shared two-core
    machine made run times swing by several times."""
    nproc = len(os.sched_getaffinity(0))
    pool = min(workloads.CLI_THREADS, nproc) if workload == "cli-scan" else 1
    return {"GAPDET_THREADS": str(pool), "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1"}


def launch(args, root, state, extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--state", state]
    if args.smoke:
        cmd.append("--smoke")
    t_launch = time.monotonic()
    # own session, so that a timeout also ends the CLI processes it started
    proc = subprocess.Popen(cmd + extra + ["--t-launch", repr(t_launch)],
                            cwd=root, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("worker exceeded %d s" % WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit("worker failed with exit code %d"
                         % proc.returncode)
    return json.loads(stdout.strip().splitlines()[-1])


def tail(latencies):
    """Highest percentile with at least ten samples beyond it.

    Returns (seconds, percentile, samples beyond).  With fewer than eleven
    samples no percentile qualifies; the minimum is returned and the short
    count shows it.
    """
    xs = sorted(latencies)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def values_per_s(samples, composition):
    """Throughput of one cycle, from per-kind mean latency and values.

    A run that stops inside a cycle would otherwise over-weight the kinds
    that happened to run last.
    """
    by_kind = {}
    for kind, secs, values in samples:
        by_kind.setdefault(kind, []).append((secs, values))
    secs = vals = 0.0
    for kind, n in composition.items():
        got = by_kind.get(kind)
        if got:
            secs += n * statistics.fmean(s for s, _ in got)
            vals += n * statistics.fmean(v for _, v in got)
    return vals / secs


def end_to_end(args, root, state, report):
    main = launch(args, root, state, [])
    setups = [main]
    if not args.smoke:
        setups += [launch(args, root, state, ["--setup-only"])
                   for _ in range(SETUP_RUNS - 1)]
    samples = main["samples"]
    lat = [s for _, s, _ in samples]
    grid = workloads.load_grid()
    composition = Counter(q["kind"] for q in next(
        workloads.cycles(grid, args.workload, args.seed)))
    tail_s, pct, beyond = tail(lat)
    report.update(machine=main["machine"], queries=len(lat),
                  latency_tail={"percentile": pct, "samples": len(lat),
                                "samples_beyond": beyond},
                  setup_s_runs=[s["setup_s"] for s in setups])
    metrics = {
        "values_per_s": (values_per_s(samples, composition), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (main["rss_mb"], "MB"),
    }
    return setups, {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}


def source_digest(root):
    """Hash of the package and benchmark sources, keying the counters."""
    h = hashlib.sha256()
    for top in (os.path.join(root, "src", "gapdet"), HERE):
        for dirpath, dirnames, files in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith((".py", ".json", ".txt")):
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


def check_counters(args, root, state, per_layer):
    """Compare exact counters with an earlier run of the same code, seed
    and size; return the names that differ."""
    key = "%s|%s|%d|%r|%s" % (source_digest(root), args.workload, args.seed,
                              args.seconds, args.smoke)
    path = os.path.join(state, "counters.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as fh:
            seen = json.load(fh)
    now = spans.exact_counters(per_layer)
    before = seen.get(key)
    if before is None:
        seen[key] = now
        with open(path, "w") as fh:
            json.dump(seen, fh, indent=1, sort_keys=True)
        return "first run", []
    return "compared", sorted(k for k in set(now) | set(before)
                              if now.get(k) != before.get(k))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one query per run, no repeated set-up")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gapdet", "cli.py")):
        sys.exit("run from the root of a gapdet checkout (no src/gapdet)")
    state = os.path.join(root, STATE_DIR)
    os.makedirs(state, exist_ok=True)
    pins = thread_pins(args.workload)
    os.environ.update(pins)
    src = os.path.join(root, "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "pins": pins}
    if args.trace:
        runs = [launch(args, root, state, [])]
        report["machine"] = runs[0]["machine"]
        metrics = runs[0]["per_layer"]
        status, diff = check_counters(args, root, state, metrics)
        report["exact_counters"] = {"check": status, "mismatch": diff}
        if diff:
            sys.stderr.write("exact counters differ from an earlier run: "
                             "%s\n" % ", ".join(diff))
    else:
        runs, metrics = end_to_end(args, root, state, report)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    report["failed_frac"] = failed / attempted
    report["errors"] = [e for r in runs for e in r["errors"]][:10]
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
