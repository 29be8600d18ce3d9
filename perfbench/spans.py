"""In-memory span tracing of gapdet's layers, from outside the package.

``Tracer.install()`` rebinds the public entry points of each layer, in every
gapdet module that looks them up, to wrappers that record a span (name,
start, end, parent, query id, thread) and exact counters (calls, matrix
sizes, evaluation points).  ``uninstall()`` restores the originals.  Spans
stay in memory; ``raw()`` folds them into sums that several processes can
add up, and ``metrics()`` turns summed raw data into the per-layer metrics.

Self time is a span's duration minus the part of it covered by its child
spans, so the self times of all spans add up to the traced busy time.
"""

import functools
import itertools
import json
import os
import sys
import threading
import time

# (module, attribute, span name, counter) for plain functions.  The counter
# maps the call's arguments to (counter suffix, amount) pairs.
_N3 = (lambda a, kw: [("n3", int(len(a[0])) ** 3)])
_POINTS = (lambda a, kw: [("points", int(getattr(a[0][0], "size", 1)))])
_POINTS2 = (lambda a, kw: [("points", int(getattr(a[1][0], "size", 1)))])
_POINTS_F = (lambda a, kw: [("points", int(getattr(a[0], "size", 1)))])

FUNCTIONS = [
    ("gapdet.gapprob", "tracy_widom_F2", "gapprob.tracy_widom_F2", None),
    ("gapdet.gapprob", "airy_gap", "gapprob.airy_gap", None),
    ("gapdet.gapprob", "pearcey_gap", "gapprob.pearcey_gap", None),
    ("gapdet.gapprob", "tacnode_gap_ratio", "gapprob.tacnode_gap_ratio",
     None),
    ("gapdet.gapprob", "tacnode_gap_direct", "gapprob.tacnode_gap_direct",
     None),
    ("gapdet.fredholm", "fredholm_det", "fredholm.fredholm_det", None),
    ("gapdet.fredholm", "det_at", "fredholm.det_at", None),
    ("gapdet.fredholm", "assemble", "fredholm.assemble", None),
    ("gapdet.fredholm", "determinant", "fredholm.determinant", _N3),
    ("gapdet.quadrature", "gauss_legendre", "quadrature.gauss_legendre",
     None),
    ("gapdet.specfun", "_airy_eval", "specfun.airy_eval", _POINTS_F),
    ("gapdet.specfun", "airy_shifted", "specfun.airy_shifted", None),
    ("gapdet.specfun", "heat_kernel", "specfun.heat_kernel", None),
    ("gapdet.kernels", "tacnode_h_matrix_dd", "kernels.tacnode_h_matrix_dd",
     None),
    ("gapdet.kernels", "airy_edge_matrix_dd", "kernels.airy_edge_matrix_dd",
     None),
    ("gapdet.ddmath", "dd_det", "ddmath.dd_det", _N3),
    ("gapdet.ddmath", "dd_airy_pair", "ddmath.dd_airy_pair", _POINTS),
    ("gapdet.ddmath", "dd_airy_shifted", "ddmath.dd_airy_shifted", _POINTS2),
    ("gapdet.ddmath", "dd_heat_kernel", "ddmath.dd_heat_kernel", None),
    ("gapdet.ddmath", "dd_gauss_legendre", "ddmath.dd_gauss_legendre", None),
    ("gapdet.cli", "main", "cli.main", None),
]

# Methods: (module, class, method names, span name).
METHODS = [
    ("gapdet.kernels", "AiryResolvent", ("__init__", "solve", "term_matrix"),
     "kernels.AiryResolvent"),
]

#: lru-cached functions whose cache_info() gives a hit ratio.
CACHES = [("gapdet.quadrature", "gauss_legendre",
           "quadrature.gauss_legendre"),
          ("gapdet.ddmath", "dd_gauss_legendre", "ddmath.dd_gauss_legendre")]

#: BlockKernel subclasses whose entry() self time is reported.
KERNEL_CLASSES = ["AiryKernel", "PearceyKernel", "TacnodeHKernel",
                  "TacnodeDirectKernel"]

GAPPROB_FUNCTIONS = ["tracy_widom_F2", "airy_gap", "pearcey_gap",
                     "tacnode_gap_ratio", "tacnode_gap_direct"]

RUNG = "fredholm.ladder.rung"
LADDERS = ("fredholm.fredholm_det", "gapprob.ratio_ladder")


def metric_names():
    """Every per-layer metric ``metrics()`` reports, with its unit."""
    out = {}
    for name in ("ddmath.dd_det", "kernels.tacnode_h_matrix_dd",
                 "kernels.airy_edge_matrix_dd", "ddmath.dd_airy_pair",
                 "ddmath.dd_airy_shifted", "ddmath.dd_heat_kernel",
                 "fredholm.assemble", "fredholm.determinant",
                 "specfun.airy_eval", "specfun.airy_shifted",
                 "specfun.heat_kernel", "kernels.AiryResolvent",
                 "quadrature.gauss_legendre", "cli.main"):
        out[name + ".self_s"] = "s"
    for cls in KERNEL_CLASSES:
        out["kernels.%s.entry.self_s" % cls] = "s"
    for fn in GAPPROB_FUNCTIONS:
        out["gapprob.%s.self_s" % fn] = "s"
        out["gapprob.%s.calls" % fn] = "count"
    out["ddmath.dd_det.n3"] = "count"
    out["fredholm.determinant.n3"] = "count"
    for name in ("ddmath.dd_airy_pair", "ddmath.dd_airy_shifted",
                 "specfun.airy_eval"):
        out[name + ".points"] = "count"
    out["fredholm.ladder.rungs_per_value"] = "ratio"
    out["fredholm.ladder.final_rung_frac"] = "ratio"
    for _, _, name in CACHES:
        out[name + ".hit_ratio"] = "ratio"
    out["cli.pool.util"] = "ratio"
    out["trace.values"] = "count"
    out["trace.wall_s"] = "s"
    out["trace.overhead_ratio"] = "ratio"
    return out


#: Counter metrics that must repeat exactly for the same code and seed.
EXACT_SUFFIXES = (".n3", ".calls", ".points", ".rungs_per_value",
                  ".hit_ratio", "trace.values")


class Tracer:
    """Records spans while installed; one per process."""

    def __init__(self):
        self.spans = []         # (id, name, start, end, parent, query, tid)
        self.counts = {}        # "name.suffix" -> int
        self.pool = [0.0, 0.0]  # row busy thread-seconds, wall x pool size
        self.query = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []
        self._caches = {}
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def span(self, name, fn, args, kwargs, parent=None, counter=None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            rec = (sid, name, t0, t1, parent, self.query,
                   threading.get_ident())
            with self._lock:
                self.spans.append(rec)
                self.counts[name + ".calls"] = \
                    self.counts.get(name + ".calls", 0) + 1
                if counter is not None:
                    for suffix, amount in counter(args, kwargs):
                        key = name + "." + suffix
                        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, args, kwargs, counter=counter)
        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every gapdet module attribute bound to ``original`` at
        ``replacement``, remembering what to restore."""
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("gapdet") or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, replacement)

    def install(self):
        import gapdet.cli       # imports every layer
        import gapdet.fredholm
        import gapdet.gapprob
        mods = sys.modules
        for modname, attr, name in CACHES:
            self._caches[name] = getattr(mods[modname], attr, None)
        for modname, attr, name, counter in FUNCTIONS:
            original = getattr(mods[modname], attr, None)
            if original is not None:
                self._rebind(original, self.wrap(name, original, counter))
        for modname, clsname, methods, name in METHODS:
            cls = getattr(mods[modname], clsname, None)
            for meth in methods if cls is not None else ():
                self._patch(cls, meth, name)
        for cls in _subclasses(gapdet.fredholm.BlockKernel):
            if "entry" in vars(cls):
                short = cls.__module__.rsplit(".", 1)[-1]
                self._patch(cls, "entry", "%s.%s.entry" % (short,
                                                            cls.__name__))
        ladder = getattr(gapdet.gapprob, "_ratio_ladder", None)
        if ladder is not None:
            self._rebind(ladder, self._ratio_ladder(ladder))
        map_rows = getattr(gapdet.cli, "_map_rows", None)
        if map_rows is not None:
            self._rebind(map_rows, self._map_rows(map_rows))

    def _patch(self, cls, meth, name):
        original = vars(cls)[meth]
        self._saved.append((cls, meth, original))
        setattr(cls, meth, self.wrap(name, original))

    def uninstall(self):
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved = []

    def _ratio_ladder(self, ladder):
        """The ratio ladder's rung callback becomes a rung span."""
        tracer = self

        @functools.wraps(ladder)
        def wrapper(rung, *args, **kwargs):
            traced_rung = tracer.wrap(RUNG, rung)
            return tracer.span("gapprob.ratio_ladder", ladder,
                               (traced_rung,) + args, kwargs)
        return wrapper

    def _map_rows(self, map_rows):
        """CLI rows become spans parented to the pool span, across threads;
        their busy time against wall x pool size gives the utilization."""
        tracer = self

        @functools.wraps(map_rows)
        def wrapper(worker, items):
            def run():
                pool_span = tracer._stack()[-1]

                def row(item):
                    t0 = time.perf_counter()
                    try:
                        return tracer.span("cli.row", worker, (item,), {},
                                           parent=pool_span)
                    finally:
                        with tracer._lock:
                            tracer.pool[0] += time.perf_counter() - t0

                t0 = time.perf_counter()
                try:
                    return map_rows(row, items)
                finally:
                    tracer.pool[1] += (time.perf_counter() - t0) * min(
                        _pool_size(), len(items))
            return tracer.span("cli.map_rows", run, (), {})
        return wrapper

    # -- output ------------------------------------------------------------

    def cache_counts(self):
        """(hits, misses) of each lru cache, by metric prefix."""
        out = {}
        for name, fn in self._caches.items():
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            out[name] = [info.hits, info.misses] if info else [0, 0]
        return out

    def raw(self, wall_s, values):
        """Additive summary of this process's spans."""
        return {"self_s": self_times(self.spans),
                "counts": dict(self.counts),
                "ladder": ladder_sums(self.spans),
                "pool": list(self.pool),
                "caches": self.cache_counts(),
                "wall_s": wall_s,
                "values": values}

    def dump(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _pool_size():
    """Row threads of the CLI pool, which reads the same variable."""
    return int(os.environ.get("GAPDET_THREADS") or os.cpu_count() or 1)


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self seconds summed per span name."""
    children = {}
    for sid, name, t0, t1, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, name, t0, t1, _, _, _ in spans:
        inner = [(max(s, t0), min(e, t1)) for s, e in children.get(sid, ())
                 if min(e, t1) > max(s, t0)]
        out[name] = out.get(name, 0.0) + (t1 - t0) - _covered(inner)
    return out


def ladder_sums(spans):
    """[ladders, rungs, final-rung seconds, all-rung seconds].

    A rung is a ratio-ladder rung span, or a det_at span directly under
    fredholm_det; the final rung of a ladder is its last to finish, the one
    whose value the ladder returns.
    """
    names = {rec[0]: rec[1] for rec in spans}
    rungs = {}
    for sid, name, t0, t1, parent, _, _ in spans:
        pname = names.get(parent)
        if pname in LADDERS and (name == RUNG or name == "fredholm.det_at"):
            rungs.setdefault(parent, []).append((t1, t1 - t0))
    n_ladders = sum(1 for rec in spans if rec[1] in LADDERS)
    n_rungs = sum(len(v) for v in rungs.values())
    final = sum(max(v)[1] for v in rungs.values())
    total = sum(d for v in rungs.values() for _, d in v)
    return [n_ladders, n_rungs, final, total]


def merge(raws):
    """Sum the raw summaries of several processes."""
    out = {"self_s": {}, "counts": {}, "ladder": [0, 0, 0.0, 0.0],
           "pool": [0.0, 0.0], "caches": {}, "wall_s": 0.0, "values": 0}
    for r in raws:
        for key in ("self_s", "counts"):
            for k, v in r[key].items():
                out[key][k] = out[key].get(k, 0) + v
        for k, (h, m) in r["caches"].items():
            h0, m0 = out["caches"].get(k, (0, 0))
            out["caches"][k] = (h0 + h, m0 + m)
        out["ladder"] = [a + b for a, b in zip(out["ladder"], r["ladder"])]
        out["pool"] = [a + b for a, b in zip(out["pool"], r["pool"])]
        out["wall_s"] += r["wall_s"]
        out["values"] += r["values"]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(raw, overhead_ratio):
    """Per-layer metrics from a (merged) raw summary."""
    self_s = raw["self_s"]
    counts = raw["counts"]
    out = {}
    for name, unit in metric_names().items():
        if name.endswith(".self_s"):
            value = self_s.get(name[:-len(".self_s")], 0.0)
        elif unit == "count" and not name.startswith("trace."):
            value = counts.get(name, 0)
        else:
            continue
        out[name] = {"value": value, "unit": unit}
    n_ladders, n_rungs, final, total = raw["ladder"]
    extra = {
        "fredholm.ladder.rungs_per_value": _ratio(n_rungs, n_ladders),
        "fredholm.ladder.final_rung_frac": _ratio(final, total),
        "cli.pool.util": _ratio(*raw["pool"]),
        "trace.values": raw["values"],
        "trace.wall_s": raw["wall_s"],
        "trace.overhead_ratio": overhead_ratio,
    }
    for _, _, name in CACHES:
        hits, misses = raw["caches"].get(name, (0, 0))
        extra[name + ".hit_ratio"] = _ratio(hits, hits + misses)
    units = metric_names()
    for name, value in extra.items():
        out[name] = {"value": value, "unit": units[name]}
    return out


def exact_counters(per_layer):
    """The per-layer values that must repeat bit for bit."""
    return {k: v["value"] for k, v in sorted(per_layer.items())
            if k.endswith(EXACT_SUFFIXES)}
