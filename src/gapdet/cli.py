"""Command-line front end: gap-probability tables and limit scans as CSV.

Every subcommand prints a deterministic table: one `#` comment line that
records the engine version and the full flag set (the output path is
deliberately omitted so the same query writes identical bytes anywhere),
a column-name line, then the rows.  ``--json`` switches to a JSON document
carrying per-row convergence diagnostics.  Rows run one after another, in
input order; a failed row keeps its key columns and carries the error.

Exit codes: 0 success, 1 probe found no witness, 2 a row failed
numerically, 3 invalid arguments.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import DomainError, GapdetError
from .gapprob import (airy_gap, pearcey_gap, tacnode_gap_direct,
                      tacnode_gap_ratio, tracy_widom_F2)
from .kernels import (_MIN_INNER, ConditionedKernel, FormalTacnodeKernel,
                      GapSpec, PearceyParams, TacnodeParams,
                      conditioning_edge, tail_cutoff)
from .quadrature import gauss_legendre

__all__ = ["main", "run_tw", "run_pearcey", "run_tacnode",
           "run_scan_pearcey_airy", "run_scan_tacnode_pearcey",
           "run_scan_tacnode_airy", "run_positivity_probe",
           "pearcey_airy_endpoints", "tacnode_pearcey_times"]


# ---------------------------------------------------------------------------
# Row helpers

def _map_rows(worker, items):
    """Rows ``{**item, **worker(item)}``, one after another in input order,
    for key-column dicts ``items``; a failed row is its item plus
    ``error``."""
    def row(item):
        try:
            return {**item, **worker(item)}
        except (GapdetError, OverflowError) as exc:
            return dict(item, error="%s: %s" % (type(exc).__name__, exc))
    return [row(item) for item in items]


def _reference(value):
    """``value()``, a scan's reference value, or the error it raised, which
    every row that reads the reference raises again (:func:`_read`)."""
    try:
        return value()
    except (GapdetError, OverflowError) as exc:
        return exc


def _read(*refs):
    """The reference values ``refs``; the first that failed is raised."""
    for ref in refs:
        if isinstance(ref, Exception):
            raise ref.with_traceback(None)
    return refs


def _diag(res):
    return {"err": res.err_estimate,
            "imag_residual": res.imag_residual,
            "m_used": list(res.m_used),
            "route": res.parts.get("route"),
            "rounding_floor": res.parts.get("rounding_floor")}


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return "%.15g" % v
    return str(v)


def _render_csv(meta, columns, rows):
    lines = ["# " + meta, ",".join(columns)]
    for row in rows:
        err = row.get("error", "")
        cells = [_fmt(row.get(c)) for c in columns[:-1]]
        cells.append(err.replace(",", ";").replace("\n", " "))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _render_json(meta, columns, rows):
    doc = {"meta": meta, "columns": list(columns), "rows": rows}
    return json.dumps(doc, sort_keys=True, default=str) + "\n"


def _emit(args, meta, columns, rows):
    text = _render_json(meta, columns, rows) if args.json \
        else _render_csv(meta, columns, rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 2 if any("error" in row for row in rows) else 0


def _meta(args):
    """The comment line: version, subcommand and every flag that
    :func:`_common` recorded for it."""
    parts = ["gapdet", __version__, args.command]
    for name in args.meta_flags:
        val = getattr(args, name.replace("-", "_"))
        if val is None:
            continue
        if isinstance(val, bool):
            if val:
                parts.append("--" + name)
        elif isinstance(val, (list, tuple)):
            parts.append("--" + name)
            parts.extend(_fmt(float(v)) for v in val)
        else:
            parts.append("--%s %s" % (name, _fmt(val)))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Parameter maps of the limit regimes

def pearcey_airy_endpoints(tau, rho, sigma):
    """Gap endpoints that push the Pearcey process to two Airy edges; at
    tau = 0 they meet, and below it (tau / 3)^(3/2) is not real."""
    if not tau > 0.0:
        raise DomainError("the endpoint map needs tau > 0, got %g" % tau)
    c = 2.0 * (tau / 3.0) ** 1.5
    w = (3.0 * tau) ** (1.0 / 6.0)
    return -c + w * rho, c - w * sigma


def tacnode_pearcey_times(sigma, taus_p, branch=1.0):
    """Tacnode times matching Pearcey times at overlap ``sigma`` < 0.

    The map has a sign ambiguity in its leading term; ``branch`` selects
    it.  The spatial scale (-8 sigma)^(1/8) that shrinks the endpoints is
    returned alongside.
    """
    if not sigma < 0.0:
        raise DomainError("the time map needs sigma < 0, got %g" % sigma)
    scale = (-8.0 * sigma) ** 0.125
    base = branch * math.sqrt(-sigma / 2.0)
    step = (-128.0 * sigma) ** 0.25
    return scale, tuple(base + tp / step for tp in taus_p)


# ---------------------------------------------------------------------------
# Row producers (pure; the cmd_* handlers only parse flags and render)

def run_tw(s_min, s_max, steps, m0=40, tol=1e-8):
    def worker(row):
        res = tracy_widom_F2(row["s"], m0=m0, tol=tol)
        return {"F2": res.real, **_diag(res)}
    grid = [{"s": float(s)} for s in np.linspace(s_min, s_max, steps + 1)]
    return ["s", "F2", "err", "error"], _map_rows(worker, grid)


def run_pearcey(tau, endpoints, m0=20, tol=1e-8):
    def worker(row):
        params = PearceyParams(tau=tau, endpoints=tuple(endpoints))
        res = pearcey_gap(params, m0=m0, tol=tol)
        return {"F_P": res.real, **_diag(res)}
    ends = ";".join(_fmt(float(a)) for a in endpoints)
    rows = _map_rows(worker, [{"tau": tau, "endpoints": ends}])
    return ["tau", "endpoints", "F_P", "err", "error"], rows


def _parse_intervals(text, n_times):
    """Per-time interval groups: 'a:b[:z],a:b;a:b' (';' splits times).

    The groups are vetted as a :class:`GapSpec`, so an interval with
    a >= b or a non-finite field is a bad argument, not a failed row.
    """
    if not text.strip():
        return [[] for _ in range(n_times)]
    groups = text.split(";")
    if len(groups) != n_times:
        raise ValueError("got %d interval groups for %d times"
                         % (len(groups), n_times))
    out = []
    for grp in groups:
        slot = []
        for item in filter(None, (s.strip() for s in grp.split(","))):
            fields = [float(f) for f in item.split(":")]
            if len(fields) not in (2, 3):
                raise ValueError("interval must be a:b or a:b:z, got %r"
                                 % item)
            slot.append(tuple(fields))
        out.append(slot)
    GapSpec(per_time=out)
    return out


def run_tacnode(sigma, times, intervals, route="ratio", m0=40, tol=1e-8,
                force_sigma=False):
    def worker(row):
        params = TacnodeParams(sigma=sigma, times=tuple(times))
        spec = GapSpec(per_time=intervals)
        fn = tacnode_gap_ratio if route == "ratio" else tacnode_gap_direct
        res = fn(spec, params, m0=m0, tol=tol, force_sigma=force_sigma)
        return {"F_tac": res.real, **_diag(res)}
    rows = _map_rows(worker, [{"sigma": sigma}])
    return ["sigma", "F_tac", "err", "error"], rows


def run_scan_pearcey_airy(tau, lo, hi, n, m0=20, tol=1e-8):
    """Pearcey gaps at ``m0`` against F2 products at F2's own default m0."""
    grid = np.linspace(lo, hi, n)
    f2 = {float(v): _reference(lambda: tracy_widom_F2(v, tol=tol).real)
          for v in grid}

    def worker(row):
        rho, sig = row["rho"], row["sigma"]
        f2_sig, f2_rho = _read(f2[sig], f2[rho])
        a, b = pearcey_airy_endpoints(tau, rho, sig)
        res = pearcey_gap(PearceyParams(tau=tau, endpoints=(a, b)),
                          m0=m0, tol=tol)
        ref = f2_sig * f2_rho
        return {"F_P": res.real, "F2F2": ref,
                "reldiff": 1.0 - res.real / ref, **_diag(res)}
    rows = _map_rows(worker, [{"rho": float(r), "sigma": float(s)}
                              for r in grid for s in grid])
    return ["rho", "sigma", "F_P", "F2F2", "reldiff", "err", "error"], rows


def run_scan_tacnode_pearcey(sigmas, a_p, b_p, taus_p, branch=1.0, m0=40,
                             tol=1e-8, force_sigma=False):
    """Tacnode rows converging to a Pearcey gap as sigma drops.

    With one Pearcey time the reference F_P is computed once, at
    :func:`pearcey_gap`'s own m0, and a relative-difference column is
    emitted; if it fails, every row carries its error.  With several times
    no Pearcey reference exists here, so the discrepancy column reports the
    relative change from the previous row instead (a convergence
    indicator).
    """
    multi = len(taus_p) > 1
    f_p = None if multi else _reference(lambda: pearcey_gap(
        PearceyParams(tau=taus_p[0], endpoints=(a_p, b_p)), tol=tol).real)

    def worker(row):
        sigma = row["sigma"]
        _read(f_p)
        scale, taus = tacnode_pearcey_times(sigma, taus_p, branch)
        per_time = [[(a_p / scale, b_p / scale)] for _ in taus]
        res = tacnode_gap_ratio(GapSpec(per_time=per_time),
                                TacnodeParams(sigma=sigma, times=taus),
                                m0=m0, tol=tol, force_sigma=force_sigma)
        if multi:
            return {"F_tac": res.real, **_diag(res)}
        return {"F_tac": res.real, "F_P": f_p,
                "reldiff": 1.0 - res.real / f_p, **_diag(res)}
    rows = _map_rows(worker, [{"sigma": float(s)} for s in sigmas])
    if multi:
        prev = None
        for row in rows:
            cur = row.get("F_tac")
            if cur is not None and prev is not None:
                row["reldisc"] = abs(cur - prev) / abs(cur)
            prev = cur
    cols = ["sigma", "F_tac", "reldisc"] if multi \
        else ["sigma", "F_tac", "F_P", "reldiff"]
    return cols + ["err", "error"], rows


def run_scan_tacnode_airy(a, b, mode, lo, hi, n, fixed=None, one_sided=False,
                          m0=40, tol=1e-8, force_sigma=False):
    """Tacnode rows approaching Airy laws for growing sigma or |tau|.

    Two-sided (default): gap [a - s - t^2, -b + s + t^2] against
    F2(a) F2(b).  One-sided: gap [a - s - t^2, b - s - t^2] against the
    Airy gap probability on [a, b].  A degenerate gap set gives the exact
    row F_tac = 1.  A reference that fails is the error of every row.
    """
    if fixed is None:
        fixed = 0.0 if mode == "sigma-sweep" else 1.0
    if one_sided:
        ref = _reference(lambda: airy_gap([(a, b)], m0=m0, tol=tol).real)
    else:
        ref = _reference(lambda: tracy_widom_F2(a, m0=m0, tol=tol).real
                         * tracy_widom_F2(b, m0=m0, tol=tol).real)

    def worker(row):
        _read(ref)
        param = row["param"]
        sigma, tau = (param, fixed) if mode == "sigma-sweep" \
            else (fixed, param)
        shift = sigma + tau * tau
        if one_sided:
            gap_lo, gap_hi = a - shift, b - shift
        else:
            gap_lo, gap_hi = a - shift, -b + shift
        per_time = [[(gap_lo, gap_hi)]] if gap_lo < gap_hi else [[]]
        res = tacnode_gap_ratio(GapSpec(per_time=per_time),
                                TacnodeParams(sigma=sigma, times=(tau,)),
                                m0=m0, tol=tol, force_sigma=force_sigma)
        return {"F_tac": res.real, "F2F2": ref,
                "reldiff": 1.0 - res.real / ref, **_diag(res)}
    rows = _map_rows(worker, [{"param": float(p)}
                              for p in np.linspace(lo, hi, n)])
    return ["param", "F_tac", "F2F2", "reldiff", "err", "error"], rows


def run_positivity_probe(sigma, tau, n_samples=40, seed=1234, m0=40,
                         m_inner=80):
    """Minors of the formal extended kernel conditioned on an empty edge.

    Conditions the auxiliary-line block on having no points in
    [sigma_tilde, inf), on the direct route's edge: one finite component
    truncated at the cutoff of a gap spec that covers the probe's point
    window [-4, 2] (:func:`gapdet.kernels.conditioning_edge`), with a
    2 m0-point rule.  Then it evaluates 1x1 and 2x2 correlation
    determinants at a fixed cross-block grid plus seeded random points.
    A genuine determinantal kernel would keep every minor nonnegative;
    this one does not, and the probe reports the minimum found.  The
    kernel is evaluated once per (block, block) pair over all points, and
    the minors are read off that matrix.
    """
    params = TacnodeParams(sigma=sigma, times=(tau,))
    base = FormalTacnodeKernel(params, m_inner=m_inner)
    ck = ConditionedKernel(base, conditioning_edge(params, tail_cutoff(
        params, GapSpec([[(-4.0, 2.0)]]))), gauss_legendre(2 * m0))
    pts = [(blk, float(x)) for blk in (0, 1)
           for x in np.linspace(-3.0, 1.0, 5)]
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        pts.append((int(rng.integers(0, 2)),
                    float(rng.uniform(-4.0, 2.0))))
    n = len(pts)
    blocks = np.array([b for b, _ in pts])
    xs = np.array([x for _, x in pts])
    kmat = np.empty((n, n))
    for b1 in (0, 1):
        for b2 in (0, 1):
            r, c = blocks == b1, blocks == b2
            kmat[np.ix_(r, c)] = ck.value_matrix(b1, xs[r], b2, xs[c])
    diag = np.diag(kmat)
    minor = np.outer(diag, diag) - kmat * kmat.T
    items = [(i, i) for i in range(n)]
    items += [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows = [{"kind": "point" if i == j else "pair", "b1": pts[i][0],
             "x1": pts[i][1], "b2": pts[j][0], "x2": pts[j][1],
             "det": float(diag[i] if i == j else minor[i, j])}
            for i, j in items]
    min_det = min(row["det"] for row in rows)
    return (["kind", "b1", "x1", "b2", "x2", "det", "error"], rows,
            min_det, min_det < 0.0)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(3)


def _int_at_least(least, what, name):
    """argparse type of an integer flag: an integer >= ``least``, refused
    as ``what`` (e.g. "a count"); ``name`` is the type's name in argparse's
    own message for text that is not an integer."""
    def parse(text):
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError("expected %s >= %d, got %d"
                                             % (what, least, n))
        return n
    parse.__name__ = name
    return parse


# grid sizes and sample counts, --m0 (the ladder's floor) and --m-inner
# (the inner rule's floor)
_count = _int_at_least(0, "a count", "_count")
_m0 = _int_at_least(10, "m0", "_m0")
_m_inner = _int_at_least(_MIN_INNER, "m_inner", "_m_inner")


def _tol(text):
    """argparse type of --tol: a positive finite float."""
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0.0):
        raise argparse.ArgumentTypeError(
            "expected a positive finite tolerance, got %s" % text)
    return tol


def _common(sub, m0_default, tol=True):
    sub.add_argument("--m0", type=_m0, default=m0_default,
                     help="starting nodes per component")
    if tol:
        sub.add_argument("--tol", type=_tol, default=1e-8,
                         help="convergence tolerance")
    # every flag registered so far shapes the values and goes into the
    # meta line; the output format and path below do not
    sub.set_defaults(meta_flags=[act.option_strings[0][2:]
                                 for act in sub._actions
                                 if act.dest != "help"])
    sub.add_argument("--json", action="store_true",
                     help="emit JSON with per-row diagnostics")
    sub.add_argument("--out", default=None, help="write output to a file")


def build_parser():
    top = _Parser(prog="gapdet",
                  description="Gap probabilities of the Airy, Pearcey and "
                              "tacnode processes.")
    top.add_argument("--version", action="version",
                     version="gapdet " + __version__)
    subs = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("tw", help="Tracy-Widom F2 over an s grid")
    p.add_argument("--s-min", type=float, default=-8.0)
    p.add_argument("--s-max", type=float, default=4.0)
    p.add_argument("--steps", type=_count, default=12,
                   help="number of grid intervals (rows = steps + 1)")
    _common(p, 40)

    p = subs.add_parser("pearcey", help="one Pearcey gap probability")
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--endpoints", type=float, nargs="*", default=[-1.0, 1.0],
                   help="sorted gap endpoints, an even count")
    _common(p, 20)

    p = subs.add_parser("tacnode", help="one tacnode gap probability")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--times", type=float, nargs="+", default=[0.0])
    p.add_argument("--intervals", default="",
                   help="per-time groups 'a:b[:z],...;...' (';' splits times)")
    p.add_argument("--route", choices=("ratio", "direct"), default="ratio")
    p.add_argument("--force-sigma", action="store_true",
                   help="override the |sigma| stability window")
    _common(p, 40)

    p = subs.add_parser("scan-pearcey-airy",
                        help="Pearcey gaps against products of two F2")
    p.add_argument("--tau", type=float, default=5.314)
    p.add_argument("--lo", type=float, default=-3.0)
    p.add_argument("--hi", type=float, default=1.0)
    p.add_argument("--n", type=_count, default=5, help="grid points per axis")
    _common(p, 20)

    p = subs.add_parser("scan-tacnode-pearcey",
                        help="tacnode gaps against a Pearcey gap")
    p.add_argument("--sigmas", type=float, nargs="+",
                   default=[-3.0, -5.0, -7.0, -9.0])
    p.add_argument("--a-p", type=float, default=-1.0)
    p.add_argument("--b-p", type=float, default=1.0)
    p.add_argument("--tau-p", type=float, nargs="+", default=[0.0])
    p.add_argument("--branch", choices=("plus", "minus"), default="plus",
                   help="sign of the leading term of the time map")
    p.add_argument("--force-sigma", action="store_true")
    _common(p, 40)

    p = subs.add_parser("scan-tacnode-airy",
                        help="tacnode gaps against Airy laws")
    p.add_argument("--a", type=float, default=-0.3)
    p.add_argument("--b", type=float, default=0.5)
    p.add_argument("--mode", choices=("sigma-sweep", "tau-sweep"),
                   default="sigma-sweep")
    p.add_argument("--lo", type=float, default=1.0)
    p.add_argument("--hi", type=float, default=5.0)
    p.add_argument("--n", type=_count, default=5)
    p.add_argument("--fixed", type=float, default=None,
                   help="the non-swept parameter (tau or sigma)")
    p.add_argument("--one-sided", action="store_true",
                   help="translate the gap instead of stretching it")
    p.add_argument("--force-sigma", action="store_true")
    _common(p, 40)

    p = subs.add_parser("positivity-probe",
                        help="search for negative minors of the formal "
                             "extended kernel")
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--n-samples", type=_count, default=40)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--m-inner", type=_m_inner, default=80)
    _common(p, 40, tol=False)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    meta = _meta(args)
    try:
        if args.command == "tw":
            cols, rows = run_tw(args.s_min, args.s_max, args.steps,
                                m0=args.m0, tol=args.tol)
        elif args.command == "pearcey":
            if len(args.endpoints) % 2:
                sys.stderr.write("error: endpoint count must be even\n")
                raise SystemExit(3)
            cols, rows = run_pearcey(args.tau, args.endpoints,
                                     m0=args.m0, tol=args.tol)
        elif args.command == "tacnode":
            try:
                ivs = _parse_intervals(args.intervals, len(args.times))
            except ValueError as exc:
                sys.stderr.write("error: %s\n" % exc)
                raise SystemExit(3)
            cols, rows = run_tacnode(args.sigma, args.times, ivs,
                                     route=args.route, m0=args.m0,
                                     tol=args.tol,
                                     force_sigma=args.force_sigma)
        elif args.command == "scan-pearcey-airy":
            cols, rows = run_scan_pearcey_airy(args.tau, args.lo, args.hi,
                                               args.n, m0=args.m0,
                                               tol=args.tol)
        elif args.command == "scan-tacnode-pearcey":
            branch = 1.0 if args.branch == "plus" else -1.0
            cols, rows = run_scan_tacnode_pearcey(
                args.sigmas, args.a_p, args.b_p, args.tau_p, branch=branch,
                m0=args.m0, tol=args.tol, force_sigma=args.force_sigma)
        elif args.command == "scan-tacnode-airy":
            cols, rows = run_scan_tacnode_airy(
                args.a, args.b, args.mode, args.lo, args.hi, args.n,
                fixed=args.fixed, one_sided=args.one_sided, m0=args.m0,
                tol=args.tol, force_sigma=args.force_sigma)
        else:
            cols, rows, min_det, found = run_positivity_probe(
                args.sigma, args.tau, n_samples=args.n_samples,
                seed=args.seed, m0=args.m0, m_inner=args.m_inner)
            meta += " | min_det %s negative_found %s" % (_fmt(min_det),
                                                         found)
            status = _emit(args, meta, cols, rows)
            if status:
                return status
            return 0 if found else 1
    except (GapdetError, OverflowError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    return _emit(args, meta, cols, rows)


if __name__ == "__main__":
    sys.exit(main())
