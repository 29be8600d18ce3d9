"""Check the Tracy-Widom golden table against an mpmath reference.

Run from the repository root, before replacing tests/golden/tw_grid.csv:

    PYTHONPATH=src python3 tools/check_tw_golden.py          # report only
    PYTHONPATH=src python3 tools/check_tw_golden.py --write  # and replace

For every row of the committed table the script rebuilds the Nystrom
matrix I - K W that ``tracy_widom_F2`` evaluates at its final rung: the
same ray nodes and weights, taken from the code, with the Airy kernel
entries and the determinant computed in 34-digit mpmath arithmetic.  That
isolates the float64 rounding of the code (Airy evaluation, assembly, LU)
from its quadrature error, which both sides share.  The script prints the
relative error of the committed value ("old") and of the value the current
code writes ("new") against that reference, and accepts a row only when

    new <= max(old, 1e-14) + 4 eps |ln F2|,      eps = 2**-52.

The last term is a rounding allowance.  A determinant's last step folds
its n pivots into one number, as a product or as exp of a sum of logs; the
rounding of that step alone is a few ulp of |ln F2| in relative terms, and
a change of it moves a row's error by that much without making the LU any
less accurate.  Deep rows need it: at s = -7 the value's error is 2.3e-11
(LU rounding amplified by conditioning), and folding the same pivots the
other way moves it by 4e-15, against an allowance of 2.6e-14.  Any real
loss of accuracy is orders of magnitude larger.  ``--write`` replaces the
committed table, and only when every row is accepted; the exit status is 1
otherwise.

Needs mpmath.  It runs offline, takes under a minute, and is not part of
the test suite.
"""

import argparse
import math
import os
import sys
import tempfile

import mpmath as mp

from gapdet.cli import main as gapdet_main
from gapdet.gapprob import tracy_widom_F2
from gapdet.quadrature import DomainComponent, gauss_legendre

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "tests", "golden", "tw_grid.csv")
DPS = 34
FLOOR = 1e-14
ULPS = 4
EPS = 2.0 ** -52


def read_table(text):
    """(meta line, {s: F2}) of a ``gapdet tw`` CSV table."""
    lines = text.strip().split("\n")
    cols = lines[1].split(",")
    rows = [dict(zip(cols, ln.split(","))) for ln in lines[2:]]
    return lines[0], {float(r["s"]): float(r["F2"]) for r in rows}


def reference_f2(s, m):
    """det(I - K W) on the code's m-point ray rule, in mpmath."""
    rule = gauss_legendre(m)
    x, dx = DomainComponent.ray(s).map_points(rule.nodes)
    w = rule.weights * dx
    xs = [mp.mpf(float(v)) for v in x]
    ws = [mp.mpf(float(v)) for v in w]
    ai = [mp.airyai(v) for v in xs]
    aip = [mp.airyai(v, 1) for v in xs]
    mat = mp.matrix(m, m)
    for p in range(m):
        for q in range(m):
            if p == q:
                k = aip[p] ** 2 - xs[p] * ai[p] ** 2
            else:
                k = (ai[p] * aip[q] - aip[p] * ai[q]) / (xs[p] - xs[q])
            mat[p, q] = (1 if p == q else 0) - k * ws[q]
    return mp.det(mat)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="replace the golden table when every row passes")
    args = ap.parse_args(argv)
    mp.mp.dps = DPS

    with open(GOLDEN) as fh:
        old_text = fh.read()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tw.csv")
        argv_tw = old_text.split("\n")[0].split()[3:]     # the recorded query
        if gapdet_main(argv_tw + ["--out", path]) != 0:
            sys.exit("gapdet tw failed")
        with open(path) as fh:
            new_text = fh.read()
    old_meta, old = read_table(old_text)
    new_meta, new = read_table(new_text)
    if old_meta != new_meta or sorted(old) != sorted(new):
        sys.exit("the regenerated table answers a different query")

    print("%5s %4s %-24s %11s %11s %8s  %s"
          % ("s", "m", "mpmath reference", "old rel", "new rel", "allow",
             "verdict"))
    accepted = True
    for s in sorted(old):
        m = tracy_widom_F2(s).m_used[0]
        ref = reference_f2(s, m)
        e_old = float(abs((old[s] - ref) / ref))
        e_new = float(abs((new[s] - ref) / ref))
        allowance = ULPS * EPS * abs(math.log(new[s]))
        ok = e_new <= max(e_old, FLOOR) + allowance
        accepted &= ok
        print("%5g %4d %-24s %11.4e %11.4e %8.1e  %s"
              % (s, m, mp.nstr(ref, 17), e_old, e_new, allowance,
                 "ok" if ok else "WORSE"))
    if not accepted:
        print("rejected: some rows got worse; the table is left as it is")
        return 1
    if args.write and new_text != old_text:
        with open(GOLDEN, "w") as fh:
            fh.write(new_text)
        print("wrote", os.path.normpath(GOLDEN))
    return 0


if __name__ == "__main__":
    sys.exit(main())
