"""Time `period_residues(f, D f)` on seeded maps over Q(zeta_120).

Each map has numerator and denominator of one degree, every coefficient
a + b zeta_120 with small integers a and b != 0.  Each map runs in a fresh
Python process, so no cache is shared between maps, and a run that passes
the cap is stopped and reported as such.  The output is one JSON object:
per map its degree, seed, seconds and the sha256 of
`repr(period_residues(f, D f))`.  The exit status is 1 if any map was
stopped at the cap.

    python3 scripts/qzeta_residues.py                  # this checkout
    python3 scripts/qzeta_residues.py --src OTHER/src  # another checkout
    python3 scripts/qzeta_residues.py --cap 300 --maps 2:1 3:1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time

# (degree, seed) of every map the script times by default
MAPS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1))


def qzeta_map(degree, seed):
    """The seeded map of the degree: num and den of that degree with
    coefficients a + b zeta_120, redrawn until D f is not degenerate."""
    from equiops.cyclotomic import rational, zeta
    from equiops.operators import d_operator
    from equiops.poly import Poly
    from equiops.ratfn import RatFn

    rng = random.Random("qzeta-residues:%d:%d" % (degree, seed))

    def poly():
        return Poly([rational(rng.randint(-3, 3)) + zeta(120) * rng.choice((-2, -1, 1, 2))
                     for _ in range(degree + 1)])
    while True:
        f = RatFn(poly(), poly())
        if f.num.degree == f.den.degree == degree and not d_operator(f).degenerate:
            return f


def run_one(degree, seed):
    """(seconds, sha256) of period_residues(f, D f) for one map."""
    from equiops.operators import d_operator, period_residues

    f = qzeta_map(degree, seed)
    fhat = d_operator(f)
    start = time.perf_counter()
    text = repr(period_residues(f, fhat))
    return time.perf_counter() - start, hashlib.sha256(text.encode()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                    help="the src directory of the checkout to time")
    ap.add_argument("--cap", type=float, default=300.0, help="seconds allowed per map")
    ap.add_argument("--maps", nargs="*", default=["%d:%d" % m for m in MAPS],
                    help="maps as degree:seed")
    ap.add_argument("--one", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:  # the child: one map, in this fresh process
        sys.path.insert(0, args.src)
        seconds, digest = run_one(*map(int, args.one.split(":")))
        print(json.dumps({"seconds": seconds, "sha256": digest}))
        return 0
    src = os.path.abspath(args.src)
    out = []
    for spec in args.maps:
        degree, seed = map(int, spec.split(":"))
        row = {"degree": degree, "seed": seed}
        try:
            done = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", src,
                                   "--one", spec], capture_output=True, text=True,
                                  timeout=args.cap, check=True)
            row.update(json.loads(done.stdout.splitlines()[-1]))
        except subprocess.TimeoutExpired:
            row.update({"seconds": None, "stopped_after_s": args.cap})
        out.append(row)
        print(json.dumps(row), file=sys.stderr)
    print(json.dumps({"src": src, "cap_s": args.cap, "maps": out}, indent=1))
    return 1 if any(row["seconds"] is None for row in out) else 0


if __name__ == "__main__":
    sys.exit(main())
