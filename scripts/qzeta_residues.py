"""Time `period_residues(f, D f)` and the checks P1 and P5 on seeded maps
over Q(zeta_120).

Each map has numerator and denominator of one degree, every coefficient
a + b zeta_120 with small integers a and b != 0.  A case is a map's period
residues, given as degree:seed, or a check of `equiops.properties` on it,
given as P1:degree:seed or P5:degree:seed; P5 takes the seeded invariant h
of `qzeta_h`.  Each case runs in a fresh Python process, so no cache is
shared between cases, and a run that passes the cap is stopped and
reported as such.  The output is one JSON object: per case its check
("residues", "P1" or "P5"), degree, seed, seconds and the sha256 of the
`repr` of its result, the residues or the check's (ok, detail).  The exit
status is 1 if any case was stopped at the cap.

    python3 scripts/qzeta_residues.py                  # this checkout
    python3 scripts/qzeta_residues.py --src OTHER/src  # another checkout
    python3 scripts/qzeta_residues.py --cap 300 --maps 2:1 3:1 P1:3:1
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

# the checks a case may run on a map, each (ok, detail) of equiops.properties
CHECKS = {"P1": lambda pr, f, h: pr.check_duality(f),
          "P5": lambda pr, f, h: pr.check_inversion(f, h)}


def _qzeta_poly(rng, degree):
    from equiops.cyclotomic import rational, zeta
    from equiops.poly import Poly

    return Poly([rational(rng.randint(-3, 3)) + zeta(120) * rng.choice((-2, -1, 1, 2))
                 for _ in range(degree + 1)])


def qzeta_map(degree, seed):
    """The seeded map of the degree: num and den of that degree with
    coefficients a + b zeta_120, redrawn until D f is not degenerate."""
    from equiops.operators import d_operator
    from equiops.ratfn import RatFn

    rng = random.Random("qzeta-residues:%d:%d" % (degree, seed))
    while True:
        f = RatFn(_qzeta_poly(rng, degree), _qzeta_poly(rng, degree))
        if f.num.degree == f.den.degree == degree and not d_operator(f).degenerate:
            return f


def qzeta_h(degree, seed):
    """The seeded invariant of P5 for the map: degree 2 over degree 1, with
    coefficients a + b zeta_120."""
    from equiops.ratfn import RatFn

    rng = random.Random("qzeta-h:%d:%d" % (degree, seed))
    return RatFn(_qzeta_poly(rng, 2), _qzeta_poly(rng, 1))


def run_one(degree, seed, check=None):
    """(seconds, sha256) of one case: period_residues(f, D f) for check
    None, else the check of `CHECKS` on the map."""
    from equiops.operators import d_operator, period_residues

    f = qzeta_map(degree, seed)
    if check is None:
        fhat = d_operator(f)
        start = time.perf_counter()
        text = repr(period_residues(f, fhat))
    else:
        from equiops import properties

        h = qzeta_h(degree, seed)
        start = time.perf_counter()
        text = repr(CHECKS[check](properties, f, h))
    return time.perf_counter() - start, hashlib.sha256(text.encode()).hexdigest()


def parse_case(spec):
    """(check, degree, seed) of degree:seed (check None) or CHECK:degree:seed."""
    parts = spec.split(":")
    check = parts.pop(0) if len(parts) == 3 else None
    if len(parts) != 2 or not all(x.isdigit() for x in parts) or check not in (None, *CHECKS):
        raise ValueError("case %r is not degree:seed or %s:degree:seed"
                         % (spec, "/".join(CHECKS)))
    return check, int(parts[0]), int(parts[1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                    help="the src directory of the checkout to time")
    ap.add_argument("--cap", type=float, default=300.0, help="seconds allowed per case")
    ap.add_argument("--maps", nargs="*", default=["%s%d:%d" % (c, *m) for c in ("", "P1:", "P5:")
                                                  for m in MAPS],
                    help="cases as degree:seed (period residues) or P1:degree:seed "
                         "and P5:degree:seed (the checks)")
    ap.add_argument("--one", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        cases = [parse_case(spec) for spec in ([args.one] if args.one else args.maps)]
    except ValueError as exc:
        ap.error(str(exc))
    if args.one:  # the child: one case, in this fresh process
        sys.path.insert(0, args.src)
        check, degree, seed = cases[0]
        seconds, digest = run_one(degree, seed, check)
        print(json.dumps({"seconds": seconds, "sha256": digest}))
        return 0
    src = os.path.abspath(args.src)
    out = []
    for spec, (check, degree, seed) in zip(args.maps, cases):
        row = {"check": check or "residues", "degree": degree, "seed": seed}
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
