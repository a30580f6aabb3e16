"""First-pass times of each workload from `perfbench/run.py` result files.

The benchmark runs its pool in whole passes over the same input objects,
so a value cached on an input serves every pass after the first.  This
script reads the result files of two sides (`.perfbench/results/*.json`
under each checkout, or a directory of such files) and reports each run's
first pass: the sum of its first len(pool) `item_s`, in reference seconds,
scaled as `perfbench/run.py` scales item times.  It prints one JSON object
with an entry for each workload named in the files' `workload` field that
has at least two untraced runs on both sides: the median and IQR
(inclusive quartiles) of each side and every run.

    python3 scripts/first_pass.py PARENT CHANGE

It only reads `perfbench/` output; it writes nothing.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import REFERENCE_S  # noqa: E402  (the scale of run.py)


def results_dir(path):
    inner = os.path.join(path, ".perfbench", "results")
    return inner if os.path.isdir(inner) else path


def first_passes(path):
    """Workload -> [(seed, first-pass reference seconds)] of every untraced run."""
    runs = {}
    for name in sorted(glob.glob(os.path.join(results_dir(path), "*.json"))):
        with open(name) as handle:
            record = json.load(handle)
        if record.get("trace"):
            continue
        first = record["item_s"][:len(record["pool"])]
        runs.setdefault(record["workload"], []).append(
            (record["seed"], sum(first) * REFERENCE_S / record["reference_s"]))
    return runs


def summary(runs):
    values = [s for _, s in runs]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median_s": statistics.median(values), "iqr_s": q3 - q1,
            "runs": [{"seed": seed, "first_pass_s": s} for seed, s in runs]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="parent checkout or results directory")
    parser.add_argument("change", help="change checkout or results directory")
    args = parser.parse_args(argv)
    parent, change = first_passes(args.parent), first_passes(args.change)
    workloads = {}
    for workload in sorted(set(parent) | set(change)):
        runs = {"parent": parent.get(workload, []), "change": change.get(workload, [])}
        short = [side for side, found in runs.items() if len(found) < 2]
        if short:
            sys.stderr.write("%s: fewer than two %s runs\n" % (" and ".join(short), workload))
            continue
        sides = {side: summary(found) for side, found in runs.items()}
        ratio = sides["change"]["median_s"] / sides["parent"]["median_s"]
        workloads[workload] = {"change_over_parent": ratio, **sides}
    if not workloads:
        return 2
    print(json.dumps({"unit": "reference s", "workloads": workloads}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
