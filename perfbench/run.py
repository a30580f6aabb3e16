"""equiops benchmark: seeded exact-verification workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is identities, field, ncalg, series, or all (each workload in turn).
Run from the root of a checkout; equiops is imported from its src/.

Each workload is a closed loop with one client, one process and one thread:
an item starts when the previous one has finished, and nothing queues.  The
command starts one workload process (worker.py) that sets up, runs the
seeded pool in whole passes for S seconds, checks every item exactly and
compares every output digest with the one recorded in golden.json.  Child
processes run one at a time, with the BLAS/OpenMP thread variables set to 1.

With --trace 0 it first starts SETUP_PROBES fresh interpreters that only set
up, and reports the end-to-end metrics, times in reference seconds (see
end_to_end).  With --trace 1 the worker spends half of S on untraced
passes, replays one more pass under the span tracer, and the per-layer
metrics are reported instead.  Human-readable lines come first; the last
line of standard output is one JSON object.  The exit code is 1 when any
check fails, 2 when the checkout cannot be benchmarked.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "equiops")
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(ROOT, ".perfbench", "results")

WORKLOADS = ("identities", "field", "ncalg", "series")

# The tail percentile of each workload: the highest that keeps at least ten
# items beyond it at the item counts of a 20-second run (see NOTES.md).
TAIL_PERCENTILE = {"identities": 70, "field": 80, "ncalg": 60, "series": 97}

# Item times are reported in reference seconds: as if the reference kernel
# of worker.py took REFERENCE_S, its typical time on the 2-core Intel Xeon VM
# that defined the benchmark (NOTES.md).
REFERENCE_S = 0.0007

SETUP_PROBES = 6
PROBE_TIMEOUT_S = 30
RUN_TIMEOUT_S = 150

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, timeout):
    """Run worker.py in a fresh interpreter; return its JSON result."""
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s timed out after %ds" % (args, timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker %s exited with %d" % (args, proc.returncode))
    return json.loads(lines[-1])


def percentile(values, pct):
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(xs) - 1)
    return xs[low] + (xs[high] - xs[low]) * (pos - low)


def environment(seed):
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(
                ROOT))).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    source = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as handle:
                source.update(name.encode() + b"\0" + handle.read())
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit, "source_sha256": source.hexdigest(),
            "seed": seed}


def end_to_end(workload, result, probes):
    """The end-to-end metrics, with item times in reference seconds.

    Every item time is scaled by REFERENCE_S over the mean time of the
    reference kernel that the worker sampled after the items, and every
    set-up time by the same ratio measured in its own process, so that a
    drift of the machine's speed during and between runs cancels.  The
    median is taken over the pool's items, each at its mean time over the
    passes; the tail percentile over every item run.
    """
    setups = [p["setup_s"] * REFERENCE_S / p["reference_s"]
              for p in probes + [result]]
    scale = REFERENCE_S / result["reference_s"]
    times = [t * scale for t in result["item_s"]]
    per_item = {}
    for key, t in zip(result["item_key"], times):
        per_item.setdefault(key, []).append(t)
    pct = TAIL_PERCENTILE[workload]
    tail = percentile(times, pct)
    metrics = {
        "setup_s": [statistics.median(setups), "s"],
        "items_per_s": [len(times) / sum(times), "1/s"],
        "item_p50_ms": [1000 * statistics.median(
            statistics.mean(v) for v in per_item.values()), "ms"],
        "item_tail_ms": [1000 * tail, "ms"],
        "peak_rss_mb": [result["peak_rss_mb"], "MB"],
    }
    note = ("p%d of %d items, %d beyond; reference kernel %.3f ms, "
            "wall-clock items_per_s %.4g" % (
                pct, len(times), sum(1 for t in times if t > tail),
                1000 * result["reference_s"],
                len(times) / sum(result["item_s"])))
    return metrics, note


def run_workload(workload, seed, seconds, trace):
    args = ["run", workload, str(seed), repr(seconds), "1" if trace else "0"]
    if trace:
        result = run_worker(args, RUN_TIMEOUT_S)
        return result["per_layer"], "traced pass", result
    probes = [run_worker(["setup"], PROBE_TIMEOUT_S)
              for _ in range(SETUP_PROBES)]
    result = run_worker(args, RUN_TIMEOUT_S)
    metrics, note = end_to_end(workload, result, probes)
    return metrics, note, dict(result, metrics=metrics, setup_probes=probes)


def report(workload, metrics, note, record):
    failed, attempted = record["failed"], record["attempted"]
    print("%s: %d passes over a pool of %d items (%s)" % (
        workload, record["passes"], len(record["pool"]), note))
    for name, (value, unit) in sorted(metrics.items()):
        print("  %-40s %14.6g %s" % (name, value, unit))
    print("  %-40s %14.6g ratio (%d of %d checks failed)" % (
        "fail_ratio", failed / attempted, failed, attempted))
    for failure in record["failures"]:
        print("  FAILED: %s" % failure)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.stderr.write("no equiops sources at %s\n" % PACKAGE)
        return 2
    env = environment(args.seed)
    print("environment: " + " ".join("%s=%s" % kv for kv in env.items()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined, attempted, failed = {}, 0, 0
    os.makedirs(RESULTS, exist_ok=True)
    for workload in names:
        try:
            metrics, note, record = run_workload(
                workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            sys.stderr.write("%s: %s\n" % (workload, exc))
            return 2
        report(workload, metrics, note, record)
        record["environment"] = env
        path = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (
            workload, args.seed, args.trace))
        with open(path, "w") as handle:
            json.dump(record, handle)
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = "" if len(names) == 1 else workload + "."
        for name, (value, unit) in metrics.items():
            combined[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
