"""Tiny smoke run: traced and untraced runs must give identical digests.

    python3 perfbench/smoke.py

For every workload, runs the three cheapest items of the seed-0 pool once
untraced and once under the span tracer, in a fresh worker process, and
checks both sets of output digests against golden.json and each other.
Exits 1 on any failure.
"""

import sys

import run


def main():
    failed = 0
    for workload in run.WORKLOADS:
        result = run.run_worker(["smoke", workload], run.RUN_TIMEOUT_S)
        print("%s: %s, %d spans, %d of %d checks failed" % (
            workload, " ".join(result["pool"]), result["spans"],
            result["failed"], result["attempted"]))
        for failure in result["failures"]:
            print("  FAILED: %s" % failure)
        failed += result["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
