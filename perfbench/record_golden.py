"""Record the output digests and costs that the benchmark checks against.

    python3 perfbench/record_golden.py [WORKLOAD ...]

Runs every pool entry of the named workloads (default: all) three times,
requires every check to pass and the three digests to agree, and writes
the digest and the median cost of each entry to golden.json.  Run it only
when a pool itself changes: the point of the recorded digests is that a
library change must reproduce them byte for byte.
"""

import json
import os
import statistics
import sys
import time

import worker

REPEATS = 3


def record(wl, workload, configs):
    digests, cost_ms = {}, {}
    for key in wl.catalogue(workload):
        kind, index = key.rsplit(":", 1)
        inputs = wl.build_inputs(workload, kind, int(index), configs)
        seen, times = set(), []
        for _ in range(REPEATS):
            start = time.perf_counter()
            checks, outputs = wl.run_item(kind, inputs)
            times.append(time.perf_counter() - start)
            failed = [name for name, ok in checks if not ok]
            if failed:
                raise SystemExit("%s %s: checks failed: %s"
                                 % (workload, key, failed))
            seen.add(wl.digest(outputs))
        if len(seen) != 1:
            raise SystemExit("%s %s: outputs differ between runs"
                             % (workload, key))
        digests[key] = seen.pop()
        cost_ms[key] = round(1000 * statistics.median(times), 3)
        print("%-10s %-22s %9.1f ms" % (workload, key, cost_ms[key]),
              flush=True)
    return {"digests": digests, "cost_ms": cost_ms}


def main(argv):
    configs, _ = worker.setup()
    import workloads as wl
    golden = worker.load_golden() if os.path.exists(worker.GOLDEN) else {}
    for workload in argv or list(wl.POOL):
        golden[workload] = record(wl, workload, configs)
    with open(worker.GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
