"""One benchmark process: set-up, then the items of one workload.

run.py starts this script in a fresh interpreter for every measurement:

    python3 perfbench/worker.py setup
        time the set-up alone, then sample the reference kernel
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE
        set up, then run the seeded pool of WORKLOAD in whole passes until
        SECONDS have elapsed; with TRACE = 1, replay one more pass under
        the span tracer
    python3 perfbench/worker.py smoke WORKLOAD
        the three cheapest items of the pool, untraced then traced

Each mode prints one JSON object as its last line of standard output.
"""

import gc
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
TRACE_DIR = os.path.join(ROOT, ".perfbench", "traces")
GROUPS = ("A4", "S4", "A5")
REFERENCE_DUTY = 0.05  # reference-kernel time per second of item time
SETUP_REFERENCE_S = 0.1  # reference-kernel time after a set-up probe


def setup(tracer=None):
    """Import equiops, load the three group configs and build the first
    Cyclo tables.  Returns (configs, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import equiops
    if not os.path.abspath(equiops.__file__).startswith(SRC + os.sep):
        raise ImportError("equiops imported from %s, not from %s"
                          % (equiops.__file__, SRC))
    from equiops import moebius
    from equiops.report import config_path
    if tracer is not None:
        tracer.install()
    with _maybe_span(tracer, "setup"):
        configs = {name: moebius.load_group_config(config_path(name))
                   for name in GROUPS}
        equiops.sqrt5() * equiops.imag_unit()  # reduction rows of Phi_120
    if tracer is not None:
        tracer.uninstall()
    return configs, time.perf_counter() - start


def _maybe_span(tracer, name, item=-1):
    return tracer.span(name, item) if tracer is not None else nullcontext()


class Tally:
    """Checks attempted and failed; keeps the first few failure texts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, label):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(label)


def load_golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def build_pool(wl, workload, keys, configs):
    items = []
    for key in keys:
        kind, index = key.rsplit(":", 1)
        items.append((key, kind, wl.build_inputs(workload, kind, int(index),
                                                 configs)))
    return items


def reference_kernel():
    """Fixed pure-Python work shaped like Cyclo arithmetic: products of
    32-term integer vectors, gcd normalisation, tuples.  It never changes,
    so its speed measures the machine, not the library."""
    rows = []
    a = tuple(range(1, 33))
    b = tuple((7 * i) % 23 - 11 for i in range(32))
    for _ in range(6):
        conv = [0] * 63
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        g = 0
        for c in conv:
            g = gcd(g, c)
        rows.append(tuple(c // g for c in conv))
        a = rows[-1][:32]
    return rows


def sample_reference(budget_s, samples):
    """Time reference-kernel runs into ``samples`` until ``budget_s`` is
    spent (at least one run).

    The cyclic garbage collector is paused meanwhile, so that collecting
    the library's garbage is charged to the items and not to the kernel.
    """
    spent = 0.0
    gc.disable()
    try:
        while True:
            start = time.perf_counter()
            reference_kernel()
            elapsed = time.perf_counter() - start
            samples.append(elapsed)
            spent += elapsed
            if spent >= budget_s:
                return
    finally:
        gc.enable()


def run_pass(wl, items, tally, digests, reference, tracer=None):
    """One pass over the pool.

    Returns ([(key, item seconds)] for the items that did not raise, output
    digests).

    Only the library work of an item is timed.  Right after it the
    reference kernel is sampled into ``reference``; then its checks are
    tallied and its output digest compared with the recorded one.
    """
    timed, out = [], []
    for slot, (key, kind, inputs) in enumerate(items):
        start = time.perf_counter()
        try:
            with _maybe_span(tracer, "item", slot):
                checks, outputs = wl.run_item(kind, inputs)
        except Exception as exc:  # a raising item is a failed item
            tally.check(False, "%s raised %r" % (key, exc))
            out.append(None)
            continue
        timed.append((key, time.perf_counter() - start))
        # REFERENCE_DUTY of the item's time, so the samples cover the run
        sample_reference(REFERENCE_DUTY * timed[-1][1], reference)
        for name, ok in checks:
            tally.check(ok, "%s %s" % (key, name))
        if tracer is not None:
            tracer.uninstall()  # canonical text is printed untraced
        text = wl.digest(outputs)
        tally.check(text == digests.get(key), "%s digest %s" % (key, text))
        out.append(text)
        if tracer is not None:
            tracer.install(also=(wl,))
    return timed, out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mode_setup():
    _, seconds = setup()
    reference = []
    sample_reference(SETUP_REFERENCE_S, reference)
    return {"setup_s": seconds, "reference_s": statistics.mean(reference)}


def mode_run(workload, seed, seconds, trace):
    from tracer import Tracer
    tracer = Tracer() if trace else None
    configs, setup_s = setup(tracer)
    import workloads as wl
    golden = load_golden()[workload]
    keys = wl.pool(workload, seed)
    items = build_pool(wl, workload, keys, configs)
    tally = Tally()
    for name, ok in wl.golden_checks(configs):
        tally.check(ok, name)

    budget = seconds / 2.0 if trace else seconds
    timed, pass_seconds, reference = [], [], []
    start = time.perf_counter()
    while True:  # whole passes until the budget is spent
        t, untraced = run_pass(wl, items, tally, golden["digests"], reference)
        timed.extend(t)
        pass_seconds.append(sum(s for _, s in t))
        if time.perf_counter() - start >= budget:
            break
    result = {"workload": workload, "seed": seed, "trace": trace,
              "setup_s": setup_s, "pool": keys, "passes": len(pass_seconds),
              "item_key": [k for k, _ in timed],
              "item_s": [s for _, s in timed],
              "reference_s": statistics.mean(reference),
              "peak_rss_mb": peak_rss_mb()}
    if trace:
        traced_reference = []
        tracer.install(also=(wl,))
        t, traced = run_pass(wl, items, tally, golden["digests"],
                             traced_reference, tracer)
        tracer.uninstall()
        tally.check(traced == untraced,
                    "traced and untraced output digests differ")
        # each side in reference-kernel units, so machine drift cancels
        traced_pass = (sum(s for _, s in t)
                       / statistics.mean(traced_reference))
        untraced_pass = (statistics.median(pass_seconds)
                         / result["reference_s"])
        result["per_layer"] = tracer.metrics(traced_pass / untraced_pass)
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.save(os.path.join(TRACE_DIR, "%s.npz" % workload))
    result.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures)
    return result


def mode_smoke(workload):
    """The three cheapest pool items, untraced then traced: the digests
    must agree with each other and with the recorded ones."""
    from tracer import Tracer
    configs, _ = setup()
    import workloads as wl
    golden = load_golden()[workload]
    keys = sorted(wl.catalogue(workload), key=golden["cost_ms"].get)[:3]
    items = build_pool(wl, workload, keys, configs)
    tally = Tally()
    _, untraced = run_pass(wl, items, tally, golden["digests"], [])
    tracer = Tracer()
    tracer.install(also=(wl,))
    _, traced = run_pass(wl, items, tally, golden["digests"], [], tracer)
    tracer.uninstall()
    tally.check(traced == untraced, "traced and untraced output digests differ")
    return {"workload": workload, "pool": keys, "spans": len(tracer.start),
            "attempted": tally.attempted, "failed": tally.failed,
            "failures": tally.failures}


def main(argv):
    mode = argv[0] if argv else ""
    if mode == "setup" and len(argv) == 1:
        result = mode_setup()
    elif mode == "run" and len(argv) == 5:
        result = mode_run(argv[1], int(argv[2]), float(argv[3]),
                          argv[4] == "1")
    elif mode == "smoke" and len(argv) == 2:
        result = mode_smoke(argv[1])
    else:
        sys.stderr.write(__doc__)
        return 2
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
