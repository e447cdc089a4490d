"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload check-l --seed 1 --seconds 28 --trace 0

Runs from the root of a checkout.  The workload is a single-process closed
loop: one operation at a time, the next only after the previous returned.
Operations come in passes over the workload's inputs, in an order drawn
from ``--seed``.  A pass is made of blocks (``check-l``: one per ``D*``
view, holding every rule set; otherwise the whole pass); after the first
whole pass a new block starts only when the mean block time says it ends
within ``--seconds`` (at least three operations run).  Every output
is fingerprinted and compared with ``perfbench/reference.json``; an
operation that raises or differs counts as failed.

``--trace 0`` times the public entry points and reports the end-to-end
metrics.  ``--trace 1`` runs every operation twice, untraced and with
per-layer timing (``workloads.py``), alternating which goes first, checks
the two outputs agree, and reports the per-layer metrics per operation,
with ``trace.overhead_ratio`` = traced time / untraced time.

Every operation starts from a collected heap (``gc.collect()`` outside the
timed region), so garbage the previous one left is not charged to it.  The
process re-executes itself once under a fixed ``PYTHONHASHSEED``.

Times are normalised to a reference host speed.  The speed of a shared
host drifts by a fifth within seconds and between runs, so a fixed kernel
is timed between timed steps and a step's time is multiplied by the
kernel's reference time over its time around the step (``Timings``).  Each
workload names the kernel that follows its operations (``host_kernel``):
the checkers follow a small pure-Python kernel, the chases an
allocation-heavy one; set-ups use the small one.  The record line keeps the
raw end-to-end times.

Metric names and units come from ``BENCHMARK.json``.  Output: a table, one
JSON record with host facts (what ``compare.py`` reads), and as the last
line ``{"correct", "attempted", "failed", "metrics"}``.  Exits 2 when the
checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Hash randomisation lays out the chase's sets and dicts differently in
#: every process and moves an ``indexed`` chase's time by several per cent
#: from process to process; every run uses this one seed instead.
HASH_SEED = "0"
#: Operations a run makes at least, whatever ``--seconds`` says.
MIN_OPERATIONS = 3
#: Set-up repeats at least this often and until it has taken this long,
#: but no more often than the maximum.
MIN_SETUPS, MIN_SETUP_SECONDS, MAX_SETUPS = 3, 1.5, 25


def compute_kernel():
    """Fixed pure-Python work in a small working set: tuples, dicts, a sort."""
    table = {}
    members = set()
    for i in range(3000):
        key = (i % 97, i % 13, str(i))
        table[key] = table.get(key, 0) + 1
        members.add(key[2])
    return sorted(members)[:10], len(table)


def allocation_kernel():
    """Fixed allocation-heavy work: a set of 40k fresh tuples, then a sort."""
    items = set()
    for i in range(40000):
        items.add((i, i * 7919 % 40000, str(i)))
    return len(sorted(items))


#: Host-speed kernels and their times on the 2-core x86_64 host (Python
#: 3.11.7) the benchmark was defined on, so normalised times read close to
#: raw ones there.
KERNELS = {"compute": (compute_kernel, 0.003), "allocation": (allocation_kernel, 0.052)}


class Timings:
    """Durations of timed steps, each taken between two kernel timings."""

    def __init__(self, kernel):
        self.kernel, self.reference_s = KERNELS[kernel]
        self.speeds = []
        self.raw = []
        self.slots = []

    def calibrate(self):
        """Time the kernel: the median of three runs."""
        samples = []
        for _ in range(3):
            started = time.perf_counter()
            self.kernel()
            samples.append(time.perf_counter() - started)
        self.speeds.append(statistics.median(samples))

    def add(self, seconds):
        """Record a step timed after the latest :meth:`calibrate`."""
        self.raw.append(seconds)
        self.slots.append(len(self.speeds) - 1)

    def normalised(self):
        """Each step at the reference host speed; needs a final :meth:`calibrate`.

        A step's host speed is the median of the two kernel timings before
        it and the two after it, which follows drift from step to step
        without following one disturbed kernel timing.
        """
        return [
            seconds * self.reference_s / statistics.median(self.speeds[max(0, slot - 1):slot + 3])
            for seconds, slot in zip(self.raw, self.slots)
        ]

    def scale(self):
        """The run's reference kernel time over its median kernel time."""
        return self.reference_s / statistics.median(self.speeds)


def set_up(workload_class, seed):
    """Build the inputs several times; return the last build and the timings."""
    timings = Timings("compute")
    while len(timings.raw) < MIN_SETUPS or (
        sum(timings.raw) < MIN_SETUP_SECONDS and len(timings.raw) < MAX_SETUPS
    ):
        gc.collect()
        timings.calibrate()
        started = time.perf_counter()
        workload = workload_class(seed)
        timings.add(time.perf_counter() - started)
    timings.calibrate()
    return workload, timings


class Loop:
    """The closed loop of one run: timings, failures, layer totals."""

    def __init__(self, workload, expected, canonical, layers=None):
        self.workload = workload
        self.expected = expected
        self.canonical = canonical
        self.layers = layers
        self.timings = Timings(workload.host_kernel)
        self.paired_seconds = [0.0, 0.0]  # untraced, traced
        self.traced_operations = 0
        self.attempted = 0
        self.failed = 0
        self.blocks = 0

    def schedule(self):
        """Blocks of cells: each pass visits every block once, in a seeded order."""
        rng = self.workload.order_rng
        while True:
            blocks = [list(block) for block in self.workload.blocks]
            rng.shuffle(blocks)
            for block in blocks:
                rng.shuffle(block)
                yield block

    def run(self, seconds):
        started = time.perf_counter()
        for self.blocks, block in enumerate(self.schedule(), start=1):
            for cell in block:
                self.attempted += 1
                gc.collect()
                self.timings.calibrate()
                if not self.operation(cell):
                    self.failed += 1
            elapsed = time.perf_counter() - started
            if (
                self.blocks >= len(self.workload.blocks)
                and self.attempted >= MIN_OPERATIONS
                and elapsed * (1 + 1 / self.blocks) > seconds
            ):
                break
        self.timings.calibrate()

    def operation(self, cell):
        """Run one operation (and its traced twin); return whether it is correct."""
        key = cell[0]
        # A traced run alternates which twin goes first, so neither is
        # always the one that finds the caches warm.
        traced_first = self.layers is not None and self.attempted % 2 == 0
        try:
            if traced_first:
                traced, traced_seconds = self.traced(cell)
            started = time.perf_counter()
            outcome = self.workload.run(cell)
            elapsed = time.perf_counter() - started
            self.timings.add(elapsed)
            plain = self.canonical(self.workload.fingerprint(outcome))
            del outcome
            if plain != self.expected[key]:
                return self.report(key, f"output differs from the reference: {plain}")
            if self.layers is None:
                return True
            if not traced_first:
                traced, traced_seconds = self.traced(cell)
            self.paired_seconds[0] += elapsed
            self.paired_seconds[1] += traced_seconds
            self.traced_operations += 1
        except Exception:
            traceback.print_exc()
            return self.report(key, "operation raised")
        if traced != plain:
            return self.report(key, f"traced output differs from untraced: {traced}")
        return True

    def traced(self, cell):
        """Run the traced twin; return its fingerprint and its wall time."""
        started = time.perf_counter()
        outcome = self.workload.run_traced(cell, self.layers)
        elapsed = time.perf_counter() - started
        return self.canonical(self.workload.fingerprint(outcome)), elapsed

    @staticmethod
    def report(key, message):
        print(f"FAIL {key}: {message}", file=sys.stderr)
        return False

    def end_to_end(self, setup, normalised):
        if normalised:
            durations, setups = self.timings.normalised(), setup.normalised()
        else:
            durations, setups = self.timings.raw, setup.raw
        return {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(durations) / sum(durations),
            "op_ms.p50": 1000 * statistics.median(durations),
            "op_ms.p90": 1000 * statistics.quantiles(durations, n=10)[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self, names):
        values = self.layers.metrics(names, self.traced_operations, self.timings.scale())
        untraced, traced = self.paired_seconds
        values["trace.overhead_ratio"] = traced / untraced
        return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Replaces this process (no child): the same interpreter and
        # arguments under the fixed hash seed.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.conftest import host_metadata
    from workloads import WORKLOADS, Layers, canonical, expected_fingerprints

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workload, setup = set_up(WORKLOADS[args.workload], args.seed)
    layers = Layers() if args.trace else None
    loop = Loop(workload, expected_fingerprints(workload), canonical, layers)
    loop.run(args.seconds)
    if not loop.timings.raw or (args.trace and not loop.traced_operations):
        print("perfbench: no operation completed", file=sys.stderr)
        return 1

    if args.trace:
        declared = spec["per_layer"]
        values = loop.per_layer([metric["name"] for metric in declared])
    else:
        declared = spec["end_to_end"]
        values = loop.end_to_end(setup, normalised=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"blocks {loop.blocks}  operations {loop.attempted}  failed {loop.failed}  "
          f"fail_ratio {loop.failed / loop.attempted:.4f}")
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_metadata(),
        "inputs": workload.sizes(),
        "blocks": loop.blocks,
        "kernel_s": statistics.median(loop.timings.speeds),
        "raw": {} if args.trace else loop.end_to_end(setup, normalised=False),
        "fail_ratio": loop.failed / loop.attempted,
        "metrics": metrics,
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
