"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the standard output of any number of ``perfbench/run.py``
runs, appended together; the JSON record lines (those with a
``"workload"`` key) are read and everything else is skipped.  For every
workload and end-to-end metric of ``BENCHMARK.json`` the command prints
each side's median and quartiles and a verdict under the metric's bound:

* ``worse``      — the new median is worse than the base median by more
  than the bound;
* ``better``     — the new median is better by more than the base's own
  quartile spread and the new run wins at least 9 of 10 pairs (runs are
  paired by seed when both sides ran the same seeds, else in file order);
* ``unresolved`` — the base's quartile spread is wider than the bound and
  not every new run beats every base run;
* ``unchanged``  — otherwise.

From the traced runs (``--trace 1``) it also names, per workload, the
layer whose self time per operation moved most.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Per-layer times that contain other per-layer times, as ``workloads.py`` opens
#: their spans; a layer's self time is its time minus the times it contains.
#: Every other per-layer ``s`` metric is a leaf.
CONTAINS = {
    "matching.s": (
        "instances.has_s", "instances.lookup_s",
        "sqlbackend.pushdown-apply.s", "sqlbackend.pushdown-ddl.s",
        "sqlbackend.pushdown-record.s", "sqlbackend.pushdown-stage.s",
    ),
    "engine.between_rounds_s": ("instances.add_s",),
}


def read_records(path):
    records = []
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "workload" in record:
            records.append(record)
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def pairs(base, new):
    """Pair runs by seed when both sides ran the same seeds, else in order."""
    base_seeds = [record["seed"] for record in base]
    if sorted(base_seeds) == sorted(record["seed"] for record in new):
        by_seed = {record["seed"]: record for record in new}
        return [(record, by_seed[record["seed"]]) for record in base]
    return list(zip(base, new))


def verdict(metric, base_runs, new_runs):
    """Return (verdict, base quartiles, new quartiles, relative change)."""
    name = metric["name"]
    lower_is_better = metric["better"] == "lower"
    base = [run["metrics"][name]["value"] for run in base_runs]
    new = [run["metrics"][name]["value"] for run in new_runs]
    base_q, new_q = quartiles(base), quartiles(new)
    base_median, new_median = base_q[1], new_q[1]
    change = (new_median - base_median) / base_median
    worsening = change if lower_is_better else -change
    spread = base_q[2] - base_q[0]

    def improves(new_value, base_value):
        return new_value < base_value if lower_is_better else new_value > base_value

    paired = [
        (n["metrics"][name]["value"], b["metrics"][name]["value"])
        for b, n in pairs(base_runs, new_runs)
    ]
    wins = sum(1 for new_value, base_value in paired if improves(new_value, base_value))
    dominates = all(improves(n, b) for n in new for b in base)
    if spread / base_median > metric["bound"] and not dominates:
        result = "unresolved"
    elif worsening > metric["bound"]:
        result = "worse"
    elif (
        -worsening * base_median > spread
        and paired
        and wins >= 0.9 * len(paired)
    ):
        result = "better"
    else:
        result = "unchanged"
    return result, base_q, new_q, change


def self_times(record):
    """Per-operation self time of every per-layer time metric of one run."""
    values = {name: metric["value"] for name, metric in record["metrics"].items()
              if metric["unit"] == "s"}
    selves = {}
    for name, value in values.items():
        inner = sum(values.get(child, 0.0) for child in CONTAINS.get(name, ()))
        selves[name] = max(0.0, value - inner)
    return selves


def moved_most(base_runs, new_runs):
    """The layer whose median self time moved most, or ``None`` if none moved."""
    names = set()
    for record in base_runs + new_runs:
        names |= set(self_times(record))
    best = None
    for name in sorted(names):
        base = statistics.median(self_times(r).get(name, 0.0) for r in base_runs)
        new = statistics.median(self_times(r).get(name, 0.0) for r in new_runs)
        if base != new and (best is None or abs(new - base) > abs(best[2] - best[1])):
            best = (name, base, new)
    return best


def fmt(value):
    return f"{value:.4g}"


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 perfbench/compare.py BASE.jsonl NEW.jsonl", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_records, new_records = read_records(args[0]), read_records(args[1])
    for side, records in (("base", base_records), ("new", new_records)):
        hosts = {json.dumps(r["host"], sort_keys=True) for r in records}
        for host in sorted(hosts):
            print(f"{side} host: {host}")
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        base = [r for r in base_records if r["workload"] == workload and not r["trace"]]
        new = [r for r in new_records if r["workload"] == workload and not r["trace"]]
        if not base or not new:
            print(f"{workload}: no untraced runs on both sides")
            continue
        print(f"{workload}  ({len(base)} base runs, {len(new)} new runs)")
        for metric in spec["end_to_end"]:
            result, base_q, new_q, change = verdict(metric, base, new)
            if result == "worse":
                status = 1
            print(f"  {metric['name']:<14} base {fmt(base_q[1])} [{fmt(base_q[0])}, "
                  f"{fmt(base_q[2])}]  new {fmt(new_q[1])} [{fmt(new_q[0])}, "
                  f"{fmt(new_q[2])}] {metric['unit']}  {change:+.1%}  {result}")
        base_traced = [r for r in base_records if r["workload"] == workload and r["trace"]]
        new_traced = [r for r in new_records if r["workload"] == workload and r["trace"]]
        if base_traced and new_traced:
            moved = moved_most(base_traced, new_traced)
            if moved is None:
                print("  self time moved most: no layer's self time moved")
            else:
                name, before, after = moved
                print(f"  self time moved most: {name} {fmt(before)} -> {fmt(after)} s/op")
    return status


if __name__ == "__main__":
    sys.exit(main())
