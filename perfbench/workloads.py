"""The benchmark's workloads: inputs, operations, traced replicas, oracles.

Four workloads, each a closed loop of one operation at a time:

* ``check-l`` — ``is_chase_finite_l(InDatabaseShapeFinder(view), rules_text)``
  over the ``MEDIUM`` linear grid: the nine combined profiles, each checked
  against every ``D*`` prefix view restricted to ``sch(Σ)`` (45 checks);
* ``check-sl`` — ``is_chase_finite_sl(D_Σ, rules_text)`` over the ``MEDIUM``
  simple-linear grid with induced databases (18 checks);
* ``chase-indexed`` — the semi-oblivious ``chase()`` of the Zipf
  heavy-hitter star join with the ``indexed`` strategy on the ``instance``
  store, materialized;
* ``chase-pushdown`` — the same input on in-memory sqlite with the
  ``sql-pushdown`` strategy, materialized.

The check grids are fixed by the ``MEDIUM`` preset, so their reference
fingerprints (``reference.json``) are stored with this definition; the
``--seed`` draws the order in which a pass visits the grid.  The chase input
takes the seed as its constant-naming seed, and its fingerprint digest
strips that seed from constant names, so every seed has one reference.

Every workload has two ways to run an operation.  ``run`` calls the public
entry point and is what the end-to-end metrics time.  ``run_traced`` times
the layers from outside ``src/``: the checkers through a replica of their
pipeline built from each module's public functions, the chase through the
events it already emits plus a timing proxy around its ``AtomStore``.  Both
return the same fingerprint on the same input, or the traced run fails.

Run ``PYTHONPATH=src python3 perfbench/workloads.py`` to regenerate
``reference.json`` from the public entry points.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
import time
from pathlib import Path

from repro.chase import chase
from repro.core.instances import Instance
from repro.core.parser import parse_rules
from repro.experiments.config import MEDIUM
from repro.experiments.workloads import (
    build_dstar,
    dstar_views,
    linear_rule_sets,
    restrict_view_to_rules,
    simple_linear_workloads,
)
from repro.generators.skew import generate_skew_workload
from repro.graph.dependency_graph import (
    build_dependency_graph,
    build_support_graph,
)
from repro.graph.reachability import supports
from repro.graph.tarjan import find_special_sccs
from repro.obs import ListTraceSink, Tracer
from repro.simplification.dynamic import dynamic_simplification
from repro.simplification.shapes import resolve_shapes
from repro.storage.shape_finder import InDatabaseShapeFinder
from repro.termination.linear import is_chase_finite_l
from repro.termination.report import TerminationReport
from repro.termination.simple_linear import is_chase_finite_sl

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: The skew input both chase workloads run on (67.8k atoms in 8 rounds).
SKEW_INPUT = dict(n_keys=12, rows=600, skew=1.4, fan_out=16, depth=6)


#: Layer spans nested in a traced checker's ``termination`` span.
CHECK_LAYERS = (
    "parser", "shape_finder", "simplification", "dependency_graph", "tarjan", "reachability",
)


class Layers:
    """Per-layer busy time and work counts of a run's traced operations.

    ``span(name)`` times a call into one layer; ``count(name, n)`` records
    work that layer did.  :meth:`metrics` turns the run's totals into the
    declared per-layer metrics, per operation.
    """

    def __init__(self):
        self.seconds = {}
        self.counts = {}

    def span(self, name):
        return _Span(self, name)

    def time(self, name, seconds):
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def metrics(self, names, operations, scale=1.0):
        """Per-operation values of *names*; a layer never entered reads 0.

        Times are multiplied by *scale*, the run's host-speed normalisation.
        A name ending in ``.s`` or ``_s`` is the busy time of the span
        named by the rest, any other name a count.  Two are derived:
        ``termination.self_s`` (the checker span minus its layer spans)
        and ``engine.fire_ratio`` (triggers fired / considered).
        """
        seconds = dict(self.seconds)
        if "termination" in seconds:
            seconds["termination.self"] = seconds["termination"] - sum(
                seconds.get(layer, 0.0) for layer in CHECK_LAYERS
            )
        considered = self.counts.get("engine.triggers_considered", 0)
        fired = self.counts.get("engine.triggers_fired", 0)
        values = {}
        for name in names:
            if name == "engine.fire_ratio":
                values[name] = fired / considered if considered else 0.0
            elif name.endswith((".s", "_s")):
                values[name] = scale * seconds.get(name[:-2], 0.0) / operations
            else:
                values[name] = self.counts.get(name, 0) / operations
        return values


class _Span:
    __slots__ = ("_layers", "_name", "_started")

    def __init__(self, layers, name):
        self._layers = layers
        self._name = name

    def __enter__(self):
        self._started = time.perf_counter()

    def __exit__(self, *exc):
        self._layers.time(self._name, time.perf_counter() - self._started)


def check_fingerprint(report):
    """The checker's verdict plus its ``TerminationReport.statistics``."""
    return {"finite": bool(report.finite), "statistics": dict(sorted(report.statistics.items()))}


# --------------------------------------------------------------------------- #
# check-l


class CheckL:
    """``IsChaseFinite[L]`` over the ``MEDIUM`` linear grid."""

    name = "check-l"
    kind = "check"
    host_kernel = "compute"

    def __init__(self, seed):
        self.order_rng = random.Random(f"{self.name}:{seed}")
        store = build_dstar(MEDIUM)
        views = dstar_views(MEDIUM, store)
        # One block per view, holding every rule set: a run that stops
        # between blocks still times each rule set equally often.
        self.blocks = [[] for _ in views]
        for index, rule_set in enumerate(linear_rule_sets(MEDIUM)):
            for block, view in zip(self.blocks, views):
                key = f"rules{index}@{view.tuples_per_relation}"
                restricted = restrict_view_to_rules(view, rule_set.tgds)
                block.append((key, rule_set.rules_text, restricted))
        self.cells = [cell for block in self.blocks for cell in block]

    def sizes(self):
        return {"checks_per_pass": len(self.cells), "checks_per_block": len(self.blocks[0])}

    def run(self, cell):
        _, rules_text, view = cell
        return is_chase_finite_l(InDatabaseShapeFinder(view), rules_text)

    fingerprint = staticmethod(check_fingerprint)

    def run_traced(self, cell, layers):
        """Replica of ``is_chase_finite_l``, one span per layer call."""
        _, rules_text, view = cell
        with layers.span("termination"):
            with layers.span("parser"):
                tgds = parse_rules(rules_text)
            tgds.require_linear()
            finder = InDatabaseShapeFinder(view)
            with layers.span("shape_finder"):
                shapes = resolve_shapes(finder)
            with layers.span("simplification"):
                simplification = dynamic_simplification(shapes, tgds)
            with layers.span("dependency_graph"):
                graph = build_dependency_graph(simplification.tgds)
            with layers.span("tarjan"):
                special_sccs = find_special_sccs(graph)
            statistics = {
                "n_rules": len(tgds),
                "n_simplified_rules": len(simplification.tgds),
                "n_initial_shapes": len(simplification.initial_shapes),
                "n_derived_shapes": len(simplification.derived_shapes),
                "n_iterations": simplification.iterations,
                "n_nodes": len(graph),
                "n_edges": graph.edge_count(),
                "n_special_edges": graph.special_edge_count(),
                "n_special_sccs": len(special_sccs),
            }
            report = TerminationReport(
                finite=not special_sccs, algorithm="IsChaseFinite[L]", statistics=statistics
            )
        layers.count("parser.rules", statistics["n_rules"])
        layers.count("shape_finder.queries", finder.stats.queries_issued)
        layers.count("shape_finder.shapes", len(shapes))
        layers.count("simplification.rules_out", statistics["n_simplified_rules"])
        layers.count("simplification.iterations", statistics["n_iterations"])
        layers.count("dependency_graph.edges", statistics["n_edges"])
        layers.count("tarjan.special_sccs", statistics["n_special_sccs"])
        return report


# --------------------------------------------------------------------------- #
# check-sl


class CheckSL:
    """``IsChaseFinite[SL]`` over the ``MEDIUM`` simple-linear grid."""

    name = "check-sl"
    kind = "check"
    host_kernel = "compute"

    def __init__(self, seed):
        self.order_rng = random.Random(f"{self.name}:{seed}")
        self.cells = [
            (f"rules{index}", workload.rules_text, workload.database)
            for index, workload in enumerate(simple_linear_workloads(MEDIUM))
        ]
        self.blocks = [self.cells]

    def sizes(self):
        return {"checks_per_pass": len(self.cells)}

    def run(self, cell):
        _, rules_text, database = cell
        return is_chase_finite_sl(database, rules_text)

    fingerprint = staticmethod(check_fingerprint)

    def run_traced(self, cell, layers):
        """Replica of ``is_chase_finite_sl``, one span per layer call."""
        _, rules_text, database = cell
        with layers.span("termination"):
            with layers.span("parser"):
                tgds = parse_rules(rules_text)
            tgds.require_simple_linear()
            with layers.span("dependency_graph"):
                graph = build_dependency_graph(tgds)
            with layers.span("tarjan"):
                special_sccs = find_special_sccs(graph)
            supported = False
            if special_sccs:
                representatives = [scc.representative() for scc in special_sccs]
                with layers.span("reachability"):
                    if any(tgd.has_empty_frontier() for tgd in tgds):
                        support_graph = build_support_graph(tgds)
                    else:
                        support_graph = graph
                    supported = supports(database, representatives, support_graph)
            statistics = {
                "n_rules": len(tgds),
                "n_nodes": len(graph),
                "n_edges": graph.edge_count(),
                "n_special_edges": graph.special_edge_count(),
                "n_special_sccs": len(special_sccs),
                "supported": int(supported),
            }
            report = TerminationReport(
                finite=not supported, algorithm="IsChaseFinite[SL]", statistics=statistics
            )
        layers.count("parser.rules", statistics["n_rules"])
        layers.count("dependency_graph.edges", statistics["n_edges"])
        layers.count("tarjan.special_sccs", statistics["n_special_sccs"])
        return report


# --------------------------------------------------------------------------- #
# chase-indexed / chase-pushdown


class TimedStore:
    """Times calls into the ``AtomStore`` protocol of the store it wraps.

    Only methods the wrapped store has are timed; every other attribute,
    present or missing, forwards unchanged, so the engine's
    ``getattr(store, "add_atoms")`` and ``getattr(store, "flush")`` probes
    take the same branches as on the bare store.
    """

    _TIMED = {
        "add_atom": "add",
        "has_atom": "has",
        "atoms_matching": "lookup",
        "atoms_with_predicate": "lookup",
        "predicate_cardinality": "lookup",
    }

    def __init__(self, store, layers):
        self.wrapped = store
        for method, group in self._TIMED.items():
            target = getattr(store, method, None)
            if target is not None:
                setattr(self, method, self._timed(target, group, layers))

    @staticmethod
    def _timed(target, group, layers):
        span = f"instances.{group}"
        calls = f"instances.{group}_calls"

        def timed(*args, **kwargs):
            started = time.perf_counter()
            result = target(*args, **kwargs)
            layers.time(span, time.perf_counter() - started)
            layers.count(calls, 1)
            return result

        return timed

    def __getattr__(self, name):
        return getattr(self.wrapped, name)


def atoms_digest(atoms, seed):
    """A digest of the sorted atoms, null names included.

    The skew generator names constants ``k<seed>_…``, ``v<seed>_…`` and
    ``d<seed>_…``; the digest drops the seed so all seeds share one
    reference.  Every constant carries the same seed, so dropping it does
    not reorder the sorted atoms.
    """
    text = "\n".join(sorted(map(str, atoms)))
    text = re.sub(rf"\b([kvd]){seed}_", r"\1_", text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Chase:
    kind = "chase"
    host_kernel = "allocation"
    options: dict = {}

    def __init__(self, seed):
        self.seed = seed
        self._digested = (None, None)
        self.order_rng = random.Random(f"{self.name}:{seed}")
        workload = generate_skew_workload(seed=seed, **SKEW_INPUT)
        self.cells = [("chase", workload.database, workload.tgds)]
        self.blocks = [self.cells]

    def sizes(self):
        _, database, tgds = self.cells[0]
        return {"database_atoms": len(database), "rules": len(tgds), **SKEW_INPUT}

    def run(self, cell):
        _, database, tgds = cell
        result = chase(database, tgds, **self.options)
        return result, result.instance

    def fingerprint(self, outcome):
        """``rounds``, ``atoms_created``, ``triggers_fired`` and the atoms' digest.

        Sorting and digesting 68k atoms takes longer than a quarter of a
        chase, so the digest is computed once per distinct set of atom
        hashes and reused for outputs with the same set.
        """
        result, store = outcome
        atoms = list(store.iter_atoms())
        hashes = frozenset(map(hash, atoms))
        if hashes != self._digested[0]:
            self._digested = (hashes, atoms_digest(atoms, self.seed))
        return {
            "rounds": result.rounds,
            "atoms_created": result.atoms_created,
            "triggers_fired": result.triggers_fired,
            "atoms": len(atoms),
            "digest": self._digested[1],
        }

    @staticmethod
    def _record_events(events, wall, layers):
        """Layer totals from the chase's own events and its wall time."""
        rounds = [event for event in events if event["type"] == "round"]
        layers.count("engine.rounds", sum(1 for e in rounds if e["atoms_created"]))
        layers.count("engine.triggers_considered", sum(e["considered"] for e in rounds))
        layers.count("engine.triggers_fired", sum(e["fired"] for e in rounds))
        layers.time("engine.between_rounds", wall - sum(e["dur"] for e in rounds))
        layers.time("matching", sum(e["dur"] for e in events if e["type"] == "rule_round"))
        for event in events:
            if event["type"] == "sql_family":
                prefix = f"sqlbackend.{event['family']}"
                layers.time(prefix, event["seconds_total"])
                layers.count(f"{prefix}.statements", event["statements"])
                layers.count(f"{prefix}.rows_changed", event["rows_changed"])


class ChaseIndexed(_Chase):
    """Serial semi-oblivious ``indexed`` chase into the ``instance`` store."""

    name = "chase-indexed"
    options = {"variant": "semi-oblivious", "strategy": "indexed", "backend": "instance"}

    def run_traced(self, cell, layers):
        _, database, tgds = cell
        sink = ListTraceSink()
        store = TimedStore(Instance(), layers)
        started = time.perf_counter()
        result = chase(
            database, tgds, store=store, tracer=Tracer(sink), materialize=False, **self.options
        )
        self._record_events(sink.events, time.perf_counter() - started, layers)
        return result, store.wrapped


class ChasePushdown(_Chase):
    """Serial ``sql-pushdown`` chase into an in-memory sqlite store."""

    name = "chase-pushdown"
    options = {"variant": "semi-oblivious", "strategy": "sql-pushdown", "backend": "sqlite"}

    def run_traced(self, cell, layers):
        _, database, tgds = cell
        sink = ListTraceSink()
        started = time.perf_counter()
        result = chase(
            database, tgds, tracer=Tracer(sink), materialize=False, **self.options
        )
        self._record_events(sink.events, time.perf_counter() - started, layers)
        with layers.span("sqlbackend.decode"):
            instance = result.instance
        return result, instance


WORKLOADS = {cls.name: cls for cls in (CheckL, CheckSL, ChaseIndexed, ChasePushdown)}


def canonical(fingerprint):
    """The fingerprint as the string references are compared by."""
    return json.dumps(fingerprint, sort_keys=True)


def reference_key(workload, cell_key):
    """Where a cell's fingerprint sits in ``reference.json``.

    Both chase workloads share one entry: they must agree.
    """
    return ("chase", "chase") if workload.kind == "chase" else (workload.name, cell_key)


def expected_fingerprints(workload, path=REFERENCE_PATH):
    """Cell key -> the canonical reference fingerprint of that cell."""
    reference = json.loads(path.read_text())
    expected = {}
    for cell in workload.cells:
        group, key = reference_key(workload, cell[0])
        expected[cell[0]] = canonical(reference[group][key])
    return expected


def write_reference(path=REFERENCE_PATH):
    """Fingerprint every input through the public entry points."""
    reference = {}
    for cls in (CheckL, CheckSL, ChaseIndexed):
        workload = cls(seed=0)
        for cell in workload.cells:
            group, key = reference_key(workload, cell[0])
            reference.setdefault(group, {})[key] = workload.fingerprint(workload.run(cell))
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_reference()
    print(f"wrote {REFERENCE_PATH}", file=sys.stderr)
