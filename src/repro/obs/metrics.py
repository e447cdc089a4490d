"""Counters, histograms, and the registry that ships them across processes.

A :class:`MetricsRegistry` holds named, labelled instruments.  The design
constraints come from the parallel chase:

* **Picklable snapshots** — process-pool workers cannot send live objects
  over their pipes (reprolint's process-boundary rule), so a registry
  serialises to a plain JSON-able dict (:meth:`MetricsRegistry.snapshot`)
  and merges peer snapshots back in (:meth:`MetricsRegistry.merge_snapshot`).
* **Deterministic iteration** — snapshots are sorted by ``(name, labels)``
  so traces and reports are byte-stable run to run.
* **Thread safety** — a registry is public API and may be shared by
  caller threads; all mutation goes through the registry lock.

:class:`StatementMetrics` is the thin adapter the sqlite store holds: it
owns the clock, so the storage layer itself never reads wall time.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from .clock import Clock, MonotonicClock

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount


class Histogram:
    """Count / total / max of observed values (enough for hot-spot tables)."""

    __slots__ = ("count", "total", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.maximum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.maximum:
            self.maximum = value


class MetricsRegistry:
    """Named, labelled counters and histograms with mergeable snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter()
        return instrument

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram()
        return instrument

    def snapshot(self) -> Dict[str, List[Dict[str, object]]]:
        """A JSON-able, sorted, picklable copy of every instrument."""
        with self._lock:
            counters = [
                {"name": name, "labels": dict(labels), "value": counter.value}
                for (name, labels), counter in sorted(self._counters.items())
            ]
            histograms = [
                {
                    "name": name,
                    "labels": dict(labels),
                    "count": histogram.count,
                    "total": histogram.total,
                    "max": histogram.maximum,
                }
                for (name, labels), histogram in sorted(self._histograms.items())
            ]
        return {"counters": counters, "histograms": histograms}

    def merge_snapshot(self, snapshot: Dict[str, List[Dict[str, object]]]) -> None:
        """Fold a peer registry's :meth:`snapshot` into this one."""
        for entry in snapshot.get("counters", []):
            self.counter(str(entry["name"]), **entry["labels"]).add(  # type: ignore[arg-type]
                int(entry["value"])  # type: ignore[call-overload]
            )
        for entry in snapshot.get("histograms", []):
            histogram = self.histogram(str(entry["name"]), **entry["labels"])  # type: ignore[arg-type]
            with self._lock:
                histogram.count += int(entry["count"])  # type: ignore[call-overload]
                histogram.total += float(entry["total"])  # type: ignore[arg-type]
                histogram.maximum = max(histogram.maximum, float(entry["max"]))  # type: ignore[arg-type]


#: Instrument names used by the SQL statement timing layer.
SQL_SECONDS = "sql_statement_seconds"
SQL_ROWS_CHANGED = "sql_rows_changed"
SQL_ROWS_READ = "sql_rows_read"


class StatementMetrics:
    """Per-statement-family timing the sqlite store calls into.

    The store's statement entry points (``query`` / ``bulk_apply``) bracket a
    statement with ``started = metrics.start()`` … ``metrics.record(...)``;
    the adapter owns the clock, keeping wall-clock reads out of the storage
    layer entirely.  ``None`` instead of an adapter (the default) keeps the
    untraced hot path to a single attribute test.
    """

    __slots__ = ("registry", "_clock")

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._clock = clock if clock is not None else MonotonicClock()

    def start(self) -> float:
        return self._clock.now()

    def record(
        self,
        family: str,
        started: float,
        rows_changed: Optional[int] = None,
        rows_read: Optional[int] = None,
    ) -> None:
        elapsed = self._clock.now() - started
        self.registry.histogram(SQL_SECONDS, family=family).observe(elapsed)
        if rows_changed is not None:
            self.registry.counter(SQL_ROWS_CHANGED, family=family).add(rows_changed)
        if rows_read is not None:
            self.registry.counter(SQL_ROWS_READ, family=family).add(rows_read)


def sql_family_stats(
    snapshot: Dict[str, List[Dict[str, object]]]
) -> List[Dict[str, object]]:
    """Collapse a registry snapshot into one row per SQL statement family.

    Rows are sorted by family name; each carries ``statements`` (count),
    ``seconds_total``, ``seconds_max``, ``rows_changed``, ``rows_read``.
    """
    families: Dict[str, Dict[str, object]] = {}

    def row(family: str) -> Dict[str, object]:
        return families.setdefault(
            family,
            {
                "family": family,
                "statements": 0,
                "seconds_total": 0.0,
                "seconds_max": 0.0,
                "rows_changed": 0,
                "rows_read": 0,
            },
        )

    for entry in snapshot.get("histograms", []):
        if entry["name"] != SQL_SECONDS:
            continue
        family = str(entry["labels"]["family"])  # type: ignore[index]
        stats = row(family)
        stats["statements"] = int(stats["statements"]) + int(entry["count"])  # type: ignore[call-overload]
        stats["seconds_total"] = float(stats["seconds_total"]) + float(entry["total"])  # type: ignore[arg-type]
        stats["seconds_max"] = max(float(stats["seconds_max"]), float(entry["max"]))  # type: ignore[arg-type]
    for entry in snapshot.get("counters", []):
        if entry["name"] == SQL_ROWS_CHANGED:
            stats = row(str(entry["labels"]["family"]))  # type: ignore[index]
            stats["rows_changed"] = int(stats["rows_changed"]) + int(entry["value"])  # type: ignore[call-overload]
        elif entry["name"] == SQL_ROWS_READ:
            stats = row(str(entry["labels"]["family"]))  # type: ignore[index]
            stats["rows_read"] = int(stats["rows_read"]) + int(entry["value"])  # type: ignore[call-overload]
    return [families[name] for name in sorted(families)]
