"""The tracing layer's two contracts: near-zero cost off, lossless on.

Tracing is threaded through every execution layer (engine rounds, parallel
workers, SQL statement families), so this benchmark gates the invariants
that make that acceptable:

* **≤5% overhead when off** — running the instrumented engine with
  ``tracer=None`` (the ``NULL_TRACER`` path) must stay within
  ``MAX_OFF_OVERHEAD`` of the plain call on the trigger-engine join
  workload.  The disabled path is a single attribute test per guard; this
  gate keeps it that way.
* **Byte-identical results** — with a live JSONL tracer attached, the
  ``ChaseResult`` must equal the untraced one across every strategy ×
  backend × variant × pool combination, and the trace's ``round`` events
  must sum exactly to the run's ``triggers_fired`` / ``atoms_created``
  (the trace is a lossless decomposition, not a sample).

The traced-on overhead is recorded in the artifact for the trajectory but
not gated — it pays for real I/O.
"""

from conftest import record_bench_json

from bench_trigger_engine import _join_workload
from repro.chase.engine import chase
from repro.chase.parallel import parallel_chase
from repro.chase.result import ChaseLimits
from repro.core.parser import parse_database, parse_rules
from repro.obs import ListTraceSink, Tracer, round_totals
from repro.obs.clock import perf_counter_s

#: Allowed slowdown of the tracer=None path relative to the plain call.
MAX_OFF_OVERHEAD = 1.05

#: Absolute slack (seconds) so sub-second runs don't flake on scheduler noise.
NOISE_FLOOR_S = 0.05

TIMING_ROUNDS = 3

LIMITS = ChaseLimits(max_atoms=1_000_000, max_rounds=None)


def _best_of(n, run):
    best = None
    for _ in range(n):
        start = perf_counter_s()
        result = run()
        elapsed = perf_counter_s() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    return best


def fingerprint(result):
    return (
        result.terminated,
        result.stop_reason,
        result.rounds,
        result.triggers_fired,
        result.atoms_created,
        tuple(sorted(str(atom) for atom in result.instance)),
    )


def test_tracing_off_overhead_is_within_budget():
    database, tgds = _join_workload(n_chains=8, rows=60)

    plain_seconds, plain = _best_of(
        TIMING_ROUNDS, lambda: chase(database, tgds, limits=LIMITS)
    )
    off_seconds, off = _best_of(
        TIMING_ROUNDS, lambda: chase(database, tgds, limits=LIMITS, tracer=None)
    )
    assert fingerprint(off) == fingerprint(plain)

    def traced():
        sink = ListTraceSink()
        result = chase(
            database, tgds, limits=LIMITS, tracer=Tracer(sink, tool="chase")
        )
        return sink, result

    on_seconds, (sink, traced_result) = _best_of(TIMING_ROUNDS, traced)
    assert fingerprint(traced_result) == fingerprint(plain)
    assert round_totals(sink.events) == (
        traced_result.triggers_fired,
        traced_result.atoms_created,
    )

    overhead = off_seconds / plain_seconds if plain_seconds > 0 else 1.0
    artifact = record_bench_json(
        "trace_overhead",
        {
            "workload": {
                "style": "ibench-stb/ont join bodies",
                "rules": len(tgds),
                "database_atoms": len(database),
                "chase_atoms": len(plain.instance),
            },
            "plain_seconds": plain_seconds,
            "tracing_off_seconds": off_seconds,
            "tracing_on_seconds": on_seconds,
            "off_overhead": overhead,
            "on_overhead": on_seconds / plain_seconds if plain_seconds > 0 else 1.0,
            "max_off_overhead": MAX_OFF_OVERHEAD,
            "trace_events": len(sink.events),
        },
    )
    print(
        f"\nplain: {plain_seconds:.3f}s  off: {off_seconds:.3f}s  "
        f"on: {on_seconds:.3f}s  off-overhead: {overhead:.3f}x  "
        f"(artifact: {artifact})"
    )
    assert off_seconds <= plain_seconds * MAX_OFF_OVERHEAD + NOISE_FLOOR_S, (
        f"tracing-off overhead {overhead:.3f}x exceeds the "
        f"{MAX_OFF_OVERHEAD:.2f}x budget "
        f"(plain {plain_seconds:.3f}s, off {off_seconds:.3f}s)"
    )


#: The byte-identity grid: one small join program (round-tier pushdown,
#: existential heads) and one linear program (recursive-CTE tier).
GRID_LIMITS = ChaseLimits(max_atoms=50_000, max_rounds=None)

SERIAL_CONFIGS = (
    ("naive", "instance"),
    ("indexed", "instance"),
    ("indexed", "relational"),
    ("indexed", "sqlite"),
    ("sql", "sqlite"),
    ("sql-pushdown", "sqlite"),
)

POOL_CONFIGS = (
    ("indexed", "instance", 2, "serial"),
    ("indexed", "relational", 2, "serial"),
    ("indexed", "sqlite", 2, "process"),
    ("sql-pushdown", "sqlite", 2, "serial"),
)

VARIANTS = ("oblivious", "semi-oblivious", "restricted")


def _linear_workload():
    database = parse_database(["E(a,b).", "E(b,c).", "E(c,d)."])
    tgds = parse_rules(["E(x,y) -> T(x,y)", "T(x,y) -> T(y,x)"])
    return database, tgds


def test_traced_results_are_byte_identical_across_the_grid():
    checked = 0
    for database, tgds in (_join_workload(n_chains=2, rows=8), _linear_workload()):
        for variant in VARIANTS:
            expected = fingerprint(
                chase(database, tgds, variant=variant, limits=GRID_LIMITS)
            )
            for strategy, backend in SERIAL_CONFIGS:
                sink = ListTraceSink()
                result = chase(
                    database,
                    tgds,
                    variant=variant,
                    strategy=strategy,
                    backend=backend,
                    limits=GRID_LIMITS,
                    tracer=Tracer(sink, tool="chase"),
                )
                label = f"{variant}/{strategy}/{backend}"
                assert fingerprint(result) == expected, f"traced {label} != untraced"
                assert round_totals(sink.events) == (
                    result.triggers_fired,
                    result.atoms_created,
                ), f"{label}: round events are not a lossless decomposition"
                checked += 1
            for strategy, backend, workers, executor in POOL_CONFIGS:
                sink = ListTraceSink()
                result = parallel_chase(
                    database,
                    tgds,
                    variant=variant,
                    strategy=strategy,
                    backend=backend,
                    workers=workers,
                    executor=executor,
                    limits=GRID_LIMITS,
                    tracer=Tracer(sink, tool="chase"),
                )
                label = f"{variant}/{strategy}/{backend}/{executor}x{workers}"
                assert fingerprint(result) == expected, f"traced {label} != untraced"
                assert round_totals(sink.events) == (
                    result.triggers_fired,
                    result.atoms_created,
                ), f"{label}: round events are not a lossless decomposition"
                checked += 1
    print(f"\nbyte-identity grid: {checked} traced configurations checked")
