"""Tests for the hash-partitioned parallel chase executor.

The property suite (``tests/property/``) sweeps random programs; this file
pins the executor's API surface — worker pools, backends, budgets, error
paths — and the determinism claim on the literature scenarios.
"""

import pytest

from repro.chase.engine import chase
from repro.chase.parallel import (
    EXECUTORS,
    ParallelChaseExecutor,
    parallel_chase,
)
from repro.chase.result import ChaseLimits
from repro.core.instances import Instance
from repro.core.parser import parse_database, parse_rules
from repro.exceptions import ChaseLimitExceeded
from repro.scenarios import build_ibench
from repro.storage.database import RelationalDatabase

from tests.chase.test_differential import random_case
from tests.helpers import chase_result_fingerprint as _fingerprint

LIMITS = ChaseLimits(max_atoms=300, max_rounds=12)


class TestDeterminism:
    @pytest.mark.parametrize("seed", range(6))
    def test_worker_count_never_changes_the_result(self, seed):
        database, tgds = random_case(seed)
        expected = _fingerprint(chase(database, tgds, limits=LIMITS))
        for workers in (1, 2, 3, 4):
            result = parallel_chase(database, tgds, workers=workers, limits=LIMITS)
            assert _fingerprint(result) == expected, f"workers={workers}"

    def test_ibench_scenario_identical_across_pools(self):
        scenario = build_ibench("STB-128", tuples_per_source=3, seed=5)
        database = scenario.store.to_database()
        limits = ChaseLimits(max_atoms=5_000, max_rounds=30)
        expected = _fingerprint(chase(database, scenario.tgds, limits=limits))
        for executor in ("serial", "process"):
            result = parallel_chase(
                database, scenario.tgds, workers=2, limits=limits, executor=executor
            )
            assert _fingerprint(result) == expected, executor

    def test_process_pool_with_relational_replicas(self):
        database, tgds = random_case(2)
        expected = _fingerprint(chase(database, tgds, limits=LIMITS))
        result = parallel_chase(
            database,
            tgds,
            workers=2,
            limits=LIMITS,
            backend="relational",
            executor="process",
        )
        assert _fingerprint(result) == expected
        assert isinstance(result.store, RelationalDatabase)
        assert result.store.to_instance() == result.instance

    @pytest.mark.parametrize("variant", ("oblivious", "semi-oblivious", "restricted"))
    def test_variants_through_the_delegating_chase_api(self, variant):
        database, tgds = random_case(4)
        expected = _fingerprint(chase(database, tgds, variant=variant, limits=LIMITS))
        result = chase(database, tgds, variant=variant, limits=LIMITS, workers=3)
        assert _fingerprint(result) == expected


class TestBudgets:
    def test_atom_budget_stops_the_run(self):
        database = parse_database("R(a,b).")
        tgds = parse_rules("R(x,y) -> R(y,z)")
        serial = chase(database, tgds, limits=ChaseLimits(max_atoms=10))
        result = parallel_chase(
            database, tgds, workers=2, limits=ChaseLimits(max_atoms=10)
        )
        assert not result.terminated
        assert result.stop_reason == "max_atoms"
        assert _fingerprint(result) == _fingerprint(serial)

    def test_round_budget_stops_the_run(self):
        database = parse_database("R(a,b).")
        tgds = parse_rules("R(x,y) -> R(y,z)")
        serial = chase(database, tgds, limits=ChaseLimits(max_rounds=3))
        result = parallel_chase(
            database, tgds, workers=2, limits=ChaseLimits(max_rounds=3)
        )
        assert not result.terminated
        assert result.stop_reason == "max_rounds"
        assert _fingerprint(result) == _fingerprint(serial)

    def test_on_limit_raise(self):
        database = parse_database("R(a,b).")
        tgds = parse_rules("R(x,y) -> R(y,z)")
        with pytest.raises(ChaseLimitExceeded):
            parallel_chase(
                database,
                tgds,
                workers=2,
                limits=ChaseLimits(max_atoms=10),
                on_limit="raise",
            )

    def test_zero_round_budget(self):
        database = parse_database("R(a,b).")
        tgds = parse_rules("R(x,y) -> R(y,z)")
        result = parallel_chase(
            database, tgds, workers=2, limits=ChaseLimits(max_rounds=0)
        )
        assert result.rounds == 0 and result.stop_reason == "max_rounds"


class TestApiSurface:
    def test_explicit_store_is_used(self):
        database = parse_database("R(a,b).")
        tgds = parse_rules("R(x,y) -> S(y)")
        store = Instance()
        result = parallel_chase(database, tgds, workers=2, store=store)
        assert result.store is store
        assert store.atom_count() == len(result.instance)

    def test_empty_rule_set_reaches_fixpoint_immediately(self):
        database = parse_database("R(a,b).")
        result = parallel_chase(database, parse_rules(""), workers=4)
        assert result.terminated and result.rounds == 0
        assert len(result.instance) == 1

    def test_empty_database(self):
        result = parallel_chase(
            parse_database(""), parse_rules("R(x,y) -> S(y)"), workers=2
        )
        assert result.terminated and len(result.instance) == 0

    def test_validation_errors(self):
        database = parse_database("R(a,b).")
        tgds = parse_rules("R(x,y) -> S(y)")
        with pytest.raises(ValueError):
            parallel_chase(database, tgds, workers=0)
        with pytest.raises(ValueError):
            parallel_chase(database, tgds, executor="bogus")
        with pytest.raises(ValueError):
            parallel_chase(database, tgds, strategy="naive")
        with pytest.raises(ValueError):
            parallel_chase(database, tgds, backend="bogus")
        with pytest.raises(ValueError):
            parallel_chase(database, tgds, variant="bogus")
        with pytest.raises(ValueError):
            ParallelChaseExecutor(on_limit="bogus")
        assert EXECUTORS == ("auto", "serial", "process")

    def test_thread_executor_is_rejected_naming_the_valid_ones(self):
        database, tgds = random_case(0)
        with pytest.raises(ValueError) as excinfo:
            parallel_chase(database, tgds, workers=2, executor="thread")
        message = str(excinfo.value)
        assert "'thread'" in message
        for executor in EXECUTORS:
            assert repr(executor) in message

    def test_auto_runs_instance_stores_in_process(self):
        assert ParallelChaseExecutor(workers=2)._resolve_executor(Instance()) == "serial"

    @pytest.mark.parametrize(
        "store_kind, workers, requested, expected",
        [
            ("instance", 4, "auto", "serial"),
            ("relational", 1, "auto", "serial"),
            ("sqlite", 1, "auto", "serial"),
            ("sqlite", 2, "auto", "process"),
            ("instance", 2, "process", "process"),
            ("sqlite", 2, "serial", "serial"),
        ],
    )
    def test_executor_resolution(self, store_kind, workers, requested, expected):
        # auto: processes only pay off for the replica-backed relational and
        # sqlite stores with more than one worker; an explicit choice is kept.
        from repro.storage.sqlbackend import SqliteAtomStore

        stores = {
            "instance": Instance,
            "relational": lambda: RelationalDatabase(name="t"),
            "sqlite": SqliteAtomStore,
        }
        store = stores[store_kind]()
        executor = ParallelChaseExecutor(workers=workers, executor=requested)
        assert executor._resolve_executor(store) == expected
        if store_kind == "sqlite":
            store.close()

    def test_auto_picks_processes_for_relational_stores(self):
        executor = ParallelChaseExecutor(workers=2)
        database = parse_database("R(a,b).")
        tgds = parse_rules("R(x,y) -> S(y)")
        result = executor.run(database, tgds, store=RelationalDatabase(name="t"))
        assert result.terminated
        assert isinstance(result.store, RelationalDatabase)
