"""Hash-partitioned parallel chase execution.

The serial engines of :mod:`repro.chase.engine` spend each breadth-first
round matching TGD bodies against the round's delta atoms — an
embarrassingly parallel join.  This module fans that matching out across a
worker pool the way the shared-nothing parallel-join literature (K-Join,
near-optimal parallel binary joins) distributes probe work:

* **partitioning** — every unit of match work is a ``(JoinPlan, seed atom)``
  pair; it is assigned to the worker owning the stable hash of the seed
  atom's terms at the plan's join-key positions
  (:attr:`~repro.chase.matching.JoinPlan.partition_positions`), so seeds
  sharing a join key land on the same worker.  Round 0 does not ship seeds
  at all: each worker scans its own partition of every seed relation
  through ``AtomStore.atoms_partition``;
* **workers** — in-process partition workers sharing the coordinator's
  store for the in-memory :class:`~repro.core.instances.Instance` backend,
  processes holding per-worker store replicas for the
  :class:`~repro.storage.database.RelationalDatabase` and
  :class:`~repro.storage.sqlbackend.SqliteAtomStore` backends (replicas
  receive each round's merged delta and stay in lock-step with the
  coordinator; a SQLite connection never crosses a process boundary).
  Process replicas are seeded *out-of-core*: a persistent SQLite store is
  never pickled at all — each worker attaches the coordinator's file
  read-only and overlays its private deltas in an in-memory
  :class:`~repro.storage.sqlbackend.SqliteOverlayStore`; in-memory stores
  stream their seed through the worker pipe in chunks, and each worker
  receives only the relations the TGD set makes it responsible for
  (:func:`worker_seed_atoms`): relations joined by multi-atom bodies in
  full, single-atom-body relations only in the worker's own hash
  partition, everything else not at all.  Force ``executor="process"``
  (works for any backend) when real core-parallelism is wanted for the
  in-memory backend;
* **deterministic merge** — workers report the *firing keys* they
  considered and, per key, the trigger's result atoms.  Because firing
  keys, head atoms, and invented nulls are all functions of the key alone
  (content-addressed :class:`~repro.core.terms.NullFactory` naming), the
  merged round is a set union that does not depend on worker count,
  scheduling, or enumeration order — the ``ChaseResult`` (atoms, null
  names, rounds, trigger counts) is *identical* to the serial engine's.

The coordinator owns the authoritative store and all budget accounting;
workers never mutate shared state beyond their own replica.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import traceback
from multiprocessing.connection import Connection, wait
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
    cast,
)

from ..core.atoms import Atom
from ..core.indexing import atom_partition_of
from ..core.instances import Database, Instance
from ..core.predicates import Predicate
from ..core.substitutions import Substitution
from ..core.terms import Null, NullFactory, Term
from ..core.tgds import TGD, TGDSet
from ..exceptions import ChaseLimitExceeded
from ..obs.clock import MonotonicClock
from ..obs.metrics import MetricsRegistry, StatementMetrics, sql_family_stats
from ..obs.tracer import AnyTracer, as_tracer
from ..storage.atom_store import AtomStore
from .engine import ChaseEngine, make_backend_store, resolve_engine_class
from .exchange import (
    EXCHANGES,
    Frame,
    FrameAssembler,
    HeavyRoute,
    ShuffleReport,
    ShuffleWorker,
    SkewDetector,
    iter_frames,
)
from .matching import JoinPlan
from .result import ChaseLimits, ChaseResult
from .triggers import Trigger

#: Worker backends accepted by :func:`parallel_chase`.
EXECUTORS = ("auto", "serial", "process")

#: The match half of a worker's report: the firing keys it considered (new
#: to it) and, for the keys that passed the variant's firing policy, the
#: trigger's result atoms.
MatchBatch = Tuple[List[object], List[Tuple[object, Tuple[Atom, ...]]]]

#: Per-round observability payload attached when the coordinator runs
#: traced: ``(worker_id, seconds, considered, fired, sql_snapshot)``.  The
#: snapshot is the worker-local :class:`~repro.obs.metrics.MetricsRegistry`
#: dump — cumulative, so the coordinator keeps only the latest one per
#: worker (process replicas only: shared-store pools time SQL on the
#: coordinator's own registry instead).
WorkerMetrics = Tuple[int, float, int, int, Optional[Dict[str, List[Dict[str, object]]]]]

#: A worker's report for one round: the match batch plus, on traced runs,
#: the worker's metrics payload (``None`` otherwise).  Metrics ride the
#: same pipe message as the match results, so tracing adds no protocol
#: round-trips.
RoundReport = Tuple[
    List[object], List[Tuple[object, Tuple[Atom, ...]]], Optional[WorkerMetrics]
]


def _key_rule(key: object) -> int:
    """The TGD index a firing key attributes to (every key kind leads with it)."""
    return cast(Tuple[int, object], key)[0]


class _PlanEntry:
    """One (TGD, body slot) join plan with its stable identifier."""

    __slots__ = ("plan_id", "tgd_index", "tgd", "plan")

    def __init__(self, plan_id: int, tgd_index: int, tgd: TGD, plan: JoinPlan) -> None:
        self.plan_id = plan_id
        self.tgd_index = tgd_index
        self.tgd = tgd
        self.plan = plan


class _PlanTable:
    """All join plans of a TGD set, keyed identically in every worker.

    Plan ids are assigned in (TGD, slot) order, so a coordinator and its
    process replicas — each building the table from the same TGD tuple —
    agree on what every ``plan_id`` in a work item refers to.
    """

    def __init__(self, tgds: Sequence[TGD]) -> None:
        self.tgds = tuple(tgds)
        self.entries: List[_PlanEntry] = []
        self.by_predicate: Dict[object, List[_PlanEntry]] = {}
        self.initial_entries: List[_PlanEntry] = []
        for tgd_index, tgd in enumerate(self.tgds):
            for slot, atom in enumerate(tgd.body):
                entry = _PlanEntry(
                    len(self.entries), tgd_index, tgd, JoinPlan(tgd.body, slot)
                )
                self.entries.append(entry)
                self.by_predicate.setdefault(atom.predicate, []).append(entry)
                if slot == 0:
                    self.initial_entries.append(entry)


class _MatchWorker:
    """Trigger matching over one partition of the round's work.

    Runs inline against the coordinator's shared store (serial mode) or
    inside a worker process against a private replica (process mode).
    ``reported_keys`` caches the firing keys this worker has already sent
    upstream so it never reports the same key twice; the coordinator still
    performs the authoritative cross-worker dedup.
    """

    def __init__(
        self,
        worker_id: int,
        n_workers: int,
        tgds: Sequence[TGD],
        variant: str,
        store: AtomStore,
        collect_metrics: bool = False,
    ) -> None:
        self.worker_id = worker_id
        self.n_workers = n_workers
        self.store = store
        self.table = _PlanTable(tgds)
        self.policy: ChaseEngine = resolve_engine_class(variant)()
        self.null_factory = NullFactory()
        self.reported_keys: Set[object] = set()
        self.collect_metrics = collect_metrics
        self._clock = MonotonicClock()
        #: Worker-local SQL timings; attached by ``_worker_main`` when the
        #: worker owns a private sqlite replica.  Shared-store pools leave
        #: this ``None`` — the coordinator times those statements itself.
        self.statement_metrics: Optional[StatementMetrics] = None

    def initial_round(self) -> RoundReport:
        """Run :meth:`_initial_round`, attaching metrics on traced runs."""
        if not self.collect_metrics:
            considered, fired = self._initial_round()
            return considered, fired, None
        started = self._clock.now()
        considered, fired = self._initial_round()
        return considered, fired, self._metrics(started, considered, fired)

    def delta_round(
        self,
        delta_atoms: Sequence[Atom],
        work_items: Sequence[Tuple[int, int]],
        apply_delta: bool,
    ) -> RoundReport:
        """Run :meth:`_delta_round`, attaching metrics on traced runs."""
        if not self.collect_metrics:
            considered, fired = self._delta_round(delta_atoms, work_items, apply_delta)
            return considered, fired, None
        started = self._clock.now()
        considered, fired = self._delta_round(delta_atoms, work_items, apply_delta)
        return considered, fired, self._metrics(started, considered, fired)

    def _metrics(
        self,
        started: float,
        considered: List[object],
        fired: List[Tuple[object, Tuple[Atom, ...]]],
    ) -> WorkerMetrics:
        snapshot = (
            self.statement_metrics.registry.snapshot()
            if self.statement_metrics is not None
            else None
        )
        return (
            self.worker_id,
            self._clock.now() - started,
            len(considered),
            len(fired),
            snapshot,
        )

    def _initial_round(self) -> MatchBatch:
        """Match every body homomorphism whose slot-0 atom this worker owns.

        Seeding only slot-0 plans (with no delta constraint) enumerates each
        homomorphism exactly once, and the partitioned relation scan splits
        that enumeration across workers without any coordinator shipping.
        """
        considered: List[object] = []
        fired: List[Tuple[object, Tuple[Atom, ...]]] = []
        for entry in self.table.initial_entries:
            plan = entry.plan
            seeds = self.store.atoms_partition(
                plan.body[0].predicate,
                plan.partition_positions,
                self.n_workers,
                self.worker_id,
            )
            for seed in seeds:
                for mapping in plan.matches(self.store, seed):
                    self._consider(entry, mapping, considered, fired)
        return considered, fired

    def _delta_round(
        self,
        delta_atoms: Sequence[Atom],
        work_items: Sequence[Tuple[int, int]],
        apply_delta: bool,
    ) -> MatchBatch:
        """Execute this worker's share of one delta round.

        *work_items* are ``(plan_id, delta_index)`` pairs; *apply_delta*
        is true in process mode, where the worker must first fold the
        round's merged atoms into its private replica (serial workers share
        the coordinator's store, which already holds them).
        """
        if apply_delta:
            for atom in delta_atoms:
                self.store.add_atom(atom)
        delta = set(delta_atoms)
        considered: List[object] = []
        fired: List[Tuple[object, Tuple[Atom, ...]]] = []
        for plan_id, delta_index in work_items:
            entry = self.table.entries[plan_id]
            seed = delta_atoms[delta_index]
            for mapping in entry.plan.matches(self.store, seed, delta=delta):
                self._consider(entry, mapping, considered, fired)
        return considered, fired

    def shuffle_round(
        self,
        work_items: Sequence[Tuple[int, Atom]],
        exclusion: AbstractSet[Atom],
    ) -> MatchBatch:
        """Match shuffle-routed work: ``(plan_id, seed atom)`` pairs.

        Unlike :meth:`_delta_round`, the seed atom rides inside the work
        item (a partitioned-relation atom need not exist in this worker's
        replica at all), and *exclusion* — the round's broadcast of
        fully-replicated delta atoms — stands in for the full delta: only
        multi-atom-body predicates can occur at slots before a seed, so the
        semi-naive constraint sees exactly the candidates it would have.
        """
        considered: List[object] = []
        fired: List[Tuple[object, Tuple[Atom, ...]]] = []
        for plan_id, seed in work_items:
            entry = self.table.entries[plan_id]
            for mapping in entry.plan.matches(self.store, seed, delta=exclusion):
                self._consider(entry, mapping, considered, fired)
        return considered, fired

    def _consider(
        self,
        entry: _PlanEntry,
        mapping: Dict[Term, Term],
        considered: List[object],
        fired: List[Tuple[object, Tuple[Atom, ...]]],
    ) -> None:
        trigger = Trigger(entry.tgd, entry.tgd_index, Substitution(mapping))
        key = self.policy._firing_key(trigger)
        if key in self.reported_keys:
            return
        self.reported_keys.add(key)
        considered.append(key)
        if self.policy._should_fire(trigger, self.store, self.reported_keys):
            fired.append(
                (key, trigger.result(self.null_factory, null_scope=self.policy.null_scope))
            )


class PushdownMatchWorker(_MatchWorker):
    """A :class:`_MatchWorker` whose body matching runs as compiled SQL.

    The ``sql-pushdown`` strategy's worker: homomorphism enumeration moves
    into SQLite (:class:`~repro.storage.sqlbackend.pushdown.CompiledPlanQuery`
    — partition-filtered with ``repro_partition`` and watermarked by the
    worker's own ``seq`` snapshot for semi-naive delta rounds), while the
    consider/report path — firing keys, the restricted check, null
    invention — is inherited unchanged, so reports stay byte-identical to
    the indexed worker's and the coordinator's merge needs no changes.

    Coordinator-routed *work_items* are ignored: the seed-slot watermark
    plus the hash-partition predicate select exactly the (entry, new seed
    atom) pairs this worker owns.
    """

    def __init__(
        self,
        worker_id: int,
        n_workers: int,
        tgds: Sequence[TGD],
        variant: str,
        store: AtomStore,
        collect_metrics: bool = False,
    ) -> None:
        super().__init__(worker_id, n_workers, tgds, variant, store, collect_metrics)
        from ..storage.sqlbackend import SqliteAtomStore
        from ..storage.sqlbackend.pushdown import CompiledPlanQuery

        if not isinstance(store, SqliteAtomStore):
            raise ValueError(
                "the sql-pushdown strategy matches inside SQLite and "
                "requires SqliteAtomStore worker stores"
            )
        self._queries = [
            CompiledPlanQuery(
                entry.tgd,
                entry.plan.seed_slot,
                entry.plan.partition_positions,
                store,
                n_workers > 1,
            )
            for entry in self.table.entries
        ]
        self._last_seq = 0

    def _initial_round(self) -> MatchBatch:
        considered: List[object] = []
        fired: List[Tuple[object, Tuple[Atom, ...]]] = []
        for entry in self.table.initial_entries:
            query = self._queries[entry.plan_id]
            for mapping in query.initial_matches(self.store, self.n_workers, self.worker_id):
                self._consider(entry, mapping, considered, fired)
        self._last_seq = self.store.current_seq()
        return considered, fired

    def _delta_round(
        self,
        delta_atoms: Sequence[Atom],
        work_items: Sequence[Tuple[int, int]],
        apply_delta: bool,
    ) -> MatchBatch:
        # The watermark is the snapshot taken at the end of the previous
        # round — before this round's delta reached the store, whether the
        # coordinator applied it (shared store) or we do below (replica).
        delta_start = self._last_seq
        if apply_delta:
            for atom in delta_atoms:
                self.store.add_atom(atom)
        delta_predicates = {atom.predicate for atom in delta_atoms}
        considered: List[object] = []
        fired: List[Tuple[object, Tuple[Atom, ...]]] = []
        for entry in self.table.entries:
            if entry.plan.body[entry.plan.seed_slot].predicate not in delta_predicates:
                continue
            query = self._queries[entry.plan_id]
            for mapping in query.delta_matches(
                self.store, delta_start, self.n_workers, self.worker_id
            ):
                self._consider(entry, mapping, considered, fired)
        self._last_seq = self.store.current_seq()
        return considered, fired


def _make_match_worker(
    strategy: str,
    worker_id: int,
    n_workers: int,
    tgds: Sequence[TGD],
    variant: str,
    store: AtomStore,
    collect_metrics: bool = False,
) -> _MatchWorker:
    """Build the per-partition worker for *strategy* (indexed or pushdown)."""
    if strategy == "sql-pushdown":
        return PushdownMatchWorker(
            worker_id, n_workers, tgds, variant, store, collect_metrics
        )
    return _MatchWorker(worker_id, n_workers, tgds, variant, store, collect_metrics)


# --------------------------------------------------------------------------- #
# Worker pools


class _SerialPool:
    """In-process pool: the same partition workers, run sequentially.

    Used for ``workers == 1`` and for ``executor="serial"`` (any worker
    count) — the latter exercises the exact partitioning and merge protocol
    of the process pool without processes, which is what the determinism
    tests lean on.
    """

    def __init__(
        self,
        workers: int,
        tgds: Sequence[TGD],
        variant: str,
        store: AtomStore,
        strategy: str = "indexed",
        collect_metrics: bool = False,
    ) -> None:
        self.workers = workers
        self._match_workers = [
            _make_match_worker(
                strategy, worker_id, workers, tgds, variant, store, collect_metrics
            )
            for worker_id in range(workers)
        ]

    def initial(self) -> List[RoundReport]:
        return [worker.initial_round() for worker in self._match_workers]

    def delta(
        self,
        delta_atoms: Sequence[Atom],
        work_by_worker: Sequence[Sequence[Tuple[int, int]]],
    ) -> List[RoundReport]:
        return [
            worker.delta_round(
                delta_atoms, work_by_worker[worker.worker_id], apply_delta=False
            )
            for worker in self._match_workers
        ]

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------- #
# Out-of-core replica seeding


def replica_seed_split(
    tgds: Sequence[TGD], variant: str
) -> Tuple[Set[Predicate], Set[Predicate]]:
    """Split the TGDs' predicates by what a process replica needs of them.

    Returns ``(full, partitioned)``:

    * *full* — predicates whose relation every replica must hold entirely:
      any predicate of a multi-atom body (the atom may be joined as a
      non-seed slot, whose candidates are unconstrained by the partition
      hash) and, under the restricted variant, any head predicate (the
      head-satisfaction check probes them);
    * *partitioned* — predicates that only ever seed single-atom bodies:
      their ``JoinPlan.partition_positions`` is the empty tuple (hash the
      whole atom), so worker ``w`` only ever scans its own hash partition
      and needs no other rows.

    Predicates in neither set are never read by replica-side matching and
    are not shipped at all.
    """
    full: Set[Predicate] = set()
    partitioned: Set[Predicate] = set()
    for tgd in tgds:
        if len(tgd.body) > 1:
            full.update(atom.predicate for atom in tgd.body)
        else:
            partitioned.add(tgd.body[0].predicate)
        if variant == "restricted":
            full.update(atom.predicate for atom in tgd.head)
    return full, partitioned - full


def worker_seed_atoms(
    store: AtomStore,
    tgds: Sequence[TGD],
    variant: str,
    n_workers: int,
    worker_id: int,
    full_atoms: Optional[Sequence[Atom]] = None,
    include_unused_share: bool = False,
) -> List[Atom]:
    """The seed atoms one streaming process replica actually needs.

    This is the out-of-core replacement for pickling
    ``sorted(store.iter_atoms())`` into every worker: relations are shipped
    per :func:`replica_seed_split`, so for a linear TGD set the workers'
    seeds partition the store instead of replicating it ``n_workers``
    times.  The result is sorted (grouped by predicate), which keeps
    replica construction deterministic and lets the sqlite replica bulk
    load each predicate as one ``executemany`` batch.

    *full_atoms* optionally supplies the fully-replicated portion (the
    per-worker-invariant scan of the *full* predicates), so a coordinator
    seeding many workers collects it once instead of once per worker —
    see :func:`collect_full_seed_atoms`.

    *include_unused_share* additionally ships the worker's hash partition
    of every relation the TGDs never read.  The coordinator-merge protocol
    skips those entirely, but a shuffle worker is also the *atom-dedup
    owner* of its whole-tuple hash share of the global instance
    (:meth:`~repro.chase.exchange.ShuffleWorker.seed_owned_atoms` scans the
    replica), so its share of head-only relations must be present too.
    """
    full, partitioned = replica_seed_split(tgds, variant)
    atoms: List[Atom] = (
        list(full_atoms)
        if full_atoms is not None
        else collect_full_seed_atoms(store, full)
    )
    for predicate in partitioned:
        atoms.extend(store.atoms_partition(predicate, (), n_workers, worker_id))
    if include_unused_share:
        shipped = full | partitioned
        for predicate in store.predicates():
            if predicate not in shipped:
                atoms.extend(
                    store.atoms_partition(predicate, (), n_workers, worker_id)
                )
    return sorted(atoms)


def collect_full_seed_atoms(
    store: AtomStore, full_predicates: Iterable[Predicate]
) -> List[Atom]:
    """Scan the fully-replicated relations once (shared by every worker)."""
    atoms: List[Atom] = []
    for predicate in full_predicates:
        atoms.extend(store.atoms_with_predicate(predicate))
    return atoms


#: Atoms per ``("seed", chunk)`` message: bounds the size of any single
#: pickled payload crossing a worker pipe (the full store is never shipped
#: as one object).
SEED_CHUNK_ATOMS = 4096


def _seed_chunks(atoms: Sequence[Atom]) -> Iterator[Tuple[Atom, ...]]:
    for start in range(0, len(atoms), SEED_CHUNK_ATOMS):
        yield tuple(atoms[start:start + SEED_CHUNK_ATOMS])


def _open_replica_store(store_spec: Tuple[str, ...], worker_id: int) -> AtomStore:
    """Build a worker's private store from its spec (never a live object)."""
    kind = store_spec[0]
    if kind == "relational":
        from ..storage.database import RelationalDatabase

        return RelationalDatabase(name=f"chase-replica-{worker_id}")
    if kind == "sqlite":
        # SQLite connections cannot cross process boundaries, so every
        # replica is a private in-memory database rebuilt from the
        # streamed seed (the coordinator alone owns its store).
        from ..storage.sqlbackend import SqliteAtomStore

        return SqliteAtomStore(name=f"chase-replica-{worker_id}")
    if kind == "sqlite-file":
        # Out-of-core seeding: attach the coordinator's persistent file
        # read-only and overlay private deltas in memory — no seed atom
        # ever crosses the pipe, and the disk-resident relations are read
        # where they already live.
        from ..storage.sqlbackend import SqliteOverlayStore

        return SqliteOverlayStore(store_spec[1], name=f"chase-replica-{worker_id}")
    return Instance()


def _add_seed_atoms(store: AtomStore, atoms: Sequence[Atom]) -> None:
    add_atoms = getattr(store, "add_atoms", None)
    if add_atoms is not None:
        # Chunks arrive sorted (grouped by predicate), so the sqlite
        # replica loads each predicate as one executemany batch.
        add_atoms(atoms)
    else:
        for atom in atoms:
            store.add_atom(atom)


def _worker_main(
    conn: Connection,
    worker_id: int,
    n_workers: int,
    tgds: Sequence[TGD],
    variant: str,
    store_spec: Tuple[str, ...],
    strategy: str = "indexed",
    collect_metrics: bool = False,
) -> None:
    """Entry point of a process worker: build the replica, serve rounds.

    The replica is seeded by ``("seed", chunk)`` messages (streamed by the
    coordinator before the first round) — or not at all for the
    ``sqlite-file`` spec, where the store reads the attached base file.
    """
    try:
        try:
            store = _open_replica_store(store_spec, worker_id)
            worker = _make_match_worker(
                strategy, worker_id, n_workers, tgds, variant, store, collect_metrics
            )
            if collect_metrics:
                from ..storage.sqlbackend import SqliteAtomStore

                # The replica is private to this process, so its SQL
                # timings ride home inside the round reports.
                if isinstance(store, SqliteAtomStore):
                    worker.statement_metrics = StatementMetrics()
                    store.set_statement_metrics(worker.statement_metrics)
        except Exception:
            conn.send(("error", traceback.format_exc()))
            return
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "stop":
                break
            try:
                if kind == "seed":
                    _add_seed_atoms(store, message[1])
                    continue
                if kind == "initial":
                    report = worker.initial_round()
                else:  # "delta"
                    _, delta_atoms, work_items = message
                    report = worker.delta_round(delta_atoms, work_items, apply_delta=True)
                conn.send(("ok", report))
            except Exception:  # pragma: no cover - defensive; surfaced by the coordinator
                conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


class _ProcessPool:
    """Process workers with per-worker store replicas.

    Each worker holds a private store kept in lock-step by applying every
    round's merged delta, so the coordinator ships *work*, never the
    instance.  Replicas are seeded out-of-core: *worker_seeds* (a callable
    ``worker_id -> sorted atoms``) streams each worker only the relations
    it needs, in bounded chunks over its pipe; ``None`` means the workers
    seed themselves (the ``sqlite-file`` spec, whose replicas attach the
    coordinator's persistent file read-only).  Workers are dedicated
    processes on private pipes — unlike a task pool, round ``i``'s message
    to worker ``w`` is guaranteed to be processed by the same replica that
    saw rounds ``< i``.
    """

    def __init__(
        self,
        workers: int,
        tgds: Sequence[TGD],
        variant: str,
        store_spec: Tuple[str, ...],
        worker_seeds: Optional[Callable[[int], List[Atom]]] = None,
        strategy: str = "indexed",
        collect_metrics: bool = False,
    ) -> None:
        self.workers = workers
        context = multiprocessing.get_context()
        self._connections: List[Connection] = []
        self._processes: List[multiprocessing.process.BaseProcess] = []
        try:
            for worker_id in range(workers):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_worker_main,
                    args=(
                        child_conn,
                        worker_id,
                        workers,
                        tuple(tgds),
                        variant,
                        store_spec,
                        strategy,
                        collect_metrics,
                    ),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._connections.append(parent_conn)
                self._processes.append(process)
            if worker_seeds is not None:
                for worker_id, connection in enumerate(self._connections):
                    for chunk in _seed_chunks(worker_seeds(worker_id)):
                        connection.send(("seed", chunk))
        except Exception:
            self.close()
            raise

    def _collect(self) -> List[RoundReport]:
        reports: List[RoundReport] = []
        for connection in self._connections:
            status, payload = connection.recv()
            if status != "ok":
                raise RuntimeError(f"parallel chase worker failed:\n{payload}")
            reports.append(payload)
        return reports

    def initial(self) -> List[RoundReport]:
        for connection in self._connections:
            connection.send(("initial",))
        return self._collect()

    def delta(
        self,
        delta_atoms: Sequence[Atom],
        work_by_worker: Sequence[Sequence[Tuple[int, int]]],
    ) -> List[RoundReport]:
        for worker_id, connection in enumerate(self._connections):
            connection.send(("delta", delta_atoms, work_by_worker[worker_id]))
        return self._collect()

    def close(self) -> None:
        for connection in self._connections:
            try:
                connection.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            connection.close()
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=5)


# --------------------------------------------------------------------------- #
# Shuffle-exchange pools (see repro.chase.exchange for the phase protocol)


def _build_shuffle_worker(
    strategy: str,
    worker_id: int,
    n_workers: int,
    tgds: Sequence[TGD],
    variant: str,
    store: AtomStore,
    shared_store: bool,
    metrics: Optional[MetricsRegistry] = None,
    report_metrics: bool = False,
) -> ShuffleWorker:
    """Assemble one worker's shuffle state machine around a match worker."""
    match_worker = _make_match_worker(
        strategy, worker_id, n_workers, tgds, variant, store, False
    )
    full, _ = replica_seed_split(tgds, variant)
    plans_by_predicate = {
        predicate: tuple(entry.plan_id for entry in entries)
        for predicate, entries in match_worker.table.by_predicate.items()
    }
    return ShuffleWorker(
        match_worker,
        plans_by_predicate,
        full,
        shared_store=shared_store,
        pushdown=strategy == "sql-pushdown",
        crash_spec=os.environ.get("REPRO_EXCHANGE_CRASH"),
        metrics=metrics,
        report_metrics=report_metrics,
    )


class _MemoryShufflePool:
    """In-process shuffle workers exchanging over shared memory.

    The exchange "channels" are plain in-process lists: each phase wave
    runs every worker in turn and returns one outbox per destination, and
    the pool hands every worker the list of payloads addressed to it before
    the next wave.
    """

    def __init__(
        self,
        workers: int,
        tgds: Sequence[TGD],
        variant: str,
        store: AtomStore,
        strategy: str = "indexed",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.workers = workers
        self._shuffle_workers = [
            _build_shuffle_worker(
                strategy, worker_id, workers, tgds, variant, store,
                shared_store=True, metrics=metrics,
            )
            for worker_id in range(workers)
        ]
        for shuffle_worker in self._shuffle_workers:
            shuffle_worker.seed_owned_atoms(store)

    @staticmethod
    def _gather(
        outboxes: Sequence[List[List[object]]], destination: int
    ) -> List[List[object]]:
        return [outbox[destination] for outbox in outboxes]

    def round(
        self, round_index: int, heavy_routes: Tuple[HeavyRoute, ...]
    ) -> List[ShuffleReport]:
        workers = self._shuffle_workers
        routed = [w.phase_route(round_index, heavy_routes) for w in workers]
        keyed = [
            w.phase_match(round_index, self._gather(routed, w.worker_id))
            for w in workers
        ]
        atomed = [
            w.phase_keys(round_index, self._gather(keyed, w.worker_id)) for w in workers
        ]
        return [
            w.phase_atoms(round_index, self._gather(atomed, w.worker_id))
            for w in workers
        ]

    def close(self) -> None:
        pass


class _PipeTransport:
    """All-to-all exchange over per-pair pipes, deadlock-free by design.

    A dedicated drain thread receives from every peer connection eagerly
    and unconditionally (parking frames in an in-process queue), so this
    worker's blocking ``send`` can never participate in the classic
    all-to-all cycle — every peer's inbound buffer is always being emptied,
    whatever the main thread is doing.  The main thread is the only reader
    of the queue and the only user of the frame assembler.
    """

    def __init__(
        self, worker_id: int, peer_conns: Sequence[Tuple[int, Connection]]
    ) -> None:
        self.worker_id = worker_id
        self._peers = tuple(peer_conns)
        self._inbox: "queue.SimpleQueue[Frame]" = queue.SimpleQueue()
        self._assembler = FrameAssembler()
        self._thread = threading.Thread(target=self._drain, daemon=True)
        self._thread.start()

    def _drain(self) -> None:
        connections = [connection for _, connection in self._peers]
        while connections:
            for ready in wait(connections):
                ready_conn = cast(Connection, ready)
                try:
                    frame = ready_conn.recv()
                except (EOFError, OSError):
                    connections.remove(ready_conn)
                    continue
                self._inbox.put(frame)

    def exchange(
        self, round_index: int, phase: str, outboxes: Sequence[List[object]]
    ) -> List[Sequence[object]]:
        """Send every peer its outbox; block until all peer payloads arrive."""
        for peer_id, connection in self._peers:
            for frame in iter_frames(round_index, phase, self.worker_id, outboxes[peer_id]):
                try:
                    connection.send(frame)
                except (BrokenPipeError, OSError):
                    # A dead peer is surfaced by the coordinator (its error
                    # report or join timeout); don't mask it with a send
                    # failure here.
                    pass
        inboxes: List[Sequence[object]] = [() for _ in outboxes]
        inboxes[self.worker_id] = outboxes[self.worker_id]
        pending = {peer_id for peer_id, _ in self._peers}
        for peer_id in sorted(pending):
            payload = self._assembler.pop(round_index, phase, peer_id)
            if payload is not None:
                inboxes[peer_id] = payload
                pending.discard(peer_id)
        while pending:
            completed = self._assembler.feed(self._inbox.get())
            if completed is None or completed[:2] != (round_index, phase):
                continue
            sender = completed[2]
            if sender in pending:
                payload = self._assembler.pop(round_index, phase, sender)
                inboxes[sender] = payload if payload is not None else ()
                pending.discard(sender)
        return inboxes


def _shuffle_worker_main(
    conn: Connection,
    peer_conns: Tuple[Tuple[int, Connection], ...],
    worker_id: int,
    n_workers: int,
    tgds: Sequence[TGD],
    variant: str,
    store_spec: Tuple[str, ...],
    strategy: str = "indexed",
    collect_metrics: bool = False,
) -> None:
    """Entry point of a shuffle process worker: replica, peers, round loop.

    Same seeding protocol as :func:`_worker_main`; each ``("round", index,
    heavy_routes)`` barrier message then drives the four exchange phases
    against the peer pipes, and the round's :class:`ShuffleReport` goes back
    on the coordinator pipe.
    """
    try:
        try:
            store = _open_replica_store(store_spec, worker_id)
            registry = MetricsRegistry() if collect_metrics else None
            shuffle = _build_shuffle_worker(
                strategy, worker_id, n_workers, tgds, variant, store,
                shared_store=False, metrics=registry, report_metrics=True,
            )
            if registry is not None:
                from ..storage.sqlbackend import SqliteAtomStore

                if isinstance(store, SqliteAtomStore):
                    store.set_statement_metrics(StatementMetrics(registry))
            transport = _PipeTransport(worker_id, peer_conns)
        except Exception:
            conn.send(("error", traceback.format_exc()))
            return
        seeded = False
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "stop":
                break
            try:
                if kind == "seed":
                    _add_seed_atoms(store, message[1])
                    continue
                _, round_index, heavy_routes = message
                if not seeded:
                    # All seed chunks have arrived once rounds begin: claim
                    # this worker's dedup share of the seed instance.
                    shuffle.seed_owned_atoms(store)
                    seeded = True
                outboxes = shuffle.phase_route(round_index, heavy_routes)
                inboxes = transport.exchange(round_index, "route", outboxes)
                outboxes = shuffle.phase_match(round_index, inboxes)
                inboxes = transport.exchange(round_index, "keys", outboxes)
                outboxes = shuffle.phase_keys(round_index, inboxes)
                inboxes = transport.exchange(round_index, "atoms", outboxes)
                report = shuffle.phase_atoms(round_index, inboxes)
                conn.send(("ok", report))
            except Exception:
                conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


class _ProcessShufflePool:
    """Process shuffle workers on a full mesh of per-pair pipes.

    The coordinator keeps one control pipe per worker (seeding, round
    barriers, reports — exactly the :class:`_ProcessPool` protocol) and
    additionally wires every worker pair with a private duplex pipe before
    any process starts; peer traffic never touches the coordinator.
    """

    def __init__(
        self,
        workers: int,
        tgds: Sequence[TGD],
        variant: str,
        store_spec: Tuple[str, ...],
        worker_seeds: Optional[Callable[[int], List[Atom]]] = None,
        strategy: str = "indexed",
        collect_metrics: bool = False,
    ) -> None:
        self.workers = workers
        context = multiprocessing.get_context()
        self._connections: List[Connection] = []
        self._processes: List[multiprocessing.process.BaseProcess] = []
        mesh: List[Dict[int, Connection]] = [{} for _ in range(workers)]
        parent_peer_ends: List[Connection] = []
        for low in range(workers):
            for high in range(low + 1, workers):
                low_conn, high_conn = context.Pipe(True)
                mesh[low][high] = low_conn
                mesh[high][low] = high_conn
                parent_peer_ends.extend((low_conn, high_conn))
        try:
            for worker_id in range(workers):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_shuffle_worker_main,
                    args=(
                        child_conn,
                        tuple(sorted(mesh[worker_id].items())),
                        worker_id,
                        workers,
                        tuple(tgds),
                        variant,
                        store_spec,
                        strategy,
                        collect_metrics,
                    ),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._connections.append(parent_conn)
                self._processes.append(process)
            for end in parent_peer_ends:
                end.close()
            if worker_seeds is not None:
                for worker_id, connection in enumerate(self._connections):
                    for chunk in _seed_chunks(worker_seeds(worker_id)):
                        connection.send(("seed", chunk))
        except Exception:
            self.close()
            raise

    def round(
        self, round_index: int, heavy_routes: Tuple[HeavyRoute, ...]
    ) -> List[ShuffleReport]:
        for connection in self._connections:
            connection.send(("round", round_index, heavy_routes))
        reports: List[ShuffleReport] = []
        for connection in self._connections:
            status, payload = connection.recv()
            if status != "ok":
                raise RuntimeError(f"parallel chase worker failed:\n{payload}")
            reports.append(payload)
        return reports

    def close(self) -> None:
        for connection in self._connections:
            try:
                connection.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            connection.close()
        for process in self._processes:
            # A worker wedged mid-exchange (e.g. its peer crashed) never
            # reads the stop message; don't wait long before terminating.
            process.join(timeout=2)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)


# --------------------------------------------------------------------------- #
# The coordinator


class ParallelChaseExecutor:
    """Coordinator of the hash-partitioned parallel chase.

    Owns the authoritative store, the global firing-key set, and the budget
    accounting; delegates per-round matching to a worker pool.  The merge
    step is order-insensitive (see the module docstring), which is what
    makes the result identical across worker counts, executors, and
    backends.
    """

    def __init__(
        self,
        variant: str = "semi-oblivious",
        workers: int = 2,
        limits: Optional[ChaseLimits] = None,
        on_limit: str = "return",
        executor: str = "auto",
        strategy: str = "indexed",
        exchange: str = "coordinator",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if on_limit not in ("return", "raise"):
            raise ValueError("on_limit must be 'return' or 'raise'")
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        if strategy not in ("indexed", "sql-pushdown"):
            raise ValueError(
                "the parallel chase runs the 'indexed' or 'sql-pushdown' "
                f"matching engines, got {strategy!r}"
            )
        if exchange not in EXCHANGES:
            raise ValueError(f"exchange must be one of {EXCHANGES}, got {exchange!r}")
        resolve_engine_class(variant)  # validate eagerly
        self.variant = variant
        self.workers = workers
        self.limits = limits if limits is not None else ChaseLimits()
        self.on_limit = on_limit
        self.executor = executor
        self.strategy = strategy
        self.exchange = exchange

    # ------------------------------------------------------------------ #

    def _resolve_executor(self, store: AtomStore) -> str:
        from ..storage.database import RelationalDatabase
        from ..storage.sqlbackend import SqliteAtomStore

        executor = self.executor
        if executor == "auto":
            # Processes with per-worker replicas give the relational and
            # sqlite stores their own cores; the in-memory store is matched
            # in-process against the coordinator's own instance.
            executor = (
                "process"
                if self.workers > 1
                and isinstance(store, (RelationalDatabase, SqliteAtomStore))
                else "serial"
            )
        return executor

    def _make_pool(
        self, tgds: Sequence[TGD], store: AtomStore, collect_metrics: bool = False
    ) -> Union["_SerialPool", "_ProcessPool"]:
        from ..storage.database import RelationalDatabase
        from ..storage.sqlbackend import SqliteAtomStore

        executor = self._resolve_executor(store)
        if executor == "serial" or self.workers == 1:
            return _SerialPool(
                self.workers, tgds, self.variant, store, self.strategy, collect_metrics
            )
        if isinstance(store, SqliteAtomStore) and store.is_persistent:
            # Out-of-core seeding: commit the seed so workers attaching the
            # file read-only see it, and ship no atoms at all — each replica
            # is an overlay over the coordinator's own file.
            store.flush()
            return _ProcessPool(
                self.workers, tgds, self.variant, ("sqlite-file", store.path),
                strategy=self.strategy, collect_metrics=collect_metrics,
            )
        if isinstance(store, RelationalDatabase):
            store_spec = ("relational",)
        elif isinstance(store, SqliteAtomStore):
            store_spec = ("sqlite",)
        else:
            store_spec = ("instance",)

        # The fully-replicated portion is identical for every worker:
        # collect it once, not once per worker.
        full, _ = replica_seed_split(tgds, self.variant)
        full_atoms = collect_full_seed_atoms(store, full)

        def worker_seeds(worker_id: int) -> List[Atom]:
            # Partition-streamed seeding (see worker_seed_atoms): sorted, so
            # per-worker replica construction order stays deterministic.
            return worker_seed_atoms(
                store,
                tgds,
                self.variant,
                self.workers,
                worker_id,
                full_atoms=full_atoms,
            )

        return _ProcessPool(
            self.workers, tgds, self.variant, store_spec, worker_seeds, self.strategy,
            collect_metrics,
        )

    def _make_shuffle_pool(
        self,
        tgds: Sequence[TGD],
        store: AtomStore,
        metrics: Optional[MetricsRegistry] = None,
    ) -> Union["_MemoryShufflePool", "_ProcessShufflePool"]:
        """The shuffle twin of :meth:`_make_pool`: same executor resolution,
        same replica-seeding strategies, peer-to-peer exchange channels."""
        from ..storage.database import RelationalDatabase
        from ..storage.sqlbackend import SqliteAtomStore

        executor = self._resolve_executor(store)
        if executor == "serial" or self.workers == 1:
            return _MemoryShufflePool(
                self.workers, tgds, self.variant, store, self.strategy,
                metrics=metrics,
            )
        collect_metrics = metrics is not None
        if isinstance(store, SqliteAtomStore) and store.is_persistent:
            store.flush()
            return _ProcessShufflePool(
                self.workers, tgds, self.variant, ("sqlite-file", store.path),
                strategy=self.strategy, collect_metrics=collect_metrics,
            )
        if isinstance(store, RelationalDatabase):
            store_spec: Tuple[str, ...] = ("relational",)
        elif isinstance(store, SqliteAtomStore):
            store_spec = ("sqlite",)
        else:
            store_spec = ("instance",)
        full, _ = replica_seed_split(tgds, self.variant)
        full_atoms = collect_full_seed_atoms(store, full)

        def worker_seeds(worker_id: int) -> List[Atom]:
            # As the coordinator-merge seeding, plus each worker's hash
            # share of the relations matching never reads — the worker is
            # the atom-dedup owner of that share (see worker_seed_atoms).
            return worker_seed_atoms(
                store,
                tgds,
                self.variant,
                self.workers,
                worker_id,
                full_atoms=full_atoms,
                include_unused_share=True,
            )

        return _ProcessShufflePool(
            self.workers, tgds, self.variant, store_spec, worker_seeds,
            self.strategy, collect_metrics,
        )

    def _partition_work(
        self, table: _PlanTable, delta_atoms: Sequence[Atom]
    ) -> List[List[Tuple[int, int]]]:
        """Assign every (plan, delta atom) pair to its owning worker."""
        work: List[List[Tuple[int, int]]] = [[] for _ in range(self.workers)]
        for delta_index, atom in enumerate(delta_atoms):
            for entry in table.by_predicate.get(atom.predicate, ()):
                owner = atom_partition_of(
                    atom, entry.plan.partition_positions, self.workers
                )
                work[owner].append((entry.plan_id, delta_index))
        return work

    def run(
        self,
        database: Database,
        tgds: TGDSet,
        store: Optional[AtomStore] = None,
        tracer: Optional[AnyTracer] = None,
    ) -> ChaseResult:
        """Run the parallel chase; same contract as :meth:`ChaseEngine.run`.

        *tracer* makes the coordinator emit the same ``round``/``rule_round``
        stream as the serial engines (sums reproduce the result totals
        exactly; per-rule ``dur`` is 0.0 — matching time lives in the
        workers) plus one ``worker_round`` event per (worker, round) and,
        on sqlite stores, merged ``sql_family`` timings — worker replicas
        ship their cumulative registry snapshots home inside the round
        reports.  ``chase_start``/``chase_end`` are the caller's job
        (:func:`repro.chase.engine.chase` emits them).  Tracing never
        changes the result.

        With ``exchange="shuffle"`` the run is delegated to
        :meth:`_run_shuffle`: same contract, byte-identical result, but
        workers repartition deltas among themselves and the coordinator
        only drives round barriers (plus ``exchange``/``repartition``
        events on traced runs).
        """
        if self.exchange == "shuffle":
            return self._run_shuffle(database, tgds, store=store, tracer=tracer)
        active_tracer = as_tracer(tracer)
        traced = active_tracer.enabled
        tgd_list = tuple(tgds)
        if store is None:
            store = Instance()
        add_atoms = getattr(store, "add_atoms", None)
        if add_atoms is not None:
            add_atoms(database.atoms())
        else:
            for atom in database.atoms():
                store.add_atom(atom)
        table = _PlanTable(tgd_list)
        fired_keys: Set[object] = set()

        rounds = 0
        atoms_created = 0
        triggers_fired = 0
        delta: Optional[List[Atom]] = None  # None = first round

        statement_metrics: Optional[StatementMetrics] = None
        if traced:
            from ..storage.sqlbackend import SqliteAtomStore

            if isinstance(store, SqliteAtomStore):
                # Times the coordinator's own statements — and, under the
                # serial pool, the shared-store workers' queries too.
                statement_metrics = StatementMetrics()
                store.set_statement_metrics(statement_metrics)
        # Latest cumulative registry snapshot per process worker.
        worker_sql: Dict[int, Dict[str, List[Dict[str, object]]]] = {}

        def finish_trace() -> None:
            """Emit the merged coordinator+worker ``sql_family`` events."""
            if not traced:
                return
            registry = (
                statement_metrics.registry
                if statement_metrics is not None
                else MetricsRegistry()
            )
            for snapshot in worker_sql.values():
                registry.merge_snapshot(snapshot)
            for stats in sql_family_stats(registry.snapshot()):
                active_tracer.emit("sql_family", **stats)

        pool = self._make_pool(tgd_list, store, traced)
        try:
            while True:
                if self.limits.round_budget_exceeded(rounds + 1):
                    finish_trace()
                    return self._stopped(
                        store, rounds, atoms_created, triggers_fired, "max_rounds"
                    )
                round_started = active_tracer.now() if traced else 0.0
                delta_size = (
                    (store.atom_count() if delta is None else len(delta))
                    if traced
                    else 0
                )
                if delta is None:
                    reports = pool.initial()
                else:
                    reports = pool.delta(delta, self._partition_work(table, delta))

                # Order-insensitive merge: what a key fires (and whether it
                # does) is a function of the key alone, so "first worker
                # wins" and "union of everything" coincide.
                round_keys: List[object] = []
                fired_by_key: Dict[object, Tuple[Atom, ...]] = {}
                for considered, fired, metrics in reports:
                    round_keys.extend(considered)
                    for key, atoms in fired:
                        fired_by_key.setdefault(key, atoms)
                    if metrics is not None:
                        worker_id, seconds, n_considered, n_fired, snapshot = metrics
                        active_tracer.emit(
                            "worker_round",
                            round=rounds + 1,
                            worker=worker_id,
                            considered=n_considered,
                            fired=n_fired,
                            dur=round(seconds, 9),
                        )
                        if snapshot is not None:
                            worker_sql[worker_id] = snapshot

                new_atoms: Set[Atom] = set()
                fired_before = triggers_fired
                fired_by_rule: Dict[int, int] = {}
                atoms_by_rule: Dict[int, int] = {}
                nulls_by_rule: Dict[int, Set[Null]] = {}
                if traced:
                    # Traced twin of the merge loop below (keep the two in
                    # lockstep!): same decisions, plus per-rule attribution
                    # through the leading tgd_index of every firing key.
                    for key, atoms in fired_by_key.items():
                        if key in fired_keys:
                            continue
                        triggers_fired += 1
                        rule_index = _key_rule(key)
                        fired_by_rule[rule_index] = fired_by_rule.get(rule_index, 0) + 1
                        for atom in atoms:
                            if atom not in new_atoms and not store.has_atom(atom):
                                new_atoms.add(atom)
                                atoms_by_rule[rule_index] = (
                                    atoms_by_rule.get(rule_index, 0) + 1
                                )
                                for term in atom.terms:
                                    if isinstance(term, Null):
                                        nulls_by_rule.setdefault(
                                            rule_index, set()
                                        ).add(term)
                else:
                    for key, atoms in fired_by_key.items():
                        if key in fired_keys:
                            continue
                        triggers_fired += 1
                        for atom in atoms:
                            if atom not in new_atoms and not store.has_atom(atom):
                                new_atoms.add(atom)
                fired_keys.update(round_keys)

                if traced:
                    enumerated_by_rule: Dict[int, int] = {}
                    for key in round_keys:
                        rule_index = _key_rule(key)
                        enumerated_by_rule[rule_index] = (
                            enumerated_by_rule.get(rule_index, 0) + 1
                        )
                    for rule_index in sorted(enumerated_by_rule):
                        active_tracer.emit(
                            "rule_round",
                            round=rounds + 1,
                            rule=rule_index,
                            enumerated=enumerated_by_rule[rule_index],
                            fired=fired_by_rule.get(rule_index, 0),
                            atoms_created=atoms_by_rule.get(rule_index, 0),
                            nulls_invented=len(nulls_by_rule.get(rule_index, ())),
                            dur=0.0,
                        )
                    active_tracer.emit(
                        "round",
                        round=rounds + 1,
                        delta_size=delta_size,
                        considered=len(round_keys),
                        fired=triggers_fired - fired_before,
                        atoms_created=len(new_atoms),
                        dur=round(active_tracer.now() - round_started, 9),
                    )

                if not new_atoms:
                    finish_trace()
                    return ChaseResult(
                        terminated=True,
                        rounds=rounds,
                        atoms_created=atoms_created,
                        triggers_fired=triggers_fired,
                        stop_reason="fixpoint",
                        store=store,
                    )
                # Sort once, then both insert and broadcast in that order:
                # seq assignment must not depend on set iteration order.
                delta = sorted(new_atoms)
                for atom in delta:
                    store.add_atom(atom)
                flush = getattr(store, "flush", None)
                if flush is not None:
                    # Same round-granular durability as the serial engine.
                    flush()
                atoms_created += len(new_atoms)
                rounds += 1
                if self.limits.atom_budget_exceeded(store.atom_count()):
                    finish_trace()
                    return self._stopped(
                        store, rounds, atoms_created, triggers_fired, "max_atoms"
                    )
        finally:
            pool.close()
            if statement_metrics is not None:
                store.set_statement_metrics(None)  # type: ignore[attr-defined]

    def _run_shuffle(
        self,
        database: Database,
        tgds: TGDSet,
        store: Optional[AtomStore] = None,
        tracer: Optional[AnyTracer] = None,
    ) -> ChaseResult:
        """The shuffle-exchange twin of :meth:`run`.

        Workers own matching, both global dedups, and all peer-to-peer
        repartitioning (:mod:`repro.chase.exchange`); this loop only ticks
        round barriers, folds per-worker reports into budgets and trace
        events, appends each round's merged new atoms — already globally
        deduplicated, each owned by exactly one worker — to the
        authoritative store in sorted order, and feeds the skew detector
        whose heavy table rides the next barrier message.
        """
        active_tracer = as_tracer(tracer)
        traced = active_tracer.enabled
        tgd_list = tuple(tgds)
        if store is None:
            store = Instance()
        add_atoms = getattr(store, "add_atoms", None)
        if add_atoms is not None:
            add_atoms(database.atoms())
        else:
            for atom in database.atoms():
                store.add_atom(atom)
        table = _PlanTable(tgd_list)

        statement_metrics: Optional[StatementMetrics] = None
        registry: Optional[MetricsRegistry] = None
        if traced:
            from ..storage.sqlbackend import SqliteAtomStore

            registry = MetricsRegistry()
            if isinstance(store, SqliteAtomStore):
                statement_metrics = StatementMetrics(registry)
                store.set_statement_metrics(statement_metrics)
        # Latest cumulative registry snapshot per process worker.
        worker_sql: Dict[int, Dict[str, List[Dict[str, object]]]] = {}

        def finish_trace() -> None:
            if not traced:
                return
            merged = MetricsRegistry()
            if registry is not None:
                merged.merge_snapshot(registry.snapshot())
            for snapshot in worker_sql.values():
                merged.merge_snapshot(snapshot)
            for stats in sql_family_stats(merged.snapshot()):
                active_tracer.emit("sql_family", **stats)

        # The in-SQL partition filter of the pushdown strategy cannot see a
        # heavy table, so skew splitting stays off there; routing is then
        # degenerate (replicas are broadcast-complete) and still correct.
        detector: Optional[SkewDetector] = None
        if self.strategy != "sql-pushdown":
            detector = SkewDetector(
                [
                    (
                        entry.plan_id,
                        entry.plan.body[entry.plan.seed_slot].predicate,
                        entry.plan.partition_positions,
                    )
                    for entry in table.entries
                ],
                self.workers,
                metrics=registry,
            )

        heavy: Tuple[HeavyRoute, ...] = ()
        known_heavy: Set[Tuple[int, int]] = set()
        rounds = 0
        atoms_created = 0
        triggers_fired = 0
        last_delta_size: Optional[int] = None

        pool = self._make_shuffle_pool(tgd_list, store, metrics=registry)
        try:
            while True:
                if self.limits.round_budget_exceeded(rounds + 1):
                    finish_trace()
                    return self._stopped(
                        store, rounds, atoms_created, triggers_fired, "max_rounds"
                    )
                round_started = active_tracer.now() if traced else 0.0
                delta_size = (
                    (store.atom_count() if last_delta_size is None else last_delta_size)
                    if traced
                    else 0
                )
                reports = pool.round(rounds, heavy)

                round_considered = 0
                round_fired = 0
                new_atom_runs: List[Tuple[Atom, ...]] = []
                fired_by_rule: Dict[int, int] = {}
                enumerated_by_rule: Dict[int, int] = {}
                atoms_by_rule: Dict[int, int] = {}
                nulls_by_rule: Dict[int, int] = {}
                for report in reports:
                    round_considered += report.considered
                    round_fired += report.fired
                    new_atom_runs.append(report.new_atoms)
                    if traced:
                        active_tracer.emit(
                            "worker_round",
                            round=rounds + 1,
                            worker=report.worker,
                            considered=report.considered,
                            fired=report.matched,
                            dur=round(report.dur, 9),
                        )
                        active_tracer.emit(
                            "exchange",
                            round=rounds + 1,
                            worker=report.worker,
                            keys_routed=report.keys_routed,
                            atoms_routed=report.atoms_routed,
                            work_routed=report.work_routed,
                            dur=round(report.dur, 9),
                        )
                        for rule, count in report.enumerated_by_rule:
                            enumerated_by_rule[rule] = (
                                enumerated_by_rule.get(rule, 0) + count
                            )
                        for rule, count in report.fired_by_rule:
                            fired_by_rule[rule] = fired_by_rule.get(rule, 0) + count
                        for rule, count in report.atoms_by_rule:
                            atoms_by_rule[rule] = atoms_by_rule.get(rule, 0) + count
                        for rule, count in report.nulls_by_rule:
                            nulls_by_rule[rule] = nulls_by_rule.get(rule, 0) + count
                        if report.sql is not None:
                            worker_sql[report.worker] = report.sql
                triggers_fired += round_fired
                # Each worker's new atoms are its own sorted hash share;
                # the shares are disjoint, so one sort merges them.
                new_atoms = sorted(
                    atom for run in new_atom_runs for atom in run
                )

                if traced:
                    for rule_index in sorted(enumerated_by_rule):
                        active_tracer.emit(
                            "rule_round",
                            round=rounds + 1,
                            rule=rule_index,
                            enumerated=enumerated_by_rule[rule_index],
                            fired=fired_by_rule.get(rule_index, 0),
                            atoms_created=atoms_by_rule.get(rule_index, 0),
                            nulls_invented=nulls_by_rule.get(rule_index, 0),
                            dur=0.0,
                        )
                    active_tracer.emit(
                        "round",
                        round=rounds + 1,
                        delta_size=delta_size,
                        considered=round_considered,
                        fired=round_fired,
                        atoms_created=len(new_atoms),
                        dur=round(active_tracer.now() - round_started, 9),
                    )

                if not new_atoms:
                    finish_trace()
                    return ChaseResult(
                        terminated=True,
                        rounds=rounds,
                        atoms_created=atoms_created,
                        triggers_fired=triggers_fired,
                        stop_reason="fixpoint",
                        store=store,
                    )
                for atom in new_atoms:
                    store.add_atom(atom)
                flush = getattr(store, "flush", None)
                if flush is not None:
                    flush()
                atoms_created += len(new_atoms)
                rounds += 1
                last_delta_size = len(new_atoms)
                if self.limits.atom_budget_exceeded(store.atom_count()):
                    finish_trace()
                    return self._stopped(
                        store, rounds, atoms_created, triggers_fired, "max_atoms"
                    )
                if detector is not None:
                    heavy = detector.heavy_routes(new_atoms)
                    if traced:
                        for route, split in heavy:
                            if route not in known_heavy:
                                known_heavy.add(route)
                                active_tracer.emit(
                                    "repartition",
                                    round=rounds,
                                    plan=route[0],
                                    key_hash=route[1],
                                    workers=list(split),
                                )
        finally:
            pool.close()
            if statement_metrics is not None:
                store.set_statement_metrics(None)  # type: ignore[attr-defined]

    def _stopped(
        self,
        store: AtomStore,
        rounds: int,
        atoms_created: int,
        triggers_fired: int,
        reason: str,
    ) -> ChaseResult:
        if self.on_limit == "raise":
            raise ChaseLimitExceeded(
                f"{self.variant} chase exceeded its {reason} budget",
                atoms_created=atoms_created,
                rounds=rounds,
            )
        return ChaseResult(
            terminated=False,
            rounds=rounds,
            atoms_created=atoms_created,
            triggers_fired=triggers_fired,
            stop_reason=reason,
            store=store,
        )


def parallel_chase(
    database: Database,
    tgds: TGDSet,
    variant: str = "semi-oblivious",
    workers: int = 2,
    limits: Optional[ChaseLimits] = None,
    on_limit: str = "return",
    strategy: str = "indexed",
    backend: str = "instance",
    store: Optional[AtomStore] = None,
    executor: str = "auto",
    materialize: bool = True,
    tracer: Optional[AnyTracer] = None,
    exchange: str = "coordinator",
) -> ChaseResult:
    """Run the hash-partitioned parallel chase of *database* with *tgds*.

    Accepts the same parameters as :func:`repro.chase.engine.chase` plus

    workers:
        Number of partition workers (``1`` degenerates to an in-process
        run through the same partition/merge machinery).
    executor:
        ``"auto"`` (default) runs the in-memory backend's workers
        in-process against the coordinator's store and picks processes
        with per-worker store replicas for the relational and sqlite ones;
        ``"serial"`` / ``"process"`` force a pool kind.  Process replicas
        of a persistent sqlite store attach the coordinator's file
        read-only instead of receiving a seed.
    exchange:
        ``"coordinator"`` (default) round-trips every round's results
        through the coordinator merge; ``"shuffle"`` has workers
        hash-repartition firing keys and result atoms directly to peer
        workers between rounds, with the coordinator reduced to barrier
        control, budget accounting, and trace merging (see
        :mod:`repro.chase.exchange`).

    ``materialize=False`` skips the eager ``result.instance`` build, like
    :func:`~repro.chase.engine.chase`.  The result is guaranteed identical
    — atoms, null names, round and trigger counts — to the serial
    engine's, for every worker count and executor kind.
    """
    if strategy not in ("indexed", "sql-pushdown"):
        raise ValueError(
            "the parallel chase runs the 'indexed' or 'sql-pushdown' "
            f"matching engines, got {strategy!r}"
        )
    if store is None:
        store = make_backend_store(backend)
    if strategy == "sql-pushdown":
        from ..storage.sqlbackend import SqliteAtomStore

        if not isinstance(store, SqliteAtomStore):
            raise ValueError(
                "strategy='sql-pushdown' matches inside SQLite and requires "
                "the sqlite backend (backend='sqlite[:path]' or an explicit "
                "SqliteAtomStore store)"
            )
    coordinator = ParallelChaseExecutor(
        variant=variant,
        workers=workers,
        limits=limits,
        on_limit=on_limit,
        executor=executor,
        strategy=strategy,
        exchange=exchange,
    )
    try:
        result = coordinator.run(database, tgds, store=store, tracer=tracer)
    finally:
        # Commit even when the run raises, so an interrupted persistent
        # store keeps its prefix and stays resumable.
        flush = getattr(store, "flush", None)
        if flush is not None:
            flush()
    if materialize:
        result.materialize()
    return result
