"""Pluggable executors behind the uniform ``Executor.run`` task interface.

The paper's query engine is distributed: every machine matches STwigs over
its partition *concurrently*, and every machine assembles its share of the
answer concurrently.  The reproduction models that cluster with one
process; the engine describes each fan-out as a batch of tasks
(:class:`~repro.core.tasks.ExploreTask` / :class:`~repro.core.tasks.JoinTask`)
and :meth:`Executor.run` — the one fan-out loop — schedules them.  A
backend is only *how the loop's units get run*:

* :class:`SerialExecutor` — runs units inline, in machine order.  This is
  the parity oracle: the other backend must produce row-for-row identical
  results **and** identical communication counters.
* :class:`ProcessExecutor` — a process pool over shared-memory CSR
  partitions (see :mod:`repro.runtime.shared_cloud`).  The graph is
  published once; workers rebuild zero-copy views lazily.  Exploration
  result tables stay in shared memory *end to end*: workers publish their
  packed slot columns once and return only :class:`~repro.core.tasks.TableHandle`\\ s,
  and the join tasks attach those same pages — the driver never receives,
  re-pickles, or re-publishes an intermediate table (the
  ``transport_counters`` make that claim observable).

Work stealing: a backend whose units run concurrently has the loop split
each exploration task's root array into bounded chunks queued
individually, so idle workers steal from skewed machines.  Chunked
sub-results concatenate in chunk order to exactly the unchunked table
(``match_stwig`` keeps root order and charges per root/neighbor),
and join tasks are never split, so the cooperative budget's exact-prefix
guarantee survives any schedule.

Metric faithfulness is structural: every unit runs against a
metrics-scoped view of the cloud (:meth:`MemoryCloud.with_metrics`), and
the loop merges the isolated counters back in (task, chunk) order.
Counter totals are sums, so any schedule aggregates to exactly the serial
model's metrics — the invariant the parity suite asserts.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import weakref
from abc import ABC, abstractmethod
from contextlib import ExitStack, closing, contextmanager
from dataclasses import replace
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import RuntimeConfig, resolve_backend
from repro.cloud.metrics import CloudMetrics
from repro.core.distributed import machine_result_rows
from repro.core.join import JoinBudget
from repro.core.matcher import match_stwig
from repro.core.result import STwigTable
from repro.core.tasks import (
    ExploreResult,
    ExploreTask,
    JoinResult,
    JoinTask,
    TableHandle,
    attached_matrix,
    explore_result,
)
from repro.errors import ConfigurationError, ExecutionError
from repro.query.query_graph import QueryGraph
from repro.runtime.shared_cloud import (
    BindingsHandle,
    CloudHandle,
    attached_bindings,
    publish_bindings,
    publish_cloud,
    rebuild_cloud,
)
from repro.utils.arrays import fast_unique
from repro.utils.shm import (
    SegmentRegistry,
    SharedArraySpec,
    attach_array,
    publish_array,
    unlink_block,
)

#: Arrays at or above this entry count travel between processes through a
#: one-shot shared-memory block instead of the pool's pickle pipe (two
#: memcpys instead of serialize -> pipe -> deserialize).  256 KiB of int64.
#: Exploration tables this large are *published* worker-side and never
#: travel at all — only their handles do.
_SHIP_THRESHOLD_ENTRIES = 32_768

#: Work stealing: a machine's stage roots are split into at most
#: ``_STEAL_MAX_CHUNKS`` chunks of at least ``_STEAL_MIN_ROOTS`` roots each
#: (machines below twice the minimum stay unsplit — there is nothing worth
#: stealing).  Bounded chunking caps the coalesce cost on the driver while
#: still letting idle workers take work from skewed machines.
_STEAL_MIN_ROOTS = 4_096
_STEAL_MAX_CHUNKS = 4


def _root_chunks(roots: np.ndarray, stealing: bool) -> List[np.ndarray]:
    """Split one machine's stage roots into bounded stealable chunks."""
    count = len(roots)
    if not stealing or count < 2 * _STEAL_MIN_ROOTS:
        return [roots]
    return np.array_split(roots, min(_STEAL_MAX_CHUNKS, count // _STEAL_MIN_ROOTS))


def _shared_join_limit(tasks: Sequence[object]) -> Optional[int]:
    """The single row limit shared by every join task of one batch."""
    limits = {task.row_limit for task in tasks if isinstance(task, JoinTask)}
    if len(limits) > 1:
        raise ExecutionError(
            "join tasks submitted in one Executor.run batch must share one "
            f"row_limit, got {limits}"
        )
    return limits.pop() if limits else None


def _ship_array(array: np.ndarray):
    """Worker-side: large result arrays go back via shared memory."""
    if array.size < _SHIP_THRESHOLD_ENTRIES:
        return array
    segment, spec = publish_array(array)
    # Drop the worker's mapping; the block lives until the driver unlinks.
    segment.close()
    return spec


def _receive_array(shipped) -> np.ndarray:
    """Driver-side: materialize a shipped array and retire its block."""
    if not isinstance(shipped, SharedArraySpec):
        return shipped
    segment, view = attach_array(shipped)
    try:
        return view.copy()
    finally:
        segment.close()
        segment.unlink()


def _ship_bindings(bindings, query: QueryGraph, registries: List):
    """Driver-side: large binding tables go to workers via shared memory.

    Small (or absent) bindings pass through as the pickled object; large
    ones are published once and replaced by a :class:`BindingsHandle`, so
    the pool pipe never carries the same multi-megabyte arrays once per
    machine.  The publication's registry joins ``registries``, which the
    caller closes after the fan-out completes.
    """
    if bindings is None:
        return None
    total = sum(
        len(array)
        for node in query.nodes()
        if (array := bindings.candidates_array(node)) is not None
    )
    if total < _SHIP_THRESHOLD_ENTRIES:
        return bindings
    handle, registry = publish_bindings(bindings, query)
    registries.append(registry)
    return handle


@contextmanager
def _resolved_bindings(payload, query: QueryGraph):
    """Worker-side counterpart of :func:`_ship_bindings`."""
    if isinstance(payload, BindingsHandle):
        with attached_bindings(payload, query) as bindings:
            yield bindings
    else:
        yield payload


def _explore_unit(cloud: MemoryCloud, machine_id, stwig, query, bindings, roots):
    """Match one root chunk against isolated metrics: ``(table, metrics)``."""
    metrics = CloudMetrics()
    scoped = cloud.with_metrics(metrics)
    table = match_stwig(scoped, machine_id, stwig, query, bindings=bindings, roots=roots)
    return table, metrics


class _Unit(NamedTuple):
    """One schedulable piece of a batch: a join task, or one chunk of an
    exploration task's roots (``roots`` is ``None`` for joins)."""

    task_index: int
    chunk_index: int
    chunk_count: int
    task: object
    roots: Optional[np.ndarray]


def _coalesce(task: object, chunks: Sequence[object]) -> object:
    """One task's result from its units' results, in chunk order."""
    if len(chunks) == 1:
        return chunks[0]
    # A chunk-split (stolen-from) machine: its factorized parts concatenate
    # (disjoint roots, in chunk order) into one inline single-part handle.
    table = STwigTable.concatenate([chunk.table.materialize() for chunk in chunks])
    distincts = {
        node: fast_unique(
            np.concatenate([chunk.distincts[node] for chunk in chunks if chunk.distincts])
        )
        for node in (table.columns if table.row_count else ())
    }
    return ExploreResult(task.machine_id, TableHandle.of(table), distincts)


class Executor(ABC):
    """The fan-out loop; a backend supplies only :meth:`_run_units`."""

    name: str = "abstract"

    #: Whether exploration tasks are split into stealable chunks — worth it
    #: only for a backend whose units run concurrently.
    stealing: bool = False

    def run(
        self,
        cloud: MemoryCloud,
        tasks: Sequence[object],
        on_result: Optional[Callable[[int, object], None]] = None,
    ) -> List[object]:
        """Run a batch of tasks, returning one result per task in task order.

        Tasks are :class:`~repro.core.tasks.ExploreTask` (result:
        :class:`~repro.core.tasks.ExploreResult`) or
        :class:`~repro.core.tasks.JoinTask` (result:
        :class:`~repro.core.tasks.JoinResult`).  ``on_result(index,
        result)`` is invoked exactly once per task, from the calling
        thread, as soon as that task's result is complete — possibly out
        of task order — so the caller can overlap per-task post-processing
        (the proxy's binding merge) with the remaining tasks.

        All join tasks of one batch share a single cooperative row budget:
        every machine joins against its machine-ordered
        :class:`~repro.core.join.JoinBudget` view of one slot
        array, so machines stop as soon as lower IDs have produced enough
        rows and the driver's ordered concatenation stays an exact prefix
        of the unlimited result on every backend.

        Each unit's isolated :class:`CloudMetrics` are merged into
        ``cloud.metrics`` in (task, chunk) order after the batch; totals
        are sums, so every schedule reproduces the serial counters.  A
        failed batch merges nothing and retires every table its finished
        units published.
        """
        units: List[_Unit] = []
        # buffers[task][chunk] -> (result, metrics) once that unit completed.
        buffers: List[List[Optional[tuple]]] = []
        for index, task in enumerate(tasks):
            if isinstance(task, ExploreTask):
                chunks = _root_chunks(task.roots, self.stealing)
            elif isinstance(task, JoinTask):
                chunks = [None]
            else:
                raise ExecutionError(f"unknown task type {type(task).__name__}")
            units.extend(
                _Unit(index, chunk_index, len(chunks), task, roots)
                for chunk_index, roots in enumerate(chunks)
            )
            buffers.append([None] * len(chunks))
        pending = [len(chunks) for chunks in buffers]
        results: List[object] = [None] * len(tasks)
        try:
            with closing(self._run_units(cloud, tasks, units)) as completed:
                for unit, result, metrics in completed:
                    index = unit.task_index
                    buffers[index][unit.chunk_index] = (result, metrics)
                    pending[index] -= 1
                    if pending[index] == 0:
                        results[index] = _coalesce(
                            unit.task, [chunk for chunk, _ in buffers[index]]
                        )
                        if on_result is not None:
                            on_result(index, results[index])
        except BaseException:
            # Retire every table the finished units published (inline
            # handles no-op), assembled or still buffered.
            finished = [entry[0] for chunks in buffers for entry in chunks if entry]
            for result in results + finished:
                if isinstance(result, ExploreResult):
                    result.table.release()
            raise
        for chunks in buffers:
            for _, metrics in chunks:
                cloud.metrics.merge(metrics)
        return results

    @abstractmethod
    def _run_units(
        self, cloud: MemoryCloud, tasks: Sequence[object], units: Sequence[_Unit]
    ) -> Iterator[Tuple[_Unit, object, CloudMetrics]]:
        """Run every unit, yielding ``(unit, result, metrics)`` as each completes.

        ``result`` is the unit's :class:`~repro.core.tasks.ExploreResult` /
        :class:`~repro.core.tasks.JoinResult` (a chunk of a split task —
        ``unit.chunk_count > 1`` — must come back inline), ``metrics`` the
        isolated counters it ran against.  Any order is allowed; :meth:`run`
        closes the generator if the batch is abandoned.
        """

    def close(self) -> None:
        """Release pools and shared-memory publications (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """Inline execution in task (= machine) order — the parity oracle.

    Sequential join tasks share one filtered-table cache, exactly like the
    historical single-loop assembly; the cooperative budget views, consumed
    in machine order, telescope to the historical remaining countdown
    (including the skip-everything early exit).
    """

    name = "serial"

    def _run_units(self, cloud, tasks, units):
        limit = _shared_join_limit(tasks)
        # One produced-count slot per machine, single writer each.
        slots = [0] * cloud.machine_count
        # Each distinct handle matrix is attached once per batch (all join
        # tasks of a batch share the exploration matrix) and carries one
        # binding-filtered-table cache: id -> (tables, cache).
        attached: Dict[int, tuple] = {}
        with ExitStack() as stack:
            for unit in units:
                task = unit.task
                if isinstance(task, ExploreTask):
                    table, metrics = _explore_unit(
                        cloud, task.machine_id, task.stwig, task.query, task.bindings, unit.roots
                    )
                    yield unit, explore_result(task.machine_id, table), metrics
                    continue
                metrics = CloudMetrics()
                key = id(task.tables)
                if key not in attached:
                    tables = stack.enter_context(attached_matrix(task.tables))
                    attached[key] = (tables, {})
                tables, filtered_cache = attached[key]
                # The rows are the join's own array, never a view of the
                # attached pages, so they outlive the batch's attachments.
                rows = machine_result_rows(
                    cloud.with_metrics(metrics),
                    task.plan,
                    tables,
                    task.machine_id,
                    task.bindings,
                    budget=JoinBudget(limit, slots, task.machine_id),
                    filtered_cache=filtered_cache,
                )
                yield unit, JoinResult(task.machine_id, rows), metrics


# -- process backend ---------------------------------------------------------

#: Worker-process state: the cloud handle arrives via the pool initializer
#: and the cloud itself is rebuilt lazily on the first task, so workers that
#: never run a task never map the segments.
_WORKER_CONTEXT: dict = {"handle": None, "cloud": None}


def _worker_initialize(handle: CloudHandle) -> None:
    _WORKER_CONTEXT["handle"] = handle
    _WORKER_CONTEXT["cloud"] = None


def _worker_cloud() -> MemoryCloud:
    cloud = _WORKER_CONTEXT["cloud"]
    if cloud is None:
        cloud = rebuild_cloud(_WORKER_CONTEXT["handle"])
        _WORKER_CONTEXT["cloud"] = cloud
    return cloud


def _worker_explore(args):
    machine_id, stwig, query, shipped_bindings, roots = args
    with _resolved_bindings(shipped_bindings, query) as bindings:
        table, metrics = _explore_unit(
            _worker_cloud(), machine_id, stwig, query, bindings, roots
        )
    # The end-to-end shared-memory path: a large table's packed buffer is
    # published once and only its spec returns.  The block lives until a
    # TableHandle.release() (or an executor error path) unlinks it — the
    # driver never maps it.
    result = explore_result(machine_id, table)
    handle = result.table
    part = None if handle.part is None else _ship_array(handle.part)
    distincts = {node: _ship_array(values) for node, values in result.distincts.items()}
    return (handle.groups, handle.row_count, handle.lengths, part, distincts), metrics


def _worker_join(args):
    machine_id, plan, matrix, shipped_bindings, budget = args
    metrics = CloudMetrics()
    scoped = _worker_cloud().with_metrics(metrics)
    try:
        with _resolved_bindings(shipped_bindings, plan.query) as bindings:
            with attached_matrix(matrix) as tables:
                # The join's own array, not a view of the attached pages.
                rows = machine_result_rows(
                    scoped, plan, tables, machine_id, bindings, budget=budget
                )
    finally:
        if budget is not None:
            # Drop this task's mapping of the budget-slot segment; the
            # driver unlinks the block after the whole batch returns.
            budget.release()
    return _ship_array(rows), metrics


def _worker_run(payload):
    """Guarded worker dispatch: errors are transported, never raised.

    A worker that raised through ``imap_unordered`` would abort the whole
    iteration and strand every sibling's shipped shared-memory block; the
    driver instead receives an ``("error", ...)`` outcome, drains the batch,
    unlinks everything the successful siblings shipped, and re-raises.
    """
    unit_index, work, args = payload
    try:
        return "ok", unit_index, work(args)
    except Exception as error:  # noqa: BLE001 - transported to the driver
        return "error", unit_index, error


class _SharedBudgetSlots:
    """Picklable, lazily attached int64 slot array for cooperative budgets.

    ``multiprocessing.Value``/``Array`` only share by inheritance and
    cannot ride through pool payloads, so the slots live in a tiny
    shared-memory block instead: the driver publishes zeros, each worker
    task attaches writable on first use and closes its mapping when the
    task ends, and the driver unlinks the block after the batch.
    Aligned 8-byte loads/stores are atomic on every platform numpy
    supports, and each slot has exactly one writer, so stale reads of
    *other* slots only under-count — always the safe direction.
    """

    def __init__(self, spec: SharedArraySpec) -> None:
        self._spec = spec
        self._segment = None
        self._view = None

    def _ensure(self) -> np.ndarray:
        if self._view is None:
            self._segment, self._view = attach_array(self._spec, writable=True)
        return self._view

    def __getitem__(self, index: int) -> int:
        return int(self._ensure()[index])

    def __setitem__(self, index: int, value: int) -> None:
        self._ensure()[index] = value

    def close(self) -> None:
        segment, self._segment, self._view = self._segment, None, None
        if segment is not None:
            segment.close()

    def __reduce__(self):
        return _SharedBudgetSlots, (self._spec,)


class _ProcessState:
    """Pool + publications owned by one :class:`ProcessExecutor`.

    Kept outside the executor so a ``weakref.finalize`` can tear it down
    without keeping the executor alive: dropping the last reference to an
    unclosed executor (or interpreter exit) still terminates the workers
    and unlinks every published segment.

    ``publications`` is the join-phase publication cache: table
    fingerprint -> shm spec for *inline* handles the executor had to
    publish itself (tables explored by another backend, or one outcome
    joined repeatedly).  The cache makes re-publication a cache hit instead
    of a new segment when the same cloud serves interleaved queries; it is
    implicitly keyed on (runtime owner, load generation) because a cloud
    switch or reload tears this whole state down.
    """

    def __init__(self) -> None:
        self.pool = None
        self.registry = None
        self.cloud_ref = lambda: None
        self.load_generation = -1
        self.publications: Dict[int, SharedArraySpec] = {}

    def teardown(self) -> None:
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
        registry, self.registry = self.registry, None
        if registry is not None:
            registry.close()
        publications, self.publications = self.publications, {}
        for spec in publications.values():
            unlink_block(spec)
        self.cloud_ref = lambda: None


class ProcessExecutor(Executor):
    """Process-pool execution over shared-memory CSR partition views.

    ``transport_counters`` exposes the backend's data movement:

    * ``explore_publications`` — tables published worker-side (handles
      returned, bytes stayed in shared memory);
    * ``explore_coalesced`` / ``driver_table_receives`` — chunk-split
      machines whose parts the driver had to reassemble (work stealing
      only; zero when tasks are unsplit);
    * ``join_publications`` / ``join_cache_hits`` — inline tables the join
      dispatch had to publish itself, and re-uses of those publications by
      later batches over the same data.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None, stealing: bool = True) -> None:
        self._workers = workers
        self.stealing = stealing
        self._state = _ProcessState()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._inflight = 0
        self.transport_counters: Dict[str, int] = {
            "explore_publications": 0,
            "explore_coalesced": 0,
            "driver_table_receives": 0,
            "join_publications": 0,
            "join_cache_hits": 0,
        }
        self._finalizer = weakref.finalize(self, _ProcessState.teardown, self._state)

    @contextmanager
    def _inflight_map(self):
        """Track an in-flight batch so close() drains before teardown.

        ``Pool.terminate()`` under an outstanding map leaves the mapping
        thread blocked forever (its result never arrives), so a concurrent
        close must wait for in-flight batches to complete before tearing
        the pool down.
        """
        with self._idle:
            self._inflight += 1
        try:
            yield
        finally:
            with self._idle:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()

    def _ensure_pool(self, cloud: MemoryCloud):
        # Key the publication on the *owning* cloud, never on the per-query
        # metrics view the engine hands the fan-outs: one resident cloud is
        # published once, no matter how many concurrent queries it serves.
        owner = cloud.runtime_owner
        state = self._state
        # Serialized: concurrent queries from the service must not race the
        # publish/pool construction (or double-publish the graph).
        with self._lock:
            if state.pool is not None:
                if (
                    state.cloud_ref() is owner
                    and state.load_generation == owner.load_generation
                ):
                    return state.pool
                # A different cloud — or the same cloud reloaded with a new
                # graph: republish and restart the workers (their cached
                # rebuild views the old segments).  A previous *other* cloud
                # must forget this executor, or closing it later would tear
                # down the new cloud's live pool and segments.
                previous = state.cloud_ref()
                state.teardown()
                if previous is not None and previous is not owner:
                    previous.deregister_runtime_resource(self)
            handle, registry = publish_cloud(owner)
            state.registry = registry
            state.cloud_ref = weakref.ref(owner)
            state.load_generation = owner.load_generation
            state.pool = multiprocessing.Pool(
                # Default sizing: one worker per machine, capped at the host CPUs.
                processes=self._workers or min(owner.machine_count, os.cpu_count() or 1),
                initializer=_worker_initialize,
                initargs=(handle,),
            )
            # The cloud tears this executor down (pool + segment unlink) on
            # close(), which is what the shared-memory leak check exercises.
            owner.register_runtime_resource(self)
            return state.pool

    def _shipped_handle(self, handle: TableHandle) -> TableHandle:
        """The pool-pipe form of one handle: published handles pass through.

        Large *inline* handles are published through the cache (keyed by
        table fingerprint), so one resident table crosses into shared
        memory at most once per cloud generation no matter how many
        interleaved queries join over it; small inline arrays just ride
        the pipe.
        """
        part = handle.part
        if not isinstance(part, np.ndarray) or part.size < _SHIP_THRESHOLD_ENTRIES:
            return handle
        with self._lock:
            spec = self._state.publications.get(handle.fingerprint)
            if spec is None:
                segment, spec = publish_array(part)
                segment.close()
                self._state.publications[handle.fingerprint] = spec
                self.transport_counters["join_publications"] += 1
            else:
                self.transport_counters["join_cache_hits"] += 1
        return TableHandle(
            handle.columns, handle.groups, handle.row_count, handle.lengths, spec,
            handle.fingerprint,
        )

    def _decode(self, unit: _Unit, payload, counts: Dict[str, int]) -> object:
        """A worker's payload as the unit's result; transport tallied in ``counts``."""
        task = unit.task
        if isinstance(task, JoinTask):
            return JoinResult(task.machine_id, _receive_array(payload))
        groups, row_count, lengths, part, distincts = payload
        counts["explore_publications"] += isinstance(part, SharedArraySpec)
        if unit.chunk_count > 1 and part is not None:
            # A chunk of a split (stolen-from) machine is coalesced by the
            # loop, so the driver has to receive it.  This is the only
            # driver-side table materialization in the backend, and it is
            # charged to its own counter.
            counts["driver_table_receives"] += 1
            part = _receive_array(part)
        received = {node: _receive_array(shipped) for node, shipped in distincts.items()}
        handle = TableHandle(task.stwig.nodes, groups, row_count, lengths, part)
        return ExploreResult(task.machine_id, handle, received)

    def _run_units(self, cloud, tasks, units):
        # Tallied per batch and folded in once, under the lock: the query
        # service runs batches from several threads at once.
        counts = {
            "explore_publications": 0,
            "explore_coalesced": len(
                {unit.task_index for unit in units if unit.chunk_count > 1}
            ),
            "driver_table_receives": 0,
        }
        registries: List = []
        bindings_cache: Dict[int, object] = {}
        matrix_cache: Dict[int, tuple] = {}
        join_limit = _shared_join_limit(tasks)
        slots = None

        def shipped_bindings_for(bindings, query):
            key = id(bindings)
            if key not in bindings_cache:
                bindings_cache[key] = _ship_bindings(bindings, query, registries)
            return bindings_cache[key]

        def shipped_matrix_for(matrix):
            key = id(matrix)
            if key not in matrix_cache:
                matrix_cache[key] = tuple(
                    tuple(self._shipped_handle(handle) for handle in machine)
                    for machine in matrix
                )
            return matrix_cache[key]

        def encode(unit_index: int, unit: _Unit) -> tuple:
            task = unit.task
            if isinstance(task, ExploreTask):
                shipped = shipped_bindings_for(task.bindings, task.query)
                args = (task.machine_id, task.stwig, task.query, shipped, unit.roots)
                return unit_index, _worker_explore, args
            shipped = shipped_bindings_for(task.bindings, task.plan.query)
            budget = (
                JoinBudget(join_limit, slots, task.machine_id)
                if join_limit is not None
                else None
            )
            matrix = shipped_matrix_for(task.tables)
            return unit_index, _worker_join, (task.machine_id, task.plan, matrix, shipped, budget)

        with self._inflight_map():
            pool = self._ensure_pool(cloud)
            try:
                if join_limit is not None:
                    registries.append(SegmentRegistry())
                    slots = _SharedBudgetSlots(
                        registries[-1].publish(np.zeros(cloud.machine_count, dtype=np.int64))
                    )
                payloads = [encode(index, unit) for index, unit in enumerate(units)]
                outcomes = pool.imap_unordered(_worker_run, payloads, chunksize=1)
                try:
                    for status, unit_index, body in outcomes:
                        if status == "error":
                            raise body
                        unit = units[unit_index]
                        yield unit, self._decode(unit, body[0], counts), body[1]
                finally:
                    # A failed or abandoned batch: wait for the sibling
                    # units and retire what they shipped, so no block is
                    # stranded and nothing is unlinked under a live worker.
                    for status, unit_index, body in outcomes:
                        if status == "ok":
                            result = self._decode(units[unit_index], body[0], counts)
                            if isinstance(result, ExploreResult):
                                result.table.release()
            finally:
                for registry in registries:
                    registry.close()
                with self._lock:
                    for key, count in counts.items():
                        self.transport_counters[key] += count

    def published_segment_names(self) -> List[str]:
        """Names of the live graph segments (empty after close)."""
        if self._state.registry is None:
            return []
        return self._state.registry.segment_names()

    def close(self) -> None:
        # Tear down directly (idempotent) rather than through the one-shot
        # finalizer: an executor reused after close() rebuilds its pool and
        # publication, and those must be closeable again.  The finalizer
        # stays armed as the GC/interpreter-exit backstop.  The lock orders
        # close() against a concurrent _ensure_pool, and the in-flight drain
        # orders it against concurrent batches, so matcher.close() and
        # MemoryCloud.close() can run in any order (or twice) safely even
        # while queries are executing.
        with self._idle:
            while self._inflight:
                self._idle.wait()
            self._state.teardown()


ExecutorSpec = Union[None, str, RuntimeConfig, Executor]


def create_executor(spec: ExecutorSpec = None, workers: Optional[int] = None) -> Executor:
    """Build an executor from a backend name, a RuntimeConfig, or nothing.

    ``None`` resolves the backend from the ``REPRO_EXECUTOR`` environment
    variable (default ``serial``); an existing :class:`Executor` instance
    passes through unchanged.  ``workers`` is the ``workers=`` kwarg every
    entry point pairs with ``executor=`` (``SubgraphMatcher``,
    ``QueryService``, ``repro.api.connect``, the CLI): it bounds the
    process backend's pool, overriding the spec's own value.

    Raises:
        ConfigurationError: an unknown backend, a non-positive ``workers``,
            or ``workers`` with an :class:`Executor` instance (whose pool
            size is fixed).
    """
    if isinstance(spec, Executor):
        if workers is not None:
            raise ConfigurationError(
                "workers= cannot resize an existing Executor instance; "
                "pass a backend name or RuntimeConfig instead"
            )
        return spec
    if not isinstance(spec, RuntimeConfig):
        spec = RuntimeConfig(backend=spec)
    if workers is not None:
        spec = replace(spec, workers=workers)
    spec.validate()
    if resolve_backend(spec.backend) == "process":
        return ProcessExecutor(workers=spec.workers, stealing=spec.stealing)
    return SerialExecutor()
