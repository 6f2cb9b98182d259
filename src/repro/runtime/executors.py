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
* :class:`ProcessExecutor` — worker processes it owns (one duplex pipe
  each, watched together with the process sentinels) over shared-memory CSR
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

import itertools
import multiprocessing
import os
import pickle
import signal
import threading
import time
import weakref
from abc import ABC, abstractmethod
from collections import deque
from contextlib import ExitStack, closing, suppress
from dataclasses import replace
from multiprocessing.connection import wait
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import RuntimeConfig, resolve_backend
from repro.cloud.metrics import CloudMetrics
from repro.core.bindings import BindingTable
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
from repro.runtime.shared_cloud import CloudHandle, publish_cloud, rebuild_cloud
from repro.utils.arrays import fast_unique
from repro.utils.shm import (
    SegmentRegistry,
    SharedArraySpec,
    attach_array,
    publish_array,
    sweep_blocks,
)

#: Arrays at or above this entry count travel between processes through a
#: one-shot shared-memory block instead of a pickle down the pipe (two
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


def _ship_array(array: np.ndarray, publish: Callable[[np.ndarray], SharedArraySpec]):
    """Sender-side: a large array crosses a pipe as its ``publish``-ed spec."""
    if array.size < _SHIP_THRESHOLD_ENTRIES:
        return array
    return publish(array)


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


def _ship_bindings(bindings, query: QueryGraph, publish) -> Optional[Dict[str, object]]:
    """Driver-side: a binding table as ``{bound node: shipped candidates}``."""
    if bindings is None:
        return None
    return {
        node: _ship_array(array, publish)
        for node in query.nodes()
        if (array := bindings.candidates_array(node)) is not None
    }


class _UnitRunner:
    """What one process does with the units of one batch it is handed.

    The serial executor holds one per batch; every worker of the process
    backend holds one per batch, over the units it happens to be dealt.
    Whatever the batch's tasks share by identity is attached once and kept
    until :meth:`close`: shipped bindings, shipped roots, and each distinct
    handle matrix (all join tasks of a batch share the exploration matrix)
    together with one binding-filtered-table cache — so a source table is
    filtered once per runner however many machines' joins load it, while
    every receiver is still charged its own transfer.
    """

    def __init__(self, cloud: MemoryCloud, limit: Optional[int], slots=None) -> None:
        self._cloud = cloud
        self._limit = limit
        self._stack = ExitStack()
        self._built: Dict[int, object] = {}
        # One produced-count slot per machine, single writer each.  A shared
        # block's aligned 8-byte loads/stores are atomic, and a stale read of
        # another machine's slot only under-counts — the safe direction.
        self._slots = [0] * cloud.machine_count if slots is None else self.view(slots, True)

    def _once(self, payload, build):
        """``build(payload)``, once per batch and distinct payload."""
        if id(payload) not in self._built:
            self._built[id(payload)] = build(payload)
        return self._built[id(payload)]

    def view(self, shipped, writable: bool = False):
        """A shipped array as an array: a spec stays attached until :meth:`close`."""
        if isinstance(shipped, SharedArraySpec):
            segment, shipped = attach_array(shipped, writable)
            self._stack.callback(segment.close)
        return shipped

    def _bindings(self, payload, query: QueryGraph):
        """The binding table a task carries, or the one its shipped form describes
        (adopting the sorted, possibly shared-memory, arrays without copying)."""
        if not isinstance(payload, dict):
            return payload

        def bind(shipped):
            bindings = BindingTable(query)
            for node, array in shipped.items():
                bindings.bind(node, self.view(array))
            return bindings

        return self._once(payload, bind)

    def run(self, task: object, start: int, stop: int) -> Tuple[object, CloudMetrics]:
        """One unit — a join task, or ``task.roots[start:stop]`` of an
        exploration task — against isolated metrics: ``(result, metrics)``."""
        metrics = CloudMetrics()
        scoped = self._cloud.with_metrics(metrics)
        if isinstance(task, ExploreTask):
            table = match_stwig(
                scoped, task.machine_id, task.stwig, task.query,
                bindings=self._bindings(task.bindings, task.query),
                roots=self._once(task.roots, self.view)[start:stop],
            )
            return explore_result(task.machine_id, table), metrics
        # One attachment and one filtered-table cache per distinct matrix.
        tables, filtered = self._once(
            task.tables, lambda matrix: (self._stack.enter_context(attached_matrix(matrix)), {})
        )
        # The rows are the join's own array, never a view of the attached
        # pages, so they outlive the batch's attachments.
        rows = machine_result_rows(
            scoped, task.plan, tables, task.machine_id,
            self._bindings(task.bindings, task.plan.query),
            budget=JoinBudget(self._limit, self._slots, task.machine_id),
            filtered_cache=filtered,
        )
        return JoinResult(task.machine_id, rows), metrics

    def close(self) -> None:
        """Drop every attachment (the views die first)."""
        self._built.clear()
        self._slots = None
        self._stack.close()


class _Unit(NamedTuple):
    """One schedulable piece of a batch: a join task, or the chunk
    ``task.roots[start:stop]`` of an exploration task."""

    task_index: int
    chunk_index: int
    chunk_count: int
    task: object
    start: int
    stop: int


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
                chunks = [()]
            else:
                raise ExecutionError(f"unknown task type {type(task).__name__}")
            # Chunks are consecutive slices: each starts where the last stopped.
            stops = list(itertools.accumulate(map(len, chunks)))
            units.extend(
                _Unit(index, chunk_index, len(chunks), task, stop - len(chunk), stop)
                for chunk_index, (chunk, stop) in enumerate(zip(chunks, stops))
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
        """Release workers and shared-memory publications (idempotent)."""

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
        with closing(_UnitRunner(cloud, _shared_join_limit(tasks))) as runner:
            for unit in units:
                yield (unit, *runner.run(unit.task, unit.start, unit.stop))


# -- process backend ---------------------------------------------------------

#: How long ``close()`` waits for terminated workers before it kills them.
_CLOSE_DEADLINE_S = 1.0

#: Process-wide batch numbers: part of the names of worker-published blocks.
_batch_numbers = itertools.count(1)


class _Open(NamedTuple):
    """A batch's first message to a worker: everything its units share.

    ``tasks`` are the batch's tasks with bindings, roots and handle matrix in
    shipped form.  The message is pickled once per batch, so what the tasks
    share by identity (plan, query, bindings, matrix) crosses each pipe once
    and arrives shared.  ``names.format(worker pid, n)`` is the name of the
    ``n``-th block a worker publishes during the batch.
    """

    tasks: Sequence[object]
    limit: Optional[int]
    slots: Optional[SharedArraySpec]
    names: str


def _worker_main(conn, handle: CloudHandle, inherited: Sequence) -> None:
    """A worker's life: serve batches over ``conn`` until the driver hangs up.

    The driver's messages are ``(opening, units, final)``: the pickled
    :class:`_Open` with a worker's first units of a batch (``None`` after),
    one ``(unit index, task index, start, stop)`` per unit dealt — each
    answered by one ``(status, unit index, body)`` — and whether the batch
    holds nothing more for this worker; a bare ``None`` says so afterwards.
    Errors are transported, never raised: the driver drains the batch,
    unlinks everything the successful siblings shipped, and re-raises.
    """
    for other in inherited:
        # Driver-side pipe ends the fork copied: left open here, neither this
        # worker nor a sibling would ever read the driver's EOF.
        other.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the driver's to handle
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # not a handler the driver installed
    cloud = opened = runner = names = None
    while True:
        try:
            opening, dealt, final = conn.recv() or (None, (), True)
        except EOFError:
            return
        if opening is not None:
            opened = pickle.loads(opening)
            names = map(opened.names.format, itertools.repeat(os.getpid()), itertools.count())
        for unit_index, task_index, start, stop in dealt:
            try:
                if cloud is None:  # on the first unit: an idle worker maps nothing
                    cloud = rebuild_cloud(handle)
                if runner is None:
                    runner = _UnitRunner(cloud, opened.limit, opened.slots)
                result, metrics = runner.run(opened.tasks[task_index], start, stop)
                outcome = "ok", unit_index, (_shipped_result(result, names), metrics)
            except Exception as error:  # noqa: BLE001 - transported to the driver
                outcome = "error", unit_index, error
            conn.send(outcome)
        if final:
            if runner is not None:
                runner.close()
            opened = runner = None


def _shipped_result(result, names: Iterator[str]):
    """Worker-side: a unit's result in pipe form.

    A large array is published once and only its spec returns; a table's
    block lives until a ``TableHandle.release()`` (or an executor error
    path) unlinks it — the driver never maps it.
    """

    def publish(array: np.ndarray) -> SharedArraySpec:
        segment, spec = publish_array(array, name=next(names))
        segment.close()  # the worker's mapping only: the driver unlinks
        return spec

    if isinstance(result, JoinResult):
        return _ship_array(result.rows, publish)
    handle = result.table
    part = None if handle.part is None else _ship_array(handle.part, publish)
    distincts = {node: _ship_array(values, publish) for node, values in result.distincts.items()}
    return handle.groups, handle.row_count, handle.lengths, part, distincts


class _Worker:
    """One worker process the executor owns, and the driver's end of its pipe."""

    def __init__(self, handle: CloudHandle, siblings: Sequence["_Worker"]) -> None:
        self.conn, theirs = multiprocessing.Pipe()
        inherited = [sibling.conn for sibling in siblings] + [self.conn]
        self.process = multiprocessing.Process(
            target=_worker_main, args=(theirs, handle, inherited), daemon=True
        )
        self.process.start()
        theirs.close()
        #: Unit indexes handed over and not yet answered, oldest first.
        self.sent: List[int] = []
        #: True while the worker holds a batch open: from its :class:`_Open`
        #: until it has been told the batch holds nothing more for it.
        self.opened = False

    def usable(self) -> bool:
        """Alive and between batches: anything else is replaced, never resynchronised."""
        return self.process.is_alive() and not self.sent and not self.opened


def _retire(workers: Sequence[_Worker]) -> None:
    """Terminate and reap ``workers``, within :data:`_CLOSE_DEADLINE_S` in all."""
    for worker in workers:
        worker.process.terminate()
    deadline = time.monotonic() + _CLOSE_DEADLINE_S
    for worker in workers:
        worker.process.join(max(0.0, deadline - time.monotonic()))
        if worker.process.exitcode is None:
            # Stopped or wedged: a SIGTERM stays pending, a SIGKILL does not.
            worker.process.kill()
            worker.process.join()
        worker.process.close()
        worker.conn.close()


class _ProcessState:
    """Workers + the graph publication owned by one :class:`ProcessExecutor`.

    Kept outside the executor so a ``weakref.finalize`` can tear it down
    without keeping the executor alive: dropping the last reference to an
    unclosed executor (or interpreter exit) still terminates the workers
    and unlinks every published segment.
    """

    def __init__(self) -> None:
        self.workers: List[_Worker] = []
        self.handle: Optional[CloudHandle] = None
        self.registry = None
        self.cloud_ref = lambda: None
        self.load_generation = -1

    def teardown(self) -> None:
        workers, self.workers = self.workers, []
        _retire(workers)
        registry, self.registry = self.registry, None
        if registry is not None:
            registry.close()
        self.cloud_ref = lambda: None


class ProcessExecutor(Executor):
    """Worker processes the executor owns, over shared-memory CSR partition views.

    Each worker is a forked ``multiprocessing.Process`` on one duplex pipe.
    The calling thread deals a batch's units from the one unit queue — one
    running and one waiting per worker, so stealing stays a property of the
    queue and no worker idles between units — and waits on the pipes *and*
    the process sentinels.  A worker that dies mid-batch fails the batch
    with an :class:`~repro.errors.ExecutionError` naming it and its unit:
    what it published and never reported is swept by name, the siblings are
    drained, and it is replaced before the next batch.  One batch owns the
    pipes at a time; batches of concurrent queries take turns.

    ``transport_counters`` exposes the backend's data movement:

    * ``explore_publications`` — tables published worker-side (handles
      returned, bytes stayed in shared memory);
    * ``explore_coalesced`` / ``driver_table_receives`` — chunk-split
      machines whose parts the driver had to reassemble (work stealing
      only; zero when tasks are unsplit);
    * ``join_publications`` — inline tables a join batch had to publish
      itself (for the length of the batch), counted once per batch, not per
      join task or worker: the handle matrix is shipped and pickled once,
      and crosses each pipe once;
    * ``join_cache_hits`` — always 0: the cross-batch publication cache it
      counted is gone (every query's handles are fresh, so it never hit and
      only stranded segments).  The name stays for the benchmark's per-layer
      table and is retired with the next ``benchmark`` PR.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None, stealing: bool = True) -> None:
        self._workers = workers
        self.stealing = stealing
        self._state = _ProcessState()
        # Held by a batch for its whole length, and by close().
        self._lock = threading.RLock()
        self.transport_counters: Dict[str, int] = dict.fromkeys(
            ("explore_publications", "explore_coalesced", "driver_table_receives",
             "join_publications", "join_cache_hits"), 0,
        )
        self._finalizer = weakref.finalize(self, _ProcessState.teardown, self._state)

    def _ensure_workers(self, cloud: MemoryCloud) -> List[_Worker]:
        # Key the publication on the *owning* cloud, never on the per-query
        # metrics view the engine hands the fan-outs: one resident cloud is
        # published once, no matter how many concurrent queries it serves.
        owner = cloud.runtime_owner
        state = self._state
        if state.cloud_ref() is not owner or state.load_generation != owner.load_generation:
            # The first batch, a different cloud, or the same cloud reloaded
            # with a new graph: (re)publish and restart the workers (their
            # cached rebuild views the old segments).  A previous *other*
            # cloud must forget this executor, or closing it later would
            # tear down the new cloud's live workers and segments.
            previous = state.cloud_ref()
            state.teardown()
            if previous is not None and previous is not owner:
                previous.deregister_runtime_resource(self)
            state.handle, state.registry = publish_cloud(owner)
            state.cloud_ref = weakref.ref(owner)
            state.load_generation = owner.load_generation
            # The cloud tears this executor down (workers + segment unlink) on
            # close(), which is what the shared-memory leak check exercises.
            owner.register_runtime_resource(self)
        # A worker that died, or that a broken batch left mid-conversation,
        # is replaced here; the first batch finds none and starts them all.
        spent = [worker for worker in state.workers if not worker.usable()]
        _retire(spent)
        state.workers = [worker for worker in state.workers if worker not in spent]
        # Default sizing: one worker per machine, capped at the host CPUs.
        size = self._workers or min(owner.machine_count, os.cpu_count() or 1)
        while len(state.workers) < size:
            state.workers.append(_Worker(state.handle, state.workers))
        return state.workers

    def _encoded(self, tasks: Sequence[object], publish) -> List[object]:
        """The batch's tasks in pipe form; what they share stays shared."""
        shipped: Dict[int, object] = {}

        def once(payload, ship, *args):
            if id(payload) not in shipped:
                shipped[id(payload)] = ship(payload, *args)
            return shipped[id(payload)]

        def ship_handle(handle: TableHandle) -> TableHandle:
            if not isinstance(handle.part, np.ndarray):
                return handle  # empty, or published by the worker that built it
            # A large *inline* table (a stolen-from machine's, coalesced on
            # the driver) is published like the batch's roots and bindings,
            # and dies with the batch; a small one rides the pipe.
            part = _ship_array(handle.part, publish)
            if part is handle.part:
                return handle
            self.transport_counters["join_publications"] += 1
            return TableHandle(
                handle.columns, handle.groups, handle.row_count, handle.lengths, part
            )

        def ship_matrix(matrix):
            return tuple(tuple(map(ship_handle, machine)) for machine in matrix)

        return [
            replace(
                task,
                bindings=once(task.bindings, _ship_bindings, task.query, publish),
                roots=_ship_array(task.roots, publish),
            )
            if isinstance(task, ExploreTask)
            else replace(
                task,
                bindings=once(task.bindings, _ship_bindings, task.plan.query, publish),
                tables=once(task.tables, ship_matrix),
            )
            for task in tasks
        ]

    def _decode(self, unit: _Unit, payload) -> object:
        """A worker's payload as the unit's result (the batch's lock is held)."""
        task = unit.task
        if isinstance(task, JoinTask):
            return JoinResult(task.machine_id, _receive_array(payload))
        groups, row_count, lengths, part, distincts = payload
        self.transport_counters["explore_publications"] += isinstance(part, SharedArraySpec)
        if unit.chunk_count > 1 and part is not None:
            # A chunk of a split (stolen-from) machine is coalesced by the
            # loop, so the driver has to receive it.  This is the only
            # driver-side table materialization in the backend, and it is
            # charged to its own counter.
            self.transport_counters["driver_table_receives"] += 1
            part = _receive_array(part)
        received = {node: _receive_array(shipped) for node, shipped in distincts.items()}
        handle = TableHandle(task.stwig.nodes, groups, row_count, lengths, part)
        return ExploreResult(task.machine_id, handle, received)

    def _outcomes(self, units: Sequence[_Unit], messages: deque, opening: bytes, names: str):
        """Deal ``messages`` (the unit queue) to the workers and yield each
        ``(status, unit index, body)`` as it comes back; a worker found dead
        yields the error of the unit it was running."""
        workers = self._state.workers

        def hand(worker: _Worker, dealt: List[tuple]) -> None:
            if not dealt:
                return
            final = not messages
            try:
                worker.conn.send((None if worker.opened else opening, dealt, final))
            except OSError:
                messages.extendleft(reversed(dealt))  # dead: the queue is the others'
                return
            worker.opened = not final
            worker.sent.extend(message[0] for message in dealt)

        # One unit each and one to look ahead, in one message per worker.
        dealt = [messages.popleft() for _ in range(min(len(messages), 2 * len(workers)))]
        for index, worker in enumerate(workers):
            hand(worker, dealt[index :: len(workers)])
        while busy := [worker for worker in workers if worker.sent]:
            ready = wait(
                [worker.conn for worker in busy] + [worker.process.sentinel for worker in busy]
            )
            for worker in busy:
                outcome = None
                if worker.conn in ready:
                    try:
                        outcome = worker.conn.recv()
                    except (EOFError, OSError):
                        pass
                elif worker.process.sentinel not in ready:
                    continue
                if outcome is None:
                    unit = units[worker.sent[0]]
                    worker.process.join(_CLOSE_DEADLINE_S)
                    # What it published and never reported; what it did
                    # report is retired with the rest of the failed batch.
                    sweep_blocks(names.format(worker.process.pid, ""))
                    outcome = "error", worker.sent[0], ExecutionError(
                        f"worker {worker.process.pid} died (exit code "
                        f"{worker.process.exitcode}) running the {type(unit.task).__name__} "
                        f"of machine {unit.task.machine_id}, chunk "
                        f"{unit.chunk_index + 1}/{unit.chunk_count}"
                    )
                    worker.sent.clear()
                else:
                    worker.sent.remove(outcome[1])
                    hand(worker, [messages.popleft()] if messages else [])
                yield outcome
        if messages:
            raise ExecutionError("no live worker is left to run the batch")

    def _run_units(self, cloud, tasks, units):
        join_limit = _shared_join_limit(tasks)
        # One batch owns the pipes (and the transport counters) at a time.
        # The registry owns what the driver ships by shared memory for the
        # length of the batch: large roots and bindings, the budget slots.
        with self._lock, SegmentRegistry() as registry:
            workers = self._ensure_workers(cloud)
            self.transport_counters["explore_coalesced"] += len(
                {unit.task_index for unit in units if unit.chunk_count > 1}
            )
            slots = None
            if join_limit is not None:
                slots = registry.publish(np.zeros(cloud.machine_count, dtype=np.int64))
            names = f"repro-{os.getpid()}-{{}}-{next(_batch_numbers)}-{{}}"
            opening = pickle.dumps(
                _Open(self._encoded(tasks, registry.publish), join_limit, slots, names),
                pickle.HIGHEST_PROTOCOL,
            )
            messages = deque(
                (index, unit.task_index, unit.start, unit.stop) for index, unit in enumerate(units)
            )
            try:
                for status, unit_index, body in self._outcomes(units, messages, opening, names):
                    if status == "error":
                        raise body
                    unit = units[unit_index]
                    yield unit, self._decode(unit, body[0]), body[1]
            finally:
                # A failed or abandoned batch: nothing more is dealt, the
                # units already handed over are waited for and what they
                # shipped is retired, so no block is stranded and nothing
                # is unlinked under a live worker.
                messages.clear()
                for status, unit_index, body in self._outcomes(units, messages, opening, names):
                    if status == "ok":
                        result = self._decode(units[unit_index], body[0])
                        if isinstance(result, ExploreResult):
                            result.table.release()
                for worker in workers:
                    if worker.opened:
                        with suppress(OSError):  # dead: replaced before the next batch
                            worker.conn.send(None)
                            worker.opened = False

    def published_segment_names(self) -> List[str]:
        """Names of the live graph segments (empty after close)."""
        if self._state.registry is None:
            return []
        return self._state.registry.segment_names()

    def close(self) -> None:
        # Tear down directly (idempotent) rather than through the one-shot
        # finalizer: an executor reused after close() rebuilds its workers
        # and publication, and those must be closeable again.  A batch holds
        # the lock for its whole length, so close() drains the in-flight one
        # first, and matcher.close() and MemoryCloud.close() can run in any
        # order (or twice) while queries execute.  The teardown is bounded.
        with self._lock:
            self._state.teardown()


ExecutorSpec = Union[None, str, RuntimeConfig, Executor]


def create_executor(spec: ExecutorSpec = None, workers: Optional[int] = None) -> Executor:
    """Build an executor from a backend name, a RuntimeConfig, or nothing.

    ``None`` resolves the backend from the ``REPRO_EXECUTOR`` environment
    variable (default ``serial``); an existing :class:`Executor` instance
    passes through unchanged.  ``workers`` is the ``workers=`` kwarg every
    entry point pairs with ``executor=`` (``SubgraphMatcher``,
    ``QueryService``, ``repro.api.connect``, the CLI): it bounds the
    process backend's workers, overriding the spec's own value.

    Raises:
        ConfigurationError: an unknown backend, a non-positive ``workers``,
            or ``workers`` with an :class:`Executor` instance (whose worker
            count is fixed).
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
