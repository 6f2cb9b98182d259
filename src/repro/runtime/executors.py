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
  each, watched together with the process sentinels), forked from the
  driver once the cloud is loaded: each worker runs its units against the
  cloud it inherited, so the graph never crosses a process boundary (a
  reload restarts the workers).  The pipes are the one transport: a
  batch's tasks go down each pipe as one pickle, and each unit's result
  (an exploration unit's factorized table, a join unit's rows) comes back
  pickled on its worker's pipe.

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
import mmap
import multiprocessing
import os
import pickle
import signal
import threading
import time
import weakref
from abc import ABC, abstractmethod
from collections import deque
from contextlib import closing, suppress
from dataclasses import replace
from multiprocessing.connection import wait
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
    explore_result,
)
from repro.errors import ConfigurationError, ExecutionError
from repro.utils.arrays import fast_unique

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


class _UnitRunner:
    """What one process does with the units of one batch it is handed.

    The serial executor holds one per batch; every worker of the process
    backend holds one per batch, over the units it happens to be dealt.
    Each distinct table matrix a batch's join tasks carry (all of them share
    the exploration matrix) gets one binding-filtered-table cache — so a
    source table is filtered once per runner however many machines' joins
    load it, while every receiver is still charged its own transfer.
    """

    def __init__(self, cloud: MemoryCloud, limit: Optional[int], slots=None) -> None:
        self._cloud = cloud
        self._limit = limit
        self._filtered: Dict[int, dict] = {}
        # One produced-count slot per machine, single writer each.  A shared
        # mapping's aligned 8-byte loads/stores are atomic, and a stale read
        # of another machine's slot only under-counts — the safe direction.
        self._slots = [0] * cloud.machine_count if slots is None else slots

    def run(self, task: object, start: int, stop: int) -> Tuple[object, CloudMetrics]:
        """One unit — a join task, or ``task.roots[start:stop]`` of an
        exploration task — against isolated metrics: ``(result, metrics)``."""
        metrics = CloudMetrics()
        scoped = self._cloud.with_metrics(metrics)
        if isinstance(task, ExploreTask):
            table = match_stwig(
                scoped, task.machine_id, task.stwig, task.query,
                bindings=task.bindings, roots=task.roots[start:stop],
            )
            return explore_result(task.machine_id, table), metrics
        rows = machine_result_rows(
            scoped, task.plan, task.tables, task.machine_id, task.bindings,
            budget=JoinBudget(self._limit, self._slots, task.machine_id),
            filtered_cache=self._filtered.setdefault(id(task.tables), {}),
        )
        return JoinResult(task.machine_id, rows), metrics


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
    # (disjoint roots, in chunk order) into one table.
    table = STwigTable.concatenate([chunk.table for chunk in chunks])
    distincts = {
        node: fast_unique(
            np.concatenate([chunk.distincts[node] for chunk in chunks if chunk.distincts])
        )
        for node in (table.columns if table.row_count else ())
    }
    return ExploreResult(task.machine_id, table, distincts)


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
        failed batch merges nothing.
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
        :class:`~repro.core.tasks.JoinResult`, ``metrics`` the isolated
        counters it ran against.  Any order is allowed; :meth:`run`
        closes the generator if the batch is abandoned.
        """

    def close(self) -> None:
        """Release the backend's workers (idempotent)."""

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
        runner = _UnitRunner(cloud, _shared_join_limit(tasks))
        for unit in units:
            yield (unit, *runner.run(unit.task, unit.start, unit.stop))


# -- process backend ---------------------------------------------------------

#: How long ``close()`` waits for terminated workers before it kills them.
_CLOSE_DEADLINE_S = 1.0

#: How workers start: a fork of the driver, which holds the loaded cloud.
_START_METHOD = "fork"


class _Open(NamedTuple):
    """A batch's first message to a worker: everything its units share.

    The message is pickled once per batch, so what the tasks share by
    identity (plan, query, bindings, the exploration table matrix) crosses
    each pipe once and arrives shared.
    """

    tasks: Sequence[object]
    limit: Optional[int]


def _worker_main(conn, cloud: MemoryCloud, slots: np.ndarray, inherited: Sequence) -> None:
    """A worker's life: serve batches over ``conn`` until the driver hangs up.

    ``cloud`` is the driver's loaded cloud as the fork copied it: the
    worker's units run against it, sharing the image's pages.  ``slots`` is
    the join budget's shared mapping, inherited the same way.

    The driver's messages are ``(opening, units, final)``: the pickled
    :class:`_Open` with a worker's first units of a batch (``None`` after),
    one ``(unit index, task index, start, stop)`` per unit dealt — each
    answered by one ``(status, unit index, body)`` — and whether the batch
    holds nothing more for this worker; a bare ``None`` says so afterwards.
    Errors are transported, never raised: the driver drains the batch and
    re-raises.
    """
    for other in inherited:
        # Driver-side pipe ends the fork copied: left open here, neither this
        # worker nor a sibling would ever read the driver's EOF.
        other.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the driver's to handle
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # not a handler the driver installed
    opened = runner = None
    while True:
        try:
            opening, dealt, final = conn.recv() or (None, (), True)
        except EOFError:
            return
        if opening is not None:
            opened = pickle.loads(opening)
            runner = _UnitRunner(cloud, opened.limit, slots)
        for unit_index, task_index, start, stop in dealt:
            try:
                outcome = "ok", unit_index, runner.run(opened.tasks[task_index], start, stop)
            except Exception as error:  # noqa: BLE001 - transported to the driver
                outcome = "error", unit_index, error
            conn.send(outcome)
        if final:
            opened = runner = None


class _Worker:
    """One worker process the executor owns, and the driver's end of its pipe."""

    def __init__(
        self, cloud: MemoryCloud, slots: np.ndarray, siblings: Sequence["_Worker"]
    ) -> None:
        # Forked, whatever the platform's default start method: the worker
        # must inherit ``cloud`` and ``slots`` rather than receive them.
        context = multiprocessing.get_context(_START_METHOD)
        self.conn, theirs = context.Pipe()
        inherited = [sibling.conn for sibling in siblings] + [self.conn]
        self.process = context.Process(
            target=_worker_main, args=(theirs, cloud, slots, inherited), daemon=True
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
    """The workers owned by one :class:`ProcessExecutor`, the cloud load
    they were forked from, and the join budget's slots they share.

    Kept outside the executor so a ``weakref.finalize`` can tear it down
    without keeping the executor alive: dropping the last reference to an
    unclosed executor (or interpreter exit) still terminates the workers.
    """

    def __init__(self) -> None:
        self.workers: List[_Worker] = []
        self.cloud_ref = lambda: None
        self.load_generation = -1
        #: One int64 produced-row count per machine, in an anonymous shared
        #: mapping made before the generation's workers fork: every worker,
        #: replacements included, inherits it.
        self.slots = np.zeros(0, dtype=np.int64)

    def teardown(self) -> None:
        workers, self.workers = self.workers, []
        _retire(workers)
        self.cloud_ref = lambda: None


class ProcessExecutor(Executor):
    """Worker processes the executor owns, each forked from the loaded cloud.

    Each worker is a forked ``multiprocessing.Process`` on one duplex pipe.
    The calling thread deals a batch's units from the one unit queue — one
    running and one waiting per worker, so stealing stays a property of the
    queue and no worker idles between units — and waits on the pipes *and*
    the process sentinels.  A worker that dies mid-batch fails the batch
    with an :class:`~repro.errors.ExecutionError` naming it and its unit:
    the siblings are drained, and it is replaced before the next batch.  One
    batch owns the pipes at a time; batches of concurrent queries take turns.

    ``transport_counters`` exposes the backend's data movement:

    * ``explore_coalesced`` — chunk-split (stolen-from) machines whose parts
      the driver concatenated (work stealing only; zero when tasks are
      unsplit);
    * ``driver_table_receives`` — the non-empty chunk tables those machines'
      parts arrived as;
    * ``explore_publications``, ``join_publications``, ``join_cache_hits``
      — always 0: nothing is published outside the pipes.  The names stay
      for the benchmark's per-layer table, until its next baseline break.
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
        # Key the workers on the *owning* cloud, never on the per-query
        # metrics view the engine hands the fan-outs: one resident cloud
        # keeps one set of workers, however many concurrent queries it serves.
        owner = cloud.runtime_owner
        state = self._state
        if state.cloud_ref() is not owner or state.load_generation != owner.load_generation:
            # The first batch, a different cloud, or the same cloud reloaded
            # with a new graph: restart the workers (each holds the cloud as
            # it was when it was forked).  A previous *other* cloud must
            # forget this executor, or closing it later would tear down the
            # new cloud's live workers.
            previous = state.cloud_ref()
            state.teardown()
            if previous is not None and previous is not owner:
                previous.deregister_runtime_resource(self)
            state.cloud_ref = weakref.ref(owner)
            state.load_generation = owner.load_generation
            state.slots = np.frombuffer(mmap.mmap(-1, 8 * owner.machine_count), dtype=np.int64)
            # The cloud tears this executor's workers down on close().
            owner.register_runtime_resource(self)
        # A worker that died, or that a broken batch left mid-conversation,
        # is replaced here; the first batch finds none and starts them all.
        spent = [worker for worker in state.workers if not worker.usable()]
        _retire(spent)
        state.workers = [worker for worker in state.workers if worker not in spent]
        # Default sizing: one worker per machine, capped at the host CPUs.
        size = self._workers or min(owner.machine_count, os.cpu_count() or 1)
        while len(state.workers) < size:
            state.workers.append(_Worker(owner, state.slots, state.workers))
        return state.workers

    def _outcomes(self, units: Sequence[_Unit], messages: deque, opening: bytes):
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
        # One batch owns the pipes, the budget slots and the transport
        # counters at a time.
        with self._lock:
            workers = self._ensure_workers(cloud)
            self.transport_counters["explore_coalesced"] += len(
                {unit.task_index for unit in units if unit.chunk_count > 1}
            )
            if join_limit is not None:
                self._state.slots[:] = 0
            opening = pickle.dumps(_Open(tasks, join_limit), pickle.HIGHEST_PROTOCOL)
            messages = deque(
                (index, unit.task_index, unit.start, unit.stop) for index, unit in enumerate(units)
            )
            try:
                for status, unit_index, body in self._outcomes(units, messages, opening):
                    if status == "error":
                        raise body
                    unit, (result, metrics) = units[unit_index], body
                    if unit.chunk_count > 1 and result.table.row_count:
                        # A chunk of a split (stolen-from) machine, which the
                        # loop concatenates on the driver.
                        self.transport_counters["driver_table_receives"] += 1
                    yield unit, result, metrics
            finally:
                # A failed or abandoned batch: nothing more is dealt, and the
                # units already handed over are waited for, so every live
                # worker is back between batches.
                messages.clear()
                for _ in self._outcomes(units, messages, opening):
                    pass
                for worker in workers:
                    if worker.opened:
                        with suppress(OSError):  # dead: replaced before the next batch
                            worker.conn.send(None)
                            worker.opened = False

    def close(self) -> None:
        # Tear down directly (idempotent) rather than through the one-shot
        # finalizer: an executor reused after close() restarts its workers,
        # and those must be closeable again.  A batch holds the lock for its
        # whole length, so close() drains the in-flight one first, and
        # matcher.close() and MemoryCloud.close() can run in any order (or
        # twice) while queries execute.  The teardown is bounded.
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
