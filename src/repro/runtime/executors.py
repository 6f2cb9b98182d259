"""Pluggable executors behind the uniform ``Executor.run`` task interface.

The paper's query engine is distributed: every machine matches STwigs over
its partition *concurrently*.  The reproduction models that cluster with
one process, and its machines are an accounting model: the engine
describes each exploration stage as one
:class:`~repro.core.tasks.ExploreTask` over all of the stage's roots, and
:meth:`Executor.run` — the one fan-out loop — cuts it into units (chunks of
its roots) and schedules them.  A backend is only *how the loop's units
get run*:

* :class:`SerialExecutor` — runs units inline, in unit order, each stage
  as one unit.  This is the parity oracle: the other backend must produce
  row-for-row identical results.
* :class:`ProcessExecutor` — worker processes it owns (one duplex pipe
  each, watched together with the process sentinels), forked from the
  driver once the cloud is loaded: each worker runs its units against the
  cloud it inherited, so the graph never crosses a process boundary (a
  reload restarts the workers).  The pipes are the one transport: a
  batch's task goes down each pipe as one pickle, and each chunk's
  factorized stage table comes back pickled on its worker's pipe.

The join is not an executor task: the machines join in machine order in
the calling process, against one countdown
(:func:`~repro.core.distributed.assemble_results`).

Work stealing: a backend whose units run concurrently has the loop cut
each stage's roots into a few bounded chunks per worker, queued
individually, so host parallelism follows the worker count, never the
simulated machine count.  A chunk may cut through a machine's range: chunks
concatenate in chunk order to exactly the unchunked stage.

Metric faithfulness is structural: every unit runs against a
metrics-scoped view of the cloud (:meth:`MemoryCloud.with_metrics`), and
the loop merges the isolated counters back in unit order.  Counter totals
are sums, so every schedule reproduces the serial counters, all of them,
with or without a row limit.
"""

from __future__ import annotations

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
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import RuntimeConfig, resolve_backend
from repro.cloud.metrics import CloudMetrics
from repro.core.matcher import match_stage
from repro.core.result import StageTable
from repro.core.tasks import ExploreTask
from repro.errors import ConfigurationError, ExecutionError

#: Work stealing: a stage's roots are cut into up to ``_STEAL_CHUNKS_PER_WORKER``
#: chunks per worker, of at least ``_STEAL_MIN_ROOTS`` roots each (stages
#: below twice the minimum stay whole), which bounds the coalesce cost.
_STEAL_MIN_ROOTS = 4_096
_STEAL_CHUNKS_PER_WORKER = 2


def _root_chunks(count: int, parts: int) -> List[Tuple[int, int]]:
    """Cut a stage's ``count`` roots into at most ``parts`` bounded chunks,
    as consecutive ``(start, stop)`` ranges."""
    parts = max(1, min(parts, count // _STEAL_MIN_ROOTS))
    cuts = [count * part // parts for part in range(parts + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


class _Unit(NamedTuple):
    """One schedulable piece of a task: the chunk ``roots[start:stop]`` of
    an exploration stage, ``index``-th in the stage."""

    index: int
    start: int
    stop: int


def _run_unit(
    cloud: MemoryCloud, task: ExploreTask, unit: _Unit
) -> Tuple[StageTable, CloudMetrics]:
    """One chunk of a stage against isolated metrics: ``(table, metrics)``.

    The serial executor runs every chunk with it; a process-backend worker
    runs the chunks it is dealt.
    """
    metrics = CloudMetrics()
    start, stop = unit.start, unit.stop
    stage = match_stage(
        cloud.with_metrics(metrics), task.stwig, task.query, task.bindings,
        task.roots[start:stop], np.clip(task.cuts, start, stop) - start,
    )
    return stage, metrics


class Executor(ABC):
    """The fan-out loop; a backend supplies only :meth:`_run_units`."""

    name: str = "abstract"

    #: Whether exploration stages are cut into stealable chunks — worth it
    #: only for a backend whose units run concurrently.
    stealing: bool = False

    def run(self, cloud: MemoryCloud, task: ExploreTask) -> StageTable:
        """Run one exploration stage and return its
        :class:`~repro.core.result.StageTable`.

        The stage's units are chunks of its roots.  Each unit's isolated
        :class:`CloudMetrics` are merged into ``cloud.metrics`` in unit
        order after the task.  A failed task merges nothing.
        """
        if not isinstance(task, ExploreTask):
            raise ExecutionError(f"unknown task type {type(task).__name__}")
        parts = _STEAL_CHUNKS_PER_WORKER * self._parallelism() if self.stealing else 1
        chunks = _root_chunks(len(task.roots), parts)
        units = [_Unit(index, start, stop) for index, (start, stop) in enumerate(chunks)]
        # done[unit] -> (table, metrics) once that unit completed.
        done: List[Optional[tuple]] = [None] * len(units)
        with closing(self._run_units(cloud, task, units)) as completed:
            for unit, result, metrics in completed:
                done[unit.index] = (result, metrics)
        for _, metrics in done:
            cloud.metrics.merge(metrics)
        return StageTable.concatenate([result for result, _ in done])

    def _parallelism(self) -> int:
        """How many units the backend runs at once (what chunking follows)."""
        return 1

    @abstractmethod
    def _run_units(
        self, cloud: MemoryCloud, task: ExploreTask, units: Sequence[_Unit]
    ) -> Iterator[Tuple[_Unit, StageTable, CloudMetrics]]:
        """Run every unit of ``task``, yielding ``(unit, table, metrics)``
        as each completes.

        ``table`` is the chunk's :class:`~repro.core.result.StageTable`,
        ``metrics`` the isolated counters it ran against.  Any order is
        allowed; :meth:`run` closes the generator if the task is abandoned.
        """

    def close(self) -> None:
        """Release the backend's workers (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """Inline execution in unit order, a stage at a time — the parity oracle."""

    name = "serial"

    def _run_units(self, cloud, task, units):
        for unit in units:
            yield (unit, *_run_unit(cloud, task, unit))


# -- process backend ---------------------------------------------------------

#: How long ``close()`` waits for terminated workers before it kills them.
_CLOSE_DEADLINE_S = 1.0

#: How workers start: a fork of the driver, which holds the loaded cloud.
_START_METHOD = "fork"


def _worker_main(conn, cloud: MemoryCloud, inherited: Sequence) -> None:
    """A worker's life: serve batches over ``conn`` until the driver hangs up.

    ``cloud`` is the driver's loaded cloud as the fork copied it: the
    worker's units run against it, sharing the image's pages.

    The driver's messages are ``(opening, units, final)``: the pickled task
    with a worker's first units of a batch (``None`` after), one unit per
    unit dealt — each answered by one ``(status, unit index, body)`` — and
    whether the batch holds nothing more for this worker; a bare ``None``
    says so afterwards.  A batch is one task: everything its units share
    (STwig, query, bindings, roots) crosses each pipe once.  Errors
    are transported, never raised: the driver drains the batch and
    re-raises.
    """
    for other in inherited:
        # Driver-side pipe ends the fork copied: left open here, neither this
        # worker nor a sibling would ever read the driver's EOF.
        other.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the driver's to handle
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # not a handler the driver installed
    task = None
    while True:
        try:
            opening, dealt, final = conn.recv() or (None, (), True)
        except EOFError:
            return
        if opening is not None:
            task = pickle.loads(opening)
        for unit in dealt:
            try:
                outcome = "ok", unit.index, _run_unit(cloud, task, unit)
            except Exception as error:  # noqa: BLE001 - transported to the driver
                outcome = "error", unit.index, error
            conn.send(outcome)
        if final:
            task = None


class _Worker:
    """One worker process the executor owns, and the driver's end of its pipe."""

    def __init__(self, cloud: MemoryCloud, siblings: Sequence["_Worker"]) -> None:
        # Forked, whatever the platform's default start method: the worker
        # must inherit ``cloud`` rather than receive it.
        context = multiprocessing.get_context(_START_METHOD)
        self.conn, theirs = context.Pipe()
        inherited = [sibling.conn for sibling in siblings] + [self.conn]
        self.process = context.Process(
            target=_worker_main, args=(theirs, cloud, inherited), daemon=True
        )
        self.process.start()
        theirs.close()
        #: Unit indexes handed over and not yet answered, oldest first.
        self.sent: List[int] = []
        #: True while the worker holds a batch open: from its pickled task
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
    """The workers owned by one :class:`ProcessExecutor` and the cloud load
    they were forked from.

    Kept outside the executor so a ``weakref.finalize`` can tear it down
    without keeping the executor alive: dropping the last reference to an
    unclosed executor (or interpreter exit) still terminates the workers.
    """

    def __init__(self) -> None:
        self.workers: List[_Worker] = []
        self.cloud_ref = lambda: None
        self.load_generation = -1

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

    * ``explore_coalesced`` — stages cut into chunks whose tables the driver
      concatenated (work stealing only; zero when stages are unsplit);
    * ``driver_table_receives`` — the non-empty chunk tables those stages
      arrived as;
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

    def _parallelism(self) -> int:
        # Default sizing: one worker per host CPU, whatever the machine count.
        return self._workers or os.cpu_count() or 1

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
            # The cloud tears this executor's workers down on close().
            owner.register_runtime_resource(self)
        # A worker that died, or that a broken batch left mid-conversation,
        # is replaced here; the first batch finds none and starts them all.
        spent = [worker for worker in state.workers if not worker.usable()]
        _retire(spent)
        state.workers = [worker for worker in state.workers if worker not in spent]
        size = self._parallelism()
        while len(state.workers) < size:
            state.workers.append(_Worker(owner, state.workers))
        return state.workers

    def _outcomes(self, task: object, units: Sequence[_Unit], messages: deque, opening: bytes):
        """Deal ``messages`` (the queue of ``task``'s ``units``) to the
        workers and yield each ``(status, unit index, body)`` as it comes
        back; a worker found dead yields the error of the unit it was running."""
        workers = self._state.workers

        def hand(worker: _Worker, dealt: List[_Unit]) -> None:
            if not dealt:
                return
            final = not messages
            try:
                worker.conn.send((None if worker.opened else opening, dealt, final))
            except OSError:
                messages.extendleft(reversed(dealt))  # dead: the queue is the others'
                return
            worker.opened = not final
            worker.sent.extend(unit.index for unit in dealt)

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
                    index = worker.sent[0]
                    worker.process.join(_CLOSE_DEADLINE_S)
                    outcome = "error", index, ExecutionError(
                        f"worker {worker.process.pid} died (exit code "
                        f"{worker.process.exitcode}) running the {type(task).__name__} "
                        f"of stage {task.stwig}, chunk {index + 1}/{len(units)}"
                    )
                    worker.sent.clear()
                else:
                    worker.sent.remove(outcome[1])
                    hand(worker, [messages.popleft()] if messages else [])
                yield outcome
        if messages:
            raise ExecutionError("no live worker is left to run the batch")

    def _run_units(self, cloud, task, units):
        # A stage cut into chunks, which the loop concatenates on the driver.
        split = len(units) > 1
        # One batch owns the pipes and the transport counters at a time.
        with self._lock:
            workers = self._ensure_workers(cloud)
            self.transport_counters["explore_coalesced"] += split
            opening = pickle.dumps(task, pickle.HIGHEST_PROTOCOL)
            messages = deque(units)
            try:
                for status, unit_index, body in self._outcomes(task, units, messages, opening):
                    if status == "error":
                        raise body
                    result, metrics = body
                    if split and result.table.row_count:
                        self.transport_counters["driver_table_receives"] += 1
                    yield units[unit_index], result, metrics
            finally:
                # A failed or abandoned batch: nothing more is dealt, and the
                # units already handed over are waited for, so every live
                # worker is back between batches.
                messages.clear()
                for _ in self._outcomes(task, units, messages, opening):
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
