"""Configuration of the simulated memory cloud and its execution runtime."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.graph.partition import HashPartitioner, Partitioner
from repro.utils.validation import require_non_negative, require_positive

#: Executor backends of the cluster runtime (see :mod:`repro.runtime`).
EXECUTOR_BACKENDS: Tuple[str, ...] = ("serial", "process")

#: Environment variable selecting the default executor backend.
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve an executor backend name, falling back to the environment.

    ``None`` reads :data:`EXECUTOR_ENV_VAR` (``REPRO_EXECUTOR``) and
    defaults to ``"serial"``; any explicit or environment value must be one
    of :data:`EXECUTOR_BACKENDS`.  This is the single knob the CI matrix
    turns to run the whole test suite against each backend.
    """
    if backend is None:
        backend = os.environ.get(EXECUTOR_ENV_VAR) or "serial"
    if backend not in EXECUTOR_BACKENDS:
        raise ConfigurationError(
            f"unknown executor backend {backend!r}; expected one of {EXECUTOR_BACKENDS}"
        )
    return backend


@dataclass(frozen=True)
class RuntimeConfig:
    """Execution-runtime knobs: which executor runs the task batches.

    Attributes:
        backend: ``"serial"`` (in-process, the parity oracle) or
            ``"process"`` (worker processes forked from the loaded cloud,
            which they inherit; tasks and results cross their pipes).
            ``None`` defers to the ``REPRO_EXECUTOR`` environment variable.
        workers: how many worker processes the process backend forks;
            ``None`` forks ``min(machine_count, cpu_count)``.
        stealing: whether the process backend splits skewed machines'
            exploration roots into chunks idle workers can steal.
            Results and metrics are schedule-independent; this is a
            wall-clock knob only.
    """

    backend: Optional[str] = None
    workers: Optional[int] = None
    stealing: bool = True

    def validate(self) -> None:
        if self.backend is not None:
            resolve_backend(self.backend)
        if self.workers is not None:
            require_positive(self.workers, "workers")


@dataclass(frozen=True)
class NetworkModel:
    """Cost model converting message/byte counts into simulated seconds.

    The defaults are loosely calibrated to the paper's gigabit cluster:
    ~0.1 ms latency per message round trip and ~1 Gbps effective bandwidth.
    Trinity merges small messages into batches before transmission
    ("message merging and batch transmission", Section 2.2), so the latency
    term is charged per batch of ``messages_per_batch`` messages rather than
    per message, while the byte term always reflects the full volume.  Only
    the *relative* costs matter for reproducing the shape of the scaling
    experiments.
    """

    latency_per_message: float = 1e-4
    seconds_per_byte: float = 8e-9
    local_op_cost: float = 2e-7
    messages_per_batch: int = 512

    def validate(self) -> None:
        require_non_negative(self.latency_per_message, "latency_per_message")
        require_non_negative(self.seconds_per_byte, "seconds_per_byte")
        require_non_negative(self.local_op_cost, "local_op_cost")
        require_positive(self.messages_per_batch, "messages_per_batch")

    def network_seconds(self, messages: int, bytes_transferred: int) -> float:
        """Simulated network time for a message/byte volume (batched latency)."""
        if messages <= 0 and bytes_transferred <= 0:
            return 0.0
        batches = -(-max(0, messages) // self.messages_per_batch)  # ceil division
        return (
            batches * self.latency_per_message
            + max(0, bytes_transferred) * self.seconds_per_byte
        )


@dataclass(frozen=True)
class ClusterConfig:
    """Static configuration of a :class:`~repro.cloud.cluster.MemoryCloud`.

    Attributes:
        machine_count: number of simulated machines holding partitions.
        partitioner: node -> machine assignment policy (paper default:
            hash partitioning).
        network: message/byte cost model for simulated communication time.
        track_label_pairs: whether to record, for every pair of machines,
            the label pairs connected by a cross-machine edge.  This is the
            metadata the paper's *cluster graph* is built from; disabling it
            saves memory when the optimization is not needed.
    """

    machine_count: int = 4
    partitioner: Partitioner = field(default_factory=HashPartitioner)
    network: NetworkModel = field(default_factory=NetworkModel)
    track_label_pairs: bool = True

    def validate(self) -> None:
        require_positive(self.machine_count, "machine_count")
        self.network.validate()
