"""Communication and access accounting for the simulated memory cloud.

Because the whole cluster runs inside one Python process, wall-clock time
does not reflect distribution costs.  Every cross-machine interaction is
therefore *counted* here — cell loads, label probes, partial-result
transfers — and converted into simulated seconds by the
:class:`~repro.cloud.config.NetworkModel`.  The Figure 9 speed-up and the
load-set ablation benchmarks are reproduced from these counters.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.cloud.config import NetworkModel


@dataclass
class CloudMetrics:
    """Mutable counters accumulated during graph loading and query execution."""

    local_loads: int = 0
    remote_loads: int = 0
    local_label_probes: int = 0
    remote_label_probes: int = 0
    index_lookups: int = 0
    messages: int = 0
    bytes_transferred: int = 0
    result_rows_shipped: int = 0
    result_rows_filtered: int = 0
    join_rows_materialized: int = 0
    join_peak_intermediate_rows: int = 0
    #: STwig rows actually built (expanded from factorized tables) for the join.
    stwig_rows_built: int = 0
    per_pair_messages: Dict[Tuple[int, int], int] = field(
        default_factory=lambda: defaultdict(int)
    )

    # -- recording ---------------------------------------------------------

    def record_load(self, requester: int, owner: int, neighbor_count: int) -> None:
        """Record a Cloud.Load(id) issued by ``requester`` for a cell on ``owner``."""
        if requester == owner:
            self.local_loads += 1
            return
        self.remote_loads += 1
        # Request message plus a response carrying the neighbor list.
        payload = 16 + 8 * neighbor_count
        self._record_message(requester, owner, 16)
        self._record_message(owner, requester, payload)

    def record_loads(
        self, requester: int, owner: int, count: int, total_neighbors: int
    ) -> None:
        """Record ``count`` cell loads at once (batched hot path).

        ``total_neighbors`` is the summed neighbor count of the loaded
        cells.  Accounting is identical to ``count`` calls of
        :meth:`record_load`.
        """
        if count <= 0:
            return
        if requester == owner:
            self.local_loads += count
            return
        self.remote_loads += count
        self._record_messages(requester, owner, count, 16)
        # Responses: 16 bytes fixed + 8 per neighbor, summed over all cells.
        self.messages += count
        self.bytes_transferred += 16 * count + 8 * total_neighbors
        self.per_pair_messages[(owner, requester)] += count

    def record_label_probe(self, requester: int, owner: int) -> None:
        """Record an Index.hasLabel(id, label) probe."""
        self.record_label_probes(requester, owner, 1)

    def record_label_probes(self, requester: int, owner: int, count: int) -> None:
        """Record ``count`` hasLabel probes at once (batched hot path).

        Accounting is identical to ``count`` calls of
        :meth:`record_label_probe` — same probe, message, and byte counters —
        so batched and per-node execution produce the same metrics.
        """
        if count <= 0:
            return
        if requester == owner:
            self.local_label_probes += count
            return
        self.remote_label_probes += count
        self._record_messages(requester, owner, count, 24)
        self._record_messages(owner, requester, count, 1)

    def record_index_lookup(self) -> None:
        """Record a local Index.getID(label) lookup (local: no message)."""
        self.index_lookups += 1

    def record_result_transfer(self, sender: int, receiver: int, rows: int, row_width: int) -> None:
        """Record shipping ``rows`` partial-result tuples of ``row_width`` node IDs."""
        if sender == receiver:
            return
        self.result_rows_shipped += rows
        self._record_message(sender, receiver, 16 + rows * row_width * 8)

    def record_result_filter(self, sender: int, receiver: int, rows: int) -> None:
        """Record ``rows`` result tuples dropped sender-side before shipping.

        The final binding filter runs on the owning machine (bindings are
        global knowledge after exploration), so rows it removes are never
        serialized.  They are counted here explicitly — separate from
        ``result_rows_shipped`` — so the saving stays visible and the
        invariant ``shipped(filtered) + filtered == shipped(unfiltered)``
        can be asserted.  Local (same-machine) gathers never shipped, so
        nothing is recorded for them.
        """
        if sender == receiver or rows <= 0:
            return
        self.result_rows_filtered += rows

    def record_join_materialization(self, rows: int, peak: int) -> None:
        """Record one machine's join-phase materialization counters.

        ``rows`` is the total row count assembled into join buffers
        (intermediate and final-stage chunks, pre-injectivity-filter);
        ``peak`` is that machine's largest single materialization.  The
        streaming budgeted join keeps both O(limit + chunk) on limited
        queries — these counters are what make the claim observable.
        """
        if rows > 0:
            self.join_rows_materialized += rows
        if peak > self.join_peak_intermediate_rows:
            self.join_peak_intermediate_rows = peak

    def _record_message(self, sender: int, receiver: int, size_bytes: int) -> None:
        self._record_messages(sender, receiver, 1, size_bytes)

    def _record_messages(
        self, sender: int, receiver: int, count: int, size_bytes_each: int
    ) -> None:
        self.messages += count
        self.bytes_transferred += size_bytes_each * count
        self.per_pair_messages[(sender, receiver)] += count

    # -- aggregation -------------------------------------------------------

    def merge(self, other: "CloudMetrics") -> None:
        """Fold ``other``'s counters into this instance."""
        self.local_loads += other.local_loads
        self.remote_loads += other.remote_loads
        self.local_label_probes += other.local_label_probes
        self.remote_label_probes += other.remote_label_probes
        self.index_lookups += other.index_lookups
        self.messages += other.messages
        self.bytes_transferred += other.bytes_transferred
        self.result_rows_shipped += other.result_rows_shipped
        self.result_rows_filtered += other.result_rows_filtered
        self.join_rows_materialized += other.join_rows_materialized
        self.stwig_rows_built += other.stwig_rows_built
        # Peaks aggregate by max, not sum: the query's peak is the largest
        # single materialization any machine performed.
        if other.join_peak_intermediate_rows > self.join_peak_intermediate_rows:
            self.join_peak_intermediate_rows = other.join_peak_intermediate_rows
        for pair, count in other.per_pair_messages.items():
            self.per_pair_messages[pair] += count

    def simulated_network_seconds(self, model: NetworkModel) -> float:
        """Simulated time spent on network communication (batched latency model)."""
        return model.network_seconds(self.messages, self.bytes_transferred)

    def simulated_compute_seconds(self, model: NetworkModel) -> float:
        """Simulated time spent on local store operations."""
        local_ops = (
            self.local_loads
            + self.local_label_probes
            + self.remote_loads
            + self.remote_label_probes
            + self.index_lookups
        )
        return local_ops * model.local_op_cost

    def simulated_total_seconds(self, model: NetworkModel) -> float:
        """Total simulated time (compute + network)."""
        return self.simulated_compute_seconds(model) + self.simulated_network_seconds(model)

    def snapshot(self) -> Dict[str, int]:
        """Return a plain-dict snapshot of the scalar counters."""
        return {
            "local_loads": self.local_loads,
            "remote_loads": self.remote_loads,
            "local_label_probes": self.local_label_probes,
            "remote_label_probes": self.remote_label_probes,
            "index_lookups": self.index_lookups,
            "messages": self.messages,
            "bytes_transferred": self.bytes_transferred,
            "result_rows_shipped": self.result_rows_shipped,
            "result_rows_filtered": self.result_rows_filtered,
            "join_rows_materialized": self.join_rows_materialized,
            "join_peak_intermediate_rows": self.join_peak_intermediate_rows,
            "stwig_rows_built": self.stwig_rows_built,
        }

    def reset(self) -> None:
        """Zero all counters."""
        self.local_loads = 0
        self.remote_loads = 0
        self.local_label_probes = 0
        self.remote_label_probes = 0
        self.index_lookups = 0
        self.messages = 0
        self.bytes_transferred = 0
        self.result_rows_shipped = 0
        self.result_rows_filtered = 0
        self.join_rows_materialized = 0
        self.join_peak_intermediate_rows = 0
        self.stwig_rows_built = 0
        self.per_pair_messages.clear()
