"""STwig matching against the memory cloud (the paper's Algorithm 1).

``MatchSTwig`` finds, on one machine, all embeddings of a two-level tree
whose root resides on that machine:

1. root candidates come from the machine's local label index
   (``Index.getID``) — or, when the root query node is already bound by
   earlier STwigs, from the binding set restricted to local nodes;
2. each root's neighbor IDs are loaded (``Cloud.Load``) as a zero-copy CSR
   slice;
3. each child slot is filled with neighbors that carry the required label
   (``Index.hasLabel``) and survive the binding filter;
4. the per-slot candidate lists are combined into rows, enforcing that
   distinct query leaves map to distinct data nodes.

The simulated machines are an accounting model, not separate passes: one
kernel, :func:`match_stage`, runs steps 2-3 for a whole exploration stage
over its owner-ordered roots (from :func:`_stage_root_partition`), machine
``m``'s being ``roots[cuts[m] : cuts[m + 1]]``: one batched cell load, one
gather of every neighbor's label and owner from the cloud's per-node tags,
and one compare (or binding intersection) per leaf slot, leaving each slot
a CSR column — flat values plus per-root bounds.  It returns the factorized
:class:`~repro.core.result.StageTable`; step 4 happens at the join, for
the rows the join reads.  :func:`match_stwig` is the kernel over one
machine's roots.  The accounting is the per-node model's, machine by
machine: one local load per root, and one ``hasLabel`` probe per neighbor
per unbound leaf, from the root's machine to the neighbor's owner, only for
roots still alive (a root whose earlier slot came up empty stops probing).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cloud.cluster import MemoryCloud
from repro.core.bindings import BindingTable
from repro.core.result import StageTable, STwigTable
from repro.core.stwig import STwig
from repro.graph.labeled_graph import OFFSET_DTYPE
from repro.query.query_graph import QueryGraph


def match_stwig(
    cloud: MemoryCloud,
    machine_id: int,
    stwig: STwig,
    query: QueryGraph,
    bindings: Optional[BindingTable] = None,
    roots: Optional[np.ndarray] = None,
) -> STwigTable:
    """Find all matches of ``stwig`` rooted on ``machine_id``: the kernel
    over that machine's roots alone, which a fused stage equals range by range.

    Args:
        cloud: the memory cloud holding the data graph.
        machine_id: the machine whose local nodes serve as STwig roots.
        stwig: the STwig to match.
        query: the query graph (provides label constraints).
        bindings: optional binding table from previously processed STwigs.
        roots: optional precomputed local root candidates (a sorted
            ``NODE_DTYPE`` array); when omitted they are the machine's share
            of :func:`_stage_root_partition`.

    Returns:
        The :class:`STwigTable` with columns ``(root, *leaves)``: no row is
        built here.  Root nodes are always local to ``machine_id``; leaf
        nodes may be remote.
    """
    if roots is None:
        roots, cuts = _stage_root_partition(
            cloud, stwig, query.label(stwig.root), bindings, machine_id
        )
    else:
        cuts = np.where(np.arange(cloud.machine_count + 1) > machine_id, len(roots), 0)
    return match_stage(cloud, stwig, query, bindings, roots, cuts).table


def match_stage(
    cloud: MemoryCloud,
    stwig: STwig,
    query: QueryGraph,
    bindings: Optional[BindingTable],
    roots: np.ndarray,
    cuts: np.ndarray,
) -> StageTable:
    """Every match of ``stwig`` rooted at ``roots``, in one pass.

    ``roots`` are owner-ordered: machine ``m``'s are ``roots[cuts[m] :
    cuts[m + 1]]``, ascending, and its matches are that range of the
    returned :class:`StageTable` — row for row what a pass over those roots
    alone builds, charged the same.  Roots are independent, so any
    consecutive chunk of them (with ``cuts`` clipped to it) yields that
    chunk of the stage.
    """
    labels = [query.label(node) for node in stwig.nodes]
    slots = _resolve_slots(cloud, stwig, labels[1:], bindings, roots, cuts)
    if slots is None:
        return StageTable.empty(stwig.nodes, cloud.machine_count)
    # Injectivity only needs checking between columns of equal label: a data
    # node has one label, so differently-labeled columns cannot collide.
    by_label: Dict[str, List[int]] = {}
    for index, label in enumerate(labels):
        by_label.setdefault(label, []).append(index)
    groups = [tuple(group) for group in by_label.values() if len(group) > 1]
    roots, values, bounds, cuts = slots
    return STwigTable.from_slots(stwig.nodes, groups, roots, values, bounds, cuts=cuts)


def _resolve_slots(
    cloud: MemoryCloud,
    stwig: STwig,
    leaf_labels: Sequence[str],
    bindings: Optional[BindingTable],
    roots: np.ndarray,
    cuts: np.ndarray,
) -> Optional[Tuple[np.ndarray, List[np.ndarray], List[np.ndarray], np.ndarray]]:
    """``(roots, values, bounds, cuts)``: the roots with a candidate for every leaf.

    ``values[k][bounds[k][i] : bounds[k][i + 1]]`` are the neighbors of
    ``roots[i]`` that may fill leaf ``k``, in neighbor order, and ``cuts``
    the machine ranges of the surviving roots.  ``None`` means no root has a
    candidate for every leaf.
    """
    # Load every root's cell once (one Cloud.Load each, as in Algorithm 1),
    # gathered in a single batched call into one flat neighbor array.  Each
    # machine loads its own roots: the loads are local.
    neighbors, counts = cloud.load_cells(roots, cuts)
    # Root i's cell is neighbors[cells[i] : cells[i + 1]].
    cells = np.zeros(len(roots) + 1, dtype=OFFSET_DTYPE)
    np.cumsum(counts, out=cells[1:])
    kept_before = np.zeros(len(neighbors) + 1, dtype=OFFSET_DTYPE)
    # Every neighbor's label and owner, from one tag gather on the first
    # unbound leaf, and the machine probing it (its root's); each later leaf
    # reuses them.
    labels: Optional[np.ndarray] = None
    owners: Optional[np.ndarray] = None
    requesters: Union[int, np.ndarray, None] = None

    # Resolve each leaf slot over the flat neighbor array; a root dies when a
    # slot comes up empty, and dead roots are excluded from later probes.
    # entry_alive stays None while every root is alive.
    living = len(roots)
    entry_alive: Optional[np.ndarray] = None
    slot_kept: List[np.ndarray] = []
    slot_lengths: List[np.ndarray] = []
    for leaf, leaf_label in zip(stwig.leaves, leaf_labels):
        if bindings is not None and bindings.is_bound(leaf):
            # Membership in the binding set already implies the right label,
            # so no label probe (and no network traffic) is needed.
            kept = bindings.membership_mask(leaf, neighbors)
        else:
            if labels is None:
                labels, owners = cloud.labels_and_owners(neighbors)
                requesters = _requesters(cuts, counts)
            probing = slice(None) if entry_alive is None else entry_alive
            cloud.charge_label_probes(
                requesters if isinstance(requesters, int) else requesters[probing],
                owners[probing],
            )
            # Graph nodes' labels are >= 0, so a never-interned label (-1)
            # keeps nothing.
            kept = labels == cloud.label_table.id_of(leaf_label)
        if entry_alive is not None:
            kept &= entry_alive
        np.cumsum(kept, out=kept_before[1:])
        lengths = kept_before[cells[1:]] - kept_before[cells[:-1]]
        alive = lengths > 0
        survivors = int(np.count_nonzero(alive))
        if survivors == 0:
            return None
        if survivors < living:
            living = survivors
            entry_alive = np.repeat(alive, counts)
        slot_kept.append(kept)
        slot_lengths.append(lengths)
    # Only the surviving roots leave: a root a later slot killed takes the
    # entries it had in the earlier ones with it.
    if entry_alive is not None:
        roots = roots[alive]
        cuts = np.concatenate(([0], np.cumsum(alive)))[cuts]
        slot_kept = [kept & entry_alive for kept in slot_kept]
        slot_lengths = [lengths[alive] for lengths in slot_lengths]
    slot_values = [neighbors[kept] for kept in slot_kept]
    slot_bounds = []
    for lengths in slot_lengths:
        bounds = np.zeros(len(roots) + 1, dtype=OFFSET_DTYPE)
        np.cumsum(lengths, out=bounds[1:])
        slot_bounds.append(bounds)
    return roots, slot_values, slot_bounds, cuts


def _requesters(cuts: np.ndarray, counts: np.ndarray) -> Union[int, np.ndarray]:
    """The machine probing each neighbor entry (its root's): one machine ID
    when a single range holds every root, else one per entry."""
    sizes = cuts[1:] - cuts[:-1]
    occupied = np.flatnonzero(sizes)
    if len(occupied) == 1:
        return int(occupied[0])
    return np.repeat(np.repeat(np.arange(len(sizes)), sizes), counts)


def _stage_root_partition(
    cloud: MemoryCloud,
    stwig: STwig,
    root_label: str,
    bindings: Optional[BindingTable],
    machine: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One stage's root candidates, owner-ordered, and their machine cuts.

    Machine ``m``'s candidates are ``roots[cuts[m] : cuts[m + 1]]``, in
    ascending ID order.  A bound root's binding array is split by owner with
    one ``owners_of_array`` and one stable argsort; an unbound root is each
    machine's local label index answer, charged one index lookup per
    machine as in the per-node model.  Owner resolution is proxy-side
    partition-map arithmetic and is not charged.  ``machine`` keeps that
    machine's candidates alone.
    """
    machine_count = cloud.machine_count
    if bindings is not None and bindings.is_bound(stwig.root):
        bound = bindings.candidates_array(stwig.root)
        owners = cloud.owners_of_array(bound)
        if machine is not None:
            mine = owners == machine
            bound, owners = bound[mine], owners[mine]
        order = np.argsort(owners, kind="stable")
        return bound[order], np.searchsorted(owners[order], np.arange(machine_count + 1))
    machines = range(machine_count) if machine is None else [machine]
    local = [cloud.get_local_ids_array(m, root_label) for m in machines]
    sizes = np.zeros(machine_count, dtype=np.int64)
    sizes[list(machines)] = [len(ids) for ids in local]
    roots = local[0] if len(local) == 1 else np.concatenate(local)
    return roots, np.concatenate(([0], np.cumsum(sizes)))
