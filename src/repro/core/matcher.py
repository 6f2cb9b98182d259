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

Steps 2-3 run *batched across all roots* (:func:`_resolve_slots`): the
neighbor slices of every root are concatenated once, every neighbor's label
and owner come out of one gather from the cloud's per-node tags, and each
leaf slot is resolved with one compare against those labels (or one
binding intersection) over that flat array, leaving every slot as a CSR
column — flat values plus per-root bounds.  That is where
:func:`match_stwig` stops: it returns the factorized
:class:`~repro.core.result.STwigTable`, whose row count and binding
distincts are arithmetic on the slots.  Step 4 happens at the join,
and only for the rows the join reads (``STwigTable.row_blocks`` /
``to_array``, after the final binding filter has shrunk the slots).  The
communication accounting is faithful to the per-node model — one
``hasLabel`` probe is charged per neighbor, per unbound leaf, against the
neighbor's owner, only for roots still alive (a root whose earlier slot came
up empty stops probing, exactly like a per-node loop).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.cluster import MemoryCloud
from repro.core.bindings import BindingTable
from repro.core.result import STwigTable
from repro.core.stwig import STwig
from repro.graph.labeled_graph import NODE_DTYPE, OFFSET_DTYPE
from repro.query.query_graph import QueryGraph


def match_stwig(
    cloud: MemoryCloud,
    machine_id: int,
    stwig: STwig,
    query: QueryGraph,
    bindings: Optional[BindingTable] = None,
    roots: Optional[np.ndarray] = None,
) -> STwigTable:
    """Find all matches of ``stwig`` rooted on ``machine_id``.

    Args:
        cloud: the memory cloud holding the data graph.
        machine_id: the machine whose local nodes serve as STwig roots.
        stwig: the STwig to match.
        query: the query graph (provides label constraints).
        bindings: optional binding table from previously processed STwigs.
        roots: optional precomputed local root candidates (a sorted
            ``NODE_DTYPE`` array).  The exploration driver partitions each
            stage's candidates by owner once and hands every machine its
            slice, so the binding array is not re-scanned per machine; when
            omitted the candidates are derived here.

    Returns:
        The :class:`STwigTable` with columns ``(root, *leaves)``: no row is
        built here.  Root nodes are always local to ``machine_id``; leaf
        nodes may be remote.
    """
    if roots is None:
        roots = _root_candidates(
            cloud, machine_id, stwig, query.label(stwig.root), bindings
        )
    labels = [query.label(node) for node in stwig.nodes]
    slots = _resolve_slots(cloud, machine_id, stwig, labels[1:], bindings, roots)
    if slots is None:
        return STwigTable(stwig.nodes)
    # Injectivity only needs checking between columns of equal label: a data
    # node has one label, so differently-labeled columns cannot collide.
    by_label: Dict[str, List[int]] = {}
    for index, label in enumerate(labels):
        by_label.setdefault(label, []).append(index)
    groups = [tuple(group) for group in by_label.values() if len(group) > 1]
    return STwigTable.from_slots(stwig.nodes, groups, *slots)


def _resolve_slots(
    cloud: MemoryCloud,
    machine_id: int,
    stwig: STwig,
    leaf_labels: Sequence[str],
    bindings: Optional[BindingTable],
    roots: np.ndarray,
) -> Optional[Tuple[np.ndarray, List[np.ndarray], List[np.ndarray]]]:
    """``(roots, values, bounds)``: the roots with a candidate for every leaf.

    ``values[k][bounds[k][i] : bounds[k][i + 1]]`` are the neighbors of
    ``roots[i]`` that may fill leaf ``k``, in neighbor order.  ``None``
    means no root has a candidate for every leaf.
    """
    # Load every root's cell once (one Cloud.Load each, as in Algorithm 1),
    # gathered in a single batched call into one flat neighbor array.  Roots
    # are local to this machine by construction, so the owner is known.
    neighbors, counts = cloud.load_neighbors_batch(
        roots, requester=machine_id, owner=machine_id
    )
    # Root i's cell is neighbors[cells[i] : cells[i + 1]].
    cells = np.zeros(len(roots) + 1, dtype=OFFSET_DTYPE)
    np.cumsum(counts, out=cells[1:])
    kept_before = np.zeros(len(neighbors) + 1, dtype=OFFSET_DTYPE)
    # Every neighbor's label and owner, from one tag gather on the first
    # unbound leaf; each later leaf reuses them.
    labels: Optional[np.ndarray] = None
    owners: Optional[np.ndarray] = None

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
            cloud.charge_label_probes(
                machine_id, owners if entry_alive is None else owners[entry_alive]
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
        slot_kept = [kept & entry_alive for kept in slot_kept]
        slot_lengths = [lengths[alive] for lengths in slot_lengths]
    slot_values = [neighbors[kept] for kept in slot_kept]
    slot_bounds = []
    for lengths in slot_lengths:
        bounds = np.zeros(len(roots) + 1, dtype=OFFSET_DTYPE)
        np.cumsum(lengths, out=bounds[1:])
        slot_bounds.append(bounds)
    return roots, slot_values, slot_bounds


def _root_candidates(
    cloud: MemoryCloud,
    machine_id: int,
    stwig: STwig,
    root_label: str,
    bindings: Optional[BindingTable],
) -> np.ndarray:
    """Local root candidates as a sorted ``NODE_DTYPE`` array.

    Uses the binding array when the root is bound; the owner-restricted
    slice is returned directly (no list round-trip), so the batched loads
    consume it as-is.
    """
    if bindings is not None and bindings.is_bound(stwig.root):
        bound = bindings.candidates_array(stwig.root)
        if bound is None or len(bound) == 0:
            return np.empty(0, dtype=NODE_DTYPE)
        owners = cloud.owners_of_array(bound)
        return bound[owners == machine_id]
    return cloud.get_local_ids_array(machine_id, root_label)
