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
neighbor slices of every root are concatenated once and each leaf slot is
resolved with a single vectorized label probe (or binding intersection)
over that flat array, leaving every slot as a CSR column — flat values
plus per-root bounds.  Step 4 is batched the same way (:func:`_row_blocks`):
the candidate rows of *all* roots are numbered by one flat index (a root
owns as many as the product of its slot lengths), and any range of that
index is decoded into rows by mixed-radix arithmetic over the per-root
slot lengths — one gather per column, whatever the leaf count.  Rows come
out in nested-loop order (roots ascending, first leaf slowest) in blocks
of at most ``_BLOCK_ROWS`` candidates, so the builder's working set stays
bounded.  The communication accounting is faithful to the per-node model —
one ``hasLabel`` probe is charged per neighbor, per unbound leaf, only for
roots still alive (a root whose earlier slot came up empty stops probing,
exactly like a per-node loop).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.cluster import MemoryCloud
from repro.core.bindings import BindingTable
from repro.core.result import MatchTable
from repro.core.stwig import STwig
from repro.errors import ExecutionError
from repro.graph.labeled_graph import NODE_DTYPE, OFFSET_DTYPE
from repro.query.query_graph import QueryGraph

#: Candidate rows decoded per block: bounds the builder's working set.
_BLOCK_ROWS = 1 << 15

#: Row counts are float64 products; below this bound they are exact integers.
_MAX_EXACT_ROWS = float(1 << 53)


def match_stwig(
    cloud: MemoryCloud,
    machine_id: int,
    stwig: STwig,
    query: QueryGraph,
    bindings: Optional[BindingTable] = None,
    roots: Optional[np.ndarray] = None,
) -> MatchTable:
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
        A :class:`MatchTable` with columns ``(root, *leaves)`` whose rows are
        data-node IDs.  Root nodes are always local to ``machine_id``; leaf
        nodes may be remote.
    """
    if roots is None:
        roots = _root_candidates(
            cloud, machine_id, stwig, query.label(stwig.root), bindings
        )
    blocks = list(_stwig_blocks(cloud, machine_id, stwig, query, bindings, roots))
    if not blocks:
        return MatchTable(stwig.nodes)
    # One write of the whole table; a single block is the table as it is.
    return MatchTable(stwig.nodes, blocks[0] if len(blocks) == 1 else np.concatenate(blocks))


def _stwig_blocks(
    cloud: MemoryCloud,
    machine_id: int,
    stwig: STwig,
    query: QueryGraph,
    bindings: Optional[BindingTable],
    roots: np.ndarray,
) -> Iterator[np.ndarray]:
    """Row blocks of ``stwig`` for ``roots``, in root order (steps 2-4)."""
    labels = [query.label(node) for node in stwig.nodes]
    # Injectivity only needs checking between columns of equal label: a data
    # node has one label, so differently-labeled columns cannot collide.
    distinct_pairs = [
        (low, high)
        for high in range(len(labels))
        for low in range(high)
        if labels[low] == labels[high]
    ]
    slots = _resolve_slots(cloud, machine_id, stwig, labels[1:], bindings, roots)
    if slots is not None:
        yield from _row_blocks(roots, *slots, distinct_pairs, stwig)


def _resolve_slots(
    cloud: MemoryCloud,
    machine_id: int,
    stwig: STwig,
    leaf_labels: Sequence[str],
    bindings: Optional[BindingTable],
    roots: np.ndarray,
) -> Optional[Tuple[List[np.ndarray], List[np.ndarray]]]:
    """Leaf candidates of every root as CSR columns ``(values, bounds)``.

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
    offsets = np.zeros(len(roots) + 1, dtype=OFFSET_DTYPE)
    np.cumsum(counts, out=offsets[1:])
    entry_root = np.repeat(np.arange(len(roots), dtype=OFFSET_DTYPE), counts)
    owners: Optional[np.ndarray] = None  # computed on the first unbound leaf

    # Resolve each leaf slot over the flat neighbor array; a root dies when a
    # slot comes up empty, and dead roots are excluded from later probes.
    alive = np.ones(len(roots), dtype=bool)
    slot_values: List[np.ndarray] = []
    slot_bounds: List[np.ndarray] = []
    for leaf, leaf_label in zip(stwig.leaves, leaf_labels):
        entry_alive = alive[entry_root]
        if bindings is not None and bindings.is_bound(leaf):
            # Membership in the binding set already implies the right label,
            # so no label probe (and no network traffic) is needed.
            kept = entry_alive & bindings.membership_mask(leaf, neighbors)
        else:
            if owners is None:
                owners = cloud.owners_of_array(neighbors)
            probe_at = np.flatnonzero(entry_alive)
            hit = cloud.batch_has_label(
                neighbors[probe_at],
                leaf_label,
                requester=machine_id,
                owners=owners[probe_at],
            )
            kept = np.zeros(len(neighbors), dtype=bool)
            kept[probe_at[hit]] = True
        alive &= np.bincount(
            entry_root[kept], minlength=len(roots)
        ).astype(bool)
        if not alive.any():
            return None
        slot_values.append(neighbors[kept])
        slot_bounds.append(np.searchsorted(np.flatnonzero(kept), offsets))
    return slot_values, slot_bounds


def _row_blocks(
    roots: np.ndarray,
    slot_values: Sequence[np.ndarray],
    slot_bounds: Sequence[np.ndarray],
    distinct_pairs: Sequence[Tuple[int, int]],
    stwig: STwig,
    block_rows: int = _BLOCK_ROWS,
) -> Iterator[np.ndarray]:
    """The one STwig row constructor: ``(rows, 1 + k)`` blocks for any ``k``.

    Root ``i`` owns ``prod_k len_k[i]`` candidate rows — one per choice of a
    value from each of its slots — numbered consecutively across roots by a
    flat row index.  A row's offset within its root is a mixed-radix number
    whose digits (last slot least significant) are its slot positions, so
    rows come out in nested-loop order: roots ascending, first slot slowest.
    Blocks are cut on the flat index, ``block_rows`` candidates at a time
    (a boundary may fall mid-root); each keeps the candidates whose
    ``distinct_pairs`` columns (0 = root) differ.

    Raises:
        ExecutionError: when the candidate count is too large to index.
    """
    lengths = [bounds[1:] - bounds[:-1] for bounds in slot_bounds]
    per_root = np.ones(len(roots))
    for length in lengths:
        per_root *= length
    if not per_root.sum() < _MAX_EXACT_ROWS:
        worst = int(np.argmax(per_root))
        raise ExecutionError(
            f"{stwig} has {per_root.sum():.3g} candidate rows in one root chunk "
            f"({per_root[worst]:.3g} under root {int(roots[worst])}): "
            "too many to enumerate"
        )
    row_starts = np.zeros(len(roots) + 1, dtype=OFFSET_DTYPE)
    np.cumsum(per_root, out=row_starts[1:], dtype=OFFSET_DTYPE)
    total = int(row_starts[-1])
    for low in range(0, total, block_rows):
        high = min(low + block_rows, total)
        first, last = np.searchsorted(row_starts, (low, high - 1), side="right") - 1
        cuts = np.minimum(np.maximum(row_starts[first : last + 2], low), high)
        owner = np.repeat(np.arange(first, last + 1), cuts[1:] - cuts[:-1])
        digits = np.arange(low, high, dtype=OFFSET_DTYPE) - row_starts[owner]
        block = np.empty((high - low, 1 + len(lengths)), dtype=NODE_DTYPE)
        block[:, 0] = roots[owner]
        for slot in range(len(lengths) - 1, -1, -1):
            # The most significant digit is whatever the others left over.
            if slot:
                digits, position = np.divmod(digits, lengths[slot][owner])
            else:
                position = digits
            block[:, slot + 1] = slot_values[slot][slot_bounds[slot][owner] + position]
        keep = np.ones(len(block), dtype=bool)
        for left, right in distinct_pairs:
            keep &= block[:, left] != block[:, right]
        yield block if keep.all() else block.compress(keep, axis=0)


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
