"""Exploration-phase coverage: narrowing, early exit, and array-vs-set parity.

These tests pin down the array-native exploration phase:

* binding narrowing across 3+ STwigs that share query nodes (the
  sequential-intersection semantics of Section 4.2, step 2);
* the early-exit padding shape after a mid-plan binding wipe-out, and the
  cached :attr:`ExplorationOutcome.empty` regression;
* randomized equivalence of :class:`BindingTable` narrowing against a set
  model, and of the full engine against VF2;
* the filtered-gather accounting invariant
  ``shipped(filtered) + filtered == shipped(unfiltered)``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.baselines.vf2 import vf2_match
from repro.cloud.metrics import CloudMetrics
from repro.core.bindings import BindingTable
from repro.core.distributed import _gather_machine_tables, assemble_results
from repro.core.exploration import explore
from repro.core.head_selection import full_load_sets
from repro.core.planner import MatcherConfig, QueryPlan, QueryPlanner
from repro.core.result import STwigTable
from repro.core.stwig import STwig
from repro.graph.labeled_graph import LabeledGraph
from repro.query.generators import dfs_query
from repro.query.query_graph import QueryGraph

from tests.helpers import (
    bound_set,
    canonical_queries,
    make_cloud,
    nested_loop_stwig_rows,
    seeded_graph,
)


def manual_plan(query, stwigs, machine_count, config=MatcherConfig()):
    """A fully deterministic plan: explicit STwig order, full load sets."""
    return QueryPlan(
        query=query,
        stwigs=list(stwigs),
        head_index=0,
        load_sets=full_load_sets(len(stwigs), 0, machine_count),
        machine_count=machine_count,
        config=config,
    )


class TestBindingNarrowing:
    """Narrowing across three single-leaf STwigs sharing every query node."""

    def triangle_with_decoy(self) -> LabeledGraph:
        # Triangle 1(a)-2(b)-3(c) plus a decoy a-b edge 4(a)-5(b) whose 'b'
        # node has no 'c' neighbor: the decoy survives STwig 0 and must be
        # narrowed away by the later STwigs.
        labels = {1: "a", 2: "b", 3: "c", 4: "a", 5: "b"}
        edges = [(1, 2), (2, 3), (3, 1), (4, 5)]
        return LabeledGraph.from_edges(labels, edges)

    def setup_outcome(self, machine_count=3):
        query = QueryGraph(
            {"qa": "a", "qb": "b", "qc": "c"},
            [("qa", "qb"), ("qb", "qc"), ("qc", "qa")],
        )
        stwigs = [
            STwig("qa", ("qb",)),
            STwig("qb", ("qc",)),
            STwig("qc", ("qa",)),
        ]
        cloud = make_cloud(self.triangle_with_decoy(), machine_count=machine_count)
        plan = manual_plan(query, stwigs, machine_count)
        return cloud, plan, explore(cloud, plan)

    def test_each_stage_narrows_shared_nodes(self):
        _, _, outcome = self.setup_outcome()
        assert outcome.bindings.candidates_array("qa").tolist() == [1]
        assert outcome.bindings.candidates_array("qb").tolist() == [2]
        assert outcome.bindings.candidates_array("qc").tolist() == [3]

    def test_decoy_survives_first_stage_only(self):
        # STwig 0 (qa -> qb) has no narrowing information yet: the decoy
        # edge must appear in its tables, proving the later intersection
        # (not stage-0 filtering) removed it.
        _, _, outcome = self.setup_outcome()
        stage0_qa = set()
        for machine_tables in outcome.tables:
            stage0_qa |= set(machine_tables[0].distincts()["qa"].tolist())
        assert stage0_qa == {1, 4}

    def test_final_binding_is_sequential_intersection(self):
        # binding(x) == the running intersection over STwigs mentioning x of
        # the union over machines of that STwig's x-column — exactly the
        # per-stage bind() sequence the proxy performs.
        cloud, plan, outcome = self.setup_outcome()
        for node in plan.query.nodes():
            expected = None
            for stwig_index, stwig in enumerate(plan.stwigs):
                if node not in stwig.nodes:
                    continue
                union = set()
                for machine_tables in outcome.tables:
                    table = machine_tables[stwig_index]
                    union |= set(table.to_array()[:, table.columns.index(node)].tolist())
                expected = union if expected is None else expected & union
            assert bound_set(outcome.bindings, node) == expected

    def test_results_match_vf2(self):
        cloud, plan, outcome = self.setup_outcome()
        table = assemble_results(cloud, plan, outcome).table
        expected = sorted(
            tuple(match[node] for node in plan.query.nodes())
            for match in vf2_match(self.triangle_with_decoy(), plan.query)
        )
        assert sorted(table.rows) == expected


class TestEarlyExitPadding:
    """A mid-plan binding wipe-out pads the remaining STwigs with empty tables."""

    def wipeout_setup(self, machine_count=3):
        # Path data: 1(a)-2(b)-3(c); 4(d)-5(e) exists but is disconnected
        # from the path, so STwig 2 (qc -> qd) matches nothing and wipes the
        # qc/qd bindings before STwig 3 ever runs.
        labels = {1: "a", 2: "b", 3: "c", 4: "d", 5: "e"}
        edges = [(1, 2), (2, 3), (4, 5)]
        graph = LabeledGraph.from_edges(labels, edges)
        query = QueryGraph(
            {"qa": "a", "qb": "b", "qc": "c", "qd": "d", "qe": "e"},
            [("qa", "qb"), ("qb", "qc"), ("qc", "qd"), ("qd", "qe")],
        )
        stwigs = [
            STwig("qa", ("qb",)),
            STwig("qb", ("qc",)),
            STwig("qc", ("qd",)),
            STwig("qd", ("qe",)),
        ]
        cloud = make_cloud(graph, machine_count=machine_count)
        plan = manual_plan(query, stwigs, machine_count)
        return cloud, plan, explore(cloud, plan)

    def test_wipeout_detected(self):
        _, _, outcome = self.wipeout_setup()
        assert bound_set(outcome.bindings, "qc") == set()
        assert bound_set(outcome.bindings, "qd") == set()
        assert outcome.bindings.any_empty()

    def test_padding_shape_is_uniform(self):
        cloud, plan, outcome = self.wipeout_setup()
        for machine_tables in outcome.tables:
            assert len(machine_tables) == len(plan.stwigs)
            for stwig, table in zip(plan.stwigs, machine_tables):
                assert table.columns == stwig.nodes
        # The skipped stage (index 3) is empty everywhere; the earlier
        # stages produced the path rows before the wipe-out.
        stage_rows = [
            sum(machine[index].row_count for machine in outcome.tables)
            for index in range(len(plan.stwigs))
        ]
        assert stage_rows[0] > 0
        assert stage_rows[2] == stage_rows[3] == 0

    def test_empty_after_wipeout_and_assembly_is_empty(self):
        cloud, plan, outcome = self.wipeout_setup()
        assert outcome.empty
        join = assemble_results(cloud, plan, outcome)
        assert join.table.row_count == 0
        assert not join.truncated

    def test_empty_is_computed_once(self):
        _, _, outcome = self.wipeout_setup()
        assert outcome.empty is True
        # Swapping the tables out from under the outcome must not change
        # the answer: the scan ran once and was cached.
        outcome.tables = [[STwigTable(("x",), roots=np.array([1]), row_count=1)]]
        assert outcome.empty is True

    def test_empty_false_is_cached_too(self):
        graph = LabeledGraph.from_edges({1: "a", 2: "b"}, [(1, 2)])
        query = QueryGraph({"qa": "a", "qb": "b"}, [("qa", "qb")])
        cloud = make_cloud(graph, machine_count=1)
        plan = manual_plan(query, [STwig("qa", ("qb",))], 1)
        outcome = explore(cloud, plan)
        assert outcome.empty is False
        outcome.tables = []
        assert outcome.empty is False


class SetBindingTable:
    """The set model of a binding table: the oracle ``bind`` is checked against."""

    def __init__(self, query: QueryGraph) -> None:
        self._bindings = {node: None for node in query.nodes()}

    def bind(self, node, data_nodes):
        new_set = (
            set(data_nodes.tolist())
            if isinstance(data_nodes, np.ndarray)
            else set(data_nodes)
        )
        current = self._bindings[node]
        self._bindings[node] = new_set if current is None else current & new_set

    def candidates(self, node):
        return self._bindings[node]

    def any_empty(self):
        return any(c is not None and not c for c in self._bindings.values())



class TestRandomizedSetEquivalence:
    """The array table narrows exactly like the set model."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_op_sequences(self, seed):
        rng = random.Random(seed)
        nodes = {f"q{i}": "x" for i in range(4)}
        edges = [(f"q{i}", f"q{i+1}") for i in range(3)]
        query = QueryGraph(nodes, edges)
        array_table = BindingTable(query)
        set_table = SetBindingTable(query)
        node_names = list(nodes)
        for _ in range(40):
            node = rng.choice(node_names)
            values = [rng.randrange(0, 30) for _ in range(rng.randrange(0, 12))]
            as_array = rng.random() < 0.5
            payload = np.array(values, dtype=np.int64) if as_array else values
            array_table.bind(node, payload)
            set_table.bind(node, payload)
            for name in node_names:
                expected = set_table.candidates(name)
                array = array_table.candidates_array(name)
                if expected is None:
                    assert array is None
                else:
                    assert array.tolist() == sorted(expected)
            assert array_table.any_empty() == set_table.any_empty()

    @pytest.mark.parametrize("seed", range(3))
    def test_engine_matches_vf2_on_random_graphs(self, seed):
        graph = seeded_graph(seed=seed, nodes=60, edges=160, labels=3)
        cloud = make_cloud(graph, machine_count=3)
        from repro.core.engine import SubgraphMatcher

        matcher = SubgraphMatcher(cloud)
        for size in (3, 4):
            query = dfs_query(graph, size, seed=seed + 50)
            expected = sorted(
                tuple(match[node] for node in query.nodes())
                for match in vf2_match(graph, query)
            )
            assert sorted(matcher.match(query).rows) == expected


class TestFilteredShippingAccounting:
    """Sender-side binding filtering is explicitly accounted, and sound."""

    def join_phase_delta(self, use_filter: bool):
        # Seeds chosen so the final bindings actually invalidate rows of
        # earlier-explored STwig tables (the filter must bite, not no-op).
        graph = seeded_graph(seed=1, nodes=80, edges=260, labels=2)
        cloud = make_cloud(graph, machine_count=4)
        query = dfs_query(graph, 6, seed=4)
        plan = QueryPlanner(
            cloud, MatcherConfig(use_final_binding_filter=use_filter)
        ).plan(query)
        outcome = explore(cloud, plan)
        before = cloud.metrics.snapshot()
        join = assemble_results(cloud, plan, outcome)
        after = cloud.metrics.snapshot()
        return join, {key: after[key] - before[key] for key in after}

    def test_shipped_plus_filtered_equals_unfiltered_shipping(self):
        join_filtered, delta_filtered = self.join_phase_delta(True)
        join_unfiltered, delta_unfiltered = self.join_phase_delta(False)
        # Same answers either way.
        assert sorted(join_filtered.table.rows) == sorted(join_unfiltered.table.rows)
        # The filter must actually bite on this workload, and every dropped
        # row is a row the unfiltered gather would have shipped.
        assert delta_filtered["result_rows_filtered"] > 0
        assert delta_unfiltered["result_rows_filtered"] == 0
        assert (
            delta_filtered["result_rows_shipped"]
            + delta_filtered["result_rows_filtered"]
            == delta_unfiltered["result_rows_shipped"]
        )

    def test_filtered_gather_equals_gather_then_filter(self):
        # Per machine and STwig, filtering each part before the union gives
        # the table that filtering the unioned parts gives, row for row.
        graph = seeded_graph(seed=1, nodes=80, edges=260, labels=2)
        cloud = make_cloud(graph, machine_count=4)
        plan = QueryPlanner(cloud).plan(dfs_query(graph, 6, seed=4))
        outcome = explore(cloud, plan)
        dropped = 0
        for machine_id in range(cloud.machine_count):
            filtered = _gather_machine_tables(
                cloud, plan, outcome.tables, machine_id, outcome.bindings, {}
            )
            whole = _gather_machine_tables(cloud, plan, outcome.tables, machine_id, None, {})
            for before_union, after_union in zip(filtered, whole):
                # Filtering the slots of each part is masking the unioned rows.
                rows = after_union.to_array()
                keep = np.ones(len(rows), dtype=bool)
                for index, column in enumerate(after_union.columns):
                    keep &= outcome.bindings.membership_mask(column, rows[:, index])
                assert before_union.row_count == int(keep.sum())
                assert np.array_equal(before_union.to_array(), rows[keep])
                dropped += after_union.row_count - before_union.row_count
        assert dropped > 0

    def test_filtering_reduces_bytes_on_the_wire(self):
        _, delta_filtered = self.join_phase_delta(True)
        _, delta_unfiltered = self.join_phase_delta(False)
        assert delta_filtered["bytes_transferred"] < delta_unfiltered["bytes_transferred"]

    def test_exploration_counters_identical_either_way(self):
        # The gather filter is join-phase only: exploration communication
        # must not depend on use_final_binding_filter.
        def exploration_delta(use_filter):
            graph = seeded_graph(seed=1, nodes=80, edges=260, labels=2)
            cloud = make_cloud(graph, machine_count=4)
            query = dfs_query(graph, 6, seed=5)
            plan = QueryPlanner(
                cloud, MatcherConfig(use_final_binding_filter=use_filter)
            ).plan(query)
            cloud.reset_metrics()
            explore(cloud, plan)
            return cloud.metrics.snapshot()

        assert exploration_delta(True) == exploration_delta(False)


def per_node_explore(cloud, plan):
    """``explore`` as the per-node model runs it, on the scalar Trinity
    operators alone: ``(rows[machine][stwig], binding sets)``.  The operators
    charge lookups, loads and probes to ``cloud.metrics``; the binding
    shipment to the proxy is charged here."""
    query, bound = plan.query, {}
    rows = [[[] for _ in plan.stwigs] for _ in range(cloud.machine_count)]
    for index, stwig in enumerate(plan.stwigs):
        columns = {node: set() for node in stwig.nodes}
        for machine in range(cloud.machine_count):
            if stwig.root in bound:
                roots = sorted(n for n in bound[stwig.root] if cloud.owner_of(n) == machine)
            else:
                roots = cloud.get_local_ids_array(machine, query.label(stwig.root)).tolist()
            slots_per_root = []
            for root in roots:
                neighbors = cloud.load(root, requester=machine).neighbors
                slots = []
                for leaf in stwig.leaves:
                    if leaf in bound:
                        slot = [n for n in neighbors if n in bound[leaf]]
                    else:
                        label = query.label(leaf)
                        slot = [n for n in neighbors if cloud.has_label(n, label, machine)]
                    slots.append(slot)
                    if not slot:
                        break  # a root that lost a slot stops probing
                slots_per_root.append(slots)  # an empty slot yields no row
            rows[machine][index] = nested_loop_stwig_rows(roots, slots_per_root)
            shipped = [set(column) for column in zip(*rows[machine][index])]
            if shipped:  # the machine's distinct column values go to the proxy
                cloud.metrics.record_result_transfer(machine, -1, sum(map(len, shipped)), 1)
            for node, values in zip(stwig.nodes, shipped):
                columns[node] |= values
        for node, values in columns.items():
            bound[node] = bound[node] & values if node in bound else values
        if not all(bound.values()):
            break
    return rows, bound


class TestPerNodeCounterModel:
    """Whole-pipeline parity against an independent model: the batched
    exploration charges exactly what a per-node loop over ``get_local_ids_array`` /
    ``load`` / ``has_label`` charges — ``index_lookups``, local and remote
    loads and label probes, and the messages and bytes they imply — and
    builds the same rows and bindings."""

    @pytest.mark.parametrize("seed, machine_count", [(1, 1), (2, 3), (3, 4)])
    def test_explore_charges_what_the_per_node_model_charges(self, seed, machine_count):
        graph = seeded_graph(seed=seed, nodes=60, edges=170, labels=2 + seed % 2)
        cloud = make_cloud(graph, machine_count=machine_count)
        for query in canonical_queries(graph, seed=seed + 20):
            plan = QueryPlanner(cloud).plan(query)
            modelled, engine = CloudMetrics(), CloudMetrics()
            rows, bound = per_node_explore(cloud.with_metrics(modelled), plan)
            outcome = explore(cloud.with_metrics(engine), plan)
            assert engine.snapshot() == modelled.snapshot()
            assert engine.local_loads and engine.local_label_probes
            assert [[table.rows for table in machine] for machine in outcome.tables] == rows
            for node in query.nodes():
                assert bound_set(outcome.bindings, node) == bound.get(node)


class TestBatchedRootPartition:
    """The shared per-stage root partition matches the per-machine scans."""

    def test_bound_root_partition_matches_per_machine_filter(self):
        graph = seeded_graph(seed=7, nodes=50, edges=140, labels=2)
        cloud = make_cloud(graph, machine_count=4)
        query = dfs_query(graph, 4, seed=9)
        plan = QueryPlanner(cloud).plan(query)
        outcome = explore(cloud, plan)
        from repro.core.exploration import _stage_root_partition

        for stwig in plan.stwigs:
            partition = _stage_root_partition(
                cloud, stwig, query.label(stwig.root), outcome.bindings
            )
            assert len(partition) == cloud.machine_count
            bound = outcome.bindings.candidates_array(stwig.root)
            recombined = np.concatenate(partition) if partition else np.empty(0)
            assert sorted(recombined.tolist()) == bound.tolist()
            for machine_id, roots in enumerate(partition):
                owners = cloud.owners_of_array(roots)
                assert (owners == machine_id).all()
                # Ascending within each machine, as the per-machine slice was.
                assert roots.tolist() == sorted(roots.tolist())
