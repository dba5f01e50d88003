"""Equivalence properties of the indexed provenance query engine.

The indexed read path (:mod:`repro.provenance.index`,
:mod:`repro.provenance.facade`, the store's secondary indexes) must answer
every query shape exactly as the naive traversal it replaced: rebuild the
OPM digraph, BFS it with :func:`repro.graphs.topo.ancestors_of` /
:func:`~repro.graphs.topo.descendants_of`, filter by node kind.  The naive
implementations are kept verbatim here as the oracle, and every comparison
pins the canonicalised answers byte-identical (sets compare exactly;
list-valued queries are compared sorted, and the indexed lists are
additionally pinned to the index's topological order).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProvenanceError, ViewError
from repro.graphs.topo import ancestors_of, descendants_of, topological_sort
from repro.provenance.execution import execute
from repro.provenance.facade import (
    LineageQueryEngine,
    hydrated_cone_of_change as cone_of_change,
    hydrated_downstream_tasks as downstream_tasks,
    hydrated_downstream_tasks_many as downstream_tasks_many,
    hydrated_lineage_artifacts as lineage_artifacts,
    hydrated_lineage_invocations as lineage_invocations,
    hydrated_lineage_many as lineage_many,
    hydrated_lineage_tasks as lineage_tasks,
    hydrated_lineage_tasks_many as lineage_tasks_many,
)
from repro.provenance.store import ProvenanceStore
from repro.repository.corpus import build_corpus
from repro.workflow.builder import spec_from_edges
from repro.workflow.catalog import phylogenomics
from tests.helpers import diamond_spec


# -- the seed's naive implementations, kept as the oracle --------------------


def naive_lineage_artifacts(run, artifact_id):
    graph = run.provenance.build_digraph()
    return [node_id for kind, node_id
            in ancestors_of(graph, ("artifact", artifact_id))
            if kind == "artifact"]


def naive_lineage_invocations(run, artifact_id):
    graph = run.provenance.build_digraph()
    return [node_id for kind, node_id
            in ancestors_of(graph, ("artifact", artifact_id))
            if kind == "invocation"]


def naive_lineage_tasks(run, task_id):
    artifact = run.output_artifact(task_id)
    producing = {run.provenance.invocation(i).task_id
                 for i in naive_lineage_invocations(
                     run, artifact.artifact_id)}
    producing.discard(task_id)
    return producing


def naive_downstream_tasks(run, task_id):
    artifact = run.output_artifact(task_id)
    graph = run.provenance.build_digraph()
    found = set()
    for kind, node_id in descendants_of(
            graph, ("artifact", artifact.artifact_id)):
        if kind == "invocation":
            found.add(run.provenance.invocation(node_id).task_id)
    found.discard(task_id)
    return found


# -- generators --------------------------------------------------------------


@st.composite
def specs(draw, max_tasks=10):
    """Random workflow specs as upper-triangular DAGs over 1..n."""
    n = draw(st.integers(min_value=1, max_value=max_tasks))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs)) if pairs else st.just([]))
    return spec_from_edges(f"prop-{n}", chosen,
                           extra_tasks=range(1, n + 1))


def assert_run_equivalent(run):
    """Every query shape, indexed vs naive, over one run."""
    spec = run.spec
    for task_id in spec.task_ids():
        artifact_id = run.outputs[task_id]
        indexed_artifacts = lineage_artifacts(run, artifact_id)
        indexed_invocations = lineage_invocations(run, artifact_id)
        assert sorted(indexed_artifacts) == \
            sorted(naive_lineage_artifacts(run, artifact_id))
        assert sorted(indexed_invocations) == \
            sorted(naive_lineage_invocations(run, artifact_id))
        assert lineage_tasks(run, task_id) == \
            naive_lineage_tasks(run, task_id)
        assert downstream_tasks(run, task_id) == \
            naive_downstream_tasks(run, task_id)


# -- per-run equivalence ------------------------------------------------------


@given(specs())
@settings(max_examples=60, deadline=None)
def test_indexed_queries_match_naive_traversal(spec):
    assert_run_equivalent(execute(spec))


@given(specs())
@settings(max_examples=40, deadline=None)
def test_indexed_lists_are_topologically_ordered(spec):
    run = execute(spec)
    graph = run.provenance.build_digraph()
    position = {node: i for i, node in enumerate(topological_sort(graph))}
    index = run.provenance_index()
    order_position = {node: i for i, node in enumerate(index.order)}
    for source, target in graph.edges():
        assert order_position[source] < order_position[target]
    for task_id in spec.task_ids():
        artifact_id = run.outputs[task_id]
        arts = lineage_artifacts(run, artifact_id)
        keyed = [position[("artifact", a)] for a in arts]
        assert keyed == sorted(keyed)


@given(specs())
@settings(max_examples=40, deadline=None)
def test_batched_variants_agree_with_per_query(spec):
    run = execute(spec)
    tasks = spec.task_ids()
    artifacts = [run.outputs[t] for t in tasks]
    assert lineage_many(run, artifacts) == \
        {a: lineage_artifacts(run, a) for a in artifacts}
    assert lineage_tasks_many(run, tasks) == \
        {t: lineage_tasks(run, t) for t in tasks}
    assert downstream_tasks_many(run, tasks) == \
        {t: downstream_tasks(run, t) for t in tasks}


@given(specs(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_cone_of_change_is_changed_plus_downstream(spec, rng):
    run = execute(spec)
    tasks = spec.task_ids()
    changed = rng.sample(tasks, rng.randint(1, len(tasks)))
    expected = set(changed)
    for task in changed:
        expected |= naive_downstream_tasks(run, task)
    assert cone_of_change(run, changed) == expected


def test_corpus_entries_equivalent():
    for entry in build_corpus(seed=4242, count=6, min_size=8, max_size=14):
        assert_run_equivalent(execute(entry.spec, run_id=f"c-{entry.seed}"))


def test_figure1_workflow_equivalent():
    assert_run_equivalent(execute(phylogenomics()))


# -- memoization and invalidation --------------------------------------------


def test_run_index_memoized_until_provenance_mutates():
    from repro.provenance.model import Artifact, Invocation

    run = execute(diamond_spec())
    first = run.provenance_index()
    assert run.provenance_index() is first
    version = run.provenance.version
    run.provenance.record_invocation(
        Invocation("extra-inv", task_id=1), used=[run.outputs[4]])
    run.provenance.record_artifact(
        Artifact("extra-art", producer="extra-inv"))
    assert run.provenance.version > version
    rebuilt = run.provenance_index()
    assert rebuilt is not first
    assert rebuilt.token == run.provenance.version
    assert sorted(rebuilt.lineage_artifacts("extra-art")) == \
        sorted(naive_lineage_artifacts(run, "extra-art"))
    assert run.outputs[4] in rebuilt.lineage_artifacts("extra-art")


def test_to_digraph_memoized_behind_version():
    run = execute(diamond_spec())
    graph = run.provenance.to_digraph()
    assert run.provenance.to_digraph() is graph
    assert graph == run.provenance.build_digraph()
    from repro.provenance.model import Artifact, Invocation

    run.provenance.record_invocation(Invocation("i2", task_id=2),
                                     used=[run.outputs[4]])
    run.provenance.record_artifact(Artifact("a2", producer="i2"))
    fresh = run.provenance.to_digraph()
    assert fresh is not graph
    assert ("artifact", "a2") in fresh


def test_unknown_ids_raise():
    run = execute(diamond_spec())
    index = run.provenance_index()
    with pytest.raises(ProvenanceError):
        index.lineage_artifacts("missing")
    with pytest.raises(ProvenanceError):
        index.ancestors_mask("invocation", "missing")


# -- store inverted indexes vs brute force -----------------------------------


def naive_runs_depending_on_output_of(store, run_id, task_id):
    payload = store.run(run_id).output_artifact(task_id).payload
    found = []
    for other_id in store.run_ids():
        other = store.run(other_id)
        if (other_id, task_id) not in set(store.runs_producing(payload)):
            continue
        exit_lineages = set()
        for exit_task in other.spec.exit_tasks():
            exit_lineages |= naive_lineage_tasks(other, exit_task)
            exit_lineages.add(exit_task)
        if task_id in exit_lineages:
            found.append(other_id)
    return found


def interleaved_store(seed=99, runs=7, size=9):
    rng = random.Random(seed)
    graph_pairs = [(i, j) for i in range(1, size + 1)
                   for j in range(i + 1, size + 1)]
    edges = rng.sample(graph_pairs, k=max(size, len(graph_pairs) // 3))
    spec = spec_from_edges("store-prop", edges,
                           extra_tasks=range(1, size + 1))
    store = ProvenanceStore(spec)
    for i in range(runs):
        overrides = {}
        inputs = {}
        if rng.random() < 0.7:
            overrides[rng.choice(spec.task_ids())] = \
                {"knob": rng.randint(0, 2)}
        if rng.random() < 0.5:
            inputs[rng.choice(spec.task_ids())] = f"batch-{rng.randint(0, 1)}"
        store.add_run(execute(spec, run_id=f"r{i}",
                              inputs=inputs, overrides=overrides))
    return spec, store


def test_store_task_index_matches_scan():
    spec, store = interleaved_store()
    for task_id in spec.task_ids():
        expected = [rid for rid in store.run_ids()
                    if task_id in store.run(rid).outputs]
        assert list(
            LineageQueryEngine(store=store).runs_of_task(task_id)
        ) == expected


def test_store_consumption_index_matches_scan():
    spec, store = interleaved_store()
    payloads = set()
    for rid in store.run_ids():
        graph = store.run(rid).provenance
        for artifact in graph.artifacts():
            payloads.add(artifact.payload)
    for payload in payloads:
        expected = []
        for rid in store.run_ids():
            graph = store.run(rid).provenance
            consumed = {graph.artifact(a).payload
                        for inv in graph.invocations()
                        for a in graph.used(inv.invocation_id)}
            if payload in consumed:
                expected.append(rid)
        assert list(
            LineageQueryEngine(store=store).runs_consuming(payload)
        ) == expected


def test_store_exit_lineage_index_matches_brute_force():
    spec, store = interleaved_store()
    queries = LineageQueryEngine(store=store)
    for rid in store.run_ids():
        run = store.run(rid)
        expected = set(spec.exit_tasks())
        for exit_task in spec.exit_tasks():
            expected |= naive_lineage_tasks(run, exit_task)
        assert queries.exit_lineage(rid).tasks == expected
    for task_id in spec.task_ids():
        expected_runs = [rid for rid in store.run_ids()
                         if task_id in queries.exit_lineage(rid)]
        assert list(
            queries.runs_with_lineage_through(task_id)) == expected_runs


def test_store_depending_query_matches_naive():
    spec, store = interleaved_store()
    for rid in store.run_ids():
        for task_id in spec.task_ids():
            assert store.runs_depending_on_output_of(rid, task_id) == \
                naive_runs_depending_on_output_of(store, rid, task_id)


# -- view-level cache equivalence --------------------------------------------


def naive_true_composite_lineage(view, label):
    index = view.spec.reachability()
    targets = view.members(label)
    found = []
    for other in view.composite_labels():
        if other == label:
            continue
        if any(index.reaches(source, target)
               for source in view.members(other) for target in targets):
            found.append(other)
    return found


def test_true_composite_lineage_matches_pairwise_scan():
    from repro.provenance.viewlevel import true_composite_lineage
    from tests.helpers import random_spec_and_view

    rng = random.Random(31)
    for _ in range(40):
        _, view = random_spec_and_view(rng)
        for label in view.composite_labels():
            assert true_composite_lineage(view, label) == \
                naive_true_composite_lineage(view, label)
        # the cached second pass answers identically
        for label in view.composite_labels():
            assert true_composite_lineage(view, label) == \
                naive_true_composite_lineage(view, label)


def test_true_composite_lineage_unknown_label():
    from repro.provenance.viewlevel import true_composite_lineage
    from tests.helpers import unsound_two_track_view

    view = unsound_two_track_view()
    with pytest.raises(ViewError):
        true_composite_lineage(view, "nope")
