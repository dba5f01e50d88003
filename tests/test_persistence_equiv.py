"""Equivalence properties: durable == volatile on every query shape.

The contract of :class:`~repro.persistence.store.DurableProvenanceStore`
is that a reopened store — runs replayed from SQLite, secondary indexes
rebuilt lazily — answers **every** query exactly like a volatile
:class:`~repro.provenance.store.ProvenanceStore` that saw the same
``add_run`` sequence: same sets, same lists, same *order* (list-valued
queries are order-bearing: insertion order for index sweeps, topological
order for lineage).  Randomized run sequences over randomized specs pin
this across:

* every run-level hydrated query of :mod:`repro.provenance.facade`,
  including the batched ``*_many`` forms and ``cone_of_change``;
* every store-level index query (producers, consumers, task runs,
  exit lineage, lineage-through, depends-on-output);
* divergence / blame and the portable JSON export.
"""

import random
import tempfile

from hypothesis import given, settings, strategies as st

from repro.persistence import DurableProvenanceStore
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
from repro.workflow.builder import spec_from_edges


@st.composite
def specs(draw, max_tasks=8):
    """Random workflow specs as upper-triangular DAGs over 1..n."""
    n = draw(st.integers(min_value=1, max_value=max_tasks))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs)) if pairs else st.just([]))
    return spec_from_edges(f"prop-{n}", chosen,
                           extra_tasks=range(1, n + 1))


@st.composite
def run_sequences(draw):
    """A spec plus a randomized sequence of distinguishable runs."""
    spec = draw(specs())
    count = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    rng = random.Random(seed)
    tasks = list(spec.task_ids())
    runs = []
    for i in range(count):
        overrides = {}
        inputs = {}
        for task in rng.sample(tasks, k=rng.randint(0, len(tasks))):
            overrides[task] = {"knob": rng.randint(0, 2)}
        if rng.random() < 0.5:
            entry = rng.choice(tasks)
            inputs[entry] = f"batch-{rng.randint(0, 2)}"
        runs.append(execute(spec, run_id=f"run-{i}",
                            inputs=inputs, overrides=overrides))
    return spec, runs


def paired_stores(directory, spec, runs, reopen=True):
    """(volatile, durable) over the same add_run sequence; ``reopen``
    closes and reopens the durable store so every answer comes from the
    replayed log, not the writer's warm memory."""
    volatile = ProvenanceStore(spec)
    path = f"{directory}/equiv.db"
    durable = DurableProvenanceStore(path, spec)
    for run in runs:
        volatile.add_run(run)
        durable.add_run(run)
    if reopen:
        durable.close()
        durable = DurableProvenanceStore(path)
    return volatile, durable


def assert_query_equivalence(spec, volatile, durable):
    assert len(durable) == len(volatile)
    assert durable.run_ids() == volatile.run_ids()
    tasks = list(spec.task_ids())
    run_ids = volatile.run_ids()

    # -- run-level queries (the facade's hydrated_*), per reloaded run --
    for run_id in run_ids:
        v_run, d_run = volatile.run(run_id), durable.run(run_id)
        artifact_ids = [v_run.outputs[t] for t in tasks]
        assert [d_run.outputs[t] for t in tasks] == artifact_ids
        for task, artifact_id in zip(tasks, artifact_ids):
            assert (lineage_artifacts(d_run, artifact_id)
                    == lineage_artifacts(v_run, artifact_id))
            assert (lineage_invocations(d_run, artifact_id)
                    == lineage_invocations(v_run, artifact_id))
            assert lineage_tasks(d_run, task) == lineage_tasks(v_run, task)
            assert (downstream_tasks(d_run, task)
                    == downstream_tasks(v_run, task))
        assert (lineage_many(d_run, artifact_ids)
                == lineage_many(v_run, artifact_ids))
        assert (lineage_tasks_many(d_run, tasks)
                == lineage_tasks_many(v_run, tasks))
        assert (downstream_tasks_many(d_run, tasks)
                == downstream_tasks_many(v_run, tasks))
        for k in (1, max(1, len(tasks) // 2), len(tasks)):
            assert (cone_of_change(d_run, tasks[:k])
                    == cone_of_change(v_run, tasks[:k]))

    # -- store-level index queries (via the unified façade: the durable
    # engine routes cold stores through labelled SQL, the volatile one
    # hydrates — so this doubles as a hydrated-vs-SQL equivalence check) --
    q_volatile = LineageQueryEngine(store=volatile)
    q_durable = LineageQueryEngine(store=durable)
    payloads = {volatile.run(r).output_artifact(t).payload
                for r in run_ids for t in tasks}
    for payload in payloads:
        assert (durable.runs_producing(payload)
                == volatile.runs_producing(payload))
        assert (list(q_durable.runs_consuming(payload))
                == list(q_volatile.runs_consuming(payload)))
    assert durable.runs_producing("no-such-payload") == []
    for task in tasks:
        assert (list(q_durable.runs_of_task(task))
                == list(q_volatile.runs_of_task(task)))
        assert (list(q_durable.runs_with_lineage_through(task))
                == list(q_volatile.runs_with_lineage_through(task)))
    for run_id in run_ids:
        assert (q_durable.exit_lineage(run_id).tasks
                == q_volatile.exit_lineage(run_id).tasks)
        for task in tasks:
            assert (durable.runs_depending_on_output_of(run_id, task)
                    == volatile.runs_depending_on_output_of(run_id, task))

    # -- divergence / blame / export -------------------------------------
    for run_a in run_ids:
        for run_b in run_ids:
            assert (durable.divergence(run_a, run_b)
                    == volatile.divergence(run_a, run_b))
            assert durable.blame(run_a, run_b) == volatile.blame(run_a, run_b)
    assert durable.to_json() == volatile.to_json()


@settings(max_examples=40, deadline=None)
@given(data=run_sequences())
def test_reopened_durable_equals_volatile_on_every_query(data):
    spec, runs = data
    with tempfile.TemporaryDirectory() as directory:
        volatile, durable = paired_stores(directory, spec, runs,
                                          reopen=True)
        try:
            assert_query_equivalence(spec, volatile, durable)
        finally:
            durable.close()


@settings(max_examples=15, deadline=None)
@given(data=run_sequences())
def test_writer_memory_equals_volatile_without_reopen(data):
    """The writing store's own in-memory view is equivalent too (no
    restart needed to read your own writes)."""
    spec, runs = data
    with tempfile.TemporaryDirectory() as directory:
        volatile, durable = paired_stores(directory, spec, runs,
                                          reopen=False)
        try:
            assert_query_equivalence(spec, volatile, durable)
        finally:
            durable.close()


@settings(max_examples=15, deadline=None)
@given(data=run_sequences())
def test_exit_lineage_warm_cones_match_cold_recomputation(data):
    """Cones loaded from the write-behind rows == cones recomputed from
    scratch by a store that never saw them."""
    spec, runs = data
    directory = tempfile.mkdtemp()
    path = f"{directory}/cones.db"
    writer = DurableProvenanceStore(path, spec)
    for run in runs:
        writer.add_run(run)
    q_writer = LineageQueryEngine(store=writer)
    warm = {r: q_writer.exit_lineage(r).tasks for r in writer.run_ids()}
    writer.close()
    reopened = DurableProvenanceStore(path)
    cold = ProvenanceStore(spec)
    for run in runs:
        cold.add_run(run)
    try:
        q_reopened = LineageQueryEngine(store=reopened)
        q_cold = LineageQueryEngine(store=cold)
        for run_id in cold.run_ids():
            assert q_reopened.exit_lineage(run_id).tasks == warm[run_id]
            assert q_cold.exit_lineage(run_id).tasks == warm[run_id]
    finally:
        reopened.close()
