"""E9 — extension ablations (features beyond the demo's core).

* split vs merge vs hybrid resolution: view growth and task moves per
  strategy (the paper's open problem, quantified);
* incremental editor validation vs from-scratch validation per edit;
* bitset-closure reachability queries on provenance-sized graphs (the
  graph-management angle);
* sound-view suggestion: compression achieved while staying sound.
"""

import random
import time

import pytest

import _bootstrap  # noqa: F401  (sys.path + output-path pinning)
from repro.core.corrector import Criterion, correct_view
from repro.core.merging import Resolution, hybrid_correct
from repro.core.soundness import is_sound_view, unsound_composites
from repro.graphs.generators import layered_dag
from repro.graphs.reachability import ReachabilityIndex
from repro.repository.corpus import build_corpus
from repro.views.diff import view_delta
from repro.views.editor import ViewEditor
from repro.views.suggest import suggest_sound_view

from conftest import print_table


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(seed=909, count=12, min_size=10, max_size=26,
                        noise_moves=3)


def test_split_vs_merge_vs_hybrid(corpus):
    rows = []
    strategies = {
        "split (paper)": lambda v: correct_view(
            v, Criterion.STRONG).corrected,
        "hybrid (ours)": lambda v: hybrid_correct(v).corrected,
    }
    unsound_views = [entry.view(family) for entry in corpus
                     for family in ("expert", "automatic")
                     if unsound_composites(entry.view(family))]
    merge_resolutions = 0
    for name, strategy in strategies.items():
        growth = 0
        moves = 0
        for view in unsound_views:
            corrected = strategy(view)
            assert is_sound_view(corrected)
            delta = view_delta(view, corrected)
            growth += delta.growth
            moves += delta.moves
        rows.append([name, len(unsound_views), growth, moves])
    for view in unsound_views:
        report = hybrid_correct(view)
        merge_resolutions += sum(
            1 for how in report.resolutions.values()
            if how is Resolution.MERGE)
    print_table("E9a: resolution strategies over the corpus",
                ["strategy", "views", "composites added", "task moves"],
                rows)
    # the hybrid never changes more than pure splitting does
    assert rows[1][3] <= rows[0][3]


def test_incremental_editor_vs_batch_validation(corpus):
    entry = corpus.entries[0]
    spec = entry.spec
    rng = random.Random(11)
    tasks = spec.task_ids()

    edits = [rng.sample(tasks, rng.randint(2, 4)) for _ in range(30)]

    started = time.perf_counter()
    editor = ViewEditor(spec)
    for group in edits:
        try:
            editor.group(group)
        except Exception:
            pass
    incremental_time = time.perf_counter() - started

    started = time.perf_counter()
    editor2 = ViewEditor(spec)
    for group in edits:
        try:
            editor2.group(group)
        except Exception:
            continue
        # from-scratch validation after every edit (what a naive GUI does)
        unsound_composites(editor2.to_view())
    batch_time = time.perf_counter() - started

    print_table(
        "E9b: incremental vs from-scratch validation over 30 edits",
        ["mode", "total time"],
        [["incremental editor", f"{incremental_time * 1e3:.3f} ms"],
         ["revalidate-everything", f"{batch_time * 1e3:.3f} ms"]])
    assert (set(editor.unsound_composites())
            == set(unsound_composites(editor.to_view())))


@pytest.fixture(scope="module")
def big_graph():
    rng = random.Random(99)
    return layered_dag(rng, 20, 12, edge_prob=0.3)


def test_benchmark_bitset_queries(benchmark, big_graph):
    exact = ReachabilityIndex(big_graph)
    rng = random.Random(5)
    nodes = big_graph.nodes()
    sample = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(200)]

    def query_all():
        return sum(1 for u, v in sample if exact.reaches(u, v))

    benchmark(query_all)


def test_incremental_reexecution_savings(corpus):
    """E9e: provenance-driven re-execution skips the unaffected cone."""
    from repro.provenance.engine import IncrementalEngine

    rows = []
    for entry in corpus.entries[:5]:
        spec = entry.spec
        engine = IncrementalEngine(spec)
        engine.run_full()
        # change a mid-pipeline task's parameters
        order = spec.topological_order()
        pivot = order[len(order) // 2]
        result = engine.apply_change(overrides={pivot: {"tweak": 1}})
        rows.append([spec.name, len(spec), len(result.reexecuted),
                     f"{result.savings:.0%}"])
        # equivalence with a full re-run
        from repro.provenance.execution import execute

        reference = execute(spec, overrides={pivot: {"tweak": 1}})
        assert all(
            result.run.output_artifact(t).payload
            == reference.output_artifact(t).payload
            for t in spec.task_ids())
    print_table("E9e: incremental re-execution after one change",
                ["workflow", "tasks", "re-executed", "savings"], rows)
    assert any(float(row[3].rstrip("%")) > 0 for row in rows)


def test_sound_view_suggestion_compression(corpus):
    rows = []
    for entry in corpus.entries[:6]:
        view = suggest_sound_view(entry.spec)
        assert is_sound_view(view)
        rows.append([entry.spec.name, len(entry.spec), len(view),
                     f"{view.compression_ratio():.2f}x"])
    print_table("E9d: sound-by-construction view suggestion",
                ["workflow", "tasks", "composites", "compression"], rows)
    # suggestions compress at least some workflows
    assert any(len(entry.spec) > len(suggest_sound_view(entry.spec))
               for entry in corpus.entries[:6])
