"""The unified query façade: typed answers and the one query surface.

:class:`~repro.provenance.facade.LineageQueryEngine` is the only lineage
query surface; the pre-façade shims (``repro.provenance.queries``, the
cross-run ``ProvenanceStore`` wrappers, the ``WolvesSession``
passthroughs) are gone.  ``repro.lineage_tasks`` stays as the README
quickstart's bare-set helper and must agree with the engine.
"""

import pytest

import repro
from repro.provenance.execution import execute
from repro.provenance.facade import (
    ArtifactAnswer,
    LineageAnswer,
    LineageQueryEngine,
    RunsAnswer,
    hydrated_lineage_artifacts,
)
from repro.provenance.store import ProvenanceStore
from repro.system.session import WolvesSession
from repro.views.view import WorkflowView
from tests.helpers import diamond_spec, two_track_spec


@pytest.fixture
def run():
    return execute(diamond_spec(), run_id="r")


@pytest.fixture
def store():
    spec = two_track_spec()
    store = ProvenanceStore(spec)
    for i in range(2):
        store.add_run(execute(spec, run_id=f"r{i}",
                              overrides={2: {"knob": i}}))
    return store


class TestTopLevelLineageTasks:
    def test_matches_the_engine_for_every_task(self, run):
        engine = LineageQueryEngine(run=run)
        for task_id in diamond_spec().task_ids():
            assert repro.lineage_tasks(run, task_id) == \
                engine.lineage_tasks(task_id).tasks


class TestStoreSurface:
    def test_store_queries_emit_no_deprecation_warnings(self, store,
                                                        recwarn):
        payload = store.run("r0").output_artifact(1).payload
        store.runs_producing(payload)
        store.divergence("r0", "r1")
        store.blame("r0", "r1")
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


class TestSessionSurface:
    def session(self):
        spec = diamond_spec()
        view = WorkflowView(spec, {"A": [1, 2], "B": [3, 4]})
        session = WolvesSession(spec, view)
        session.record_run(execute(spec, run_id="gui-1"))
        return session

    def test_queries_property_routes_through_engine(self):
        session = self.session()
        answer = session.queries.lineage_tasks(4)
        assert isinstance(answer, LineageAnswer)
        assert answer.run_id == "gui-1"
        assert answer.tasks == frozenset({1, 2, 3})


class TestAnswerTypes:
    def test_lineage_answer_is_frozen_set_like(self, run):
        answer = LineageQueryEngine(run=run).lineage_tasks(4)
        assert isinstance(answer, LineageAnswer)
        assert answer.query == "lineage_tasks"
        assert answer.source == "hydrated"
        assert 1 in answer and 4 not in answer
        assert set(answer) == {1, 2, 3}
        assert len(answer) == 3
        with pytest.raises(AttributeError):
            answer.tasks = frozenset()

    def test_artifact_answer_preserves_order(self, run):
        engine = LineageQueryEngine(run=run)
        answer = engine.lineage_artifacts(run.outputs[4])
        assert isinstance(answer, ArtifactAnswer)
        assert list(answer) == list(
            hydrated_lineage_artifacts(run, run.outputs[4]))
        with pytest.raises(AttributeError):
            answer.ids = ()

    def test_runs_answer_is_ordered_and_frozen(self, store):
        answer = LineageQueryEngine(store=store).runs_of_task(1)
        assert isinstance(answer, RunsAnswer)
        assert answer.run_ids == ("r0", "r1")
        assert list(answer) == ["r0", "r1"]
        assert len(answer) == 2
        with pytest.raises(AttributeError):
            answer.run_ids = ()

    def test_engine_pins_wrapped_run_id(self, run):
        engine = LineageQueryEngine(run=run)
        assert engine.lineage_tasks(4, run_id="r").run_id == "r"
        from repro.errors import ProvenanceError

        with pytest.raises(ProvenanceError):
            engine.lineage_tasks(4, run_id="other")
