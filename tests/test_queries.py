"""Unit tests for the hydrated lineage query implementations.

These were born as tests of the module-function query surface; the
bodies now live in :mod:`repro.provenance.facade` as the ``hydrated_*``
functions the engine delegates to."""

from repro.provenance.execution import execute
from repro.provenance.facade import (
    hydrated_downstream_tasks as downstream_tasks,
    hydrated_lineage_artifacts as lineage_artifacts,
    hydrated_lineage_invocations as lineage_invocations,
    hydrated_lineage_tasks as lineage_tasks,
)
from repro.workflow.catalog import phylogenomics
from tests.helpers import diamond_spec


class TestLineage:
    def test_lineage_tasks_matches_spec_ancestors(self):
        spec = phylogenomics()
        run = execute(spec)
        for task_id in spec.task_ids():
            expected = set(spec.reachability().ancestors(task_id))
            assert lineage_tasks(run, task_id) == expected

    def test_paper_non_dependency(self):
        # the Figure 1 crux: task 3 is NOT in the provenance of task 8
        run = execute(phylogenomics())
        assert 3 not in lineage_tasks(run, 8)
        assert 6 in lineage_tasks(run, 8)

    def test_lineage_artifacts(self):
        spec = diamond_spec()
        run = execute(spec)
        arts = lineage_artifacts(run, run.outputs[4])
        assert set(arts) == {run.outputs[1], run.outputs[2],
                             run.outputs[3]}

    def test_lineage_invocations(self):
        spec = diamond_spec()
        run = execute(spec)
        invs = lineage_invocations(run, run.outputs[4])
        # OPM: the generating invocation is part of an artifact's
        # provenance, so all four invocations appear
        assert len(invs) == 4
        assert f"{run.run_id}/4" in invs

    def test_source_has_empty_lineage(self):
        run = execute(diamond_spec())
        assert lineage_tasks(run, 1) == set()


class TestDownstream:
    def test_downstream_tasks(self):
        run = execute(diamond_spec())
        assert downstream_tasks(run, 1) == {2, 3, 4}
        assert downstream_tasks(run, 4) == set()

    def test_downstream_matches_spec_descendants(self):
        spec = phylogenomics()
        run = execute(spec)
        for task_id in spec.task_ids():
            expected = set(spec.reachability().descendants(task_id))
            assert downstream_tasks(run, task_id) == expected
