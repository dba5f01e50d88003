"""A multi-run provenance store.

Workflow systems accumulate provenance over many executions; analyses span
runs ("which runs consumed the bad reference database?").  This module
stores :class:`~repro.provenance.execution.WorkflowRun` results, indexes
them by task and by artifact payload, and answers cross-run queries.  An
OPM-flavoured JSON export/import keeps stores portable.

Following the append-only-store-with-secondary-indexes design (LogBase),
every index is maintained incrementally in :meth:`ProvenanceStore.add_run`
— runs are immutable once stored, so an index entry never needs repair:

* the *content index* ``payload -> {(run_id, task_id)}``;
* the *task index* ``task_id -> run_ids`` (which runs executed a task);
* the *consumption index* ``payload -> run_ids`` (which runs fed an
  artifact with that payload into some invocation);
* the *exit-lineage index* ``run_id -> frozenset(tasks)`` — the provenance
  cone of the run's final outputs, filled lazily (runs are immutable, so
  at most once per run) with the batched indexed lineage query; write-
  heavy stores that never issue a cross-run lineage query pay nothing.

Cross-run sweeps ("which runs consumed this artifact's lineage?") are then
dictionary lookups plus set membership instead of a lineage traversal per
run per query.
"""

from __future__ import annotations

import json
from typing import Any, Dict, FrozenSet, List, Set

from repro.errors import ProvenanceError
from repro.provenance.execution import WorkflowRun
from repro.provenance.facade import hydrated_exit_lineage
from repro.provenance.model import Artifact, Invocation, ProvenanceGraph
from repro.workflow.spec import WorkflowSpec
from repro.workflow.task import TaskId


class ProvenanceStore:
    """Append-only collection of runs with cross-run queries."""

    def __init__(self, spec: WorkflowSpec) -> None:
        self.spec = spec
        self._runs: Dict[str, WorkflowRun] = {}
        # payload -> {(run_id, task_id)}: the content index
        self._by_payload: Dict[Any, Set[tuple]] = {}
        # task -> run ids that executed it (insertion-ordered via dict keys)
        self._runs_by_task: Dict[TaskId, Dict[str, None]] = {}
        # payload -> run ids in which some invocation consumed it
        # (insertion-ordered via dict keys)
        self._consumed_by: Dict[Any, Dict[str, None]] = {}
        # run -> tasks in the provenance cone of its exit outputs; filled
        # lazily by _exit_lineage_of
        self._exit_lineage: Dict[str, FrozenSet[TaskId]] = {}

    # -- recording -----------------------------------------------------------

    def add_run(self, run: WorkflowRun) -> None:
        # reject-before-mutate: a duplicate run id must raise *before* any
        # index is touched — re-inserting under an id whose exit-lineage
        # cone (or payload/task rows) is already indexed would silently
        # corrupt those indexes.  The persistence battery pins that a
        # rejected add leaves every index byte-identical.
        if run.run_id in self._runs:
            raise ProvenanceError(
                f"run {run.run_id!r} already stored; runs are immutable "
                f"and their index entries (including the run's exit-"
                f"lineage cone) are never repaired — record the rerun "
                f"under a fresh run id")
        if set(run.spec.task_ids()) != set(self.spec.task_ids()):
            raise ProvenanceError(
                "run belongs to a different workflow than the store's")
        # stage every index entry before touching store state, so a bad run
        # (e.g. outputs referencing a missing artifact) cannot leave the
        # indexes inconsistent with _runs
        produced = [(run.output_artifact(task_id).payload, task_id)
                    for task_id in run.outputs]
        graph = run.provenance
        consumed = {graph.artifact(artifact_id).payload
                    for invocation in graph.invocations()
                    for artifact_id in graph.used(invocation.invocation_id)}
        self._runs[run.run_id] = run
        for payload, task_id in produced:
            self._by_payload.setdefault(payload, set()).add(
                (run.run_id, task_id))
            self._runs_by_task.setdefault(task_id, {})[run.run_id] = None
        for payload in consumed:
            self._consumed_by.setdefault(payload, {})[run.run_id] = None

    def _exit_lineage_of(self, run_id: str) -> FrozenSet[TaskId]:
        """The run's exit-lineage cone, computed at most once per run."""
        cone = self._exit_lineage.get(run_id)
        if cone is None:
            cone = hydrated_exit_lineage(self._runs[run_id])
            self._exit_lineage[run_id] = cone
        return cone

    def __len__(self) -> int:
        return len(self._runs)

    def run(self, run_id: str) -> WorkflowRun:
        try:
            return self._runs[run_id]
        except KeyError:
            raise ProvenanceError(f"unknown run {run_id!r}") from None

    def run_ids(self) -> List[str]:
        return list(self._runs)

    # -- cross-run queries ------------------------------------------------------
    #
    # the underscore methods are the real implementations, called by the
    # LineageQueryEngine façade; the public names are deprecated shims
    # kept for callers that predate the façade

    def runs_producing(self, payload: Any) -> List[tuple]:
        """``(run_id, task_id)`` pairs whose output had this payload."""
        return sorted(self._by_payload.get(payload, ()))

    def _runs_of_task(self, task_id: TaskId) -> List[str]:
        """Runs that executed ``task_id``, in insertion order."""
        return list(self._runs_by_task.get(task_id, ()))

    def _runs_consuming(self, payload: Any) -> List[str]:
        """Runs in which some invocation consumed data with this payload."""
        return list(self._consumed_by.get(payload, ()))

    def _exit_lineage_query(self, run_id: str) -> FrozenSet[TaskId]:
        """Tasks in the provenance cone of the run's final outputs
        (exit tasks included); computed once per immutable run."""
        self.run(run_id)
        return self._exit_lineage_of(run_id)

    def _runs_with_lineage_through(self, task_id: TaskId) -> List[str]:
        """Runs whose final outputs transitively depend on ``task_id``.

        An index sweep over the exit-lineage cones — no per-run graph
        traversal at query time.
        """
        return [run_id for run_id in self._runs
                if task_id in self._exit_lineage_of(run_id)]

    def runs_depending_on_output_of(self, run_id: str,
                                    task_id: TaskId) -> List[str]:
        """Runs whose final outputs transitively consumed the *same data*
        that ``task_id`` produced in ``run_id``.

        Two runs share data when the payloads coincide (the executor's
        content hashing makes payload equality mean value equality).
        Answered from the content and exit-lineage indexes: no lineage is
        recomputed at query time.
        """
        payload = self.run(run_id).output_artifact(task_id).payload
        producers = self._by_payload.get(payload, ())
        return [other_id for other_id in self._runs
                if (other_id, task_id) in producers
                and task_id in self._exit_lineage_of(other_id)]

    def divergence(self, run_a: str, run_b: str) -> List[TaskId]:
        """Tasks whose outputs differ between two runs, in topo order."""
        a = self.run(run_a)
        b = self.run(run_b)
        return [task_id for task_id in self.spec.topological_order()
                if a.output_artifact(task_id).payload
                != b.output_artifact(task_id).payload]

    def blame(self, run_a: str, run_b: str) -> List[TaskId]:
        """The *root causes* of divergence: differing tasks none of whose
        differing ancestors explain them (minimal elements of
        :meth:`divergence` under the dependency order)."""
        diverged = set(self.divergence(run_a, run_b))
        index = self.spec.reachability()
        return [task for task in self.spec.topological_order()
                if task in diverged
                and not any(other in diverged
                            for other in index.ancestors(task))]

    # -- persistence ---------------------------------------------------------

    def to_json(self) -> str:
        """OPM-flavoured JSON: invocations with used, artifacts with
        wasGeneratedBy, grouped per run."""
        runs = []
        for run in self._runs.values():
            graph = run.provenance
            runs.append({
                "run_id": run.run_id,
                "invocations": [
                    {
                        "id": inv.invocation_id,
                        "task": _scalar(inv.task_id),
                        "params": dict(inv.params),
                        "used": graph.used(inv.invocation_id),
                    }
                    for inv in graph.invocations()
                ],
                "artifacts": [
                    {
                        "id": art.artifact_id,
                        "wasGeneratedBy": art.producer,
                        "payload": art.payload,
                    }
                    for art in graph.artifacts()
                ],
                "outputs": {str(k): v for k, v in run.outputs.items()},
            })
        return json.dumps({"format": "wolves-provenance", "version": 1,
                           "workflow": self.spec.name, "runs": runs},
                          indent=2)

    @classmethod
    def from_json(cls, text: str, spec: WorkflowSpec) -> "ProvenanceStore":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProvenanceError(f"invalid JSON: {exc}") from exc
        if document.get("format") != "wolves-provenance":
            raise ProvenanceError("not a wolves-provenance document")
        store = cls(spec)
        task_by_str = {str(t): t for t in spec.task_ids()}
        for entry in document.get("runs", []):
            graph = ProvenanceGraph()
            # interleave: an invocation needs its used artifacts recorded,
            # an artifact needs its producing invocation recorded
            pending_invocations = list(entry["invocations"])
            pending_artifacts = list(entry["artifacts"])
            recorded_artifacts: Set[str] = set()
            recorded_invocations: Set[str] = set()
            progress = True
            while progress and (pending_invocations or pending_artifacts):
                progress = False
                for inv in list(pending_invocations):
                    if all(a in recorded_artifacts
                           for a in inv.get("used", ())):
                        graph.record_invocation(
                            Invocation(
                                inv["id"],
                                task_id=task_by_str.get(str(inv["task"]),
                                                        inv["task"]),
                                params=inv.get("params", {})),
                            used=inv.get("used", ()))
                        recorded_invocations.add(inv["id"])
                        pending_invocations.remove(inv)
                        progress = True
                for art in list(pending_artifacts):
                    if art["wasGeneratedBy"] in recorded_invocations:
                        graph.record_artifact(
                            Artifact(art["id"],
                                     producer=art["wasGeneratedBy"],
                                     payload=art.get("payload")))
                        recorded_artifacts.add(art["id"])
                        pending_artifacts.remove(art)
                        progress = True
            if pending_invocations or pending_artifacts:
                raise ProvenanceError(
                    "provenance document has dangling used/wasGeneratedBy "
                    "references")
            outputs = {task_by_str.get(k, k): v
                       for k, v in entry["outputs"].items()}
            store.add_run(WorkflowRun(spec=spec, provenance=graph,
                                      outputs=outputs,
                                      run_id=entry["run_id"]))
        return store


def _scalar(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
