"""The unified lineage query façade: one engine, two execution paths.

:class:`LineageQueryEngine` is the one lineage query surface (it
replaced the earlier module functions, the cross-run store methods and
the session passthroughs, which returned bare sets and could not say
*how* an answer was produced):

* one constructor — wrap a single :class:`WorkflowRun` or a whole store
  (volatile or durable);
* typed frozen answers — :class:`LineageAnswer` / :class:`ArtifactAnswer`
  / :class:`RunsAnswer` carry the query name, the run they answer for,
  and ``source`` ∈ {``hydrated``, ``sql``} naming the path taken;
* a residency planner — per query, the engine picks the in-memory
  :class:`~repro.provenance.index.ProvenanceIndex` (``hydrated``) or the
  label-backed range scans of
  :mod:`repro.persistence.sqlqueries` (``sql``), so a cold durable store
  is audited without hydrating 10k runs into RAM.

Planner rules (``prefer="auto"``):

1. an engine wrapping a bare run always answers hydrated;
2. a durable store that is **not yet hydrated** answers from SQL when the
   run has persisted labels — the store stays cold;
3. a labeled run is still answered from SQL after hydration only under
   ``prefer="sql"`` (hydrated indexes are faster once paid for);
4. an *unlabeled* run in a cold store (pre-v2 rows before backfill) is
   loaded cold — just that run, not the store — and answered hydrated;
5. ``prefer="hydrated"`` / ``prefer="sql"`` force a path; forcing SQL on
   an unlabeled run raises
   :class:`~repro.persistence.sqlqueries.LabelsMissingError`.

The ``hydrated_*`` functions below are the in-memory path the engine
delegates to; they take a bare :class:`WorkflowRun` and return bare
sets and lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import PersistenceError, ProvenanceError
from repro.workflow.task import TaskId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.provenance.execution import WorkflowRun

#: the two execution paths an answer can name in ``source``
SOURCE_HYDRATED = "hydrated"
SOURCE_SQL = "sql"

_PREFERENCES = ("auto", "hydrated", "sql")


# -- typed answers -----------------------------------------------------------


@dataclass(frozen=True)
class LineageAnswer:
    """A task-set answer: which tasks, for which run, via which path."""

    query: str
    run_id: str
    source: str
    tasks: FrozenSet[TaskId]

    def __contains__(self, task_id: object) -> bool:
        return task_id in self.tasks

    def __iter__(self) -> Iterator[TaskId]:
        return iter(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)


@dataclass(frozen=True)
class ArtifactAnswer:
    """An ordered artifact/invocation-id answer (topological order)."""

    query: str
    run_id: str
    source: str
    ids: Tuple[str, ...]

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class RunsAnswer:
    """A cross-run sweep answer: run ids in recording order."""

    query: str
    source: str
    run_ids: Tuple[str, ...] = field(default=())

    def __iter__(self) -> Iterator[str]:
        return iter(self.run_ids)

    def __len__(self) -> int:
        return len(self.run_ids)


# -- hydrated implementations ------------------------------------------------
#
# the single source of truth for the in-memory path; the engine delegates
# here


def hydrated_lineage_artifacts(run: "WorkflowRun",
                               artifact_id: str) -> List[str]:
    return run.provenance_index().lineage_artifacts(artifact_id)


def hydrated_lineage_invocations(run: "WorkflowRun",
                                 artifact_id: str) -> List[str]:
    return run.provenance_index().lineage_invocations(artifact_id)


def hydrated_lineage_tasks(run: "WorkflowRun",
                           task_id: TaskId) -> Set[TaskId]:
    """The bare-set form of
    ``LineageQueryEngine(run=run).lineage_tasks(task_id).tasks``."""
    artifact = run.output_artifact(task_id)
    tasks = run.provenance_index().lineage_tasks_of_artifact(
        artifact.artifact_id)
    tasks.discard(task_id)
    return tasks


def hydrated_downstream_tasks(run: "WorkflowRun",
                              task_id: TaskId) -> Set[TaskId]:
    artifact = run.output_artifact(task_id)
    tasks = run.provenance_index().downstream_tasks_of_artifact(
        artifact.artifact_id)
    tasks.discard(task_id)
    return tasks


def hydrated_lineage_many(run: "WorkflowRun", artifact_ids: Iterable[str]
                          ) -> Dict[str, List[str]]:
    index = run.provenance_index()
    return {artifact_id: index.lineage_artifacts(artifact_id)
            for artifact_id in artifact_ids}


def hydrated_lineage_tasks_many(run: "WorkflowRun",
                                task_ids: Iterable[TaskId]
                                ) -> Dict[TaskId, Set[TaskId]]:
    index = run.provenance_index()
    found: Dict[TaskId, Set[TaskId]] = {}
    for task_id in task_ids:
        artifact = run.output_artifact(task_id)
        tasks = index.lineage_tasks_of_artifact(artifact.artifact_id)
        tasks.discard(task_id)
        found[task_id] = tasks
    return found


def hydrated_downstream_tasks_many(run: "WorkflowRun",
                                   task_ids: Iterable[TaskId]
                                   ) -> Dict[TaskId, Set[TaskId]]:
    index = run.provenance_index()
    found: Dict[TaskId, Set[TaskId]] = {}
    for task_id in task_ids:
        artifact = run.output_artifact(task_id)
        tasks = index.downstream_tasks_of_artifact(artifact.artifact_id)
        tasks.discard(task_id)
        found[task_id] = tasks
    return found


def hydrated_cone_of_change(run: "WorkflowRun", task_ids: Iterable[TaskId]
                            ) -> Set[TaskId]:
    index = run.provenance_index()
    changed = list(task_ids)
    mask = index.descendants_mask_of_artifacts(
        run.output_artifact(task_id).artifact_id for task_id in changed)
    affected = index.tasks_of_mask(mask)
    affected.update(changed)
    return affected


def hydrated_exit_lineage(run: "WorkflowRun") -> FrozenSet[TaskId]:
    exit_tasks = [task_id for task_id in run.spec.exit_tasks()
                  if task_id in run.outputs]
    tasks: Set[TaskId] = set(exit_tasks)
    for lineage in hydrated_lineage_tasks_many(run, exit_tasks).values():
        tasks |= lineage
    return frozenset(tasks)


# -- the engine --------------------------------------------------------------


class LineageQueryEngine:
    """One façade over every lineage query shape, hydrated or SQL.

    Wrap a run (``LineageQueryEngine(run=run)``) for single-run use, or
    a store (``LineageQueryEngine(store=store)``) for run-addressed and
    cross-run queries.  ``prefer`` pins the execution path; the default
    ``"auto"`` applies the planner rules in the module docstring.
    """

    def __init__(self, store=None, run: Optional["WorkflowRun"] = None, *,
                 prefer: str = "auto") -> None:
        if (store is None) == (run is None):
            raise ValueError(
                "LineageQueryEngine wraps exactly one of store= or run=")
        if prefer not in _PREFERENCES:
            raise ValueError(
                f"prefer must be one of {_PREFERENCES}, got {prefer!r}")
        self.store = store
        self.run = run
        self.prefer = prefer
        # cold-loaded runs for the unlabeled-run fallback: one run each,
        # never the whole store
        self._cold_runs: Dict[str, "WorkflowRun"] = {}

    # -- planner -----------------------------------------------------------

    def _sql_capable(self) -> bool:
        return self.store is not None and callable(
            getattr(self.store, "sql_queries", None))

    def _sql(self):
        return self.store.sql_queries()

    def _latest_run_id(self) -> str:
        if self._sql_capable() and not self.store.is_hydrated:
            run_ids = self._sql().run_ids()
        else:
            run_ids = self.store.run_ids()
        if not run_ids:
            raise ProvenanceError("store holds no runs")
        return run_ids[-1]

    def _resolve_run_id(self, run_id: Optional[str]) -> str:
        if self.run is not None:
            if run_id is not None and run_id != self.run.run_id:
                raise ProvenanceError(
                    f"engine wraps run {self.run.run_id!r}, "
                    f"not {run_id!r}")
            return self.run.run_id
        return run_id if run_id is not None else self._latest_run_id()

    def _route(self, run_id: Optional[str]):
        """``(source, backend, run_id)``: the planner.

        ``backend`` is a :class:`WorkflowRun` when ``source`` is
        ``hydrated`` and a
        :class:`~repro.persistence.sqlqueries.SqlLineageQueries` when
        ``sql``.
        """
        resolved = self._resolve_run_id(run_id)
        if self.run is not None:
            return SOURCE_HYDRATED, self.run, resolved
        if self._sql_capable() and self.prefer != "hydrated":
            sqlq = self._sql()
            if self.prefer == "sql":
                if not sqlq.has_labels(resolved):
                    from repro.persistence.sqlqueries import \
                        LabelsMissingError
                    raise LabelsMissingError(
                        f"run {resolved!r} has no persisted labels and "
                        f"prefer='sql' forbids the hydrated fallback")
                return SOURCE_SQL, sqlq, resolved
            if not self.store.is_hydrated:
                if sqlq.has_labels(resolved):
                    return SOURCE_SQL, sqlq, resolved
                # pre-v2 run in a cold store: load just this run
                run = self._cold_runs.get(resolved)
                if run is None:
                    run = self.store.load_run_cold(resolved)
                    self._cold_runs[resolved] = run
                return SOURCE_HYDRATED, run, resolved
        if self.prefer == "sql":
            raise PersistenceError(
                "prefer='sql' requires a durable (label-backed) store")
        return SOURCE_HYDRATED, self.store.run(resolved), resolved

    def _route_store(self):
        """``(source, backend)`` for cross-run sweeps: SQL on a cold
        durable store, the in-memory indexes otherwise."""
        if self.store is None:
            raise ProvenanceError(
                "cross-run queries need an engine wrapping a store")
        if self._sql_capable() and self.prefer != "hydrated":
            if self.prefer == "sql" or not self.store.is_hydrated:
                return SOURCE_SQL, self._sql()
        if self.prefer == "sql":
            raise PersistenceError(
                "prefer='sql' requires a durable (label-backed) store")
        return SOURCE_HYDRATED, self.store

    # -- per-run queries ---------------------------------------------------

    def lineage_tasks(self, task_id: TaskId,
                      run_id: Optional[str] = None) -> LineageAnswer:
        """Tasks whose output is in the provenance of ``task_id``'s
        output (the producing task itself excluded)."""
        source, backend, resolved = self._route(run_id)
        if source == SOURCE_SQL:
            tasks = backend.lineage_tasks(resolved, task_id)
        else:
            tasks = hydrated_lineage_tasks(backend, task_id)
        return LineageAnswer("lineage_tasks", resolved, source,
                             frozenset(tasks))

    def downstream_tasks(self, task_id: TaskId,
                         run_id: Optional[str] = None) -> LineageAnswer:
        """Tasks whose output depends on ``task_id``'s output."""
        source, backend, resolved = self._route(run_id)
        if source == SOURCE_SQL:
            tasks = backend.downstream_tasks(resolved, task_id)
        else:
            tasks = hydrated_downstream_tasks(backend, task_id)
        return LineageAnswer("downstream_tasks", resolved, source,
                             frozenset(tasks))

    def lineage_tasks_many(self, task_ids: Iterable[TaskId],
                           run_id: Optional[str] = None
                           ) -> Dict[TaskId, LineageAnswer]:
        source, backend, resolved = self._route(run_id)
        if source == SOURCE_SQL:
            found = backend.lineage_tasks_many(resolved, task_ids)
        else:
            found = hydrated_lineage_tasks_many(backend, task_ids)
        return {task_id: LineageAnswer("lineage_tasks", resolved, source,
                                       frozenset(tasks))
                for task_id, tasks in found.items()}

    def downstream_tasks_many(self, task_ids: Iterable[TaskId],
                              run_id: Optional[str] = None
                              ) -> Dict[TaskId, LineageAnswer]:
        source, backend, resolved = self._route(run_id)
        if source == SOURCE_SQL:
            found = backend.downstream_tasks_many(resolved, task_ids)
        else:
            found = hydrated_downstream_tasks_many(backend, task_ids)
        return {task_id: LineageAnswer("downstream_tasks", resolved, source,
                                       frozenset(tasks))
                for task_id, tasks in found.items()}

    def cone_of_change(self, task_ids: Iterable[TaskId],
                       run_id: Optional[str] = None) -> LineageAnswer:
        """``task_ids`` plus every task whose output transitively
        depends on one of them (what must re-run if they change)."""
        source, backend, resolved = self._route(run_id)
        changed = list(task_ids)
        if source == SOURCE_SQL:
            tasks = backend.cone_of_change(resolved, changed)
        else:
            tasks = hydrated_cone_of_change(backend, changed)
        return LineageAnswer("cone_of_change", resolved, source,
                             frozenset(tasks))

    def exit_lineage(self, run_id: Optional[str] = None) -> LineageAnswer:
        """The provenance cone of the run's final outputs (exit tasks
        included)."""
        source, backend, resolved = self._route(run_id)
        if source == SOURCE_SQL:
            cone = backend.cached_exit_lineage(resolved)
            if cone is None:
                cone = backend.exit_lineage(resolved)
        elif self.store is not None and backend is not self.run \
                and resolved not in self._cold_runs:
            # the store's memoized (and durable: write-behind) cone
            cone = self.store._exit_lineage_query(resolved)
        else:
            cone = hydrated_exit_lineage(backend)
        return LineageAnswer("exit_lineage", resolved, source,
                             frozenset(cone))

    def lineage_artifacts(self, artifact_id: str,
                          run_id: Optional[str] = None) -> ArtifactAnswer:
        """Artifacts in the provenance of ``artifact_id``, topologically
        ordered (itself excluded)."""
        source, backend, resolved = self._route(run_id)
        if source == SOURCE_SQL:
            ids = backend.lineage_artifacts(resolved, artifact_id)
        else:
            ids = hydrated_lineage_artifacts(backend, artifact_id)
        return ArtifactAnswer("lineage_artifacts", resolved, source,
                              tuple(ids))

    def lineage_invocations(self, artifact_id: str,
                            run_id: Optional[str] = None) -> ArtifactAnswer:
        """Invocations in the provenance of ``artifact_id``."""
        source, backend, resolved = self._route(run_id)
        if source == SOURCE_SQL:
            ids = backend.lineage_invocations(resolved, artifact_id)
        else:
            ids = hydrated_lineage_invocations(backend, artifact_id)
        return ArtifactAnswer("lineage_invocations", resolved, source,
                              tuple(ids))

    def lineage_many(self, artifact_ids: Iterable[str],
                     run_id: Optional[str] = None
                     ) -> Dict[str, ArtifactAnswer]:
        source, backend, resolved = self._route(run_id)
        if source == SOURCE_SQL:
            found = backend.lineage_many(resolved, artifact_ids)
        else:
            found = hydrated_lineage_many(backend, artifact_ids)
        return {artifact_id: ArtifactAnswer("lineage_artifacts", resolved,
                                            source, tuple(ids))
                for artifact_id, ids in found.items()}

    # -- cross-run sweeps --------------------------------------------------

    def runs_of_task(self, task_id: TaskId) -> RunsAnswer:
        """Runs that executed ``task_id``, in recording order."""
        source, backend = self._route_store()
        if source == SOURCE_SQL:
            run_ids = backend.runs_of_task(task_id)
        else:
            run_ids = backend._runs_of_task(task_id)
        return RunsAnswer("runs_of_task", source, tuple(run_ids))

    def runs_consuming(self, payload) -> RunsAnswer:
        """Runs in which some invocation consumed this payload."""
        source, backend = self._route_store()
        if source == SOURCE_SQL:
            run_ids = backend.runs_consuming(payload)
        else:
            run_ids = backend._runs_consuming(payload)
        return RunsAnswer("runs_consuming", source, tuple(run_ids))

    def runs_with_lineage_through(self, task_id: TaskId) -> RunsAnswer:
        """Runs whose final outputs transitively depend on ``task_id``."""
        source, backend = self._route_store()
        if source == SOURCE_SQL:
            from repro.persistence.sqlqueries import LabelsMissingError
            try:
                run_ids = backend.runs_with_lineage_through(task_id)
            except LabelsMissingError:
                if self.prefer == "sql":
                    raise
                # some run predates the label tables: fall back to the
                # hydrated sweep (which also writes the cones behind)
                source = SOURCE_HYDRATED
                run_ids = self.store._runs_with_lineage_through(task_id)
        else:
            run_ids = backend._runs_with_lineage_through(task_id)
        return RunsAnswer("runs_with_lineage_through", source,
                          tuple(run_ids))
