"""Lineage queries as SQL range scans over persisted reachability labels.

This module is the cold-store counterpart of the ``hydrated_*`` query
functions of :mod:`repro.provenance.facade`: every query shape the in-memory
:class:`~repro.provenance.index.ProvenanceIndex` answers (lineage
artifacts/invocations/tasks, downstream tasks, batched ``*_many`` forms,
cone-of-change, exit lineage, and the cross-run sweeps) is answered here
**without hydrating a run** — directly from the ``opm_labels`` tables
written at ``add_run`` time (:mod:`repro.graphs.labeling`, schema v2).

The reachability decomposition makes this possible:

* *forest part* — ``u`` is a spanning-forest ancestor of ``v`` iff
  ``pre(u) < pre(v) AND post(u) > post(v)``; one indexed range scan per
  query (``idx_opm_labels_pre``);
* *spill part* — whatever the forest misses is a per-node bitset blob;
  decoding it yields topological positions fetched back in chunked
  ``IN`` lookups on the ``(run_id, position)`` primary key.

``answers = range-scan ∪ spill-decode`` is exact, and because label
positions equal the in-memory index's bit positions, list-valued answers
come back in the same topological order and set-valued answers are
bit-identical — the hypothesis equivalence battery pins this on every
query shape.

Everything here works on a read-only connection; write-behind concerns
(exit-lineage cone materialization) stay in the store layer.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import PersistenceError, ProvenanceError
from repro.graphs.labeling import blob_to_positions
from repro.workflow.spec import WorkflowSpec
from repro.workflow.task import TaskId

#: SQLite's default variable limit is 999; chunk ``IN`` fetches well below
_IN_CHUNK = 500


class LabelsMissingError(PersistenceError):
    """The run has no persisted labels (pre-v2 rows not yet backfilled).

    The query planner catches this and falls back to loading the single
    run cold and answering through the hydrated index.
    """


#: one node's label row: (position, pre, post, anc_spill, desc_spill)
_Label = Tuple[int, int, int, Optional[bytes], Optional[bytes]]


def payload_key(payload: Any) -> str:
    """The canonical JSON text payloads are stored under (read side of
    the store's ``_canonical``; equality of texts = equality of values)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class SqlLineageQueries:
    """Label-backed lineage queries over one open store connection.

    Stateless beyond the connection and the spec's task-id mapping:
    instances are cheap, hold no per-run caches, and never load a run —
    peak memory is one answer set, which is what lets a cold audit of a
    store larger than RAM stay RSS-bounded.
    """

    def __init__(self, conn, spec: WorkflowSpec) -> None:
        self.conn = conn
        self.spec = spec
        self._task_by_str = {str(t): t for t in spec.task_ids()}

    # -- residency ---------------------------------------------------------

    def has_labels(self, run_id: str) -> bool:
        return self.conn.execute(
            "SELECT 1 FROM run_labels WHERE run_id = ?",
            (run_id,)).fetchone() is not None

    def labeled_run_ids(self) -> List[str]:
        try:
            return [run_id for (run_id,) in self.conn.execute(
                "SELECT r.run_id FROM runs r "
                "JOIN run_labels l ON l.run_id = r.run_id "
                "ORDER BY r.position")]
        except sqlite3.OperationalError:
            return []  # v1 file: run_labels table absent

    def label_coverage(self) -> Tuple[int, int]:
        """``(labeled_runs, total_runs)`` — the ``db stats`` payload."""
        total = self.conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
        try:
            labeled = self.conn.execute(
                "SELECT COUNT(*) FROM run_labels").fetchone()[0]
        except sqlite3.OperationalError:
            labeled = 0  # v1 file: table absent
        return labeled, total

    # -- label plumbing ----------------------------------------------------

    def _task(self, task_id: str) -> TaskId:
        return self._task_by_str.get(task_id, task_id)

    def _node_label(self, run_id: str, kind: str, node_id: str) -> _Label:
        row = self.conn.execute(
            "SELECT position, pre, post, anc_spill, desc_spill "
            "FROM opm_labels WHERE run_id = ? AND kind = ? AND node_id = ?",
            (run_id, kind, node_id)).fetchone()
        if row is None:
            if not self.has_labels(run_id):
                raise LabelsMissingError(
                    f"run {run_id!r} has no persisted reachability labels; "
                    f"backfill the store (wolves db backfill) or use the "
                    f"hydrated path")
            raise ProvenanceError(f"unknown {kind} {node_id!r}")
        return row

    def _ancestor_positions(self, run_id: str, label: _Label) -> Set[int]:
        _, pre, post, anc_spill, _ = label
        positions = {position for (position,) in self.conn.execute(
            "SELECT position FROM opm_labels "
            "WHERE run_id = ? AND pre < ? AND post > ?",
            (run_id, pre, post))}
        positions.update(blob_to_positions(anc_spill))
        return positions

    def _descendant_positions(self, run_id: str, label: _Label) -> Set[int]:
        _, pre, post, _, desc_spill = label
        positions = {position for (position,) in self.conn.execute(
            "SELECT position FROM opm_labels "
            "WHERE run_id = ? AND pre > ? AND post < ?",
            (run_id, pre, post))}
        positions.update(blob_to_positions(desc_spill))
        return positions

    def _rows_at(self, run_id: str, positions: Iterable[int]
                 ) -> List[Tuple[int, str, str, Optional[str]]]:
        """``(position, kind, node_id, task_id)`` rows for a position set,
        ascending by position (= the index's bit/topological order)."""
        wanted = sorted(set(positions))
        rows: List[Tuple[int, str, str, Optional[str]]] = []
        for start in range(0, len(wanted), _IN_CHUNK):
            chunk = wanted[start:start + _IN_CHUNK]
            marks = ",".join("?" * len(chunk))
            rows.extend(self.conn.execute(
                f"SELECT position, kind, node_id, task_id FROM opm_labels "
                f"WHERE run_id = ? AND position IN ({marks})",
                (run_id, *chunk)))
        rows.sort()
        return rows

    def _tasks_at(self, run_id: str, positions: Iterable[int]) -> Set[TaskId]:
        return {self._task(task_id)
                for _, kind, _, task_id in self._rows_at(run_id, positions)
                if kind == "invocation"}

    def run_task_ids(self, run_id: str) -> List[TaskId]:
        """Tasks that executed in ``run_id`` (its recorded outputs),
        in deterministic (sorted) order — the audit sweep's default
        query set."""
        return [self._task(task_id) for (task_id,) in self.conn.execute(
            "SELECT task_id FROM run_outputs WHERE run_id = ? "
            "ORDER BY task_id", (run_id,))]

    def output_artifact_id(self, run_id: str, task_id: TaskId) -> str:
        row = self.conn.execute(
            "SELECT artifact_id FROM run_outputs "
            "WHERE run_id = ? AND task_id = ?",
            (run_id, str(task_id))).fetchone()
        if row is None:
            raise ProvenanceError(
                f"run {run_id!r} has no output for task {task_id!r}")
        return row[0]

    # -- per-run lineage queries -------------------------------------------
    #
    # shapes and ordering mirror the facade's hydrated_* functions exactly

    def lineage_artifacts(self, run_id: str, artifact_id: str) -> List[str]:
        label = self._node_label(run_id, "artifact", artifact_id)
        rows = self._rows_at(run_id,
                             self._ancestor_positions(run_id, label))
        return [node_id for _, kind, node_id, _ in rows
                if kind == "artifact"]

    def lineage_invocations(self, run_id: str, artifact_id: str) -> List[str]:
        label = self._node_label(run_id, "artifact", artifact_id)
        rows = self._rows_at(run_id,
                             self._ancestor_positions(run_id, label))
        return [node_id for _, kind, node_id, _ in rows
                if kind == "invocation"]

    def lineage_tasks(self, run_id: str, task_id: TaskId) -> Set[TaskId]:
        artifact_id = self.output_artifact_id(run_id, task_id)
        label = self._node_label(run_id, "artifact", artifact_id)
        tasks = self._tasks_at(run_id,
                               self._ancestor_positions(run_id, label))
        tasks.discard(task_id)
        return tasks

    def downstream_tasks(self, run_id: str, task_id: TaskId) -> Set[TaskId]:
        artifact_id = self.output_artifact_id(run_id, task_id)
        label = self._node_label(run_id, "artifact", artifact_id)
        tasks = self._tasks_at(run_id,
                               self._descendant_positions(run_id, label))
        tasks.discard(task_id)
        return tasks

    def lineage_many(self, run_id: str, artifact_ids: Iterable[str]
                     ) -> Dict[str, List[str]]:
        return {artifact_id: self.lineage_artifacts(run_id, artifact_id)
                for artifact_id in artifact_ids}

    def lineage_tasks_many(self, run_id: str, task_ids: Iterable[TaskId]
                           ) -> Dict[TaskId, Set[TaskId]]:
        return {task_id: self.lineage_tasks(run_id, task_id)
                for task_id in task_ids}

    def downstream_tasks_many(self, run_id: str, task_ids: Iterable[TaskId]
                              ) -> Dict[TaskId, Set[TaskId]]:
        return {task_id: self.downstream_tasks(run_id, task_id)
                for task_id in task_ids}

    def cone_of_change(self, run_id: str, task_ids: Iterable[TaskId]
                       ) -> Set[TaskId]:
        changed = list(task_ids)
        positions: Set[int] = set()
        for task_id in changed:
            artifact_id = self.output_artifact_id(run_id, task_id)
            label = self._node_label(run_id, "artifact", artifact_id)
            positions |= self._descendant_positions(run_id, label)
        affected = self._tasks_at(run_id, positions)
        affected.update(changed)
        return affected

    def exit_lineage(self, run_id: str) -> FrozenSet[TaskId]:
        """The run's exit-lineage cone straight from the labels (the
        cached ``exit_lineage`` rows, when present, are the store layer's
        concern)."""
        exit_tasks = [task_id for task_id in self.spec.exit_tasks()
                      if self.conn.execute(
                          "SELECT 1 FROM run_outputs "
                          "WHERE run_id = ? AND task_id = ?",
                          (run_id, str(task_id))).fetchone() is not None]
        positions: Set[int] = set()
        for task_id in exit_tasks:
            artifact_id = self.output_artifact_id(run_id, task_id)
            label = self._node_label(run_id, "artifact", artifact_id)
            positions |= self._ancestor_positions(run_id, label)
        tasks = self._tasks_at(run_id, positions)
        tasks.update(exit_tasks)
        return frozenset(tasks)

    def cached_exit_lineage(self, run_id: str) -> Optional[FrozenSet[TaskId]]:
        """The materialized cone from the ``exit_lineage`` table, or
        ``None`` when this run's cone was never written behind."""
        cached = self.conn.execute(
            "SELECT exit_lineage_cached FROM runs WHERE run_id = ?",
            (run_id,)).fetchone()
        if cached is None:
            raise ProvenanceError(f"unknown run {run_id!r}")
        if not cached[0]:
            return None
        return frozenset(
            self._task(task_id) for (task_id,) in self.conn.execute(
                "SELECT task_id FROM exit_lineage WHERE run_id = ?",
                (run_id,)))

    # -- cross-run sweeps --------------------------------------------------

    def run_ids(self) -> List[str]:
        return [run_id for (run_id,) in self.conn.execute(
            "SELECT run_id FROM runs ORDER BY position")]

    def runs_of_task(self, task_id: TaskId) -> List[str]:
        """Runs that executed ``task_id``, in recording order."""
        return [run_id for (run_id,) in self.conn.execute(
            "SELECT r.run_id FROM runs r "
            "WHERE EXISTS (SELECT 1 FROM run_outputs o "
            "              WHERE o.run_id = r.run_id AND o.task_id = ?) "
            "ORDER BY r.position", (str(task_id),))]

    def runs_consuming(self, payload: Any) -> List[str]:
        """Runs in which some invocation consumed this payload, in
        recording order (payloads compare by canonical JSON text, the
        same equality the content indexes use)."""
        return [run_id for (run_id,) in self.conn.execute(
            "SELECT r.run_id FROM runs r "
            "WHERE EXISTS ("
            "  SELECT 1 FROM invocation_uses u "
            "  JOIN artifacts a ON a.run_id = u.run_id "
            "                  AND a.artifact_id = u.artifact_id "
            "  WHERE u.run_id = r.run_id AND a.payload = ?) "
            "ORDER BY r.position", (payload_key(payload),))]

    def runs_with_lineage_through(self, task_id: TaskId) -> List[str]:
        """Runs whose final outputs transitively depend on ``task_id``,
        in recording order; cached cones are consulted first, uncached
        runs answered from their labels."""
        found = []
        for run_id in self.run_ids():
            cone = self.cached_exit_lineage(run_id)
            if cone is None:
                cone = self.exit_lineage(run_id)
            if task_id in cone:
                found.append(run_id)
        return found
