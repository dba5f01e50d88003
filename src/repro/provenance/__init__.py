"""Provenance: the reason views must be sound.

This package simulates workflow execution and reproduces the paper's
motivation end to end:

* :mod:`~repro.provenance.model` — an OPM-style provenance graph of
  artifacts and process invocations;
* :mod:`~repro.provenance.execution` — a deterministic simulated executor
  that runs a :class:`~repro.workflow.spec.WorkflowSpec` and records
  provenance;
* :mod:`~repro.provenance.index` — the per-run bitset lineage closure
  (:class:`ProvenanceIndex`) every query below runs on;
* :mod:`~repro.provenance.facade` — the unified
  :class:`LineageQueryEngine` query façade (typed answers; hydrated or
  SQL execution path) — the supported query surface;
* :mod:`~repro.provenance.viewlevel` — view-level provenance analysis and
  its correctness metrics: a sound view answers lineage queries exactly;
  an unsound view produces the spurious dependencies of Figure 1.
"""

from repro.provenance.model import (
    Artifact,
    Invocation,
    ProvenanceGraph,
)
from repro.provenance.execution import execute, WorkflowRun
from repro.provenance.facade import (
    ArtifactAnswer,
    LineageAnswer,
    LineageQueryEngine,
    RunsAnswer,
)
from repro.provenance.index import ProvenanceIndex
from repro.provenance.viewlevel import (
    view_lineage,
    lineage_correctness,
    LineageComparison,
)
from repro.provenance.store import ProvenanceStore
from repro.provenance.engine import IncrementalEngine, IncrementalResult

__all__ = [
    "Artifact",
    "Invocation",
    "ProvenanceGraph",
    "execute",
    "WorkflowRun",
    "ProvenanceIndex",
    "LineageQueryEngine",
    "LineageAnswer",
    "ArtifactAnswer",
    "RunsAnswer",
    "view_lineage",
    "lineage_correctness",
    "LineageComparison",
    "ProvenanceStore",
    "IncrementalEngine",
    "IncrementalResult",
]
