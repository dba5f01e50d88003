"""WOLVES: detecting and resolving unsound workflow views.

A from-scratch Python reproduction of *WOLVES: Achieving Correct Provenance
Analysis by Detecting and Resolving Unsound Workflow Views* (Sun, Liu,
Natarajan, Davidson, Chen — VLDB 2009).

Quickstart::

    from repro import (WorkflowBuilder, WorkflowView, validate_view,
                       correct_view, Criterion)

    spec = (WorkflowBuilder("demo")
            .task(1, "fetch").task(2, "clean").task(3, "align")
            .task(4, "report")
            .chain(1, 2, 4).chain(1, 3, 4)
            .build())
    view = WorkflowView(spec, {"prep": [1], "work": [2, 3], "out": [4]})
    report = validate_view(view)           # is the view sound?
    fixed = correct_view(view, Criterion.STRONG).corrected

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.workflow import (
    Task,
    WorkflowSpec,
    WorkflowBuilder,
    catalog,
)
from repro.views import (
    WorkflowView,
    is_well_formed,
    user_view,
    singleton_view,
)
from repro.core import (
    Criterion,
    CompositeContext,
    correct_view,
    is_sound_composite,
    is_sound_view,
    optimal_split,
    quality,
    split_composite,
    strong_split,
    unsound_composites,
    validate_view,
    weak_split,
    Estimator,
)
from repro.provenance import (
    LineageAnswer,
    LineageQueryEngine,
    execute,
    lineage_correctness,
)
from repro.provenance.facade import hydrated_lineage_tasks as lineage_tasks
from repro.options import ResolvedOptions, resolve_options
from repro.repository import build_corpus
from repro.repository.corpus import CorpusSpec, materialize_corpus
from repro.service import AnalysisService, CorpusReport
from repro.persistence import AnalysisResultCache, DurableProvenanceStore
from repro.system import WolvesSession

__version__ = "1.0.0"

__all__ = [
    "Task",
    "WorkflowSpec",
    "WorkflowBuilder",
    "catalog",
    "WorkflowView",
    "is_well_formed",
    "user_view",
    "singleton_view",
    "Criterion",
    "CompositeContext",
    "correct_view",
    "is_sound_composite",
    "is_sound_view",
    "optimal_split",
    "quality",
    "split_composite",
    "strong_split",
    "unsound_composites",
    "validate_view",
    "weak_split",
    "Estimator",
    "execute",
    "lineage_tasks",
    "lineage_correctness",
    "LineageQueryEngine",
    "LineageAnswer",
    "ResolvedOptions",
    "resolve_options",
    "build_corpus",
    "CorpusSpec",
    "materialize_corpus",
    "AnalysisService",
    "CorpusReport",
    "AnalysisResultCache",
    "DurableProvenanceStore",
    "WolvesSession",
    "__version__",
]
