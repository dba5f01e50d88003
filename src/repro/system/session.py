"""The WOLVES session: the Figure 2 control loop.

A :class:`WolvesSession` owns a specification, a current view, the
validator/corrector/feedback modules, and the iteration history.  The usage
pattern is the demo's outline::

    session = WolvesSession(spec, view)
    session.validate()                       # red/green report
    session.correct(Criterion.STRONG)        # resolve unsound composites
    session.create_composite_task(["A", "B"])  # user feedback, re-validated
    session.view                             # the current (possibly sound) view

Every step is recorded so examples and tests can replay the interaction.

The session owns one :class:`~repro.core.incremental.AnalysisCache` shared
by every module: the validator, the post-edit re-validations of the
Feedback module, and the soundness probes after corrections all consult the
same witness cache over the same spec-level reachability index.  An edit
therefore costs O(touched composites), not O(view) — the property the
interactive loop needs on large workflows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.core.corrector import CorrectionReport, Criterion
from repro.core.estimator import Estimate
from repro.core.incremental import AnalysisCache
from repro.core.soundness import ValidationReport
from repro.core.split import SplitResult
from repro.errors import CorrectionError, ProvenanceError, ViewError
from repro.options import resolve_options
from repro.provenance.execution import WorkflowRun
from repro.provenance.facade import LineageQueryEngine
from repro.provenance.store import ProvenanceStore
from repro.provenance.viewlevel import (
    LineageComparison,
    compare_lineage,
    lineage_correctness,
)
from repro.system.corrector import CorrectorModule
from repro.system.feedback import (
    FeedbackOutcome,
    create_composite_task,
    move_task,
)
from repro.views.view import CompositeLabel, WorkflowView
from repro.workflow.spec import WorkflowSpec


@dataclass
class SessionEvent:
    """One step of the session history."""

    kind: str
    detail: str
    sound_after: bool


@dataclass
class WolvesSession:
    """Interactive state machine over one workflow and its view."""

    spec: WorkflowSpec
    view: WorkflowView
    corrector: CorrectorModule = field(default_factory=CorrectorModule)
    history: List[SessionEvent] = field(default_factory=list)
    analysis: Optional[AnalysisCache] = None
    store: Optional[ProvenanceStore] = None
    #: path of a durable SQLite provenance database; when given (and no
    #: explicit ``store``), runs recorded in this session survive
    #: restarts — a later session with the same path sees them
    db_path: Optional[str] = None
    #: SQLite busy budget for the session's durable store (keyword beats
    #: the WOLVES_DB_TIMEOUT_MS environment variable beats the default)
    timeout_ms: Optional[int] = None
    #: bitset-kernel backend override threaded into the store's label
    #: computation (keyword beats WOLVES_KERNEL beats auto-selection)
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        if self.view.spec is not self.spec:
            raise ViewError("view does not belong to this session's spec")
        if self.analysis is None:
            self.analysis = AnalysisCache(self.spec)
        # resolve the store/kernel knobs ONCE at the outermost layer;
        # everything below receives the resolved values
        self.options = resolve_options(db_path=self.db_path,
                                       timeout_ms=self.timeout_ms,
                                       kernel=self.kernel)
        if self.store is None:
            if self.options.db_path is not None:
                from repro.persistence.store import DurableProvenanceStore

                self.store = DurableProvenanceStore(
                    self.options.db_path, self.spec,
                    timeout_ms=self.options.timeout_ms,
                    kernel=self.options.kernel)
            else:
                self.store = ProvenanceStore(self.spec)

    # -- validator --------------------------------------------------------

    def validate(self) -> ValidationReport:
        report = self.analysis.validate(self.view)
        self._log("validate", report.summary(), report.sound)
        return report

    @property
    def is_sound(self) -> bool:
        return self.analysis.validate(self.view).sound

    def analysis_record(self, family: str = "user",
                        shape: str = "imported"):
        """The current view's validation as a corpus-style
        :class:`~repro.service.results.ViewAnalysis` record.

        This is the single-view unit the analysis daemon's ``validate``
        jobs stream: the same picklable record shape a corpus sweep
        emits, so one client-side decoder handles both, and the
        daemon-vs-direct differential tests can compare byte-identical
        payloads.
        """
        from repro.service.results import ViewAnalysis

        report = self.analysis.validate(self.view)
        return ViewAnalysis(
            entry_index=0, workflow=self.spec.name, family=family,
            shape=shape, scenario=None, tasks=len(self.spec),
            composites=len(self.view), report=report)

    # -- corrector --------------------------------------------------------

    def estimates(self, label: CompositeLabel) -> Dict[str, Estimate]:
        """Section 3.2's per-approach predictions for one composite."""
        return self.corrector.estimates(self.view, label)

    def correct(self, criterion: Criterion = Criterion.STRONG
                ) -> CorrectionReport:
        """Correct the whole view (GUI: right-click, *Correct View*)."""
        targets = self.analysis.validate(self.view).unsound_composites
        report = self.corrector.correct_view(self.view, criterion,
                                             targets=targets)
        self.view = report.corrected
        sound_after = self.is_sound
        if targets and not sound_after:
            # the targets covered every unsound composite, so the corrected
            # view must be sound (the assertion core.correct_view runs for
            # self-discovered targets — here via the incremental cache)
            raise CorrectionError(
                f"internal error: corrected view {self.view.name!r} "
                f"is not sound")
        self._log("correct", report.summary(), sound_after)
        return report

    def split_task(self, label: CompositeLabel,
                   criterion: Criterion = Criterion.STRONG) -> SplitResult:
        """Correct a single composite (GUI: *Split Task*)."""
        result = self.corrector.split_task(self.view, label, criterion)
        self.view = self.corrector.apply(self.view, label, result)
        self._log("split",
                  f"{label} -> {result.part_count} parts "
                  f"({result.algorithm})", self.is_sound)
        return result

    # -- feedback ----------------------------------------------------------

    def create_composite_task(self, labels: Iterable[CompositeLabel],
                              new_label: Optional[CompositeLabel] = None
                              ) -> FeedbackOutcome:
        """Merge composites (GUI: *Create Composite Task*), re-validated."""
        outcome = create_composite_task(self.view, labels,
                                        new_label=new_label,
                                        cache=self.analysis)
        self.view = outcome.view
        detail = outcome.report.summary()
        if outcome.warning:
            detail += f" (warning: {outcome.warning})"
        self._log("merge", detail, outcome.sound)
        return outcome

    def move_task(self, task_id, target_label: CompositeLabel
                  ) -> FeedbackOutcome:
        outcome = move_task(self.view, task_id, target_label,
                            cache=self.analysis)
        self.view = outcome.view
        self._log("move", outcome.report.summary(), outcome.sound)
        return outcome

    # -- provenance ---------------------------------------------------------
    #
    # Session-level provenance queries share the session's state: runs live
    # in the one ProvenanceStore (whose secondary indexes are maintained on
    # add_run), task-level lineage rides each run's memoized bitset
    # ProvenanceIndex, and view-level answers reuse the same spec
    # reachability index the AnalysisCache validates against.

    def record_run(self, run: WorkflowRun) -> WorkflowRun:
        """Store an executed run (GUI: a workflow finished executing)."""
        self.store.add_run(run)
        self._log("record_run",
                  f"{run.run_id} ({len(run.provenance)} OPM nodes)",
                  self.is_sound)
        return run

    def _resolve_run(self, run_id: Optional[str]) -> WorkflowRun:
        if run_id is not None:
            return self.store.run(run_id)
        run_ids = self.store.run_ids()
        if not run_ids:
            raise ProvenanceError(
                "no run recorded in this session; call record_run() first")
        return self.store.run(run_ids[-1])

    @property
    def queries(self) -> LineageQueryEngine:
        """The unified lineage query façade over the session's store."""
        return LineageQueryEngine(store=self.store)

    def compare_lineage(self, task_id) -> LineageComparison:
        """View answer vs truth for one provenance query on the current
        view (the demo's red/green lineage panel)."""
        return compare_lineage(self.view, task_id)

    def lineage_correctness(self):
        """Average precision/recall of the current view's lineage answers."""
        return lineage_correctness(self.view)

    # -- history ------------------------------------------------------------

    def transcript(self) -> str:
        """The session as readable text (used by the interactive example)."""
        lines = [f"session on workflow {self.spec.name!r}"]
        for i, event in enumerate(self.history, start=1):
            status = "sound" if event.sound_after else "unsound"
            lines.append(f"  {i}. [{event.kind}] {event.detail} "
                         f"-> view {status}")
        return "\n".join(lines)

    def _log(self, kind: str, detail: str, sound_after: bool) -> None:
        self.history.append(SessionEvent(kind=kind, detail=detail,
                                         sound_after=sound_after))
