"""Durable, SQLite-backed persistence for provenance and analysis state.

Everything built on the in-memory layers — the incremental engine, the
indexed provenance queries, the corpus-scale batch service — evaporates
on process exit.  This package makes the two long-lived kinds of state
survive restarts and shared access, following the log-structured-store-
with-in-memory-secondary-indexes design (LogBase) and the WAL/pragma
idiom of production SQLite schemas:

* :class:`DurableProvenanceStore`
  (:mod:`repro.persistence.store`) — the append-only run log on disk;
  secondary indexes rebuilt lazily on open, so every hydrated query
  path of :mod:`repro.provenance.facade` stays index-only and
  bit-identical to the volatile :class:`~repro.provenance.store.
  ProvenanceStore`;
* :class:`AnalysisResultCache` (:mod:`repro.persistence.cache`) —
  content-fingerprint-keyed validation/correction/audit records, the
  warm-restart path of
  :class:`~repro.service.service.AnalysisService`;
* :mod:`repro.persistence.db` / :mod:`repro.persistence.schema` — the
  shared connection discipline (WAL, ``foreign_keys=ON``,
  ``synchronous=NORMAL``, busy timeout) and the versioned DDL.

The ``wolves db`` CLI group (``init`` / ``stats`` / ``vacuum`` /
``export``) administers a database from the command line.
"""

from repro.persistence.cache import (
    AnalysisResultCache,
    CacheKey,
    MemoRow,
    corpus_fingerprint,
    spec_fingerprint,
    view_fingerprint,
)
from repro.persistence.db import PRAGMAS, connect, transaction
from repro.persistence.schema import SCHEMA_VERSION
from repro.persistence.store import DurableProvenanceStore

__all__ = [
    "AnalysisResultCache",
    "CacheKey",
    "DurableProvenanceStore",
    "MemoRow",
    "PRAGMAS",
    "SCHEMA_VERSION",
    "connect",
    "corpus_fingerprint",
    "spec_fingerprint",
    "transaction",
    "view_fingerprint",
]
