"""Per-layer figures from the spans of a traced run.

Every span carries the key of the job it served.  A span belongs to
the load generator's op (root span) with the same key whose interval
contains the span's start; spans of one op then nest by interval
containment, across threads and processes (one monotonic clock).  A
span's *self time* is its duration minus the union of its children's,
so the self times of all spans of an op plus the op's uncovered time
add up to the op's duration by construction.  ``trace.accounted_ratio``
therefore checks what construction does not: it rises above 1 when two
spans of an op overlap without nesting (time counted twice), and it
falls below 1 by the part of the ops' time covered by spans that could
be charged to no op (time seen in a layer but lost to the breakdown).
A layer that is not traced at all cannot show: its time is uncovered
time.

The uncovered time is where nothing traced was running: transport,
waiting, and any work outside the traced functions, on either side of
the connection.  It is charged to the hop it happened in -- the root's
uncovered time to the first server hop (the gateway when there is one,
else the daemon), the gateway's forward span's uncovered time to the
daemon hop.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from common import median

#: layers whose self time is busy work (hops are transport and waiting)
BUSY_LAYERS = ("protocol", "daemon", "joblog", "service", "repository",
               "core", "provenance", "graphs", "persistence")

_MS = 1e-6


class Span:
    __slots__ = ("name", "start", "end", "key", "size", "children",
                 "self_ns")

    def __init__(self, name: str, start: int, end: int,
                 key: Optional[str], size: int = 0) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.key = key
        self.size = size
        self.children: List["Span"] = []
        self.self_ns = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _merged(intervals: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    out: List[Tuple[int, int]] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return out


def _union_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    return sum(end - start for start, end in _merged(intervals))


def _overlap_ns(a: Iterable[Tuple[int, int]],
                b: Iterable[Tuple[int, int]]) -> int:
    """Length of the intersection of two sets of intervals."""
    a, b = _merged(a), _merged(b)
    total = i = j = 0
    while i < len(a) and j < len(b):
        total += max(0, min(a[i][1], b[j][1]) - max(a[i][0], b[j][0]))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def _nest(spans: List[Span]) -> None:
    """Parent = the innermost earlier span that contains it; then self
    time = duration minus the union of the children (clipped)."""
    ordered = sorted(spans, key=lambda s: (s.start, -s.end))
    stack: List[Span] = []
    for span in ordered:
        while stack and stack[-1].end <= span.start:
            stack.pop()
        for candidate in reversed(stack):
            if candidate.end >= span.end:
                candidate.children.append(span)
                break
        stack.append(span)
    for span in ordered:
        covered = _union_ns((max(c.start, span.start), min(c.end, span.end))
                            for c in span.children)
        span.self_ns = (span.end - span.start) - covered


def analyse(exports: Sequence[dict], window: Tuple[int, int],
            extras: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """The per-layer metrics of the ops (root spans) inside ``window``
    (``perf_counter_ns`` bounds).  ``extras`` supplies the figures that
    come from server counters rather than spans."""
    roots: List[Span] = []
    others: List[Span] = []
    events: Dict[str, List[Tuple[Optional[str], int]]] = defaultdict(list)
    for export in exports:
        for name, start, end, key, size in export["spans"]:
            span = Span(name, start, end, key, size)
            (roots if name == "op" else others).append(span)
        for name, entries in export["events"].items():
            events[name].extend((key, t) for key, t in entries)
    lo, hi = window
    roots = [r for r in roots if r.start >= lo and r.end <= hi]
    if not roots:
        raise ValueError("no traced ops inside the timed window")
    by_key: Dict[str, List[Span]] = defaultdict(list)
    for root in roots:
        by_key[root.key].append(root)
    for group in by_key.values():
        group.sort(key=lambda r: r.start)
    starts = {key: [r.start for r in group] for key, group in by_key.items()}

    def owner(key: Optional[str], t: int) -> Optional[Span]:
        group = by_key.get(key)
        if not group:
            return None
        i = bisect.bisect_right(starts[key], t) - 1
        while i >= 0:
            if group[i].start <= t <= group[i].end:
                return group[i]
            i -= 1
        return None

    members: Dict[int, List[Span]] = defaultdict(list)
    in_window = 0
    lost: List[Span] = []
    for span in others:
        if not (lo <= span.start <= hi):
            continue
        in_window += 1
        root = owner(span.key, span.start)
        if root is None:
            lost.append(span)
            continue
        members[id(root)].append(span)

    n = len(roots)
    self_by_name: Dict[str, int] = defaultdict(int)
    count_by_name: Dict[str, int] = defaultdict(int)
    size_by_name: Dict[str, int] = defaultdict(int)
    gateway_hops, daemon_hops, idles, durations = [], [], [], []
    total_busy = total_hop = 0
    for root in roots:
        spans = [root] + members[id(root)]
        _nest(spans)
        durations.append(root.end - root.start)
        gateway_hop = daemon_hop = 0
        forwarded = False
        for span in spans[1:]:
            self_by_name[span.name] += span.self_ns
            count_by_name[span.name] += 1
            size_by_name[span.name] += span.size
            if span.layer == "gateway":
                forwarded = True
                if span.name == "gateway.dispatched":
                    daemon_hop += span.self_ns
                else:
                    gateway_hop += span.self_ns
            elif span.layer in BUSY_LAYERS:
                total_busy += span.self_ns
        idles.append(root.self_ns)
        if forwarded:
            gateway_hop += root.self_ns
        elif any(s.layer == "daemon" for s in spans):
            daemon_hop += root.self_ns
        gateway_hops.append(gateway_hop)
        daemon_hops.append(daemon_hop)
        total_hop += gateway_hop + daemon_hop
    total_idle = sum(idles)
    total_op = sum(durations)
    served = any(d or g for d, g in zip(daemon_hops, gateway_hops))

    def per_op_ms(*names: str) -> float:
        return sum(self_by_name[name] for name in names) * _MS / n

    def layer_ms(layer: str) -> float:
        return sum(v for name, v in self_by_name.items()
                   if name.split(".", 1)[0] == layer) * _MS / n

    def event_count(name: str) -> int:
        return sum(1 for key, t in events.get(name, ())
                   if owner(key, t) is not None)

    waits = []
    dispatched = defaultdict(list)
    for key, t in events.get("daemon.dispatched", ()):
        dispatched[key].append(t)
    for key, t in events.get("daemon.queued", ()):
        root = owner(key, t)
        later = [d for d in dispatched.get(key, ()) if d >= t]
        if root is not None and later:
            waits.append(min(later) - t)
    lookups = event_count("persistence.cache_lookup")
    queries = count_by_name["provenance.sql_query"]
    protocol_names = [name for name in self_by_name
                      if name.startswith("protocol.")]
    # the uncovered time of the root is a hop when a server served the
    # op, and the load generator's own loop overhead otherwise; ops'
    # time under spans that belong to no op is lost to both
    accounted = total_busy + (total_hop if served else total_idle) \
        - _overlap_ns(((s.start, s.end) for s in lost),
                      ((r.start, r.end) for r in roots))
    metrics = {
        "protocol.frames_per_op": count_by_name["protocol.encode"] / n,
        "protocol.bytes_per_op": size_by_name["protocol.encode"] / n,
        "protocol.busy_ms_per_op": per_op_ms(*protocol_names),
        "daemon.hop_ms": median(daemon_hops) * _MS,
        "daemon.queue_wait_ms": (sum(waits) / len(waits) * _MS
                                 if waits else 0.0),
        "daemon.busy_ms_per_op": layer_ms("daemon"),
        "gateway.hop_ms": median(gateway_hops) * _MS,
        "joblog.calls_per_op": sum(v for name, v in count_by_name.items()
                                   if name.startswith("joblog.")) / n,
        "joblog.busy_ms_per_op": layer_ms("joblog"),
        "service.busy_ms_per_op": layer_ms("service"),
        "service.shards_per_op": count_by_name["service.run_shard"] / n,
        "repository.materialize_ms_per_op":
        per_op_ms("repository.materialize"),
        "core.validate_ms_per_op": per_op_ms("core.validate"),
        "core.correct_ms_per_op": per_op_ms("core.correct"),
        "provenance.execute_ms_per_op": per_op_ms("provenance.execute"),
        "provenance.compare_ms_per_op": per_op_ms("provenance.compare"),
        "provenance.sql_query_ms": (self_by_name["provenance.sql_query"]
                                    * _MS / queries if queries else 0.0),
        "graphs.label_ms_per_op": per_op_ms("graphs.label"),
        "graphs.closure_ms_per_op": per_op_ms("graphs.closure"),
        "persistence.add_run_self_ms": per_op_ms("persistence.add_run"),
        "persistence.catalog_ms_per_op": per_op_ms("persistence.catalog"),
        "persistence.commits_per_op": event_count("persistence.commit") / n,
        "persistence.cache_hit_ratio": (
            event_count("persistence.cache_hit") / lookups
            if lookups else 0.0),
        "persistence.cache_put_ms_per_op": per_op_ms("persistence.cache_put"),
        "trace.op_p50_ms": median(durations) * _MS,
        "trace.idle_ms_per_op": (0.0 if served else total_idle * _MS / n),
        "trace.accounted_ratio": accounted / total_op,
        "trace.unattributed_ratio": (len(lost) / in_window
                                     if in_window else 0.0),
    }
    metrics.update(extras or {})
    return metrics
