"""Causal critical-path profiler: per-request phase attribution.

Consumes tracer events (live :class:`~repro.obs.tracer.Tracer` objects
or exported Chrome trace JSON) and answers *why* a request took as long
as it did:

* **Requests** are the tracer's ``call:`` offload spans and ``request``
  spans (:meth:`Tracer.request_span`); with neither present the whole
  trace is treated as one request.

* **Phase attribution** assigns every nanosecond of a request window to
  exactly one typed phase via a priority sweep over the activity spans
  inside the window::

      pu_exec > dma > wire > fetch > cqe > wait_blocked > queueing

  A nanosecond where a PU executes *and* a WAIT is blocked counts as
  ``pu_exec`` (the WAIT is not the bottleneck there); a nanosecond
  where nothing recorded is happening is ``queueing``. Because the
  sweep partitions the window, per-phase durations **sum exactly** to
  the end-to-end latency — no double counting, no unattributed gaps.
  All times are integer nanoseconds end to end (Chrome traces store
  microsecond floats, but ``round(ts_us * 1000)`` recovers the exact
  integer for any plausible simulated timestamp).

* **Critical path**: a causal DAG is reconstructed over the window's
  events — post -> doorbell -> fetch (incl. prefetch cache hits) ->
  WAIT blocks woken by CQE counter bumps -> PU execute -> DMA/wire ->
  CQE delivery — and walked backwards from the request's completion,
  always to the predecessor that *enabled* the current event (falling
  back to the latest finisher when no typed edge matches). Each hop
  reports how much latency it contributed.

Nothing here runs during simulation: profiling is a post-processing
pass over already-recorded events, so the zero-cost guarantee of
``repro.obs`` (tracing off => untouched schedule) is unaffected.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .inspect import TraceData, load_trace

__all__ = [
    "PHASES",
    "RequestProfile",
    "CritPathProfile",
    "attribute_spans",
    "profile_events",
    "profile_tracer",
    "profile_trace",
    "sync_counts",
]

#: The phase taxonomy, in attribution-priority order (highest first;
#: ``queueing`` is the gap filler and has no spans of its own).
PHASES = ("pu_exec", "dma", "wire", "fetch", "cqe", "wait_blocked",
          "queueing")

_PRIORITY = {phase: len(PHASES) - index
             for index, phase in enumerate(PHASES)}


class NormalizedEvent:
    """One trace event in integer nanoseconds with a resolved track."""

    __slots__ = ("ph", "cat", "name", "track", "ts", "dur", "args")

    def __init__(self, ph: str, cat: str, name: str, track: str,
                 ts: int, dur: int, args: Optional[Dict[str, Any]]):
        self.ph = ph
        self.cat = cat
        self.name = name
        self.track = track          # "<process>/<thread>", e.g. "nic/wq:ctl"
        self.ts = ts
        self.dur = dur
        self.args = args or {}

    @property
    def end(self) -> int:
        return self.ts + self.dur

    def __repr__(self) -> str:
        return (f"<Ev {self.ph} {self.name} @{self.ts}"
                f"{f'+{self.dur}' if self.dur else ''} {self.track}>")


def _events(data: TraceData) -> List[NormalizedEvent]:
    """A parsed Chrome trace's events, counters dropped, in integer ns."""
    out: List[NormalizedEvent] = []
    for event in data.events:
        ph = event.get("ph")
        if ph == "C":
            continue
        ts = round(event.get("ts", 0) * 1000)
        dur = round(event.get("dur", 0) * 1000)
        out.append(NormalizedEvent(
            ph, event.get("cat", ""), event.get("name", ""),
            data.track_name(event), ts, dur, event.get("args")))
    return out


# -- phase classification ------------------------------------------------


def _phase_of(event: NormalizedEvent) -> Optional[Tuple[str, str]]:
    """(phase, detail) for activity spans; None for everything else."""
    if event.ph != "X":
        return None
    cat = event.cat
    if cat == "fetch":
        return ("fetch", event.name)
    if cat == "exec":
        # PU occupancy spans live on port tracks and are named after
        # the bare opcode; "op:" spans (exec_start -> completion, on wq
        # tracks) span the whole data path and would double-cover it.
        if event.name.startswith("op:"):
            return None
        return ("pu_exec", event.name)
    if cat == "dma":
        return ("dma", event.name)
    if cat == "wire":
        return ("wire", event.name)
    if cat == "cqe":
        return ("cqe", event.name)
    if cat == "sync" and event.name == "WAIT":
        cq_num = event.args.get("cq_num")
        detail = f"WAIT(cq{cq_num})" if cq_num is not None else "WAIT"
        return ("wait_blocked", detail)
    if cat == "link":
        # Cross-shard synchronizer hops (ShardFabric messages) are wire
        # time from the critical-path taxonomy's point of view.
        return ("wire", event.name)
    return None


def attribute_spans(spans: List[Tuple[int, int, str, Any]],
                    t0: int, t1: int,
                    phases: Tuple[str, ...] = PHASES,
                    priority: Optional[Dict[str, int]] = None,
                    gap_phase: str = "queueing",
                    gap_detail: Any = "idle",
                    ) -> Tuple[Dict[str, int], Counter]:
    """Partition [t0, t1) over ``spans`` by phase priority.

    The exact-sum sweep shared by the critical-path profiler and the
    tail-blame plane (``repro.obs.blame``): ``spans`` are (start, end,
    phase, detail) tuples already clamped to the window; ``phases`` is
    the taxonomy in priority order (highest first) with ``gap_phase``
    as the filler for uncovered nanoseconds. Returns ({phase: ns},
    Counter[(phase, detail)] -> ns); the phase dict always carries
    every phase and sums **exactly** to ``t1 - t0`` — the sweep
    partitions the window, so nothing is double counted or dropped.
    """
    if priority is None:
        priority = {phase: len(phases) - index
                    for index, phase in enumerate(phases)}
    totals = {phase: 0 for phase in phases}
    details: Counter = Counter()
    if t1 <= t0:
        return totals, details
    bounds = {t0, t1}
    for start, end, _, _ in spans:
        bounds.add(start)
        bounds.add(end)
    cuts = sorted(bounds)
    ordered = sorted(spans, key=lambda s: (s[0], s[1], s[2], str(s[3])))
    active: List[Tuple[int, int, str, Any]] = []
    index = 0
    for a, b in zip(cuts, cuts[1:]):
        while index < len(ordered) and ordered[index][0] <= a:
            active.append(ordered[index])
            index += 1
        if active:
            active = [span for span in active if span[1] > a]
        if active:
            # Highest priority wins; ties break on the latest-started,
            # then lexicographically — fully deterministic.
            _, end, phase, detail = max(
                active, key=lambda s: (priority[s[2]], s[0], str(s[3])))
        else:
            phase, detail = gap_phase, gap_detail
        totals[phase] += b - a
        details[(phase, detail)] += b - a
    return totals, details


def _attribute(spans: List[Tuple[int, int, str, str]],
               t0: int, t1: int) -> Tuple[Dict[str, int], Counter]:
    """The critical-path taxonomy's instantiation of the sweep."""
    return attribute_spans(spans, t0, t1, PHASES, _PRIORITY)


# -- causal DAG / critical path ------------------------------------------


def _predecessor(node: NormalizedEvent,
                 events: List[NormalizedEvent]) -> Optional[NormalizedEvent]:
    """The event that causally enabled ``node``, by typed edge.

    Falls back to the latest event finishing at or before the node's
    start (strictly before its own finish, so the walk terminates).
    """
    args = node.args
    candidates: List[NormalizedEvent] = []

    if node.cat == "sync" and node.name == "WAIT" and node.ph == "X":
        # A WAIT span ends wait_check_ns after the CQE counter bump
        # that satisfied it: cqe instant with matching cq/threshold.
        for event in events:
            if (event.cat == "cqe" and event.ph == "i"
                    and event.args.get("cq_num") == args.get("cq_num")
                    and event.args.get("count") == args.get("count")
                    and event.ts <= node.end):
                candidates.append(event)
    elif node.cat == "cqe":
        # CQE (instant or cqe_dma span) at the moment an op completed.
        for event in events:
            if (event.cat == "exec" and event.name.startswith("op:")
                    and event.end == node.ts):
                candidates.append(event)
    elif node.cat == "exec" and node.name.startswith("op:"):
        # op span starts at execute-begin: enabled by its WQE fetch.
        wr_index = args.get("wr_index")
        for event in events:
            if (event.cat == "fetch" and event.ph == "i"
                    and event.track == node.track
                    and event.args.get("wr_index") == wr_index
                    and event.ts <= node.ts):
                candidates.append(event)
    elif node.cat == "fetch" and node.ph == "i":
        # A fetched WQE snapshot lands at its fetch DMA's end.
        wq_name = node.track.rsplit("wq:", 1)[-1]
        for event in events:
            if (event.cat == "fetch" and event.ph == "X"
                    and event.args.get("wq") == wq_name
                    and event.end == node.ts):
                candidates.append(event)
    elif node.cat == "fetch" and node.ph == "X":
        # A fetch starts once the queue was enabled: the latest
        # doorbell on the queue or ENABLE verb targeting it.
        wq_name = args.get("wq")
        for event in events:
            if event.ts > node.ts:
                continue
            if (event.name == "doorbell"
                    and event.track.endswith(f"wq:{wq_name}")):
                candidates.append(event)
            elif (event.name == "ENABLE"
                    and event.args.get("target_name") == wq_name):
                candidates.append(event)
    elif node.name == "doorbell":
        for event in events:
            if (event.track == node.track and event.ph == "i"
                    and event.name.startswith("post:")
                    and event.ts <= node.ts):
                candidates.append(event)

    if candidates:
        best = max(candidates, key=lambda e: (e.end, e.ts))
        if (best.end, best.ts) < (node.end, node.ts):
            return best

    # Fallback: the latest finisher at or before this node began.
    best = None
    for event in events:
        if event is node or (event.end, event.ts) >= (node.end, node.ts):
            continue
        if event.end <= node.ts or event.ts < node.ts:
            if best is None or (event.end, event.ts) > (best.end, best.ts):
                best = event
    return best


def _critical_path(events: List[NormalizedEvent], t0: int,
                   t1: int) -> List[Dict[str, Any]]:
    """Backward walk from the request's completion to its trigger.

    Returns hops oldest-first; each hop's ``contrib_ns`` is the latency
    it added past its predecessor's finish (the first hop counts from
    the window start), so contributions sum to the last hop's end —
    anything left to the window end is host-side completion-observation
    time with no traced event.
    """
    pool = [event for event in events
            if event.ph in ("X", "i") and event.cat not in ("race", "mem",
                                                            "offload",
                                                            "request")
            and t0 <= event.ts and event.end <= t1]
    if not pool:
        return []
    node = max(pool, key=lambda e: (e.end, e.cat == "cqe", e.ts))
    chain = [node]
    for _ in range(len(pool)):
        pred = _predecessor(node, pool)
        if pred is None:
            break
        chain.append(pred)
        node = pred
    chain.reverse()
    hops = []
    prev_end = t0
    for event in chain:
        hops.append({
            "name": event.name,
            "track": event.track,
            "start_ns": event.ts,
            "end_ns": event.end,
            "contrib_ns": max(0, event.end - prev_end),
        })
        prev_end = max(prev_end, event.end)
    return hops


# -- profiles ------------------------------------------------------------


class RequestProfile:
    """One request's window, phase breakdown and critical path."""

    __slots__ = ("label", "start", "end", "phases", "details", "path",
                 "args")

    def __init__(self, label: str, start: int, end: int,
                 phases: Dict[str, int], details: Counter,
                 path: List[Dict[str, Any]],
                 args: Optional[Dict[str, Any]] = None):
        self.label = label
        self.start = start
        self.end = end
        self.phases = phases
        self.details = details
        self.path = path
        self.args = args or {}

    @property
    def total_ns(self) -> int:
        return self.end - self.start

    def __repr__(self) -> str:
        return f"<RequestProfile {self.label} {self.total_ns}ns>"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "start_ns": self.start,
            "total_ns": self.total_ns,
            "phases": {phase: self.phases[phase] for phase in PHASES},
            "critical_path": self.path,
        }


class CritPathProfile:
    """All requests of one trace, plus aggregate and export helpers."""

    def __init__(self, requests: List[RequestProfile],
                 counts: Dict[str, Any]):
        self.requests = requests
        #: Executed-verb tallies over the whole trace (``sync_counts``).
        self.counts = counts

    def __repr__(self) -> str:
        return f"<CritPathProfile requests={len(self.requests)}>"

    def aggregate(self) -> Dict[str, int]:
        """Total ns per phase, summed over every request."""
        totals = {phase: 0 for phase in PHASES}
        for request in self.requests:
            for phase in PHASES:
                totals[phase] += request.phases[phase]
        return totals

    @property
    def total_ns(self) -> int:
        return sum(request.total_ns for request in self.requests)

    def folded_lines(self) -> List[str]:
        """Flamegraph folded stacks: ``label;phase;detail ns``."""
        stacks: Counter = Counter()
        for request in self.requests:
            for (phase, detail), ns in request.details.items():
                if ns:
                    stacks[(request.label, phase, detail)] += ns
        return [f"{label};{phase};{detail} {ns}"
                for (label, phase, detail), ns in sorted(stacks.items())]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests": [request.to_dict() for request in self.requests],
            "aggregate": {
                "total_ns": self.total_ns,
                "phases": self.aggregate(),
            },
            "counts": self.counts,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def record_metrics(self, registry) -> None:
        """Observe per-request phase durations into a MetricsRegistry."""
        for request in self.requests:
            registry.histogram("obs.critpath.request_ns").observe(
                request.total_ns)
            for phase in PHASES:
                registry.histogram(f"obs.critpath.{phase}_ns").observe(
                    request.phases[phase])

    def render(self, top: Optional[int] = None,
               show_path: bool = False) -> str:
        """Text breakdown table (the CLI's default output)."""
        requests = sorted(self.requests, key=lambda r: -r.total_ns)
        if top is not None:
            requests = requests[:top]
        header = f"{'request':28s} {'total_ns':>10s}"
        for phase in PHASES:
            header += f" {phase:>12s}"
        lines = [header]
        for request in requests:
            line = f"{request.label:28s} {request.total_ns:>10d}"
            for phase in PHASES:
                line += f" {request.phases[phase]:>12d}"
            lines.append(line)
        if len(self.requests) > 1:
            totals = self.aggregate()
            line = f"{'TOTAL':28s} {self.total_ns:>10d}"
            for phase in PHASES:
                line += f" {totals[phase]:>12d}"
            lines.append(line)
        if show_path:
            for request in requests:
                lines.append("")
                lines.append(f"critical path of {request.label} "
                             f"({request.total_ns}ns):")
                for hop in request.path:
                    lines.append(
                        f"  +{hop['contrib_ns']:>8d}ns  "
                        f"{hop['name']:24s} {hop['track']}")
        return "\n".join(lines)


def sync_counts(events: Iterable[NormalizedEvent]) -> Dict[str, Any]:
    """Executed-verb tallies: measured counterpart of ``chain_cost``.

    ``E`` counts completed WAIT spans plus ENABLE instants — the
    dynamic analogue of the static E term (a WAIT still blocked when
    the trace ends has not *executed* and is not counted).
    """
    ops: Counter = Counter()
    waits = enables = 0
    for event in events:
        if event.cat == "sync":
            if event.name == "WAIT" and event.ph == "X":
                waits += 1
            elif event.name == "ENABLE":
                enables += 1
        elif (event.cat == "exec" and event.ph == "X"
                and event.name.startswith("op:")):
            ops[event.name[3:]] += 1
    return {"E": waits + enables, "WAIT": waits, "ENABLE": enables,
            "ops": dict(sorted(ops.items()))}


# -- entry points --------------------------------------------------------


def _windows(events: List[NormalizedEvent]) -> List[NormalizedEvent]:
    wins = [event for event in events
            if event.ph == "X" and event.cat in ("offload", "request")]
    wins.sort(key=lambda e: (e.ts, e.end, e.name))
    return wins


def profile_events(events: List[NormalizedEvent]) -> CritPathProfile:
    """Profile normalized events: one RequestProfile per window."""
    windows = _windows(events)
    synthetic = False
    if not windows:
        timed = [event for event in events if event.ph in ("X", "i")]
        if not timed:
            return CritPathProfile([], sync_counts(events))
        start = min(event.ts for event in timed)
        end = max(event.end for event in timed)
        windows = [NormalizedEvent("X", "request", "trace", "synthetic",
                                   start, end - start, None)]
        synthetic = True

    requests: List[RequestProfile] = []
    for window in windows:
        t0, t1 = window.ts, window.end
        spans = []
        for event in events:
            phase_detail = _phase_of(event)
            if phase_detail is None:
                continue
            start = max(t0, event.ts)
            end = min(t1, event.end)
            if end > start:
                spans.append((start, end, *phase_detail))
        phases, details = _attribute(spans, t0, t1)
        in_window = events if synthetic else [
            event for event in events
            if event.ts >= t0 and event.end <= t1]
        path = _critical_path(in_window, t0, t1)
        requests.append(RequestProfile(window.name, t0, t1, phases,
                                       details, path, window.args))
    return CritPathProfile(requests, sync_counts(events))


def profile_tracer(tracer) -> CritPathProfile:
    """Profile a live tracer through its Chrome events."""
    return profile_events(_events(TraceData(tracer.chrome_events())))


def profile_trace(source) -> CritPathProfile:
    """Profile a Chrome trace (path, file object, JSON text or dict)."""
    data = source if isinstance(source, TraceData) else load_trace(source)
    return profile_events(_events(data))
