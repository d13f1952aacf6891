"""Tail-blame attribution: cross-shard causal paths for the fleet.

The critical-path profiler (:mod:`repro.obs.critpath`) attributes every
nanosecond of a request — but only within one bed. The fleet's p99
lives exactly where that view ends: QP-pool lease queues, doorbell
batch hold windows, synchronizer link hops, and the shared-CQ demux.
This module closes the gap with a **live causal context**
(:class:`RequestBlame`) that a fleet request carries across shards:

* the client creates one context per request, only when its bed's
  ``sim.probe`` carries a telemetry sink with exemplar capture on;
* the connection plane records typed spans into it — ``pool_wait``
  from :meth:`repro.net.conn.QpPool.acquire`, ``doorbell_batch`` from
  :class:`repro.nic.queue.DoorbellBatcher`, ``cqe_demux`` from
  :class:`repro.net.conn.CompletionRouter` — and cross-shard hops ride
  the :class:`~repro.sim.sharded.ShardFabric` payload itself, so one
  remote get yields **one** causal path spanning beds (``link_wire``
  both ways plus the owner gateway's ``gw_wait`` dequeue delay);
* at completion the context runs the same priority sweep the critical
  path profiler uses (:func:`repro.obs.critpath.attribute_spans`), so
  per-phase durations **sum exactly** to the end-to-end latency.

Every timestamp is simulated time, which both
:meth:`~repro.sim.sharded.ShardedSimulation.run` drives agree on
bit-for-bit, so blame output — like the telemetry stream it rides in —
is byte-identical between the sharded and serial drives.

Why causal edges and not CQE order: completion order is not causal
order ("The Semantic Arrow of Time" in PAPERS.md) — a CQE that
surfaces late because it sat in a doorbell batch or behind a lease
queue would blame the *completion*, not the *cause*. The context
records the enabling edge (the wait, the hold, the hop) at the site
that created it, which is what makes the per-(shard, queue, phase)
rollup actionable for the adaptive router (ROADMAP item 5).

On top of the per-request records sit the aggregation helpers the
``tools/fleet.py blame`` CLI renders: :func:`blame_table` (the
per-(shard, queue, phase) decomposition), :func:`summarize_blame`
(per-phase means over the tail exemplars), :func:`folded_blame`
(flamegraph folded stacks), :func:`diff_blame` (regression
attribution between two summaries) and :func:`blame_registries`
(labeled OpenMetrics counters).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .critpath import attribute_spans

__all__ = [
    "BLAME_PHASES",
    "RequestBlame",
    "blame_table",
    "summarize_blame",
    "folded_blame",
    "diff_blame",
    "blame_registries",
    "exemplar_order",
    "exemplars_of",
]

#: The blame taxonomy, in attribution-priority order (highest first).
#: A nanosecond inside both a ``pool_wait`` and the enclosing
#: ``service`` span counts as ``pool_wait`` — the queue, not the
#: server, is the bottleneck there. ``queueing`` is the gap filler.
BLAME_PHASES = ("pool_wait", "doorbell_batch", "cqe_demux", "link_wire",
                "gw_wait", "offload_exec", "service", "queueing")

_PRIORITY = {phase: len(BLAME_PHASES) - index
             for index, phase in enumerate(BLAME_PHASES)}

_PHASE_INDEX = {phase: index for index, phase in enumerate(BLAME_PHASES)}


class RequestBlame:
    """One fleet request's causal context, carried across shards.

    Created at request start on the home shard; travels inside the
    fabric payload for remote gets (the receiving gateway appends its
    spans into the *same* object — host-side shared memory, which is
    legal because the appends are causally ordered by the simulated
    message exchange itself). ``locus`` is the shard currently doing
    the work, so connection-plane sites can record spans without
    knowing which shard they serve.
    """

    __slots__ = ("shard", "seq", "key", "start", "locus", "mark",
                 "spans")

    def __init__(self, shard: int, seq: int, key: int, start: int):
        self.shard = shard        # home shard (where latency is felt)
        self.seq = seq            # globally unique request sequence id
        self.key = key
        self.start = start
        self.locus = shard        # shard currently executing
        self.mark = start         # last causal hand-off timestamp
        #: Typed spans: (start_ns, end_ns, phase, shard, queue).
        self.spans: List[Tuple[int, int, str, int, str]] = []

    def __repr__(self) -> str:
        return (f"<RequestBlame shard={self.shard} seq={self.seq} "
                f"spans={len(self.spans)}>")

    def span(self, start: int, end: int, phase: str, queue: str,
             shard: Optional[int] = None) -> None:
        """Record one causal span; zero-length spans are dropped."""
        if end <= start:
            return
        self.spans.append(
            (start, end, phase,
             self.locus if shard is None else shard, queue))

    def hop_sent(self, start: int, end: int, dst: int,
                 queue: str) -> None:
        """A fabric hop: wire time from the send to the arrival stamp."""
        self.span(start, end, "link_wire", queue, shard=dst)
        self.mark = end

    def hop_received(self, now: int, shard: int, queue: str) -> None:
        """Dequeue on the receiving shard: arrival -> service start."""
        self.span(self.mark, now, "gw_wait", queue, shard=shard)
        self.locus = shard
        self.mark = now

    def finish(self, end: int) -> Dict[str, Any]:
        """Attribute [start, end) and return the exemplar record.

        The sweep partitions the window, so ``sum(phases.values())``
        equals ``end - start`` exactly; gap nanoseconds fall to
        ``queueing`` on the home shard.
        """
        clamped = []
        for start, stop, phase, shard, queue in self.spans:
            start = max(start, self.start)
            stop = min(stop, end)
            if stop > start:
                clamped.append((start, stop, phase, (shard, queue)))
        phases, details = attribute_spans(
            clamped, self.start, end, BLAME_PHASES, _PRIORITY,
            gap_detail=(self.shard, ""))
        slices = [[phase, shard, queue, ns]
                  for (phase, (shard, queue)), ns in details.items()
                  if ns]
        slices.sort(key=lambda row: (_PHASE_INDEX[row[0]], row[1],
                                     row[2]))
        return {
            "key": self.key,
            "latency_ns": end - self.start,
            "phases": {phase: phases[phase] for phase in BLAME_PHASES},
            "seq": self.seq,
            "shard": self.shard,
            "slices": slices,
            "start_ns": self.start,
        }


def exemplar_order(exemplar: Dict[str, Any]) -> Tuple[int, int, int]:
    """Canonical exemplar ranking: slowest first, ties by (shard, seq)."""
    return (-exemplar["latency_ns"], exemplar["shard"], exemplar["seq"])


def exemplars_of(records: List[dict]) -> List[dict]:
    """All tail exemplars embedded in a telemetry window stream."""
    out: List[dict] = []
    for record in records:
        out.extend(record.get("exemplars", ()))
    return out


# -- rollups ---------------------------------------------------------------


def blame_table(records: List[dict]) -> List[Dict[str, Any]]:
    """Per-(shard, queue, phase) blame rows over a stream's exemplars.

    Each row carries the total nanoseconds the (shard, queue) pair
    contributed under that phase across every exemplar, plus how many
    exemplars it appeared in — the "which shard/queue/phase caused the
    tail" answer, sorted by descending ns then canonical key.
    """
    totals: Dict[Tuple[int, str, str], List[int]] = {}
    for exemplar in exemplars_of(records):
        for phase, shard, queue, ns in exemplar["slices"]:
            entry = totals.setdefault((shard, queue, phase), [0, 0])
            entry[0] += ns
            entry[1] += 1
    rows = [{"shard": shard, "queue": queue, "phase": phase,
             "ns": ns, "requests": count}
            for (shard, queue, phase), (ns, count) in totals.items()]
    rows.sort(key=lambda row: (-row["ns"], row["shard"], row["queue"],
                               row["phase"]))
    return rows


def summarize_blame(records: List[dict]) -> Dict[str, Any]:
    """The ``fleet.py blame --json`` document: phase means over the tail.

    ``phases[phase]`` carries total/mean ns and the share of all
    exemplar latency; ``shards[str(shard)]`` the per-shard blame total.
    ``p99_ns`` comes from the stream's merged latency histograms, so a
    ``--diff`` between two summaries can attribute the p99 delta to
    the phase/shard means that moved.
    """
    from .metrics import Histogram

    exemplars = exemplars_of(records)
    latency = Histogram()
    requests = 0
    for record in records:
        requests += record.get("requests", 0)
        snap = record.get("latency")
        if snap:
            latency.merge(Histogram.from_snapshot(snap))
    phase_totals = {phase: 0 for phase in BLAME_PHASES}
    shard_totals: Dict[str, int] = {}
    for exemplar in exemplars:
        for phase, ns in exemplar["phases"].items():
            phase_totals[phase] += ns
        for _phase, shard, _queue, ns in exemplar["slices"]:
            key = str(shard)
            shard_totals[key] = shard_totals.get(key, 0) + ns
    count = len(exemplars)
    total = sum(phase_totals.values())
    return {
        "requests": requests,
        "exemplars": count,
        "p99_ns": latency.quantile(0.99) if latency.count else None,
        "exemplar_latency_sum_ns": total,
        "phases": {
            phase: {
                "total_ns": ns,
                "mean_ns": round(ns / count, 1) if count else 0.0,
                "share": round(ns / total, 6) if total else 0.0,
            }
            for phase, ns in phase_totals.items()},
        "shards": {
            shard: {
                "total_ns": ns,
                "mean_ns": round(ns / count, 1) if count else 0.0,
            }
            for shard, ns in sorted(shard_totals.items())},
        "table": blame_table(records),
    }


def folded_blame(records: List[dict]) -> List[str]:
    """Flamegraph folded stacks: ``shard<N>;queue;phase ns``."""
    rows = blame_table(records)
    lines = [(f"shard{row['shard']};{row['queue'] or '-'};"
              f"{row['phase']}", row["ns"]) for row in rows]
    return [f"{stack} {ns}" for stack, ns in sorted(lines)]


def diff_blame(current: Dict[str, Any],
               baseline: Dict[str, Any]) -> Dict[str, Any]:
    """Attribute a p99 regression between two summaries.

    Returns the p99 delta plus per-phase and per-shard mean-ns deltas
    ranked by absolute movement — "the p99 grew 12 us and pool_wait on
    shard 3 grew 11 us of it" — the ``fleet.py blame --diff`` payload.
    """
    cur_p99 = current.get("p99_ns")
    base_p99 = baseline.get("p99_ns")
    phases = []
    for phase in BLAME_PHASES:
        cur = current["phases"].get(phase, {}).get("mean_ns", 0.0)
        base = baseline["phases"].get(phase, {}).get("mean_ns", 0.0)
        delta = round(cur - base, 1)
        if cur or base:
            phases.append({"phase": phase, "mean_ns": cur,
                           "baseline_mean_ns": base, "delta_ns": delta})
    phases.sort(key=lambda row: (-abs(row["delta_ns"]), row["phase"]))
    shards = []
    names = set(current.get("shards", {})) | set(baseline.get("shards", {}))
    for shard in sorted(names, key=lambda s: (len(s), s)):
        cur = current.get("shards", {}).get(shard, {}).get("mean_ns", 0.0)
        base = baseline.get("shards", {}).get(shard, {}).get("mean_ns", 0.0)
        shards.append({"shard": shard, "mean_ns": cur,
                       "baseline_mean_ns": base,
                       "delta_ns": round(cur - base, 1)})
    shards.sort(key=lambda row: (-abs(row["delta_ns"]),
                                 (len(row["shard"]), row["shard"])))
    return {
        "p99_ns": cur_p99,
        "baseline_p99_ns": base_p99,
        "p99_delta_ns": (cur_p99 - base_p99
                         if cur_p99 is not None and base_p99 is not None
                         else None),
        "phases": phases,
        "shards": shards,
    }


def blame_registries(records: List[dict]) -> Dict[str, Any]:
    """Per-shard MetricsRegistry objects carrying the blame counters.

    Each shard's registry holds one ``blame.phase_ns`` counter family
    keyed by phase, so :func:`repro.obs.metrics.to_openmetrics_multi`
    with ``label="shard"`` emits ``blame_phase_ns_total{shard="shard3",
    key="pool_wait"}`` — blame as (phase, shard)-labeled counters that
    :func:`repro.obs.metrics.parse_openmetrics` round-trips exactly.
    """
    from .metrics import MetricsRegistry

    registries: Dict[str, Any] = {}
    for row in blame_table(records):
        name = f"shard{row['shard']}"
        registry = registries.get(name)
        if registry is None:
            registry = registries[name] = MetricsRegistry()
        registry.counter("blame.phase_ns")[row["phase"]] += row["ns"]
        registry.counter("blame.requests")[row["phase"]] \
            += row["requests"]
    return registries
