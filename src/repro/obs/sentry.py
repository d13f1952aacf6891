"""Incident triage: streaming anomaly detection over sealed telemetry.

The closing layer of the observability stack. SLO burn alerts (PR 7)
say *that* the fleet degraded and tail blame (PR 9) says *where the
nanoseconds went*; the sentry connects the two: it watches the sealed
telemetry window stream, detects anomalies with deterministic
detectors, arms targeted capture for the implicated (shard, queue),
and emits a causal incident report ranking root causes against the
pre-incident baseline.

Determinism contract
--------------------

The sentry subscribes to :meth:`repro.obs.telemetry.FleetTelemetry.
flush` and folds over the **sealed record stream only**. That stream
is globally sorted by ``(window, shard)`` and byte-identical between
:meth:`~repro.sim.sharded.ShardedSimulation.run` and ``run_serial``
drives; batch *boundaries* follow the drive mode's flush cadence, so
the fold is strictly record-at-a-time and never keys a decision on
where a batch starts or ends. Detectors compare each window against a
trailing per-shard baseline of previously sealed windows; every
anomaly fires at the violating window's simulated end timestamp
(``(window + 1) * window_ns``) — a pure function of the stream, hence
of the simulated system. Targeted capture follows the same rule:

* **exemplar retention boost** — while an incident is open, every
  sealed record of an implicated shard contributes its tail exemplars
  to the incident's retained pool (bounded, canonical
  :func:`~repro.obs.blame.exemplar_order`), alongside the pre-incident
  baseline windows already held in the trailing history;
* **flight-recorder slice** — the incident pins a simulated-time range
  ``[open - pre, close]``; the bounded slice itself is cut from the
  implicated bed's :class:`~repro.obs.recorder.FlightRecorder` ring at
  report time, after the run, when per-bed journals are identical
  across drive modes by the recorder's own determinism contract;
* **pre/post baselines** — the trailing windows at open time and the
  first windows sealed after close, recorded per implicated shard.

With no telemetry sink on any bed's ``sim.probe`` nothing is ever
flushed, and the sentry costs nothing — it has no hook sites of its
own inside the simulator.

Detectors
---------

===================  ====  ==========  ====================================
name                 tier  phase       fires when (vs trailing baselines)
===================  ====  ==========  ====================================
flatline               0   flatline    a previously-active shard stops
                                       emitting windows for
                                       ``FLATLINE_GAP`` while the fleet
                                       stays busy
queue_growth           1   queueing    SQ net growth over a window exceeds
                                       ``GROWTH_THRESHOLD`` (or RQ peak
                                       doubles)
pu_saturation          1   pu_exec     PU busy (incl. PU queueing)
                                       utilization steps past
                                       ``UTIL_FACTOR`` x baseline
pool_pressure          1   pool_wait   QP-pool lease-wait p99 spikes past
                                       ``POOL_WAIT_FACTOR`` x baseline
stale_cqe              1   cqe_demux   the shared-CQ demux quarantines
                                       more stale CQEs than the baseline
skew_shift             1   skew        a shard's share of fleet requests
                                       (over a ``SKEW_SPAN`` rolling
                                       window) drops by ``SKEW_DROP``
throughput_collapse    2   throughput  fleet-wide requests/window fall
                                       under ``COLLAPSE_FRAC`` x the
                                       trailing mean
tail_step              2   tail        p99/p999 steps past
                                       ``TAIL_FACTOR`` x the trailing max
===================  ====  ==========  ====================================

Tier orders cause ranking inside an incident: a shard going dark
(tier 0) outranks resource-pressure causes (tier 1), which outrank the
symptoms (tier 2 — the tail itself, the throughput collapse); within a
tier, larger severity (value / baseline) wins, with deterministic
``(shard, detector, queue)`` tie-breaks. Anomalies within
``MERGE_GAP`` windows of each other merge into one incident, so a
single fault surfacing through several detectors — including its own
recovery transient, bridged by ``throughput_collapse`` while a
closed-loop fleet stalls — yields exactly one incident. The first
``WARMUP_WINDOWS`` global windows are exempt: a fleet ramping up has
no meaningful baseline yet (the trailing histories still accumulate).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .blame import exemplar_order, summarize_blame, diff_blame
from .telemetry import metric_value

__all__ = ["SENTRY_SCHEMA", "DETECTORS", "Anomaly", "Incident",
           "FleetSentry", "triage_verdict"]

SENTRY_SCHEMA = 1

# Detector tuning. Window counts are sealed telemetry windows; factors
# multiply a trailing baseline.

#: Trailing windows kept per shard (and for fleet totals and shares)
#: as the baseline, and the fewest a detector needs before it fires.
BASELINE_WINDOWS = 8
MIN_BASELINE = 3
#: Leading global windows exempt from detection: a fleet ramping up
#: has no meaningful baseline yet.
WARMUP_WINDOWS = 6
#: Anomalies within this many windows of an open incident join it.
MERGE_GAP = 3
#: tail_step: p99/p999 reaches TAIL_FACTOR x the trailing max and
#: exceeds it by TAIL_FLOOR_NS, in a window of at least
#: TAIL_MIN_REQUESTS requests.
TAIL_FACTOR = 3.0
TAIL_FLOOR_NS = 20_000
TAIL_MIN_REQUESTS = 6
#: queue_growth: SQ net growth (or RQ peak depth) in WRs.
GROWTH_THRESHOLD = 32
#: pu_saturation: utilization step factor and absolute floor.
UTIL_FACTOR = 2.5
UTIL_FLOOR = 0.6
#: pool_pressure: lease-wait p99 step factor and absolute floor.
POOL_WAIT_FACTOR = 3.0
POOL_WAIT_FLOOR_NS = 3000
#: stale_cqe: quarantined CQEs in one window.
STALE_THRESHOLD = 1
#: skew_shift: fractional share drop, over rolling SKEW_SPAN-window
#: spans, of a shard holding at least SKEW_FLOOR_SHARE.
SKEW_DROP = 0.8
SKEW_SPAN = 4
SKEW_FLOOR_SHARE = 0.05
#: throughput_collapse: fleet requests/window under this fraction of
#: the trailing healthy mean.
COLLAPSE_FRAC = 0.2
#: flatline: windows of silence from a previously active shard.
FLATLINE_GAP = 3

# Targeted capture.

#: Tail exemplars an incident retains.
MAX_EXEMPLARS = 32
#: Windows per implicated shard kept as the post-incident baseline.
POST_WINDOWS = 2
#: Flight-recorder slice: windows before the incident opens, and the
#: record cap.
CAPTURE_PRE_WINDOWS = 2
CAPTURE_SLICE = 64

#: detector name -> (ranking tier, implicated blame phase).
DETECTORS = {
    "flatline": (0, "flatline"),
    "queue_growth": (1, "queueing"),
    "pu_saturation": (1, "pu_exec"),
    "pool_pressure": (1, "pool_wait"),
    "stale_cqe": (1, "cqe_demux"),
    "skew_shift": (1, "skew"),
    "throughput_collapse": (2, "throughput"),
    "tail_step": (2, "tail"),
}


class Anomaly:
    """One detector firing for one sealed window."""

    __slots__ = ("detector", "shard", "bed", "window", "at_ns", "metric",
                 "value", "baseline", "severity", "queue", "detail")

    def __init__(self, detector: str, shard: int, bed: str, window: int,
                 at_ns: int, metric: str, value, baseline, severity: float,
                 queue: Optional[str] = None, detail: str = ""):
        self.detector = detector
        self.shard = shard
        self.bed = bed
        self.window = window
        #: The violating window's simulated end timestamp.
        self.at_ns = at_ns
        self.metric = metric
        self.value = value
        self.baseline = baseline
        self.severity = severity
        self.queue = queue
        self.detail = detail

    def __repr__(self) -> str:
        return (f"<Anomaly {self.detector} shard={self.shard} "
                f"w={self.window} {self.metric}={self.value} "
                f"base={self.baseline}>")

    @property
    def tier(self) -> int:
        return DETECTORS[self.detector][0]

    @property
    def phase(self) -> str:
        return DETECTORS[self.detector][1]

    def to_dict(self) -> dict:
        return {
            "detector": self.detector, "phase": self.phase,
            "shard": self.shard, "bed": self.bed, "window": self.window,
            "at_ns": self.at_ns, "metric": self.metric,
            "value": self.value, "baseline": self.baseline,
            "severity": self.severity, "queue": self.queue,
            "detail": self.detail,
        }


class Incident:
    """A group of time-correlated anomalies with targeted capture."""

    __slots__ = ("id", "anomalies", "shards", "first_window",
                 "last_window", "exemplars", "baseline_records",
                 "incident_records", "post_records", "closed",
                 "_post_budget")

    def __init__(self, incident_id: int):
        self.id = incident_id
        self.anomalies: List[Anomaly] = []
        self.shards: List[int] = []        # insertion order, deduped
        self.first_window: Optional[int] = None
        self.last_window: Optional[int] = None
        #: Boosted-retention tail exemplars (pre + during), bounded.
        self.exemplars: List[dict] = []
        #: Pre-incident trailing windows per implicated shard.
        self.baseline_records: List[dict] = []
        #: Implicated shards' windows sealed while the incident ran.
        self.incident_records: List[dict] = []
        #: First windows per implicated shard sealed after close.
        self.post_records: List[dict] = []
        self.closed = False
        self._post_budget: Dict[int, int] = {}

    def __repr__(self) -> str:
        return (f"<Incident #{self.id} shards={self.shards} "
                f"windows=[{self.first_window},{self.last_window}] "
                f"anomalies={len(self.anomalies)}>")

    @property
    def open_at_ns(self) -> int:
        return min(a.at_ns for a in self.anomalies)

    def add(self, anomaly: Anomaly) -> None:
        self.anomalies.append(anomaly)
        if anomaly.shard not in self.shards:
            self.shards.append(anomaly.shard)
        if self.first_window is None or anomaly.window < self.first_window:
            self.first_window = anomaly.window
        if self.last_window is None or anomaly.window > self.last_window:
            self.last_window = anomaly.window

    def keep_exemplars(self, record: dict) -> None:
        exemplars = record.get("exemplars")
        if not exemplars:
            return
        self.exemplars.extend(exemplars)
        if len(self.exemplars) > MAX_EXEMPLARS:
            self.exemplars.sort(key=exemplar_order)
            del self.exemplars[MAX_EXEMPLARS:]

    def causes(self) -> List[dict]:
        """Ranked root-cause rows: (shard, queue, phase) by tier/severity."""
        ranked = sorted(
            self.anomalies,
            key=lambda a: (a.tier, -a.severity, a.shard, a.detector,
                           a.queue or ""))
        rows = []
        seen = set()
        for anomaly in ranked:
            key = (anomaly.shard, anomaly.queue, anomaly.phase)
            if key in seen:
                continue
            seen.add(key)
            rows.append({
                "rank": len(rows) + 1,
                "shard": anomaly.shard,
                "bed": anomaly.bed,
                "queue": anomaly.queue,
                "phase": anomaly.phase,
                "detector": anomaly.detector,
                "metric": anomaly.metric,
                "value": anomaly.value,
                "baseline": anomaly.baseline,
                "severity": anomaly.severity,
                "at_ns": anomaly.at_ns,
            })
        return rows


class FleetSentry:
    """Streaming anomaly engine over a sealed telemetry window stream.

    Construct with the stream's ``window_ns``, call
    :meth:`subscribe` with the :class:`~repro.obs.telemetry.
    FleetTelemetry` before the run (or feed records directly through
    :meth:`observe`), then :meth:`finalize` after the run and render
    :meth:`report`.
    """

    def __init__(self, window_ns: int, *,
                 recorders: Optional[Dict[int, Any]] = None,
                 skew_min_total: int = 12):
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        self.window_ns = window_ns
        #: Fleet requests per window below which the fleet counts as
        #: idle: the skew, flatline and collapse detectors hold fire.
        self.skew_min_total = skew_min_total
        #: Optional shard -> FlightRecorder map for slice capture.
        self.recorders = recorders or {}

        self.records_seen = 0
        self.anomalies: List[Anomaly] = []
        self.incidents: List[Incident] = []
        self._open: Optional[Incident] = None
        self._finalized = False
        # Trailing per-shard sealed-window history (the baseline).
        self._history: Dict[int, List[dict]] = {}
        self._beds: Dict[int, str] = {}
        self._last_seen: Dict[int, int] = {}
        self._active: Dict[int, bool] = {}
        self._flatlined: set = set()
        # Fleet-level rollover state: the global window currently
        # accumulating, the rolling span of completed windows' per-
        # shard request counts, the trailing per-shard span-share
        # history, and the trailing healthy fleet-total history.
        self._skew_window: Optional[int] = None
        self._skew_counts: Dict[int, int] = {}
        self._span: List[Dict[int, int]] = []
        self._share_hist: Dict[int, List[float]] = {}
        self._total_hist: List[int] = []
        # Closed incidents still owed post-baseline windows.
        self._post_pending: List[Incident] = []

    def __repr__(self) -> str:
        return (f"<FleetSentry records={self.records_seen} "
                f"anomalies={len(self.anomalies)} "
                f"incidents={len(self.incidents)}>")

    # -- wiring ------------------------------------------------------------

    def subscribe(self, fleet) -> "FleetSentry":
        """Subscribe to a FleetTelemetry's sealed-batch emissions."""
        fleet.subscribe(self._observe_batch)
        return self

    def _observe_batch(self, batch: List[dict]) -> None:
        for record in batch:
            self.observe(record)

    # -- the fold ----------------------------------------------------------

    def observe(self, record: dict) -> List[Anomaly]:
        """Fold one sealed window record; returns anomalies it raised."""
        if self._finalized:
            raise RuntimeError("sentry already finalized")
        self.records_seen += 1
        window = record["window"]
        shard = record["shard"]
        self._beds.setdefault(shard, record["bed"])

        fired: List[Anomaly] = []
        # Global windows complete when the sorted stream moves past
        # them; that is where the fleet-wide detectors (skew, flatline,
        # throughput collapse) evaluate — a pure function of the
        # stream, not of batching.
        if self._skew_window is None:
            self._skew_window = window
        while window > self._skew_window:
            fired.extend(self._rollover(self._skew_window))
            self._skew_window += 1
            self._skew_counts = {}
        self._skew_counts[shard] = (self._skew_counts.get(shard, 0)
                                    + record["requests"])

        # Per-record detectors against the shard's trailing baseline.
        history = self._history.setdefault(shard, [])
        if window >= WARMUP_WINDOWS:
            fired.extend(self._detect(record, history))

        for anomaly in fired:
            self._admit(anomaly)
        if (self._open is not None
                and window > self._open.last_window + MERGE_GAP):
            self._close_open()

        # Targeted capture for open/just-closed incidents.
        if self._open is not None and shard in self._open.shards:
            self._open.incident_records.append(record)
            self._open.keep_exemplars(record)
        for incident in list(self._post_pending):
            budget = incident._post_budget.get(shard, 0)
            if budget > 0:
                incident.post_records.append(record)
                incident._post_budget[shard] = budget - 1
                if not any(incident._post_budget.values()):
                    self._post_pending.remove(incident)

        # Trailing-history bookkeeping.
        history.append(record)
        if len(history) > BASELINE_WINDOWS:
            del history[:len(history) - BASELINE_WINDOWS]
        self._last_seen[shard] = window
        if record["requests"]:
            self._active[shard] = True
        return fired

    def finalize(self) -> None:
        """End of stream: close any open incident.

        The last accumulating global window is *not* evaluated — the
        stream ends mid-window by construction, and a partial window
        reads as a throughput collapse or a skew that is not there.
        """
        if self._finalized:
            return
        self._finalized = True
        if self._open is not None:
            self._close_open()

    # -- detectors ---------------------------------------------------------

    def _end_ns(self, window: int) -> int:
        return (window + 1) * self.window_ns

    def _fire(self, detector: str, shard: int, window: int, metric: str,
              value, baseline, severity: float, queue=None,
              detail: str = "") -> Anomaly:
        anomaly = Anomaly(
            detector, shard, self._beds.get(shard, f"shard{shard}"),
            window, self._end_ns(window), metric, value, baseline,
            round(severity, 3), queue=queue, detail=detail)
        self.anomalies.append(anomaly)
        return anomaly

    def _detect(self, record: dict, history: List[dict]) -> List[Anomaly]:
        fired: List[Anomaly] = []
        shard = record["shard"]
        window = record["window"]
        queues = record["queues"]
        sq_hot = queues.get("sq_hot")
        if len(history) < MIN_BASELINE:
            return fired

        # queue_growth — SQ net growth / RQ peak step.
        growth = queues.get("sq_growth", 0)
        base_growth = max([h["queues"].get("sq_growth", 0)
                           for h in history] + [0])
        if growth >= GROWTH_THRESHOLD and growth >= 2 * max(
                base_growth, 1):
            fired.append(self._fire(
                "queue_growth", shard, window, "sq_growth", growth,
                base_growth, growth / max(base_growth, 1), queue=sq_hot,
                detail=f"send-queue backlog grew {growth} WRs in one "
                       f"window (trailing max {base_growth})"))
        else:
            rq_max = queues.get("rq_depth_max", 0)
            base_rq = max(h["queues"].get("rq_depth_max", 0)
                          for h in history)
            if rq_max >= GROWTH_THRESHOLD and rq_max >= 2 * max(
                    base_rq, 1):
                fired.append(self._fire(
                    "queue_growth", shard, window, "rq_depth_max",
                    rq_max, base_rq, rq_max / max(base_rq, 1),
                    queue=sq_hot,
                    detail=f"recv-queue peak depth {rq_max} vs trailing "
                           f"max {base_rq}"))

        # pu_saturation — utilization (busy incl. PU queueing) step.
        util = record.get("util", 0.0)
        base_util = max(h.get("util", 0.0) for h in history)
        if (util >= UTIL_FLOOR
                and util >= UTIL_FACTOR * max(base_util, 0.01)):
            fired.append(self._fire(
                "pu_saturation", shard, window, "util", util,
                round(base_util, 6), util / max(base_util, 0.01),
                queue=sq_hot,
                detail=f"PU busy+queue time {util:.2f} windows vs "
                       f"trailing max {base_util:.2f}"))

        # pool_pressure — QP-pool lease-wait p99 spike.
        wait = metric_value(record, "pool_wait_p99_ns") or 0
        base_wait = max(metric_value(h, "pool_wait_p99_ns") or 0
                        for h in history)
        if (wait >= POOL_WAIT_FLOOR_NS
                and wait >= POOL_WAIT_FACTOR * max(base_wait, 1)):
            fired.append(self._fire(
                "pool_pressure", shard, window, "pool_wait_p99_ns",
                wait, base_wait, wait / max(base_wait, 1), queue=sq_hot,
                detail=f"lease wait p99 {wait}ns vs trailing max "
                       f"{base_wait}ns"))

        # stale_cqe — quarantine-rate step.
        stale = record.get("stale_cqes", 0)
        base_stale = max(h.get("stale_cqes", 0) for h in history)
        if stale >= STALE_THRESHOLD and stale > base_stale:
            fired.append(self._fire(
                "stale_cqe", shard, window, "stale_cqes", stale,
                base_stale, stale / max(base_stale, 1),
                queue=queues.get("cq_hot"),
                detail=f"{stale} stale CQEs quarantined (trailing max "
                       f"{base_stale})"))

        # tail_step — p99 (falling back to p999) step-change. Gated on
        # a minimum sample count: a near-empty window's p99 is one
        # unlucky request, not a tail.
        if record["requests"] >= TAIL_MIN_REQUESTS:
            for metric in ("p99_ns", "p999_ns"):
                cur = metric_value(record, metric)
                if cur is None:
                    continue
                base_values = [
                    v for v in
                    (metric_value(h, metric) for h in history)
                    if v is not None]
                if len(base_values) < MIN_BASELINE:
                    continue
                base = max(base_values)
                if (cur >= base + TAIL_FLOOR_NS
                        and cur >= TAIL_FACTOR * max(base, 1)):
                    fired.append(self._fire(
                        "tail_step", shard, window, metric, cur, base,
                        cur / max(base, 1), queue=sq_hot,
                        detail=f"{metric} stepped to {cur}ns vs "
                               f"trailing max {base}ns"))
                    break
        return fired

    def _rollover(self, window: int) -> List[Anomaly]:
        """Fleet-level detectors, run when global ``window`` completes.

        All three are activity-gated: the run's ramp-up and drain
        phases — where the fleet legitimately idles and shares swing —
        must not read as anomalies, while a real fault degrades the
        fleet exactly when it is otherwise busy.
        """
        counts = dict(self._skew_counts)
        total = sum(counts.values())
        fired: List[Anomaly] = []
        warm = window >= WARMUP_WINDOWS

        # throughput_collapse — fleet-wide requests/window fall off a
        # cliff vs the trailing *healthy* mean (collapsed windows do
        # not enter the baseline: a closed-loop fleet stalled behind
        # one saturated shard keeps reading as collapsed, which is
        # what bridges a fault and its backlog-drain transient into
        # one incident).
        collapsed = False
        if len(self._total_hist) >= MIN_BASELINE:
            mean = sum(self._total_hist) / len(self._total_hist)
            if (warm and mean >= self.skew_min_total
                    and total <= COLLAPSE_FRAC * mean):
                collapsed = True
                fired.append(self._fire(
                    "throughput_collapse", self._busiest_shard(), window,
                    "fleet_requests", total, round(mean, 3),
                    mean / max(total, 1),
                    detail=f"fleet served {total} requests in the "
                           f"window vs a trailing mean of {mean:.1f}"))
        if not collapsed:
            self._total_hist.append(total)
            if len(self._total_hist) > BASELINE_WINDOWS:
                del self._total_hist[:len(self._total_hist)
                                     - BASELINE_WINDOWS]

        # flatline — a previously-active shard stopped emitting windows
        # entirely while the rest of the fleet stayed busy.
        if warm and total >= self.skew_min_total:
            for shard in sorted(self._last_seen):
                if (shard in self._flatlined
                        or not self._active.get(shard)):
                    continue
                last = self._last_seen[shard]
                if window - last >= FLATLINE_GAP:
                    history = self._history.get(shard, [])
                    base_requests = (
                        round(sum(h["requests"] for h in history)
                              / len(history), 3) if history else 0.0)
                    self._flatlined.add(shard)
                    fired.append(self._fire(
                        "flatline", shard, window, "requests", 0,
                        base_requests, base_requests,
                        detail=f"shard emitted no windows after "
                               f"{self._end_ns(last)}ns while the "
                               f"fleet served {total} requests/window "
                               f"(trailing {base_requests} "
                               f"requests/window)"))

        # skew_shift — per-shard share of fleet requests over a rolling
        # ``SKEW_SPAN`` of windows (single fleet windows are too small
        # to make shares meaningful; the span smooths scheduling noise
        # while a re-homed or starved shard still collapses to ~0).
        self._span.append(counts)
        if len(self._span) > SKEW_SPAN:
            del self._span[:len(self._span) - SKEW_SPAN]
        if len(self._span) == SKEW_SPAN:
            span_counts: Dict[int, int] = {}
            for window_counts in self._span:
                for shard, n in window_counts.items():
                    span_counts[shard] = span_counts.get(shard, 0) + n
            span_total = sum(span_counts.values())
            if span_total >= self.skew_min_total * SKEW_SPAN:
                shards = sorted(set(self._share_hist) | set(span_counts))
                for shard in shards:
                    share = span_counts.get(shard, 0) / span_total
                    hist = self._share_hist.setdefault(shard, [])
                    if (warm and len(hist) >= MIN_BASELINE
                            and shard not in self._flatlined):
                        base = sum(hist) / len(hist)
                        if (base >= SKEW_FLOOR_SHARE
                                and share <= base
                                * (1.0 - SKEW_DROP)):
                            fired.append(self._fire(
                                "skew_shift", shard, window,
                                "request_share", round(share, 6),
                                round(base, 6),
                                (base - share) / max(base, 1e-9),
                                detail=f"share of fleet requests fell "
                                       f"to {share:.3f} from trailing "
                                       f"mean {base:.3f} (over "
                                       f"{SKEW_SPAN}-window "
                                       f"spans)"))
                    hist.append(share)
                    if len(hist) > BASELINE_WINDOWS:
                        del hist[:len(hist) - BASELINE_WINDOWS]
        return fired

    def _busiest_shard(self) -> int:
        """The shard the fleet most depends on: max trailing share.

        Deterministic attribution target for fleet-level anomalies;
        ties break toward the smaller shard index.
        """
        best_shard, best_share = 0, -1.0
        for shard in sorted(self._share_hist):
            hist = self._share_hist[shard]
            if not hist:
                continue
            share = sum(hist) / len(hist)
            if share > best_share:
                best_shard, best_share = shard, share
        return best_shard

    # -- incident lifecycle ------------------------------------------------

    def _admit(self, anomaly: Anomaly) -> None:
        if (self._open is not None
                and anomaly.window <= self._open.last_window
                + MERGE_GAP):
            incident = self._open
        else:
            if self._open is not None:
                self._close_open()
            incident = Incident(len(self.incidents) + 1)
            self.incidents.append(incident)
            self._open = incident
        new_shard = anomaly.shard not in incident.shards
        incident.add(anomaly)
        if new_shard:
            # Pre-incident baseline: the shard's trailing windows as
            # they stood when it was implicated (pre-boost retention).
            history = self._history.get(anomaly.shard, [])
            incident.baseline_records.extend(history)
            for record in history:
                incident.keep_exemplars(record)

    def _close_open(self) -> None:
        incident = self._open
        self._open = None
        incident.closed = True
        incident.exemplars.sort(key=exemplar_order)
        del incident.exemplars[MAX_EXEMPLARS:]
        incident._post_budget = {
            shard: POST_WINDOWS for shard in incident.shards}
        self._post_pending.append(incident)

    # -- reporting ---------------------------------------------------------

    def _capture_slice(self, incident: Incident, shard: int) -> Optional[dict]:
        recorder = self.recorders.get(shard)
        if recorder is None:
            return None
        from_ns = max(0, incident.open_at_ns
                      - CAPTURE_PRE_WINDOWS * self.window_ns)
        to_ns = self._end_ns(incident.last_window)
        kept: List[dict] = []
        truncated = False
        records = recorder.records
        for rec in records:
            ts = rec.get("ts", 0)
            if ts < from_ns or ts > to_ns:
                continue
            if len(kept) >= CAPTURE_SLICE:
                truncated = True
                break
            kept.append(rec)
        kinds: Dict[str, int] = {}
        for rec in kept:
            kind = rec.get("kind", "?")
            kinds[kind] = kinds.get(kind, 0) + 1
        if recorder.evicted:
            oldest = records[0]["ts"] if records else None
            if oldest is None or oldest > from_ns:
                truncated = True
        return {
            "bed": self._beds.get(shard, f"shard{shard}"),
            "shard": shard,
            "from_ns": from_ns,
            "to_ns": to_ns,
            "records": len(kept),
            "kinds": dict(sorted(kinds.items())),
            "truncated": truncated,
            "slice": kept,
        }

    def _blame_diff(self, incident: Incident) -> Optional[dict]:
        if not any(r.get("exemplars") for r in incident.incident_records):
            return None
        if not any(r.get("exemplars") for r in incident.baseline_records):
            return None
        return diff_blame(summarize_blame(incident.incident_records),
                          summarize_blame(incident.baseline_records))

    def _baseline_summary(self, records: List[dict]) -> Optional[dict]:
        if not records:
            return None
        from .metrics import Histogram
        latency = Histogram()
        requests = 0
        windows = sorted({(r["window"], r["shard"]) for r in records})
        for record in records:
            requests += record["requests"]
            if record.get("latency"):
                latency.merge(Histogram.from_snapshot(record["latency"]))
        return {
            "windows": len(windows),
            "first_window": windows[0][0],
            "last_window": windows[-1][0],
            "requests": requests,
            "p99_ns": latency.quantile(0.99) if latency.count else None,
        }

    def incident_dict(self, incident: Incident,
                      faults: Optional[List[dict]] = None) -> dict:
        causes = incident.causes()
        top = causes[0] if causes else None
        timeline = []
        for fault in faults or ():
            if _fault_matches(fault, incident, self.window_ns):
                timeline.append({
                    "at_ns": fault["t_inject_ns"], "event": "fault",
                    "detail": f"{fault['kind']} injected on shard "
                              f"{fault['shard']}"})
        for anomaly in incident.anomalies:
            timeline.append({
                "at_ns": anomaly.at_ns, "event": "anomaly",
                "detail": f"{anomaly.detector} on shard "
                          f"{anomaly.shard}: {anomaly.detail}"})
        timeline.append({
            "at_ns": incident.open_at_ns, "event": "opened",
            "detail": f"incident #{incident.id} opened"})
        timeline.append({
            "at_ns": self._end_ns(incident.last_window), "event": "closed",
            "detail": f"incident #{incident.id} closed after window "
                      f"{incident.last_window}"})
        timeline.sort(key=lambda e: (e["at_ns"], e["event"], e["detail"]))
        return {
            "id": incident.id,
            "shards": list(incident.shards),
            "beds": [self._beds.get(s, f"shard{s}")
                     for s in incident.shards],
            "first_window": incident.first_window,
            "last_window": incident.last_window,
            "open_at_ns": incident.open_at_ns,
            "close_at_ns": self._end_ns(incident.last_window),
            "anomalies": [a.to_dict() for a in incident.anomalies],
            "causes": causes,
            "top_cause": top,
            "timeline": timeline,
            "baseline": self._baseline_summary(incident.baseline_records),
            "post": self._baseline_summary(incident.post_records),
            "blame_diff": self._blame_diff(incident),
            "exemplars": incident.exemplars[:MAX_EXEMPLARS],
            "capture": (self._capture_slice(incident, top["shard"])
                        if top else None),
        }

    def report(self, faults: Optional[List[dict]] = None,
               context: Optional[dict] = None) -> dict:
        """The full deterministic triage report (finalizes first)."""
        self.finalize()
        report = {
            "schema": SENTRY_SCHEMA,
            "window_ns": self.window_ns,
            "records_seen": self.records_seen,
            "beds": {str(s): self._beds[s] for s in sorted(self._beds)},
            "anomalies_total": len(self.anomalies),
            "faults": list(faults or ()),
            "incidents": [self.incident_dict(i, faults)
                          for i in self.incidents],
        }
        if context:
            report["context"] = context
        return report

    def report_json(self, faults: Optional[List[dict]] = None,
                    context: Optional[dict] = None) -> str:
        """Canonical JSON text — the byte-identity surface."""
        return json.dumps(self.report(faults, context), sort_keys=True,
                          indent=2) + "\n"


# -- fault matching (shared with repro.bench.faults / the CLI) -------------


def _fault_matches(fault: dict, incident, window_ns: int) -> bool:
    """Time-overlap + shard check between a fault and an incident."""
    slack = 4 * window_ns
    start = fault["t_inject_ns"] - slack
    end = (fault.get("t_clear_ns") or fault["t_inject_ns"]) + 4 * slack
    open_ns = (incident["open_at_ns"] if isinstance(incident, dict)
               else incident.open_at_ns)
    shards = (incident["shards"] if isinstance(incident, dict)
              else incident.shards)
    return start <= open_ns <= end and fault["shard"] in shards


def triage_verdict(report: dict) -> dict:
    """Match incidents to injected faults; classify the leftovers.

    A fault is **explained** when some incident overlaps its injection
    range, implicates its shard, and (when the fault declares
    ``expect_phases``) the incident's top-ranked cause carries one of
    the expected phases on that shard. An incident matching no fault is
    a **false positive**; a fault matching no incident is **missed**.
    Detection latency is simulated ns from injection to the matching
    incident's open timestamp.
    """
    window_ns = report["window_ns"]
    faults = report.get("faults", [])
    incidents = report.get("incidents", [])
    explained = []
    missed = []
    matched_ids = set()
    for fault in faults:
        match = None
        for incident in incidents:
            if not _fault_matches(fault, incident, window_ns):
                continue
            expect = fault.get("expect_phases")
            top = incident.get("top_cause")
            if expect and (top is None or top["phase"] not in expect
                           or top["shard"] != fault["shard"]):
                continue
            match = incident
            break
        if match is None:
            missed.append(fault)
        else:
            matched_ids.add(match["id"])
            explained.append({
                "fault": fault,
                "incident": match["id"],
                "detection_latency_ns": (match["open_at_ns"]
                                         - fault["t_inject_ns"]),
                "top_cause": match["top_cause"],
            })
    false_positives = [i["id"] for i in incidents
                       if i["id"] not in matched_ids]
    return {
        "explained": explained,
        "missed": missed,
        "false_positives": false_positives,
        "incidents": len(incidents),
        "mean_detection_ns": (
            round(sum(e["detection_latency_ns"] for e in explained)
                  / len(explained), 1) if explained else None),
    }

