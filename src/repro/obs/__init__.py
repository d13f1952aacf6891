"""repro.obs — tracing, journaling, telemetry and metrics for the simulator.

Every :class:`~repro.sim.core.Simulator` owns a :class:`Probe`
(``repro.obs.probe``, ``sim.probe``): the one place the device models
announce their events (WQE post, doorbell, fetch, execute, WAIT,
ENABLE, completion, CQE, atomic, DMA, wire, lease, demux, link hop,
offload call, request), each exactly once, in one shared vocabulary.
Sinks join the probe and receive those events through ``on_<kind>``
methods. The tracer and the flight recorder are views over one sink,
the capture (``repro.obs.capture``), which stores each NIC event once
as a flat record in fixed-size chunks; each view folds them when read:

* :class:`Tracer` (``repro.obs.tracer``) — typed span/instant events
  keyed on *simulated* time (WQE fetch, prefetch-cache hit/stale,
  execute, CAS apply, WAIT wakeup, ENABLE, doorbell, DMA, CQE),
  exported as Chrome trace-event JSON loadable in Perfetto with PUs,
  WQs, CQs and ports as tracks. For it the capture runs the
  **self-modification race inspector** online: it joins DRAM
  write-generation bumps against WQE fetch snapshots and flags every
  WQE whose ring bytes changed between post and fetch (``self_mod``)
  or between fetch and execute (``stale_wqe`` — the §3.1 prefetch
  incoherence window).

* :class:`FlightRecorder` (``repro.obs.recorder``) — a bounded causal
  journal of every post/doorbell/fetch/execute/WAIT/ENABLE/CQE/atomic/
  ring-store event plus periodic checkpoints of sim-visible state,
  dumpable to JSONL and watched online by invariant monitors. The
  trace-diff engine (``repro.obs.tracediff``) aligns two journals on
  causal keys, reports the *first* divergence with a typed
  explanation and an upstream causal slice, and compares checkpoint
  states — see ``tools/trace.py diff``. Re-recording a scenario and
  diffing the two journals is the re-run check.

* :class:`TelemetryCollector` (``repro.obs.telemetry``), a sink of its
  own — per-bed windowed counters, queue depths, PU utilization and
  tail-latency digests, merged fleet-wide by :class:`FleetTelemetry`
  into one deterministic JSONL stream with SLO burn-rate alerting —
  see ``tools/fleet.py top``.

Separately, :class:`MetricsRegistry` (``repro.obs.metrics``) holds
named counters, gauges and sim-time histograms behind one
``snapshot()`` API. Every simulator owns one lazily (``sim.metrics``);
the RNIC and its send-queue drivers register their counters there, so
one snapshot covers kernel, device and driver state. Exportable as
OpenMetrics/Prometheus text via :meth:`MetricsRegistry.to_openmetrics`.

``repro.obs.critpath`` is pure post-processing: it
rebuilds the causal DAG over a recorded trace's events per request,
computes the critical path, and attributes every nanosecond of a
request to exactly one typed phase (``queueing``/``fetch``/
``wait_blocked``/``pu_exec``/``dma``/``wire``/``cqe``) — see
``tools/trace.py profile``. ``repro.obs.blame`` extends that
attribution *across shards*: a live :class:`RequestBlame` context
rides the fleet's fabric payloads while the connection plane records
typed spans into it (``pool_wait``, ``doorbell_batch``, ``cqe_demux``,
``link_wire``, ``gw_wait``), so per-phase blame for a cross-shard get
sums exactly to its end-to-end latency — see ``tools/fleet.py blame``.

``repro.obs.sentry`` closes the loop: a :class:`FleetSentry` folds
over the sealed telemetry window stream with deterministic anomaly
detectors (tail step-changes, queue growth, PU saturation, pool
pressure, stale-CQE quarantines, request-skew shifts, flatlines,
throughput collapse), groups time-correlated anomalies into incidents
with targeted capture (boosted blame-exemplar retention, bounded
flight-recorder slices, pre/post baselines), and emits a causal
root-cause report ranking implicated (shard, queue, phase) — see
``tools/fleet.py triage`` and the fault scenarios in
``repro.bench.faults``.

Fast path
---------

For each event kind the probe holds the tuple of attached sinks'
hooks, so a site reads::

    if probe.fetch:
        for hook in probe.fetch:
            hook(wq, wr_index, slot_cursor, slots, wqe, cache_hit)

With no sink on a simulator the tuple is empty and the whole cost of
a site is one attribute load and a branch — the pinned fingerprints in
``tests/test_sim_fingerprints.py`` run with every sink off. Attachment is per
simulator: a sink on one simulator never puts another on the observed
path, and ``close()`` (on the capture's last view) takes it off again.
"""

from __future__ import annotations

# Submodules are imported lazily: the simulator kernel imports
# ``repro.obs.probe`` and must not pull in the sinks (or their
# dependencies on the device models) with it.
_LAZY = {
    "Probe": "probe",
    "SinkAttachedError": "probe",
    "Tracer": "tracer",
    "export_merged_chrome": "tracer",
    "MetricsRegistry": "metrics",
    "Histogram": "metrics",
    "HistogramLayoutError": "metrics",
    "parse_openmetrics": "metrics",
    "to_openmetrics_multi": "metrics",
    "SENTRY_SCHEMA": "sentry",
    "DETECTORS": "sentry",
    "Anomaly": "sentry",
    "Incident": "sentry",
    "FleetSentry": "sentry",
    "triage_verdict": "sentry",
    "DEFAULT_WINDOW_NS": "telemetry",
    "TelemetryCollector": "telemetry",
    "FleetTelemetry": "telemetry",
    "SloRule": "telemetry",
    "BurnAlert": "telemetry",
    "load_slo_rules": "telemetry",
    "evaluate_slo": "telemetry",
    "summarize_records": "telemetry",
    "TraceData": "inspect",
    "load_trace": "inspect",
    "summarize_trace": "inspect",
    "race_report": "inspect",
    "wq_timeline": "inspect",
    "track_summary": "inspect",
    "PHASES": "critpath",
    "CritPathProfile": "critpath",
    "RequestProfile": "critpath",
    "profile_tracer": "critpath",
    "profile_trace": "critpath",
    "sync_counts": "critpath",
    "attribute_spans": "critpath",
    "BLAME_PHASES": "blame",
    "RequestBlame": "blame",
    "blame_table": "blame",
    "summarize_blame": "blame",
    "folded_blame": "blame",
    "diff_blame": "blame",
    "blame_registries": "blame",
    "exemplar_order": "blame",
    "exemplars_of": "blame",
    "FlightRecorder": "recorder",
    "InvariantMonitor": "recorder",
    "Journal": "recorder",
    "JournalError": "recorder",
    "JournalCorruptError": "recorder",
    "JournalTruncatedError": "recorder",
    "load_journal": "recorder",
    "export_merged_journal": "recorder",
    "Divergence": "tracediff",
    "DiffReport": "tracediff",
    "diff_journals": "tracediff",
    "causal_slice": "tracediff",
}

__all__ = list(_LAZY)


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module_name}", __name__), name)
    globals()[name] = value
    return value
