"""Shared infrastructure for the per-table/per-figure benchmarks.

Every benchmark follows the same pattern:

1. build a simulated scenario on the paper's testbed,
2. measure the *simulated* metric (latency in simulated microseconds,
   throughput in simulated ops/s) — pytest-benchmark's wall-clock
   numbers only show how fast the simulator runs, the reproduced
   numbers are printed and attached as ``extra_info``,
3. assert the paper's qualitative shape (who wins, rough factors).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.bench import Testbed as _BaseTestbed
from repro.bench import render_table

__all__ = ["run_once", "print_comparison", "Testbed", "within_factor",
           "set_trace_output", "set_breakdown_output", "flush_trace",
           "set_journal_output", "set_telemetry_output", "mark_request"]

# -- optional outputs, switched on by the pytest flags in conftest.py ------

#: Where to write the merged Chrome trace, or None for tracing off.
TRACE_PATH: Optional[str] = None
#: Where to write the per-phase latency breakdown JSON, or None.
BREAKDOWN_PATH: Optional[str] = None
#: Where to write the merged flight-recorder journal, or None.
JOURNAL_PATH: Optional[str] = None
#: Where to write the merged fleet telemetry JSONL stream, or None.
TELEMETRY_PATH: Optional[str] = None
_tracers: List = []
_recorders: List = []
_fleet = None  # session-wide repro.obs.telemetry.FleetTelemetry


def set_trace_output(path: Optional[str]) -> None:
    """Enable tracing for every Testbed built after this call."""
    global TRACE_PATH
    TRACE_PATH = path


def set_breakdown_output(path: Optional[str]) -> None:
    """Enable critical-path breakdown output (implies tracing)."""
    global BREAKDOWN_PATH
    BREAKDOWN_PATH = path


def set_journal_output(path: Optional[str]) -> None:
    """Enable flight-recorder journaling for every Testbed built
    after this call (pytest ``--journal OUT.jsonl``)."""
    global JOURNAL_PATH
    JOURNAL_PATH = path


def set_telemetry_output(path: Optional[str]) -> None:
    """Enable windowed fleet telemetry for every Testbed built after
    this call (pytest ``--telemetry OUT.jsonl``)."""
    global TELEMETRY_PATH
    TELEMETRY_PATH = path


def mark_request(bed, label: str, start_ns: int) -> None:
    """Mark [start_ns, now] as one profiled request window on ``bed``.

    No-op when the bed carries no tracer, so benchmarks call it
    unconditionally per sample.
    """
    tracer = getattr(bed, "tracer", None)
    if tracer is not None:
        tracer.request_span(label, start_ns)


def _write_breakdown(path: str) -> None:
    """Profile every bed's tracer and write one merged breakdown."""
    import json as _json
    from collections import Counter as _Counter

    from repro.obs import CritPathProfile, profile_tracer

    requests: List = []
    ops: _Counter = _Counter()
    totals = _Counter()
    for tracer in _tracers:
        profile = profile_tracer(tracer)
        requests.extend(profile.requests)
        counts = profile.counts
        ops.update(counts["ops"])
        for key in ("E", "WAIT", "ENABLE"):
            totals[key] += counts[key]
    merged = CritPathProfile(requests, {
        "E": totals["E"], "WAIT": totals["WAIT"],
        "ENABLE": totals["ENABLE"], "ops": dict(sorted(ops.items()))})
    with open(path, "w") as handle:
        _json.dump(merged.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\n[breakdown] wrote {len(requests)} request(s) to {path}")


def flush_trace() -> Optional[str]:
    """Write all pending outputs (trace, breakdown, journal); returns
    the trace path written, if any."""
    global _tracers, _recorders
    written = None
    if _tracers:
        if BREAKDOWN_PATH:
            _write_breakdown(BREAKDOWN_PATH)
        if TRACE_PATH:
            from repro.obs import export_merged_chrome
            count = export_merged_chrome(_tracers, TRACE_PATH)
            print(f"\n[trace] wrote {count} events to {TRACE_PATH}")
            written = TRACE_PATH
        for tracer in _tracers:
            tracer.close()
        _tracers = []
    if _recorders:
        if JOURNAL_PATH:
            from repro.obs import export_merged_journal
            count = export_merged_journal(_recorders, JOURNAL_PATH)
            print(f"\n[journal] wrote {count} records to {JOURNAL_PATH}")
        for recorder in _recorders:
            recorder.close()
        _recorders = []
    global _fleet
    if _fleet is not None:
        records = _fleet.finalize()
        if TELEMETRY_PATH:
            with open(TELEMETRY_PATH, "w") as handle:
                handle.write(_fleet.to_jsonl())
            print(f"\n[telemetry] wrote {len(records)} window records "
                  f"to {TELEMETRY_PATH}")
        _fleet.close()
        _fleet = None
    return written


class Testbed(_BaseTestbed):
    """The paper testbed, plus a per-bed tracer when --trace-out or
    --breakdown is on and a flight recorder when --journal is on."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = None
        if TRACE_PATH or BREAKDOWN_PATH:
            from repro.obs import Tracer
            self.tracer = Tracer(self.sim, name=f"bed{len(_tracers)}")
            self.tracer.attach_nic(self.server.nic)
            for client in self.clients:
                self.tracer.attach_nic(client.nic)
            _tracers.append(self.tracer)
        self.recorder = None
        if JOURNAL_PATH:
            from repro.obs import FlightRecorder
            self.recorder = FlightRecorder(
                self.sim, name=f"bed{len(_recorders)}")
            self.recorder.attach_nic(self.server.nic)
            for client in self.clients:
                self.recorder.attach_nic(client.nic)
            _recorders.append(self.recorder)
        self.telemetry = None
        if TELEMETRY_PATH:
            global _fleet
            if _fleet is None:
                from repro.obs import FleetTelemetry
                _fleet = FleetTelemetry()
            self.telemetry = _fleet.attach(
                self.sim, bed=f"bed{len(_fleet.collectors)}")


def run_once(benchmark, fn: Callable[[], Dict]) -> Dict:
    """Run the scenario exactly once under pytest-benchmark."""
    result_box = {}

    def wrapper():
        result_box["result"] = fn()

    benchmark.pedantic(wrapper, rounds=1, iterations=1)
    result = result_box["result"]
    for key, value in result.items():
        if isinstance(value, (int, float, str)):
            benchmark.extra_info[key] = value
    return result


def within_factor(measured: float, reference: float,
                  factor: float) -> bool:
    """True when measured is within [ref/factor, ref*factor]."""
    if reference <= 0 or measured <= 0:
        return False
    return reference / factor <= measured <= reference * factor


def print_comparison(title: str, headers: Sequence[str], rows) -> None:
    print(render_table(headers, rows, title=title))


def measure_flood_rate(bed, qps, make_wqe, ops_per_qp: int = 768,
                       wave: int = 256) -> float:
    """Aggregate verb rate (ops/s) for a deep flood across QPs.

    Each QP posts ``wave``-sized bursts with only the final WR
    signaled (ib_write_bw style) and re-posts when the wave drains.
    The rate is computed over the post-warmup window.
    """
    sim = bed.sim
    waves = max(1, ops_per_qp // wave)

    def flood(qp):
        for _ in range(waves):
            base = qp.send_wq.cq.count
            for index in range(wave):
                wqe = make_wqe(qp)
                wqe.flags |= 0x1 if index == wave - 1 else 0
                if index != wave - 1:
                    wqe.flags &= ~0x1
                qp.post_send(wqe)
            yield qp.send_wq.cq.wait_for_count(base + 1)

    def run():
        start = sim.now
        procs = [sim.process(flood(qp), name=f"flood{i}")
                 for i, qp in enumerate(qps)]
        for proc in procs:
            if not proc.triggered:
                yield proc
        elapsed = sim.now - start
        total = len(qps) * waves * wave
        return total / (elapsed / 1e9)

    return bed.run(run())
