"""Tests for repro.obs.critpath: phase attribution, causal path, CLI.

The exactness contract under test: for any request window, the
per-phase nanosecond attributions partition the window — they sum to
the end-to-end latency with no double counting and no unattributed
gaps — and the measured synchronisation-verb tallies (``sync_counts``)
agree with the static ``chain_cost`` E-term for every built-in
offload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ibv import wr_noop, wr_write
from repro.obs import (
    PHASES,
    Tracer,
    profile_trace,
    profile_tracer,
)
from repro.obs.critpath import (
    NormalizedEvent,
    _attribute,
    profile_events,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOLS = str(REPO_ROOT / "tools")
if TOOLS not in sys.path:
    sys.path.append(TOOLS)


def ev(ph, cat, name, ts, dur=0, track="nic/t", args=None):
    return NormalizedEvent(ph, cat, name, track, ts, dur, args)


def span(start, end, phase, detail="d"):
    return (start, end, phase, detail)


# -- phase attribution (synthetic) -----------------------------------------


class TestAttribution:
    def test_empty_window_all_queueing(self):
        phases, details = _attribute([], 0, 100)
        assert phases["queueing"] == 100
        assert sum(phases.values()) == 100
        assert details[("queueing", "idle")] == 100

    def test_partition_is_exact_with_overlaps(self):
        spans = [
            span(10, 20, "fetch"),
            span(15, 40, "pu_exec"),     # wins over fetch on [15,20)
            span(35, 50, "dma"),         # loses to pu_exec on [35,40)
            span(45, 70, "wire"),        # loses to dma on [45,50)
            span(90, 95, "cqe"),
        ]
        phases, _ = _attribute(spans, 0, 100)
        assert phases == {"pu_exec": 25, "dma": 10, "wire": 20,
                          "fetch": 5, "cqe": 5, "wait_blocked": 0,
                          "queueing": 35}
        assert sum(phases.values()) == 100

    def test_priority_order_matches_taxonomy(self):
        # Fully overlapping spans: the attribution must follow PHASES
        # order, with every lower-priority phase getting zero.
        for index, phase in enumerate(PHASES[:-1]):
            spans = [span(0, 10, lower) for lower in PHASES[index:-1]]
            phases, _ = _attribute(spans, 0, 10)
            assert phases[phase] == 10, phase
            assert sum(phases.values()) == 10

    def test_wait_blocked_covered_by_execute(self):
        # A WAIT blocked while a PU executes is not the bottleneck.
        spans = [span(0, 100, "wait_blocked", "WAIT(cq3)"),
                 span(40, 60, "pu_exec", "SEND")]
        phases, details = _attribute(spans, 0, 100)
        assert phases["wait_blocked"] == 80
        assert phases["pu_exec"] == 20
        assert details[("wait_blocked", "WAIT(cq3)")] == 80

    def test_spans_outside_window_ignored_by_profile(self):
        events = [
            ev("X", "request", "req", 100, 50),
            ev("X", "fetch", "fetch[64B]", 0, 30),     # before window
            ev("X", "fetch", "fetch[64B]", 90, 20),    # clipped to 10
            ev("X", "dma", "dma[64B]", 140, 40),       # clipped to 10
        ]
        profile = profile_events(events)
        (request,) = profile.requests
        assert request.phases["fetch"] == 10
        assert request.phases["dma"] == 10
        assert request.phases["queueing"] == 30
        assert sum(request.phases.values()) == request.total_ns == 50

    def test_deterministic_tie_break(self):
        # Same-priority overlapping spans: latest-started wins, and the
        # outcome is identical across repeated runs.
        spans = [span(0, 10, "dma", "a"), span(5, 10, "dma", "b")]
        results = {tuple(sorted(_attribute(list(spans), 0, 10)[1].items()))
                   for _ in range(5)}
        assert len(results) == 1
        _, details = _attribute(spans, 0, 10)
        assert details[("dma", "a")] == 5
        assert details[("dma", "b")] == 5


# -- live traces -----------------------------------------------------------


def drive_marked_writes(lo, tracer, count=3):
    """WRITE chain with one request_span per verb call."""
    src, _ = lo.buffer(64)
    dst, dst_mr = lo.buffer(64)

    def run():
        for index in range(count):
            start = lo.sim.now
            yield from lo.verbs.execute_sync_checked(
                lo.qp_a, wr_write(src.addr, 64, dst.addr, dst_mr.rkey,
                                  signaled=True))
            tracer.request_span(f"write:{index}", start)
        yield lo.sim.timeout(10_000)

    lo.run(run())


class TestLiveProfile:
    @pytest.fixture
    def traced(self, lo):
        tracer = Tracer(lo.sim, name="test")
        tracer.attach_nic(lo.nic)
        yield lo, tracer
        tracer.close()

    def test_requests_sum_exactly(self, traced):
        lo, tracer = traced
        drive_marked_writes(lo, tracer, count=3)
        profile = profile_tracer(tracer)
        assert [request.label for request in profile.requests] == \
            ["write:0", "write:1", "write:2"]
        for request in profile.requests:
            assert sum(request.phases.values()) == request.total_ns
            assert request.total_ns > 0
            assert request.phases["pu_exec"] > 0
            assert request.phases["fetch"] > 0

    def test_critical_path_is_causal(self, traced):
        lo, tracer = traced
        drive_marked_writes(lo, tracer, count=1)
        profile = profile_tracer(tracer)
        (request,) = profile.requests
        assert request.path, "no critical path reconstructed"
        # Hops are time-ordered and contributions partition the span
        # from the window start to the last traced event (the remainder
        # is host-side completion observation with no traced event).
        ends = [hop["end_ns"] for hop in request.path]
        assert ends == sorted(ends)
        contrib = sum(hop["contrib_ns"] for hop in request.path)
        assert contrib == request.path[-1]["end_ns"] - request.start
        assert contrib <= request.total_ns
        names = [hop["name"] for hop in request.path]
        # The walk roots at the request's trigger: the post or (when
        # both instants share a timestamp) the doorbell it rang.
        assert names[0].startswith("post:") or names[0] == "doorbell"
        assert any(name.startswith("op:WRITE") for name in names)

    def test_synthetic_window_without_requests(self, traced):
        lo, tracer = traced
        src, _ = lo.buffer(64)
        dst, dst_mr = lo.buffer(64)
        lo.run(lo.verbs.execute_sync_checked(
            lo.qp_a, wr_write(src.addr, 64, dst.addr, dst_mr.rkey,
                              signaled=True)))
        profile = profile_tracer(tracer)
        (request,) = profile.requests
        assert request.label == "trace"
        assert sum(request.phases.values()) == request.total_ns

    def test_sync_counts_zero_for_plain_chain(self, traced):
        lo, tracer = traced
        drive_marked_writes(lo, tracer, count=2)
        counts = profile_tracer(tracer).counts
        assert counts["E"] == counts["WAIT"] == counts["ENABLE"] == 0
        assert counts["ops"]["WRITE"] == 2

    def test_folded_lines_format(self, traced):
        lo, tracer = traced
        drive_marked_writes(lo, tracer, count=2)
        profile = profile_tracer(tracer)
        lines = profile.folded_lines()
        assert lines
        total = 0
        for line in lines:
            stack, ns = line.rsplit(" ", 1)
            label, phase, _detail = stack.split(";")
            assert label.startswith("write:")
            assert phase in PHASES
            total += int(ns)
        assert total == profile.total_ns

    def test_trace_roundtrip_matches_live(self, traced, tmp_path):
        """Chrome JSON (float us) reproduces the live integer-ns
        attribution exactly."""
        lo, tracer = traced
        drive_marked_writes(lo, tracer, count=2)
        live = profile_tracer(tracer)
        path = tmp_path / "trace.json"
        tracer.export_chrome(path)
        loaded = profile_trace(str(path))
        assert loaded.to_dict() == live.to_dict()

    def test_record_metrics_histograms(self, traced):
        lo, tracer = traced
        drive_marked_writes(lo, tracer, count=3)
        profile = profile_tracer(tracer)
        profile.record_metrics(lo.sim.metrics)
        snap = lo.sim.metrics.snapshot()["histograms"]
        assert snap["obs.critpath.request_ns"]["count"] == 3
        for phase in PHASES:
            assert snap[f"obs.critpath.{phase}_ns"]["count"] == 3
        assert snap["obs.critpath.request_ns"]["sum"] == live_total(profile)


def live_total(profile):
    return sum(request.total_ns for request in profile.requests)


# -- E-count cross-check against chain_cost (built-in offloads) ------------


class TestOffloadSelfcheck:
    """``--selfcheck`` asserts, per built-in offload: exact phase sums
    for every request AND the measured E tally's relation to the static
    ``chain_cost`` ordering term (exact / at-most / laps x per-lap)."""

    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "trace.py"),
             "profile", *argv],
            capture_output=True, text=True)

    @pytest.mark.parametrize("offload", [
        "hash-lookup", "hash-lookup-par", "list-traversal",
        "list-traversal-break", "recycled-get"])
    def test_selfcheck_passes(self, offload):
        result = self._run("--offload", offload, "--calls", "2",
                           "--selfcheck", "--json")
        assert result.returncode == 0, result.stderr
        assert "selfcheck ok" in result.stderr
        payload = json.loads(result.stdout)
        assert len(payload["requests"]) == 2
        for request in payload["requests"]:
            assert sum(request["phases"].values()) == request["total_ns"]
        assert payload["counts"]["E"] > 0


@pytest.mark.parametrize("offload", [
    "hash-lookup", "hash-lookup-par", "list-traversal",
    "list-traversal-break", "recycled-get"])
def test_live_profile_equals_exported_trace_profile(offload):
    """A live tracer is profiled through its Chrome events, so it
    profiles exactly like its own export."""
    from _offload_runners import run_offload

    run = run_offload(offload, 3,
                      instrument=lambda bed, label: Tracer(bed.sim,
                                                           name=label))
    tracer = run["instrument"]
    live = profile_tracer(tracer)
    assert live.requests
    assert live.to_dict() == profile_trace(tracer.to_json()).to_dict()


# -- CLI -------------------------------------------------------------------


class TestCli:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "trace.py"),
             "profile", *argv],
            capture_output=True, text=True)

    def test_breakdown_and_flame_on_trace_file(self, lo, tmp_path):
        tracer = Tracer(lo.sim, name="test")
        tracer.attach_nic(lo.nic)
        try:
            drive_marked_writes(lo, tracer, count=2)
            trace = tmp_path / "trace.json"
            tracer.export_chrome(trace)
        finally:
            tracer.close()
        folded = tmp_path / "stacks.folded"
        result = self._run(str(trace), "--flame", str(folded),
                           "--breakdown", "--top", "1")
        assert result.returncode == 0, result.stderr
        assert "write:" in result.stdout
        assert "queueing" in result.stdout
        lines = folded.read_text().splitlines()
        assert lines and all(";" in line for line in lines)

    def test_fail_if_phase_gate(self, tmp_path):
        flame = tmp_path / "s.folded"
        ok = self._run("--offload", "hash-lookup", "--calls", "2",
                       "--fail-if-phase", "wait_blocked>100000000",
                       "--flame", str(flame))
        assert ok.returncode == 0, ok.stderr
        assert flame.exists()
        bad = self._run("--offload", "hash-lookup", "--calls", "2",
                        "--fail-if-phase", "wait_blocked>1")
        assert bad.returncode == 1
        assert "wait_blocked" in bad.stderr

    def test_bad_phase_bound_rejected(self):
        result = self._run("--offload", "hash-lookup",
                           "--fail-if-phase", "nonsense>10")
        assert result.returncode == 2

    def test_requires_exactly_one_source(self):
        result = self._run()
        assert result.returncode == 2
        assert result.stderr == ("error: give exactly one of TRACE.json "
                                 "or --offload\n")
