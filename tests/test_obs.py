"""Tests for repro.obs: metrics registry, tracer, race inspector, CLI."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.ibv import wr_fetch_add, wr_noop, wr_wait, wr_write
from repro.obs import (
    Histogram,
    MetricsRegistry,
    Tracer,
    load_trace,
    parse_openmetrics,
    race_report,
    summarize_trace,
    track_summary,
    wq_timeline,
)
from repro.obs.inspect import render_track_summary
from repro.redn import ProgramBuilder, RecycledLoop, RednContext

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def traced(lo):
    """LoopbackRig with a tracer attached (detached at teardown)."""
    tracer = Tracer(lo.sim, name="test")
    tracer.attach_nic(lo.nic)
    yield lo, tracer
    tracer.close()


def drive_recycled_loop(lo, laps: int = 4):
    """The ticker construct: each trigger completion drives one lap,
    and the loop's ADD rewrites the head WAIT's wqe_count in ring
    memory — RedN self-modification in its smallest form."""
    ctx = RednContext(lo.nic, lo.pd, owner="test-obs", name="obsctx")
    builder = ProgramBuilder(ctx, name="loop-test")
    counter, counter_mr = ctx.alloc_registered(8, label="ctr")

    trigger_qp = lo.qp_a
    loop = RecycledLoop(builder, trigger_qp.send_wq.cq,
                        trigger_delta=1, name="ticker")
    loop.body(wr_fetch_add(counter.addr, counter_mr.rkey, 1,
                           signaled=True), tag="while.body")
    loop.build()
    loop.start()

    def run():
        for _ in range(laps):
            yield from lo.verbs.execute_sync_checked(
                trigger_qp, wr_noop(signaled=True))
            yield lo.sim.timeout(30_000)
        return ctx.memory.read_u64(counter.addr)

    return lo.run(run())


def drive_write_chain(lo, count: int = 6):
    """Straight-line WRITEs into a data buffer: no queue memory is
    ever touched after post, so the inspector must stay silent."""
    src, _ = lo.buffer(64)
    dst, dst_mr = lo.buffer(64)

    def run():
        for index in range(count):
            yield from lo.verbs.execute_sync_checked(
                lo.qp_a, wr_write(src.addr, 64, dst.addr, dst_mr.rkey,
                                  signaled=True))
        return index

    return lo.run(run())


def drive_stale_prefetch(lo):
    """§3.1 incoherence on a normal queue: park a prefetched batch
    behind a WAIT, rewrite the parked WQE's ring bytes, release."""
    wq_a = lo.qp_a.send_wq
    scq_b = lo.qp_b.send_wq.cq
    wq_a.post(wr_wait(scq_b.cq_num, 1))
    wq_a.post(wr_noop(signaled=True))

    def run():
        yield lo.sim.timeout(5_000)      # prefetch batch has landed
        lo.memory.write_u64(wq_a.slot_addr(1) + 32, 0xDEAD)  # operand0
        yield from lo.verbs.execute_sync_checked(
            lo.qp_b, wr_noop(signaled=True))
        yield lo.sim.timeout(30_000)

    lo.run(run())


# -- metrics ---------------------------------------------------------------


class TestHistogram:
    def test_observe_and_stats(self):
        histogram = Histogram("h")
        for value in (0, 1, 5, 100, 100):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.total == 206
        assert (histogram.min, histogram.max) == (0, 100)

    def test_quantile_bucket_bounds(self):
        histogram = Histogram("h")
        for value in (3, 3, 3, 200):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 3   # bucket [2,4) -> upper 3
        assert histogram.quantile(1.0) == 255  # bucket [128,256)

    def test_empty_quantile_raises(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h").observe(-1)

    def test_snapshot_only_nonempty_buckets(self):
        histogram = Histogram("h")
        histogram.observe(9)
        snap = histogram.snapshot()
        assert snap["buckets"] == {"le_15": 1}

    def test_quantile_fraction_bounds(self):
        histogram = Histogram("h")
        histogram.observe(1)
        for fraction in (0, -0.5, 1.5):
            with pytest.raises(ValueError):
                histogram.quantile(fraction)
        assert histogram.quantile(1.0) == 1

    def test_quantile_all_zeros(self):
        histogram = Histogram("h")
        for _ in range(3):
            histogram.observe(0)
        assert histogram.quantile(0.5) == 0
        assert histogram.quantile(1.0) == 0

    def test_empty_snapshot(self):
        assert Histogram("h").snapshot() == {
            "count": 0, "sum": 0, "min": None, "max": None,
            "buckets": {}}


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter["x"] += 2
        assert registry.counter("a.b") is counter
        assert registry.snapshot()["counters"]["a.b"] == {"x": 2}

    def test_gauge_sampled_at_snapshot(self):
        registry = MetricsRegistry()
        box = {"v": 1}
        registry.gauge("g", lambda: box["v"])
        assert registry.snapshot()["gauges"]["g"] == 1
        box["v"] = 7
        assert registry.snapshot()["gauges"]["g"] == 7

    def test_snapshot_is_json_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z")["k"] += 1
        registry.counter("a")["k"] += 1
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        json.dumps(snap)

    def test_sim_owns_lazy_registry(self, lo):
        snap = lo.sim.metrics.snapshot()
        assert "sim.events_executed" in snap["gauges"]
        assert snap["gauges"]["sim.now"] == lo.sim.now

    def test_nic_and_driver_counters_unified(self, lo):
        """One snapshot carries the NIC opcode counts and the driver
        fetch counts; the driver no longer keeps a drifting duplicate
        of the per-opcode tallies."""
        drive_write_chain(lo, count=4)
        snap = lo.sim.metrics.snapshot()["counters"]
        nic_wrs = snap["nic.nic.wrs"]
        assert nic_wrs["WRITE"] == 4
        assert nic_wrs["total_wrs"] == lo.nic.stats["total_wrs"]
        fetch_keys = [key for key in snap if key.endswith(".fetch")]
        assert fetch_keys, snap.keys()
        driver_stats = {}
        for key in fetch_keys:
            driver_stats.update(snap[key])
        assert "WRITE" not in driver_stats
        assert sum(snap[key].get("fetch_prefetched", 0)
                   + snap[key].get("fetch_managed", 0)
                   for key in fetch_keys) >= 4


class TestOpenMetrics:
    def _registry(self):
        registry = MetricsRegistry()
        wrs = registry.counter("nic.a.wrs")
        wrs["WRITE"] += 3
        wrs['odd"key\\'] += 1
        registry.gauge("sim.now", lambda: 42)
        registry.gauge("sim.label", lambda: "not-numeric")
        histogram = registry.histogram("lat.ns")
        for value in (0, 3, 3, 900):
            histogram.observe(value)
        return registry

    def test_round_trip_matches_snapshot(self):
        registry = self._registry()
        parsed = parse_openmetrics(registry.to_openmetrics())
        snapshot = registry.snapshot()
        assert parsed["counters"]["nic_a_wrs"] == \
            snapshot["counters"]["nic.a.wrs"]
        assert parsed["gauges"] == {"sim_now": 42}
        hist = parsed["histograms"]["lat_ns"]
        reference = snapshot["histograms"]["lat.ns"]
        assert hist["count"] == reference["count"]
        assert hist["sum"] == reference["sum"]
        assert hist["buckets"] == reference["buckets"]

    def test_text_format_conventions(self):
        text = self._registry().to_openmetrics()
        assert text.endswith("# EOF\n")
        assert "# TYPE nic_a_wrs counter" in text
        assert '\nnic_a_wrs_total{key="WRITE"} 3\n' in text
        assert '\nlat_ns_bucket{le="+Inf"} 4\n' in text
        assert "not-numeric" not in text
        # Buckets are cumulative: zeros bucket (1) then [2,4) adds 2.
        assert '\nlat_ns_bucket{le="0"} 1\n' in text
        assert '\nlat_ns_bucket{le="3"} 3\n' in text

    def test_live_registry_exports(self, lo):
        drive_write_chain(lo, count=2)
        parsed = parse_openmetrics(lo.sim.metrics.to_openmetrics())
        assert parsed["counters"]["nic_nic_wrs"]["WRITE"] == 2
        assert parsed["gauges"]["sim_now"] == lo.sim.now


# -- tracer ----------------------------------------------------------------


class TestTracerLifecycle:
    def test_enabled_flag_tracks_attachment(self, lo):
        assert lo.sim.probe.sinks == []
        tracer = Tracer(lo.sim)
        capture = tracer._capture
        assert lo.sim.probe.sinks == [capture]
        assert lo.sim.probe.post == (capture.on_post,)
        tracer.close()
        assert lo.sim.probe.sinks == []
        assert lo.sim.probe.post == ()

    def test_second_tracer_rejected(self, lo):
        tracer = Tracer(lo.sim)
        try:
            with pytest.raises(obs.SinkAttachedError):
                Tracer(lo.sim)
        finally:
            tracer.close()

    def test_close_idempotent(self, lo):
        tracer = Tracer(lo.sim)
        tracer.close()
        tracer.close()
        assert lo.sim.probe.sinks == []


class TestTracerEvents:
    def test_chrome_json_valid_with_pu_tracks(self, traced, tmp_path):
        lo, tracer = traced
        drive_write_chain(lo)
        out = tmp_path / "trace.json"
        count = tracer.export_chrome(out)
        assert count == len(tracer.events) > 0
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        threads = {event["args"]["name"] for event in events
                   if event.get("ph") == "M"
                   and event.get("name") == "thread_name"}
        assert any(name.startswith("port0/pu") for name in threads)
        assert any(name.startswith("wq:") for name in threads)
        pu_tids = {(event["pid"], event["tid"]) for event in events
                   if event.get("ph") == "M"
                   and event.get("name") == "thread_name"
                   and event["args"]["name"].startswith("port0/pu")}
        pu_spans = [event for event in events
                    if event.get("ph") == "X"
                    and (event["pid"], event["tid"]) in pu_tids]
        assert pu_spans, "no execute spans on any PU track"

    def test_single_and_merged_exports_count_the_same_rows(self, traced,
                                                           tmp_path):
        """One tracer exported alone or through the merged writer: the
        same file, and both report the recorded events, without the
        ``M`` metadata rows."""
        lo, tracer = traced
        drive_write_chain(lo)
        single, merged = tmp_path / "single.json", tmp_path / "merged.json"
        count = tracer.export_chrome(single)
        assert obs.export_merged_chrome([tracer], merged) == count
        assert single.read_bytes() == merged.read_bytes()
        rows = json.loads(single.read_text())["traceEvents"]
        assert count == len(tracer.events) == sum(
            1 for row in rows if row["ph"] != "M") < len(rows)

    def test_span_categories_present(self, traced):
        lo, tracer = traced
        drive_write_chain(lo)
        summary = summarize_trace(load_trace(tracer.to_json()))
        for category in ("queue", "fetch", "exec", "cqe", "dma"):
            assert summary["categories"].get(category, 0) > 0, category

    def test_ring_stores_traced_for_annotated_regions(self, traced):
        lo, tracer = traced
        drive_recycled_loop(lo, laps=2)
        summary = summarize_trace(load_trace(tracer.to_json()))
        assert summary["categories"].get("mem", 0) > 0

    def test_wait_and_enable_events(self, traced):
        lo, tracer = traced
        drive_recycled_loop(lo, laps=2)
        names = {event[2] for event in tracer.events}
        assert "WAIT" in names
        assert "WAIT.wake" in names
        assert "ENABLE" in names

    def test_atomics_recorded(self, traced):
        lo, tracer = traced
        drive_recycled_loop(lo, laps=2)
        atomics = [event for event in tracer.events if event[1] == "atomic"]
        assert atomics
        assert any(event[2] == "FETCH_ADD" for event in atomics)


class TestWaitEnableSpanEdges:
    """Satellite: WAIT/ENABLE span edge semantics in the tracer."""

    @pytest.fixture
    def traced(self, lo):
        tracer = Tracer(lo.sim, name="test")
        tracer.attach_nic(lo.nic)
        yield lo, tracer
        tracer.close()

    def _drive_wait(self, lo, presatisfied: bool):
        wq_a = lo.qp_a.send_wq
        scq_b = lo.qp_b.send_wq.cq

        def run():
            if presatisfied:
                yield from lo.verbs.execute_sync_checked(
                    lo.qp_b, wr_noop(signaled=True))
            wq_a.post(wr_wait(scq_b.cq_num, 1))
            wq_a.post(wr_noop(signaled=True))
            if not presatisfied:
                yield lo.sim.timeout(5_000)
                yield from lo.verbs.execute_sync_checked(
                    lo.qp_b, wr_noop(signaled=True))
            yield lo.sim.timeout(30_000)

        lo.run(run())

    def _wait_spans(self, tracer):
        return [event for event in tracer.events
                if event[0] == "X" and event[2] == "WAIT"]

    def test_wait_satisfied_at_post_is_bookkeeping_only(self, traced):
        """A WAIT whose threshold is already met when it executes spans
        exactly the wait_check bookkeeping time — no blocked interval."""
        lo, tracer = traced
        self._drive_wait(lo, presatisfied=True)
        (span,) = self._wait_spans(tracer)
        assert span[6] == lo.nic.timing.wait_check_ns
        assert span[7]["count"] == 1

    def test_wait_blocked_spans_the_blocked_interval(self, traced):
        lo, tracer = traced
        self._drive_wait(lo, presatisfied=False)
        (span,) = self._wait_spans(tracer)
        # Blocked from execute until the trigger's CQE ~5us later.
        assert span[6] > 4_000
        wakes = [event for event in tracer.events
                 if event[2] == "WAIT.wake"]
        assert len(wakes) == 1
        assert wakes[0][5] == span[5] + span[6]  # wake at span end

    def test_rearmed_wait_counts_increase(self, traced):
        """The recycled loop's ADD re-arms the head WAIT with a bumped
        threshold each lap: spans record the rewritten wqe_count."""
        lo, tracer = traced
        laps = 3
        drive_recycled_loop(lo, laps=laps)
        spans = self._wait_spans(tracer)
        head_track = spans[0][3], spans[0][4]
        counts = [span[7]["count"] for span in spans
                  if (span[3], span[4]) == head_track]
        assert counts == list(range(1, len(counts) + 1))
        assert len(counts) >= laps

    def test_enable_records_target_queue_name(self, traced):
        lo, tracer = traced
        drive_recycled_loop(lo, laps=2)
        enables = [event for event in tracer.events
                   if event[2] == "ENABLE"]
        assert enables
        for event in enables:
            assert isinstance(event[7]["target_name"], str)
            assert event[7]["target_name"]


class TestDataPathSpans:
    """cqe_dma / dma-transaction / wire spans feeding the profiler."""

    def test_cqe_dma_span_on_signaled_completion(self, lo):
        tracer = Tracer(lo.sim, name="test")
        tracer.attach_nic(lo.nic)
        try:
            drive_write_chain(lo, count=1)
            spans = [event for event in tracer.events
                     if event[2] == "cqe_dma"]
            assert spans
            assert all(event[6] == lo.nic.timing.cqe_dma_ns
                       for event in spans)
        finally:
            tracer.close()

    def test_dma_txn_and_wire_spans_remote(self, rig):
        tracer = Tracer(rig.sim, name="test")
        tracer.attach_nic(rig.nic_a)
        tracer.attach_nic(rig.nic_b)
        try:
            src, _ = rig.buffer("a", 64)
            dst, dst_mr = rig.buffer("b", 64)
            rig.run(rig.verbs.execute_sync_checked(
                rig.qp_a, wr_write(src.addr, 64, dst.addr, dst_mr.rkey,
                                   signaled=True)))
            names = {event[2] for event in tracer.events}
            assert "dma:posted" in names
            wires = [event for event in tracer.events
                     if event[1] == "wire"]
            assert wires
            # Request carries the 64B payload; the ack is header-only.
            assert any(event[7]["bytes"] == 64 for event in wires)
            assert all(event[6] > 0 for event in wires)
        finally:
            tracer.close()

    def test_no_wire_spans_on_loopback(self, lo):
        tracer = Tracer(lo.sim, name="test")
        tracer.attach_nic(lo.nic)
        try:
            drive_write_chain(lo, count=2)
            assert not [event for event in tracer.events
                        if event[1] == "wire"]
        finally:
            tracer.close()


# -- race inspector --------------------------------------------------------


class TestRaceInspector:
    def test_straight_line_chain_has_no_races(self, traced):
        lo, tracer = traced
        drive_write_chain(lo)
        assert tracer.self_mod_count == 0
        assert tracer.stale_count == 0

    def test_recycled_loop_flags_self_modification(self, traced):
        lo, tracer = traced
        laps = 4
        assert drive_recycled_loop(lo, laps=laps) == laps
        # Exactly one self_mod per lap: the ADD bumping the head WAIT's
        # wqe_count. The restore READs rewrite byte-identical template
        # content and must NOT be flagged.
        assert tracer.self_mod_count == laps
        report = race_report(load_trace(tracer.to_json()))
        kinds = {entry["kind"] for entry in report}
        assert kinds == {"self_mod"}
        for entry in report:
            assert any(change.startswith("wqe_count:")
                       for change in entry["changed"]), entry

    def test_stale_prefetch_flagged(self, traced):
        lo, tracer = traced
        drive_stale_prefetch(lo)
        assert tracer.stale_count == 1
        (entry,) = [item for item in
                    race_report(load_trace(tracer.to_json()))
                    if item["kind"] == "stale_wqe"]
        assert entry["window_ns"] > 0
        assert any("operand0" in change for change in entry["changed"])

    def test_managed_fetch_sees_fresh_bytes(self, traced):
        """On a managed (doorbell-ordered) queue the same rewrite is a
        self-modification, not a stale fetch: the fetch happens after
        the write, so executed bytes match DRAM."""
        lo, tracer = traced
        drive_recycled_loop(lo, laps=3)
        assert tracer.stale_count == 0


# -- inspector library & CLI -----------------------------------------------


class TestInspector:
    def test_load_trace_from_dict_str_and_path(self, traced, tmp_path):
        lo, tracer = traced
        drive_write_chain(lo, count=2)
        text = tracer.to_json()
        path = tmp_path / "t.json"
        path.write_text(text)
        for source in (json.loads(text), text, str(path)):
            data = load_trace(source)
            assert summarize_trace(data)["events"] > 0

    def test_rejects_non_trace(self):
        with pytest.raises(ValueError):
            load_trace({"not": "a trace"})

    def test_wq_timeline_filters_one_queue(self, traced):
        lo, tracer = traced
        drive_write_chain(lo, count=3)
        data = load_trace(tracer.to_json())
        wq_name = lo.qp_a.send_wq.name
        timeline = wq_timeline(data, wq_name)
        assert timeline
        timestamps = [event.get("ts", 0) for event in timeline]
        assert timestamps == sorted(timestamps)
        other = wq_timeline(data, "no-such-queue")
        assert other == []

    def test_summary_span_covers_run(self, traced):
        lo, tracer = traced
        drive_write_chain(lo, count=2)
        summary = summarize_trace(load_trace(tracer.to_json()))
        assert summary["span_us"] > 0
        assert summary["races"] == {"self_mod": 0, "stale_wqe": 0}

    def test_track_summary_counts_and_order(self, traced):
        lo, tracer = traced
        drive_write_chain(lo, count=3)
        data = load_trace(tracer.to_json())
        rows = track_summary(data)
        assert rows
        assert any("wq:" in row["track"] for row in rows)
        for row in rows:
            assert row["events"] == sum(row["names"].values()) > 0
            assert row["first_us"] <= row["last_us"]
        # Sorted by track name; totals cover every timed event.
        assert [row["track"] for row in rows] == \
            sorted(row["track"] for row in rows)
        rendered = render_track_summary(data)
        assert "events" in rendered
        for row in rows:
            assert row["track"] in rendered


class TestCli:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "trace.py"),
             "inspect", *argv],
            capture_output=True, text=True)

    def _export(self, traced, tmp_path, scenario):
        lo, tracer = traced
        scenario(lo)
        path = tmp_path / "trace.json"
        tracer.export_chrome(path)
        return path

    def test_summary_and_races(self, traced, tmp_path):
        path = self._export(traced, tmp_path,
                            lambda lo: drive_recycled_loop(lo, laps=2))
        result = self._run(str(path))
        assert result.returncode == 0, result.stderr
        assert "self-modification events: 2" in result.stdout
        races = self._run(str(path), "--races", "--json")
        assert races.returncode == 0
        report = json.loads(races.stdout)
        assert len(report) == 2

    def test_fail_on_race_ignores_self_mod(self, traced, tmp_path):
        path = self._export(traced, tmp_path,
                            lambda lo: drive_recycled_loop(lo, laps=2))
        result = self._run(str(path), "--fail-on-race")
        assert result.returncode == 0

    def test_fail_on_race_trips_on_stale(self, traced, tmp_path):
        path = self._export(traced, tmp_path, drive_stale_prefetch)
        result = self._run(str(path), "--fail-on-race")
        assert result.returncode == 1
        assert "stale-fetch" in result.stderr

    def test_timeline(self, traced, tmp_path):
        lo, tracer = traced
        wq_name = lo.qp_a.send_wq.name
        path = self._export(traced, tmp_path,
                            lambda rig: drive_write_chain(rig, count=2))
        result = self._run(str(path), "--timeline", wq_name)
        assert result.returncode == 0
        assert wq_name in result.stdout

    def test_summary_flag(self, traced, tmp_path):
        path = self._export(traced, tmp_path,
                            lambda lo: drive_write_chain(lo, count=2))
        result = self._run(str(path), "--tracks")
        assert result.returncode == 0, result.stderr
        assert "wq:" in result.stdout
        as_json = self._run(str(path), "--tracks", "--json")
        assert as_json.returncode == 0
        rows = json.loads(as_json.stdout)
        assert rows and all("track" in row and "events" in row
                            for row in rows)


class TestMetricsExportCli:
    def test_export_parses_back(self, tmp_path):
        out = tmp_path / "metrics.prom"
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "trace.py"),
             "profile", "--offload", "hash-lookup", "--calls", "2",
             "--openmetrics", str(out)],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == ""
        text = out.read_text()
        assert text.endswith("# EOF\n")
        parsed = parse_openmetrics(text)
        assert parsed["histograms"]["obs_critpath_request_ns"]["count"] == 2
        assert parsed["counters"]["nic_server_nic_wrs"]["total_wrs"] > 0

    def test_labeled_export_to_stdout(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "trace.py"),
             "profile", "--offload", "hash-lookup", "--calls", "2",
             "--openmetrics", "-", "--label", "bed=server-0"],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        parsed = parse_openmetrics(result.stdout,
                                   labels={"bed": "server-0"})
        assert parsed["histograms"]["obs_critpath_request_ns"]["count"] == 2
        assert not parse_openmetrics(result.stdout,
                                     labels={"bed": "x"})["counters"]


def test_every_public_name_resolves():
    """``repro.obs.__all__`` is the lazy table's keys, and each one
    imports: no stale entry survives a deleted module."""
    assert obs.__all__ == list(obs._LAZY)
    for name in obs.__all__:
        assert getattr(obs, name) is not None, name
