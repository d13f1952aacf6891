"""Incident triage plane: detectors, incidents, fault scenarios.

Four pillars:

* **Detector semantics on synthetic streams** — each anomaly detector
  must fire at the violating window's *end* timestamp, stay silent
  through the warmup windows, and stay silent on streams that merely
  look like startup ramp or drain.
* **Incident grouping** — time-correlated anomalies merge into one
  incident under ``merge_gap``; a later, unrelated anomaly opens a
  second incident.
* **Fault scenarios end to end** — the storm must produce exactly one
  incident whose top cause names the contended shard's PU, the
  failover must name the killed shard, the clean run must stay silent,
  and every report must be **byte-identical** between the sharded and
  serial drives and across repeat runs.
* **Typed failure surfaces** — :class:`FleetError` names the
  implicated beds and dead processes, and
  :meth:`HashRing.without` preserves surviving shards' ownership.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.bench.faults import FAILOVER_SWITCH_NS, STORM_START_NS, run_triage
from repro.bench.fleet import FleetError, build_fleet
from repro.net.conn import ConnError, HashRing
from repro.obs.sentry import DETECTORS, FleetSentry, triage_verdict

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOLS = str(REPO_ROOT / "tools")
if TOOLS not in sys.path:
    sys.path.append(TOOLS)

W = 1000  # synthetic window width (ns)


def _rec(window, shard=0, requests=10, sq_growth=0, rq_depth=0,
         util=0.2, p99=8191, stale=None, pool_p99=None):
    """One synthetic sealed telemetry window record."""
    record = {
        "window": window, "shard": shard, "bed": f"shard{shard}",
        "start_ns": window * W, "end_ns": (window + 1) * W,
        "requests": requests, "util": util,
        "queues": {"sq_growth": sq_growth, "rq_depth_max": rq_depth,
                   "sq_hot": f"shard{shard}-sq",
                   "cq_hot": f"shard{shard}-cq"},
        "latency": {"buckets": {}, "p50": p99, "p99": p99, "p999": p99},
    }
    if stale is not None:
        record["stale_cqes"] = stale
    if pool_p99 is not None:
        record["pool_wait"] = {"buckets": {}, "p99": pool_p99}
    return record


def _feed(sentry, records):
    for record in records:
        sentry.observe(record)
    return sentry


def _fired(sentry, detector):
    return [a for a in sentry.anomalies if a.detector == detector]


# -- detector semantics on synthetic streams ------------------------------


def test_detector_table_is_total():
    for detector, (tier, phase) in DETECTORS.items():
        assert isinstance(tier, int) and isinstance(phase, str), detector


def test_tail_step_fires_at_violating_window_end():
    sentry = FleetSentry(W)
    _feed(sentry, [_rec(w) for w in range(10)])
    sentry.observe(_rec(10, p99=65535))
    steps = _fired(sentry, "tail_step")
    assert len(steps) == 1
    anomaly = steps[0]
    assert anomaly.at_ns == 11 * W       # END of the violating window
    assert anomaly.metric == "p99_ns"
    assert anomaly.value == 65535 and anomaly.baseline == 8191
    assert anomaly.phase == "tail"


def test_warmup_windows_never_fire():
    sentry = FleetSentry(W)
    _feed(sentry, [_rec(w) for w in range(4)])
    # Window 4 is past min_baseline but inside the warmup exemption:
    # startup ramp must not read as a regression.
    sentry.observe(_rec(4, p99=2 ** 20, sq_growth=500, util=1.0))
    assert sentry.anomalies == []


def test_tail_step_needs_enough_requests():
    sentry = FleetSentry(W)
    _feed(sentry, [_rec(w) for w in range(10)])
    # A huge p99 over 2 requests is sampling noise, not a step.
    sentry.observe(_rec(10, p99=2 ** 20, requests=2))
    assert _fired(sentry, "tail_step") == []


def test_queue_growth_names_hot_queue():
    sentry = FleetSentry(W)
    _feed(sentry, [_rec(w) for w in range(8)])
    sentry.observe(_rec(8, sq_growth=64))
    growth = _fired(sentry, "queue_growth")
    assert len(growth) == 1
    assert growth[0].queue == "shard0-sq"
    assert growth[0].phase == "queueing"


def test_pu_pool_and_stale_detectors():
    sentry = FleetSentry(W)
    _feed(sentry, [_rec(w, pool_p99=500) for w in range(8)])
    sentry.observe(_rec(8, util=0.9, pool_p99=9000, stale=2))
    assert [a.detector for a in sentry.anomalies] == \
        ["pu_saturation", "pool_pressure", "stale_cqe"]
    assert all(a.at_ns == 9 * W for a in sentry.anomalies)
    assert _fired(sentry, "stale_cqe")[0].queue == "shard0-cq"


def test_flatline_fires_once_while_fleet_stays_busy():
    sentry = FleetSentry(W)
    for w in range(8):
        sentry.observe(_rec(w, shard=0, requests=15))
        sentry.observe(_rec(w, shard=1, requests=10))
    # Shard 1 goes dark; the fleet (shard 0) keeps serving.
    _feed(sentry, [_rec(w, shard=0, requests=15) for w in range(8, 15)])
    flat = _fired(sentry, "flatline")
    assert len(flat) == 1                # once per shard, not per window
    assert flat[0].shard == 1
    # last_seen window 7 + flatline_gap 3 = completed window 10.
    assert flat[0].window == 10 and flat[0].at_ns == 11 * W


def test_flatline_silent_when_whole_fleet_idles():
    sentry = FleetSentry(W)
    for w in range(8):
        sentry.observe(_rec(w, shard=0))
        sentry.observe(_rec(w, shard=1))
    # Both shards idle (ramp-down): single sparse straggler windows
    # below skew_min_total must not read as a shard death.
    _feed(sentry, [_rec(w, shard=0, requests=1) for w in range(8, 15)])
    assert _fired(sentry, "flatline") == []


def test_skew_shift_on_rehomed_shard():
    sentry = FleetSentry(W)
    for w in range(10):
        sentry.observe(_rec(w, shard=0))
        sentry.observe(_rec(w, shard=1))
    # Shard 1's share collapses (re-homed load) but it stays alive,
    # while shard 0 absorbs the traffic.
    for w in range(10, 16):
        sentry.observe(_rec(w, shard=0, requests=20))
        sentry.observe(_rec(w, shard=1, requests=1))
    skew = _fired(sentry, "skew_shift")
    assert skew and skew[0].shard == 1
    assert skew[0].phase == "skew"
    assert _fired(sentry, "flatline") == []


def test_throughput_collapse_attribution_and_recovery():
    sentry = FleetSentry(W)
    for w in range(10):
        sentry.observe(_rec(w, shard=0))
        sentry.observe(_rec(w, shard=1))
    for w in range(10, 14):
        sentry.observe(_rec(w, shard=0, requests=1))
        sentry.observe(_rec(w, shard=1, requests=1))
    for w in range(14, 20):
        sentry.observe(_rec(w, shard=0))
        sentry.observe(_rec(w, shard=1))
    collapses = _fired(sentry, "throughput_collapse")
    # One per collapsed window (the non-absorbing baseline keeps the
    # trailing mean healthy), attributed to the busiest shard.
    assert [a.window for a in collapses] == [10, 11, 12, 13]
    assert all(a.shard == 0 for a in collapses)
    # Recovery windows are clean — the baseline was not dragged down.
    assert all(a.window < 14 for a in sentry.anomalies)


def test_incidents_merge_within_gap_and_split_beyond():
    sentry = FleetSentry(W)
    for w in range(10):
        sentry.observe(_rec(w, shard=0))
        sentry.observe(_rec(w, shard=1))
    for w in range(10, 14):                  # collapse: windows 10..13
        sentry.observe(_rec(w, shard=0, requests=1))
        sentry.observe(_rec(w, shard=1, requests=1))
    for w in range(14, 22):                  # quiet > merge_gap
        sentry.observe(_rec(w, shard=0))
        sentry.observe(_rec(w, shard=1))
    sentry.observe(_rec(22, shard=1, sq_growth=64))   # unrelated spike
    sentry.observe(_rec(23, shard=0))
    report = sentry.report()
    assert [i["id"] for i in report["incidents"]] == [1, 2]
    first, second = report["incidents"]
    assert first["first_window"] == 10 and first["last_window"] == 13
    assert second["shards"] == [1]
    assert report["anomalies_total"] == len(sentry.anomalies)


def test_report_is_deterministic_and_finalize_idempotent():
    def build():
        sentry = FleetSentry(W)
        for w in range(12):
            sentry.observe(_rec(w, shard=0))
            sentry.observe(_rec(w, shard=1))
        sentry.observe(_rec(12, shard=0, util=0.95))
        sentry.observe(_rec(13, shard=0))
        return sentry

    one, two = build(), build()
    assert one.report_json() == two.report_json()
    one.finalize()
    one.finalize()                      # second finalize is a no-op
    assert one.report()["incidents"] == two.report()["incidents"]


# -- fault scenarios end to end -------------------------------------------


@pytest.fixture(scope="module")
def storm_runs():
    return (run_triage("storm", capture=False),
            run_triage("storm", capture=False),
            run_triage("storm", serial=True, capture=False))


def test_storm_single_incident_blames_contended_pu(storm_runs):
    run = storm_runs[0]
    verdict = run.verdict
    assert verdict["incidents"] == 1
    assert verdict["false_positives"] == [] and verdict["missed"] == []
    assert verdict["mean_detection_ns"] == 20_000
    top = run.report["incidents"][0]["top_cause"]
    fault = run.faults[0]
    assert fault["t_inject_ns"] == STORM_START_NS
    assert top["shard"] == fault["shard"]
    assert top["phase"] in fault["expect_phases"]
    assert top["detector"] == "pu_saturation"


def test_storm_report_byte_identical_across_drives_and_runs(storm_runs):
    first, second, serial = storm_runs
    assert first.report_json == second.report_json   # repeat run
    assert first.report_json == serial.report_json   # drive mode
    assert first.fingerprint == serial.fingerprint


def test_storm_detects_across_window_widths(storm_runs):
    wide = run_triage("storm", window_ns=40_000, capture=False)
    for run in (storm_runs[0], wide):
        incidents = run.report["incidents"]
        assert len(incidents) == 1
        assert run.faults[0]["shard"] in incidents[0]["shards"]
    # And the wide-window report is itself reproducible.
    again = run_triage("storm", window_ns=40_000, capture=False)
    assert wide.report_json == again.report_json


def test_failover_names_killed_shard_and_ring_movement():
    run = run_triage("failover", capture=False)
    serial = run_triage("failover", serial=True, capture=False)
    assert run.report_json == serial.report_json
    verdict = run.verdict
    assert verdict["incidents"] == 1
    assert verdict["false_positives"] == [] and verdict["missed"] == []
    fault = run.faults[0]
    assert fault["t_inject_ns"] == FAILOVER_SWITCH_NS
    assert fault["detail"]["keys_moved"] > 0
    assert fault["shard"] not in fault["detail"]["inheritors"]
    top = run.report["incidents"][0]["top_cause"]
    assert top["detector"] == "flatline" and top["shard"] == fault["shard"]


def test_clean_run_raises_zero_incidents():
    run = run_triage("clean", capture=False)
    assert run.report["anomalies_total"] == 0
    assert run.report["incidents"] == []
    assert run.verdict["false_positives"] == []
    assert run.verdict["mean_detection_ns"] is None


def test_storm_capture_slices_the_implicated_bed():
    run = run_triage("storm")
    incident = run.report["incidents"][0]
    capture = incident["capture"]
    assert capture is not None
    assert capture["bed"] == run.faults[0]["bed"]
    assert capture["records"] == len(capture["slice"]) > 0
    assert capture["from_ns"] <= incident["open_at_ns"]
    assert sum(capture["kinds"].values()) == capture["records"]
    # Targeted exemplar retention: the incident carries tail blame.
    assert incident["exemplars"]
    assert incident["blame_diff"] is not None


def test_triage_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_triage("meteor")


def test_verdict_flags_unmatched_incident_as_false_positive():
    report = {
        "window_ns": W,
        "faults": [],
        "incidents": [{"id": 1, "shards": [0], "open_at_ns": 5 * W,
                       "top_cause": {"phase": "tail"}}],
    }
    verdict = triage_verdict(report)
    assert verdict["false_positives"] == [1]
    assert verdict["explained"] == [] and verdict["missed"] == []


# -- typed failure surfaces ------------------------------------------------


def test_fleet_error_names_bed_and_process():
    scenario = build_fleet(num_shards=2, clients_per_shard=2,
                           requests_per_client=2, telemetry_path="",
                           exemplars=0)

    def boom():
        yield 10
        raise RuntimeError("induced fault")

    scenario.rigs[1].sim.process(boom(), name="shard1-boom")
    with pytest.raises(FleetError) as err:
        scenario.run()
    assert err.value.beds == ["shard1"]
    assert err.value.processes == ["shard1-boom"]
    assert "shard1-boom" in str(err.value)


def test_hash_ring_without_preserves_survivors():
    ring = HashRing(4)
    survivor_keys = [k for k in range(256) if ring.owner(k) != 2]
    after = ring.without(2)
    for key in survivor_keys:
        assert after.owner(key) == ring.owner(key)
    moved = [k for k in range(256) if ring.owner(k) == 2]
    assert moved                       # shard 2 owned something
    for key in moved:
        assert after.owner(key) != 2


def test_hash_ring_without_rejects_bad_requests():
    ring = HashRing(3)
    with pytest.raises(ConnError):
        ring.without(7)                # unknown shard
    with pytest.raises(ConnError):
        ring.without(0, 1, 2)          # nobody left


# -- fleet.py triage -------------------------------------------------------


def test_incident_report_cli_gate_and_json(tmp_path, capsys):
    import fleet

    out = tmp_path / "clean.json"
    # One clean run serves both surfaces: the JSON export is written
    # before the gates run, and --expect-incidents 1 must then fail.
    code = fleet.main(
        ["triage", "clean", "--json", str(out), "--expect-incidents", "1"])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["incidents"] == []
    assert report["context"]["scenario"] == "clean"
    captured = capsys.readouterr()
    assert "GATE FAILED" in captured.err
    assert "clean: no faults injected" in captured.out
