"""Tail-blame attribution: cross-shard causal paths, exemplars, rollups.

Covers the blame plane end to end: the exact-sum priority sweep, the
:class:`RequestBlame` causal context, fleet-wide capture (sums equal
latency for every request, both drives byte-identical), the top-k
exemplar tie-break, the rollup/diff/OpenMetrics helpers, the tracer's
connection-plane census, and the ``fleet.py top`` / ``fleet.py blame``
CLIs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.obs.blame import (BLAME_PHASES, RequestBlame, blame_registries,
                             blame_table, diff_blame, exemplar_order,
                             exemplars_of, folded_blame, summarize_blame)
from repro.obs.critpath import attribute_spans

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOLS = str(REPO_ROOT / "tools")
if TOOLS not in sys.path:
    sys.path.append(TOOLS)


def _small_fleet(exemplars=0, **overrides):
    from repro.bench.fleet import FleetScenario

    config = dict(num_shards=3, clients_per_shard=4,
                  requests_per_client=2, pool_qps=2,
                  batch_doorbells=True, gateway_workers=2, link_ns=1000)
    config.update(overrides)
    scenario = FleetScenario(*config.values())
    fleet = scenario.attach_telemetry(window_ns=20_000,
                                      exemplars=exemplars)
    return scenario, fleet


# -- attribute_spans: the parameterized exact-sum sweep --------------------


def test_attribute_spans_partitions_exactly():
    phases = ("hot", "warm", "idle")
    priority = {"hot": 3, "warm": 2, "idle": 1}
    spans = [
        (10, 40, "warm", ("s0", "q")),
        (20, 30, "hot", ("s1", "q")),     # carves out of warm
        (60, 80, "warm", ("s0", "r")),
    ]
    totals, details = attribute_spans(spans, 0, 100, phases, priority,
                                      gap_phase="idle",
                                      gap_detail=("s0", ""))
    assert sum(totals.values()) == 100
    assert totals == {"hot": 10, "warm": 40, "idle": 50}
    assert details[("hot", ("s1", "q"))] == 10
    assert details[("warm", ("s0", "q"))] == 20
    assert details[("warm", ("s0", "r"))] == 20
    assert details[("idle", ("s0", ""))] == 50


def test_attribute_spans_empty_window():
    totals, details = attribute_spans([], 50, 50, ("a",), {"a": 1})
    assert totals == {"a": 0} and not details


# -- RequestBlame: spans, hops, finish -------------------------------------


def test_request_blame_finish_sums_and_slices():
    blame = RequestBlame(shard=0, seq=7, key=42, start=100)
    blame.hop_sent(100, 1100, dst=1, queue="rpc")
    blame.hop_received(1350, shard=1, queue="rpc")       # 250ns gw_wait
    blame.span(1350, 1900, "service", "kv")              # on locus=1
    blame.span(1400, 1500, "pool_wait", "pool")          # carves out
    blame.hop_sent(1900, 2900, dst=0, queue="rsp")
    record = blame.finish(3000)                          # 100ns tail gap
    assert record["latency_ns"] == 2900
    assert sum(record["phases"].values()) == 2900
    assert record["phases"]["link_wire"] == 2000
    assert record["phases"]["gw_wait"] == 250
    assert record["phases"]["pool_wait"] == 100
    assert record["phases"]["service"] == 450
    assert record["phases"]["queueing"] == 100
    assert sum(row[3] for row in record["slices"]) == 2900
    # Slices sort by (phase priority, shard, queue); gap blames home.
    assert record["slices"][0][0] == "pool_wait"
    assert ["queueing", 0, ""] == record["slices"][-1][:3]
    assert record["seq"] == 7 and record["shard"] == 0


def test_request_blame_drops_empty_and_clamps():
    blame = RequestBlame(shard=2, seq=1, key=5, start=1000)
    blame.span(500, 900, "service", "kv")     # entirely before start
    blame.span(1200, 1200, "service", "kv")   # zero-length: dropped
    blame.span(900, 1100, "service", "kv")    # clamped to [1000, 1100)
    record = blame.finish(1100)
    assert record["phases"]["service"] == 100
    assert record["phases"]["queueing"] == 0
    assert len(blame.spans) == 2  # zero-length span never recorded


# -- the fleet property: blame sums == latency, both drives ----------------


def _run_fleet_blame(serial, **overrides):
    # exemplar_k larger than the request count: every request's
    # breakdown is retained, so the property test covers all of them.
    scenario, fleet = _small_fleet(exemplars=64, **overrides)
    fingerprint, _measures = scenario.run(serial=serial)
    return fingerprint, fleet.to_jsonl()


def test_fleet_blame_sums_to_latency_both_drives():
    fp_sharded, jsonl_sharded = _run_fleet_blame(serial=False)
    fp_serial, jsonl_serial = _run_fleet_blame(serial=True)
    assert fp_sharded == fp_serial
    assert jsonl_sharded == jsonl_serial  # byte-identical blame stream
    records = [json.loads(line) for line in jsonl_sharded.splitlines()]
    exemplars = exemplars_of(records)
    requests = 3 * 4 * 2
    assert len(exemplars) == requests
    for exemplar in exemplars:
        assert sum(exemplar["phases"].values()) == exemplar["latency_ns"]
        assert sum(row[3] for row in exemplar["slices"]) \
            == exemplar["latency_ns"]
    # Cross-shard gets carry the full causal path: both wire hops.
    remote = [e for e in exemplars if e["phases"]["link_wire"]]
    assert remote, "zipf routing should produce cross-shard gets"
    for exemplar in remote:
        assert exemplar["phases"]["link_wire"] >= 2 * 1000
        queues = {row[2] for row in exemplar["slices"]}
        assert "rpc" in queues and "rsp" in queues
    # Globally unique request ids: no two exemplars collide.
    assert len({e["seq"] for e in exemplars}) == requests


def test_fleet_blame_double_run_is_deterministic():
    _fp_a, jsonl_a = _run_fleet_blame(serial=False)
    _fp_b, jsonl_b = _run_fleet_blame(serial=False)
    assert jsonl_a == jsonl_b


def test_exemplar_capture_does_not_change_fingerprint():
    from repro.bench.fleet import FleetScenario

    def fingerprint(exemplars):
        scenario, _fleet = _small_fleet(exemplars=exemplars)
        return scenario.run()[0]

    bare = FleetScenario(3, 4, 2, 2, True, 2, 1000).run()[0]
    assert fingerprint(0) == bare
    assert fingerprint(16) == bare


# -- top-k exemplars: tie-break and bounded retention ----------------------


def test_exemplar_order_tie_break():
    base = {"latency_ns": 500, "shard": 1, "seq": 9}
    slower = dict(base, latency_ns=900)
    tie_lower_shard = dict(base, shard=0, seq=30)
    tie_lower_seq = dict(base, seq=2)
    ranked = sorted([base, slower, tie_lower_shard, tie_lower_seq],
                    key=exemplar_order)
    assert ranked == [slower, tie_lower_shard, tie_lower_seq, base]


def test_window_keeps_top_k_with_deterministic_ties():
    from repro.obs.telemetry import FleetTelemetry
    from repro.sim import Simulator

    sim = Simulator()
    fleet = FleetTelemetry(window_ns=10_000, exemplars=2)
    collector = fleet.attach(sim, bed="bed0", shard=0)

    def driver():
        for seq, latency in enumerate([300, 700, 700, 700, 100]):
            yield 1
            blame = RequestBlame(0, seq, seq, sim.now - latency)
            collector.on_request(latency, blame=blame)
        yield 10_000

    sim.process(driver(), name="driver")
    sim.run()
    records = fleet.finalize()
    fleet.close()
    exemplars = exemplars_of(records)
    # Top-2 of the window: the three 700ns ties break on (shard, seq),
    # so seq 1 and 2 survive — deterministically.
    assert [(e["latency_ns"], e["seq"]) for e in exemplars] \
        == [(700, 1), (700, 2)]


def test_exemplar_pool_is_pruned_between_flushes():
    from repro.obs.telemetry import FleetTelemetry
    from repro.sim import Simulator

    sim = Simulator()
    fleet = FleetTelemetry(window_ns=10 ** 9, exemplars=2)
    collector = fleet.attach(sim, bed="bed0", shard=0)

    def driver():
        for seq in range(40):
            blame = RequestBlame(0, seq, seq, sim.now)
            yield 10
            collector.on_request(10, blame=blame)

    sim.process(driver(), name="driver")
    sim.run()
    # Candidate pool prunes at 4 * k: never grows unbounded.
    assert len(collector._exemplars) <= 8
    records = fleet.finalize()
    fleet.close()
    assert [e["seq"] for e in exemplars_of(records)] == [0, 1]


def test_negative_exemplars_rejected():
    from repro.obs.telemetry import FleetTelemetry

    with pytest.raises(ValueError):
        FleetTelemetry(exemplars=-1)


# -- pool-wait histogram (satellite) ---------------------------------------


def test_pool_wait_histogram_in_stream_and_summary():
    scenario, fleet = _small_fleet()
    scenario.run()
    records = fleet.records
    waited = [r for r in records if r.get("pool_wait")]
    assert waited, "2-QP pools under 4 clients must queue"
    snap = waited[0]["pool_wait"]
    assert snap["count"] >= 1 and "p99" in snap and "max" in snap

    from repro.obs.telemetry import metric_value, summarize_records
    assert any(metric_value(r, "pool_wait_p99_ns") is not None
               for r in waited)
    summary = summarize_records(records)
    beds_with_wait = [s for s in summary.values() if s["pool_wait"]]
    assert beds_with_wait
    assert beds_with_wait[0]["pool_wait"]["p99"] >= 0
    assert all("exemplars" in s for s in summary.values())


def test_fleet_top_renders_pool_wait_column(tmp_path, capsys):
    import fleet

    scenario, telemetry = _small_fleet(exemplars=2)
    scenario.run()
    path = tmp_path / "stream.jsonl"
    path.write_text(telemetry.to_jsonl())
    assert fleet.main(["top", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "pw p99" in out


# -- rollups: table, folded stacks, diff, registries -----------------------


def _synthetic_records():
    def exemplar(seq, shard, latency, slices):
        phases = {phase: 0 for phase in BLAME_PHASES}
        for phase, _shard, _queue, ns in slices:
            phases[phase] += ns
        return {"key": seq, "latency_ns": latency, "phases": phases,
                "seq": seq, "shard": shard, "slices": slices,
                "start_ns": 0}

    return [{
        "bed": "bed0", "window": 0, "requests": 2,
        "latency": {"count": 2, "sum": 300,
                    "buckets": {"le_127": 1, "le_255": 1}},
        "exemplars": [
            exemplar(0, 0, 200, [["pool_wait", 0, "pool", 150],
                                 ["service", 0, "kv", 50]]),
            exemplar(1, 1, 100, [["link_wire", 0, "rpc", 60],
                                 ["service", 0, "kv", 40]]),
        ],
    }]


def test_blame_table_and_folded():
    records = _synthetic_records()
    rows = blame_table(records)
    assert rows[0] == {"shard": 0, "queue": "pool", "phase": "pool_wait",
                       "ns": 150, "requests": 1}
    assert {row["ns"] for row in rows} == {150, 90, 60}
    kv = next(r for r in rows if r["queue"] == "kv")
    assert kv["ns"] == 90 and kv["requests"] == 2
    folded = folded_blame(records)
    assert "shard0;pool;pool_wait 150" in folded
    assert folded == sorted(folded)


def test_summarize_and_diff_blame():
    summary = summarize_blame(_synthetic_records())
    assert summary["exemplars"] == 2 and summary["requests"] == 2
    assert summary["exemplar_latency_sum_ns"] == 300
    assert summary["phases"]["pool_wait"]["mean_ns"] == 75.0
    assert summary["phases"]["service"]["share"] == round(90 / 300, 6)
    assert summary["shards"]["0"]["total_ns"] == 300
    assert summary["p99_ns"] == 255

    baseline = json.loads(json.dumps(summary))  # file round-trip shape
    baseline["phases"]["pool_wait"]["mean_ns"] = 25.0
    baseline["p99_ns"] = summary["p99_ns"] - 100
    diff = diff_blame(summary, baseline)
    assert diff["p99_delta_ns"] == 100
    assert diff["phases"][0]["phase"] == "pool_wait"
    assert diff["phases"][0]["delta_ns"] == 50.0


def test_blame_registries_openmetrics_round_trip():
    from repro.obs.metrics import parse_openmetrics, to_openmetrics_multi

    records = _synthetic_records()
    registries = blame_registries(records)
    assert set(registries) == {"shard0"}
    text = to_openmetrics_multi(registries, label="shard")
    assert 'blame_phase_ns_total{shard="shard0",key="pool_wait"} 150' \
        in text
    parsed = parse_openmetrics(text, labels={"shard": "shard0"})
    assert parsed["counters"]["blame_phase_ns"] == {
        "pool_wait": 150, "link_wire": 60, "service": 90}
    assert parsed["counters"]["blame_requests"]["service"] == 2


# -- tracer census: connection-plane spans and link hops -------------------


def test_trace_summary_censuses_conn_and_links(tmp_path):
    from repro.obs import load_trace, summarize_trace
    from repro.obs.inspect import render_summary
    from repro.obs.tracer import Tracer, export_merged_chrome

    scenario, _fleet = _small_fleet(exemplars=2)
    tracers = [Tracer(rig.sim, name=rig.shard.name)
               for rig in scenario.rigs]
    scenario.run()
    path = tmp_path / "fleet.trace.json"
    export_merged_chrome(tracers, path)
    for tracer in tracers:
        tracer.close()
    summary = summarize_trace(load_trace(str(path)))
    conn = summary["conn"]
    assert conn["pool_wait"] > 0
    assert conn["doorbell_batch"] > 0
    assert conn["cqe_demux"] > 0
    assert summary["links"], "fabric hops must census as link tracks"
    assert all("link:" in track for track in summary["links"])
    rendered = render_summary(load_trace(str(path)))
    assert "connection plane" in rendered
    assert "cross-shard links" in rendered


# -- CLIs ------------------------------------------------------------------


def _stream_path(tmp_path, exemplars=8):
    scenario, fleet = _small_fleet(exemplars=exemplars)
    scenario.run()
    path = tmp_path / "stream.jsonl"
    path.write_text(fleet.to_jsonl())
    return path


def test_tail_blame_cli_table_json_flame(tmp_path, capsys):
    import fleet

    path = _stream_path(tmp_path)
    json_path = tmp_path / "summary.json"
    flame_path = tmp_path / "blame.folded"
    assert fleet.main(["blame", "--input", str(path),
                       "--json", str(json_path),
                       "--flame", str(flame_path)]) == 0
    out = capsys.readouterr().out
    assert "tail_blame" in out and "pool_wait" in out
    summary = json.loads(json_path.read_text())
    assert summary["exemplars"] > 0
    assert set(summary["phases"]) == set(BLAME_PHASES)
    folded = flame_path.read_text().splitlines()
    assert folded and all(" " in line for line in folded)


def test_tail_blame_cli_gates_and_diff(tmp_path, capsys):
    import fleet

    path = _stream_path(tmp_path)
    json_path = tmp_path / "base.json"
    assert fleet.main(["blame", "--input", str(path), "--quiet",
                       "--json", str(json_path),
                       "--fail-if", "pool_wait>999999999"]) == 0
    assert fleet.main(["blame", "--input", str(path), "--quiet",
                       "--fail-if", "service>0.001"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert fleet.main(["blame", "--input", str(path), "--quiet",
                       "--diff", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "+0" in out  # self-diff: every delta is zero

    budgets = tmp_path / "budgets.json"
    budgets.write_text(json.dumps(
        {"phase_mean_ns": {"doorbell_batch": 0.0001}}))
    assert fleet.main(["blame", "--input", str(path), "--quiet",
                       "--budgets", str(budgets)]) == 1


def test_tail_blame_cli_errors(tmp_path):
    import fleet

    path = _stream_path(tmp_path)
    # No exemplars in the stream -> actionable error, exit 2.
    bare_dir = tmp_path / "bare"
    bare_dir.mkdir()
    bare = _stream_path(bare_dir, exemplars=0)
    assert fleet.main(["blame", "--input", str(bare), "--quiet"]) == 2
    assert fleet.main(["blame", "--input",
                       str(tmp_path / "missing.jsonl")]) == 2
    assert fleet.main(["blame", "--input", str(path),
                       "--fail-if", "bogus>5"]) == 2


def test_tail_blame_ci_budgets_file():
    """The committed CI budget file parses and covers pool_wait."""
    import fleet

    budgets = fleet.load_gates(str(REPO_ROOT / "ci" / "fleet_blame.json"))
    assert "pool_wait" in budgets and budgets["pool_wait"] > 0


def test_metrics_export_blame_mode(tmp_path, capsys):
    import fleet

    from repro.obs.metrics import parse_openmetrics

    path = _stream_path(tmp_path)
    assert fleet.main(["blame", "--input", str(path), "--quiet",
                       "--openmetrics", "-"]) == 0
    text = capsys.readouterr().out
    parsed = parse_openmetrics(text, labels={"shard": "shard0"})
    assert "blame_phase_ns" in parsed["counters"]
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert fleet.main(["blame", "--input", str(empty),
                       "--openmetrics", "-"]) == 2


def test_stream_input_rejects_non_telemetry_jsonl(tmp_path, capsys):
    """A JSONL that is not a window stream is bad input, exit 2."""
    import fleet

    path = _stream_path(tmp_path)
    journal = tmp_path / "journal.jsonl"
    journal.write_text('{"seq": 0, "ts": 0, "kind": "post"}\n'
                       '{"seq": 1, "ts": 5, "kind": "cqe"}\n')
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text(path.read_text().splitlines()[0] + "\n[1, 2]\n")
    for bad, line in ((journal, 1), (mixed, 2)):
        for argv in (["top"], ["blame"], ["blame", "--openmetrics", "-"]):
            assert fleet.main(argv + ["--input", str(bad), "--quiet"]) == 2
            captured = capsys.readouterr()
            assert f"{bad}:{line}: not a telemetry window record" \
                in captured.err
            assert captured.out == ""


# -- zero-cost guard -------------------------------------------------------


def test_obs_disabled_leaves_no_blame_state():
    from repro.bench.fleet import FleetScenario
    scenario = FleetScenario(2, 2, 2, 2, True, 2, 1000)
    assert all(not rig.sim.probe.sinks for rig in scenario.rigs)
    scenario.run()
    for rig in scenario.rigs:
        if rig.batchers:
            assert all(b.blame is None for b in rig.batchers)
