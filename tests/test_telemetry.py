"""Fleet telemetry plane: histogram algebra, windowing, SLO burn alerts.

Four pillars:

* **Histogram algebra** — the log-bucketed histogram must merge
  associatively and commutatively (``merge(a, b) == merge(b, a)``),
  round-trip through its snapshot form, and bound quantile error to
  one bucket of the exact order statistic — the properties cross-bed
  and cross-window aggregation silently relies on.
* **Window semantics** — collectors attribute samples to
  ``sim.now // window_ns`` windows, emit gap-free-but-sparse streams
  (idle windows are absent, not zero-filled), clamp queue depths at
  zero, and a fleet run emits its sealed stream once, after the run.
* **Telemetry determinism on the fleet** — serial and sharded
  drives of the same KV fleet must emit **byte-identical** JSONL
  streams, and attaching telemetry must not perturb the run
  fingerprint.
* **SLO burn alerts** — a synthetic p99 breach must fire at a
  deterministic simulated timestamp naming the violating bed and
  queue, with the multi-window burn-rate arithmetic pinned down.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.obs.metrics import (Histogram, HistogramLayoutError,
                               MetricsRegistry, parse_openmetrics,
                               to_openmetrics_multi)
from repro.obs.probe import Probe, SinkAttachedError
from repro.obs.telemetry import (METRICS, BurnAlert, FleetTelemetry,
                                 SloRule, evaluate_slo, load_slo_rules,
                                 metric_value, summarize_records)

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOLS = str(REPO_ROOT / "tools")
if TOOLS not in sys.path:
    sys.path.append(TOOLS)


# -- histogram algebra ----------------------------------------------------


def _hist(values, name=""):
    histogram = Histogram(name)
    for value in values:
        histogram.observe(value)
    return histogram


# A deterministic long-tailed sample set: mostly small, a few huge.
SAMPLES_A = [((i * 37) % 900) + 1 for i in range(400)]
SAMPLES_B = [((i * 101) % 5000) + 50 for i in range(300)]
SAMPLES_C = [10_000_000 + i * 999 for i in range(30)]


def test_merge_commutative():
    ab = _hist(SAMPLES_A).merge(_hist(SAMPLES_B))
    ba = _hist(SAMPLES_B).merge(_hist(SAMPLES_A))
    assert ab.snapshot() == ba.snapshot()


def test_merge_associative():
    left = _hist(SAMPLES_A).merge(
        _hist(SAMPLES_B).merge(_hist(SAMPLES_C)))
    right = _hist(SAMPLES_A).merge(
        _hist(SAMPLES_B)).merge(_hist(SAMPLES_C))
    assert left.snapshot() == right.snapshot()


def test_merge_equals_whole():
    """Observing everything in one histogram == merging the parts."""
    whole = _hist(SAMPLES_A + SAMPLES_B + SAMPLES_C)
    parts = _hist(SAMPLES_A).merge(_hist(SAMPLES_B)).merge(
        _hist(SAMPLES_C))
    assert whole.snapshot() == parts.snapshot()
    for fraction in (0.5, 0.99, 0.999):
        assert whole.quantile(fraction) == parts.quantile(fraction)


def test_snapshot_round_trip():
    histogram = _hist(SAMPLES_A + [0, 0, 1])
    rebuilt = Histogram.from_snapshot(histogram.snapshot())
    assert rebuilt.snapshot() == histogram.snapshot()
    assert rebuilt.quantile(0.99) == histogram.quantile(0.99)


def test_merge_rejects_mismatched_bucket_layout():
    narrow = _hist(SAMPLES_A)
    wide = _hist(SAMPLES_B)
    wide.counts = wide.counts + [0] * 8   # a differently-bucketed peer
    with pytest.raises(HistogramLayoutError):
        narrow.merge(wide)
    with pytest.raises(HistogramLayoutError):
        wide.merge(narrow)
    # The failed merge must not have mutated the receiver.
    assert narrow.snapshot() == _hist(SAMPLES_A).snapshot()


@pytest.mark.parametrize("buckets", [
    {"le_5": 1},          # 5 is not 2^b - 1
    {"le_-1": 1},         # negative upper bound
    {"le_x": 1},          # malformed key
    {str(1 << 80): 1},    # beyond the 64-bucket layout
    {"le_7": -3},         # negative count
])
def test_from_snapshot_rejects_foreign_layouts(buckets):
    with pytest.raises(HistogramLayoutError):
        Histogram.from_snapshot({"buckets": buckets, "count": 1,
                                 "sum": 1})


@pytest.mark.parametrize("count", [3, 1, 0])
def test_from_snapshot_rejects_count_off_bucket_total(count):
    # A count above the bucket total would rank quantiles past the last
    # bucket; one below it would rank them too early.
    with pytest.raises(HistogramLayoutError, match="sum of its bucket"):
        Histogram.from_snapshot({"buckets": {"le_7": 2}, "count": count,
                                 "sum": 10})


def test_layout_error_is_a_value_error():
    # Callers that predate the typed error still catch it.
    assert issubclass(HistogramLayoutError, ValueError)


@pytest.mark.parametrize("fraction", [0.5, 0.9, 0.99, 0.999])
def test_quantile_within_one_bucket_of_exact(fraction):
    """The reported quantile is the bucket upper bound of the exact
    order statistic — i.e. within one power-of-two bucket."""
    values = sorted(SAMPLES_A + SAMPLES_B + SAMPLES_C)
    histogram = _hist(values)
    rank = max(1, round(fraction * len(values)))
    exact = values[rank - 1]
    reported = histogram.quantile(fraction)
    upper = (1 << exact.bit_length()) - 1 if exact else 0
    assert reported == upper
    assert exact <= reported <= 2 * exact


# -- collector windowing (driven through a stub simulator) ----------------


class _StubSim:
    """now + metrics + probe: all a collector reads."""

    def __init__(self):
        self.now = 0
        self.probe = Probe(self)
        self.metrics = MetricsRegistry()


class _WQ:
    def __init__(self, name, kind="send"):
        self.name = name
        self.kind = kind


class _CQ:
    def __init__(self, name, entries=0):
        self.name = name
        self._entries = [None] * entries


@pytest.fixture
def fleet():
    fleet = FleetTelemetry(window_ns=1_000)
    yield fleet
    fleet.close()
    assert all(not collector.sim.probe.sinks
               for collector in fleet.collectors)


def test_attach_rejects_double_attach(fleet):
    sim = _StubSim()
    fleet.attach(sim, bed="b")
    with pytest.raises(SinkAttachedError):
        fleet.attach(sim, bed="again")


def _post(collector, wq):
    collector.on_post(wq, 0, 0, 1, None)


def _fetch(collector, wq):
    collector.on_fetch(wq, 0, 0, 1, None, False)


def test_windows_sparse_not_zero_filled(fleet):
    sim = _StubSim()
    collector = fleet.attach(sim, bed="b")
    sim.now = 100
    collector.on_request(40, key="k")
    sim.now = 5_500  # windows 1-4 idle -> no records for them
    collector.on_request(40, key="k")
    records = fleet.finalize()
    assert [record["window"] for record in records] == [0, 5]
    assert records[0]["keys"] == {"k": 1}
    assert records[0]["latency"]["p50"] == 63  # bucket upper of 40


def test_depth_clamped_and_growth_signed(fleet):
    sim = _StubSim()
    collector = fleet.attach(sim, bed="b")
    sq = _WQ("b-sq")
    for _ in range(3):
        _post(collector, sq)
    # A managed recycled ring can fetch past posted_count: clamp at 0.
    for _ in range(5):
        _fetch(collector, sq)
    sim.now = 1_200
    _fetch(collector, sq)
    sim.now = 2_100
    _post(collector, sq)
    records = fleet.finalize()
    w0, w1, w2 = records
    assert w0["queues"] == {
        "sq_depth_max": 3, "sq_hot": "b-sq", "sq_depth_end": 0,
        "sq_growth": 0, "rq_depth_max": 0, "cq_depth_max": 0,
        "cq_hot": None}
    assert w1["queues"]["sq_depth_max"] == 0  # clamped, not negative
    assert w2["queues"]["sq_growth"] == 1


def test_cqe_and_pu_accounting(fleet):
    sim = _StubSim()
    collector = fleet.attach(sim, bed="b")
    sim.now = 500
    collector.on_cqe(_CQ("b-cq", entries=2), None, 0)
    collector.on_pu(None, _WQ("b-sq"), 0, 80)  # 420 ns busy
    collector.on_dma(None, 4096, 0)
    (record,) = fleet.finalize()
    assert record["queues"]["cq_depth_max"] == 3  # 2 queued + delivered
    assert record["queues"]["cq_hot"] == "b-cq"
    assert record["pu_busy_ns"] == 420
    assert record["util"] == 0.42
    assert record["dma_bytes"] == 4096


def test_summarize_merges_windows(fleet):
    sim = _StubSim()
    collector = fleet.attach(sim, bed="b")
    collector.on_request(100, key="hot")
    sim.now = 1_100
    collector.on_request(9_000, key="hot")
    collector.on_request(100, key="cold")
    records = fleet.finalize()
    summary = summarize_records(records)["b"]
    assert summary["requests"] == 3
    assert summary["windows"] == 2
    assert summary["keys"] == {"hot": 2, "cold": 1}
    whole = _hist([100, 9_000, 100])
    assert summary["latency"]["p99"] == whole.quantile(0.99)


def test_metric_value_dispatch():
    record = {"requests": 0, "latency": None,
              "queues": {"sq_depth_max": 7}, "util": 0.5}
    assert metric_value(record, "p99_ns") is None
    assert metric_value(record, "sq_depth_max") == 7
    assert metric_value(record, "util") == 0.5
    record["latency"] = {"p99": 8191, "max": 9000}
    assert metric_value(record, "p99_ns") == 8191
    assert metric_value(record, "latency_max_ns") == 9000


# -- SLO rules and burn-rate alerts ---------------------------------------


def test_slo_rule_validation():
    with pytest.raises(ValueError):
        SloRule("r", "p99_ns")  # neither bound
    with pytest.raises(ValueError):
        SloRule("r", "p99_ns", max=1, min=1)  # both bounds
    with pytest.raises(ValueError):
        SloRule("r", "p99_ns", max=1, budget=0)
    with pytest.raises(ValueError):
        SloRule("r", "p99_ns", max=1, long_windows=2, short_windows=3)
    # A misspelled metric would read as None (a good window) forever;
    # it is rejected up front, naming the metrics a record carries.
    with pytest.raises(ValueError, match="unknown metric 'p99'.*p99_ns"):
        SloRule("r", "p99", max=0)
    with pytest.raises(ValueError, match="known:.*sq_depth_max.*util"):
        load_slo_rules([{"name": "r", "metric": "sq_hot", "max": 1}])
    for metric in METRICS:
        SloRule("r", metric, max=0)


def test_load_slo_rules_forms(tmp_path):
    spec = {"_comment": "ignored", "rules": [
        {"name": "tail", "metric": "p99_ns", "max": 100}]}
    for source in (json.dumps(spec), json.dumps(spec["rules"]), spec):
        (rule,) = load_slo_rules(source)
        assert (rule.name, rule.metric, rule.max) == ("tail", "p99_ns",
                                                      100)
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(spec))
    (rule,) = load_slo_rules(str(path))
    assert rule.name == "tail"
    assert rule.to_dict()["max"] == 100
    # The committed CI rule files load (every metric they name exists).
    assert len(load_slo_rules(str(REPO_ROOT / "ci" / "fleet_slo.json"))) \
        >= 3


def test_burn_alert_fires_at_deterministic_timestamp(fleet):
    """Synthetic p99 breach: healthy for four windows, then sustained
    badness — the alert lands at the first window where both burn
    spans saturate, pinned to that window's end timestamp."""
    sim = _StubSim()
    collector = fleet.attach(sim, bed="bed-x")
    sq = _WQ("bed-x-sq")
    for window in range(8):
        sim.now = window * 1_000 + 500
        _post(collector, sq)
        _fetch(collector, sq)
        latency = 50 if window < 4 else 5_000  # breach from window 4
        collector.on_request(latency)
    sim.now = 9_000
    records = fleet.finalize()

    rule = SloRule("tail", "p99_ns", max=100, budget=0.5,
                   long_windows=4, short_windows=1)
    alerts = evaluate_slo(records, [rule])
    assert len(alerts) == 1
    alert = alerts[0]
    # Windows 4 and 5 bad -> long burn (2/4)/0.5 first reaches 1.0 at
    # window 5, whose end is the deterministic alert instant.
    assert alert.window == 5
    assert alert.at_ns == 6_000
    assert alert.bed == "bed-x"
    assert alert.queue == "bed-x-sq"
    assert alert.value == 8191  # bucket upper of the 5000ns samples
    assert alert.burn_long == 1.0
    assert alert.burn_short == 2.0
    text = alert.describe()
    for token in ("tail", "bed-x", "bed-x-sq", "t=6000ns", "p99_ns"):
        assert token in text

    # first_only=False keeps every later firing window too.
    all_alerts = evaluate_slo(records, [rule], first_only=False)
    assert [a.window for a in all_alerts] == [5, 6, 7]
    assert all(isinstance(a, BurnAlert) for a in all_alerts)


def test_gap_windows_count_good(fleet):
    sim = _StubSim()
    collector = fleet.attach(sim, bed="b")
    collector.on_request(5_000)  # bad window 0
    sim.now = 4_500
    collector.on_request(5_000)  # bad window 4, gap 1-3 good
    records = fleet.finalize()
    strict = SloRule("strict", "p99_ns", max=100, budget=1.0,
                     long_windows=2, short_windows=2)
    # Window 0 alone can fire (spans clamp to elapsed), but the gap
    # then starves the short span: no alert at windows 1-4.
    alerts = evaluate_slo(records, [strict], first_only=False)
    assert [alert.window for alert in alerts] == [0]


# -- OpenMetrics per-bed labels (satellite) -------------------------------


def _registry(scale):
    registry = MetricsRegistry()
    registry.counter("rpc.calls")["get"] = 10 * scale
    histogram = registry.histogram("rpc.latency_ns")
    for value in (100 * scale, 2_000 * scale):
        histogram.observe(value)
    return registry


def test_openmetrics_label_round_trip():
    registry = _registry(1)
    text = registry.to_openmetrics(labels={"bed": "b0"})
    assert 'bed="b0"' in text
    parsed = parse_openmetrics(text, labels={"bed": "b0"})
    assert parsed["counters"]["rpc_calls"] == {"get": 10}
    snap = registry.histogram("rpc.latency_ns").snapshot()
    assert parsed["histograms"]["rpc_latency_ns"]["buckets"] == \
        snap["buckets"]
    # The filter actually filters: a different bed sees nothing.
    assert parse_openmetrics(text, labels={"bed": "b1"}) == {
        "counters": {}, "gauges": {}, "histograms": {}}


def test_openmetrics_multi_bed_export():
    text = to_openmetrics_multi({"b0": _registry(1), "b1": _registry(3)})
    assert text.endswith("# EOF\n")
    assert text.count("# EOF") == 1
    for bed, scale in (("b0", 1), ("b1", 3)):
        parsed = parse_openmetrics(text, labels={"bed": bed})
        assert parsed["counters"]["rpc_calls"] == {"get": 10 * scale}


# -- fleet end-to-end: byte-identity + fingerprint neutrality -------------


def _drive_fleet(serial, telemetry):
    from repro.bench.fleet import build_fleet

    scenario = build_fleet(num_shards=3, clients_per_shard=4,
                           requests_per_client=8)
    fleet = scenario.attach_telemetry() if telemetry else None
    fingerprint, measures = scenario.run(serial=serial)
    stream = fleet.to_jsonl() if fleet else None
    # scenario.run closed the fleet: every bed is back on the obs-off path.
    assert all(not rig.sim.probe.sinks for rig in scenario.rigs)
    return fingerprint, measures, stream


def test_fleet_serial_vs_sharded_stream_byte_identical():
    fp_off, _, _ = _drive_fleet(serial=False, telemetry=False)
    fp_sharded, m_sharded, sharded = _drive_fleet(serial=False,
                                                  telemetry=True)
    fp_serial, m_serial, serial = _drive_fleet(serial=True,
                                               telemetry=True)
    assert fp_off == fp_sharded == fp_serial
    assert sharded == serial
    assert sharded  # carries actual records
    assert m_sharded["telemetry_records"] == \
        m_serial["telemetry_records"] > 0
    records = [json.loads(line) for line in sharded.splitlines()]
    assert {record["bed"] for record in records} == \
        {f"shard{i}" for i in range(3)}
    # The concatenated stream is globally sorted in canonical order.
    keys = [(record["window"], record["shard"]) for record in records]
    assert keys == sorted(keys)


@pytest.mark.parametrize("serial", [False, True])
def test_fleet_run_emits_one_batch(serial):
    from repro.bench.fleet import build_fleet

    scenario = build_fleet(num_shards=3, clients_per_shard=2,
                           requests_per_client=2)
    fleet = scenario.attach_telemetry(window_ns=2_000)
    batches = []
    fleet.subscribe(batches.append)
    scenario.run(serial=serial)
    assert len(batches) == 1
    assert batches[0] == fleet.records and len(fleet.records) > 3
    assert fleet.finalize() == batches[0] and len(batches) == 1
    assert not hasattr(scenario.sharded, "telemetry")


def test_fleet_tight_slo_breach_is_deterministic():
    _, _, stream = _drive_fleet(serial=False, telemetry=True)
    records = [json.loads(line) for line in stream.splitlines()]
    rule = SloRule("tight", "p99_ns", max=100, budget=0.25,
                   long_windows=3, short_windows=1)
    alerts = evaluate_slo(records, [rule])
    assert alerts, "tight rule must breach on a busy fleet"
    first = alerts[0]
    window_ns = records[0]["end_ns"] - records[0]["start_ns"]
    assert first.at_ns == (first.window + 1) * window_ns
    assert first.bed == "shard0"
    assert first.queue and "sq" in first.queue
    # Re-deriving from a fresh run yields the same alert instant.
    _, _, stream2 = _drive_fleet(serial=False, telemetry=True)
    alerts2 = evaluate_slo(
        [json.loads(line) for line in stream2.splitlines()], [rule])
    assert [a.to_dict() for a in alerts] == \
        [a.to_dict() for a in alerts2]


def test_committed_ci_rules_clean_on_healthy_cluster():
    # The KV fleet is the multi-bed cluster CI gates on.
    rules = load_slo_rules(str(REPO_ROOT / "ci" / "fleet_slo.json"))
    assert len(rules) >= 3
    _, _, stream = _drive_fleet(serial=False, telemetry=True)
    records = [json.loads(line) for line in stream.splitlines()]
    assert evaluate_slo(records, rules) == []


# -- fleet.py top ----------------------------------------------------------


def _write_stream(tmp_path):
    _, _, stream = _drive_fleet(serial=False, telemetry=True)
    path = tmp_path / "stream.jsonl"
    path.write_text(stream)
    return path


def test_fleet_top_offline_render_and_slo(tmp_path, capsys):
    import fleet

    path = _write_stream(tmp_path)
    assert fleet.main(["top", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "fleet_top" in out and "shard0" in out

    rules = tmp_path / "tight.json"
    rules.write_text(json.dumps([{"name": "tight", "metric": "p99_ns",
                                  "max": 100, "budget": 0.25,
                                  "long_windows": 3,
                                  "short_windows": 1}]))
    assert fleet.main(["top", "--input", str(path), "--quiet",
                       "--slo", str(rules), "--fail-on-burn"]) == 1
    out = capsys.readouterr().out
    assert "SLO burn: rule 'tight'" in out

    clean = REPO_ROOT / "ci" / "fleet_slo.json"
    assert fleet.main(["top", "--input", str(path), "--quiet",
                       "--slo", str(clean), "--fail-on-burn"]) == 0

    # A misspelled metric is bad input (exit 2), not a clean gate.
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps([{"name": "tight", "metric": "p99",
                                 "max": 0}]))
    assert fleet.main(["top", "--input", str(path), "--quiet",
                       "--slo", str(typo), "--fail-on-burn"]) == 2
    assert "unknown metric 'p99'" in capsys.readouterr().err


def test_fleet_top_error_paths(tmp_path):
    import fleet

    assert fleet.main(["top", "--input", str(tmp_path / "missing.jsonl"),
                       "--quiet"]) == 2
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert fleet.main(["top", "--input", str(empty), "--quiet"]) == 2
    with pytest.raises(SystemExit):
        fleet.main(["top", "--input", str(empty), "--window", "1000"])


@pytest.mark.parametrize("corrupt", ["bucket_key", "count"])
@pytest.mark.parametrize("command", ["top", "blame"])
def test_fleet_input_rejects_corrupt_histogram(tmp_path, capsys, corrupt,
                                               command):
    """A stream whose latency snapshot does not fit the layout is bad
    input: one ``fleet:`` line naming the record, exit 2."""
    import fleet

    lines = _write_stream(tmp_path).read_text().splitlines()
    index = next(i for i, line in enumerate(lines)
                 if json.loads(line)["latency"])
    record = json.loads(lines[index])
    latency = record["latency"]
    if corrupt == "bucket_key":
        key = next(iter(latency["buckets"]))
        latency["buckets"]["le_1000"] = latency["buckets"].pop(key)
    else:
        latency["count"] += 1
    lines[index] = json.dumps(record, sort_keys=True)
    path = tmp_path / "corrupt.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert fleet.main([command, "--input", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"fleet: {path}:{index + 1}: snapshot "
                             f"'latency'")


def test_fleet_top_runs_and_exports(tmp_path, capsys, monkeypatch):
    import fleet

    from repro.bench.fleet import FleetScenario

    fleets = []
    attach = FleetScenario.attach_telemetry

    def capture(self, *args, **kwargs):
        fleets.append(attach(self, *args, **kwargs))
        return fleets[-1]

    monkeypatch.setattr(FleetScenario, "attach_telemetry", capture)
    out_jsonl = tmp_path / "run.jsonl"
    out_json = tmp_path / "summary.json"
    assert fleet.main(["top", "--beds", "3", "--clients", "4",
                       "--requests", "8", "--quiet",
                       "--jsonl", str(out_jsonl),
                       "--json", str(out_json)]) == 0
    records = [json.loads(line)
               for line in out_jsonl.read_text().splitlines()]
    assert records and records[0]["bed"] == "shard0"
    summary = json.loads(out_json.read_text())
    assert set(summary["beds"]) == {f"shard{i}" for i in range(3)}
    (telemetry,) = fleets
    assert all(not collector.sim.probe.sinks
               for collector in telemetry.collectors)
