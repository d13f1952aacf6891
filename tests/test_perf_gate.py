"""``tools/perf_gate.py`` against synthetic perfbench trace output."""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOLS = str(REPO_ROOT / "tools")
if TOOLS not in sys.path:
    sys.path.append(TOOLS)

import perf_gate  # noqa: E402

MANIFEST = {"per_layer": [
    {"name": "wl.sim.events", "unit": "count", "better": "lower"},
    {"name": "wl.sim.host_ns_per_event", "unit": "ns", "better": "lower"},
    {"name": "wl.blame.service_ns", "unit": "sim_ns", "better": "lower"},
    {"name": "kv_fleet_observed.obs.cost_x", "unit": "x",
     "better": "lower"},
]}
GATE = {"obs_cost_x_max": 3.0,
        "host_cost_max": {"wl": 20.0},
        "pins": {"wl.sim.events": 1000, "wl.blame.service_ns": 12.5}}


def _run(calibration=0.1, **overrides):
    """One run's stdout: 1,000 events at 1 ms each is 10 calibrations."""
    metrics = {"wl.sim.events": 1000, "wl.sim.host_ns_per_event": 1e6,
               "wl.blame.service_ns": 12.5,
               "kv_fleet_observed.obs.cost_x": 2.0}
    metrics.update(overrides)
    report = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {name: {"value": value, "unit": "?"}
                          for name, value in metrics.items()
                          if value is not None}}
    return (f"calibration: {calibration:.4f} s host CPU for a fixed "
            f"pure-Python loop (context only, not gated)\n"
            f"workload all\n{json.dumps(report)}\n")


def _check(text, gate=GATE, manifest=MANIFEST):
    status, lines = perf_gate.check(text, gate, manifest)
    return status, "\n".join(lines)


def test_clean_run_passes():
    status, out = _check(_run())
    assert status == 0, out
    assert "host cost wl = 10.0 (ceiling 20.0)" in out


def test_moved_count_fails_and_names_the_metric():
    status, out = _check(_run(**{"wl.sim.events": 1001}))
    assert status == 1
    assert "moved wl.sim.events: pinned 1000, now 1001" in out
    block = out[out.index("{"):]
    assert json.loads(block) == {"pins": {"wl.sim.events": 1001,
                                          "wl.blame.service_ns": 12.5}}


def test_missing_pinned_key_fails():
    status, out = _check(_run(**{"wl.blame.service_ns": None}))
    assert status == 1
    assert "missing wl.blame.service_ns" in out


def test_unpinned_manifest_metric_fails():
    gate = dict(GATE, pins={"wl.sim.events": 1000})
    status, out = _check(_run(), gate=gate)
    assert status == 1
    assert "unpinned wl.blame.service_ns" in out


def test_host_cost_over_ceiling_fails():
    status, out = _check(_run(calibration=0.04))
    assert status == 1
    assert "FAIL host cost wl = 25.0 (ceiling 20.0)" in out


def test_obs_cost_over_ceiling_fails():
    status, out = _check(_run(**{"kv_fleet_observed.obs.cost_x": 3.01}))
    assert status == 1
    assert "FAIL kv_fleet_observed.obs.cost_x = 3.01" in out


def test_failed_run_fails():
    text = _run().replace('"correct": true', '"correct": false')
    assert _check(text)[0] == 1


def test_unreadable_input_exits_2(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("Traceback (most recent call last):\n")
    assert perf_gate.main([str(path)]) == 2
    with pytest.raises(ValueError):
        perf_gate.parse_run("calibration: 0.1 s\nnot json\n")


def test_committed_pins_cover_exactly_the_manifest_counts():
    gate = json.loads(perf_gate.GATE_PATH.read_text())
    manifest = json.loads(perf_gate.MANIFEST_PATH.read_text())
    assert list(gate["pins"]) == perf_gate.pinned_names(manifest)
    assert set(gate["host_cost_max"]) == {"kv_fleet", "offload_chains",
                                          "verb_flood"}
    assert gate["obs_cost_x_max"] == 3.0
