"""The benchmark's own tests, at tiny workload sizes.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import layers  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "kv_fleet": dict(num_shards=2, clients_per_shard=4,
                     requests_per_client=2),
    "kv_fleet_observed": dict(num_shards=2, clients_per_shard=4,
                              requests_per_client=2),
    "offload_chains": dict(calls=12, hash_keys=16),
    "verb_flood": dict(qps=2, waves=3, min_wave=2, max_wave=6),
}


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    return tmp_path / "out"


def test_manifest_is_committed_and_within_limits():
    committed = json.loads(run.MANIFEST.read_text())
    assert committed == run.manifest(), \
        "BENCHMARK.json is stale: run perfbench/run.py --write-manifest"
    names = [m["name"] for m in committed["end_to_end"]] + \
        [m["name"] for m in committed["per_layer"]] + \
        [w["name"] for w in committed["workloads"]]
    assert len(names) == len(set(names))
    assert 1 <= len(committed["per_layer"]) <= 128
    assert all(len(name) <= 64 for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    setup = [m for m in committed["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in committed["end_to_end"])


def test_every_end_to_end_metric_is_printed_with_its_unit(capsys):
    assert run.main(["--workload", "all", "--seconds", "0"],
                    sizes=TINY) == 0
    out = capsys.readouterr().out
    line = _last_json(out)
    assert line["correct"] and line["failed"] == 0
    for workload in run.WORKLOAD_NAMES:
        for name, unit, _better, _bound in run.END_TO_END:
            entry = line["metrics"][f"{workload}.{name}"]
            assert entry["unit"] == unit
            assert entry["value"] > 0
    for name, unit, _better, _bound in run.END_TO_END:
        assert any(row.split()[:1] == [name] and row.split()[-1] == unit
                   for row in out.splitlines())
    assert "failed_frac" in out and "calibration:" in out


def test_traced_run_reports_every_per_layer_metric(capsys, out_dir):
    assert run.main(["--workload", "verb_flood", "--trace", "1"],
                    sizes=TINY) == 0
    line = _last_json(capsys.readouterr().out)
    expected = {m["name"]: m["unit"] for m in run.manifest()["per_layer"]}
    assert {name: entry["unit"] for name, entry in line["metrics"].items()} \
        == expected
    assert line["correct"]
    metrics = line["metrics"]
    assert metrics["kv_fleet_observed.obs.cost_x"]["value"] > 1
    assert metrics["kv_fleet_observed.obs.sentry.incidents"]["value"] == 0
    assert metrics["verb_flood.trace.overhead_x"]["value"] > 1
    report = json.loads((out_dir / "layers-seed1.json").read_text())
    for workload in run.WORKLOAD_NAMES:
        spans = json.loads(
            (out_dir / f"spans-{workload}-seed1.json").read_text())
        assert spans["spans"], workload
        table = report["workloads"][workload]["layer_self_s"]
        assert sum(table[layer] for layer in layers.LAYERS) == \
            pytest.approx(table["total"])


def test_simulated_metrics_repeat_exactly():
    sim = ("sim_p50_us", "sim_p99_us", "sim_mops")
    for workload in run.WORKLOAD_NAMES:
        first = run.measure(workload, 5, 0, TINY)
        second = run.measure(workload, 5, 0, TINY)
        assert first.correct and second.correct, workload
        assert [first.metrics[m] for m in sim] == \
            [second.metrics[m] for m in sim], workload
    plain = run.measure("kv_fleet", 5, 0, TINY)
    observed = run.measure("kv_fleet_observed", 5, 0, TINY)
    assert [plain.metrics[m] for m in sim] == \
        [observed.metrics[m] for m in sim]


def test_seed_changes_the_generated_inputs():
    assert workloads.OffloadChains(1, **TINY["offload_chains"]).plan != \
        workloads.OffloadChains(2, **TINY["offload_chains"]).plan
    one = workloads.VerbFlood(1, **TINY["verb_flood"])
    two = workloads.VerbFlood(2, **TINY["verb_flood"])
    assert (one.order, one.waves) != (two.order, two.waves)


def _corrupt(memory, addr: int) -> None:
    memory.write(addr, bytes([memory.read(addr, 1)[0] ^ 0xFF]))


def test_wrong_value_raises_failed_frac():
    rig = workloads.OffloadChains(3, **TINY["offload_chains"])
    key = next(key for kind, key in rig.plan if kind == "hash")
    valptr, _length = rig.store.table.lookup_ptr(key)
    _corrupt(rig.bed.server.memory, valptr)
    result = rig.run()
    assert result.failed > 0

    fleet = workloads.KvFleet(3, **TINY["kv_fleet"])
    shard = fleet.scenario.rigs[0]
    valptr, _length = shard.server.table.lookup_ptr(shard.owned_keys[-1])
    _corrupt(shard.bed.server.memory, valptr)
    assert fleet.run().failed > 0

    flood = workloads.VerbFlood(3, **TINY["verb_flood"])
    flood.pattern = bytes(len(flood.pattern))
    bad = flood.run()
    assert bad.failed > 0

    outcome = run.Outcome("verb_flood")
    outcome.add_reps([bad])
    assert not outcome.correct
    assert outcome.failed / outcome.attempted > 0


def test_without_simulator_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.MANIFEST, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verb_flood",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
