#!/usr/bin/env python
"""Simulator wall-clock speed smoke test.

Replays two canonical workloads through the full stack and measures how
many kernel events per CPU-second the simulator sustains:

* ``fig13_list_traversal`` — RedN list-traversal offload calls over a
  client connection (the Fig 13 scenario): managed-queue fetches,
  self-modifying WQE chains, WAIT/ENABLE ordering.
* ``table3_flood`` — ib_write_bw-style WRITE and CAS floods across 8
  QPs (the Table 3 scenario): batch prefetch, pipelined completions,
  atomic serialization.
* ``cluster_simspeed`` — 16 testbeds on the sharded simulator
  (``repro.bench.cluster``): closed-loop cross-bed RPCs over 1 µs
  inter-shard links, driven once by the conservative sharded
  synchronizer and once by the one-timestamp-window serial merge. The
  two drives must be bit-identical; their events/sec ratio is the
  recorded ``speedup``.
* ``fleet_simspeed`` — the sharded KV fleet (``repro.bench.fleet``):
  8 cuckoo-KV shards serving 1024 pooled logical connections with
  consistent-hash routing, shared CQs, and doorbell batching. Same
  dual-drive bit-identity contract and speedup measurement as the
  cluster workload, plus an ``aggregate_mops`` figure.

Methodology: the testbed build is excluded; only the simulation run
phase is timed, with the GC disabled, using ``time.process_time`` so a
loaded machine does not skew results. Each workload runs ``--reps`` times and the best
rep counts.

Usage:

    PYTHONPATH=src python tools/perf_smoke.py            # compare
    PYTHONPATH=src python tools/perf_smoke.py --update-baseline

The committed baseline lives in ``BENCH_simspeed.json`` at the repo
root. Exit status:

* 0 — within tolerance of the baseline (or baseline just [re]written),
* 1 — events/sec regressed more than 30% on any workload, or a
  dual-drive workload's sharded-vs-serial speedup fell below its floor,
* 2 — determinism fingerprint drifted (simulated results changed —
  that is a correctness bug, not a perf problem),
* 3 — ``--check`` was asked but no committed baseline exists.

``--check`` is the CI mode: it never writes the baseline file.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

BASELINE_PATH = REPO_ROOT / "BENCH_simspeed.json"
REGRESSION_TOLERANCE = 0.30
# Dual-drive workloads must keep a real sharded-vs-serial win. The
# committed baseline records the measured speedups (cluster >= 2.5x,
# fleet >= 1.8x); the CI floors are deliberately conservative so
# shared-runner noise does not flake the gate. The fleet floor is
# lower because its zipfian skew concentrates work on the hot shard,
# which bounds the conservative synchronizer's parallelism.
CLUSTER_SPEEDUP_FLOOR = 1.5
FLEET_SPEEDUP_FLOOR = 1.2

LIST_SIZE = 8
VALUE_SIZE = 64


def _build_fig13(calls: int = 48):
    """Fig 13 replay: list-traversal offload calls over one client."""
    from repro.bench import Testbed
    from repro.datastructs import LinkedList, SlabStore
    from repro.offloads.list_traversal import ListTraversalOffload
    from repro.redn import RednContext
    from repro.redn.offload import OffloadClient, OffloadConnection

    bed = Testbed(num_clients=1)
    proc = bed.server.spawn_process("list-server")
    pd = proc.create_pd()
    slab_alloc = proc.alloc(4 * 1024 * 1024, label="slab")
    node_alloc = proc.alloc(64 * 1024, label="nodes")
    data_mr = pd.register(node_alloc)
    pd.register(slab_alloc)
    slab = SlabStore(bed.server.memory, slab_alloc)
    lst = LinkedList(bed.server.memory, node_alloc, slab)
    keys = [0x100 + i for i in range(LIST_SIZE)]
    for key in keys:
        lst.append(key, bytes([key & 0xFF]) * VALUE_SIZE)
    ctx = RednContext(bed.server.nic, pd, process=proc)
    conn = OffloadConnection(ctx, bed.clients[0].nic, bed.client_pd(0),
                             name="ps13")
    offload = ListTraversalOffload(ctx, lst, data_mr, conn,
                                   max_nodes=LIST_SIZE, use_break=False)
    client = OffloadClient(conn, bed.client_verbs(0))
    call_keys = [keys[i % LIST_SIZE] for i in range(calls)]

    def scenario():
        latencies = []
        for index, key in enumerate(call_keys):
            if index % 8 == 0:
                # The plain-variant worker ring holds ~16 pre-posted
                # instances; replenish in batches as calls consume them.
                offload.post_instances(min(8, len(call_keys) - index))
            result = yield from client.call(offload.payload_for(key),
                                            timeout_ns=60_000_000)
            assert result.ok
            latencies.append(result.latency_ns)
            yield bed.sim.timeout(60_000)
        return latencies

    def run():
        latencies = bed.run(scenario())
        return {
            "sim_time_ns": bed.sim.now,
            "latency_sum_ns": sum(latencies),
            "calls": len(latencies),
        }

    return bed.sim, run


def _build_table3(qps_n: int = 8, ops_per_qp: int = 512, wave: int = 256):
    """Table 3 replay: WRITE then CAS floods across ``qps_n`` QPs."""
    from repro.bench import Testbed
    from repro.ibv import wr_cas, wr_write

    bed = Testbed(num_clients=1)
    proc = bed.server.spawn_process("sink")
    pd = proc.create_pd()
    sink = proc.alloc(4096, label="sink")
    sink_mr = pd.register(sink)
    qps = []
    for index in range(qps_n):
        server_qp = proc.create_qp(pd, name=f"ps3s{index}")
        client_qp = bed.clients[0].nic.create_qp(
            bed.client_pd(0), send_slots=512, name=f"ps3c{index}")
        server_qp.connect(client_qp)
        qps.append(client_qp)
    src = bed.clients[0].memory.alloc(64, owner="client")
    sim = bed.sim
    waves = max(1, ops_per_qp // wave)

    def make_write():
        return wr_write(src.addr, 64, sink.addr, sink_mr.rkey,
                        signaled=False)

    def make_cas():
        return wr_cas(sink.addr, sink_mr.rkey, 0, 1, signaled=False)

    def flood(qp, make_wqe):
        for _ in range(waves):
            base = qp.send_wq.cq.count
            for index in range(wave):
                wqe = make_wqe()
                if index == wave - 1:
                    wqe.flags |= 0x1
                else:
                    wqe.flags &= ~0x1
                qp.post_send(wqe)
            yield qp.send_wq.cq.wait_for_count(base + 1)

    def phase(make_wqe):
        start = sim.now
        procs = [sim.process(flood(qp, make_wqe), name=f"flood{i}")
                 for i, qp in enumerate(qps)]
        for p in procs:
            if not p.triggered:
                yield p
        total = qps_n * waves * wave
        return total / ((sim.now - start) / 1e9)

    def run():
        write_rate = bed.run(phase(make_write))
        cas_rate = bed.run(phase(make_cas))
        return {
            "sim_time_ns": sim.now,
            "write_mops": round(write_rate / 1e6, 3),
            "cas_mops": round(cas_rate / 1e6, 3),
        }

    return sim, run


WORKLOADS = {
    "fig13_list_traversal": _build_fig13,
    "table3_flood": _build_table3,
}

CLUSTER_WORKLOAD = "cluster_simspeed"
FLEET_WORKLOAD = "fleet_simspeed"


def _build_cluster_scenario():
    from repro.bench.cluster import build_cluster
    return build_cluster()


def _build_fleet_scenario():
    from repro.bench.fleet import build_fleet
    return build_fleet()


#: Dual-drive workloads: scenario builder + sharded-vs-serial speedup
#: floor enforced by ``--check``.
SPEEDUP_WORKLOADS = {
    CLUSTER_WORKLOAD: (_build_cluster_scenario, CLUSTER_SPEEDUP_FLOOR),
    FLEET_WORKLOAD: (_build_fleet_scenario, FLEET_SPEEDUP_FLOOR),
}

#: Every workload perf_smoke measures, in reporting order.
ALL_WORKLOADS = list(WORKLOADS) + list(SPEEDUP_WORKLOADS)


def _drive_scenario(build, serial: bool):
    """One timed dual-drive run; returns (fingerprint, measures, events, cpu)."""
    scenario = build()
    events_before = sum(scenario.events_executed())
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        fingerprint, measures = scenario.run(serial=serial)
        cpu = time.process_time() - start
    finally:
        gc.enable()
    events = sum(scenario.events_executed()) - events_before
    return fingerprint, measures, events, cpu


def run_speedup_workload(name: str, reps: int = 3):
    """Measure a dual-drive workload in both modes.

    Every rep builds two fresh scenarios — one driven by the sharded
    synchronizer, one by the serial merge — and their fingerprints and
    event counts must be bit-identical (that is the workload's
    correctness claim, checked every run, not just in tests). The best
    rep per mode counts; ``speedup`` is the events/sec ratio.
    """
    build, _floor = SPEEDUP_WORKLOADS[name]
    best = {"sharded": None, "serial": None}
    fingerprint = None
    events = None
    mops = None
    for _ in range(reps):
        for mode in ("sharded", "serial"):
            fp, measures, ev, cpu = _drive_scenario(
                build, serial=(mode == "serial"))
            if fingerprint is None:
                fingerprint, events = fp, ev
                mops = measures.get("aggregate_mops")
            elif (fp, ev) != (fingerprint, events):
                raise AssertionError(
                    f"{name}: {mode} drive diverged: "
                    f"{(fp, ev)} != {(fingerprint, events)}")
            if best[mode] is None or cpu < best[mode]:
                best[mode] = cpu
    rate = round(events / best["sharded"]) if best["sharded"] else 0
    serial_rate = round(events / best["serial"]) if best["serial"] else 0
    result = {
        "events": events,
        "cpu_seconds": round(best["sharded"], 4),
        "events_per_sec": rate,
        "serial_cpu_seconds": round(best["serial"], 4),
        "serial_events_per_sec": serial_rate,
        "speedup": round(rate / serial_rate, 2) if serial_rate else 0.0,
        "fingerprint": fingerprint,
    }
    if mops is not None:
        result["aggregate_mops"] = mops
    return result


def run_workload(name: str, reps: int = 3):
    """Measure one workload; returns a result dict for the baseline.

    The scenario is rebuilt for every rep (setup excluded from timing);
    the best rep's CPU time counts. Fingerprints must agree across reps
    — same-process nondeterminism would already be a bug.
    """
    if name in SPEEDUP_WORKLOADS:
        return run_speedup_workload(name, reps=reps)
    build = WORKLOADS[name]
    best_cpu = None
    events = None
    fingerprint = None
    for _ in range(reps):
        sim, run = build()
        # Kernel progress counters come from the canonical metrics
        # snapshot (repro.obs) — the same numbers sim.stats renders.
        gauges = sim.metrics.snapshot()["gauges"]
        events_before = gauges["sim.events_executed"]
        gc.collect()
        gc.disable()
        try:
            start = time.process_time()
            result = run()
            cpu = time.process_time() - start
        finally:
            gc.enable()
        gauges = sim.metrics.snapshot()["gauges"]
        rep_events = gauges["sim.events_executed"] - events_before
        if fingerprint is None:
            fingerprint, events = result, rep_events
        elif (result, rep_events) != (fingerprint, events):
            raise AssertionError(
                f"{name}: nondeterministic across reps: "
                f"{(result, rep_events)} != {(fingerprint, events)}")
        if best_cpu is None or cpu < best_cpu:
            best_cpu = cpu
    return {
        "events": events,
        "cpu_seconds": round(best_cpu, 4),
        "events_per_sec": round(events / best_cpu) if best_cpu else 0,
        "fingerprint": fingerprint,
    }


def measure_tails() -> dict:
    """Per-workload p99 request latency (ns) via the telemetry plane.

    One untimed drive per workload with a telemetry collector attached
    (never mixed into the perf-timed reps — the obs flag is zero-cost
    only when off). ``table3_flood`` has no request concept and is
    omitted; ``bench_history`` renders missing tails as "-".
    """
    from repro.bench.cluster import build_cluster
    from repro.bench.fleet import build_fleet
    from repro.obs.metrics import Histogram
    from repro.obs.telemetry import FleetTelemetry

    tails = {}

    sim, run = _build_fig13()
    fleet = FleetTelemetry()
    fleet.attach(sim, bed="fig13")
    try:
        run()
        fleet.finalize()
    finally:
        fleet.close()
    hist = sim.metrics.histogram("telemetry.request_ns")
    if hist.count:
        tails["fig13_list_traversal"] = hist.quantile(0.99)

    for name, builder in ((CLUSTER_WORKLOAD, build_cluster),
                          (FLEET_WORKLOAD, build_fleet)):
        scenario = builder(telemetry_path="")
        fleet = scenario.attach_telemetry()
        scenario.run()
        merged = Histogram()
        for record in fleet.records:
            if record["latency"]:
                merged.merge(Histogram.from_snapshot(record["latency"]))
        if merged.count:
            tails[name] = merged.quantile(0.99)
    return tails


def profile_workloads(top: int = 25) -> str:
    """Run every workload once under cProfile; return a text report.

    This is the CI artifact behind ``--profile``: when the perf gate
    flags a regression, the hotspot table says *where* the cycles went
    without anyone having to reproduce the run locally.
    """
    import cProfile
    import io
    import pstats

    sections = []
    for name in ALL_WORKLOADS:
        profiler = cProfile.Profile()
        if name in SPEEDUP_WORKLOADS:
            build, _floor = SPEEDUP_WORKLOADS[name]
            scenario = build()
            profiler.enable()
            scenario.run(serial=False)
            profiler.disable()
        else:
            sim, run = WORKLOADS[name]()
            profiler.enable()
            run()
            profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(top)
        stats.sort_stats("tottime").print_stats(top)
        sections.append(f"=== {name} (top {top} by cumulative, "
                        f"then by tottime) ===\n{buffer.getvalue()}")
    return "\n".join(sections)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite BENCH_simspeed.json with this run")
    parser.add_argument("--check", action="store_true",
                        help="CI mode: compare only, never write the "
                             "baseline; exit 3 if it is missing")
    parser.add_argument("--reps", type=int, default=3,
                        help="reps per workload (best counts, default 3)")
    parser.add_argument("--profile", metavar="FILE", default=None,
                        help="also run each workload once under cProfile "
                             "and write a top-hotspot report to FILE "
                             "('-' for stdout)")
    parser.add_argument("--fingerprints-only", action="store_true",
                        help="one untimed rep per workload; compare "
                             "only the determinism fingerprints against "
                             "the committed baseline (the CI obs-"
                             "neutrality step — wall-clock noise never "
                             "fails it). Exit 2 on drift, 3 if the "
                             "baseline is missing.")
    args = parser.parse_args(argv)
    if args.check and args.update_baseline:
        parser.error("--check and --update-baseline are exclusive")
    if args.fingerprints_only and args.update_baseline:
        parser.error("--fingerprints-only and --update-baseline are "
                     "exclusive")
    if args.fingerprints_only:
        args.reps = 1

    results = {}
    for name in ALL_WORKLOADS:
        results[name] = run_workload(name, reps=args.reps)
        r = results[name]
        if args.fingerprints_only:
            continue
        line = (f"{name:24s} {r['events_per_sec']:>10,d} events/s "
                f"({r['events']} events in {r['cpu_seconds']:.3f}s CPU)")
        if "speedup" in r:
            line += (f" | serial {r['serial_events_per_sec']:,d} ev/s"
                     f" | speedup {r['speedup']:.2f}x")
        print(line)

    if args.fingerprints_only:
        if not BASELINE_PATH.exists():
            print(f"--fingerprints-only: no baseline at {BASELINE_PATH} "
                  "(commit one with --update-baseline)")
            return 3
        baseline = json.loads(BASELINE_PATH.read_text())["workloads"]
        status = 0
        for name, result in results.items():
            base = baseline.get(name)
            if base is None:
                print(f"{name}: not in baseline")
                continue
            if result["fingerprint"] != base["fingerprint"]:
                print(f"{name}: DETERMINISM DRIFT — simulated results "
                      f"changed:\n  baseline: {base['fingerprint']}\n"
                      f"  current:  {result['fingerprint']}")
                status = 2
            else:
                print(f"{name}: fingerprint bit-identical to baseline")
        return status

    if args.profile is not None:
        report = profile_workloads()
        if args.profile == "-":
            print(report)
        else:
            Path(args.profile).write_text(report)
            print(f"profile report written: {args.profile}")

    if args.check and not BASELINE_PATH.exists():
        print(f"--check: no baseline at {BASELINE_PATH} "
              "(commit one with --update-baseline)")
        return 3
    if args.update_baseline or not BASELINE_PATH.exists():
        payload = {"schema": 1, "workloads": results}
        BASELINE_PATH.write_text(json.dumps(payload, indent=2,
                                            sort_keys=True) + "\n")
        action = "updated" if args.update_baseline else "created"
        print(f"baseline {action}: {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())["workloads"]
    status = 0
    for name, result in results.items():
        base = baseline.get(name)
        if base is None:
            print(f"{name}: not in baseline (run --update-baseline)")
            continue
        if result["fingerprint"] != base["fingerprint"]:
            print(f"{name}: DETERMINISM DRIFT — simulated results "
                  f"changed:\n  baseline: {base['fingerprint']}\n"
                  f"  current:  {result['fingerprint']}")
            status = 2
            continue
        floor = base["events_per_sec"] * (1 - REGRESSION_TOLERANCE)
        ratio = result["events_per_sec"] / base["events_per_sec"]
        if result["events_per_sec"] < floor:
            print(f"{name}: REGRESSION — {result['events_per_sec']:,d} "
                  f"events/s is {ratio:.2f}x of baseline "
                  f"{base['events_per_sec']:,d}")
            status = max(status, 1)
        elif (name in SPEEDUP_WORKLOADS
              and result["speedup"] < SPEEDUP_WORKLOADS[name][1]):
            print(f"{name}: SPEEDUP LOST — sharded is only "
                  f"{result['speedup']:.2f}x of the serial merge "
                  f"(floor {SPEEDUP_WORKLOADS[name][1]}x, baseline "
                  f"{base.get('speedup', '?')}x)")
            status = max(status, 1)
        else:
            print(f"{name}: ok ({ratio:.2f}x of baseline)")
    return status


if __name__ == "__main__":
    sys.exit(main())
