#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kv_fleet --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload verb_flood --seed 1 --trace 1
    python3 perfbench/run.py --write-manifest     # regenerate BENCHMARK.json

``--trace 0`` repeats the named workload (set-up, then the timed run)
until ``--seconds`` have passed, and at least three times, and reports
the end-to-end metrics: host cost (``run_s``, ``host_ops_per_s``,
``setup_s``, ``peak_rss_mb``) and simulated results (``sim_p50_us``,
``sim_p99_us``, ``sim_mops``). ``--trace 1`` runs every workload once
untraced and once under cProfile with host-time spans, reports the
per-layer metrics (named ``<workload>.<layer metric>``) and writes the
spans and per-layer tables to ``perfbench/out/``.

Every run checks the simulated outputs; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit status is 0 when every check passed, 1 when
one failed, and 2 when the simulator sources are missing.
"""

from __future__ import annotations

import argparse
import cProfile
import ctypes
import gc
import json
import math
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT_DIR = HERE / "out"
MANIFEST = REPO / "BENCHMARK.json"

#: Timed repetitions per ``--trace 0`` run, however short ``--seconds``.
MIN_REPS = 3
#: Set-ups timed per run; extra ones are built and dropped unrun.
MIN_SETUPS = 5
#: A p99 needs at least this many samples above it to be reported.
MIN_TAIL = 10

WORKLOAD_WHY = {
    "kv_fleet": "sharded 8-shard cuckoo-KV fleet, obs off: the only "
                "workload where sim.sharded, the net.conn plane and the "
                "cuckoo READ path do real work",
    "kv_fleet_observed": "kv_fleet with tracer, flight recorder, telemetry "
                         "exemplars and sentry on: prices repro.obs; its "
                         "simulated results must equal kv_fleet's",
    "offload_chains": "closed loop of per-call RedN hash-get and "
                      "early-break list chains: chain build and "
                      "self-modifying fetch dominate, no sharding or conn",
    "verb_flood": "WRITE, READ then CAS waves over 8 QPs: NIC fetch/"
                  "execute/DMA and the sim loop only, the control where "
                  "redn, conn and obs changes predict no change",
}

#: (name, unit, better, bound): bound is the share of the parent's
#: median a metric may worsen by before a change counts as a regression.
END_TO_END = [
    ("run_s", "s", "lower", 0.24),
    ("host_ops_per_s", "ops/s", "higher", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("sim_p50_us", "sim_us", "lower", 0.10),
    ("sim_p99_us", "sim_us", "lower", 0.15),
    ("sim_mops", "sim_Mops", "higher", 0.05),
]


def _self(*layers):
    return [(f"{layer}.self_s", "s", "lower") for layer in layers]


_SIM = [("sim.events", "count", "lower"),
        ("sim.heap_peak", "count", "lower"),
        ("sim.host_ns_per_event", "ns", "lower")]
_NIC = [("nic.wrs_executed", "count", "lower"),
        ("nic.wqe_fetches", "count", "lower"),
        ("nic.fetch_batches", "count", "lower"),
        ("nic.prefetched_per_batch", "wqe/batch", "higher"),
        ("nic.host_ns_per_wr", "ns", "lower")]
_MEMORY = [("memory.alloc_s", "s", "lower")]
_REDN = [("redn.post_instances_s", "s", "lower"),
         ("redn.instances_posted", "count", "lower"),
         ("redn.program_ops", "count", "lower"),
         ("redn.ops_per_instance", "ops/instance", "lower")]
_SHARDED = [("sim.sharded.rounds", "count", "lower"),
            ("sim.sharded.messages", "count", "lower"),
            ("sim.sharded.hot_shard_share", "ratio", "lower")]
_NET = [("net.pool.leases", "count", "lower"),
        ("net.pool.recycles", "count", "lower"),
        ("net.pool.peak_in_use", "count", "lower"),
        ("net.pool.exhausted_hits", "count", "lower"),
        ("net.pool.stale_cqes", "count", "lower"),
        ("net.doorbell_rings", "count", "lower")]
_OBS = [("obs.cost_x", "x", "lower"),
        ("obs.tracer.events", "count", "lower"),
        ("obs.recorder.records", "count", "lower"),
        ("obs.telemetry.records", "count", "lower"),
        ("obs.sentry.incidents", "count", "lower")]
_BLAME = [(f"blame.{phase}_ns", "sim_ns", "lower")
          for phase in ("pool_wait", "doorbell_batch", "cqe_demux",
                        "link_wire", "gw_wait", "offload_exec", "service",
                        "queueing")]
_TRACE = [("trace.overhead_x", "x", "lower")]

_FLEET_LAYERS = ("sim", "sim.sharded", "nic", "memory", "redn", "offloads",
                 "net", "datastructs", "ibv", "bench", "python")

#: Per-layer metrics reported for each workload: only the layers that do
#: work there (README.md lists what is absent where, and why).
PER_LAYER = {
    "kv_fleet": (_self(*_FLEET_LAYERS) + _SIM + _NIC + _MEMORY + _REDN
                 + _SHARDED + _NET + [("bench.build_s", "s", "lower")]
                 + _TRACE),
    "kv_fleet_observed": (
        _self(*_FLEET_LAYERS, "obs", "obs.tracer", "obs.recorder",
              "obs.telemetry", "obs.sentry", "obs.blame")
        + [_SIM[2], _NIC[4], _REDN[0]] + _OBS + _BLAME + _TRACE),
    "offload_chains": (_self("sim", "nic", "memory", "redn", "offloads",
                             "net", "datastructs", "ibv", "python")
                       + _SIM + _NIC + _MEMORY + _REDN + _TRACE),
    "verb_flood": (_self("sim", "nic", "memory", "net", "ibv", "python")
                   + _SIM + _NIC + _MEMORY + _TRACE),
}

WORKLOAD_NAMES = tuple(WORKLOAD_WHY)
E2E_UNITS = {name: unit for name, unit, _better, _bound in END_TO_END}


def manifest() -> dict:
    """The ``BENCHMARK.json`` document this benchmark is defined by."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 25,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": f"{workload}.{name}", "unit": unit,
                       "better": better}
                      for workload, metrics in PER_LAYER.items()
                      for name, unit, better in metrics],
    }


def calibrate() -> float:
    """Host seconds for a fixed pure-Python loop (best of three).

    Printed beside the results as context for the machine's speed; it
    is not a gated metric.
    """
    best = None
    for _ in range(3):
        began = time.process_time()
        total = 0
        for index in range(1_000_000):
            total += index * index % 7
        spent = time.process_time() - began
        best = spent if best is None else min(best, spent)
    return best


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Outcome:
    """Metrics, checks and report lines of one workload's runs."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.lines = []

    def add_reps(self, results, reference=None) -> None:
        """Count attempts and failures; every rep must repeat the first.

        ``reference`` is an identity the reps must also equal (the
        plain fleet's, for the observed one). A rep that differs counts
        all its operations as failed.
        """
        expect = reference if reference is not None \
            else results[0].identity()
        for result in results:
            self.attempted += result.attempted
            failed = result.failed
            if result.identity() != expect:
                failed = result.attempted
                self.problems.append("simulated results differ between "
                                     "repetitions of the same inputs")
            self.failed += failed

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}


def _cold_heap() -> None:
    """Collect garbage and hand freed heap memory back to the OS.

    Each set-up then pays first-touch page faults for its simulated
    DRAM, as it would in a fresh process. Otherwise whether the C
    allocator reuses the previous repetition's pages varies from run to
    run, and ``setup_s`` with it.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except AttributeError:
        pass    # not glibc: the allocator keeps its own policy


def _timed_setup(cls, seed, size):
    _cold_heap()
    began = time.process_time()
    rig = cls(seed, **size)
    return rig, time.process_time() - began


def _timed_run(rig):
    gc.collect()
    began = time.process_time()
    result = rig.run()
    spent = time.process_time() - began
    rig.close()
    return result, spent


def _simulated(outcome: Outcome, result) -> None:
    """The simulated end-to-end metrics of one (any) repetition."""
    from repro.bench.stats import percentile
    latencies = result.latencies_ns
    if not latencies:
        outcome.problems.append("no request completed")
        for name in ("sim_p50_us", "sim_p99_us", "sim_mops"):
            outcome.put(name, 0.0, E2E_UNITS[name])
        return
    p99 = percentile(latencies, 0.99)
    # Nearest-rank: the samples ranked above the one p99 reports.
    beyond = len(latencies) - math.ceil(0.99 * len(latencies))
    outcome.put("sim_p50_us", percentile(latencies, 0.50) / 1000,
                E2E_UNITS["sim_p50_us"])
    outcome.put("sim_p99_us", p99 / 1000, E2E_UNITS["sim_p99_us"])
    outcome.put("sim_mops", result.ops / result.sim_elapsed_ns * 1000,
                E2E_UNITS["sim_mops"])
    outcome.lines.append(f"  latency samples: {len(latencies)} per rep, "
                         f"{beyond} ranked beyond p99")
    if beyond < MIN_TAIL:
        outcome.lines.append(f"  warning: fewer than {MIN_TAIL} samples "
                             f"beyond p99; the run is too small for it")


def measure(workload: str, seed: int, seconds: float,
            sizes: dict = None) -> Outcome:
    """``--trace 0``: repeat set-up + run for ``seconds``; medians."""
    from workloads import WORKLOADS, KvFleet
    sizes = sizes or {}
    cls = WORKLOADS[workload]
    size = sizes.get(workload, {})
    outcome = Outcome(workload)
    reference = None
    if cls.observed:
        # Observing must not change what is simulated: every observed
        # rep has to reproduce the plain fleet exactly.
        rig, _setup = _timed_setup(KvFleet, seed, size)
        reference = rig.run().identity()
        del rig

    results, run_s, setup_s = [], [], []
    began = time.perf_counter()
    rep_s = 0.0
    # Stop before a repetition that would overrun ``seconds``.
    while len(results) < MIN_REPS or \
            time.perf_counter() - began + rep_s <= seconds:
        rep_began = time.perf_counter()
        rig, spent = _timed_setup(cls, seed, size)
        setup_s.append(spent)
        result, spent = _timed_run(rig)
        del rig
        results.append(result)
        run_s.append(spent)
        rep_s = time.perf_counter() - rep_began
    while len(setup_s) < MIN_SETUPS:
        rig, spent = _timed_setup(cls, seed, size)
        setup_s.append(spent)
        rig.close()
        del rig
    gc.collect()

    outcome.add_reps(results, reference)
    ops_rates = [r.ops / spent for r, spent in zip(results, run_s)]
    outcome.put("run_s", statistics.median(run_s), "s")
    outcome.put("host_ops_per_s", statistics.median(ops_rates), "ops/s")
    outcome.put("setup_s", statistics.median(setup_s), "s")
    outcome.put("peak_rss_mb", _peak_rss_mb(), "MB")
    _simulated(outcome, results[0])
    outcome.lines.insert(0, f"  {len(results)} timed reps of "
                            f"{results[0].attempted} ops, "
                            f"{len(setup_s)} timed set-ups")
    return outcome


def traced(seed: int, sizes: dict = None) -> Outcome:
    """``--trace 1``: per-layer metrics of every workload.

    Each workload runs once untraced (the base of ``trace.overhead_x``,
    the per-event and per-WR host costs and ``obs.cost_x``) and once
    under cProfile with spans; the two must simulate identically.
    """
    from layers import LAYERS, OBS_MODULES, Spans, cumulative_s, \
        function_cumulative_s, layer_self_times
    from repro.memory.dram import HostMemory
    from workloads import WORKLOADS

    sizes = sizes or {}
    outcome = Outcome("all")
    plain_run_s = {}
    plain_identity = {}
    report = {"seed": seed, "workloads": {}}
    for workload, cls in WORKLOADS.items():
        size = sizes.get(workload, {})
        rig, build_s = _timed_setup(cls, seed, size)
        plain, plain_s = _timed_run(rig)
        del rig
        plain_run_s[workload] = plain_s
        plain_identity[workload] = plain.identity()

        spans = Spans()
        setup_prof = cProfile.Profile()
        _cold_heap()
        with spans.span(f"{workload}.setup", "perfbench"):
            setup_prof.enable()
            rig = cls(seed, spans=spans, **size)
            setup_prof.disable()
        run_prof = cProfile.Profile()
        gc.collect()
        with spans.span(f"{workload}.run", "perfbench"):
            began = time.process_time()
            run_prof.enable()
            result = rig.run()
            run_prof.disable()
            traced_s = time.process_time() - began
        rig.close()
        del rig
        # Tracing must not change what is simulated, nor observing.
        outcome.add_reps([plain, result], plain_identity[
            "kv_fleet" if cls.observed else workload])

        stats = pstats.Stats(run_prof)
        layer_s = layer_self_times(stats)
        accounted = sum(layer_s[layer] for layer in LAYERS)
        if abs(accounted - layer_s["total"]) > 1e-6 * layer_s["total"]:
            outcome.problems.append(
                f"{workload}: layer self times sum to {accounted}, "
                f"profile total is {layer_s['total']}")
        setup_stats = pstats.Stats(setup_prof)
        values = {f"{layer}.self_s": layer_s[layer] for layer in LAYERS}
        values.update({f"obs.{module}.self_s": layer_s[f"obs.{module}"]
                       for module in OBS_MODULES})
        values.update(plain.counters)
        values.update({
            "sim.host_ns_per_event":
                plain_s / plain.counters["sim.events"] * 1e9,
            "nic.host_ns_per_wr":
                plain_s / plain.counters["nic.wrs_executed"] * 1e9,
            "memory.alloc_s": function_cumulative_s(setup_stats,
                                                    HostMemory.__init__),
            "redn.post_instances_s":
                cumulative_s(stats, "offloads", "post_instances"),
            "bench.build_s": build_s,
            "trace.overhead_x": traced_s / plain_s,
        })
        if workload == "kv_fleet_observed":
            values["obs.cost_x"] = plain_s / plain_run_s["kv_fleet"]
        for name, unit, _better in PER_LAYER[workload]:
            outcome.put(f"{workload}.{name}", values[name], unit)
        report["workloads"][workload] = {
            "layer_self_s": layer_s,
            "setup_layer_self_s": layer_self_times(setup_stats),
            "span_self_s": spans.self_times(),
            "metrics": {name: values[name]
                        for name, _unit, _better in PER_LAYER[workload]},
        }
        spans.dump(OUT_DIR / f"spans-{workload}-seed{seed}.json",
                   {"workload": workload, "seed": seed})
        outcome.lines.append(
            f"  {workload}: untraced {plain_s:.4f} s, traced "
            f"{traced_s:.4f} s, profiled self time by layer:")
        total = layer_s["total"]
        for layer in LAYERS:
            if layer_s[layer]:
                outcome.lines.append(
                    f"    {layer:12s} {layer_s[layer]:9.4f} s "
                    f"{100 * layer_s[layer] / total:5.1f}%")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"layers-seed{seed}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    return outcome


def _print_outcome(outcome: Outcome) -> None:
    print(f"workload {outcome.workload}")
    for line in outcome.lines:
        print(line)
    for name, entry in outcome.metrics.items():
        print(f"  {name:40s} {entry['value']!r:>24} {entry['unit']}")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'failed_frac':40s} {frac!r:>24} ratio "
          f"({outcome.failed} of {outcome.attempted})")
    for problem in outcome.problems:
        print(f"  check failed: {problem}")


def main(argv=None, sizes: dict = None) -> int:
    parser = argparse.ArgumentParser(
        description="Repository benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="rewrite BENCHMARK.json from this file's "
                             "metric definitions and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        MANIFEST.write_text(json.dumps(manifest(), indent=2) + "\n")
        print(f"wrote {MANIFEST}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    print(f"calibration: {calibrate():.4f} s host CPU for a fixed "
          f"pure-Python loop (context only, not gated)")
    print(f"seed {args.seed}; kv_fleet's key stream is fixed inside "
          f"repro.bench.fleet, so the seed does not reach it")
    if args.trace:
        outcomes = [traced(args.seed, sizes)]
    else:
        names = WORKLOAD_NAMES if args.workload == "all" \
            else (args.workload,)
        outcomes = [measure(name, args.seed, args.seconds, sizes)
                    for name in names]
    metrics = {}
    for outcome in outcomes:
        _print_outcome(outcome)
        prefix = f"{outcome.workload}." if len(outcomes) > 1 else ""
        metrics.update({prefix + name: entry
                        for name, entry in outcome.metrics.items()})
    correct = all(outcome.correct for outcome in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
