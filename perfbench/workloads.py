"""The benchmark's four workloads, driven through public APIs only.

Each workload is a rig class: constructing it is the *set-up* (testbeds,
simulated DRAM, preloaded keys, QPs and chains) and :meth:`run` is the
timed *run* of one repetition, returning a :class:`RepResult`. Every
rig checks its own simulated outputs (values, offload results, CQE
statuses) and counts what went wrong in ``failed``; the harness in
``run.py`` only times the two phases and aggregates.

All four are batch jobs in one process on one thread; the simulated
clients are closed loops (a client issues its next request only after
the previous one completed).

* ``kv_fleet`` -- :func:`repro.bench.fleet.build_fleet` defaults with
  obs off, driven by the sharded synchronizer.
* ``kv_fleet_observed`` -- the same fleet with every obs sink on.
* ``offload_chains`` -- one testbed, a closed loop of RedN offload calls
  drawn by seed from hash-get (Fig 9/10) and early-break list traversal
  (Fig 13); each call posts its own chain instance.
* ``verb_flood`` -- one testbed, ib_write_bw-style waves of 64 B WRITE,
  then READ, then CAS over 8 QPs.

A rig given a :class:`layers.Spans` records host-time spans around its
calls into each layer; without one it records nothing.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from typing import Dict, List

from repro.apps import MemcachedServer
from repro.bench import Testbed
from repro.bench.fleet import VALUE_SIZE, FleetError, build_fleet
from repro.datastructs import LinkedList, SlabStore
from repro.ibv import wr_cas, wr_read, wr_write
from repro.memory.region import AccessFlags
from repro.obs.blame import summarize_blame
from repro.obs.recorder import FlightRecorder
from repro.obs.sentry import FleetSentry
from repro.obs.telemetry import DEFAULT_WINDOW_NS
from repro.obs.tracer import Tracer
from repro.offloads.list_traversal import ListTraversalOffload
from repro.redn import RednContext
from repro.redn.offload import OffloadClient, OffloadConnection

__all__ = ["WORKLOADS", "RepResult", "KvFleet", "KvFleetObserved",
           "OffloadChains", "VerbFlood"]


class RepResult:
    """What one timed repetition produced.

    ``fingerprint`` holds the simulated results that must repeat
    exactly for the same inputs; ``counters`` holds per-layer counts
    read from public stats after the run.
    """

    def __init__(self, attempted: int, failed: int, latencies_ns: List[int],
                 sim_elapsed_ns: int, fingerprint: dict, counters: dict):
        self.attempted = attempted
        self.failed = failed
        #: Simulated per-request (per-wave for verb_flood) latencies.
        self.latencies_ns = latencies_ns
        self.sim_elapsed_ns = sim_elapsed_ns
        self.fingerprint = fingerprint
        self.counters = counters

    @property
    def ops(self) -> int:
        """Operations completed without failure."""
        return self.attempted - self.failed

    def identity(self) -> tuple:
        """Everything simulated that must repeat exactly."""
        return (repr(sorted(self.fingerprint.items())),
                tuple(sorted(self.latencies_ns)), self.sim_elapsed_ns)


def _span(spans, name: str, layer: str):
    return nullcontext() if spans is None else spans.span(name, layer)


def _sim_counters(sims) -> Dict[str, float]:
    """Kernel and NIC counts from each simulator's metrics snapshot."""
    events = heap_peak = wrs = managed = batches = prefetched = 0
    for sim in sims:
        snap = sim.metrics.snapshot()
        events += snap["gauges"]["sim.events_executed"]
        heap_peak = max(heap_peak, snap["gauges"]["sim.heap_peak"])
        for name, counter in snap["counters"].items():
            if not name.startswith("nic."):
                continue
            if name.endswith(".wrs"):
                wrs += counter.get("total_wrs", 0)
            elif name.endswith(".fetch"):
                managed += counter.get("fetch_managed", 0)
                batches += counter.get("fetch_batches", 0)
                prefetched += counter.get("fetch_prefetched", 0)
    return {
        "sim.events": events,
        "sim.heap_peak": heap_peak,
        "nic.wrs_executed": wrs,
        "nic.wqe_fetches": managed + prefetched,
        "nic.fetch_batches": batches,
        "nic.prefetched_per_batch":
            prefetched / batches if batches else 0.0,
    }


def _redn_counters(offloads) -> Dict[str, float]:
    posted = sum(offload.instances_posted for offload in offloads)
    ops = sum(len(offload.builder.program.ops) for offload in offloads)
    return {
        "redn.instances_posted": posted,
        "redn.program_ops": ops,
        "redn.ops_per_instance": ops / posted if posted else 0.0,
    }


# -- kv_fleet / kv_fleet_observed --------------------------------------------


class KvFleet:
    """The sharded cuckoo-KV fleet at :func:`build_fleet` defaults.

    The fleet's key stream is a fixed function of (shard, client, seq)
    inside ``repro.bench.fleet``; ``seed`` is recorded but cannot reach
    it until the fleet accepts a seed of its own.
    """

    name = "kv_fleet"
    observed = False

    def __init__(self, seed: int, spans=None, **size):
        self.seed = seed
        self.spans = spans
        with _span(spans, "build_fleet", "bench"):
            # Empty telemetry path and zero exemplars keep the
            # environment variables build_fleet consults out of it.
            self.scenario = build_fleet(telemetry_path="", exemplars=0,
                                        **size)
        self.planned = (self.scenario.logical_connections
                        * self.scenario.requests_per_client)

    def close(self) -> None:
        """Detach what set-up attached; the plain fleet attaches nothing."""

    def _observed_counters(self) -> dict:
        return {}

    def run(self) -> RepResult:
        scenario = self.scenario
        spans = self.spans
        try:
            with _span(spans, "FleetScenario.run", "bench"):
                fingerprint, measures = scenario.run()
        except FleetError:
            return RepResult(self.planned, self.planned, [], 0,
                             {"error": "FleetError"}, {})
        finally:
            self.close()
        extra = self._observed_counters()
        rigs = scenario.rigs
        latencies = [lat for rig in rigs for lat in rig.latencies]
        # Every planned get completed, each shard's table still holds
        # the preloaded value bytes, and the executed counts add up.
        failed = self.planned - fingerprint["requests"]
        with _span(spans, "MemcachedServer.get", "apps"):
            for rig in rigs:
                for key in rig.owned_keys:
                    if rig.server.get(key) != \
                            bytes([key & 0xFF]) * VALUE_SIZE:
                        failed += 1
        if sum(rig.executed for rig in rigs) != fingerprint["requests"]:
            failed += 1
        per_shard = fingerprint["per_shard_events"]
        with _span(spans, "QpPool.stats", "net"):
            pools = [rig.pool.stats() for rig in rigs]
        with _span(spans, "MetricsRegistry.snapshot", "sim"):
            counters = _sim_counters(rig.sim for rig in rigs)
        counters.update(_redn_counters(
            [rig.offload for rig in rigs if rig.offload is not None]))
        counters.update({
            "sim.sharded.rounds": measures["rounds"],
            "sim.sharded.messages": measures["messages"],
            "sim.sharded.hot_shard_share": max(per_shard) / sum(per_shard),
            "net.pool.leases": sum(p["leases_granted"] for p in pools),
            "net.pool.recycles": sum(p["recycles"] for p in pools),
            "net.pool.peak_in_use": max(p["peak_in_use"] for p in pools),
            "net.pool.exhausted_hits": sum(p["exhausted_hits"]
                                           for p in pools),
            "net.pool.stale_cqes": sum(p["stale_cqes"] for p in pools),
            "net.doorbell_rings": fingerprint["doorbell_rings"],
        })
        counters.update(extra)
        return RepResult(self.planned, failed, latencies,
                         fingerprint["frontier_ns"], fingerprint, counters)


class KvFleetObserved(KvFleet):
    """``kv_fleet`` with every obs sink on.

    A :class:`Tracer` and a bounded :class:`FlightRecorder` cover both
    NICs of every shard, a :class:`FleetTelemetry` keeps tail exemplars,
    and a :class:`FleetSentry` subscribes to the window stream. Its
    simulated results must equal ``kv_fleet``'s, and the sentry must
    stay silent on this clean fleet.
    """

    name = "kv_fleet_observed"
    observed = True

    EXEMPLARS = 8
    RECORDER_CAPACITY = 1 << 14

    def __init__(self, seed: int, spans=None, **size):
        super().__init__(seed, spans=spans, **size)
        scenario = self.scenario
        with _span(spans, "FleetScenario.attach_telemetry", "obs"):
            self.telemetry = scenario.attach_telemetry(
                window_ns=DEFAULT_WINDOW_NS, exemplars=self.EXEMPLARS)
        self.tracers: List[Tracer] = []
        self.recorders: Dict[int, FlightRecorder] = {}
        with _span(spans, "Tracer+FlightRecorder.attach_nic", "obs"):
            for rig in scenario.rigs:
                tracer = Tracer(rig.sim, name=rig.shard.name)
                recorder = FlightRecorder(rig.sim, name=rig.shard.name,
                                          capacity=self.RECORDER_CAPACITY)
                for nic in (rig.bed.server.nic, rig.bed.clients[0].nic):
                    tracer.attach_nic(nic)
                    recorder.attach_nic(nic)
                self.tracers.append(tracer)
                self.recorders[rig.index] = recorder
        with _span(spans, "FleetSentry.subscribe", "obs"):
            self.sentry = FleetSentry(
                DEFAULT_WINDOW_NS, recorders=self.recorders,
                skew_min_total=3 * scenario.num_shards,
            ).subscribe(self.telemetry)

    def close(self) -> None:
        # Idempotent, and run even after a FleetError: a sink left
        # attached keeps the process-wide obs flag on for later runs.
        self.telemetry.close()
        for tracer in self.tracers:
            tracer.close()
        for recorder in self.recorders.values():
            recorder.close()

    def _observed_counters(self) -> dict:
        self.sentry.finalize()
        with _span(self.spans, "summarize_blame", "obs"):
            blame = summarize_blame(self.telemetry.records)
        counters = {
            "obs.tracer.events": sum(len(t.events) for t in self.tracers),
            "obs.recorder.records": sum(r.seq
                                        for r in self.recorders.values()),
            "obs.telemetry.records": len(self.telemetry.records),
            "obs.sentry.incidents": len(self.sentry.incidents),
            "obs.invariant_violations": sum(
                len(r.violations) for r in self.recorders.values()),
        }
        for phase, entry in blame["phases"].items():
            counters[f"blame.{phase}_ns"] = entry["mean_ns"]
        return counters

    def run(self) -> RepResult:
        result = super().run()
        # A clean fleet must raise no incident and break no invariant.
        if result.counters.get("obs.sentry.incidents") or \
                result.counters.get("obs.invariant_violations"):
            result.failed = result.attempted
        return result


# -- offload_chains ------------------------------------------------------------


class OffloadChains:
    """Closed loop of RedN offload calls on one testbed.

    The call mix is fixed -- ``HASH_SHARE`` of the calls are hash-gets
    cycling over the stored keys, the rest early-break traversals spread
    evenly over the list's nodes -- and the seed draws its order and
    the stored values. Every call posts its own chain instance before
    it triggers the offload, and every returned value is compared with
    the stored one.
    """

    name = "offload_chains"
    observed = False

    LIST_SIZE = 8
    TIMEOUT_NS = 10_000_000
    THINK_NS = 2_000
    #: 40% hash-gets puts the median among the second list node's
    #: latencies, clear of the hash/list boundary, so it holds across
    #: seeds.
    HASH_SHARE = 0.4

    def __init__(self, seed: int, spans=None, calls: int = 1000,
                 hash_keys: int = 512):
        self.spans = spans
        rng = random.Random(seed)
        with _span(spans, "Testbed", "bench"):
            self.bed = bed = Testbed(num_clients=1)
        client_nic = bed.clients[0].nic
        client_pd = bed.client_pd(0)
        verbs = bed.client_verbs(0)

        # Hash-get: a cuckoo KV holding distinct seeded values.
        keys = [1 + 7919 * index for index in range(hash_keys)]
        self.values: Dict[int, bytes] = {
            key: rng.randbytes(VALUE_SIZE) for key in keys}
        with _span(spans, "MemcachedServer.set", "apps"):
            self.store = MemcachedServer(bed.server)
            for key, value in self.values.items():
                self.store.set(key, value)
        with _span(spans, "MemcachedServer.attach_get_offload", "offloads"):
            self.hash, hash_conn = self.store.attach_get_offload(
                client_nic, client_pd, max_instances=8, name="oc-hash")
            self.hash_client = OffloadClient(hash_conn, verbs)

        # Early-break list traversal over an 8-node list.
        self.list_values: Dict[int, bytes] = {
            0x100 + index: rng.randbytes(VALUE_SIZE)
            for index in range(self.LIST_SIZE)}
        proc = bed.server.spawn_process("list-server")
        pd = proc.create_pd()
        slab_alloc = proc.alloc(1024 * 1024, label="slab")
        node_alloc = proc.alloc(64 * 1024, label="nodes")
        data_mr = pd.register(node_alloc)
        pd.register(slab_alloc)
        with _span(spans, "LinkedList.append", "datastructs"):
            linked = LinkedList(bed.server.memory, node_alloc,
                                SlabStore(bed.server.memory, slab_alloc))
            for key, value in self.list_values.items():
                linked.append(key, value)
        with _span(spans, "ListTraversalOffload", "offloads"):
            ctx = RednContext(bed.server.nic, pd, process=proc)
            list_conn = OffloadConnection(ctx, client_nic, client_pd,
                                          name="oc-list")
            self.list = ListTraversalOffload(ctx, linked, data_mr,
                                             list_conn,
                                             max_nodes=self.LIST_SIZE,
                                             use_break=True)
            self.list_client = OffloadClient(list_conn, verbs)

        hash_calls = round(calls * self.HASH_SHARE)
        list_keys = sorted(self.list_values)
        self.plan = ([("hash", keys[i % len(keys)])
                      for i in range(hash_calls)]
                     + [("list", list_keys[i % len(list_keys)])
                        for i in range(calls - hash_calls)])
        rng.shuffle(self.plan)

    def close(self) -> None:
        """Nothing to detach: the testbed is freed with the rig."""

    def _calls(self, latencies: List[int], failures: List[int]):
        spans = self.spans
        for index, (kind, key) in enumerate(self.plan):
            if kind == "hash":
                offload, client = self.hash, self.hash_client
                expected = self.values[key]
            else:
                offload, client = self.list, self.list_client
                expected = self.list_values[key]
            instance = offload.instances_posted
            if spans is None:
                offload.post_instances(1)
                result = yield from client.call(offload.payload_for(key),
                                                timeout_ns=self.TIMEOUT_NS)
            else:
                began = time.perf_counter()
                offload.post_instances(1)
                posted = time.perf_counter()
                spans.add("post_instances", "redn", began, posted, index)
                result = yield from client.call(offload.payload_for(key),
                                                timeout_ns=self.TIMEOUT_NS)
                spans.add("OffloadClient.call", "redn", posted,
                          time.perf_counter(), index)
            if kind == "list":
                offload.finish_request(instance)
            if result.ok and result.data == expected:
                latencies.append(result.latency_ns)
            else:
                failures.append(index)
            yield self.THINK_NS

    def run(self) -> RepResult:
        bed = self.bed
        latencies: List[int] = []
        failures: List[int] = []
        start = bed.sim.now
        with _span(self.spans, "Testbed.run", "bench"):
            bed.run(self._calls(latencies, failures))
        elapsed = bed.sim.now - start
        with _span(self.spans, "MetricsRegistry.snapshot", "sim"):
            counters = _sim_counters([bed.sim])
        counters.update(_redn_counters([self.hash, self.list]))
        fingerprint = {
            "calls": len(self.plan),
            "failures": failures,
            "events": counters["sim.events"],
            "wrs": counters["nic.wrs_executed"],
        }
        return RepResult(len(self.plan), len(failures), latencies, elapsed,
                         fingerprint, counters)


# -- verb_flood ------------------------------------------------------------------


class VerbFlood:
    """ib_write_bw-style waves over 8 QPs: WRITE, then READ, then CAS.

    Each wave is unsignaled except its signaled tail, and its
    simulated latency runs from the first post until the host polls
    the tail's CQE. Every QP runs, in each phase, the same ``waves``
    wave sizes spread evenly over ``[min_wave, max_wave]``; the seed
    draws their order and the QP start order. Each QP owns a 64 B slot
    and an 8 B counter word on the server: WRITEs store a seeded pattern, READs must fetch it back,
    and the CAS chain ``i -> i+1`` must leave the counter at the number
    of CAS verbs posted, which also proves they executed in order.
    """

    name = "verb_flood"
    observed = False

    PHASES = ("write", "read", "cas")
    SLOT = 64

    def __init__(self, seed: int, spans=None, qps: int = 8, waves: int = 48,
                 min_wave: int = 8, max_wave: int = 64):
        self.spans = spans
        rng = random.Random(seed)
        with _span(spans, "Testbed", "bench"):
            self.bed = bed = Testbed(num_clients=1)
        proc = bed.server.spawn_process("flood-sink")
        pd = proc.create_pd()
        self.sink = proc.alloc(self.SLOT * qps, label="flood-slots")
        self.counters = proc.alloc(8 * qps, label="flood-counters")
        self.sink_rkey = pd.register(self.sink, access=AccessFlags.ALL).rkey
        self.counter_rkey = pd.register(self.counters,
                                        access=AccessFlags.ALL).rkey
        client = bed.clients[0]
        self.qps = []
        with _span(spans, "create_qp+connect", "nic"):
            for index in range(qps):
                server_qp = proc.create_qp(pd, name=f"flood-s{index}")
                client_qp = client.nic.create_qp(
                    bed.client_pd(0), send_slots=2 * max_wave,
                    name=f"flood-c{index}")
                server_qp.connect(client_qp)
                self.qps.append(client_qp)
        self.src = client.memory.alloc(self.SLOT * qps, owner="client")
        self.dst = client.memory.alloc(self.SLOT * qps, owner="client")
        self.cas_out = client.memory.alloc(8 * qps, owner="client")
        self.pattern = rng.randbytes(self.SLOT * qps)
        client.memory.write(self.src.addr, self.pattern)
        self.order = list(range(qps))
        rng.shuffle(self.order)
        sizes = [min_wave + (max_wave - min_wave) * index // max(1, waves - 1)
                 for index in range(waves)]
        self.waves = {phase: [rng.sample(sizes, waves) for _ in range(qps)]
                      for phase in self.PHASES}

    def close(self) -> None:
        """Nothing to detach: the testbed is freed with the rig."""

    def _make(self, phase: str, qp: int, seq: int):
        slot = self.SLOT * qp
        if phase == "write":
            return wr_write(self.src.addr + slot, self.SLOT,
                            self.sink.addr + slot, self.sink_rkey,
                            signaled=False)
        if phase == "read":
            return wr_read(self.dst.addr + slot, self.SLOT,
                           self.sink.addr + slot, self.sink_rkey,
                           signaled=False)
        return wr_cas(self.counters.addr + 8 * qp, self.counter_rkey,
                      seq, seq + 1, result_laddr=self.cas_out.addr + 8 * qp,
                      signaled=False)

    def _flood(self, phase: str, qp_index: int, latencies: List[int],
               bad: List[int]):
        sim = self.bed.sim
        qp = self.qps[qp_index]
        cq = qp.send_wq.cq
        seq = 0
        for size in self.waves[phase][qp_index]:
            base = cq.count
            start = sim.now
            for index in range(size):
                wqe = self._make(phase, qp_index, seq)
                seq += 1
                if index == size - 1:
                    wqe.flags |= 0x1
                qp.post_send(wqe)
            cqe = cq.poll()
            while cqe is None:
                yield cq.wait_for_event()
                cqe = cq.poll()
            latencies.append(sim.now - start)
            # Exactly one completion per wave, the signaled tail, and
            # it succeeded: an unsignaled WR that failed would add one.
            if not cqe.ok or cq.count != base + 1:
                bad.append(qp_index)
        if cq.poll() is not None:
            bad.append(qp_index)

    def _phase(self, phase: str, latencies: List[int], bad: List[int]):
        sim = self.bed.sim
        procs = [sim.process(self._flood(phase, qp, latencies, bad),
                             name=f"flood-{phase}{qp}")
                 for qp in self.order]
        for proc in procs:
            if not proc.triggered:
                yield proc

    def run(self) -> RepResult:
        bed = self.bed
        server_mem = bed.server.memory
        client_mem = bed.clients[0].memory
        latencies: List[int] = []
        bad: List[int] = []
        start = bed.sim.now
        phase_ns = {}
        for phase in self.PHASES:
            began = bed.sim.now
            with _span(self.spans, f"Testbed.run[{phase}]", "bench"):
                bed.run(self._phase(phase, latencies, bad))
            phase_ns[phase] = bed.sim.now - began
        elapsed = bed.sim.now - start
        attempted = sum(sum(sizes) for waves in self.waves.values()
                        for sizes in waves)
        failed = len(bad)
        if server_mem.read(self.sink.addr, len(self.pattern)) != self.pattern:
            failed += 1
        if client_mem.read(self.dst.addr, len(self.pattern)) != self.pattern:
            failed += 1
        for qp in range(len(self.qps)):
            posted = sum(self.waves["cas"][qp])
            if server_mem.read_u64(self.counters.addr + 8 * qp) != posted:
                failed += 1
        with _span(self.spans, "MetricsRegistry.snapshot", "sim"):
            counters = _sim_counters([bed.sim])
        fingerprint = {
            "verbs": attempted,
            "phase_ns": phase_ns,
            "events": counters["sim.events"],
            "wrs": counters["nic.wrs_executed"],
        }
        return RepResult(attempted, min(failed, attempted), latencies,
                         elapsed, fingerprint, counters)


WORKLOADS = {
    KvFleet.name: KvFleet,
    KvFleetObserved.name: KvFleetObserved,
    OffloadChains.name: OffloadChains,
    VerbFlood.name: VerbFlood,
}
