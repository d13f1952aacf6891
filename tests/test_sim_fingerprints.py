"""Simulated-result fingerprints of three canonical workloads, pinned.

The oracle behind the obs-off neutrality gate: each workload runs once
with no sink attached, and its simulated results and kernel event count
must equal the committed pins in ``tests/data/sim_fingerprints.json``
exactly.

* ``fig13_list_traversal`` — non-break list-traversal offload calls
  over one client connection: managed WAIT/ENABLE queues and
  self-modifying WQE chains.
* ``table3_flood`` — WRITE then CAS floods across 8 QPs: batch
  prefetch, pipelined completions, atomic serialization.
* ``fleet_simspeed`` — ``build_fleet()``: the 8-shard cuckoo-KV fleet.

The two single-bed workloads also run with a tracer, a flight
recorder and telemetry attached, and must hit the same pins: no
simulator decision may depend on whether a sink listens.

The sharded fleet runs under both drives, which must agree bit for
bit. Each drive's synchronizer ``rounds`` is pinned too: the
sharded drive visits the synchronizer far less often than the
one-timestamp-window serial merge. That count is deterministic; it is
not a measure of parallel speedup.
"""

import json
from pathlib import Path

import pytest

from repro.bench.fleet import build_fleet

PINS = json.loads((Path(__file__).parent / "data"
                   / "sim_fingerprints.json").read_text())

LIST_SIZE = 8
VALUE_SIZE = 64


def _attach_sinks(bed):
    """A Tracer and a FlightRecorder on every NIC of ``bed``, and a
    telemetry collector on its simulator."""
    from repro.obs import FleetTelemetry, FlightRecorder, Tracer

    tracer = Tracer(bed.sim, name="fp")
    recorder = FlightRecorder(bed.sim, name="fp")
    for nic in [bed.server.nic] + [client.nic for client in bed.clients]:
        tracer.attach_nic(nic)
        recorder.attach_nic(nic)
    telemetry = FleetTelemetry()
    telemetry.attach(bed.sim, bed="fp")
    return tracer, recorder, telemetry


def _build_fig13(calls: int = 48, sinks: list = None):
    """Fig 13 replay: list-traversal offload calls over one client.

    With ``sinks`` (a list), obs sinks are attached before anything
    else is built and appended to it."""
    from repro.bench import Testbed
    from repro.datastructs import LinkedList, SlabStore
    from repro.offloads.list_traversal import ListTraversalOffload
    from repro.redn import RednContext
    from repro.redn.offload import OffloadClient, OffloadConnection

    bed = Testbed(num_clients=1)
    if sinks is not None:
        sinks.extend(_attach_sinks(bed))
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


def _build_table3(qps_n: int = 8, ops_per_qp: int = 512, wave: int = 256,
                  sinks: list = None):
    """Table 3 replay: WRITE then CAS floods across ``qps_n`` QPs
    (``sinks`` as for :func:`_build_fig13`)."""
    from repro.bench import Testbed
    from repro.ibv import wr_cas, wr_write

    bed = Testbed(num_clients=1)
    if sinks is not None:
        sinks.extend(_attach_sinks(bed))
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


def _events_executed(sim) -> int:
    return sim.metrics.snapshot()["gauges"]["sim.events_executed"]


@pytest.mark.parametrize("name, build", [
    ("fig13_list_traversal", _build_fig13),
    ("table3_flood", _build_table3),
])
def test_single_bed_fingerprint(name, build):
    sim, run = build()
    before = _events_executed(sim)
    fingerprint = run()
    assert fingerprint == PINS[name]["fingerprint"]
    assert _events_executed(sim) - before == PINS[name]["events"]


@pytest.mark.parametrize("name, build", [
    ("fig13_list_traversal", _build_fig13),
    ("table3_flood", _build_table3),
])
def test_attached_sinks_leave_schedule_unchanged(name, build):
    """Obs sinks only listen: with a tracer, a flight recorder and
    telemetry attached, the kernel runs the same events and the
    simulated results equal the pins. No simulator decision may depend
    on whether a sink listens."""
    sinks = []
    sim, run = build(sinks=sinks)
    fingerprint = run()
    tracer, recorder, telemetry = sinks
    assert len(tracer.events) and recorder.seq
    assert telemetry.collectors
    assert fingerprint == PINS[name]["fingerprint"]
    assert _events_executed(sim) == PINS[name]["events"]


@pytest.mark.parametrize("name, build", [
    ("fleet_simspeed", build_fleet),
])
def test_sharded_fingerprint_under_both_drives(name, build):
    pin = PINS[name]
    for drive, serial in (("sharded", False), ("serial", True)):
        scenario = build()
        before = sum(scenario.events_executed())
        fingerprint, measures = scenario.run(serial=serial)
        assert fingerprint == pin["fingerprint"], drive
        assert sum(scenario.events_executed()) - before == pin["events"]
        assert measures["rounds"] == pin["rounds"][drive], drive
