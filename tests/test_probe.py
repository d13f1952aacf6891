"""The probe contract: one event vocabulary, fanned out per simulator.

Every instrumentation site emits each event once through ``sim.probe``;
the capture behind the tracer and the flight recorder, and the
telemetry collector, are sinks on it. These tests hold the probe to four promises:

* a counting sink sees, per event kind, exactly what the three real
  sinks record (tracer events, journal records, telemetry counters) —
  over hash-get and list-traversal offload runs and a 2-shard fleet;
* attachment is per simulator: a sink left on one simulator leaves a
  fresh one on the obs-off path (every kind an empty tuple);
* ``close()`` takes each sink off the probe again;
* a second sink of one class on one simulator raises
  :class:`SinkAttachedError`, naming the simulator and the sink
  already attached.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.ibv import wr_write
from repro.obs import (FleetTelemetry, FlightRecorder, SinkAttachedError,
                       Tracer)
from repro.obs.probe import KINDS
from repro.sim import Simulator

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOLS = str(REPO_ROOT / "tools")
if TOOLS not in sys.path:
    sys.path.append(TOOLS)


class CountingSink:
    """Counts every probe event by kind (a ``post`` by the WRs of its
    ring run), plus the DMA bytes it saw."""

    def __init__(self, sim):
        self.counts = Counter()
        self.dma_bytes = 0
        sim.probe.attach(self)

    def on_dma(self, nic, nbytes, start_ns):
        self.counts["dma"] += 1
        self.dma_bytes += nbytes

    def on_post(self, wq, wr_index, slot_cursor, data, count):
        """One event per ring run: count its WRs."""
        self.counts["post"] += count
        self.counts["post_events"] += 1


def _counter(kind):
    def hook(self, *args):
        self.counts[kind] += 1
    return hook


for _kind in KINDS:
    if not hasattr(CountingSink, f"on_{_kind}"):
        setattr(CountingSink, f"on_{_kind}", _counter(_kind))


def _nic_totals(nics):
    """The NICs' own monotonic counters: ground truth for "once"."""
    totals = Counter()
    for nic in nics:
        totals["execute"] += nic.stats["total_wrs"]
        totals["cqe"] += sum(cq.count for cq in nic.cqs.values())
        for wq in nic.wqs.values():
            totals["post"] += wq.posted_count
            totals["fetch"] += wq.fetched_count
    return totals


def _attach_all(sim, nics, bed):
    """Tracer, recorder and counting sink (telemetry is the caller's)."""
    tracer = Tracer(sim, name=bed)
    recorder = FlightRecorder(sim, name=bed, capacity=1 << 20)
    for nic in nics:
        tracer.attach_nic(nic)
        recorder.attach_nic(nic)
    sink = CountingSink(sim)
    sink.before = _nic_totals(nics)
    return tracer, recorder, sink


def _check_once(sink, nics):
    """Each event was emitted exactly once per NIC-level occurrence."""
    counts = sink.counts
    after = _nic_totals(nics)
    after.subtract(sink.before)
    assert after["post"] == counts["post"]
    assert after["fetch"] == counts["fetch"] + counts["recv_fetch"]
    assert after["execute"] == counts["execute"]
    assert after["cqe"] == counts["cqe"]


def _tracer_counts(tracer):
    counts = Counter()
    for ph, cat, name, *_ in tracer.events:
        if cat == "queue":
            counts["post" if name.startswith("post:") else name] += 1
        elif cat == "fetch":
            counts["fetch" if ph == "i" else "fetch_span"] += 1
        elif cat == "exec":
            counts["done" if name.startswith("op:") else "pu"] += 1
        elif cat == "sync" and name in ("WAIT", "ENABLE"):
            counts[name.lower()] += 1
        elif cat == "cqe" and name.startswith("cqe:"):
            counts["cqe"] += 1
        elif cat == "dma":
            counts["dma" if name.startswith("dma[") else "dma_txn"] += 1
        elif cat == "conn":
            if name.startswith("batch["):
                counts["doorbell_batch"] += 1
            elif name.startswith("demux"):
                counts["cqe_demux"] += 1
            else:
                counts[name] += 1
        elif cat in ("atomic", "wire", "offload"):
            counts[{"offload": "offload_call"}.get(cat, cat)] += 1
        elif cat == "link":
            counts["link_send"] += 1
    return counts


def _check_sinks(tracer, recorder, records, sink):
    counts = sink.counts
    traced = _tracer_counts(tracer)
    for kind in ("post", "doorbell", "fetch", "fetch_span", "pu", "done",
                 "wait", "enable", "cqe", "dma", "dma_txn", "atomic",
                 "wire", "offload_call", "doorbell_batch", "cqe_demux",
                 "link_send"):
        assert traced[kind] == counts[kind], kind
    # The tracer drops zero-wait lease acquisitions; telemetry counts all.
    assert traced["pool_wait"] <= counts["pool_acquire"]

    assert recorder.seq == len(recorder.records)  # nothing evicted
    journaled = Counter(record["kind"] for record in recorder.records)
    for kind in ("post", "doorbell", "fetch", "wait", "enable", "done",
                 "cqe", "atomic"):
        assert journaled[kind] == counts[kind], kind
    assert journaled["exec"] == counts["execute"]

    def total(field):
        return sum(record[field] for record in records)

    assert total("posts") == counts["post"]
    assert total("doorbells") == counts["doorbell"]
    assert total("fetches") == counts["fetch"] + counts["recv_fetch"]
    assert total("wrs") == counts["execute"]
    assert total("cqes") == counts["cqe"]
    assert total("dma_bytes") == sink.dma_bytes
    assert total("requests") == counts["request"] + counts["offload_call"]
    assert total("serviced") == counts["serviced"]
    assert sum(record["pool_wait"]["count"] for record in records
               if "pool_wait" in record) == counts["pool_acquire"]
    assert counts["post"] and counts["fetch"] and counts["cqe"]


@pytest.mark.parametrize("offload", ["hash-lookup", "list-traversal"])
def test_counting_sink_matches_sinks_on_offload_runs(offload):
    from _offload_runners import run_offload

    fleet = FleetTelemetry()
    attached = {}

    def instrument(bed, label):
        attached["nics"] = [bed.server.nic] + [client.nic
                                               for client in bed.clients]
        fleet.attach(bed.sim, bed=label)
        attached["sinks"] = _attach_all(bed.sim, attached["nics"], label)

    run_offload(offload, 3, instrument=instrument)
    records = fleet.finalize()
    tracer, recorder, sink = attached["sinks"]
    _check_sinks(tracer, recorder, records, sink)
    _check_once(sink, attached["nics"])
    assert sink.counts["offload_call"] == 3
    assert sink.counts["wait"]
    tracer.close()
    recorder.close()
    fleet.close()


def test_counting_sink_matches_sinks_on_two_shard_fleet():
    from repro.bench.fleet import FleetScenario

    scenario = FleetScenario(num_shards=2, clients_per_shard=4,
                             requests_per_client=3, pool_qps=2,
                             batch_doorbells=True, gateway_workers=2,
                             link_ns=1000)
    fleet = scenario.attach_telemetry(window_ns=20_000)
    sinks = [_attach_all(rig.sim, (rig.bed.server.nic,
                                   rig.bed.clients[0].nic), rig.shard.name)
             for rig in scenario.rigs]
    scenario.run()
    for rig, (tracer, recorder, sink) in zip(scenario.rigs, sinks):
        records = [record for record in fleet.records
                   if record["bed"] == rig.shard.name]
        _check_sinks(tracer, recorder, records, sink)
        _check_once(sink, (rig.bed.server.nic, rig.bed.clients[0].nic))
        assert sink.counts["request"] and sink.counts["pool_acquire"]
        tracer.close()
        recorder.close()
    assert sum(sink.counts["link_send"] for *_, sink in sinks) \
        == scenario.sharded.fabric.messages_sent > 0


def test_stamped_instance_posts_one_event_per_ring_run():
    """A stamped hash-lookup instance announces each contiguous ring run
    it writes as one ``post`` event carrying its WR count, not one
    event per WR; the journal still holds one record per WR."""
    from repro.apps import MemcachedServer
    from repro.bench import Testbed
    from repro.redn.template import _RUN

    bed = Testbed(num_clients=1)
    store = MemcachedServer(bed.server)
    store.set(0x30, b"value", force_bucket=0)
    offload, _conn = store.attach_get_offload(
        bed.clients[0].nic, bed.client_pd(0), max_instances=4)
    offload.post_instances(2)  # instances 0 and 1 are built through IR
    nics = [bed.server.nic, bed.clients[0].nic]
    tracer, recorder, sink = _attach_all(bed.sim, nics, "hash-lookup")
    offload.post_instances(1)
    runs = [step for step in offload._poster.template._bound[None].runs
            if step[0] == _RUN]
    assert sink.counts["post_events"] == len(runs)
    assert sink.counts["post"] == sum(step[4] for step in runs)
    assert sink.counts["post_events"] < sink.counts["post"]
    _check_once(sink, nics)
    assert sum(record["kind"] == "post" for record in recorder.records) \
        == sink.counts["post"]
    tracer.close()
    recorder.close()


def _obs_off(sim):
    return sim.probe.sinks == [] and all(
        getattr(sim.probe, kind) == () for kind in KINDS)


def test_sink_on_one_simulator_leaves_another_obs_off(lo):
    other = Simulator()
    leaked = CountingSink(other)
    tracer = Tracer(Simulator())  # never closed, as after a failed run
    assert _obs_off(lo.sim)
    src, _ = lo.buffer(64)
    dst, dst_mr = lo.buffer(64)
    lo.qp_a.post_send(wr_write(src.addr, 64, dst.addr, dst_mr.rkey,
                               signaled=True))

    def drain():
        yield lo.sim.timeout(100_000)

    lo.run(drain())
    assert lo.qp_a.send_wq.cq.count == 1
    assert not leaked.counts and not tracer.events
    assert _obs_off(lo.sim)


def test_close_empties_the_probe(lo):
    tracer = Tracer(lo.sim)
    recorder = FlightRecorder(lo.sim)
    fleet = FleetTelemetry()
    fleet.attach(lo.sim)
    tracer.attach_nic(lo.nic)
    recorder.attach_nic(lo.nic)
    # The tracer and recorder share one capture sink.
    assert len(lo.sim.probe.sinks) == 2 and lo.sim.probe.post
    assert lo.memory._store_hooks
    tracer.close()
    recorder.close()
    fleet.close()
    assert _obs_off(lo.sim)
    assert not lo.memory._store_hooks


@pytest.mark.parametrize("make", [
    lambda sim: Tracer(sim),
    lambda sim: FlightRecorder(sim),
    lambda sim: FleetTelemetry().attach(sim),
], ids=["tracer", "recorder", "telemetry"])
def test_duplicate_attach_raises_sink_attached_error(lo, make):
    first = make(lo.sim)
    with pytest.raises(SinkAttachedError) as excinfo:
        make(lo.sim)
    assert isinstance(excinfo.value, ValueError)
    message = str(excinfo.value)
    assert repr(lo.sim) in message and repr(first) in message
    sink = getattr(first, "_capture", first)
    assert lo.sim.probe.sinks == [sink]
    lo.sim.probe.detach(sink)
    assert _obs_off(lo.sim)


def _naive_first_region(regions, addr, length):
    """Lowest annotated region a store overlaps: the reference scan."""
    end = addr + length
    for start, stop, label in sorted(regions):
        if start >= end:
            return None
        if stop > addr:
            return (start, stop, label)
    return None


def test_store_index_matches_per_watch_scan():
    """Two watches on one memory, each with its own hook and bisected
    index: each sees the lowest region it annotated, even when regions
    nest, overlap, repeat or belong to only one watch."""
    import random

    from repro.memory import HostMemory
    from repro.obs.probe import StoreWatch

    memory = HostMemory(size=1 << 16, name="m")
    base = memory.BASE_ADDR
    memory.register_generation_range(base, 4096)
    seen = {"a": [], "b": []}
    watches = {name: StoreWatch(lambda _m, addr, length, region, name=name:
                                seen[name].append((addr, length, region)))
               for name in seen}
    rng = random.Random(7)
    annotated = {"a": {}, "b": {}}
    for step in range(400):
        name = rng.choice("ab")
        start = base + rng.randrange(0, 4000)
        size = rng.choice([8, 64, 64, 256, 1024])
        label = f"{name}{step}"
        watches[name].annotate(memory, start, size, label)
        annotated[name].setdefault((start, start + size), label)
        addr = base + rng.randrange(0, 4000)
        length = rng.choice([1, 8, 64, 512])
        for key in seen:
            seen[key].clear()
        memory.write(addr, bytes(length))
        for key in seen:
            regions = [(s, e, lab) for (s, e), lab
                       in annotated[key].items()]
            want = _naive_first_region(regions, addr, length)
            assert seen[key] == ([(addr, length, want)] if want else [])
    assert len(memory._store_hooks) == 2
    watches["a"].close()
    before = len(seen["a"])
    memory.write(base, bytes(4096))
    assert len(seen["a"]) == before
    assert seen["b"][-1][2] == min(
        (s, e, lab) for (s, e), lab in annotated["b"].items())
    watches["b"].close()
    assert not memory._store_hooks


def test_store_index_forgets_torn_down_regions():
    """Regions dropped with ``forget`` (a destroyed queue's ring) stop
    matching stores; the other watch's regions, nested or overlapping
    ones included, still resolve to the lowest remaining region."""
    import random

    from repro.memory import HostMemory
    from repro.obs.probe import StoreWatch

    memory = HostMemory(size=1 << 16, name="m")
    base = memory.BASE_ADDR
    memory.register_generation_range(base, 4096)
    seen = {"a": [], "b": []}
    watches = {name: StoreWatch(lambda _m, addr, length, region, name=name:
                                seen[name].append((addr, length, region)))
               for name in seen}
    rng = random.Random(11)
    annotated = {"a": {}, "b": {}}
    for step in range(600):
        name = rng.choice("ab")
        if annotated[name] and rng.random() < 0.4:
            start, end = rng.choice(sorted(annotated[name]))
            watches[name].forget(memory, start, end - start)
            del annotated[name][(start, end)]
        else:
            start = base + rng.randrange(0, 4000)
            size = rng.choice([8, 64, 64, 256, 1024])
            watches[name].annotate(memory, start, size, f"{name}{step}")
            annotated[name].setdefault((start, start + size),
                                       f"{name}{step}")
        addr = base + rng.randrange(0, 4000)
        length = rng.choice([1, 8, 64, 512])
        for key in seen:
            seen[key].clear()
        memory.write(addr, bytes(length))
        for key in seen:
            regions = [(s, e, lab) for (s, e), lab
                       in annotated[key].items()]
            want = _naive_first_region(regions, addr, length)
            assert seen[key] == ([(addr, length, want)] if want else [])
            assert watches[key].regions.get(id(memory), []) == sorted(regions)
