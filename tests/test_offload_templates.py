"""Compiled offload templates: stamped instances equal IR-built ones.

Offloads lower their first two request instances through the IR and
stamp every later one from a compiled byte template
(:mod:`repro.redn.template`). These tests hold the stamps to the IR
path: a reference rig lowers *every* instance through the offload's
private per-instance IR builder, and the two rigs must leave identical
DRAM (rings included) and identical results, with the same journal
records apart from how stamps group their ring writes, while the
stamping rig's program stays O(1) in requests.
"""

from collections import Counter

import pytest

from repro.datastructs import (
    BUCKET_SIZE,
    CuckooTable,
    LinkedList,
    SlabStore,
)
from repro.ibv import VerbsContext, wr_noop
from repro.memory import HostMemory, ProtectionDomain
from repro.net import Fabric
from repro.nic import RNIC, QueueError
from repro.nic.wqe import WQE_SLOT_SIZE, split_run
from repro.obs import FlightRecorder, Tracer
from repro.obs.recorder import Journal
from repro.obs.tracediff import diff_journals, render_report
from repro.offloads.hash_lookup import HashGetOffload
from repro.offloads.list_traversal import ListTraversalOffload
from repro.redn import ProgramBuilder, RednContext
from repro.redn.ir import HostValue
from repro.redn.offload import OffloadClient, OffloadConnection
from repro.redn.program import ProgramError
from repro.redn.template import InstancePoster
from repro.sim import Simulator

VARIANTS = ["hash-seq", "hash-par", "list-plain", "list-break"]
LIST_KEYS = [11, 22, 33]
HASH_KEYS = [0x30 + index for index in range(8)]


class Rig:
    """One server + client pair running one offload variant.

    Rings are sized small so a few dozen instances wrap every shared
    ring: the response lane (client-facing send queue), the trigger
    RECV queue, and the hash worker/control rings.
    """

    def __init__(self, variant: str, observe: bool = False,
                 lane_slots: int = 32, recv_slots: int = 32,
                 checkpoint_interval: int = 1024, **kwargs):
        self.variant = variant
        self.sim = Simulator()
        self.server_mem = HostMemory(name="srv", size=64 * 1024 * 1024)
        self.client_mem = HostMemory(name="cli")
        self.server_nic = RNIC(self.sim, self.server_mem, name="snic")
        self.client_nic = RNIC(self.sim, self.client_mem, name="cnic")
        Fabric(self.sim).connect(self.server_nic, self.client_nic)
        self.obs = []
        if observe:
            tracer = Tracer(self.sim)
            recorder = FlightRecorder(
                self.sim, checkpoint_interval=checkpoint_interval)
            for sink in (tracer, recorder):
                sink.attach_nic(self.server_nic)
                sink.attach_nic(self.client_nic)
            self.obs = [tracer, recorder]
        server_pd = ProtectionDomain(self.server_mem, name="spd")
        client_pd = ProtectionDomain(self.client_mem, name="cpd")
        ctx = RednContext(self.server_nic, server_pd, owner="srv")
        slab_alloc = ctx.alloc(1024 * 1024, label="slab")
        slab = SlabStore(self.server_mem, slab_alloc)
        parallel = variant == "hash-par"
        conn = OffloadConnection(
            ctx, self.client_nic, client_pd,
            num_lanes=2 if parallel else 1, send_slots=lane_slots,
            recv_slots=recv_slots, name="conn")
        if variant.startswith("hash"):
            table_alloc = ctx.alloc(256 * BUCKET_SIZE, label="table")
            table_mr = server_pd.register(table_alloc)
            table = CuckooTable(self.server_mem, table_alloc, 256, slab)
            self.values = {}
            for key in HASH_KEYS:
                self.values[key] = f"value-{key:#x}".encode()
                table.insert(key, self.values[key])
            self.offload = HashGetOffload(ctx, table, table_mr, conn,
                                          parallel=parallel, **kwargs)
        else:
            node_alloc = ctx.alloc(64 * 1024, label="nodes")
            data_mr = server_pd.register(node_alloc)
            linked = LinkedList(self.server_mem, node_alloc, slab)
            self.values = {}
            for key in LIST_KEYS:
                self.values[key] = f"node-{key}".encode()
                linked.append(key, self.values[key])
            self.offload = ListTraversalOffload(
                ctx, linked, data_mr, conn, max_nodes=len(LIST_KEYS),
                use_break=variant == "list-break")
        self.client = OffloadClient(conn, VerbsContext(self.sim))

    @property
    def keys(self):
        return sorted(self.values)

    def post_ir(self, count: int) -> None:
        """Lower ``count`` instances through the private IR builder."""
        offload = self.offload
        for _ in range(count):
            instance = offload.instances_posted
            posted = offload._poster.build(instance)
            if self.variant == "list-break":
                offload._track(instance, posted)
            offload.instances_posted += 1

    def serve(self, count: int, ir: bool = False, post: bool = True):
        """Post and serve ``count`` requests one at a time."""
        results = []
        for index in range(count):
            if post and ir:
                self.post_ir(1)
            elif post:
                self.offload.post_instances(1)
            instance = self.offload.instances_posted - 1
            key = self.keys[index % len(self.keys)]

            def call():
                result = yield from self.client.call(
                    self.offload.payload_for(key), timeout_ns=5_000_000)
                return result
            result = self.sim.run_process(call())
            if self.variant == "list-break":
                self.offload.finish_request(instance)
            assert result.ok and result.data == self.values[key], \
                f"{self.variant} request {index} for key {key}"
            results.append((result.latency_ns, result.immediate))
        return results

    def dram(self):
        return (bytes(self.server_mem._bytes[:self.server_mem._next]),
                bytes(self.client_mem._bytes[:self.client_mem._next]))


class _Straddles:
    """Probe sink noting 2-slot posts that wrap their ring's edge."""

    def __init__(self, sim):
        self.seen = []
        sim.probe.attach(self)

    def on_post(self, wq, wr_index, slot_cursor, data, count):
        for offset, slots, _op in split_run(data):
            cursor = slot_cursor + offset // WQE_SLOT_SIZE
            if cursor % wq.num_slots + slots > wq.num_slots:
                self.seen.append((wq.name, wr_index, slots))
            wr_index += 1


def _pad_list_worker(rig: Rig) -> None:
    """Shift the plain variant's worker ring by 3 slots so a 2-slot node
    READ eventually starts in the ring's last slot."""
    for _ in range(3):
        rig.offload.worker.post(wr_noop())


@pytest.mark.parametrize("variant", VARIANTS)
def test_stamps_match_ir_build(variant):
    """Ring bytes, DRAM images and results equal an all-IR reference,
    across enough instances to wrap every shared ring."""
    count = 140 if variant.startswith("hash") else 60
    rigs = []
    for ir in (False, True):
        rig = Rig(variant)
        straddles = _Straddles(rig.sim)
        if variant == "list-plain":
            _pad_list_worker(rig)
        results = rig.serve(count, ir=ir)
        rigs.append((rig, results, straddles.seen))
    (stamped, results, seen), (reference, ref_results, ref_seen) = rigs
    assert results == ref_results
    assert seen == ref_seen
    if variant == "list-plain":
        assert any(name.endswith("-w-a-sq") for name, _i, _s in seen)
    assert stamped.sim.now == reference.sim.now
    assert stamped.dram() == reference.dram()
    offload = stamped.offload
    if variant.startswith("hash"):
        shared = offload.workers + offload.controls + offload.response_lanes
    else:
        shared = [offload.lane] + ([] if offload.use_break
                                   else [offload.worker, offload.control])
    wqs = [queue.wq for queue in shared]
    wqs.append(offload.conn.server_qp.recv_wq)
    for wq in wqs:
        assert wq._post_slot_cursor > wq.num_slots, f"{wq!r} never wrapped"


@pytest.mark.parametrize("variant", VARIANTS)
def test_program_size_constant_in_requests(variant):
    """Soak: program, builder and queue bookkeeping stop growing."""
    rig = Rig(variant)

    def sizes():
        offload = rig.offload
        program = offload.builder.program
        return (len(program.ops), len(program.edges),
                len(offload.builder.refs), len(program.queues),
                len(offload.builder.queues),
                sum(len(queue.refs) for queue in program.queues),
                len(getattr(offload, "instances", ())))

    rig.serve(64)
    after_64 = sizes()
    rig.serve(512 - 64)
    assert sizes() == after_64
    assert rig.offload.instances_posted == 512
    if variant == "list-break":
        # Finished requests hand their one-shot queue sets back.
        assert 1 <= len(rig.offload.queue_sets.sets) <= 2


def _simulated(rig: Rig, results) -> tuple:
    """Everything a run simulated: results, time, DRAM, and each server
    ring's slot generations and decode-cache keys."""
    rings = [(wq.name, tuple(wq._ring_gens.gens),
              sorted((slot, entry[0], entry[2])
                     for slot, entry in wq._decode_cache.items()))
             for wq in rig.server_nic.wqs.values()]
    return results, rig.sim.now, rig.dram(), rings


def _ring_bytes(records) -> Counter:
    """Every byte the ring ``store`` records cover, by instant."""
    covered = Counter()
    for record in records:
        for addr in range(record["addr"], record["addr"] + record["len"]):
            covered[(record["ts"], record["mem"], record["region"],
                     addr)] += 1
    return covered


def _by_queue(records) -> dict:
    """``(wq, ts) -> [records]`` with ``seq`` dropped, in journal order."""
    grouped = {}
    for record in records:
        content = {key: value for key, value in record.items()
                   if key != "seq"}
        grouped.setdefault((record["wq"], record["ts"]), []).append(content)
    return grouped


@pytest.mark.parametrize("variant", VARIANTS)
def test_observed_stamps_match_ir_build(variant):
    """An observed stamp posts run by run, as an unobserved one does.

    Observed stamps, unobserved stamps and the IR build simulate the
    same: results, ``sim.now``, DRAM (rings included), slot generations
    and decode-cache keys. In the journal, the stamps' per-WR ``post``
    records (wq, wr, slot, slots, op, slot image, time) equal the IR
    build's, their ring ``store`` records cover exactly the bytes the
    IR build's do at the same instants, and every other record matches
    the IR build's by causal key with the same content and time. The
    one exception is doorbells of a pooled queue set (``list-break``):
    a stamp rings a set queue once per instant, to the highest target
    the IR build rang it to then. The recorder checkpoints every 16
    records, so checkpoints fall inside stamped runs."""
    runs = {}
    for name, ir, observe in (("observed", False, True),
                              ("unobserved", False, False),
                              ("ir", True, True)):
        rig = Rig(variant, observe=observe, checkpoint_interval=16)
        results = rig.serve(12, ir=ir)
        records = rig.obs[1].records if observe else None
        events = rig.obs[0].events if observe else None
        runs[name] = (_simulated(rig, results), records, events)
    assert runs["observed"][0] == runs["unobserved"][0] == runs["ir"][0]

    stamped, reference = runs["observed"][1], runs["ir"][1]

    def of(records, *kinds):
        return [record for record in records if record["kind"] in kinds]

    assert _by_queue(of(stamped, "post")) == _by_queue(of(reference, "post"))
    assert _ring_bytes(of(stamped, "store")) == \
        _ring_bytes(of(reference, "store"))
    assert len(of(stamped, "store")) < len(of(reference, "store"))
    coalesced = variant == "list-break"
    causal = ("fetch", "exec", "done", "cqe", "wait", "enable", "atomic") \
        + (() if coalesced else ("doorbell",))
    report = diff_journals(Journal({}, of(stamped, *causal), []),
                           Journal({}, of(reference, *causal), []),
                           fold_cqe_counts=False)
    assert report.identical, render_report(report)
    assert report.aligned == len(of(reference, *causal))
    if coalesced:
        rung, wanted = (_by_queue(of(records, "doorbell"))
                        for records in (stamped, reference))
        assert rung.keys() == wanted.keys()
        for key, doorbells in rung.items():
            expected = wanted[key]
            assert doorbells == expected or doorbells == [
                max(expected, key=lambda record: record["up_to"])], key
        assert sum(map(len, rung.values())) < sum(map(len, wanted.values()))

    def unmoved(events):
        return [event for event in events
                if event[1] not in ("queue", "mem")]

    assert unmoved(runs["observed"][2]) == unmoved(runs["ir"][2])


def test_hash_overflow_posts_nothing_then_recovers():
    """The 75th pre-posted instance overflows the 896-slot control ring
    (74 x 12 WRs fit): it must fail whole, then a drain frees room."""
    rig = Rig("hash-seq", lane_slots=1024, recv_slots=1024,
              max_instances=64)
    offload = rig.offload
    control = offload.controls[0].wq
    recv = offload.conn.server_qp.recv_wq
    posted = 0
    with pytest.raises(QueueError):
        while True:
            offload.post_instances(1)
            posted += 1
    assert posted == offload.instances_posted == 74
    assert recv.posted_count == 74
    assert control.posted_count == 74 * 12
    assert offload.workers[0].wq.posted_count == 74 * 4
    assert offload.response_lanes[0].wq.posted_count == 74 * 2
    rig.serve(74, post=False)
    rig.serve(1)
    assert offload.instances_posted == 75


class _Skeleton:
    """A one-WAIT instance on a bare loopback world: small enough to
    pin the compiler's relocation rules directly."""

    def __init__(self, build_threshold):
        sim = Simulator()
        memory = HostMemory(name="mem")
        nic = RNIC(sim, memory, name="nic")
        self.ctx = RednContext(nic, ProtectionDomain(memory), owner="t")
        self.builder = ProgramBuilder(self.ctx, name="t")
        self.control = self.builder.control_queue(slots=64, name="ctl")
        self.killed = 0
        self.waits = []

        def build(instance):
            self.waits.append(self.builder.wait(
                self.control, self.control.cq, build_threshold(self,
                                                              instance)))
        self.poster = InstancePoster(self.ctx, build, "t{}")

    def thresholds(self):
        wq = self.control.wq
        return [self.ctx.memory.read_uint(wq.slot_addr(index) + 48, 4)
                for index in range(wq.posted_count)]


def test_compile_rejects_an_unrelocated_literal():
    """A per-instance value built as a plain literal cannot be stamped:
    the template fails to reproduce instance 1."""
    rig = _Skeleton(lambda rig, instance: instance + 1)
    rig.poster.post(0)
    with pytest.raises(ProgramError, match="does not reproduce"):
        rig.poster.post(1)


def test_host_relocation_reads_state_at_stamp_time():
    """A host value equal in instances 0 and 1 (so a diff of the two
    would call it constant) is re-read for every stamp."""
    rig = _Skeleton(lambda rig, instance:
                    HostValue(lambda: rig.killed) + 1)
    for instance in range(4):
        if instance == 3:
            rig.killed = 10
        rig.poster.post(instance)
    assert rig.thresholds() == [1, 1, 1, 11]
    assert len(rig.builder.program.ops) == 2


def test_store_into_a_later_post_splits_the_run():
    """A store into ring bytes a later post of the same instance writes
    must not land on that post's bytes when a stamp writes the ring run
    up front: the later posts go in a new run, after the store, as in
    the IR path."""
    sim = Simulator()
    memory = HostMemory(name="mem")
    ctx = RednContext(RNIC(sim, memory, name="nic"),
                      ProtectionDomain(memory), owner="t")
    builder = ProgramBuilder(ctx, name="t")
    control = builder.control_queue(slots=64, name="ctl")
    wq = control.wq

    def build(instance):
        builder.emit(control, wr_noop())
        ctx.poke(wq.slot_addr(wq._post_slot_cursor) + 48, 0xAB, 4)
        builder.emit(control, wr_noop())

    poster = InstancePoster(ctx, build, "t{}")
    for instance in range(4):
        poster.post(instance)
    assert [memory.read_uint(wq.slot_addr(index) + 48, 4)
            for index in range(wq.posted_count)] == [0] * 8
