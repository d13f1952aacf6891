"""End-to-end tests: the Fig 12 list-traversal offload."""

import hashlib

import pytest

from repro.datastructs import LinkedList, SlabStore
from repro.ibv import VerbsContext
from repro.memory import HostMemory, ProtectionDomain
from repro.net import Fabric
from repro.nic import Opcode, QueueError, RNIC
from repro.offloads.list_traversal import (
    ListTraversalOffload,
    list_get_payload,
)
from repro.redn import RednContext
from repro.redn.program import ProgramError
from repro.redn.offload import OffloadClient, OffloadConnection
from repro.sim import Simulator


class ListRig:
    def __init__(self, list_keys, use_break=False, max_nodes=None):
        self.sim = Simulator()
        self.server_mem = HostMemory(name="srv", size=64 * 1024 * 1024)
        self.client_mem = HostMemory(name="cli")
        self.server_nic = RNIC(self.sim, self.server_mem, name="snic")
        self.client_nic = RNIC(self.sim, self.client_mem, name="cnic")
        Fabric(self.sim).connect(self.server_nic, self.client_nic)
        self.server_pd = ProtectionDomain(self.server_mem)
        self.client_pd = ProtectionDomain(self.client_mem)
        self.ctx = RednContext(self.server_nic, self.server_pd,
                               owner="list-server")

        slab_alloc = self.ctx.alloc(4 * 1024 * 1024, label="slab")
        node_alloc = self.ctx.alloc(64 * 1024, label="nodes")
        self.data_mr = self.server_pd.register(node_alloc)
        self.slab = SlabStore(self.server_mem, slab_alloc)
        self.list = LinkedList(self.server_mem, node_alloc, self.slab)
        for key in list_keys:
            self.list.append(key, f"value-{key}".encode())

        self.conn = OffloadConnection(self.ctx, self.client_nic,
                                      self.client_pd, name="lst")
        self.offload = ListTraversalOffload(
            self.ctx, self.list, self.data_mr, self.conn,
            max_nodes=max_nodes or len(list_keys), use_break=use_break)
        self.verbs = VerbsContext(self.sim, name="cli-verbs")
        self.client = OffloadClient(self.conn, self.verbs)

    def get(self, key, timeout_ns=3_000_000):
        def run():
            result = yield from self.client.call(
                self.offload.payload_for(key), timeout_ns=timeout_ns)
            return result
        return self.sim.run_process(run())

    def wr_count(self):
        return self.server_nic.stats.get("total_wrs", 0)


KEYS = [11, 22, 33, 44, 55, 66, 77, 88]


class TestPlainTraversal:
    def test_finds_first_element(self):
        rig = ListRig(KEYS)
        rig.offload.post_instances(1)
        result = rig.get(11)
        assert result.ok and result.data == b"value-11"

    def test_finds_last_element(self):
        rig = ListRig(KEYS)
        rig.offload.post_instances(1)
        result = rig.get(88)
        assert result.ok and result.data == b"value-88"

    def test_finds_middle_elements(self):
        rig = ListRig(KEYS)
        rig.offload.post_instances(len(KEYS))
        for key in (22, 44, 66):
            result = rig.get(key)
            assert result.ok and result.data == f"value-{key}".encode()

    def test_miss_times_out(self):
        rig = ListRig(KEYS)
        rig.offload.post_instances(1)
        assert not rig.get(99).ok

    def test_latency_grows_mildly_with_position(self):
        """Without break the response fires at its iteration; deeper
        keys cost more chained READs (Fig 13's upward slope)."""
        first = ListRig(KEYS)
        first.offload.post_instances(1)
        lat_first = first.get(11).latency_ns
        last = ListRig(KEYS)
        last.offload.post_instances(1)
        lat_last = last.get(88).latency_ns
        assert lat_last > lat_first

    def test_all_iterations_execute_without_break(self):
        rig = ListRig(KEYS)
        rig.offload.post_instances(1)
        rig.get(11)
        # Every step's READ ran even though the hit was at position 1.
        assert rig.offload.worker.wq.fetched_count >= 3 * len(KEYS)


class TestBreakTraversal:
    def test_finds_each_position_serially(self):
        rig = ListRig(KEYS, use_break=True)
        for index, key in enumerate(KEYS):
            rig.offload.post_instances(1)
            result = rig.get(key)
            assert result.ok, f"key {key}"
            assert result.data == f"value-{key}".encode()
            rig.offload.finish_request(index)

    def test_break_stops_iterations_early(self):
        """A hit at position 1 must stop the chain: far fewer worker
        WRs execute than the plain variant's full unroll."""
        rig = ListRig(KEYS, use_break=True)
        rig.offload.post_instances(1)
        result = rig.get(11)
        assert result.ok
        worker = next(q for q in rig.offload.builder.queues
                      if q.name == "trav0-w")
        # Only the first iteration's worker WRs ran; the tail is
        # stranded, never fetched.
        assert worker.wq.fetched_count <= 4

    def test_break_uses_fewer_wrs_than_plain(self):
        """Fig 13: without breaks >65% more WRs execute."""
        def executed(use_break):
            rig = ListRig(KEYS, use_break=use_break)
            total = 0
            for index, key in enumerate(KEYS[:4]):
                rig.offload.post_instances(1)
                before = rig.wr_count()
                assert rig.get(key).ok
                total += rig.wr_count() - before
                if use_break:
                    rig.offload.finish_request(index)
            return total

        with_break = executed(True)
        without = executed(False)
        assert without > with_break

    def test_break_miss_runs_all_iterations_then_times_out(self):
        rig = ListRig(KEYS, use_break=True)
        rig.offload.post_instances(1)
        assert not rig.get(99).ok
        rig.offload.finish_request(0)
        # No gate was killed on a miss.
        rig.offload.post_instances(1)
        assert rig.get(22).ok


def _serve_break_calls(calls):
    """``calls`` early-break requests, one posted and finished per call."""
    rig = ListRig(KEYS, use_break=True)
    latencies = []
    for index in range(calls):
        rig.offload.post_instances(1)
        result = rig.get(KEYS[index % len(KEYS)])
        assert result.ok
        latencies.append(result.latency_ns)
        rig.offload.finish_request(index)
    return rig, latencies


class TestBreakTeardown:
    """finish_request hands each request's queue set back for reuse:
    nothing grows with the call count, and no simulated number moves."""

    #: sha256 of repr((per-call latencies, final sim.now, WRs executed))
    #: for 128 calls, recorded before one-shot memory was reused: reuse
    #: may move addresses, never a simulated number.
    LATENCY_DIGEST_128 = (
        "093c19b858be7305439dff58e30b08cfa2f1590a864fc84052c782e49115ee63")

    @staticmethod
    def _footprint(rig):
        memory, nic = rig.server_mem, rig.server_nic
        return {
            "high_water": memory.high_water,
            "wqs": len(nic.wqs),
            "cqs": len(nic.cqs),
            "qps": len(nic.qps),
            "drivers": len(nic._drivers),
            "pd_regions": len(rig.server_pd._regions_by_rkey),
            "live_allocations": memory.live_allocations,
            "gen_ranges": len(memory._gen_ranges),
            "metric_families": len(rig.sim.metrics.snapshot()["counters"]),
        }

    def test_footprint_is_flat_in_call_count(self):
        few, _ = _serve_break_calls(64)
        many, _ = _serve_break_calls(512)
        assert self._footprint(many) == self._footprint(few)

    def test_reuse_moves_no_simulated_number(self):
        rig, latencies = _serve_break_calls(128)
        identity = repr((latencies, rig.sim.now, rig.wr_count()))
        assert hashlib.sha256(identity.encode()).hexdigest() == (
            self.LATENCY_DIGEST_128)

    def test_busy_set_is_not_handed_out(self):
        """A returned set is reused only once idle: a scheduled doorbell
        raise or a WR in flight on it makes the pool build another."""
        rig = ListRig(KEYS, use_break=True)
        pool, nic = rig.offload.queue_sets, rig.server_nic
        rig.offload.post_instances(1)
        first = rig.offload.instances[0].qset
        assert rig.get(KEYS[3]).ok
        rig.offload.finish_request(0)
        assert nic.qps_idle(first.qps)
        first.queues[2].wq.doorbell()
        assert not nic.qps_idle(first.qps)
        rig.offload.post_instances(1)
        second = rig.offload.instances[1].qset
        assert second is not first and pool.sets == [first, second]
        assert rig.get(KEYS[5]).ok
        rig.offload.finish_request(1)
        # The raise has landed: the oldest returned set is reused.
        rig.offload.post_instances(1)
        assert rig.offload.instances[2].qset is first
        # Step into instance 2's chain until a WR is in flight on it.
        drivers = [nic._drivers[qp.send_wq.wq_num] for qp in first.qps]
        call = rig.sim.process(rig.client.call(
            rig.offload.payload_for(KEYS[7]), timeout_ns=3_000_000))
        while not any(driver.busy > 1 for driver in drivers):
            rig.sim.step()
        pool.give_back(first)
        assert not nic.qps_idle(first.qps)
        assert pool.take("probe") is second
        assert pool.take("probe2") not in (first, second)
        assert len(pool.sets) == 3
        rig.sim.run()
        assert call.value.ok

    def test_break_calls_take_no_new_queue_numbers(self):
        """Once the pool's sets exist, calls create no queue: the WQ
        and CQ numbers stop at the sets', far below the 16-bit
        WAIT/ENABLE target space, which is never recycled."""
        rig, _ = _serve_break_calls(8)
        nic = rig.server_nic
        taken = (nic._wq_nums._next, nic._cq_nums._next, len(nic.wqs))
        for index in range(8, 8 + 512):
            rig.offload.post_instances(1)
            assert rig.get(KEYS[index % len(KEYS)]).ok
            rig.offload.finish_request(index)
        assert (nic._wq_nums._next, nic._cq_nums._next,
                len(nic.wqs)) == taken
        assert len(rig.offload.queue_sets.sets) == 1
        numbers = nic._wq_nums
        numbers._next = numbers.LIMIT - 1
        assert numbers.take() == numbers.LIMIT - 1
        with pytest.raises(QueueError, match="queue numbers in use"):
            numbers.take()

    #: Per call, the PUs of the set's six send queues, and the WRs the
    #: 16 calls execute, as fresh per-request queues gave them.
    PU_SEQUENCE_16 = [(1, 2, 3, 4, 5, 6), (7, 0, 1, 2, 3, 4),
                      (5, 6, 7, 0, 1, 2), (3, 4, 5, 6, 7, 0)] * 4
    WRS_16 = 992

    def test_stale_tenant_never_runs_and_pus_replay(self):
        """Hits at node 1 (the longest stranded tail) alternate with
        hits at node 8 on one reused set: every answer is right, the
        stranded tails execute nothing, and each tenant gets the PUs a
        fresh set would have."""
        rig = ListRig(KEYS, use_break=True)
        pus = []
        for index in range(16):
            key = KEYS[0] if index % 2 == 0 else KEYS[-1]
            rig.offload.post_instances(1)
            qset = rig.offload.instances[index].qset
            pus.append(tuple(qp.send_wq.pu_index for qp in qset.qps))
            result = rig.get(key)
            assert result.ok and result.data == f"value-{key}".encode()
            rig.offload.finish_request(index)
        assert len(rig.offload.queue_sets.sets) == 1
        assert pus == self.PU_SEQUENCE_16
        assert rig.wr_count() == self.WRS_16

    def test_finish_request_rejects_unknown_instance(self):
        rig = ListRig(KEYS, use_break=True)
        with pytest.raises(ProgramError, match="instance 0 is not posted"):
            rig.offload.finish_request(0)
        rig.offload.post_instances(1)
        assert rig.get(KEYS[0]).ok
        rig.offload.finish_request(0)
        with pytest.raises(ProgramError, match="already finished"):
            rig.offload.finish_request(0)


class TestPayload:
    def test_payload_layout(self):
        payload = list_get_payload(0xABCD, 0x42)
        assert len(payload) == 16
        from repro.nic import split_ctrl
        word = int.from_bytes(payload[:8], "big")
        assert split_ctrl(word) == (Opcode.NOOP, 0x42)
        assert int.from_bytes(payload[8:], "big") == 0xABCD
