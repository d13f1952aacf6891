"""End-to-end tests: the Fig 12 list-traversal offload."""

import hashlib

import pytest

from repro.datastructs import LinkedList, SlabStore
from repro.ibv import VerbsContext
from repro.memory import HostMemory, ProtectionDomain, ProtectionError
from repro.net import Fabric
from repro.nic import Opcode, RNIC
from repro.offloads.list_traversal import (
    ListTraversalOffload,
    list_get_payload,
)
from repro.redn import RednContext
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
    """finish_request frees what each request allocated."""

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

    def test_teardown_deregisters_and_frees_one_shot_memory(self):
        rig = ListRig(KEYS, use_break=True)
        rig.offload.post_instances(1)
        record = rig.offload.instances[0]
        rings = [qp.send_wq.ring for queue in record.queues
                 for qp in queue.owned_qps]
        rkeys = [queue.code_mr.rkey for queue in record.queues] + [
            region.rkey for region in record.buffers]
        assert rig.get(KEYS[3]).ok
        rig.offload.finish_request(0)
        for rkey in rkeys:
            with pytest.raises(ProtectionError):
                rig.server_pd.lookup_rkey(rkey)
        # Freed only once the destroyed queues' drivers have exited:
        # the woken worker and branch drivers have not run yet.
        assert not any(ring.freed for ring in rings)
        rig.sim.run(until=rig.sim.now + 1_000)
        assert all(ring.freed for ring in rings)
        assert all(region.allocation.freed for region in record.buffers)

    def test_queue_numbers_recycle_once_target_field_is_full(self):
        """Past the 16-bit WAIT/ENABLE target space, destroyed queues'
        numbers are reused, so calls keep being served."""
        rig = ListRig(KEYS, use_break=True)
        numbers = rig.server_nic._wq_nums
        numbers._next = numbers.LIMIT - 40
        for index in range(8):
            rig.offload.post_instances(1)
            assert rig.get(KEYS[index]).ok
            rig.offload.finish_request(index)
        assert max(rig.server_nic.wqs) < numbers.LIMIT


class TestPayload:
    def test_payload_layout(self):
        payload = list_get_payload(0xABCD, 0x42)
        assert len(payload) == 16
        from repro.nic import split_ctrl
        word = int.from_bytes(payload[:8], "big")
        assert split_ctrl(word) == (Opcode.NOOP, 0x42)
        assert int.from_bytes(payload[8:], "big") == 0xABCD
