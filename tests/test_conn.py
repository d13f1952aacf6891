"""Unit tests for the connection plane (repro.net.conn).

QP pool lease discipline, shared-CQ cookie demux (including stale CQEs
surfacing after a QP recycle), doorbell batching flush semantics, the
ring_doorbell policy table, and consistent-hash key ownership.
"""

import pytest

from repro.bench import Testbed
from repro.ibv import wr_write
from repro.net.conn import (
    ConnError,
    GENERATION_SHIFT,
    HashRing,
    PoolExhausted,
    QpPool,
)
from repro.nic import CONNECTX5_TIMING, DoorbellBatcher


class _Rig:
    """Testbed + server sink + a client-side QP pool."""

    def __init__(self, capacity=3, **pool_kwargs):
        self.bed = Testbed(num_clients=1)
        self.sim = self.bed.sim
        proc = self.bed.server.spawn_process("sink")
        pd = proc.create_pd()
        sink = proc.alloc(4096, label="sink")
        sink_mr = pd.register(sink)
        self.sink_addr = sink.addr
        self.rkey = sink_mr.rkey
        self.src_addr = self.bed.clients[0].memory.alloc(
            64, owner="client").addr

        def connect(qp, index):
            server_qp = proc.create_qp(pd, name=f"s{index}")
            server_qp.connect(qp)

        self.pool = QpPool(self.bed.clients[0].nic, self.bed.client_pd(0),
                           capacity=capacity, connect=connect,
                           name="testpool", **pool_kwargs)

    def write(self, lease, wr_id=0, batcher=None):
        return lease.post_send(
            wr_write(self.src_addr, 64, self.sink_addr, self.rkey,
                     wr_id=wr_id, signaled=True),
            batcher=batcher)


class TestQpPool:
    def test_first_round_leases_in_creation_order(self):
        rig = _Rig(capacity=3)
        leases = [rig.pool.lease() for _ in range(3)]
        assert [l.qp for l in leases] == rig.pool.qps
        assert [l.generation for l in leases] == [0, 0, 0]

    def test_lru_recycling_order(self):
        rig = _Rig(capacity=3)
        leases = [rig.pool.lease() for _ in range(3)]
        # Release out of order: 1 first, then 0. LRU hands back 1, 0.
        leases[1].release()
        leases[0].release()
        again = [rig.pool.lease(), rig.pool.lease()]
        assert [l.index for l in again] == [1, 0]
        assert [l.generation for l in again] == [1, 1]
        assert rig.pool.recycles == 2

    def test_exhaustion_is_typed_and_counted(self):
        rig = _Rig(capacity=2)
        rig.pool.lease()
        rig.pool.lease()
        with pytest.raises(PoolExhausted):
            rig.pool.lease()
        assert isinstance(PoolExhausted("x"), ConnError)
        assert rig.pool.exhausted_hits == 1
        assert rig.pool.stats()["exhausted_hits"] == 1

    def test_double_release_rejected(self):
        rig = _Rig(capacity=1)
        lease = rig.pool.lease()
        lease.release()
        with pytest.raises(ConnError):
            lease.release()
        with pytest.raises(ConnError):
            rig.write(lease)  # posting through a released lease

    def test_release_to_foreign_pool_rejected(self):
        rig_a = _Rig(capacity=1)
        rig_b = _Rig(capacity=1)
        lease = rig_a.pool.lease()
        with pytest.raises(ConnError):
            rig_b.pool.release(lease)

    def test_acquire_waits_fifo(self):
        rig = _Rig(capacity=1)
        sim = rig.sim
        grants = []

        def holder():
            lease = yield from rig.pool.acquire(tag="holder")
            yield sim.timeout(1_000)
            rig.pool.release(lease)

        def waiter(name, delay):
            yield sim.timeout(delay)
            lease = yield from rig.pool.acquire(tag=name)
            grants.append((name, sim.now))
            yield sim.timeout(500)
            rig.pool.release(lease)

        sim.process(holder())
        sim.process(waiter("first", 10))
        sim.process(waiter("second", 20))
        sim.run()
        assert [name for name, _t in grants] == ["first", "second"]
        assert grants[0][1] == 1_000
        assert grants[1][1] == 1_500
        assert rig.pool.peak_in_use == 1

    def test_oversized_user_wr_id_rejected(self):
        rig = _Rig(capacity=1)
        lease = rig.pool.lease()
        with pytest.raises(ConnError):
            lease.cookie(1 << GENERATION_SHIFT)


class TestSharedCqDemux:
    def test_cqes_route_to_their_lease(self):
        """Two leases on one shared CQ each get exactly their CQEs,
        with the generation cookie stripped from the wr_id."""
        rig = _Rig(capacity=2)
        a = rig.pool.lease(tag="a")
        b = rig.pool.lease(tag="b")
        results = {}

        def run(name, lease, wr_id):
            rig.write(lease, wr_id=wr_id)
            cqe = yield from lease.wait_cqe()
            results[name] = cqe

        rig.sim.process(run("a", a, 7))
        rig.sim.process(run("b", b, 9))
        rig.sim.run()
        assert results["a"].wr_id == 7
        assert results["b"].wr_id == 9
        assert results["a"].wq_num == a.qp.send_wq.wq_num
        assert results["b"].wq_num == b.qp.send_wq.wq_num
        assert rig.pool.router.routed == 2
        assert rig.pool.router.stale == 0

    def test_recycled_qp_quarantines_stale_cqe(self):
        """A CQE from generation N surfacing after the QP was re-leased
        at generation N+1 is quarantined, never delivered."""
        rig = _Rig(capacity=1)
        sim = rig.sim
        old = rig.pool.lease(tag="old")
        rig.write(old, wr_id=5)
        # Release while the WRITE is still in flight, then immediately
        # re-lease the same QP: the generation fence must catch the
        # straggler completion.
        old.release()
        new = rig.pool.lease(tag="new")
        assert new.index == old.index
        assert new.generation == 1
        sim.run()
        assert new.poll() is None
        assert rig.pool.router.routed == 0
        assert rig.pool.router.stale == 1
        assert rig.pool.router.stale_cqes == [
            (old.qp.send_wq.wq_num, 0, 5)]

    def test_unregistered_wq_cqe_is_stale(self):
        """Release without re-lease: the route is gone, CQE quarantined."""
        rig = _Rig(capacity=1)
        lease = rig.pool.lease()
        rig.write(lease, wr_id=3)
        lease.release()
        rig.sim.run()
        assert rig.pool.router.stale == 1
        assert rig.pool.stats()["stale_cqes"] == 1

    def test_routing_adds_no_events(self):
        """A pooled drive and a hand-wired drive execute the identical
        kernel event count — the router is pure host bookkeeping."""
        def drive_pooled():
            rig = _Rig(capacity=1)
            lease = rig.pool.lease()

            def run():
                rig.write(lease, wr_id=1)
                yield from lease.wait_cqe()

            rig.sim.process(run())
            rig.sim.run()
            return (rig.sim.now,
                    rig.sim.metrics.snapshot()["gauges"]
                    ["sim.events_executed"])

        def drive_manual():
            bed = Testbed(num_clients=1)
            proc = bed.server.spawn_process("sink")
            pd = proc.create_pd()
            sink = proc.alloc(4096, label="sink")
            sink_mr = pd.register(sink)
            # Same object creation order as QpPool: scq, rcq, then QP.
            scq = bed.clients[0].nic.create_cq(name="scq")
            rcq = bed.clients[0].nic.create_cq(name="rcq")
            qp = bed.clients[0].nic.create_qp(
                bed.client_pd(0), send_slots=64, send_cq=scq,
                recv_cq=rcq, name="manual")
            server_qp = proc.create_qp(pd, name="s0")
            server_qp.connect(qp)
            src = bed.clients[0].memory.alloc(64, owner="client")

            def run():
                qp.post_send(wr_write(src.addr, 64, sink.addr,
                                      sink_mr.rkey, wr_id=1,
                                      signaled=True))
                yield scq.wait_for_count(1)

            bed.sim.process(run())
            bed.sim.run()
            return (bed.sim.now,
                    bed.sim.metrics.snapshot()["gauges"]
                    ["sim.events_executed"])

        assert drive_pooled() == drive_manual()


class TestDoorbellBatcher:
    def _wq(self, rig):
        lease = rig.pool.lease()
        return lease, lease.qp.send_wq

    def test_cap_flush(self):
        """max_batch posts ring exactly one doorbell for the batch."""
        rig = _Rig(capacity=1)
        lease, wq = self._wq(rig)
        batcher = DoorbellBatcher(wq, max_batch=3)
        for wr_id in range(3):
            rig.write(lease, wr_id=wr_id, batcher=batcher)
        assert batcher.pending == 0          # cap reached -> auto flush
        assert batcher.flushes == 1
        assert batcher.coalesced == 3
        rig.sim.run()
        assert wq.fetched_count == 3
        cqes = [lease.poll() for _ in range(3)]
        assert [c.wr_id for c in cqes] == [0, 1, 2]

    def test_explicit_flush_and_empty_flush(self):
        rig = _Rig(capacity=1)
        lease, wq = self._wq(rig)
        batcher = DoorbellBatcher(wq, max_batch=16)
        rig.write(lease, wr_id=0, batcher=batcher)
        rig.write(lease, wr_id=1, batcher=batcher)
        assert wq.enabled_count == 0         # no doorbell yet
        assert batcher.flush() == 2
        assert batcher.flush() == 0          # empty flush is a no-op
        assert batcher.flushes == 1
        rig.sim.run()
        assert wq.fetched_count == 2

    def test_deadline_flush(self):
        """An unfilled batch flushes at the sim-time deadline."""
        rig = _Rig(capacity=1)
        lease, wq = self._wq(rig)
        batcher = DoorbellBatcher(wq, max_batch=16, deadline_ns=5_000)
        fired = []

        def run():
            rig.write(lease, wr_id=0, batcher=batcher)
            cqe = yield from lease.wait_cqe()
            fired.append((cqe.wr_id, rig.sim.now))

        rig.sim.process(run())
        rig.sim.run()
        assert batcher.flushes == 1
        assert fired and fired[0][0] == 0
        assert fired[0][1] >= 5_000          # waited for the deadline

    def test_explicit_flush_cancels_deadline(self):
        rig = _Rig(capacity=1)
        lease, wq = self._wq(rig)
        batcher = DoorbellBatcher(wq, max_batch=16, deadline_ns=5_000)
        rig.write(lease, wr_id=0, batcher=batcher)
        batcher.flush()
        rig.sim.run()
        assert batcher.flushes == 1          # deadline did not double-fire
        assert wq.fetched_count == 1

    def test_batched_doorbell_pays_per_entry_price(self):
        """One batched ring of N is priced doorbell_ns +
        (N-1)*doorbell_batch_entry_ns — cheaper than N rings but not
        free, and timing-visible vs the unbatched drive."""
        timing = CONNECTX5_TIMING

        def enable_time(batch):
            rig = _Rig(capacity=1)
            lease, wq = self._wq(rig)
            if batch:
                batcher = DoorbellBatcher(wq, max_batch=2)
                rig.write(lease, wr_id=0, batcher=batcher)
                rig.write(lease, wr_id=1, batcher=batcher)
            else:
                rig.write(lease, wr_id=0)
                rig.write(lease, wr_id=1)
            times = []

            def watch():
                while wq.enabled_count < 2:
                    yield 1
                times.append(rig.sim.now)

            rig.sim.process(watch())
            rig.sim.run()
            return times[0]

        assert enable_time(batch=True) == (
            timing.doorbell_ns + timing.doorbell_batch_entry_ns)
        assert enable_time(batch=False) == timing.doorbell_ns
        assert timing.doorbell_batch_ns(1) == timing.doorbell_ns
        assert timing.doorbell_batch_ns(4) == (
            timing.doorbell_ns + 3 * timing.doorbell_batch_entry_ns)

    def test_batched_flush_satisfies_wait_thresholds(self):
        """CQ count thresholds (the WAIT-verb observable) see all N
        completions of a batch, in posting order."""
        rig = _Rig(capacity=1)
        lease, wq = self._wq(rig)
        cq = rig.pool.send_cq
        batcher = DoorbellBatcher(wq, max_batch=4)
        seen = []

        count_at_wait = []

        def run():
            for wr_id in range(4):
                rig.write(lease, wr_id=wr_id, batcher=batcher)
            yield cq.wait_for_count(4)
            count_at_wait.append(cq.count)
            # count bumps before the CQE DMA to the host lands, so the
            # WAIT observable leads the inbox; drain the rest properly.
            for _ in range(4):
                cqe = yield from lease.wait_cqe()
                seen.append(cqe.wr_id)

        rig.sim.process(run())
        rig.sim.run()
        assert count_at_wait == [4]
        assert seen == [0, 1, 2, 3]

    def test_bad_parameters_rejected(self):
        from repro.nic.queue import QueueError
        rig = _Rig(capacity=1)
        _lease, wq = self._wq(rig)
        with pytest.raises(QueueError):
            DoorbellBatcher(wq, max_batch=0)
        with pytest.raises(QueueError):
            DoorbellBatcher(wq, max_batch=4, deadline_ns=0)

    def test_batcher_must_drive_the_leased_wq(self):
        rig = _Rig(capacity=2)
        a = rig.pool.lease()
        b = rig.pool.lease()
        foreign = DoorbellBatcher(b.qp.send_wq, max_batch=4)
        with pytest.raises(ConnError):
            rig.write(a, batcher=foreign)
        with pytest.raises(ConnError):
            a.post_send(wr_write(rig.src_addr, 64, rig.sink_addr,
                                 rig.rkey, signaled=True),
                        ring_doorbell=True,
                        batcher=DoorbellBatcher(a.qp.send_wq))


class TestRingDoorbellPolicy:
    """Pin the ring_doorbell default table documented on post_send."""

    def test_docstring_carries_the_policy_table(self):
        from repro.nic.qp import QueuePair
        doc = QueuePair.post_send.__doc__
        assert "ring_doorbell" in doc
        assert "managed" in doc
        assert "DoorbellBatcher" in doc

    def test_default_rings_on_normal_wq(self):
        rig = _Rig(capacity=1)
        lease = rig.pool.lease()
        rig.write(lease, wr_id=0)            # default ring_doorbell=None
        rig.sim.run()
        assert lease.qp.send_wq.enabled_count == 1
        assert lease.qp.send_wq.fetched_count == 1
        assert lease.poll() is not None      # completed end to end

    def test_false_suppresses_doorbell(self):
        rig = _Rig(capacity=1)
        lease = rig.pool.lease()
        lease.post_send(wr_write(rig.src_addr, 64, rig.sink_addr,
                                 rig.rkey, signaled=True),
                        ring_doorbell=False)
        rig.sim.run()
        wq = lease.qp.send_wq
        assert wq.posted_count == 1
        assert wq.enabled_count == 0         # never rung, never fetched
        assert wq.fetched_count == 0

    def test_default_on_managed_wq_stays_silent(self):
        """Managed queues (offload-owned) must not see host doorbells
        from the default policy — the paper's §5 invariant."""
        rig = _Rig(capacity=1)
        nic = rig.bed.clients[0].nic
        cq = nic.create_cq(name="managed-cq")
        wq = nic.create_wq("send", 16, cq, managed=True,
                           name="managed-wq")
        wqe = wr_write(rig.src_addr, 64, rig.sink_addr, rig.rkey,
                       signaled=False)
        wq.post(wqe)                         # ring_doorbell=None
        assert wq.posted_count == 1
        assert wq.enabled_count == 0


class TestHashRing:
    def test_ownership_is_stable_and_total(self):
        ring = HashRing(8)
        owners = {key: ring.owner(key) for key in range(1, 257)}
        assert owners == {key: HashRing(8).owner(key)
                          for key in range(1, 257)}
        assert all(0 <= owner < 8 for owner in owners.values())
        # All shards get some keys at this scale.
        assert set(owners.values()) == set(range(8))

    def test_partition_covers_every_key_once(self):
        ring = HashRing(5)
        keys = list(range(1, 101))
        parts = ring.partition(keys)
        flat = [key for shard in parts.values() for key in shard]
        assert sorted(flat) == keys

    def test_adding_a_shard_moves_few_keys(self):
        keys = range(1, 1001)
        before = {key: HashRing(8).owner(key) for key in keys}
        after = {key: HashRing(9).owner(key) for key in keys}
        moved = sum(1 for key in keys if before[key] != after[key])
        # Consistent hashing: ~1/9 of keys move; rehashing would move
        # ~8/9. Allow generous slack around the 111-key expectation.
        assert moved < 300

    def test_zero_shards_rejected(self):
        with pytest.raises(ConnError):
            HashRing(0)
