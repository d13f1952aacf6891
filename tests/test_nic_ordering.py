"""Ordering and self-modification semantics (paper §3.1–§3.4).

These tests pin down the device behaviours that make RedN possible:
prefetch incoherence on normal queues, managed-mode fetch gating with
ENABLE, completion gating with WAIT, monotonic counters, and WQ
recycling.
"""

import pytest

from repro.ibv import (
    wr_cas,
    wr_enable,
    wr_noop,
    wr_send,
    wr_recv,
    wr_wait,
    wr_write,
)
from repro.nic import Opcode, WQE_HEADER, Wqe, WrFlags, ctrl_word


def make_write_template(src_addr, length, dst_addr, rkey, signaled=True):
    """A NOOP carrying full WRITE attributes: the Fig 4 branch target."""
    wqe = wr_write(src_addr, length, dst_addr, rkey, signaled=signaled)
    wqe.opcode = Opcode.NOOP
    return wqe


class TestPrefetchIncoherence:
    def test_modification_after_prefetch_is_ignored(self, lo):
        """Normal queues prefetch snapshots: late edits don't execute."""
        src, _ = lo.buffer(16)
        dst, dst_mr = lo.buffer(16)
        lo.memory.write(src.addr, b"X" * 16)

        qp = lo.qp_a
        # Post a NOOP template followed by a signaled NOOP; both get
        # prefetched in one batch.
        template = make_write_template(src.addr, 16, dst.addr, dst_mr.rkey,
                                       signaled=False)
        qp.post_send(template)
        qp.post_send(wr_noop(signaled=True))

        def meddle():
            # After the fetch (350 ns post-doorbell) but before the
            # second WQE would retire, rewrite WQE 0 into a WRITE.
            yield lo.sim.timeout(700)
            base = qp.send_wq.slot_addr(0)
            lo.memory.write_u64(base, ctrl_word(Opcode.WRITE, 0))

        def check():
            yield lo.sim.timeout(50_000)
            return lo.memory.read(dst.addr, 16)

        lo.sim.process(meddle())
        result = lo.run(check())
        # The stale (NOOP) snapshot executed: no bytes moved.
        assert result == bytes(16)

    def test_modification_before_doorbell_takes_effect(self, lo):
        """Managed queues fetch on ENABLE/doorbell: edits are honoured."""
        src, _ = lo.buffer(16)
        dst, dst_mr = lo.buffer(16)
        lo.memory.write(src.addr, b"Y" * 16)

        pd = lo.pd
        qp = lo.nic.create_qp(pd, managed_send=True, name="managed")
        qp.connect(lo.nic.create_qp(pd, name="managed-peer"))

        template = make_write_template(src.addr, 16, dst.addr, dst_mr.rkey)
        qp.post_send(template)  # managed: no doorbell

        def run():
            yield lo.sim.timeout(2_000)
            base = qp.send_wq.slot_addr(0)
            lo.memory.write_u64(base, ctrl_word(Opcode.WRITE, 0))
            qp.send_wq.doorbell()
            yield lo.sim.timeout(50_000)
            return lo.memory.read(dst.addr, 16)

        assert lo.run(run()) == b"Y" * 16


class TestWait:
    def test_wait_blocks_until_completion_count(self, lo):
        """WAIT(cq, n) releases only at the n-th completion (Fig 2a)."""
        dst, dst_mr = lo.buffer(8)
        src, _ = lo.buffer(8)
        lo.memory.write(src.addr, b"A" * 8)

        chain_qp, _ = lo.nic.create_loopback_pair(lo.pd, name="chain")
        trigger_qp = lo.qp_a

        # Chain: WAIT for 1 completion on the trigger QP's send CQ,
        # then WRITE.
        trigger_cq = trigger_qp.send_wq.cq
        chain_qp.post_send(wr_wait(trigger_cq.cq_num, 1))
        chain_qp.post_send(
            wr_write(src.addr, 8, dst.addr, dst_mr.rkey))

        def run():
            yield lo.sim.timeout(20_000)
            before = lo.memory.read(dst.addr, 8)
            # Now complete a signaled NOOP on the trigger QP.
            yield from lo.verbs.execute_sync_checked(
                trigger_qp, wr_noop(signaled=True))
            yield lo.sim.timeout(20_000)
            after = lo.memory.read(dst.addr, 8)
            return before, after

        before, after = lo.run(run())
        assert before == bytes(8)
        assert after == b"A" * 8

    def test_wait_count_already_met_passes_through(self, lo):
        dst, dst_mr = lo.buffer(8)
        src, _ = lo.buffer(8)
        lo.memory.write(src.addr, b"B" * 8)
        chain_qp, _ = lo.nic.create_loopback_pair(lo.pd, name="chain")

        def run():
            yield from lo.verbs.execute_sync_checked(
                lo.qp_a, wr_noop(signaled=True))
            # Completion already happened; WAIT(…, 1) must not block.
            chain_qp.post_send(wr_wait(lo.qp_a.send_wq.cq.cq_num, 1))
            chain_qp.post_send(wr_write(src.addr, 8, dst.addr, dst_mr.rkey))
            yield lo.sim.timeout(20_000)
            return lo.memory.read(dst.addr, 8)

        assert lo.run(run()) == b"B" * 8

    def test_unsignaled_wr_does_not_satisfy_wait(self, lo):
        """Clearing SIGNALED starves the next WAIT — the break trick."""
        dst, dst_mr = lo.buffer(8)
        src, _ = lo.buffer(8)
        lo.memory.write(src.addr, b"C" * 8)
        chain_qp, _ = lo.nic.create_loopback_pair(lo.pd, name="chain")

        chain_qp.post_send(wr_wait(lo.qp_a.send_wq.cq.cq_num, 1))
        chain_qp.post_send(wr_write(src.addr, 8, dst.addr, dst_mr.rkey))

        def run():
            # Unsignaled NOOP completes without a CQE.
            yield from lo.verbs.post_send(lo.qp_a, wr_noop(signaled=False))
            yield lo.sim.timeout(50_000)
            return lo.memory.read(dst.addr, 8)

        assert lo.run(run()) == bytes(8)


class TestEnable:
    def _managed_chain(self, lo):
        qp = lo.nic.create_qp(lo.pd, managed_send=True, name="m")
        peer = lo.nic.create_qp(lo.pd, name="m-peer")
        qp.connect(peer)
        return qp

    def test_enable_releases_managed_wrs(self, lo):
        dst, dst_mr = lo.buffer(8)
        src, _ = lo.buffer(8)
        lo.memory.write(src.addr, b"D" * 8)
        managed = self._managed_chain(lo)
        control, _ = lo.nic.create_loopback_pair(lo.pd, name="ctl")

        managed.post_send(wr_write(src.addr, 8, dst.addr, dst_mr.rkey))

        def run():
            yield lo.sim.timeout(10_000)
            stalled = lo.memory.read(dst.addr, 8)
            control.post_send(
                wr_enable(managed.send_wq.wq_num, 1))
            yield lo.sim.timeout(20_000)
            released = lo.memory.read(dst.addr, 8)
            return stalled, released

        stalled, released = lo.run(run())
        assert stalled == bytes(8)
        assert released == b"D" * 8

    def test_enable_relative_advances_by_delta(self, lo):
        dst, dst_mr = lo.buffer(16)
        src, _ = lo.buffer(16)
        lo.memory.write(src.addr, b"E" * 16)
        managed = self._managed_chain(lo)
        control, _ = lo.nic.create_loopback_pair(lo.pd, name="ctl")

        managed.post_send(wr_write(src.addr, 8, dst.addr, dst_mr.rkey))
        managed.post_send(
            wr_write(src.addr, 8, dst.addr + 8, dst_mr.rkey))

        def run():
            control.post_send(
                wr_enable(managed.send_wq.wq_num, 1, relative=True))
            yield lo.sim.timeout(20_000)
            first_only = lo.memory.read(dst.addr, 16)
            control.post_send(
                wr_enable(managed.send_wq.wq_num, 1, relative=True))
            yield lo.sim.timeout(20_000)
            both = lo.memory.read(dst.addr, 16)
            return first_only, both

        first_only, both = lo.run(run())
        assert first_only == b"E" * 8 + bytes(8)
        assert both == b"E" * 16

    def test_enable_is_monotonic(self, lo):
        """A lower absolute ENABLE never rolls the limit back."""
        managed = self._managed_chain(lo)
        wq = managed.send_wq
        wq.enable(5)
        wq.enable(3)
        assert wq.enabled_count == 5


class TestRecycling:
    def test_ring_re_executes_without_reposting(self, lo):
        """WQ recycling (§3.4): ENABLE past posted_count wraps the ring.

        A 1-WQE ring holding a signaled WRITE is enabled 3 times: the
        NIC executes the same bytes 3 times with no CPU re-post.
        """
        counter, counter_mr = lo.buffer(8)
        src, _ = lo.buffer(8)
        lo.memory.write(src.addr, b"\x01" + bytes(7))

        qp = lo.nic.create_qp(lo.pd, managed_send=True, send_slots=1,
                              name="rec")
        peer = lo.nic.create_qp(lo.pd, name="rec-peer")
        qp.connect(peer)
        control, _ = lo.nic.create_loopback_pair(lo.pd, name="ctl")

        # Each pass overwrites one successive byte of the counter buf.
        qp.post_send(wr_write(src.addr, 1, counter.addr, counter_mr.rkey))

        def run():
            for index in range(3):
                control.post_send(
                    wr_enable(qp.send_wq.wq_num, 1, relative=True))
                yield lo.sim.timeout(20_000)
            return (qp.send_wq.executed_count if False else
                    qp.send_wq.fetched_count,
                    qp.send_wq.posted_count,
                    qp.send_wq.cq.count)

        fetched, posted, completions = lo.run(run())
        assert posted == 1
        assert fetched == 3
        assert completions == 3

    def test_monotonic_wait_counts_force_adds(self, lo):
        """CQ counts never reset: a WAIT re-armed for a second loop pass
        must target a *higher* absolute count (why recycling needs ADD
        verbs on wqe_count, §3.4)."""
        cq = lo.qp_a.send_wq.cq

        def run():
            yield from lo.verbs.execute_sync_checked(
                lo.qp_a, wr_noop(signaled=True))
            yield from lo.verbs.execute_sync_checked(
                lo.qp_a, wr_noop(signaled=True))
            return cq.count

        assert lo.run(run()) == 2
        # And a watcher for the old threshold fires immediately.
        event = cq.wait_for_count(1)
        assert event.triggered


class TestSelfModifyingCas:
    def test_cas_conditionally_flips_opcode(self, lo):
        """The Fig 4 conditional, raw: CAS on a WQE ctrl word converts a
        NOOP template into a live WRITE only when operands match."""
        src, _ = lo.buffer(8)
        dst, dst_mr = lo.buffer(8)
        lo.memory.write(src.addr, b"T" * 8)

        pd = lo.pd
        # Managed target queue holding the NOOP template (id = x).
        target_qp = lo.nic.create_qp(pd, managed_send=True, name="tgt")
        target_qp.connect(lo.nic.create_qp(pd, name="tgt-peer"))
        code_mr = pd.register(target_qp.send_wq.ring)

        x = 0x1234
        cas_qp, _ = lo.nic.create_loopback_pair(pd, name="cas")

        def attempt(y):
            # Each attempt posts a fresh NOOP template (new ring slot),
            # CASes it against y, then releases it with a doorbell.
            template = make_write_template(src.addr, 8, dst.addr,
                                           dst_mr.rkey)
            template.wr_id = x
            lo.memory.fill(dst.addr, 8, 0)
            wr_index = target_qp.post_send(template)
            ctrl_addr = target_qp.send_wq.slot_addr(wr_index)

            def run():
                yield from lo.verbs.execute_sync_checked(
                    cas_qp, wr_cas(
                        ctrl_addr, code_mr.rkey,
                        compare=ctrl_word(Opcode.NOOP, y),
                        swap=ctrl_word(Opcode.WRITE, y)))
                target_qp.send_wq.doorbell()
                yield lo.sim.timeout(20_000)
                return lo.memory.read(dst.addr, 8)
            return lo.run(run())

        # x != y: CAS fails, template stays NOOP, nothing written.
        assert attempt(0x9999) == bytes(8)
        # x == y: CAS succeeds, NOOP becomes WRITE, bytes move.
        assert attempt(x) == b"T" * 8


class TestCompletionOrdering:
    def test_cqes_delivered_in_wr_order(self, rig):
        src, _ = rig.buffer("a", 8)
        dst, dst_mr = rig.buffer("b", 64)

        def run():
            for index in range(4):
                yield from rig.verbs.post_send(
                    rig.qp_a,
                    wr_write(src.addr, 8, dst.addr + 8 * index,
                             dst_mr.rkey, wr_id=index, signaled=True))
            ids = []
            for _ in range(4):
                cqe = yield from rig.verbs.poll(rig.qp_a.send_wq.cq)
                ids.append(cqe.wr_id)
            return ids

        assert rig.run(run()) == [0, 1, 2, 3]


class TestRateLimiter:
    def test_wq_rate_limit_paces_execution(self, lo):
        """§3.5 isolation: a rate-limited WQ cannot exceed its budget."""
        qp = lo.qp_a
        qp.send_wq.set_rate_limit(ops_per_sec=100_000, burst=1)

        def run():
            times = []
            for _ in range(3):
                yield from lo.verbs.execute_sync_checked(
                    qp, wr_noop(signaled=True))
                times.append(lo.sim.now)
            return times

        times = lo.run(run())
        # 100 K ops/s -> >= ~10 us between ops after the burst.
        assert times[1] - times[0] >= 9_000
        assert times[2] - times[1] >= 9_000


class TestDoorbellMerge:
    """Rings that would land back to back merge into one landing."""

    def test_back_to_back_rings_schedule_one_landing(self, lo):
        sim, wq = lo.sim, lo.qp_a.send_wq
        for _ in range(3):
            wq.post(wr_noop(signaled=False), ring_doorbell=False)
        before = sim.pushes
        for target in (1, 2, 3):
            wq.doorbell(up_to=target)
        assert sim.pushes - before == 1
        assert wq.doorbells_pending == 1
        sim.run()
        assert wq.doorbells_pending == 0
        assert wq.enabled_count == 3
        assert wq.fetched_count == 3

    def test_ring_on_another_queue_prevents_merge(self, lo):
        sim = lo.sim
        wq_a, wq_b = lo.qp_a.send_wq, lo.qp_b.send_wq
        for wq in (wq_a, wq_a, wq_b):
            wq.post(wr_noop(signaled=False), ring_doorbell=False)
        before = sim.pushes
        wq_a.doorbell(up_to=1)
        wq_b.doorbell(up_to=1)
        wq_a.doorbell(up_to=2)
        assert sim.pushes - before == 3
        assert wq_a.doorbells_pending == 2
        sim.run()
        assert (wq_a.enabled_count, wq_b.enabled_count) == (2, 1)
        assert wq_a.doorbells_pending == wq_b.doorbells_pending == 0

    def test_ring_at_a_later_instant_is_not_merged(self, lo):
        sim, wq = lo.sim, lo.qp_a.send_wq
        wq.post(wr_noop(signaled=False), ring_doorbell=False)
        wq.post(wr_noop(signaled=False), ring_doorbell=False)
        wq.doorbell(up_to=1)

        def later():
            yield 1
            wq.doorbell(up_to=2)

        sim.process(later())
        sim.run()
        assert wq.enabled_count == 2
        assert wq.fetched_count == 2


class TestQueueReuseCounters:
    def test_reset_then_destroy_retires_one_fetch_family(self, lo):
        """A reset queue's fetch counts follow its new name, so destroy
        folds them into the retired family once and leaves no family
        under any of the queue's names."""
        sim, nic = lo.sim, lo.nic
        qps = (lo.qp_a, lo.qp_b)

        def run_four():
            for _ in range(4):
                lo.qp_a.send_wq.post(wr_noop(signaled=False))
            sim.run()

        run_four()
        first = lo.qp_a.send_wq.name
        assert nic.qps_idle(qps)
        nic.reset_qps(qps, rename=lambda name: f"next-{name}")
        counters = sim.metrics.snapshot()["counters"]
        assert f"nic.{nic.name}.wq.{first}.fetch" not in counters
        moved = counters[f"nic.{nic.name}.wq.next-{first}.fetch"]
        assert moved["fetch_prefetched"] == 4
        run_four()
        nic.destroy_qps(qps)
        counters = sim.metrics.snapshot()["counters"]
        families = sorted(name for name in counters
                          if name.endswith(".fetch"))
        assert families == [f"nic.{nic.name}.retired.fetch"]
        retired = counters[f"nic.{nic.name}.retired.fetch"]
        assert retired["fetch_prefetched"] == 8
        assert retired["fetch_batches"] == 2
