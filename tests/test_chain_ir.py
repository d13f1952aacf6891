"""Tests for the RedN IR pipeline: builder -> IR -> linker, then passes.

Four pillars:

* **Differential lowering** — constructs built through the IR pipeline
  must land byte-identical WQE rings to the pre-refactor direct
  assembly, hand-replicated here as the golden reference. (The offload
  programs are covered end-to-end by the pinned result fingerprints in
  ``tests/test_sim_fingerprints.py``.)
* **Table 2 costs** — the cost pass must reproduce the paper's C/A/E
  rows exactly: ``1C + 1A + 3E`` for if, ``3C + 2A + 4E`` for the
  recycled while (with both the response and trigger rearms).
* **Verifier failure modes** — seeded-invalid chains must be rejected
  with a typed :class:`ChainLintError` naming the offending WR.
* **Streaming linking** — a program holds only posted ops, and wiring
  aimed at a WR not posted yet fails before it records or pokes
  anything.
"""

import pytest

from repro.ibv import wr_cas, wr_enable, wr_wait, wr_write
from repro.memory import HostMemory, ProtectionDomain
from repro.nic import Opcode, RNIC, Wqe, ctrl_word
from repro.nic.wqe import Sge, WQE_SLOT_SIZE
from repro.redn import ProgramBuilder, RecycledLoop, RednContext
from repro.redn.ir import (
    ArmCasOp,
    ArmWord,
    ChainLintError,
    EnableOp,
    FieldRef,
    RawOp,
    RestoreOp,
)
from repro.nic.queue import QueueError
from repro.redn.linker import aim
from repro.redn.movmachine import MovLoad, MovMachine
from repro.redn.passes import plan_ordering, verify, verify_or_raise
from repro.sim import Simulator


def fresh_ctx(name="world"):
    """A fresh deterministic one-NIC world (its own simulator)."""
    sim = Simulator()
    memory = HostMemory(name=f"{name}-mem")
    nic = RNIC(sim, memory, name=f"{name}-nic")
    pd = ProtectionDomain(memory, name=f"{name}-pd")
    return RednContext(nic, pd, owner=name)


def ring_bytes(queue):
    """The raw WQE ring contents of a chain queue."""
    ring = queue.wq.ring
    return queue.memory.read(ring.addr, ring.size)


# ---------------------------------------------------------------------------
# Differential lowering: IR pipeline vs hand assembly
# ---------------------------------------------------------------------------


class TestDifferentialLowering:
    X, Y = 0x42, 0x77

    def _setup(self, name):
        """Identical allocations/queues for both lowering paths."""
        ctx = fresh_ctx(name)
        builder = ProgramBuilder(ctx, name="if")
        src, _ = ctx.alloc_registered(8, label="src")
        dst, dst_mr = ctx.alloc_registered(8, label="dst")
        ctl = builder.control_queue(name="ctl")
        worker = builder.worker_queue(name="wrk")
        branches = builder.worker_queue(name="brn")
        live = wr_write(src.addr, 8, dst.addr, dst_mr.rkey)
        live.wr_id = self.X
        return builder, ctl, worker, branches, live

    def test_if_construct_rings_byte_identical(self):
        # Path A: the IR pipeline (builder -> linker -> WQE bytes).
        b_ir, ctl_a, wrk_a, brn_a, live_a = self._setup("ir")
        branch = b_ir.template(brn_a, live_a, tag="if.branch")
        b_ir.emit_if(ctl_a, wrk_a, branch, compare_id=self.Y, tag="if")

        # Path B: the pre-refactor direct assembly, by hand. This is
        # the golden reference the IR pipeline must reproduce.
        b_ref, ctl_b, wrk_b, brn_b, live_b = self._setup("ref")
        tmpl = Wqe(opcode=Opcode.NOOP, wr_id=live_b.wr_id,
                   laddr=live_b.laddr, length=live_b.length,
                   raddr=live_b.raddr, flags=live_b.flags,
                   operand0=live_b.operand0, operand1=live_b.operand1,
                   wqe_count=live_b.wqe_count, target=live_b.target,
                   lkey=live_b.lkey, rkey=live_b.rkey,
                   sges=live_b.sges)
        branch_b = brn_b.post(tmpl)
        cas_b = wrk_b.post(wr_cas(
            branch_b.field_addr("ctrl"), brn_b.rkey,
            compare=ctrl_word(Opcode.NOOP, self.Y),
            swap=ctrl_word(live_b.opcode, self.Y),
            result_laddr=b_ref._scratch.addr, signaled=True))
        ctl_b.post(wr_enable(wrk_b.wq_num, cas_b.wr_index + 1))
        ctl_b.post(wr_wait(wrk_b.cq_num, wrk_b.signaled_posted))
        ctl_b.post(wr_enable(brn_b.wq_num, branch_b.wr_index + 1))

        for queue_a, queue_b in ((ctl_a, ctl_b), (wrk_a, wrk_b),
                                 (brn_a, brn_b)):
            assert ring_bytes(queue_a) == ring_bytes(queue_b), \
                queue_a.name

    def test_mov_load_ring_byte_identical(self):
        # Path A: MovLoad compiled through the IR (InjectWriteOp + aim).
        machine_a = MovMachine(fresh_ctx("ir"), name="mov")
        gen = machine_a.execute([MovLoad(0, 1)])
        next(gen)   # compile + post; never run the completion wait

        # Path B: the direct two-WRITE assembly with a raw raddr poke.
        machine_b = MovMachine(fresh_ctx("ref"), name="mov")
        queue = machine_b.queue
        w1 = queue.post(wr_write(machine_b.reg_addr(1), 8, 0,
                                 queue.rkey, signaled=False))
        w2 = queue.post(wr_write(0, 8, machine_b.reg_addr(0),
                                 machine_b.ram_mr.rkey, signaled=True))
        w1.poke("raddr", w2.field_addr("laddr"))
        queue.doorbell()

        assert ring_bytes(machine_a.queue) == ring_bytes(queue)


# ---------------------------------------------------------------------------
# Table 2 costs from the IR
# ---------------------------------------------------------------------------


class TestTable2Costs:
    def test_if_cost_is_1c_1a_3e(self):
        ctx = fresh_ctx("cost-if")
        builder = ProgramBuilder(ctx, name="if")
        src, _ = ctx.alloc_registered(8)
        dst, dst_mr = ctx.alloc_registered(8)
        ctl = builder.control_queue(name="ctl")
        worker = builder.worker_queue(name="wrk")
        branches = builder.worker_queue(name="brn")
        branch = builder.template(
            branches, wr_write(src.addr, 8, dst.addr, dst_mr.rkey),
            tag="if.branch")
        builder.emit_if(ctl, worker, branch, compare_id=5, tag="if")

        cost = builder.cost("if")
        assert (cost.copies, cost.atomics, cost.ordering) == (1, 1, 3)
        assert str(cost) == "1C + 1A + 3E"

    def test_recycled_while_cost_is_3c_2a_4e(self):
        """The full while shape: response template + CAS body + split
        restores + counter ADD + WAIT + both rearms + wrap."""
        ctx = fresh_ctx("cost-while")
        builder = ProgramBuilder(ctx, name="while")
        dummy, dummy_mr = ctx.alloc_registered(64, label="dummy")
        client = builder.worker_queue(name="client")
        trigger = builder.worker_queue(name="trig")
        resp = builder.template(
            client, wr_write(dummy.addr, 8, dummy.addr + 8,
                             dummy_mr.rkey), tag="while.resp")

        loop = RecycledLoop(builder, trigger.cq, name="srv")
        loop.body(wr_cas(resp.field_addr("ctrl"), client.rkey,
                         compare=0, swap=0, signaled=True),
                  tag="while.cas")
        loop.restore(resp, offset=0, length=8)
        loop.restore(resp, offset=8, length=56)
        loop.rearm(client)     # release the response template per lap
        loop.rearm(trigger)    # re-arm the trigger ring per lap
        loop.build()

        # WAIT does not count toward Table 2's E column here: the wrap
        # ENABLE + 2 rearm ENABLEs + the head WAIT are 4 E-verbs total.
        cost = builder.cost("while")
        assert (cost.copies, cost.atomics, cost.ordering) == (3, 2, 4)
        assert str(cost) == "3C + 2A + 4E"


# ---------------------------------------------------------------------------
# Verifier failure modes (seeded-invalid chains)
# ---------------------------------------------------------------------------


def _arm_target_world(target_queue_kind):
    """A template on ``target_queue_kind`` and a worker queue to arm
    it from; returns (builder, template_ref, worker)."""
    ctx = fresh_ctx("bad")
    builder = ProgramBuilder(ctx, name="bad")
    src, _ = ctx.alloc_registered(8)
    dst, dst_mr = ctx.alloc_registered(8)
    if target_queue_kind == "control":
        tq = builder.control_queue(name="tq")
    else:
        tq = builder.worker_queue(name="tq")
    worker = builder.worker_queue(name="wrk")
    branch = builder.template(
        tq, wr_write(src.addr, 8, dst.addr, dst_mr.rkey), tag="branch")
    return builder, branch, worker


class TestVerifierRejects:
    def test_upstream_cas_target(self):
        """A CAS aimed at a WR already fetched in doorbell order (the
        target sits at or before the CAS on the same queue)."""
        ctx = fresh_ctx("up")
        builder = ProgramBuilder(ctx, name="up")
        src, _ = ctx.alloc_registered(8)
        dst, dst_mr = ctx.alloc_registered(8)
        worker = builder.worker_queue(name="wrk")
        branch = builder.template(
            worker, wr_write(src.addr, 8, dst.addr, dst_mr.rkey),
            tag="up.branch")
        builder.link(ArmCasOp(worker, FieldRef(branch, "ctrl"),
                              compare=0, swap=ArmWord(branch),
                              signaled=True, tag="up.cas"))

        with pytest.raises(ChainLintError) as excinfo:
            verify_or_raise(builder.program)
        assert excinfo.value.check == "upstream-target"
        assert "up.branch" in str(excinfo.value)

    def test_enable_count_exceeds_produced(self):
        """ENABLE releasing further than the producer ever posted."""
        builder, branch, worker = _arm_target_world("worker")
        ctl = builder.control_queue(name="ctl")
        builder.link(EnableOp(ctl, branch.ir_op.queue, 5,
                              tag="bad.enable"))

        with pytest.raises(ChainLintError) as excinfo:
            verify_or_raise(builder.program)
        assert excinfo.value.check == "enable-mismatch"

    def test_swap_into_prefetched_window(self):
        """Arming a template on a *normal* (prefetching) queue: the
        NIC may have fetched the stale bytes already (§3.1)."""
        builder, branch, worker = _arm_target_world("control")
        builder.link(ArmCasOp(worker, FieldRef(branch, "ctrl"),
                              compare=0, swap=ArmWord(branch),
                              signaled=True, tag="bad.cas"))

        hazards = verify(builder.program)
        checks = {hazard.check for hazard in hazards}
        assert "prefetch-window" in checks
        with pytest.raises(ChainLintError):
            verify_or_raise(builder.program)

    def test_restore_shorter_than_image(self):
        """A full-slot restore of a multi-slot (SGE-carrying) WR would
        leave the tail slots corrupted after the first lap."""
        ctx = fresh_ctx("shadow")
        builder = ProgramBuilder(ctx, name="shadow")
        data, data_mr = ctx.alloc_registered(64)
        shadow, shadow_mr = ctx.alloc_registered(2 * WQE_SLOT_SIZE)
        worker = builder.worker_queue(name="wrk")
        wqe = wr_write(data.addr, 8, data.addr + 8, data_mr.rkey)
        wqe.sges = [Sge(data.addr + 16, 8)]
        wide = builder.emit(worker, wqe, tag="wide")

        with pytest.raises(ChainLintError) as excinfo:
            RestoreOp(worker, wide, 0, WQE_SLOT_SIZE, shadow.addr,
                      shadow_mr.rkey, tag="bad.restore")
        assert excinfo.value.check == "restore-truncated"

    def test_restore_overruns_image(self):
        ctx = fresh_ctx("overrun")
        builder = ProgramBuilder(ctx, name="overrun")
        data, data_mr = ctx.alloc_registered(64)
        shadow, shadow_mr = ctx.alloc_registered(2 * WQE_SLOT_SIZE)
        worker = builder.worker_queue(name="wrk")
        wr = builder.emit(worker, wr_write(data.addr, 8, data.addr + 8,
                                           data_mr.rkey), tag="one")

        with pytest.raises(ChainLintError) as excinfo:
            RestoreOp(worker, wr, 32, WQE_SLOT_SIZE, shadow.addr,
                      shadow_mr.rkey, tag="bad.restore")
        assert excinfo.value.check == "restore-overrun"


# ---------------------------------------------------------------------------
# Streaming linking: a program holds posted ops only
# ---------------------------------------------------------------------------


class TestStreamingLink:
    def test_forward_aim_fails_before_recording_or_poking(self):
        """Aiming at a WR not posted yet must raise: nothing would ever
        poke its address in, yet the verifier would count the edge."""
        ctx = fresh_ctx("fwd")
        builder = ProgramBuilder(ctx, name="fwd")
        data, data_mr = ctx.alloc_registered(64)
        worker = builder.worker_queue(name="wrk")
        src = builder.emit(worker, wr_write(data.addr, 8, 0,
                                            data_mr.rkey), tag="src")
        later = RawOp(worker, wr_write(data.addr + 8, 8, data.addr,
                                       data_mr.rkey), tag="later")
        before = ring_bytes(worker)

        with pytest.raises(ChainLintError) as excinfo:
            aim(builder.program, src, "raddr", FieldRef(later, "laddr"))
        assert excinfo.value.check == "unlinked-target"
        assert builder.program.edges == []
        assert ring_bytes(worker) == before
        assert src.peek("raddr") == 0

    def test_failed_post_leaves_program_unchanged(self):
        """An op whose post fails (here: a full ring) never joins the
        program, so every op the passes see is linked."""
        ctx = fresh_ctx("full")
        builder = ProgramBuilder(ctx, name="full")
        data, data_mr = ctx.alloc_registered(64)
        worker = builder.worker_queue(slots=2, name="wrk")
        for index in range(2):
            builder.emit(worker, wr_write(data.addr, 8,
                                          data.addr + 8 * index,
                                          data_mr.rkey), tag="w")
        extra = RawOp(worker, wr_write(data.addr, 8, data.addr + 16,
                                       data_mr.rkey), tag="extra")

        with pytest.raises(QueueError):
            builder.link(extra)
        assert not extra.linked
        assert [op.tag for op in builder.program.ops] == ["w", "w"]
        assert all(op.linked for op in builder.program.ops)
        assert builder.program.op_for(extra) is None


# ---------------------------------------------------------------------------
# Ordering report
# ---------------------------------------------------------------------------


class TestOptimizerPasses:
    def test_plan_ordering_flags_static_managed_queue(self):
        """A managed queue with no modification targets and no
        ENABLE-gating burns fetch holds for nothing: the planner must
        recommend normal (batched) ordering with a saving estimate."""
        ctx = fresh_ctx("plan")
        builder = ProgramBuilder(ctx, name="plan")
        data, data_mr = ctx.alloc_registered(64)
        worker = builder.worker_queue(name="wrk")
        for index in range(4):
            builder.emit(worker, wr_write(data.addr, 8,
                                          data.addr + 8 * index,
                                          data_mr.rkey), tag="w")

        plans = plan_ordering(builder.program)
        [plan] = [p for p in plans if p["queue"] == "wrk"]
        assert plan["current"] == "doorbell"
        assert plan["recommended"] == "normal"
        assert plan["est_saving_ns"] > 0
