"""ProgramBuilder: assembling self-modifying RDMA chains.

The builder provides the paper's vocabulary:

* **templates** — NOOP WQEs carrying the full attributes of the verb
  they may become (Fig 4's R2). Until a CAS flips their ctrl word they
  execute as harmless no-ops.
* **doorbell-ordering glue** — ``enable``/``wait`` emit the E-verbs of
  Table 2 onto a control queue, computing WAIT thresholds from each
  queue's count of signaled WRs (CQ counters are monotonic, §3.4).
* **emit_if** — the conditional of §3.3: a CAS whose compare operand
  tests a 48-bit value embedded in a target WQE's id field and whose
  swap rewrites the opcode. Cost: exactly 1 copy + 1 atomic + 3
  ordering verbs, matching Table 2.

Since the IR refactor the builder is a *front end*: every method
creates a typed chain op (:mod:`repro.redn.ir`) and streams it through
the linker (:mod:`repro.redn.linker`), which posts it immediately —
emission order is program order, so lowered bytes land exactly where
the old direct-assembly path put them. The accumulated
:class:`~repro.redn.ir.ChainProgram` (``builder.program``) is what the
verifier and the cost pass consume.

Cost accounting (:meth:`ProgramBuilder.cost`) delegates to the IR cost
pass, classifying every posted WR into the paper's C/A/E categories so
the Table 2 benchmark is regenerated by introspection rather than
hand-counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from ..ibv.wr import wr_cas, wr_recv
from ..nic.opcodes import Opcode
from ..nic.queue import CompletionQueue
from ..nic.wqe import Sge, Wqe, ctrl_word
from .ir import (
    AimEdge,
    ArmCasOp,
    ArmWord,
    ChainOp,
    ChainProgram,
    EnableOp,
    FieldRef,
    RawOp,
    SignaledCount,
    TemplateOp,
    WaitOp,
)
from .linker import aim, link_op
from .passes import ConstructCost, chain_cost
from .program import ChainQueue, ProgramError, RednContext, WrRef

__all__ = ["ProgramBuilder", "IfRefs", "ConstructCost"]


@dataclass
class IfRefs:
    """Handles produced by one emitted if-construct."""

    cas: WrRef          # the predicate CAS
    branch: WrRef       # the NOOP template it may activate
    live_ctrl: int      # ctrl word installed on predicate success


class ProgramBuilder:
    """Accumulates a RedN program across chain queues."""

    def __init__(self, ctx: RednContext, name: str = "prog"):
        self.ctx = ctx
        self.name = name
        self.program = ChainProgram(name)
        self.queues: List[ChainQueue] = []
        self.refs: List[WrRef] = []
        # Per-operand scratch for discarded CAS return values.
        self._scratch = ctx.alloc(4096, label=f"{name}-scratch")

    # -- queue management ----------------------------------------------------

    def control_queue(self, slots: int = 256, name: str = "",
                      port_index: int = 0) -> ChainQueue:
        queue = self.ctx.control_queue(slots=slots, name=name,
                                       port_index=port_index)
        self.queues.append(queue)
        return queue

    def worker_queue(self, slots: int = 256, name: str = "",
                     port_index: int = 0) -> ChainQueue:
        queue = self.ctx.worker_queue(slots=slots, name=name,
                                      port_index=port_index)
        self.queues.append(queue)
        return queue

    def adopt_client_queue(self, qp, name: str = "") -> ChainQueue:
        queue = self.ctx.adopt_client_queue(qp, name=name)
        self.queues.append(queue)
        return queue

    # -- emission: every path streams one IR op through the linker ---------

    def link(self, op: ChainOp) -> WrRef:
        """Lower one chain op now (streaming mode); returns its ref."""
        ref = link_op(self.program, op)
        self.refs.append(ref)
        return ref

    def emit(self, queue: ChainQueue, wqe: Wqe, tag: str = "") -> WrRef:
        return self.link(RawOp(queue, wqe, tag=tag))

    def template(self, queue: ChainQueue, live_wqe: Wqe,
                 tag: str = "") -> WrRef:
        """Post ``live_wqe`` disarmed: opcode NOOP, everything else set.

        The intended opcode is preserved on the ref (and recoverable via
        :meth:`live_ctrl_for`) so a later CAS can arm it.
        """
        op = TemplateOp(queue, live_wqe, tag=tag)
        ref = self.link(op)
        ref.intended_opcode = op.intended
        return ref

    @staticmethod
    def live_ctrl_for(ref: WrRef, wr_id: int = 0) -> int:
        """The ctrl word that arms a template (its intended opcode)."""
        intended = getattr(ref, "intended_opcode", None)
        if intended is None:
            raise ProgramError(f"{ref!r} is not a template")
        return ctrl_word(intended, wr_id)

    def post_recv(self, qp, sges: List[Sge],
                  scatters: Sequence[FieldRef] = ()) -> int:
        """Post a trigger RECV on ``qp`` scattering into ``sges``.

        ``scatters`` are the WQE fields its entries inject into; each is
        recorded as an external modification edge so the verifier sees
        the runtime injection.
        """
        for target in scatters:
            self.program.add_edge(AimEdge(src=None, dst=target, length=8,
                                          kind="scatter"))
        return self.ctx.post(qp.recv_wq, wr_recv(sges=sges))

    # -- ordering glue -------------------------------------------------------------

    def wait(self, ctl: ChainQueue, cq: Union[ChainQueue, CompletionQueue],
             count: int, tag: str = "") -> WrRef:
        """WAIT on ``cq`` reaching ``count`` total completions."""
        return self.link(WaitOp(ctl, cq, count, tag=tag))

    def wait_signals(self, ctl: ChainQueue, queue: ChainQueue,
                     tag: str = "") -> WrRef:
        """WAIT until every signaled WR posted on ``queue`` so far has
        completed — the builder's running threshold bookkeeping."""
        return self.link(WaitOp(ctl, queue.cq, SignaledCount(queue),
                                tag=tag))

    def enable(self, ctl: ChainQueue, ref: WrRef, tag: str = "") -> WrRef:
        """ENABLE the target queue through ``ref`` (absolute index)."""
        return self.link(EnableOp(ctl, ref, None, tag=tag))

    # -- §3.3: the if construct -------------------------------------------------

    def emit_if(self, ctl: ChainQueue, predicate_queue: ChainQueue,
                branch: WrRef, compare_id: Optional[int] = None,
                tag: str = "if") -> IfRefs:
        """Emit a conditional: arm ``branch`` iff its id equals an operand.

        ``branch`` must be a template whose 48-bit id field holds (or
        will hold, via injection) operand *x*. The CAS compares the
        branch's full ctrl word against ``ctrl_word(NOOP, y)`` where
        operand *y* is ``compare_id`` — or is injected at runtime into
        the CAS's operand0 field by a RECV or READ when ``compare_id``
        is None. On match the branch's opcode flips to its intended
        verb.

        Emits 1 atomic + 3 ordering verbs; with the branch template
        itself that is Table 2's ``1C + 1A + 3E``.
        """
        swap = self.live_ctrl_for(branch, wr_id=compare_id or 0)
        compare = ctrl_word(Opcode.NOOP, compare_id or 0)
        cas = self.link(ArmCasOp(
            predicate_queue, FieldRef(branch, "ctrl"), compare=compare,
            swap=ArmWord(branch, wr_id=compare_id or 0),
            result_laddr=self._scratch.addr, signaled=True,
            tag=f"{tag}.cas"))
        # E1: release the CAS (its operands are in place by now —
        # callers emit the data-dependency WAIT before emit_if).
        self.enable(ctl, cas, tag=f"{tag}.enable-cas")
        # E2: full barrier — the branch WQE is only fetched after the
        # CAS completed (doorbell ordering, Fig 2b).
        self.wait_signals(ctl, predicate_queue, tag=f"{tag}.wait-cas")
        # E3: release the (possibly rewritten) branch.
        self.enable(ctl, branch, tag=f"{tag}.enable-branch")
        return IfRefs(cas=cas, branch=branch, live_ctrl=swap)

    # -- §3.5: operands wider than 48 bits ---------------------------------

    @staticmethod
    def split_wide_operand(value: int, bits: int) -> List[int]:
        """Split a ``bits``-wide value into 48-bit segments, low first."""
        if value >= (1 << bits):
            raise ProgramError(f"value exceeds {bits} bits")
        segments = []
        remaining = bits
        while remaining > 0:
            width = min(48, remaining)
            segments.append(value & ((1 << width) - 1))
            value >>= width
            remaining -= width
        return segments

    def emit_wide_if(self, ctl: ChainQueue, predicate_queue: ChainQueue,
                     stages_queue: ChainQueue, branch: WrRef,
                     compare_value: int, operand_bits: int = 96,
                     tag: str = "wide-if") -> List[WrRef]:
        """Conditional on an operand wider than one CAS can test.

        The paper's §3.5: "we can chain together multiple CAS
        operations to handle different segments of a larger operand (we
        do not rely on the atomicity property of CAS)". Realized by
        **arming CAS verbs with CAS verbs**: guard WQE ``G[k]`` is a
        posted-disarmed CAS testing segment k; segment k-1's CAS arms
        it. Only if every segment matches does the final guard arm
        ``branch``; a mismatch anywhere leaves the rest of the chain as
        harmless NOOPs.

        Runtime operand placement: segment k of *x* lives in the id
        field of stage k's **target** — segment 0 in ``G[1].id``,
        segment 1 in ``G[2].id``, ..., the last segment in
        ``branch.id``. Aim RECV/READ scatters there for runtime
        injection (tests use :meth:`WrRef.poke`). The expected value
        *y*'s segments are baked into the CAS operands here.

        Returns the guard chain ``[G1, ..., G(n-1)]`` in test order.
        """
        segments = self.split_wide_operand(compare_value, operand_bits)
        if len(segments) < 2:
            raise ProgramError("use emit_if for operands up to 48 bits")
        stages_base = stages_queue.signaled_posted

        # Post guards in execution order with placeholder targets,
        # then patch each to aim at its successor (the CPU preparing
        # code at setup time). The raddr wiring is recorded as an arm
        # edge so the verifier sees guard -> target ctrl.
        chain: List[WrRef] = []
        for index in range(1, len(segments)):
            live_cas = wr_cas(0, 0,
                              compare=ctrl_word(Opcode.NOOP,
                                                segments[index]),
                              swap=0,
                              result_laddr=self._scratch.addr,
                              signaled=True)
            chain.append(self.template(stages_queue, live_cas,
                                       tag=f"{tag}.guard{index}"))
        for position, guard in enumerate(chain):
            target = chain[position + 1] if position + 1 < len(chain) \
                else branch
            segment = segments[position + 1]
            aim(self.program, guard, "raddr", FieldRef(target, "ctrl"),
                kind="arm", length=8)
            guard.poke("operand1",
                       self.live_ctrl_for(target, segment))
            # rkey field lives in the header; patch via bytes too.
            guard.poke("rkey", target.queue.rkey)

        # Stage 0: a live CAS testing segment 0 (x0 sits in G1's id)
        # and arming G1 on success.
        self.emit_if(ctl, predicate_queue, chain[0],
                     compare_id=segments[0], tag=f"{tag}.seg0")
        # Release stage k only after stage k-1 retired (armed or not).
        for position in range(1, len(chain)):
            self.wait(ctl, stages_queue.cq, stages_base + position,
                      tag=f"{tag}.wait{position}")
            self.enable(ctl, chain[position],
                        tag=f"{tag}.enable{position}")
        self.wait(ctl, stages_queue.cq, stages_base + len(chain),
                  tag=f"{tag}.wait-final")
        self.enable(ctl, branch, tag=f"{tag}.enable-branch")
        return chain

    # -- accounting (Table 2) -----------------------------------------------------

    def cost(self, tag_prefix: str = "") -> ConstructCost:
        """C/A/E counts over WRs whose tag starts with ``tag_prefix``."""
        return chain_cost(self.program, tag_prefix)
