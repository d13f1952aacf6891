"""Loop constructs: unrolled iteration helpers and WQ recycling (§3.4).

Two strategies, with the paper's trade-off:

* **Unrolled** — the CPU posts every iteration ahead of time (possible
  when the bound is known). Each iteration costs the same WRs as an
  ``if`` (Table 2: 1C + 1A + 3E) and executes fastest. The iteration
  scaffolding lives in :class:`ProgramBuilder`; offloads compose it
  directly (see :mod:`repro.offloads.list_traversal`).

* **WQ recycling** — :class:`RecycledLoop` builds a managed ring that
  re-executes *itself* forever with zero CPU involvement: the ring is
  filled exactly, a relative tail ENABLE re-arms it past the producer
  index, an ADD verb bumps the head WAIT's absolute completion count
  (monotonic CQ counters, §3.4), and restore READs rewrite any
  self-modified WQE back to its template image from a shadow buffer.
  Per iteration this costs the extra 2 READs + 1 ADD + 1 ENABLE the
  paper reports — but the offload stays alive across host software
  failures (§5.6).

Both lower through the IR: restores become :class:`RestoreOp` (whose
construction *asserts* the shadow region matches the ring image it
restores — a short shadow would silently truncate the re-templating),
the ADD becomes :class:`CountBumpOp` and the rearms
:class:`EnableOp` — so the verifier can tell this deliberate
upstream rewriting from genuine doorbell-order hazards.

The **break** mechanism (Fig 6) is provided by :class:`BreakImage`: a
single WRITE (armed by the predicate CAS) that overwrites a prepared
two-WQE image — arming the response *and* clearing the SIGNALED flag of
the iteration's gate WR, so the next iteration's WAIT never fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..nic.opcodes import Opcode, WrFlags
from ..nic.queue import CompletionQueue
from ..nic.wqe import WQE_HEADER, WQE_SLOT_SIZE, Wqe
from .builder import ProgramBuilder
from .ir import (
    AimEdge,
    CountBumpOp,
    EnableOp,
    FieldRef,
    LoopInfo,
    RestoreOp,
    WQE_COUNT_ADD_DELTA,
)
from .program import ChainQueue, ProgramError, WrRef

__all__ = ["RecycledLoop", "BreakImage", "WQE_COUNT_ADD_DELTA"]


@dataclass
class _RestoreSpec:
    target: WrRef
    offset: int
    length: int
    shadow_addr: int = 0   # filled at build time


class RecycledLoop:
    """A self-recycling managed ring: the CPU-free unbounded loop.

    Usage::

        loop = RecycledLoop(builder, trigger_cq, trigger_delta=1)
        ref = loop.body(some_wqe, tag="while.body")
        loop.restore(ref)                  # re-template after each lap
        loop.rearm(client_queue)           # ENABLE another queue per lap
        loop.build()                       # sizes + posts the exact ring
        loop.start()                       # one initial doorbell; the
                                           # NIC owns the loop from here
    """

    def __init__(self, builder: ProgramBuilder,
                 trigger_cq: CompletionQueue, trigger_delta: int = 1,
                 name: str = "while", tag: str = "while"):
        self.builder = builder
        self.trigger_cq = trigger_cq
        self.trigger_delta = trigger_delta
        self.name = name
        self.tag = tag
        self._body: List[Tuple[Wqe, str]] = []
        self._restores: List[_RestoreSpec] = []
        self._rearms: List[Tuple[ChainQueue, int]] = []
        self.ring: Optional[ChainQueue] = None
        self.wait_ref: Optional[WrRef] = None
        self.body_refs: List[WrRef] = []
        self._built = False

    # -- plan phase -----------------------------------------------------------

    def body(self, wqe: Wqe, tag: str = "") -> int:
        """Queue a body WR; returns its position (resolve after build)."""
        if self._built:
            raise ProgramError("loop already built")
        self._body.append((wqe, tag or f"{self.tag}.body"))
        return len(self._body) - 1

    def restore(self, body_index_or_ref, offset: int = 0,
                length: int = WQE_SLOT_SIZE) -> None:
        """Restore ``length`` template bytes of a WR after each lap.

        Accepts a body position (int) for ring WRs, or a WrRef for WRs
        on other queues (e.g. a response template on a client queue).
        """
        if self._built:
            raise ProgramError("loop already built")
        self._restores.append(_RestoreSpec(body_index_or_ref, offset,
                                           length))

    def rearm(self, queue, count: int = 1) -> None:
        """Per lap, ENABLE ``queue`` forward by ``count`` WRs.

        Accepts a :class:`ChainQueue` or a raw :class:`WorkQueue` —
        re-arming the trigger *recv ring* this way is what lets a
        recycled service accept requests forever without the CPU
        re-posting RECVs (the §5.6 failure-resiliency requirement).
        """
        self._rearms.append((queue, count))

    # -- build phase --------------------------------------------------------------

    @property
    def ring_wrs(self) -> int:
        # WAIT + body + restores + ADD + rearms + self-wrap ENABLE
        return (1 + len(self._body) + len(self._restores) + 1
                + len(self._rearms) + 1)

    def build(self) -> None:
        if self._built:
            raise ProgramError("loop already built")
        self._built = True
        builder = self.builder
        ctx = builder.ctx
        ring = builder.worker_queue(slots=self.ring_wrs,
                                    name=f"{self.name}-ring")
        self.ring = ring

        # Head WAIT: one lap per `trigger_delta` completions. Absolute
        # count for lap 1; the tail ADD bumps it before every wrap.
        self.wait_ref = builder.wait(ring, self.trigger_cq,
                                     self.trigger_delta,
                                     tag=f"{self.tag}.wait")
        restores: List[RestoreOp] = []

        for wqe, tag in self._body:
            self.body_refs.append(builder.emit(ring, wqe, tag=tag))

        # Shadow cells + restore READs. The RestoreOp captures the
        # just-posted (pristine) ring bytes into its shadow at link
        # time, after asserting the region matches the target's image.
        shadow_size = sum(spec.length for spec in self._restores) or 8
        shadow_alloc, shadow_mr = ctx.alloc_registered(
            shadow_size, label=f"{self.name}-shadow")
        cursor = shadow_alloc.addr
        for spec in self._restores:
            target = spec.target
            if isinstance(target, int):
                target = self.body_refs[target]
                spec.target = target
            spec.shadow_addr = cursor
            op = RestoreOp(ring, target, spec.offset, spec.length,
                           spec.shadow_addr, shadow_mr.rkey,
                           capture=True, tag=f"{self.tag}.restore")
            builder.link(op)
            restores.append(op)
            cursor += spec.length

        # ADD: bump the head WAIT's wqe_count by trigger_delta per lap.
        builder.link(CountBumpOp(ring, self.wait_ref,
                                 self.trigger_delta, ring.rkey,
                                 tag=f"{self.tag}.add"))

        for queue, count in self._rearms:
            builder.link(EnableOp(ring, queue, count, relative=True,
                                  tag=f"{self.tag}.rearm"))

        # Tail: wrap the ring around itself, one full lap at a time.
        builder.link(EnableOp(ring, ring, self.ring_wrs, relative=True,
                              tag=f"{self.tag}.wrap"))

        if ring.wq.posted_count != self.ring_wrs:
            raise ProgramError(
                f"ring not exactly filled: {ring.wq.posted_count} "
                f"!= {self.ring_wrs}")
        builder.program.loops.append(LoopInfo(
            ring=ring, wait=self.wait_ref.ir_op, restores=restores,
            ring_wrs=self.ring_wrs))

    def start(self) -> None:
        """The single CPU action: enable the first lap."""
        if not self._built:
            raise ProgramError("build() the loop first")
        self.ring.doorbell()


class BreakImage:
    """The Fig 6 break: one WRITE arming a response and killing a gate.

    Layout requirement: ``response`` and ``gate`` are *adjacent* WQEs on
    the same queue (response first). The prepared image holds:

    * a response WQE identical to the posted template but with its
      intended opcode armed (runtime-patched fields are kept current by
      aiming the data READ's scatter at the image too), and
    * the gate WQE with its SIGNALED flag cleared, so the completion
      the next iteration WAITs on never happens.

    ``emit_break_write`` posts the (disarmed) WRITE covering both WQEs;
    the loop's predicate CAS arms it on a key match. The break template
    records its (response, gate) pair on the IR op — the verifier
    exempts this intentional two-WQE span from the field-granularity
    inject checks.
    """

    def __init__(self, builder: ProgramBuilder, response: WrRef,
                 gate: WrRef, tag: str = "break", buffer=None):
        if response.queue is not gate.queue:
            raise ProgramError("response and gate must share a queue")
        if gate.slot_cursor != response.slot_cursor + response.wqe.num_slots:
            raise ProgramError("gate must immediately follow response")
        self.builder = builder
        self.response = response
        self.gate = gate
        self.tag = tag
        ctx = builder.ctx
        # Image = armed response WQE + gate WQE with SIGNALED cleared.
        self.image_len = WQE_SLOT_SIZE * 2
        # ``buffer``: a registered (allocation, region) of image_len
        # bytes to reuse, e.g. from a pooled queue set.
        self._alloc, self.region = buffer or ctx.alloc_registered(
            self.image_len, label=f"{tag}-image")
        armed = bytearray(response.snapshot_bytes(WQE_SLOT_SIZE))
        WQE_HEADER.pack_into(
            armed, 0, "ctrl",
            ProgramBuilder.live_ctrl_for(response))
        dead_gate = bytearray(gate.snapshot_bytes(WQE_SLOT_SIZE))
        flags = WQE_HEADER.unpack_field(dead_gate, 0, "flags")
        WQE_HEADER.pack_into(dead_gate, 0, "flags",
                             flags & ~WrFlags.SIGNALED)
        ctx.store_copy(self._alloc.addr, bytes(armed), response.slot_addr)
        ctx.store_copy(self._alloc.addr + WQE_SLOT_SIZE, bytes(dead_gate),
                       gate.slot_addr)

    @property
    def image_addr(self) -> int:
        return self._alloc.addr

    def emit_break_write(self, queue: ChainQueue,
                         signaled: bool = True) -> WrRef:
        """Post the disarmed break WRITE (a NOOP template)."""
        live = Wqe(opcode=Opcode.WRITE, laddr=self.image_addr,
                   length=self.image_len,
                   raddr=self.response.slot_addr,
                   rkey=self.response.queue.rkey,
                   flags=WrFlags.SIGNALED if signaled else 0)
        ref = self.builder.template(queue, live, tag=f"{self.tag}.write")
        ref.ir_op.break_targets = (self.response, self.gate)
        # Record the two-WQE overwrite as a modification edge so the
        # verifier (and reports) see the break datapath.
        self.builder.program.add_edge(AimEdge(
            src=ref, dst=FieldRef(self.response, "ctrl"),
            length=self.image_len, kind="inject"))
        return ref
