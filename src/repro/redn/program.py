"""RedN program plumbing: chain queues, WR handles, server context.

A RedN program is not an AST — it is a set of *work queues filled with
bytes*. The classes here manage exactly that:

* :class:`RednContext` — the server-side environment (§3.5 "Offload
  setup"): a protection domain, scratch allocations, and *code regions*
  — WQ rings registered for RDMA so the program can modify itself.
* :class:`ChainQueue` — one send queue used as chain storage, wrapped
  with its loopback QP and its code-region MR. Worker queues are
  *managed* (doorbell ordering, §3.1); control queues holding the
  static WAIT/ENABLE skeleton are normal-mode (they are never
  modified, so they may be prefetched).
* :class:`WrRef` — a handle to one posted WR: its index, its slot
  address, and per-field addresses. Field addresses are what the rest
  of the program aims CAS/WRITE/READ-scatter operations at.

* :class:`QueueSetPool` — one lane's reusable one-shot queue sets
  (:class:`QueueSet`) for chains that strand their tails.

Every host-side effect a program makes while it is built — posts,
setup-time pokes and image stores, doorbells, and the queue set it
takes — goes through the context, so a
:class:`repro.redn.template.ActionRecorder` installed as
``ctx.recorder`` sees one offload instance's complete action list.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Tuple

from ..memory.dram import Allocation, HostMemory
from ..memory.layout import pack_uint
from ..memory.region import AccessFlags, MemoryRegion, ProtectionDomain
from ..nic.qp import QueuePair
from ..nic.queue import CompletionQueue, WorkQueue
from ..nic.rnic import RNIC
from ..nic.wqe import WQE_SLOT_SIZE, Wqe, field_location
from ..net.node import OsProcess

__all__ = ["RednContext", "ChainQueue", "WrRef", "ProgramError",
           "QueueSet", "QueueSetPool"]

#: WQE fields holding host addresses (setup-time pokes into them carry
#: ring or buffer addresses a compiled template must relocate).
_ADDRESS_FIELDS = frozenset(("laddr", "raddr"))


class ProgramError(Exception):
    """Malformed RedN program construction."""


class WrRef:
    """Handle to a posted WR inside a :class:`ChainQueue`."""

    __slots__ = ("queue", "wr_index", "slot_cursor", "wqe", "tag",
                 "slot_addr", "intended_opcode", "ir_op")

    def __init__(self, queue: "ChainQueue", wr_index: int,
                 slot_cursor: int, wqe: Wqe, tag: str = ""):
        self.queue = queue
        self.wr_index = wr_index
        self.slot_cursor = slot_cursor
        self.wqe = wqe          # the host-side template (setup-time copy)
        self.tag = tag
        self.ir_op = None       # back-pointer set by the IR linker
        # Ring geometry is fixed at post time, so the slot address never
        # changes; programs aim thousands of field addresses at it.
        self.slot_addr = queue.wq.slot_addr(slot_cursor)

    def __repr__(self) -> str:
        return (f"<WrRef {self.queue.name}[{self.wr_index}] "
                f"op={self.wqe.opcode:#x} tag={self.tag}>")

    def field_addr(self, field: str) -> int:
        """Host address of one WQE field — a self-modification target."""
        offset, _width = field_location(field)
        return self.slot_addr + offset

    def field_width(self, field: str) -> int:
        return field_location(field)[1]

    # -- setup-time host patching (the CPU preparing code, not the NIC) --

    def poke(self, field: str, value: int) -> None:
        offset, width = field_location(field)
        self.queue.ctx.poke(self.slot_addr + offset, value, width,
                            address=field in _ADDRESS_FIELDS)

    def peek(self, field: str) -> int:
        offset, width = field_location(field)
        return self.queue.memory.read_uint(self.slot_addr + offset, width)

    def snapshot_bytes(self, length: Optional[int] = None) -> bytes:
        """Current ring bytes of this WQE (template images for restores)."""
        length = length if length is not None else WQE_SLOT_SIZE
        return self.queue.memory.read(self.slot_addr, length)

    # SGE entries live in follow-on slots: 4 per slot, 16 bytes each.

    def sge_addr_location(self, index: int) -> int:
        """Host address of scatter entry ``index``'s addr field."""
        if index >= len(self.wqe.sges):
            raise ProgramError(f"SGE {index} outside {self!r}")
        slot = 1 + index // 4
        return (self.queue.wq.slot_addr(self.slot_cursor + slot)
                + (index % 4) * 16)

    def poke_sge(self, index: int, addr: int,
                 length: Optional[int] = None) -> None:
        """Setup-time patch of one scatter entry (addr and optionally
        length). The SGE count is fixed at post time — only targets may
        be re-aimed, so ring slot geometry never changes."""
        if index >= len(self.wqe.sges):
            raise ProgramError(f"{self!r} has no SGE {index}")
        location = self.sge_addr_location(index)
        self.queue.ctx.poke(location, addr, 8, address=True)
        if length is not None:
            self.queue.ctx.poke(location + 8, length, 4)


class ChainQueue:
    """A send queue holding chain WRs, plus its code-region MR."""

    def __init__(self, ctx: "RednContext", managed: bool, slots: int,
                 name: str, qp: Optional[QueuePair] = None,
                 port_index: int = 0):
        self.ctx = ctx
        self.name = name
        self.managed = managed
        if qp is None:
            qp, peer = ctx.create_loopback_pair(
                managed_send=managed, send_slots=slots, name=name,
                port_index=port_index)
            self._peer = peer
            #: QPs this queue created (reset with it by a QueueSetPool).
            self.owned_qps = [qp, peer]
        else:
            self._peer = qp.peer
            self.owned_qps = []
        self.qp = qp
        self.wq: WorkQueue = qp.send_wq
        # Register the ring as a code region so chain verbs (running on
        # loopback QPs in the same PD) may rewrite it.
        self.code_mr: MemoryRegion = ctx.pd.register(
            self.wq.ring, access=AccessFlags.ALL)
        self.refs: List[WrRef] = []
        #: Signaled completions expected on this queue's CQ after each
        #: posted WR — the numbers WAIT thresholds are computed from.
        self.signaled_posted = 0

    def __repr__(self) -> str:
        return f"<ChainQueue {self.name} wrs={len(self.refs)}>"

    @property
    def memory(self) -> HostMemory:
        return self.ctx.memory

    @property
    def cq(self) -> CompletionQueue:
        return self.wq.cq

    @property
    def wq_num(self) -> int:
        return self.wq.wq_num

    @property
    def cq_num(self) -> int:
        return self.cq.cq_num

    @property
    def rkey(self) -> int:
        return self.code_mr.rkey

    def post(self, wqe: Wqe, tag: str = "",
             ring_doorbell: Optional[bool] = None) -> WrRef:
        """Post a chain WR; managed queues default to no doorbell."""
        slot_cursor = self.wq._post_slot_cursor
        wr_index = self.ctx.post(self.wq, wqe, ring_doorbell, chain=self)
        ref = WrRef(self, wr_index, slot_cursor, wqe, tag=tag)
        self.refs.append(ref)
        if wqe.signaled:
            self.signaled_posted += 1
        if self.ctx.recorder is not None:
            self.ctx.recorder.on_ref(ref)
        return ref

    def doorbell(self, up_to: Optional[int] = None) -> None:
        if self.ctx.recorder is not None:
            self.ctx.recorder.on_doorbell(self.wq, up_to)
        self.wq.doorbell(up_to=up_to)

    def reset(self, name: str) -> None:
        """Forget the previous tenant's WRs (see :class:`QueueSetPool`)."""
        self.name = name
        self.refs = []
        self.signaled_posted = 0


class QueueSet:
    """The one-shot chain queues and buffers one request runs on.

    ``buffers`` holds ``(allocation, region)`` pairs. A set serves one
    request at a time and is reused (:class:`QueueSetPool`); its
    addresses, keys and queue numbers never change. Every queue, QP and
    CQ name starts with ``tag``, the tag of the request it serves.
    """

    __slots__ = ("tag", "queues", "buffers", "qps")

    def __init__(self, tag: str, queues: List[ChainQueue],
                 buffers: List[Tuple[Allocation, MemoryRegion]]):
        self.tag = tag
        self.queues = queues
        self.buffers = buffers
        self.qps = [qp for queue in queues for qp in queue.owned_qps]

    def __repr__(self) -> str:
        return f"<QueueSet {self.tag}>"


class QueueSetPool:
    """One lane's reusable one-shot queue sets.

    The fixed-ring reuse of a hardware ring-buffer controller: a
    request that strands a chain tail (§3.4's early break) hands its
    set back with :meth:`give_back` instead of destroying it, and
    :meth:`take` reuses the oldest returned set once nothing of it is
    in flight (:meth:`RNIC.qps_idle <repro.nic.rnic.RNIC.qps_idle>`),
    resetting it first (:meth:`RNIC.reset_qps
    <repro.nic.rnic.RNIC.reset_qps>`), so a stale tail can never run
    for the next tenant. With no idle set, ``create(tag)`` makes a new
    one; sets are never destroyed.
    """

    def __init__(self, ctx: "RednContext",
                 create: Callable[[str], QueueSet]):
        self.ctx = ctx
        self._create = create
        #: Every set, in creation order.
        self.sets: List[QueueSet] = []
        self._returned: List[QueueSet] = []

    def take(self, tag: str) -> QueueSet:
        """An idle set for the request tagged ``tag``."""
        ctx = self.ctx
        nic = ctx.nic
        for index, qset in enumerate(self._returned):
            if nic.qps_idle(qset.qps):
                del self._returned[index]
                old = len(qset.tag)

                def rename(name: str) -> str:
                    return tag + name[old:]
                nic.reset_qps(qset.qps, rename)
                for queue in qset.queues:
                    queue.reset(rename(queue.name))
                qset.tag = tag
                break
        else:
            qset = self._create(tag)
            self.sets.append(qset)
        if ctx.recorder is not None:
            ctx.recorder.on_set(qset)
        return qset

    def give_back(self, qset: QueueSet) -> None:
        """Return a finished request's set; it is reused once idle."""
        self._returned.append(qset)


class RednContext:
    """Server-side RedN environment: PD, scratch, queues, data regions."""

    _ids = itertools.count()

    def __init__(self, nic: RNIC, pd: ProtectionDomain,
                 process: Optional[OsProcess] = None,
                 owner: Optional[str] = None, name: str = ""):
        if not nic.model.supports_wait_enable:
            # §6: Intel-class RNICs lack WAIT; a validity bit can mimic
            # ENABLE but pre-posted chains cannot be client-triggered
            # without another PCIe device ringing the doorbell. The
            # paper leaves that workaround as future work; so do we.
            raise ProgramError(
                f"{nic.model.name} lacks WAIT/ENABLE cross-channel "
                f"verbs; RedN programs require them (paper §4/§6)")
        self.nic = nic
        self.pd = pd
        self.process = process
        if owner is not None:
            self.owner = owner
        elif process is not None:
            self.owner = process.owner_tag
        else:
            self.owner = "redn"
        self.name = name or f"redn{next(self._ids)}"
        self._queue_counter = itertools.count()
        #: Optional :class:`repro.redn.template.ActionRecorder`: while
        #: set, every host action below is appended to its action list.
        self.recorder = None

    def __repr__(self) -> str:
        return f"<RednContext {self.name} on {self.nic.name}>"

    @property
    def memory(self) -> HostMemory:
        return self.nic.memory

    @property
    def sim(self):
        return self.nic.sim

    # -- resource creation -------------------------------------------------

    def create_loopback_pair(self, **kwargs):
        if self.process is not None:
            return self.process.create_loopback_pair(self.pd, **kwargs)
        kwargs.setdefault("owner", self.owner)
        return self.nic.create_loopback_pair(self.pd, **kwargs)

    def alloc(self, size: int, label: str = "") -> Allocation:
        if self.process is not None:
            return self.process.alloc(size, label=label)
        return self.memory.alloc(size, owner=self.owner, label=label)

    def register(self, allocation: Allocation,
                 access: int = AccessFlags.ALL) -> MemoryRegion:
        return self.pd.register(allocation, access=access)

    def alloc_registered(self, size: int, label: str = "",
                         access: int = AccessFlags.ALL):
        allocation = self.alloc(size, label=label)
        return allocation, self.register(allocation, access=access)

    # -- host actions (the CPU preparing code) ------------------------------

    def post(self, wq: WorkQueue, wqe: Wqe,
             ring_doorbell: Optional[bool] = None,
             chain: Optional["ChainQueue"] = None) -> int:
        """Post ``wqe`` on ``wq`` (a chain ring or a trigger RECV queue);
        returns its WR index."""
        recorder = self.recorder
        if recorder is None:
            return wq.post(wqe, ring_doorbell=ring_doorbell)
        recorder.snapshot(wq, chain)
        data = wqe.encode()
        if ring_doorbell is None:
            ring_doorbell = not wq.managed
        wr_index = wq.post_bytes(data, ring_doorbell)
        recorder.on_post(wq, wqe, data, ring_doorbell)
        return wr_index

    def poke(self, addr: int, value: int, width: int,
             address: bool = False) -> None:
        """Setup-time patch of ``width`` bytes; ``address`` marks the
        value as a host address (a relocation candidate)."""
        data = pack_uint(value, width)
        if self.recorder is not None:
            self.recorder.on_store(addr, data, address=address)
        self.memory.write(addr, data)

    def store_copy(self, addr: int, data: bytes, source: int) -> None:
        """Store ``data``: bytes read from ``source`` and patched (a
        prepared WQE image). A compiled template re-reads the source
        when it replays the store."""
        if self.recorder is not None:
            self.recorder.on_store(
                addr, data, source=source,
                original=self.memory.read(source, len(data)))
        self.memory.write(addr, data)

    # -- queue factories ------------------------------------------------------

    def control_queue(self, slots: int = 256, name: str = "",
                      port_index: int = 0) -> ChainQueue:
        """Normal-mode queue for the static WAIT/ENABLE skeleton."""
        name = name or f"{self.name}-ctl{next(self._queue_counter)}"
        return ChainQueue(self, managed=False, slots=slots, name=name,
                          port_index=port_index)

    def worker_queue(self, slots: int = 256, name: str = "",
                     port_index: int = 0) -> ChainQueue:
        """Managed (doorbell-ordered) queue for modifiable chain WRs."""
        name = name or f"{self.name}-wrk{next(self._queue_counter)}"
        return ChainQueue(self, managed=True, slots=slots, name=name,
                          port_index=port_index)

    def adopt_client_queue(self, qp: QueuePair, name: str = "") -> ChainQueue:
        """Wrap a client-facing QP's managed send queue as chain storage.

        Response templates live here: when a CAS flips one to a live
        WRITE/WRITE_IMM, the payload flows over the client connection.
        """
        if not qp.send_wq.managed:
            raise ProgramError(
                "client-facing send queue must be managed for RedN use")
        name = name or f"{self.name}-cli{next(self._queue_counter)}"
        return ChainQueue(self, managed=True, slots=0, name=name, qp=qp)
