"""Work queues and completion queues.

A :class:`WorkQueue` is a circular buffer of WQE slots living in
*simulated host memory* — not a Python list of WR objects. This is what
makes self-modifying RDMA programs real in this reproduction: a CAS or
WRITE that lands on queue memory changes what the NIC will execute,
subject to the same fetch/prefetch hazards as on hardware.

Counter discipline (all counters are WR-granular and **monotonic**,
they never reset when the ring wraps — the ConnectX behaviour that
forces WQ recycling to patch wqe_count fields with ADD verbs, §3.4):

* ``posted_count``   — WRs written into the ring by the host.
* ``enabled_count``  — fetch limit. For a normal queue the host's
  doorbell keeps it equal to ``posted_count``; for a *managed* queue it
  only advances via explicit doorbells or ENABLE verbs, and may exceed
  ``posted_count`` — that is WQ recycling: the NIC wraps around and
  re-executes ring contents without the CPU re-posting anything.
* ``fetched_count`` / ``executed_count`` — consumer progress.

A :class:`CompletionQueue` keeps a monotonic completion *count* (what
WAIT verbs compare against) plus a FIFO of CQEs for host polling and an
event channel for blocking consumers.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, TYPE_CHECKING, Tuple

from ..memory.dram import Allocation, HostMemory
from ..sim.core import Event, Simulator
from ..sim.resources import Resource, TokenBucket
from .opcodes import OPCODE_NAMES
from .wqe import WQE_SLOT_SIZE, Wqe

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .qp import QueuePair

__all__ = ["WorkQueue", "CompletionQueue", "Cqe", "DoorbellBatcher",
           "QueueError"]


class QueueError(Exception):
    """Work-queue misuse (overflow, posting to a destroyed queue...)."""


class Cqe:
    """A completion-queue entry as seen by the host."""

    __slots__ = ("wr_id", "opcode", "status", "wq_num", "byte_len",
                 "immediate", "timestamp")

    def __init__(self, wr_id: int, opcode: int, status: str, wq_num: int,
                 byte_len: int = 0, immediate: int = 0, timestamp: int = 0):
        self.wr_id = wr_id
        self.opcode = opcode
        self.status = status
        self.wq_num = wq_num
        self.byte_len = byte_len
        self.immediate = immediate
        self.timestamp = timestamp

    def __repr__(self) -> str:
        name = OPCODE_NAMES.get(self.opcode, f"OP{self.opcode:#x}")
        return (f"<Cqe {name} wr_id={self.wr_id:#x} status={self.status}"
                f" t={self.timestamp}>")

    @property
    def ok(self) -> bool:
        return self.status == "OK"


class CompletionQueue:
    """Monotonic completion counter + pollable CQE FIFO."""

    def __init__(self, sim: Simulator, cq_num: int, name: str = ""):
        self.sim = sim
        self._probe = sim.probe
        self.cq_num = cq_num
        self.name = name or f"cq{cq_num}"
        self.count = 0                      # monotonic, for WAIT verbs
        self._wait_event_name = f"{self.name}-wait"
        self._entries: Deque[Cqe] = deque()  # host-visible CQEs
        self._watchers: List[Tuple[int, Event]] = []
        self._channel_waiters: Deque[Event] = deque()
        # Optional host-side demux (repro.net.conn.CompletionRouter):
        # when attached, host-visible CQEs are handed to the router
        # instead of the FIFO, so one shared CQ fans out to many
        # logical connections. None (the default) leaves the delivery
        # path byte-identical to the unrouted one.
        self._router = None
        self.destroyed = False

    def __repr__(self) -> str:
        return f"<CQ {self.name} count={self.count}>"

    def post_completion(self, cqe: Cqe, host_delay_ns: int = 0) -> None:
        """Record a completion.

        The monotonic counter (what WAIT verbs snoop, inside the NIC)
        bumps immediately; the host-visible CQE appears ``host_delay_ns``
        later, modelling the posted DMA write of the CQE to host memory.
        This split is why completion-ordered chains only pay ~20 ns per
        WAIT (Fig 8) while host pollers see the full CQE DMA latency
        (Fig 7).
        """
        if self.destroyed:
            return
        self.count += 1
        if self._probe.cqe:
            for hook in self._probe.cqe:
                hook(self, cqe, host_delay_ns)
        if self._watchers:
            ready = [(n, ev) for n, ev in self._watchers if self.count >= n]
            if ready:
                self._watchers = [(n, ev) for n, ev in self._watchers
                                  if self.count < n]
                for _n, event in ready:
                    event.trigger(self.count)
        if host_delay_ns > 0:
            self.sim.schedule_at(self.sim.now + host_delay_ns,
                                 self._deliver_to_host, cqe)
        else:
            self._deliver_to_host(cqe)

    def _deliver_to_host(self, cqe: Cqe) -> None:
        if self.destroyed:
            return
        if self._router is not None:
            self._router.route(cqe, self)
            return
        self._entries.append(cqe)
        if self._channel_waiters:
            self._channel_waiters.popleft().trigger(None)

    def attach_router(self, router) -> None:
        """Divert host-visible CQEs to a demux router.

        With a router attached, :meth:`poll`/:meth:`wait_for_event`
        never see CQEs — the router owns consumption and fans entries
        out to per-connection inboxes (see
        :class:`repro.net.conn.CompletionRouter`). WAIT-verb watchers
        are unaffected: they key on the monotonic ``count``, which
        bumps before delivery either way. One CQ may only feed one
        router at a time.
        """
        if self._router is not None and self._router is not router:
            raise QueueError(f"{self!r} already has a router attached")
        self._router = router

    def wait_for_count(self, threshold: int) -> Event:
        """Event triggering once ``count >= threshold`` (WAIT verb hook)."""
        event = Event(self.sim, self._wait_event_name)
        if self.count >= threshold:
            event.trigger(self.count)
        else:
            self._watchers.append((threshold, event))
        return event

    def poll(self) -> Optional[Cqe]:
        """Non-blocking poll: pop the oldest unconsumed CQE, if any."""
        if self._entries:
            return self._entries.popleft()
        return None

    def wait_for_event(self) -> Event:
        """Blocking notification channel (event-based completion, §5.2.2).

        Triggers when a CQE is available (immediately if one is already
        queued). The caller still consumes CQEs via :meth:`poll`.
        """
        event = self.sim.event(name=f"{self.name}-channel")
        if self._entries:
            event.trigger(None)
        else:
            self._channel_waiters.append(event)
        return event

    def destroy(self) -> None:
        self.destroyed = True

    def reset(self, name: str) -> None:
        """Forget every completion: the CQ of a reused queue (see
        :meth:`repro.nic.rnic.RNIC.reset_qps`) starts its next tenant,
        named ``name``, at count 0 with no CQE and no WAIT watcher."""
        self.name = name
        self._wait_event_name = f"{name}-wait"
        self.count = 0
        self._entries.clear()
        self._watchers = []


class WorkQueue:
    """A send or receive queue: a WQE ring in simulated host memory."""

    _KINDS = ("send", "recv")

    def __init__(self, sim: Simulator, memory: HostMemory, wq_num: int,
                 kind: str, num_slots: int, cq: CompletionQueue,
                 managed: bool = False, owner: str = "kernel",
                 name: str = ""):
        if kind not in self._KINDS:
            raise QueueError(f"bad queue kind {kind!r}")
        if num_slots < 1:
            raise QueueError("queue needs at least one slot")
        self.sim = sim
        self._probe = sim.probe
        self.memory = memory
        self.wq_num = wq_num
        self.kind = kind
        self.num_slots = num_slots
        self.cq = cq
        self.managed = managed
        self.name = name or f"wq{wq_num}"
        self.ring: Allocation = memory.alloc(
            num_slots * WQE_SLOT_SIZE, owner=owner,
            label=f"{self.name}-ring", align=WQE_SLOT_SIZE)
        self.qp: Optional["QueuePair"] = None

        # Decoded-WQE cache. Each fetch decodes the slot bytes the NIC
        # snapshots over PCIe; since most slots are written once and
        # fetched many times (recycled queues re-execute ring contents
        # verbatim), the decode is cached keyed on the slots' write
        # generations. A generation bump — any DRAM store into the slot,
        # from host or verb — invalidates exactly like a real store
        # racing the NIC's fetch engine would produce fresh bytes.
        self._ring_gens = memory.register_generation_range(
            self.ring.addr, self.ring.size, granularity=WQE_SLOT_SIZE)
        self._decode_cache: Dict[int, Tuple[Tuple[int, ...], Wqe, int]] = {}

        # Producer side (WR granularity, monotonic).
        self.posted_count = 0
        self._post_slot_cursor = 0           # slot-granular producer cursor
        # Fetch limit (monotonic). Normal queues: kept equal to
        # posted_count by post-time doorbells.
        self.enabled_count = 0
        # Consumer side.
        self.fetched_count = 0
        self._fetch_slot_cursor = 0
        self.executed_count = 0

        self.rate_limiter: Optional[TokenBucket] = None
        self.destroyed = False
        #: Doorbell landings scheduled but not yet run (see
        #: :meth:`doorbell`).
        self.doorbells_pending = 0
        # The latest landing: (time, kernel push count after its push,
        # its one-element target box), for merging rings into it.
        self._landing: Optional[Tuple[int, int, List[int]]] = None
        self._work_event_name = f"{self.name}-work"
        self._recv_event_name = f"{self.name}-recv-avail"
        self._work_events: List[Event] = []
        # Serializes inbound SEND consumption for recv queues.
        self.consume_lock = Resource(sim, 1, name=f"{self.name}-consume")
        self._recv_waiters: Deque[Event] = deque()

        # Observability only: whether the last read_wqe_at_cursor was
        # served from the decode cache (the probe's fetch ``cache_hit``).
        self._last_decode_cached = False

        # PU assignment happens when the owning RNIC adopts the queue.
        self.pu_index: Optional[int] = None
        self.port_index: int = 0
        # Host doorbells are MMIO writes and take this long to reach
        # the device; set by the adopting RNIC from its timing model.
        self.doorbell_delay_ns: int = 0
        # Per-entry cost of a coalesced multi-WQE doorbell (also set by
        # the adopting RNIC); only a DoorbellBatcher flush charges it.
        self.doorbell_batch_entry_ns: int = 0

    def __repr__(self) -> str:
        return (f"<WQ {self.name} {self.kind} posted={self.posted_count} "
                f"enabled={self.enabled_count} exec={self.executed_count}"
                f"{' managed' if self.managed else ''}>")

    # -- geometry ---------------------------------------------------------

    def slot_addr(self, slot_cursor: int) -> int:
        """Host address of a (monotonic) slot cursor, ring-wrapped."""
        return self.ring.addr + (slot_cursor % self.num_slots) * WQE_SLOT_SIZE

    @property
    def free_slots(self) -> int:
        consumed_slots = self._fetch_slot_cursor
        return self.num_slots - (self._post_slot_cursor - consumed_slots)

    def slot_gens(self, slot_cursor: int, slots: int) -> Tuple[int, ...]:
        """Write-generation snapshot of ``slots`` slots at ``slot_cursor``.

        Observability helper (repro.obs race inspector): reads counters
        only, never touches simulated state or time.
        """
        gens = self._ring_gens.gens
        ring_slots = self.num_slots
        index = slot_cursor % ring_slots
        if index + slots <= ring_slots:
            return tuple(gens[index:index + slots])
        return tuple(gens[(index + offset) % ring_slots]
                     for offset in range(slots))

    def slot_state(self, slot_cursor: int,
                   slots: int) -> Tuple[Tuple[int, ...], bytes]:
        """(generations, raw bytes) of a WQE's slots — same helper."""
        tail = min(slots, self.num_slots - slot_cursor % self.num_slots)
        data = self.memory.read(self.slot_addr(slot_cursor),
                                tail * WQE_SLOT_SIZE)
        if tail < slots:
            data += self.memory.read(self.ring.addr,
                                     (slots - tail) * WQE_SLOT_SIZE)
        return self.slot_gens(slot_cursor, slots), data

    # -- producer (host) API ----------------------------------------------

    def post(self, wqe: Wqe, ring_doorbell: Optional[bool] = None) -> int:
        """Write a WQE into the ring; returns its WR index.

        ``ring_doorbell`` defaults to True for normal queues and False
        for managed queues (the paper's "managed flag [...] disables the
        driver from issuing doorbells after a WR is posted", §5).
        """
        return self.post_bytes(wqe.encode(), ring_doorbell)

    def post_bytes(self, data, ring_doorbell: Optional[bool] = None) -> int:
        """Write pre-encoded WQE bytes into the ring; returns its WR index.

        The post behind :meth:`post`: a one-WQE :meth:`post_run`, then
        the doorbell policy.
        """
        wr_index = self.post_run(data, 1)
        if ring_doorbell is None:
            ring_doorbell = not self.managed
        if ring_doorbell:
            self.doorbell()
        return wr_index

    def post_run(self, data, count: int) -> int:
        """Write ``count`` pre-encoded WQEs, back to back in ``data``,
        with one ring write (two where they wrap the ring edge);
        returns the first one's WR index.

        One probe ``post`` event announces the whole run; sinks split
        it into WQEs by each header's ``num_slots``. No doorbell:
        :meth:`post_bytes` adds that for one WQE, and a compiled
        offload template (:mod:`repro.redn.template`) rings each of a
        stamp's doorbells itself.
        """
        if self.destroyed:
            raise QueueError(f"post to destroyed {self!r}")
        slots = len(data) // WQE_SLOT_SIZE
        if slots > self.num_slots:
            raise QueueError(f"{slots} WQE slots exceed the ring size")
        cursor = self._post_slot_cursor
        if slots > self.num_slots - (cursor - self._fetch_slot_cursor):
            raise QueueError(
                f"{self!r} overflow: {slots} WQE slots but only "
                f"{self.free_slots} free")
        slot_index = cursor % self.num_slots
        tail = min(slots, self.num_slots - slot_index)
        addr = self.ring.addr + slot_index * WQE_SLOT_SIZE
        if tail < slots:
            # The run wraps the ring edge: one more write for the head.
            view = memoryview(data)
            self.memory.write(addr, view[:tail * WQE_SLOT_SIZE])
            self.memory.write(self.ring.addr, view[tail * WQE_SLOT_SIZE:])
        else:
            self.memory.write(addr, data)
        self._post_slot_cursor = cursor + slots
        wr_index = self.posted_count
        self.posted_count += count
        if self._probe.post:
            for hook in self._probe.post:
                hook(self, wr_index, cursor, data, count)
        return wr_index

    def doorbell(self, up_to: Optional[int] = None,
                 extra_delay_ns: int = 0) -> None:
        """Host doorbell: raise the fetch limit (default: all posted).

        The raise lands after the doorbell MMIO propagation delay —
        part of every verb's base latency in Fig 7. ``extra_delay_ns``
        adds on top of it; a :class:`DoorbellBatcher` uses it to price
        the per-entry cost of a coalesced multi-WQE ring write
        (:meth:`repro.nic.timing.TimingModel.doorbell_batch_ns`). The
        default of 0 keeps the unbatched path timing-identical.

        A ring that would land at the same instant as this queue's
        latest scheduled landing, with nothing scheduled since that
        landing was, merges into it: the landing raises to the higher
        target. That is exact. Two such landings would run back to
        back in the event heap, and raising to one target and then to
        another leaves the queue, and wakes the same waiters in the
        same order, as one raise to the higher target.
        """
        target = self.posted_count if up_to is None else up_to
        if self._probe.doorbell:
            for hook in self._probe.doorbell:
                hook(self, target)
        delay = self.doorbell_delay_ns + extra_delay_ns
        if delay > 0:
            sim = self.sim
            lands_at = sim.now + delay
            landing = self._landing
            if (landing is not None and landing[1] == sim.pushes
                    and landing[0] == lands_at):
                box = landing[2]
                if target > box[0]:
                    box[0] = target
                return
            box = [target]
            self.doorbells_pending += 1
            sim.schedule_at(lands_at, self._doorbell_lands, box)
            self._landing = (lands_at, sim.pushes, box)
        else:
            self._raise_enabled(target)

    def _doorbell_lands(self, box: List[int]) -> None:
        self.doorbells_pending -= 1
        self._raise_enabled(box[0])

    def enable(self, value: int, relative: bool = False) -> None:
        """ENABLE verb entry point: raise the fetch limit from the NIC."""
        target = self.enabled_count + value if relative else value
        self._raise_enabled(target)

    def _raise_enabled(self, target: int) -> None:
        if target > self.enabled_count:
            self.enabled_count = target
            self._wake()
            self._wake_recv_waiters()

    # -- consumer (NIC) API -------------------------------------------------

    @property
    def fetchable(self) -> int:
        """WRs the NIC may fetch right now."""
        limit = self.enabled_count
        if not self.managed:
            limit = min(limit, self.posted_count)
        return max(0, limit - self.fetched_count)

    def work_available(self) -> Event:
        """Event that triggers when at least one WR becomes fetchable."""
        event = Event(self.sim, self._work_event_name)
        if self.fetchable > 0 or self.destroyed:
            event.trigger(None)
        else:
            self._work_events.append(event)
        return event

    def _wake(self) -> None:
        events, self._work_events = self._work_events, []
        for event in events:
            event.trigger(None)

    def read_wqe_at_cursor(self) -> Tuple[Wqe, int]:
        """Read the WQE at the fetch cursor from host memory.

        Returns (wqe, slots). Does not advance the cursor — the caller
        advances after modelling the DMA delay so that racing writes to
        queue memory behave like they do on hardware.

        Decodes are cached per ring slot, keyed on the involved slots'
        write generations: the cache only ever returns a decode of byte
        content identical to what a fresh fetch would DMA, so §3.1
        fetch/prefetch incoherence semantics are untouched (any store
        into the slots produces a fresh decode).
        """
        ring_slots = self.num_slots
        slot_index = self._fetch_slot_cursor % ring_slots
        gens = self._ring_gens.gens
        cached = self._decode_cache.get(slot_index)
        if cached is not None:
            snapshot, wqe, wqe_slots = cached
            # Single-slot WQEs (the overwhelming majority) key on a bare
            # generation int; multi-slot WQEs carry a tuple.
            if wqe_slots == 1:
                if gens[slot_index] == snapshot:
                    self._last_decode_cached = True
                    return wqe, 1
            else:
                index = slot_index
                for gen in snapshot:
                    if gens[index] != gen:
                        break
                    index += 1
                    if index == ring_slots:
                        index = 0
                else:
                    self._last_decode_cached = True
                    return wqe, wqe_slots
        self._last_decode_cached = False
        memory = self.memory
        header_addr = self.ring.addr + slot_index * WQE_SLOT_SIZE
        header = memory.view(header_addr, WQE_SLOT_SIZE)
        wqe_slots = max(1, header[54])  # num_slots field, pre-decode peek
        if wqe_slots == 1:
            wqe = Wqe.decode(header)
            self._decode_cache[slot_index] = (gens[slot_index], wqe, 1)
            return wqe, 1
        if slot_index + wqe_slots <= ring_slots:
            # Contiguous in the ring: decode straight off DRAM.
            wqe = Wqe.decode(
                memory.view(header_addr, wqe_slots * WQE_SLOT_SIZE))
            snapshot = tuple(
                gens[slot_index:slot_index + wqe_slots])
        else:
            # Wraps the ring edge (at most once: a WQE never exceeds the
            # ring): two coalesced region reads replace the per-slot
            # loop — tail of the ring, then the wrapped head.
            tail_slots = ring_slots - slot_index
            head_slots = wqe_slots - tail_slots
            buf = bytearray(
                memory.view(header_addr, tail_slots * WQE_SLOT_SIZE))
            buf += memory.view(self.ring.addr,
                               head_slots * WQE_SLOT_SIZE)
            wqe = Wqe.decode(buf)
            snapshot = tuple(
                gens[(slot_index + offset) % ring_slots]
                for offset in range(wqe_slots))
        self._decode_cache[slot_index] = (snapshot, wqe, wqe_slots)
        return wqe, wqe_slots

    def advance_fetch(self, slots: int) -> None:
        self._fetch_slot_cursor += slots
        self.fetched_count += 1

    # -- recv-queue consumption (inbound SEND path) -------------------------

    @property
    def consumable_recvs(self) -> int:
        limit = self.enabled_count
        if not self.managed:
            limit = min(limit, self.posted_count)
        return max(0, limit - self.fetched_count)

    def recv_available(self) -> Event:
        """Event for an inbound SEND waiting for a consumable RECV."""
        event = Event(self.sim, self._recv_event_name)
        if self.consumable_recvs > 0 or self.destroyed:
            event.trigger(None)
        else:
            self._recv_waiters.append(event)
        return event

    def _wake_recv_waiters(self) -> None:
        while self._recv_waiters and self.consumable_recvs > 0:
            self._recv_waiters.popleft().trigger(None)

    # -- lifecycle ----------------------------------------------------------

    def set_rate_limit(self, ops_per_sec: float, burst: float = 32) -> None:
        """Attach a WQ rate limiter (paper §3.5, isolation)."""
        self.rate_limiter = TokenBucket(
            self.sim, ops_per_sec, burst, name=f"{self.name}-rl")

    def reset(self, name: str) -> None:
        """Make an idle queue fresh for its next tenant, named ``name``.

        The queue keeps its number, ring address and code region; its
        producer, fetch and enable counters go back to zero and its
        ring reads as zeros again, with the write generations and
        decode cache of a new ring, so no previous tenant's WQE can
        execute again. Only for a queue nothing is in flight on (see
        :meth:`repro.nic.rnic.RNIC.reset_qps`).
        """
        self.name = name
        self._work_event_name = f"{name}-work"
        self._recv_event_name = f"{name}-recv-avail"
        gens = self._ring_gens.gens
        if any(gens):
            # Every store bumps a generation: a ring with none bumped
            # still reads as zeros.
            self.memory.zero(self.ring.addr, self.ring.size)
            gens[:] = [0] * len(gens)
        self._decode_cache.clear()
        self.posted_count = self._post_slot_cursor = 0
        self.enabled_count = 0
        self.fetched_count = self._fetch_slot_cursor = 0
        self.executed_count = 0

    def destroy(self) -> None:
        """Tear the queue down (process death without a hull parent)."""
        if not self.destroyed and self._probe.wq_destroyed:
            for hook in self._probe.wq_destroyed:
                hook(self)
        self.destroyed = True
        self._wake()
        self._wake_recv_waiters()


class DoorbellBatcher:
    """Coalesce N posted WQEs into one doorbell ring write.

    On real hardware every doorbell is an MMIO write that crosses the
    host bridge; drivers amortize it by writing several WQEs and
    ringing once (the multi-WQE doorbell / BlueFlame idiom, and the
    ring-buffer controller pattern in blue-rdma). This class is that
    driver-side accumulator for one :class:`WorkQueue`:

    * :meth:`post` writes the WQE into the ring with the doorbell
      suppressed (``ring_doorbell=False``) and counts it pending.
    * A flush rings **one** doorbell covering every pending WQE, priced
      at ``doorbell_ns + (N-1) * doorbell_batch_entry_ns`` (see
      :meth:`repro.nic.timing.TimingModel.doorbell_batch_ns`).

    Flush boundaries, any of:

    * **explicit** — the caller invokes :meth:`flush` (e.g. at the end
      of a request's WR burst);
    * **batch-size cap** — ``max_batch`` pending WQEs force a flush
      from inside :meth:`post`;
    * **simulated-time deadline** — when ``deadline_ns`` is given, the
      first post of a batch schedules a flush ``deadline_ns`` later, so
      a lone WQE is never stranded unrung. A flush that happens first
      invalidates the pending deadline (stale-token discipline); the
      scheduled callback still fires and no-ops.

    The batcher never reorders: WQEs execute in ring order exactly as
    posted, and a flush enables everything posted so far. A dormant
    batcher (never constructed) leaves the post/doorbell path
    byte- and timing-identical — all batching state lives here, not in
    the queue.
    """

    __slots__ = ("wq", "max_batch", "deadline_ns", "pending", "flushes",
                 "coalesced", "blame", "_hold_since", "_deadline_token")

    def __init__(self, wq: WorkQueue, max_batch: int = 16,
                 deadline_ns: Optional[int] = None):
        if max_batch < 1:
            raise QueueError("max_batch must be at least 1")
        if deadline_ns is not None and deadline_ns <= 0:
            raise QueueError("deadline_ns must be positive when given")
        self.wq = wq
        self.max_batch = max_batch
        self.deadline_ns = deadline_ns
        self.pending = 0          # WQEs posted but not yet rung
        self.flushes = 0          # doorbells actually rung
        self.coalesced = 0        # WQEs covered by those doorbells
        #: Optional blame context (repro.obs.blame.RequestBlame) the
        #: next flush charges its hold window + batch surcharge to.
        self.blame = None
        self._hold_since = 0      # first suppressed post of the batch
        self._deadline_token: Optional[object] = None

    def __repr__(self) -> str:
        return (f"<DoorbellBatcher {self.wq.name} pending={self.pending} "
                f"flushes={self.flushes} coalesced={self.coalesced}>")

    def post(self, wqe: Wqe) -> int:
        """Post with the doorbell suppressed; returns the WR index."""
        wr_index = self.wq.post(wqe, ring_doorbell=False)
        self.pending += 1
        if self.pending == 1:
            self._hold_since = self.wq.sim.now
        if self.pending >= self.max_batch:
            self.flush()
        elif self.pending == 1 and self.deadline_ns is not None:
            token = object()
            self._deadline_token = token
            self.wq.sim.schedule_at(self.wq.sim.now + self.deadline_ns,
                                    self._deadline_flush, token)
        return wr_index

    def _deadline_flush(self, token: object) -> None:
        if token is self._deadline_token:
            self.flush()

    def flush(self) -> int:
        """Ring one doorbell for everything pending; returns the count."""
        self._deadline_token = None
        count = self.pending
        if count == 0:
            return 0
        self.pending = 0
        self.flushes += 1
        self.coalesced += count
        extra_delay_ns = (count - 1) * self.wq.doorbell_batch_entry_ns
        now = self.wq.sim.now
        hold_since = self._hold_since or now
        probe = self.wq._probe
        if probe.doorbell_batch:
            for hook in probe.doorbell_batch:
                hook(self.wq, count, hold_since, extra_delay_ns)
        if self.blame is not None:
            # Hold window (first suppressed post -> this flush) plus
            # the per-entry surcharge the coalesced ring pays.
            self.blame.span(hold_since, now + extra_delay_ns,
                            "doorbell_batch", self.wq.name)
        self._hold_since = 0
        self.wq.doorbell(extra_delay_ns=extra_delay_ns)
        return count
