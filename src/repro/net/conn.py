"""The connection plane: QP pools, shared-CQ demux, consistent hashing.

A fleet serving millions of users is first a *connection-management*
problem: thousands of logical client connections cannot each own a
private QP/CQ pair (per-connection NIC state is the scaling bottleneck
Tiara documents for remote-memory serving). This module lifts the
connection machinery that used to be hand-wired per benchmark into
three first-class pieces:

* :class:`QpPool` — a fixed set of pre-connected QPs leased to logical
  connections. Lease order is deterministic (creation order first,
  then least-recently-released — LRU recycling), exhaustion raises the
  typed :class:`PoolExhausted`, and :meth:`QpPool.acquire` gives the
  blocking closed-loop form. Every pool QP completes into **one shared
  send CQ and one shared recv CQ**, so a host polls O(1) CQs instead
  of O(clients).

* :class:`CompletionRouter` — the shared-CQ demux. CQEs carry their
  ``wq_num``; the router's routing table maps it to the current
  :class:`QpLease`. The lease *generation* rides in the high bits of
  every ``wr_id`` (the classic verbs cookie trick — see
  :meth:`QpLease.cookie`), so a CQE that surfaces after its QP was
  released and re-leased is detected as **stale** and quarantined
  instead of being delivered to the wrong logical connection.

* :class:`HashRing` — consistent-hash key ownership for sharded
  serving (``bench/fleet.py``): which shard owns a key is a pure
  function of the key, stable under the deterministic splitmix64
  streams in :mod:`repro.datastructs.hashing`.

Doorbell batching — the third leg of the connection plane — lives in
:class:`repro.nic.queue.DoorbellBatcher` (it is a per-WQ driver
concern, not a per-connection one) and composes with leases via
:meth:`QpLease.post_send`'s ``batcher`` argument.

Everything here is host-side bookkeeping: no simulated time passes in
any non-generator method, and a program that never constructs a pool
or router leaves the NIC queue paths byte- and timing-identical.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Callable, Deque, Dict, Generator, List, Optional, Tuple

from ..datastructs.hashing import hash_key
from ..memory.region import ProtectionDomain
from ..nic.qp import QueuePair
from ..nic.queue import CompletionQueue, Cqe, DoorbellBatcher
from ..nic.rnic import RNIC
from ..nic.wqe import Wqe
from ..sim.core import Event, Simulator

__all__ = ["CompletionRouter", "ConnError", "HashRing", "PoolExhausted",
           "QpLease", "QpPool"]

#: ``wr_id`` cookie layout: 48 bits total (the WQE ctrl-word id field),
#: split as generation(16) << 32 | user id(32). Generations wrap at
#: 2^16 re-leases of one QP — far beyond any scenario here, and a wrap
#: only weakens stale detection, never misroutes a live CQE (routing is
#: by wq_num; the generation is purely the staleness check).
GENERATION_SHIFT = 32
_GEN_MASK = (1 << 16) - 1
_USER_MASK = (1 << GENERATION_SHIFT) - 1


class ConnError(Exception):
    """Connection-plane misuse (double release, oversized wr_id...)."""


class PoolExhausted(ConnError):
    """``QpPool.lease`` found no free QP.

    The typed error is the non-blocking contract: callers that can wait
    use :meth:`QpPool.acquire` instead; callers that cannot (admission
    control, load shedding) catch this and back off.
    """


class QpLease(object):
    """One logical connection's exclusive hold on a pooled QP.

    The lease is the unit of demux: while held, every WR posted through
    it is cookie-stamped with the lease generation, and the pool's
    router delivers matching CQEs to this lease's private inbox.
    Releasing returns the QP to the pool's LRU free list and bumps the
    generation, so anything still in flight surfaces as stale.
    """

    __slots__ = ("pool", "qp", "index", "generation", "tag", "active",
                 "blame", "_inbox", "_cq_waiters")

    def __init__(self, pool: "QpPool", qp: QueuePair, index: int,
                 generation: int, tag: str = "", blame=None):
        self.pool = pool
        self.qp = qp
        self.index = index
        self.generation = generation
        self.tag = tag
        self.active = True
        #: Optional :class:`repro.obs.blame.RequestBlame` context for
        #: the request this lease serves; the router and batcher record
        #: their causal spans into it. Pure host-side bookkeeping.
        self.blame = blame
        self._inbox: Deque[Cqe] = deque()
        self._cq_waiters: Deque[Event] = deque()

    def __repr__(self) -> str:
        state = "active" if self.active else "released"
        return (f"<QpLease {self.qp.name} gen={self.generation} "
                f"tag={self.tag!r} {state}>")

    def cookie(self, user_id: int = 0) -> int:
        """Compose the 48-bit ``wr_id`` cookie for this lease."""
        if not 0 <= user_id <= _USER_MASK:
            raise ConnError(f"user wr_id {user_id:#x} exceeds "
                            f"{GENERATION_SHIFT} bits")
        return ((self.generation & _GEN_MASK) << GENERATION_SHIFT) | user_id

    def _stamp(self, wqe: Wqe) -> Wqe:
        if not self.active:
            raise ConnError(f"post through released {self!r}")
        wqe.wr_id = self.cookie(wqe.wr_id)
        return wqe

    # -- posting -----------------------------------------------------------

    def post_send(self, wqe: Wqe, ring_doorbell: Optional[bool] = None,
                  batcher: Optional[DoorbellBatcher] = None) -> int:
        """Post a cookie-stamped send WR; returns the WR index.

        With ``batcher`` the WQE joins the batcher's pending doorbell
        batch (``ring_doorbell`` must then be left at ``None``);
        otherwise the usual :meth:`QueuePair.post_send` policy table
        applies.
        """
        self._stamp(wqe)
        if batcher is not None:
            if ring_doorbell is not None:
                raise ConnError("batcher and ring_doorbell are exclusive")
            if batcher.wq is not self.qp.send_wq:
                raise ConnError(f"{batcher!r} does not drive "
                                f"{self.qp.send_wq!r}")
            return batcher.post(wqe)
        return self.qp.post_send(wqe, ring_doorbell=ring_doorbell)

    def post_recv(self, wqe: Wqe,
                  ring_doorbell: Optional[bool] = None) -> int:
        """Post a cookie-stamped recv WR; returns the WR index."""
        self._stamp(wqe)
        return self.qp.post_recv(wqe, ring_doorbell=ring_doorbell)

    # -- completion consumption (fed by the pool's router) -----------------

    def _deliver(self, cqe: Cqe) -> None:
        self._inbox.append(cqe)
        if self._cq_waiters:
            self._cq_waiters.popleft().trigger(None)

    def poll(self) -> Optional[Cqe]:
        """Non-blocking: pop this connection's oldest routed CQE."""
        if self._inbox:
            return self._inbox.popleft()
        return None

    def wait_for_event(self) -> Event:
        """Event triggering when a routed CQE is (or already is) inboxed."""
        event = Event(self.pool.sim, f"{self.qp.name}-lease-cqe")
        if self._inbox:
            event.trigger(None)
        else:
            self._cq_waiters.append(event)
        return event

    def wait_cqe(self) -> Generator:
        """Process helper: block until one CQE is routed here; return it."""
        while True:
            cqe = self.poll()
            if cqe is not None:
                return cqe
            yield self.wait_for_event()

    def release(self) -> None:
        """Return the QP to the pool (sugar for ``pool.release(self)``)."""
        self.pool.release(self)


class CompletionRouter:
    """Shared-CQ demux: one routing table over many WQs' completions.

    Attach to any number of :class:`CompletionQueue` objects via
    :meth:`watch`; every host-visible CQE is then routed by its
    ``wq_num`` to the registered lease's inbox, with the ``wr_id``
    generation cookie checked against the lease's. Mismatches — a CQE
    for an unregistered WQ, a released lease, or a recycled (re-leased)
    QP whose in-flight work completed late — are quarantined in
    :attr:`stale_cqes` and counted, never misdelivered.

    Routing is a synchronous host-side table lookup: it adds no
    simulated time and schedules no events, so a routed drive and an
    unrouted one execute the identical event sequence.
    """

    def __init__(self, sim: Simulator, name: str = "cqrouter"):
        self.sim = sim
        self.name = name
        self._routes: Dict[int, QpLease] = {}
        self.routed = 0
        self.stale = 0
        #: Quarantined (wq_num, cookie generation, user wr_id) triples.
        self.stale_cqes: List[Tuple[int, int, int]] = []

    def __repr__(self) -> str:
        return (f"<CompletionRouter {self.name} routes={len(self._routes)} "
                f"routed={self.routed} stale={self.stale}>")

    def watch(self, cq: CompletionQueue) -> None:
        """Divert ``cq``'s host deliveries through this router."""
        cq.attach_router(self)

    def register(self, wq_num: int, lease: QpLease) -> None:
        self._routes[wq_num] = lease

    def unregister(self, wq_num: int) -> None:
        self._routes.pop(wq_num, None)

    def route(self, cqe: Cqe, cq: CompletionQueue) -> None:
        """CompletionQueue delivery hook (see ``attach_router``)."""
        lease = self._routes.get(cqe.wq_num)
        generation = (cqe.wr_id >> GENERATION_SHIFT) & _GEN_MASK
        if lease is None or not lease.active \
                or generation != (lease.generation & _GEN_MASK):
            self.stale += 1
            self.stale_cqes.append(
                (cqe.wq_num, generation, cqe.wr_id & _USER_MASK))
            if self.sim.probe.cqe_demux:
                for hook in self.sim.probe.cqe_demux:
                    hook(cq, cqe, True)
            return
        # Strip the cookie so the consumer sees the wr_id it posted.
        cqe.wr_id &= _USER_MASK
        self.routed += 1
        if self.sim.probe.cqe_demux:
            for hook in self.sim.probe.cqe_demux:
                hook(cq, cqe, False)
        if lease.blame is not None:
            # The completion-to-host-delivery window: the CQE was
            # raised at cqe.timestamp, the demux runs now — blaming the
            # *edge*, not the completion order.
            lease.blame.span(cqe.timestamp, self.sim.now, "cqe_demux",
                             cq.name)
        lease._deliver(cqe)


class QpPool(object):
    """A leased pool of pre-connected QPs sharing one CQ pair.

    ``connect(qp, index)`` is called once per QP at construction to
    wire it to its server-side peer — the pool stays agnostic of how
    peers are built (same-host loopback, a server process across a
    fabric link...). Lease discipline:

    * first lease round goes out in **creation order** (QP 0, 1, ...);
    * released QPs rejoin the free list at the tail, so recycling is
      **least-recently-released first** (LRU) — deterministic, and it
      maximizes the drain time for any straggler completions;
    * :meth:`lease` is non-blocking and raises :class:`PoolExhausted`;
      :meth:`acquire` is the generator form that waits FIFO.
    """

    def __init__(self, nic: RNIC, pd: ProtectionDomain, capacity: int,
                 connect: Optional[Callable[[QueuePair, int], None]] = None,
                 send_slots: int = 64, recv_slots: int = 128,
                 port_index: int = 0, name: str = "pool"):
        if capacity < 1:
            raise ConnError("a QP pool needs at least one QP")
        self.nic = nic
        self.sim: Simulator = nic.sim
        self.name = name
        self.capacity = capacity
        # The shared completion plane: every pool QP's send and recv
        # WQs complete into these two CQs, demuxed by the router.
        self.send_cq = nic.create_cq(name=f"{name}-scq")
        self.recv_cq = nic.create_cq(name=f"{name}-rcq")
        self.router = CompletionRouter(nic.sim, name=f"{name}-router")
        self.router.watch(self.send_cq)
        self.router.watch(self.recv_cq)
        self.qps: List[QueuePair] = []
        for index in range(capacity):
            qp = nic.create_qp(pd, send_slots=send_slots,
                               recv_slots=recv_slots,
                               send_cq=self.send_cq, recv_cq=self.recv_cq,
                               port_index=port_index,
                               name=f"{name}-qp{index}")
            if connect is not None:
                connect(qp, index)
            self.qps.append(qp)
        self._generations = [0] * capacity
        self._free: Deque[int] = deque(range(capacity))
        self._waiters: Deque[Event] = deque()
        self.leases_granted = 0
        self.recycles = 0
        self.exhausted_hits = 0
        self.peak_in_use = 0

    def __repr__(self) -> str:
        return (f"<QpPool {self.name} {self.in_use}/{self.capacity} leased"
                f" granted={self.leases_granted}>")

    @property
    def in_use(self) -> int:
        return self.capacity - len(self._free)

    def lease(self, tag: str = "", blame=None) -> QpLease:
        """Lease the next free QP or raise :class:`PoolExhausted`."""
        if not self._free:
            self.exhausted_hits += 1
            raise PoolExhausted(
                f"{self.name}: all {self.capacity} QPs leased "
                f"({self.leases_granted} granted so far)")
        index = self._free.popleft()
        generation = self._generations[index]
        if generation:
            self.recycles += 1
        lease = QpLease(self, self.qps[index], index, generation,
                        tag=tag, blame=blame)
        self.router.register(lease.qp.send_wq.wq_num, lease)
        self.router.register(lease.qp.recv_wq.wq_num, lease)
        self.leases_granted += 1
        if self.in_use > self.peak_in_use:
            self.peak_in_use = self.in_use
        return lease

    def acquire(self, tag: str = "", blame=None) -> Generator:
        """Process helper: wait (FIFO) for a free QP, then lease it."""
        waited_from = None
        while not self._free:
            if waited_from is None:
                waited_from = self.sim.now
            event = Event(self.sim, f"{self.name}-acquire")
            self._waiters.append(event)
            yield event
        now = self.sim.now
        start = now if waited_from is None else waited_from
        if self.sim.probe.pool_acquire:
            for hook in self.sim.probe.pool_acquire:
                hook(self, start, tag)
        if blame is not None and start != now:
            blame.span(start, now, "pool_wait", self.name)
        return self.lease(tag, blame=blame)

    def release(self, lease: QpLease) -> None:
        """Return a leased QP; bumps its generation (stale fence)."""
        if lease.pool is not self:
            raise ConnError(f"{lease!r} belongs to another pool")
        if not lease.active:
            raise ConnError(f"{lease!r} released twice")
        lease.active = False
        self._generations[lease.index] = lease.generation + 1
        self.router.unregister(lease.qp.send_wq.wq_num)
        self.router.unregister(lease.qp.recv_wq.wq_num)
        self._free.append(lease.index)
        if self._waiters:
            self._waiters.popleft().trigger(None)

    def stats(self) -> Dict[str, int]:
        """Deterministic pool counters (fingerprint material)."""
        return {
            "capacity": self.capacity,
            "leases_granted": self.leases_granted,
            "recycles": self.recycles,
            "exhausted_hits": self.exhausted_hits,
            "peak_in_use": self.peak_in_use,
            "stale_cqes": self.router.stale,
            "routed_cqes": self.router.routed,
        }


class HashRing:
    """Consistent-hash ownership of integer keys over ``num_shards``.

    Each shard contributes ``vnodes`` points hashed onto a 64-bit ring
    (splitmix64 stream 0); a key (stream 1) is owned by the first point
    clockwise. Ownership is a pure function of ``(num_shards, vnodes,
    key)`` — stable across runs, drive modes and processes — and
    adding a shard moves only ~1/N of the keys, which is the point of
    consistent hashing.
    """

    def __init__(self, num_shards: int, vnodes: int = 64):
        if num_shards < 1:
            raise ConnError("a hash ring needs at least one shard")
        points = sorted(
            (hash_key(shard * 0x10001 + vnode, 0), shard)
            for shard in range(num_shards)
            for vnode in range(vnodes))
        self.num_shards = num_shards
        self._hashes = [point[0] for point in points]
        self._owners = [point[1] for point in points]

    def owner(self, key: int) -> int:
        """The shard index owning ``key``."""
        index = bisect_right(self._hashes, hash_key(key, 1))
        if index == len(self._hashes):
            index = 0
        return self._owners[index]

    def without(self, *shards: int) -> "HashRing":
        """The ring after the given shards leave (failover rebalance).

        The survivors' vnodes keep their positions, so every key owned
        by a surviving shard stays put and only the departed shards'
        keys move to their clockwise successors — the consistent-hash
        property the shard-kill scenario leans on. Shard *indices* are
        preserved (``num_shards`` stays the same); the departed shards
        simply own nothing.
        """
        dead = set(shards)
        unknown = [s for s in sorted(dead)
                   if not 0 <= s < self.num_shards]
        if unknown:
            raise ConnError(f"cannot remove unknown shards {unknown} "
                            f"from a {self.num_shards}-shard ring")
        survivors = [(h, o) for h, o in zip(self._hashes, self._owners)
                     if o not in dead]
        if not survivors:
            raise ConnError("cannot remove every shard from the ring")
        ring = HashRing.__new__(HashRing)
        ring.num_shards = self.num_shards
        ring._hashes = [point[0] for point in survivors]
        ring._owners = [point[1] for point in survivors]
        return ring

    def partition(self, keys) -> Dict[int, List[int]]:
        """Group ``keys`` by owning shard (shard -> sorted key list)."""
        shards: Dict[int, List[int]] = {s: [] for s in range(self.num_shards)}
        for key in keys:
            shards[self.owner(key)].append(key)
        return shards
