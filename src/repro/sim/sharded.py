"""Sharded multi-bed simulation with conservative lookahead.

A multi-bed scenario (fig 14/15-style fleets, the sharded KV fleet)
used to run every bed inside one global event loop. This module instead
gives every bed its own :class:`~repro.sim.core.Simulator` **shard**
and coordinates them with a classic conservative (bounded-window)
synchronizer: beds only interact through :class:`ShardFabric` links
(re-exported via :mod:`repro.net.fabric`), and a link's one-way latency
is a hard lower bound on how soon one bed can affect another — the
*lookahead*. Each round, every shard may therefore run freely through a
window of that width without ever seeing a message late.

The protocol, per round:

1. ``T_min`` — the globally earliest pending action: the minimum over
   shards of the shard's next local event time and its earliest pending
   inbound message arrival.
2. Every shard's window is ``[.., T_min + min_inbound_latency)`` —
   unbounded if nothing can ever reach it. Any message generated this
   round is sent at ``>= T_min`` and so arrives at
   ``>= T_min + latency``, i.e. **at or past every receiver's horizon**
   — which is why the shards of a round can run in any order (we use
   index order for reproducibility) and a message at exactly the
   horizon must wait for the next round.
3. Within its window a shard first runs to each pending message's
   arrival time, then injects the message, so delivery always happens
   after all local events before the arrival time and before any event
   at it. Combined with the fabric's canonical ``(ts, src shard, send
   seq)`` message order, the merged per-shard schedules are a pure
   function of the simulated system — not of the synchronizer's
   batching.

:meth:`ShardedSimulation.run_serial` drives the *same* protocol with
degenerate one-timestamp windows, which is exactly a time-ordered
global merge of all shards. Because both drivers share the delivery
rules, serial and sharded runs are bit-identical — same per-shard event
counts, clocks and journals — and the serial run is the reference
drive that the identity tests compare the sharded drive against.

Single-shard fallback: with one shard and no links, :meth:`run`
degenerates to exactly one ``Simulator.run`` call — today's loop,
byte for byte.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from .core import SimulationError, Simulator
from .resources import Store

__all__ = ["DEFAULT_SHARD_LINK_NS", "LookaheadError", "Shard",
           "ShardChannel", "ShardFabric", "ShardedSimulation"]

#: Default one-way latency of an inter-shard link. Cross-bed links are
#: inter-server hops, not the paper's back-to-back NIC cables, and a
#: wider link is also a wider conservative window.
DEFAULT_SHARD_LINK_NS = 1000


class LookaheadError(SimulationError):
    """An inter-shard link without positive latency has no lookahead.

    The conservative synchronizer can only run a shard ahead of its
    neighbours by the minimum inbound link latency; a zero-latency link
    would force lock-step execution (and, worse, same-timestamp
    cross-shard causality the window protocol cannot order), so it is
    rejected up front with this typed error.
    """


class ShardChannel:
    """A directed inter-shard link: ``src`` shard -> ``dst`` shard.

    ``send`` stamps the message with the sender's current simulated
    time; it arrives at the destination shard exactly ``one_way_ns``
    later, addressed to a named mailbox (see :meth:`Shard.mailbox`).
    """

    __slots__ = ("fabric", "src_index", "dst_index", "one_way_ns")

    def __init__(self, fabric: "ShardFabric", src_index: int,
                 dst_index: int, one_way_ns: int):
        self.fabric = fabric
        self.src_index = src_index
        self.dst_index = dst_index
        self.one_way_ns = one_way_ns

    def __repr__(self) -> str:
        return (f"<ShardChannel {self.src_index}->{self.dst_index} "
                f"+{self.one_way_ns}ns>")

    def send(self, mailbox: str, payload) -> int:
        """Post ``payload`` to the peer shard; returns the arrival time."""
        return self.fabric.post(self, mailbox, payload)


class ShardFabric:
    """Timestamped message transport between per-bed simulator shards.

    Messages are queued per destination shard in **canonical order** —
    ``(arrival_ts, src_shard_index, per-source send seq)`` — which is a
    property of the simulated communication alone, independent of the
    order the synchronizer happens to run shards in. The sharded and
    serial drivers both deliver in this order, which is one half of the
    bit-identical cross-mode guarantee (the other half is the delivery
    boundary rule in :class:`ShardedSimulation`).
    """

    def __init__(self):
        self._sims: List[Simulator] = []
        # Directed latency per (src_index, dst_index).
        self._latency: Dict[Tuple[int, int], int] = {}
        # Min inbound latency per dst_index (the lookahead).
        self._lookahead: Dict[int, int] = {}
        # Per-destination heap of (ts, src_index, seq, mailbox, payload).
        self._pending: Dict[int, List] = {}
        self._send_seq: Dict[int, int] = {}
        self.messages_sent = 0

    # -- topology ----------------------------------------------------------

    def register(self, sim: Simulator) -> int:
        """Admit a shard's simulator; returns its shard index."""
        self._sims.append(sim)
        return len(self._sims) - 1

    def connect(self, src_index: int, dst_index: int,
                one_way_ns: int) -> ShardChannel:
        """Create a directed link; latency is the lookahead (must be > 0)."""
        if not (0 <= src_index < len(self._sims)
                and 0 <= dst_index < len(self._sims)):
            raise SimulationError(
                f"unknown shard in link {src_index}->{dst_index}")
        if src_index == dst_index:
            raise SimulationError("cannot link a shard to itself")
        if type(one_way_ns) is not int:
            raise LookaheadError(
                f"shard link latency must be an int (ns), "
                f"got {one_way_ns!r}")
        if one_way_ns <= 0:
            raise LookaheadError(
                f"shard link {src_index}->{dst_index} needs positive "
                f"latency for lookahead, got {one_way_ns}")
        key = (src_index, dst_index)
        if key in self._latency:
            raise SimulationError(f"shard link {key} already exists")
        self._latency[key] = one_way_ns
        previous = self._lookahead.get(dst_index)
        if previous is None or one_way_ns < previous:
            self._lookahead[dst_index] = one_way_ns
        return ShardChannel(self, src_index, dst_index, one_way_ns)

    @property
    def has_channels(self) -> bool:
        return bool(self._latency)

    def min_inbound_latency(self, dst_index: int) -> Optional[int]:
        """The shard's lookahead; None when nothing can ever reach it."""
        return self._lookahead.get(dst_index)

    # -- messaging ---------------------------------------------------------

    def post(self, channel: ShardChannel, mailbox: str, payload) -> int:
        """Timestamp and enqueue one message; returns the arrival time."""
        src = channel.src_index
        arrival = self._sims[src].now + channel.one_way_ns
        seq = self._send_seq.get(src, 0)
        self._send_seq[src] = seq + 1
        heapq.heappush(
            self._pending.setdefault(channel.dst_index, []),
            (arrival, src, seq, mailbox, payload))
        self.messages_sent += 1
        probe = self._sims[src].probe
        if probe.link_send:
            for hook in probe.link_send:
                hook(src, channel.dst_index, mailbox, arrival)
        return arrival

    def pending_floor(self, dst_index: int) -> Optional[int]:
        """Earliest pending arrival time for a shard, or None."""
        heap = self._pending.get(dst_index)
        return heap[0][0] if heap else None

    def in_flight(self) -> int:
        return sum(len(heap) for heap in self._pending.values())

    def pop_due(self, dst_index: int,
                before_ts: Optional[int]) -> List[Tuple]:
        """Drain messages with arrival strictly before ``before_ts``.

        Returned in canonical ``(ts, src_index, seq)`` order. A message
        at exactly the window horizon stays queued for the next round —
        the window owns ``[start, before_ts)`` only. ``None`` drains
        everything (an unbounded window).
        """
        heap = self._pending.get(dst_index)
        if not heap:
            return []
        due = []
        while heap and (before_ts is None or heap[0][0] < before_ts):
            due.append(heapq.heappop(heap))
        return due


class Shard:
    """One independently-clocked simulator plus its message endpoints."""

    def __init__(self, sharded: "ShardedSimulation", index: int,
                 name: str, sim: Simulator):
        self.sharded = sharded
        self.index = index
        self.name = name or f"shard{index}"
        self.sim = sim
        self._mailboxes: Dict[str, Store] = {}

    def __repr__(self) -> str:
        return f"<Shard {self.name} t={self.sim.now}>"

    def mailbox(self, name: str) -> Store:
        """The named inbound queue; processes ``yield mailbox.get()``."""
        store = self._mailboxes.get(name)
        if store is None:
            store = self._mailboxes[name] = Store(
                self.sim, name=f"{self.name}.{name}")
        return store

    def _deliver(self, message) -> None:
        # Loop callback at the message's arrival time.
        _ts, _src, _seq, mailbox, payload = message
        self.mailbox(mailbox).put(payload)


class ShardedSimulation:
    """Shards + fabric + the conservative window driver."""

    def __init__(self):
        self.fabric = ShardFabric()
        self.shards: List[Shard] = []
        #: Rounds executed by the last :meth:`run`/:meth:`run_serial`.
        self.rounds = 0
        #: Attached :class:`repro.obs.telemetry.FleetTelemetry`, or
        #: None. The driver only ever calls ``flush(t_min)`` — every
        #: shard's future events are at or past ``t_min``, so windows
        #: ending at or before it are final and safe to emit. Record
        #: *content* never depends on this timing (see the telemetry
        #: module docstring), which is why sharded and serial drives
        #: emit byte-identical streams.
        self.telemetry = None

    # -- topology ----------------------------------------------------------

    def add_shard(self, name: str = "",
                  sim: Optional[Simulator] = None) -> Shard:
        """Admit a bed's simulator (a fresh one by default) as a shard."""
        sim = sim if sim is not None else Simulator()
        for shard in self.shards:
            if shard.sim is sim:
                raise SimulationError(
                    f"simulator already registered as {shard.name}")
        index = self.fabric.register(sim)
        shard = Shard(self, index, name, sim)
        self.shards.append(shard)
        return shard

    def connect(self, src: Shard, dst: Shard,
                one_way_ns: int = DEFAULT_SHARD_LINK_NS) -> ShardChannel:
        """Directed link ``src -> dst``; latency is the lookahead."""
        return self.fabric.connect(src.index, dst.index, one_way_ns)

    def link(self, a: Shard, b: Shard,
             one_way_ns: int = DEFAULT_SHARD_LINK_NS):
        """Bidirectional link; returns ``(a->b, b->a)`` channels."""
        return (self.connect(a, b, one_way_ns),
                self.connect(b, a, one_way_ns))

    # -- introspection -----------------------------------------------------

    @property
    def now(self) -> int:
        """The frontier: the furthest any shard's clock has advanced."""
        return max((shard.sim.now for shard in self.shards), default=0)

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-shard kernel counters (the cross-mode identity surface)."""
        return {shard.name: dict(shard.sim.stats, now=shard.sim.now)
                for shard in self.shards}

    def failed_processes(self) -> List:
        failures = []
        for shard in self.shards:
            failures.extend(shard.sim.failed_processes)
        return failures

    # -- execution ---------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Drive all shards with lookahead-wide windows; returns ``now``."""
        if len(self.shards) == 1 and not self.fabric.has_channels:
            # Single-shard fallback: exactly the plain event loop.
            self.rounds = 1
            return self.shards[0].sim.run(until=until)
        return self._drive(until, serial=False)

    def run_serial(self, until: Optional[int] = None) -> int:
        """Same protocol, one-timestamp windows: the merge baseline."""
        return self._drive(until, serial=True)

    def _drive(self, until: Optional[int], serial: bool) -> int:
        if not self.shards:
            raise SimulationError("no shards to run")
        fabric = self.fabric
        shards = self.shards
        cap = None if until is None else until + 1
        self.rounds = 0
        while True:
            t_min = None
            for shard in shards:
                t_next = shard.sim.peek_next_time()
                t_msg = fabric.pending_floor(shard.index)
                if t_msg is not None and (t_next is None or t_msg < t_next):
                    t_next = t_msg
                if t_next is not None and (t_min is None or t_next < t_min):
                    t_min = t_next
            if t_min is None:
                break  # globally quiescent, nothing in flight
            if until is not None and t_min > until:
                break
            if self.telemetry is not None:
                self.telemetry.flush(t_min)
            self.rounds += 1
            for shard in shards:
                if serial:
                    window_end = t_min + 1
                else:
                    lookahead = fabric.min_inbound_latency(shard.index)
                    window_end = (None if lookahead is None
                                  else t_min + lookahead)
                if cap is not None:
                    window_end = (cap if window_end is None
                                  else min(window_end, cap))
                self._run_shard(shard, window_end)
        return self.now

    def _run_shard(self, shard: Shard, window_end: Optional[int]) -> None:
        sim = shard.sim
        due = self.fabric.pop_due(shard.index, window_end)
        for message in due:
            arrival = message[0]
            if arrival <= sim.now:
                raise SimulationError(
                    f"{shard.name}: message for t={arrival} arrived with "
                    f"clock already at {sim.now} (lookahead violated)")
            # Delivery boundary: all local events strictly before the
            # arrival time run first, so the message's heap entry sorts
            # after every local entry at the arrival time — the same
            # relative order the serial merge produces.
            sim.run(until=arrival - 1)
            sim.schedule_at(arrival, shard._deliver, message)
        if window_end is None:
            sim.run()
        else:
            sim.run(until=window_end - 1)
