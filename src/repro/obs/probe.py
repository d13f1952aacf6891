"""The probe: one event vocabulary between the simulator and its sinks.

Every instrumentation site in the simulator announces its event exactly
once, through its own simulator's ``sim.probe``. A *sink* — the
:class:`~repro.obs.tracer.Tracer`, the
:class:`~repro.obs.recorder.FlightRecorder`, a
:class:`~repro.obs.telemetry.TelemetryCollector`, or any object with
``on_<kind>`` methods — joins with :meth:`Probe.attach`. For each event
kind in :data:`KINDS` the probe keeps the tuple of the attached sinks'
bound ``on_<kind>`` hooks; a kind no sink implements holds the empty
tuple, so with nothing listening a site costs one attribute load and a
branch::

    if probe.post:
        for hook in probe.post:
            hook(wq, wr_index, slot_cursor, slots, wqe)

The probe is per simulator: a sink attached to one simulator never
puts another on the observed path. Sinks never schedule events or
mutate simulated state, and they never see each other — each keeps its
own output format over the shared events.

Event kinds and the arguments every ``on_<kind>`` hook receives
(times are simulated ns; the event happens at ``sim.now``):

====================  ==================================================
kind                  arguments
====================  ==================================================
``wq_created``        nic, wq
``wq_destroyed``      wq — the queue was torn down; its fetched but
                      unexecuted WQEs never execute
``cq_created``        nic, cq
``post``              wq, wr_index, slot_cursor, slots, wqe, image
``doorbell``          wq, up_to
``doorbell_batch``    wq, count, start_ns, extra_delay_ns
``fetch_span``        nic, wq, start_ns, count, managed — one fetch
                      DMA, announced before its WQEs' ``fetch`` events
``fetch``             wq, wr_index, slot_cursor, slots, wqe, cache_hit,
                      image
``recv_fetch``        wq — an inbound SEND consumed one RECV WQE
``execute``           wq, wr_index, wqe — a WQE entered execution
``pu``                nic, wq, opcode, start_ns — a PU occupancy span
``wait``              wq, wr_index, wqe, cq, start_ns — a WAIT woke
``enable``            wq, wr_index, wqe, relative, target
``done``              wq, wr_index, wqe, status, byte_len, start_ns
``cqe``               cq, cqe, host_delay_ns
``cqe_demux``         cq, cqe, stale — a shared-CQ router verdict
``atomic``            nic, src_wq_name, wqe, original
``dma``               nic, nbytes, start_ns — a payload PCIe span
``dma_txn``           nic, kind, start_ns — a DMA transaction window
``wire``              nic, dst_nic, nbytes, start_ns
``pool_acquire``      pool, start_ns, tag — a QP lease, queued since
                      ``start_ns`` (``sim.now`` when it did not wait)
``link_send``         src_index, dst_index, mailbox, arrival_ns
``offload_call``      conn, start_ns, ok, byte_len
``request``           latency_ns, key, blame — a client request done
``serviced``          (none) — a frontend served one inbound request
====================  ==================================================

``image`` is the WQE's slot image, ``(generations, bytes)``: the write
generation of each slot and the slots' raw bytes at the event. The site
reads it once for all sinks, and only when an attached sink sets
``wants_slot_images``; otherwise it is None.

Stores into annotated DRAM regions reach sinks through
:class:`StoreWatch`; every watch on one memory shares that memory's
single store hook and region index.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["KINDS", "Probe", "SinkAttachedError", "StoreWatch"]

KINDS = (
    "wq_created", "wq_destroyed", "cq_created",
    "post", "doorbell", "doorbell_batch",
    "fetch_span", "fetch", "recv_fetch",
    "execute", "pu", "wait", "enable", "done",
    "cqe", "cqe_demux", "atomic",
    "dma", "dma_txn", "wire",
    "pool_acquire", "link_send", "offload_call", "request", "serviced",
)


class SinkAttachedError(ValueError):
    """A second sink of one class tried to join a simulator's probe."""


class Probe:
    """Per-simulator fan-out of instrumentation events to sinks."""

    __slots__ = ("sim", "sinks", "slot_images", "_store_indexes") + KINDS

    def __init__(self, sim):
        self.sim = sim
        #: Attached sinks, in attach order.
        self.sinks: List[Any] = []
        #: True when an attached sink wants ``post``/``fetch`` images.
        self.slot_images = False
        #: One shared store index per watched memory, by ``id(memory)``.
        self._store_indexes: Dict[int, _StoreIndex] = {}
        self._bind()

    def attach(self, sink) -> None:
        """Add ``sink``; one sink per class per simulator."""
        for other in self.sinks:
            if type(other) is type(sink):
                raise SinkAttachedError(
                    f"{self.sim!r} already has {other!r} attached")
        self.sinks.append(sink)
        self._bind()

    def detach(self, sink) -> bool:
        """Remove ``sink``; False when it was not attached."""
        for index, other in enumerate(self.sinks):
            if other is sink:
                del self.sinks[index]
                self._bind()
                return True
        return False

    def find(self, cls):
        """The attached sink of class ``cls``, or None."""
        for sink in self.sinks:
            if isinstance(sink, cls):
                return sink
        return None

    def _bind(self) -> None:
        self.slot_images = any(getattr(sink, "wants_slot_images", False)
                               for sink in self.sinks)
        for kind in KINDS:
            name = "on_" + kind
            setattr(self, kind, tuple(getattr(sink, name)
                                      for sink in self.sinks
                                      if hasattr(sink, name)))




class _StoreIndex:
    """One memory's annotated regions and its one store hook.

    Every :class:`StoreWatch` on the memory shares it. ``keys`` holds
    the distinct ``(start, end)`` ranges in sorted order; ``regions[i]``
    holds, per watch, the ``(start, end, label)`` region that watch
    annotated at ``keys[i]`` (None where it did not), and ``calls[i]``
    the ``(on_store, region)`` pairs a store there fans out to.
    ``reach[i]`` is the largest end among ``keys[:i + 1]``, so it never
    decreases and the first key a store ``[addr, end)`` overlaps is
    ``bisect_right(reach, addr)`` when that key starts before ``end``.
    """

    def __init__(self, memory):
        self.memory = memory
        self.watches: List["StoreWatch"] = []
        self.keys: List[Tuple[int, int]] = []
        self.regions: List[List[Optional[tuple]]] = []
        self.calls: List[tuple] = []
        self.reach: List[int] = []
        memory.add_store_hook(self.dispatch)

    def dispatch(self, addr: int, length: int) -> None:
        """The memory's store hook: each watch gets the lowest region
        it annotated that the store overlaps."""
        index = bisect_right(self.reach, addr)
        if index == len(self.reach):
            return
        if self.keys[index][0] >= addr + length:
            return
        memory = self.memory
        calls = self.calls[index]
        for on_store, region in calls:
            on_store(memory, addr, length, region)
        if len(calls) < len(self.watches):
            self._dispatch_rest(index, addr, length)

    def _dispatch_rest(self, index: int, addr: int, length: int) -> None:
        """Watches that did not annotate the first overlapped key."""
        end = addr + length
        for slot, region in enumerate(self.regions[index]):
            if region is not None:
                continue
            for later in range(index + 1, len(self.keys)):
                start, stop = self.keys[later]
                if start >= end:
                    break
                region = self.regions[later][slot]
                if stop > addr and region is not None:
                    self.watches[slot].on_store(self.memory, addr, length,
                                                region)
                    break

    def overlapping(self, slot: int, lo: int, hi: int) -> List[tuple]:
        """Regions watch ``slot`` annotated that overlap ``[lo, hi)``."""
        found = []
        keys = self.keys
        for index in range(bisect_right(self.reach, lo), len(keys)):
            start, stop = keys[index]
            if start >= hi:
                break
            region = self.regions[index][slot]
            if stop > lo and region is not None:
                found.append(region)
        return found

    def _set_calls(self, index: int) -> None:
        self.calls[index] = tuple(
            (watch.on_store, region)
            for watch, region in zip(self.watches, self.regions[index])
            if region is not None)

    def annotate(self, slot: int, region: tuple) -> bool:
        """Add ``region`` for watch ``slot``; False when that watch
        already had the range (its first label stays)."""
        start, end, _label = region
        key = (start, end)
        keys = self.keys
        index = bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            regions = self.regions[index]
            if regions[slot] is not None:
                return False
            regions[slot] = region
            self._set_calls(index)
            return True
        regions = [None] * len(self.watches)
        regions[slot] = region
        keys.insert(index, key)
        self.regions.insert(index, regions)
        self.calls.insert(index, ())
        self._set_calls(index)
        reach = self.reach
        value = max(reach[index - 1], end) if index else end
        reach.insert(index, value)
        for later in range(index + 1, len(reach)):
            if reach[later] >= value:
                break
            reach[later] = value
        return True

    def forget(self, slot: int, start: int, end: int) -> bool:
        """Drop watch ``slot``'s region at [start, end); False when it
        had none there."""
        keys = self.keys
        index = bisect_left(keys, (start, end))
        if index == len(keys) or keys[index] != (start, end):
            return False
        regions = self.regions[index]
        if regions[slot] is None:
            return False
        regions[slot] = None
        if any(region is not None for region in regions):
            self._set_calls(index)
            return True
        del keys[index], self.regions[index], self.calls[index]
        del self.reach[index]
        reach = self.reach
        for later in range(index, len(reach)):
            value = max(reach[later - 1], keys[later][1]) if later else (
                keys[later][1])
            if reach[later] == value:
                break
            reach[later] = value
        return True

    def join(self, watch: "StoreWatch") -> int:
        """Subscribe ``watch``; returns its region slot."""
        self.watches.append(watch)
        for regions in self.regions:
            regions.append(None)
        return len(self.watches) - 1

    def leave(self, watch: "StoreWatch") -> bool:
        """Unsubscribe ``watch``; True when no watch is left."""
        self.watches.remove(watch)
        self.keys, self.regions, self.calls, self.reach = [], [], [], []
        for slot, other in enumerate(self.watches):
            for region in other.regions[id(self.memory)]:
                self.annotate(slot, region)
        if self.watches:
            return False
        self.memory.remove_store_hook(self.dispatch)
        return True


class StoreWatch:
    """One sink's annotated DRAM regions and the store hook on them.

    ``on_store(memory, addr, length, region)`` runs for every store
    that overlaps a region this watch annotated, with the lowest such
    ``(start, end, label)`` region. Stores elsewhere are ignored, so a
    sink's output stays proportional to program activity, not payload
    volume. All watches of one simulator share each memory's store hook
    and bisected region index (:class:`_StoreIndex`), kept on its
    probe.
    """

    def __init__(self, probe: Probe,
                 on_store: Callable[[Any, int, int, tuple], None]):
        self.probe = probe
        self.on_store = on_store
        #: Watched memories, in attach order.
        self.memories: List[Any] = []
        #: Sorted [(start, end, label)] per ``id(memory)``.
        self.regions: Dict[int, List[Tuple[int, int, str]]] = {}
        self.closed = False

    def _index(self, memory) -> Tuple[_StoreIndex, int]:
        index = self.probe._store_indexes[id(memory)]
        return index, index.watches.index(self)

    def attach(self, memory) -> None:
        """Watch stores into ``memory`` (idempotent; inert once closed)."""
        if self.closed or id(memory) in self.regions:
            return
        indexes = self.probe._store_indexes
        index = indexes.get(id(memory))
        if index is None:
            index = indexes[id(memory)] = _StoreIndex(memory)
        index.join(self)
        self.regions[id(memory)] = []
        self.memories.append(memory)

    def annotate(self, memory, addr: int, size: int, label: str) -> None:
        """Watch stores into [addr, addr+size) under ``label``."""
        self.attach(memory)
        if self.closed:
            return
        index, slot = self._index(memory)
        region = (addr, addr + size, label)
        if index.annotate(slot, region):
            insort(self.regions[id(memory)], region)

    def forget(self, memory, addr: int, size: int) -> None:
        """Stop watching [addr, addr+size) (its memory is being torn
        down, and a later owner of the range is not this region)."""
        if self.closed or id(memory) not in self.regions:
            return
        index, slot = self._index(memory)
        if index.forget(slot, addr, addr + size):
            regions = self.regions[id(memory)]
            position = bisect_left(regions, (addr, addr + size))
            del regions[position]

    def overlapping(self, memory, lo: int, hi: int) -> List[tuple]:
        """This watch's regions overlapping [lo, hi), lowest first."""
        index, slot = self._index(memory)
        return index.overlapping(slot, lo, hi)

    def close(self) -> None:
        """Leave every memory's index; the last watch removes its hook."""
        indexes = self.probe._store_indexes
        for memory in self.memories:
            if indexes[id(memory)].leave(self):
                del indexes[id(memory)]
        self.memories.clear()
        self.closed = True
