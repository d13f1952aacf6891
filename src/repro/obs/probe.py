"""The probe: one event vocabulary between the simulator and its sinks.

Every instrumentation site in the simulator announces its event exactly
once, through its own simulator's ``sim.probe``. A *sink* — the
:class:`~repro.obs.capture.Capture` behind the tracer and the flight
recorder, a :class:`~repro.obs.telemetry.TelemetryCollector`, or any
object with ``on_<kind>`` methods — joins with :meth:`Probe.attach`.
For each event kind in :data:`KINDS` the probe keeps the tuple of the
attached sinks' ``on_<kind>`` hooks (None opts out); a kind no sink
hears holds the empty tuple, so with nothing listening a site costs
one attribute load and a branch::

    if probe.post:
        for hook in probe.post:
            hook(wq, wr_index, slot_cursor, data, count)

The probe is per simulator: a sink attached to one simulator never
puts another on the observed path. Sinks never schedule events or
mutate simulated state, and they never see each other.

Event kinds and the arguments every ``on_<kind>`` hook receives
(times are simulated ns; the event happens at ``sim.now``):

====================  ==================================================
kind                  arguments
====================  ==================================================
``wq_created``        nic, wq
``wq_destroyed``      wq — the queue was torn down; its fetched but
                      unexecuted WQEs never execute
``cq_created``        nic, cq
``post``              wq, wr_index, slot_cursor, data, count — one
                      ring run of ``count`` WQEs, the first at
                      ``wr_index``/``slot_cursor``; ``data`` is the
                      run's bytes, each WQE's slot count in its header
``doorbell``          wq, up_to
``doorbell_batch``    wq, count, start_ns, extra_delay_ns
``fetch_span``        nic, wq, start_ns, count, managed — one fetch
                      DMA, announced before its WQEs' ``fetch`` events
``fetch``             wq, wr_index, slot_cursor, slots, wqe, cache_hit
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

Stores into annotated DRAM regions reach sinks through
:class:`StoreWatch`: one store hook and one bisected region index per
watched memory.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Dict, List, Tuple

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

    __slots__ = ("sim", "sinks") + KINDS

    def __init__(self, sim):
        self.sim = sim
        #: Attached sinks, in attach order.
        self.sinks: List[Any] = []
        self.bind()

    def attach(self, sink) -> None:
        """Add ``sink``; one sink per class per simulator."""
        for other in self.sinks:
            if type(other) is type(sink):
                raise SinkAttachedError(
                    f"{self.sim!r} already has {other!r} attached")
        self.sinks.append(sink)
        self.bind()

    def detach(self, sink) -> bool:
        """Remove ``sink``; False when it was not attached."""
        for index, other in enumerate(self.sinks):
            if other is sink:
                del self.sinks[index]
                self.bind()
                return True
        return False

    def find(self, cls):
        """The attached sink of class ``cls``, or None."""
        for sink in self.sinks:
            if isinstance(sink, cls):
                return sink
        return None

    def bind(self) -> None:
        """Re-read every sink's hooks; a sink whose ``on_<kind>`` is
        missing or None does not hear that kind."""
        for kind in KINDS:
            hooks = (getattr(sink, "on_" + kind, None) for sink in self.sinks)
            setattr(self, kind, tuple(hook for hook in hooks
                                      if hook is not None))


class _Regions:
    """One watch's annotated regions on one memory, and its store hook.

    ``regions`` holds the ``(start, end, label)`` regions sorted by
    ``(start, end)``, one per range (the first label stays).
    ``reach[i]`` is the largest end among ``regions[:i + 1]``, so it
    never decreases and the first region a store ``[addr, end)``
    overlaps is ``regions[bisect_right(reach, addr)]`` when that region
    starts before ``end``.
    """

    def __init__(self, memory, on_store):
        self.memory = memory
        self.on_store = on_store
        self.regions: List[Tuple[int, int, str]] = []
        self.reach: List[int] = []
        memory.add_store_hook(self.dispatch)

    def dispatch(self, addr: int, length: int) -> None:
        """The memory's store hook: the lowest overlapped region."""
        index = bisect_right(self.reach, addr)
        if index < len(self.reach) and \
                self.regions[index][0] < addr + length:
            self.on_store(self.memory, addr, length, self.regions[index])

    def overlapping(self, lo: int, hi: int) -> List[tuple]:
        """Regions overlapping ``[lo, hi)``, lowest first."""
        found, regions = [], self.regions
        for index in range(bisect_right(self.reach, lo), len(regions)):
            region = regions[index]
            if region[0] >= hi:
                break
            if region[1] > lo:
                found.append(region)
        return found

    def annotate(self, region: tuple) -> None:
        start, end, _label = region
        regions, reach = self.regions, self.reach
        index = bisect_left(regions, (start, end))
        if index < len(regions) and regions[index][:2] == (start, end):
            return
        regions.insert(index, region)
        value = max(reach[index - 1], end) if index else end
        reach.insert(index, value)
        for later in range(index + 1, len(reach)):
            if reach[later] >= value:
                break
            reach[later] = value

    def forget(self, start: int, end: int) -> None:
        regions, reach = self.regions, self.reach
        index = bisect_left(regions, (start, end))
        if index == len(regions) or regions[index][:2] != (start, end):
            return
        del regions[index], reach[index]
        for later in range(index, len(reach)):
            value = max(reach[later - 1], regions[later][1]) if later else (
                regions[later][1])
            if reach[later] == value:
                break
            reach[later] = value


class StoreWatch:
    """One sink's annotated DRAM regions and the store hook on them.

    ``on_store(memory, addr, length, region)`` runs for every store
    that overlaps a region this watch annotated, with the lowest such
    ``(start, end, label)`` region. Stores elsewhere are ignored, so a
    sink's output stays proportional to program activity, not payload
    volume. Each watched memory gets one store hook and one bisected
    region index (:class:`_Regions`).
    """

    def __init__(self, on_store: Callable[[Any, int, int, tuple], None]):
        self.on_store = on_store
        #: The region index per watched ``id(memory)``, in attach order.
        self._indexes: Dict[int, _Regions] = {}
        self.closed = False

    @property
    def regions(self) -> Dict[int, List[Tuple[int, int, str]]]:
        """Sorted ``[(start, end, label)]`` per watched ``id(memory)``."""
        return {key: index.regions for key, index in self._indexes.items()}

    def attach(self, memory) -> None:
        """Watch stores into ``memory`` (idempotent; inert once closed)."""
        if not self.closed and id(memory) not in self._indexes:
            self._indexes[id(memory)] = _Regions(memory, self.on_store)

    def annotate(self, memory, addr: int, size: int, label: str) -> None:
        """Watch stores into [addr, addr+size) under ``label``."""
        self.attach(memory)
        if not self.closed:
            self._indexes[id(memory)].annotate((addr, addr + size, label))

    def forget(self, memory, addr: int, size: int) -> None:
        """Stop watching [addr, addr+size) (its memory is being torn
        down, and a later owner of the range is not this region)."""
        index = self._indexes.get(id(memory))
        if index is not None:
            index.forget(addr, addr + size)

    def overlapping(self, memory, lo: int, hi: int) -> List[tuple]:
        """This watch's regions overlapping [lo, hi), lowest first."""
        return self._indexes[id(memory)].overlapping(lo, hi)

    def close(self) -> None:
        """Remove every memory's store hook."""
        for index in self._indexes.values():
            index.memory.remove_store_hook(index.dispatch)
        self._indexes.clear()
        self.closed = True
