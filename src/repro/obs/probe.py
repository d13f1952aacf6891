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
``cq_created``        nic, cq
``code_region``       memory, addr, size, label — a RedN code ring
``post``              wq, wr_index, slot_cursor, slots, wqe
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
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

__all__ = ["KINDS", "Probe", "SinkAttachedError", "StoreWatch"]

KINDS = (
    "wq_created", "cq_created", "code_region",
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
        for kind in KINDS:
            name = "on_" + kind
            setattr(self, kind, tuple(getattr(sink, name)
                                      for sink in self.sinks
                                      if hasattr(sink, name)))


class StoreWatch:
    """Annotated DRAM regions per memory, and the store hooks on them.

    ``on_store(memory, addr, length, label)`` runs for every store that
    overlaps an annotated region, with the label of the lowest such
    region. Stores elsewhere are ignored, so a sink's output stays
    proportional to program activity, not payload volume.
    """

    def __init__(self, on_store: Callable[[Any, int, int, str], None]):
        self.on_store = on_store
        #: (memory, hook) per watched memory, in attach order.
        self.memories: List[Tuple[Any, Callable]] = []
        #: Sorted [(start, end, label)] per ``id(memory)``.
        self.regions: Dict[int, List[Tuple[int, int, str]]] = {}

    def attach(self, memory) -> None:
        """Install the store hook on ``memory`` (idempotent)."""
        if id(memory) in self.regions:
            return
        regions = self.regions[id(memory)] = []
        on_store = self.on_store

        def hook(addr: int, length: int) -> None:
            end = addr + length
            for start, stop, label in regions:
                if start >= end:
                    return
                if stop > addr:
                    on_store(memory, addr, length, label)
                    return

        memory.add_store_hook(hook)
        self.memories.append((memory, hook))

    def annotate(self, memory, addr: int, size: int, label: str) -> None:
        """Watch stores into [addr, addr+size) under ``label``."""
        self.attach(memory)
        regions = self.regions[id(memory)]
        for start, end, _ in regions:
            if start == addr and end == addr + size:
                return
        regions.append((addr, addr + size, label))
        regions.sort()

    def close(self) -> None:
        """Remove every installed store hook."""
        for memory, hook in self.memories:
            memory.remove_store_hook(hook)
        self.memories.clear()
