"""The tracer: typed NIC-level events + the self-modification inspector.

Events are recorded keyed on **simulated** time and exported as Chrome
trace-event JSON (https://ui.perfetto.dev loads it directly). Track
layout:

* one *process* (pid) per RNIC, named after the NIC, with threads for
  each PU (``port0/pu3`` — execute occupancy spans), each port's fetch
  engine (``port0/fetch`` — WQE fetch DMA spans), the PCIe attachment
  (``pcie`` — payload DMA spans), the atomic units (``atomics`` — CAS /
  FETCH_ADD applies), every work queue (``wq:name`` — post, doorbell,
  fetch snapshots, op spans, WAIT/ENABLE, race flags) and every
  completion queue (``cq:name`` — CQE instants plus a completion
  counter track);
* one process per host DRAM for stores into *annotated* regions (WQE
  rings, which hold every RedN code region) — everything else is
  ignored so traces stay proportional to program activity, not payload
  volume.

Race inspection happens online, because only the tracer sees both
sides of the join: at **post** time it snapshots each WQE's slot bytes
and write generations; at **fetch** time a generation mismatch plus a
byte diff emits a ``self_mod`` event naming the rewritten fields (a
generation bump whose bytes match the previous image — e.g. a
RecycledLoop restore READ rewriting a template — is *not* flagged); at
**execute** time the fetch-time snapshot is re-checked and any
divergence emits ``stale_wqe``: the NIC is about to execute bytes that
no longer match DRAM — exactly the §3.1 prefetch incoherence hazard.

Storage is lean. Each hook records one flat tuple of atomic values,
``(code, pid, tid, ts_ns, dur_ns, *values)``, where ``code`` names a
row of :data:`EVENT_SCHEMA`. The tuple extends one flat list, so a
stored event leaves no GC-tracked object behind. A queue's track is
resolved once, not per event. Names, ``args`` dicts and WQE field
diffs are built only when events are read (:attr:`Tracer.events`,
:meth:`Tracer.chrome_events`), by the one formatter over that table.

The tracer never schedules simulation events and never mutates
simulated state, so attaching it cannot change a run's schedule — the
``test_obs_determinism`` suite holds it to that.
"""

from __future__ import annotations

import json
import re
from collections.abc import Sequence
from typing import Any, Dict, List, Optional, Tuple

from ..nic.opcodes import OPCODE_NAMES, Opcode
from ..nic.wqe import format_field_diff, wqe_field_diff
from .probe import StoreWatch

__all__ = ["EVENT_SCHEMA", "Tracer", "export_merged_chrome"]


#: One row per recorded event kind: ``(kind, ph, cat, name, fields,
#: args)``. A recorded event is ``(code, pid, tid, ts_ns, dur_ns,
#: *values)``, ``code`` being the row's index and ``dur_ns`` None
#: unless ``ph`` is "X". ``fields`` names the values in order;
#: ``field:render`` renders that value at export. ``name`` is formatted
#: over the rendered fields, and ``args`` lists the trailing fields
#: that make the event's args dict, in key order (``*``: the ``args``
#: field is the dict itself; None: no args).
EVENT_SCHEMA = (
    ("post", "i", "queue", "post:{op}",
     "op:op wr_index slot slots", "wr_index slot slots"),
    ("doorbell", "i", "queue", "doorbell", "up_to", "up_to"),
    ("fetch_span", "X", "fetch", "fetch",
     "wq count managed", "wq count managed"),
    ("prefetch_span", "X", "fetch", "prefetch[{count}]",
     "wq count managed", "wq count managed"),
    ("self_mod", "i", "race", "self_mod",
     "wq wr_index slot changed:diff", "wq wr_index slot changed"),
    ("fetch", "i", "fetch", "wqe:{op}",
     "op:op wr_index slot cache:cache", "wr_index slot cache"),
    ("stale_wqe", "i", "race", "stale_wqe",
     "wq wr_index fetched_at window_ns changed:diff",
     "wq wr_index fetched_at window_ns changed"),
    ("pu", "X", "exec", "{op}", "op:op wq", "wq"),
    ("wait", "X", "sync", "WAIT", "cq_num count", "cq_num count"),
    ("wait_wake", "i", "sync", "WAIT.wake", "cq_num", "cq_num"),
    ("enable", "i", "sync", "ENABLE",
     "target_wq count relative", "target_wq count relative"),
    ("enable_named", "i", "sync", "ENABLE",
     "target_wq count relative target_name",
     "target_wq count relative target_name"),
    ("done", "X", "exec", "op:{op}",
     "op:op wr_index status", "wr_index status"),
    ("cqe", "i", "cqe", "cqe:{op}",
     "op:op wr_id status wq_num cq_num count",
     "wr_id status wq_num cq_num count"),
    ("cqe_dma", "X", "cqe", "cqe_dma", "wr_id cq_num", "wr_id cq_num"),
    ("cq_count", "C", "cqe", "cq:{cq}", "cq completions", "completions"),
    ("cas", "i", "atomic", "{op}",
     "op:op raddr expected desired original swapped",
     "raddr expected desired original swapped"),
    ("atomic", "i", "atomic", "{op}",
     "op:op raddr delta original", "raddr delta original"),
    ("dma", "X", "dma", "dma[{bytes}B]", "bytes", "bytes"),
    ("dma_txn", "X", "dma", "dma:{kind}", "kind", "kind"),
    ("wire", "X", "wire", "wire[{bytes}B]", "bytes dst", "bytes dst"),
    ("pool_wait", "X", "conn", "pool_wait", "pool tag", "pool tag"),
    ("doorbell_batch", "X", "conn", "batch[{count}]",
     "wq count extra_delay_ns", "wq count extra_delay_ns"),
    ("demux", "i", "conn", "demux",
     "cq_num wq_num wr_id", "cq_num wq_num wr_id"),
    ("demux_stale", "i", "conn", "demux:stale",
     "cq_num wq_num wr_id", "cq_num wq_num wr_id"),
    ("link", "X", "link", "link:{mailbox}",
     "src dst mailbox arrival_ns", "src dst mailbox arrival_ns"),
    ("offload_call", "X", "offload", "call:{conn}",
     "conn ok bytes", "ok bytes"),
    ("request", "X", "request", "{label}", "label args", "*"),
    ("store", "i", "mem", "store:{region}",
     "addr len region", "addr len region"),
)


class _OpNames(dict):
    """Opcode -> name, falling back to ``OP0x..`` for unknown codes."""

    def __missing__(self, opcode: int) -> str:
        return f"OP{opcode:#x}"


_RENDER = {
    "op": _OpNames(OPCODE_NAMES).__getitem__,
    "cache": lambda hit: "hit" if hit else "miss",
    # The self_mod / stale_wqe field diff of (old, new) WQE images.
    "diff": lambda images: [format_field_diff(diff)
                            for diff in wqe_field_diff(*images)],
}


def _compile(row):
    """A schema row as ``(ph, cat, title, templated, arg_keys, skip,
    renders)``: ``title`` takes the values positionally, the args are
    ``values[skip:]`` (the ``args`` value itself for ``*``), and
    ``renders`` pairs each rendered value's index with its renderer."""
    kind, ph, cat, name, fields, args = row
    keys, renders = [], []
    for index, field in enumerate(fields.split()):
        key, _, render = field.partition(":")
        keys.append(key)
        if render:
            renders.append((index, _RENDER[render]))
    skip = None
    if args == "*":
        skip = keys.index("args")
    elif args is not None:
        args = tuple(args.split())
        skip = len(keys) - len(args)
        if tuple(keys[skip:]) != args:
            raise ValueError(f"{kind}: args must be the last fields")
    title = re.sub(r"\{(\w+)\}",
                   lambda match: "{%d}" % keys.index(match.group(1)), name)
    return ph, cat, title, "{" in name, args, skip, tuple(renders)


_ROWS = tuple(_compile(row) for row in EVENT_SCHEMA)
_SIZES = tuple(5 + len(row[4].split()) for row in EVENT_SCHEMA)
(_POST, _DOORBELL, _FETCH_SPAN, _PREFETCH_SPAN, _SELF_MOD, _FETCH,
 _STALE_WQE, _PU, _WAIT, _WAIT_WAKE, _ENABLE, _ENABLE_NAMED, _DONE, _CQE,
 _CQE_DMA, _CQ_COUNT, _CAS, _ATOMIC, _DMA, _DMA_TXN, _WIRE, _POOL_WAIT,
 _DOORBELL_BATCH, _DEMUX, _DEMUX_STALE, _LINK, _OFFLOAD_CALL, _REQUEST,
 _STORE) = range(len(EVENT_SCHEMA))


def _format(raw: list) -> tuple:
    """``(ph, cat, name, args)`` of one recorded event."""
    ph, cat, title, templated, arg_keys, skip, renders = _ROWS[raw[0]]
    values = raw[5:]
    for index, render in renders:
        values[index] = render(values[index])
    name = title.format(*values) if templated else title
    if arg_keys is None:
        args = None
    elif arg_keys == "*":
        args = values[skip]
    else:
        args = dict(zip(arg_keys, values[skip:]))
    return ph, cat, name, args


def _event(raw: tuple) -> tuple:
    """One recorded tuple as ``(ph, cat, name, pid, tid, ts_ns, dur_ns,
    args)``."""
    ph, cat, name, args = _format(raw)
    return (ph, cat, name, raw[1], raw[2], raw[3], raw[4], args)


def _walk(flat: list):
    """The recorded events stored back to back in ``flat``, as lists."""
    index, end = 0, len(flat)
    while index < end:
        size = _SIZES[flat[index]]
        yield flat[index:index + size]
        index += size


class _EventView(Sequence):
    """:attr:`Tracer.events`: formatted on access, sized in O(1)."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __len__(self) -> int:
        return self._tracer._count

    def __getitem__(self, index):
        return list(self)[index]

    def __iter__(self):
        return map(_event, _walk(self._tracer._raw))

    def __eq__(self, other) -> bool:
        if isinstance(other, (_EventView, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"<events n={len(self)}>"


class _Queue:
    """Per work queue: its track, last slot images, fetch snapshots."""

    __slots__ = ("wq", "pid", "tid", "images", "snaps")

    def __init__(self, wq, pid: int, tid: int):
        self.wq = wq
        self.pid = pid
        self.tid = tid
        #: Last-seen ``(gens, bytes)`` image per ring slot index.
        self.images: Dict[int, Tuple[Tuple[int, ...], bytes]] = {}
        #: Fetch-time snapshot per in-flight WR index.
        self.snaps: Dict[int, Tuple] = {}


class _Queues(dict):
    """Live queue -> its :class:`_Queue`; a miss resolves the queue."""

    def __init__(self, resolve):
        super().__init__()
        self.resolve = resolve

    def __missing__(self, wq) -> _Queue:
        return self.resolve(wq)


class Tracer:
    """Records one simulation's events; one tracer per Simulator.

    A :mod:`repro.obs.probe` sink: its ``on_<kind>`` methods are the
    probe's event hooks.
    """

    #: The race inspector compares post/fetch slot images.
    wants_slot_images = True

    def __init__(self, sim, name: str = "trace"):
        self.sim = sim
        self.name = name
        # Recorded events, in emission (= simulated time) order: flat
        # tuples over EVENT_SCHEMA stored back to back, and their count.
        self._raw: list = []
        self._count = 0
        self._pids: Dict[str, int] = {}
        self._tids: Dict[Tuple[int, str], int] = {}
        self._tid_counts: Dict[int, int] = {}
        self._nics_seen: set = set()
        # Resolved state per live queue, and (pid, tid) per CQ.
        self._queues = _Queues(self._queue)
        self._cqs: Dict[Any, Tuple[int, int]] = {}
        # (pid, tid) per NIC-, pool- or memory-level track key.
        self._tracks: Dict[tuple, Tuple[int, int]] = {}
        # Stores into WQE rings (RedN code regions included) become events.
        self._watch = StoreWatch(sim.probe, self._on_store)
        self.self_mod_count = 0
        self.stale_count = 0
        sim.probe.attach(self)
        self._exec_hist = sim.metrics.histogram("obs.execute_ns")

    def __repr__(self) -> str:
        return f"<Tracer {self.name} events={self._count}>"

    @property
    def events(self) -> _EventView:
        """Recorded events as ``(ph, cat, name, pid, tid, ts_ns, dur_ns,
        args)`` tuples, in emission (= simulated time) order."""
        return _EventView(self)

    def close(self) -> None:
        """Detach from the simulator and its memories."""
        if self.sim.probe.detach(self):
            self._watch.close()

    # -- track bookkeeping -----------------------------------------------

    def _pid(self, label: str) -> int:
        pid = self._pids.get(label)
        if pid is None:
            pid = self._pids[label] = len(self._pids) + 1
        return pid

    def _tid(self, pid: int, label: str) -> int:
        key = (pid, label)
        tid = self._tids.get(key)
        if tid is None:
            tid = self._tid_counts.get(pid, 0) + 1
            self._tid_counts[pid] = self._tids[key] = tid
        return tid

    def _track(self, key: tuple, pid_label: str,
               thread: str) -> Tuple[int, int]:
        pid = self._pid(pid_label)
        track = self._tracks[key] = (pid, self._tid(pid, thread))
        return track

    def _nic_track(self, nic, key: tuple, thread: str) -> Tuple[int, int]:
        pid = self.attach_nic(nic)
        track = self._tracks[key] = (pid, self._tid(pid, thread))
        return track

    def _queue(self, wq) -> _Queue:
        """Resolve a queue not in ``_queues`` (cached unless destroyed)."""
        qp = wq.qp
        if qp is not None:
            return self._register_wq(qp.nic, wq)
        pid = self._pid("orphan-queues")
        state = _Queue(wq, pid, self._tid(pid, f"wq:{wq.name}"))
        if not wq.destroyed:
            self._queues[wq] = state
        return state

    def _register_wq(self, nic, wq) -> _Queue:
        pid = self.attach_nic(nic)
        tid = self._tid(pid, f"wq:{wq.name}")
        if not wq.destroyed:
            self._watch.annotate(wq.memory, wq.ring.addr, wq.ring.size,
                                 f"ring:{wq.name}")
        state = self._queues.get(wq)
        if state is None:
            state = _Queue(wq, pid, tid)
            if not wq.destroyed:
                self._queues[wq] = state
        return state

    def _cq_track(self, cq) -> Tuple[int, int]:
        track = self._cqs.get(cq)
        if track is not None:
            return track
        pid = self._pid("orphan-queues")
        return pid, self._tid(pid, f"cq:{cq.name}")

    # -- attachment --------------------------------------------------------

    def attach_nic(self, nic) -> int:
        """Register a NIC's tracks, queues and DRAM write hook.

        Idempotent; also invoked lazily by every NIC-side event, so an
        explicit call is only needed to pre-register empty tracks.
        """
        pid = self._pid(nic.name)
        if id(nic) in self._nics_seen:
            return pid
        self._nics_seen.add(id(nic))
        for port in nic.ports:
            self._tid(pid, f"port{port.index}/fetch")
            for pu_index in range(len(port.pus)):
                self._tid(pid, f"port{port.index}/pu{pu_index}")
        self._tid(pid, "pcie")
        self._tid(pid, "wire")
        self._tid(pid, "atomics")
        self._watch.attach(nic.memory)
        for cq in nic.cqs.values():
            self.on_cq_created(nic, cq)
        for wq in nic.wqs.values():
            self.on_wq_created(nic, wq)
        return pid

    # -- NIC object lifecycle (called by RNIC factories) --------------------

    def on_wq_created(self, nic, wq) -> None:
        self._register_wq(nic, wq)

    def on_wq_destroyed(self, wq) -> None:
        """A torn-down queue never fetches or executes again: drop its
        slot images and unexecuted fetch snapshots, and stop tracing
        stores into its ring, which a later allocation may reuse."""
        self._queues.pop(wq, None)
        self._watch.forget(wq.memory, wq.ring.addr, wq.ring.size)

    def on_cq_created(self, nic, cq) -> None:
        pid = self.attach_nic(nic)
        self._cqs[cq] = (pid, self._tid(pid, f"cq:{cq.name}"))

    # -- queue-side events ----------------------------------------------------

    def on_post(self, wq, wr_index: int, slot_cursor: int, slots: int,
                wqe, image) -> None:
        """Host posted a WQE: record its image for the race inspector."""
        state = self._queues[wq]
        slot = slot_cursor % wq.num_slots
        state.images[slot] = image
        self._raw += (_POST, state.pid, state.tid, self.sim.now, None,
                      wqe.opcode, wr_index, slot, slots)
        self._count += 1

    def on_doorbell(self, wq, up_to: int) -> None:
        state = self._queues[wq]
        self._raw += (_DOORBELL, state.pid, state.tid, self.sim.now, None,
                      up_to)
        self._count += 1

    def on_fetch_span(self, nic, wq, start_ns: int, count: int,
                      managed: bool) -> None:
        """One fetch DMA (managed: 1 WQE; normal: a prefetch batch)."""
        key = (nic, "fetch", wq.port_index)
        pid, tid = self._tracks.get(key) or self._nic_track(
            nic, key, f"port{wq.port_index}/fetch")
        self._raw += (_FETCH_SPAN if managed else _PREFETCH_SPAN, pid, tid,
                      start_ns, self.sim.now - start_ns, wq.name, count,
                      managed)
        self._count += 1

    def on_fetch(self, wq, wr_index: int, slot_cursor: int, slots: int,
                 wqe, cache_hit: bool, image) -> None:
        """One WQE's bytes were snapshotted by the NIC.

        Runs the post-vs-fetch half of the race join and arms the
        fetch-vs-execute half.
        """
        state = self._queues[wq]
        now = self.sim.now
        gens, data = image
        slot = slot_cursor % wq.num_slots
        images = state.images
        old = images.get(slot)
        if old is not None and old[0] != gens and old[1] != data:
            self.self_mod_count += 1
            self._raw += (_SELF_MOD, state.pid, state.tid, now, None, wq.name,
                          wr_index, slot, (old[1], data))
            self._count += 1
        images[slot] = image
        state.snaps[wr_index] = (gens, data, now, slot_cursor, slots)
        self._raw += (_FETCH, state.pid, state.tid, now, None, wqe.opcode,
                      wr_index, slot, cache_hit)
        self._count += 1

    # -- execute-side events ----------------------------------------------------

    def on_execute(self, wq, wr_index: int, wqe) -> None:
        """WQE entered execution: close the fetch-vs-execute window."""
        state = self._queues.get(wq)
        if state is None:
            return
        snap = state.snaps.pop(wr_index, None)
        if snap is None:
            return
        gens, data, fetch_ts, slot_cursor, slots = snap
        if wq.slot_gens(slot_cursor, slots) == gens:
            return
        _, current = wq.slot_state(slot_cursor, slots)
        if current == data:
            return
        now = self.sim.now
        self.stale_count += 1
        self._raw += (_STALE_WQE, state.pid, state.tid, now, None, wq.name,
                      wr_index, fetch_ts, now - fetch_ts, (data, current))
        self._count += 1

    def on_pu(self, nic, wq, opcode: int, start_ns: int) -> None:
        key = (nic, wq.port_index, wq.pu_index)
        pid, tid = self._tracks.get(key) or self._nic_track(
            nic, key, f"port{wq.port_index}/pu{wq.pu_index}")
        self._raw += (_PU, pid, tid, start_ns, self.sim.now - start_ns, opcode,
                      wq.name)
        self._count += 1

    def on_wait(self, wq, wr_index: int, wqe, cq, start_ns: int) -> None:
        state = self._queues[wq]
        now = self.sim.now
        self._raw += (_WAIT, state.pid, state.tid, start_ns, now - start_ns,
                      wqe.target, wqe.wqe_count)
        self._count += 1
        self._raw += (_WAIT_WAKE, state.pid, state.tid, now, None, wqe.target)
        self._count += 1

    def on_enable(self, wq, wr_index: int, wqe, relative: bool,
                  target) -> None:
        state = self._queues[wq]
        if target is None:
            raw = (_ENABLE, state.pid, state.tid, self.sim.now, None,
                   wqe.target, wqe.wqe_count, relative)
        else:
            raw = (_ENABLE_NAMED, state.pid, state.tid, self.sim.now, None,
                   wqe.target, wqe.wqe_count, relative, target.name)
        self._raw += raw
        self._count += 1

    def on_done(self, wq, wr_index: int, wqe, status: str, byte_len: int,
                start_ns: int) -> None:
        state = self._queues[wq]
        dur = self.sim.now - start_ns
        self._exec_hist.observe(dur)
        self._raw += (_DONE, state.pid, state.tid, start_ns, dur, wqe.opcode,
                      wr_index, status)
        self._count += 1

    # -- completion / data-path events ---------------------------------------

    def on_cqe(self, cq, cqe, host_delay_ns: int) -> None:
        pid, tid = self._cq_track(cq)
        now = self.sim.now
        self._raw += (_CQE, pid, tid, now, None, cqe.opcode, cqe.wr_id,
                      cqe.status, cqe.wq_num, cq.cq_num, cq.count)
        self._count += 1
        if host_delay_ns > 0:
            # The posted DMA that carries the CQE to host memory: the
            # monotonic counter (WAIT verbs) bumped at span start, the
            # host poller sees the entry at span end.
            self._raw += (_CQE_DMA, pid, tid, now, host_delay_ns, cqe.wr_id,
                          cq.cq_num)
            self._count += 1
        self._raw += (_CQ_COUNT, pid, tid, now, None, cq.name, cq.count)
        self._count += 1

    def on_atomic(self, nic, src_wq_name: str, wqe, original: int) -> None:
        key = (nic, "atomics")
        pid, tid = self._tracks.get(key) or self._nic_track(
            nic, key, "atomics")
        if wqe.opcode == Opcode.CAS:
            raw = (_CAS, pid, tid, self.sim.now, None, wqe.opcode,
                   wqe.raddr, wqe.operand0, wqe.operand1, original,
                   original == wqe.operand0)
        else:
            raw = (_ATOMIC, pid, tid, self.sim.now, None, wqe.opcode,
                   wqe.raddr, wqe.operand0, original)
        self._raw += raw
        self._count += 1

    def on_dma(self, nic, nbytes: int, start_ns: int) -> None:
        key = (nic, "pcie")
        pid, tid = self._tracks.get(key) or self._nic_track(
            nic, key, "pcie")
        self._raw += (_DMA, pid, tid, start_ns, self.sim.now - start_ns,
                      nbytes)
        self._count += 1

    def on_dma_txn(self, nic, kind: str, start_ns: int) -> None:
        """A posted/non-posted PCIe transaction latency window."""
        key = (nic, "pcie")
        pid, tid = self._tracks.get(key) or self._nic_track(
            nic, key, "pcie")
        self._raw += (_DMA_TXN, pid, tid, start_ns, self.sim.now - start_ns,
                      kind)
        self._count += 1

    def on_wire(self, nic, dst_nic, nbytes: int, start_ns: int) -> None:
        """One message's serialization + link traversal (never loopback)."""
        key = (nic, "wire")
        pid, tid = self._tracks.get(key) or self._nic_track(
            nic, key, "wire")
        self._raw += (_WIRE, pid, tid, start_ns, self.sim.now - start_ns,
                      nbytes, dst_nic.name)
        self._count += 1

    # -- connection-plane / cross-shard events -------------------------------

    def on_pool_acquire(self, pool, start_ns: int, tag: str) -> None:
        """One lease's FIFO wait in a QpPool's acquire queue, if any."""
        now = self.sim.now
        if start_ns == now:
            return
        key = (pool.name, "lease-wait")
        pid, tid = self._tracks.get(key) or self._track(
            key, pool.name, "lease-wait")
        self._raw += (_POOL_WAIT, pid, tid, start_ns, now - start_ns,
                      pool.name, tag)
        self._count += 1

    def on_doorbell_batch(self, wq, count: int, start_ns: int,
                          extra_delay_ns: int) -> None:
        """One coalesced doorbell flush: hold window + batch surcharge."""
        state = self._queues[wq]
        self._raw += (_DOORBELL_BATCH, state.pid, state.tid, start_ns,
                      (self.sim.now - start_ns) + extra_delay_ns, wq.name,
                      count, extra_delay_ns)
        self._count += 1

    def on_cqe_demux(self, cq, cqe, stale: bool) -> None:
        """CompletionRouter verdict for one shared-CQ entry."""
        pid, tid = self._cq_track(cq)
        self._raw += (_DEMUX_STALE if stale else _DEMUX, pid, tid,
                      self.sim.now, None, cq.cq_num, cqe.wq_num, cqe.wr_id)
        self._count += 1

    def on_link_send(self, src_index: int, dst_index: int, mailbox: str,
                     arrival_ns: int) -> None:
        """One ShardFabric message's wire traversal to the peer shard."""
        key = ("fabric", src_index, dst_index)
        pid, tid = self._tracks.get(key) or self._track(
            key, "fabric", f"link:{src_index}->{dst_index}")
        now = self.sim.now
        self._raw += (_LINK, pid, tid, now, arrival_ns - now, src_index,
                      dst_index, mailbox, arrival_ns)
        self._count += 1

    def on_offload_call(self, conn, start_ns: int, ok: bool,
                        byte_len: int) -> None:
        nic = conn.client_nic
        key = (nic, "offload")
        pid, tid = self._tracks.get(key) or self._nic_track(
            nic, key, "offload")
        self._raw += (_OFFLOAD_CALL, pid, tid, start_ns,
                      self.sim.now - start_ns, conn.name, ok, byte_len)
        self._count += 1

    def request_span(self, label: str, start_ns: int,
                     args: Optional[Dict[str, Any]] = None) -> None:
        """An application-defined request window (benchmark samples).

        The critical-path profiler treats each such span — like each
        offload ``call:`` span — as one request to attribute.
        """
        pid = self._pid(self.name)
        tid = self._tid(pid, "requests")
        self._raw += (_REQUEST, pid, tid, start_ns, self.sim.now - start_ns,
                      label, args)
        self._count += 1

    def _on_store(self, memory, addr: int, length: int,
                  region: tuple) -> None:
        key = (memory.name, "stores")
        pid, tid = self._tracks.get(key) or self._track(
            key, memory.name, "stores")
        self._raw += (_STORE, pid, tid, self.sim.now, None, addr, length,
                      region[2])
        self._count += 1

    # -- export ------------------------------------------------------------

    def chrome_events(self, pid_offset: int = 0) -> List[Dict[str, Any]]:
        """All events as Chrome trace-event dicts (ts/dur in us)."""
        out: List[Dict[str, Any]] = []
        for label, pid in self._pids.items():
            out.append({"ph": "M", "name": "process_name",
                        "pid": pid + pid_offset, "tid": 0,
                        "args": {"name": label}})
        for (pid, label), tid in self._tids.items():
            out.append({"ph": "M", "name": "thread_name",
                        "pid": pid + pid_offset, "tid": tid,
                        "args": {"name": label}})
        flat = self._raw
        index, end = 0, len(flat)
        while index < end:
            size = _SIZES[flat[index]]
            raw = flat[index:index + size]
            index += size
            ph, cat, name, args = _format(raw)
            event: Dict[str, Any] = {
                "ph": ph, "cat": cat, "name": name,
                "pid": raw[1] + pid_offset, "tid": raw[2],
                "ts": raw[3] / 1000,
            }
            if ph == "X":
                event["dur"] = (raw[4] or 0) / 1000
            elif ph == "i":
                event["s"] = "t"
            if args is not None:
                event["args"] = args
            out.append(event)
        return out

    @property
    def pid_count(self) -> int:
        return len(self._pids)

    def to_json(self) -> str:
        payload = {"traceEvents": self.chrome_events(),
                   "displayTimeUnit": "ns"}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def export_chrome(self, path) -> int:
        """Write Chrome trace-event JSON; returns the event count."""
        with open(path, "w") as handle:
            handle.write(self.to_json())
        return self._count


def export_merged_chrome(tracers, path) -> int:
    """Merge several tracers (distinct pid spaces) into one trace file."""
    events: List[Dict[str, Any]] = []
    offset = 0
    for tracer in tracers:
        events.extend(tracer.chrome_events(pid_offset=offset))
        offset += tracer.pid_count
    payload = {"traceEvents": events, "displayTimeUnit": "ns"}
    with open(path, "w") as handle:
        handle.write(json.dumps(payload, sort_keys=True,
                                separators=(",", ":")))
    return len(events)
