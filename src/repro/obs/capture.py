"""The capture: one probe sink that records each NIC event once.

:class:`~repro.obs.tracer.Tracer` and
:class:`~repro.obs.recorder.FlightRecorder` are views over one
:class:`Capture` per simulator, the only probe sink behind them. Each
``on_<kind>`` hook stores one flat record, ``(code, ts, *fields)`` over
a row of :data:`SCHEMA`, holding the union of what both views need.
Records extend chunks that roll at :data:`CHUNK_SLOTS` list slots: a
long run allocates many equal lists, reused whole once freed, instead
of one list that grows by reallocation and fragments the heap.

Each view holds the chunks recorded while it was attached and folds
them when read: the tracer into Chrome trace events, numbering pids
and tids there (the ``nic``/``queue``/``track`` rows replay the order
tracks were first seen), the recorder into journal records. Only work
that needs live state runs in the hooks: the race inspector's slot
images and stale check, the journal's sequence, invariant monitor,
store bytes and checkpoints, and each view's coverage of NICs and
rings, so each view sees the stores and checkpoints it would alone.
A journal record's payload (a post's or fetch's slot image, a store's
bytes) sits in a list beside its chunk, which the recorder drops once
it leaves its retained window: behind a recorder alone the capture
stays bounded.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Any, Dict, Optional

from ..nic.opcodes import OPCODE_NAMES
from ..nic.wqe import WQE_SLOT_SIZE, split_run
from .probe import SinkAttachedError, StoreWatch

__all__ = ["CHUNK_SLOTS", "SCHEMA", "Capture", "op_name"]

#: List slots per record chunk.
CHUNK_SLOTS = 4096
#: Journal records between checks of the chunk's fill.
ROLL_CHECK = 32
#: Stores up to this many bytes keep their bytes for an export-time
#: digest; larger ones (a freed or filled ring) are digested at once.
STORE_KEEP_BYTES = 512
#: View bits of a NIC's or ring region's coverage.
TRACED, JOURNALED = 1, 2

#: One row per record kind: ``(kind, fields)``; a record is ``(code,
#: *fields)``, ``code`` being the row's index. The first three rows
#: register tracer tracks; a journaled kind is named as its journal
#: records are. ``q`` is a :class:`Queue`, ``track`` a ``(process,
#: thread)`` label pair (None: an unregistered CQ).
SCHEMA = (
    ("nic", "name ports"),
    ("queue", "q"),
    ("track", "track"),
    ("post", "ts q wr slot slots op"),
    ("doorbell", "ts q up_to"),
    ("fetch", "ts q wr slot slots op cache"),
    ("self_mod", "ts q wr slot images"),
    ("exec", "ts wq wq_num wr op len"),
    ("stale_wqe", "ts q wr fetched_at images"),
    ("wait", "ts q wr start cq threshold count signaled"),
    ("enable", "ts q wr target count relative target_name signaled"),
    ("done", "ts q wr start op status len signaled"),
    ("cqe", "ts track cq cq_num count op wr_id status wq_num delay"),
    ("atomic", "ts nic src op raddr op0 op1 orig"),
    ("store", "ts mem region addr len views"),
    ("fetch_span", "ts nic port start wq count managed"),
    ("pu", "ts nic port pu start op wq"),
    ("dma", "ts nic start bytes"),
    ("dma_txn", "ts nic start kind"),
    ("wire", "ts nic start bytes dst"),
    ("pool_wait", "ts pool start tag"),
    ("doorbell_batch", "ts q start count extra"),
    ("demux", "ts track cq_num wq_num wr_id stale"),
    ("link", "ts src dst mailbox arrival"),
    ("offload_call", "ts nic start conn ok bytes"),
    ("request", "ts start label args"),
)
SIZES = tuple(1 + len(fields.split()) for _kind, fields in SCHEMA)
(NIC, QUEUE, TRACK, POST, DOORBELL, FETCH, SELF_MOD, EXEC, STALE_WQE, WAIT,
 ENABLE, DONE, CQE, ATOMIC, STORE, FETCH_SPAN, PU, DMA, DMA_TXN, WIRE,
 POOL_WAIT, DOORBELL_BATCH, DEMUX, LINK, OFFLOAD_CALL,
 REQUEST) = range(len(SCHEMA))

#: Probe kinds only the tracer records: bound while a tracer is on.
TRACER_ONLY = ("fetch_span", "pu", "dma", "dma_txn", "wire", "pool_acquire",
               "doorbell_batch", "cqe_demux", "link_send", "offload_call")
ORPHANS = "orphan-queues"


def op_name(opcode: int) -> str:
    return OPCODE_NAMES.get(opcode) or f"OP{opcode:#x}"


def digest(data) -> str:
    """Compact (64-bit) content digest used for checkpoint state."""
    return hashlib.sha256(bytes(data)).hexdigest()[:16]


def walk(chunks):
    """Every record stored in ``chunks``, oldest first, as lists."""
    for chunk in chunks:
        index, end = 0, len(chunk)
        while index < end:
            size = SIZES[chunk[index]]
            yield chunk[index:index + size]
            index += size


class Queue:
    """One registration of a work queue: the labels its records carry,
    and the race inspector's live state while the queue lives."""

    __slots__ = ("nic", "name", "wq_num", "ring", "images", "snaps")

    def __init__(self, nic: str, wq):
        self.nic = nic
        self.name = wq.name
        self.wq_num = wq.wq_num
        self.ring = wq.ring.addr
        #: Last-seen ``(gens, bytes)`` image per ring slot index.
        self.images: Optional[Dict[int, tuple]] = {}
        #: Fetch-time snapshot per in-flight WR index.
        self.snaps: Optional[Dict[int, tuple]] = {}


class _Resolved(dict):
    """A dict whose miss returns ``resolve(key)``."""

    def __init__(self, resolve):
        super().__init__()
        self.resolve = resolve

    def __missing__(self, key):
        return self.resolve(key)


class Capture:
    """Records one simulator's NIC events for its tracer and recorder."""

    @classmethod
    def join(cls, view, role: str) -> "Capture":
        """Attach ``view`` as the ``role`` ("tracer" or "recorder") of
        its simulator's capture, made on first use."""
        sim = view.sim
        capture = sim.probe.find(cls) or cls(sim)
        other = getattr(capture, role)
        if other is not None:
            raise SinkAttachedError(f"{sim!r} already has {other!r} attached")
        setattr(capture, role, view)
        if role == "tracer":
            capture._reset_tracer()
            capture._hist = view._exec_hist
        else:
            capture.seq = 0
            capture._monitor = view.monitor
            capture._checks = (view.monitor.counter if view.monitor
                               else Counter())
        capture._roll()
        capture._due = capture._next_due()
        capture._bind()
        return capture

    def __init__(self, sim):
        self.sim = sim
        self.tracer = None
        self.recorder = None
        self._chunk: list = []
        #: Journal records since the recorder joined.
        self.seq = 0
        self._due = ROLL_CHECK - 1
        #: Payloads of the current chunk's journal records.
        self._pay: list = []
        self._checks = Counter()
        self._monitor = None
        self._hist = None
        # Live state per queue, per CQ and per NIC the tracer has seen
        # (its name; indexing ``_traced`` registers a NIC on first
        # sight), and view bits per ring (memory, start, end).
        self._queues = _Resolved(self._queue)
        self._cqs: Dict[Any, tuple] = {}
        self._traced = _Resolved(self._traced_nic)
        self._rings: Dict[tuple, int] = {}
        self._watch = StoreWatch(self._on_store)
        sim.probe.attach(self)

    # -- views ---------------------------------------------------------------

    def leave(self, view) -> None:
        """Detach ``view``; the last view takes the capture off the probe."""
        if view is self.tracer:
            self.tracer = self._hist = None
            self._reset_tracer()
        elif view is self.recorder:
            self.recorder = self._monitor = None
            self._checks = Counter()
            self._uncover(JOURNALED)
        else:
            return
        self._roll()
        self._due = self._next_due()
        if self.tracer is None and self.recorder is None:
            self.sim.probe.detach(self)
            self._watch.close()
        else:
            self._bind()

    def _reset_tracer(self) -> None:
        """Forget the tracer's tracks, coverage and race state."""
        for q in self._queues.values():
            q.images = q.snaps = None
        self._queues.clear()
        self._cqs.clear()
        self._traced.clear()
        self._uncover(TRACED)

    def _bind(self) -> None:
        traced = self.tracer is not None
        for kind in TRACER_ONLY:
            setattr(self, "on_" + kind,
                    getattr(self, "_" + kind) if traced else None)
        self.sim.probe.bind()

    # -- storage -------------------------------------------------------------

    def _roll(self) -> None:
        """Start a new chunk; every attached view holds it."""
        self._chunk = chunk = []
        self._pay = []
        if self.tracer is not None:
            self.tracer._chunks.append(chunk)
        if self.recorder is not None:
            self.recorder._extend(chunk, self._pay, self.seq)

    def _log(self, record: tuple, payload=None) -> None:
        """Store a journal record: the next ``seq``, one invariant
        check, and ``payload`` beside it. Other records only extend the
        chunk; it rolls at the first check (every :data:`ROLL_CHECK`
        journal records) that finds it full."""
        self._chunk += record
        self._pay += (payload,)
        seq = self.seq
        self.seq = seq + 1
        self._checks["checks"] += 1
        if seq == self._due:
            self._boundary()

    def _next_due(self) -> int:
        """The last seq before the chunk's fill is checked or a
        checkpoint falls due."""
        seq = self.seq
        due = (seq // ROLL_CHECK + 1) * ROLL_CHECK
        if self.recorder is not None:
            interval = self.recorder.checkpoint_interval
            due = min(due, (seq // interval + 1) * interval)
        return due - 1

    def _boundary(self) -> None:
        recorder = self.recorder
        if len(self._chunk) >= CHUNK_SLOTS:
            self._roll()
        if recorder is not None and \
                self.seq % recorder.checkpoint_interval == 0:
            recorder._checkpoint()
        self._due = self._next_due()

    # -- coverage ------------------------------------------------------------

    def cover_ring(self, wq, view: int) -> None:
        """Watch stores into ``wq``'s ring for ``view``."""
        memory, ring = wq.memory, wq.ring
        key = (memory, ring.addr, ring.end)
        mask = self._rings.get(key, 0)
        if not mask:
            self._watch.annotate(memory, ring.addr, ring.size,
                                 f"ring:{wq.name}")
        self._rings[key] = mask | view

    def _uncover(self, view: int) -> None:
        for (memory, start, end), mask in list(self._rings.items()):
            if mask == view:
                del self._rings[(memory, start, end)]
                self._watch.forget(memory, start, end - start)
            else:
                self._rings[(memory, start, end)] = mask & ~view

    def _traced_nic(self, nic) -> str:
        """The tracer's first sight of ``nic``: register its tracks,
        CQs and queues, and watch its rings."""
        name = self._traced[nic] = nic.name
        self._chunk += (NIC, name, tuple((port.index, len(port.pus))
                                         for port in nic.ports))
        for cq in nic.cqs.values():
            self._traced_cq(nic, cq)
        for wq in nic.wqs.values():
            self._traced_wq(nic, wq)
        return name

    def _traced_cq(self, nic, cq) -> None:
        self._traced[nic]
        track = self._cqs[cq] = (nic.name, f"cq:{cq.name}")
        self._chunk += (TRACK, track)

    def _traced_wq(self, nic, wq) -> Queue:
        self._traced[nic]
        q = self._queues.get(wq)
        if q is None:
            q = Queue(nic.name, wq)
            if not wq.destroyed:
                self._queues[wq] = q
            self._chunk += (QUEUE, q)
        else:
            self._chunk += (TRACK, (nic.name, f"wq:{wq.name}"))
        if not wq.destroyed:
            self.cover_ring(wq, TRACED)
        return q

    def _queue(self, wq) -> Queue:
        """Resolve a queue not in ``_queues`` (cached unless destroyed)."""
        qp = wq.qp
        traced = self.tracer is not None
        if qp is not None and traced:
            return self._traced_wq(qp.nic, wq)
        q = Queue(qp.nic.name if qp is not None else ORPHANS, wq)
        if traced:
            self._chunk += (QUEUE, q)
        if not wq.destroyed:
            self._queues[wq] = q
        return q

    # -- lifecycle hooks -----------------------------------------------------

    def on_wq_created(self, nic, wq) -> None:
        if self.tracer is not None:
            self._traced_wq(nic, wq)
        if self.recorder is not None:
            self.recorder.attach_nic(nic)
            self.recorder._cover(wq)

    def on_cq_created(self, nic, cq) -> None:
        if self.tracer is not None:
            self._traced_cq(nic, cq)
        if self.recorder is not None:
            self.recorder.attach_nic(nic)

    def on_wq_destroyed(self, wq) -> None:
        """A torn-down queue never fetches or executes again: drop its
        race state, and stop watching its ring, which a later
        allocation may reuse."""
        q = self._queues.pop(wq, None)
        if q is not None:
            q.images = q.snaps = None
        memory, ring = wq.memory, wq.ring
        if self._rings.pop((memory, ring.addr, ring.end), None):
            self._watch.forget(memory, ring.addr, ring.size)
        if self.recorder is not None:
            self.recorder._forget(wq)

    # -- journaled hooks -----------------------------------------------------

    def on_post(self, wq, wr_index: int, slot_cursor: int, data,
                count: int) -> None:
        """One record per WQE of a ring run. The ring now holds exactly
        ``data``, so each slot image needs only its generations read."""
        q, now, ring_slots = self._queues[wq], self.sim.now, wq.num_slots
        images, data = q.images, bytes(data)
        for offset, slots, op in split_run(data):
            cursor = slot_cursor + offset // WQE_SLOT_SIZE
            slot = cursor % ring_slots
            image = images[slot] = (
                wq.slot_gens(cursor, slots),
                data[offset:offset + slots * WQE_SLOT_SIZE])
            self._log((POST, now, q, wr_index, slot, slots, op), image)
            wr_index += 1

    def on_doorbell(self, wq, up_to: int) -> None:
        self._log((DOORBELL, self.sim.now, self._queues[wq], up_to))

    def on_fetch(self, wq, wr_index: int, slot_cursor: int, slots: int,
                 wqe, cache_hit: bool) -> None:
        """Post-vs-fetch half of the race join; arms fetch-vs-execute.
        The slot's last image stands while its generations do; only
        moved generations read the ring again."""
        q = self._queues[wq]
        now = self.sim.now
        slot = slot_cursor % wq.num_slots
        image = q.images.get(slot)
        gens = wq.slot_gens(slot_cursor, slots)
        if image is None or image[0] != gens:
            old = image
            image = q.images[slot] = wq.slot_state(slot_cursor, slots)
            if self.tracer is not None and old is not None \
                    and old[1] != image[1]:
                self.tracer.self_mod_count += 1
                self._chunk += (SELF_MOD, now, q, wr_index, slot,
                                (old[1], image[1]))
        if self.tracer is not None:
            q.snaps[wr_index] = (gens, image[1], now, slot_cursor, slots)
        seq = self.seq
        self._log((FETCH, now, q, wr_index, slot, slots, wqe.opcode,
                   cache_hit), image)
        if self._monitor is not None:
            self._monitor.fetch(seq, now, 0, q.name, q.wq_num, wr_index)

    def on_execute(self, wq, wr_index: int, wqe) -> None:
        """Fetch-vs-execute half of the race join, then the journal's
        exec record."""
        now = self.sim.now
        if self.tracer is not None:
            q = self._queues.get(wq)
            snap = q.snaps.pop(wr_index, None) if q is not None else None
            if snap is not None:
                gens, data, fetch_ts, slot_cursor, slots = snap
                if wq.slot_gens(slot_cursor, slots) != gens:
                    _, current = wq.slot_state(slot_cursor, slots)
                    if current != data:
                        self.tracer.stale_count += 1
                        self._chunk += (STALE_WQE, now, q, wr_index,
                                        fetch_ts, (data, current))
        if self.recorder is None:
            return
        name, length, opcode = wq.name, wqe.length, wqe.opcode
        op = OPCODE_NAMES.get(opcode) or op_name(opcode)
        self._log((EXEC, now, name, wq.wq_num, wr_index, op, length))
        if self._monitor is not None:
            self._monitor.exec(0, name, wr_index, op, length)

    def on_wait(self, wq, wr_index: int, wqe, cq, start_ns: int) -> None:
        q, now, seq, count = self._queues[wq], self.sim.now, self.seq, cq.count
        target, threshold, signaled = wqe.target, wqe.wqe_count, wqe.signaled
        self._log((WAIT, now, q, wr_index, start_ns, target, threshold,
                   count, signaled))
        if self._monitor is not None:
            self._monitor.wait(seq, now, 0, q.name, q.wq_num, wr_index,
                               target, threshold, count, signaled)

    def on_enable(self, wq, wr_index: int, wqe, relative: bool,
                  target) -> None:
        q, signaled = self._queues[wq], wqe.signaled
        self._log((ENABLE, self.sim.now, q, wr_index, wqe.target,
                   wqe.wqe_count, relative,
                   target.name if target is not None else None, signaled))
        if self._monitor is not None:
            self._monitor.enable(0, q.name, q.wq_num, wr_index, signaled)

    def on_done(self, wq, wr_index: int, wqe, status: str, byte_len: int,
                start_ns: int) -> None:
        q, now, seq = self._queues[wq], self.sim.now, self.seq
        if self._hist is not None:
            self._hist.observe(now - start_ns)
        signaled = wqe.signaled
        self._log((DONE, now, q, wr_index, start_ns, wqe.opcode, status,
                   byte_len, signaled))
        if self._monitor is not None:
            self._monitor.done(seq, now, 0, q.name, q.wq_num, wr_index,
                               status, byte_len, signaled)

    def on_cqe(self, cq, cqe, host_delay_ns: int) -> None:
        now, seq, name, count = self.sim.now, self.seq, cq.name, cq.count
        wq_num, status = cqe.wq_num, cqe.status
        self._log((CQE, now, self._cqs.get(cq), name, cq.cq_num, count,
                   cqe.opcode, cqe.wr_id, status, wq_num, host_delay_ns))
        if self._monitor is not None:
            self._monitor.cqe(seq, now, 0, name, count, wq_num, status)

    def on_atomic(self, nic, src_wq_name: str, wqe, original: int) -> None:
        if self.tracer is not None:
            self._traced[nic]
        self._log((ATOMIC, self.sim.now, nic.name, src_wq_name, wqe.opcode,
                   wqe.raddr, wqe.operand0, wqe.operand1, original))

    def _on_store(self, memory, addr: int, length: int,
                  region: tuple) -> None:
        """A store into a watched ring, seen by every view that covers
        a region it overlaps, under the lowest such region's label."""
        start, end, label = region
        stop = addr + length
        if start <= addr and stop <= end:
            # Rings are disjoint allocations: a store inside one
            # touches no other watched region.
            keys = ((memory, start, end),)
        else:
            keys = [(memory, low, high) for low, high, _label
                    in self._watch.overlapping(memory, addr, stop)]
        views = 0
        for key in keys:
            views |= self._rings.get(key, 0)
        record = (STORE, self.sim.now, memory.name, label, addr, length,
                  views)
        if views & JOURNALED:
            self.recorder._dirty.update(keys)
            self._log(record, memory.read(addr, length)
                      if length <= STORE_KEEP_BYTES
                      else digest(memory.view(addr, length)))
        else:
            self._chunk += record

    # -- tracer-only hooks (bound as ``on_<kind>`` while a tracer is on) -----

    def _fetch_span(self, nic, wq, start_ns: int, count: int,
                    managed: bool) -> None:
        self._chunk += (FETCH_SPAN, self.sim.now, self._traced[nic],
                        wq.port_index,
                        start_ns, wq.name, count, managed)

    def _pu(self, nic, wq, opcode: int, start_ns: int) -> None:
        self._chunk += (PU, self.sim.now, self._traced[nic], wq.port_index,
                        wq.pu_index, start_ns, opcode, wq.name)

    def _dma(self, nic, nbytes: int, start_ns: int) -> None:
        self._chunk += (DMA, self.sim.now, self._traced[nic], start_ns, nbytes)

    def _dma_txn(self, nic, kind: str, start_ns: int) -> None:
        self._chunk += (DMA_TXN, self.sim.now, self._traced[nic], start_ns,
                        kind)

    def _wire(self, nic, dst_nic, nbytes: int, start_ns: int) -> None:
        self._chunk += (WIRE, self.sim.now, self._traced[nic], start_ns,
                        nbytes, dst_nic.name)

    def _pool_acquire(self, pool, start_ns: int, tag: str) -> None:
        """Only a lease that waited makes a span."""
        now = self.sim.now
        if start_ns != now:
            self._chunk += (POOL_WAIT, now, pool.name, start_ns, tag)

    def _doorbell_batch(self, wq, count: int, start_ns: int,
                        extra_delay_ns: int) -> None:
        self._chunk += (DOORBELL_BATCH, self.sim.now, self._queues[wq],
                        start_ns, count, extra_delay_ns)

    def _cqe_demux(self, cq, cqe, stale: bool) -> None:
        self._chunk += (DEMUX, self.sim.now,
                        self._cqs.get(cq) or (ORPHANS, f"cq:{cq.name}"),
                        cq.cq_num, cqe.wq_num, cqe.wr_id, stale)

    def _link_send(self, src_index: int, dst_index: int, mailbox: str,
                   arrival_ns: int) -> None:
        self._chunk += (LINK, self.sim.now, src_index, dst_index, mailbox,
                        arrival_ns)

    def _offload_call(self, conn, start_ns: int, ok: bool,
                      byte_len: int) -> None:
        self._chunk += (OFFLOAD_CALL, self.sim.now,
                        self._traced[conn.client_nic], start_ns,
                        conn.name, ok, byte_len)
