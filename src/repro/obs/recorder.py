"""Flight recorder: causal event journal, checkpoints, invariants.

The recorder is the record half of record-and-diff debugging for the
simulator. A :mod:`repro.obs.probe` sink like the tracer, it journals
every **causally identified** event — a WQE post/fetch/execute
(queue name + monotonic WR index + slot bytes), a doorbell, a WAIT
wakeup, an ENABLE, a CQE (CQ + monotonic count), an atomic apply, a
store into annotated ring memory — into a bounded ring buffer, with a
periodic **checkpoint** of all sim-visible state (DRAM region digests,
queue producer/consumer counters, prefetch-cache keys, CQ counts).
Journals dump to compact JSONL, one record per line, all integers and
hex strings, ``sort_keys`` throughout — two identical runs produce
byte-identical journals.

The re-run check is re-record and diff: the simulator is
deterministic, so rebuilding a scenario *is* re-seeding it, and
:func:`repro.obs.tracediff.diff_journals` aligns the second journal
with the first on causal keys, then compares their checkpoint states.

Online **invariant monitors** run over every emitted record (also
usable standalone over synthetic records via
:class:`InvariantMonitor`): per-queue WR-index monotonicity, CQE
conservation against signaled completions, DMA byte conservation for
WRITE/READ, and WAIT-threshold consistency. Violations surface both on
``FlightRecorder.violations`` and through the MetricsRegistry
(``obs.invariants`` counter: ``checks`` plus ``violation:<name>``).

Like the tracer, the recorder never schedules simulation events and
never mutates simulated state — attaching it cannot change a run's
schedule (``tests/test_obs_determinism.py`` holds it to that).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, deque
from typing import Any, Dict, List, Optional, Tuple

from ..nic.opcodes import OPCODE_NAMES, Opcode
from ..nic.wqe import WQE_SLOT_SIZE
from .probe import StoreWatch

__all__ = [
    "JOURNAL_SCHEMA",
    "RECORD_SCHEMA",
    "FlightRecorder",
    "InvariantMonitor",
    "Journal",
    "JournalError",
    "JournalCorruptError",
    "JournalTruncatedError",
    "load_journal",
    "export_merged_journal",
]

JOURNAL_SCHEMA = 1


class JournalError(Exception):
    """Base for journal parse failures."""


class JournalTruncatedError(JournalError):
    """The journal ends before it even establishes itself (no meta)."""


class JournalCorruptError(JournalError):
    """A journal line is not valid JSON, a WQE image is not hex, or the
    seq chain has holes."""


def _op_name(opcode: int) -> str:
    return OPCODE_NAMES.get(opcode) or f"OP{opcode:#x}"


def _digest(data) -> str:
    """Compact (64-bit) content digest used for checkpoint state."""
    return hashlib.sha256(bytes(data)).hexdigest()[:16]


# -- invariant monitors ---------------------------------------------------


class InvariantMonitor:
    """Online invariants over the journal record stream.

    One implementation with two entry points: the recorder calls the
    per-kind methods (:meth:`fetch`, :meth:`exec`, :meth:`wait`,
    :meth:`enable`, :meth:`done`, :meth:`cqe`) with positional fields
    as it records, and :meth:`observe` feeds them from a record dict,
    so the monitor runs over a loaded journal as easily:

    * ``wqe_count_monotonic`` — each queue's fetched WR indices advance
      by exactly one (the ConnectX monotonic-counter discipline that WQ
      recycling leans on, §3.4), and WAIT thresholds per queue never
      decrease.
    * ``cqe_conservation`` — each CQ's monotonic count bumps by exactly
      one per CQE, and a driven send queue never completes more OK WRs
      than its signaled ``done``/WAIT/ENABLE records justify.
    * ``dma_bytes`` — a completed OK WRITE moves exactly the byte count
      its WQE declared at execute time; a READ never scatters more.
    * ``wait_threshold`` — a WAIT only ever wakes with the target CQ's
      count at or above its threshold.

    All state is scoped by ``bed`` so the monitor runs unmodified over
    merged multi-testbed journals (same-named queues exist in every
    bed); a live recorder is bed 0.
    """

    def __init__(self, metrics=None):
        self.violations: List[Dict[str, Any]] = []
        #: The ``obs.invariants`` counter family, or None.
        self.counter = (metrics.counter("obs.invariants")
                        if metrics is not None else None)
        self._last_fetch_wr: Dict[Tuple, int] = {}
        self._last_wait_threshold: Dict[Tuple, int] = {}
        self._cq_counts: Dict[Tuple, int] = {}
        self._justified: Dict[Tuple, int] = {}
        self._ok_cqes: Dict[Tuple, int] = {}
        self._driven: set = set()
        self._exec_len: Dict[Tuple, Tuple[str, int]] = {}

    def _violate(self, name: str, seq, ts, detail: str) -> None:
        self.violations.append({"name": name, "seq": seq, "ts": ts,
                                "detail": detail})
        if self.counter is not None:
            self.counter[f"violation:{name}"] += 1

    def observe(self, record: Dict[str, Any]) -> None:
        """Check one record dict (every kind counts as one check)."""
        if self.counter is not None:
            self.counter["checks"] += 1
        kind = record["kind"]
        bed = record.get("bed", 0)
        seq = record.get("seq")
        ts = record.get("ts")
        if kind == "fetch":
            self.fetch(seq, ts, bed, record["wq"], record.get("wq_num"),
                       record["wr"])
        elif kind == "exec":
            self.exec(bed, record["wq"], record["wr"], record["op"],
                      record.get("len", 0))
        elif kind == "wait":
            self.wait(seq, ts, bed, record["wq"], record.get("wq_num"),
                      record["wr"], record["cq"], record["threshold"],
                      record["count"], record.get("signaled"))
        elif kind == "enable":
            self.enable(bed, record["wq"], record.get("wq_num"),
                        record["wr"], record.get("signaled"))
        elif kind == "done":
            self.done(seq, ts, bed, record["wq"], record.get("wq_num"),
                      record["wr"], record["status"], record.get("len", 0),
                      record.get("signaled"))
        elif kind == "cqe":
            self.cqe(seq, ts, bed, record["cq"], record["count"],
                     record.get("wq_num"), record.get("status"))

    def forget(self, bed, wq: str, cq: str) -> None:
        """Drop the state kept under a queue's name and its CQ's name:
        the queue was destroyed or handed to a new tenant under a new
        name, so no later record carries those names for it."""
        self._last_fetch_wr.pop((bed, wq), None)
        self._cq_counts.pop((bed, cq), None)
        for state in (self._exec_len, self._last_wait_threshold):
            for key in [key for key in state
                        if key[1] == wq and key[0] == bed]:
                del state[key]

    def fetch(self, seq, ts, bed, wq: str, wq_num, wr: int) -> None:
        self._driven.add((bed, wq_num))
        prev = self._last_fetch_wr.get((bed, wq))
        if prev is not None and wr != prev + 1:
            self._violate("wqe_count_monotonic", seq, ts,
                          f"wq {wq} fetched wr {wr} after {prev}")
        self._last_fetch_wr[(bed, wq)] = wr

    def exec(self, bed, wq: str, wr: int, op: str, length: int) -> None:
        self._exec_len[(bed, wq, wr)] = (op, length)

    def wait(self, seq, ts, bed, wq: str, wq_num, wr: int, cq: int,
             threshold: int, count: int, signaled) -> None:
        if count < threshold:
            self._violate(
                "wait_threshold", seq, ts,
                f"WAIT on cq{cq} woke at count {count} < threshold "
                f"{threshold}")
        # Per (wq, target cq): one control queue WAITs on several CQs
        # with independent threshold ladders, but against any single
        # monotonic CQ counter thresholds never regress.
        threshold_key = (bed, wq, cq)
        prev = self._last_wait_threshold.get(threshold_key)
        if prev is not None and threshold < prev:
            self._violate(
                "wqe_count_monotonic", seq, ts,
                f"wq {wq} WAIT threshold {threshold} on cq{cq} regressed "
                f"below {prev}")
        self._last_wait_threshold[threshold_key] = threshold
        self._exec_len.pop((bed, wq, wr), None)
        if signaled:
            key = (bed, wq_num)
            self._justified[key] = self._justified.get(key, 0) + 1

    def enable(self, bed, wq: str, wq_num, wr: int, signaled) -> None:
        self._exec_len.pop((bed, wq, wr), None)
        if signaled:
            key = (bed, wq_num)
            self._justified[key] = self._justified.get(key, 0) + 1

    def done(self, seq, ts, bed, wq: str, wq_num, wr: int, status: str,
             moved: int, signaled) -> None:
        expected = self._exec_len.pop((bed, wq, wr), None)
        if (expected is not None and status == "OK"
                and expected[0] in ("WRITE", "WRITE_IMM", "READ")):
            op, length = expected
            bad = moved != length if op != "READ" else moved > length
            if bad:
                self._violate(
                    "dma_bytes", seq, ts,
                    f"{op} on wq {wq} wr {wr} moved {moved} bytes, WQE "
                    f"declared {length}")
        if signaled or status != "OK":
            key = (bed, wq_num)
            self._justified[key] = self._justified.get(key, 0) + 1

    def cqe(self, seq, ts, bed, cq: str, count: int, wq_num,
            status) -> None:
        prev = self._cq_counts.get((bed, cq))
        if prev is not None and count != prev + 1:
            self._violate("cqe_conservation", seq, ts,
                          f"cq {cq} count jumped {prev} -> {count}")
        self._cq_counts[(bed, cq)] = count
        key = (bed, wq_num)
        if key in self._driven and status == "OK":
            seen = self._ok_cqes.get(key, 0) + 1
            self._ok_cqes[key] = seen
            if seen > self._justified.get(key, 0):
                self._violate(
                    "cqe_conservation", seq, ts,
                    f"wq_num {key[1]} delivered OK CQE #{seen} with only "
                    f"{self._justified.get(key, 0)} signaled completions "
                    f"justified")


# -- the recorder ---------------------------------------------------------


#: One row per journal record layout: ``(kind, fields)``. A recorded
#: entry is the flat tuple ``(code, seq, ts, *values)``, ``code`` being
#: the row's index; ``fields`` names the values in journal key order,
#: and ``field:render`` renders that value when the record is built.
#: Every record ends with ``seq`` and ``ts``.
RECORD_SCHEMA = (
    ("post", "wq wq_num wr slot slots addr op:op wqe:hex gens:list"),
    ("doorbell", "wq wq_num up_to"),
    ("fetch",
     "wq wq_num wr slot slots addr op:op wqe:hex gens:list cache:bool"),
    ("exec", "wq wq_num wr op len"),
    ("wait", "wq wq_num wr cq threshold count signaled:bool"),
    ("enable",
     "wq wq_num wr target count relative:bool target_name signaled:bool"),
    ("done", "wq wq_num wr op:op status len signaled:bool"),
    ("cqe", "cq cq_num count op:op wr_id status wq_num"),
    ("atomic", "nic src op:op raddr op0 op1 orig swapped"),  # CAS
    ("atomic", "nic src op:op raddr op0 op1 orig"),
    ("store", "mem region addr len digest:digest"),
)

#: Stores up to this many bytes keep their bytes for an export-time
#: digest; larger ones (a freed or filled ring) are digested at once.
_STORE_KEEP_BYTES = 512

_RENDER = {
    "op": _op_name,
    "hex": bytes.hex,
    "list": list,
    "bool": bool,
    "digest": lambda data: data if isinstance(data, str) else _digest(data),
}


def _compile(row):
    kind, fields = row
    keys, renders = [], []
    for field in fields.split():
        key, _, render = field.partition(":")
        keys.append(key)
        renders.append(_RENDER[render] if render else None)
    return kind, tuple(keys), tuple(renders)


_ROWS = tuple(_compile(row) for row in RECORD_SCHEMA)
_SIZES = tuple(3 + len(keys) for _kind, keys, _renders in _ROWS)
#: Records per storage chunk: the recorder's eviction granularity.
_CHUNK = 512
(_POST, _DOORBELL, _FETCH, _EXEC, _WAIT, _ENABLE, _DONE, _CQE, _CAS,
 _ATOMIC, _STORE) = range(len(RECORD_SCHEMA))


def _record(raw: tuple) -> Dict[str, Any]:
    """One recorded tuple as its journal record dict."""
    kind, keys, renders = _ROWS[raw[0]]
    record: Dict[str, Any] = {"kind": kind}
    for key, render, value in zip(keys, renders, raw[3:]):
        record[key] = value if render is None else render(value)
    record["seq"] = raw[1]
    record["ts"] = raw[2]
    return record


class FlightRecorder:
    """Bounded causal journal of one simulation; one per Simulator.

    Each hook records one flat tuple over :data:`RECORD_SCHEMA`; hex
    strings, op names, store digests and record dicts are built only
    when the journal is read (:attr:`records`, :meth:`journal_lines`).
    """

    #: Post and fetch records carry the WQE's slot image.
    wants_slot_images = True

    def __init__(self, sim, name: str = "journal",
                 capacity: int = 1 << 16,
                 checkpoint_interval: int = 1024,
                 monitor: bool = True):
        if capacity < 1:
            raise ValueError(f"capacity {capacity} < 1")
        if checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval {checkpoint_interval} < 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.checkpoint_interval = checkpoint_interval
        #: Next sequence number; seq - retained entries were evicted.
        self.seq = 0
        # Recorded tuples stored back to back in flat chunks of _CHUNK
        # records, so a stored record leaves no GC-tracked object. The
        # oldest chunk goes once the newer ones hold ``capacity``;
        # ``_base`` is the seq of the first stored record and ``_chunk``
        # the chunk being filled, up to seq ``_chunk_end``.
        self._chunk: list = []
        self._chunks: deque = deque([self._chunk])
        self._base = 0
        self._chunk_end = _CHUNK
        self.checkpoints: deque = deque(
            maxlen=max(2, capacity // checkpoint_interval + 2))
        self.monitor = InvariantMonitor(sim.metrics) if monitor else None
        # Every record is one invariant check (a private tally without
        # a monitor keeps the hooks branch-free).
        self._checks = self.monitor.counter if monitor else Counter()
        #: The seq after which :meth:`_boundary` next has work.
        self._due = self._next_due()
        # Attachment bookkeeping. Stores into annotated (ring) regions
        # are journaled, and the regions' digests join every checkpoint.
        self._nics: List = []
        self._nics_seen: set = set()
        self._watch = StoreWatch(sim.probe, self._on_store)
        # Checkpoint digests are cached per annotated ring and re-taken
        # only for rings a store touched since the last capture
        # (``_dirty``); every mutation of a watched ring reaches the
        # store hook, so the cache never goes stale. ``_rings`` maps
        # each watched ring's (memory, start, end) to its queue.
        self._rings: Dict[Tuple[Any, int, int], Any] = {}
        self._dirty: set = set()
        self._digests: Dict[Tuple[Any, int, int], str] = {}
        self._mem_states: Dict[Any, Dict[str, str]] = {}
        self._wq_states: Dict[Any, Tuple] = {}
        sim.probe.attach(self)

    def __repr__(self) -> str:
        return (f"<FlightRecorder {self.name} seq={self.seq} "
                f"retained={self.retained}>")

    @property
    def records(self) -> List[Dict[str, Any]]:
        """The retained journal records, oldest first (built per call)."""
        return [_record(raw) for raw in self._retained()]

    @property
    def retained(self) -> int:
        """Records still in the ring."""
        return min(self.seq, self.capacity)

    @property
    def evicted(self) -> int:
        """Records pushed out of the ring by newer ones."""
        return self.seq - self.retained

    @property
    def violations(self) -> List[Dict[str, Any]]:
        return self.monitor.violations if self.monitor else []

    def close(self) -> None:
        """Detach from the simulator and its memories."""
        if self.sim.probe.detach(self):
            self._watch.close()
            # No store reaches this recorder any more: stop caching.
            self._rings.clear()
            self._digests.clear()
            self._mem_states.clear()
            self._wq_states.clear()

    # -- attachment --------------------------------------------------------

    def attach_nic(self, nic) -> None:
        """Cover a NIC: journal its ring stores, checkpoint its queues.

        Queues the NIC creates later are picked up automatically via
        the ``wq_created``/``cq_created`` probe events.
        """
        if id(nic) in self._nics_seen:
            return
        self._nics_seen.add(id(nic))
        self._nics.append(nic)
        self._watch.attach(nic.memory)
        for wq in nic.wqs.values():
            self._annotate_ring(nic, wq)

    def _annotate_ring(self, nic, wq) -> None:
        memory = nic.memory
        self._watch.annotate(memory, wq.ring.addr, wq.ring.size,
                             f"ring:{wq.name}")
        self._rings[(memory, wq.ring.addr, wq.ring.end)] = wq
        self._mem_states.pop(memory, None)

    # -- probe hooks -------------------------------------------------------

    def on_wq_created(self, nic, wq) -> None:
        self.attach_nic(nic)
        self._annotate_ring(nic, wq)

    def on_cq_created(self, nic, cq) -> None:
        self.attach_nic(nic)

    def on_wq_destroyed(self, wq) -> None:
        """Stop journaling and checkpointing a torn-down queue's ring:
        its memory is freed once quiescent and may be reused. The
        monitor forgets the queue and its CQ."""
        if self.monitor is not None:
            self.monitor.forget(0, wq.name, wq.cq.name)
        memory, ring = wq.memory, wq.ring
        key = (memory, ring.addr, ring.end)
        if self._rings.pop(key, None) is None:
            return
        self._watch.forget(memory, ring.addr, ring.size)
        self._dirty.discard(key)
        self._digests.pop(key, None)
        self._mem_states.pop(memory, None)
        self._wq_states.pop(wq, None)

    # Each hook stores its record, then runs the same tail: advance
    # seq, count one invariant check, and reach _boundary() when due.
    # The tail is written out in every hook, not called, because it
    # runs once per record.

    def on_post(self, wq, wr_index: int, slot_cursor: int, slots: int,
                wqe, image) -> None:
        seq = self.seq
        gens, data = image
        slot = slot_cursor % wq.num_slots
        raw = (_POST, seq, self.sim.now, wq.name, wq.wq_num, wr_index, slot,
               slots, wq.ring.addr + slot * WQE_SLOT_SIZE, wqe.opcode, data,
               gens)
        self._chunk += raw
        self.seq = seq + 1
        self._checks["checks"] += 1
        if seq == self._due:
            self._boundary()

    def on_doorbell(self, wq, up_to: int) -> None:
        seq = self.seq
        raw = (_DOORBELL, seq, self.sim.now, wq.name, wq.wq_num, up_to)
        self._chunk += raw
        self.seq = seq + 1
        self._checks["checks"] += 1
        if seq == self._due:
            self._boundary()

    def on_fetch(self, wq, wr_index: int, slot_cursor: int, slots: int,
                 wqe, cache_hit: bool, image) -> None:
        seq, now, name, wq_num = self.seq, self.sim.now, wq.name, wq.wq_num
        gens, data = image
        slot = slot_cursor % wq.num_slots
        raw = (_FETCH, seq, now, name, wq_num, wr_index, slot, slots,
               wq.ring.addr + slot * WQE_SLOT_SIZE, wqe.opcode, data, gens,
               cache_hit)
        self._chunk += raw
        self.seq = seq + 1
        self._checks["checks"] += 1
        if seq == self._due:
            self._boundary()
        if self.monitor is not None:
            self.monitor.fetch(seq, now, 0, name, wq_num, wr_index)

    def on_execute(self, wq, wr_index: int, wqe) -> None:
        seq = self.seq
        opcode = wqe.opcode
        name, op, length = wq.name, OPCODE_NAMES.get(opcode), wqe.length
        if op is None:
            op = _op_name(opcode)
        raw = (_EXEC, seq, self.sim.now, name, wq.wq_num, wr_index, op,
               length)
        self._chunk += raw
        self.seq = seq + 1
        self._checks["checks"] += 1
        if seq == self._due:
            self._boundary()
        if self.monitor is not None:
            self.monitor.exec(0, name, wr_index, op, length)

    def on_wait(self, wq, wr_index: int, wqe, cq, start_ns: int) -> None:
        seq, now, name, wq_num = self.seq, self.sim.now, wq.name, wq.wq_num
        target, threshold, count = wqe.target, wqe.wqe_count, cq.count
        signaled = wqe.signaled
        raw = (_WAIT, seq, now, name, wq_num, wr_index, target, threshold,
               count, signaled)
        self._chunk += raw
        self.seq = seq + 1
        self._checks["checks"] += 1
        if seq == self._due:
            self._boundary()
        if self.monitor is not None:
            self.monitor.wait(seq, now, 0, name, wq_num, wr_index, target,
                              threshold, count, signaled)

    def on_enable(self, wq, wr_index: int, wqe, relative: bool,
                  target) -> None:
        seq = self.seq
        name, wq_num, signaled = wq.name, wq.wq_num, wqe.signaled
        raw = (_ENABLE, seq, self.sim.now, name, wq_num, wr_index,
               wqe.target, wqe.wqe_count, relative,
               target.name if target else None, signaled)
        self._chunk += raw
        self.seq = seq + 1
        self._checks["checks"] += 1
        if seq == self._due:
            self._boundary()
        if self.monitor is not None:
            self.monitor.enable(0, name, wq_num, wr_index, signaled)

    def on_done(self, wq, wr_index: int, wqe, status: str, byte_len: int,
                start_ns: int) -> None:
        seq, now, name, wq_num = self.seq, self.sim.now, wq.name, wq.wq_num
        signaled = wqe.signaled
        raw = (_DONE, seq, now, name, wq_num, wr_index, wqe.opcode, status,
               byte_len, signaled)
        self._chunk += raw
        self.seq = seq + 1
        self._checks["checks"] += 1
        if seq == self._due:
            self._boundary()
        if self.monitor is not None:
            self.monitor.done(seq, now, 0, name, wq_num, wr_index, status,
                              byte_len, signaled)

    def on_cqe(self, cq, cqe, host_delay_ns: int) -> None:
        seq, now, name, count = self.seq, self.sim.now, cq.name, cq.count
        wq_num, status = cqe.wq_num, cqe.status
        raw = (_CQE, seq, now, name, cq.cq_num, count, cqe.opcode, cqe.wr_id,
               status, wq_num)
        self._chunk += raw
        self.seq = seq + 1
        self._checks["checks"] += 1
        if seq == self._due:
            self._boundary()
        if self.monitor is not None:
            self.monitor.cqe(seq, now, 0, name, count, wq_num, status)

    def on_atomic(self, nic, src_wq_name: str, wqe,
                  original: int) -> None:
        seq = self.seq
        if wqe.opcode == Opcode.CAS:
            raw = (_CAS, seq, self.sim.now, nic.name, src_wq_name,
                   wqe.opcode, wqe.raddr, wqe.operand0, wqe.operand1,
                   original, original == wqe.operand0)
        else:
            raw = (_ATOMIC, seq, self.sim.now, nic.name, src_wq_name,
                   wqe.opcode, wqe.raddr, wqe.operand0, wqe.operand1,
                   original)
        self._chunk += raw
        self.seq = seq + 1
        self._checks["checks"] += 1
        if seq == self._due:
            self._boundary()

    def _on_store(self, memory, addr: int, length: int,
                  region: tuple) -> None:
        start, end, label = region
        stop = addr + length
        if start <= addr and stop <= end:
            # Rings are disjoint allocations: a store inside one touches
            # no other watched region.
            self._dirty.add((memory, start, end))
        else:
            for start, end, _ in self._watch.overlapping(memory, addr,
                                                         stop):
                self._dirty.add((memory, start, end))
        seq = self.seq
        data = (memory.read(addr, length) if length <= _STORE_KEEP_BYTES
                else _digest(memory.view(addr, length)))
        raw = (_STORE, seq, self.sim.now, memory.name, label, addr, length,
               data)
        self._chunk += raw
        self.seq = seq + 1
        self._checks["checks"] += 1
        if seq == self._due:
            self._boundary()

    # -- emission core -----------------------------------------------------

    def _next_due(self) -> int:
        """The last seq before a chunk fills or a checkpoint falls due."""
        interval = self.checkpoint_interval
        return min(self._chunk_end, (self.seq // interval + 1) * interval) - 1

    def _boundary(self) -> None:
        """Chunk rollover, then the checkpoint when one falls due."""
        seq = self.seq
        if seq == self._chunk_end:
            self._next_chunk()
        if seq % self.checkpoint_interval == 0:
            self._checkpoint()
        self._due = self._next_due()

    def _next_chunk(self) -> None:
        self._chunk = []
        self._chunks.append(self._chunk)
        self._chunk_end += _CHUNK
        while self.seq - (self._base + _CHUNK) >= self.capacity:
            self._chunks.popleft()
            self._base += _CHUNK

    def _retained(self):
        """The retained recorded tuples, oldest first."""
        skip = self.seq - self._base - self.retained
        for chunk in self._chunks:
            index, end = 0, len(chunk)
            while index < end:
                size = _SIZES[chunk[index]]
                if skip:
                    skip -= 1
                else:
                    yield chunk[index:index + size]
                index += size

    def capture_state(self) -> Dict[str, Any]:
        """Sim-visible state of everything attached, all digested.

        Deterministic and JSON-stable: digests of annotated DRAM
        regions, per-queue monotonic counters + cursors + ring bytes +
        write generations + decode-cache keys (the prefetch-cache
        state) + PU binding, per-CQ completion counts.
        """
        dirty, self._dirty = self._dirty, set()
        for key in dirty:
            self._digests.pop(key, None)
            self._mem_states.pop(key[0], None)
            self._wq_states.pop(self._rings.get(key), None)
        state: Dict[str, Any] = {"mem": {}, "wq": {}, "cq": {}}
        for memory in self._watch.memories:
            mem_state = self._mem_states.get(memory)
            if mem_state is None:
                mem_state = self._mem_states[memory] = {
                    label: self._region_digest(memory, start, end)
                    for start, end, label
                    in self._watch.regions[id(memory)]}
            state["mem"][memory.name] = mem_state
        wq_states = state["wq"]
        for nic in self._nics:
            for wq in nic.wqs.values():
                # Decode-cache keys are only ever added, so the cache's
                # size versions its key set.
                version = (wq.posted_count, wq.enabled_count,
                           wq.fetched_count, wq._post_slot_cursor,
                           wq._fetch_slot_cursor, len(wq._decode_cache),
                           wq.pu_index)
                cached = self._wq_states.get(wq)
                if cached is None or cached[0] != version:
                    cached = self._wq_state(nic, wq, version)
                wq_states[cached[1]] = cached[2]
            for cq in nic.cqs.values():
                state["cq"][f"{nic.name}/{cq.name}"] = cq.count
        return state

    def _region_digest(self, memory, start: int, end: int) -> str:
        key = (memory, start, end)
        digest = self._digests.get(key)
        if digest is None:
            digest = _digest(memory.view(start, end - start))
            if key in self._rings:
                self._digests[key] = digest
        return digest

    def _wq_state(self, nic, wq, version: tuple) -> Tuple:
        """``(version, key, entry)`` of one queue's checkpoint entry,
        kept for reuse while its ring is watched."""
        ring = wq.ring
        entry = {
            "posted": wq.posted_count,
            "enabled": wq.enabled_count,
            "fetched": wq.fetched_count,
            "post_cursor": wq._post_slot_cursor,
            "fetch_cursor": wq._fetch_slot_cursor,
            "ring": self._region_digest(wq.memory, ring.addr, ring.end),
            "gens": _digest(
                ",".join(map(str, wq._ring_gens.gens)).encode()),
            "cache": sorted(wq._decode_cache.keys()),
            "pu": wq.pu_index,
        }
        cached = (version, f"{nic.name}/{wq.name}", entry)
        if (wq.memory, ring.addr, ring.end) in self._rings:
            self._wq_states[wq] = cached
        return cached

    def _checkpoint(self) -> None:
        self.checkpoints.append({"kind": "checkpoint", "seq": self.seq,
                                 "ts": self.sim.now,
                                 "state": self.capture_state()})

    # -- export ------------------------------------------------------------

    def meta(self) -> Dict[str, Any]:
        return {"kind": "meta", "schema": JOURNAL_SCHEMA,
                "name": self.name, "capacity": self.capacity,
                "interval": self.checkpoint_interval,
                "first_seq": self.evicted, "next_seq": self.seq}

    def journal_lines(self, extra: Optional[Dict[str, Any]] = None) \
            -> List[str]:
        """The JSONL dump: meta first, then checkpoints interleaved
        with retained records by seq."""
        meta = self.meta()
        if extra:
            meta.update(extra)
        lines = [json.dumps(meta, sort_keys=True,
                            separators=(",", ":"))]
        first = self.evicted
        checkpoints = [dict(cp, **extra) if extra else cp
                       for cp in self.checkpoints if cp["seq"] >= first]
        index = 0
        for raw in self._retained():
            while (index < len(checkpoints)
                   and checkpoints[index]["seq"] <= raw[1]):
                lines.append(json.dumps(checkpoints[index],
                                        sort_keys=True,
                                        separators=(",", ":")))
                index += 1
            record = _record(raw)
            if extra:
                record.update(extra)
            lines.append(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")))
        for checkpoint in checkpoints[index:]:
            lines.append(json.dumps(checkpoint, sort_keys=True,
                                    separators=(",", ":")))
        return lines

    def to_jsonl(self) -> str:
        return "\n".join(self.journal_lines()) + "\n"

    def dump(self, path) -> int:
        """Write the JSONL journal; returns the retained record count."""
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())
        return self.retained


def export_merged_journal(recorders, path) -> int:
    """Merge several recorders (e.g. one per benchmark testbed) into
    one JSONL file; every line is stamped with its ``bed`` index."""
    lines: List[str] = []
    for index, recorder in enumerate(recorders):
        lines.extend(recorder.journal_lines(extra={"bed": index}))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return sum(recorder.retained for recorder in recorders)


# -- journal loading ------------------------------------------------------


class Journal:
    """A parsed journal: meta, retained records, checkpoints.

    Multi-bed merged journals carry a ``bed`` field on every line (the
    trace-diff engine aligns them by causal key).
    """

    def __init__(self, meta: Dict[str, Any],
                 records: List[Dict[str, Any]],
                 checkpoints: List[Dict[str, Any]],
                 metas: Optional[List[Dict[str, Any]]] = None):
        self.meta = meta
        self.records = records
        self.checkpoints = checkpoints
        self.metas = metas or [meta]

    def __repr__(self) -> str:
        return (f"<Journal {self.meta.get('name', '?')} "
                f"records={len(self.records)}>")

    @property
    def first_seq(self) -> int:
        if self.records:
            return self.records[0]["seq"]
        return self.meta.get("first_seq", 0)


def _journal_lines(source) -> List[str]:
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, (list, tuple)):
        return list(source)
    else:
        text = str(source)
        if "\n" not in text:
            with open(text) as handle:
                text = handle.read()
    return text.splitlines()


def load_journal(source) -> Journal:
    """Parse a JSONL journal from a path, text, file object or lines.

    Raises :class:`JournalTruncatedError` when the journal is empty or
    carries no meta line, :class:`JournalCorruptError` on malformed
    JSON, unknown schema, a post or fetch WQE image that is not hex, or
    holes in a bed's seq chain.
    """
    lines = [line for line in _journal_lines(source) if line.strip()]
    if not lines:
        raise JournalTruncatedError("journal is empty")
    metas: List[Dict[str, Any]] = []
    records: List[Dict[str, Any]] = []
    checkpoints: List[Dict[str, Any]] = []
    for number, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise JournalCorruptError(
                f"line {number} is not valid JSON: {exc}") from None
        if not isinstance(record, dict) or "kind" not in record:
            raise JournalCorruptError(
                f"line {number} is not a journal record")
        kind = record["kind"]
        if kind == "meta":
            if record.get("schema") != JOURNAL_SCHEMA:
                raise JournalCorruptError(
                    f"line {number}: unsupported journal schema "
                    f"{record.get('schema')!r}")
            metas.append(record)
        elif kind == "checkpoint":
            checkpoints.append(record)
        else:
            if kind in ("post", "fetch") and "wqe" in record:
                try:
                    bytes.fromhex(record["wqe"])
                except (TypeError, ValueError):
                    raise JournalCorruptError(
                        f"line {number}: {kind} record's wqe "
                        f"{record['wqe']!r} is not hex") from None
            records.append(record)
    if not metas:
        raise JournalTruncatedError(
            "journal carries no meta line (truncated?)")
    previous: Dict[Any, int] = {}
    for record in records:
        bed = record.get("bed", 0)
        seq = record.get("seq")
        if not isinstance(seq, int):
            raise JournalCorruptError(f"record without seq: {record}")
        last = previous.get(bed)
        if last is not None and seq != last + 1:
            raise JournalCorruptError(
                f"seq chain hole: {last} -> {seq} (bed {bed})")
        previous[bed] = seq
    return Journal(metas[0], records, checkpoints, metas)
