"""Flight recorder: causal event journal, checkpoints, invariants.

The recorder is the record half of record-and-diff debugging for the
simulator. A view over its simulator's :mod:`repro.obs.capture`, it
journals every **causally identified** event — a WQE post/fetch/execute
(queue name + monotonic WR index + slot bytes), a doorbell, a WAIT
wakeup, an ENABLE, a CQE (CQ + monotonic count), an atomic apply, a
store into annotated ring memory — in a bounded window, with a periodic
**checkpoint** of all sim-visible state (DRAM region digests, queue
producer/consumer counters, prefetch-cache keys, CQ counts). Journals
dump to compact JSONL, one record per line, ``sort_keys`` throughout:
two identical runs produce byte-identical journals. The re-run check
is re-record and diff: :func:`repro.obs.tracediff.diff_journals` aligns
a second journal with the first on causal keys, then compares their
checkpoint states.

Online **invariant monitors** run over every record, evicted or not
(also usable standalone over synthetic records via
:class:`InvariantMonitor`): per-queue WR-index monotonicity, CQE
conservation against signaled completions, DMA byte conservation for
WRITE/READ, and WAIT-threshold consistency. Violations surface on
``FlightRecorder.violations`` and through the MetricsRegistry
(``obs.invariants`` counter: ``checks`` plus ``violation:<name>``).
Attaching a recorder cannot change a run's schedule
(``tests/test_obs_determinism.py``).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from ..nic.opcodes import Opcode
from ..nic.wqe import WQE_SLOT_SIZE
from .capture import (ATOMIC, CQE, DONE, DOORBELL, ENABLE, EXEC, FETCH,
                      JOURNALED, POST, SCHEMA, STORE, WAIT, Capture,
                      digest, op_name, walk)

__all__ = [
    "JOURNAL_SCHEMA",
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

#: Capture record codes the journal holds (a store only when journaled),
#: and those of them a queue's :class:`~repro.obs.capture.Queue` names.
_QUEUED = frozenset((POST, DOORBELL, FETCH, WAIT, ENABLE, DONE))
_JOURNALED = _QUEUED | {EXEC, CQE, ATOMIC, STORE}


def _record(record: list, seq: int, payload) -> Dict[str, Any]:
    """One journaled capture record as its journal record dict."""
    code, ts = record[0], record[1]
    out: Dict[str, Any] = {"kind": SCHEMA[code][0]}
    if code == EXEC:
        _, _, name, wq_num, wr, op, length = record
        out.update(wq=name, wq_num=wq_num, wr=wr, op=op, len=length)
    elif code in _QUEUED:
        q = record[2]
        out.update(wq=q.name, wq_num=q.wq_num)
    if code == POST or code == FETCH:
        _, _, q, wr, slot, slots, op = record[:7]
        gens, data = payload
        out.update(wr=wr, slot=slot, slots=slots,
                   addr=q.ring + slot * WQE_SLOT_SIZE, op=op_name(op),
                   wqe=data.hex(), gens=list(gens))
        if code == FETCH:
            out["cache"] = bool(record[7])
    elif code == DONE:
        _, _, _, wr, _start, op, status, length, signaled = record
        out.update(wr=wr, op=op_name(op), status=status, len=length,
                   signaled=bool(signaled))
    elif code == CQE:
        _, _, _track, cq, cq_num, count, op, wr_id, status, wq_num = \
            record[:10]
        out.update(cq=cq, cq_num=cq_num, count=count, op=op_name(op),
                   wr_id=wr_id, status=status, wq_num=wq_num)
    elif code == DOORBELL:
        out["up_to"] = record[3]
    elif code == WAIT:
        _, _, _, wr, _start, cq, threshold, count, signaled = record
        out.update(wr=wr, cq=cq, threshold=threshold, count=count,
                   signaled=bool(signaled))
    elif code == ENABLE:
        _, _, _, wr, target, count, relative, target_name, signaled = record
        out.update(wr=wr, target=target, count=count, relative=bool(relative),
                   target_name=target_name, signaled=bool(signaled))
    elif code == ATOMIC:
        _, _, nic, src, op, raddr, op0, op1, original = record
        out.update(nic=nic, src=src, op=op_name(op), raddr=raddr, op0=op0,
                   op1=op1, orig=original)
        if op == Opcode.CAS:
            out["swapped"] = original == op0
    elif code == STORE:
        _, _, memory, region, addr, length, _views = record
        out.update(mem=memory, region=region, addr=addr, len=length,
                   digest=payload if isinstance(payload, str)
                   else digest(payload))
    out["seq"] = seq
    out["ts"] = ts
    return out


class FlightRecorder:
    """Bounded causal journal of one simulation; one per Simulator.

    Keeps the capture chunks that hold its retained window; record
    dicts, hex strings, op names and store digests are built when the
    journal is read (:attr:`records`, :meth:`journal_lines`).
    """

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
        self.checkpoints: deque = deque(
            maxlen=max(2, capacity // checkpoint_interval + 2))
        self.monitor = InvariantMonitor(sim.metrics) if monitor else None
        #: ``(first seq, chunk, payloads)`` of each capture chunk that
        #: holds part of the retained window.
        self._chunks: deque = deque()
        #: The final seq once closed.
        self._seq: Optional[int] = None
        # Covered NICs by id, and each journaled ring's (memory, start,
        # end) -> (queue, label).
        self._nics: Dict[int, Any] = {}
        self._rings: Dict[Tuple[Any, int, int], Tuple[Any, str]] = {}
        # Checkpoint digests are cached per ring and re-taken only for
        # rings a store touched since the last capture (``_dirty``);
        # every mutation of a watched ring reaches the store hook, so
        # the cache never goes stale.
        self._dirty: set = set()
        self._digests: Dict[Tuple[Any, int, int], str] = {}
        self._mem_states: Dict[Any, Dict[str, str]] = {}
        self._wq_states: Dict[Any, Tuple] = {}
        self._capture = Capture.join(self, "recorder")

    def __repr__(self) -> str:
        return (f"<FlightRecorder {self.name} seq={self.seq} "
                f"retained={self.retained}>")

    @property
    def seq(self) -> int:
        """Next sequence number; seq - retained records were evicted."""
        return self._capture.seq if self._seq is None else self._seq

    @property
    def records(self) -> List[Dict[str, Any]]:
        """The retained journal records, oldest first (built per call)."""
        return list(self._journal())

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
        if self._seq is None:
            self._seq = self._capture.seq
            self._capture.leave(self)
            for cache in (self._rings, self._digests, self._mem_states,
                          self._wq_states):
                cache.clear()

    # -- the capture's calls ------------------------------------------------

    def _extend(self, chunk: list, payloads: list, seq: int) -> None:
        """Hold a new chunk and its payloads, starting at ``seq``; drop
        the oldest while every record it holds is out of the window."""
        chunks = self._chunks
        chunks.append((seq, chunk, payloads))
        while len(chunks) > 1 and chunks[1][0] <= seq - self.capacity:
            chunks.popleft()

    def _journal(self):
        """The retained record dicts, oldest first."""
        first = self.evicted
        for start, chunk, payloads in self._chunks:
            seq = start
            for record in walk((chunk,)):
                code = record[0]
                if code not in _JOURNALED or (
                        code == STORE and not record[6] & JOURNALED):
                    continue
                if seq >= first:
                    yield _record(record, seq, payloads[seq - start])
                seq += 1

    # -- attachment --------------------------------------------------------

    def attach_nic(self, nic) -> None:
        """Cover a NIC: journal its ring stores, checkpoint its queues.

        Queues the NIC creates later are picked up automatically via
        the ``wq_created``/``cq_created`` probe events.
        """
        if self._seq is not None or id(nic) in self._nics:
            return
        self._nics[id(nic)] = nic
        for wq in nic.wqs.values():
            self._cover(wq)

    def _cover(self, wq) -> None:
        memory, ring = wq.memory, wq.ring
        key = (memory, ring.addr, ring.end)
        entry = self._rings.get(key)
        self._rings[key] = (wq, entry[1] if entry else f"ring:{wq.name}")
        self._mem_states.pop(memory, None)
        self._capture.cover_ring(wq, JOURNALED)

    def _forget(self, wq) -> None:
        """Stop checkpointing a torn-down queue's ring: its memory is
        freed once quiescent and may be reused. The monitor forgets
        the queue and its CQ."""
        if self.monitor is not None:
            self.monitor.forget(0, wq.name, wq.cq.name)
        memory, ring = wq.memory, wq.ring
        key = (memory, ring.addr, ring.end)
        if self._rings.pop(key, None) is None:
            return
        self._dirty.discard(key)
        self._digests.pop(key, None)
        self._mem_states.pop(memory, None)
        self._wq_states.pop(wq, None)

    # -- checkpoints -------------------------------------------------------

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
            entry = self._rings.get(key)
            if entry is not None:
                self._wq_states.pop(entry[0], None)
        state: Dict[str, Any] = {"mem": {}, "wq": {}, "cq": {}}
        memories = {id(nic.memory): nic.memory for nic in self._nics.values()}
        for memory in memories.values():
            mem_state = self._mem_states.get(memory)
            if mem_state is None:
                regions = sorted([(start, end, label) for (owner, start, end),
                                  (_wq, label) in self._rings.items()
                                  if owner is memory])
                mem_state = self._mem_states[memory] = {
                    label: self._region_digest(memory, start, end)
                    for start, end, label in regions}
            state["mem"][memory.name] = mem_state
        wq_states = state["wq"]
        for nic in self._nics.values():
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
        value = self._digests.get(key)
        if value is None:
            value = digest(memory.view(start, end - start))
            if key in self._rings:
                self._digests[key] = value
        return value

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
            "gens": digest(
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
        for record in self._journal():
            while (index < len(checkpoints)
                   and checkpoints[index]["seq"] <= record["seq"]):
                lines.append(json.dumps(checkpoints[index],
                                        sort_keys=True,
                                        separators=(",", ":")))
                index += 1
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
