"""Flight recorder: causal event journal, checkpoints, replay.

The recorder is the record half of record-and-replay debugging for the
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

**Deterministic replay** (:func:`replay_journal`) re-executes the
scenario from scratch — the simulator is deterministic, so a rebuild
*is* the re-seed — and verifies journal identity event by event as it
goes. Each checkpoint in the journal acts as a verified synchronization
barrier: the replay's captured state must match the recorded state
digest-for-digest. When the journal's ring evicted its oldest entries,
verification silently fast-forwards to the first retained record — the
"replay from the nearest checkpoint" discipline — and the journal
*suffix* must reproduce byte-identically. A ``to_event`` pattern stops
recording exactly when a matching record is emitted, landing the replay
on a requested event (e.g. a specific queue's fetch at a specific
wqe_count).

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
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from ..nic.opcodes import OPCODE_NAMES, Opcode
from .probe import StoreWatch

__all__ = [
    "JOURNAL_SCHEMA",
    "FlightRecorder",
    "InvariantMonitor",
    "Journal",
    "JournalError",
    "JournalCorruptError",
    "JournalTruncatedError",
    "ReplayDivergence",
    "ReplayResult",
    "load_journal",
    "replay_journal",
    "export_merged_journal",
]

JOURNAL_SCHEMA = 1


class JournalError(Exception):
    """Base for journal parse/replay failures."""


class JournalTruncatedError(JournalError):
    """The journal ends before it even establishes itself (no meta)."""


class JournalCorruptError(JournalError):
    """A journal line is not valid JSON or the seq chain has holes."""


class ReplayDivergence(JournalError):
    """A replayed event does not match the recorded journal."""

    def __init__(self, message: str, seq: Optional[int] = None,
                 expected: Optional[Dict] = None,
                 actual: Optional[Dict] = None):
        super().__init__(message)
        self.seq = seq
        self.expected = expected
        self.actual = actual


def _op_name(opcode: int) -> str:
    return OPCODE_NAMES.get(opcode, f"OP{opcode:#x}")


def _digest(data) -> str:
    """Compact (64-bit) content digest used for checkpoint state."""
    return hashlib.sha256(bytes(data)).hexdigest()[:16]


def record_matches(record: Dict[str, Any],
                   pattern: Dict[str, Any]) -> bool:
    """True when every pattern field equals the record's field."""
    return all(record.get(key) == value
               for key, value in pattern.items())


# -- invariant monitors ---------------------------------------------------


class InvariantMonitor:
    """Online invariants over the journal record stream.

    Operates purely on record dicts, so it can be replayed over a
    loaded journal as easily as it runs inline during recording:

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
    """

    def __init__(self, metrics=None):
        self.violations: List[Dict[str, Any]] = []
        self._counter = (metrics.counter("obs.invariants")
                         if metrics is not None else None)
        self._last_fetch_wr: Dict[Tuple, int] = {}
        self._last_wait_threshold: Dict[Tuple, int] = {}
        self._cq_counts: Dict[Tuple, int] = {}
        self._justified: Dict[Tuple, int] = {}
        self._ok_cqes: Dict[Tuple, int] = {}
        self._driven: set = set()
        self._exec_len: Dict[Tuple, Tuple[str, int]] = {}

    def _violate(self, name: str, record: Dict[str, Any],
                 detail: str) -> None:
        self.violations.append({"name": name,
                                "seq": record.get("seq"),
                                "ts": record.get("ts"),
                                "detail": detail})
        if self._counter is not None:
            self._counter[f"violation:{name}"] += 1

    def observe(self, record: Dict[str, Any]) -> None:
        if self._counter is not None:
            self._counter["checks"] += 1
        kind = record["kind"]
        # All state is scoped by bed so the monitor runs unmodified
        # over merged multi-testbed journals (same-named queues exist
        # in every bed).
        bed = record.get("bed", 0)
        if kind == "fetch":
            wq = record["wq"]
            self._driven.add((bed, record.get("wq_num")))
            prev = self._last_fetch_wr.get((bed, wq))
            if prev is not None and record["wr"] != prev + 1:
                self._violate(
                    "wqe_count_monotonic", record,
                    f"wq {wq} fetched wr {record['wr']} after {prev}")
            self._last_fetch_wr[(bed, wq)] = record["wr"]
        elif kind == "exec":
            self._exec_len[(bed, record["wq"], record["wr"])] = (
                record["op"], record.get("len", 0))
        elif kind == "wait":
            if record["count"] < record["threshold"]:
                self._violate(
                    "wait_threshold", record,
                    f"WAIT on cq{record['cq']} woke at count "
                    f"{record['count']} < threshold {record['threshold']}")
            wq = record["wq"]
            # Per (wq, target cq): one control queue WAITs on several
            # CQs with independent threshold ladders, but against any
            # single monotonic CQ counter thresholds never regress.
            threshold_key = (bed, wq, record["cq"])
            prev = self._last_wait_threshold.get(threshold_key)
            if prev is not None and record["threshold"] < prev:
                self._violate(
                    "wqe_count_monotonic", record,
                    f"wq {wq} WAIT threshold {record['threshold']} on "
                    f"cq{record['cq']} regressed below {prev}")
            self._last_wait_threshold[threshold_key] = record["threshold"]
            self._exec_len.pop((bed, wq, record["wr"]), None)
            if record.get("signaled"):
                key = (bed, record.get("wq_num"))
                self._justified[key] = self._justified.get(key, 0) + 1
        elif kind == "enable":
            self._exec_len.pop((bed, record["wq"], record["wr"]), None)
            if record.get("signaled"):
                key = (bed, record.get("wq_num"))
                self._justified[key] = self._justified.get(key, 0) + 1
        elif kind == "done":
            expected = self._exec_len.pop(
                (bed, record["wq"], record["wr"]), None)
            if (expected is not None and record["status"] == "OK"
                    and expected[0] in ("WRITE", "WRITE_IMM", "READ")):
                op, length = expected
                moved = record.get("len", 0)
                bad = (moved != length if op != "READ"
                       else moved > length)
                if bad:
                    self._violate(
                        "dma_bytes", record,
                        f"{op} on wq {record['wq']} wr {record['wr']} "
                        f"moved {moved} bytes, WQE declared {length}")
            if record.get("signaled") or record["status"] != "OK":
                key = (bed, record.get("wq_num"))
                self._justified[key] = self._justified.get(key, 0) + 1
        elif kind == "cqe":
            cq = record["cq"]
            prev = self._cq_counts.get((bed, cq))
            if prev is not None and record["count"] != prev + 1:
                self._violate(
                    "cqe_conservation", record,
                    f"cq {cq} count jumped {prev} -> {record['count']}")
            self._cq_counts[(bed, cq)] = record["count"]
            key = (bed, record.get("wq_num"))
            if key in self._driven and record.get("status") == "OK":
                seen = self._ok_cqes.get(key, 0) + 1
                self._ok_cqes[key] = seen
                if seen > self._justified.get(key, 0):
                    self._violate(
                        "cqe_conservation", record,
                        f"wq_num {key[1]} delivered OK CQE #{seen} with "
                        f"only {self._justified.get(key, 0)} signaled "
                        f"completions justified")


# -- the recorder ---------------------------------------------------------


class FlightRecorder:
    """Bounded causal journal of one simulation; one per Simulator."""

    def __init__(self, sim, name: str = "journal",
                 capacity: int = 1 << 16,
                 checkpoint_interval: int = 1024,
                 verify: Optional["Journal"] = None,
                 stop_at: Optional[Dict[str, Any]] = None,
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
        #: Next sequence number; seq - len(records) entries were evicted.
        self.seq = 0
        self.records: deque = deque(maxlen=capacity)
        self.checkpoints: deque = deque(
            maxlen=max(2, capacity // checkpoint_interval + 2))
        self.monitor = InvariantMonitor(sim.metrics) if monitor else None
        # Replay-verification state.
        self._verify = verify
        self.verified = 0
        self.divergence: Optional[ReplayDivergence] = None
        self._verify_done = verify is None
        # Replay-to-event state.
        self.stop_at = stop_at
        self.landed: Optional[Dict[str, Any]] = None
        self.stopped = False
        # Attachment bookkeeping. Stores into annotated (ring) regions
        # are journaled, and the regions' digests join every checkpoint.
        self._nics: List = []
        self._nics_seen: set = set()
        self._watch = StoreWatch(self._on_store)
        sim.probe.attach(self)

    def __repr__(self) -> str:
        return (f"<FlightRecorder {self.name} seq={self.seq} "
                f"retained={len(self.records)}>")

    @property
    def evicted(self) -> int:
        """Records pushed out of the ring by newer ones."""
        return self.seq - len(self.records)

    @property
    def violations(self) -> List[Dict[str, Any]]:
        return self.monitor.violations if self.monitor else []

    def close(self) -> None:
        """Detach from the simulator and its memories."""
        if self.sim.probe.detach(self):
            self._watch.close()

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
            self._watch.annotate(nic.memory, wq.ring.addr, wq.ring.size,
                                 f"ring:{wq.name}")

    # -- probe hooks -------------------------------------------------------

    def on_wq_created(self, nic, wq) -> None:
        self.attach_nic(nic)
        self._watch.annotate(nic.memory, wq.ring.addr, wq.ring.size,
                             f"ring:{wq.name}")

    def on_cq_created(self, nic, cq) -> None:
        self.attach_nic(nic)

    def on_post(self, wq, wr_index: int, slot_cursor: int, slots: int,
                wqe) -> None:
        if self.stopped:
            return
        gens, data = wq.slot_state(slot_cursor, slots)
        self._emit({"kind": "post", "wq": wq.name,
                    "wq_num": wq.wq_num, "wr": wr_index,
                    "slot": slot_cursor % wq.num_slots, "slots": slots,
                    "addr": wq.slot_addr(slot_cursor),
                    "op": _op_name(wqe.opcode), "wqe": data.hex(),
                    "gens": list(gens)})

    def on_doorbell(self, wq, up_to: int) -> None:
        if self.stopped:
            return
        self._emit({"kind": "doorbell", "wq": wq.name,
                    "wq_num": wq.wq_num, "up_to": up_to})

    def on_fetch(self, wq, wr_index: int, slot_cursor: int, slots: int,
                 wqe, cache_hit: bool) -> None:
        if self.stopped:
            return
        gens, data = wq.slot_state(slot_cursor, slots)
        self._emit({"kind": "fetch", "wq": wq.name,
                    "wq_num": wq.wq_num, "wr": wr_index,
                    "slot": slot_cursor % wq.num_slots, "slots": slots,
                    "addr": wq.slot_addr(slot_cursor),
                    "op": _op_name(wqe.opcode), "wqe": data.hex(),
                    "gens": list(gens), "cache": bool(cache_hit)})

    def on_execute(self, wq, wr_index: int, wqe) -> None:
        if self.stopped:
            return
        self._emit({"kind": "exec", "wq": wq.name,
                    "wq_num": wq.wq_num, "wr": wr_index,
                    "op": _op_name(wqe.opcode), "len": wqe.length})

    def on_wait(self, wq, wr_index: int, wqe, cq, start_ns: int) -> None:
        if self.stopped:
            return
        self._emit({"kind": "wait", "wq": wq.name,
                    "wq_num": wq.wq_num, "wr": wr_index,
                    "cq": wqe.target, "threshold": wqe.wqe_count,
                    "count": cq.count,
                    "signaled": bool(wqe.signaled)})

    def on_enable(self, wq, wr_index: int, wqe, relative: bool,
                  target) -> None:
        if self.stopped:
            return
        self._emit({"kind": "enable", "wq": wq.name,
                    "wq_num": wq.wq_num, "wr": wr_index,
                    "target": wqe.target, "count": wqe.wqe_count,
                    "relative": bool(relative),
                    "target_name": target.name if target else None,
                    "signaled": bool(wqe.signaled)})

    def on_done(self, wq, wr_index: int, wqe, status: str, byte_len: int,
                start_ns: int) -> None:
        if self.stopped:
            return
        self._emit({"kind": "done", "wq": wq.name,
                    "wq_num": wq.wq_num, "wr": wr_index,
                    "op": _op_name(wqe.opcode), "status": status,
                    "len": byte_len, "signaled": bool(wqe.signaled)})

    def on_cqe(self, cq, cqe, host_delay_ns: int) -> None:
        if self.stopped:
            return
        self._emit({"kind": "cqe", "cq": cq.name, "cq_num": cq.cq_num,
                    "count": cq.count, "op": _op_name(cqe.opcode),
                    "wr_id": cqe.wr_id, "status": cqe.status,
                    "wq_num": cqe.wq_num})

    def on_atomic(self, nic, src_wq_name: str, wqe,
                  original: int) -> None:
        if self.stopped:
            return
        record = {"kind": "atomic", "nic": nic.name,
                  "src": src_wq_name, "op": _op_name(wqe.opcode),
                  "raddr": wqe.raddr, "op0": wqe.operand0,
                  "op1": wqe.operand1, "orig": original}
        if wqe.opcode == Opcode.CAS:
            record["swapped"] = original == wqe.operand0
        self._emit(record)

    def _on_store(self, memory, addr: int, length: int, label: str) -> None:
        if self.stopped:
            return
        self._emit({"kind": "store", "mem": memory.name, "region": label,
                    "addr": addr, "len": length,
                    "digest": _digest(memory.view(addr, length))})

    # -- emission core -----------------------------------------------------

    def _emit(self, record: Dict[str, Any]) -> None:
        record["seq"] = self.seq
        record["ts"] = self.sim.now
        if self.monitor is not None:
            self.monitor.observe(record)
        self.records.append(record)
        self.seq += 1
        if not self._verify_done:
            self._verify_record(record)
        if self.seq % self.checkpoint_interval == 0:
            self._checkpoint()
        if (self.stop_at is not None and self.landed is None
                and record_matches(record, self.stop_at)):
            self.landed = record
            self.stopped = True

    def capture_state(self) -> Dict[str, Any]:
        """Sim-visible state of everything attached, all digested.

        Deterministic and JSON-stable: digests of annotated DRAM
        regions, per-queue monotonic counters + cursors + ring bytes +
        write generations + decode-cache keys (the prefetch-cache
        state) + PU binding, per-CQ completion counts.
        """
        state: Dict[str, Any] = {"mem": {}, "wq": {}, "cq": {}}
        for memory, _hook in self._watch.memories:
            regions = self._watch.regions[id(memory)]
            state["mem"][memory.name] = {
                label: _digest(memory.view(start, end - start))
                for start, end, label in regions}
        for nic in self._nics:
            for wq in nic.wqs.values():
                state["wq"][f"{nic.name}/{wq.name}"] = {
                    "posted": wq.posted_count,
                    "enabled": wq.enabled_count,
                    "fetched": wq.fetched_count,
                    "post_cursor": wq._post_slot_cursor,
                    "fetch_cursor": wq._fetch_slot_cursor,
                    "ring": _digest(
                        wq.memory.view(wq.ring.addr, wq.ring.size)),
                    "gens": _digest(
                        ",".join(map(str, wq._ring_gens.gens)).encode()),
                    "cache": sorted(wq._decode_cache.keys()),
                    "pu": wq.pu_index,
                }
            for cq in nic.cqs.values():
                state["cq"][f"{nic.name}/{cq.name}"] = cq.count
        return state

    def _checkpoint(self) -> None:
        checkpoint = {"kind": "checkpoint", "seq": self.seq,
                      "ts": self.sim.now, "state": self.capture_state()}
        self.checkpoints.append(checkpoint)
        if not self._verify_done:
            self._verify_checkpoint(checkpoint)

    # -- replay verification -----------------------------------------------

    def _diverge(self, message: str, seq: int,
                 expected: Optional[Dict], actual: Optional[Dict]) -> None:
        self.divergence = ReplayDivergence(message, seq=seq,
                                           expected=expected,
                                           actual=actual)
        self._verify_done = True

    def _verify_record(self, record: Dict[str, Any]) -> None:
        journal = self._verify
        seq = record["seq"]
        if seq < journal.first_seq:
            return  # before the ring's retained suffix
        expected = journal.record_at(seq)
        if expected is None:
            self._diverge(
                f"replay emitted event past journal end at seq {seq}",
                seq, None, record)
            return
        if expected != record:
            fields = sorted(
                set(expected) | set(record),
                key=lambda k: (k != "kind", k))
            differing = [key for key in fields
                         if expected.get(key) != record.get(key)]
            self._diverge(
                f"replay diverged at seq {seq}: "
                f"field(s) {', '.join(differing)} differ",
                seq, expected, record)
            return
        self.verified += 1

    def _verify_checkpoint(self, checkpoint: Dict[str, Any]) -> None:
        expected = self._verify.checkpoint_at(checkpoint["seq"])
        if expected is None:
            return
        if expected["state"] != checkpoint["state"]:
            self._diverge(
                f"checkpoint state diverged at seq {checkpoint['seq']}",
                checkpoint["seq"], expected, checkpoint)

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
        for record in self.records:
            while (index < len(checkpoints)
                   and checkpoints[index]["seq"] <= record["seq"]):
                lines.append(json.dumps(checkpoints[index],
                                        sort_keys=True,
                                        separators=(",", ":")))
                index += 1
            out = dict(record, **extra) if extra else record
            lines.append(json.dumps(out, sort_keys=True,
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
        return len(self.records)


def export_merged_journal(recorders, path) -> int:
    """Merge several recorders (e.g. one per benchmark testbed) into
    one JSONL file; every line is stamped with its ``bed`` index."""
    lines: List[str] = []
    for index, recorder in enumerate(recorders):
        lines.extend(recorder.journal_lines(extra={"bed": index}))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return sum(len(recorder.records) for recorder in recorders)


# -- journal loading ------------------------------------------------------


class Journal:
    """A parsed journal: meta, retained records, checkpoints.

    Multi-bed merged journals carry a ``bed`` field on every line; the
    per-seq accessors then only apply to single-bed journals (the
    trace-diff engine aligns multi-bed journals by causal key instead).
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
    def multi_bed(self) -> bool:
        return len(self.metas) > 1

    @property
    def first_seq(self) -> int:
        if self.records:
            return self.records[0]["seq"]
        return self.meta.get("first_seq", 0)

    def record_at(self, seq: int) -> Optional[Dict[str, Any]]:
        if self.multi_bed:
            raise JournalError(
                "record_at is ambiguous on a multi-bed journal")
        index = seq - self.first_seq
        if 0 <= index < len(self.records):
            return self.records[index]
        return None

    def checkpoint_at(self, seq: int) -> Optional[Dict[str, Any]]:
        for checkpoint in self.checkpoints:
            if checkpoint["seq"] == seq:
                return checkpoint
        return None

    def find(self, pattern: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """First record matching every field of ``pattern``."""
        for record in self.records:
            if record_matches(record, pattern):
                return record
        return None

    def nearest_checkpoint(self, seq: int) -> Optional[Dict[str, Any]]:
        """The latest checkpoint at or before ``seq``."""
        best = None
        for checkpoint in self.checkpoints:
            if checkpoint["seq"] <= seq:
                if best is None or checkpoint["seq"] > best["seq"]:
                    best = checkpoint
        return best


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
    JSON, unknown schema, or holes in a bed's seq chain.
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


# -- deterministic replay -------------------------------------------------


class ReplayResult:
    """Outcome of :func:`replay_journal`."""

    def __init__(self, recorder: FlightRecorder, journal: Journal,
                 to_event: Optional[Dict[str, Any]]):
        self.recorder = recorder
        self.journal = journal
        self.divergence = recorder.divergence
        self.verified = recorder.verified
        self.landed = recorder.landed
        self._to_event = to_event

    @property
    def ok(self) -> bool:
        if self.divergence is not None:
            return False
        if self._to_event is not None:
            return self.landed is not None
        return self.verified == len(self.journal.records)

    def raise_on_divergence(self) -> "ReplayResult":
        if self.divergence is not None:
            raise self.divergence
        if not self.ok:
            raise ReplayDivergence(
                f"replay verified only {self.verified} of "
                f"{len(self.journal.records)} journal records "
                "(run ended early?)")
        return self

    def __repr__(self) -> str:
        return (f"<ReplayResult ok={self.ok} verified={self.verified}"
                f"{' landed' if self.landed else ''}>")


def replay_journal(journal: Journal, runner,
                   to_event: Optional[Dict[str, Any]] = None,
                   name: str = "replay") -> ReplayResult:
    """Re-execute a recorded scenario, verifying journal identity.

    ``runner(make_recorder)`` must rebuild the original scenario and
    call ``make_recorder(sim)`` on its freshly built simulator (the
    returned verify-mode :class:`FlightRecorder` can then be attached
    to NICs exactly like the recording run's was), then drive the
    scenario to completion. Because the simulator is deterministic, a
    rebuild re-seeds exactly the recorded initial state; every record
    from the journal's first retained seq on — the nearest checkpoint's
    suffix — must reproduce byte-identically, and every checkpoint's
    state must match.

    ``to_event`` stops the recording the moment a record matching the
    pattern is emitted (e.g. ``{"kind": "fetch", "wq": "ring-sq",
    "wr": 7}``); the matched record lands on ``ReplayResult.landed``.
    """
    if journal.multi_bed:
        raise JournalError("cannot replay a merged multi-bed journal; "
                           "replay each bed's journal separately")
    box: Dict[str, FlightRecorder] = {}

    def make_recorder(sim) -> FlightRecorder:
        recorder = FlightRecorder(
            sim, name=name,
            capacity=journal.meta.get("capacity", 1 << 16),
            checkpoint_interval=journal.meta.get("interval", 1024),
            verify=journal, stop_at=to_event)
        box["recorder"] = recorder
        return recorder

    runner(make_recorder)
    recorder = box.get("recorder")
    if recorder is None:
        raise JournalError("runner never called make_recorder(sim)")
    recorder.close()
    return ReplayResult(recorder, journal, to_event)
