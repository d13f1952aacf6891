"""The tracer: typed NIC-level events + the self-modification inspector.

Events are keyed on **simulated** time and exported as Chrome
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

The race flags come from the capture's online inspector: ``self_mod``
names the fields of a WQE whose ring bytes changed between post and
fetch (a generation bump that rewrote the same bytes is not flagged),
``stale_wqe`` one that changed between fetch and execute — the §3.1
prefetch incoherence hazard.

A tracer is a view over its simulator's :mod:`repro.obs.capture`: it
holds the chunks recorded while attached, and :attr:`Tracer.events`
and :meth:`Tracer.chrome_events` fold them when read, numbering pids
and tids in the order tracks were first seen. Attaching it cannot
change a run's schedule (``tests/test_obs_determinism.py``).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from typing import Any, Dict, List, Optional

from ..nic.opcodes import Opcode
from ..nic.wqe import format_field_diff, wqe_field_diff
from .capture import (ATOMIC, CQE, DEMUX, DMA, DMA_TXN, DONE, DOORBELL,
                      DOORBELL_BATCH, ENABLE, EXEC, FETCH, FETCH_SPAN, LINK,
                      NIC, OFFLOAD_CALL, ORPHANS, POOL_WAIT, POST, PU, QUEUE,
                      REQUEST, SELF_MOD, SIZES, STALE_WQE, STORE, TRACED,
                      TRACK, WAIT, WIRE, Capture, op_name, walk)

__all__ = ["Tracer", "export_merged_chrome"]

# Trace events per record (a CQE with a host delay adds its DMA span;
# a store only the journal sees adds none).
_PER_RECORD = [0 if code in (NIC, QUEUE, TRACK, EXEC) else
               2 if code in (WAIT, CQE) else 1 for code in range(len(SIZES))]


def _changed(images) -> list:
    """The field diff of a ``(old, new)`` WQE image pair."""
    return [format_field_diff(diff) for diff in wqe_field_diff(*images)]


def _fold(chunks, name: str) -> tuple:
    """``(pids, tids, events)`` of the records in ``chunks``: pids per
    process label and tids per (pid, thread label), numbered in order of
    first sight, and events as ``(ph, cat, name, pid, tid, ts_ns,
    dur_ns, args)`` in emission order."""
    pids: Dict[str, int] = {}
    tids: Dict[tuple, int] = {}
    counts: Dict[int, int] = {}

    def track(process: str, thread: str) -> tuple:
        pid = pids.setdefault(process, len(pids) + 1)
        tid = tids.get((pid, thread))
        if tid is None:
            tid = tids[(pid, thread)] = counts[pid] = counts.get(pid, 0) + 1
        return pid, tid

    def queue(q) -> tuple:
        return track(q.nic, f"wq:{q.name}")

    events: list = []
    add = events.append
    for record in walk(chunks):
        code, ts = record[0], record[1]
        if code == POST:
            _, _, q, wr, slot, slots, op = record
            add(("i", "queue", f"post:{op_name(op)}", *queue(q), ts, None,
                 {"wr_index": wr, "slot": slot, "slots": slots}))
        elif code == FETCH:
            _, _, q, wr, slot, _slots, op, cache = record
            add(("i", "fetch", f"wqe:{op_name(op)}", *queue(q), ts, None,
                 {"wr_index": wr, "slot": slot,
                  "cache": "hit" if cache else "miss"}))
        elif code == DONE:
            _, _, q, wr, start, op, status = record[:7]
            add(("X", "exec", f"op:{op_name(op)}", *queue(q), start,
                 ts - start, {"wr_index": wr, "status": status}))
        elif code == CQE:
            _, _, cq_track, cq, cq_num, count, op, wr_id, status, wq_num, \
                delay = record
            pid, tid = track(*(cq_track or (ORPHANS, f"cq:{cq}")))
            add(("i", "cqe", f"cqe:{op_name(op)}", pid, tid, ts, None,
                 {"wr_id": wr_id, "status": status, "wq_num": wq_num,
                  "cq_num": cq_num, "count": count}))
            if delay > 0:
                # The posted DMA that carries the CQE to host memory:
                # the monotonic counter (WAIT verbs) bumped at span
                # start, the host poller sees the entry at span end.
                add(("X", "cqe", "cqe_dma", pid, tid, ts, delay,
                     {"wr_id": wr_id, "cq_num": cq_num}))
            add(("C", "cqe", f"cq:{cq}", pid, tid, ts, None,
                 {"completions": count}))
        elif code == PU:
            _, _, nic, port, pu, start, op, wq = record
            add(("X", "exec", op_name(op), *track(nic, f"port{port}/pu{pu}"),
                 start, ts - start, {"wq": wq}))
        elif code == DOORBELL:
            add(("i", "queue", "doorbell", *queue(record[2]), ts, None,
                 {"up_to": record[3]}))
        elif code == FETCH_SPAN:
            _, _, nic, port, start, wq, count, managed = record
            add(("X", "fetch", "fetch" if managed else f"prefetch[{count}]",
                 *track(nic, f"port{port}/fetch"), start, ts - start,
                 {"wq": wq, "count": count, "managed": managed}))
        elif code == DMA:
            _, _, nic, start, nbytes = record
            add(("X", "dma", f"dma[{nbytes}B]", *track(nic, "pcie"), start,
                 ts - start, {"bytes": nbytes}))
        elif code == DMA_TXN:
            _, _, nic, start, kind = record
            add(("X", "dma", f"dma:{kind}", *track(nic, "pcie"), start,
                 ts - start, {"kind": kind}))
        elif code == WIRE:
            _, _, nic, start, nbytes, dst = record
            add(("X", "wire", f"wire[{nbytes}B]", *track(nic, "wire"), start,
                 ts - start, {"bytes": nbytes, "dst": dst}))
        elif code == WAIT:
            _, _, q, _wr, start, cq_num, threshold = record[:7]
            pid, tid = queue(q)
            add(("X", "sync", "WAIT", pid, tid, start, ts - start,
                 {"cq_num": cq_num, "count": threshold}))
            add(("i", "sync", "WAIT.wake", pid, tid, ts, None,
                 {"cq_num": cq_num}))
        elif code == ENABLE:
            _, _, q, _wr, target, count, relative, target_name = record[:8]
            args = {"target_wq": target, "count": count,
                    "relative": relative}
            if target_name is not None:
                args["target_name"] = target_name
            add(("i", "sync", "ENABLE", *queue(q), ts, None, args))
        elif code == ATOMIC:
            _, _, nic, _src, op, raddr, op0, op1, original = record
            if op == Opcode.CAS:
                args = {"raddr": raddr, "expected": op0, "desired": op1,
                        "original": original, "swapped": original == op0}
            else:
                args = {"raddr": raddr, "delta": op0, "original": original}
            add(("i", "atomic", op_name(op), *track(nic, "atomics"), ts,
                 None, args))
        elif code == STORE:
            _, _, memory, region, addr, length, views = record
            if views & TRACED:
                add(("i", "mem", f"store:{region}", *track(memory, "stores"),
                     ts, None, {"addr": addr, "len": length,
                                "region": region}))
        elif code == DOORBELL_BATCH:
            _, _, q, start, count, extra = record
            add(("X", "conn", f"batch[{count}]", *queue(q), start,
                 ts - start + extra,
                 {"wq": q.name, "count": count, "extra_delay_ns": extra}))
        elif code == DEMUX:
            _, _, cq_track, cq_num, wq_num, wr_id, stale = record
            add(("i", "conn", "demux:stale" if stale else "demux",
                 *track(*cq_track), ts, None,
                 {"cq_num": cq_num, "wq_num": wq_num, "wr_id": wr_id}))
        elif code == POOL_WAIT:
            _, _, pool, start, tag = record
            add(("X", "conn", "pool_wait", *track(pool, "lease-wait"), start,
                 ts - start, {"pool": pool, "tag": tag}))
        elif code == LINK:
            _, _, src, dst, mailbox, arrival = record
            add(("X", "link", f"link:{mailbox}",
                 *track("fabric", f"link:{src}->{dst}"), ts, arrival - ts,
                 {"src": src, "dst": dst, "mailbox": mailbox,
                  "arrival_ns": arrival}))
        elif code == OFFLOAD_CALL:
            _, _, nic, start, conn, ok, nbytes = record
            add(("X", "offload", f"call:{conn}", *track(nic, "offload"),
                 start, ts - start, {"ok": ok, "bytes": nbytes}))
        elif code == SELF_MOD:
            _, _, q, wr, slot, images = record
            add(("i", "race", "self_mod", *queue(q), ts, None,
                 {"wq": q.name, "wr_index": wr, "slot": slot,
                  "changed": _changed(images)}))
        elif code == STALE_WQE:
            _, _, q, wr, fetched, images = record
            add(("i", "race", "stale_wqe", *queue(q), ts, None,
                 {"wq": q.name, "wr_index": wr, "fetched_at": fetched,
                  "window_ns": ts - fetched, "changed": _changed(images)}))
        elif code == REQUEST:
            _, _, start, label, args = record
            add(("X", "request", f"{label}", *track(name, "requests"), start,
                 ts - start, args))
        elif code == QUEUE:
            queue(record[1])
        elif code == TRACK:
            track(*record[1])
        elif code == NIC:
            _, nic, ports = record
            for index, pus in ports:
                track(nic, f"port{index}/fetch")
                for pu in range(pus):
                    track(nic, f"port{index}/pu{pu}")
            for thread in ("pcie", "wire", "atomics"):
                track(nic, thread)
    return pids, tids, events


def _count(chunks) -> int:
    """Trace events the records in ``chunks`` fold to."""
    count = 0
    for chunk in chunks:
        index, end = 0, len(chunk)
        while index < end:
            code = chunk[index]
            count += _PER_RECORD[code]
            if code == CQE:
                count += chunk[index + 10] > 0
            elif code == STORE:
                count -= not chunk[index + 6] & TRACED
            index += SIZES[code]
    return count


class _EventView(Sequence):
    """:attr:`Tracer.events`: folded when read."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __len__(self) -> int:
        return _count(self._tracer._chunks)

    def __getitem__(self, index):
        return self._tracer._fold()[2][index]

    def __iter__(self):
        return iter(self._tracer._fold()[2])

    def __eq__(self, other) -> bool:
        if isinstance(other, (_EventView, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"<events n={len(self)}>"


class Tracer:
    """Records one simulation's events; one tracer per Simulator.

    A view over the simulator's :class:`~repro.obs.capture.Capture`.
    """

    def __init__(self, sim, name: str = "trace"):
        self.sim = sim
        self.name = name
        self.self_mod_count = 0
        self.stale_count = 0
        self._exec_hist = sim.metrics.histogram("obs.execute_ns")
        # The capture's chunks recorded while attached, and the last
        # fold, keyed by how much was recorded.
        self._chunks: List[list] = []
        self._folded: tuple = (None, None)
        self._capture = Capture.join(self, "tracer")

    def __repr__(self) -> str:
        return f"<Tracer {self.name} events={_count(self._chunks)}>"

    def _fold(self) -> tuple:
        """``(pids, tids, events)``, folded again after new records."""
        chunks = self._chunks
        size = (len(chunks), len(chunks[-1]) if chunks else 0)
        if self._folded[0] != size:
            self._folded = (size, _fold(chunks, self.name))
        return self._folded[1]

    @property
    def events(self) -> _EventView:
        """Recorded events as ``(ph, cat, name, pid, tid, ts_ns, dur_ns,
        args)`` tuples, in emission (= simulated time) order."""
        return _EventView(self)

    def close(self) -> None:
        """Detach from the simulator and its memories."""
        self._capture.leave(self)

    def attach_nic(self, nic) -> None:
        """Register a NIC's tracks, queues and DRAM write hook.

        Idempotent; also done lazily on every NIC-side event, so an
        explicit call is only needed to pre-register empty tracks.
        """
        if self._capture.tracer is self:
            self._capture._traced[nic]

    def request_span(self, label: str, start_ns: int,
                     args: Optional[Dict[str, Any]] = None) -> None:
        """An application-defined request window (benchmark samples).

        The critical-path profiler treats each such span — like each
        offload ``call:`` span — as one request to attribute.
        """
        if self._capture.tracer is self:
            self._capture._chunk += (REQUEST, self.sim.now, start_ns, label,
                                     args)

    # -- export ------------------------------------------------------------

    def chrome_events(self, pid_offset: int = 0) -> List[Dict[str, Any]]:
        """All events as Chrome trace-event dicts (ts/dur in us), after
        one ``M`` metadata row per process and thread."""
        pids, tids, events = self._fold()
        out: List[Dict[str, Any]] = []
        for label, pid in pids.items():
            out.append({"ph": "M", "name": "process_name",
                        "pid": pid + pid_offset, "tid": 0,
                        "args": {"name": label}})
        for (pid, label), tid in tids.items():
            out.append({"ph": "M", "name": "thread_name",
                        "pid": pid + pid_offset, "tid": tid,
                        "args": {"name": label}})
        for ph, cat, name, pid, tid, ts, dur, args in events:
            event: Dict[str, Any] = {"ph": ph, "cat": cat, "name": name,
                                     "pid": pid + pid_offset, "tid": tid,
                                     "ts": ts / 1000}
            if ph == "X":
                event["dur"] = (dur or 0) / 1000
            elif ph == "i":
                event["s"] = "t"
            if args is not None:
                event["args"] = args
            out.append(event)
        return out

    @property
    def pid_count(self) -> int:
        return len(self._fold()[0])

    def to_json(self) -> str:
        return _trace_json(self.chrome_events())

    def export_chrome(self, path) -> int:
        """Write Chrome trace-event JSON; returns the recorded event
        count (the ``M`` metadata rows are not counted)."""
        return export_merged_chrome([self], path)


def _trace_json(events: list) -> str:
    payload = {"traceEvents": events, "displayTimeUnit": "ns"}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def export_merged_chrome(tracers, path) -> int:
    """Merge several tracers (distinct pid spaces) into one trace file;
    returns the recorded event count, as :meth:`Tracer.export_chrome`
    does."""
    events: List[Dict[str, Any]] = []
    offset = 0
    for tracer in tracers:
        events.extend(tracer.chrome_events(pid_offset=offset))
        offset += tracer.pid_count
    with open(path, "w") as handle:
        handle.write(_trace_json(events))
    return sum(_count(tracer._chunks) for tracer in tracers)
