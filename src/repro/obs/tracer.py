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
  rings and RedN code regions) — everything else is ignored so traces
  stay proportional to program activity, not payload volume.

Race inspection happens online, because only the tracer sees both
sides of the join: at **post** time it snapshots each WQE's slot bytes
and write generations; at **fetch** time a generation mismatch plus a
byte diff emits a ``self_mod`` event naming the rewritten fields (a
generation bump whose bytes match the previous image — e.g. a
RecycledLoop restore READ rewriting a template — is *not* flagged); at
**execute** time the fetch-time snapshot is re-checked and any
divergence emits ``stale_wqe``: the NIC is about to execute bytes that
no longer match DRAM — exactly the §3.1 prefetch incoherence hazard.

The tracer never schedules simulation events and never mutates
simulated state, so attaching it cannot change a run's schedule — the
``test_obs_determinism`` suite holds it to that.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from ..nic.opcodes import OPCODE_NAMES, Opcode
from .events import format_field_diff, wqe_field_diff
from .probe import StoreWatch

__all__ = ["Tracer", "export_merged_chrome", "diff_wqe_bytes"]


def _op_name(opcode: int) -> str:
    return OPCODE_NAMES.get(opcode, f"OP{opcode:#x}")


def diff_wqe_bytes(old: bytes, new: bytes) -> List[str]:
    """Human-readable field diff between two WQE byte images.

    Slot 0 is diffed per header field; follow-on (SGE) slots are
    reported coarsely. Used for ``self_mod`` / ``stale_wqe`` args.
    The field resolution itself lives in ``obs.events.wqe_field_diff``
    (shared with the trace-diff engine); this wrapper only renders.
    """
    return [format_field_diff(diff)
            for diff in wqe_field_diff(old, new)]


class Tracer:
    """Records one simulation's events; one tracer per Simulator.

    A :mod:`repro.obs.probe` sink: its ``on_<kind>`` methods are the
    probe's event hooks.
    """

    def __init__(self, sim, name: str = "trace"):
        self.sim = sim
        self.name = name
        #: Recorded events, in emission (= simulated time) order. Each
        #: is (ph, cat, name, pid, tid, ts_ns, dur_ns, args).
        self.events: List[Tuple] = []
        self._pids: Dict[str, int] = {}
        self._tids: Dict[Tuple[int, str], int] = {}
        self._nics_seen: set = set()
        # pid cache per queue object (id() keys are process-local only).
        self._wq_pids: Dict[int, int] = {}
        self._cq_pids: Dict[int, int] = {}
        # Stores into WQE rings and RedN code regions become events.
        self._watch = StoreWatch(self._on_store)
        # Inspector state: last-seen slot image per (wq, slot_index) and
        # fetch-time snapshot per in-flight (wq, wr_index).
        self._slot_images: Dict[Tuple[int, int], Tuple[Tuple, bytes]] = {}
        self._fetch_snaps: Dict[Tuple[int, int], Tuple] = {}
        self.self_mod_count = 0
        self.stale_count = 0
        sim.probe.attach(self)
        self._exec_hist = sim.metrics.histogram("obs.execute_ns")

    def __repr__(self) -> str:
        return f"<Tracer {self.name} events={len(self.events)}>"

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
            tid = self._tids[key] = \
                sum(1 for p, _ in self._tids if p == pid) + 1
        return tid

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
        pid = self.attach_nic(nic)
        self._wq_pids[id(wq)] = pid
        self._tid(pid, f"wq:{wq.name}")
        self._watch.annotate(wq.memory, wq.ring.addr, wq.ring.size,
                             f"ring:{wq.name}")

    def on_cq_created(self, nic, cq) -> None:
        pid = self.attach_nic(nic)
        self._cq_pids[id(cq)] = pid
        self._tid(pid, f"cq:{cq.name}")

    def on_code_region(self, memory, addr: int, size: int,
                       label: str) -> None:
        """A RedN code region: stores into it get traced."""
        self._watch.annotate(memory, addr, size, label)

    # -- low-level event append --------------------------------------------

    def _append(self, ph: str, cat: str, name: str, pid: int, tid: int,
                ts: int, dur: Optional[int] = None,
                args: Optional[Dict[str, Any]] = None) -> None:
        self.events.append((ph, cat, name, pid, tid, ts, dur, args))

    def _wq_track(self, wq) -> Tuple[int, int]:
        pid = self._wq_pids.get(id(wq))
        if pid is None:
            qp = wq.qp
            if qp is not None:
                self.on_wq_created(qp.nic, wq)
                pid = self._wq_pids[id(wq)]
            else:
                pid = self._pid("orphan-queues")
        return pid, self._tid(pid, f"wq:{wq.name}")

    # -- queue-side events ----------------------------------------------------

    def on_post(self, wq, wr_index: int, slot_cursor: int, slots: int,
                wqe) -> None:
        """Host posted a WQE: record its image for the race inspector."""
        pid, tid = self._wq_track(wq)
        gens, data = wq.slot_state(slot_cursor, slots)
        ring_slots = wq.num_slots
        self._slot_images[(id(wq), slot_cursor % ring_slots)] = (gens, data)
        self._append("i", "queue", f"post:{_op_name(wqe.opcode)}", pid,
                     tid, self.sim.now,
                     args={"wr_index": wr_index,
                           "slot": slot_cursor % ring_slots,
                           "slots": slots})

    def on_doorbell(self, wq, up_to: int) -> None:
        pid, tid = self._wq_track(wq)
        self._append("i", "queue", "doorbell", pid, tid, self.sim.now,
                     args={"up_to": up_to})

    def on_fetch_span(self, nic, wq, start_ns: int, count: int,
                      managed: bool) -> None:
        """One fetch DMA (managed: 1 WQE; normal: a prefetch batch)."""
        pid = self.attach_nic(nic)
        tid = self._tid(pid, f"port{wq.port_index}/fetch")
        name = "fetch" if managed else f"prefetch[{count}]"
        self._append("X", "fetch", name, pid, tid, start_ns,
                     dur=self.sim.now - start_ns,
                     args={"wq": wq.name, "count": count,
                           "managed": managed})

    def on_fetch(self, wq, wr_index: int, slot_cursor: int, slots: int,
                 wqe, cache_hit: bool) -> None:
        """One WQE's bytes were snapshotted by the NIC.

        Runs the post-vs-fetch half of the race join and arms the
        fetch-vs-execute half.
        """
        pid, tid = self._wq_track(wq)
        now = self.sim.now
        gens, data = wq.slot_state(slot_cursor, slots)
        slot_index = slot_cursor % wq.num_slots
        image = self._slot_images.get((id(wq), slot_index))
        if image is not None and image[0] != gens and image[1] != data:
            changes = diff_wqe_bytes(image[1], data)
            self.self_mod_count += 1
            self._append("i", "race", "self_mod", pid, tid, now,
                         args={"wq": wq.name, "wr_index": wr_index,
                               "slot": slot_index, "changed": changes})
        self._slot_images[(id(wq), slot_index)] = (gens, data)
        self._fetch_snaps[(id(wq), wr_index)] = (gens, data, now,
                                                 slot_cursor, slots)
        self._append("i", "fetch",
                     f"wqe:{_op_name(wqe.opcode)}", pid, tid, now,
                     args={"wr_index": wr_index, "slot": slot_index,
                           "cache": "hit" if cache_hit else "miss"})

    # -- execute-side events ----------------------------------------------------

    def on_execute(self, wq, wr_index: int, wqe) -> None:
        """WQE entered execution: close the fetch-vs-execute window."""
        snap = self._fetch_snaps.pop((id(wq), wr_index), None)
        if snap is None:
            return
        gens, data, fetch_ts, slot_cursor, slots = snap
        if wq.slot_gens(slot_cursor, slots) == gens:
            return
        _, current = wq.slot_state(slot_cursor, slots)
        if current == data:
            return
        pid, tid = self._wq_track(wq)
        changes = diff_wqe_bytes(data, current)
        self.stale_count += 1
        self._append("i", "race", "stale_wqe", pid, tid, self.sim.now,
                     args={"wq": wq.name, "wr_index": wr_index,
                           "fetched_at": fetch_ts,
                           "window_ns": self.sim.now - fetch_ts,
                           "changed": changes})

    def on_pu(self, nic, wq, opcode: int, start_ns: int) -> None:
        pid = self.attach_nic(nic)
        tid = self._tid(pid, f"port{wq.port_index}/pu{wq.pu_index}")
        self._append("X", "exec", _op_name(opcode), pid, tid, start_ns,
                     dur=self.sim.now - start_ns, args={"wq": wq.name})

    def on_wait(self, wq, wr_index: int, wqe, cq, start_ns: int) -> None:
        pid, tid = self._wq_track(wq)
        now = self.sim.now
        self._append("X", "sync", "WAIT", pid, tid, start_ns,
                     dur=now - start_ns,
                     args={"cq_num": wqe.target, "count": wqe.wqe_count})
        self._append("i", "sync", "WAIT.wake", pid, tid, now,
                     args={"cq_num": wqe.target})

    def on_enable(self, wq, wr_index: int, wqe, relative: bool,
                  target) -> None:
        args = {"target_wq": wqe.target,
                "count": wqe.wqe_count, "relative": relative}
        if target is not None:
            args["target_name"] = target.name
        pid, tid = self._wq_track(wq)
        self._append("i", "sync", "ENABLE", pid, tid, self.sim.now,
                     args=args)

    def on_done(self, wq, wr_index: int, wqe, status: str, byte_len: int,
                start_ns: int) -> None:
        pid, tid = self._wq_track(wq)
        dur = self.sim.now - start_ns
        self._exec_hist.observe(dur)
        self._append("X", "exec", f"op:{_op_name(wqe.opcode)}", pid, tid,
                     start_ns, dur=dur,
                     args={"wr_index": wr_index, "status": status})

    # -- completion / data-path events ---------------------------------------

    def on_cqe(self, cq, cqe, host_delay_ns: int) -> None:
        pid = self._cq_pids.get(id(cq))
        if pid is None:
            pid = self._pid("orphan-queues")
        tid = self._tid(pid, f"cq:{cq.name}")
        now = self.sim.now
        self._append("i", "cqe", f"cqe:{_op_name(cqe.opcode)}", pid, tid,
                     now, args={"wr_id": cqe.wr_id, "status": cqe.status,
                                "wq_num": cqe.wq_num,
                                "cq_num": cq.cq_num, "count": cq.count})
        if host_delay_ns > 0:
            # The posted DMA that carries the CQE to host memory: the
            # monotonic counter (WAIT verbs) bumped at span start, the
            # host poller sees the entry at span end.
            self._append("X", "cqe", "cqe_dma", pid, tid, now,
                         dur=host_delay_ns,
                         args={"wr_id": cqe.wr_id, "cq_num": cq.cq_num})
        self._append("C", "cqe", f"cq:{cq.name}", pid, tid, now,
                     args={"completions": cq.count})

    def on_atomic(self, nic, src_wq_name: str, wqe, original: int) -> None:
        pid = self.attach_nic(nic)
        tid = self._tid(pid, "atomics")
        if wqe.opcode == Opcode.CAS:
            args = {"raddr": wqe.raddr, "expected": wqe.operand0,
                    "desired": wqe.operand1, "original": original,
                    "swapped": original == wqe.operand0}
        else:
            args = {"raddr": wqe.raddr, "delta": wqe.operand0,
                    "original": original}
        self._append("i", "atomic", _op_name(wqe.opcode), pid, tid,
                     self.sim.now, args=args)

    def on_dma(self, nic, nbytes: int, start_ns: int) -> None:
        pid = self.attach_nic(nic)
        tid = self._tid(pid, "pcie")
        self._append("X", "dma", f"dma[{nbytes}B]", pid, tid, start_ns,
                     dur=self.sim.now - start_ns, args={"bytes": nbytes})

    def on_dma_txn(self, nic, kind: str, start_ns: int) -> None:
        """A posted/non-posted PCIe transaction latency window."""
        pid = self.attach_nic(nic)
        tid = self._tid(pid, "pcie")
        self._append("X", "dma", f"dma:{kind}", pid, tid, start_ns,
                     dur=self.sim.now - start_ns, args={"kind": kind})

    def on_wire(self, nic, dst_nic, nbytes: int, start_ns: int) -> None:
        """One message's serialization + link traversal (never loopback)."""
        pid = self.attach_nic(nic)
        tid = self._tid(pid, "wire")
        self._append("X", "wire", f"wire[{nbytes}B]", pid, tid, start_ns,
                     dur=self.sim.now - start_ns,
                     args={"bytes": nbytes, "dst": dst_nic.name})

    # -- connection-plane / cross-shard events -------------------------------

    def on_pool_acquire(self, pool, start_ns: int, tag: str) -> None:
        """One lease's FIFO wait in a QpPool's acquire queue, if any."""
        if start_ns == self.sim.now:
            return
        pid = self._pid(pool.name)
        tid = self._tid(pid, "lease-wait")
        self._append("X", "conn", "pool_wait", pid, tid, start_ns,
                     dur=self.sim.now - start_ns,
                     args={"pool": pool.name, "tag": tag})

    def on_doorbell_batch(self, wq, count: int, start_ns: int,
                          extra_delay_ns: int) -> None:
        """One coalesced doorbell flush: hold window + batch surcharge."""
        pid, tid = self._wq_track(wq)
        self._append("X", "conn", f"batch[{count}]", pid, tid, start_ns,
                     dur=(self.sim.now - start_ns) + extra_delay_ns,
                     args={"wq": wq.name, "count": count,
                           "extra_delay_ns": extra_delay_ns})

    def on_cqe_demux(self, cq, cqe, stale: bool) -> None:
        """CompletionRouter verdict for one shared-CQ entry."""
        pid = self._cq_pids.get(id(cq))
        if pid is None:
            pid = self._pid("orphan-queues")
        tid = self._tid(pid, f"cq:{cq.name}")
        name = "demux:stale" if stale else "demux"
        self._append("i", "conn", name, pid, tid, self.sim.now,
                     args={"cq_num": cq.cq_num, "wq_num": cqe.wq_num,
                           "wr_id": cqe.wr_id})

    def on_link_send(self, src_index: int, dst_index: int, mailbox: str,
                     arrival_ns: int) -> None:
        """One ShardFabric message's wire traversal to the peer shard."""
        pid = self._pid("fabric")
        tid = self._tid(pid, f"link:{src_index}->{dst_index}")
        now = self.sim.now
        self._append("X", "link", f"link:{mailbox}", pid, tid, now,
                     dur=arrival_ns - now,
                     args={"src": src_index, "dst": dst_index,
                           "mailbox": mailbox, "arrival_ns": arrival_ns})

    def on_offload_call(self, conn, start_ns: int, ok: bool,
                        byte_len: int) -> None:
        pid = self.attach_nic(conn.client_nic)
        tid = self._tid(pid, "offload")
        self._append("X", "offload", f"call:{conn.name}", pid, tid,
                     start_ns, dur=self.sim.now - start_ns,
                     args={"ok": ok, "bytes": byte_len})

    def request_span(self, label: str, start_ns: int,
                     args: Optional[Dict[str, Any]] = None) -> None:
        """An application-defined request window (benchmark samples).

        The critical-path profiler treats each such span — like each
        offload ``call:`` span — as one request to attribute.
        """
        pid = self._pid(self.name)
        tid = self._tid(pid, "requests")
        self._append("X", "request", label, pid, tid, start_ns,
                     dur=self.sim.now - start_ns, args=args)

    def _on_store(self, memory, addr: int, length: int, label: str) -> None:
        pid = self._pid(memory.name)
        tid = self._tid(pid, "stores")
        self._append("i", "mem", f"store:{label}", pid, tid, self.sim.now,
                     args={"addr": addr, "len": length, "region": label})

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
        for ph, cat, name, pid, tid, ts, dur, args in self.events:
            event: Dict[str, Any] = {
                "ph": ph, "cat": cat, "name": name,
                "pid": pid + pid_offset, "tid": tid, "ts": ts / 1000,
            }
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
        return len(self._pids)

    def to_json(self) -> str:
        payload = {"traceEvents": self.chrome_events(),
                   "displayTimeUnit": "ns"}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def export_chrome(self, path) -> int:
        """Write Chrome trace-event JSON; returns the event count."""
        with open(path, "w") as handle:
            handle.write(self.to_json())
        return len(self.events)


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
