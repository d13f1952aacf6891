"""Executable semantics of RDMA verbs.

:class:`VerbExecutor` implements the *data path* of each verb: payload
gather/scatter DMAs, wire traversal, responder-side processing, and the
memory effect itself. Timing follows the decomposition documented in
:mod:`repro.nic.timing`; the memory effects are ordinary byte reads and
writes on simulated host DRAM — which is precisely why aiming a CAS or
READ at work-queue memory rewrites the program the NIC will execute.

Conventions:

* A verb runs on an RC QP; ``qp.peer`` is the responder end. Loopback
  QPs (both ends on one NIC) skip the wire and RX processing but pay
  all PCIe costs — the cost profile of RedN's self-modifying chains.
* Remote access is validated against the *responder's* protection
  domain using the WQE's rkey. Two-sided SEND/RECV needs no rkey,
  which is the paper's security argument for RedN triggers (§3.5).
* Atomics serialize on the responder port's atomic unit (Table 3's
  8.4 M CAS/s); Mellanox calc verbs (MAX/MIN) do not (63 M/s).
* READ responses scatter to an SGE list when present — the mechanism
  Fig 12's list traversal uses to steer one READ's bytes into several
  later WQEs.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple, TYPE_CHECKING

from ..memory.region import AccessFlags, ProtectionError
from .opcodes import Opcode
from .qp import QueuePair
from .queue import Cqe, QueueError
from .wqe import Sge, Wqe

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .rnic import RNIC

__all__ = ["VerbExecutor"]

# Approximate wire size of a request/ack header, for serialization cost.
_HEADER_BYTES = 32


class VerbExecutor:
    """Data-path implementations for every verb opcode.

    Each verb is one generator that sleeps once per *resource arrival*:
    a claim on a :class:`~repro.sim.resources.Pipe` (PCIe, a port's
    wire) is priced on arrival, so queueing, the hold and any pure
    delay up to the next boundary cost one sleep. A boundary is
    anything whose instant matters: a pipe arrival, a memory read or
    write, ``validate_remote`` (which may raise), an atomic-unit
    acquire and a probe hook. Every boundary happens at the instant,
    and with the arguments, the segment-by-segment model gave it.
    """

    def __init__(self, nic: "RNIC"):
        self.nic = nic

    # -- dispatch -----------------------------------------------------------

    def perform(self, qp: Optional[QueuePair], wqe: Wqe) -> Generator:
        """The generator running a verb's data path; it returns
        ``(byte_len, immediate)``. Raises :class:`QueueError` for a
        verb that cannot run on ``qp``."""
        opcode = wqe.opcode
        if opcode == Opcode.NOOP:
            return self._noop(qp, wqe)
        if qp is None or not qp.connected:
            raise QueueError(f"{wqe!r} needs a connected QP")
        if opcode == Opcode.WRITE or opcode == Opcode.WRITE_IMM:
            return self._write(qp, wqe)
        if opcode == Opcode.READ:
            return self._read(qp, wqe)
        if opcode == Opcode.SEND:
            return self._send(qp, wqe)
        if opcode == Opcode.CAS or opcode == Opcode.FETCH_ADD:
            return self._atomic(qp, wqe)
        if opcode == Opcode.MAX or opcode == Opcode.MIN:
            return self._calc(qp, wqe)
        raise QueueError(f"opcode {opcode:#x} is not executable here")

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _wire_ns(src_qp: QueuePair, nbytes: int) -> int:
        """Send a message from ``src_qp``'s NIC to its peer's NIC.

        Claims the port wire for the message's serialization and
        returns the ns until the message arrives: queueing, the hold
        and the link latency, looked up as serialization starts. When
        the lookup raises (``FabricError`` for an unlinked peer) it
        returns ``~hold`` (negative) instead; the caller then runs
        :meth:`_unlinked`, which raises once the hold ends.
        """
        nic = src_qp.nic
        hold = nic.ports[src_qp.port_index].wire.claim(
            nic.timing.payload_wire_ns(nbytes + _HEADER_BYTES))
        try:
            latency = nic.link_latency_to(src_qp.peer.nic)
        except Exception:
            # The lookup is a hook the fabric layer installs, so any
            # error is deferred, never swallowed: _unlinked repeats it.
            return ~hold
        return hold + latency if latency > 0 else hold

    @staticmethod
    def _unlinked(src_qp: QueuePair, hold: int) -> Generator:
        """Finish a send whose link lookup failed: serialize, then look
        the link up again, raising where the lookup always raised."""
        if hold:
            yield hold
        latency = src_qp.nic.link_latency_to(src_qp.peer.nic)
        if latency > 0:
            yield latency

    def _traverse(self, src_qp: QueuePair, nbytes: int) -> Generator:
        """Move a message from ``src_qp``'s NIC to its peer's NIC."""
        if src_qp.is_loopback:
            return
        nic = src_qp.nic
        start = nic.sim.now
        sleep = self._wire_ns(src_qp, nbytes)
        if sleep < 0:
            yield from self._unlinked(src_qp, ~sleep)
        elif sleep:
            yield sleep
        if nic.sim.probe.wire:
            for hook in nic.sim.probe.wire:
                hook(nic, src_qp.peer.nic, nbytes, start)

    def _dma_txn(self, nic: "RNIC", kind: str, ns: int) -> Generator:
        """One posted/non-posted DMA transaction latency (a dma span)."""
        if ns <= 0:
            return
        start = nic.sim.now
        yield ns
        if nic.sim.probe.dma_txn:
            for hook in nic.sim.probe.dma_txn:
                hook(nic, kind, start)

    def _dma_in(self, nic: "RNIC", nbytes: int) -> Generator:
        """Initiator/responder DMA of a payload across PCIe (gather)."""
        cost = nic.timing.payload_pcie_ns(nbytes)
        if cost > 0:
            start = nic.sim.now
            yield nic.pcie.claim(cost)
            if nic.sim.probe.dma:
                for hook in nic.sim.probe.dma:
                    hook(nic, nbytes, start)

    def _scatter_bytes(self, nic: "RNIC", data: bytes,
                       sges: List[Sge], laddr: int, length: int) -> int:
        """Write ``data`` into an SGE list (or the single laddr sink)."""
        if not sges:
            if length and len(data) > length:
                raise QueueError(
                    f"{len(data)}-byte message exceeds {length}-byte sink")
            if laddr:
                nic.memory.write(laddr, data)
            return len(data)
        written = 0
        total = len(data)
        view = memoryview(data)
        for sge in sges:
            if written >= total:
                break
            # Slice the view, not the bytes: each chunk is zero-copy
            # until the bytearray slice-assign inside memory.write.
            chunk = view[written:written + sge.length]
            nic.memory.write(sge.addr, chunk)
            written += len(chunk)
        if written < total:
            raise QueueError(
                f"scatter list too small: {len(data)} bytes into "
                f"{sum(s.length for s in sges)}")
        return written

    # -- verb implementations ----------------------------------------------------

    def _noop(self, qp: Optional[QueuePair], wqe: Wqe) -> Generator:
        """NOOP: no memory effect; remote QPs still pay a wire round trip
        (the paper's remote-vs-loopback NOOP difference, Fig 7)."""
        if qp is not None and qp.connected and not qp.is_loopback:
            yield from self._traverse(qp, 0)
            yield from self._traverse(qp.peer, 0)
        return (0, 0)

    def _write(self, qp: QueuePair, wqe: Wqe) -> Generator:
        nic = qp.nic
        peer = qp.peer
        rnic = peer.nic
        timing = rnic.timing
        length = wqe.length
        # Gather payload from initiator memory.
        cost = nic.timing.payload_pcie_ns(length)
        if cost > 0:
            start = nic.sim.now
            yield nic.pcie.claim(cost)
            if nic.sim.probe.dma:
                for hook in nic.sim.probe.dma:
                    hook(nic, length, start)
        data = nic.memory.read(wqe.laddr, length) if length else b""
        if not qp.is_loopback:
            start = nic.sim.now
            sleep = self._wire_ns(qp, length)
            if sleep < 0:
                yield from self._unlinked(qp, ~sleep)
            elif sleep:
                yield sleep
            if nic.sim.probe.wire:
                for hook in nic.sim.probe.wire:
                    hook(nic, rnic, length, start)
            yield timing.rx_process_ns
        peer.pd.validate_remote(wqe.rkey, wqe.raddr, max(1, length),
                                AccessFlags.REMOTE_WRITE)
        # Posted DMA write of the payload into responder memory.
        probe = rnic.sim.probe
        if timing.dma_posted_ns > 0:
            start = rnic.sim.now
            yield timing.dma_posted_ns
            if probe.dma_txn:
                for hook in probe.dma_txn:
                    hook(rnic, "posted", start)
        cost = timing.payload_pcie_ns(length)
        if cost > 0:
            start = rnic.sim.now
            yield rnic.pcie.claim(cost)
            if probe.dma:
                for hook in probe.dma:
                    hook(rnic, length, start)
        if length:
            rnic.memory.write(wqe.raddr, data)
        immediate = 0
        if wqe.opcode == Opcode.WRITE_IMM:
            immediate = wqe.operand0
            yield from self._consume_recv(peer, payload=None,
                                          byte_len=length,
                                          immediate=immediate)
        if not peer.is_loopback:  # ack
            start = rnic.sim.now
            sleep = self._wire_ns(peer, 0)
            if sleep < 0:
                yield from self._unlinked(peer, ~sleep)
            elif sleep:
                yield sleep
            if probe.wire:
                for hook in probe.wire:
                    hook(rnic, nic, 0, start)
        return (length, immediate)

    def _read(self, qp: QueuePair, wqe: Wqe) -> Generator:
        nic = qp.nic
        peer = qp.peer
        rnic = peer.nic
        timing = rnic.timing
        length = wqe.length
        probe = rnic.sim.probe
        if not qp.is_loopback:  # request
            start = nic.sim.now
            sleep = self._wire_ns(qp, 0)
            if sleep < 0:
                yield from self._unlinked(qp, ~sleep)
            elif sleep:
                yield sleep
            if nic.sim.probe.wire:
                for hook in nic.sim.probe.wire:
                    hook(nic, rnic, 0, start)
            yield timing.rx_process_ns
        peer.pd.validate_remote(wqe.rkey, wqe.raddr, max(1, length),
                                AccessFlags.REMOTE_READ)
        # Non-posted DMA read on the responder.
        if timing.dma_nonposted_ns > 0:
            start = rnic.sim.now
            yield timing.dma_nonposted_ns
            if probe.dma_txn:
                for hook in probe.dma_txn:
                    hook(rnic, "nonposted", start)
        cost = timing.payload_pcie_ns(length)
        if cost > 0:
            start = rnic.sim.now
            yield rnic.pcie.claim(cost)
            if probe.dma:
                for hook in probe.dma:
                    hook(rnic, length, start)
        data = rnic.memory.read(wqe.raddr, length) if length else b""
        if not peer.is_loopback:  # response
            start = rnic.sim.now
            sleep = self._wire_ns(peer, length)
            if sleep < 0:
                yield from self._unlinked(peer, ~sleep)
            elif sleep:
                yield sleep
            if probe.wire:
                for hook in probe.wire:
                    hook(rnic, nic, length, start)
        # Scatter into initiator memory (possibly across several WQEs).
        # The scatter is a posted write whose latency overlaps with CQE
        # delivery, so only its PCIe bandwidth share is charged here.
        cost = nic.timing.payload_pcie_ns(length)
        if cost > 0:
            start = nic.sim.now
            yield nic.pcie.claim(cost)
            if nic.sim.probe.dma:
                for hook in nic.sim.probe.dma:
                    hook(nic, length, start)
        written = self._scatter_bytes(nic, data, wqe.sges, wqe.laddr,
                                      length)
        return (written, 0)

    def _send(self, qp: QueuePair, wqe: Wqe) -> Generator:
        nic = qp.nic
        peer = qp.peer
        yield from self._dma_in(nic, wqe.length)
        data = nic.memory.read(wqe.laddr, wqe.length) if wqe.length else b""
        yield from self._traverse(qp, wqe.length)
        if not qp.is_loopback:
            yield peer.nic.timing.rx_process_ns
        byte_len = yield from self._consume_recv(
            peer, payload=data, byte_len=len(data), immediate=0)
        yield from self._traverse(peer, 0)  # ack
        return (byte_len, 0)

    def _consume_recv(self, peer: QueuePair, payload: Optional[bytes],
                      byte_len: int, immediate: int) -> Generator:
        """Consume the next RECV WQE at the responder.

        For SEND the payload is scattered into the RECV's SGE list —
        when those SGEs aim into work-queue memory, this is the
        argument-injection step of a RedN trigger (Fig 3/Fig 9). For
        WRITE_IMM the RECV is consumed for notification only.

        Blocks (like an RNR-retried requester) until a consumable RECV
        exists, which a managed+recycled recv ring can provide forever
        without CPU help.
        """
        rnic = peer.nic
        timing = rnic.timing
        recv_wq = peer.recv_wq
        grant = yield recv_wq.consume_lock.acquire()
        try:
            while recv_wq.consumable_recvs == 0 and not recv_wq.destroyed:
                yield recv_wq.recv_available()
            if recv_wq.destroyed:
                raise QueueError(f"{recv_wq!r} destroyed mid-receive")
            engine = rnic.ports[peer.port_index].fetch_engine
            fetch_grant = yield engine.acquire()
            yield timing.wqe_fetch_ns
            recv_wqe, slots = recv_wq.read_wqe_at_cursor()
            recv_wq.advance_fetch(slots)
            engine.release(fetch_grant)
            if rnic.sim.probe.recv_fetch:
                for hook in rnic.sim.probe.recv_fetch:
                    hook(recv_wq)
        finally:
            recv_wq.consume_lock.release(grant)
        written = byte_len
        if payload is not None:
            yield from self._dma_txn(rnic, "posted",
                                     timing.dma_posted_ns)
            yield from self._dma_in(rnic, len(payload))
            written = self._scatter_bytes(
                rnic, payload, recv_wqe.sges, recv_wqe.laddr,
                recv_wqe.length)
        cqe = Cqe(wr_id=recv_wqe.wr_id, opcode=Opcode.RECV, status="OK",
                  wq_num=recv_wq.wq_num, byte_len=written,
                  immediate=immediate, timestamp=rnic.sim.now)
        recv_wq.cq.post_completion(cqe, host_delay_ns=timing.cqe_dma_ns)
        return written

    def _atomic(self, qp: QueuePair, wqe: Wqe) -> Generator:
        nic = qp.nic
        peer = qp.peer
        rnic = peer.nic
        timing = rnic.timing
        probe = nic.sim.probe
        if not qp.is_loopback:  # operands travel in the request
            start = nic.sim.now
            sleep = self._wire_ns(qp, 16)
            if sleep < 0:
                yield from self._unlinked(qp, ~sleep)
            elif sleep:
                yield sleep
            if probe.wire:
                for hook in probe.wire:
                    hook(nic, rnic, 16, start)
            yield timing.rx_process_ns
        peer.pd.validate_remote(wqe.rkey, wqe.raddr, 8,
                                AccessFlags.REMOTE_ATOMIC)
        unit = rnic.ports[peer.port_index].atomic_unit
        grant = unit.try_acquire()
        if grant is None:
            grant = yield unit.acquire()
        txn_start = nic.sim.now
        yield timing.atomic_unit_ns
        if wqe.opcode == Opcode.CAS:
            original = rnic.memory.compare_and_swap_u64(
                wqe.raddr, wqe.operand0, wqe.operand1)
        else:
            original = rnic.memory.fetch_add_u64(wqe.raddr, wqe.operand0)
        if probe.atomic:
            for hook in probe.atomic:
                hook(rnic, qp.send_wq.name, wqe, original)
        unit.release(grant)
        # Remaining PCIe-atomic transaction latency happens off-unit.
        remaining = timing.atomic_pcie_ns - timing.atomic_unit_ns
        if remaining > 0:
            yield remaining
        if probe.dma_txn:
            for hook in probe.dma_txn:
                hook(rnic, "atomic", txn_start)
        if not peer.is_loopback:  # original value returns
            start = rnic.sim.now
            sleep = self._wire_ns(peer, 8)
            if sleep < 0:
                yield from self._unlinked(peer, ~sleep)
            elif sleep:
                yield sleep
            if rnic.sim.probe.wire:
                for hook in rnic.sim.probe.wire:
                    hook(rnic, nic, 8, start)
        if wqe.laddr:
            nic.memory.write_u64(wqe.laddr, original)
        return (8, 0)

    def _calc(self, qp: QueuePair, wqe: Wqe) -> Generator:
        """Mellanox vendor calc verbs (MAX/MIN, §3.5 inequality support)."""
        nic = qp.nic
        peer = qp.peer
        rnic = peer.nic
        timing = rnic.timing
        if not rnic.model.supports_calc_verbs:
            raise QueueError(
                f"{rnic.model.name} does not support calc verbs")
        yield from self._traverse(qp, 16)
        if not qp.is_loopback:
            yield timing.rx_process_ns
        peer.pd.validate_remote(wqe.rkey, wqe.raddr, 8,
                                AccessFlags.REMOTE_WRITE
                                | AccessFlags.REMOTE_READ)
        yield from self._dma_txn(
            rnic, "calc", timing.dma_nonposted_ns + timing.calc_alu_ns)
        original = rnic.memory.read_u64(wqe.raddr)
        if wqe.opcode == Opcode.MAX:
            result = max(original, wqe.operand0)
        else:
            result = min(original, wqe.operand0)
        rnic.memory.write_u64(wqe.raddr, result)
        yield from self._traverse(peer, 8)
        if wqe.laddr:
            nic.memory.write_u64(wqe.laddr, original)
        return (8, 0)
