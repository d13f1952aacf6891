"""Calibrated timing model for the simulated RNIC.

Every constant below is derived from the paper's own microbenchmarks on
ConnectX-5 (NSDI '22, §5.1), so higher-level results reproduce the same
cost *structure* the authors measured rather than numbers we invented:

* Fig 7 — single-verb latencies at 64B IO: NOOP 1.21 µs remote /
  ~0.96 µs loopback (network ≈ 0.25 µs RTT), WRITE 1.6 µs (posted PCIe),
  READ/CAS/ADD ≈ 1.8 µs (non-posted PCIe round trip), MAX ≈ 1.85 µs.
* Fig 8 — chain overheads per extra verb: +0.17 µs (WQ order, amortized
  prefetch), +0.19 µs (completion order), +0.54 µs (doorbell order:
  one-by-one WQE fetches, no latency hiding).
* Table 3 — single-port throughput: WRITE 63 M/s, READ 65 M/s across
  8 PUs (≈ 125 ns PU occupancy per verb), CAS 8.4 M/s (serialized on a
  per-port atomic/concurrency-control unit, "memory synchronization
  across PCIe"), MAX 63 M/s.
* Table 4 — hash-lookup bottlenecks: 500 K/s per port at small IO (the
  doorbell-order fetch path saturates the port's WQE-fetch DMA engine),
  92 Gb/s InfiniBand wire limit at 64 KB, and a PCIe 3.0 x16 ceiling
  (~12.6 GB/s) shared by both ports.

Decomposition used to fit Fig 7 (remote NOOP):

    doorbell MMIO (250) + WQE fetch (350) + PU processing (170)
      + CQE DMA write (190) = 960 ns loopback; + network RTT (250)
      = 1210 ns remote.

WRITE adds responder-side RX processing + a posted DMA write
(≈ +390 ns → 1.6 µs); READ and atomics add a non-posted PCIe round trip
on the responder (≈ +590/600 ns → 1.8 µs); calc verbs add a small ALU
term on top.

Large payloads: the paper's "ideal" 64 KB READ is ≈ 15.5 µs, which
matches a *store-and-forward* accumulation of responder PCIe DMA, wire
serialization and initiator PCIe DMA (≈ 5.2 µs each) rather than a
cut-through pipeline; we model it the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from .opcodes import Opcode

__all__ = ["TimingModel", "CONNECTX5_TIMING"]

@dataclass(frozen=True)
class TimingModel:
    """All latency/occupancy constants, in nanoseconds (or bytes/ns)."""

    # -- host <-> NIC control path ---------------------------------------
    # The doorbell constant is calibrated together with the host's CQE
    # poll-detect time (~100 ns in repro.ibv): their sum is the ~250 ns
    # host-side overhead in Fig 7's decomposition.
    doorbell_ns: int = 150          # MMIO doorbell write reaching the NIC
    # A batched doorbell (repro.nic.queue.DoorbellBatcher) rings once
    # for N posted WQEs. The single MMIO write still costs
    # ``doorbell_ns``; each WQE beyond the first adds the cost of the
    # device parsing one more producer-index increment out of the
    # coalesced write (the BlueFlame/multi-WQE doorbell idiom). Batched
    # and unbatched drives are therefore timing-visibly different —
    # N*doorbell_ns vs doorbell_ns + (N-1)*entry — while both stay
    # fingerprint-deterministic.
    doorbell_batch_entry_ns: int = 12
    wqe_fetch_ns: int = 350         # non-posted DMA read of WQE bytes
    prefetch_batch: int = 32        # WQEs fetched per DMA in normal mode
                                    # (ConnectX prefetch depth is
                                    # proprietary; 32 reproduces Fig 8's
                                    # WQ/completion-order slopes)
    cqe_dma_ns: int = 190           # posted DMA write of a CQE to host
    wait_check_ns: int = 20         # WAIT bookkeeping when re-armed
    enable_ns: int = 20             # ENABLE bookkeeping

    # -- PU occupancy per verb (drives Table 3 throughput) ---------------
    pu_occupancy_ns: Dict[int, int] = field(default_factory=lambda: {
        Opcode.NOOP: 170,
        Opcode.SEND: 127,
        Opcode.RECV: 127,
        Opcode.WRITE: 127,
        Opcode.WRITE_IMM: 127,
        Opcode.READ: 123,
        Opcode.CAS: 100,
        Opcode.FETCH_ADD: 100,
        Opcode.MAX: 127,
        Opcode.MIN: 127,
        Opcode.WAIT: 20,
        Opcode.ENABLE: 20,
    })

    # -- responder-side costs (fit Fig 7 absolute latencies) -------------
    rx_process_ns: int = 190        # inbound packet processing
    dma_posted_ns: int = 200        # posted PCIe write (WRITE payload)
    dma_nonposted_ns: int = 430     # non-posted PCIe round trip (READ)
    atomic_unit_ns: int = 119       # per-port atomic serialization
                                    # (1/119ns = 8.4 M CAS/s, Table 3)
    atomic_pcie_ns: int = 460       # PCIe atomic transaction round trip
    calc_alu_ns: int = 50           # extra ALU time for MAX/MIN

    # -- fabric -----------------------------------------------------------
    network_one_way_ns: int = 125   # back-to-back IB link (0.25 µs RTT)
    wire_bytes_per_ns: float = 11.5   # ~92 Gb/s effective IB goodput
    pcie_bytes_per_ns: float = 12.6   # PCIe 3.0 x16, shared by both ports
    wire_mtu_overhead_ns: int = 0   # per-packet overhead beyond base

    # -- WQE fetch engine (drives Table 3/4 throughput ceilings) ----------
    # A managed (doorbell-ordered) fetch is a small *dependent* DMA: the
    # NIC holds a fetch context for the full transaction plus the CQE
    # write-back it forces, so concurrent doorbell-ordered chains
    # serialize on the port engine for ``managed_fetch_hold_ns`` each.
    # Batched prefetches pipeline deeply and only charge a per-WQE issue
    # cost. These two constants reproduce the paper's construct
    # throughputs (if 0.7 M/s, recycled while 0.3 M/s, hash lookups
    # 500 K/s per port) while leaving plain verb floods PU-bound.
    # Fig 8's 0.54 µs/verb doorbell-order overhead emerges as
    # max(hold, fetch latency + occupancy + completion) per step. Data
    # verbs hold the engine past the fetch for their completion
    # writeback; WAIT/ENABLE WQEs are recognized at fetch time and
    # release immediately. These two values reproduce the paper's
    # construct throughputs simultaneously: triggered if-chains at
    # ~0.7 M/s, recycled while rings at ~0.3 M/s, and hash lookups at
    # ~500 K/s per port (Tables 3 and 4).
    managed_fetch_hold_ns: int = 550     # engine serialization per
                                         # data-verb WQE fetch + writeback
    batch_fetch_hold_per_wqe_ns: int = 12  # per-WQE share of a batched fetch

    def payload_wire_ns(self, length: int) -> int:
        """Serialization time of ``length`` bytes on the IB wire."""
        if length <= 0:
            return 0
        return int(length / self.wire_bytes_per_ns)

    def payload_pcie_ns(self, length: int) -> int:
        """DMA time of ``length`` bytes across PCIe."""
        if length <= 0:
            return 0
        return int(length / self.pcie_bytes_per_ns)

    def doorbell_batch_ns(self, count: int) -> int:
        """Latency of one doorbell ring covering ``count`` WQEs.

        ``count <= 1`` degenerates to the plain ``doorbell_ns`` — a
        batcher flushing a single WQE is byte- and timing-identical to
        an unbatched post.
        """
        if count <= 1:
            return self.doorbell_ns
        return self.doorbell_ns + (count - 1) * self.doorbell_batch_entry_ns

    def occupancy(self, opcode: int) -> int:
        """PU processing occupancy for a verb."""
        return self.pu_occupancy_ns.get(opcode, 170)

    def with_overrides(self, **kwargs) -> "TimingModel":
        """A copy with some constants replaced (for ablation studies)."""
        return replace(self, **kwargs)


#: The default, paper-calibrated ConnectX-5 model.
CONNECTX5_TIMING = TimingModel()
