"""Send-queue drivers: the PU contexts that fetch and execute WQEs.

One :class:`SendQueueDriver` process runs per send queue. Its loop is
the behavioural core of the reproduction:

* **fetch** — WQE *bytes* are read from host memory. Normal queues
  prefetch a batch per DMA; what executes is the snapshot taken at
  fetch time, so modifying a WQE after it was prefetched has no effect
  (the incoherence hazard of §3.1). Managed queues never fetch past
  their ``enabled_count`` and fetch strictly one-by-one — doorbell
  ordering, the mode self-modifying code requires.
* **WAIT** — blocks the queue until a target CQ's completion count
  reaches the WQE's ``wqe_count`` (completion ordering, Fig 2a).
* **ENABLE** — raises a target WQ's fetch limit (Fig 2b); with the
  ENABLE_RELATIVE flag it advances the limit by a delta, which is what
  lets a recycled ring re-arm itself past the producer index (§3.4).
* **data verbs** — occupy the queue's PU for the verb's processing
  time, then run their (possibly remote) data path asynchronously so
  that WQ-ordered chains pipeline; completions are delivered strictly
  in WR order per queue.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, TYPE_CHECKING

from ..memory.dram import MemoryError_
from ..memory.region import ProtectionError
from ..sim.core import Event
from .opcodes import OPCODE_NAMES, Opcode, WrFlags
from .queue import Cqe, QueueError, WorkQueue
from .wqe import Wqe

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .rnic import RNIC

__all__ = ["SendQueueDriver"]


class SendQueueDriver:
    """The execution loop bound to one send queue."""

    def __init__(self, nic: "RNIC", wq: WorkQueue):
        self.nic = nic
        self.wq = wq
        # Fetch-path counters live in the simulator's MetricsRegistry so
        # one snapshot covers every driver (satellite of the obs PR);
        # the returned object is a plain Counter — hot-path cost is
        # identical to the old private Counter.
        self.stats_name = f"nic.{nic.name}.wq.{wq.name}.fetch"
        self.stats = nic.sim.metrics.counter(self.stats_name)
        self._prev_completion: Event = nic.sim.event()
        self._prev_completion.trigger(None)
        self.process = None
        #: Work that may still touch queue memory: the fetch/execute
        #: loop plus one per WR whose data path is in flight. Zero
        #: means quiescent: the loop exited and every fetched WR
        #: retired.
        self.busy = 1
        #: True while blocked in a WAIT verb.
        self.waiting = False
        #: True while the loop waits for fetchable work.
        self.parked = False
        #: The pending :meth:`RNIC.destroy_qps` teardown told when this
        #: driver goes quiescent.
        self.teardown = None
        # Port-derived lookups are fixed once the RNIC adopts the queue;
        # resolved lazily on first use and cached for the hot loop.
        self._pu = None
        self._engine = None

    def start(self) -> None:
        self.process = self.nic.sim.process(
            self._run(), name=f"driver:{self.wq.name}")

    def retire(self) -> None:
        """End a loop still parked in its first wait for work.

        For a queue that never fetched anything: the loop is dropped
        where it waits instead of woken to notice the destroy, so
        nothing is scheduled.
        """
        self.process.abandon()
        self._release()

    def _release(self) -> None:
        self.busy -= 1
        if not self.busy and self.teardown is not None:
            self.teardown.quiet()

    @property
    def idle(self) -> bool:
        """No WR in flight, and the loop parked with nothing fetchable
        or blocked in a WAIT."""
        return self.busy == 1 and (self.waiting or (
            self.parked and not self.wq.fetchable))

    def reset(self) -> None:
        """Serve the idle queue's next tenant (``RNIC.reset_qps``).

        A loop blocked in a WAIT (a stranded early-break control chain)
        is dropped where it waits and a fresh loop started, so that
        WAIT can never wake and run the next tenant's WRs. A parked
        loop is kept. The PU is looked up again, since the queue was
        just assigned one, and the fetch counter family moves to the
        queue's new name, keeping its counts.
        """
        if self.waiting:
            self.process.abandon()
            self.waiting = False
            self.start()
        self._pu = None
        name = f"nic.{self.nic.name}.wq.{self.wq.name}.fetch"
        self.stats = self.nic.sim.metrics.rename(self.stats_name, name)
        self.stats_name = name

    # -- main loop ---------------------------------------------------------

    def _run(self):
        wq = self.wq
        while self.nic.alive and not wq.destroyed:
            if wq.fetchable == 0:
                self.parked = True
                yield wq.work_available()
                self.parked = False
                continue
            batch = yield from self._fetch()
            for wqe, wr_index in batch:
                if wq.destroyed or not self.nic.alive:
                    break
                yield from self._execute(wqe, wr_index)
        self._release()

    # -- fetch path ----------------------------------------------------------

    def _fetch(self) -> List[Tuple[Wqe, int]]:
        timing = self.nic.timing
        wq = self.wq
        engine = self._engine
        if engine is None:
            engine = self._engine = self.nic.port_of(wq).fetch_engine
        sim = self.nic.sim
        if wq.managed:
            # Doorbell ordering: one dependent DMA per WQE. Data verbs
            # hold the engine past the fetch latency (their completion
            # writeback shares the context); WAIT/ENABLE are recognized
            # at fetch time and release immediately — that asymmetry is
            # what separates if-chain and recycled-while throughput.
            grant = engine.try_acquire()
            if grant is None:
                grant = yield engine.acquire()
            fetch_start = sim.now
            yield timing.wqe_fetch_ns
            if wq.destroyed:
                engine.release(grant)
                return []
            cursor = wq._fetch_slot_cursor
            wqe, slots = wq.read_wqe_at_cursor()
            wr_index = wq.fetched_count
            wq.advance_fetch(slots)
            extra_hold = timing.managed_fetch_hold_ns - timing.wqe_fetch_ns
            if extra_hold > 0 and wqe.opcode not in (Opcode.WAIT,
                                                     Opcode.ENABLE):
                # Plain callback, not a process: nothing observes the
                # release other than the engine's FIFO wait queue.
                sim.schedule_at(sim.now + extra_hold, engine.release, grant)
            else:
                engine.release(grant)
            self.stats["fetch_managed"] += 1
            probe = sim.probe
            if probe.fetch_span:
                for hook in probe.fetch_span:
                    hook(self.nic, wq, fetch_start, 1, True)
            if probe.fetch:
                for hook in probe.fetch:
                    hook(wq, wr_index, cursor, slots, wqe,
                         wq._last_decode_cached)
            return [(wqe, wr_index)]

        count = min(wq.fetchable, timing.prefetch_batch)
        grant = engine.try_acquire()
        if grant is None:
            grant = yield engine.acquire()
        fetch_start = sim.now
        hold = timing.batch_fetch_hold_per_wqe_ns * count
        if hold:
            yield hold
        engine.release(grant)
        remaining = timing.wqe_fetch_ns - hold
        if remaining > 0:
            yield remaining
        if wq.destroyed:
            return []
        probe = sim.probe
        fetch_meta = [] if probe.fetch else None
        batch = []
        for _ in range(count):
            if wq.fetchable == 0:
                break
            cursor = wq._fetch_slot_cursor
            wqe, slots = wq.read_wqe_at_cursor()
            wr_index = wq.fetched_count
            wq.advance_fetch(slots)
            batch.append((wqe, wr_index))
            if fetch_meta is not None:
                fetch_meta.append((cursor, slots, wq._last_decode_cached))
        self.stats["fetch_batches"] += 1
        self.stats["fetch_prefetched"] += len(batch)
        if probe.fetch_span:
            for hook in probe.fetch_span:
                hook(self.nic, wq, fetch_start, len(batch), False)
        if fetch_meta is not None:
            for (wqe, wr_index), (cursor, slots, cached) in zip(
                    batch, fetch_meta):
                for hook in probe.fetch:
                    hook(wq, wr_index, cursor, slots, wqe, cached)
        return batch

    # -- execute path -----------------------------------------------------------

    def _execute(self, wqe: Wqe, wr_index: int):
        sim = self.nic.sim
        timing = self.nic.timing
        wq = self.wq
        opcode = wqe.opcode
        exec_start = sim.now
        # Stats are keyed by opcode *name* so Counter dumps read like
        # "WRITE: 512" rather than mixing raw ints with string keys.
        # Only the NIC-level counter bumps: it is the one canonical
        # per-opcode count in the metrics snapshot (the driver used to
        # keep a duplicate that could silently drift).
        op_name = OPCODE_NAMES.get(opcode, f"OP{opcode:#x}")
        nic_stats = self.nic.stats
        nic_stats[op_name] += 1
        nic_stats["total_wrs"] += 1
        probe = sim.probe
        if probe.execute:
            for hook in probe.execute:
                hook(wq, wr_index, wqe)

        if wq.rate_limiter is not None:
            yield from wq.rate_limiter.throttle(1.0)

        if opcode == Opcode.WAIT:
            cq = self.nic.cqs.get(wqe.target)
            if cq is None:
                self._signal(wqe, wr_index, status="BAD_WAIT_TARGET")
                return
            self.waiting = True
            yield cq.wait_for_count(wqe.wqe_count)
            self.waiting = False
            yield timing.wait_check_ns
            if probe.wait:
                for hook in probe.wait:
                    hook(wq, wr_index, wqe, cq, exec_start)
            self._signal_if_requested(wqe, wr_index)
            return

        if opcode == Opcode.ENABLE:
            target = self.nic.wqs.get(wqe.target)
            yield timing.enable_ns
            if target is None or target.destroyed:
                self._signal(wqe, wr_index, status="BAD_ENABLE_TARGET")
                return
            relative = bool(wqe.flags & WrFlags.ENABLE_RELATIVE)
            target.enable(wqe.wqe_count, relative=relative)
            if probe.enable:
                for hook in probe.enable:
                    hook(wq, wr_index, wqe, relative, target)
            self._signal_if_requested(wqe, wr_index)
            return

        if wqe.flags & WrFlags.FENCE:
            yield self._prev_completion

        pu = self._pu
        if pu is None:
            pu = self._pu = self.nic.port_of(wq).pus[wq.pu_index]
        pu_start = sim.now
        yield pu.claim(timing.occupancy(opcode))
        if probe.pu:
            for hook in probe.pu:
                hook(self.nic, wq, opcode, pu_start)

        prev = self._prev_completion
        done = sim.event()
        self._prev_completion = done
        self.busy += 1
        if wq.managed:
            # Doorbell ordering executes run-to-completion: the fetch
            # context is held until the WR finishes, so the next WQE is
            # neither fetched nor executed before this one completes —
            # exactly the consistency self-modifying chains need (§3.1)
            # and why "no latency-hiding is possible" in Fig 8.
            yield from self._complete(wqe, wr_index, prev, done, exec_start)
        else:
            # WQ ordering pipelines: the data path runs asynchronously
            # and completions chain on ``prev`` so CQEs are delivered
            # strictly in WR order. The op takes its first step here,
            # at the instant its PU hold ended.
            sim.start_process(self._complete(wqe, wr_index, prev, done,
                                             exec_start),
                              name=f"op:{self.wq.name}:{wr_index}")

    def _complete(self, wqe: Wqe, wr_index: int, prev: Event, done: Event,
                  exec_start: int):
        status, byte_len, immediate = "OK", 0, 0
        try:
            byte_len, immediate = yield from self.nic.executor.perform(
                self.wq.qp, wqe)
        except ProtectionError:
            status = "PROTECTION_ERROR"
        except MemoryError_:
            status = "MEMORY_ERROR"
        except QueueError:
            status = "QUEUE_ERROR"
        if not prev.triggered:
            yield prev
        if self.nic.sim.probe.done:
            for hook in self.nic.sim.probe.done:
                hook(self.wq, wr_index, wqe, status, byte_len, exec_start)
        if wqe.signaled or status != "OK":
            self._signal(wqe, wr_index, status=status, byte_len=byte_len,
                         immediate=immediate)
        done.trigger(None)
        self._release()

    # -- completion helpers ---------------------------------------------------

    def _signal_if_requested(self, wqe: Wqe, wr_index: int) -> None:
        if wqe.signaled:
            self._signal(wqe, wr_index, status="OK")

    def _signal(self, wqe: Wqe, wr_index: int, status: str,
                byte_len: int = 0, immediate: int = 0) -> None:
        cqe = Cqe(wr_id=wqe.wr_id, opcode=wqe.opcode, status=status,
                  wq_num=self.wq.wq_num, byte_len=byte_len,
                  immediate=immediate, timestamp=self.nic.sim.now)
        self.wq.cq.post_completion(
            cqe, host_delay_ns=self.nic.timing.cqe_dma_ns)
