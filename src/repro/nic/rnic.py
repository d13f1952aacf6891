"""The RNIC device model.

An :class:`RNIC` owns:

* **ports** — each with its own wire (serialization), WQE-fetch engine,
  atomic/concurrency-control unit, and a set of processing units (PUs).
  ConnectX assigns compute per port (§5.1.3): Table 3's single-port
  throughput and Table 4's single-vs-dual-port scaling both come from
  this structure.
* a **PCIe attachment** shared by all ports — the reason dual-port
  64 KB lookups cap at ~190 K ops/s (Table 4: "Dual-port configs are
  limited by ConnectX-5's 16× PCIe 3.0 lanes").
* registries of CQs/WQs/QPs, addressable by number — WAIT and ENABLE
  WQEs name their targets by these numbers.

Every send queue gets a :class:`~repro.nic.processing.SendQueueDriver`
process: the PU-context that fetches WQE bytes from host memory and
executes them. Work queues are statically assigned to PUs round-robin
("each WQ is allocated a single RNIC PU", §3.5) — RedN-Parallel's
speedup comes from spreading chains across WQs, hence PUs.

:meth:`RNIC.destroy_qps` is the one teardown (``ibv_destroy_qp``), for
process death: the QPs' queues leave every registry at once, but their
memory is freed only once nothing can still reach it (see
:class:`_Teardown`). Requests never destroy queues: an offload reuses
its one-shot queue sets through :meth:`RNIC.reset_qps`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Optional

from ..memory.dram import Allocation, HostMemory
from ..memory.region import ProtectionDomain
from ..sim.core import Simulator
from ..sim.resources import Pipe, Resource
from .models import CONNECTX5, DeviceModel
from .processing import SendQueueDriver
from .qp import QueuePair
from .queue import CompletionQueue, QueueError, WorkQueue
from .timing import TimingModel
from .verbs import VerbExecutor
from .wqe import WQE_HEADER

__all__ = ["RNIC", "Port"]


class _QueueNumbers:
    """WQ or CQ numbers, handed out in order and never reused.

    A WAIT/ENABLE names its target in a 16-bit field, so a NIC has at
    most ``LIMIT - 1`` of each. Queues are not created per request:
    offloads reuse their one-shot queue sets (:meth:`RNIC.reset_qps`),
    and only process death destroys queues.
    """

    __slots__ = ("_next",)

    LIMIT = 1 << (8 * WQE_HEADER.field_width("target"))

    def __init__(self):
        self._next = 1

    def take(self) -> int:
        number = self._next
        if number >= self.LIMIT:
            raise QueueError(f"all {self.LIMIT - 1} queue numbers in use")
        self._next = number + 1
        return number


class _Teardown:
    """Memory of destroyed QPs, freed once nothing can still reach it.

    A completion does not mean a queue's memory is quiet: a destroyed
    queue's driver may still be fetching, and a fetched WR's data path
    may still be moving bytes into a ring or reading a buffer. The
    rings and buffers stay allocated (held under the NIC's name, so an
    OS reclaim of their owner cannot free them early) until every
    driver of the destroyed queues has exited with no WR in flight.

    One wait is skipped: a driver whose only unfinished WR is a WAIT
    counts as quiet at once. When that WAIT wakes, its queue is
    destroyed, so the driver exits without fetching, and its
    completion goes to a destroyed CQ: it reaches no memory. (A
    stranded early-break chain's WAIT may only wake requests later.)

    Freeing schedules nothing, so when it happens cannot move
    simulated time.
    """

    __slots__ = ("memory", "allocations", "pending")

    def __init__(self, memory: HostMemory):
        self.memory = memory
        self.allocations: List[Allocation] = []
        # One count held while drivers register; the last quiet() frees.
        self.pending = 1

    def hold(self, allocation: Allocation, holder: str) -> None:
        self.memory.transfer_ownership(allocation, holder)
        self.allocations.append(allocation)

    def wait_for(self, driver: SendQueueDriver) -> None:
        driver.teardown = self
        self.pending += 1

    def quiet(self) -> None:
        self.pending -= 1
        if not self.pending:
            for allocation in self.allocations:
                self.memory.free(allocation)


class Port:
    """One NIC port: wire + fetch engine + atomic unit + PUs."""

    def __init__(self, sim: Simulator, nic: "RNIC", index: int,
                 num_pus: int):
        self.nic = nic
        self.index = index
        self.wire = Pipe(sim, name=f"{nic.name}-p{index}-wire")
        self.fetch_engine = Resource(
            sim, 1, name=f"{nic.name}-p{index}-fetch")
        self.atomic_unit = Resource(
            sim, 1, name=f"{nic.name}-p{index}-atomic")
        self.pus = [Pipe(sim, name=f"{nic.name}-p{index}-pu{i}")
                    for i in range(num_pus)]
        self._next_pu = itertools.cycle(range(num_pus))

    def assign_pu(self) -> int:
        """Round-robin WQ-to-PU assignment (§3.5, Parallelism)."""
        return next(self._next_pu)


class RNIC:
    """A simulated RDMA NIC attached to one host's memory."""

    _instances = itertools.count()

    def __init__(self, sim: Simulator, memory: HostMemory,
                 model: DeviceModel = CONNECTX5, name: str = "",
                 active_ports: Optional[int] = None):
        self.sim = sim
        self.memory = memory
        self.model = model
        self.timing: TimingModel = model.scaled_timing()
        self.name = name or f"rnic{next(self._instances)}"
        ports = active_ports if active_ports is not None else 1
        if not 1 <= ports <= model.num_ports:
            raise ValueError(
                f"{model.name} has {model.num_ports} ports, asked {ports}")
        self.ports: List[Port] = [
            Port(sim, self, i, model.pus_per_port) for i in range(ports)]
        # Host PCIe attachment, shared by every port.
        self.pcie = Pipe(sim, name=f"{self.name}-pcie")

        self.cqs: Dict[int, CompletionQueue] = {}
        self.wqs: Dict[int, WorkQueue] = {}
        self.qps: List[QueuePair] = []
        self._cq_nums = _QueueNumbers()
        self._wq_nums = _QueueNumbers()
        self._drivers: Dict[int, SendQueueDriver] = {}
        self.executor = VerbExecutor(self)
        # A hook the fabric layer installs: (other_nic) -> one-way ns.
        self.link_latency_fn: Optional[Callable[["RNIC"], int]] = None
        #: WR execution counters (by opcode + "total_wrs"). Registered
        #: in the simulator's MetricsRegistry so a metrics snapshot is
        #: the one canonical place these counts appear; still a plain
        #: Counter, so hot-path bumps cost what they always did.
        self.stats = sim.metrics.counter(f"nic.{self.name}.wrs")
        self.alive = True

    def __repr__(self) -> str:
        return (f"<RNIC {self.name} {self.model.name} "
                f"ports={len(self.ports)}>")

    # -- object creation ---------------------------------------------------

    def create_cq(self, name: str = "") -> CompletionQueue:
        cq = CompletionQueue(self.sim, self._cq_nums.take(), name=name)
        self.cqs[cq.cq_num] = cq
        if self.sim.probe.cq_created:
            for hook in self.sim.probe.cq_created:
                hook(self, cq)
        return cq

    def create_wq(self, kind: str, num_slots: int, cq: CompletionQueue,
                  managed: bool = False, owner: str = "kernel",
                  port_index: int = 0, name: str = "") -> WorkQueue:
        if cq.cq_num not in self.cqs:
            raise QueueError(f"{cq!r} does not belong to {self!r}")
        wq = WorkQueue(self.sim, self.memory, self._wq_nums.take(), kind,
                       num_slots, cq, managed=managed, owner=owner,
                       name=name)
        wq.port_index = port_index
        # Only send queues consume a PU context ("each WQ is allocated
        # a single RNIC PU", §3.5); inbound processing is charged on
        # the RX path instead.
        wq.pu_index = (self.ports[port_index].assign_pu()
                       if kind == "send" else 0)
        wq.doorbell_delay_ns = self.timing.doorbell_ns
        wq.doorbell_batch_entry_ns = self.timing.doorbell_batch_entry_ns
        self.wqs[wq.wq_num] = wq
        if self.sim.probe.wq_created:
            for hook in self.sim.probe.wq_created:
                hook(self, wq)
        if kind == "send":
            driver = SendQueueDriver(self, wq)
            self._drivers[wq.wq_num] = driver
            driver.start()
        return wq

    def create_qp(self, pd: ProtectionDomain, send_slots: int = 128,
                  recv_slots: int = 128, managed_send: bool = False,
                  managed_recv: bool = False,
                  send_cq: Optional[CompletionQueue] = None,
                  recv_cq: Optional[CompletionQueue] = None,
                  port_index: int = 0, owner: str = "kernel",
                  name: str = "") -> QueuePair:
        """Create an RC QP (and its CQs, unless supplied)."""
        send_cq = send_cq or self.create_cq(name=f"{name}-scq")
        recv_cq = recv_cq or self.create_cq(name=f"{name}-rcq")
        send_wq = self.create_wq(
            "send", send_slots, send_cq, managed=managed_send,
            owner=owner, port_index=port_index, name=f"{name}-sq")
        recv_wq = self.create_wq(
            "recv", recv_slots, recv_cq, managed=managed_recv,
            owner=owner, port_index=port_index, name=f"{name}-rq")
        qp = QueuePair(self, pd, send_wq, recv_wq, port_index=port_index,
                       name=name)
        self.qps.append(qp)
        return qp

    def create_loopback_pair(self, pd: ProtectionDomain, **kwargs):
        """A connected pair of QPs on this NIC (self-modification path)."""
        name = kwargs.pop("name", "lo")
        qp_a = self.create_qp(pd, name=f"{name}-a", **kwargs)
        qp_b = self.create_qp(pd, name=f"{name}-b", **kwargs)
        qp_a.connect(qp_b)
        return qp_a, qp_b

    # -- topology ------------------------------------------------------------

    def link_latency_to(self, other: "RNIC") -> int:
        """One-way latency to another NIC, in nanoseconds."""
        if other is self:
            return 0
        if self.link_latency_fn is not None:
            return self.link_latency_fn(other)
        return self.timing.network_one_way_ns

    def port_of(self, wq: WorkQueue) -> Port:
        return self.ports[wq.port_index]

    # -- lifecycle -------------------------------------------------------------

    def destroy_qps(self, qps: Iterable[QueuePair]) -> None:
        """Destroy QPs, as ``ibv_destroy_qp`` does, as one teardown.

        Serves process death (:meth:`repro.net.node.Host.crash_process`):
        requests reuse their queues (:meth:`reset_qps`) instead. Each
        QP's send and receive queues and their CQs are destroyed and
        dropped from :attr:`wqs`, :attr:`cqs`, :attr:`qps` and the
        driver table; every MR over a ring is deregistered, so a late
        remote access fails with ``ProtectionError``. The rings are
        freed together once the queues are quiescent
        (:class:`_Teardown`). Keys and queue numbers are never reused.
        """
        teardown = _Teardown(self.memory)
        qps = list(qps)
        dead = set(map(id, qps))
        self.qps = [qp for qp in self.qps if id(qp) not in dead]
        fetch_stats = self.sim.metrics.counter(
            f"nic.{self.name}.retired.fetch")
        for qp in qps:
            for wq in (qp.send_wq, qp.recv_wq):
                driver = self._drivers.pop(wq.wq_num, None)
                if driver is not None:
                    if driver.busy and not (driver.waiting
                                            and driver.busy == 1):
                        teardown.wait_for(driver)
                        if not wq.fetched_count and not wq.fetchable:
                            # Parked since creation: nothing to flush.
                            driver.retire()
                    # Fold the queue's fetch counts into the NIC-wide
                    # family: totals stay, per-queue entries do not pile up.
                    fetch_stats.update(driver.stats)
                    self.sim.metrics.discard(driver.stats_name)
                wq.destroy()
                wq.cq.destroy()
                self.wqs.pop(wq.wq_num, None)
                self.cqs.pop(wq.cq.cq_num, None)
                qp.pd.deregister_allocation(wq.ring)
                teardown.hold(wq.ring, self.name)
        teardown.quiet()

    def qps_idle(self, qps: Iterable[QueuePair]) -> bool:
        """True when nothing of ``qps`` is in flight: no doorbell raise
        scheduled, and every send-queue driver :attr:`idle
        <repro.nic.processing.SendQueueDriver.idle>`."""
        drivers = self._drivers
        for qp in qps:
            for wq in (qp.send_wq, qp.recv_wq):
                if wq.doorbells_pending:
                    return False
                driver = drivers.get(wq.wq_num)
                if driver is not None and not driver.idle:
                    return False
        return True

    def reset_qps(self, qps: Iterable[QueuePair],
                  rename: Callable[[str], str]) -> None:
        """Hand idle QPs (:meth:`qps_idle`) to a new tenant.

        The fixed-ring reuse of a one-shot queue set: each queue keeps
        its number, ring address and keys, and starts over as if just
        created (:meth:`WorkQueue.reset <repro.nic.queue.WorkQueue.reset>`,
        :meth:`CompletionQueue.reset
        <repro.nic.queue.CompletionQueue.reset>`), its QP, queues and
        CQs renamed by ``rename`` for the tenant. Send queues take
        their PUs from the round-robin again, in creation order, as
        fresh queues would. Probe sinks see each queue destroyed, then
        its CQs and itself created again, so no sink keeps state of the
        old tenant.
        """
        probe = self.sim.probe
        for qp in qps:
            qp.name = rename(qp.name)
            wqs = (qp.send_wq, qp.recv_wq)
            for wq in wqs:
                for hook in probe.wq_destroyed:
                    hook(wq)
            for wq in wqs:
                wq.reset(rename(wq.name))
                wq.cq.reset(rename(wq.cq.name))
                if wq.kind == "send":
                    wq.pu_index = self.ports[wq.port_index].assign_pu()
                    self._drivers[wq.wq_num].reset()
            for wq in wqs:
                for hook in probe.cq_created:
                    hook(self, wq.cq)
            for wq in wqs:
                for hook in probe.wq_created:
                    hook(self, wq)
