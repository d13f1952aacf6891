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
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from ..memory.dram import HostMemory
from ..memory.region import ProtectionDomain
from ..sim.core import Simulator
from ..sim.resources import Resource
from .models import CONNECTX5, DeviceModel
from .processing import SendQueueDriver
from .qp import QueuePair
from .queue import CompletionQueue, QueueError, WorkQueue
from .timing import TimingModel
from .verbs import VerbExecutor

__all__ = ["RNIC", "Port"]


class Port:
    """One NIC port: wire + fetch engine + atomic unit + PUs."""

    def __init__(self, sim: Simulator, nic: "RNIC", index: int,
                 num_pus: int):
        self.nic = nic
        self.index = index
        self.wire = Resource(sim, 1, name=f"{nic.name}-p{index}-wire")
        self.fetch_engine = Resource(
            sim, 1, name=f"{nic.name}-p{index}-fetch")
        self.atomic_unit = Resource(
            sim, 1, name=f"{nic.name}-p{index}-atomic")
        self.pus = [Resource(sim, 1, name=f"{nic.name}-p{index}-pu{i}")
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
        self.pcie = Resource(sim, 1, name=f"{self.name}-pcie")

        self.cqs: Dict[int, CompletionQueue] = {}
        self.wqs: Dict[int, WorkQueue] = {}
        self.qps: List[QueuePair] = []
        self._cq_nums = itertools.count(1)
        self._wq_nums = itertools.count(1)
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
        cq = CompletionQueue(self.sim, next(self._cq_nums), name=name)
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
        wq = WorkQueue(self.sim, self.memory, next(self._wq_nums), kind,
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

    def destroy_qp(self, qp: QueuePair) -> None:
        qp.destroy()

    def shutdown(self) -> None:
        """Stop the device (used only by tests; NICs outlive OS crashes)."""
        self.alive = False
        for wq in self.wqs.values():
            wq.destroy()
