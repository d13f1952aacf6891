"""Hosts and OS processes.

A :class:`Host` bundles the substrate one paper testbed server has:
DRAM, a ConnectX-5 RNIC, and 16 CPU cores (§5, "Testbed"). On top of
it, :class:`OsProcess` models the OS resource-ownership rules that the
failure-resiliency use case (§5.6) hinges on:

* RDMA resources (queue rings, registered regions) are owned by the
  process that created them. When a process dies, the OS reclaims its
  memory, which *kills any RDMA program using it*.
* Unless — the "empty hull" trick — resources are created by (or
  transferred to) a parent process that merely holds them. Linux does
  not free a crashed child's shared resources while the parent lives,
  so the NIC keeps executing across child restarts.
* A kernel panic halts every thread but leaves memory and the NIC
  alone: RNIC offloads keep serving requests.
"""

from __future__ import annotations

import itertools
from typing import Generator, List, Optional

from ..memory.dram import HostMemory
from ..memory.region import ProtectionDomain
from ..nic.models import CONNECTX5, DeviceModel
from ..nic.qp import QueuePair
from ..nic.rnic import RNIC
from ..sim.core import Process, Simulator
from ..sim.rand import SeededStreams
from .cpu import CpuScheduler

__all__ = ["DRAM_CAPACITY", "Host", "OsProcess"]

#: Every host's simulated DRAM capacity. Pages are committed on first
#: touch, so capacity a run does not use costs nothing.
DRAM_CAPACITY = 512 * 1024 * 1024


class OsProcess:
    """An OS process: an ownership domain for RDMA resources."""

    _pids = itertools.count(100)

    def __init__(self, host: "Host", name: str,
                 parent: Optional["OsProcess"] = None):
        self.host = host
        self.name = name
        self.pid = next(self._pids)
        self.parent = parent
        self.children: List["OsProcess"] = []
        if parent is not None:
            parent.children.append(self)
        self.alive = True
        self.pds: List[ProtectionDomain] = []
        self.qps: List[QueuePair] = []
        self.threads: List[Process] = []

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"<OsProcess {self.name} pid={self.pid} {state}>"

    @property
    def owner_tag(self) -> str:
        """The tag stamped on this process's memory allocations."""
        return f"{self.name}#{self.pid}"

    # -- resource creation --------------------------------------------------

    def create_pd(self) -> ProtectionDomain:
        pd = ProtectionDomain(self.host.memory, name=f"{self.name}-pd")
        self.pds.append(pd)
        return pd

    def create_qp(self, pd: ProtectionDomain, **kwargs) -> QueuePair:
        kwargs.setdefault("owner", self.owner_tag)
        qp = self.host.nic.create_qp(pd, **kwargs)
        self.qps.append(qp)
        return qp

    def create_loopback_pair(self, pd: ProtectionDomain, **kwargs):
        kwargs.setdefault("owner", self.owner_tag)
        pair = self.host.nic.create_loopback_pair(pd, **kwargs)
        self.qps.extend(pair)
        return pair

    def alloc(self, size: int, label: str = "", align: int = 8):
        return self.host.memory.alloc(
            size, owner=self.owner_tag, label=label, align=align)

    def transfer_rdma_resources_to(self, new_owner: "OsProcess") -> None:
        """The hull-parent trick: re-home resources so they survive us."""
        for allocation in self.host.memory.allocations_owned_by(
                self.owner_tag):
            self.host.memory.transfer_ownership(
                allocation, new_owner.owner_tag)
        new_owner.pds.extend(self.pds)
        new_owner.qps.extend(self.qps)
        self.pds, self.qps = [], []

    # -- threads -----------------------------------------------------------

    def start_thread(self, generator: Generator, name: str = "") -> Process:
        proc = self.host.sim.process(
            generator, name=name or f"{self.name}-thread")
        self.threads.append(proc)
        return proc


class Host:
    """One testbed server: DRAM + RNIC + cores + an OS process table."""

    def __init__(self, sim: Simulator, name: str,
                 model: DeviceModel = CONNECTX5, num_cores: int = 16,
                 nic_ports: int = 1,
                 streams: Optional[SeededStreams] = None):
        self.sim = sim
        self.name = name
        self.memory = HostMemory(size=DRAM_CAPACITY, name=f"{name}-dram")
        self.nic = RNIC(sim, self.memory, model=model,
                        name=f"{name}-nic", active_ports=nic_ports)
        self.cpu = CpuScheduler(sim, num_cores=num_cores, name=f"{name}-cpu")
        self.streams = streams or SeededStreams()
        self.processes: List[OsProcess] = []
        self.os_alive = True

    def __repr__(self) -> str:
        return f"<Host {self.name} os={'up' if self.os_alive else 'down'}>"

    def spawn_process(self, name: str,
                      parent: Optional[OsProcess] = None) -> OsProcess:
        process = OsProcess(self, name, parent=parent)
        self.processes.append(process)
        return process

    # -- failure injection (driven by repro.net.failures) --------------------

    def crash_process(self, process: OsProcess) -> None:
        """Kill a process; the OS reclaims whatever it still owns.

        Its QPs are destroyed — any RDMA program running out of them
        terminates, exactly the failure mode §5.6 describes for
        un-hulled Memcached — and everything else it owns is freed and
        poisoned at once. The queue rings follow once the destroyed
        queues are quiescent. Resources previously transferred to a
        live parent are untouched.
        """
        if not process.alive:
            return
        process.alive = False
        for thread in process.threads:
            thread.interrupt("process crash")
        qps, process.qps = process.qps, []
        self.nic.destroy_qps(qps)
        for pd in process.pds:
            pd.invalidate_all()
        self.memory.reclaim_owner(process.owner_tag)

    def kernel_panic(self) -> None:
        """Freeze the OS: threads stop; the NIC and memory live on."""
        self.os_alive = False
        self.cpu.halt()
        for process in self.processes:
            for thread in process.threads:
                thread.interrupt("kernel panic")
