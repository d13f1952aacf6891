"""The simulated evaluation testbed (paper §5, "Testbed").

Three dual-socket servers — 16 cores, 128 GB DRAM, 100 Gb/s ConnectX-5
— connected back-to-back. ``Testbed`` assembles the simulated
equivalent and provides the conveniences every benchmark needs: client
protection domains, verbs contexts, and process drivers.
"""

from __future__ import annotations

from typing import List, Optional

from ..ibv.api import VerbsContext
from ..memory.region import ProtectionDomain
from ..net.fabric import Fabric
from ..net.node import Host
from ..nic.models import CONNECTX5, DeviceModel
from ..sim.core import Simulator
from ..sim.rand import DEFAULT_SEED, SeededStreams

__all__ = ["Testbed"]


class Testbed:
    """server + N client hosts on back-to-back links."""

    __test__ = False   # not a pytest collectable despite the name

    def __init__(self, num_clients: int = 2, seed: int = DEFAULT_SEED,
                 model: DeviceModel = CONNECTX5, num_cores: int = 16,
                 nic_ports: int = 1, sim: Optional[Simulator] = None):
        # A bed normally owns its simulator; pass ``sim`` to mount the
        # bed on an existing one — e.g. a shard of a
        # :class:`repro.sim.sharded.ShardedSimulation` cluster.
        self.sim = sim if sim is not None else Simulator()
        self.streams = SeededStreams(seed)
        self.server = Host(self.sim, "server", model=model,
                           num_cores=num_cores,
                           nic_ports=nic_ports, streams=self.streams)
        self.clients: List[Host] = []
        self.fabric = Fabric(self.sim)
        for index in range(num_clients):
            client = Host(self.sim, f"client{index}", model=model,
                          num_cores=num_cores, streams=self.streams)
            self.fabric.connect(self.server.nic, client.nic)
            self.clients.append(client)
        self._client_pds = {}

    def client_pd(self, index: int = 0) -> ProtectionDomain:
        if index not in self._client_pds:
            self._client_pds[index] = ProtectionDomain(
                self.clients[index].memory, name=f"client{index}-pd")
        return self._client_pds[index]

    def client_verbs(self, index: int = 0, **kwargs) -> VerbsContext:
        return VerbsContext(self.sim, cpu=self.clients[index].cpu,
                            name=f"client{index}-verbs", **kwargs)

    def run(self, generator, until: Optional[int] = None):
        return self.sim.run_process(generator, until=until)
