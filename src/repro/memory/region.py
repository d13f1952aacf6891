"""Memory registration: protection domains, regions and keys.

Before an RNIC may touch host memory, the memory must be *registered*,
yielding local/remote keys (lkey/rkey). RedN registers two kinds of
regions (paper §3.5, "Offload setup"):

* **code regions** — the WQ ring buffers themselves, registered so that
  RDMA verbs can self-modify the posted program;
* **data regions** — application data (hash tables, values).

Key checking matters for the paper's security argument: clients trigger
offloads with two-sided SENDs and never hold keys to server memory; only
the server's own posted program (which holds the keys) touches data.
"""

from __future__ import annotations

import itertools
from typing import Dict, List

from .dram import Allocation, HostMemory

__all__ = [
    "AccessFlags",
    "MemoryRegion",
    "ProtectionDomain",
    "ProtectionError",
]


class ProtectionError(Exception):
    """RDMA access that fails key or bounds validation."""


class AccessFlags:
    """Bitmask of region access permissions (libibverbs-style)."""

    LOCAL_WRITE = 1 << 0
    REMOTE_READ = 1 << 1
    REMOTE_WRITE = 1 << 2
    REMOTE_ATOMIC = 1 << 3

    ALL = LOCAL_WRITE | REMOTE_READ | REMOTE_WRITE | REMOTE_ATOMIC


class MemoryRegion:
    """A registered range of host memory with an rkey."""

    def __init__(self, pd: "ProtectionDomain", allocation: Allocation,
                 access: int, lkey: int, rkey: int):
        self.pd = pd
        self.allocation = allocation
        self.access = access
        self.lkey = lkey
        self.rkey = rkey
        self.invalidated = False

    def __repr__(self) -> str:
        return (f"<MR rkey={self.rkey:#x} [{self.addr:#x},"
                f"{self.addr + self.length:#x})>")

    @property
    def addr(self) -> int:
        return self.allocation.addr

    @property
    def length(self) -> int:
        return self.allocation.size

    def check(self, addr: int, length: int, need: int) -> None:
        """Validate an access of ``length`` bytes at ``addr``."""
        if self.invalidated or self.allocation.freed:
            raise ProtectionError(f"{self!r} is invalidated")
        if not self.allocation.contains(addr, length):
            raise ProtectionError(
                f"access [{addr:#x},{addr + length:#x}) outside {self!r}")
        if (self.access & need) != need:
            raise ProtectionError(
                f"{self!r} lacks access bits {need:#x} (has {self.access:#x})")


class ProtectionDomain:
    """Groups memory regions and queue pairs of one RDMA consumer."""

    _pd_ids = itertools.count(1)

    def __init__(self, memory: HostMemory, name: str = ""):
        self.memory = memory
        self.pd_id = next(self._pd_ids)
        self.name = name or f"pd{self.pd_id}"
        self._regions_by_rkey: Dict[int, MemoryRegion] = {}
        self._regions_by_allocation: Dict[Allocation, List[MemoryRegion]] = {}
        self._key_counter = itertools.count(0x100)

    def __repr__(self) -> str:
        return f"<PD {self.name} regions={len(self._regions_by_rkey)}>"

    def register(self, allocation: Allocation,
                 access: int = AccessFlags.ALL) -> MemoryRegion:
        """Register an allocation for RDMA access, minting fresh keys."""
        key = next(self._key_counter)
        region = MemoryRegion(self, allocation, access, lkey=key, rkey=key)
        self._regions_by_rkey[region.rkey] = region
        self._regions_by_allocation.setdefault(allocation, []).append(region)
        return region

    def deregister(self, region: MemoryRegion) -> None:
        region.invalidated = True
        if self._regions_by_rkey.pop(region.rkey, None) is not None:
            regions = self._regions_by_allocation[region.allocation]
            regions.remove(region)
            if not regions:
                del self._regions_by_allocation[region.allocation]

    def deregister_allocation(self, allocation: Allocation) -> None:
        """Deregister every region over ``allocation`` (before a free)."""
        for region in list(self._regions_by_allocation.get(allocation, ())):
            self.deregister(region)

    def lookup_rkey(self, rkey: int) -> MemoryRegion:
        region = self._regions_by_rkey.get(rkey)
        if region is None or region.invalidated:
            raise ProtectionError(f"invalid rkey {rkey:#x} in {self!r}")
        return region

    def validate_remote(self, rkey: int, addr: int, length: int,
                        need: int) -> MemoryRegion:
        """rkey + bounds + permission check for an inbound RDMA access."""
        region = self.lookup_rkey(rkey)
        region.check(addr, length, need)
        return region

    def invalidate_all(self) -> None:
        """Drop every region (e.g. owning process died with no hull)."""
        for region in list(self._regions_by_rkey.values()):
            self.deregister(region)
