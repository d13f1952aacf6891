"""Simulated host DRAM.

A :class:`HostMemory` is a flat byte-addressable space with an
allocator for carving out buffers (work queues, hash tables, slabs).
Addresses start at a non-zero base so that address 0 can serve as a
null pointer for linked data structures.

Backing: the space is one anonymous private ``mmap``, so a host costs
only the pages its allocations touch; ``size`` is the capacity bound,
not a reservation. Untouched pages read as zeros, like fresh DRAM.

Allocation: a bump pointer over the space, plus per-size free lists of
freed blocks. ``alloc`` takes the most recently freed block of the
exact size (and alignment) first, so block reuse follows the order of
the frees and every run of a simulation repeats exactly. A reused block
is zeroed, so every allocation reads as fresh memory.

Ownership: every allocation is tagged with an *owner* string (process
name). When a process crashes, the OS reclaims its allocations — unless
they were transferred to a "hull parent" (see :mod:`repro.net.failures`
and paper §5.6). Freed ranges are poisoned with 0xDE bytes so that
use-after-free by a still-running RNIC program is loudly wrong rather
than silently stale, mirroring what happens on real hardware when the
OS frees pinned pages.
"""

from __future__ import annotations

import mmap
from bisect import bisect_left, bisect_right
from typing import Dict, List

from .layout import pack_uint, unpack_uint

__all__ = ["HostMemory", "Allocation", "GenerationRange", "MemoryError_",
           "DramExhausted", "NULL_ADDR"]

NULL_ADDR = 0

_POISON = 0xDE


class MemoryError_(Exception):
    """Access outside an allocation or other memory misuse."""


class DramExhausted(MemoryError_):
    """An allocation that does not fit in the memory's capacity."""

    def __init__(self, memory: "HostMemory", size: int, owner: str,
                 label: str):
        self.memory = memory.name
        self.size = size
        self.owner = owner
        self.label = label
        self.capacity = memory.size
        self.live_bytes = memory.live_bytes
        super().__init__(
            f"out of simulated DRAM on {memory.name}: {owner} asked "
            f"{size} bytes for {label!r}; capacity {memory.size}, "
            f"{memory.live_bytes} bytes live")


class Allocation:
    """A live allocation: [addr, addr+size), tagged with its owner."""

    __slots__ = ("addr", "size", "owner", "label", "freed")

    def __init__(self, addr: int, size: int, owner: str, label: str):
        self.addr = addr
        self.size = size
        self.owner = owner
        self.label = label
        self.freed = False

    def __repr__(self) -> str:
        return (f"<Allocation {self.label} [{self.addr:#x},"
                f"{self.addr + self.size:#x}) owner={self.owner}>")

    @property
    def end(self) -> int:
        return self.addr + self.size

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.addr <= addr and addr + length <= self.end


class GenerationRange:
    """Per-chunk write generation counters over one address range.

    Consumers that cache decoded views of memory (the WQE decode cache
    in :class:`repro.nic.queue.WorkQueue`) register their range here;
    every write that overlaps a chunk bumps that chunk's counter, so a
    cached decode is valid exactly when its generation snapshot still
    matches. This is the software analogue of the NIC watching its own
    DMA engine: any store into queue memory invalidates the fetched
    snapshot, no matter which verb or host path issued it.
    """

    __slots__ = ("start", "end", "granularity", "gens")

    def __init__(self, start: int, length: int, granularity: int = 64):
        self.start = start
        self.end = start + length
        self.granularity = granularity
        self.gens: List[int] = [0] * (
            (length + granularity - 1) // granularity)

    def __repr__(self) -> str:
        return (f"<GenerationRange [{self.start:#x},{self.end:#x}) "
                f"/{self.granularity}>")

    def bump(self, lo: int, hi: int) -> None:
        """Bump every chunk overlapping [lo, hi) (pre-clipped bounds)."""
        granularity = self.granularity
        start = self.start
        first = (lo - start) // granularity
        last = (hi - 1 - start) // granularity
        gens = self.gens
        for index in range(first, last + 1):
            gens[index] += 1


class HostMemory:
    """Byte-addressable simulated DRAM with owner-tagged allocations."""

    BASE_ADDR = 0x1000

    def __init__(self, size: int = 64 * 1024 * 1024, name: str = "dram"):
        self.name = name
        self.size = size
        # Pages are committed on first touch: capacity costs nothing.
        self._bytes = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        self._view = memoryview(self._bytes)
        self._next = self.BASE_ADDR
        #: Live allocations by address, in allocation order.
        self._live: Dict[int, Allocation] = {}
        #: Freed blocks by exact size; the last freed is reused first.
        self._free: Dict[int, List[int]] = {}
        self.live_bytes = 0
        # Registered generation ranges, sorted by start (disjoint:
        # registration rejects an overlap).
        self._gen_starts: List[int] = []
        self._gen_ranges: List[GenerationRange] = []
        #: Store observers installed by attached repro.obs consumers
        #: (tracer, flight recorder): each is called as hook(addr,
        #: length) after generations are bumped. ``_trace_hook`` is the
        #: fused dispatch target the write paths check — None (one
        #: pointer check per tracked write) with no observer, the bare
        #: hook with one, a dispatcher with several. Manage it through
        #: :meth:`add_store_hook` / :meth:`remove_store_hook`.
        self._store_hooks: List = []
        self._trace_hook = None

    def add_store_hook(self, hook) -> None:
        """Register a store observer: ``hook(addr, length)`` per write."""
        self._store_hooks.append(hook)
        self._refresh_store_dispatch()

    def remove_store_hook(self, hook) -> None:
        """Unregister a store observer installed by :meth:`add_store_hook`."""
        if hook in self._store_hooks:
            self._store_hooks.remove(hook)
        self._refresh_store_dispatch()

    def _refresh_store_dispatch(self) -> None:
        hooks = self._store_hooks
        if not hooks:
            self._trace_hook = None
        elif len(hooks) == 1:
            self._trace_hook = hooks[0]
        else:
            frozen = tuple(hooks)

            def dispatch(addr: int, length: int,
                         _hooks=frozen) -> None:
                for hook in _hooks:
                    hook(addr, length)

            self._trace_hook = dispatch

    def __repr__(self) -> str:
        return (f"<HostMemory {self.name} used="
                f"{self._next - self.BASE_ADDR}/{self.size}>")

    @property
    def high_water(self) -> int:
        """Bytes of address space ever handed out (the bump pointer)."""
        return self._next - self.BASE_ADDR

    @property
    def live_allocations(self) -> int:
        return len(self._live)

    # -- allocation ------------------------------------------------------

    def alloc(self, size: int, owner: str = "kernel", label: str = "",
              align: int = 8) -> Allocation:
        """Allocate ``size`` bytes, ``align``-aligned, owned by ``owner``."""
        if size <= 0:
            raise MemoryError_(f"bad allocation size {size}")
        if align & (align - 1):
            raise MemoryError_(f"alignment {align} is not a power of two")
        addr = self._reuse(size, align)
        if addr is None:
            addr = (self._next + align - 1) & ~(align - 1)
            if addr + size > self.size:
                raise DramExhausted(self, size, owner,
                                    label or f"alloc{addr:#x}")
            self._next = addr + size
        allocation = Allocation(addr, size, owner, label or f"alloc{addr:#x}")
        self._live[addr] = allocation
        self.live_bytes += size
        return allocation

    def _reuse(self, size: int, align: int):
        """Take the last freed ``size``-byte block aligned to ``align``
        and zero it; None when there is none."""
        blocks = self._free.get(size)
        if not blocks:
            return None
        for index in range(len(blocks) - 1, -1, -1):
            addr = blocks[index]
            if not addr & (align - 1):
                del blocks[index]
                # No generation range covers a free block, so zeroing
                # it is invisible to decode caches and store observers.
                self._bytes[addr:addr + size] = bytes(size)
                return addr
        return None

    def free(self, allocation: Allocation) -> None:
        """Poison an allocation and return its block for reuse.

        Generation ranges inside the block are bumped (invalidating any
        decode cached from it), then unregistered with the block.
        """
        if allocation.freed:
            raise MemoryError_(f"double free of {allocation!r}")
        addr, end = allocation.addr, allocation.end
        if self._live.get(addr) is not allocation:
            raise MemoryError_(f"{allocation!r} is not live in {self.name}")
        allocation.freed = True
        del self._live[addr]
        self.live_bytes -= allocation.size
        self._bytes[addr:end] = bytes([_POISON]) * allocation.size
        if self._gen_starts:
            self._bump_gens(addr, end)
            if self._trace_hook is not None:
                self._trace_hook(addr, allocation.size)
            self._drop_gen_ranges(addr, end)
        self._free.setdefault(allocation.size, []).append(addr)

    def allocations_owned_by(self, owner: str) -> List[Allocation]:
        return [a for a in self._live.values() if a.owner == owner]

    def transfer_ownership(self, allocation: Allocation,
                           new_owner: str) -> None:
        """Re-tag an allocation (the 'empty hull parent' trick, §5.6)."""
        allocation.owner = new_owner

    def reclaim_owner(self, owner: str) -> List[Allocation]:
        """Free everything owned by ``owner`` (OS cleanup after a crash)."""
        reclaimed = self.allocations_owned_by(owner)
        for allocation in reclaimed:
            self.free(allocation)
        return reclaimed

    # -- write-generation tracking ---------------------------------------

    def register_generation_range(self, addr: int, length: int,
                                  granularity: int = 64) -> GenerationRange:
        """Track write generations over [addr, addr+length).

        Every mutation of bytes in the range (write, fill, atomics, free
        poisoning) bumps the generation of each ``granularity``-sized
        chunk it touches. Callers snapshot generations to key caches of
        decoded memory contents.
        """
        self._check(addr, length)
        starts = self._gen_starts
        index = bisect_right(starts, addr)
        end = addr + length
        if (index and self._gen_ranges[index - 1].end > addr) or (
                index < len(starts) and starts[index] < end):
            raise MemoryError_(
                f"generation range [{addr:#x},{end:#x}) overlaps a "
                f"registered range in {self.name}")
        gen_range = GenerationRange(addr, length, granularity)
        starts.insert(index, addr)
        self._gen_ranges.insert(index, gen_range)
        return gen_range

    def _drop_gen_ranges(self, lo: int, hi: int) -> None:
        """Unregister every generation range starting in [lo, hi)."""
        starts = self._gen_starts
        first = bisect_left(starts, lo)
        last = bisect_left(starts, hi, first)
        del starts[first:last]
        del self._gen_ranges[first:last]

    def _bump_gens(self, lo: int, hi: int) -> None:
        """Bump generations of registered chunks overlapping [lo, hi)."""
        starts = self._gen_starts
        index = bisect_right(starts, lo)
        # The range starting at or before lo may contain it.
        if index and self._gen_ranges[index - 1].end > lo:
            index -= 1
        ranges = self._gen_ranges
        count = len(ranges)
        while index < count:
            gen_range = ranges[index]
            start = gen_range.start
            if start >= hi:
                break
            # GenerationRange.bump inlined: single-chunk writes (one WQE
            # slot) are the overwhelmingly common case on the post path.
            granularity = gen_range.granularity
            first = (max(lo, start) - start) // granularity
            last = (min(hi, gen_range.end) - 1 - start) // granularity
            gens = gen_range.gens
            if first == last:
                gens[first] += 1
            else:
                for chunk in range(first, last + 1):
                    gens[chunk] += 1
            index += 1

    # -- raw access ------------------------------------------------------

    def _check(self, addr: int, length: int) -> None:
        if length < 0:
            raise MemoryError_(f"negative access length {length}")
        if addr < self.BASE_ADDR or addr + length > self.size:
            raise MemoryError_(
                f"access [{addr:#x},{addr + length:#x}) outside DRAM")

    def read(self, addr: int, length: int) -> bytes:
        self._check(addr, length)
        # Slicing the memoryview (not the bytearray) makes this one copy
        # instead of two — read() backs every payload gather.
        return bytes(self._view[addr:addr + length])

    def view(self, addr: int, length: int) -> memoryview:
        """Zero-copy read-only window into DRAM.

        Read-only on purpose: all mutations must flow through the write
        APIs so generation counters (and therefore WQE decode caches)
        stay coherent.
        """
        self._check(addr, length)
        return self._view[addr:addr + length].toreadonly()

    def write(self, addr: int, data: bytes) -> None:
        length = len(data)
        if addr < self.BASE_ADDR or addr + length > self.size:
            raise MemoryError_(
                f"access [{addr:#x},{addr + length:#x}) outside DRAM")
        self._bytes[addr:addr + length] = data
        if self._gen_starts:
            self._bump_gens(addr, addr + length)
            if self._trace_hook is not None:
                self._trace_hook(addr, length)

    def zero(self, addr: int, length: int) -> None:
        """Zero ``[addr, addr+length)`` unobserved: no generation bump,
        no store hook. For a recycled ring whose observers were told
        its old tenant is gone (:meth:`repro.nic.queue.WorkQueue.reset`);
        every other mutation goes through :meth:`write`/:meth:`fill`."""
        self._check(addr, length)
        self._bytes[addr:addr + length] = bytes(length)

    def read_uint(self, addr: int, width: int) -> int:
        self._check(addr, width)
        return int.from_bytes(self._view[addr:addr + width], "big")

    def write_uint(self, addr: int, value: int, width: int) -> None:
        self.write(addr, pack_uint(value, width))

    def read_u64(self, addr: int) -> int:
        if addr < self.BASE_ADDR or addr + 8 > self.size:
            raise MemoryError_(
                f"access [{addr:#x},{addr + 8:#x}) outside DRAM")
        return int.from_bytes(self._view[addr:addr + 8], "big")

    def write_u64(self, addr: int, value: int) -> None:
        if addr < self.BASE_ADDR or addr + 8 > self.size:
            raise MemoryError_(
                f"access [{addr:#x},{addr + 8:#x}) outside DRAM")
        try:
            self._bytes[addr:addr + 8] = value.to_bytes(8, "big")
        except OverflowError:
            raise ValueError(
                f"value {value:#x} does not fit in 8 bytes") from None
        if self._gen_starts:
            self._bump_gens(addr, addr + 8)
            if self._trace_hook is not None:
                self._trace_hook(addr, 8)

    def fill(self, addr: int, length: int, byte: int = 0) -> None:
        self._check(addr, length)
        self._bytes[addr:addr + length] = bytes([byte]) * length
        if self._gen_starts:
            self._bump_gens(addr, addr + length)
            if self._trace_hook is not None:
                self._trace_hook(addr, length)

    def compare_and_swap_u64(self, addr: int, expected: int,
                             desired: int) -> int:
        """Atomic 64-bit CAS; returns the *original* value (RDMA CAS
        semantics: the original value is returned to the initiator)."""
        original = self.read_u64(addr)
        if original == expected:
            self.write_u64(addr, desired)
        return original

    def fetch_add_u64(self, addr: int, delta: int) -> int:
        """Atomic 64-bit fetch-and-add (wraps modulo 2^64)."""
        original = self.read_u64(addr)
        self.write_u64(addr, (original + delta) & ((1 << 64) - 1))
        return original
