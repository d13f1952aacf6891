"""Singly-linked key-value list over registered memory (§5.3).

Node layout (:data:`LIST_NODE`) is WQE-compatible like the bucket
record, plus a big-endian ``next`` pointer at offset 18 so a single
READ of ``[key|valptr|vlen|next]`` can scatter the first 18 bytes into
a response template and the last 8 into the *next iteration's* READ
target — the steering trick of Fig 12.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..memory.dram import Allocation, HostMemory, NULL_ADDR
from .records import LIST_NODE, LIST_NODE_SIZE, check_key
from .slab import SlabStore

__all__ = ["LinkedList", "ListError"]


class ListError(Exception):
    """Node-region exhaustion or malformed list operations."""


class LinkedList:
    """Append-ordered singly-linked list with by-pointer values."""

    def __init__(self, memory: HostMemory, region: Allocation,
                 slab: SlabStore):
        self.memory = memory
        self.region = region
        self.slab = slab
        self._cursor = region.addr
        self.head = NULL_ADDR
        self.tail = NULL_ADDR
        self.length = 0

    def __repr__(self) -> str:
        return f"<LinkedList len={self.length} head={self.head:#x}>"

    def _alloc_node(self) -> int:
        addr = self._cursor
        if addr + LIST_NODE_SIZE > self.region.end:
            raise ListError("node region exhausted")
        self._cursor += LIST_NODE_SIZE
        return addr

    def append(self, key: int, value: bytes) -> int:
        """Append a node; returns its address."""
        check_key(key)
        valptr, vlen = self.slab.store(value)
        addr = self._alloc_node()
        self.memory.write(addr, bytes(LIST_NODE.pack(
            key=key, valptr=valptr, vlen=vlen, next=NULL_ADDR)))
        if self.head == NULL_ADDR:
            self.head = addr
        else:
            LIST_NODE.pack_into(self._node_buf(self.tail), 0, "next", addr)
            self._flush_node(self.tail)
        self.tail = addr
        self.length += 1
        return addr

    # Read-modify-write helpers keeping bytes authoritative.

    def _node_buf(self, addr: int) -> bytearray:
        if not hasattr(self, "_buf_cache"):
            self._buf_cache = {}
        buf = bytearray(self.memory.read(addr, LIST_NODE_SIZE))
        self._buf_cache[addr] = buf
        return buf

    def _flush_node(self, addr: int) -> None:
        self.memory.write(addr, bytes(self._buf_cache.pop(addr)))

    def node(self, addr: int) -> dict:
        return LIST_NODE.unpack(self.memory.read(addr, LIST_NODE_SIZE))

    def nodes(self) -> List[Tuple[int, dict]]:
        """(addr, record) pairs in list order."""
        result = []
        addr = self.head
        while addr != NULL_ADDR:
            record = self.node(addr)
            result.append((addr, record))
            addr = record["next"]
        return result

    def find(self, key: int) -> Optional[bytes]:
        """Host-side traversal (the two-sided baseline's work)."""
        addr = self.head
        hops = 0
        while addr != NULL_ADDR:
            record = self.node(addr)
            if record["key"] == key:
                return self.slab.fetch(record["valptr"], record["vlen"])
            addr = record["next"]
            hops += 1
            if hops > self.length:
                raise ListError("cycle detected")
        return None

    def position_of(self, key: int) -> Optional[int]:
        """1-based position of a key (how many READs a traversal costs)."""
        for position, (_addr, record) in enumerate(self.nodes(), start=1):
            if record["key"] == key:
                return position
        return None
