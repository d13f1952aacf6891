"""Simulated host memory: DRAM, registration, and byte-layout codecs."""

from .dram import (
    NULL_ADDR,
    Allocation,
    DramExhausted,
    GenerationRange,
    HostMemory,
    MemoryError_,
)
from .layout import Field, Struct, mask, pack_uint, unpack_uint
from .region import (
    AccessFlags,
    MemoryRegion,
    ProtectionDomain,
    ProtectionError,
)

__all__ = [
    "AccessFlags",
    "Allocation",
    "DramExhausted",
    "Field",
    "GenerationRange",
    "HostMemory",
    "MemoryError_",
    "MemoryRegion",
    "NULL_ADDR",
    "ProtectionDomain",
    "ProtectionError",
    "Struct",
    "mask",
    "pack_uint",
    "unpack_uint",
]
