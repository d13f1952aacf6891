"""Work-queue entry (WQE) byte format.

This layout is the load-bearing wall of the whole reproduction: RedN
programs *are* writes to these bytes. The design follows the two tricks
the paper's programs rely on (Fig 4, Fig 9):

1. **ctrl word**: byte offset 0 holds a big-endian u64 packing
   ``opcode`` (high 16 bits) and ``id`` (low 48 bits). A single 64-bit
   CAS on this word both tests a 48-bit operand stored in ``id`` *and*
   rewrites the opcode — this is exactly the conditional of Fig 4 and
   the source of the 48-bit operand limit in Table 2.

2. **field adjacency**: ``laddr`` (source address) and ``length``
   directly follow the ctrl word. A contiguous RDMA READ of an
   18-byte record ``[key:6 | ptr:8 | len:4]`` aimed at ``base+2``
   therefore lands the key in ``id``, the value pointer in ``laddr``
   and the value length in ``length`` — one READ fully prepares a
   response WRITE (Fig 9). Data structures in :mod:`repro.datastructs`
   use this record layout, which is why their pointers are big-endian
   (the paper's §5.4 Memcached patch).

WQEs occupy one or more 64-byte slots. Slot 0 is the header below;
scatter/gather entries (for RECV sinks and READ response scatter) live
in follow-on slots, four 16-byte SGEs per slot, at most 16 SGEs — the
"RECVs can only perform 16 scatters" limit of §5.3.
"""

from __future__ import annotations

import struct as _struct
from typing import Any, Dict, List, Optional, Tuple

from ..memory.layout import Struct, mask
from .opcodes import OPCODE_NAMES, Opcode, WrFlags

__all__ = [
    "WQE_SLOT_SIZE",
    "MAX_SGE",
    "WQE_HEADER",
    "SGE_STRUCT",
    "Sge",
    "Wqe",
    "ctrl_word",
    "field_location",
    "format_field_diff",
    "split_ctrl",
    "split_run",
    "wqe_field_diff",
    "wqe_slots_needed",
    "FIELD_CTRL",
    "FIELD_ID",
    "FIELD_LADDR",
    "FIELD_LENGTH",
    "FIELD_RADDR",
    "FIELD_FLAGS",
    "FIELD_OPERAND0",
    "FIELD_OPERAND1",
    "FIELD_WQE_COUNT",
]

WQE_SLOT_SIZE = 64
MAX_SGE = 16
SGES_PER_SLOT = 4

ID_BITS = 48
OPCODE_SHIFT = ID_BITS
ID_MASK = mask(ID_BITS)

WQE_HEADER = Struct("wqe", WQE_SLOT_SIZE, [
    ("ctrl", 0, 8),         # opcode:16 | id:48 (see ctrl_word)
    ("laddr", 8, 8),        # local/source address
    ("length", 16, 4),      # payload byte count
    ("raddr", 20, 8),       # remote/target address
    ("flags", 28, 4),       # WrFlags bits
    ("operand0", 32, 8),    # CAS compare / ADD delta / MAX-MIN operand / imm
    ("operand1", 40, 8),    # CAS swap value
    ("wqe_count", 48, 4),   # WAIT/ENABLE: completion count / enable index
    ("target", 52, 2),      # WAIT: CQ number; ENABLE: WQ number
    ("num_slots", 54, 1),   # total 64B slots of this WQE (>=1)
    ("num_sge", 55, 1),     # scatter entries in follow-on slots
    ("lkey", 56, 4),        # local memory key
    ("rkey", 60, 4),        # remote memory key
])

SGE_STRUCT = Struct("sge", 16, [
    ("addr", 0, 8),
    ("length", 8, 4),
    ("lkey", 12, 4),
])

# Compiled codecs mirroring WQE_HEADER / SGE_STRUCT exactly: one C call
# replaces a dozen per-field to_bytes/from_bytes round-trips on the
# fetch and post paths. Field order and widths must match the Struct
# declarations above (checked by the differential codec tests).
_HEADER_CODEC = _struct.Struct(">QQIQIQQIHBBII")
_SGE_CODEC = _struct.Struct(">QII")
assert _HEADER_CODEC.size == WQE_SLOT_SIZE
assert _SGE_CODEC.size == SGE_STRUCT.size
_pack_header = _HEADER_CODEC.pack_into
_unpack_header = _HEADER_CODEC.unpack_from
_pack_sge = _SGE_CODEC.pack_into
_unpack_sge = _SGE_CODEC.unpack_from

# Batch SGE codecs, one per possible count: ">QIIQII..." decodes (and
# encodes) a whole SGE list in a single C call instead of one call per
# entry. An Sge is exactly 16 packed bytes (8+4+4), so ``n`` repeats
# tile the follow-on slots with no padding.
_BATCH_SGE_CODECS = [None] + [
    _struct.Struct(">" + "QII" * n) for n in range(1, MAX_SGE + 1)]
assert all(codec.size == 16 * n
           for n, codec in enumerate(_BATCH_SGE_CODECS) if codec)

# Canonical field names used by self-modifying programs to aim at WQE
# bytes. FIELD_ID addresses only the low 48 bits of the ctrl word
# (offset 2, width 6), which is how a READ deposits a key without
# clobbering the opcode.
FIELD_CTRL = "ctrl"
FIELD_ID = "id"
FIELD_LADDR = "laddr"
FIELD_LENGTH = "length"
FIELD_RADDR = "raddr"
FIELD_FLAGS = "flags"
FIELD_OPERAND0 = "operand0"
FIELD_OPERAND1 = "operand1"
FIELD_WQE_COUNT = "wqe_count"

# (offset, width) for names not directly in the header struct.
_VIRTUAL_FIELDS = {
    FIELD_ID: (2, 6),
}


def field_location(name: str) -> Tuple[int, int]:
    """(offset, width) of a WQE field, including virtual ``id``."""
    if name in _VIRTUAL_FIELDS:
        return _VIRTUAL_FIELDS[name]
    field = WQE_HEADER.fields[name]
    return field.offset, field.width


def wqe_field_diff(old: bytes, new: bytes) -> List[Dict[str, Any]]:
    """Field-level diff between two WQE byte images.

    Slot 0 resolves to :data:`WQE_HEADER` field names with both values
    as integers; follow-on (SGE) slots are reported coarsely with
    ``None`` values. The tracer's race reports and the trace-diff
    engine's typed divergences are both built on this.
    """
    diffs: List[Dict[str, Any]] = []
    for name, field in WQE_HEADER.fields.items():
        lo, hi = field.offset, field.offset + field.width
        before = old[lo:hi]
        after = new[lo:hi]
        if before != after:
            diffs.append({"field": name,
                          "a": int.from_bytes(before, "big"),
                          "b": int.from_bytes(after, "big")})
    for slot in range(1, len(new) // WQE_SLOT_SIZE):
        lo, hi = slot * WQE_SLOT_SIZE, (slot + 1) * WQE_SLOT_SIZE
        if old[lo:hi] != new[lo:hi]:
            diffs.append({"field": f"slot[{slot}]", "a": None, "b": None})
    return diffs


def format_field_diff(diff: Dict[str, Any]) -> str:
    """``operand1: 0xdead -> 0xbeef`` (or ``slot[1] bytes changed``)."""
    if diff["a"] is None:
        return f"{diff['field']} bytes changed"
    return f"{diff['field']}: {diff['a']:#x} -> {diff['b']:#x}"


def ctrl_word(opcode: int, wr_id: int = 0) -> int:
    """Pack opcode and 48-bit id into the ctrl-word u64."""
    if not 0 <= opcode < (1 << 16):
        raise ValueError(f"opcode {opcode:#x} out of range")
    if not 0 <= wr_id <= ID_MASK:
        raise ValueError(f"wr_id {wr_id:#x} exceeds 48 bits")
    return (opcode << OPCODE_SHIFT) | wr_id


def split_ctrl(word: int) -> Tuple[int, int]:
    """Unpack a ctrl-word u64 into (opcode, id)."""
    return word >> OPCODE_SHIFT, word & ID_MASK


def split_run(data) -> List[Tuple[int, int, int]]:
    """``(byte offset, slots, opcode)`` of each WQE in ``data``, encoded
    WQEs back to back (a ring run), read off each header's
    ``num_slots`` and ctrl word without decoding."""
    found, offset, end = [], 0, len(data)
    while offset < end:
        slots = data[offset + 54] or 1  # num_slots, as a fetch reads it
        found.append((offset, slots, data[offset] << 8 | data[offset + 1]))
        offset += slots * WQE_SLOT_SIZE
    return found


def wqe_slots_needed(num_sge: int) -> int:
    """Slots for a WQE carrying ``num_sge`` scatter entries."""
    if not 0 <= num_sge <= MAX_SGE:
        raise ValueError(
            f"num_sge {num_sge} out of range (max {MAX_SGE}, §5.3)")
    extra = (num_sge + SGES_PER_SLOT - 1) // SGES_PER_SLOT
    return 1 + extra


class Sge:
    """A scatter/gather element: a (addr, length, lkey) triple."""

    __slots__ = ("addr", "length", "lkey")

    def __init__(self, addr: int, length: int, lkey: int = 0):
        self.addr = addr
        self.length = length
        self.lkey = lkey

    def __repr__(self) -> str:
        return f"<Sge {self.addr:#x}+{self.length}>"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Sge) and self.addr == other.addr
                and self.length == other.length and self.lkey == other.lkey)


class Wqe:
    """Decoded (or to-be-encoded) view of one work-queue entry.

    This object is a host-side convenience only: the NIC model always
    round-trips through bytes, so anything a self-modifying verb wrote
    into queue memory is faithfully picked up on the next fetch.
    """

    __slots__ = ("opcode", "wr_id", "laddr", "length", "raddr", "flags",
                 "operand0", "operand1", "wqe_count", "target", "lkey",
                 "rkey", "sges")

    def __init__(self, opcode: int = Opcode.NOOP, wr_id: int = 0,
                 laddr: int = 0, length: int = 0, raddr: int = 0,
                 flags: int = WrFlags.NONE, operand0: int = 0,
                 operand1: int = 0, wqe_count: int = 0, target: int = 0,
                 lkey: int = 0, rkey: int = 0,
                 sges: Optional[List[Sge]] = None):
        self.opcode = opcode
        self.wr_id = wr_id
        self.laddr = laddr
        self.length = length
        self.raddr = raddr
        self.flags = flags
        self.operand0 = operand0
        self.operand1 = operand1
        self.wqe_count = wqe_count
        self.target = target
        self.lkey = lkey
        self.rkey = rkey
        self.sges: List[Sge] = list(sges or [])
        if len(self.sges) > MAX_SGE:
            raise ValueError(f"too many SGEs: {len(self.sges)} > {MAX_SGE}")

    def __repr__(self) -> str:
        name = OPCODE_NAMES.get(self.opcode, f"OP{self.opcode:#x}")
        return (f"<Wqe {name} id={self.wr_id:#x} laddr={self.laddr:#x} "
                f"len={self.length} raddr={self.raddr:#x} "
                f"flags={self.flags:#x}>")

    @property
    def num_slots(self) -> int:
        return wqe_slots_needed(len(self.sges))

    @property
    def signaled(self) -> bool:
        return bool(self.flags & WrFlags.SIGNALED)

    # -- byte codec ------------------------------------------------------

    def encode(self) -> bytearray:
        """Serialize to ``num_slots * 64`` bytes."""
        try:
            return self._encode_fast()
        except (OverflowError, _struct.error):
            # A field is negative or too wide; re-run the checked
            # per-field path to raise the descriptive ValueError.
            return self._encode_checked()

    def _encode_fast(self) -> bytearray:
        sges = self.sges
        num_sge = len(sges)
        num_slots = wqe_slots_needed(num_sge)
        buf = bytearray(num_slots * WQE_SLOT_SIZE)
        _pack_header(buf, 0, ctrl_word(self.opcode, self.wr_id),
                     self.laddr, self.length, self.raddr, self.flags,
                     self.operand0, self.operand1, self.wqe_count,
                     self.target, num_slots, num_sge, self.lkey, self.rkey)
        if num_sge:
            flat = []
            for sge in sges:
                flat.append(sge.addr)
                flat.append(sge.length)
                flat.append(sge.lkey)
            _BATCH_SGE_CODECS[num_sge].pack_into(
                buf, WQE_SLOT_SIZE, *flat)
        return buf

    def _encode_checked(self) -> bytearray:
        buf = bytearray(self.num_slots * WQE_SLOT_SIZE)
        header = WQE_HEADER.pack(
            ctrl=ctrl_word(self.opcode, self.wr_id),
            laddr=self.laddr,
            length=self.length,
            raddr=self.raddr,
            flags=self.flags,
            operand0=self.operand0,
            operand1=self.operand1,
            wqe_count=self.wqe_count,
            target=self.target,
            num_slots=self.num_slots,
            num_sge=len(self.sges),
            lkey=self.lkey,
            rkey=self.rkey,
        )
        buf[:WQE_SLOT_SIZE] = header
        for index, sge in enumerate(self.sges):
            base = WQE_SLOT_SIZE + index * SGE_STRUCT.size
            SGE_STRUCT.pack_into(buf, base, "addr", sge.addr)
            SGE_STRUCT.pack_into(buf, base, "length", sge.length)
            SGE_STRUCT.pack_into(buf, base, "lkey", sge.lkey)
        return buf

    @classmethod
    def decode(cls, buf) -> "Wqe":
        """Parse a WQE from bytes or a memoryview (header + SGE slots).

        One pass over precomputed slices, no intermediate dict or byte
        copies — this sits on the NIC fetch path of every simulated WR.
        """
        if not Struct.use_compiled:
            return cls._decode_legacy(buf)
        if len(buf) < WQE_SLOT_SIZE:
            raise ValueError("buffer too short for wqe at offset 0")
        self = cls.__new__(cls)
        (ctrl, self.laddr, self.length, self.raddr, self.flags,
         self.operand0, self.operand1, self.wqe_count, self.target,
         _num_slots, num_sge, self.lkey,
         self.rkey) = _unpack_header(buf, 0)
        self.opcode = ctrl >> OPCODE_SHIFT
        self.wr_id = ctrl & ID_MASK
        sges: List[Sge] = []
        self.sges = sges
        if num_sge:
            if num_sge > MAX_SGE:
                raise ValueError(f"too many SGEs: {num_sge} > {MAX_SGE}")
            base = WQE_SLOT_SIZE
            if len(buf) >= base + 16 * num_sge:
                flat = _BATCH_SGE_CODECS[num_sge].unpack_from(buf, base)
                for index in range(0, 3 * num_sge, 3):
                    sges.append(Sge(flat[index], flat[index + 1],
                                    flat[index + 2]))
            else:
                # Truncated buffer: slices read past the end as zeros,
                # matching how a short DMA leaves SGE slots unwritten.
                from_bytes = int.from_bytes
                for _ in range(num_sge):
                    sges.append(Sge(
                        from_bytes(buf[base:base + 8], "big"),
                        from_bytes(buf[base + 8:base + 12], "big"),
                        from_bytes(buf[base + 12:base + 16], "big")))
                    base += 16
        return self

    @classmethod
    def _decode_legacy(cls, buf: bytes) -> "Wqe":
        """Original dict-building decode (differential-test reference)."""
        fields = WQE_HEADER.unpack(buf, 0)
        opcode, wr_id = split_ctrl(fields["ctrl"])
        num_sge = fields["num_sge"]
        sges = []
        for index in range(num_sge):
            base = WQE_SLOT_SIZE + index * SGE_STRUCT.size
            sges.append(Sge(
                addr=SGE_STRUCT.unpack_field(buf, base, "addr"),
                length=SGE_STRUCT.unpack_field(buf, base, "length"),
                lkey=SGE_STRUCT.unpack_field(buf, base, "lkey"),
            ))
        return cls(
            opcode=opcode, wr_id=wr_id, laddr=fields["laddr"],
            length=fields["length"], raddr=fields["raddr"],
            flags=fields["flags"], operand0=fields["operand0"],
            operand1=fields["operand1"], wqe_count=fields["wqe_count"],
            target=fields["target"], lkey=fields["lkey"],
            rkey=fields["rkey"], sges=sges,
        )
