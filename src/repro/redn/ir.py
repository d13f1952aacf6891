"""RedN IR: a typed intermediate representation of chain programs.

Every RedN construct in this repo used to hand-assemble WQE bytes:
target wiring, WAIT-threshold arithmetic and self-modification
bookkeeping were duplicated across the builder, the loop constructs,
the mov-machine and the offloads. This module is the single vocabulary
they now share — the compiler pipeline is

    builder  →  IR (this module)  →  linker (repro.redn.linker)  →  WQE bytes

and the passes (repro.redn.passes) read the :class:`ChainProgram` the
linker fills. The linker streams: it lowers each op the moment the
builder makes it and appends the op once it is posted, so every op a
program holds is linked.

The IR is *symbolic* where the byte format is positional:

* self-modification targets are ``(wr, field)`` pairs
  (:class:`FieldRef`) instead of raw byte offsets — the linker
  resolves them against ring geometry, and the verifier can reason
  about them (is the target downstream in doorbell order? inside a
  prefetch window? §3.1);
* CAS swap operands that arm templates are :class:`ArmWord` — "the
  live ctrl word of that template", not a magic integer;
* WAIT thresholds may be :class:`SignaledCount` — "every signaled WR
  posted on this queue so far", resolved at link time against the
  queue's monotonic counters (§3.4);
* operands that change from one offload request instance to the next
  are :class:`Symbol` values too — :class:`InstanceIndex` (trigger
  thresholds, response immediates) and :class:`HostValue` (a host
  counter read per instance). Each symbol tells a compiled template
  (:mod:`repro.redn.template`) how to relocate the value it resolved
  to.

Ops record *intent* (arm, inject, restore, count-bump), so the
verifier distinguishes an arming CAS that must land before its target
is fetched from the maintenance ADDs/READs of WQ recycling that
deliberately rewrite upstream, already-executed WRs for the next lap.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from ..ibv.wr import (
    wr_cas,
    wr_enable,
    wr_fetch_add,
    wr_read,
    wr_wait,
    wr_write,
)
from ..nic.opcodes import OPCODE_NAMES, Opcode
from ..nic.wqe import (
    FIELD_CTRL,
    WQE_SLOT_SIZE,
    Wqe,
    ctrl_word,
    field_location,
)
from .program import ChainQueue, ProgramError, WrRef

__all__ = [
    "ChainLintError",
    "FieldRef",
    "ArmWord",
    "Symbol",
    "SignaledCount",
    "WrIndex",
    "InstanceIndex",
    "HostValue",
    "ChainOp",
    "RawOp",
    "TemplateOp",
    "WaitOp",
    "EnableOp",
    "ArmCasOp",
    "InjectReadOp",
    "InjectWriteOp",
    "RestoreOp",
    "CountBumpOp",
    "AimEdge",
    "LoopInfo",
    "ChainProgram",
    "WQE_COUNT_ADD_DELTA",
]

# The wqe_count field occupies the high 32 bits of the u64 at offset 48
# (big-endian), so a 64-bit ADD of ``delta << 32`` increments it without
# disturbing the neighbouring target/num_slots/num_sge bytes — the
# paper's "wqe_count values need to be incremented to match" trick.


def WQE_COUNT_ADD_DELTA(delta: int) -> int:
    """Encode a wqe_count increment as a u64 fetch-add operand."""
    return (delta & 0xFFFFFFFF) << 32


class ChainLintError(ProgramError):
    """A statically detectable chain hazard, naming the offending WR.

    ``wr`` is the :class:`WrRef` (or unlinked :class:`ChainOp`) the
    check fired on; ``check`` is the machine-readable hazard name
    (``upstream-target``, ``prefetch-window``, ``enable-mismatch``,
    ``restore-truncated``, ...).
    """

    def __init__(self, message: str, wr=None, check: str = ""):
        super().__init__(message)
        self.wr = wr
        self.check = check


# ---------------------------------------------------------------------------
# Symbolic values
# ---------------------------------------------------------------------------


def op_of(target) -> Optional["ChainOp"]:
    """The ChainOp behind a target given as an op or a WrRef."""
    if isinstance(target, ChainOp):
        return target
    return getattr(target, "ir_op", None)


def ref_of(target) -> Optional[WrRef]:
    """The WrRef behind a target given as an op or a WrRef."""
    if isinstance(target, ChainOp):
        return target.ref
    if isinstance(target, WrRef):
        return target
    return None


def wr_name(target) -> str:
    """Human name of an op/ref for hazard messages."""
    ref = ref_of(target)
    if ref is not None:
        tag = ref.tag or getattr(op_of(target), "tag", "") or "-"
        return f"{ref.queue.name}[{ref.wr_index}] tag={tag}"
    op = op_of(target)
    if op is not None:
        return f"{op.queue.name}[unlinked] tag={op.tag or '-'}"
    return repr(target)


class FieldRef:
    """A symbolic self-modification target: one field of one WR.

    ``target`` is a :class:`ChainOp` or an already-linked
    :class:`WrRef`; ``field`` is a canonical WQE field name (including
    the virtual ``id``). The linker resolves it to a host address; the
    verifier resolves it to (queue, wr_index, byte span).
    """

    __slots__ = ("target", "field")

    def __init__(self, target, field: str = FIELD_CTRL):
        field_location(field)   # validate the name eagerly
        self.target = target
        self.field = field

    def __repr__(self) -> str:
        return f"<FieldRef {self.field} of {wr_name(self.target)}>"

    @property
    def op(self) -> Optional["ChainOp"]:
        return op_of(self.target)

    @property
    def ref(self) -> Optional[WrRef]:
        return ref_of(self.target)

    @property
    def offset(self) -> int:
        return field_location(self.field)[0]

    @property
    def width(self) -> int:
        return field_location(self.field)[1]

    @property
    def addr(self) -> int:
        ref = self.ref
        if ref is None:
            raise ChainLintError(
                f"{self!r} resolved before its target was linked",
                wr=self.target, check="unlinked-target")
        return ref.field_addr(self.field)

    @property
    def queue(self) -> Optional[ChainQueue]:
        ref = self.ref
        if ref is not None:
            return ref.queue
        op = self.op
        return op.queue if op is not None else None

    @property
    def rkey(self) -> int:
        """The code-region rkey covering the target's ring."""
        queue = self.queue
        if queue is None:
            raise ChainLintError(
                f"{self!r} has no resolvable queue", wr=self.target,
                check="unlinked-target")
        return queue.rkey


class ArmWord:
    """Symbolic CAS swap operand: the live ctrl word of a template."""

    __slots__ = ("target", "wr_id")

    def __init__(self, target, wr_id: int = 0):
        if self._intended(target) is None:
            raise ProgramError(f"{target!r} is not a template")
        self.target = target
        self.wr_id = wr_id

    @staticmethod
    def _intended(target) -> Optional[int]:
        op = op_of(target)
        if isinstance(op, TemplateOp):
            return op.intended
        ref = ref_of(target)
        return getattr(ref, "intended_opcode", None)

    def resolve(self) -> int:
        return ctrl_word(self._intended(self.target), self.wr_id)

    def __repr__(self) -> str:
        return f"<ArmWord id={self.wr_id:#x} of {wr_name(self.target)}>"


class Symbol:
    """A WQE operand the linker resolves when the op posts."""

    __slots__ = ()

    def resolve(self) -> int:
        raise NotImplementedError


def resolve(value) -> int:
    """``value`` itself, or what a :class:`Symbol` resolves to."""
    return value.resolve() if isinstance(value, Symbol) else value


class SignaledCount(Symbol):
    """Symbolic WAIT threshold: a queue's signaled-WR total at link."""

    __slots__ = ("queue", "bias")

    def __init__(self, queue: ChainQueue, bias: int = 0):
        self.queue = queue
        self.bias = bias

    def resolve(self) -> int:
        return self.queue.signaled_posted + self.bias

    def __repr__(self) -> str:
        return f"<SignaledCount of {self.queue.name}{self.bias:+d}>"


class WrIndex(Symbol):
    """Symbolic ENABLE index: "through this WR" (its index + 1)."""

    __slots__ = ("ref",)

    def __init__(self, ref: WrRef):
        self.ref = ref

    def resolve(self) -> int:
        return self.ref.wr_index + 1

    def __repr__(self) -> str:
        return f"<WrIndex through {wr_name(self.ref)}>"


class InstanceIndex(Symbol):
    """An offload request instance's index plus a fixed offset.

    Trigger WAIT thresholds (``instance + 1`` RECV completions) and
    response immediates grow by one per instance; the symbol keeps
    that affine law next to the value.
    """

    __slots__ = ("instance", "offset")

    def __init__(self, instance: int, offset: int = 0):
        self.instance = instance
        self.offset = offset

    def resolve(self) -> int:
        return self.instance + self.offset

    def __repr__(self) -> str:
        return f"<InstanceIndex {self.instance}{self.offset:+d}>"


class HostValue(Symbol):
    """A host counter read once per instance, plus a fixed offset.

    ``read`` is called when the first symbol of a family is made (and
    again by a compiled template before each stamped instance);
    ``+ k`` derives a sibling sharing the same read.
    """

    __slots__ = ("read", "base", "offset")

    def __init__(self, read, offset: int = 0, base: Optional[int] = None):
        self.read = read
        self.base = read() if base is None else base
        self.offset = offset

    def __add__(self, offset: int) -> "HostValue":
        return HostValue(self.read, self.offset + offset, self.base)

    def resolve(self) -> int:
        return self.base + self.offset

    def __repr__(self) -> str:
        return f"<HostValue {self.base}{self.offset:+d}>"


# ---------------------------------------------------------------------------
# Chain ops
# ---------------------------------------------------------------------------


class ChainOp:
    """One WR of a chain program, before and after linking.

    ``ref`` is filled by the linker; ``signal_seq`` records the owning
    queue's signaled-WR total right after this op posted — the number
    a WAIT barrier must reach for this op to have completed.
    """

    kind = "raw"
    __slots__ = ("queue", "tag", "ref", "index", "signal_seq")

    def __init__(self, queue: ChainQueue, tag: str = ""):
        self.queue = queue
        self.tag = tag
        self.ref: Optional[WrRef] = None
        self.index: Optional[int] = None     # position in the program
        self.signal_seq: Optional[int] = None

    @property
    def linked(self) -> bool:
        return self.ref is not None

    def build_wqe(self) -> Wqe:
        """The concrete WQE this op lowers to (linker hook)."""
        raise NotImplementedError

    @property
    def intended_opcode(self) -> int:
        """Opcode for Table 2 cost classification."""
        return self.build_wqe().opcode

    def symbols(self) -> Dict[str, Symbol]:
        """Header fields of the lowered WQE that came from symbols."""
        return {}

    @property
    def wr_name(self) -> str:
        return wr_name(self)

    def __repr__(self) -> str:
        name = OPCODE_NAMES.get(self.intended_opcode, "?")
        return f"<{type(self).__name__} {name} {self.wr_name}>"


class RawOp(ChainOp):
    """A fully concrete WQE (the escape hatch; no symbols)."""

    kind = "raw"
    __slots__ = ("wqe",)

    def __init__(self, queue: ChainQueue, wqe: Wqe, tag: str = ""):
        super().__init__(queue, tag)
        self.wqe = wqe

    def build_wqe(self) -> Wqe:
        return self.wqe

    @property
    def intended_opcode(self) -> int:
        return self.wqe.opcode


class TemplateOp(ChainOp):
    """A disarmed WR: posts as NOOP, carries its intended live verb."""

    kind = "template"
    __slots__ = ("live", "intended", "break_targets")

    def __init__(self, queue: ChainQueue, live: Wqe, tag: str = ""):
        super().__init__(queue, tag)
        if live.opcode == Opcode.NOOP:
            raise ProgramError("template needs a non-NOOP intended opcode")
        self.live = live
        self.intended = live.opcode
        #: Filled by BreakImage: (response, gate) WRs whose slots this
        #: template's armed WRITE overwrites (Fig 6) — exempts the
        #: cross-WQE span from the field-granularity inject checks.
        self.break_targets: Optional[Tuple] = None

    def build_wqe(self) -> Wqe:
        live = self.live
        return Wqe(
            opcode=Opcode.NOOP, wr_id=live.wr_id,
            laddr=live.laddr, length=live.length,
            raddr=live.raddr, flags=live.flags,
            operand0=resolve(live.operand0), operand1=live.operand1,
            wqe_count=live.wqe_count, target=live.target,
            lkey=live.lkey, rkey=live.rkey, sges=live.sges)

    @property
    def intended_opcode(self) -> int:
        return self.intended

    def symbols(self) -> Dict[str, Symbol]:
        # A response template's immediate (operand0) is its only
        # per-instance scalar.
        operand = self.live.operand0
        return {"operand0": operand} if isinstance(operand, Symbol) else {}


class WaitOp(ChainOp):
    """WAIT until a CQ reaches a (possibly symbolic) threshold."""

    kind = "wait"
    __slots__ = ("cq_num", "threshold", "resolved_threshold")

    def __init__(self, queue: ChainQueue, cq, threshold, tag: str = ""):
        super().__init__(queue, tag)
        self.cq_num = cq if isinstance(cq, int) else cq.cq_num
        self.threshold = threshold
        self.resolved_threshold: Optional[int] = (
            threshold if isinstance(threshold, int) else None)

    def build_wqe(self) -> Wqe:
        threshold = resolve(self.threshold)
        self.resolved_threshold = threshold
        return wr_wait(self.cq_num, threshold)

    @property
    def intended_opcode(self) -> int:
        return Opcode.WAIT

    def symbols(self) -> Dict[str, Symbol]:
        threshold = self.threshold
        return ({"wqe_count": threshold}
                if isinstance(threshold, Symbol) else {})


class EnableOp(ChainOp):
    """ENABLE a queue: through a specific WR, or by/to a count."""

    kind = "enable"
    __slots__ = ("target", "count", "relative")

    def __init__(self, queue: ChainQueue, target, count: Optional[int],
                 relative: bool = False, tag: str = ""):
        super().__init__(queue, tag)
        self.target = target      # ChainOp/WrRef (through) or queue-ish
        self.count = count        # None when derived from the target WR
        self.relative = relative

    @property
    def target_wq_num(self) -> int:
        ref = ref_of(self.target)
        if ref is not None:
            return ref.queue.wq_num
        return self.target.wq_num   # ChainQueue or raw WorkQueue

    def resolve_count(self) -> int:
        if self.count is not None:
            return self.count
        ref = ref_of(self.target)
        if ref is None:
            raise ChainLintError(
                f"ENABLE through unlinked WR {self.target!r}",
                wr=self.target, check="unlinked-target")
        return ref.wr_index + 1

    def build_wqe(self) -> Wqe:
        return wr_enable(self.target_wq_num, self.resolve_count(),
                         relative=self.relative)

    @property
    def intended_opcode(self) -> int:
        return Opcode.ENABLE

    def symbols(self) -> Dict[str, Symbol]:
        if self.count is not None:
            return {}
        return {"wqe_count": WrIndex(ref_of(self.target))}


class ArmCasOp(ChainOp):
    """The predicate CAS of §3.3: tests and rewrites a ctrl word.

    ``target`` is the :class:`FieldRef` of the template ctrl word it
    may arm; ``swap`` an :class:`ArmWord` (or literal); ``compare`` a
    literal ctrl word (runtime operand injection overwrites it when
    the construct is data-dependent).
    """

    kind = "arm"
    __slots__ = ("target", "compare", "swap", "result_laddr", "signaled")

    def __init__(self, queue: ChainQueue, target: FieldRef, compare: int,
                 swap, result_laddr: int = 0, signaled: bool = True,
                 tag: str = ""):
        super().__init__(queue, tag)
        self.target = target
        self.compare = compare
        self.swap = swap
        self.result_laddr = result_laddr
        self.signaled = signaled

    def build_wqe(self) -> Wqe:
        swap = self.swap
        if isinstance(swap, ArmWord):
            swap = swap.resolve()
        return wr_cas(self.target, self.target.rkey,
                      compare=self.compare, swap=swap,
                      result_laddr=self.result_laddr,
                      signaled=self.signaled)

    @property
    def intended_opcode(self) -> int:
        return Opcode.CAS


class InjectReadOp(ChainOp):
    """A READ landing remote bytes *onto WQE fields* (Fig 9).

    The local destination is symbolic: ``target`` names the first
    field the record lands on (e.g. ``id``) and ``length`` bytes flow
    from there across the adjacent fields. ``raddr`` is usually 0 —
    injected at runtime by a trigger RECV scatter.
    """

    kind = "inject"
    __slots__ = ("target", "length", "raddr", "rkey", "signaled")

    def __init__(self, queue: ChainQueue, target: FieldRef, length: int,
                 rkey: int, raddr: int = 0, signaled: bool = False,
                 tag: str = ""):
        super().__init__(queue, tag)
        self.target = target
        self.length = length
        self.raddr = raddr
        self.rkey = rkey
        self.signaled = signaled

    def build_wqe(self) -> Wqe:
        return wr_read(self.target, self.length, self.raddr, self.rkey,
                       signaled=self.signaled)

    @property
    def intended_opcode(self) -> int:
        return Opcode.READ


class InjectWriteOp(ChainOp):
    """A WRITE copying a memory cell into a WQE field (Fig 12's R2,
    the mov-machine's address injection).

    ``target`` may be attached *after* posting (the mov-machine posts
    the injector before the WR it patches exists); setup-time wiring
    then pokes the resolved address into this WR's raddr field.
    """

    kind = "inject"
    __slots__ = ("src_addr", "length", "rkey", "signaled", "target")

    def __init__(self, queue: ChainQueue, src_addr: int, rkey: int,
                 length: int = 8, signaled: bool = False,
                 target: Optional[FieldRef] = None, tag: str = ""):
        super().__init__(queue, tag)
        self.src_addr = src_addr
        self.length = length
        self.rkey = rkey
        self.signaled = signaled
        self.target = target

    def build_wqe(self) -> Wqe:
        raddr = 0
        if self.target is not None and self.target.ref is not None:
            raddr = self.target.addr
        return wr_write(self.src_addr, self.length, raddr, self.rkey,
                        signaled=self.signaled)

    @property
    def intended_opcode(self) -> int:
        return Opcode.WRITE


class RestoreOp(ChainOp):
    """A READ rewriting ring bytes back to a shadow template image.

    With ``capture`` set, the pristine image is copied from the
    target's current ring bytes into the shadow cell at link time. The
    shadow region is validated against the target's ring image — a
    short shadow would silently truncate the restore.
    """

    kind = "restore"
    __slots__ = ("target", "offset", "length", "shadow_addr",
                 "shadow_rkey", "capture")

    def __init__(self, queue: ChainQueue, target, offset: int,
                 length: int, shadow_addr: int, shadow_rkey: int,
                 capture: bool = True, tag: str = ""):
        super().__init__(queue, tag)
        self.target = target          # ChainOp or WrRef
        self.offset = offset
        self.length = length
        self.shadow_addr = shadow_addr
        self.shadow_rkey = shadow_rkey
        self.capture = capture
        self.check_shadow()

    def _target_ref(self) -> WrRef:
        ref = ref_of(self.target)
        if ref is None:
            raise ChainLintError(
                f"restore of unlinked {self.target!r}", wr=self.target,
                check="unlinked-target")
        return ref

    def check_shadow(self) -> None:
        """The shadow must match the ring image it restores (§3.4)."""
        image = self._target_ref().wqe.num_slots * WQE_SLOT_SIZE
        name = wr_name(self.target)
        if self.length < 1 or self.offset < 0:
            raise ChainLintError(
                f"restore of {name}: degenerate region "
                f"[{self.offset}, +{self.length})", wr=self.target,
                check="restore-truncated")
        if self.offset + self.length > image:
            raise ChainLintError(
                f"restore of {name}: region [{self.offset}, "
                f"+{self.length}) overruns the {image}-byte ring image",
                wr=self.target, check="restore-overrun")
        if self.offset == 0 and self.length == WQE_SLOT_SIZE \
                and self.length < image:
            raise ChainLintError(
                f"restore of {name}: default one-slot shadow truncates "
                f"the {image}-byte multi-slot ring image",
                wr=self.target, check="restore-truncated")

    def prepare(self) -> None:
        """Linker hook: snapshot the pristine bytes into the shadow."""
        ref = self._target_ref()
        if self.capture:
            image = ref.queue.memory.read(
                ref.slot_addr + self.offset, self.length)
            self.queue.memory.write(self.shadow_addr, image)

    def build_wqe(self) -> Wqe:
        ref = self._target_ref()
        return wr_read(ref.slot_addr + self.offset, self.length,
                       self.shadow_addr, self.shadow_rkey,
                       signaled=False)

    @property
    def intended_opcode(self) -> int:
        return Opcode.READ


class CountBumpOp(ChainOp):
    """The recycling ADD: bump a WAIT's wqe_count by ``delta`` per lap.

    Encodes the §3.4 monotonic-counter trick: wqe_count occupies the
    high 32 bits of the u64 at offset 48, so a 64-bit ADD of
    ``delta << 32`` increments it without disturbing the neighbouring
    target/num_slots bytes.
    """

    kind = "count-bump"
    __slots__ = ("target", "delta", "rkey")

    def __init__(self, queue: ChainQueue, target, delta: int, rkey: int,
                 tag: str = ""):
        super().__init__(queue, tag)
        self.target = target          # the WAIT ChainOp or WrRef
        self.delta = delta
        self.rkey = rkey

    def build_wqe(self) -> Wqe:
        return wr_fetch_add(FieldRef(self.target, "wqe_count"),
                            self.rkey, WQE_COUNT_ADD_DELTA(self.delta),
                            signaled=False)

    @property
    def intended_opcode(self) -> int:
        return Opcode.FETCH_ADD


# ---------------------------------------------------------------------------
# Program container
# ---------------------------------------------------------------------------


@dataclass
class AimEdge:
    """A recorded self-modification wire outside the op's own symbols.

    ``src`` is the modifying WR (op/ref), or None for external writers
    such as trigger RECV scatters; ``dst`` the field written; ``length``
    the bytes deposited there. ``kind``: ``arm`` (the write flips a
    ctrl word), ``inject`` (setup-time poke wiring of a runtime data
    path), ``scatter`` (READ/RECV response scatter onto fields).

    When the wire is a setup-time poke, ``src_field`` (or ``src_sge``)
    names where on ``src`` the target address is deposited; the linker
    applies the poke, record-only edges leave both None.
    """

    src: Optional[object]
    dst: FieldRef
    length: int = 0
    kind: str = "inject"
    src_field: Optional[str] = None
    src_sge: Optional[int] = None

    def __post_init__(self):
        if not self.length:
            self.length = self.dst.width

    def __repr__(self) -> str:
        return (f"<AimEdge {self.kind} {self.length}B -> "
                f"{self.dst.field} of {wr_name(self.dst.target)}>")


@dataclass
class LoopInfo:
    """Recycled-ring metadata for the verifier and reports."""

    ring: ChainQueue
    wait: ChainOp
    restores: List[RestoreOp] = dc_field(default_factory=list)
    ring_wrs: int = 0


class ChainProgram:
    """An ordered chain-op list plus its modification edges."""

    def __init__(self, name: str = "prog"):
        self.name = name
        self.ops: List[ChainOp] = []
        self.edges: List[AimEdge] = []
        self.loops: List[LoopInfo] = []
        # Insertion-ordered set (ChainQueue hashes by identity).
        self._queues: Dict[ChainQueue, None] = {}

    def __repr__(self) -> str:
        return f"<ChainProgram {self.name} ops={len(self.ops)}>"

    def append(self, op: ChainOp) -> ChainOp:
        op.index = len(self.ops)
        self.ops.append(op)
        self._queues[op.queue] = None
        return op

    def add_edge(self, edge: AimEdge) -> AimEdge:
        self.edges.append(edge)
        return edge

    @property
    def queues(self) -> List[ChainQueue]:
        return list(self._queues)

    def queue_by_wq_num(self, wq_num: int) -> Optional[ChainQueue]:
        for queue in self._queues:
            if queue.wq_num == wq_num:
                return queue
        return None

    def op_for(self, target) -> Optional[ChainOp]:
        """The program op behind an op/WrRef, if it belongs here."""
        op = op_of(target)
        if op is not None and op.index is not None \
                and op.index < len(self.ops) and self.ops[op.index] is op:
            return op
        return None

    def ops_tagged(self, prefix: str = "") -> List[ChainOp]:
        if not prefix:
            return list(self.ops)
        return [op for op in self.ops if op.tag.startswith(prefix)]

    def find_slot(self, addr: int) -> Optional[Tuple[ChainOp, int]]:
        """(op, byte offset) of a host address inside a linked WR."""
        for op in self.ops:
            ref = op.ref
            size = ref.wqe.num_slots * WQE_SLOT_SIZE
            if ref.slot_addr <= addr < ref.slot_addr + size:
                return op, addr - ref.slot_addr
        return None
