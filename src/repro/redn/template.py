"""Compile-once offload templates: stamp request instances from bytes.

An offload posts the same chain shape for every request (§3.5 "Offload
setup"; §3.4's CPU re-posting for unrolled loops); only a few operands
differ. Lowering every instance through ``ProgramBuilder`` → IR →
linker → ``ibv.wr`` → ``Wqe.encode`` repeats the same work and grows
the :class:`~repro.redn.ir.ChainProgram` by one instance per request.
:class:`InstancePoster` instead:

1. builds instance 0 through the IR path with an :class:`ActionRecorder`
   installed as ``ctx.recorder``, capturing its *action list* in order
   — every post (queue, encoded bytes, doorbell or not), setup-time
   poke, prepared-image store and doorbell, plus the pooled one-shot
   :class:`~repro.redn.program.QueueSet` it ran on, if any — and
   compiles it into an :class:`InstanceTemplate` whose varying values
   are *typed relocations*:

   * ring-relative addresses in shared queues (:class:`RingAddr`),
     wrap-aware in the queue's slot-cursor space;
   * per-instance counters: WAIT thresholds and ENABLE indices read off
     a shared queue's monotonic counters (:class:`Counter`), and values
     affine in the instance index (:class:`Instance`, e.g. immediates);
   * host state read once per stamped instance (:class:`Host`);
   * values fixed for a queue set's lifetime (:class:`Local`): addresses
     in its rings and buffers, its keys and queue numbers. A set starts
     every tenant with zeroed counters, so its counters are constants;

   the relocation kind comes from the symbol an op resolved
   (:class:`~repro.redn.ir.Symbol`) or from the WQE field's type (an
   address field is relocated against the rings and buffers the
   instance touched), never from diffing two instances;
2. builds instance 1 through the IR path too and requires the template
   to reproduce its recorded actions byte for byte — a relocation the
   compiler missed raises :class:`~repro.redn.program.ProgramError`
   (so the program still holds the two IR instances ``chain_lint``
   verifies);
3. stamps every later instance. The first stamp on a queue set patches
   the set's :class:`Local` values in once (:class:`_Bound`); a stamp
   then applies only the per-instance relocations. Each contiguous ring
   run of the instance is one memory write and one probe ``post``
   event (:meth:`~repro.nic.queue.WorkQueue.post_run`), and doorbells
   and setup stores follow in recorded order, observed or not. No
   ``ChainOp``, ``WrRef`` or ``AimEdge`` is created, so program size
   is O(1) in requests.

A stamp checks the free slots of every shared queue it posts to before
it writes anything: an instance is posted whole or not at all.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..nic.opcodes import Opcode, WrFlags
from ..nic.queue import QueueError, WorkQueue
from ..nic.wqe import WQE_HEADER, WQE_SLOT_SIZE, Wqe
from .ir import HostValue, InstanceIndex, SignaledCount, Symbol, WrIndex
from .program import (
    ChainQueue,
    ProgramError,
    QueueSet,
    QueueSetPool,
    RednContext,
    WrRef,
)

__all__ = ["ActionRecorder", "InstanceTemplate", "InstancePoster", "Stamp"]

_SGE_BASE = WQE_SLOT_SIZE
_SGE_SIZE = 16
_HEADER_FIELDS = [(name, field.offset, field.width)
                  for name, field in WQE_HEADER.fields.items()]


# ---------------------------------------------------------------------------
# Recording: one instance's host actions, in order
# ---------------------------------------------------------------------------


class ActionRecorder:
    """Collects one instance's actions while it is built through IR.

    Installed as ``ctx.recorder``; the :class:`RednContext`,
    :class:`ChainQueue` and :class:`~repro.redn.program.QueueSetPool`
    primitives call the ``on_*`` hooks. A queue's counters are
    snapshotted the first time the instance touches it, so every
    snapshot is the queue's state at instance start.
    """

    def __init__(self, instance: int, tag: str):
        self.instance = instance
        self.tag = tag
        self.actions: List[list] = []
        self.exports: Dict[str, List[WrRef]] = {}
        #: The pooled one-shot queue set the instance runs on, if any.
        self.qset: Optional[QueueSet] = None
        self._snapshots: Dict[WorkQueue, Tuple[int, int, int]] = {}
        self._chains: Dict[WorkQueue, ChainQueue] = {}
        self._post_of_ref: Dict[int, int] = {}

    def snapshot(self, wq: WorkQueue,
                 chain: Optional[ChainQueue] = None) -> Tuple[int, int, int]:
        """(slot cursor, posted WRs, signaled WRs) at instance start."""
        if chain is not None:
            self._chains.setdefault(wq, chain)
        snap = self._snapshots.get(wq)
        if snap is None:
            chain = self._chains.get(wq)
            snap = (wq._post_slot_cursor, wq.posted_count,
                    chain.signaled_posted if chain is not None else 0)
            self._snapshots[wq] = snap
        return snap

    def chain_of(self, wq: WorkQueue) -> Optional[ChainQueue]:
        return self._chains.get(wq)

    def export(self, name: str, refs: List[WrRef]) -> None:
        """Name posts whose stamped positions the offload needs back."""
        self.exports[name] = list(refs)

    # -- hooks -----------------------------------------------------------

    def on_set(self, qset: QueueSet) -> None:
        if self.qset is not None:
            raise ProgramError(
                f"instance {self.instance} took a second queue set")
        self.qset = qset
        for queue in qset.queues:
            if self.snapshot(queue.wq, queue) != (0, 0, 0):
                raise ProgramError(f"{queue!r} was not reset")

    def on_post(self, wq: WorkQueue, wqe: Wqe, data, doorbell: bool) -> None:
        self.actions.append(["post", wq, wqe, bytes(data), doorbell, None])

    def on_ref(self, ref: WrRef) -> None:
        # The ref of the post just recorded (its IR op is bound later).
        self.actions[-1][5] = ref
        self._post_of_ref[id(ref)] = len(self.actions) - 1

    def on_store(self, addr: int, data: bytes, address: bool = False,
                 source: Optional[int] = None,
                 original: Optional[bytes] = None) -> None:
        self.actions.append(["store", addr, bytes(data), address, source,
                             original])

    def on_doorbell(self, wq: WorkQueue, up_to: Optional[int]) -> None:
        self.snapshot(wq)
        self.actions.append(["doorbell", wq, up_to])

    def post_index(self, ref: WrRef) -> int:
        return self._post_of_ref[id(ref)]


# ---------------------------------------------------------------------------
# Relocations
# ---------------------------------------------------------------------------


class _Env:
    """Per-instance bindings a template's relocations resolve against.

    ``queues[slot]`` is ``[wq, chain, cursor, posted, signaled]`` with
    the counters at instance start; ``qset`` is the bound queue set.
    """

    __slots__ = ("instance", "queues", "qset", "host")

    def __init__(self, instance: int, queues, qset, host):
        self.instance = instance
        self.queues = queues
        self.qset = qset
        self.host = host


class Reloc:
    """A value that varies per instance, patched at ``offset``."""

    __slots__ = ("offset", "width")

    def value(self, env: _Env) -> int:
        raise NotImplementedError

    def place(self, offset: int, width: int) -> "Reloc":
        self.offset = offset
        self.width = width
        return self


class RingAddr(Reloc):
    """An address ``rel_slot`` slots past a shared queue's instance
    start."""

    __slots__ = ("slot", "rel_slot", "byte")

    def __init__(self, slot: int, rel_slot: int, byte: int):
        self.slot = slot
        self.rel_slot = rel_slot
        self.byte = byte

    def value(self, env: _Env) -> int:
        binding = env.queues[self.slot]
        wq = binding[0]
        return (wq.ring.addr
                + (binding[2] + self.rel_slot) % wq.num_slots * WQE_SLOT_SIZE
                + self.byte)

    @property
    def rel_byte(self) -> int:
        return self.rel_slot * WQE_SLOT_SIZE + self.byte


class Local(Reloc):
    """A value of the bound queue set, fixed for the set's lifetime.

    With ``queue`` set: an address ``byte`` into that queue's ring, or
    its ``wq_num``, ``cq_num`` or code-region ``rkey`` (``attr``). With
    ``buffer`` set: an address ``byte`` into that buffer, or its
    ``lkey``/``rkey``.
    """

    __slots__ = ("queue", "buffer", "attr", "byte")

    def __init__(self, queue: Optional[int] = None,
                 buffer: Optional[int] = None, attr: str = "",
                 byte: int = 0):
        self.queue = queue
        self.buffer = buffer
        self.attr = attr
        self.byte = byte

    def value(self, env: _Env) -> int:
        if self.queue is not None:
            queue = env.qset.queues[self.queue]
            if self.attr:
                return getattr(queue, self.attr)
            return queue.wq.ring.addr + self.byte
        allocation, region = env.qset.buffers[self.buffer]
        if self.attr:
            return getattr(region, self.attr)
        return allocation.addr + self.byte


class Counter(Reloc):
    """A shared queue's counter at instance start plus a fixed delta."""

    __slots__ = ("slot", "index", "delta")

    POSTED = 3
    SIGNALED = 4

    def __init__(self, slot: int, index: int, delta: int):
        self.slot = slot
        self.index = index
        self.delta = delta

    def value(self, env: _Env) -> int:
        return env.queues[self.slot][self.index] + self.delta


class Instance(Reloc):
    """The instance index plus a fixed offset."""

    __slots__ = ("delta",)

    def __init__(self, delta: int):
        self.delta = delta

    def value(self, env: _Env) -> int:
        return env.instance + self.delta


class Host(Reloc):
    """A host value read before the instance's first action, plus a
    fixed offset."""

    __slots__ = ("slot", "delta")

    def __init__(self, slot: int, delta: int):
        self.slot = slot
        self.delta = delta

    def value(self, env: _Env) -> int:
        return env.host[self.slot] + self.delta


def _patch(image, relocs, env: _Env):
    """``image`` with ``(offset, width, reloc)`` patches applied."""
    if not relocs:
        return image
    buf = bytearray(image)
    for offset, width, reloc in relocs:
        buf[offset:offset + width] = reloc.value(env).to_bytes(width, "big")
    return buf


def _placed(relocs: List[Reloc]) -> List[tuple]:
    return [(reloc.offset, reloc.width, reloc) for reloc in relocs]


def _value(where, env: _Env) -> int:
    return where if where.__class__ is int else where.value(env)


# ---------------------------------------------------------------------------
# Compiled actions
# ---------------------------------------------------------------------------


class _Post:
    __slots__ = ("slot", "image", "relocs", "doorbell", "slots")

    def __init__(self, slot, image, relocs, doorbell):
        self.slot = slot
        self.image = image
        self.relocs = relocs
        self.doorbell = doorbell
        self.slots = len(image) // WQE_SLOT_SIZE

    def render(self, env: _Env):
        return ("post", env.queues[self.slot][0],
                _patch(self.image, _placed(self.relocs), env), self.doorbell)


class _Store:
    """A setup-time store; ``source`` set means a patched copy of the
    bytes at that address (re-read when the store is replayed)."""

    __slots__ = ("addr", "image", "relocs", "source", "patches")

    def __init__(self, addr, image, relocs, source=None, patches=()):
        self.addr = addr
        self.image = image
        self.relocs = relocs
        self.source = source
        self.patches = patches

    def render(self, env: _Env, source_bytes=None):
        source = (None if self.source is None
                  else _value(self.source, env))
        return ("store", _value(self.addr, env),
                _store_data(self.image, _placed(self.relocs), self.patches,
                            env, source_bytes), source)


def _store_data(image, relocs, patches, env: _Env, source_bytes):
    """A store's bytes: ``image`` patched, or for a copy, the bytes read
    at its source with the constant ``patches`` applied."""
    if source_bytes is None:
        return _patch(image, relocs, env)
    buf = bytearray(source_bytes)
    for offset, chunk in patches:
        buf[offset:offset + len(chunk)] = chunk
    return buf


class _Doorbell:
    __slots__ = ("slot", "up_to")

    def __init__(self, slot, up_to):
        self.slot = slot
        self.up_to = up_to

    def render(self, env: _Env):
        up_to = None if self.up_to is None else _value(self.up_to, env)
        return ("doorbell", env.queues[self.slot][0], up_to)


# ---------------------------------------------------------------------------
# A template bound to one queue set
# ---------------------------------------------------------------------------

_RUN, _STORE, _RING = range(3)


class _Bound:
    """A template's actions with one queue set's :class:`Local` values
    patched in, as one step list, ``runs``.

    It writes each contiguous ring run once (``post_run``, one probe
    ``post`` event) and rings doorbells with explicit targets. A set
    queue is rung once, where its first doorbell rang, with the highest
    target: all of a stamp's doorbells land at the same instant, back
    to back in the event heap, on a queue whose driver is parked, so
    only the first can wake it and it fetches up to the last either
    way. A stamp leaves the same bytes and generations as the IR path,
    and the same simulated timing; only the order of its same-instant
    posts, ring stores and doorbells differs.
    """

    __slots__ = ("runs",)

    def __init__(self, template: "InstanceTemplate",
                 qset: Optional[QueueSet]):
        env = template._env(0, [], qset)
        self.runs: List = []
        # Per slot: the run being extended ([bytes, relocs, WRs], None
        # once a store closed it), posts so far and slot bytes posted
        # so far; per set queue, its one ring step.
        open_runs: Dict[int, Optional[list]] = {}
        posted: Dict[int, int] = {}
        extent: Dict[int, int] = {}
        rung: Dict[int, list] = {}

        def ring(slot: int, target) -> None:
            if slot >= template._set_queues:
                self.runs.append((_RING, slot, target))
            elif slot in rung:
                rung[slot][2] = max(rung[slot][2], target)
            else:
                rung[slot] = [_RING, slot, target]
                self.runs.append(rung[slot])
        for action in template.actions:
            if isinstance(action, _Post):
                slot = action.slot
                image, relocs = self._fix(action.image, action.relocs, env)
                run = open_runs.get(slot)
                start = extent.get(slot, 0)
                if run is None:
                    run = open_runs[slot] = [bytearray(), [], 0]
                    self.runs.append((_RUN, slot, run))
                run[1].extend((offset + len(run[0]), width, reloc)
                              for offset, width, reloc in relocs)
                run[0] += image
                run[2] += 1
                count = posted[slot] = posted.get(slot, 0) + 1
                extent[slot] = start + action.slots * WQE_SLOT_SIZE
                if action.doorbell:
                    ring(slot, template._count(slot, count))
            elif isinstance(action, _Store):
                addr = _fixed(action.addr, env)
                source = (None if action.source is None
                          else _fixed(action.source, env))
                image, relocs = self._fix(action.image, action.relocs, env)
                self.runs.append((_STORE, addr, image, relocs, source,
                                  action.patches))
                # A store into (or a copy out of) ring bytes a later post
                # of this instance writes would see that post's bytes
                # early in a run written up front: later posts start a
                # new run.
                for where in (action.addr, action.source):
                    hit = _ring_bytes(where)
                    if hit is None:
                        continue
                    slot, rel = hit
                    if (rel + len(action.image) > extent.get(slot, 0)
                            and rel < template._extent(slot)):
                        open_runs[slot] = None
            else:
                slot = action.slot
                if action.up_to is None:
                    target = template._count(slot, posted.get(slot, 0))
                else:
                    target = _fixed(action.up_to, env)
                ring(slot, target)
        self.runs = [(_RUN, step[1], bytes(step[2][0]), step[2][1],
                      step[2][2]) if step[0] is _RUN else tuple(step)
                     for step in self.runs]

    @staticmethod
    def _fix(image: bytes, relocs: List[Reloc], env: _Env):
        """``image`` with the :class:`Local` relocations applied, and
        the per-instance ones left as ``(offset, width, reloc)``."""
        fixed = [reloc for reloc in relocs if isinstance(reloc, Local)]
        rest = [reloc for reloc in relocs if not isinstance(reloc, Local)]
        return bytes(_patch(image, _placed(fixed), env)), _placed(rest)

    def stamp(self, env: _Env, memory) -> None:
        queues = env.queues
        for step in self.runs:
            kind = step[0]
            if kind is _RING:
                queues[step[1]][0].doorbell(up_to=_value(step[2], env))
            elif kind is _RUN:
                _kind, slot, image, relocs, count = step
                queues[slot][0].post_run(_patch(image, relocs, env), count)
            else:
                _kind, addr, image, relocs, source, patches = step
                source_bytes = None
                if source is not None:
                    source_bytes = memory.read(_value(source, env),
                                               len(image))
                memory.write(_value(addr, env), _store_data(
                    image, relocs, patches, env, source_bytes))


def _fixed(where, env: _Env):
    """An address or count with a :class:`Local` resolved to an int."""
    return where.value(env) if isinstance(where, Local) else where


def _ring_bytes(where) -> Optional[Tuple[int, int]]:
    """``(slot, byte offset from instance start)`` of an address in a
    ring the instance posts to, or None."""
    if isinstance(where, RingAddr):
        return where.slot, where.rel_byte
    if isinstance(where, Local) and where.queue is not None \
            and not where.attr:
        return where.queue, where.byte
    return None


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


class Stamp:
    """What one stamped instance ran on: its queue set (None for an
    offload without one), and the ``(wr_index, slot_addr)`` of every
    exported post."""

    __slots__ = ("qset", "exports")

    def __init__(self, qset, exports):
        self.qset = qset
        self.exports = exports


def _set_shape(qset: Optional[QueueSet]):
    if qset is None:
        return None
    return (tuple((queue.managed, queue.wq.num_slots)
                  for queue in qset.queues),
            tuple(allocation.size for allocation, _region in qset.buffers))


class InstanceTemplate:
    """Instance 0's action list with typed relocations."""

    def __init__(self, ctx: RednContext, recorder: ActionRecorder):
        self.ctx = ctx
        self._recorder = recorder
        self._instance = recorder.instance
        self._tag = recorder.tag
        qset = recorder.qset
        self._set = qset
        self._shape = _set_shape(qset)
        #: Queue slots: the set's queues first, in set order, then the
        #: shared queues (bound at every stamp) in the order first seen.
        self._slot_of: Dict[WorkQueue, int] = {}
        self._shared: List[Tuple[WorkQueue, Optional[ChainQueue]]] = []
        if qset is not None:
            for queue in qset.queues:
                self._slot_of[queue.wq] = len(self._slot_of)
        self._set_queues = len(self._slot_of)
        self._host_reads: List[Callable[[], int]] = []
        for action in recorder.actions:
            if action[0] in ("post", "doorbell"):
                self._slot(action[1], recorder.chain_of(action[1]))
        self.actions = [self._compile(action)
                        for action in recorder.actions]
        posts = [action for action in self.actions
                 if isinstance(action, _Post)]
        post_indexes = [index for index, action in enumerate(self.actions)
                        if isinstance(action, _Post)]
        #: Exported posts, as ordinals among the instance's posts.
        self._export_posts = {
            name: [post_indexes.index(recorder.post_index(ref))
                   for ref in refs]
            for name, refs in recorder.exports.items()}
        # Where each post lands: (slot, WR ordinal, slot offset) from
        # its queue's instance start.
        places = []
        counts: Dict[int, int] = {}
        self._need: Dict[int, int] = {}
        self._signaled: Dict[int, int] = {}
        for action in posts:
            slot = action.slot
            places.append((slot, counts.get(slot, 0),
                           self._need.get(slot, 0)))
            counts[slot] = counts.get(slot, 0) + 1
            self._need[slot] = self._need.get(slot, 0) + action.slots
            flags = WQE_HEADER.unpack_field(action.image, 0, "flags")
            if flags & WrFlags.SIGNALED:
                self._signaled[slot] = self._signaled.get(slot, 0) + 1
        self.exports = {name: [places[ordinal] for ordinal in ordinals]
                        for name, ordinals in self._export_posts.items()}
        self._bound: Dict[Optional[QueueSet], _Bound] = {}
        self._recorder = None
        self._set = None

    # -- compile-time classification --------------------------------------

    def _slot(self, wq: WorkQueue, chain: Optional[ChainQueue]) -> int:
        """Slot of ``wq``; a shared queue gets one when first seen."""
        slot = self._slot_of.get(wq)
        if slot is None:
            slot = self._slot_of[wq] = len(self._slot_of)
            self._shared.append((wq, chain))
            self._recorder.snapshot(wq, chain)
        return slot

    def _count(self, slot: int, count: int):
        """A target ``count`` WRs past a queue's instance start."""
        if slot < self._set_queues:
            return count
        return Counter(slot, Counter.POSTED, count)

    def _extent(self, slot: int) -> int:
        """Ring bytes the instance posts on ``slot``."""
        return self._need.get(slot, 0) * WQE_SLOT_SIZE

    def _address(self, value: int) -> Optional[Reloc]:
        """Relocation of a host address the instance's layout moves."""
        if not value:
            return None
        for wq, slot in self._slot_of.items():
            ring = wq.ring
            if ring.addr <= value < ring.addr + ring.size:
                if slot < self._set_queues:
                    return Local(queue=slot, byte=value - ring.addr)
                cursor = self._recorder.snapshot(wq)[0]
                index, byte = divmod(value - ring.addr, WQE_SLOT_SIZE)
                return RingAddr(slot, (index - cursor) % wq.num_slots, byte)
        if self._set is not None:
            for index, (allocation, _region) in enumerate(
                    self._set.buffers):
                if allocation.addr <= value < allocation.end:
                    return Local(buffer=index, byte=value - allocation.addr)
        return None

    def _key(self, value: int, kind: str) -> Optional[Reloc]:
        """Relocation of a memory key naming a queue-set region."""
        if not value or self._set is None:
            return None
        for index, queue in enumerate(self._set.queues):
            if kind == "rkey" and queue.rkey == value:
                return Local(queue=index, attr="rkey")
        for index, (_allocation, region) in enumerate(self._set.buffers):
            if getattr(region, kind) == value:
                return Local(buffer=index, attr=kind)
        return None

    def _number(self, value: int, attr: str) -> Optional[Reloc]:
        """Relocation of a WAIT/ENABLE target naming a queue-set queue."""
        if self._set is None:
            return None
        for index, queue in enumerate(self._set.queues):
            if getattr(queue, attr) == value:
                return Local(queue=index, attr=attr)
        return None

    def _symbol(self, symbol: Symbol, value: int) -> Optional[Reloc]:
        """Relocation of a resolved symbol; None for a constant (a
        counter of the queue set, which every tenant starts at 0)."""
        if isinstance(symbol, (SignaledCount, WrIndex)):
            if isinstance(symbol, SignaledCount):
                queue, index = symbol.queue, Counter.SIGNALED
            else:
                queue, index = symbol.ref.queue, Counter.POSTED
            slot = self._slot(queue.wq, queue)
            if slot < self._set_queues:
                return None
            _cursor, posted, signaled = self._recorder.snapshot(
                queue.wq, queue)
            start = signaled if index == Counter.SIGNALED else posted
            return Counter(slot, index, value - start)
        if isinstance(symbol, InstanceIndex):
            return Instance(value - self._instance)
        if isinstance(symbol, HostValue):
            if symbol.read not in self._host_reads:
                self._host_reads.append(symbol.read)
            return Host(self._host_reads.index(symbol.read),
                        value - symbol.base)
        raise ProgramError(f"no relocation for symbol {symbol!r}")

    def _post_relocs(self, wq: WorkQueue, chain: Optional[ChainQueue],
                     wqe: Wqe, data: bytes,
                     ref: Optional[WrRef]) -> List[Reloc]:
        op = ref.ir_op if ref is not None else None
        symbols = op.symbols() if op is not None else {}
        # A remote address/key names this host's memory only when the
        # WR runs on a loopback QP (chain verbs); a client-facing WR's
        # raddr/rkey belong to the client.
        local_remote = chain is not None and chain.qp.is_loopback
        relocs: List[Reloc] = []
        for name, offset, width in _HEADER_FIELDS:
            value = int.from_bytes(data[offset:offset + width], "big")
            if name in symbols:
                reloc = self._symbol(symbols[name], value)
            elif name == "laddr" or (name == "raddr" and local_remote):
                reloc = self._address(value)
            elif name == "lkey" or (name == "rkey" and local_remote):
                reloc = self._key(value, name)
            elif name == "target" and wqe.opcode == Opcode.WAIT:
                reloc = self._number(value, "cq_num")
            elif name == "target" and wqe.opcode == Opcode.ENABLE:
                reloc = self._number(value, "wq_num")
            else:
                continue
            if reloc is not None:
                relocs.append(reloc.place(offset, width))
        for index in range(len(wqe.sges)):
            base = _SGE_BASE + index * _SGE_SIZE
            addr = int.from_bytes(data[base:base + 8], "big")
            reloc = self._address(addr)
            if reloc is not None:
                relocs.append(reloc.place(base, 8))
            lkey = int.from_bytes(data[base + 12:base + 16], "big")
            reloc = self._key(lkey, "lkey")
            if reloc is not None:
                relocs.append(reloc.place(base + 12, 4))
        return relocs

    def _compile(self, action):
        kind = action[0]
        if kind == "post":
            _kind, wq, wqe, data, doorbell, ref = action
            chain = self._recorder.chain_of(wq)
            return _Post(self._slot_of[wq], data,
                         self._post_relocs(wq, chain, wqe, data, ref),
                         doorbell)
        if kind == "store":
            _kind, addr, data, address, source, _ = action
            where = self._address(addr) or addr
            if source is None:
                relocs = []
                if address:
                    reloc = self._address(int.from_bytes(data, "big"))
                    if reloc is not None:
                        relocs.append(reloc.place(0, len(data)))
                return _Store(where, data, relocs)
            origin = self._address(source) or source
            # The bytes the copy changed (e.g. an armed ctrl word) are
            # constant patches; the rest is re-read at replay.
            original = action[5]
            patches = []
            offset = 0
            while offset < len(data):
                if data[offset] == original[offset]:
                    offset += 1
                    continue
                end = offset
                while end < len(data) and data[end] != original[end]:
                    end += 1
                patches.append((offset, data[offset:end]))
                offset = end
            return _Store(where, data, [], origin, tuple(patches))
        _kind, wq, up_to = action
        slot = self._slot_of[wq]
        if up_to is not None:
            up_to = self._count(slot, up_to - self._recorder.snapshot(wq)[1])
        return _Doorbell(slot, up_to)

    # -- binding and stamping -----------------------------------------------

    def read_host(self) -> List[int]:
        """The host values a stamp starting now would use."""
        return [read() for read in self._host_reads]

    def _env(self, instance: int, host: List[int],
             qset: Optional[QueueSet], snapshot=None) -> _Env:
        queues: List = [None] * len(self._slot_of)
        if qset is not None:
            for index, queue in enumerate(qset.queues):
                queues[index] = [queue.wq, queue, 0, 0, 0]
        for wq, chain in self._shared:
            if snapshot is not None:
                cursor, posted, signaled = snapshot(wq, chain)
            else:
                cursor, posted = wq._post_slot_cursor, wq.posted_count
                signaled = chain.signaled_posted if chain is not None else 0
            queues[self._slot_of[wq]] = [wq, chain, cursor, posted, signaled]
        return _Env(instance, queues, qset, host)

    def _check_set(self, qset: Optional[QueueSet], instance: int) -> None:
        if _set_shape(qset) != self._shape:
            raise ProgramError(
                f"template of {self._tag!r} ran on queue set shape "
                f"{self._shape!r}; instance {instance} has "
                f"{_set_shape(qset)!r}")

    def check_room(self) -> None:
        """Raise :class:`QueueError` unless one more instance fits."""
        for wq, _chain in self._shared:
            need = self._need.get(self._slot_of[wq], 0)
            if wq.destroyed:
                raise QueueError(f"post to destroyed {wq!r}")
            if need > wq.free_slots:
                raise QueueError(
                    f"{wq!r} overflow: an instance needs {need} slots but "
                    f"only {wq.free_slots} are free; nothing was posted")

    def stamp(self, instance: int, qset: Optional[QueueSet] = None) -> Stamp:
        """Post one instance from the template on ``qset`` (taken from
        the offload's pool, or None); :meth:`check_room` first."""
        bound = self._bound.get(qset)
        if bound is None:
            self._check_set(qset, instance)
            bound = self._bound[qset] = _Bound(self, qset)
        env = self._env(instance, self.read_host(), qset)
        bound.stamp(env, self.ctx.memory)
        queues = env.queues
        for slot, count in self._signaled.items():
            chain = queues[slot][1]
            if chain is not None:
                chain.signaled_posted += count
        exports = {
            name: [(queues[slot][3] + ordinal,
                    queues[slot][0].slot_addr(queues[slot][2] + offset))
                   for slot, ordinal, offset in places]
            for name, places in self.exports.items()}
        return Stamp(qset, exports)

    def verify(self, recorder: ActionRecorder, host: List[int]) -> None:
        """Require the template to reproduce ``recorder``'s instance.

        ``host`` holds the host values read just before that instance
        was built. Raises :class:`ProgramError` naming the first action
        the template gets wrong.
        """
        self._check_set(recorder.qset, recorder.instance)
        env = self._env(recorder.instance, host, recorder.qset,
                        recorder.snapshot)
        actual = recorder.actions
        if len(actual) != len(self.actions):
            raise ProgramError(
                f"template of {self._tag!r} has {len(self.actions)} "
                f"actions; instance {recorder.instance} has {len(actual)}")
        for index, (action, got) in enumerate(zip(self.actions, actual)):
            if isinstance(action, _Store):
                expected = action.render(env, got[5])
                ok = got[0] == "store" and expected == (
                    "store", got[1], got[2], got[4])
            elif isinstance(action, _Post):
                expected = action.render(env)
                ok = got[0] == "post" and expected == (
                    "post", got[1], got[3], got[4])
            else:
                expected = action.render(env)
                ok = got[0] == "doorbell" and expected == tuple(got)
            if not ok:
                raise ProgramError(
                    f"template of {self._tag!r} does not reproduce "
                    f"instance {recorder.instance} at action {index}: "
                    f"expected {expected!r}, got {tuple(got[:4])!r}")
        posts = [index for index, action in enumerate(actual)
                 if action[0] == "post"]
        for name, ordinals in self._export_posts.items():
            refs = recorder.exports.get(name, [])
            if [posts[ordinal] for ordinal in ordinals] != [
                    recorder.post_index(ref) for ref in refs]:
                raise ProgramError(
                    f"template of {self._tag!r}: export {name!r} differs "
                    f"at instance {recorder.instance}")


# ---------------------------------------------------------------------------
# Posting offload instances
# ---------------------------------------------------------------------------


class InstancePoster:
    """Posts an offload's request instances: IR for the first two,
    stamps from the compiled template after that.

    ``build(instance)`` is the offload's per-instance IR builder; its
    return value is handed back for IR-built instances, a
    :class:`Stamp` for stamped ones. ``tag_format`` names instance
    ``i`` (``tag_format.format(i)``). An offload whose instances run
    on pooled one-shot queue sets passes its ``pool``: ``build`` takes
    its set from it, and each stamp takes one.
    """

    def __init__(self, ctx: RednContext, build: Callable[[int], object],
                 tag_format: str, pool: Optional[QueueSetPool] = None):
        self.ctx = ctx
        self.build = build
        self.tag_format = tag_format
        self.pool = pool
        self.template: Optional[InstanceTemplate] = None
        self._verified = False

    def export(self, name: str, refs: List[WrRef]) -> None:
        """Called by ``build``: name posts a :class:`Stamp` reports."""
        if self.ctx.recorder is not None:
            self.ctx.recorder.export(name, refs)

    def _record(self, instance: int):
        recorder = ActionRecorder(instance, self.tag_format.format(instance))
        self.ctx.recorder = recorder
        try:
            result = self.build(instance)
        finally:
            self.ctx.recorder = None
        return result, recorder

    def post(self, instance: int):
        """Post instance ``instance``.

        From instance 1 on, a :class:`QueueError` for a full queue is
        raised before anything is posted. Instance 0 has no template to
        size it yet; its IR build posts as far as it gets.
        """
        template = self.template
        if self._verified:
            template.check_room()
            qset = (self.pool.take(self.tag_format.format(instance))
                    if self.pool is not None else None)
            return template.stamp(instance, qset)
        if template is None:
            result, recorder = self._record(instance)
            self.template = InstanceTemplate(self.ctx, recorder)
            return result
        template.check_room()
        host = template.read_host()
        result, recorder = self._record(instance)
        template.verify(recorder, host)
        self._verified = True
        return result
