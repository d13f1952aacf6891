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
   poke, prepared-image store, doorbell, and one-shot queue or buffer
   creation — and compiles it into an :class:`InstanceTemplate` whose
   varying values are *typed relocations*:

   * ring-relative addresses (:class:`RingAddr`), wrap-aware in the
     queue's slot-cursor space;
   * per-instance counters: WAIT thresholds and ENABLE indices read off
     a queue's monotonic counters (:class:`Counter`), and values affine
     in the instance index (:class:`Instance`, e.g. immediates);
   * host state read once per stamped instance (:class:`Host`);
   * instance-local allocations: one-shot queues' ring addresses and
     numbers/keys (:class:`QueueAttr`), image buffers (:class:`Buffer`);

   the relocation kind comes from the symbol an op resolved
   (:class:`~repro.redn.ir.Symbol`) or from the WQE field's type (an
   address field is relocated against the rings and buffers the
   instance touched), never from diffing two instances;
2. builds instance 1 through the IR path too and requires the template
   to reproduce its recorded actions byte for byte — a relocation the
   compiler missed raises :class:`~repro.redn.program.ProgramError`
   (so the program still holds the two IR instances ``chain_lint``
   verifies);
3. stamps every later instance by replaying the action list with the
   relocations applied: the same DRAM stores in the same order, the
   same doorbells, and probe ``post`` events (a ``Wqe`` is decoded
   only when a sink listens). No ``ChainOp``, ``WrRef`` or ``AimEdge``
   is created, so program size is O(1) in requests.

A stamp checks the free slots of every shared queue it posts to before
it writes anything: an instance is posted whole or not at all.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..memory.dram import Allocation
from ..memory.region import MemoryRegion
from ..nic.opcodes import Opcode, WrFlags
from ..nic.queue import QueueError, WorkQueue
from ..nic.wqe import WQE_HEADER, WQE_SLOT_SIZE, Wqe
from .ir import HostValue, InstanceIndex, SignaledCount, Symbol, WrIndex
from .program import ChainQueue, ProgramError, RednContext, WrRef

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

    Installed as ``ctx.recorder``; the :class:`RednContext` and
    :class:`ChainQueue` primitives call the ``on_*`` hooks. A queue's
    counters are snapshotted the first time the instance touches it,
    so every snapshot is the queue's state at instance start.
    """

    def __init__(self, instance: int, tag: str):
        self.instance = instance
        self.tag = tag
        self.actions: List[tuple] = []
        self.exports: Dict[str, List[WrRef]] = {}
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

    def on_queue(self, queue: ChainQueue, slots: int,
                 port_index: int) -> None:
        self.snapshot(queue.wq, queue)
        self.actions.append(["queue", queue, slots, port_index])

    def on_alloc(self, allocation: Allocation, region: MemoryRegion,
                 label: str, access: int) -> None:
        self.actions.append(["alloc", allocation, region, label, access])

    def post_index(self, ref: WrRef) -> int:
        return self._post_of_ref[id(ref)]


# ---------------------------------------------------------------------------
# Relocations
# ---------------------------------------------------------------------------


class _Env:
    """Per-instance bindings a template's relocations resolve against.

    ``queues[slot]`` is ``[wq, chain, cursor, posted, signaled]`` with
    the counters at instance start; ``allocs[slot]`` is
    ``(allocation, region)``.
    """

    __slots__ = ("instance", "queues", "allocs", "host", "placed")

    def __init__(self, instance: int, queues, allocs, host):
        self.instance = instance
        self.queues = queues
        self.allocs = allocs
        self.host = host
        self.placed: List[Tuple[WorkQueue, int, int]] = []


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
    """An address ``rel_slot`` slots past the queue's instance start."""

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


class Buffer(Reloc):
    """An address inside (or, ``key`` set, a key of) a local buffer."""

    __slots__ = ("slot", "byte", "key")

    def __init__(self, slot: int, byte: int = 0, key: str = ""):
        self.slot = slot
        self.byte = byte
        self.key = key

    def value(self, env: _Env) -> int:
        allocation, region = env.allocs[self.slot]
        if self.key:
            return getattr(region, self.key)
        return allocation.addr + self.byte


class QueueAttr(Reloc):
    """A one-shot queue's ``wq_num``, ``cq_num`` or code-region ``rkey``."""

    __slots__ = ("slot", "attr")

    def __init__(self, slot: int, attr: str):
        self.slot = slot
        self.attr = attr

    def value(self, env: _Env) -> int:
        return getattr(env.queues[self.slot][1], self.attr)


class Counter(Reloc):
    """A queue counter at instance start plus a fixed delta."""

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


def _patch(image: bytes, relocs: List[Reloc], env: _Env) -> bytes:
    if not relocs:
        return image
    buf = bytearray(image)
    for reloc in relocs:
        offset = reloc.offset
        width = reloc.width
        buf[offset:offset + width] = reloc.value(env).to_bytes(width, "big")
    return buf


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
                _patch(self.image, self.relocs, env), self.doorbell)

    def run(self, env: _Env, ctx: RednContext) -> None:
        wq = env.queues[self.slot][0]
        cursor = wq._post_slot_cursor
        wr_index = wq.post_bytes(_patch(self.image, self.relocs, env),
                                 self.doorbell)
        env.placed.append((wq, wr_index, cursor))


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

    @staticmethod
    def _at(where, env: _Env) -> int:
        return where if isinstance(where, int) else where.value(env)

    def _data(self, env: _Env, source_bytes) -> bytes:
        if self.source is None:
            return _patch(self.image, self.relocs, env)
        buf = bytearray(source_bytes)
        for offset, chunk in self.patches:
            buf[offset:offset + len(chunk)] = chunk
        return buf

    def render(self, env: _Env, source_bytes=None):
        source = (None if self.source is None
                  else self._at(self.source, env))
        return ("store", self._at(self.addr, env),
                self._data(env, source_bytes), source)

    def run(self, env: _Env, ctx: RednContext) -> None:
        memory = ctx.memory
        source_bytes = None
        if self.source is not None:
            source_bytes = memory.read(self._at(self.source, env),
                                       len(self.image))
        memory.write(self._at(self.addr, env),
                     self._data(env, source_bytes))


class _Doorbell:
    __slots__ = ("slot", "up_to")

    def __init__(self, slot, up_to):
        self.slot = slot
        self.up_to = up_to

    def render(self, env: _Env):
        up_to = None if self.up_to is None else self.up_to.value(env)
        return ("doorbell", env.queues[self.slot][0], up_to)

    def run(self, env: _Env, ctx: RednContext) -> None:
        up_to = None if self.up_to is None else self.up_to.value(env)
        env.queues[self.slot][0].doorbell(up_to=up_to)


class _NewQueue:
    __slots__ = ("slot", "managed", "slots", "suffix", "port_index")

    def __init__(self, slot, managed, slots, suffix, port_index):
        self.slot = slot
        self.managed = managed
        self.slots = slots
        self.suffix = suffix
        self.port_index = port_index

    def bind(self, env: _Env, queue: ChainQueue) -> None:
        env.queues[self.slot] = [queue.wq, queue, 0, 0, 0]

    def run(self, env: _Env, ctx: RednContext, tag: str) -> ChainQueue:
        factory = ctx.worker_queue if self.managed else ctx.control_queue
        queue = factory(slots=self.slots, name=tag + self.suffix,
                        port_index=self.port_index)
        self.bind(env, queue)
        return queue


class _NewBuffer:
    __slots__ = ("slot", "size", "suffix", "access")

    def __init__(self, slot, size, suffix, access):
        self.slot = slot
        self.size = size
        self.suffix = suffix
        self.access = access

    def run(self, env: _Env, ctx: RednContext, tag: str) -> None:
        env.allocs[self.slot] = ctx.alloc_registered(
            self.size, label=tag + self.suffix, access=self.access)


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


class Stamp:
    """What one stamped instance created: its one-shot queues, its
    one-shot buffers' regions, and the ``(wr_index, slot_addr)`` of
    every exported post."""

    __slots__ = ("queues", "buffers", "exports")

    def __init__(self, queues, buffers, exports):
        self.queues = queues
        self.buffers = buffers
        self.exports = exports


class InstanceTemplate:
    """Instance 0's action list with typed relocations."""

    def __init__(self, ctx: RednContext, recorder: ActionRecorder):
        self.ctx = ctx
        self._recorder = recorder
        self._instance = recorder.instance
        self._tag = recorder.tag
        #: Queue slots: shared queues (bound at every stamp) first seen
        #: in order, then one-shot queues as the actions create them.
        self._slot_of: Dict[WorkQueue, int] = {}
        self._shared: List[Tuple[WorkQueue, Optional[ChainQueue]]] = []
        self._local_queues: List[ChainQueue] = []
        self._local_allocs: List[Tuple[Allocation, MemoryRegion]] = []
        self._host_reads: List[Callable[[], int]] = []
        self._compile_slots()
        self.actions = [self._compile(action)
                        for action in recorder.actions]
        posts = [index for index, action in enumerate(self.actions)
                 if isinstance(action, _Post)]
        self.exports = {
            name: [posts.index(recorder.post_index(ref)) for ref in refs]
            for name, refs in recorder.exports.items()}
        # Room a stamp needs on each shared queue, and the signaled WRs
        # it adds to each chain queue's running count.
        self._need: Dict[int, int] = {}
        self._signaled: Dict[int, int] = {}
        for action in self.actions:
            if isinstance(action, _Post):
                self._need[action.slot] = (self._need.get(action.slot, 0)
                                           + action.slots)
                flags = WQE_HEADER.unpack_field(action.image, 0, "flags")
                if flags & WrFlags.SIGNALED:
                    self._signaled[action.slot] = (
                        self._signaled.get(action.slot, 0) + 1)
        self._recorder = None

    # -- compile-time classification --------------------------------------

    def _compile_slots(self) -> None:
        recorder = self._recorder
        for action in recorder.actions:
            if action[0] == "queue":
                self._slot_of[action[1].wq] = len(self._slot_of)
                self._local_queues.append(action[1])
            elif action[0] == "alloc":
                self._local_allocs.append((action[1], action[2]))
            elif action[0] in ("post", "doorbell"):
                wq = action[1]
                if wq not in self._slot_of:
                    self._slot_of[wq] = len(self._slot_of)
                    self._shared.append((wq, recorder.chain_of(wq)))

    def _slot(self, wq: WorkQueue, chain: Optional[ChainQueue]) -> int:
        """Slot of a queue only referenced (never posted) this instance."""
        slot = self._slot_of.get(wq)
        if slot is None:
            slot = self._slot_of[wq] = len(self._slot_of)
            self._shared.append((wq, chain))
            self._recorder.snapshot(wq, chain)
        return slot

    def _address(self, value: int) -> Optional[Reloc]:
        """Relocation of a host address the instance's layout moves."""
        if not value:
            return None
        for wq, slot in self._slot_of.items():
            ring = wq.ring
            if ring.addr <= value < ring.addr + ring.size:
                cursor = self._recorder.snapshot(wq)[0]
                index, byte = divmod(value - ring.addr, WQE_SLOT_SIZE)
                return RingAddr(slot, (index - cursor) % wq.num_slots, byte)
        for slot, (allocation, _region) in enumerate(self._local_allocs):
            if allocation.addr <= value < allocation.end:
                return Buffer(slot, value - allocation.addr)
        return None

    def _key(self, value: int, kind: str) -> Optional[Reloc]:
        """Relocation of a memory key naming a one-shot region."""
        if not value:
            return None
        for queue in self._local_queues:
            if kind == "rkey" and queue.rkey == value:
                return QueueAttr(self._slot_of[queue.wq], "rkey")
        for slot, (_allocation, region) in enumerate(self._local_allocs):
            if getattr(region, kind) == value:
                return Buffer(slot, key=kind)
        return None

    def _number(self, value: int, attr: str) -> Optional[Reloc]:
        """Relocation of a WAIT/ENABLE target naming a one-shot queue."""
        for queue in self._local_queues:
            if getattr(queue, attr) == value:
                return QueueAttr(self._slot_of[queue.wq], attr)
        return None

    def _symbol(self, symbol: Symbol, value: int) -> Reloc:
        recorder = self._recorder
        if isinstance(symbol, SignaledCount):
            queue = symbol.queue
            slot = self._slot(queue.wq, queue)
            return Counter(slot, Counter.SIGNALED,
                           value - recorder.snapshot(queue.wq, queue)[2])
        if isinstance(symbol, WrIndex):
            queue = symbol.ref.queue
            slot = self._slot(queue.wq, queue)
            return Counter(slot, Counter.POSTED,
                           value - recorder.snapshot(queue.wq, queue)[1])
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

    def _suffix(self, name: str) -> str:
        if not name.startswith(self._tag):
            raise ProgramError(
                f"one-shot resource {name!r} is not named after its "
                f"instance tag {self._tag!r}")
        return name[len(self._tag):]

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
        if kind == "doorbell":
            _kind, wq, up_to = action
            slot = self._slot_of[wq]
            counter = None
            if up_to is not None:
                counter = Counter(slot, Counter.POSTED,
                                  up_to - self._recorder.snapshot(wq)[1])
            return _Doorbell(slot, counter)
        if kind == "queue":
            _kind, queue, slots, port_index = action
            return _NewQueue(self._slot_of[queue.wq], queue.managed, slots,
                             self._suffix(queue.name), port_index)
        _kind, allocation, region, label, access = action
        slot = [a for a, _r in self._local_allocs].index(allocation)
        return _NewBuffer(slot, allocation.size, self._suffix(label), access)

    # -- binding and stamping -----------------------------------------------

    def read_host(self) -> List[int]:
        """The host values a stamp starting now would use."""
        return [read() for read in self._host_reads]

    def _env(self, instance: int, host: List[int],
             snapshot=None) -> _Env:
        queues: List = [None] * len(self._slot_of)
        for wq, chain in self._shared:
            if snapshot is not None:
                cursor, posted, signaled = snapshot(wq, chain)
            else:
                cursor, posted = wq._post_slot_cursor, wq.posted_count
                signaled = chain.signaled_posted if chain is not None else 0
            queues[self._slot_of[wq]] = [wq, chain, cursor, posted, signaled]
        return _Env(instance, queues, [None] * len(self._local_allocs),
                    host)

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

    def stamp(self, instance: int, tag: str) -> Stamp:
        """Post one instance from the template."""
        self.check_room()
        env = self._env(instance, self.read_host())
        ctx = self.ctx
        queues = []
        for action in self.actions:
            if isinstance(action, _NewQueue):
                queues.append(action.run(env, ctx, tag))
            elif isinstance(action, _NewBuffer):
                action.run(env, ctx, tag)
            else:
                action.run(env, ctx)
        for slot, count in self._signaled.items():
            chain = env.queues[slot][1]
            if chain is not None:
                chain.signaled_posted += count
        placed = env.placed
        exports = {
            name: [(placed[ordinal][1],
                    placed[ordinal][0].slot_addr(placed[ordinal][2]))
                   for ordinal in ordinals]
            for name, ordinals in self.exports.items()}
        return Stamp(queues, [region for _alloc, region in env.allocs],
                     exports)

    def verify(self, recorder: ActionRecorder, host: List[int]) -> None:
        """Require the template to reproduce ``recorder``'s instance.

        ``host`` holds the host values read just before that instance
        was built. Raises :class:`ProgramError` naming the first action
        the template gets wrong.
        """
        env = self._env(recorder.instance, host, recorder.snapshot)
        actual = recorder.actions
        if len(actual) != len(self.actions):
            raise ProgramError(
                f"template of {self._tag!r} has {len(self.actions)} "
                f"actions; instance {recorder.instance} has {len(actual)}")
        tag = recorder.tag
        for index, (action, got) in enumerate(zip(self.actions, actual)):
            if isinstance(action, _NewQueue):
                queue = got[1] if got[0] == "queue" else None
                ok = (queue is not None and queue.managed == action.managed
                      and got[2] == action.slots
                      and got[3] == action.port_index
                      and queue.name == tag + action.suffix)
                if ok:
                    action.bind(env, queue)
                expected = ("queue", action.suffix)
            elif isinstance(action, _NewBuffer):
                ok = (got[0] == "alloc" and got[1].size == action.size
                      and got[3] == tag + action.suffix
                      and got[4] == action.access)
                if ok:
                    env.allocs[action.slot] = (got[1], got[2])
                expected = ("alloc", action.suffix)
            elif isinstance(action, _Store):
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
        for name, ordinals in self.exports.items():
            refs = recorder.exports.get(name, [])
            posts = [i for i, a in enumerate(actual) if a[0] == "post"]
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
    ``i``'s one-shot resources (``tag_format.format(i)``).
    """

    def __init__(self, ctx: RednContext, build: Callable[[int], object],
                 tag_format: str):
        self.ctx = ctx
        self.build = build
        self.tag_format = tag_format
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
            return template.stamp(instance, self.tag_format.format(instance))
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
