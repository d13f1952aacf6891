"""mov emulation: the Turing-completeness building blocks (Appendix A).

Dolan proved x86's ``mov`` alone simulates a Turing machine; the paper
closes its argument by showing RDMA chains emulate every required
``mov`` addressing mode (Table 7):

* **immediate** — ``mov Rdst, C`` — one WRITE from a constant pool.
* **indirect load** — ``mov Rdst, [Rsrc]`` — a WRITE copies the *value*
  of Rsrc into the next WRITE's ``laddr`` field (self-modification),
  which then moves ``[Rsrc] -> Rdst``.
* **indirect store** — ``mov [Rdst], Rsrc`` — same trick on ``raddr``.
* **indexed** — ``mov Rdst, [Rsrc + Roff]`` — a WRITE injects Roff's
  value into a FETCH_ADD's operand, the FETCH_ADD bumps the final
  WRITE's ``laddr`` field, then the load runs (the paper's "Add Roff
  to src").

Registers are 64-bit cells in registered memory ("since RDMA operations
can only perform memory-to-memory transfers, we assume these registers
are stored in memory", A.1). Register-to-register adds come for free
from the same injection trick aimed at a register instead of a WQE.

Ops execute on a *managed* queue: doorbell ordering makes each WQE's
fetch wait for its predecessor's completion, giving exactly the
consistency self-modifying chains need. The host re-posts chains to
loop (A.2's CPU-assisted unconditional jump); the NIC-only alternative
is :class:`~repro.redn.constructs.RecycledLoop`.
"""

from __future__ import annotations

from typing import Generator, Sequence

from ..ibv.wr import wr_fetch_add, wr_write
from ..memory.layout import mask
from ..nic.wqe import Wqe
from .ir import ChainOp, ChainProgram, FieldRef, InjectWriteOp, RawOp
from .linker import aim, link_op
from .program import ChainQueue, ProgramError, RednContext, WrRef

__all__ = [
    "MovMachine",
    "MovImm",
    "MovLoad",
    "MovStore",
    "AddConst",
    "AddReg",
    "MovOp",
]

_U64 = mask(64)


class MovOp:
    """Base class for machine operations (tagging only)."""

    __slots__ = ()


class MovImm(MovOp):
    """``mov Rdst, C`` — immediate addressing."""

    __slots__ = ("dst", "value")

    def __init__(self, dst: int, value: int):
        self.dst = dst
        self.value = value & _U64

    def __repr__(self) -> str:
        return f"mov r{self.dst}, {self.value:#x}"


class MovLoad(MovOp):
    """``mov Rdst, [Rsrc]`` — indirect load."""

    __slots__ = ("dst", "src")

    def __init__(self, dst: int, src: int):
        self.dst = dst
        self.src = src

    def __repr__(self) -> str:
        return f"mov r{self.dst}, [r{self.src}]"


class MovStore(MovOp):
    """``mov [Rdst], Rsrc`` — indirect store."""

    __slots__ = ("dst", "src")

    def __init__(self, dst: int, src: int):
        self.dst = dst
        self.src = src

    def __repr__(self) -> str:
        return f"mov [r{self.dst}], r{self.src}"


class AddConst(MovOp):
    """``add Rdst, C`` — a FETCH_ADD on the register cell."""

    __slots__ = ("dst", "value")

    def __init__(self, dst: int, value: int):
        self.dst = dst
        self.value = value & _U64

    def __repr__(self) -> str:
        return f"add r{self.dst}, {self.value:#x}"


class AddReg(MovOp):
    """``add Rdst, Rsrc`` — injection WRITE + FETCH_ADD."""

    __slots__ = ("dst", "src")

    def __init__(self, dst: int, src: int):
        self.dst = dst
        self.src = src

    def __repr__(self) -> str:
        return f"add r{self.dst}, r{self.src}"


class MovMachine:
    """A register machine whose every step runs as RDMA verbs."""

    def __init__(self, ctx: RednContext, num_registers: int = 16,
                 ram_size: int = 256 * 1024, queue_slots: int = 4096,
                 name: str = "mov"):
        if num_registers < 1:
            raise ProgramError("need at least one register")
        self.ctx = ctx
        self.name = name
        self.num_registers = num_registers
        # One unified RAM: registers at the base, then caller-allocated
        # cells (tape, transition tables, constant pool). A single MR
        # covers it all, so indirect loads/stores whose targets are
        # computed at runtime always validate.
        self.ram, self.ram_mr = ctx.alloc_registered(
            ram_size, label=f"{name}-ram")
        self._ram_cursor = self.ram.addr + 8 * num_registers
        self.queue: ChainQueue = ctx.worker_queue(
            slots=queue_slots, name=f"{name}-q")
        #: Every compiled op streams through the IR linker into here —
        #: address-injection WRITEs are typed (InjectWriteOp) and their
        #: wiring recorded as edges, so chain_lint can verify the
        #: machine's self-modification the same way it verifies offloads.
        self.program = ChainProgram(name)
        # Constant pool: one 8-byte cell per distinct immediate.
        self._pool = self.alloc_ram(8 * 256, "const-pool")
        self._pool_used = 0
        self._pool_cache = {}
        self.ops_executed = 0
        self.wrs_posted = 0

    # -- memory ----------------------------------------------------------------

    def alloc_ram(self, size: int, label: str = "") -> int:
        """Carve ``size`` bytes out of machine RAM; returns the address."""
        addr = (self._ram_cursor + 7) & ~7
        if addr + size > self.ram.addr + self.ram.size:
            raise ProgramError(f"machine RAM exhausted ({label})")
        self._ram_cursor = addr + size
        return addr

    def read_ram(self, addr: int) -> int:
        return self.ctx.memory.read_u64(addr)

    def write_ram(self, addr: int, value: int) -> None:
        self.ctx.memory.write_u64(addr, value & _U64)

    # -- register file --------------------------------------------------------

    def reg_addr(self, index: int) -> int:
        if not 0 <= index < self.num_registers:
            raise ProgramError(f"register r{index} out of range")
        return self.ram.addr + 8 * index

    def read_reg(self, index: int) -> int:
        return self.ctx.memory.read_u64(self.reg_addr(index))

    def write_reg(self, index: int, value: int) -> None:
        """Host-side register initialization (setup only)."""
        self.ctx.memory.write_u64(self.reg_addr(index), value & _U64)

    def _const_cell(self, value: int) -> int:
        """Address of a pool cell holding ``value``."""
        if value not in self._pool_cache:
            if self._pool_used >= 256:
                raise ProgramError("constant pool exhausted")
            addr = self._pool + 8 * self._pool_used
            self.ctx.memory.write_u64(addr, value)
            self._pool_cache[value] = addr
            self._pool_used += 1
        return self._pool_cache[value]

    # -- compilation: one op -> WQEs -------------------------------------------

    def _post(self, wqe: Wqe) -> WrRef:
        return self._link(RawOp(self.queue, wqe))

    def _link(self, chain_op: ChainOp) -> WrRef:
        self.wrs_posted += 1
        return link_op(self.program, chain_op)

    def _inject_write(self, src_addr: int) -> WrRef:
        """The address-injection WRITE: copies a register's value onto
        a downstream WQE field (wired afterwards via ``aim``)."""
        return self._link(InjectWriteOp(self.queue, src_addr,
                                        self.queue.rkey, length=8,
                                        signaled=False))

    def _compile_op(self, op: MovOp, signal_last: bool) -> None:
        reg_rkey = self.ram_mr.rkey     # register-file key
        memory_rkey = self.ram_mr.rkey  # unified machine RAM key

        if isinstance(op, MovImm):
            self._post(wr_write(self._const_cell(op.value), 8,
                                self.reg_addr(op.dst), reg_rkey,
                                signaled=signal_last))
            return

        if isinstance(op, AddConst):
            self._post(wr_fetch_add(self.reg_addr(op.dst), reg_rkey,
                                    op.value, signaled=signal_last))
            return

        if isinstance(op, MovLoad):
            # W2 posted conceptually second, but its slot address is
            # needed by W1 — the aim edge resolves it once W2 links.
            w1 = self._inject_write(self.reg_addr(op.src))
            w2 = self._post(wr_write(0, 8, self.reg_addr(op.dst),
                                     reg_rkey, signaled=signal_last))
            aim(self.program, w1, "raddr", FieldRef(w2, "laddr"))
            return

        if isinstance(op, MovStore):
            w1 = self._inject_write(self.reg_addr(op.dst))
            w2 = self._post(wr_write(self.reg_addr(op.src), 8, 0,
                                     memory_rkey,
                                     signaled=signal_last))
            aim(self.program, w1, "raddr", FieldRef(w2, "raddr"))
            return

        if isinstance(op, AddReg):
            w1 = self._inject_write(self.reg_addr(op.src))
            add = self._post(wr_fetch_add(self.reg_addr(op.dst),
                                          reg_rkey, 0,
                                          signaled=signal_last))
            aim(self.program, w1, "raddr", FieldRef(add, "operand0"))
            return

        raise ProgramError(f"unknown op {op!r}")

    # -- execution ------------------------------------------------------------------

    def execute(self, ops: Sequence[MovOp]) -> Generator:
        """Post a chain for ``ops`` and run it to completion.

        The host's only involvement is the doorbell and the final
        completion poll (Appendix A.2). Returns the WR count executed.
        """
        if not ops:
            return 0
        start_signals = self.queue.signaled_posted
        posted_before = self.wrs_posted
        for index, op in enumerate(ops):
            self._compile_op(op, signal_last=(index == len(ops) - 1))
        self.queue.doorbell()
        done = self.queue.cq.wait_for_count(start_signals + 1)
        yield done
        self.ops_executed += len(ops)
        return self.wrs_posted - posted_before

