"""The RedN linker: lowering chain IR onto work-queue rings.

The linker is the only stage that turns symbols into bytes, and it
streams: :func:`link_op` posts each op the moment it is built and
appends it to its program once the post succeeds. This is how
:class:`ProgramBuilder` and the offloads operate: chain WRs interleave
with trigger RECVs and doorbells mid-simulation, so emission order *is*
program order and the lowered bytes land exactly where (and when) the
pre-IR hand-assembly put them. Every op a :class:`ChainProgram` holds
is therefore linked.

Symbol resolution happens inside each op's ``build_wqe`` (field
addresses, arm words, signaled counts) against the queue state at the
moment the op posts. :func:`aim` and :func:`aim_sge` wire two linked
WRs together and poke the wiring into the ring at once; aiming at a WR
not linked yet raises ``ChainLintError(check="unlinked-target")``.
"""

from __future__ import annotations

from .ir import (
    AimEdge,
    ChainLintError,
    ChainOp,
    ChainProgram,
    FieldRef,
    InjectWriteOp,
    RestoreOp,
    ref_of,
)
from .program import WrRef

__all__ = ["link_op", "aim", "aim_sge"]


def link_op(program: ChainProgram, op: ChainOp) -> WrRef:
    """Lower one op: resolve its symbols, post its WQE, bind the ref."""
    if op.linked:
        raise ChainLintError(f"{op!r} already linked", wr=op,
                             check="double-link")
    if isinstance(op, RestoreOp):
        op.prepare()
    wqe = op.build_wqe()
    ref = op.queue.post(wqe, tag=op.tag)
    op.ref = ref
    ref.ir_op = op
    op.signal_seq = op.queue.signaled_posted
    program.append(op)
    return ref


def aim(program: ChainProgram, src, src_field: str, dst: FieldRef,
        kind: str = "inject", length: int = 0) -> AimEdge:
    """Wire ``src``'s ``src_field`` to carry ``dst``'s address.

    The setup-time poke that used to be ``ref.poke(field,
    other.field_addr(...))`` — now recorded on the program so the
    verifier sees the modification edge.
    """
    src_ref, addr = _ends(src, dst)
    edge = program.add_edge(AimEdge(src=src, dst=dst, length=length,
                                    kind=kind, src_field=src_field))
    src_op = program.op_for(src)
    if isinstance(src_op, InjectWriteOp) and src_op.target is None:
        src_op.target = dst
    src_ref.poke(src_field, addr)
    return edge


def aim_sge(program: ChainProgram, src, sge_index: int, dst: FieldRef,
            kind: str = "scatter", length: int = 0) -> AimEdge:
    """Re-aim scatter entry ``sge_index`` of ``src`` at ``dst``."""
    src_ref, addr = _ends(src, dst)
    edge = program.add_edge(AimEdge(src=src, dst=dst, length=length,
                                    kind=kind, src_sge=sge_index))
    src_ref.poke_sge(sge_index, addr)
    return edge


def _ends(src, dst: FieldRef):
    """``src``'s ref and ``dst``'s address, before anything is recorded
    or poked; an end not linked yet raises ``unlinked-target``."""
    src_ref = ref_of(src)
    if src_ref is None:
        raise ChainLintError(f"aim from unlinked {src!r}", wr=src,
                             check="unlinked-target")
    return src_ref, dst.addr
