"""Passes over chain IR: verify, cost and an ordering report.

The verifier turns the §3.1 prefetch-incoherence hazards that the
runtime race inspector (PR 2, ``repro.obs``) catches *dynamically*
into properties checked *statically*, over the modification edges the
IR records:

* ``target-missing``     — a modification aims at a WR no program op
  or posted ring slot accounts for;
* ``prefetch-window``    — a swap/inject targets a WQE on a normal
  (unmanaged) queue: the NIC prefetches those in batches, so the
  modification races the prefetched copy (§3.1);
* ``upstream-target``    — an arming/injecting WR targets a WR at or
  before its own doorbell-order position on the same queue: the target
  was fetched before the modifier ran;
* ``early-release``      — an ENABLE releases an armed template
  before the arming CAS is ordered to have completed (no qualifying
  WAIT barrier);
* ``enable-mismatch``    — an ENABLE count exceeds the producer's
  posted index (absolute) or ring capacity (relative);
* ``inject-span``        — injected bytes overrun the target's ring
  image or touch its opcode bytes.

Recycling maintenance ops (:class:`RestoreOp`, :class:`CountBumpOp`)
deliberately rewrite upstream, already-executed WRs for the next lap,
so the upstream/early-release checks exempt them.

The linker appends an op to its program only once it is posted, so
every pass reasons about linked WRs: positions are ring indices and
images are the posted bytes. A recycling shadow region that does not
match the ring image it restores never gets this far:
:class:`RestoreOp` raises ``restore-truncated`` / ``restore-overrun``
when it is made.

The cost pass derives Table 2 C/A/E counts from op intent; the
ordering report (:func:`plan_ordering`) prices each queue's
ordering mode from ``nic/timing.py`` and names the managed queues
that could prefetch in batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..nic.opcodes import (
    Opcode,
    WrFlags,
    is_atomic_verb,
    is_copy_verb,
    is_ordering_verb,
)
from ..nic.timing import CONNECTX5_TIMING, TimingModel
from ..nic.wqe import WQE_SLOT_SIZE
from .ir import (
    ArmCasOp,
    ChainLintError,
    ChainOp,
    ChainProgram,
    CountBumpOp,
    EnableOp,
    FieldRef,
    InjectReadOp,
    InjectWriteOp,
    RawOp,
    RestoreOp,
    WaitOp,
    ref_of,
    wr_name,
)

__all__ = [
    "ConstructCost",
    "Hazard",
    "verify",
    "verify_or_raise",
    "chain_cost",
    "plan_ordering",
]


@dataclass
class ConstructCost:
    """WR-count breakdown in the paper's Table 2 categories."""

    copies: int = 0     # C: SEND/RECV/WRITE/READ (+ NOOP templates)
    atomics: int = 0    # A: CAS/FETCH_ADD/MAX/MIN
    ordering: int = 0   # E: WAIT/ENABLE

    def __str__(self) -> str:
        return f"{self.copies}C + {self.atomics}A + {self.ordering}E"

    @property
    def total(self) -> int:
        return self.copies + self.atomics + self.ordering


@dataclass
class Hazard:
    """One verifier finding, naming the offending WR."""

    check: str
    message: str
    op: Optional[ChainOp] = None

    def __str__(self) -> str:
        return f"[{self.check}] {self.message}"


# ---------------------------------------------------------------------------
# Cost (Table 2)
# ---------------------------------------------------------------------------


def _classify(cost: ConstructCost, opcode: int) -> None:
    if is_ordering_verb(opcode):
        cost.ordering += 1
    elif is_atomic_verb(opcode):
        cost.atomics += 1
    elif is_copy_verb(opcode):
        cost.copies += 1
    elif opcode == Opcode.NOOP:
        cost.copies += 1   # untyped placeholder: counts as copy


def chain_cost(program: ChainProgram,
               tag_prefix: str = "") -> ConstructCost:
    """C/A/E counts over ops whose tag starts with ``tag_prefix``.

    Templates count as their *intended* verb (a disarmed WRITE_IMM is
    still the copy the construct pays for), which is how Table 2
    tallies the if/while rows.
    """
    cost = ConstructCost()
    for op in program.ops_tagged(tag_prefix):
        _classify(cost, op.intended_opcode)
    return cost


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass
class _Mod:
    """One normalized modification: src op writes dst field span."""

    src: Optional[ChainOp]
    dst: FieldRef
    length: int
    kind: str            # arm | inject | scatter | count-bump | restore
    offset: Optional[int] = None   # byte offset when not dst.field's


def _decode_enable(op: ChainOp):
    """(wq_num, count, relative) for ENABLE-like ops, else None."""
    if isinstance(op, EnableOp):
        return op.target_wq_num, op.resolve_count(), op.relative
    if isinstance(op, RawOp) and op.wqe.opcode == Opcode.ENABLE:
        return (op.wqe.target, op.wqe.wqe_count,
                bool(op.wqe.flags & WrFlags.ENABLE_RELATIVE))
    return None


def _collect_mods(program: ChainProgram) -> List[_Mod]:
    mods: List[_Mod] = []
    for op in program.ops:
        if isinstance(op, ArmCasOp):
            mods.append(_Mod(op, op.target, 8, "arm"))
        elif isinstance(op, InjectReadOp):
            mods.append(_Mod(op, op.target, op.length, "scatter"))
        elif isinstance(op, InjectWriteOp):
            if op.target is not None:
                mods.append(_Mod(op, op.target, op.length, "inject"))
        elif isinstance(op, CountBumpOp):
            mods.append(_Mod(op, FieldRef(op.target, "wqe_count"), 8,
                             "count-bump"))
        elif isinstance(op, RestoreOp):
            mods.append(_Mod(op, FieldRef(op.target, "ctrl"),
                             op.length, "restore"))
        elif isinstance(op, RawOp):
            # Recognize hand-assembled self-modification: a verb whose
            # remote address lands inside a program ring.
            wqe = op.wqe
            if wqe.opcode not in (Opcode.CAS, Opcode.FETCH_ADD,
                                  Opcode.WRITE):
                continue
            hit = program.find_slot(wqe.raddr)
            if hit is None:
                continue
            target_op, offset = hit
            if wqe.opcode == Opcode.CAS and offset == 0:
                kind = "arm"
            elif wqe.opcode == Opcode.FETCH_ADD:
                kind = "count-bump"
            else:
                kind = "inject"
            mods.append(_Mod(op, FieldRef(target_op, "ctrl"),
                             wqe.length, kind, offset=offset))
    for edge in program.edges:
        mods.append(_Mod(program.op_for(edge.src) if edge.src is not None
                         else None,
                         edge.dst, edge.length, edge.kind))
    return mods


def _release_timeline(program: ChainProgram):
    """Cumulative ENABLE coverage per managed chain queue, in op order.

    Returns a list of ``(op_index, enable_op, queue, coverage_after)``
    entries; coverage is "released through WR index < coverage".
    """
    coverage: Dict[object, int] = {}
    timeline = []
    for op in program.ops:
        decoded = _decode_enable(op)
        if decoded is None:
            continue
        wq_num, count, relative = decoded
        queue = program.queue_by_wq_num(wq_num)
        if queue is None or not queue.managed:
            continue
        if relative:
            coverage[queue] = coverage.get(queue, 0) + count
        else:
            coverage[queue] = max(coverage.get(queue, 0), count)
        timeline.append((op.index, op, queue, coverage[queue]))
    return timeline


def verify(program: ChainProgram) -> List[Hazard]:
    """Run every static check; returns hazards (empty = clean)."""
    hazards: List[Hazard] = []
    timeline = _release_timeline(program)

    def first_release(queue, wr_index):
        for idx, en_op, q, cov in timeline:
            if q is queue and cov > wr_index:
                return idx, en_op
        return None

    # -- modification-edge checks ---------------------------------------
    for mod in _collect_mods(program):
        dst = mod.dst
        target_op = program.op_for(dst.target)
        target_ref = ref_of(dst.target)
        src_name = wr_name(mod.src) if mod.src is not None else \
            "external trigger"
        if target_ref is None:
            hazards.append(Hazard(
                "target-missing",
                f"{mod.kind} from {src_name} aims at "
                f"{dst.field} of a WR outside the program: "
                f"{dst.target!r}", mod.src))
            continue
        target_queue = target_ref.queue
        target_name = wr_name(dst.target)

        # §3.1: modifying a WQE on a normal-mode queue races the
        # batch prefetch — the NIC may already hold a stale copy.
        if not target_queue.managed:
            hazards.append(Hazard(
                "prefetch-window",
                f"{mod.kind} from {src_name} rewrites {target_name} on "
                f"normal-mode queue '{target_queue.name}': the swap "
                f"lands inside an already-prefetched window (§3.1)",
                mod.src or target_op))

        # Field-span safety (break WRITEs legitimately span two WQEs).
        if mod.kind in ("arm", "inject", "scatter") and \
                getattr(mod.src, "break_targets", None) is None:
            image = target_ref.wqe.num_slots * WQE_SLOT_SIZE
            span_start = mod.offset if mod.offset is not None \
                else dst.offset
            span_end = span_start + mod.length
            if span_end > image:
                hazards.append(Hazard(
                    "inject-span",
                    f"{mod.kind} from {src_name} writes "
                    f"[{span_start}, {span_end}) past the {image}-byte "
                    f"image of {target_name}", mod.src or target_op))
            if mod.kind != "arm" and span_start < 2:
                hazards.append(Hazard(
                    "inject-span",
                    f"{mod.kind} from {src_name} overlaps the opcode "
                    f"bytes of {target_name} (offset {span_start})",
                    mod.src or target_op))

        # Doorbell-order direction: arms and injections must land
        # before their target is fetched, so a same-queue target must
        # be strictly downstream. Recycling maintenance (restore,
        # count-bump) legitimately rewrites upstream for the next lap.
        if mod.kind in ("arm", "inject", "scatter") \
                and mod.src is not None \
                and mod.src.queue is target_queue:
            src_pos = mod.src.ref.wr_index
            dst_pos = target_ref.wr_index
            if dst_pos <= src_pos:
                hazards.append(Hazard(
                    "upstream-target",
                    f"{mod.kind} from {src_name} targets {target_name} "
                    f"at or before its own doorbell-order position "
                    f"({dst_pos} <= {src_pos}): the target is fetched "
                    f"before the modifier executes", mod.src))

        # Cross-queue arm: the ENABLE that releases the armed template
        # must be ordered after the CAS completed.
        if mod.kind == "arm" and mod.src is not None \
                and mod.src.queue is not target_queue:
            release = first_release(target_queue, target_ref.wr_index)
            if release is not None:
                rel_idx, rel_op = release
                if rel_op.queue is mod.src.queue:
                    # Same managed queue as the CAS: doorbell order
                    # already serializes CAS before the ENABLE.
                    if rel_op.ref.wr_index <= mod.src.ref.wr_index:
                        hazards.append(Hazard(
                            "early-release",
                            f"ENABLE {wr_name(rel_op)} releases "
                            f"{target_name} at or before the arming "
                            f"CAS {src_name} in doorbell order",
                            mod.src))
                elif not _has_barrier(program, mod.src, rel_idx):
                    hazards.append(Hazard(
                        "early-release",
                        f"ENABLE {wr_name(rel_op)} releases "
                        f"{target_name} with no WAIT ordering it after "
                        f"the arming CAS {src_name}", mod.src))

    # -- ENABLE count checks --------------------------------------------
    for op in program.ops:
        decoded = _decode_enable(op)
        if decoded is None:
            continue
        wq_num, count, relative = decoded
        queue = program.queue_by_wq_num(wq_num)
        if queue is None:
            continue
        produced = max(queue.wq.posted_count,
                       sum(1 for other in program.ops
                           if other.queue is queue))
        if not relative and count > produced:
            hazards.append(Hazard(
                "enable-mismatch",
                f"ENABLE {wr_name(op)} releases '{queue.name}' through "
                f"WR #{count - 1} but only {produced} WRs are posted "
                f"(producer index mismatch)", op))
        if relative and count > queue.wq.num_slots:
            hazards.append(Hazard(
                "enable-mismatch",
                f"ENABLE {wr_name(op)} advances '{queue.name}' by "
                f"+{count}, more than its {queue.wq.num_slots}-slot "
                f"ring", op))
    return hazards


def _has_barrier(program: ChainProgram, arm: ChainOp,
                 release_index: int) -> bool:
    """Is there a WAIT between ``arm`` and the release, on the release
    op's queue, covering the arm's CQ completion?"""
    release_op = program.ops[release_index]
    arm_cq = arm.queue.cq.cq_num
    for op in program.ops[arm.index + 1:release_index]:
        if not isinstance(op, WaitOp) or op.queue is not release_op.queue:
            continue
        if op.cq_num != arm_cq:
            continue
        if op.resolved_threshold >= arm.signal_seq:
            return True
    return False


def verify_or_raise(program: ChainProgram) -> None:
    """Raise :class:`ChainLintError` on the first (worst) hazard."""
    hazards = verify(program)
    if hazards:
        worst = hazards[0]
        wr = worst.op.ref if worst.op is not None else None
        raise ChainLintError(worst.message, wr=wr, check=worst.check)


# ---------------------------------------------------------------------------
# Ordering report
# ---------------------------------------------------------------------------


def plan_ordering(program: ChainProgram,
                  timing: TimingModel = CONNECTX5_TIMING) -> List[dict]:
    """Per-segment ordering-mode selection, priced from the timing model.

    Each queue is one segment of the program. Doorbell-ordered
    (managed) fetches serialize one WQE at a time
    (``managed_fetch_hold_ns`` each); normal-mode queues amortize a
    batched fetch (``batch_fetch_hold_per_wqe_ns`` per WQE, §3.1 /
    Fig 8). A segment only *needs* doorbell ordering if some WR on it
    is a modification target or its release is ENABLE-gated — for any
    other segment the pass recommends normal mode and reports the
    fetch-hold savings.
    """
    mods = _collect_mods(program)
    mod_queues = {mod.dst.queue for mod in mods
                  if mod.dst.queue is not None}
    gated = set()
    for op in program.ops:
        decoded = _decode_enable(op)
        if decoded is None:
            continue
        queue = program.queue_by_wq_num(decoded[0])
        if queue is not None and queue is not op.queue:
            gated.add(queue)
    per_wr_delta = (timing.managed_fetch_hold_ns
                    - timing.batch_fetch_hold_per_wqe_ns)
    plan = []
    for queue in program.queues:
        wrs = sum(1 for op in program.ops if op.queue is queue)
        if not queue.managed:
            mode, reason, saving = "normal", "static skeleton", 0
        elif queue in mod_queues:
            mode, saving = "doorbell", 0
            reason = "holds self-modification targets"
        elif queue in gated:
            mode, saving = "doorbell", 0
            reason = "release is ENABLE-gated"
        else:
            mode = "normal"
            reason = "never modified nor gated: batch prefetch is safe"
            saving = wrs * per_wr_delta
        plan.append({
            "queue": queue.name,
            "wrs": wrs,
            "current": "doorbell" if queue.managed else "normal",
            "recommended": mode,
            "reason": reason,
            "est_saving_ns": saving,
        })
    return plan

