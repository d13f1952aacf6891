"""Offloaded linked-list traversal (paper §5.3, Fig 12).

The loop body, per node, entirely on the server NIC:

* a READ of the 26-byte node ``[key|valptr|vlen|next]`` whose response
  *scatters*: key/pointer/length bytes prepare the response machinery,
  and the trailing ``next`` pointer lands directly in the **next
  iteration's READ raddr field** — pointer chasing by WQE
  self-modification;
* a WRITE copying the client's compare word into the iteration's CAS
  (Fig 12's R2 — one injection point reused every iteration instead of
  burning a RECV scatter per iteration: "RECVs can only perform 16
  scatters");
* the CAS conditional arming either the response directly (**plain**
  variant) or the break WRITE (**break** variant, Fig 6).

Fig 13's trade-off reproduces mechanically:

* plain — all ``max_nodes`` iterations always execute. The response
  fires as soon as its iteration hits, so latency is minimal, but >65%
  more WRs execute per request. Instances can be freely pre-posted.
* break — each iteration carries the break machinery: the armed break
  WRITE installs a prepared 2-WQE image that arms the response *and*
  clears the following gate's SIGNALED flag, starving the control
  chain's WAIT so no later iteration runs. Stopping the chain mid-way
  leaves un-executed WRs behind, so the host performs a small
  ``finish_request`` cleanup between requests (the CPU-assisted
  reposting the paper attributes to unrolled loops, §3.4). Each
  request runs on a one-shot queue set — worker, branch and control
  queues plus the break images — taken from the lane's pool
  (:class:`~repro.redn.program.QueueSetPool`): ``finish_request`` hands
  it back, and it is reset for the next request once nothing of the
  stranded tail is in flight. A set is created only when no returned
  one is idle, and none is ever destroyed.
"""

from __future__ import annotations

from typing import Dict, List

from ..datastructs.linkedlist import LinkedList
from ..ibv.wr import wr_noop, wr_read, wr_write_imm
from ..memory.layout import pack_uint
from ..memory.region import MemoryRegion
from ..nic.opcodes import Opcode, WrFlags
from ..nic.wqe import Sge, WQE_HEADER, WQE_SLOT_SIZE, ctrl_word, \
    field_location
from ..redn.builder import ProgramBuilder
from ..redn.constructs import BreakImage
from ..redn.ir import (
    AimEdge,
    FieldRef,
    HostValue,
    InjectWriteOp,
    InstanceIndex,
)
from ..redn.linker import aim, aim_sge
from ..redn.offload import OffloadConnection
from ..redn.program import (
    ProgramError,
    QueueSet,
    QueueSetPool,
    RednContext,
    WrRef,
)
from ..redn.template import InstancePoster, Stamp

__all__ = ["ListTraversalOffload", "list_get_payload"]

_PATCH_LEN = 18          # key + valptr + vlen
_NODE_READ_LEN = 26      # ... + next pointer


def list_get_payload(head_addr: int, key: int) -> bytes:
    """Client request: [compare_word | first_node_addr] (Fig 12)."""
    return pack_uint(ctrl_word(Opcode.NOOP, key), 8) + pack_uint(
        head_addr, 8)


class _Instance:
    """Host bookkeeping for one posted break-variant instance."""

    __slots__ = ("qset", "gates", "last_lane_index")

    def __init__(self, qset: QueueSet, gates, last_lane_index: int):
        self.qset = qset                # its one-shot queue set
        self.gates = gates              # (lane wr_index, flags address)
        self.last_lane_index = last_lane_index


_FLAGS_OFFSET = field_location("flags")[0]


class ListTraversalOffload:
    """Server-side Fig 12 program over a :class:`LinkedList`."""

    def __init__(self, ctx: RednContext, linked_list: LinkedList,
                 data_mr: MemoryRegion, conn: OffloadConnection,
                 max_nodes: int = 8, use_break: bool = False,
                 name: str = "listget"):
        if max_nodes < 1:
            raise ValueError("need at least one iteration")
        self.ctx = ctx
        self.list = linked_list
        self.data_mr = data_mr
        self.conn = conn
        self.max_nodes = max_nodes
        self.use_break = use_break
        self.name = name
        self.builder = ProgramBuilder(ctx, name=name)
        queue_slots = max(512, max_nodes * 8)
        self.lane = self.builder.adopt_client_queue(
            conn.server_qps[0], name=f"{name}-resp")
        #: Break variant: the lane's one-shot queue sets.
        self.queue_sets = None
        if use_break:
            # Break chains are one-shot: a hit strands the unexecuted
            # tail, so each request runs on its own worker/branch/
            # control queues (the CPU re-posting of §3.4), a set from
            # the pool that finish_request hands back.
            self.worker = None
            self.control = None
            self.branches = None
            self.queue_sets = QueueSetPool(ctx, self._new_queue_set)
        else:
            self.worker = self.builder.worker_queue(
                slots=queue_slots, name=f"{name}-w")
            self.control = self.builder.control_queue(
                slots=queue_slots, name=f"{name}-ctl")
            self.branches = None
        # One compare-word cell per program; the RECV injects x here and
        # per-iteration WRITEs fan it out to the CAS operands (Fig 12 R2).
        self.xbuf, self.xbuf_mr = ctx.alloc_registered(
            8, label=f"{name}-xbuf")
        # Dead-end sink for the final iteration's next-pointer scatter.
        self.sink, _ = ctx.alloc_registered(8, label=f"{name}-sink")
        #: Break-variant instances posted but not yet finished.
        self.instances: Dict[int, _Instance] = {}
        self.instances_posted = 0
        # Gates killed by break WRITEs never signal; later instances'
        # lane thresholds discount them (updated in finish_request).
        self._lane_killed = 0
        self._poster = InstancePoster(
            ctx, self._build_break_instance if use_break
            else self._build_plain_instance, "trav{}",
            pool=self.queue_sets)

    # -- instance posting ---------------------------------------------------

    def post_instances(self, count: int) -> None:
        """Post ``count`` request instances + their trigger RECVs.

        Instances 0 and 1 are lowered through the IR; later ones are
        stamped from the compiled template (:mod:`repro.redn.template`).
        """
        for _ in range(count):
            instance = self.instances_posted
            posted = self._poster.post(instance)
            if self.use_break:
                self._track(instance, posted)
            self.instances_posted += 1

    def _track(self, instance: int, posted) -> None:
        """Keep what ``finish_request`` needs of a break instance."""
        if isinstance(posted, Stamp):
            posted = _Instance(posted.qset, [
                (wr_index, slot_addr + _FLAGS_OFFSET)
                for wr_index, slot_addr in posted.exports["gates"]],
                self.lane.wq.posted_count)
        self.instances[instance] = posted

    def _response_template(self, instance: int, tag: str,
                           signaled: bool) -> WrRef:
        live = wr_write_imm(0, 0, self.conn.response_addr,
                            self.conn.response_rkey,
                            immediate=InstanceIndex(instance, 1),
                            signaled=signaled)
        return self.builder.template(self.lane, live, tag=tag)

    def _emit_read(self, worker, sges: List[Sge], tag: str) -> WrRef:
        return self.builder.emit(
            worker,
            wr_read(0, _NODE_READ_LEN, 0, self.data_mr.rkey,
                    signaled=False, sges=sges),
            tag=tag)

    def _record_scatter(self, read: WrRef, target: FieldRef,
                        length: int) -> None:
        """Record a READ-response scatter onto WQE fields as an edge."""
        self.builder.program.add_edge(AimEdge(
            src=read, dst=target, length=length, kind="scatter"))

    def _emit_prep(self, worker, tag: str) -> WrRef:
        """Fig 12's R2: copy the compare word into a CAS operand."""
        return self.builder.link(InjectWriteOp(
            worker, self.xbuf.addr, worker.rkey, length=8,
            signaled=False, tag=tag))

    def _chain_next_pointers(self, reads: List[WrRef],
                             next_sge_index: int) -> None:
        """Aim each READ's `next`-pointer scatter at the next READ."""
        for step in range(len(reads) - 1):
            aim_sge(self.builder.program, reads[step], next_sge_index,
                    FieldRef(reads[step + 1], "raddr"), length=8)

    def _post_trigger_recv(self, first_read: WrRef) -> None:
        target = FieldRef(first_read, "raddr")
        self.builder.post_recv(
            self.conn.server_qp,
            [Sge(self.xbuf.addr, 8), Sge(target.addr, 8)],
            scatters=[target])

    # -- plain variant ----------------------------------------------------------

    def _build_plain_instance(self, instance_id: int) -> None:
        """Lower one plain-variant request instance through the IR."""
        builder = self.builder
        tag = f"trav{instance_id}"

        builder.wait(self.control, self.conn.server_qp.recv_wq.cq,
                     InstanceIndex(instance_id, 1), tag=f"{tag}.trigger")

        responses = [self._response_template(instance_id,
                                             f"{tag}.s{s}.resp",
                                             signaled=False)
                     for s in range(self.max_nodes)]
        reads = []
        for step in range(self.max_nodes):
            patch = FieldRef(responses[step], "id")
            read = self._emit_read(
                self.worker,
                [Sge(patch.addr, _PATCH_LEN),
                 Sge(self.sink.addr, 8)],
                tag=f"{tag}.s{step}.read")
            self._record_scatter(read, patch, _PATCH_LEN)
            reads.append(read)
            prep = self._emit_prep(self.worker, f"{tag}.s{step}.prep")
            refs = builder.emit_if(self.control, self.worker,
                                   responses[step], compare_id=None,
                                   tag=f"{tag}.s{step}.if")
            aim(builder.program, prep, "raddr",
                FieldRef(refs.cas, "operand0"))
        self._chain_next_pointers(reads, next_sge_index=1)
        self._post_trigger_recv(reads[0])

    # -- break variant -------------------------------------------------------------

    def _lane_signal_base(self) -> int:
        """Lane gates that will signal, as later WAIT thresholds see it."""
        return self.lane.signaled_posted - self._lane_killed

    def _new_queue_set(self, tag: str) -> QueueSet:
        """One-shot queues and break images for one request at a time,
        named after the instance that first needs them. Each step needs
        4 worker ring slots: a 2-slot READ (3 SGEs), the prep WRITE, and
        the CAS."""
        builder = self.builder
        queues = [
            builder.worker_queue(slots=4 * self.max_nodes + 2,
                                 name=f"{tag}-w"),
            builder.worker_queue(slots=self.max_nodes + 1, name=f"{tag}-b"),
            builder.control_queue(slots=8 * self.max_nodes + 2,
                                  name=f"{tag}-ctl")]
        images = [self.ctx.alloc_registered(
            2 * WQE_SLOT_SIZE, label=f"{tag}.s{step}.brk-image")
            for step in range(self.max_nodes)]
        return QueueSet(tag, queues, images)

    def _build_break_instance(self, instance_id: int) -> _Instance:
        """Lower one break-variant request instance through the IR."""
        builder = self.builder
        tag = f"trav{instance_id}"

        # A hit strands the tails of this request's one-shot queues;
        # finish_request hands the set back to the pool.
        qset = self.queue_sets.take(tag)
        worker, branches, control = qset.queues

        builder.wait(control, self.conn.server_qp.recv_wq.cq,
                     InstanceIndex(instance_id, 1), tag=f"{tag}.trigger")

        # Lane: per step, an (unsignaled) response followed by its gate.
        # Gates are posted in bulk, so per-step WAIT thresholds are
        # computed from this base (discounted by gates that break
        # WRITEs killed), not cumulative bookkeeping.
        lane_signal_base = HostValue(self._lane_signal_base)
        responses, gates, images = [], [], []
        for step in range(self.max_nodes):
            response = self._response_template(instance_id,
                                               f"{tag}.s{step}.resp",
                                               signaled=False)
            gate = builder.emit(self.lane, wr_noop(signaled=True),
                                tag=f"{tag}.s{step}.gate")
            responses.append(response)
            gates.append(gate)
            images.append(BreakImage(builder, response, gate,
                                     tag=f"{tag}.s{step}.brk",
                                     buffer=qset.buffers[step]))
        self._poster.export("gates", gates)

        reads = []
        for step in range(self.max_nodes):
            image = images[step]
            # Break WR first (on the branch queue) so the CAS can aim
            # at its ctrl word; execution order is enforced by ENABLEs.
            brk = image.emit_break_write(branches)
            # READ: key -> break WQE id (the CAS predicate input);
            # valptr+vlen -> image laddr/length (arming data);
            # next -> next iteration's READ.
            key_sink = FieldRef(brk, "id")
            read = self._emit_read(
                worker,
                [Sge(key_sink.addr, 6),
                 Sge(image.image_addr + WQE_HEADER.field_offset("laddr"),
                     _PATCH_LEN - 6),
                 Sge(self.sink.addr, 8)],
                tag=f"{tag}.s{step}.read")
            self._record_scatter(read, key_sink, 6)
            reads.append(read)
            prep = self._emit_prep(worker, f"{tag}.s{step}.prep")
            refs = builder.emit_if(control, worker, brk,
                                   compare_id=None,
                                   tag=f"{tag}.s{step}.if")
            aim(builder.program, prep, "raddr",
                FieldRef(refs.cas, "operand0"))
            # Release the lane pair once the break WR retired; require
            # the gate's completion before the next iteration — the
            # starvation point of Fig 6.
            builder.wait_signals(control, branches,
                                 tag=f"{tag}.s{step}.wait-brk")
            builder.enable(control, gates[step],
                           tag=f"{tag}.s{step}.en-lane")
            builder.wait(control, self.lane.cq,
                         lane_signal_base + (step + 1),
                         tag=f"{tag}.s{step}.wait-gate")
        self._chain_next_pointers(reads, next_sge_index=2)
        last_lane_index = self.lane.wq.posted_count
        self._post_trigger_recv(reads[0])
        return _Instance(
            qset,
            [(gate.wr_index, gate.field_addr("flags")) for gate in gates],
            last_lane_index)

    # -- break-variant host cleanup between requests -------------------------

    def finish_request(self, instance_id: int) -> None:
        """Host-side cleanup after a break-variant request completed.

        A hit stops the chain mid-way: the one-shot worker/branch/
        control queues are left with their unexecuted tails (the
        starved control WAIT would wake once a later request's lane
        gate signals). Only the *shared* response lane needs care:

        1. hand the request's queue set back to the pool. It is reused
           once nothing of it is in flight, and reset first: the
           starved WAIT is abandoned and the rings cleared, so nothing
           can ever revive the stranded tail;
        2. defuse the leftover gates (clear SIGNALED), then release the
           lane through this instance's end — leftover templates and
           defused gates execute as silent NOOPs, advancing the shared
           lane past this instance;
        3. record every gate that will never signal (break-killed +
           defused) so later instances compute reachable lane WAIT
           thresholds.

        The instance's host record is dropped: a finished request
        keeps nothing alive. An instance that was never posted, or is
        already finished, raises :class:`ProgramError`.

        This is exactly the per-request CPU involvement the paper
        ascribes to unrolled loops (§3.4); the recycled variant avoids
        it at the cost of Table 2's extra verbs.
        """
        if not self.use_break:
            return
        record = self.instances.pop(instance_id, None)
        if record is None:
            raise ProgramError(
                f"{self.name}: instance {instance_id} is not posted or "
                f"already finished")
        self.queue_sets.give_back(record.qset)
        lane_wq = self.lane.wq
        memory = self.ctx.memory
        for wr_index, flags_addr in record.gates:
            if wr_index >= lane_wq.fetched_count:
                flags = memory.read_uint(flags_addr, 4)
                memory.write_uint(flags_addr, flags & ~WrFlags.SIGNALED, 4)
        self._lane_killed += sum(
            1 for _wr_index, flags_addr in record.gates
            if not memory.read_uint(flags_addr, 4) & WrFlags.SIGNALED)
        lane_wq.doorbell(record.last_lane_index)

    # -- client helper ----------------------------------------------------------

    def payload_for(self, key: int) -> bytes:
        return list_get_payload(self.list.head, key)
