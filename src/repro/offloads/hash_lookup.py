"""Offloaded hash-table *get* (paper §5.2, Fig 9).

The program, per request instance:

1. The client computes its key's candidate buckets and SENDs
   ``[compare_word, compare_word, bucket1_addr, bucket2_addr]``. A
   pre-posted RECV scatters the compare words into the CAS WQEs'
   operand fields and the bucket addresses into the READ WQEs' raddr
   fields — data-dependent self-modification via argument injection.
2. Per bucket: a READ fetches the 18-byte bucket record and lands it at
   ``response_wqe + 2`` — key into the id field, value pointer into
   laddr, value length into length (the record/WQE layout pact).
3. A CAS compares the response WQE's ctrl word against
   ``(NOOP || x)``: equal keys arm the response (NOOP -> WRITE_IMM).
4. The armed response streams the value straight from the server slab
   into the client's registered response buffer, consuming a client
   RECV so the client gets a CQE. On a miss nothing fires and the
   client times out.

Variants (Fig 11): **sequential** shares one worker queue and control
chain (buckets probed one-by-one on one NIC PU); **parallel** gives
each bucket its own worker/control queues — and its own response lane
QP, because two response templates racing on one managed queue would
let an ENABLE release a not-yet-armed sibling ("The trade-off is
having to allocate extra WQs for each level of parallelism", §5.2.2).
"""

from __future__ import annotations

from typing import List, Optional

from ..datastructs.cuckoo import CuckooTable
from ..ibv.wr import wr_write_imm
from ..memory.layout import pack_uint
from ..memory.region import MemoryRegion
from ..nic.opcodes import Opcode
from ..nic.wqe import Sge, ctrl_word
from ..redn.builder import ProgramBuilder
from ..redn.ir import FieldRef, InjectReadOp, InstanceIndex
from ..redn.offload import OffloadConnection
from ..redn.program import RednContext, WrRef
from ..redn.template import InstancePoster

__all__ = ["HashGetOffload", "hash_get_payload"]

_PATCH_LEN = 18   # key(6) + valptr(8) + vlen(4)


def hash_get_payload(table: CuckooTable, key: int,
                     buckets: int = 2) -> bytes:
    """Client-side request bytes for a key (the Fig 9 SEND payload)."""
    compare = pack_uint(ctrl_word(Opcode.NOOP, key), 8)
    addrs = table.candidate_addrs(key)[:buckets]
    payload = compare * buckets
    for addr in addrs:
        payload += pack_uint(addr, 8)
    return payload


class HashGetOffload:
    """Server-side Fig 9 program over a :class:`CuckooTable`."""

    def __init__(self, ctx: RednContext, table: CuckooTable,
                 data_mr: MemoryRegion, conn: OffloadConnection,
                 parallel: bool = False, buckets: int = 2,
                 port_index: int = 0, max_instances: int = 64,
                 name: str = "hashget"):
        if buckets < 1 or buckets > table.NUM_HASHES:
            raise ValueError(f"buckets must be 1..{table.NUM_HASHES}")
        if parallel and len(conn.server_qps) < buckets:
            raise ValueError(
                "parallel lookups need one connection lane per bucket")
        self.ctx = ctx
        self.table = table
        self.data_mr = data_mr
        self.conn = conn
        self.parallel = parallel
        self.buckets = buckets
        self.name = name
        self.builder = ProgramBuilder(ctx, name=name)
        self.instances_posted = 0

        # Ring capacities scale with the instances the host pre-posts:
        # per instance and bucket, 2 worker WRs (READ + CAS) and 6
        # control WRs (trigger WAIT, ENABLE + WAIT for the READ, and the
        # if's 3 E-verbs), with slack on both.
        worker_slots = max(256, 3 * max_instances *
                           (1 if parallel else buckets))
        control_slots = max(256, 7 * max_instances *
                            (1 if parallel else buckets))
        if parallel:
            # One worker + control chain per bucket: independent PUs.
            self.workers = [
                self.builder.worker_queue(
                    slots=worker_slots,
                    name=f"{name}-w{b}", port_index=port_index)
                for b in range(buckets)]
            self.controls = [
                self.builder.control_queue(
                    slots=control_slots,
                    name=f"{name}-ctl{b}", port_index=port_index)
                for b in range(buckets)]
            self.response_lanes = [
                self.builder.adopt_client_queue(conn.server_qps[b],
                                                name=f"{name}-resp{b}")
                for b in range(buckets)]
        else:
            worker = self.builder.worker_queue(
                slots=worker_slots, name=f"{name}-w",
                port_index=port_index)
            control = self.builder.control_queue(
                slots=control_slots, name=f"{name}-ctl",
                port_index=port_index)
            lane = self.builder.adopt_client_queue(conn.server_qps[0],
                                                   name=f"{name}-resp")
            self.workers = [worker] * buckets
            self.controls = [control] * buckets
            self.response_lanes = [lane] * buckets
        self._poster = InstancePoster(ctx, self._build_instance, "get{}")

    # -- instance posting (the CPU's setup-time job) ----------------------

    def post_instances(self, count: int) -> None:
        """Pre-post ``count`` request instances + their trigger RECVs.

        Instances 0 and 1 are lowered through the IR; later ones are
        stamped from the compiled template (:mod:`repro.redn.template`).
        An instance that does not fit raises
        :class:`~repro.nic.queue.QueueError` with nothing of it posted.
        """
        for _ in range(count):
            self._poster.post(self.instances_posted)
            self.instances_posted += 1

    def _build_instance(self, instance: int) -> None:
        """Lower one request instance through the IR (Fig 9)."""
        builder = self.builder
        tag = f"get{instance}"

        cas_sinks: List[WrRef] = []
        read_sinks: List[WrRef] = []
        for bucket in range(self.buckets):
            worker = self.workers[bucket]
            control = self.controls[bucket]
            lane = self.response_lanes[bucket]

            # Response template: WRITE_IMM value -> client buffer. The
            # READ patches laddr/length; immediate returns the instance.
            response = builder.template(
                lane,
                wr_write_imm(0, 0, self.conn.response_addr,
                             self.conn.response_rkey,
                             immediate=InstanceIndex(instance),
                             signaled=True),
                tag=f"{tag}.b{bucket}.resp")

            # Bucket READ: raddr injected by the RECV; record bytes land
            # on the response template's id|laddr|length fields — a
            # symbolic (wr, field) target, not a byte offset.
            read = builder.link(InjectReadOp(
                worker, FieldRef(response, "id"), _PATCH_LEN,
                self.data_mr.rkey, signaled=True,
                tag=f"{tag}.b{bucket}.read"))

            # Control chain for this bucket: trigger -> READ -> if.
            builder.wait(control, self.conn.server_qp.recv_wq.cq,
                         InstanceIndex(instance, 1),
                         tag=f"{tag}.b{bucket}.trigger")
            builder.enable(control, read, tag=f"{tag}.b{bucket}.en-read")
            builder.wait_signals(control, worker,
                                 tag=f"{tag}.b{bucket}.wait-read")
            refs = builder.emit_if(control, worker, response,
                                   compare_id=None,
                                   tag=f"{tag}.b{bucket}.if")
            cas_sinks.append(refs.cas)
            read_sinks.append(read)

        # Trigger RECV: scatter [cmp*buckets, addr*buckets] into the
        # CAS operands and READ raddr fields of this instance.
        targets = ([FieldRef(cas, "operand0") for cas in cas_sinks]
                   + [FieldRef(read, "raddr") for read in read_sinks])
        builder.post_recv(self.conn.server_qp,
                          [Sge(target.addr, 8) for target in targets],
                          scatters=targets)
        for control in dict.fromkeys(self.controls):
            control.doorbell()

    # -- client helper ------------------------------------------------------

    def payload_for(self, key: int) -> bytes:
        return hash_get_payload(self.table, key, buckets=self.buckets)
