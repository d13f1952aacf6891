"""Offload setup and triggering (paper §3.5, "Offload setup" / Fig 3).

The deployment story the paper describes:

1. A client opens an RDMA connection; the server builds per-client
   managed WQs holding the offload program (code region) and registers
   the data region.
2. The client *triggers* the offload with a plain two-sided SEND — no
   rkeys to server memory, which is the security argument of §3.5. The
   SEND's payload is scattered by a pre-posted RECV directly into WQE
   fields (argument injection).
3. The program executes on the server NIC and answers with a
   WRITE_IMM into a client-registered response buffer, consuming a
   client-posted RECV so the client gets a CQE.

:class:`OffloadConnection` wires the QPs (optionally several per client
— extra response lanes for RedN-Parallel); :class:`OffloadClient` is
the host-side trigger/response helper with timeout support (a miss
produces no response WRITE, by design of the conditional chains).
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from ..ibv.api import VerbsContext
from ..ibv.wr import wr_recv, wr_send
from ..memory.region import AccessFlags, ProtectionDomain
from ..nic.qp import QueuePair
from ..nic.rnic import RNIC
from ..sim.core import Simulator
from .program import RednContext

__all__ = ["OffloadConnection", "OffloadClient", "CallResult"]


class OffloadConnection:
    """Server<->client QP wiring for one offloaded service client."""

    def __init__(self, server_ctx: RednContext, client_nic: RNIC,
                 client_pd: ProtectionDomain, num_lanes: int = 1,
                 response_capacity: int = 256 * 1024,
                 recv_slots: int = 1024, send_slots: int = 1024,
                 client_recv_slots: int = 1024,
                 managed_recv: bool = False,
                 name: str = "conn", server_port: int = 0):
        self.server_ctx = server_ctx
        self.client_nic = client_nic
        self.client_pd = client_pd
        self.name = name
        self.server_qps: List[QueuePair] = []
        self.client_qps: List[QueuePair] = []

        client_recv_cq = client_nic.create_cq(name=f"{name}-crcq")
        for lane in range(num_lanes):
            if server_ctx.process is not None:
                server_qp = server_ctx.process.create_qp(
                    server_ctx.pd, managed_send=True,
                    managed_recv=managed_recv,
                    recv_slots=recv_slots, send_slots=send_slots,
                    port_index=server_port, name=f"{name}-s{lane}")
            else:
                server_qp = server_ctx.nic.create_qp(
                    server_ctx.pd, managed_send=True,
                    managed_recv=managed_recv,
                    recv_slots=recv_slots, send_slots=send_slots,
                    owner=server_ctx.owner,
                    port_index=server_port, name=f"{name}-s{lane}")
            client_qp = client_nic.create_qp(
                client_pd, recv_cq=client_recv_cq,
                recv_slots=client_recv_slots, name=f"{name}-c{lane}")
            server_qp.connect(client_qp)
            self.server_qps.append(server_qp)
            self.client_qps.append(client_qp)

        # Client-registered response buffer the armed WRITE_IMMs target.
        self.response_alloc = client_nic.memory.alloc(
            response_capacity, owner="client", label=f"{name}-resp")
        self.response_mr = client_pd.register(
            self.response_alloc, access=AccessFlags.ALL)

    @property
    def server_qp(self) -> QueuePair:
        return self.server_qps[0]

    @property
    def client_qp(self) -> QueuePair:
        return self.client_qps[0]

    @property
    def client_recv_cq(self):
        return self.client_qps[0].recv_wq.cq

    @property
    def response_addr(self) -> int:
        return self.response_alloc.addr

    @property
    def response_rkey(self) -> int:
        return self.response_mr.rkey


class CallResult:
    """Outcome of one offload trigger."""

    __slots__ = ("ok", "data", "immediate", "latency_ns")

    def __init__(self, ok: bool, data: bytes = b"", immediate: int = 0,
                 latency_ns: int = 0):
        self.ok = ok
        self.data = data
        self.immediate = immediate
        self.latency_ns = latency_ns

    def __repr__(self) -> str:
        return (f"<CallResult ok={self.ok} bytes={len(self.data)} "
                f"lat={self.latency_ns}ns>")


class OffloadClient:
    """Client-side trigger: SEND the arguments, await the WRITE_IMM."""

    def __init__(self, conn: OffloadConnection, verbs: VerbsContext,
                 request_capacity: int = 4096):
        self.conn = conn
        self.verbs = verbs
        self.sim: Simulator = verbs.sim
        memory = conn.client_nic.memory
        self.request_alloc = memory.alloc(
            request_capacity, owner="client", label=f"{conn.name}-req")
        self._recv_id = 0

    def ensure_recvs(self, count: int = 8) -> None:
        """Keep ``count`` RECVs outstanding per lane for WRITE_IMMs.

        Replenishes based on each lane's actual consumption so the pool
        never drains mid-benchmark.
        """
        for client_qp in self.conn.client_qps:
            recv_wq = client_qp.recv_wq
            while recv_wq.posted_count - recv_wq.fetched_count < count:
                client_qp.post_recv(wr_recv(wr_id=self._recv_id))
                self._recv_id += 1

    def call(self, payload: bytes,
             timeout_ns: int = 2_000_000) -> Generator:
        """Trigger the offload; returns a :class:`CallResult`.

        A timeout means no conditional branch armed a response — for
        the KV offloads, a miss.
        """
        self.ensure_recvs()
        start = self.sim.now
        memory = self.conn.client_nic.memory
        memory.write(self.request_alloc.addr, payload)
        yield from self.verbs.post_send(
            self.conn.client_qp,
            wr_send(self.request_alloc.addr, len(payload),
                    signaled=False))
        cq = self.conn.client_recv_cq
        deadline = self.sim.timeout(timeout_ns)
        probe = self.sim.probe
        while True:
            cqe = cq.poll()
            if cqe is not None:
                if self.verbs.poll_detect_ns:
                    yield self.sim.timeout(self.verbs.poll_detect_ns)
                data = memory.read(self.conn.response_addr, cqe.byte_len) \
                    if cqe.byte_len else b""
                if probe.offload_call:
                    for hook in probe.offload_call:
                        hook(self.conn, start, True, len(data))
                return CallResult(True, data, cqe.immediate,
                                  self.sim.now - start)
            if deadline.triggered:
                if probe.offload_call:
                    for hook in probe.offload_call:
                        hook(self.conn, start, False, 0)
                return CallResult(False, latency_ns=self.sim.now - start)
            yield self.sim.any_of([cq.wait_for_event(), deadline])
