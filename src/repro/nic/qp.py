"""Queue pairs: reliable-connection (RC) endpoints.

The evaluation uses RC transport exclusively because it is the service
level that supports WAIT/ENABLE and atomics (§5, "NIC setup"). A QP
bundles a send queue and a receive queue; ``connect`` wires two QPs
together. Both ends may live on the *same* NIC — loopback QPs are how a
RedN program manipulates its own host's memory (code regions and data
regions) without any network hop.
"""

from __future__ import annotations

import itertools
from typing import Optional, TYPE_CHECKING

from ..memory.region import ProtectionDomain
from .queue import QueueError, WorkQueue
from .wqe import Wqe

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .rnic import RNIC

__all__ = ["QueuePair"]


class QueuePair:
    """An RC queue pair: (send WQ, recv WQ) + a peer."""

    _qp_nums = itertools.count(0x20)

    def __init__(self, nic: "RNIC", pd: ProtectionDomain,
                 send_wq: WorkQueue, recv_wq: WorkQueue,
                 port_index: int = 0, name: str = ""):
        self.nic = nic
        self.pd = pd
        self.send_wq = send_wq
        self.recv_wq = recv_wq
        self.port_index = port_index
        self.qp_num = next(self._qp_nums)
        self.name = name or f"qp{self.qp_num}"
        self.peer: Optional["QueuePair"] = None
        send_wq.qp = self
        recv_wq.qp = self

    def __repr__(self) -> str:
        peer = self.peer.name if self.peer else "unconnected"
        return f"<QP {self.name} peer={peer}>"

    # -- connection management -------------------------------------------

    def connect(self, peer: "QueuePair") -> None:
        """Bidirectionally wire two QPs (RC connection establishment)."""
        if self.peer is not None or peer.peer is not None:
            raise QueueError("QP already connected")
        self.peer = peer
        peer.peer = self

    @property
    def connected(self) -> bool:
        return self.peer is not None

    @property
    def is_loopback(self) -> bool:
        """True when both ends live on the same NIC (no wire hop)."""
        return self.peer is not None and self.peer.nic is self.nic

    # -- host posting API ---------------------------------------------------

    def post_send(self, wqe: Wqe,
                  ring_doorbell: Optional[bool] = None) -> int:
        """Post to the send queue; returns the WR index.

        ``ring_doorbell`` resolves against the queue's managed flag —
        ``None`` is not "no doorbell", it is "the WQ's policy":

        ========================  ==================================
        ``ring_doorbell``         effect on the send WQ
        ========================  ==================================
        ``None`` + normal WQ      doorbell rung (driver default)
        ``None`` + managed WQ     **no** doorbell — the paper's
                                  managed flag "disables the driver
                                  from issuing doorbells after a WR
                                  is posted" (§5); only an explicit
                                  doorbell or an ENABLE verb releases
                                  the WQE
        ``True``                  doorbell rung regardless
        ``False``                 suppressed regardless (batched
                                  posting — see
                                  :class:`~repro.nic.queue.DoorbellBatcher`)
        ========================  ==================================

        The same table applies to :meth:`post_recv` on the recv WQ.
        """
        return self.send_wq.post(wqe, ring_doorbell=ring_doorbell)

    def post_recv(self, wqe: Wqe,
                  ring_doorbell: Optional[bool] = None) -> int:
        """Post to the receive queue; returns the WR index.

        ``ring_doorbell`` follows the :meth:`post_send` table: ``None``
        falls through to the WQ policy (ring unless managed), ``True``/
        ``False`` force it.
        """
        return self.recv_wq.post(wqe, ring_doorbell=ring_doorbell)
