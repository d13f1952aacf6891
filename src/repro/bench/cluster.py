"""Multi-bed cluster scenario for the sharded simulator.

``N`` independent testbeds — each a full :class:`Testbed` (server +
client host, NICs, back-to-back link) mounted on its own shard of a
:class:`~repro.sim.sharded.ShardedSimulation` — are joined into a
bidirectional ring of inter-bed links. Each bed runs ``M`` closed-loop
cluster clients that issue RPCs to the next bed around the ring; the
remote bed's frontend services every RPC with local RDMA work (a burst
of unsignaled WRITEs capped by a signaled CAS over its own
client->server connection, the Table 3 idiom) and sends the reply back
over the reverse channel.

This is the ``cluster_simspeed`` scenario of
``tests/test_sim_fingerprints.py``: the same scenario is driven once by
the conservative sharded synchronizer (:meth:`ShardedSimulation.run`)
and once by the one-timestamp-window serial merge
(:meth:`ShardedSimulation.run_serial`); both must produce bit-identical
results (the :meth:`ClusterScenario.run` fingerprint includes per-bed
event counts), and the test pins each drive's synchronizer rounds.

The inter-bed link latency doubles as the synchronizer's lookahead, so
it is deliberately the widest latency in the system: with ~1 µs links
over beds whose local events are tens of nanoseconds apart, a sharded
round lets every bed retire hundreds of events per synchronizer visit
while the serial merge pays one visit per distinct timestamp.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ibv import wr_cas, wr_write
from ..net.conn import QpPool
from ..sim.sharded import Shard, ShardChannel, ShardedSimulation
from .testbed import Testbed

__all__ = ["ClusterScenario", "build_cluster"]

#: One-way inter-bed link latency (and therefore the lookahead).
CLUSTER_LINK_NS = 1000

#: Client think time between a reply and the next request.
THINK_NS = 2000

#: Unsignaled WRITEs per RPC before the signaled CAS.
WRITES_PER_REQUEST = 8

#: Hot-key skew for telemetry attribution: 16 logical keys with a
#: zipf-ish mass concentration on key 0 — a pure function of
#: (bed, client, seq), so the key stream is deterministic and
#: mode-independent like everything else in the fingerprint.
_SKEW_TABLE = ("k0", "k0", "k0", "k0", "k0", "k1", "k1", "k1",
               "k2", "k2", "k3", "k3", "k4", "k5", "k6", "k7")


class _BedRig:
    """One bed's RDMA plumbing, shared by its frontend process.

    The client side goes through the connection plane
    (:class:`repro.net.conn.QpPool`) rather than a hand-wired QP: the
    frontend holds a single long-lived lease on a capacity-1 pool.
    Generation-0 cookie stamps are the identity on ``wr_id`` and the
    pool's shared-CQ router adds no events, so this is byte- and
    timing-identical to the pre-pool wiring — the ``cluster_simspeed``
    fingerprint gate holds that claim.
    """

    __slots__ = ("bed", "shard", "pool", "lease", "qp", "cq", "src_addr",
                 "sink_addr", "rkey")

    def __init__(self, bed: Testbed, shard: Shard):
        self.bed = bed
        self.shard = shard
        proc = bed.server.spawn_process("sink")
        pd = proc.create_pd()
        sink = proc.alloc(4096, label="sink")
        sink_mr = pd.register(sink)
        server_qp = proc.create_qp(pd, name=f"{shard.name}-s")
        self.pool = QpPool(
            bed.clients[0].nic, bed.client_pd(0), capacity=1,
            connect=lambda qp, _index: server_qp.connect(qp),
            send_slots=64, name=f"{shard.name}-c")
        self.lease = self.pool.lease(tag=f"{shard.name}-frontend")
        self.qp = self.lease.qp
        self.cq = self.pool.send_cq
        self.src_addr = bed.clients[0].memory.alloc(
            64, owner="client").addr
        self.sink_addr = sink.addr
        self.rkey = sink_mr.rkey

    def service(self):
        """The per-RPC local RDMA work: WRITE burst + signaled CAS."""
        base = self.cq.count
        for _ in range(WRITES_PER_REQUEST):
            self.lease.post_send(
                wr_write(self.src_addr, 64, self.sink_addr,
                         self.rkey, signaled=False))
        self.lease.post_send(wr_cas(self.sink_addr, self.rkey, 0, 1,
                                    signaled=True))
        return self.cq.wait_for_count(base + 1)


def _frontend(rig: _BedRig, reply_to: Dict[int, ShardChannel]):
    """Serve inbound RPCs forever; quiesces between requests."""
    rpc = rig.shard.mailbox("rpc")
    sim = rig.bed.sim
    while True:
        src_index, client_id, seq = yield rpc.get()
        yield rig.service()
        if sim.probe.serviced:
            for hook in sim.probe.serviced:
                hook()
        reply_to[src_index].send(f"rsp{client_id}", seq)


def _client(rig: _BedRig, chan: ShardChannel, client_id: int,
            requests: int, start_skew: int):
    """Closed loop: RPC to the next bed, await the reply, think.

    ``start_skew`` and the think-time dither keep the beds out of
    phase-lock: real cluster clients do not start on the same
    nanosecond, and perfectly aligned beds would make every timestamp
    collide across shards — flattering the serial merge with many
    events per visit it would never see in practice. Both are pure
    functions of (bed, client, seq), so the schedule stays deterministic
    and mode-independent.
    """
    sim = rig.bed.sim
    rsp = rig.shard.mailbox(f"rsp{client_id}")
    if start_skew:
        yield start_skew
    latency_sum = 0
    dither_base = rig.shard.index * 13 + client_id * 7
    bed_index = rig.shard.index
    for seq in range(requests):
        start = sim.now
        chan.send("rpc", (bed_index, client_id, seq))
        reply = yield rsp.get()
        assert reply == seq, f"out-of-order reply {reply} != {seq}"
        latency_sum += sim.now - start
        if sim.probe.request:
            key = _SKEW_TABLE[(bed_index * 31 + client_id * 17
                               + seq * 7) % 16]
            for hook in sim.probe.request:
                hook(sim.now - start, key, None)
        yield THINK_NS + (dither_base + seq * 31) % 97
    return latency_sum


class ClusterScenario:
    """A built cluster, runnable exactly once (sharded or serial)."""

    def __init__(self, num_beds: int, clients_per_bed: int,
                 requests_per_client: int, link_ns: int):
        self.num_beds = num_beds
        self.clients_per_bed = clients_per_bed
        self.requests_per_client = requests_per_client
        self.sharded = ShardedSimulation()
        self.rigs: List[_BedRig] = []
        for index in range(num_beds):
            shard = self.sharded.add_shard(f"bed{index}")
            bed = Testbed(num_clients=1, sim=shard.sim)
            self.rigs.append(_BedRig(bed, shard))
        # Bidirectional ring: requests go forward, replies backward.
        self._forward: List[ShardChannel] = []
        self._reply_to: List[Dict[int, ShardChannel]] = [
            {} for _ in range(num_beds)]
        for index in range(num_beds):
            nxt = (index + 1) % num_beds
            fwd, back = self.sharded.link(
                self.sharded.shards[index], self.sharded.shards[nxt],
                one_way_ns=link_ns)
            self._forward.append(fwd)
            self._reply_to[nxt][index] = back
        self._ran = False
        self._telemetry = None
        self._telemetry_path: Optional[str] = None

    def attach_telemetry(self, window_ns: Optional[int] = None,
                         sink=None, path: Optional[str] = None):
        """Attach a per-bed telemetry collector fleet before running.

        Returns the :class:`~repro.obs.telemetry.FleetTelemetry`; its
        merged record stream is finalized by :meth:`run` and, when
        ``path`` is given, written there as JSONL.
        """
        from ..obs.telemetry import DEFAULT_WINDOW_NS, FleetTelemetry
        if self._telemetry is not None:
            raise RuntimeError("telemetry already attached")
        fleet = FleetTelemetry(
            window_ns=window_ns or DEFAULT_WINDOW_NS, sink=sink)
        for rig in self.rigs:
            fleet.attach(rig.bed.sim, bed=rig.shard.name,
                         shard=rig.shard.index)
        self.sharded.telemetry = fleet
        self._telemetry = fleet
        self._telemetry_path = path
        return fleet

    def events_executed(self) -> List[int]:
        """Per-bed kernel event counts — part of the identity surface."""
        return [rig.bed.sim.metrics.snapshot()["gauges"]
                ["sim.events_executed"] for rig in self.rigs]

    def run(self, serial: bool = False,
            until: Optional[int] = None) -> Tuple[dict, dict]:
        """Execute; returns ``(fingerprint, measures)``.

        The fingerprint is a pure function of the simulated system —
        identical for sharded and serial drives. ``measures`` carries
        driver-dependent observables (round count, messages).
        """
        if self._ran:
            raise RuntimeError("a ClusterScenario runs exactly once; "
                               "build a fresh one per drive")
        self._ran = True
        client_procs = []
        for index, rig in enumerate(self.rigs):
            rig.bed.sim.process(_frontend(rig, self._reply_to[index]),
                                name=f"{rig.shard.name}-frontend")
            for cid in range(self.clients_per_bed):
                client_procs.append(rig.bed.sim.process(
                    _client(rig, self._forward[index], cid,
                            self.requests_per_client,
                            start_skew=index * 157 + cid * 61),
                    name=f"{rig.shard.name}-client{cid}"))
        if serial:
            self.sharded.run_serial(until=until)
        else:
            self.sharded.run(until=until)
        failures = self.sharded.failed_processes()
        if failures:
            raise AssertionError(f"cluster processes failed: {failures}")
        unfinished = [p for p in client_procs if not p.triggered]
        if unfinished:
            raise AssertionError(f"clients never finished: {unfinished}")
        fingerprint = {
            "requests": (self.num_beds * self.clients_per_bed
                         * self.requests_per_client),
            "latency_sum_ns": sum(p.value for p in client_procs),
            "frontier_ns": self.sharded.now,
            "per_bed_events": self.events_executed(),
        }
        measures = {
            "rounds": self.sharded.rounds,
            "messages": self.sharded.fabric.messages_sent,
        }
        if self._telemetry is not None:
            records = self._telemetry.finalize()
            self._telemetry.close()
            measures["telemetry_records"] = len(records)
            if self._telemetry_path:
                with open(self._telemetry_path, "w") as handle:
                    handle.write(self._telemetry.to_jsonl())
        return fingerprint, measures


def build_cluster(num_beds: int = 16, clients_per_bed: int = 1,
                  requests_per_client: int = 40,
                  link_ns: int = CLUSTER_LINK_NS,
                  telemetry_path: Optional[str] = None
                  ) -> ClusterScenario:
    """The canonical ``cluster_simspeed`` configuration.

    ``telemetry_path`` attaches the telemetry fleet and writes the
    merged JSONL stream there after the run.
    """
    scenario = ClusterScenario(num_beds, clients_per_bed,
                               requests_per_client, link_ns)
    if telemetry_path:
        scenario.attach_telemetry(path=telemetry_path)
    return scenario
