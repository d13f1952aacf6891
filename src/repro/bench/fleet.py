"""Sharded KV fleet serving thousands of pooled client connections.

The ROADMAP item-1 scenario, mounted on the connection plane
(:mod:`repro.net.conn`) and the sharded simulator core:

* ``N`` shards, each a full server + gateway host pair
  (:class:`Testbed`) on its own :class:`ShardedSimulation` shard. The
  server hosts a cuckoo-hash :class:`MemcachedServer` holding the keys
  a :class:`HashRing` assigns to that shard.
* Thousands of closed-loop Memtier-style logical client connections
  (``clients_per_shard`` per shard) draw keys from a zipfian hot-key
  table. A key owned by the client's home shard is served locally; any
  other key is forwarded over the inter-shard fabric to the owner's
  gateway (consistent-hash request routing).
* All RDMA data-path work goes through a per-shard :class:`QpPool`
  (``pool_qps`` QPs leased per request, LRU-recycled) whose QPs
  complete into **one shared CQ pair** demuxed by the pool's
  :class:`CompletionRouter` — O(1) CQs per host, not O(clients).
* A *get* fetches **both** cuckoo candidate buckets with one-sided
  READs — posted through a :class:`DoorbellBatcher` when
  ``batch_doorbells`` is on, so the two READs cost **one** ring write
  — then READs the value out of the slab. The shard's hottest owned
  key is instead served by the paper's Fig 9 NIC offload
  (:class:`HashGetOffload`), one offload program per shard.
* The same built fleet runs under the conservative sharded
  synchronizer or the serial merge, and both drives must be
  bit-identical; this is the ``fleet_simspeed`` scenario of
  ``tests/test_sim_fingerprints.py``.

Every stochastic-looking choice (zipf draw, start skew, think dither)
is a pure integer function of ``(shard, client, seq)``, so the
schedule — and the fingerprint — is deterministic and drive-mode
independent. Doorbell batching on/off are *both* deterministic; they
differ in timing and ring-write counts (that is the point), which the
fingerprint records via ``doorbell_rings``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..apps.memcached import MemcachedServer
from ..datastructs.hashing import splitmix64
from ..datastructs.records import BUCKET_SIZE
from ..ibv import wr_read
from ..net.conn import HashRing, QpPool
from ..nic.queue import DoorbellBatcher
from ..obs.telemetry import TelemetryCollector
from ..offloads.hash_lookup import hash_get_payload
from ..redn.offload import OffloadClient
from ..sim.resources import Resource
from ..sim.sharded import Shard, ShardChannel, ShardedSimulation
from .stats import percentile
from .testbed import Testbed

__all__ = ["FLEET_LINK_NS", "FleetError", "FleetScenario", "build_fleet"]

#: One-way inter-shard link latency (= the synchronizer lookahead).
FLEET_LINK_NS = 1000

#: Client think time between a reply and the next request.
THINK_NS = 1500

#: Global key universe; ownership is consistent-hashed over the shards.
NUM_KEYS = 128

VALUE_SIZE = 64


class FleetError(RuntimeError):
    """A fleet run ended with failed or unfinished processes.

    Typed (instead of a bare ``AssertionError``) so drivers like
    ``tools/fleet.py`` can attribute the failure: which beds were
    implicated and which simulated processes died there.
    """

    def __init__(self, message: str, beds: List[str],
                 processes: List[str]):
        detail = ""
        if beds:
            detail = f" [beds: {', '.join(beds)};" \
                     f" processes: {', '.join(processes)}]"
        super().__init__(message + detail)
        #: Implicated bed (shard) names, deduped, stream order.
        self.beds = beds
        #: The failed/unfinished simulated process names.
        self.processes = processes


def _zipf_table(num_keys: int = NUM_KEYS, head: int = 64) -> Tuple[int, ...]:
    """A zipf-ish draw table: key ``k`` appears ~``head/k`` times.

    Integer-only construction (no float powers), so the table — and
    every key draw — is bit-stable across platforms. Keys are 1-based
    (0 is not a legal cuckoo key); key 1 is the global hottest and
    mass decays harmonically down the key ids.
    """
    table: List[int] = []
    for key in range(1, num_keys + 1):
        table.extend([key] * max(1, head // key))
    return tuple(table)


_ZIPF = _zipf_table()


def _pick_key(shard: int, client: int, seq: int) -> int:
    """The zipfian key stream: pure function of (shard, client, seq)."""
    mix = splitmix64(shard * 1_000_003 + client * 10_007 + seq * 101)
    return _ZIPF[mix % len(_ZIPF)]


class _ShardRig:
    """One shard: cuckoo-KV server + gateway host with the conn plane."""

    def __init__(self, bed: Testbed, shard: Shard, owned_keys: List[int],
                 pool_qps: int, batch_doorbells: bool):
        self.bed = bed
        self.shard = shard
        self.index = shard.index
        self.sim = bed.sim
        self.owned_keys = owned_keys
        self.executed = 0            # requests served by this shard
        self.doorbell_rings = 0      # data-path ring writes (host count)
        self.latencies: List[int] = []
        #: Simulated time after which this shard's clients stop issuing
        #: requests (the failover scenario quiesces the doomed shard).
        self.stop_at: Optional[int] = None

        self.server = MemcachedServer(
            bed.server, num_buckets=512, slab_size=1024 * 1024,
            name=f"{shard.name}-kv")
        for key in owned_keys:
            self.server.set(key, bytes([key & 0xFF]) * VALUE_SIZE)

        # The connection plane: pooled QPs from the gateway host to the
        # server, all completing into one shared CQ pair.
        def connect(qp, index):
            server_qp = self.server.process.create_qp(
                self.server.pd, name=f"{shard.name}-ps{index}")
            server_qp.connect(qp)

        self.pool = QpPool(bed.clients[0].nic, bed.client_pd(0),
                           capacity=pool_qps, connect=connect,
                           send_slots=64, recv_slots=16,
                           name=f"{shard.name}-pool")
        self.batchers: Optional[List[DoorbellBatcher]] = None
        if batch_doorbells:
            self.batchers = [DoorbellBatcher(qp.send_wq, max_batch=8)
                             for qp in self.pool.qps]
        # Per-lease scratch slices: concurrent gets on different leases
        # must not land their READs in the same client memory.
        self._scratch = bed.clients[0].memory.alloc(
            256 * pool_qps, owner="client", label=f"{shard.name}-scratch")
        self.table_rkey = self.server.table_mr.rkey
        self.slab_rkey = self.server.slab_mr.rkey

        # The shard's hottest owned key is NIC-served (Fig 9 offload);
        # calls serialize on one offload lane per shard.
        self.hot_key: Optional[int] = min(owned_keys) if owned_keys else None
        self.offload = None
        if self.hot_key is not None:
            self.offload, conn = self.server.attach_get_offload(
                bed.clients[0].nic, bed.client_pd(0), max_instances=8,
                name=f"{shard.name}-off")
            self.offload_client = OffloadClient(conn, bed.client_verbs(0))
            self.offload_lock = Resource(self.sim, 1,
                                         name=f"{shard.name}-offlock")

    # -- the per-request data path ----------------------------------------

    def execute_get(self, key: int, blame=None):
        """Serve one get on this shard; returns the path label.

        ``blame`` is an optional :class:`~repro.obs.blame.RequestBlame`
        context; the connection plane (pool acquire, doorbell batch,
        CQE demux) records its spans into it, and this method brackets
        the offload/service windows around them.
        """
        if blame is not None:
            blame.locus = self.index
        if self.offload is not None and key == self.hot_key:
            wait_from = self.sim.now
            grant = yield self.offload_lock.acquire()
            if blame is not None:
                blame.span(wait_from, self.sim.now, "pool_wait",
                           self.offload_lock.name)
                exec_from = self.sim.now
            try:
                self.offload.post_instances(1)
                result = yield from self.offload_client.call(
                    hash_get_payload(self.server.table, key),
                    timeout_ns=10_000_000)
                assert result.ok, f"offload miss for hot key {key}"
                assert result.data[:1] == bytes([key & 0xFF])
            finally:
                self.offload_lock.release(grant)
            if blame is not None:
                blame.span(exec_from, self.sim.now, "offload_exec",
                           f"{self.shard.name}-off")
            self.executed += 1
            return "offload"
        service_from = self.sim.now
        lease = yield from self.pool.acquire(tag=f"k{key}", blame=blame)
        try:
            yield from self._pooled_get(lease, key)
        finally:
            self.pool.release(lease)
        if blame is not None:
            # Covers the lease wait too; the sweep's priority order
            # carves pool_wait/doorbell_batch/cqe_demux out of it.
            blame.span(service_from, self.sim.now, "service",
                       f"{self.shard.name}-kv")
        self.executed += 1
        return "pooled"

    def _pooled_get(self, lease, key: int):
        """Two-phase one-sided get over a pooled QP.

        Phase 1 READs *both* cuckoo candidate buckets (the classic
        parallel-probe optimization); with batching on, the two READs
        ride one coalesced doorbell. Phase 2 READs the value from the
        slab. WR order on one QP guarantees the unsignaled first READ
        landed before the signaled second one completes.
        """
        table = self.server.table
        addrs = table.candidate_addrs(key)
        scratch = self._scratch.addr + 256 * lease.index
        bucket0 = wr_read(scratch, BUCKET_SIZE, addrs[0],
                          self.table_rkey, signaled=False)
        bucket1 = wr_read(scratch + 64, BUCKET_SIZE, addrs[1],
                          self.table_rkey, wr_id=1, signaled=True)
        if self.batchers is not None:
            batcher = self.batchers[lease.index]
            batcher.blame = lease.blame
            lease.post_send(bucket0, batcher=batcher)
            lease.post_send(bucket1, batcher=batcher)
            batcher.flush()
            self.doorbell_rings += 1
        else:
            lease.post_send(bucket0)
            lease.post_send(bucket1)
            self.doorbell_rings += 2
        cqe = yield from lease.wait_cqe()
        assert cqe.ok and cqe.wr_id == 1
        # Parse the fetched buckets for the value pointer (the host
        # consults the same table the READ just snapshotted).
        found = table.lookup_ptr(key)
        assert found is not None, f"key {key} missing from shard {self.index}"
        valptr, vlen = found
        lease.post_send(wr_read(scratch + 128, min(vlen, 64), valptr,
                                self.slab_rkey, wr_id=2, signaled=True))
        self.doorbell_rings += 1
        cqe = yield from lease.wait_cqe()
        assert cqe.ok and cqe.wr_id == 2
        value = self.bed.clients[0].memory.read(scratch + 128, 1)
        assert value == bytes([key & 0xFF]), \
            f"value mismatch for key {key}: {value!r}"


def _gateway(rig: _ShardRig, reply_to: Dict[int, ShardChannel]):
    """One remote-exec worker: serve forwarded gets forever."""
    rpc = rig.shard.mailbox("rpc")
    sim = rig.sim
    while True:
        src_index, gid, seq, key, ctx = yield rpc.get()
        if ctx is not None:
            ctx.hop_received(sim.now, rig.index, "rpc")
        yield from rig.execute_get(key, blame=ctx)
        if sim.probe.serviced:
            for hook in sim.probe.serviced:
                hook()
        sent = sim.now
        arrival = reply_to[src_index].send(f"rsp{gid}", seq)
        if ctx is not None:
            # Queue label "rsp", not f"rsp{gid}": per-connection reply
            # mailboxes would explode blame-table cardinality.
            ctx.hop_sent(sent, arrival, src_index, "rsp")


def _client(rig: _ShardRig, ring: HashRing, rigs: List[_ShardRig],
            forward: Dict[int, ShardChannel], gid: int, cid: int,
            requests: int, start_skew: int, route=None):
    """One closed-loop logical connection on its home shard's gateway.

    Local keys run the pooled data path in-place; remote keys are
    forwarded to the owner shard's gateway and awaited. Note ``rigs``
    is only indexed for *local* execution — cross-shard interaction
    happens exclusively through the channels, as the synchronizer
    requires.

    ``route`` optionally overrides consistent-hash routing: a pure
    ``(key, now_ns) -> owner`` function (the failover scenario swaps
    rings at a deterministic simulated time). ``rig.stop_at`` ends the
    connection early — before issuing the next request — once the
    home shard's simulated clock reaches it; the return value counts
    the requests actually completed.
    """
    sim = rig.sim
    rsp = rig.shard.mailbox(f"rsp{gid}")
    blame_cls = None
    telemetry = sim.probe.find(TelemetryCollector)
    if telemetry is not None and telemetry.exemplar_k:
        from ..obs.blame import RequestBlame as blame_cls
    if start_skew:
        yield start_skew
    latency_sum = 0
    remote_ops = 0
    completed = 0
    dither_base = rig.index * 13 + cid * 7
    for seq in range(requests):
        if rig.stop_at is not None and sim.now >= rig.stop_at:
            break
        key = _pick_key(rig.index, cid, seq)
        owner = ring.owner(key) if route is None else route(key, sim.now)
        start = sim.now
        # The causal context travels inside the rpc payload (None when
        # capture is off) — payloads are opaque to the fabric, so the
        # schedule and the fingerprint never depend on it.
        ctx = None
        if blame_cls is not None:
            ctx = blame_cls(rig.index, gid * requests + seq, key, start)
        if owner == rig.index:
            yield from rig.execute_get(key, blame=ctx)
        else:
            arrival = forward[owner].send(
                "rpc", (rig.index, gid, seq, key, ctx))
            if ctx is not None:
                ctx.hop_sent(start, arrival, owner, "rpc")
            reply = yield rsp.get()
            assert reply == seq, f"out-of-order reply {reply} != {seq}"
            if ctx is not None:
                ctx.hop_received(sim.now, rig.index, "rsp")
            remote_ops += 1
        latency = sim.now - start
        latency_sum += latency
        completed += 1
        rigs[owner].latencies.append(latency)
        if sim.probe.request:
            for hook in sim.probe.request:
                hook(latency, f"k{key}", ctx)
        yield THINK_NS + (dither_base + seq * 31) % 97
    # sim.now here, not the drained-queue frontier: a dangling offload
    # timeout event otherwise inflates the denominator of Mops.
    return latency_sum, remote_ops, completed, sim.now


class FleetScenario:
    """A built fleet, runnable exactly once (sharded or serial)."""

    def __init__(self, num_shards: int, clients_per_shard: int,
                 requests_per_client: int, pool_qps: int,
                 batch_doorbells: bool, gateway_workers: int,
                 link_ns: int):
        self.num_shards = num_shards
        self.clients_per_shard = clients_per_shard
        self.requests_per_client = requests_per_client
        self.pool_qps = pool_qps
        self.batch_doorbells = batch_doorbells
        self.gateway_workers = gateway_workers
        self.ring = HashRing(num_shards)
        owned = self.ring.partition(range(1, NUM_KEYS + 1))
        self.sharded = ShardedSimulation()
        self.rigs: List[_ShardRig] = []
        for index in range(num_shards):
            shard = self.sharded.add_shard(f"shard{index}")
            bed = Testbed(num_clients=1, sim=shard.sim)
            self.rigs.append(_ShardRig(bed, shard, owned[index],
                                       pool_qps, batch_doorbells))
        # Full mesh: requests to any owner, replies straight back.
        self._forward: List[Dict[int, ShardChannel]] = [
            {} for _ in range(num_shards)]
        for a in range(num_shards):
            for b in range(a + 1, num_shards):
                fwd, back = self.sharded.link(
                    self.sharded.shards[a], self.sharded.shards[b],
                    one_way_ns=link_ns)
                self._forward[a][b] = fwd
                self._forward[b][a] = back
        self._ran = False
        self._telemetry = None
        self._telemetry_path: Optional[str] = None
        #: Optional routing override (see :func:`_client`); fault
        #: scenarios install a time-aware ring swap here before run().
        self.route = None

    @property
    def logical_connections(self) -> int:
        return self.num_shards * self.clients_per_shard

    def attach_telemetry(self, window_ns: Optional[int] = None,
                         path: Optional[str] = None, exemplars: int = 0):
        """Attach one telemetry collector per shard; returns the
        :class:`~repro.obs.telemetry.FleetTelemetry`.

        The run seals and closes it: after the run its merged stream is
        emitted once, and written as JSONL to ``path``.
        ``exemplars`` > 0 turns on tail exemplar capture: each window
        record keeps the ``exemplars`` slowest requests' full blame
        breakdowns (see :mod:`repro.obs.blame`).
        """
        from ..obs.telemetry import DEFAULT_WINDOW_NS, FleetTelemetry
        if self._telemetry is not None:
            raise RuntimeError("telemetry already attached")
        fleet = FleetTelemetry(
            window_ns=window_ns or DEFAULT_WINDOW_NS, exemplars=exemplars)
        for rig in self.rigs:
            fleet.attach(rig.sim, bed=rig.shard.name,
                         shard=rig.shard.index)
        self._telemetry = fleet
        self._telemetry_path = path
        return fleet

    def events_executed(self) -> List[int]:
        """Per-shard kernel event counts — identity surface."""
        return [rig.sim.metrics.snapshot()["gauges"]
                ["sim.events_executed"] for rig in self.rigs]

    def run(self, serial: bool = False,
            until: Optional[int] = None) -> Tuple[dict, dict]:
        """Execute; returns ``(fingerprint, measures)``.

        The fingerprint is a pure function of the simulated system —
        identical for sharded and serial drives (and that identity is
        pinned by ``tests/test_sim_fingerprints.py``).
        ``measures`` carries driver observables and derived reporting
        (aggregate Mops, per-shard isolation).
        """
        if self._ran:
            raise RuntimeError("a FleetScenario runs exactly once; "
                               "build a fresh one per drive")
        self._ran = True
        client_procs = []
        for index, rig in enumerate(self.rigs):
            reply_to = self._forward[index]
            for worker in range(self.gateway_workers):
                rig.sim.process(_gateway(rig, reply_to),
                                name=f"{rig.shard.name}-gw{worker}")
            for cid in range(self.clients_per_shard):
                gid = index * self.clients_per_shard + cid
                client_procs.append(rig.sim.process(
                    _client(rig, self.ring, self.rigs,
                            self._forward[index], gid, cid,
                            self.requests_per_client,
                            start_skew=index * 157 + cid * 61,
                            route=self.route),
                    name=f"{rig.shard.name}-client{cid}"))
        if serial:
            self.sharded.run_serial(until=until)
        else:
            self.sharded.run(until=until)
        failed_beds: List[str] = []
        failed_names: List[str] = []
        for rig in self.rigs:
            dead = list(rig.sim.failed_processes)
            if dead:
                failed_beds.append(rig.shard.name)
                failed_names.extend(p.name for p in dead)
        if failed_names:
            raise FleetError(
                f"{len(failed_names)} fleet process(es) failed",
                failed_beds, failed_names)
        unfinished = [p for p in client_procs if not p.triggered]
        if unfinished:
            beds = sorted({p.name.split("-")[0] for p in unfinished})
            raise FleetError(
                f"{len(unfinished)} client(s) never finished",
                beds, [p.name for p in unfinished])

        # Completed-request counts, not the planned total: clients a
        # fault scenario quiesces early (stop_at) finish cleanly with
        # fewer requests. For a clean run the sum equals the plan.
        requests = sum(p.value[2] for p in client_procs)
        latency_sum = sum(p.value[0] for p in client_procs)
        remote_ops = sum(p.value[1] for p in client_procs)
        offload_ops = sum(
            rig.offload.instances_posted for rig in self.rigs
            if rig.offload is not None)
        pool_stats: Dict[str, int] = {}
        for rig in self.rigs:
            for stat, value in rig.pool.stats().items():
                pool_stats[stat] = pool_stats.get(stat, 0) + value
        all_latencies = sorted(
            lat for rig in self.rigs for lat in rig.latencies)
        frontier = max(p.value[3] for p in client_procs)
        fingerprint = {
            "requests": requests,
            "latency_sum_ns": latency_sum,
            "frontier_ns": frontier,
            "per_shard_events": self.events_executed(),
            "remote_ops": remote_ops,
            "offload_ops": offload_ops,
            "doorbell_rings": sum(r.doorbell_rings for r in self.rigs),
            "pool": pool_stats,
            "p99_ns": percentile(all_latencies, 0.99),
            "p999_ns": percentile(all_latencies, 0.999),
        }
        measures = {
            "rounds": self.sharded.rounds,
            "messages": self.sharded.fabric.messages_sent,
            "aggregate_mops": round(requests / frontier * 1000, 4)
            if frontier else 0.0,
            "per_shard": [
                {"shard": rig.shard.name,
                 "executed": rig.executed,
                 "keys_owned": len(rig.owned_keys),
                 "hot_key": rig.hot_key,
                 "p99_ns": percentile(rig.latencies, 0.99)
                 if rig.latencies else None}
                for rig in self.rigs],
        }
        if self._telemetry is not None:
            records = self._telemetry.finalize()
            self._telemetry.close()
            measures["telemetry_records"] = len(records)
            if self._telemetry_path:
                with open(self._telemetry_path, "w") as handle:
                    handle.write(self._telemetry.to_jsonl())
        return fingerprint, measures


def build_fleet(num_shards: int = 8, clients_per_shard: int = 128,
                requests_per_client: int = 3, pool_qps: int = 8,
                batch_doorbells: bool = True, gateway_workers: int = 8,
                link_ns: int = FLEET_LINK_NS,
                telemetry_path: Optional[str] = None,
                exemplars: int = 0) -> FleetScenario:
    """The canonical ``fleet_simspeed`` configuration.

    Defaults drive 1024 logical client connections (8 shards x 128)
    over 64 pooled QPs and 16 shared CQs total, with doorbell batching
    on. ``telemetry_path`` attaches the telemetry fleet and writes the
    merged JSONL stream there after the run; ``exemplars`` sets the
    per-window tail-exemplar count.
    """
    scenario = FleetScenario(num_shards, clients_per_shard,
                             requests_per_client, pool_qps,
                             batch_doorbells, gateway_workers, link_ns)
    if telemetry_path:
        scenario.attach_telemetry(path=telemetry_path,
                                  exemplars=exemplars)
    return scenario
