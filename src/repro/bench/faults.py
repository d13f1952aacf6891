"""Deterministic fleet fault scenarios for the incident triage plane.

The degraded-mode half of the fleet benchmark: two injectable faults
generalizing the paper's fig15/fig16 stories to the sharded KV fleet,
each a pure function of simulated time so both drive modes produce the
same degradation, the same telemetry stream and — through
:class:`~repro.obs.sentry.FleetSentry` — the same incident report,
byte for byte.

* **storm** (fig15 generalized) — a CPU-contention storm on the *hot*
  shard (the consistent-hash owner of the globally hottest key):
  ``lanes`` antagonist QPs on the shard's gateway NIC, one per
  processing unit, each blasting waves of RDMA WRITEs into a sink
  buffer between two deterministic simulated timestamps. Foreground
  gets on that shard contend for PU time; utilization and queueing
  explode, the fleet's tail inflates, and the sentry must pin the
  blame on the contended shard's ``pu_exec``/``queueing``.
* **failover** (fig16 generalized) — drain-then-kill of the hot
  shard: at ``t_switch`` its clients stop and the fleet's request
  routing swaps to a :meth:`~repro.net.conn.HashRing.without` ring
  (the killed shard's keys re-home to their successor vnodes, which
  were preloaded with the values at build time); after a drain slack
  the :class:`~repro.net.failures.CrashInjector` destroys the shard's
  server process. The killed shard flatlines while the survivors
  absorb its load, and the sentry must name the killed shard and the
  ring movement.
* **clean** — no fault; the sentry must stay silent (the false-
  positive gate).

Every constant is a deliberate, documented simulated time; nothing is
sampled. Fault metadata (:class:`FleetFault`) rides into the report so
:func:`~repro.obs.sentry.triage_verdict` can classify every incident
as explained / missed / false-positive and measure detection latency
in simulated nanoseconds.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..ibv import wr_write
from ..memory.region import AccessFlags
from ..net.conn import QpPool
from ..net.failures import CrashInjector
from .fleet import VALUE_SIZE, FleetScenario, build_fleet

__all__ = ["SCENARIOS", "FleetFault", "TriageRun", "run_triage",
           "inject_storm", "inject_failover",
           "STORM_START_NS", "STORM_END_NS", "FAILOVER_SWITCH_NS",
           "FAILOVER_KILL_NS"]

SCENARIOS = ("storm", "failover", "clean")

#: Storm window: starts after every shard has sealed enough windows to
#: establish a trailing baseline (>= min_baseline at 20 us windows).
STORM_START_NS = 160_000
STORM_END_NS = 360_000
STORM_LANES = 8            # one antagonist QP per gateway-NIC PU
STORM_BURST = 16           # WRITEs per wave (one signaled)
STORM_BYTES = 2048

#: Failover: routing swaps (and the doomed shard's clients stop) at
#: t_switch; the crash lands after a drain slack generous enough for
#: every in-flight request — including gets queued on the hot-key
#: offload lane — to complete before the server's QPs are destroyed.
FAILOVER_SWITCH_NS = 240_000
FAILOVER_KILL_NS = 1_000_000


class FleetFault:
    """Metadata for one injected fault, carried into the report."""

    __slots__ = ("kind", "shard", "bed", "t_inject_ns", "t_clear_ns",
                 "expect_phases", "detail")

    def __init__(self, kind: str, shard: int, bed: str,
                 t_inject_ns: int, t_clear_ns: Optional[int],
                 expect_phases, detail: Optional[dict] = None):
        self.kind = kind
        self.shard = shard
        self.bed = bed
        self.t_inject_ns = t_inject_ns
        self.t_clear_ns = t_clear_ns
        #: Blame phases an explaining incident's top cause may carry.
        self.expect_phases = tuple(expect_phases)
        self.detail = detail or {}

    def __repr__(self) -> str:
        return (f"<FleetFault {self.kind} shard={self.shard} "
                f"t={self.t_inject_ns}>")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "shard": self.shard, "bed": self.bed,
            "t_inject_ns": self.t_inject_ns,
            "t_clear_ns": self.t_clear_ns,
            "expect_phases": list(self.expect_phases),
            "detail": self.detail,
        }


# -- the CPU-contention storm (fig15 generalized) --------------------------


def _antagonist(sim, lease, src_addr: int, sink_addr: int, rkey: int,
                t_start: int, t_end: int, burst: int, size: int):
    """One storm lane: WRITE waves from t_start until t_end."""
    delay = t_start - sim.now
    if delay > 0:
        yield delay
    while sim.now < t_end:
        for shot in range(burst - 1):
            lease.post_send(wr_write(src_addr, size, sink_addr, rkey,
                                     wr_id=shot, signaled=False))
        lease.post_send(wr_write(src_addr, size, sink_addr, rkey,
                                 wr_id=burst - 1, signaled=True))
        cqe = yield from lease.wait_cqe()
        assert cqe.ok, f"storm WRITE failed: {cqe}"


def inject_storm(scenario: FleetScenario, *,
                 t_start: int = STORM_START_NS,
                 t_end: int = STORM_END_NS,
                 lanes: int = STORM_LANES,
                 burst: int = STORM_BURST,
                 size: int = STORM_BYTES) -> FleetFault:
    """Arm a CPU-contention storm on the hot shard; returns the fault.

    Must run against a freshly built (un-run) scenario: the antagonist
    processes and their QP pool are part of the shard's simulation, so
    the degradation is shard-local and identical in both drive modes.
    """
    hot = scenario.ring.owner(1)
    rig = scenario.rigs[hot]
    bed = rig.bed

    def connect(qp, index):
        server_qp = rig.server.process.create_qp(
            rig.server.pd, name=f"{rig.shard.name}-storm-ps{index}")
        server_qp.connect(qp)

    pool = QpPool(bed.clients[0].nic, bed.client_pd(0), capacity=lanes,
                  connect=connect, send_slots=2 * burst + 2,
                  recv_slots=4, name=f"{rig.shard.name}-storm")
    sink = rig.server.process.alloc(size, label="storm-sink")
    sink_mr = rig.server.pd.register(sink, access=AccessFlags.ALL)
    src = bed.clients[0].memory.alloc(size, owner="client",
                                      label="storm-src")
    for lane in range(lanes):
        lease = pool.lease(tag=f"storm{lane}")
        rig.sim.process(
            _antagonist(rig.sim, lease, src.addr, sink.addr,
                        sink_mr.rkey, t_start, t_end, burst, size),
            name=f"{rig.shard.name}-storm{lane}")
    return FleetFault(
        "storm", hot, rig.shard.name, t_start, t_end,
        expect_phases=("pu_exec", "queueing"),
        detail={"lanes": lanes, "burst": burst, "bytes": size})


# -- shard-kill / failover (fig16 generalized) -----------------------------


def inject_failover(scenario: FleetScenario, *,
                    t_switch: int = FAILOVER_SWITCH_NS,
                    t_kill: int = FAILOVER_KILL_NS) -> FleetFault:
    """Arm drain-then-kill failover of the hot shard; returns the fault.

    The ring movement is computed here (old ring vs
    :meth:`~repro.net.conn.HashRing.without`), the inherited keys are
    preloaded into their successor shards' KV stores, the fleet's
    routing override swaps rings at ``t_switch``, the doomed shard's
    own clients quiesce at the same instant, and the
    :class:`CrashInjector` destroys the server process at ``t_kill``.
    """
    if t_kill <= t_switch:
        raise ValueError("t_kill must leave drain slack after t_switch")
    killed = scenario.ring.owner(1)
    rig = scenario.rigs[killed]
    ring_before = scenario.ring
    ring_after = ring_before.without(killed)
    moves: Dict[int, int] = {}
    for key in rig.owned_keys:
        inheritor = ring_after.owner(key)
        moves[key] = inheritor
        scenario.rigs[inheritor].server.set(
            key, bytes([key & 0xFF]) * VALUE_SIZE)

    def route(key: int, now: int) -> int:
        ring = ring_before if now < t_switch else ring_after
        return ring.owner(key)

    scenario.route = route
    rig.stop_at = t_switch
    injector = CrashInjector(rig.sim, rig.bed.server)
    injector.kill_process_at(t_kill, rig.server.process)
    inheritors = sorted(set(moves.values()))
    return FleetFault(
        "failover", killed, rig.shard.name, t_switch, t_kill,
        expect_phases=("flatline", "skew"),
        detail={
            "keys_moved": len(moves),
            "inheritors": inheritors,
            "hot_key_inheritor": moves.get(rig.hot_key),
            "t_kill_ns": t_kill,
        })


# -- the triage runner -----------------------------------------------------


class TriageRun:
    """Everything one fault-scenario run produced."""

    __slots__ = ("scenario", "serial", "faults", "report",
                 "report_json", "verdict", "fingerprint", "measures")

    def __init__(self, scenario: str, serial: bool, faults: List[dict],
                 report: dict, report_json: str, verdict: dict,
                 fingerprint: dict, measures: dict):
        self.scenario = scenario
        self.serial = serial
        self.faults = faults
        self.report = report
        self.report_json = report_json
        self.verdict = verdict
        self.fingerprint = fingerprint
        self.measures = measures

    def __repr__(self) -> str:
        return (f"<TriageRun {self.scenario} "
                f"incidents={self.verdict['incidents']}>")


def run_triage(scenario: str = "storm", *, serial: bool = False,
               num_shards: int = 4, clients_per_shard: int = 16,
               requests_per_client: int = 16, pool_qps: int = 8,
               window_ns: int = 20_000, exemplars: int = 4,
               capture: bool = True) -> TriageRun:
    """Build the fleet, arm one fault scenario, run, and triage.

    Returns a :class:`TriageRun` whose ``report_json`` is the
    byte-identity surface: for a fixed scenario and sizing it must be
    identical between the sharded and serial drives and across repeat
    runs.
    """
    from ..obs.recorder import FlightRecorder
    from ..obs.sentry import FleetSentry, triage_verdict
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; "
                         f"pick one of {SCENARIOS}")
    fleet_scenario = build_fleet(
        num_shards=num_shards, clients_per_shard=clients_per_shard,
        requests_per_client=requests_per_client, pool_qps=pool_qps)
    telemetry = fleet_scenario.attach_telemetry(
        window_ns=window_ns, exemplars=exemplars)

    faults: List[FleetFault] = []
    if scenario == "storm":
        faults.append(inject_storm(fleet_scenario))
    elif scenario == "failover":
        faults.append(inject_failover(fleet_scenario))

    recorders: Dict[int, FlightRecorder] = {}
    if capture:
        # One bounded flight recorder per implicated bed; the sentry
        # cuts its incident slice out of the ring after the run.
        for fault in faults:
            rig = fleet_scenario.rigs[fault.shard]
            recorders[fault.shard] = FlightRecorder(
                rig.sim, name=f"{rig.shard.name}-triage",
                capacity=1 << 15, monitor=False)

    sentry = FleetSentry(window_ns, recorders=recorders,
                         skew_min_total=3 * num_shards).subscribe(telemetry)

    fingerprint, measures = fleet_scenario.run(serial=serial)
    for recorder in recorders.values():
        recorder.close()

    fault_dicts = [fault.to_dict() for fault in faults]
    report = sentry.report(
        faults=fault_dicts,
        context={"scenario": scenario,
                 "num_shards": num_shards,
                 "clients_per_shard": clients_per_shard,
                 "requests_per_client": requests_per_client,
                 "pool_qps": pool_qps,
                 "exemplars": exemplars})
    report_json = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return TriageRun(scenario, serial, fault_dicts, report, report_json,
                     triage_verdict(report), fingerprint, measures)
