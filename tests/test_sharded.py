"""Tests for the sharded conservative synchronizer.

The load-bearing claim of :mod:`repro.sim.sharded` is bit-identity:
driving the same multi-bed scenario with lookahead-wide windows
(:meth:`ShardedSimulation.run`) or with degenerate one-timestamp
windows (:meth:`ShardedSimulation.run_serial` — a time-ordered global
merge) must produce the same per-shard clocks, event counts and
simulated results. Everything else — typed lookahead errors, the
strict window horizon, quiescent-shard wakeups, the single-shard
fallback — exists to keep that claim safe. The full-stack identity,
real testbeds with RDMA traffic on every shard, is checked on a small
KV fleet here and in ``tests/test_fleet.py``.
"""

import pytest

from repro.bench.fleet import build_fleet
from repro.sim import LookaheadError, ShardedSimulation, Simulator
from repro.sim.core import SimulationError
from repro.sim.sharded import DEFAULT_SHARD_LINK_NS, ShardFabric


def _ping_pong(sharded, rounds=5, latency=100):
    """Two shards exchanging a counter; returns the client processes."""
    a, b = sharded.add_shard("a"), sharded.add_shard("b")
    a_to_b, b_to_a = sharded.link(a, b, one_way_ns=latency)

    def pinger():
        inbox = a.mailbox("ball")
        log = []
        for n in range(rounds):
            a_to_b.send("ball", n)
            log.append((a.sim.now, (yield inbox.get())))
            yield 7
        return log

    def ponger():
        inbox = b.mailbox("ball")
        while True:
            n = yield inbox.get()
            yield 13
            b_to_a.send("ball", n * 2)

    ping = a.sim.process(pinger(), name="ping")
    b.sim.process(ponger(), name="pong")
    return ping


class TestTopologyErrors:
    def test_zero_latency_link_rejected(self):
        sharded = ShardedSimulation()
        a, b = sharded.add_shard("a"), sharded.add_shard("b")
        with pytest.raises(LookaheadError):
            sharded.connect(a, b, one_way_ns=0)

    def test_negative_latency_link_rejected(self):
        sharded = ShardedSimulation()
        a, b = sharded.add_shard("a"), sharded.add_shard("b")
        with pytest.raises(LookaheadError):
            sharded.connect(a, b, one_way_ns=-5)

    def test_non_int_latency_rejected(self):
        sharded = ShardedSimulation()
        a, b = sharded.add_shard("a"), sharded.add_shard("b")
        with pytest.raises(LookaheadError):
            sharded.connect(a, b, one_way_ns=99.5)

    def test_lookahead_error_is_a_simulation_error(self):
        # Callers that guard on the kernel's error type must catch
        # topology misuse too.
        assert issubclass(LookaheadError, SimulationError)

    def test_self_link_rejected(self):
        sharded = ShardedSimulation()
        a = sharded.add_shard("a")
        with pytest.raises(SimulationError):
            sharded.connect(a, a, one_way_ns=100)

    def test_duplicate_link_rejected(self):
        sharded = ShardedSimulation()
        a, b = sharded.add_shard("a"), sharded.add_shard("b")
        sharded.connect(a, b, one_way_ns=100)
        with pytest.raises(SimulationError):
            sharded.connect(a, b, one_way_ns=200)

    def test_same_simulator_cannot_back_two_shards(self):
        sharded = ShardedSimulation()
        sim = Simulator()
        sharded.add_shard("a", sim=sim)
        with pytest.raises(SimulationError):
            sharded.add_shard("b", sim=sim)

    def test_default_link_latency_is_positive(self):
        assert DEFAULT_SHARD_LINK_NS > 0

    def test_reexported_from_net_fabric(self):
        # Cross-shard sends route through repro.net.fabric's namespace.
        from repro.net import fabric

        assert fabric.ShardFabric is ShardFabric
        assert fabric.LookaheadError is LookaheadError


class TestWindowProtocol:
    def test_ping_pong_sharded_matches_serial(self):
        results = {}
        for mode in ("sharded", "serial"):
            sharded = ShardedSimulation()
            ping = _ping_pong(sharded)
            if mode == "serial":
                sharded.run_serial()
            else:
                sharded.run()
            assert not sharded.failed_processes()
            results[mode] = (ping.value, sharded.stats(), sharded.now)
        assert results["sharded"] == results["serial"]

    def test_serial_uses_one_timestamp_windows(self):
        sharded = ShardedSimulation()
        _ping_pong(sharded)
        sharded.run_serial()
        serial_rounds = sharded.rounds
        sharded2 = ShardedSimulation()
        _ping_pong(sharded2)
        sharded2.run()
        # The wide-window driver must genuinely batch: strictly fewer
        # synchronizer rounds than the per-timestamp merge.
        assert sharded2.rounds < serial_rounds

    def test_quiescent_shard_woken_by_message(self):
        # Shard b has no local events at all; only the in-flight
        # message keeps the cluster alive, and it must still arrive.
        sharded = ShardedSimulation()
        a, b = sharded.add_shard("a"), sharded.add_shard("b")
        chan = sharded.connect(a, b, one_way_ns=250)
        got = []

        def receiver():
            got.append((yield b.mailbox("in").get()))

        b.sim.process(receiver(), name="rx")
        chan.send("in", "wake")   # sent at t=0 from outside any process
        sharded.run()
        assert got == ["wake"]
        assert b.sim.now == 250

    def test_message_at_exact_horizon_waits_for_next_round(self):
        # pop_due owns [start, before_ts): an arrival exactly at the
        # horizon must stay queued — delivering it would race with
        # local events the shard has not generated yet.
        fabric = ShardFabric()
        src = fabric.register(Simulator())
        dst = fabric.register(Simulator())
        chan = fabric.connect(src, dst, one_way_ns=100)
        arrival = chan.send("m", "payload")
        assert arrival == 100
        assert fabric.pop_due(dst, before_ts=100) == []
        assert fabric.pending_floor(dst) == 100
        due = fabric.pop_due(dst, before_ts=101)
        assert [entry[0] for entry in due] == [100]

    def test_exact_horizon_message_still_delivered_by_driver(self):
        sharded = ShardedSimulation()
        a, b = sharded.add_shard("a"), sharded.add_shard("b")
        chan = sharded.connect(a, b, one_way_ns=100)
        got = []

        def sender():
            yield 50
            chan.send("in", "edge")   # arrives at exactly 50 + 100

        def receiver():
            got.append((yield b.mailbox("in").get()))

        a.sim.process(sender(), name="tx")
        b.sim.process(receiver(), name="rx")
        sharded.run()
        assert got == ["edge"]
        assert b.sim.now == 150

    def test_canonical_order_breaks_arrival_ties_by_src_then_seq(self):
        fabric = ShardFabric()
        src0 = fabric.register(Simulator())
        src1 = fabric.register(Simulator())
        dst = fabric.register(Simulator())
        chan0 = fabric.connect(src0, dst, one_way_ns=100)
        chan1 = fabric.connect(src1, dst, one_way_ns=100)
        chan1.send("m", "from1")
        chan0.send("m", "first0")
        chan0.send("m", "second0")
        due = fabric.pop_due(dst, before_ts=None)
        assert [entry[4] for entry in due] == \
            ["first0", "second0", "from1"]

    def test_run_until_caps_every_shard(self):
        sharded = ShardedSimulation()
        _ping_pong(sharded, rounds=50)
        sharded.run(until=500)
        assert all(s.sim.now <= 500 for s in sharded.shards)
        in_flight_at_cap = sharded.fabric.in_flight()
        sharded.run()   # drain the rest
        assert sharded.fabric.in_flight() == 0
        assert in_flight_at_cap >= 0

    def test_empty_cluster_rejected(self):
        with pytest.raises(SimulationError):
            ShardedSimulation().run()


class TestSingleShardFallback:
    @staticmethod
    def _workload(sim):
        def worker():
            total = 0
            for n in range(10):
                yield 5 + n
                total += sim.now
            return total

        return sim.process(worker(), name="w")

    def test_degenerates_to_plain_simulator_run(self):
        plain = Simulator()
        plain_proc = self._workload(plain)
        plain.run()

        sharded = ShardedSimulation()
        shard = sharded.add_shard("only")
        shard_proc = self._workload(shard.sim)
        sharded.run()

        assert sharded.rounds == 1
        assert shard_proc.value == plain_proc.value
        assert shard.sim.now == plain.now
        assert dict(shard.sim.stats) == dict(plain.stats)

    def test_until_passes_through(self):
        sharded = ShardedSimulation()
        shard = sharded.add_shard("only")
        self._workload(shard.sim)
        sharded.run(until=20)
        assert shard.sim.now <= 20


class TestClusterBitIdentity:
    """Full-stack identity: real testbeds with RDMA traffic per shard,
    driven as a small KV fleet with one client per shard."""

    CONFIG = dict(num_shards=3, clients_per_shard=1,
                  requests_per_client=3, link_ns=500)

    def _drive(self, serial):
        scenario = build_fleet(**self.CONFIG)
        fingerprint, measures = scenario.run(serial=serial)
        return fingerprint, measures, scenario.sharded.stats()

    def test_sharded_and_serial_are_bit_identical(self):
        fp_sharded, m_sharded, stats_sharded = self._drive(serial=False)
        fp_serial, m_serial, stats_serial = self._drive(serial=True)
        assert fp_sharded == fp_serial
        # The identity goes beyond the headline numbers: every shard's
        # kernel counters and clock must agree too.
        assert stats_sharded == stats_serial
        # Same simulated communication either way...
        assert m_sharded["messages"] == m_serial["messages"]
        # ...but the drivers batch differently.
        assert m_sharded["rounds"] < m_serial["rounds"]

    def test_sharded_drive_is_deterministic_across_runs(self):
        first = self._drive(serial=False)
        second = self._drive(serial=False)
        assert first == second

    def test_scenario_runs_exactly_once(self):
        scenario = build_fleet(**self.CONFIG)
        scenario.run()
        with pytest.raises(RuntimeError):
            scenario.run()

    def test_fingerprint_shape(self):
        fingerprint, _, _ = self._drive(serial=False)
        config = self.CONFIG
        assert fingerprint["requests"] == (
            config["num_shards"] * config["clients_per_shard"]
            * config["requests_per_client"])
        assert fingerprint["latency_sum_ns"] > 0
        assert len(fingerprint["per_shard_events"]) == config["num_shards"]
        assert all(count > 0 for count in fingerprint["per_shard_events"])
