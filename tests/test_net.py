"""Unit tests for hosts, CPU scheduling, fabric, and failure injection."""

import pytest

from repro.net import (
    CpuScheduler,
    CrashInjector,
    Fabric,
    FabricError,
    Host,
    RestartPolicy,
    TABLE6_COMPONENTS,
    availability_from_mttf,
    offload_availability,
)
from repro.sim import Simulator


class TestCpuScheduler:
    def test_uncontended_run_takes_exact_time(self, sim):
        cpu = CpuScheduler(sim, num_cores=2)

        def work():
            yield from cpu.run(10_000)
            return sim.now

        assert sim.run_process(work()) == 10_000

    def test_contended_runs_queue(self, sim):
        cpu = CpuScheduler(sim, num_cores=1, time_slice_ns=1_000,
                           context_switch_ns=100)
        finish_times = []

        def work(name):
            yield from cpu.run(5_000)
            finish_times.append((name, sim.now))

        for name in ("a", "b"):
            sim.process(work(name))
        sim.run()
        # Both finish; the second cannot finish before ~2x the work.
        assert len(finish_times) == 2
        assert max(t for _n, t in finish_times) >= 10_000

    def test_time_slicing_interleaves(self, sim):
        """Under contention neither thread monopolizes the core."""
        cpu = CpuScheduler(sim, num_cores=1, time_slice_ns=1_000,
                           context_switch_ns=0)
        finished = []

        def work(name):
            yield from cpu.run(3_000)
            finished.append((sim.now, name))

        sim.process(work("a"))
        sim.process(work("b"))
        sim.run()
        times = sorted(t for t, _n in finished)
        # With slicing, completions are close together (interleaved),
        # not strictly serialized (3000 then 6000 would be FIFO-run).
        assert times[1] - times[0] <= 2_000

    def test_block_on_pays_wakeup(self, sim):
        cpu = CpuScheduler(sim, num_cores=2, wakeup_ns=4_000)
        event = sim.event()

        def sleeper():
            yield from cpu.block_on(event)
            return sim.now

        def waker():
            yield sim.timeout(1_000)
            event.trigger(None)

        sim.process(waker())
        finished = sim.run_process(sleeper())
        assert finished >= 1_000 + 4_000

    def test_halt_stops_progress(self, sim):
        cpu = CpuScheduler(sim, num_cores=1)
        progress = []

        def work():
            while True:
                yield from cpu.run(1_000)
                progress.append(sim.now)

        sim.process(work())
        sim.run(until=5_500)
        cpu.halt()
        count_at_halt = len(progress)
        sim.run(until=50_000)
        assert len(progress) <= count_at_halt + 1

    def test_pinned_core_reduces_capacity(self, sim):
        cpu = CpuScheduler(sim, num_cores=1)

        def pinner():
            grant = yield cpu.acquire_core()
            yield sim.timeout(10_000)
            cpu.release_core(grant)

        def worker():
            yield from cpu.run(100)
            return sim.now

        sim.process(pinner())
        proc = sim.process(worker())
        sim.run()
        assert proc.value >= 10_000   # had to wait for the pinner


class TestFabric:
    def test_latency_lookup(self, sim):
        from repro.memory import HostMemory
        from repro.nic import RNIC
        nic_a = RNIC(sim, HostMemory(), name="a")
        nic_b = RNIC(sim, HostMemory(), name="b")
        fabric = Fabric(sim)
        fabric.connect(nic_a, nic_b, one_way_ns=500)
        assert nic_a.link_latency_to(nic_b) == 500
        assert nic_b.link_latency_to(nic_a) == 500

    def test_unlinked_nics_rejected(self, sim):
        from repro.memory import HostMemory
        from repro.nic import RNIC
        nic_a = RNIC(sim, HostMemory(), name="a")
        nic_b = RNIC(sim, HostMemory(), name="b")
        nic_c = RNIC(sim, HostMemory(), name="c")
        fabric = Fabric(sim)
        fabric.connect(nic_a, nic_b)
        with pytest.raises(FabricError):
            nic_a.link_latency_to(nic_c)

    def test_verb_to_unlinked_nic_fails_once_serialized(self, sim):
        """The link lookup is made when the message starts serializing,
        but a missing link still fails the WR's op once serialization
        ends, where the unfolded wire model raised."""
        from repro.ibv import wr_write
        from repro.memory import HostMemory, ProtectionDomain
        from repro.nic import RNIC, Opcode
        mem_a, mem_b = HostMemory(name="ma"), HostMemory(name="mb")
        nic_a = RNIC(sim, mem_a, name="a")
        nic_b = RNIC(sim, mem_b, name="b")
        Fabric(sim).connect(nic_a, RNIC(sim, HostMemory(name="mc"),
                                        name="c"))
        qp_a = nic_a.create_qp(ProtectionDomain(mem_a), name="qa")
        qp_b = nic_b.create_qp(ProtectionDomain(mem_b), name="qb")
        qp_a.connect(qp_b)
        src = mem_a.alloc(64, label="src")
        qp_a.post_send(wr_write(src.addr, 64, 0x1000, 0))
        sim.run()
        [failed] = sim.failed_processes
        assert isinstance(failed.exception, FabricError)
        timing = nic_a.timing
        assert sim.now == (timing.doorbell_ns + timing.wqe_fetch_ns
                           + timing.occupancy(Opcode.WRITE)
                           + timing.payload_pcie_ns(64)
                           + timing.payload_wire_ns(64 + 32))

    def test_self_link_rejected(self, sim):
        from repro.memory import HostMemory
        from repro.nic import RNIC
        nic = RNIC(sim, HostMemory())
        with pytest.raises(FabricError):
            Fabric(sim).connect(nic, nic)

    def test_loopback_latency_is_zero(self, sim):
        from repro.memory import HostMemory
        from repro.nic import RNIC
        nic = RNIC(sim, HostMemory())
        assert nic.link_latency_to(nic) == 0


class TestHostProcesses:
    def test_crash_reclaims_memory(self, sim):
        host = Host(sim, "h")
        proc = host.spawn_process("victim")
        allocation = proc.alloc(64)
        host.crash_process(proc)
        assert allocation.freed

    def test_hull_transfer_survives_crash(self, sim):
        host = Host(sim, "h")
        hull = host.spawn_process("hull")
        child = host.spawn_process("child", parent=hull)
        allocation = child.alloc(64)
        child.transfer_rdma_resources_to(hull)
        host.crash_process(child)
        assert not allocation.freed

    def test_crash_destroys_queues(self, sim):
        host = Host(sim, "h")
        proc = host.spawn_process("victim")
        pd = proc.create_pd()
        qp = proc.create_qp(pd)
        host.crash_process(proc)
        assert qp.send_wq.destroyed
        assert qp.recv_wq.destroyed

    def test_crash_interrupts_threads(self, sim):
        host = Host(sim, "h")
        proc = host.spawn_process("victim")

        def loop():
            while True:
                yield sim.timeout(1_000)

        thread = proc.start_thread(loop())
        host.crash_process(proc)
        sim.run(until=10_000)
        assert thread.triggered

    def test_crash_frees_rings_for_reuse_once_queues_quiesce(self, sim):
        host = Host(sim, "h")
        proc = host.spawn_process("victim")
        pd = proc.create_pd()
        qp = proc.create_qp(pd)
        rings = [qp.send_wq.ring, qp.recv_wq.ring]
        host.crash_process(proc)
        sim.run(until=10_000)
        assert all(ring.freed for ring in rings)
        assert not host.nic.qps and not host.nic.wqs and not host.nic.cqs
        assert host.memory.alloc(rings[0].size).addr in {
            ring.addr for ring in rings}

    def test_double_crash_is_noop(self, sim):
        host = Host(sim, "h")
        proc = host.spawn_process("victim")
        host.crash_process(proc)
        host.crash_process(proc)   # no double-free

    def test_kernel_panic_halts_cpu_not_nic(self, sim):
        host = Host(sim, "h")
        host.kernel_panic()
        assert not host.os_alive
        assert not host.cpu.running
        assert host.nic.alive


class TestFailureMath:
    def test_table6_constants(self):
        assert TABLE6_COMPONENTS["OS"].afr_percent == 41.9
        assert TABLE6_COMPONENTS["NIC"].mttf_hours == 876_000

    def test_availability_monotone_in_mttf(self):
        low = availability_from_mttf(1_000)
        high = availability_from_mttf(1_000_000)
        assert high > low

    def test_bad_mttf_rejected(self):
        with pytest.raises(ValueError):
            availability_from_mttf(0)

    def test_offload_availability_beats_cpu_path(self):
        assert offload_availability(False) > offload_availability(True)


class TestCrashInjector:
    def test_scheduled_kill_and_restart(self, sim):
        host = Host(sim, "h")
        proc = host.spawn_process("svc")
        restarted = []
        injector = CrashInjector(sim, host)
        injector.kill_process_at(
            1_000_000, proc, on_restart=lambda: restarted.append(sim.now),
            restart=RestartPolicy(detect_ns=1_000, bootstrap_ns=2_000,
                                  rebuild_ns=3_000))
        sim.run()
        assert not proc.alive
        assert restarted == [1_006_000]
        kinds = [kind for _t, kind, _n in injector.events]
        assert kinds == ["crash", "restarted"]

    def test_panic_at(self, sim):
        host = Host(sim, "h")
        injector = CrashInjector(sim, host)
        injector.panic_at(500_000)
        sim.run()
        assert not host.os_alive

    def test_restart_policy_totals(self):
        policy = RestartPolicy()
        # The paper's ~1s bootstrap + ~1.25s rebuild dominates.
        assert policy.total_outage_ns >= 2_250_000_000
