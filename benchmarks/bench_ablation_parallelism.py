"""Ablation: WQ-level parallelism (paper §3.5 "Parallelism").

Two sweeps:

1. **Chain concurrency** — offloaded-get throughput as client
   connections grow: single chains are latency-bound; the port's
   fetch engine saturates with a handful of concurrent chains ("to
   hide WR latencies, it is important to parallelize logically
   unrelated operations").
2. **Prefetch depth** — the WQ-order chain slope as the NIC's prefetch
   window shrinks: with a window of 1, even unmanaged queues degrade
   toward doorbell-order behaviour, showing why prefetching exists —
   and why RedN must disable it (managed mode) only where WQEs are
   self-modified.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import Testbed, print_comparison, run_once

from repro.apps import MemcachedServer
from repro.ibv import wr_noop, wr_recv, wr_send
from repro.redn.offload import OffloadConnection
from repro.offloads.hash_lookup import HashGetOffload

CONNECTION_SWEEP = (1, 2, 4, 8)
PREFETCH_SWEEP = (1, 4, 32)
LOOKUPS_PER_CONN = 120
KEY = 0x42


def measure_throughput(conns: int) -> float:
    bed = Testbed(num_clients=1)
    store = MemcachedServer(bed.server, num_buckets=1024,
                            slab_size=64 * 1024 * 1024)
    store.set(KEY, b"v" * 64, force_bucket=0)
    offloads = []
    for lane in range(conns):
        conn = OffloadConnection(
            store.ctx, bed.clients[0].nic, bed.client_pd(0),
            recv_slots=4 * LOOKUPS_PER_CONN + 16,
            send_slots=2 * LOOKUPS_PER_CONN + 16, name=f"ab{lane}")
        offload = HashGetOffload(store.ctx, store.table, store.table_mr,
                                 conn, buckets=1,
                                 max_instances=LOOKUPS_PER_CONN + 4,
                                 name=f"abget{lane}")
        offload.post_instances(LOOKUPS_PER_CONN)
        for _ in range(LOOKUPS_PER_CONN + 8):
            conn.client_qp.post_recv(wr_recv())
        offloads.append((offload, conn))

    sim = bed.sim
    request = bed.clients[0].memory.alloc(64, owner="client")
    payload = offloads[0][0].payload_for(KEY)
    bed.clients[0].memory.write(request.addr, payload)

    def flood(conn):
        for _ in range(LOOKUPS_PER_CONN):
            conn.client_qp.post_send(
                wr_send(request.addr, len(payload), signaled=False))
            yield sim.timeout(200)

    def run():
        start = sim.now
        for _offload, conn in offloads:
            sim.process(flood(conn))
        waiters = [conn.client_recv_cq.wait_for_count(LOOKUPS_PER_CONN)
                   for _o, conn in offloads]
        for event in waiters:
            if not event.triggered:
                yield event
        return (conns * LOOKUPS_PER_CONN) / ((sim.now - start) / 1e9)

    return bed.run(run()) / 1e3


def measure_prefetch_slope(window: int) -> float:
    bed = Testbed(num_clients=0)
    bed.server.nic.timing = bed.server.nic.timing.with_overrides(
        prefetch_batch=window)
    proc = bed.server.spawn_process("chains")
    pd = proc.create_pd()

    def chain_latency(length):
        qp, _peer = bed.server.nic.create_loopback_pair(
            pd, send_slots=length + 4, owner=proc.owner_tag)
        for _ in range(length):
            qp.post_send(wr_noop(signaled=True), ring_doorbell=False)

        def run():
            start = bed.sim.now
            qp.send_wq.doorbell()
            yield qp.send_wq.cq.wait_for_count(length)
            return bed.sim.now - start

        return bed.run(run())

    return (chain_latency(16) - chain_latency(1)) / 15 / 1000.0


def scenario():
    results = {}
    for conns in CONNECTION_SWEEP:
        results[f"conns{conns}_kops"] = measure_throughput(conns)
    for window in PREFETCH_SWEEP:
        results[f"prefetch{window}_slope_us"] = \
            measure_prefetch_slope(window)
    return results


def bench_ablation_parallelism(benchmark):
    results = run_once(benchmark, scenario)
    rows = [(conns, f"{results[f'conns{conns}_kops']:.0f}")
            for conns in CONNECTION_SWEEP]
    print_comparison("Ablation — chain concurrency vs throughput",
                     ["connections", "lookups K/s"], rows)
    rows = [(window, f"{results[f'prefetch{window}_slope_us']:.2f}")
            for window in PREFETCH_SWEEP]
    print_comparison("Ablation — prefetch window vs WQ-order slope",
                     ["prefetch window", "us per verb"], rows)

    # Concurrency helps until the port engine saturates (~2 chains on
    # this chain shape), after which extra connections add nothing.
    assert results["conns2_kops"] > 1.2 * results["conns1_kops"]
    assert results["conns8_kops"] < 1.1 * results["conns4_kops"]
    # Shallow prefetch degrades unmanaged chains toward managed cost.
    assert (results["prefetch32_slope_us"]
            < results["prefetch4_slope_us"]
            < results["prefetch1_slope_us"])
