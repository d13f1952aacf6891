"""Figure 14: Memcached get latency by IO size (paper §5.4).

Paper (Memtier over the RDMA-ified cuckoo Memcached): RedN's NIC-served
gets are up to 1.7x faster than one-sided and 2.6x faster than
two-sided over libvma — and VMA degrades further at large values since
the sockets API forces memcpys on both sides.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import Testbed, print_comparison, run_once

from repro.apps import (
    ClosedLoopClient,
    MemcachedServer,
    OneSidedKvServer,
    RpcServer,
    STATUS_OK,
    VMA_COSTS,
)
from repro.bench.stats import summarize
from repro.redn.offload import OffloadClient

IO_SIZES = (64, 1024, 4096, 16384, 65536)
OPS = 12
KEYS = list(range(0x200, 0x200 + 4))


def measure_redn(value_size: int) -> float:
    bed = Testbed(num_clients=1)
    store = MemcachedServer(bed.server, slab_size=256 * 1024 * 1024)
    for key in KEYS:
        store.set(key, bytes([key & 0xFF]) * value_size, force_bucket=0)
    offload, conn = store.attach_get_offload(
        bed.clients[0].nic, bed.client_pd(0),
        max_instances=OPS + len(KEYS))
    offload.post_instances(OPS + 2)
    client = OffloadClient(conn, bed.client_verbs(0))

    def get(key):
        result = yield from client.call(offload.payload_for(key),
                                        timeout_ns=60_000_000)
        return result.ok

    worker = ClosedLoopClient(bed.sim, "memtier-redn", KEYS,
                              value_size, get)
    bed.run(worker.run(OPS))
    assert worker.failures == 0
    return worker.get_latencies.avg_us


def measure_one_sided(value_size: int) -> float:
    bed = Testbed(num_clients=1)
    server = OneSidedKvServer(bed.server, slab_size=256 * 1024 * 1024)
    for key in KEYS:
        server.set(key, bytes([key & 0xFF]) * value_size)
    client = server.connect(bed.clients[0].nic, bed.client_pd(0))

    def get(key):
        value, _latency, _rtts = yield from client.get(key)
        return value is not None

    worker = ClosedLoopClient(bed.sim, "memtier-1s", KEYS,
                              value_size, get)
    bed.run(worker.run(OPS))
    return worker.get_latencies.avg_us


def measure_vma(value_size: int) -> float:
    bed = Testbed(num_clients=1)
    store = MemcachedServer(bed.server, slab_size=256 * 1024 * 1024)
    for key in KEYS:
        store.set(key, bytes([key & 0xFF]) * value_size)
    server = RpcServer(store, mode="polling", workers=1,
                       costs=VMA_COSTS)
    rpc_client = server.connect(bed.clients[0].nic, bed.client_pd(0))
    server.start()

    def get(key):
        status, _value, _latency = yield from rpc_client.get(key)
        return status == STATUS_OK

    worker = ClosedLoopClient(bed.sim, "memtier-vma", KEYS,
                              value_size, get)
    bed.run(worker.run(OPS))
    return worker.get_latencies.avg_us


def scenario():
    results = {}
    for size in IO_SIZES:
        results[f"redn/{size}"] = measure_redn(size)
        results[f"one-sided/{size}"] = measure_one_sided(size)
        results[f"vma/{size}"] = measure_vma(size)
    return results


def bench_fig14(benchmark):
    results = run_once(benchmark, scenario)
    rows = [(f"{size}B",
             f"{results[f'redn/{size}']:.2f}",
             f"{results[f'one-sided/{size}']:.2f}",
             f"{results[f'vma/{size}']:.2f}")
            for size in IO_SIZES]
    print_comparison(
        "Fig 14 — Memcached get latency by IO size (us)",
        ["IO", "RedN", "one-sided", "two-sided (VMA)"], rows)

    one_sided_factor = max(results[f"one-sided/{size}"]
                           / results[f"redn/{size}"]
                           for size in IO_SIZES)
    vma_factor = max(results[f"vma/{size}"] / results[f"redn/{size}"]
                     for size in IO_SIZES)
    print(f"\n  one-sided worst-case factor: {one_sided_factor:.2f}x "
          f"(paper: up to 1.7x)")
    print(f"  VMA worst-case factor: {vma_factor:.2f}x "
          f"(paper: up to 2.6x)")

    for size in IO_SIZES:
        assert results[f"redn/{size}"] < results[f"one-sided/{size}"]
        assert results[f"redn/{size}"] < results[f"vma/{size}"]
    assert one_sided_factor >= 1.3
    assert vma_factor >= 1.7
    # VMA's memcpy penalty grows with IO size: its gap to RedN widens
    # in absolute terms between 64B and 64KB.
    gap_small = results["vma/64"] - results["redn/64"]
    gap_large = results["vma/65536"] - results["redn/65536"]
    assert gap_large > gap_small
