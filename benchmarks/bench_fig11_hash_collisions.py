"""Figure 11: get latency under hash collisions (key in 2nd bucket).

Paper: RedN-Parallel probes both buckets on different WQs/PUs and keeps
the no-collision latency; RedN-Seq probes buckets one-by-one and pays
>= ~3 us extra. Parallelism costs only extra WQs, never wasted data
movement — the losing bucket's response WR stays a NOOP.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import Testbed, print_comparison, run_once

from repro.apps import MemcachedServer
from repro.bench.stats import summarize
from repro.redn.offload import OffloadClient

VALUE_SIZES = (64, 4096, 65536)
SAMPLES = 10
KEY = 0x55


def measure(value_size: int, parallel: bool,
            force_bucket: int = 1) -> float:
    bed = Testbed(num_clients=1)
    store = MemcachedServer(bed.server, slab_size=128 * 1024 * 1024)
    store.set(KEY, b"v" * value_size, force_bucket=force_bucket)
    offload, conn = store.attach_get_offload(
        bed.clients[0].nic, bed.client_pd(0), parallel=parallel,
        max_instances=SAMPLES + 2)
    offload.post_instances(SAMPLES + 1)
    client = OffloadClient(conn, bed.client_verbs(0))

    def run():
        latencies = []
        for index in range(SAMPLES + 1):
            result = yield from client.call(offload.payload_for(KEY),
                                            timeout_ns=30_000_000)
            assert result.ok
            if index:
                latencies.append(result.latency_ns)
        return latencies

    return summarize(bed.run(run()))["avg"] / 1000.0


def scenario():
    results = {}
    for size in VALUE_SIZES:
        results[f"seq/{size}"] = measure(size, parallel=False)
        results[f"par/{size}"] = measure(size, parallel=True)
        # Reference: the same key with no collision (first bucket).
        results[f"nocoll/{size}"] = measure(size, parallel=False,
                                            force_bucket=0)
    return results


def bench_fig11(benchmark):
    results = run_once(benchmark, scenario)
    rows = [(f"{size}B",
             f"{results[f'seq/{size}']:.2f}",
             f"{results[f'par/{size}']:.2f}",
             f"{results[f'nocoll/{size}']:.2f}")
            for size in VALUE_SIZES]
    print_comparison(
        "Fig 11 — get latency with collisions (us)",
        ["value", "RedN-Seq", "RedN-Parallel", "no-collision ref"],
        rows)

    for size in VALUE_SIZES:
        seq = results[f"seq/{size}"]
        par = results[f"par/{size}"]
        ref = results[f"nocoll/{size}"]
        # Parallel hides the second probe almost entirely...
        assert par < seq
        assert par <= ref * 1.35
        # ...while sequential pays for probing buckets one-by-one
        # (paper: at least ~3 us extra).
        assert seq - ref >= 1_500 / 1000.0, (seq, ref)
