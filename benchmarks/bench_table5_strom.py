"""Table 5: RedN vs the StRoM FPGA SmartNIC on hash gets.

Paper (StRoM numbers quoted from [39], as the authors did not have the
FPGA — we quote the same constants):

    64B : RedN 5.7 us median / 6.9 us p99 ; StRoM ~7 / ~7
    4KB : RedN 6.7 us median / 8.4 us p99 ; StRoM ~12 / ~13

The takeaway: a commodity RNIC running self-modifying chains matches or
beats a 156 MHz FPGA SmartNIC that pays two PCIe round trips per get.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import Testbed, print_comparison, run_once, within_factor

from repro.apps import MemcachedServer
from repro.bench.stats import percentile
from repro.redn.offload import OffloadClient

PAPER = {
    (64, "median"): 5.7,
    (64, "p99"): 6.9,
    (4096, "median"): 6.7,
    (4096, "p99"): 8.4,
}

STROM = {  # quoted from StRoM [39], same as the paper's Table 5
    (64, "median"): 7.0,
    (64, "p99"): 7.0,
    (4096, "median"): 12.0,
    (4096, "p99"): 13.0,
}

SAMPLES = 60
KEY = 0x10


def measure(value_size: int):
    bed = Testbed(num_clients=1)
    store = MemcachedServer(bed.server, slab_size=128 * 1024 * 1024)
    store.set(KEY, b"z" * value_size, force_bucket=0)
    offload, conn = store.attach_get_offload(
        bed.clients[0].nic, bed.client_pd(0),
        max_instances=SAMPLES + 2)
    offload.post_instances(SAMPLES + 1)
    client = OffloadClient(conn, bed.client_verbs(0))

    def run():
        latencies = []
        for index in range(SAMPLES + 1):
            result = yield from client.call(offload.payload_for(KEY))
            assert result.ok
            if index:
                latencies.append(result.latency_ns)
        return latencies

    samples = bed.run(run())
    return (percentile(samples, 0.50) / 1000.0,
            percentile(samples, 0.99) / 1000.0)


def scenario():
    results = {}
    for size in (64, 4096):
        median, p99 = measure(size)
        results[f"{size}/median"] = median
        results[f"{size}/p99"] = p99
    return results


def bench_table5(benchmark):
    results = run_once(benchmark, scenario)
    rows = []
    for size in (64, 4096):
        for stat in ("median", "p99"):
            rows.append((f"{size}B", stat,
                         f"{results[f'{size}/{stat}']:.1f}",
                         f"{PAPER[(size, stat)]:.1f}",
                         f"~{STROM[(size, stat)]:.0f}"))
    print_comparison(
        "Table 5 — hash get latency vs StRoM",
        ["IO", "stat", "RedN measured us", "RedN paper us",
         "StRoM [39] us"], rows)

    for (size, stat), reference in PAPER.items():
        measured = results[f"{size}/{stat}"]
        assert within_factor(measured, reference, 1.35), \
            f"{size}/{stat}: {measured:.1f} vs {reference}"
    # The comparison's point: RedN at or below the FPGA SmartNIC.
    assert results["64/median"] <= STROM[(64, "median")] * 1.05
    assert results["4096/median"] <= STROM[(4096, "median")]
