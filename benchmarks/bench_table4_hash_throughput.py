"""Table 4: NIC throughput of offloaded hash lookups and bottlenecks.

Paper (ConnectX-5):

    IO <= 1KB : 500 K ops/s single port, 1 M dual   (NIC PU bound)
    IO = 64KB : 180 K single port (IB wire, ~92 Gb/s),
                190 K dual port  (PCIe 3.0 x16 bound)
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import Testbed, print_comparison, run_once, within_factor

from repro.apps import MemcachedServer
from repro.ibv import wr_recv, wr_send
from repro.offloads.hash_lookup import HashGetOffload
from repro.redn.offload import OffloadConnection

PAPER_KOPS = {
    ("small", 1): 500,
    ("small", 2): 1000,
    ("64KB", 1): 180,
    ("64KB", 2): 190,
}


def _measure(value_size: int, ports: int, lookups_per_conn: int,
             conns_per_port: int = 4) -> float:
    """Open-loop flood from several client connections per port —
    single chains are latency-bound; the port resources only saturate
    with concurrent chains, as in any real throughput test."""
    bed = Testbed(num_clients=1, nic_ports=ports)
    store = MemcachedServer(bed.server, num_buckets=1024,
                            slab_size=128 * 1024 * 1024)
    key = 0x42
    store.set(key, b"v" * value_size, force_bucket=0)

    client_nic = bed.clients[0].nic
    client_pd = bed.client_pd(0)
    offloads = []
    for port in range(ports):
        for lane in range(conns_per_port):
            conn = OffloadConnection(
                store.ctx, client_nic, client_pd,
                recv_slots=4 * lookups_per_conn + 16,
                send_slots=2 * lookups_per_conn + 16,
                name=f"t4p{port}l{lane}", server_port=port)
            offload = HashGetOffload(
                store.ctx, store.table, store.table_mr, conn,
                parallel=False, buckets=1, port_index=port,
                max_instances=lookups_per_conn + 4,
                name=f"t4get{port}l{lane}")
            offload.post_instances(lookups_per_conn)
            for _ in range(lookups_per_conn + 8):
                conn.client_qp.post_recv(wr_recv())
            offloads.append((offload, conn))

    sim = bed.sim
    request_buf = client_nic.memory.alloc(64, owner="client")
    payload = offloads[0][0].payload_for(key)
    client_nic.memory.write(request_buf.addr, payload)

    def flood(conn):
        for _ in range(lookups_per_conn):
            conn.client_qp.post_send(
                wr_send(request_buf.addr, len(payload), signaled=False))
            yield sim.timeout(200)   # open-loop posting cadence

    def run():
        start = sim.now
        for offload, conn in offloads:
            sim.process(flood(conn))
        done = [conn.client_recv_cq.wait_for_count(lookups_per_conn)
                for _offload, conn in offloads]
        for event in done:
            if not event.triggered:
                yield event
        total = len(offloads) * lookups_per_conn
        return total / ((sim.now - start) / 1e9)

    return bed.run(run()) / 1e3


def scenario():
    results = {}
    results[("small", 1)] = _measure(64, 1, 150)
    results[("small", 2)] = _measure(64, 2, 150)
    results[("64KB", 1)] = _measure(65536, 1, 80)
    results[("64KB", 2)] = _measure(65536, 2, 80)
    return {f"{io}/{ports}p": rate
            for (io, ports), rate in results.items()}


def bench_table4(benchmark):
    results = run_once(benchmark, scenario)
    rows = []
    for (io, ports), reference in PAPER_KOPS.items():
        measured = results[f"{io}/{ports}p"]
        rows.append((io, f"{ports} port(s)", f"{measured:.0f}",
                     f"{reference}"))
    print_comparison("Table 4 — hash lookup throughput",
                     ["IO size", "config", "measured K/s", "paper K/s"],
                     rows)

    for (io, ports), reference in PAPER_KOPS.items():
        measured = results[f"{io}/{ports}p"]
        assert within_factor(measured, reference, 1.5), \
            f"{io}/{ports}p: {measured:.0f}K vs {reference}K"
    # Bottleneck structure: small IO scales with ports (PU/engine
    # bound); 64KB barely does (wire then PCIe bound).
    assert results["small/2p"] > 1.6 * results["small/1p"]
    assert results["64KB/2p"] < 1.35 * results["64KB/1p"]
