"""Shared builders for the five built-in RedN offload scenarios.

``tools/trace.py profile`` profiles these under a tracer;
``tests/test_recorder.py`` records each twice under a flight recorder
and diffs the journals; both must drive byte-identical simulations, so
the testbed construction and call-driving live here once. Each runner accepts an ``instrument(bed,
label)`` callback invoked right after the testbed exists and before
any offload state is built — attach a Tracer, a FlightRecorder, or
nothing — and stores its return value under ``"instrument"`` in the
result dict.

The hash and list offloads lower only their first two instances into
the chain program and stamp the rest from a compiled template, so their
results carry ``instances`` (the count posted) and ``instance_tag``
(the tag prefix of instance 0's ops): static per-request tallies come
from that one instance.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

__all__ = ["CALL_GAP_NS", "DRAIN_NS", "OFFLOADS", "run_offload"]

CALL_GAP_NS = 50_000
DRAIN_NS = 500_000


def _drive_calls(bed, client, offload, keys, per_call_post: bool = False):
    def scenario():
        for index, key in enumerate(keys):
            if per_call_post:
                # Early-break chains tear their instance down after the
                # hit (fig13's drive pattern): post one per call.
                offload.post_instances(1)
            result = yield from client.call(offload.payload_for(key),
                                            timeout_ns=60_000_000)
            assert result.ok, f"offload call for key {key:#x} failed"
            if per_call_post:
                offload.finish_request(index)
            yield bed.sim.timeout(CALL_GAP_NS)
        # Let straggling chain ops (unconsumed instances, CQE DMAs)
        # finish so execution counts are settled before profiling.
        yield bed.sim.timeout(DRAIN_NS)
    bed.run(scenario())


def _run_hash(calls: int, parallel: bool, instrument=None):
    from repro.apps import MemcachedServer
    from repro.bench import Testbed
    from repro.redn.offload import OffloadClient

    bed = Testbed(num_clients=1)
    label = "hash-lookup-par" if parallel else "hash-lookup"
    obs = instrument(bed, label) if instrument else None
    store = MemcachedServer(bed.server)
    keys = [0x30 + index for index in range(calls)]
    for key in keys:
        store.set(key, f"value-{key:#x}".encode(), force_bucket=0)
    offload, conn = store.attach_get_offload(
        bed.clients[0].nic, bed.client_pd(0), parallel=parallel,
        max_instances=calls + 2)
    offload.post_instances(calls)
    client = OffloadClient(conn, bed.client_verbs(0))
    _drive_calls(bed, client, offload, keys)
    return {"bed": bed, "instrument": obs,
            "program": offload.builder.program, "relation": "exact",
            "instances": offload.instances_posted, "instance_tag": "get0."}


def _run_list(calls: int, use_break: bool, instrument=None):
    from repro.bench import Testbed
    from repro.datastructs import LinkedList, SlabStore
    from repro.offloads.list_traversal import ListTraversalOffload
    from repro.redn import RednContext
    from repro.redn.offload import OffloadClient, OffloadConnection

    list_size = 8
    bed = Testbed(num_clients=1)
    label = "list-traversal-break" if use_break else "list-traversal"
    obs = instrument(bed, label) if instrument else None
    proc = bed.server.spawn_process("list-server")
    pd = proc.create_pd()
    slab_alloc = proc.alloc(4 * 1024 * 1024, label="slab")
    node_alloc = proc.alloc(64 * 1024, label="nodes")
    data_mr = pd.register(node_alloc)
    pd.register(slab_alloc)
    slab = SlabStore(bed.server.memory, slab_alloc)
    linked = LinkedList(bed.server.memory, node_alloc, slab)
    keys = [0x100 + index for index in range(list_size)]
    for key in keys:
        linked.append(key, bytes([key & 0xFF]) * 64)
    ctx = RednContext(bed.server.nic, pd, process=proc)
    conn = OffloadConnection(ctx, bed.clients[0].nic, bed.client_pd(0),
                             name="lp")
    offload = ListTraversalOffload(ctx, linked, data_mr, conn,
                                   max_nodes=list_size,
                                   use_break=use_break)
    if not use_break:
        offload.post_instances(calls)
    client = OffloadClient(conn, bed.client_verbs(0))
    call_keys = [keys[index % list_size] for index in range(calls)]
    _drive_calls(bed, client, offload, call_keys,
                 per_call_post=use_break)
    return {"bed": bed, "instrument": obs,
            "program": offload.builder.program,
            "relation": "at-most" if use_break else "exact",
            "instances": offload.instances_posted, "instance_tag": "trav0."}


def _run_recycled(calls: int, instrument=None):
    from repro.apps import MemcachedServer
    from repro.bench import Testbed
    from repro.offloads.recycled_get import (
        RECYCLED_CONN_KWARGS,
        RecycledHashGetOffload,
    )
    from repro.redn.offload import OffloadClient, OffloadConnection

    bed = Testbed(num_clients=1)
    obs = instrument(bed, "recycled-get") if instrument else None
    store = MemcachedServer(bed.server)
    keys = [0x50 + index for index in range(calls)]
    for key in keys:
        store.set(key, f"value-{key:#x}".encode(), force_bucket=0)
    conn = OffloadConnection(store.ctx, bed.clients[0].nic,
                             bed.client_pd(0), name="rg",
                             **RECYCLED_CONN_KWARGS)
    offload = RecycledHashGetOffload(store.ctx, store.table,
                                     store.table_mr, conn)
    offload.start()
    client = OffloadClient(conn, bed.client_verbs(0))
    _drive_calls(bed, client, offload, keys)
    return {"bed": bed, "instrument": obs,
            "program": offload.builder.program, "relation": "recycled",
            "offload": offload}


OFFLOADS = {
    "hash-lookup":
        lambda calls, instrument=None:
            _run_hash(calls, parallel=False, instrument=instrument),
    "hash-lookup-par":
        lambda calls, instrument=None:
            _run_hash(calls, parallel=True, instrument=instrument),
    "list-traversal":
        lambda calls, instrument=None:
            _run_list(calls, use_break=False, instrument=instrument),
    "list-traversal-break":
        lambda calls, instrument=None:
            _run_list(calls, use_break=True, instrument=instrument),
    "recycled-get": _run_recycled,
}


def run_offload(name: str, calls: int, instrument=None):
    """Build and drive one named offload scenario (see ``OFFLOADS``)."""
    return OFFLOADS[name](calls, instrument=instrument)
