"""Golden byte identity of the tracer and flight-recorder exports.

``tests/data/obs_golden.json`` holds the sha256 of ``Tracer.to_json()``
and ``FlightRecorder.to_jsonl()`` (plus the invariant monitor's
violations and ``obs.invariants`` counter, and the legacy tuple view of
``Tracer.events``) for each scenario below, recorded from sinks that
formatted every event eagerly. The sinks now store flat per-kind tuples
and format at export; these digests pin that move to zero changed
bytes. A change that means to alter an export must regenerate the file
(``python tests/test_obs_golden.py --write``) and say why.

Scenarios:

* every ``tools/_offload_runners`` offload at ``calls=8`` (instances
  2-7 of the hash and list offloads are stamped from a template);
* ``list-traversal-break`` at 32 and 128 calls, where every call
  reuses a pooled one-shot queue set;
* a 2-shard KV fleet with a recorder small enough to evict and
  checkpoint.

The ``list-traversal-break`` digests were regenerated when early-break
requests began freeing and reusing their one-shot queue memory, and
again when they began reusing whole queue sets: each time a causal
diff of the old and new journals showed only queue numbers and address
fields (and, the second time, no late wake of a stranded control
WAIT), with every other record the same at the same simulated time.

Every scenario whose journal holds stamped template instances (each
offload but ``recycled-get``, and the fleet's second shard) was
regenerated when observed stamps began posting run by run, as
unobserved ones did: the causal diff of old and new journals showed
only ring ``store`` records (one per run where there was one per WR,
over the same bytes) and, on ``list-traversal-break``, fewer
set-queue ``doorbell`` records (one per stamp). Every ``post``,
``fetch``, ``exec``, ``done``, ``cqe``, ``wait``, ``enable`` and
``atomic`` record was unchanged in content and time, and so were the
tracer's race counts (:data:`RACE_COUNTS`, which were read before
that move and still hold).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from repro.obs import FlightRecorder, Tracer

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")
if TOOLS not in sys.path:
    sys.path.append(TOOLS)

GOLDEN = Path(__file__).parent / "data" / "obs_golden.json"

OFFLOADS = ["hash-lookup", "hash-lookup-par", "list-traversal",
            "list-traversal-break", "recycled-get"]
BREAK_CALLS = [32, 128]
OFFLOAD_CASES = [(name, 8) for name in OFFLOADS] + [
    ("list-traversal-break", calls) for calls in BREAK_CALLS]

#: Race events of each scenario: ``(self_mod, stale_wqe)``.
RACE_COUNTS = {
    "hash-lookup@8": (41, 0), "hash-lookup-par@8": (41, 0),
    "list-traversal@8": (256, 0), "list-traversal-break@8": (188, 0),
    "recycled-get@8": (39, 0), "list-traversal-break@32": (752, 0),
    "list-traversal-break@128": (3008, 0),
}

FLEET_RECORDER_CAPACITY = 512
FLEET_CHECKPOINT_INTERVAL = 128


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sink_digests(sim, tracer, recorder) -> dict:
    invariants = sim.metrics.counter("obs.invariants")
    return {
        "trace": _sha(tracer.to_json()),
        "journal": _sha(recorder.to_jsonl()),
        "events": _sha(repr(list(tracer.events))),
        "violations": _sha(json.dumps(recorder.violations,
                                      sort_keys=True)),
        "invariants": dict(sorted(invariants.items())),
        "records": recorder.seq,
    }


def offload_digests(name: str, calls: int, check=None) -> dict:
    """Digests of one offload run; ``check(tracer, recorder)`` sees the
    sinks before they close."""
    from _offload_runners import run_offload

    def instrument(bed, label):
        tracer = Tracer(bed.sim, name=label)
        recorder = FlightRecorder(bed.sim, name=label)
        return tracer, recorder

    result = run_offload(name, calls, instrument=instrument)
    tracer, recorder = result["instrument"]
    if check is not None:
        check(tracer, recorder)
    tracer.close()
    recorder.close()
    return _sink_digests(result["bed"].sim, tracer, recorder), tracer


def fleet_digests() -> list:
    from repro.bench.fleet import build_fleet

    scenario = build_fleet(num_shards=2, clients_per_shard=8,
                           requests_per_client=3, pool_qps=4,
                           gateway_workers=4, telemetry_path="",
                           exemplars=0)
    sinks = []
    for rig in scenario.rigs:
        tracer = Tracer(rig.sim, name=rig.shard.name)
        recorder = FlightRecorder(rig.sim, name=rig.shard.name,
                                  capacity=FLEET_RECORDER_CAPACITY,
                                  checkpoint_interval=(
                                      FLEET_CHECKPOINT_INTERVAL))
        for nic in (rig.bed.server.nic, rig.bed.clients[0].nic):
            tracer.attach_nic(nic)
            recorder.attach_nic(nic)
        sinks.append((rig.sim, tracer, recorder))
    scenario.run()
    out = []
    for sim, tracer, recorder in sinks:
        tracer.close()
        recorder.close()
        out.append(_sink_digests(sim, tracer, recorder))
    return out


def _case_id(name: str, calls: int) -> str:
    return f"{name}@{calls}"


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", OFFLOADS)
def test_offload_exports_match_golden(name):
    digests, tracer = offload_digests(name, 8)
    assert digests == _golden()["offloads"][_case_id(name, 8)]
    assert (tracer.self_mod_count, tracer.stale_count) == \
        RACE_COUNTS[_case_id(name, 8)]


@pytest.mark.parametrize("calls", BREAK_CALLS)
def test_break_offload_keeps_no_destroyed_queue_snapshot(calls):
    """Early-break calls reuse pooled queue sets whose stranded tails
    were prefetched but never execute. A set's reset announces each of
    its queues destroyed, then created under the new tenant's name, so
    no capture state holds a WR index of a previous tenant: every live
    queue registration (whose name gives its records' track) and fetch
    snapshot, every CQ track, and every cached recorder queue state,
    belongs to the queue's current tenant. The trace and journal still
    match the golden digests."""
    def check(tracer, recorder):
        capture = tracer._capture
        stale = []
        for wq, state in capture._queues.items():
            if state.name != wq.name:
                stale.append(("tracer track", wq.name))
            stale.extend(("tracer snapshot", wq.name, wr_index)
                         for wr_index in state.snaps
                         if wr_index >= wq.fetched_count)
        stale.extend(("tracer cq track", cq.name)
                     for cq, (_nic, label) in capture._cqs.items()
                     if label != f"cq:{cq.name}")
        for wq, (_version, key, entry) in recorder._wq_states.items():
            if (not key.endswith("/" + wq.name)
                    or entry["posted"] > wq.posted_count):
                stale.append(("recorder state", wq.name, key))
        assert not stale

    digests, tracer = offload_digests("list-traversal-break", calls, check)
    case = _case_id("list-traversal-break", calls)
    assert digests == _golden()["offloads"][case]
    assert (tracer.self_mod_count, tracer.stale_count) == RACE_COUNTS[case]


def _live_tables(tracer, recorder) -> dict:
    """Sizes of every per-queue table the capture and its views keep
    while the run is live. The caches filled as rings are used (slot
    images, checkpoint digests) must stay within their rings."""
    capture = tracer._capture
    monitor = recorder.monitor
    queues = capture._queues
    assert sum(len(q.images) for q in queues.values()) <= sum(
        wq.num_slots for wq in queues)
    assert len(recorder._wq_states) <= len(recorder._rings)
    assert len(recorder._digests) <= len(recorder._rings)
    return {
        "queues": len(queues),
        "snapshots": sum(len(q.snaps) for q in queues.values()),
        "cqs": len(capture._cqs),
        "rings": len(capture._rings),
        "nics": len(capture._traced),
        "recorder rings": len(recorder._rings),
        "monitor": sum(len(state) for state in (
            monitor._last_fetch_wr, monitor._cq_counts, monitor._exec_len,
            monitor._last_wait_threshold)),
    }


def test_live_tables_stay_flat_over_reused_queue_sets():
    """Track ids are numbered when the trace is read, so no per-queue
    table grows with the renamed pooled queues: the live tables after
    128 observed break calls are the sizes they were after 32, while
    the exported trace names many more queue tracks (the digests pin
    it)."""
    tables, threads = {}, {}

    def keep(calls):
        def check(tracer, recorder):
            tables[calls] = _live_tables(tracer, recorder)
            threads[calls] = len(tracer._fold()[1])
        return check

    for calls in BREAK_CALLS:
        digests, _tracer = offload_digests("list-traversal-break", calls,
                                           keep(calls))
        assert digests == _golden()["offloads"][
            _case_id("list-traversal-break", calls)]
    assert tables[32] == tables[128]
    assert tables[32]["queues"] > 0
    assert threads[32] < threads[128]


class _FetchReads:
    """Probe sink, attached after the capture: reads every fetched
    WQE's slots afresh."""

    def __init__(self, sim):
        self.reads = []
        sim.probe.attach(self)

    def on_fetch(self, wq, wr_index, slot_cursor, slots, wqe, cache_hit):
        gens, data = wq.slot_state(slot_cursor, slots)
        self.reads.append((wq.name, wr_index, list(gens), data.hex()))


@pytest.mark.parametrize("name,calls", [("hash-lookup", 8),
                                        ("list-traversal-break", 32)])
def test_fetch_images_equal_a_fresh_read(name, calls):
    """The capture reuses a slot's last image while the slot's write
    generations hold. Every fetch record's image must still equal a
    fresh read of the slots: on hash-lookup, CAS verbs rewrite slots
    already fetched; on list-traversal-break, pooled queue sets zero
    their rings and generations between requests."""
    from _offload_runners import run_offload

    def instrument(bed, label):
        recorder = FlightRecorder(bed.sim, name=label, capacity=1 << 20)
        return Tracer(bed.sim, name=label), recorder, _FetchReads(bed.sim)

    tracer, recorder, sink = run_offload(
        name, calls, instrument=instrument)["instrument"]
    journaled = [(record["wq"], record["wr"], record["gens"], record["wqe"])
                 for record in recorder.records if record["kind"] == "fetch"]
    assert recorder.evicted == 0 and journaled
    assert journaled == sink.reads
    assert tracer.self_mod_count == RACE_COUNTS[_case_id(name, calls)][0]
    tracer.close()
    recorder.close()


def test_fleet_exports_match_golden():
    assert fleet_digests() == _golden()["fleet"]


def _write() -> None:
    data = {
        "offloads": {_case_id(name, calls): offload_digests(name, calls)[0]
                     for name, calls in OFFLOAD_CASES},
        "fleet": fleet_digests(),
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_obs_golden.py --write")
    _write()
