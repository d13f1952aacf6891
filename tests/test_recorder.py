"""Flight recorder: journaling, checkpoints, re-runs, invariants.

Covers the edge cases the recorder must get right for record-and-diff
debugging to be trustworthy: ring-buffer eviction at capacity,
checkpoint byte-identity across identical runs, typed errors on
truncated/corrupt journals, and — the end-to-end guarantee — a re-run
of every built-in offload program records a byte-identical journal
that ``diff_journals`` finds identical, checkpoints included.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.ibv import wr_write
from repro.obs import (
    FlightRecorder,
    InvariantMonitor,
    JournalCorruptError,
    JournalTruncatedError,
    SinkAttachedError,
    diff_journals,
    load_journal,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOLS = str(REPO_ROOT / "tools")
if TOOLS not in sys.path:
    sys.path.append(TOOLS)


def drive_writes(lo, recorder, writes: int = 6):
    """Post ``writes`` signaled WRITEs over the loopback QP."""
    recorder.attach_nic(lo.nic)
    src, _ = lo.buffer(64)
    dst, dst_mr = lo.buffer(64)
    lo.memory.write(src.addr, bytes(range(64)))
    for index in range(writes):
        lo.qp_a.post_send(wr_write(src.addr, 64, dst.addr, dst_mr.rkey,
                                   signaled=True, wr_id=index))

    def run():
        yield lo.sim.timeout(300_000)

    lo.run(run())
    return dst


class TestRecorderLifecycle:
    def test_one_recorder_per_sim(self, lo):
        recorder = FlightRecorder(lo.sim)
        with pytest.raises(SinkAttachedError):
            FlightRecorder(lo.sim)
        recorder.close()
        FlightRecorder(lo.sim).close()

    def test_close_detaches_and_clears_flag(self, lo):
        recorder = FlightRecorder(lo.sim)
        drive_writes(lo, recorder, writes=1)
        assert lo.sim.probe.sinks == [recorder._capture]
        before = recorder.seq
        recorder.close()
        assert lo.sim.probe.sinks == []
        assert lo.sim.probe.post == ()
        # Detached: further traffic emits nothing.
        lo.qp_a.post_send(wr_write(0, 0, 0, 0))
        assert recorder.seq == before


class TestRingEviction:
    def test_eviction_at_capacity(self, lo):
        recorder = FlightRecorder(lo.sim, capacity=16,
                                  checkpoint_interval=8)
        drive_writes(lo, recorder)
        assert recorder.seq > 16
        assert len(recorder.records) == 16
        assert recorder.evicted == recorder.seq - 16
        # The retained window is the contiguous tail of the run.
        seqs = [record["seq"] for record in recorder.records]
        assert seqs == list(range(recorder.evicted, recorder.seq))
        recorder.close()

    def test_evicted_journal_dumps_loadable_suffix(self, lo, tmp_path):
        recorder = FlightRecorder(lo.sim, capacity=16,
                                  checkpoint_interval=8)
        drive_writes(lo, recorder)
        path = tmp_path / "ring.jsonl"
        recorder.dump(path)
        recorder.close()
        journal = load_journal(path)
        assert len(journal.records) == 16
        assert journal.first_seq == journal.meta["first_seq"] > 0
        # Checkpoints from before the retained window were dropped too.
        assert all(cp["seq"] >= journal.first_seq
                   for cp in journal.checkpoints)


class TestCheckpoints:
    def test_checkpoint_cadence(self, lo):
        recorder = FlightRecorder(lo.sim, checkpoint_interval=8)
        drive_writes(lo, recorder)
        assert recorder.checkpoints
        assert all(cp["seq"] % 8 == 0 for cp in recorder.checkpoints)
        recorder.close()

    def test_identical_runs_checkpoint_byte_identical(self, tmp_path):
        from conftest import LoopbackRig

        def capture():
            lo = LoopbackRig()
            recorder = FlightRecorder(lo.sim, checkpoint_interval=8)
            drive_writes(lo, recorder)
            state = recorder.capture_state()
            checkpoints = list(recorder.checkpoints)
            recorder.close()
            return state, checkpoints

        state_a, cps_a = capture()
        state_b, cps_b = capture()
        assert state_a == state_b
        assert cps_a == cps_b
        # Digest-for-digest identity survives a JSON round-trip (the
        # journal stores checkpoints as JSONL lines).
        assert json.loads(json.dumps(state_a, sort_keys=True)) == state_b

    def test_checkpoint_covers_queue_and_memory_state(self, lo):
        recorder = FlightRecorder(lo.sim)
        drive_writes(lo, recorder)
        state = recorder.capture_state()
        send_wq = lo.qp_a.send_wq
        wq_state = state["wq"][f"nic/{send_wq.name}"]
        assert wq_state["posted"] == send_wq.posted_count
        assert wq_state["fetched"] == send_wq.fetched_count
        assert f"ring:{send_wq.name}" in state["mem"]["mem"]
        cq_key = f"nic/{send_wq.cq.name}"
        assert state["cq"][cq_key] == send_wq.cq.count
        recorder.close()


class TestJournalErrors:
    def test_empty_journal_raises_truncated(self):
        with pytest.raises(JournalTruncatedError):
            load_journal([])

    def test_missing_meta_raises_truncated(self):
        line = json.dumps({"kind": "post", "seq": 0, "ts": 0})
        with pytest.raises(JournalTruncatedError):
            load_journal([line])

    def test_bad_json_raises_corrupt(self):
        meta = json.dumps({"kind": "meta", "schema": 1})
        with pytest.raises(JournalCorruptError):
            load_journal([meta, "{not json"])

    def test_unknown_schema_raises_corrupt(self):
        with pytest.raises(JournalCorruptError):
            load_journal([json.dumps({"kind": "meta", "schema": 99})])

    def test_seq_hole_raises_corrupt(self):
        lines = [json.dumps({"kind": "meta", "schema": 1}),
                 json.dumps({"kind": "post", "seq": 0, "ts": 0}),
                 json.dumps({"kind": "post", "seq": 2, "ts": 0})]
        with pytest.raises(JournalCorruptError):
            load_journal(lines)

    def test_truncated_dump_raises_typed_error(self, lo, tmp_path):
        recorder = FlightRecorder(lo.sim)
        drive_writes(lo, recorder)
        path = tmp_path / "full.jsonl"
        recorder.dump(path)
        recorder.close()
        lines = path.read_text().splitlines()
        # Drop a middle record: the seq chain must catch it.
        with pytest.raises(JournalCorruptError):
            load_journal(lines[:5] + lines[6:])


class TestReplay:
    """A replay is a re-run: record the scenario again, then diff."""

    def _record(self, tmp_path, label, writes=6, capacity=1 << 16):
        from conftest import LoopbackRig

        lo = LoopbackRig()
        recorder = FlightRecorder(lo.sim, capacity=capacity,
                                  checkpoint_interval=8)
        drive_writes(lo, recorder, writes=writes)
        path = tmp_path / f"{label}.jsonl"
        recorder.dump(path)
        recorder.close()
        return path

    def test_full_replay_verifies_every_record(self, tmp_path):
        first = self._record(tmp_path, "a")
        second = self._record(tmp_path, "b")
        assert first.read_bytes() == second.read_bytes()
        journal = load_journal(first)
        report = diff_journals(journal, load_journal(second))
        assert report.identical
        assert report.aligned == len(journal.records)
        assert journal.checkpoints

    def test_perturbed_replay_reports_divergence(self, tmp_path):
        journal = load_journal(self._record(tmp_path, "a", writes=6))
        rerun = load_journal(self._record(tmp_path, "b", writes=5))
        report = diff_journals(journal, rerun)
        assert not report.identical
        assert report.first.kind != "checkpoint"

    def test_replay_from_nearest_checkpoint_after_eviction(self,
                                                           tmp_path):
        first = self._record(tmp_path, "a", capacity=16)
        second = self._record(tmp_path, "b", capacity=16)
        journal = load_journal(first)
        assert journal.first_seq > 0
        # The evicted ring keeps a suffix and the checkpoints inside
        # it; a re-run reproduces both byte for byte.
        assert any(cp["seq"] >= journal.first_seq
                   for cp in journal.checkpoints)
        assert first.read_bytes() == second.read_bytes()
        report = diff_journals(journal, load_journal(second))
        assert report.identical
        assert report.aligned == len(journal.records)


@pytest.mark.parametrize("offload", ["hash-lookup", "hash-lookup-par",
                                     "list-traversal",
                                     "list-traversal-break",
                                     "recycled-get"])
def test_offload_replay_suffix_byte_identical(offload, tmp_path):
    """Record twice and diff, for all five built-in offloads."""
    from _offload_runners import run_offload

    def record(label):
        def instrument(bed, name):
            recorder = FlightRecorder(bed.sim, name=name, capacity=4096,
                                      checkpoint_interval=64)
            recorder.attach_nic(bed.server.nic)
            for client in bed.clients:
                recorder.attach_nic(client.nic)
            return recorder

        recorder = run_offload(offload, 2, instrument=instrument)[
            "instrument"]
        assert recorder.violations == []
        path = tmp_path / f"{label}.jsonl"
        recorder.dump(path)
        recorder.close()
        return path

    first, second = record("a"), record("b")
    assert first.read_bytes() == second.read_bytes()
    journal = load_journal(first)
    assert journal.records and journal.checkpoints
    report = diff_journals(journal, load_journal(second))
    assert report.identical, report.first
    assert report.aligned == len(journal.records)


def _monitor_entries(monitor) -> int:
    """Entries of the monitor state kept under queue and CQ names."""
    return sum(len(state) for state in (
        monitor._last_fetch_wr, monitor._cq_counts, monitor._exec_len,
        monitor._last_wait_threshold))


def test_monitor_state_stays_flat_over_reused_queue_sets():
    """Each early-break request runs on a reused queue set renamed for
    it; the monitor drops the old names' state when the set is handed
    on, so 128 calls leave no more entries than 32."""
    from _offload_runners import run_offload
    from repro.obs import Tracer

    def entries(calls):
        def instrument(bed, name):
            tracer = Tracer(bed.sim, name=name)
            recorder = FlightRecorder(bed.sim, name=name)
            for nic in [bed.server.nic] + [c.nic for c in bed.clients]:
                tracer.attach_nic(nic)
                recorder.attach_nic(nic)
            return tracer, recorder

        _tracer, recorder = run_offload("list-traversal-break", calls,
                                        instrument=instrument)["instrument"]
        assert recorder.violations == []
        return _monitor_entries(recorder.monitor)

    few = entries(32)
    assert 0 < entries(128) <= few


def test_recorder_only_capture_stays_bounded():
    """With only a recorder attached, the capture keeps no chunk the
    recorder's window does not need: after 512 break calls it holds as
    many chunks (each with its payloads) as after 256, each holding
    ``capacity`` records plus at most one chunk's head."""
    from _offload_runners import run_offload
    from repro.obs.capture import CHUNK_SLOTS, walk

    def stored(calls):
        def instrument(bed, name):
            recorder = FlightRecorder(bed.sim, name=name)
            for nic in [bed.server.nic] + [c.nic for c in bed.clients]:
                recorder.attach_nic(nic)
            return recorder

        recorder = run_offload("list-traversal-break", calls,
                               instrument=instrument)["instrument"]
        assert recorder._capture.tracer is None
        assert recorder.retained == recorder.capacity < recorder.seq
        chunks = [chunk for _seq, chunk, _payloads in recorder._chunks]
        records = sum(1 for _ in walk(chunks))
        assert recorder.capacity <= records < (recorder.capacity
                                               + CHUNK_SLOTS // 4)
        return len(chunks)

    assert stored(256) == stored(512)


def test_monitor_forget_drops_one_queue_only():
    monitor = InvariantMonitor()
    for wq, cq in (("a", "cq-a"), ("b", "cq-b")):
        monitor.fetch(0, 0, 0, wq, 1, 0)
        monitor.exec(0, wq, 0, "WRITE", 64)
        monitor.wait(1, 0, 0, wq, 1, 1, 7, 1, 1, False)
        monitor.exec(0, wq, 2, "WAIT", 0)
        monitor.cqe(2, 0, 0, cq, 1, 1, "OK")
    monitor.forget(0, "a", "cq-a")
    assert list(monitor._last_fetch_wr) == [(0, "b")]
    assert list(monitor._cq_counts) == [(0, "cq-b")]
    assert list(monitor._exec_len) == [(0, "b", 0), (0, "b", 2)]
    assert list(monitor._last_wait_threshold) == [(0, "b", 7)]


class TestInvariantMonitor:
    """Fed synthetic records, so each invariant is exercised alone."""

    def test_fetch_monotonicity_violation(self):
        monitor = InvariantMonitor()
        monitor.observe({"kind": "fetch", "wq": "sq", "wq_num": 1,
                         "wr": 0, "seq": 0, "ts": 0})
        monitor.observe({"kind": "fetch", "wq": "sq", "wq_num": 1,
                         "wr": 2, "seq": 1, "ts": 10})
        assert [v["name"] for v in monitor.violations] == \
            ["wqe_count_monotonic"]

    def test_wait_threshold_violation(self):
        monitor = InvariantMonitor()
        monitor.observe({"kind": "wait", "wq": "ctl", "wq_num": 1,
                         "wr": 0, "cq": 3, "threshold": 5, "count": 4,
                         "signaled": False, "seq": 0, "ts": 0})
        assert [v["name"] for v in monitor.violations] == \
            ["wait_threshold"]

    def test_wait_threshold_regression_per_cq(self):
        monitor = InvariantMonitor()
        base = {"kind": "wait", "wq": "ctl", "wq_num": 1,
                "signaled": False}
        monitor.observe(dict(base, wr=0, cq=3, threshold=5, count=5,
                             seq=0, ts=0))
        # A different CQ with a lower threshold is fine...
        monitor.observe(dict(base, wr=2, cq=4, threshold=1, count=1,
                             seq=1, ts=1))
        assert monitor.violations == []
        # ...the same CQ regressing is not.
        monitor.observe(dict(base, wr=4, cq=3, threshold=4, count=6,
                             seq=2, ts=2))
        assert [v["name"] for v in monitor.violations] == \
            ["wqe_count_monotonic"]

    def test_cqe_count_jump_violation(self):
        monitor = InvariantMonitor()
        monitor.observe({"kind": "cqe", "cq": "scq", "cq_num": 1,
                         "count": 1, "op": "WRITE", "wr_id": 0,
                         "status": "OK", "wq_num": 9, "seq": 0, "ts": 0})
        monitor.observe({"kind": "cqe", "cq": "scq", "cq_num": 1,
                         "count": 3, "op": "WRITE", "wr_id": 1,
                         "status": "OK", "wq_num": 9, "seq": 1, "ts": 1})
        assert [v["name"] for v in monitor.violations] == \
            ["cqe_conservation"]

    def test_unjustified_cqe_violation(self):
        monitor = InvariantMonitor()
        monitor.observe({"kind": "fetch", "wq": "sq", "wq_num": 7,
                         "wr": 0, "seq": 0, "ts": 0})
        # A completion without any signaled done/wait/enable backing it.
        monitor.observe({"kind": "cqe", "cq": "scq", "cq_num": 1,
                         "count": 1, "op": "WRITE", "wr_id": 0,
                         "status": "OK", "wq_num": 7, "seq": 1, "ts": 1})
        assert [v["name"] for v in monitor.violations] == \
            ["cqe_conservation"]

    def test_dma_byte_conservation_violation(self):
        monitor = InvariantMonitor()
        monitor.observe({"kind": "exec", "wq": "sq", "wq_num": 1,
                         "wr": 0, "op": "WRITE", "len": 64,
                         "seq": 0, "ts": 0})
        monitor.observe({"kind": "done", "wq": "sq", "wq_num": 1,
                         "wr": 0, "op": "WRITE", "status": "OK",
                         "len": 32, "signaled": True, "seq": 1, "ts": 1})
        assert [v["name"] for v in monitor.violations] == ["dma_bytes"]

    def test_read_may_scatter_less(self):
        monitor = InvariantMonitor()
        monitor.observe({"kind": "exec", "wq": "sq", "wq_num": 1,
                         "wr": 0, "op": "READ", "len": 64,
                         "seq": 0, "ts": 0})
        monitor.observe({"kind": "done", "wq": "sq", "wq_num": 1,
                         "wr": 0, "op": "READ", "status": "OK",
                         "len": 32, "signaled": True, "seq": 1, "ts": 1})
        assert monitor.violations == []

    def test_clean_write_sequence_passes(self):
        monitor = InvariantMonitor()
        records = [
            {"kind": "fetch", "wq": "sq", "wq_num": 1, "wr": 0},
            {"kind": "exec", "wq": "sq", "wq_num": 1, "wr": 0,
             "op": "WRITE", "len": 64},
            {"kind": "done", "wq": "sq", "wq_num": 1, "wr": 0,
             "op": "WRITE", "status": "OK", "len": 64,
             "signaled": True},
            {"kind": "cqe", "cq": "scq", "cq_num": 1, "count": 1,
             "op": "WRITE", "wr_id": 0, "status": "OK", "wq_num": 1},
        ]
        for seq, record in enumerate(records):
            monitor.observe(dict(record, seq=seq, ts=seq * 10))
        assert monitor.violations == []

    def test_recorder_exports_invariant_metrics(self, lo):
        recorder = FlightRecorder(lo.sim)
        drive_writes(lo, recorder, writes=2)
        counters = lo.sim.metrics.snapshot()["counters"]
        assert counters["obs.invariants"]["checks"] == recorder.seq
        assert not any(key.startswith("violation:")
                       for key in counters["obs.invariants"])
        recorder.close()
