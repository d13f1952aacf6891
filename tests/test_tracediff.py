"""Trace-diff engine: causal alignment, typed first divergence.

The acceptance scenario for the whole observability PR: two
identical-seed runs diff to zero divergences; flipping one CAS arm
value yields exactly one *first* divergence that names the WQE field
and both byte values, with a causal slice containing the arming op;
perturbing a timing constant yields a typed ``timing`` divergence with
the delta.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ibv import wr_write
from repro.obs import (
    FlightRecorder,
    causal_slice,
    diff_journals,
    load_journal,
)
from repro.obs.tracediff import causal_key, render_report
from repro.redn import ProgramBuilder, RednContext

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_if_scenario(compare_id, tmp_path, label, fetch_delta_ns=0):
    """The emit_if construct under a flight recorder.

    ``compare_id`` arms (or not) the branch WQE via CAS;
    ``fetch_delta_ns`` perturbs the NIC's WQE fetch latency without
    touching causal structure.
    """
    from conftest import LoopbackRig

    lo = LoopbackRig()
    if fetch_delta_ns:
        # TimingModel is frozen; swap in a perturbed copy.
        lo.nic.timing = dataclasses.replace(
            lo.nic.timing,
            wqe_fetch_ns=lo.nic.timing.wqe_fetch_ns + fetch_delta_ns)
    recorder = FlightRecorder(lo.sim, name=label,
                              checkpoint_interval=16)
    recorder.attach_nic(lo.nic)
    ctx = RednContext(lo.nic, lo.pd, owner="test-redn")
    builder = ProgramBuilder(ctx, name="if-test")
    src, _ = ctx.alloc_registered(8, label="src")
    dst, dst_mr = ctx.alloc_registered(8, label="dst")
    ctx.memory.write(src.addr, b"MATCHED!")
    ctl = builder.control_queue(name="ctl")
    worker = builder.worker_queue(name="wrk")
    branches = builder.worker_queue(name="brn")
    live = wr_write(src.addr, 8, dst.addr, dst_mr.rkey)
    live.wr_id = 0x42
    branch = builder.template(branches, live, tag="if.branch")
    builder.emit_if(ctl, worker, branch, compare_id=compare_id,
                    tag="if")
    ctl.doorbell()

    def run():
        yield lo.sim.timeout(50_000)

    lo.run(run())
    path = tmp_path / f"{label}.jsonl"
    recorder.dump(path)
    recorder.close()
    return load_journal(path)


class TestIdenticalRuns:
    def test_zero_divergences(self, tmp_path):
        journal_a = run_if_scenario(0x42, tmp_path, "a")
        journal_b = run_if_scenario(0x42, tmp_path, "b")
        report = diff_journals(journal_a, journal_b)
        assert report.identical
        assert report.first is None
        assert report.aligned == len(journal_a.records)
        assert "causally identical" in render_report(report)


class TestCasArmFlip:
    """One flipped CAS compare value — the paper's §3.3 conditional."""

    def test_first_divergence_names_field_and_values(self, tmp_path):
        journal_a = run_if_scenario(0x42, tmp_path, "a")
        journal_b = run_if_scenario(0x43, tmp_path, "b")
        report = diff_journals(journal_a, journal_b)
        assert not report.identical
        first = report.first
        assert first.kind == "wqe_bytes"
        # The divergent event is the post of the arming CAS itself.
        assert first.a["op"] == "CAS"
        fields = {f["field"]: f for f in first.fields}
        assert "operand0" in fields
        assert fields["operand0"]["a"] == 0x42
        assert fields["operand0"]["b"] == 0x43
        assert "operand0: 0x42 -> 0x43" in first.detail

    def test_causal_slice_names_arming_op(self, tmp_path):
        journal_a = run_if_scenario(0x42, tmp_path, "a")
        journal_b = run_if_scenario(0x43, tmp_path, "b")
        report = diff_journals(journal_a, journal_b)
        # The branch WQE's fetch diverges too (the CAS rewrote its id
        # field in run A only); its slice must reach the arming CAS.
        branch_divs = [d for d in report.divergences
                       if d.kind == "wqe_bytes"
                       and d.a["kind"] == "fetch"
                       and d.a["wq"].startswith("brn")]
        assert branch_divs
        feeding = causal_slice(journal_a, branch_divs[0].a, depth=12)
        assert any(record["kind"] == "atomic"
                   and record["op"] == "CAS" for record in feeding)

    def test_rendered_report_is_complete(self, tmp_path):
        journal_a = run_if_scenario(0x42, tmp_path, "a")
        journal_b = run_if_scenario(0x43, tmp_path, "b")
        report = diff_journals(journal_a, journal_b)
        text = render_report(report, journal_a)
        assert "first divergence (wqe_bytes)" in text
        assert "operand0: 0x42 -> 0x43" in text
        assert "causal slice" in text


class TestTimingPerturbation:
    def test_timing_divergence_reports_delta(self, tmp_path):
        journal_a = run_if_scenario(0x42, tmp_path, "a")
        journal_b = run_if_scenario(0x42, tmp_path, "b",
                                    fetch_delta_ns=7)
        report = diff_journals(journal_a, journal_b)
        assert not report.identical
        # Same causal structure: everything aligns, nothing is
        # missing/extra, and the differences are typed timing.
        assert report.aligned == len(journal_a.records)
        kinds = report.by_kind()
        assert set(kinds) == {"timing"}
        first = report.first
        assert first.b["ts"] - first.a["ts"] == 7
        assert "+7 ns" in first.detail


class TestMissingExtra:
    def test_shorter_run_reports_missing(self, tmp_path):
        from conftest import LoopbackRig

        def run_writes(writes, label):
            lo = LoopbackRig()
            recorder = FlightRecorder(lo.sim, name=label)
            recorder.attach_nic(lo.nic)
            src, _ = lo.buffer(64)
            dst, dst_mr = lo.buffer(64)
            for index in range(writes):
                lo.qp_a.post_send(
                    wr_write(src.addr, 64, dst.addr, dst_mr.rkey,
                             signaled=True, wr_id=index))

            def run():
                yield lo.sim.timeout(300_000)

            lo.run(run())
            path = tmp_path / f"{label}.jsonl"
            recorder.dump(path)
            recorder.close()
            return load_journal(path)

        journal_a = run_writes(4, "a")
        journal_b = run_writes(3, "b")
        report = diff_journals(journal_a, journal_b)
        kinds = report.by_kind()
        assert kinds.get("missing", 0) > 0
        # The surplus WR's CQEs folded into one per-CQ count summary.
        assert kinds.get("cqe_count", 0) <= 1
        report_ba = diff_journals(journal_b, journal_a)
        assert report_ba.by_kind().get("extra", 0) > 0


class TestCausalKeys:
    def test_wr_identity_not_wall_order(self):
        ordinals = {}
        key = causal_key({"kind": "fetch", "wq": "sq", "wr": 7,
                          "seq": 123, "ts": 999}, ordinals)
        assert key == (0, "wq", "sq", "fetch", 7, 0)

    def test_repeated_streams_get_ordinals(self):
        ordinals = {}
        first = causal_key({"kind": "doorbell", "wq": "sq",
                            "up_to": 1}, ordinals)
        second = causal_key({"kind": "doorbell", "wq": "sq",
                             "up_to": 2}, ordinals)
        assert first[-1] == 0
        assert second[-1] == 1
        assert first[:-1] == second[:-1]

    def test_bed_scopes_keys(self):
        ordinals = {}
        key_a = causal_key({"kind": "cqe", "cq": "scq", "count": 1,
                            "bed": 0}, ordinals)
        key_b = causal_key({"kind": "cqe", "cq": "scq", "count": 1,
                            "bed": 1}, ordinals)
        assert key_a != key_b


class TestCheckpointDivergence:
    """Identical records, different checkpoint state."""

    @staticmethod
    def _edit_checkpoint(path):
        """Flip one ring digest in the journal's last checkpoint."""
        lines = path.read_text().splitlines()
        index = max(i for i, line in enumerate(lines)
                    if '"kind":"checkpoint"' in line)
        checkpoint = json.loads(lines[index])
        regions = checkpoint["state"]["mem"]["mem"]
        label = sorted(regions)[0]
        regions[label] = "0" * 16
        lines[index] = json.dumps(checkpoint, sort_keys=True,
                                  separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        return checkpoint["seq"], f"mem[mem][{label}]"

    def test_edited_digest_is_one_checkpoint_divergence(self, tmp_path):
        journal_a = run_if_scenario(0x42, tmp_path, "a")
        run_if_scenario(0x42, tmp_path, "b")
        seq, entry = self._edit_checkpoint(tmp_path / "b.jsonl")
        journal_b = load_journal(tmp_path / "b.jsonl")
        assert journal_b.records == journal_a.records
        report = diff_journals(journal_a, journal_b)
        assert report.by_kind() == {"checkpoint": 1}
        (divergence,) = report.divergences
        assert divergence.key == (0, "checkpoint", seq)
        assert [f["field"] for f in divergence.fields] == [entry]
        assert divergence.fields[0]["b"] == "0" * 16
        text = render_report(report, journal_a)
        assert "first divergence (checkpoint)" in text
        assert entry in text

    def test_diverging_records_skip_the_checkpoint_check(self, tmp_path):
        journal_a = run_if_scenario(0x42, tmp_path, "a")
        run_if_scenario(0x43, tmp_path, "b")
        self._edit_checkpoint(tmp_path / "b.jsonl")
        report = diff_journals(journal_a,
                               load_journal(tmp_path / "b.jsonl"))
        assert report.first.kind == "wqe_bytes"
        assert "checkpoint" not in report.by_kind()


class TestCli:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "trace.py"),
             "diff", *argv],
            capture_output=True, text=True)

    def test_identical_exit_zero(self, tmp_path):
        run_if_scenario(0x42, tmp_path, "a")
        run_if_scenario(0x42, tmp_path, "b")
        result = self._run(str(tmp_path / "a.jsonl"),
                           str(tmp_path / "b.jsonl"),
                           "--fail-on-divergence")
        assert result.returncode == 0, result.stderr
        assert "causally identical" in result.stdout

    def test_divergent_exit_two(self, tmp_path):
        run_if_scenario(0x42, tmp_path, "a")
        run_if_scenario(0x43, tmp_path, "b")
        result = self._run(str(tmp_path / "a.jsonl"),
                           str(tmp_path / "b.jsonl"),
                           "--fail-on-divergence")
        assert result.returncode == 1
        assert "operand0: 0x42 -> 0x43" in result.stdout
        payload = self._run(str(tmp_path / "a.jsonl"),
                            str(tmp_path / "b.jsonl"), "--json")
        report = json.loads(payload.stdout)
        assert report["identical"] is False
        assert report["first"]["kind"] == "wqe_bytes"

    def test_corrupt_input_exit_one(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "meta", "schema": 1}\n{oops\n')
        run_if_scenario(0x42, tmp_path, "a")
        result = self._run(str(bad), str(tmp_path / "a.jsonl"))
        assert result.returncode == 2
        assert "error:" in result.stderr
