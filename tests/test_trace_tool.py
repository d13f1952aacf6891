"""``tools/trace.py``: one loader that reads the format from the file.

Each subcommand reads only the format it can use (``inspect`` either,
``diff`` journals, ``profile`` Chrome traces). Any other input is
reported as one ``error: <file>: ...`` line with exit code 2, never a
traceback.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ibv import wr_write
from repro.obs import FlightRecorder, Tracer

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_tool(*argv):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "trace.py"), *argv],
        capture_output=True, text=True)


@pytest.fixture
def recordings(lo, tmp_path):
    """One run of three signaled WRITEs, recorded in both formats."""
    tracer = Tracer(lo.sim, name="t")
    tracer.attach_nic(lo.nic)
    recorder = FlightRecorder(lo.sim, name="j")
    recorder.attach_nic(lo.nic)
    src, _ = lo.buffer(64)
    dst, dst_mr = lo.buffer(64)
    for index in range(3):
        lo.qp_a.post_send(wr_write(src.addr, 64, dst.addr, dst_mr.rkey,
                                   signaled=True, wr_id=index))

    def run():
        yield lo.sim.timeout(300_000)

    lo.run(run())
    trace, journal = tmp_path / "t.json", tmp_path / "j.jsonl"
    tracer.export_chrome(trace)
    recorder.dump(journal)
    tracer.close()
    recorder.close()
    telemetry = tmp_path / "telemetry.jsonl"
    telemetry.write_text(json.dumps({
        "window": 0, "shard": 0, "bed": "bed0", "start_ns": 0,
        "end_ns": 20_000, "requests": 0}) + "\n")
    truncated = tmp_path / "truncated.json"
    truncated.write_text(trace.read_text()[:200])
    paths = {"trace": str(trace), "journal": str(journal),
             "telemetry": str(telemetry), "truncated": str(truncated),
             "wq": lo.qp_a.send_wq.name}
    for kind in ("post", "fetch"):
        # The journal with its first ``kind`` record's WQE image made
        # non-hex.
        lines = journal.read_text().splitlines()
        index = next(i for i, line in enumerate(lines)
                     if json.loads(line)["kind"] == kind)
        record = json.loads(lines[index])
        record["wqe"] = "zz" + record["wqe"][2:]
        lines[index] = json.dumps(record, sort_keys=True)
        path = tmp_path / f"nonhex_{kind}.jsonl"
        path.write_text("\n".join(lines) + "\n")
        paths[f"nonhex_{kind}"] = str(path)
    return paths


@pytest.mark.parametrize("argv, bad", [
    (["profile", "{journal}"], "journal"),
    (["diff", "{trace}", "{journal}"], "trace"),
    (["diff", "{journal}", "{trace}"], "trace"),
    (["inspect", "{telemetry}"], "telemetry"),
    (["inspect", "{truncated}"], "truncated"),
    (["inspect", "{journal}.missing"], None),
    (["diff", "{journal}", "{nonhex_post}"], "nonhex_post"),
    (["diff", "{nonhex_fetch}", "{journal}"], "nonhex_fetch"),
], ids=["journal-to-profile", "trace-to-diff-a", "trace-to-diff-b",
        "telemetry-to-inspect", "truncated-to-inspect", "missing-file",
        "nonhex-post-wqe-to-diff", "nonhex-fetch-wqe-to-diff"])
def test_wrong_input_is_one_error_line(recordings, argv, bad):
    result = run_tool(*[arg.format(**recordings) for arg in argv])
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    path = recordings[bad] if bad else recordings["journal"] + ".missing"
    assert lines[0].startswith(f"error: {path}: ")


def test_inspect_journal_prints_its_summary(recordings):
    result = run_tool("inspect", recordings["journal"])
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("journal j: ")
    assert "records by track:" in result.stdout
    assert "invariants: ok" in result.stdout
    timeline = run_tool("inspect", recordings["journal"], "--timeline",
                        recordings["wq"], "--json")
    assert timeline.returncode == 0, timeline.stderr
    records = json.loads(timeline.stdout)
    assert [r["wr"] for r in records if r["kind"] == "post"] == [0, 1, 2]
    assert all(r["wq"] == recordings["wq"] for r in records)


def test_inspect_journal_rejects_trace_only_flags(recordings):
    result = run_tool("inspect", recordings["journal"], "--races")
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: {recordings['journal']}: ")
