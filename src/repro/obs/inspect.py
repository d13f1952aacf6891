"""Trace analysis: summaries, per-queue timelines, race reports.

Consumes the Chrome trace-event JSON written by
:meth:`repro.obs.tracer.Tracer.export_chrome` (or the merged variant).
Shared by ``tools/trace.py inspect`` and the test suite so the CLI is a
thin argument parser around these functions.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, List, Optional

__all__ = ["TraceData", "load_trace", "summarize_trace", "race_report",
           "wq_timeline", "track_summary", "render_summary",
           "render_races", "render_timeline", "render_track_summary"]


class TraceData:
    """A parsed trace: events plus track-name metadata."""

    def __init__(self, payload: Dict[str, Any]):
        events = payload.get("traceEvents", payload) \
            if isinstance(payload, dict) else payload
        if not isinstance(events, list):
            raise ValueError("not a Chrome trace: no traceEvents array")
        self.process_names: Dict[int, str] = {}
        self.thread_names: Dict[tuple, str] = {}
        self.events: List[Dict[str, Any]] = []
        for event in events:
            phase = event.get("ph")
            if phase == "M":
                args = event.get("args", {})
                if event.get("name") == "process_name":
                    self.process_names[event["pid"]] = args.get("name", "")
                elif event.get("name") == "thread_name":
                    self.thread_names[(event["pid"], event["tid"])] = \
                        args.get("name", "")
            else:
                self.events.append(event)

    def track_name(self, event: Dict[str, Any]) -> str:
        pid, tid = event.get("pid"), event.get("tid")
        process = self.process_names.get(pid, f"pid{pid}")
        thread = self.thread_names.get((pid, tid), f"tid{tid}")
        return f"{process}/{thread}"


def load_trace(source) -> TraceData:
    """Parse a trace from a path, file object, JSON string or dict."""
    if isinstance(source, (dict, list)):
        return TraceData(source)
    if isinstance(source, str) and source.lstrip().startswith(("{", "[")):
        return TraceData(json.loads(source))
    if hasattr(source, "read"):
        return TraceData(json.load(source))
    with open(source) as handle:
        return TraceData(json.load(handle))


def summarize_trace(data: TraceData) -> Dict[str, Any]:
    """Aggregate counts: per category, per track, race totals, span.

    Connection-plane spans (category ``conn``: pool lease waits,
    doorbell batch holds, shared-CQ demux) and cross-shard fabric hops
    (category ``link``, one track per directed shard pair) get their
    own census — ``conn`` and ``links`` — so a fleet trace summary
    answers "did the connection plane record anything" directly.
    """
    by_category: Counter = Counter()
    by_name: Counter = Counter()
    by_track: Counter = Counter()
    races = {"self_mod": 0, "stale_wqe": 0}
    conn = {"pool_wait": 0, "doorbell_batch": 0, "cqe_demux": 0,
            "cqe_demux_stale": 0}
    links: Counter = Counter()
    first_ts: Optional[float] = None
    last_ts = 0.0
    for event in data.events:
        category = event.get("cat", "?")
        name = event.get("name")
        by_category[category] += 1
        by_name[name or "?"] += 1
        by_track[data.track_name(event)] += 1
        if category == "race" and name in races:
            races[name] += 1
        elif category == "conn" and name:
            if name == "pool_wait":
                conn["pool_wait"] += 1
            elif name.startswith("batch["):
                conn["doorbell_batch"] += 1
            elif name == "demux":
                conn["cqe_demux"] += 1
            elif name == "demux:stale":
                conn["cqe_demux_stale"] += 1
        elif category == "link":
            links[data.track_name(event)] += 1
        ts = event.get("ts")
        if ts is not None:
            end = ts + event.get("dur", 0)
            first_ts = ts if first_ts is None else min(first_ts, ts)
            last_ts = max(last_ts, end)
    return {
        "events": len(data.events),
        "span_us": round((last_ts - (first_ts or 0)), 3),
        "categories": dict(sorted(by_category.items())),
        "top_names": by_name.most_common(12),
        "tracks": dict(sorted(by_track.items())),
        "races": races,
        "conn": conn,
        "links": dict(sorted(links.items())),
    }


def track_summary(data: TraceData) -> List[Dict[str, Any]]:
    """Per-track event counts and first/last timestamps.

    One entry per track that carries events, sorted by track name —
    enough to sanity-check a trace without opening Perfetto: did every
    expected queue/PU/port track record anything, and when?
    """
    tracks: Dict[str, Dict[str, Any]] = {}
    for event in data.events:
        name = data.track_name(event)
        entry = tracks.get(name)
        if entry is None:
            entry = tracks[name] = {
                "track": name, "events": 0,
                "first_us": None, "last_us": None,
                "names": Counter(),
            }
        entry["events"] += 1
        entry["names"][event.get("name", "?")] += 1
        ts = event.get("ts")
        if ts is not None:
            end = ts + event.get("dur", 0)
            if entry["first_us"] is None or ts < entry["first_us"]:
                entry["first_us"] = ts
            if entry["last_us"] is None or end > entry["last_us"]:
                entry["last_us"] = end
    return [tracks[name] for name in sorted(tracks)]


def race_report(data: TraceData) -> List[Dict[str, Any]]:
    """Every self_mod / stale_wqe event, normalized and time-ordered."""
    report = []
    for event in data.events:
        if event.get("cat") != "race":
            continue
        args = event.get("args", {})
        report.append({
            "kind": event.get("name"),
            "ts_us": event.get("ts"),
            "wq": args.get("wq"),
            "wr_index": args.get("wr_index"),
            "window_ns": args.get("window_ns"),
            "changed": args.get("changed", []),
        })
    report.sort(key=lambda entry: (entry["ts_us"], entry["wq"] or ""))
    return report


def wq_timeline(data: TraceData, wq_name: str) -> List[Dict[str, Any]]:
    """Chronological events on one work queue's track (by name)."""
    wanted = {f"wq:{wq_name}", wq_name}
    timeline = []
    for event in data.events:
        track = data.thread_names.get(
            (event.get("pid"), event.get("tid")), "")
        in_track = track in wanted
        about = event.get("args", {}).get("wq") == wq_name
        if in_track or about:
            timeline.append(event)
    timeline.sort(key=lambda event: (event.get("ts", 0),
                                     event.get("name", "")))
    return timeline


# -- text rendering (CLI output) -----------------------------------------


def render_summary(data: TraceData) -> str:
    summary = summarize_trace(data)
    lines = [
        f"events: {summary['events']}   "
        f"span: {summary['span_us']:.1f} us",
        "",
        "by category:",
    ]
    for category, count in summary["categories"].items():
        lines.append(f"  {category:10s} {count:8d}")
    lines.append("")
    lines.append("busiest tracks:")
    busiest = sorted(summary["tracks"].items(), key=lambda kv: -kv[1])
    for track, count in busiest[:10]:
        lines.append(f"  {track:40s} {count:8d}")
    races = summary["races"]
    lines.append("")
    lines.append(f"self-modification events: {races['self_mod']}   "
                 f"stale-fetch races: {races['stale_wqe']}")
    conn = summary["conn"]
    if any(conn.values()):
        lines.append("")
        lines.append(
            f"connection plane: {conn['pool_wait']} pool waits, "
            f"{conn['doorbell_batch']} doorbell batches, "
            f"{conn['cqe_demux']} CQE demuxes "
            f"({conn['cqe_demux_stale']} stale)")
    if summary["links"]:
        lines.append("")
        lines.append("cross-shard links:")
        for track, count in summary["links"].items():
            lines.append(f"  {track:40s} {count:8d}")
    return "\n".join(lines)


def render_track_summary(data: TraceData) -> str:
    summary = track_summary(data)
    if not summary:
        return "trace carries no events"
    lines = [f"{'track':44s} {'events':>8s} {'first_us':>12s} "
             f"{'last_us':>12s}  busiest"]
    for entry in summary:
        first = (f"{entry['first_us']:.3f}"
                 if entry["first_us"] is not None else "-")
        last = (f"{entry['last_us']:.3f}"
                if entry["last_us"] is not None else "-")
        name, count = entry["names"].most_common(1)[0]
        lines.append(f"{entry['track']:44s} {entry['events']:>8d} "
                     f"{first:>12s} {last:>12s}  {name} x{count}")
    return "\n".join(lines)


def render_races(data: TraceData) -> str:
    report = race_report(data)
    if not report:
        return ("no self-modification or stale-fetch events — every WQE "
                "executed exactly the bytes the host posted")
    lines = [f"{len(report)} race-inspector event(s):", ""]
    for entry in report:
        head = (f"[{entry['ts_us']:12.3f} us] {entry['kind']:9s} "
                f"wq={entry['wq']} wr={entry['wr_index']}")
        if entry["window_ns"] is not None:
            head += f" window={entry['window_ns']}ns"
        lines.append(head)
        for change in entry["changed"]:
            lines.append(f"    {change}")
    return "\n".join(lines)


def render_timeline(data: TraceData, wq_name: str) -> str:
    timeline = wq_timeline(data, wq_name)
    if not timeline:
        return f"no events recorded for work queue {wq_name!r}"
    lines = [f"{len(timeline)} event(s) on wq {wq_name!r}:", ""]
    for event in timeline:
        dur = event.get("dur")
        dur_text = f" +{dur:.3f}us" if dur else ""
        args = event.get("args", {})
        detail = " ".join(f"{key}={value}" for key, value in args.items()
                          if key != "changed")
        lines.append(f"[{event.get('ts', 0):12.3f} us]{dur_text:12s} "
                     f"{event.get('name'):20s} {detail}")
        for change in args.get("changed", []):
            lines.append(f"{'':28s}    {change}")
    return "\n".join(lines)
