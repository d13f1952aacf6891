#!/usr/bin/env python3
"""trace: inspect, diff and profile the recordings of one simulated run.

A run can leave two recordings, and the format is read from the file:

* a **Chrome trace**, the tracer's trace-event JSON
  (``Tracer.export_chrome``, a benchmark's ``--trace-out``): spans,
  the self-modification race report, critical-path phases;
* a **journal**, the flight recorder's JSONL
  (``FlightRecorder.dump``, a benchmark's ``--journal``): every
  causally identified event with its WQE byte image.

``inspect FILE`` takes either format. On a Chrome trace it prints
event counts per category and track, the simulated span and the race
totals; ``--tracks`` prints per-track counts with first/last
timestamps; ``--races`` every ``self_mod`` (WQE bytes rewritten
between post and fetch: a RedN program editing itself) and
``stale_wqe`` race (rewritten between fetch and execute: the §3.1
prefetch incoherence window) with field diffs. On a journal it prints
record counts per kind and track, the checkpoint count, and the
violations found by replaying :class:`repro.obs.InvariantMonitor`
over the records. ``--timeline WQ`` lists one work queue's events in
either format::

    PYTHONPATH=src python tools/trace.py inspect fig13.json --races
    PYTHONPATH=src python tools/trace.py inspect a.jsonl

``diff A B`` takes two journals and aligns them on causal keys
(queue + WR index, CQ + completion count) rather than wall order. It
prints the earliest typed divergence (``wqe_bytes`` with chain-IR
field names, ``timing`` with the delta, ``missing``/``extra``,
``cqe_count``) and a causal slice of the events that fed it::

    PYTHONPATH=src python tools/trace.py diff a.jsonl b.jsonl --slice 4

``profile`` attributes every simulated nanosecond of each request
(each ``call:`` or ``request`` span) to exactly one phase, so the
per-phase columns sum to the end-to-end latency. It reads a Chrome
trace, or runs a built-in offload under a tracer (``--offload``)::

    PYTHONPATH=src python tools/trace.py profile fig13.json --top 5
    PYTHONPATH=src python tools/trace.py profile --offload hash-lookup \\
        --calls 8 --selfcheck --flame out.folded

``--selfcheck`` verifies exact phase sums and that measured
WAIT/ENABLE executions match the static ``chain_cost`` E-tally.
``--openmetrics FILE`` writes the simulator's metrics registry with
the per-phase histograms folded in.

Exit codes: 0 ok; 1 a gate tripped (``--fail-on-race``, a journal
invariant violation, ``--fail-on-divergence``, ``--fail-if-phase``,
``--selfcheck``); 2 bad usage or unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
for _path in (str(TOOLS.parent / "src"), str(TOOLS)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from _offload_runners import OFFLOADS, run_offload  # noqa: E402
from repro.obs import PHASES  # noqa: E402
from repro.obs.inspect import TraceData  # noqa: E402
from repro.obs.recorder import (  # noqa: E402
    Journal, JournalError, load_journal)

TRACE = "Chrome trace"
JOURNAL = "flight-recorder journal"


class CliError(Exception):
    """Bad usage or unreadable input; reported on stderr, exit 2."""


def load(path: str, want=(TRACE, JOURNAL)):
    """The Chrome trace or journal at ``path``, by its content."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise CliError(f"{path}: not a text file")
    try:
        head = json.loads(text)
    except ValueError as exc:
        try:  # a journal is JSONL: its first line is the meta record
            head = json.loads(text.partition("\n")[0])
        except ValueError:
            raise CliError(f"{path}: not JSON ({exc})")
    if isinstance(head, dict) and isinstance(head.get("traceEvents"), list):
        found = TRACE
    elif isinstance(head, dict) and head.get("kind") == "meta":
        found = JOURNAL
    else:
        raise CliError(f"{path}: neither a {TRACE} nor a {JOURNAL}")
    if found not in want:
        raise CliError(f"{path}: is a {found}, not a {want[0]}")
    if found == TRACE:
        return TraceData(head)
    try:
        return load_journal(text.splitlines())
    except JournalError as exc:
        raise CliError(f"{path}: {exc}")


# -- inspect ------------------------------------------------------------------


def journal_track(record: dict) -> str:
    """The track a journal record belongs to, from its own fields."""
    kind = record["kind"]
    if "wq" in record:
        return f"wq:{record['wq']}"
    if kind == "cqe":
        return f"cq:{record.get('cq', '?')}"
    if kind == "atomic":
        return f"{record.get('nic', '?')}/atomics"
    if kind == "store":
        return f"{record.get('mem', '?')}/stores"
    return kind


def summarize_journal(journal: Journal) -> dict:
    """Counts per kind and per track, span, checkpoints, violations."""
    from repro.obs import InvariantMonitor

    monitor = InvariantMonitor()
    kinds: dict = {}
    tracks: dict = {}
    for record in journal.records:
        kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
        track = journal_track(record)
        tracks[track] = tracks.get(track, 0) + 1
        monitor.observe(record)
    timestamps = [record["ts"] for record in journal.records]
    return {
        "name": journal.meta.get("name", "?"),
        "beds": len(journal.metas),
        "records": len(journal.records),
        "evicted": journal.first_seq,
        "span_ns": [min(timestamps), max(timestamps)] if timestamps
        else [0, 0],
        "checkpoints": len(journal.checkpoints),
        "kinds": dict(sorted(kinds.items())),
        "tracks": dict(sorted(tracks.items())),
        "violations": monitor.violations,
    }


def render_journal_summary(summary: dict) -> str:
    lines = [f"journal {summary['name']}: {summary['records']} records"
             f" ({summary['evicted']} evicted), "
             f"{summary['checkpoints']} checkpoint(s), "
             f"{summary['beds']} bed(s), sim span "
             f"{summary['span_ns'][0]}..{summary['span_ns'][1]} ns"]
    lines.append("records by kind:")
    for kind, count in summary["kinds"].items():
        lines.append(f"  {kind:10s} {count:>8d}")
    lines.append("records by track:")
    for track, count in summary["tracks"].items():
        lines.append(f"  {track:28s} {count:>8d}")
    if summary["violations"]:
        lines.append(f"INVARIANT VIOLATIONS ({len(summary['violations'])}):")
        for violation in summary["violations"]:
            lines.append(f"  [{violation['name']}] seq "
                         f"{violation['seq']}: {violation['detail']}")
    else:
        lines.append("invariants: ok")
    return "\n".join(lines)


def inspect_journal(args, journal: Journal) -> int:
    if args.tracks or args.races or args.fail_on_race:
        raise CliError(f"{args.file}: --tracks, --races and --fail-on-race "
                       f"need a {TRACE}")
    if args.timeline:
        records = [record for record in journal.records
                   if journal_track(record) == f"wq:{args.timeline}"]
        if args.json:
            print(json.dumps(records, indent=2))
        else:
            for record in records:
                fields = " ".join(
                    f"{key}={value}" for key, value in record.items()
                    if key not in ("kind", "ts", "wq"))
                print(f"{record['ts']:>12d} ns  {record['kind']:9s}"
                      f" {fields}")
        return 0
    summary = summarize_journal(journal)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(render_journal_summary(summary))
    return 1 if summary["violations"] else 0


def inspect(args) -> int:
    from repro.obs.inspect import (
        race_report,
        render_races,
        render_summary,
        render_timeline,
        render_track_summary,
        summarize_trace,
        track_summary,
        wq_timeline,
    )

    data = load(args.file)
    if isinstance(data, Journal):
        return inspect_journal(args, data)
    if args.timeline:
        if args.json:
            print(json.dumps(wq_timeline(data, args.timeline), indent=2))
        else:
            print(render_timeline(data, args.timeline))
    elif args.races:
        if args.json:
            print(json.dumps(race_report(data), indent=2))
        else:
            print(render_races(data))
    elif args.tracks:
        if args.json:
            entries = [dict(entry, names=dict(entry["names"]))
                       for entry in track_summary(data)]
            print(json.dumps(entries, indent=2))
        else:
            print(render_track_summary(data))
    elif args.json:
        print(json.dumps(summarize_trace(data), indent=2))
    else:
        print(render_summary(data))

    if args.fail_on_race:
        stale = summarize_trace(data)["races"]["stale_wqe"]
        if stale:
            print(f"\nFAIL: {stale} stale-fetch race(s) recorded",
                  file=sys.stderr)
            return 1
    return 0


# -- diff ---------------------------------------------------------------------


def diff(args) -> int:
    from repro.obs.tracediff import diff_journals, render_report

    journal_a = load(args.journal_a, (JOURNAL,))
    journal_b = load(args.journal_b, (JOURNAL,))
    report = diff_journals(journal_a, journal_b)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_report(report, journal_a, slice_depth=args.slice))
    if args.fail_on_divergence and not report.identical:
        print(f"\nFAIL: {len(report.divergences)} divergence(s) "
              f"between {args.journal_a} and {args.journal_b}",
              file=sys.stderr)
        return 1
    return 0


# -- profile ------------------------------------------------------------------


def selfcheck(profile, run) -> list:
    """Profiler invariants; returns a list of failure strings.

    * every request's phase durations sum exactly to its end-to-end
      latency (no unattributed gaps, no double counting);
    * measured ordering-verb executions (completed WAIT spans + ENABLE
      applications) are consistent with the static ``chain_cost``
      E-tally of the chain program: equal for run-to-completion
      offloads, bounded by it for early-``break`` variants, and a
      whole multiple of the per-lap tally for the recycled ring. For
      templated offloads the static tally is instance 0's times the
      instances posted (the program holds only the IR-lowered ones).
    """
    from repro.redn.passes import chain_cost

    failures = []
    if not profile.requests:
        failures.append("no requests found in trace")
    for request in profile.requests:
        phase_sum = sum(request.phases.values())
        if phase_sum != request.total_ns:
            failures.append(
                f"{request.label}@{request.start}: phases sum to "
                f"{phase_sum}ns, end-to-end is {request.total_ns}ns")
    measured = profile.counts["E"]
    relation = run["relation"]
    if "instances" in run:
        per_instance = chain_cost(run["program"],
                                  run["instance_tag"]).ordering
        static = per_instance * run["instances"]
        label = (f"{run['instances']} instances x per-instance static "
                 f"E={per_instance}")
    else:
        static = chain_cost(run["program"]).ordering
        label = f"static chain_cost E={static}"
    if relation == "exact" and measured != static:
        failures.append(f"measured E={measured} != {label}")
    elif relation == "at-most" and not 0 < measured <= static:
        failures.append(
            f"measured E={measured} not in (0, {label}] for early-break "
            f"chain")
    elif relation == "recycled":
        laps = run["offload"].laps
        if measured != laps * static:
            failures.append(
                f"measured E={measured} != {laps} laps x per-lap "
                f"static E={static}")
    return failures


def _parse_phase_bound(text: str):
    phase, sep, bound = text.partition(">")
    if not sep or phase not in PHASES:
        raise argparse.ArgumentTypeError(
            f"expected PHASE>NS with PHASE in {', '.join(PHASES)}: "
            f"{text!r}")
    try:
        return phase, int(bound)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad bound in {text!r}")


def profile(args) -> int:
    from repro.obs import Tracer, profile_trace, profile_tracer

    if bool(args.trace) == bool(args.offload):
        raise CliError("give exactly one of TRACE.json or --offload")
    if args.label and not args.openmetrics:
        raise CliError("--label needs --openmetrics")
    labels = {}
    for item in args.label:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise CliError(f"--label wants KEY=VALUE, got {item!r}")
        labels[key] = value

    run = None
    if args.offload:
        run = run_offload(
            args.offload, args.calls,
            instrument=lambda bed, label: Tracer(bed.sim, name=label))
        tracer = run["instrument"]
        if args.trace_out:
            count = tracer.export_chrome(args.trace_out)
            print(f"wrote {count} events to {args.trace_out}",
                  file=sys.stderr)
        profile = profile_tracer(tracer)
        profile.record_metrics(run["bed"].sim.metrics)
    else:
        if args.trace_out or args.openmetrics or args.selfcheck:
            raise CliError("--trace-out, --openmetrics and --selfcheck "
                           "need --offload")
        profile = profile_trace(load(args.trace, (TRACE,)))

    status = 0
    if args.selfcheck:
        failures = selfcheck(profile, run)
        for failure in failures:
            print(f"SELFCHECK FAIL: {failure}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print(f"selfcheck ok: {len(profile.requests)} request(s), "
                  f"exact phase sums, E={profile.counts['E']}",
                  file=sys.stderr)

    for phase, bound in args.fail_if_phase:
        worst = max((request.phases[phase]
                     for request in profile.requests), default=0)
        if worst > bound:
            print(f"FAIL: phase {phase} reached {worst}ns "
                  f"(bound {bound}ns)", file=sys.stderr)
            status = 1

    if args.flame:
        lines = profile.folded_lines()
        Path(args.flame).write_text("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} folded stacks to {args.flame}",
              file=sys.stderr)

    if args.openmetrics:
        text = run["bed"].sim.metrics.to_openmetrics(labels=labels or None)
        if args.openmetrics == "-":
            sys.stdout.write(text)
        else:
            Path(args.openmetrics).write_text(text)
            print(f"wrote {len(text.splitlines())} lines to "
                  f"{args.openmetrics}", file=sys.stderr)

    if args.json:
        print(profile.to_json())
    elif args.breakdown or not (args.flame or args.fail_if_phase
                                or args.selfcheck or args.openmetrics):
        print(profile.render(top=args.top, show_path=args.path))
    elif args.path:
        print(profile.render(top=args.top, show_path=True))
    return status


# -- CLI ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="Exit codes: 0 ok; 1 a gate tripped; 2 bad usage or "
               "unreadable input.")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser(
        "inspect", help="summarize a Chrome trace or a journal")
    sub.set_defaults(run=inspect)
    add = sub.add_argument
    add("file", help="Chrome trace JSON or journal JSONL")
    add("--tracks", action="store_true",
        help="print per-track event counts and first/last timestamps")
    add("--races", action="store_true",
        help="print the self-modification / stale-fetch race report")
    add("--timeline", metavar="WQ",
        help="print the event timeline of one work queue")
    add("--json", action="store_true",
        help="emit machine-readable JSON instead of text")
    add("--fail-on-race", action="store_true",
        help="exit 1 if any stale_wqe race was recorded")

    sub = commands.add_parser(
        "diff", help="first causal divergence between two journals")
    sub.set_defaults(run=diff)
    add = sub.add_argument
    add("journal_a", help="baseline journal (run A)")
    add("journal_b", help="candidate journal (run B)")
    add("--slice", type=int, default=8, metavar="N",
        help="causal-slice depth for the first divergence (default 8, "
             "0 disables)")
    add("--json", action="store_true",
        help="emit the full machine-readable report")
    add("--fail-on-divergence", action="store_true",
        help="exit 1 if the journals diverge")

    sub = commands.add_parser(
        "profile", help="per-request critical-path phase breakdown")
    sub.set_defaults(run=profile)
    add = sub.add_argument
    add("trace", nargs="?", help="Chrome trace JSON to profile")
    add("--offload", choices=sorted(OFFLOADS),
        help="run a built-in offload and profile it")
    add("--calls", type=int, default=8,
        help="offload calls to issue (default 8)")
    add("--breakdown", action="store_true",
        help="print the per-request phase table (default when nothing "
             "else is selected)")
    add("--json", action="store_true", help="emit the full profile as JSON")
    add("--flame", metavar="OUT.folded",
        help="write flamegraph folded stacks")
    add("--top", type=int, metavar="N",
        help="only show the N slowest requests")
    add("--path", action="store_true",
        help="print each request's causal critical path")
    add("--fail-if-phase", metavar="PHASE>NS", type=_parse_phase_bound,
        action="append", default=[],
        help="exit 1 if any request exceeds NS in PHASE (repeatable)")
    add("--selfcheck", action="store_true",
        help="verify exact phase sums and chain_cost E-count consistency")
    add("--trace-out", metavar="OUT.json",
        help="also export the Chrome trace (--offload only)")
    add("--openmetrics", metavar="FILE",
        help="write the simulator's metrics registry as OpenMetrics text "
             "('-' for stdout; --offload only)")
    add("--label", action="append", default=[], metavar="KEY=VALUE",
        help="constant label added to every --openmetrics sample "
             "(repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
