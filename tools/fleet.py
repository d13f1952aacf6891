#!/usr/bin/env python3
"""fleet: drive, render and gate a fleet telemetry stream.

One CLI over the telemetry JSONL stream (:mod:`repro.obs.telemetry`),
one window record per (window, bed), with three subcommands.

``top`` drives the sharded KV fleet (``fleet_simspeed``) with the
telemetry plane attached, or reads an exported stream (``--input``),
and renders a top-style per-bed table: requests, tail latency, QP-pool
wait, PU utilization, queue peaks, hot keys. ``--slo`` adds SLO
burn-rate alerting::

    PYTHONPATH=src python tools/fleet.py top                    # table
    PYTHONPATH=src python tools/fleet.py top --jsonl out.jsonl  # raw stream
    PYTHONPATH=src python tools/fleet.py top --json -           # summary
    PYTHONPATH=src python tools/fleet.py top \\
        --slo ci/fleet_slo.json --fail-on-burn                  # CI gate
    PYTHONPATH=src python tools/fleet.py top --input run.jsonl  # offline

``blame`` drives the KV fleet with tail exemplar capture on (each
window keeps the K slowest requests' blame breakdowns, see
:mod:`repro.obs.blame`), or reads a stream exported with exemplars,
and rolls the exemplars up into the per-(shard, queue, phase) table
that answers "which queue on which shard causes the tail"::

    PYTHONPATH=src python tools/fleet.py blame                  # table
    PYTHONPATH=src python tools/fleet.py blame --json - --flame out.folded
    PYTHONPATH=src python tools/fleet.py blame \\
        --fail-if pool_wait\\>2500                               # CI gate
    PYTHONPATH=src python tools/fleet.py blame \\
        --budgets ci/fleet_blame.json                           # CI gate
    PYTHONPATH=src python tools/fleet.py blame --diff base.json # regression
    PYTHONPATH=src python tools/fleet.py blame \\
        --input run.jsonl --openmetrics blame.prom              # export

Budget gates compare each phase's **mean blame ns per tail exemplar**
(the ``mean_ns`` field of the ``--json`` summary) against the budget.
``--diff`` takes a previous ``--json`` summary and attributes the p99
delta to the phase and shard means that moved. ``--openmetrics``
writes the rollup as (phase, shard)-labeled counters, one labeled
registry per shard.

``triage storm|failover|clean`` runs one of the deterministic fault
scenarios from :mod:`repro.bench.faults` (a CPU-contention storm on
the hot shard, fig15 generalized; a shard kill with HashRing
rebalancing, fig16 generalized; or no fault) with the
:class:`~repro.obs.sentry.FleetSentry` attached, and renders the
incident report. Every injected fault is matched against the detected
incidents (:func:`~repro.obs.sentry.triage_verdict`): a fault no
incident explains is *missed*, an incident no fault explains is a
*false positive*::

    PYTHONPATH=src python tools/fleet.py triage storm           # table
    PYTHONPATH=src python tools/fleet.py triage failover --timeline
    PYTHONPATH=src python tools/fleet.py triage storm --json - --flame -
    PYTHONPATH=src python tools/fleet.py triage clean \\
        --fail-on-false-positive                                # CI gate

Every number is simulated time, so each output is byte-identical
between the sharded and serial drives (``--serial`` to check) and from
run to run. Every FILE output takes ``-`` for stdout.

Exit codes: 0 ok; 1 a gate tripped (``--fail-on-burn``,
``--fail-if``/``--budgets``, ``--expect-incidents``,
``--fail-on-unexplained``, ``--fail-on-false-positive``); 2 bad input
or a failed scenario.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

#: Keys every line of a telemetry stream carries.
RECORD_KEYS = ("window", "shard", "bed", "start_ns", "end_ns")


class CliError(Exception):
    """Bad input or a failed scenario; reported on stderr, exit 2."""


# -- shared pieces ------------------------------------------------------------


def load_stream(path: str) -> list:
    """Read a telemetry JSONL stream; every line must be a window record
    whose histogram snapshots fit the power-of-two layout."""
    from repro.obs.metrics import Histogram, HistogramLayoutError

    records = []
    try:
        with open(path) as handle:
            for lineno, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise CliError(f"{path}:{lineno}: not JSON: {exc}")
                missing = ([key for key in RECORD_KEYS if key not in record]
                           if isinstance(record, dict) else RECORD_KEYS)
                if missing:
                    raise CliError(
                        f"{path}:{lineno}: not a telemetry window record "
                        f"(missing {', '.join(missing)})")
                for field in ("latency", "pool_wait"):
                    if record.get(field):
                        try:
                            Histogram.from_snapshot(record[field], field)
                        except HistogramLayoutError as exc:
                            raise CliError(f"{path}:{lineno}: {exc}")
                records.append(record)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    if not records:
        raise CliError(f"{path} holds no telemetry records")
    return records


def write(dest: str, text: str) -> None:
    """Write ``text`` to the file ``dest``, or to stdout for ``-``."""
    if dest == "-":
        sys.stdout.write(text)
    else:
        Path(dest).write_text(text)
        print(f"wrote {len(text.splitlines())} lines to {dest}",
              file=sys.stderr)


@contextmanager
def scenario_errors(label: str):
    """Turn a failed scenario run into a :class:`CliError`."""
    from repro.bench.fleet import FleetError

    try:
        yield
    except FleetError as exc:
        # Typed fleet failure: name the implicated beds and dead
        # simulated processes instead of a bare traceback.
        beds = "".join(f"\n  bed {bed}: {process}"
                       for bed, process in zip(exc.beds, exc.processes))
        raise CliError(f"{label} run failed: {exc}{beds}") from exc
    except Exception as exc:  # scenario misconfiguration
        raise CliError(f"{label} run failed: {exc}") from exc


def sizing(args) -> dict:
    """The sizing flags given, as keywords for the fleet's factory.

    Flags left unset fall through to the factory's own defaults
    (``build_fleet``, ``run_triage``), so each scenario keeps its
    canonical sizing.
    """
    given = {"num_shards": args.beds, "clients_per_shard": args.clients,
             "requests_per_client": args.requests}
    return {key: value for key, value in given.items() if value is not None}


def drive(args):
    """Build the KV fleet, attach telemetry, run it.

    Returns ``(records, fingerprint, measures)``.
    """
    from repro.bench.fleet import build_fleet

    with scenario_errors("fleet"):
        scenario = build_fleet(**sizing(args))
        fleet = scenario.attach_telemetry(window_ns=args.window,
                                          exemplars=args.exemplars)
        fingerprint, measures = scenario.run(serial=args.serial)
    if not args.quiet:
        print(f"fleet: {fingerprint['requests']} requests, "
              f"frontier {fingerprint['frontier_ns']}ns, "
              f"{measures['rounds']} rounds "
              f"({'serial' if args.serial else 'sharded'}), "
              f"{measures['aggregate_mops']:.3f} Mops", file=sys.stderr)
    return fleet.records, fingerprint, measures


# -- top ----------------------------------------------------------------------


def render_top(records, window_ns) -> str:
    from repro.bench import render_table
    from repro.obs.telemetry import summarize_records

    summaries = summarize_records(records)
    headers = ["bed", "req", "req/us", "p50", "p99", "p999", "pw p99",
               "util%", "sq^", "cq^", "wrs", "dma KB", "hot key"]
    rows = []
    for bed in sorted(summaries):
        s = summaries[bed]
        span_ns = (s["last_window"] - s["first_window"] + 1) * window_ns
        rate = s["requests"] / span_ns * 1000 if span_ns else 0.0
        latency = s["latency"] or {}
        pool_wait = s.get("pool_wait") or {}
        hot = next(iter(s["keys"].items()), None)
        rows.append([
            bed, str(s["requests"]), f"{rate:.2f}",
            str(latency.get("p50", "-")), str(latency.get("p99", "-")),
            str(latency.get("p999", "-")),
            str(pool_wait.get("p99", "-")),
            f"{s['util'] * 100:.1f}",
            str(s["sq_depth_max"]), str(s["cq_depth_max"]),
            str(s["wrs"]), f"{s['dma_bytes'] / 1024:.0f}",
            f"{hot[0]}x{hot[1]}" if hot else "-",
        ])
    windows = 1 + max(r["window"] for r in records) \
        - min(r["window"] for r in records)
    return render_table(
        headers, rows,
        title=f"fleet_top — {len(summaries)} beds, {windows} windows "
              f"x {window_ns}ns")


def top(args) -> int:
    from repro.obs.telemetry import (evaluate_slo, load_slo_rules,
                                     summarize_records)

    rules = None
    if args.slo:
        try:
            rules = load_slo_rules(args.slo)
        except (OSError, ValueError, TypeError) as exc:
            raise CliError(f"bad SLO rules {args.slo}: {exc}")
    if args.input:
        records = load_stream(args.input)
        window_ns = records[0]["end_ns"] - records[0]["start_ns"]
    else:
        records, _, _ = drive(args)
        window_ns = args.window

    if args.jsonl:
        write(args.jsonl, "".join(json.dumps(record, sort_keys=True) + "\n"
                                  for record in records))
    if args.json:
        summaries = summarize_records(records)
        write(args.json, json.dumps(
            {"window_ns": window_ns,
             "beds": {bed: summaries[bed] for bed in sorted(summaries)}},
            indent=2, sort_keys=True) + "\n")
    if not args.quiet:
        print(render_top(records, window_ns))

    if rules is None:
        return 0
    alerts = evaluate_slo(records, rules)
    for alert in alerts:
        print(alert.describe())
    if not alerts:
        print(f"SLO: {len(rules)} rule(s) clean over "
              f"{len(records)} records")
    return 1 if alerts and args.fail_on_burn else 0


# -- blame --------------------------------------------------------------------


def load_gates(budgets=None, fail_if=()) -> dict:
    """Phase -> budget ns, from a budgets file and ``PHASE>NS`` gates.

    A budgets file is ``{"phase_mean_ns": {"pool_wait": 2500, ...}}``;
    each ``--fail-if`` gate overrides the file's entry for its phase.
    """
    from repro.obs.blame import BLAME_PHASES

    gates = {}
    try:
        if budgets:
            doc = json.loads(Path(budgets).read_text())
            if not isinstance(doc.get("phase_mean_ns"), dict):
                raise ValueError("budgets file wants a phase_mean_ns object")
            gates.update(doc["phase_mean_ns"])
        for text in fail_if:
            phase, sep, budget = text.partition(">")
            if not sep:
                raise ValueError(f"want PHASE>NS, got {text!r}")
            gates[phase] = budget
        for phase in gates:
            if phase not in BLAME_PHASES:
                raise ValueError(f"unknown blame phase {phase!r}; want "
                                 f"one of {'/'.join(BLAME_PHASES)}")
        return {phase: float(ns) for phase, ns in gates.items()}
    except (OSError, ValueError) as exc:
        raise CliError(f"bad budget: {exc}")


def render_blame(summary: dict) -> str:
    from repro.bench import render_table

    headers = ["shard", "queue", "phase", "ns", "req", "share%"]
    total = summary["exemplar_latency_sum_ns"] or 1
    rows = [[f"shard{row['shard']}", row["queue"] or "-", row["phase"],
             str(row["ns"]), str(row["requests"]),
             f"{row['ns'] / total * 100:.1f}"]
            for row in summary["table"]]
    p99 = summary["p99_ns"]
    return render_table(
        headers, rows,
        title=f"tail_blame — {summary['exemplars']} exemplars / "
              f"{summary['requests']} requests, stream p99 "
              f"{p99 if p99 is not None else '-'}ns")


def render_diff(diff: dict) -> str:
    from repro.bench import render_table

    rows = [[row["phase"], f"{row['mean_ns']:.1f}",
             f"{row['baseline_mean_ns']:.1f}",
             f"{row['delta_ns']:+.1f}"] for row in diff["phases"]]
    rows += [[f"shard {row['shard']}", f"{row['mean_ns']:.1f}",
              f"{row['baseline_mean_ns']:.1f}",
              f"{row['delta_ns']:+.1f}"] for row in diff["shards"]
             if row["delta_ns"]]
    delta = diff["p99_delta_ns"]
    title = (f"tail_blame diff — p99 {diff['p99_ns']}ns vs "
             f"{diff['baseline_p99_ns']}ns"
             + (f" ({delta:+d}ns)" if delta is not None else ""))
    return render_table(["blame", "mean ns", "baseline", "delta"],
                        rows, title=title)


def blame(args) -> int:
    from repro.obs import blame_registries, to_openmetrics_multi
    from repro.obs.blame import diff_blame, folded_blame, summarize_blame

    gates = load_gates(args.budgets, args.fail_if)
    records = load_stream(args.input) if args.input else drive(args)[0]
    summary = summarize_blame(records)
    if not summary["exemplars"]:
        raise CliError("stream holds no exemplars (run with --exemplars "
                       "K, or export one via fleet.py top "
                       "--exemplars K --jsonl)")

    if args.json:
        write(args.json, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if args.flame:
        write(args.flame, "".join(line + "\n"
                                  for line in folded_blame(records)))
    if args.openmetrics:
        write(args.openmetrics, to_openmetrics_multi(
            blame_registries(records), label="shard"))
    if not args.quiet:
        print(render_blame(summary))

    if args.diff:
        try:
            baseline = json.loads(Path(args.diff).read_text())
            diff = diff_blame(summary, baseline)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CliError(f"bad baseline {args.diff}: {exc}")
        print(render_diff(diff))

    failed = False
    for phase in sorted(gates):
        mean = summary["phases"][phase]["mean_ns"]
        over = mean > gates[phase]
        failed = failed or over
        print(f"gate {phase}: mean {mean}ns vs budget "
              f"{gates[phase]:g}ns — {'FAIL' if over else 'ok'}")
    return 1 if failed else 0


# -- triage -------------------------------------------------------------------


def render_report(run) -> str:
    from repro.bench import render_table

    report = run.report
    verdict = run.verdict
    lines = []
    drive_mode = "serial" if run.serial else "sharded"
    lines.append(
        f"{run.scenario} ({drive_mode}): {run.fingerprint['requests']} "
        f"requests, frontier {run.fingerprint['frontier_ns']}ns, "
        f"{report['records_seen']} telemetry records, "
        f"{report['anomalies_total']} anomalies, "
        f"{len(report['incidents'])} incident(s)")
    for fault in run.faults:
        cleared = (f" .. {fault['t_clear_ns']}ns"
                   if fault.get("t_clear_ns") else "")
        lines.append(
            f"fault: {fault['kind']} on {fault['bed']} at "
            f"{fault['t_inject_ns']}ns{cleared} {fault['detail']}")
    for incident in report["incidents"]:
        lines.append("")
        lines.append(
            f"incident #{incident['id']}: windows "
            f"[{incident['first_window']}, {incident['last_window']}], "
            f"opened {incident['open_at_ns']}ns, shards "
            f"{incident['shards']}")
        headers = ["rank", "detector", "shard", "queue", "phase",
                   "value", "baseline", "sev", "at ns"]
        rows = [[str(c["rank"]), c["detector"], str(c["shard"]),
                 str(c["queue"] or "-"), c["phase"], str(c["value"]),
                 str(c["baseline"]), f"{c['severity']:.2f}",
                 str(c["at_ns"])]
                for c in incident["causes"]]
        lines.append(render_table(
            headers, rows, title=f"ranked causes — incident "
                                 f"#{incident['id']}"))
        diff = incident.get("blame_diff")
        if diff and diff.get("phases"):
            top_phase = diff["phases"][0]
            lines.append(
                f"blame diff vs pre-incident baseline: p99 "
                f"{diff.get('baseline_p99_ns')} -> "
                f"{diff.get('p99_ns')}ns; biggest mover: "
                f"{top_phase['phase']} ({top_phase['delta_ns']:+}ns mean)")
        capture = incident.get("capture")
        if capture:
            lines.append(
                f"capture: {capture['records']} flight-recorder "
                f"records from {capture['bed']} over "
                f"[{capture['from_ns']}, {capture['to_ns']}]ns "
                f"{capture['kinds']}"
                + (" (truncated)" if capture["truncated"] else ""))
    lines.append("")
    for entry in verdict["explained"]:
        lines.append(
            f"explained: {entry['fault']['kind']} on shard "
            f"{entry['fault']['shard']} -> incident "
            f"#{entry['incident']} ({entry['top_cause']['detector']} / "
            f"{entry['top_cause']['phase']}) after "
            f"{entry['detection_latency_ns']}ns")
    for fault in verdict["missed"]:
        lines.append(f"MISSED: {fault['kind']} on shard "
                     f"{fault['shard']} matched no incident")
    for incident_id in verdict["false_positives"]:
        lines.append(f"FALSE POSITIVE: incident #{incident_id} "
                     f"matched no fault")
    if not run.faults and not report["incidents"]:
        lines.append("clean: no faults injected, no incidents raised")
    return "\n".join(lines)


def render_timeline(report) -> str:
    lines = []
    for incident in report["incidents"]:
        lines.append(f"incident #{incident['id']} timeline:")
        for event in incident["timeline"]:
            lines.append(f"  {event['at_ns']:>10}ns  "
                         f"{event['event']:<8} {event['detail']}")
    return "\n".join(lines) if lines else "no incidents"


def render_flame(report) -> str:
    from repro.obs.blame import folded_blame
    lines = []
    for incident in report["incidents"]:
        lines.extend(folded_blame([{"exemplars": incident["exemplars"],
                                    "shard": None}]))
    return "\n".join(lines)


def triage(args) -> int:
    from repro.bench.faults import run_triage

    with scenario_errors(args.scenario):
        run = run_triage(
            args.scenario, serial=args.serial,
            **sizing(args),
            window_ns=args.window, exemplars=args.exemplars,
            capture=not args.no_capture)

    if args.json:
        write(args.json, run.report_json)
    if args.flame:
        write(args.flame, render_flame(run.report) + "\n")
    if not args.quiet:
        print(render_report(run))
        if args.timeline:
            print()
            print(render_timeline(run.report))

    verdict = run.verdict
    failed = []
    if (args.expect_incidents is not None
            and verdict["incidents"] != args.expect_incidents):
        failed.append(f"expected {args.expect_incidents} incident(s), "
                      f"got {verdict['incidents']}")
    if args.fail_on_unexplained and verdict["missed"]:
        failed.append(f"{len(verdict['missed'])} fault(s) unexplained")
    if args.fail_on_false_positive and verdict["false_positives"]:
        failed.append(f"incident(s) {verdict['false_positives']} "
                      f"matched no fault")
    for reason in failed:
        print(f"fleet: GATE FAILED: {reason}", file=sys.stderr)
    return 1 if failed else 0


# -- CLI ----------------------------------------------------------------------


def add_run_options(parser, exemplars: int) -> None:
    """The scenario-driving and output options every subcommand takes."""
    parser.add_argument("--beds", type=int,
                        help="fleet shards (default: the scenario's "
                             "canonical sizing)")
    parser.add_argument("--clients", type=int,
                        help="clients per bed (default: canonical)")
    parser.add_argument("--requests", type=int,
                        help="requests per client (default: canonical)")
    parser.add_argument("--serial", action="store_true",
                        help="drive the serial merge instead of the "
                             "sharded synchronizer (identical output)")
    parser.add_argument("--window", type=int, metavar="NS",
                        help="telemetry window width in simulated ns "
                             "(default 20000)")
    parser.add_argument("--exemplars", type=int, default=exemplars,
                        metavar="K",
                        help="keep the K slowest requests' blame "
                             f"breakdowns per window (default "
                             f"{exemplars})")
    parser.add_argument("--json", metavar="FILE",
                        help="write the JSON summary / report")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the table (exports/gates only)")


def build_parser() -> argparse.ArgumentParser:
    from repro.bench.faults import SCENARIOS

    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="Exit codes: 0 ok; 1 a gate tripped; 2 bad input or a "
               "failed scenario.")
    commands = parser.add_subparsers(dest="command", required=True)

    top_parser = commands.add_parser(
        "top", help="per-bed table and SLO burn-rate alerts")
    top_parser.add_argument("--jsonl", metavar="FILE",
                            help="write the raw window record stream")
    top_parser.add_argument("--slo", metavar="RULES.json",
                            help="evaluate SLO burn-rate rules over the "
                                 "stream")
    top_parser.add_argument("--fail-on-burn", action="store_true",
                            help="exit 1 if any SLO burn alert fires")

    blame_parser = commands.add_parser(
        "blame", help="per-(shard, queue, phase) tail-blame rollup")
    blame_parser.add_argument("--flame", metavar="FILE",
                              help="write flamegraph folded stacks "
                                   "(shard;queue;phase ns)")
    blame_parser.add_argument("--openmetrics", metavar="FILE",
                              help="write the rollup as (phase, shard)-"
                                   "labeled OpenMetrics counters")
    blame_parser.add_argument("--diff", metavar="BASELINE.json",
                              help="attribute the p99 delta against a "
                                   "previous --json summary")
    blame_parser.add_argument("--fail-if", action="append", default=[],
                              metavar="PHASE>NS",
                              help="exit 1 if the phase's mean blame ns "
                                   "per exemplar exceeds NS (repeatable)")
    blame_parser.add_argument("--budgets", metavar="BUDGETS.json",
                              help="phase_mean_ns budgets file; each "
                                   "entry acts like a --fail-if gate")

    triage_parser = commands.add_parser(
        "triage", help="run a fault scenario and report its incidents")
    triage_parser.add_argument("scenario", choices=SCENARIOS,
                               help="fault scenario to run and triage")
    triage_parser.add_argument("--no-capture", action="store_true",
                               help="skip the per-fault flight recorders")
    triage_parser.add_argument("--timeline", action="store_true",
                               help="print per-incident event timelines")
    triage_parser.add_argument("--flame", metavar="FILE",
                               help="write incident exemplars as "
                                    "flamegraph folded stacks")
    triage_parser.add_argument("--expect-incidents", type=int,
                               metavar="N",
                               help="exit 1 unless exactly N incidents")
    triage_parser.add_argument("--fail-on-unexplained",
                               action="store_true",
                               help="exit 1 if any injected fault "
                                    "matched no incident")
    triage_parser.add_argument("--fail-on-false-positive",
                               action="store_true",
                               help="exit 1 if any incident matched no "
                                    "fault")

    for sub, exemplars in ((top_parser, 0), (blame_parser, 8),
                           (triage_parser, 4)):
        add_run_options(sub, exemplars)
    for sub in (top_parser, blame_parser):
        sub.add_argument("--input", metavar="FILE.jsonl",
                         help="read an exported telemetry stream "
                              "instead of running a scenario")
    top_parser.set_defaults(run=top)
    blame_parser.set_defaults(run=blame)
    triage_parser.set_defaults(run=triage)
    return parser


def main(argv=None) -> int:
    from repro.obs.telemetry import DEFAULT_WINDOW_NS

    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "input", None) and args.window:
        parser.error("--window only applies when running a scenario, "
                     "not with --input")
    args.window = args.window or DEFAULT_WINDOW_NS
    try:
        return args.run(args)
    except CliError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
