#!/usr/bin/env python3
"""latency_profile: causal critical-path latency breakdowns.

Two input modes:

* **A recorded trace** — profile a Chrome trace-event JSON written by
  ``Tracer.export_chrome`` (or a benchmark's ``--trace-out``)::

      PYTHONPATH=src python tools/latency_profile.py TRACE.json --top 5

* **A built-in offload** — build a fresh simulated testbed, run one of
  the RedN offloads under a tracer, and profile the live events::

      PYTHONPATH=src python tools/latency_profile.py \
          --offload hash-lookup --calls 8 --breakdown --flame out.folded

Per request (each ``call:`` span) every simulated nanosecond is
attributed to exactly one phase — ``queueing``, ``fetch``,
``wait_blocked``, ``pu_exec``, ``dma``, ``wire``, ``cqe`` — so the
per-phase columns always sum to the end-to-end latency. ``--path``
additionally prints the reconstructed causal critical path.

``--fail-if-phase phase>ns`` (repeatable) exits non-zero when any
request spends more than ``ns`` in ``phase`` — a per-component
latency regression gate for CI. ``--selfcheck`` verifies the
profiler's own invariants: exact phase sums, and measured
WAIT/ENABLE execution counts consistent with the static
``chain_cost`` E-tally of the offload's chain program.

``--openmetrics FILE`` (``--offload`` mode) folds the per-phase
histograms into the simulator's MetricsRegistry and writes the whole
registry (kernel gauges, NIC and send-queue counters, histograms) as
OpenMetrics text. The export is deterministic and parses back with
``repro.obs.parse_openmetrics``::

    PYTHONPATH=src python tools/latency_profile.py \
        --offload hash-lookup --calls 4 --openmetrics metrics.prom
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.obs import PHASES  # noqa: E402

# The five offload scenarios are shared with the flight-recorder
# replay tests; see tools/_offload_runners.py.
TOOLS = REPO_ROOT / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

from _offload_runners import OFFLOADS, run_offload  # noqa: E402


# -- selfcheck ----------------------------------------------------------------


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


# -- CLI ----------------------------------------------------------------------


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trace", nargs="?",
                        help="Chrome trace JSON to profile")
    parser.add_argument("--offload", choices=sorted(OFFLOADS),
                        help="run a built-in offload and profile it")
    parser.add_argument("--calls", type=int, default=8,
                        help="offload calls to issue (default 8)")
    parser.add_argument("--breakdown", action="store_true",
                        help="print the per-request phase table "
                             "(default when nothing else is selected)")
    parser.add_argument("--json", action="store_true",
                        help="emit the full profile as JSON")
    parser.add_argument("--flame", metavar="OUT.folded",
                        help="write flamegraph folded stacks")
    parser.add_argument("--top", type=int, metavar="N",
                        help="only show the N slowest requests")
    parser.add_argument("--path", action="store_true",
                        help="print each request's causal critical path")
    parser.add_argument("--fail-if-phase", metavar="PHASE>NS",
                        type=_parse_phase_bound, action="append",
                        default=[],
                        help="exit 1 if any request exceeds NS in PHASE "
                             "(repeatable)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="verify exact phase sums and chain_cost "
                             "E-count consistency")
    parser.add_argument("--trace-out", metavar="OUT.json",
                        help="also export the Chrome trace "
                             "(--offload mode only)")
    parser.add_argument("--openmetrics", metavar="FILE",
                        help="write the simulator's metrics registry as "
                             "OpenMetrics text ('-' for stdout; "
                             "--offload mode only)")
    parser.add_argument("--label", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="constant label added to every "
                             "--openmetrics sample (repeatable; e.g. "
                             "--label bed=server-0 keeps multi-bed "
                             "exports from colliding)")
    args = parser.parse_args(argv)

    if bool(args.trace) == bool(args.offload):
        parser.error("give exactly one of TRACE.json or --offload")
    if args.label and not args.openmetrics:
        parser.error("--label needs --openmetrics")
    labels = {}
    for item in args.label:
        key, sep, value = item.partition("=")
        if not sep or not key:
            parser.error(f"--label wants KEY=VALUE, got {item!r}")
        labels[key] = value

    from repro.obs import profile_trace, profile_tracer

    run = None
    if args.offload:
        from repro.obs import Tracer
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
        if args.trace_out or args.openmetrics:
            parser.error("--trace-out and --openmetrics need --offload")
        if args.selfcheck:
            parser.error("--selfcheck needs --offload (it compares "
                         "against the built chain program)")
        profile = profile_trace(args.trace)

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


if __name__ == "__main__":
    sys.exit(main())
