#!/usr/bin/env python
"""Perf gate over the saved output of one ``perfbench`` trace run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload all --seed 1 --trace 1 | tee trace.txt
    python tools/perf_gate.py trace.txt

The run's standard output is checked against ``ci/perf_gate.json``:

* the run's own checks passed (``correct``, no failed operation);
* ``kv_fleet_observed.obs.cost_x``, what attaching every obs sink
  costs, is at most ``obs_cost_x_max``;
* every per-layer metric that ``BENCHMARK.json`` declares with unit
  ``count`` or ``sim_ns`` equals its entry in ``pins``. These are exact
  work counts, so the one that moves names the layer a change touched.
  On a mismatch the gate prints each moved metric, then the whole
  replacement ``pins`` block; a change that moves them on purpose
  commits that block, and ``git log -p ci/perf_gate.json`` is the
  trajectory;
* each workload in ``host_cost_max`` costs at most its ceiling. Host
  cost is the untraced run time (``sim.host_ns_per_event`` times
  ``sim.events``) in units of the run's ``calibration:`` loop, so it
  compares across machines of different speed.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
run output or the gate file cannot be read.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
GATE_PATH = REPO_ROOT / "ci" / "perf_gate.json"
MANIFEST_PATH = REPO_ROOT / "BENCHMARK.json"

#: Units of the exact, deterministic per-layer metrics that are pinned.
PINNED_UNITS = ("count", "sim_ns")
OBS_COST = "kv_fleet_observed.obs.cost_x"


def pinned_names(manifest: dict) -> List[str]:
    """The per-layer metrics ``pins`` must cover, in manifest order."""
    return [metric["name"] for metric in manifest["per_layer"]
            if metric["unit"] in PINNED_UNITS]


def parse_run(text: str) -> Tuple[float, dict]:
    """``(calibration_s, report)`` from one run's standard output."""
    calibration = None
    for line in text.splitlines():
        if line.startswith("calibration: "):
            calibration = float(line.split()[1])
    lines = text.strip().splitlines()
    if calibration is None or not lines:
        raise ValueError("no 'calibration:' line or no report line")
    report = json.loads(lines[-1])
    if not isinstance(report, dict) or "metrics" not in report:
        raise ValueError("the last line is not perfbench's JSON report")
    return calibration, report


def check(text: str, gate: dict, manifest: dict) -> Tuple[int, List[str]]:
    """Gate one run; returns ``(exit status, report lines)``."""
    calibration, report = parse_run(text)
    values = {name: entry["value"]
              for name, entry in report["metrics"].items()}
    failures, lines = [], []

    if not report.get("correct") or report.get("failed"):
        failures.append(f"run checks failed: correct={report.get('correct')}"
                        f", {report.get('failed')} failed operation(s)")

    cost_max = gate["obs_cost_x_max"]
    cost = values.get(OBS_COST)
    if cost is None or cost > cost_max:
        failures.append(f"{OBS_COST} = {cost} (ceiling {cost_max})")
    else:
        lines.append(f"ok {OBS_COST} = {cost:.2f} (ceiling {cost_max})")

    pins = gate["pins"]
    expected = pinned_names(manifest)
    problems, moved = [], False
    for name in expected:
        if name not in pins:
            problems.append(f"unpinned {name}: BENCHMARK.json declares "
                            f"it, ci/perf_gate.json has no pin")
        elif name not in values:
            problems.append(f"missing {name}: pinned {pins[name]!r}, "
                            f"absent from the run")
        elif values[name] != pins[name]:
            moved = True
            problems.append(f"moved {name}: pinned {pins[name]!r}, "
                            f"now {values[name]!r}")
    if moved:
        current = {name: values[name] for name in expected
                   if name in values}
        problems.append("replacement block for ci/perf_gate.json:\n"
                        + json.dumps({"pins": current}, indent=2))
    if problems:
        failures.extend(problems)
    else:
        lines.append(f"ok {len(pins)} pinned counts unchanged")

    for workload, ceiling in gate["host_cost_max"].items():
        per_event = values.get(f"{workload}.sim.host_ns_per_event")
        events = values.get(f"{workload}.sim.events")
        if per_event is None or events is None:
            failures.append(f"host cost {workload}: the run lacks its "
                            f"sim.host_ns_per_event or sim.events")
            continue
        cost = per_event * events / 1e9 / calibration
        verdict = f"host cost {workload} = {cost:.1f} (ceiling {ceiling})"
        if cost > ceiling:
            failures.append(verdict)
        else:
            lines.append(f"ok {verdict}")

    lines.extend(f"FAIL {failure}" for failure in failures)
    return (1 if failures else 0), lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: perf_gate.py PERFBENCH_TRACE_OUTPUT", file=sys.stderr)
        return 2
    try:
        text = Path(argv[0]).read_text()
        gate = json.loads(GATE_PATH.read_text())
        manifest = json.loads(MANIFEST_PATH.read_text())
        status, lines = check(text, gate, manifest)
    except (OSError, ValueError, KeyError) as exc:
        print(f"perf_gate: cannot read input: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
