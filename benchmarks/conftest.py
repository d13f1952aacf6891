"""Benchmark-suite options: ``--trace-out``, ``--breakdown``,
``--journal`` and ``--telemetry``.

Running any benchmark with ``--trace-out OUT.json`` attaches a
:class:`repro.obs.Tracer` to every :class:`Testbed` the benchmark
builds and writes one merged Chrome trace-event JSON at session end —
load it at https://ui.perfetto.dev or feed it to
``tools/trace.py inspect``. (The bare ``--trace`` spelling is taken by
pytest's built-in debugger hook.)

``--breakdown [OUT.json]`` (default ``BENCH_breakdown.json``)
additionally runs the critical-path profiler over every recorded
request window (offload ``call:`` spans and the ``mark_request``
samples benchmarks emit) and writes the per-phase latency
attributions — what CI gates per-component regressions on.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import _common  # noqa: E402


def pytest_addoption(parser):
    parser.addoption(
        "--trace-out", default=None, metavar="OUT.json",
        help="record a Chrome/Perfetto trace of every simulated NIC "
             "to this file")
    parser.addoption(
        "--breakdown", nargs="?", const="BENCH_breakdown.json",
        default=None, metavar="OUT.json",
        help="write per-request critical-path phase attributions "
             "(default BENCH_breakdown.json)")
    parser.addoption(
        "--journal", default=None, metavar="OUT.jsonl",
        help="record a flight-recorder journal of every simulated "
             "NIC to this file (see tools/trace.py diff)")
    parser.addoption(
        "--telemetry", default=None, metavar="OUT.jsonl",
        help="record windowed fleet telemetry of every simulated bed "
             "to this JSONL file (see tools/fleet.py top --input)")


def pytest_configure(config):
    path = config.getoption("--trace-out", default=None)
    if path:
        _common.set_trace_output(path)
    breakdown = config.getoption("--breakdown", default=None)
    if breakdown:
        _common.set_breakdown_output(breakdown)
    journal = config.getoption("--journal", default=None)
    if journal:
        _common.set_journal_output(journal)
    telemetry = config.getoption("--telemetry", default=None)
    if telemetry:
        _common.set_telemetry_output(telemetry)


def pytest_unconfigure(config):
    _common.flush_trace()
