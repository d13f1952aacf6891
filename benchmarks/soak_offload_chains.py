#!/usr/bin/env python
"""Soak: a long ``offload_chains`` run must keep simulated DRAM flat.

Every early-break list call creates one-shot queues and break images,
and ``finish_request`` destroys them; their memory must come back and
be reused. This drives the repo benchmark's ``offload_chains``
workload (``perfbench/workloads.py``, imported unmodified) for 1,000
calls and then for 20,000 and fails unless:

* no call failed;
* the server's DRAM high-water mark after the long run equals the
  1,000-call run's;
* the process's peak RSS stays within 64 MB.

Usage::

    PYTHONPATH=src python benchmarks/soak_offload_chains.py

Not part of the unit suite: the soak takes about a minute.
Exit status 0 on success, 1 when a check fails.
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for path in (REPO_ROOT / "src", REPO_ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from workloads import OffloadChains  # noqa: E402

SEED = 1
BASELINE_CALLS = 1000
SOAK_CALLS = 20_000
MAX_RSS_MB = 64


def _run(calls: int):
    """(failed calls, server DRAM high-water mark) of one run."""
    workload = OffloadChains(SEED, calls=calls)
    result = workload.run()
    return result.failed, workload.bed.server.memory.high_water


def main() -> int:
    base_failed, base_mark = _run(BASELINE_CALLS)
    failed, mark = _run(SOAK_CALLS)
    # ru_maxrss is in KiB on Linux.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{BASELINE_CALLS} calls: failed={base_failed} "
          f"dram_high_water={base_mark}")
    print(f"{SOAK_CALLS} calls: failed={failed} dram_high_water={mark}")
    print(f"peak RSS {rss_mb:.1f} MB (limit {MAX_RSS_MB})")
    problems = []
    if base_failed or failed:
        problems.append("some offload calls failed")
    if mark != base_mark:
        problems.append(f"DRAM high-water mark grew: {base_mark} -> {mark}")
    if rss_mb > MAX_RSS_MB:
        problems.append(f"peak RSS {rss_mb:.1f} MB > {MAX_RSS_MB}")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
