#!/usr/bin/env python
"""Soak: a long ``offload_chains`` run must keep the server flat.

Every early-break list call runs on a one-shot queue set (worker,
branch and control queues plus break images) that ``finish_request``
hands back to the lane's pool for reuse: no call may create queues or
memory once the pool's sets exist. This drives the repo benchmark's
``offload_chains`` workload (``perfbench/workloads.py``, imported
unmodified) for 1,000 calls and then for 20,000 and fails unless:

* no call failed;
* after the long run, the server's DRAM high-water mark, its NIC's
  highest WQ and CQ numbers and its count of live work queues all
  equal the 1,000-call run's (numbers are never reused, so a call
  that created queues would run the 16-bit WAIT/ENABLE target space
  out);
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
    """(failed calls, server footprint) of one run."""
    workload = OffloadChains(SEED, calls=calls)
    result = workload.run()
    server = workload.bed.server
    nic = server.nic
    return result.failed, {
        "dram_high_water": server.memory.high_water,
        "max_wq_num": max(nic.wqs),
        "max_cq_num": max(nic.cqs),
        "wqs": len(nic.wqs),
    }


def main() -> int:
    base_failed, base = _run(BASELINE_CALLS)
    failed, soak = _run(SOAK_CALLS)
    # ru_maxrss is in KiB on Linux.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for calls, fails, footprint in ((BASELINE_CALLS, base_failed, base),
                                    (SOAK_CALLS, failed, soak)):
        print(f"{calls} calls: failed={fails} " + " ".join(
            f"{name}={value}" for name, value in footprint.items()))
    print(f"peak RSS {rss_mb:.1f} MB (limit {MAX_RSS_MB})")
    problems = []
    if base_failed or failed:
        problems.append("some offload calls failed")
    for name, value in base.items():
        if soak[name] != value:
            problems.append(f"{name} grew: {value} -> {soak[name]}")
    if rss_mb > MAX_RSS_MB:
        problems.append(f"peak RSS {rss_mb:.1f} MB > {MAX_RSS_MB}")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
