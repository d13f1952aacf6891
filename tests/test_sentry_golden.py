"""Golden detector stream: every sentry detector row on one fixed input.

The fault scenarios exercise only a few detectors (the storm fires
``pu_saturation``, ``tail_step`` and ``throughput_collapse``; the
failover fires ``flatline`` and ``throughput_collapse``). This stream
trips every detector and every row of the per-record table, including
the SQ-over-RQ and p99-over-p999 precedence, the strict stale-CQE step,
windows without latency samples and metrics missing from a record. The
report's sha256 is pinned, so any change to a threshold, baseline,
severity, detail string or incident grouping shows here.
"""

import hashlib

from repro.obs.sentry import DETECTORS, FleetSentry

W = 1000  # synthetic window width (ns)
SHARDS = 4
WINDOWS = 80

#: sha256 of the stream's ``report_json()``.
GOLDEN_SHA256 = (
    "a5c00ce8971437f87ecab0e1dbf77d28d0305d2c4818e9b63f87b7cf198cfbf1")


def _rec(window, shard, requests=10, sq_growth=0, rq_depth=0, util=0.2,
         p99=8191, p999=None, stale=None, pool_p99=None):
    record = {
        "window": window, "shard": shard, "bed": f"shard{shard}",
        "start_ns": window * W, "end_ns": (window + 1) * W,
        "requests": requests, "util": util,
        "queues": {"sq_growth": sq_growth, "rq_depth_max": rq_depth,
                   "sq_hot": f"shard{shard}-sq",
                   "cq_hot": f"shard{shard}-cq"},
        "latency": (None if p99 is None else
                    {"buckets": {}, "p50": p99, "p99": p99,
                     "p999": p999 or p99}),
    }
    if stale is not None:
        record["stale_cqes"] = stale
    if pool_p99 is not None:
        record["pool_wait"] = {"buckets": {}, "p99": pool_p99}
    return record


def _overrides(window, shard):
    """Per-(window, shard) deviations from a quiet 4-shard fleet."""
    spec = {}
    if (window, shard) == (10, 0):
        spec.update(sq_growth=40, rq_depth=40)   # SQ row wins over RQ
    if (window, shard) == (11, 1):
        spec.update(rq_depth=40)
    if shard == 3 and 12 <= window <= 19:
        spec.update(pool_p99=1000)               # a present baseline
    if (window, shard) == (20, 2):
        spec.update(util=0.9)
    if (window, shard) == (21, 3):
        spec.update(pool_p99=5000)
    if shard == 1 and 25 <= window <= 27:
        spec.update(p99=None)                    # no latency samples
    if shard == 0 and window in (30, 31):
        spec.update(stale=2)                     # equal step: no fire
    if (window, shard) == (31, 1):
        spec.update(p99=80_000, p999=90_000)     # p99 row wins
    if (window, shard) == (32, 2):
        spec.update(p999=90_000)                 # p999 fallback
    if (window, shard) == (33, 0):
        spec.update(stale=3)
    if shard == 3 and 33 <= window <= 38:
        spec.update(p99=None)
    if (window, shard) == (39, 3):
        spec.update(p99=80_000)                  # too few samples
    if window == 45:
        spec.update(requests=1)                  # fleet collapse
    if 50 <= window <= 53:
        spec.update(requests=0 if shard == 2 else 13 + (shard == 3))
    return spec


def _stream():
    for window in range(WINDOWS):
        for shard in range(SHARDS):
            if shard == 3 and window >= 65:
                continue                         # shard 3 goes dark
            yield _rec(window, shard, **_overrides(window, shard))


def _run():
    sentry = FleetSentry(W)
    for record in _stream():
        sentry.observe(record)
    return sentry


def test_every_detector_row_fires_where_expected():
    fired = [(a.detector, a.metric, a.shard, a.window)
             for a in _run().anomalies]
    assert fired == [
        ("queue_growth", "sq_growth", 0, 10),
        ("queue_growth", "rq_depth_max", 1, 11),
        ("pu_saturation", "util", 2, 20),
        ("pool_pressure", "pool_wait_p99_ns", 3, 21),
        ("stale_cqe", "stale_cqes", 0, 30),
        ("tail_step", "p99_ns", 1, 31),
        ("tail_step", "p999_ns", 2, 32),
        ("stale_cqe", "stale_cqes", 0, 33),
        ("throughput_collapse", "fleet_requests", 0, 45),
        ("skew_shift", "request_share", 2, 53),
        ("flatline", "requests", 3, 67),
    ]
    assert {detector for detector, *_ in fired} == set(DETECTORS)


def test_report_matches_golden_digest():
    report = _run().report_json()
    assert hashlib.sha256(report.encode()).hexdigest() == GOLDEN_SHA256
