"""Fleet telemetry: windowed per-bed time-series over simulated time.

Every existing obs layer (tracer, critpath, recorder) is per-request or
per-run; this module watches a *fleet* the way real remote-memory
fabrics are watched — fixed simulated-time windows of counters, queue
depths, PU occupancy and mergeable tail-latency histograms, one record
per (window, bed) — deterministically, with zero cost when detached.

Determinism contract
--------------------

A window record is a **pure function of the bed's simulated event
stream**: hooks fire from instrumentation sites the simulated schedule
already visits, never schedule events, and never read wall-clock state.
Window boundaries are ``sim.now // window_ns`` — no timers. A window
is sealed by the bed's own first event past it, or by
:meth:`FleetTelemetry.finalize` after the run; either way no later
event can land in it. ``finalize`` emits the whole stream once, sorted
in the canonical ``(window, shard)`` order, so it is
**byte-identical** between
:meth:`~repro.sim.sharded.ShardedSimulation.run` and
:meth:`~repro.sim.sharded.ShardedSimulation.run_serial` drives of the
same scenario (tested on the KV fleet).

One subtlety: a PU busy span can straddle a window boundary. The hook
fires once, when the span *ends*, and the whole span is attributed to
the window containing its end — spans are tens of nanoseconds against
>=10 us windows, and end-attribution needs no split across windows.

On top of the stream sit derived signals (utilization, queue growth,
per-window p50/p99/p999), declarative SLO rules with multi-window
burn-rate alerts (:func:`evaluate_slo`) that fire at a deterministic
simulated timestamp and name the violating bed and queue, and hot-key
skew attribution. ``tools/fleet.py top`` renders all of it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .metrics import Histogram

__all__ = ["DEFAULT_WINDOW_NS", "TelemetryCollector", "FleetTelemetry",
           "METRICS", "SloRule", "BurnAlert", "load_slo_rules",
           "evaluate_slo", "summarize_records"]

#: Default telemetry window width. 20 us spans hundreds of NIC events
#: per busy bed and gives the ~3.1 ms KV fleet run 156 windows.
DEFAULT_WINDOW_NS = 20_000

_QUANTILES = (("p50", 0.50), ("p99", 0.99), ("p999", 0.999))


def _hot(depth_max: Dict[str, int]):
    """(peak depth, queue name) with deterministic name tie-breaking."""
    best_name, best = None, 0
    for name in sorted(depth_max):
        depth = depth_max[name]
        if depth > best:
            best, best_name = depth, name
    return best, best_name


class TelemetryCollector:
    """Per-bed windowed sampler, a sink on the bed's ``sim.probe``.

    Each ``on_<kind>`` hook rolls the window first (finalizing the
    previous one with its pre-update state) and then applies its
    update, so end-of-window gauges are consistent.
    """

    __slots__ = ("fleet", "sim", "bed", "shard", "window_ns", "finalized",
                 "_window", "_seq", "_posts", "_doorbells", "_fetches",
                 "_wrs", "_cqes", "_dma_bytes", "_requests", "_serviced",
                 "_pu_busy", "_latency", "_keys", "_depth", "_depth_wmax",
                 "_cq_wmax", "_sq_open_depth", "_run_hist", "exemplar_k",
                 "_exemplars", "_pool_wait", "_stale_cqes")

    def __init__(self, fleet: "FleetTelemetry", sim, bed: str, shard: int):
        self.fleet = fleet
        self.sim = sim
        self.bed = bed
        self.shard = shard
        self.window_ns = fleet.window_ns
        #: Tail exemplars retained per window (0 disables capture).
        self.exemplar_k = fleet.exemplars
        #: Sealed records awaiting :meth:`FleetTelemetry.finalize`.
        self.finalized: List[dict] = []
        self._window: Optional[int] = None
        self._seq = 0
        # Persistent queue depths (survive window rolls): kind ->
        # queue name -> outstanding WRs, clamped at zero because
        # recycled managed rings legitimately fetch past posted_count.
        self._depth = {"send": {}, "recv": {}}
        self._run_hist = sim.metrics.histogram("telemetry.request_ns")
        self._reset_window_state()
        self._sq_open_depth = 0

    def __repr__(self) -> str:
        return f"<TelemetryCollector {self.bed} window={self._window}>"

    def _reset_window_state(self) -> None:
        self._posts = 0
        self._doorbells = 0
        self._fetches = 0
        self._wrs = 0
        self._cqes = 0
        self._dma_bytes = 0
        self._requests = 0
        self._serviced = 0
        self._pu_busy = 0
        self._stale_cqes = 0
        self._latency = Histogram()
        self._pool_wait = Histogram()
        self._exemplars: List[dict] = []
        self._keys: Dict[str, int] = {}
        # Per-window peak depth per queue, seeded from the carried-over
        # depths so an idle-but-backlogged queue still reports its level.
        self._depth_wmax = {
            kind: dict(depths) for kind, depths in self._depth.items()}
        self._cq_wmax: Dict[str, int] = {}

    # -- windowing --------------------------------------------------------

    def _touch(self) -> None:
        window = self.sim.now // self.window_ns
        if window != self._window:
            if self._window is not None:
                self._finalize_window()
            self._window = window
            self._sq_open_depth = sum(self._depth["send"].values())

    def _finalize_window(self) -> None:
        window = self._window
        window_ns = self.window_ns
        latency = None
        if self._latency.count:
            latency = self._latency.snapshot()
            for label, fraction in _QUANTILES:
                latency[label] = self._latency.quantile(fraction)
        sq_max, sq_hot = _hot(self._depth_wmax["send"])
        rq_max, _rq_hot = _hot(self._depth_wmax["recv"])
        cq_max, cq_hot = _hot(self._cq_wmax)
        sq_end = sum(self._depth["send"].values())
        record = {
            "window": window,
            "start_ns": window * window_ns,
            "end_ns": (window + 1) * window_ns,
            "bed": self.bed,
            "shard": self.shard,
            "seq": self._seq,
            "posts": self._posts,
            "doorbells": self._doorbells,
            "fetches": self._fetches,
            "wrs": self._wrs,
            "cqes": self._cqes,
            "dma_bytes": self._dma_bytes,
            "requests": self._requests,
            "serviced": self._serviced,
            "latency": latency,
            "queues": {
                "sq_depth_max": sq_max,
                "sq_hot": sq_hot,
                "sq_depth_end": sq_end,
                "sq_growth": sq_end - self._sq_open_depth,
                "rq_depth_max": rq_max,
                "cq_depth_max": cq_max,
                "cq_hot": cq_hot,
            },
            "pu_busy_ns": self._pu_busy,
            "util": round(self._pu_busy / window_ns, 6),
        }
        if self._stale_cqes:
            # Conditional field: a healthy fleet quarantines nothing,
            # and omitting the zero keeps pre-existing streams (and
            # their byte-identity baselines) unchanged.
            record["stale_cqes"] = self._stale_cqes
        if self._keys:
            record["keys"] = dict(sorted(self._keys.items()))
        if self._pool_wait.count:
            pool_wait = self._pool_wait.snapshot()
            for label, fraction in _QUANTILES:
                pool_wait[label] = self._pool_wait.quantile(fraction)
            record["pool_wait"] = pool_wait
        if self._exemplars:
            # Top-k slowest requests of the window, deterministically:
            # larger latency first, ties by smaller (shard, seq).
            from .blame import exemplar_order
            self._exemplars.sort(key=exemplar_order)
            record["exemplars"] = self._exemplars[:self.exemplar_k]
        self._seq += 1
        self.finalized.append(record)
        self._reset_window_state()

    # -- hooks (instrumentation sites) ------------------------------------

    def _bump_depth(self, kind: str, name: str, delta: int) -> None:
        depths = self._depth[kind]
        depth = max(0, depths.get(name, 0) + delta)
        depths[name] = depth
        wmax = self._depth_wmax[kind]
        if depth > wmax.get(name, 0):
            wmax[name] = depth

    def on_post(self, wq, wr_index: int, slot_cursor: int, slots: int,
                wqe, image=None) -> None:
        self._touch()
        self._posts += 1
        self._bump_depth(wq.kind, wq.name, 1)

    def on_doorbell(self, wq, up_to: int) -> None:
        self._touch()
        self._doorbells += 1

    def on_fetch(self, wq, wr_index: int, slot_cursor: int, slots: int,
                 wqe, cache_hit: bool, image=None) -> None:
        self._touch()
        self._fetches += 1
        self._bump_depth(wq.kind, wq.name, -1)

    def on_recv_fetch(self, wq) -> None:
        self.on_fetch(wq, 0, 0, 1, None, False)

    def on_execute(self, wq, wr_index: int, wqe) -> None:
        self._touch()
        self._wrs += 1

    def on_pu(self, nic, wq, opcode: int, start_ns: int) -> None:
        self._touch()
        self._pu_busy += self.sim.now - start_ns

    def on_cqe(self, cq, cqe, host_delay_ns: int) -> None:
        self._touch()
        self._cqes += 1
        depth = len(cq._entries) + 1  # the CQE being delivered included
        if depth > self._cq_wmax.get(cq.name, 0):
            self._cq_wmax[cq.name] = depth

    def on_dma(self, nic, nbytes: int, start_ns: int) -> None:
        self._touch()
        self._dma_bytes += nbytes

    def on_pool_acquire(self, pool, start_ns: int, tag: str) -> None:
        """One QP-pool lease acquisition (a zero wait when it was free)."""
        self._touch()
        wait_ns = self.sim.now - start_ns
        self._pool_wait.observe(wait_ns)
        self.sim.metrics.histogram("telemetry.pool_wait_ns").observe(
            wait_ns)

    def on_offload_call(self, conn, start_ns: int, ok: bool,
                        byte_len: int) -> None:
        self.on_request(self.sim.now - start_ns)

    def on_request(self, latency_ns: int, key=None, blame=None) -> None:
        """A client-visible request finished with the given latency.

        ``blame`` is the request's :class:`repro.obs.blame.RequestBlame`
        context (or ``None``): with exemplar capture on, its finished
        per-phase breakdown joins the window's tail-exemplar pool —
        bounded at 4k candidates between prunes, top-k at finalize.
        """
        self._touch()
        self._requests += 1
        self._latency.observe(latency_ns)
        self._run_hist.observe(latency_ns)
        if key is not None:
            key = str(key)
            self._keys[key] = self._keys.get(key, 0) + 1
        if blame is not None and self.exemplar_k:
            self._exemplars.append(blame.finish(self.sim.now))
            if len(self._exemplars) >= 4 * self.exemplar_k:
                from .blame import exemplar_order
                self._exemplars.sort(key=exemplar_order)
                del self._exemplars[self.exemplar_k:]

    def on_cqe_demux(self, cq, cqe, stale: bool) -> None:
        """Counts the CQEs the shared-CQ demux quarantined as stale."""
        if stale:
            self._touch()
            self._stale_cqes += 1

    def on_serviced(self) -> None:
        """A frontend finished servicing one inbound request."""
        self._touch()
        self._serviced += 1


class FleetTelemetry:
    """Cross-bed collector registry, merger and emitter.

    Attach one collector per bed and call :meth:`finalize` after the
    run: it seals every open window and emits the merged stream once,
    to :attr:`records` and to every :meth:`subscribe` observer.
    """

    def __init__(self, window_ns: int = DEFAULT_WINDOW_NS,
                 exemplars: int = 0):
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        if exemplars < 0:
            raise ValueError(f"exemplars must be >= 0, got {exemplars}")
        self.window_ns = window_ns
        #: Tail exemplars per (window, bed): the k slowest requests'
        #: full per-phase blame breakdowns ride each window record
        #: (see ``repro.obs.blame``); 0 keeps the stream unchanged.
        self.exemplars = exemplars
        self.records: List[dict] = []
        self.collectors: List[TelemetryCollector] = []
        self._observers: List = []

    def __repr__(self) -> str:
        return (f"<FleetTelemetry beds={len(self.collectors)} "
                f"window={self.window_ns}ns records={len(self.records)}>")

    def attach(self, sim, bed: str = "", shard: Optional[int] = None
               ) -> TelemetryCollector:
        """Admit one bed's simulator: a collector joins its probe."""
        index = len(self.collectors)
        collector = TelemetryCollector(
            self, sim, bed or f"bed{index}",
            shard if shard is not None else index)
        sim.probe.attach(collector)
        self.collectors.append(collector)
        return collector

    def subscribe(self, observer) -> None:
        """Register a callable that :meth:`finalize` invokes once with
        the whole sealed stream, in canonical ``(window, shard)`` order
        (see :class:`repro.obs.sentry.FleetSentry`)."""
        self._observers.append(observer)

    def finalize(self) -> List[dict]:
        """Seal every open window and emit the stream (end of run).

        A second call emits nothing. Returns :attr:`records`.
        """
        batch: List[dict] = []
        for collector in self.collectors:
            if collector._window is not None:
                collector._finalize_window()
                collector._window = None
            batch.extend(collector.finalized)
            collector.finalized = []
        if batch:
            batch.sort(key=lambda record: (record["window"],
                                           record["shard"]))
            self.records.extend(batch)
            for observer in self._observers:
                observer(batch)
        return self.records

    def close(self) -> None:
        """Detach every collector from its simulator's probe."""
        for collector in self.collectors:
            collector.sim.probe.detach(collector)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(record, sort_keys=True) + "\n"
                       for record in self.records)


# -- stream post-processing -----------------------------------------------


#: Every numeric signal :func:`metric_value` can read off a window
#: record, by where it lives: the latency histogram, the QP-pool wait
#: histogram, the ``queues`` sub-dict (less the hot-queue names, which
#: are strings), and the top-level counters and gauges.
LATENCY_METRICS = ("p50_ns", "p99_ns", "p999_ns", "latency_max_ns")
POOL_WAIT_METRICS = ("pool_wait_p50_ns", "pool_wait_p99_ns",
                     "pool_wait_p999_ns", "pool_wait_max_ns")
QUEUE_METRICS = ("sq_depth_max", "sq_depth_end", "sq_growth",
                 "rq_depth_max", "cq_depth_max")
COUNTER_METRICS = ("posts", "doorbells", "fetches", "wrs", "cqes",
                   "dma_bytes", "requests", "serviced", "pu_busy_ns",
                   "util", "stale_cqes")
METRICS = LATENCY_METRICS + POOL_WAIT_METRICS + QUEUE_METRICS \
    + COUNTER_METRICS


def metric_reader(metric: str):
    """Resolve a named derived signal (one of :data:`METRICS`) to a
    ``record -> value`` reader, once per metric.

    Latency and pool-wait metrics read ``None`` for windows without
    samples; queue metrics come from the ``queues`` sub-dict; the rest
    are top-level counters or gauges (``None`` when absent).
    """
    if metric in LATENCY_METRICS or metric in POOL_WAIT_METRICS:
        part = "latency" if metric in LATENCY_METRICS else "pool_wait"
        key = metric[:-3].rpartition("_")[2]  # "p99", "max", ...
        return lambda record: (record.get(part) or {}).get(key)
    if metric in QUEUE_METRICS:
        return lambda record: record.get("queues", {}).get(metric)
    return lambda record: record.get(metric)


def metric_value(record: dict, metric: str):
    """One derived signal of one record (see :func:`metric_reader`)."""
    return metric_reader(metric)(record)


def summarize_records(records: List[dict]) -> Dict[str, dict]:
    """Whole-run per-bed rollup: the data behind the ``fleet.py top`` table.

    Latency histograms merge across windows (the associativity the
    log-bucketed representation guarantees); counters sum; depths max;
    utilization averages over the bed's active window span.
    """
    beds: Dict[str, dict] = {}
    hists: Dict[str, Histogram] = {}
    pool_hists: Dict[str, Histogram] = {}
    for record in records:
        bed = record["bed"]
        summary = beds.get(bed)
        if summary is None:
            summary = beds[bed] = {
                "bed": bed, "shard": record["shard"], "windows": 0,
                "posts": 0, "doorbells": 0, "fetches": 0, "wrs": 0,
                "cqes": 0, "dma_bytes": 0, "requests": 0, "serviced": 0,
                "pu_busy_ns": 0, "sq_depth_max": 0, "cq_depth_max": 0,
                "sq_hot": None, "keys": {}, "exemplars": 0,
                "first_window": record["window"],
                "last_window": record["window"],
            }
            hists[bed] = Histogram()
            pool_hists[bed] = Histogram()
        summary["windows"] += 1
        summary["last_window"] = record["window"]
        for field in ("posts", "doorbells", "fetches", "wrs", "cqes",
                      "dma_bytes", "requests", "serviced", "pu_busy_ns"):
            summary[field] += record[field]
        queues = record["queues"]
        if queues["sq_depth_max"] > summary["sq_depth_max"]:
            summary["sq_depth_max"] = queues["sq_depth_max"]
            summary["sq_hot"] = queues["sq_hot"]
        if queues["cq_depth_max"] > summary["cq_depth_max"]:
            summary["cq_depth_max"] = queues["cq_depth_max"]
        for key, count in record.get("keys", {}).items():
            summary["keys"][key] = summary["keys"].get(key, 0) + count
        summary["exemplars"] += len(record.get("exemplars", ()))
        if record["latency"]:
            hists[bed].merge(Histogram.from_snapshot(record["latency"]))
        if record.get("pool_wait"):
            pool_hists[bed].merge(
                Histogram.from_snapshot(record["pool_wait"]))
    for bed, summary in beds.items():
        histogram = hists[bed]
        span = summary["last_window"] - summary["first_window"] + 1
        window_ns = records[0]["end_ns"] - records[0]["start_ns"]
        summary["util"] = round(
            summary["pu_busy_ns"] / (span * window_ns), 6)
        summary["latency"] = None
        if histogram.count:
            latency = histogram.snapshot()
            for label, fraction in _QUANTILES:
                latency[label] = histogram.quantile(fraction)
            summary["latency"] = latency
        summary["pool_wait"] = None
        pool_hist = pool_hists[bed]
        if pool_hist.count:
            pool_wait = pool_hist.snapshot()
            for label, fraction in _QUANTILES:
                pool_wait[label] = pool_hist.quantile(fraction)
            summary["pool_wait"] = pool_wait
        summary["keys"] = dict(sorted(
            summary["keys"].items(),
            key=lambda item: (-item[1], item[0])))
    return beds


# -- SLO rules and burn-rate alerts ---------------------------------------


class SloRule:
    """One declarative objective over the window stream.

    A window is **bad** for a bed when the rule's metric (one of
    :data:`METRICS`, checked on construction) violates its bound
    (``max``: value above it; ``min``: value below it); windows with
    no record, or where the metric is ``None`` (e.g. p99 with no
    requests), are good. The error ``budget`` is the tolerated bad
    fraction; the rule fires when the burn rate — bad fraction divided
    by budget — is at or above ``burn_threshold`` over *both* the
    trailing long and short window spans (the SRE multi-window pattern:
    the long window proves sustained damage, the short one proves it is
    still happening).
    """

    __slots__ = ("name", "metric", "max", "min", "budget", "long_windows",
                 "short_windows", "burn_threshold", "beds")

    def __init__(self, name: str, metric: str, max: Optional[float] = None,
                 min: Optional[float] = None, budget: float = 0.1,
                 long_windows: int = 6, short_windows: int = 2,
                 burn_threshold: float = 1.0,
                 beds: Optional[List[str]] = None):
        if (max is None) == (min is None):
            raise ValueError(
                f"SLO rule {name!r}: exactly one of max/min required")
        if not 0 < budget <= 1:
            raise ValueError(f"SLO rule {name!r}: budget {budget} "
                             f"outside (0, 1]")
        if short_windows < 1 or long_windows < short_windows:
            raise ValueError(f"SLO rule {name!r}: need 1 <= short "
                             f"<= long window spans")
        if metric not in METRICS:
            # An unknown metric reads as None in every window, and None
            # is a good window: the rule could never fire.
            raise ValueError(f"SLO rule {name!r}: unknown metric "
                             f"{metric!r}; known: {', '.join(METRICS)}")
        self.name = name
        self.metric = metric
        self.max = max
        self.min = min
        self.budget = budget
        self.long_windows = long_windows
        self.short_windows = short_windows
        self.burn_threshold = burn_threshold
        self.beds = list(beds) if beds else None

    def __repr__(self) -> str:
        bound = (f"<={self.max}" if self.max is not None
                 else f">={self.min}")
        return f"<SloRule {self.name} {self.metric}{bound}>"

    def is_bad(self, value) -> bool:
        if value is None:
            return False
        if self.max is not None:
            return value > self.max
        return value < self.min

    def to_dict(self) -> dict:
        spec: Dict[str, Any] = {
            "name": self.name, "metric": self.metric,
            "budget": self.budget, "long_windows": self.long_windows,
            "short_windows": self.short_windows,
            "burn_threshold": self.burn_threshold}
        if self.max is not None:
            spec["max"] = self.max
        if self.min is not None:
            spec["min"] = self.min
        if self.beds:
            spec["beds"] = self.beds
        return spec


class BurnAlert:
    """A fired burn-rate alert, pinned to a simulated timestamp."""

    __slots__ = ("rule", "bed", "window", "at_ns", "burn_long",
                 "burn_short", "value", "queue")

    def __init__(self, rule: SloRule, bed: str, window: int, at_ns: int,
                 burn_long: float, burn_short: float, value, queue):
        self.rule = rule
        self.bed = bed
        self.window = window
        self.at_ns = at_ns
        self.burn_long = burn_long
        self.burn_short = burn_short
        self.value = value
        self.queue = queue

    def __repr__(self) -> str:
        return (f"<BurnAlert {self.rule.name} bed={self.bed} "
                f"t={self.at_ns}ns burn={self.burn_long:g}/"
                f"{self.burn_short:g}>")

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.name, "metric": self.rule.metric,
            "bed": self.bed, "window": self.window, "at_ns": self.at_ns,
            "burn_long": self.burn_long, "burn_short": self.burn_short,
            "value": self.value, "queue": self.queue,
        }

    def describe(self) -> str:
        bound = (f"> {self.rule.max:g}" if self.rule.max is not None
                 else f"< {self.rule.min:g}")
        queue = f" queue={self.queue}" if self.queue else ""
        return (f"SLO burn: rule {self.rule.name!r} "
                f"({self.rule.metric} {bound}) on {self.bed}{queue} "
                f"at t={self.at_ns}ns (window {self.window}, "
                f"burn {self.burn_long:g}x long / "
                f"{self.burn_short:g}x short, "
                f"value={self.value})")


def load_slo_rules(source) -> List[SloRule]:
    """Rules from a JSON file path, JSON text, or parsed list/dict.

    Accepts either a bare list of rule specs or ``{"rules": [...]}``.
    """
    if isinstance(source, str):
        text = source.lstrip()
        if not (text.startswith("[") or text.startswith("{")):
            with open(source) as handle:
                source = json.load(handle)
        else:
            source = json.loads(source)
    if isinstance(source, dict):
        source = source.get("rules", [])
    return [spec if isinstance(spec, SloRule) else SloRule(**spec)
            for spec in source]


def evaluate_slo(records: List[dict], rules: List[SloRule],
                 first_only: bool = True) -> List[BurnAlert]:
    """Run the burn-rate alerting policy over an emitted stream.

    Deterministic: windows are scanned in order per (rule, bed); gap
    windows count as good; the alert timestamp is the end of the
    firing window (the first simulated instant the measurement exists).
    ``first_only`` keeps only each (rule, bed)'s earliest alert.
    """
    if not records or not rules:
        return []
    first = min(record["window"] for record in records)
    last = max(record["window"] for record in records)
    window_ns = records[0]["end_ns"] - records[0]["start_ns"]
    by_bed: Dict[str, Dict[int, dict]] = {}
    for record in records:
        by_bed.setdefault(record["bed"], {})[record["window"]] = record
    alerts: List[BurnAlert] = []
    for rule in rules:
        read = metric_reader(rule.metric)
        beds = rule.beds if rule.beds else sorted(by_bed)
        for bed in beds:
            windows = by_bed.get(bed, {})
            bad_flags: List[bool] = []
            for window in range(first, last + 1):
                record = windows.get(window)
                value = read(record) if record is not None else None
                bad_flags.append(rule.is_bad(value))
                elapsed = len(bad_flags)
                long_span = min(rule.long_windows, elapsed)
                short_span = min(rule.short_windows, elapsed)
                burn_long = (sum(bad_flags[-long_span:]) / long_span
                             / rule.budget)
                burn_short = (sum(bad_flags[-short_span:]) / short_span
                              / rule.budget)
                if (burn_long >= rule.burn_threshold
                        and burn_short >= rule.burn_threshold):
                    queue = (record["queues"]["sq_hot"]
                             if record is not None else None)
                    alerts.append(BurnAlert(
                        rule, bed, window, (window + 1) * window_ns,
                        round(burn_long, 6), round(burn_short, 6),
                        value, queue))
                    if first_only:
                        break
    alerts.sort(key=lambda alert: (alert.at_ns, alert.rule.name,
                                   alert.bed))
    return alerts
