"""Named counters, gauges and sim-time histograms with one snapshot API.

The registry replaces the ad-hoc stats dicts that used to live on the
kernel, the RNIC and every send-queue driver. Producers register once
and keep bumping plain :class:`collections.Counter` objects (so the hot
paths pay exactly what they paid before); consumers call
:meth:`MetricsRegistry.snapshot` and get one nested, deterministic,
JSON-serializable dict covering everything.

Conventions:

* **counters** — monotonically growing event counts. Registered under a
  dotted name (``nic.server-nic.wrs``); the returned object is a plain
  ``Counter`` so existing ``stats["WRITE"] += 1`` / ``stats.get(...)``
  call sites keep working unchanged.
* **gauges** — zero-argument callables sampled at snapshot time. The
  simulation kernel registers its counters this way so the event loop
  keeps bumping bare ints.
* **histograms** — power-of-two bucketed distributions of simulated
  durations (integer nanoseconds). Cheap enough for tracing-path use:
  one ``bit_length`` and two adds per observation.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, List

__all__ = ["MetricsRegistry", "Histogram", "HistogramLayoutError",
           "parse_openmetrics", "to_openmetrics_multi"]


class HistogramLayoutError(ValueError):
    """Two histograms (or a snapshot) disagree on bucket layout.

    Merging bucket counts positionally is only sound when both sides
    use the same power-of-two layout; silently adding mismatched
    buckets would misaggregate every downstream quantile, so the
    telemetry rollups fail loudly instead.
    """


def _om_name(name: str) -> str:
    """A registry name as an OpenMetrics metric name.

    Dots (our namespacing) and anything else outside [a-zA-Z0-9_]
    become underscores; a leading digit gets prefixed.
    """
    sanitized = "".join(ch if ch.isalnum() or ch == "_" else "_"
                        for ch in name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _om_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


class Histogram:
    """Power-of-two bucketed histogram of non-negative integers (ns)."""

    __slots__ = ("name", "counts", "count", "total", "min", "max")

    def __init__(self, name: str = ""):
        self.name = name
        # Bucket b counts observations with bit_length() == b, i.e.
        # values in [2^(b-1), 2^b); bucket 0 holds exact zeros. 64
        # buckets cover every plausible simulated duration.
        self.counts: List[int] = [0] * 64
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count}>"

    def observe(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"negative histogram sample {value}")
        self.counts[value.bit_length()] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram in place; returns self.

        Log-bucketed histograms merge by plain bucket-count addition,
        which makes the operation associative and commutative — the
        property the telemetry plane's cross-window / cross-bed
        aggregation relies on (``merge(a, b) == merge(b, a)``, tested).

        Raises :class:`HistogramLayoutError` when the two bucket
        layouts differ in width: positional addition would silently
        misaggregate.
        """
        if len(other.counts) != len(self.counts):
            raise HistogramLayoutError(
                f"cannot merge {len(other.counts)}-bucket histogram "
                f"{other.name!r} into {len(self.counts)}-bucket "
                f"{self.name!r}")
        counts = self.counts
        for bucket, bucket_count in enumerate(other.counts):
            if bucket_count:
                counts[bucket] += bucket_count
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max
        return self

    @classmethod
    def from_snapshot(cls, snap: Dict[str, Any],
                      name: str = "") -> "Histogram":
        """Rebuild a histogram from :meth:`snapshot` output.

        Sparse ``le_<upper>`` bucket keys map back to bucket indices
        (``upper`` is ``2^b - 1``, so ``upper.bit_length()`` is ``b``).
        Telemetry window records embed snapshots; this is how they are
        re-aggregated into run- or fleet-level distributions.

        Raises :class:`HistogramLayoutError` for any bucket upper bound
        that does not belong to the power-of-two layout (not of the
        form ``2^b - 1``, negative, or beyond the 64-bucket range) —
        a snapshot from a differently-bucketed histogram must not be
        silently folded into this one — and for a ``count`` that is
        not the sum of the bucket counts, which no quantile can rank.
        """
        histogram = cls(name)
        for key, bucket_count in snap.get("buckets", {}).items():
            try:
                upper = int(key[3:]) if key.startswith("le_") else int(key)
            except (TypeError, ValueError):
                raise HistogramLayoutError(
                    f"snapshot {name!r}: malformed bucket key {key!r}")
            bucket = upper.bit_length() if upper >= 0 else -1
            if (upper < 0 or bucket >= len(histogram.counts)
                    or upper != ((1 << bucket) - 1 if bucket else 0)):
                raise HistogramLayoutError(
                    f"snapshot {name!r}: bucket upper bound {upper} is "
                    f"not a 2^b-1 power-of-two-layout boundary")
            if not isinstance(bucket_count, int) or bucket_count < 0:
                raise HistogramLayoutError(
                    f"snapshot {name!r}: bad count {bucket_count!r} "
                    f"in bucket {key!r}")
            histogram.counts[bucket] += bucket_count
        histogram.count = snap.get("count", 0)
        if histogram.count != sum(histogram.counts):
            raise HistogramLayoutError(
                f"snapshot {name!r}: count {histogram.count!r} is not "
                f"the sum of its bucket counts ({sum(histogram.counts)})")
        histogram.total = snap.get("sum", 0)
        histogram.min = snap.get("min")
        histogram.max = snap.get("max")
        return histogram

    def quantile(self, fraction: float) -> int:
        """Upper bound of the bucket holding the ``fraction`` quantile."""
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction {fraction} outside (0, 1]")
        if self.count == 0:
            raise ValueError(f"histogram {self.name!r} has no samples")
        rank = max(1, round(fraction * self.count))
        seen = 0
        for bucket, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                return (1 << bucket) - 1 if bucket else 0
        return (1 << 63) - 1  # pragma: no cover - unreachable

    def snapshot(self) -> Dict[str, Any]:
        buckets = {}
        for bucket, bucket_count in enumerate(self.counts):
            if bucket_count:
                upper = (1 << bucket) - 1 if bucket else 0
                buckets[f"le_{upper}"] = bucket_count
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }


class MetricsRegistry:
    """One home for every counter/gauge/histogram of a simulation."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Callable[[], Any]] = {}
        self._histograms: Dict[str, Histogram] = {}

    def __repr__(self) -> str:
        return (f"<MetricsRegistry counters={len(self._counters)} "
                f"gauges={len(self._gauges)} "
                f"histograms={len(self._histograms)}>")

    # -- registration ----------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the named counter family (a plain Counter)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def discard(self, name: str) -> None:
        """Drop a counter family (its owner was destroyed)."""
        self._counters.pop(name, None)

    def rename(self, old: str, new: str) -> Counter:
        """Move counter family ``old`` to ``new`` (its owner was
        renamed); returns the family now named ``new``. Counts already
        under ``new`` are kept and ``old``'s are added to them."""
        counter = self._counters.pop(old, None)
        if counter is None:
            return self.counter(new)
        existing = self._counters.get(new)
        if existing is None:
            self._counters[new] = counter
            return counter
        existing.update(counter)
        return existing

    def gauge(self, name: str, fn: Callable[[], Any]) -> None:
        """Register a zero-argument callable sampled at snapshot time."""
        self._gauges[name] = fn

    def histogram(self, name: str) -> Histogram:
        """Get or create the named histogram."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    # -- consumption -----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """One deterministic, JSON-serializable view of everything.

        Keys are sorted so that two identical runs produce identical
        serialized snapshots (the determinism tests rely on this).
        """
        return {
            "counters": {name: dict(sorted(counter.items()))
                         for name, counter in sorted(self._counters.items())},
            "gauges": {name: fn()
                       for name, fn in sorted(self._gauges.items())},
            "histograms": {name: histogram.snapshot()
                           for name, histogram
                           in sorted(self._histograms.items())},
        }

    def to_openmetrics(self, labels: Dict[str, str] = None,
                       eof: bool = True) -> str:
        """The registry in OpenMetrics/Prometheus text format.

        Counter families become one ``<name>_total`` series per key
        (the key as a ``key`` label), gauges become bare samples (only
        numeric gauge values are exported), histograms become the
        standard cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count``
        series using the power-of-two bucket upper bounds. Output is
        deterministic (sorted) and ends with the ``# EOF`` marker.

        ``labels`` adds constant label pairs (e.g. ``{"bed":
        "server-0"}``) to every sample, which is how multi-bed
        snapshots share one export without colliding on metric name;
        ``eof=False`` omits the trailing marker so several labeled
        registries can be concatenated (see
        :func:`to_openmetrics_multi`).
        """
        pairs = ["%s=\"%s\"" % (_om_name(key), _om_label(str(value)))
                 for key, value in sorted((labels or {}).items())]
        extra = "{" + ",".join(pairs) + "}" if pairs else ""

        def labeled(inner: str) -> str:
            return "{" + ",".join(pairs + [inner]) + "}"

        lines: List[str] = []
        for name, counter in sorted(self._counters.items()):
            metric = _om_name(name)
            lines.append(f"# TYPE {metric} counter")
            for key, value in sorted(counter.items()):
                series = labeled("key=\"%s\"" % _om_label(str(key)))
                lines.append(f"{metric}_total{series} {value}")
        for name, fn in sorted(self._gauges.items()):
            value = fn()
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, float)):
                continue
            metric = _om_name(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric}{extra} {value}")
        for name, histogram in sorted(self._histograms.items()):
            metric = _om_name(name)
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for bucket, bucket_count in enumerate(histogram.counts):
                if bucket_count:
                    cumulative += bucket_count
                    upper = (1 << bucket) - 1 if bucket else 0
                    series = labeled("le=\"%d\"" % upper)
                    lines.append(f"{metric}_bucket{series} {cumulative}")
            series = labeled("le=\"+Inf\"")
            lines.append(f"{metric}_bucket{series} {histogram.count}")
            lines.append(f"{metric}_sum{extra} {histogram.total}")
            lines.append(f"{metric}_count{extra} {histogram.count}")
        if eof:
            lines.append("# EOF")
        return "\n".join(lines) + "\n"


def to_openmetrics_multi(registries: Dict[str, "MetricsRegistry"],
                         label: str = "bed") -> str:
    """Several registries as one labeled OpenMetrics document.

    Each registry's samples carry ``<label>="<name>"`` so a multi-bed
    cluster exports without metric-name collisions; parse a single
    bed back out with ``parse_openmetrics(text, labels={"bed": name})``.
    """
    chunks = [registry.to_openmetrics(labels={label: name}, eof=False)
              for name, registry in sorted(registries.items())]
    return "".join(chunks) + "# EOF\n"


def _om_value(text: str):
    number = float(text)
    return int(number) if number.is_integer() else number


def parse_openmetrics(text: str,
                      labels: Dict[str, str] = None
                      ) -> Dict[str, Dict[str, Any]]:
    """Parse :meth:`MetricsRegistry.to_openmetrics` output back.

    Returns ``{"counters": {name: {key: value}}, "gauges": {name:
    value}, "histograms": {name: {"count", "sum", "buckets"}}}`` with
    histogram buckets de-cumulated back to ``le_<upper>`` counts — the
    exact shape :meth:`Histogram.snapshot` uses, so round-trip tests
    can compare directly against a snapshot.

    ``labels`` filters the parse to samples carrying all the given
    label pairs (the selector for one bed inside a
    :func:`to_openmetrics_multi` document). ``None`` keeps every
    sample, matching the historical behavior.
    """
    types: Dict[str, str] = {}
    counters: Dict[str, Dict[str, Any]] = {}
    gauges: Dict[str, Any] = {}
    raw_hists: Dict[str, Dict[str, Any]] = {}
    wanted = {key: str(value) for key, value in (labels or {}).items()}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) == 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        series, _, value_text = line.rpartition(" ")
        value = _om_value(value_text)
        sample_labels: Dict[str, str] = {}
        if "{" in series:
            series, _, label_text = series.partition("{")
            for item in label_text.rstrip("}").split(","):
                key, _, quoted = item.partition("=")
                sample_labels[key] = quoted.strip('"') \
                    .replace('\\"', '"').replace("\\\\", "\\")
        if any(sample_labels.get(key) != value
               for key, value in wanted.items()):
            continue
        for suffix, family in (("_bucket", "histogram"),
                               ("_sum", "histogram"),
                               ("_count", "histogram"),
                               ("_total", "counter")):
            base = series[:-len(suffix)] if series.endswith(suffix) else None
            if base and types.get(base) == family:
                if family == "counter":
                    counters.setdefault(base, {})[
                        sample_labels.get("key", "")] = value
                else:
                    hist = raw_hists.setdefault(
                        base, {"count": 0, "sum": 0, "buckets": {}})
                    if suffix == "_sum":
                        hist["sum"] = value
                    elif suffix == "_count":
                        hist["count"] = value
                    else:
                        hist["buckets"][
                            sample_labels.get("le", "+Inf")] = value
                break
        else:
            if types.get(series) == "gauge":
                gauges[series] = value
    histograms: Dict[str, Dict[str, Any]] = {}
    for name, hist in raw_hists.items():
        finite = sorted(
            ((int(le), cum) for le, cum in hist["buckets"].items()
             if le != "+Inf"),
            key=lambda item: item[0])
        buckets = {}
        previous = 0
        for upper, cumulative in finite:
            if cumulative > previous:
                buckets[f"le_{upper}"] = cumulative - previous
            previous = cumulative
        histograms[name] = {"count": hist["count"], "sum": hist["sum"],
                            "buckets": buckets}
    return {"counters": counters, "gauges": gauges,
            "histograms": histograms}
