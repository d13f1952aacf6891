"""Per-layer attribution for the traced run: profile self time and spans.

Two views of where host time goes, both taken from outside the program:

* :func:`layer_self_times` sums a cProfile run's *self* time by the
  ``repro`` package a function lives in (``repro.sim.sharded`` counts
  apart from the rest of ``repro.sim``, and each ``repro.obs`` module
  is also broken out). Time in functions outside ``repro`` -- the
  interpreter's builtins, the standard library, this benchmark -- goes
  to ``python``. The layers partition the profile, so their sum is the
  profiled total.
* :class:`Spans` records host-time spans around the benchmark's own
  calls into each layer's public functions (name, layer, start, end,
  parent span, optional request id) and writes them out when the run
  ends.
"""

from __future__ import annotations

import json
import os
import pstats
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

import repro

__all__ = ["LAYERS", "OBS_MODULES", "layer_self_times", "cumulative_s",
           "function_cumulative_s", "Spans"]

#: ``repro`` packages timed as layers, plus ``python`` for the rest.
LAYERS = ("sim", "sim.sharded", "nic", "memory", "redn", "offloads", "net",
          "apps", "datastructs", "ibv", "bench", "obs", "python")

#: ``repro.obs`` modules whose self time is also reported on its own.
OBS_MODULES = ("tracer", "recorder", "telemetry", "sentry", "blame")

_REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _module_of(filename: str) -> Optional[List[str]]:
    """``repro``-relative module path parts, or None outside ``repro``."""
    if not filename.startswith(_REPRO_ROOT):
        return None
    rel = filename[len(_REPRO_ROOT):]
    if rel.endswith(".py"):
        rel = rel[:-3]
    return rel.split(os.sep)


def _layer_of(parts: Optional[List[str]]) -> str:
    if parts is None or len(parts) < 2:
        return "python"
    if parts[0] == "sim" and parts[1] == "sharded":
        return "sim.sharded"
    return parts[0] if parts[0] in LAYERS else "python"


def layer_self_times(stats: pstats.Stats) -> Dict[str, float]:
    """Self seconds per layer (``<layer>``) and obs module (``obs.<m>``).

    Also returns ``total`` -- the profile's own total -- so callers can
    check that the layers account for all of it.
    """
    out = {layer: 0.0 for layer in LAYERS}
    out.update({f"obs.{module}": 0.0 for module in OBS_MODULES})
    for (filename, _line, _func), entry in stats.stats.items():
        self_s = entry[2]
        parts = _module_of(filename)
        layer = _layer_of(parts)
        out[layer] += self_s
        if layer == "obs" and parts[1] in OBS_MODULES:
            out[f"obs.{parts[1]}"] += self_s
    out["total"] = stats.total_tt
    return out


def cumulative_s(stats: pstats.Stats, layer: str, func: str) -> float:
    """Cumulative seconds of every ``func`` defined in ``layer``.

    Nested calls of the same function are not double counted: cProfile
    already folds recursion into one cumulative figure per function.
    """
    total = 0.0
    for (filename, _line, name), entry in stats.stats.items():
        if name == func and _layer_of(_module_of(filename)) == layer:
            total += entry[3]
    return total


def function_cumulative_s(stats: pstats.Stats, function) -> float:
    """Cumulative seconds of one Python function (0.0 if never called)."""
    code = function.__code__
    entry = stats.stats.get(
        (code.co_filename, code.co_firstlineno, code.co_name))
    return entry[3] if entry else 0.0


class Spans:
    """In-memory host-time spans around the benchmark's layer calls."""

    def __init__(self):
        self.records: List[dict] = []
        self._stack: List[int] = []

    def add(self, name: str, layer: str, start: float, end: float,
            request: Optional[int] = None) -> int:
        """Record an externally timed span under the open one."""
        span_id = len(self.records)
        self.records.append({
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name, "layer": layer,
            "start_s": start, "end_s": end, "request": request})
        return span_id

    @contextmanager
    def span(self, name: str, layer: str, request: Optional[int] = None):
        """Time the enclosed block as a span; spans opened inside nest."""
        span_id = self.add(name, layer, time.perf_counter(), 0.0, request)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[span_id]["end_s"] = time.perf_counter()

    def self_times(self) -> Dict[str, float]:
        """Per-layer span self time: duration minus child-covered time.

        Children of one span never overlap (one thread, properly nested
        or strictly sequential), so the covered part is their sum.
        """
        child_s = [0.0] * len(self.records)
        for record in self.records:
            if record["parent"] is not None:
                child_s[record["parent"]] += \
                    record["end_s"] - record["start_s"]
        out: Dict[str, float] = {}
        for record, covered in zip(self.records, child_s):
            own = record["end_s"] - record["start_s"] - covered
            out[record["layer"]] = out.get(record["layer"], 0.0) + own
        return out

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(meta, span_self_s=self.self_times(),
                       spans=self.records)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
