"""First-divergence diffing of flight-recorder journals.

Two runs of a deterministic simulator should produce identical
journals; when they do not, the interesting question is never "how many
lines differ" but **which causally-identified event diverged first**,
and why. Diffing journals line-by-line answers the wrong question: a
single early perturbation shifts every later timestamp and sequence
number, burying the root cause under thousands of knock-on diffs.

This module aligns two journals on **causal keys** instead of wall
(sequence) order. A causal key names an event by *what* it is in the
program's dataflow — queue + monotonic WR index for a WQE's lifecycle
events, CQ + monotonic completion count for CQEs, per-queue doorbell
ordinal, per-NIC atomic ordinal, per-region store ordinal — never by
*when* it happened. Matched pairs are then compared field-by-field and
every difference is typed:

``wqe_bytes``
    The same WR's slot image differs: resolved to chain-IR field names
    via :func:`repro.nic.wqe.wqe_field_diff` ("``operand1: 0x42 ->
    0x43``"), the signature of a perturbed or mis-armed chain.
``field``
    Any other payload mismatch (status, store digest, CAS original...).
``timing``
    Identical content at a different simulated time; reported with the
    signed delta.
``missing`` / ``extra``
    The causal key exists in only one journal.
``cqe_count``
    Both runs completed on a CQ but reached different final counts —
    summarized per-CQ instead of drowning in per-CQE missing/extra.
``checkpoint``
    Every record aligned with no divergence, yet a checkpoint both
    journals took (same bed and seq) captured different state: the
    first such checkpoint, with the state entries that differ.

The **first divergence** is the surviving divergence with the smallest
(ts, seq) — the earliest causal point where the runs disagree. Its
:func:`causal_slice` walks the journal backwards collecting the N
events that plausibly *fed* it: same-queue lifecycle events, stores
and atomics overlapping its slot address span, the ENABLE that released
its queue, the CQE its WAIT woke on. For a flipped CAS arm the slice
names the arming op.

Like the rest of ``repro.obs`` post-processing, nothing here runs
during a simulation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..nic.wqe import format_field_diff, wqe_field_diff
from .recorder import Journal

__all__ = [
    "Divergence",
    "DiffReport",
    "causal_key",
    "causal_slice",
    "diff_journals",
    "render_report",
]

#: Fields that never take part in content comparison: wall/sequence
#: identity (the whole point of causal alignment) and bed stamps.
_IGNORED_FIELDS = ("seq", "ts", "bed")

#: Record kinds whose causal identity is (queue, WR index).
_WR_KINDS = ("post", "fetch", "exec", "done", "wait", "enable")


def causal_key(record: Dict[str, Any],
               ordinals: Dict[Tuple, int]) -> Tuple:
    """The causal identity of a journal record.

    ``ordinals`` tracks per-stream occurrence counts for streams whose
    records carry no intrinsic monotonic identity (doorbells, atomics,
    stores); pass the same dict for every record of one journal. Every
    key gets a trailing occurrence ordinal so accidental key collisions
    degrade to positional matching within the colliding stream instead
    of mispairing.
    """
    bed = record.get("bed", 0)
    kind = record["kind"]
    if kind in _WR_KINDS:
        base = (bed, "wq", record["wq"], kind, record["wr"])
    elif kind == "doorbell":
        base = (bed, "wq", record["wq"], "doorbell")
    elif kind == "cqe":
        base = (bed, "cq", record["cq"], "cqe", record["count"])
    elif kind == "atomic":
        base = (bed, "atomic", record["nic"])
    elif kind == "store":
        base = (bed, "store", record["mem"], record["region"])
    else:
        base = (bed, kind)
    ordinal = ordinals.get(base, 0)
    ordinals[base] = ordinal + 1
    return base + (ordinal,)


class Divergence:
    """One typed difference between aligned journals."""

    __slots__ = ("kind", "key", "a", "b", "detail", "fields")

    def __init__(self, kind: str, key: Tuple,
                 a: Optional[Dict[str, Any]],
                 b: Optional[Dict[str, Any]],
                 detail: str,
                 fields: Optional[List[Dict[str, Any]]] = None):
        # wqe_bytes|field|timing|missing|extra|cqe_count|checkpoint
        self.kind = kind
        self.key = key
        self.a = a
        self.b = b
        self.detail = detail
        self.fields = fields or []

    @property
    def ts(self) -> int:
        record = self.a or self.b
        return record.get("ts", 0) if record else 0

    @property
    def seq(self) -> int:
        record = self.a or self.b
        return record.get("seq", 0) if record else 0

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "key": list(self.key),
                "detail": self.detail, "a": self.a, "b": self.b,
                "fields": self.fields}

    def __repr__(self) -> str:
        return f"<Divergence {self.kind} @{self.ts} {self.detail!r}>"


class DiffReport:
    """All divergences between two journals, first one resolved."""

    def __init__(self, divergences: List[Divergence],
                 total_a: int, total_b: int, aligned: int):
        self.divergences = divergences
        self.total_a = total_a
        self.total_b = total_b
        self.aligned = aligned

    @property
    def identical(self) -> bool:
        return not self.divergences

    @property
    def first(self) -> Optional[Divergence]:
        """The earliest divergence in causal order.

        Ordered by (ts, kind priority, seq): among divergences at the
        same simulated instant — a ring store and the WQE post it
        belongs to land on identical timestamps — the field-resolved
        ``wqe_bytes`` one is the explanatory one and wins.
        """
        if not self.divergences:
            return None
        return min(self.divergences,
                   key=lambda d: (d.ts, d.kind != "wqe_bytes", d.seq))

    def by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for divergence in self.divergences:
            counts[divergence.kind] = counts.get(divergence.kind, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        first = self.first
        return {"identical": self.identical,
                "aligned": self.aligned,
                "total_a": self.total_a, "total_b": self.total_b,
                "by_kind": self.by_kind(),
                "first": first.to_dict() if first else None,
                "divergences": [d.to_dict() for d in self.divergences]}

    def __repr__(self) -> str:
        return (f"<DiffReport {'identical' if self.identical else ''}"
                f" divergences={len(self.divergences)}"
                f" aligned={self.aligned}>")


def _content(record: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in record.items()
            if key not in _IGNORED_FIELDS}


def _compare_pair(key: Tuple, a: Dict[str, Any],
                  b: Dict[str, Any]) -> Optional[Divergence]:
    content_a = _content(a)
    content_b = _content(b)
    if content_a == content_b:
        if a.get("ts") != b.get("ts"):
            delta = b.get("ts", 0) - a.get("ts", 0)
            return Divergence(
                "timing", key, a, b,
                f"{a['kind']} happened at {a.get('ts')} ns in A but "
                f"{b.get('ts')} ns in B ({delta:+d} ns)")
        return None
    # WQE byte images get the field-resolved treatment.
    if "wqe" in content_a and "wqe" in content_b \
            and content_a["wqe"] != content_b["wqe"]:
        fields = wqe_field_diff(bytes.fromhex(content_a["wqe"]),
                                bytes.fromhex(content_b["wqe"]))
        named = ", ".join(format_field_diff(f) for f in fields)
        return Divergence(
            "wqe_bytes", key, a, b,
            f"{a['kind']} of wr {a.get('wr')} on wq {a.get('wq')}: "
            f"WQE bytes differ — {named}", fields=fields)
    differing = sorted(key for key in set(content_a) | set(content_b)
                       if content_a.get(key) != content_b.get(key))
    fields = [{"field": name, "a": content_a.get(name),
               "b": content_b.get(name)} for name in differing]
    detail = ", ".join(f"{f['field']}: {f['a']!r} -> {f['b']!r}"
                       for f in fields)
    return Divergence(
        "field", key, a, b,
        f"{a['kind']} differs in {detail}", fields=fields)


def _fold_cqe_counts(divergences: List[Divergence]) -> List[Divergence]:
    """Collapse trailing missing/extra CQE runs into cqe_count.

    When one run simply completed more WRs on a CQ, every surplus CQE
    shows up as missing/extra; summarizing them as one per-CQ count
    mismatch keeps the report about causes, not symptoms.
    """
    per_cq: Dict[Tuple, List[Divergence]] = {}
    kept: List[Divergence] = []
    for divergence in divergences:
        record = divergence.a or divergence.b
        if (divergence.kind in ("missing", "extra")
                and record and record.get("kind") == "cqe"):
            per_cq.setdefault(
                (record.get("bed", 0), record["cq"]), []).append(divergence)
        else:
            kept.append(divergence)
    for (bed, cq), group in sorted(per_cq.items(),
                                   key=lambda item: str(item[0])):
        if len(group) == 1:
            kept.extend(group)
            continue
        counts = [(d.a or d.b)["count"] for d in group]
        direction = "A" if group[0].kind == "missing" else "B"
        earliest = min(group, key=lambda d: (d.ts, d.seq))
        record = earliest.a or earliest.b
        kept.append(Divergence(
            "cqe_count", earliest.key, earliest.a, earliest.b,
            f"cq {cq} delivered {len(group)} more CQEs in run "
            f"{'B' if direction == 'A' else 'A'} (counts "
            f"{min(counts)}..{max(counts)} unmatched)"))
    return kept


def _state_entries(state: Dict[str, Any],
                   path: str = "") -> Dict[str, Any]:
    """A checkpoint state flattened to ``section[key]...`` leaf paths."""
    entries: Dict[str, Any] = {}
    for key, value in state.items():
        name = f"{path}[{key}]" if path else key
        if isinstance(value, dict):
            entries.update(_state_entries(value, name))
        else:
            entries[name] = value
    return entries


def _checkpoint_divergence(journal_a: Journal,
                           journal_b: Journal) -> Optional[Divergence]:
    """The first checkpoint, by (bed, seq), whose states differ."""
    by_key_a, by_key_b = ({(cp.get("bed", 0), cp["seq"]): cp
                           for cp in journal.checkpoints}
                          for journal in (journal_a, journal_b))
    for bed, seq in sorted(by_key_a.keys() & by_key_b.keys()):
        a, b = by_key_a[(bed, seq)], by_key_b[(bed, seq)]
        if a["state"] == b["state"]:
            continue
        entries_a = _state_entries(a["state"])
        entries_b = _state_entries(b["state"])
        fields = [{"field": name, "a": entries_a.get(name),
                   "b": entries_b.get(name)}
                  for name in sorted(set(entries_a) | set(entries_b))
                  if entries_a.get(name) != entries_b.get(name)]
        return Divergence(
            "checkpoint", (bed, "checkpoint", seq), a, b,
            f"checkpoint at seq {seq} (bed {bed}) differs in "
            + ", ".join(f"{f['field']}: {f['a']!r} -> {f['b']!r}"
                        for f in fields), fields=fields)
    return None


def diff_journals(journal_a: Journal, journal_b: Journal,
                  fold_cqe_counts: bool = True) -> DiffReport:
    """Align two journals on causal keys and type every difference.

    When the records show no divergence, the checkpoint states both
    journals captured are compared too.
    """
    ordinals_a: Dict[Tuple, int] = {}
    ordinals_b: Dict[Tuple, int] = {}
    keyed_a = [(causal_key(record, ordinals_a), record)
               for record in journal_a.records]
    keyed_b = [(causal_key(record, ordinals_b), record)
               for record in journal_b.records]
    index_b = {key: record for key, record in keyed_b}
    divergences: List[Divergence] = []
    aligned = 0
    for key, record_a in keyed_a:
        record_b = index_b.pop(key, None)
        if record_b is None:
            divergences.append(Divergence(
                "missing", key, record_a, None,
                f"{record_a['kind']} at ts {record_a.get('ts')} "
                f"(seq {record_a.get('seq')}) has no match in B"))
            continue
        aligned += 1
        divergence = _compare_pair(key, record_a, record_b)
        if divergence is not None:
            divergences.append(divergence)
    for key, record_b in keyed_b:
        if key in index_b:
            divergences.append(Divergence(
                "extra", key, None, record_b,
                f"{record_b['kind']} at ts {record_b.get('ts')} "
                f"(seq {record_b.get('seq')}) appears only in B"))
    if fold_cqe_counts:
        divergences = _fold_cqe_counts(divergences)
    if not divergences:
        checkpoint = _checkpoint_divergence(journal_a, journal_b)
        if checkpoint is not None:
            divergences.append(checkpoint)
    return DiffReport(divergences, len(journal_a.records),
                      len(journal_b.records), aligned)


# -- causal slicing -------------------------------------------------------


def _addr_span(record: Dict[str, Any]) -> Optional[Tuple[int, int]]:
    if record["kind"] in ("post", "fetch") and "addr" in record:
        return (record["addr"], record["addr"] + record["slots"] * 64)
    if record["kind"] == "store":
        return (record["addr"], record["addr"] + record["len"])
    if record["kind"] == "atomic":
        return (record["raddr"], record["raddr"] + 8)
    return None


def _overlaps(span: Optional[Tuple[int, int]],
              spans: List[Tuple[int, int]]) -> bool:
    if span is None:
        return False
    lo, hi = span
    return any(lo < end and start < hi for start, end in spans)


def causal_slice(journal: Journal, record: Dict[str, Any],
                 depth: int = 8) -> List[Dict[str, Any]]:
    """The ≤``depth`` most recent events plausibly feeding ``record``.

    Walks the journal backwards from the record, growing a focus set of
    queues, CQ numbers and address spans: an event joins the slice when
    it shares a queue with the focus, targets a focused queue with an
    ENABLE, stores into / atomically updates a focused address span
    (this is what names the arming CAS for a divergent branch WQE), or
    completes on a CQ a focused WAIT was blocked on. Joining events
    widen the focus with their own upstream identities. Oldest first.
    """
    bed = record.get("bed", 0)
    focus_wqs = set()
    focus_cqs = set()
    focus_spans: List[Tuple[int, int]] = []
    if "wq" in record:
        focus_wqs.add(record["wq"])
    if record["kind"] == "cqe":
        focus_cqs.add(record.get("cq_num"))
    if record["kind"] == "wait":
        focus_cqs.add(record.get("cq"))
    span = _addr_span(record)
    if span is not None:
        focus_spans.append(span)
    seq = record.get("seq")
    slice_reversed: List[Dict[str, Any]] = []
    for candidate in reversed(journal.records):
        if len(slice_reversed) >= depth:
            break
        if candidate.get("bed", 0) != bed:
            continue
        if seq is not None and candidate.get("seq", -1) >= seq:
            continue
        kind = candidate["kind"]
        include = False
        if candidate.get("wq") in focus_wqs:
            include = True
        elif kind == "enable" and candidate.get("target_name") in focus_wqs:
            include = True
            focus_wqs.add(candidate["wq"])
        elif kind in ("store", "atomic", "post", "fetch") \
                and _overlaps(_addr_span(candidate), focus_spans):
            include = True
            if kind == "atomic":
                focus_wqs.add(candidate.get("src"))
        elif kind == "cqe" and candidate.get("cq_num") in focus_cqs:
            include = True
        elif kind == "wait" and candidate.get("wq") in focus_wqs:
            include = True
            focus_cqs.add(candidate.get("cq"))
        if include:
            if candidate.get("wq"):
                focus_wqs.add(candidate["wq"])
            candidate_span = _addr_span(candidate)
            if candidate_span is not None and kind in ("post", "fetch"):
                focus_spans.append(candidate_span)
            slice_reversed.append(candidate)
    return list(reversed(slice_reversed))


# -- rendering ------------------------------------------------------------


def _render_record(record: Optional[Dict[str, Any]]) -> str:
    if record is None:
        return "(absent)"
    keys = [key for key in ("kind", "wq", "cq", "wr", "count", "op",
                            "status", "region", "src", "ts")
            if key in record]
    body = " ".join(f"{key}={record[key]}" for key in keys)
    return f"seq {record.get('seq', '?')}: {body}"


def render_report(report: DiffReport,
                  journal_a: Optional[Journal] = None,
                  slice_depth: int = 8) -> str:
    """Human-readable first-divergence report."""
    lines: List[str] = []
    if report.identical:
        lines.append(f"journals are causally identical "
                     f"({report.aligned} events aligned)")
        return "\n".join(lines)
    counts = ", ".join(f"{kind}: {count}"
                       for kind, count in sorted(report.by_kind().items()))
    lines.append(f"{len(report.divergences)} divergence(s) "
                 f"[{counts}] over {report.aligned} aligned events "
                 f"(A: {report.total_a}, B: {report.total_b})")
    first = report.first
    lines.append("")
    lines.append(f"first divergence ({first.kind}) at ts {first.ts}:")
    lines.append(f"  {first.detail}")
    lines.append(f"  A: {_render_record(first.a)}")
    lines.append(f"  B: {_render_record(first.b)}")
    if (journal_a is not None and first.a is not None and slice_depth > 0
            and first.kind != "checkpoint"):
        lines.append("")
        lines.append(f"causal slice (last {slice_depth} feeding events,"
                     " oldest first):")
        feeding = causal_slice(journal_a, first.a, depth=slice_depth)
        if not feeding:
            lines.append("  (none recorded)")
        for record in feeding:
            lines.append(f"  {_render_record(record)}")
    return "\n".join(lines)
