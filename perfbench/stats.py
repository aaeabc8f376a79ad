"""Arithmetic of the scenario benchmark: medians, tail choice, self time.

Everything here is pure and small so that ``selftest.py`` can check it
on hand-built inputs.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles the report may quote, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def tail_percentile(n_samples: int) -> Optional[float]:
    """The highest quotable percentile for ``n_samples`` samples.

    A percentile p is quotable when at least :data:`MIN_BEYOND`
    samples lie beyond it, i.e. ``n * (1 - p/100) >= MIN_BEYOND``.
    Returns ``None`` when not even the median qualifies.
    """
    best = None
    for p in TAIL_PERCENTILES:
        beyond = n_samples * (100.0 - p) / 100.0
        if beyond + 1e-9 >= MIN_BEYOND:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of
    the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(n * p / 100)
    return float(ordered[int(rank) - 1])


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, sample count and the highest quotable tail percentile."""
    out: Dict[str, float] = {"n": len(values), "median": median(values)}
    tail = tail_percentile(len(values))
    if tail is not None and tail > 50.0:
        out["tail_p"] = tail
        out["tail"] = percentile(values, tail)
    return out


# -- intervals and self time --------------------------------------------------


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``s."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def clipped(intervals: Iterable[Tuple[float, float]], start: float,
            end: float) -> List[Tuple[float, float]]:
    """``intervals`` cut to ``[start, end]``, empty pieces dropped."""
    out = []
    for a, b in intervals:
        a, b = max(a, start), min(b, end)
        if b > a:
            out.append((a, b))
    return out


def self_times(spans: Sequence[dict]) -> Dict[object, float]:
    """Self time per span id: duration minus the part its children cover.

    ``spans`` are dicts with ``id``, ``parent``, ``start`` and ``end``.
    Children may overlap each other (spans from concurrent worker
    processes share a parent in the calling process) and may stick out
    of their parent; only the union of the children *inside* the
    parent's interval is subtracted, so self time is never negative
    and never double-subtracts.
    """
    children: Dict[object, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = union_length(
            clipped(children.get(span["id"], ()), start, end)
        )
        out[span["id"]] = (end - start) - covered
    return out


def has_ancestor(span: dict, name: str, by_id: Dict[object, dict]) -> bool:
    """Whether any ancestor of ``span`` (``by_id`` maps id -> span) is
    named ``name``."""
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] == name:
            return True
        parent = by_id.get(parent["parent"])
    return False


def inclusive_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Per-name time, counting a span only when no ancestor has its name
    (recursion or wrapper-in-wrapper calls are not counted twice)."""
    by_id = {span["id"]: span for span in spans}
    totals: Dict[str, float] = {}
    for span in spans:
        if not has_ancestor(span, span["name"], by_id):
            totals[span["name"]] = (
                totals.get(span["name"], 0.0) + span["end"] - span["start"]
            )
    return totals
