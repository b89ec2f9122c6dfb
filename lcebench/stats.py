"""Arithmetic the benchmark reports with: quantiles, outcome tallies, span
self-times and their reconciliation against end-to-end time.

Everything here is pure: it takes lists and returns numbers, so the tests
drive it with synthetic inputs.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Iterable, Sequence

import numpy as np

#: request outcomes; every one but ``ok`` counts against ``success_ratio``
OK, SHED, FAILED, RAISED, WRONG = "ok", "shed", "failed", "raised", "wrong"
OUTCOMES = (OK, SHED, FAILED, RAISED, WRONG)

#: slack when deciding whether one span's interval contains another's
_EPS = 1e-9


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; 0.0 for an empty sample."""
    if not len(values):
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def outputs_equal(out: Any, ref: Any) -> bool:
    """Bit-exact reply check: same structure, dtype and every element."""
    if isinstance(ref, tuple):
        return (
            isinstance(out, tuple)
            and len(out) == len(ref)
            and all(outputs_equal(o, r) for o, r in zip(out, ref))
        )
    return (
        isinstance(out, np.ndarray)
        and out.dtype == ref.dtype
        and np.array_equal(out, ref)
    )


def tally(outcomes: Iterable[str]) -> dict[str, int]:
    """Count outcomes by kind; every kind in :data:`OUTCOMES` is present."""
    counts = Counter(outcomes)
    unknown = set(counts) - set(OUTCOMES)
    if unknown:
        raise ValueError(f"unknown outcome(s): {sorted(unknown)}")
    return {kind: counts.get(kind, 0) for kind in OUTCOMES}


def fail_ratio(counts: dict[str, int]) -> float:
    """Shed, failed, raised and wrong replies over attempted requests."""
    attempted = sum(counts.values())
    if attempted == 0:
        raise ValueError("no requests attempted")
    return (attempted - counts[OK]) / attempted


def span_tree(spans: Sequence[Any]) -> tuple[list[int], list[int], list[float]]:
    """Nest spans by interval containment on each thread.

    ``spans`` carry ``tid``, ``start_s``, ``dur_s`` (like
    :class:`repro.obs.trace.SpanRecord`).  Returns ``(order, parent,
    self_s)``: an index order in which every parent precedes its
    children, each span's parent index (-1 for a root) and each span's
    self time, its duration minus the durations of its direct children.
    """
    order = sorted(
        range(len(spans)),
        key=lambda i: (spans[i].tid, spans[i].start_s, -spans[i].dur_s),
    )
    parent = [-1] * len(spans)
    self_s = [float(s.dur_s) for s in spans]
    stack: list[int] = []
    tid = None
    for i in order:
        span = spans[i]
        if span.tid != tid:
            stack, tid = [], span.tid
        end = span.start_s + span.dur_s
        while stack and end > spans[stack[-1]].start_s + spans[stack[-1]].dur_s + _EPS:
            stack.pop()
        if stack:
            parent[i] = stack[-1]
            self_s[stack[-1]] -= span.dur_s
        stack.append(i)
    return order, parent, self_s


def layer_times(
    spans: Sequence[Any], layer_of: Callable[[Any], str | None]
) -> dict[str, float]:
    """Self time summed per layer.

    ``layer_of(span)`` names the span's layer, or returns ``None`` for a
    span that belongs to its parent's layer (a root with no layer goes
    to ``"unattributed"``).  The values partition the roots' total
    duration exactly.
    """
    order, parent, self_s = span_tree(spans)
    layer: list[str] = [""] * len(spans)
    totals: dict[str, float] = {}
    for i in order:
        name = layer_of(spans[i])
        if name is None:
            name = layer[parent[i]] if parent[i] >= 0 else "unattributed"
        layer[i] = name
        totals[name] = totals.get(name, 0.0) + self_s[i]
    return totals


def unaccounted_ratio(total_s: float, covered_s: float) -> float:
    """Share of end-to-end time ``total_s`` the layers did not cover."""
    if total_s <= 0:
        raise ValueError(f"end-to-end time must be positive, got {total_s}")
    return (total_s - covered_s) / total_s
