"""In-memory spans recorded around calls into faircoplan's layers.

The benchmark never edits the planner. It replaces module attributes (and a
few class methods) with thin wrappers that open a span, call the original,
and close the span. Spans stay in memory while the campaign runs and are
written out once it has finished.

A span is ``[name, start, end, parent, attrs]``; ``parent`` is the index of
the enclosing span or -1. Every span of one campaign shares the recorder's
run id, which is written with each span.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable

NAME, START, END, PARENT, ATTRS = range(5)

# Bookkeeping the recorder does outside the wrapped call (model-size counts)
# gets its own span so that it is not charged to the caller's self time.
BOOKKEEPING = "trace.bookkeeping"


class SpanRecorder:
    """Records nested spans for one campaign run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """``fn`` wrapped in a span; ``observe(args, kwargs, result)`` may
        return a dict of attributes, computed after the span has closed."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if observe is not None:
                begin = clock()
                record[ATTRS] = observe(args, kwargs, result)
                spans.append([BOOKKEEPING, begin, clock(), parent, None])
            return result

        return wrapper

    def patch(self, owner: object, attr: str, name: str,
              observe: Callable | None = None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper until ``unpatch``."""
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, self.span(name, getattr(owner, attr), observe))

    def unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps({
                    "name": record[NAME], "start": record[START],
                    "end": record[END], "parent": record[PARENT],
                    "run": self.run_id, "attrs": record[ATTRS],
                }, sort_keys=True))
                handle.write("\n")


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for record in spans:
        parent = record[PARENT]
        if parent >= 0:
            lo = max(record[START], spans[parent][START])
            hi = min(record[END], spans[parent][END])
            if hi > lo:
                children[parent].append((lo, hi))
    return [
        (record[END] - record[START]) - union_length(children.get(i, ()))
        for i, record in enumerate(spans)
    ]
