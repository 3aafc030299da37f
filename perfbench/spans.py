"""In-memory spans around the functions each monogp layer exposes.

A traced run replaces those module and class attributes with wrappers that
record one span per call: name, start, end, parent span and run id (the
operation the call belongs to). Nothing inside `src/monogp` changes. Spans stay
in memory and are written out once, when the run ends. A span's self time is
its duration minus the part of its interval that its child spans cover.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

SETUP_RUN = "setup"


class Tracer:
    """Span recorder; use as a context manager so every patch is undone."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, run]
        self.counters: dict[str, float] = defaultdict(float)
        self.run_id = SETUP_RUN
        self._stack: list[int] = []      # indices of the open spans
        self._marks: dict[str, float] = {}
        self._patches: list[tuple] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- recording ---------------------------------------------------------

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _open(self, name: str, start: float) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, None, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def mark(self, name: str) -> None:
        """Remember now as the start of a span that `emit` closes later."""
        self._marks[name] = time.perf_counter()

    def emit(self, name: str) -> None:
        """Record a closed span from the last `mark(name)` to now."""
        start = self._marks.pop(name, None)
        if start is not None:
            self._close(self._open(name, start))

    # -- patching ----------------------------------------------------------

    def wrap(self, name, fn, count=None, only_under=None, before=None):
        """`fn` with a span around each call.

        count(counters, args, result) runs after a call that returned;
        only_under skips the span unless the innermost open span has that
        name; before(tracer) runs just before the span opens.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if only_under is not None and self.current() != only_under:
                return fn(*args, **kwargs)
            if before is not None:
                before(self)
            idx = self._open(name, time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counters, args, result)
            return result
        return traced

    def replace(self, owner, attr: str, new) -> None:
        """Set owner.attr to `new` until the tracer exits."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), **kwargs))

    def write(self, path) -> None:
        """One JSON array per line: name, start and end (s), parent index, run."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for name, start, end, parent, run in self.spans:
                f.write(json.dumps([name, start - t0, end - t0, parent, run]) + "\n")


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent, run in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, run) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def tree_errors(spans, tol: float = 1e-9) -> list[str]:
    """Spans that end before they start or leave their parent's interval."""
    errors = []
    for i, (name, start, end, parent, run) in enumerate(spans):
        if end is None or end < start:
            errors.append(f"span {i} ({name}) is open or ends before it starts")
        elif parent is not None:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start - tol or end > p_end + tol:
                errors.append(f"span {i} ({name}) leaves its parent {parent}")
    return errors
