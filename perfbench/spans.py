"""In-memory span recorder for the traced run.

Spans are recorded only from the benchmark's own code: :func:`wrap`
replaces a public function or method of the program at run time with a
thin timing shim, so the program's sources are untouched and its own
``repro.obs`` tracing stays off (turning it on would switch the Reader
off its packed fast path and measure a different program).

A span is ``(name, start, end, parent, trace_id)``; spans of one grid
point, inventory or request share a trace id.  They stay in memory and
are written as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Recorder:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent, trace_id]
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, trace_id: str | None = None) -> int | None:
        if not self.enabled:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            trace_id = self.spans[parent][4]  # children join their root's trace
        elif trace_id is None:
            trace_id = name
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, trace_id])
        stack.append(idx)
        return idx

    def end(self, idx: int | None) -> None:
        if idx is None:
            return
        self.spans[idx][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, trace_id: str | None = None):
        idx = self.begin(name, trace_id)
        try:
            yield
        finally:
            self.end(idx)

    def add(self, name: str, start: float, end: float, trace_id: str) -> None:
        """Record a span measured elsewhere (e.g. a client-side interval)."""
        if self.enabled:
            with self._lock:
                self.spans.append([name, start, end, None, trace_id])

    # -- analysis -------------------------------------------------------

    def closed(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name and s[2] is not None]

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.closed(name))

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            if end is not None:
                out[name] += (end - start) - child[idx]
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, trace_id) in enumerate(
                self.spans
            ):
                fh.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "trace_id": trace_id,
                        }
                    )
                    + "\n"
                )


def wrap(rec: Recorder, owner, attr: str, name: str, trace_id=None) -> None:
    """Replace ``owner.attr`` with a span-recording shim.

    ``trace_id`` (optional) derives a trace id from the call's arguments
    for a call that opens a new trace (no enclosing span).
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def shim(*args, **kwargs):
        if not rec.enabled:
            return original(*args, **kwargs)
        tid = trace_id(*args, **kwargs) if trace_id is not None else None
        idx = rec.begin(name, tid)
        try:
            return original(*args, **kwargs)
        finally:
            rec.end(idx)

    setattr(owner, attr, shim)
