"""In-memory span recording around calls into the package's layers.

A ``Tracer`` replaces module attributes with wrappers that record one span
per call: name, start, end, parent span and run id, plus counts read off the
call's arguments or result.  The package looks these functions up through
module attributes at call time, so the wrappers see every call without any
change to ``src/``.

Forked worker processes inherit the wrappers.  A worker keeps its spans in
memory and appends them to ``spill_dir/spans-<pid>.jsonl`` each time its
outermost span (one task) ends; ``collect()`` reads them back.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str, spill_dir: Path):
        self.run_id = run_id
        self.spill_dir = spill_dir
        self.spans: list = []
        self._owner = self._pid = os.getpid()
        self._stack: list = []
        self._ids = itertools.count()
        self._patched: list = []

    def _begin(self):
        if os.getpid() != self._pid:  # first call in a forked worker
            self._pid = os.getpid()
            self.spans = []
            self._stack = []
        sid = f"{self._pid}:{next(self._ids)}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _end(self, name, sid, parent, start, attrs) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                           "parent": parent, "run": self.run_id, "pid": self._pid,
                           **attrs})
        if not self._stack and self._pid != self._owner:
            with open(self.spill_dir / f"spans-{self._pid}.jsonl", "a") as f:
                f.writelines(json.dumps(s) + "\n" for s in self.spans)
            self.spans = []

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid, parent, start = self._begin()
        try:
            yield
        finally:
            self._end(name, sid, parent, start, {})

    def wrap(self, module, attr: str, count=None) -> None:
        """Record a span named ``<module>.<attr>`` for each call of
        ``module.attr``; ``count(args, kwargs, result)`` returns extra fields."""
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, start = self._begin()
            attrs = {}
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    attrs = count(args, kwargs, out)
                return out
            finally:
                self._end(name, sid, parent, start, attrs)

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def unwrap_all(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched = []

    def collect(self) -> list:
        """This process's spans plus every span the workers wrote out."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            spans += [json.loads(line) for line in path.read_text().splitlines()]
            path.unlink()
        return spans


def self_times(spans: list) -> dict:
    """Span id -> duration minus the time its (sequential) children cover."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time[s["id"]] for s in spans}


def within(spans: list, outer: dict) -> list:
    """Spans that start inside ``outer``'s interval, from any process."""
    return [s for s in spans if outer["start"] <= s["start"] < outer["end"]
            and s["id"] != outer["id"]]
