"""Spans around the benchmark's own calls into each layer.

The benchmark records one span per call it makes into a layer's public
function: name, layer, start, end, parent span and the workload unit
(one sweep point, one user, one job) the call served.  Spans stay in
memory and are written as JSONL once the run ends.  Nothing here
reaches into the program; spans inside the program are a separate
concern (``repro.obs``).

End-to-end runs use :data:`OFF`, whose :meth:`NullRecorder.span` hands
back one shared no-op context, so an untraced call costs one method
call and one ``with``.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import time
import typing as t


class _Span:
    __slots__ = ("sid", "name", "layer", "unit", "parent", "start", "end")

    def __init__(self, sid: int, name: str, layer: str, unit: str | None,
                 parent: int | None, start: float) -> None:
        self.sid = sid
        self.name = name
        self.layer = layer
        self.unit = unit
        self.parent = parent
        self.start = start
        self.end = start


class SpanRecorder:
    """Collects spans on one thread's stack (and, for threaded clients,
    one stack per thread via :meth:`fork`)."""

    def __init__(self, spans: list[_Span] | None = None,
                 counter: t.Iterator[int] | None = None) -> None:
        self._spans: list[_Span] = spans if spans is not None else []
        self._ids = counter if counter is not None else iter(range(1, 1 << 62))
        self._stack: list[_Span] = []

    def fork(self) -> "SpanRecorder":
        """A recorder for another thread that writes into the same span
        list (``list.append`` is atomic) with its own parent stack."""
        return SpanRecorder(self._spans, self._ids)

    @contextlib.contextmanager
    def span(self, name: str, layer: str,
             unit: str | None = None) -> t.Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        record = _Span(next(self._ids), name, layer,
                       unit if unit is not None
                       else (parent.unit if parent else None),
                       parent.sid if parent else None, time.perf_counter())
        self._stack.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            self._spans.append(record)

    @property
    def spans(self) -> list[_Span]:
        return self._spans

    def durations(self, name: str) -> list[float]:
        """Seconds spent in every span called *name*."""
        return [s.end - s.start for s in self._spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer: each span's duration minus the part
        of it that its child spans cover."""
        children: dict[int, float] = {}
        for s in self._spans:
            if s.parent is not None:
                children[s.parent] = children.get(s.parent, 0.0) + (
                    s.end - s.start)
        totals: dict[str, float] = {}
        for s in self._spans:
            own = (s.end - s.start) - children.get(s.sid, 0.0)
            totals[s.layer] = totals.get(s.layer, 0.0) + max(0.0, own)
        return totals

    def write_jsonl(self, path: pathlib.Path) -> pathlib.Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s.start for s in self._spans), default=0.0)
        with path.open("w", encoding="utf-8") as fh:
            for s in sorted(self._spans, key=lambda s: (s.start, s.sid)):
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "layer": s.layer,
                    "parent": s.parent, "unit": s.unit,
                    "start_s": round(s.start - origin, 9),
                    "end_s": round(s.end - origin, 9),
                }) + "\n")
        return path


class NullRecorder:
    """The recorder of untraced runs: every span is the same no-op."""

    _NOOP = contextlib.nullcontext()

    def fork(self) -> "NullRecorder":
        return self

    def span(self, name: str, layer: str,
             unit: str | None = None) -> contextlib.nullcontext:
        return self._NOOP


OFF = NullRecorder()

Recorder = t.Union[SpanRecorder, NullRecorder]
