"""In-memory spans recorded from the benchmark's side of each layer boundary.

Nothing under ``src/`` is instrumented: a span opens around a call into
a public function (``popqc``, an executor's ``map``/``map_segments``,
the oracle, ``ServiceClient.optimize``) and closes when it returns.
Spans nest ``workload`` > ``circuit``/``job`` > ``core.popqc`` >
``parallel.map`` > ``oracles.call``; each carries its parent, the
request id it belongs to and counts taken at the same boundary.  They
stay in memory until the run ends and are then written as JSON.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Iterator, Optional


class Recorder:
    """Append-only span store; parents are tracked per thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        request: Optional[str] = None,
        parent: Optional[dict] = None,
        **counts,
    ) -> Iterator[dict]:
        """Record one span around the ``with`` body.

        The parent is the span open on this thread, or ``parent`` for
        the first span of a new thread.  ``request`` defaults to the
        parent's, so every span of one circuit or job shares its
        identifier.
        """
        stack = self._local.__dict__.setdefault("stack", [])
        if stack:
            parent = stack[-1]
        if request is None and parent is not None:
            request = parent["request"]
        span = {
            "name": name,
            "parent": parent["id"] if parent is not None else None,
            "request": request,
            "counts": counts,
            "end": None,
        }
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()

    def named(self, name: str) -> list[dict]:
        """All finished spans called ``name``, in start order."""
        return [s for s in self.spans if s["name"] == name]

    def as_json(self) -> list[dict]:
        """Spans with times rebased to the first span's start."""
        if not self.spans:
            return []
        t0 = min(s["start"] for s in self.spans)
        return [
            {**s, "start": s["start"] - t0, "end": s["end"] - t0}
            for s in self.spans
        ]


def duration(span: dict) -> float:
    """Wall seconds between a span's start and end."""
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: duration minus the part children cover.

    Children of one parent may overlap (jobs on concurrent
    connections), so the covered part is the union of the child
    intervals clipped to the parent, not their sum.
    """
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            lo = max(cursor, child["start"])
            hi = min(span["end"], child["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = duration(span) - covered
    return result


class TracedMap:
    """Executor proxy that records one ``parallel.map`` span per oracle map.

    Everything except ``map``/``map_segments`` is delegated to the real
    executor, so ``popqc``'s ``getattr``/``hasattr`` probes (transport
    label, counters snapshotted by ``record_transport``,
    ``last_serialization_time``) see exactly what they would without
    the proxy — including the *absence* of ``map_segments`` on
    :class:`~repro.parallel.SerialMap`.  Each call's segment list is
    kept as one round of :attr:`rounds`, the recorded stream the probes
    replay.
    """

    def __init__(self, real, recorder: Recorder) -> None:
        self._real = real
        self._recorder = recorder
        #: ``(request id, segments)`` of every oracle map, in call order.
        self.rounds: list[tuple[Optional[str], list]] = []

    def _record(self, segments, call):
        counts = {"segments": len(segments), "gates": sum(map(len, segments))}
        bytes_before = getattr(self._real, "result_bytes_returned", 0)
        with self._recorder.span("parallel.map", **counts) as span:
            self.rounds.append((span["request"], list(segments)))
            results = call()
        span["counts"]["bytes"] = (
            getattr(self._real, "result_bytes_returned", 0) - bytes_before
        )
        return results

    def map(self, fn, items):
        """Delegate ``map`` inside a span."""
        return self._record(items, lambda: self._real.map(fn, items))

    def _map_segments(self, oracle, segments):
        return self._record(
            segments, lambda: self._real.map_segments(oracle, segments)
        )

    def __getattr__(self, name: str):
        attr = getattr(self._real, name)  # AttributeError when the real one lacks it
        return self._map_segments if name == "map_segments" else attr


class TracedOracle:
    """In-process oracle wrapper: one ``oracles.call`` span per segment.

    Used only under :class:`~repro.parallel.SerialMap`; pool runs keep
    the plain oracle because no wrapper state crosses a process
    boundary, and get their oracle spans from a serial replay instead.
    """

    def __init__(self, oracle, recorder: Recorder) -> None:
        self._oracle = oracle
        self._recorder = recorder

    def __call__(self, segment):
        with self._recorder.span("oracles.call", gates=len(segment)) as span:
            out = self._oracle(segment)
            span["counts"]["gates_out"] = len(out)
        return out
