"""Nested-span tracing with a zero-overhead disabled default.

A :class:`Tracer` records a tree of :class:`Span` records — name, wall
and CPU time, free-form attributes, parent linkage — around whatever
code blocks the caller wraps with :meth:`Tracer.span`.  Everything that
accepts a tracer defaults to :data:`NULL_TRACER`, whose ``span()``
returns one preallocated no-op context manager: with tracing disabled
the cost per instrumented block is a single attribute lookup and a
``with`` on a shared singleton — no Span objects, no clock reads.

Spans serialize to plain dicts (:meth:`Span.to_dict`), which is how the
batch runtime ships worker-side spans across the process boundary;
:meth:`Tracer.adopt` grafts such serialized spans into the parent
tracer's tree under the currently open span.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator


@dataclass
class Span:
    """One timed, attributed region of execution.

    Attributes
    ----------
    name:
        The region's label (e.g. ``"joint_spectrum"``, ``"solver"``).
    span_id / parent_id:
        Tree linkage within one tracer; ``parent_id`` is ``None`` for
        roots.
    start_s:
        Start offset in seconds relative to the owning tracer's epoch
        (its construction time).  Spans adopted from another process
        keep their own epoch — durations stay meaningful, offsets are
        only comparable within one origin.
    wall_s / cpu_s:
        Wall-clock and process-CPU seconds spent inside the region.
    attributes:
        Free-form JSON-serializable annotations (iteration counts,
        convergence traces, grid sizes, …).
    """

    name: str
    span_id: int
    parent_id: int | None
    start_s: float
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attributes: dict[str, Any] = field(default_factory=dict)

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to this span (merging over existing keys)."""
        self.attributes.update(attributes)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Span":
        return cls(
            name=payload["name"],
            span_id=int(payload["span_id"]),
            parent_id=None if payload.get("parent_id") is None else int(payload["parent_id"]),
            start_s=float(payload.get("start_s", 0.0)),
            wall_s=float(payload.get("wall_s", 0.0)),
            cpu_s=float(payload.get("cpu_s", 0.0)),
            attributes=dict(payload.get("attributes", {})),
        )


class _NullSpan:
    """The span yielded by a disabled tracer: every operation is a no-op."""

    __slots__ = ()

    def annotate(self, **attributes: Any) -> None:
        pass


class _NullSpanContext:
    """A reusable context manager yielding the shared null span."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """The zero-overhead disabled tracer.

    ``span()`` hands back one preallocated context manager, so code can
    be instrumented unconditionally without paying anything when tracing
    is off.  All recording methods are no-ops; exports are empty.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, /, **attributes: Any) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def annotate(self, **attributes: Any) -> None:
        pass

    def record(self, name: str, /, *, wall_s: float, cpu_s: float, **attributes: Any) -> None:
        pass

    def adopt(self, spans: Iterable[dict[str, Any]]) -> None:
        pass

    @property
    def spans(self) -> list[Span]:
        return []

    def to_dict(self) -> dict[str, Any]:
        return {"spans": []}


NULL_TRACER = NullTracer()


class Tracer:
    """Records a tree of nested :class:`Span` records.

    Use as::

        tracer = Tracer()
        with tracer.span("experiment", band="low") as span:
            with tracer.span("solver"):
                ...
            span.annotate(n_locations=20)
        tracer.export_json("trace.json")

    Spans nest by lexical ``with`` scope: the innermost open span is the
    parent of any span opened inside it.  The tracer is not thread-safe;
    the batch runtime gives each worker job its own tracer and merges
    the serialized spans afterwards (:meth:`adopt`).
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1
        self._epoch = time.perf_counter()

    @contextmanager
    def span(self, name: str, /, **attributes: Any) -> Iterator[Span]:
        """Open a child span of the innermost open span.

        ``name`` is positional-only so spans may carry a ``name=``
        attribute (e.g. ``span("experiment", name="snr_band")``).
        """
        record = Span(
            name=name,
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            start_s=time.perf_counter() - self._epoch,
            attributes=dict(attributes),
        )
        self._next_id += 1
        self.spans.append(record)
        self._stack.append(record)
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            yield record
        finally:
            record.wall_s = time.perf_counter() - wall_start
            record.cpu_s = time.process_time() - cpu_start
            self._stack.pop()

    @property
    def current_span(self) -> Span | None:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to the innermost open span (no-op outside one)."""
        if self._stack:
            self._stack[-1].annotate(**attributes)

    def record(self, name: str, /, *, wall_s: float, cpu_s: float, **attributes: Any) -> Span:
        """Add a closed child span of the innermost open span, timed by
        the caller: a region run once for several tracers (the batched
        fusion solve) bills each its share this way."""
        with self.span(name, **attributes) as record:
            pass
        record.start_s -= wall_s
        record.wall_s, record.cpu_s = wall_s, cpu_s
        return record

    def adopt(self, spans: Iterable[dict[str, Any]]) -> list[Span]:
        """Graft serialized spans (from another tracer/process) into this tree.

        Span ids are remapped onto this tracer's id space; spans whose
        parent is not part of the adopted batch are re-parented under
        the currently open span (or become roots).  Returns the adopted
        spans in their new identity.
        """
        records = [Span.from_dict(payload) for payload in spans]
        id_map: dict[int, int] = {}
        for record in records:
            id_map[record.span_id] = self._next_id
            self._next_id += 1
        local_parent = self._stack[-1].span_id if self._stack else None
        adopted = []
        for record in records:
            if record.parent_id in id_map:
                parent = id_map[record.parent_id]
            else:
                parent = local_parent
            grafted = Span(
                name=record.name,
                span_id=id_map[record.span_id],
                parent_id=parent,
                start_s=record.start_s,
                wall_s=record.wall_s,
                cpu_s=record.cpu_s,
                attributes=record.attributes,
            )
            self.spans.append(grafted)
            adopted.append(grafted)
        return adopted

    # -- queries -----------------------------------------------------------

    def find(self, name: str) -> list[Span]:
        """All recorded spans with the given name."""
        return [span for span in self.spans if span.name == name]

    def total_wall_s(self, name: str) -> float:
        """Summed wall seconds across every span with the given name."""
        return float(sum(span.wall_s for span in self.find(name)))

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per-name cost rollup: count, total wall/CPU seconds.

        The ``roarray report --telemetry`` cost table renders this.
        """
        rollup: dict[str, dict[str, float]] = {}
        for span in self.spans:
            entry = rollup.setdefault(
                span.name, {"count": 0, "wall_s": 0.0, "cpu_s": 0.0}
            )
            entry["count"] += 1
            entry["wall_s"] += span.wall_s
            entry["cpu_s"] += span.cpu_s
        return rollup

    # -- export ------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"spans": [span.to_dict() for span in self.spans]}

    def export_json(self, path: str) -> None:
        """Write the span tree to ``path`` as a JSON document (atomically)."""
        from repro.runtime.checkpoint import atomic_write

        atomic_write(path, self.to_dict())
