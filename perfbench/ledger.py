"""In-memory span ledger for the benchmark's traced runs.

The benchmark never edits the program to trace it.  It times a layer by
replacing the module or class attribute the caller looks the name up on
(``repro.serve.service.solve_batch``, ``KroneckerJointOperator.matvec``,
...) with a timing wrapper for the length of the traced phase, and puts
the original back afterwards.

Spans stay in memory and :meth:`Ledger.write` dumps them when the run
ends.  A span's *self time* is its duration minus the time its child
spans cover; the self times of all spans add up to the traced wall time
the layers account for (``ledger.coverage``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict


class Ledger:
    """Spans, call counts and samples recorded during one traced phase."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: Finished spans as ``(layer, start, end, depth)``, in end order.
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        # One [start, child seconds] frame per open span.
        self._stack: list[list[float]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> list[float]:
        frame = [self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, layer: str, frame: list[float]) -> None:
        end = self.clock()
        self._stack.pop()
        duration = end - frame[0]
        self.self_s[layer] += duration - frame[1]
        self.total_s[layer] += duration
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append((layer, frame[0], end, len(self._stack)))

    @contextlib.contextmanager
    def span(self, layer: str):
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(layer, frame)

    def timed(self, layer: str, fn, *, before=None, after=None):
        """``fn`` wrapped in a ``layer`` span.

        ``before(args, kwargs)`` runs just before the span opens and its
        return value is handed to ``after(args, kwargs, result, token)``,
        which runs just after the span closes, so hook work is never
        billed to the layer.
        """
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            frame = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(layer, frame)
            if after is not None:
                after(args, kwargs, result, token)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, patches):
        """Wrap every ``(target, layer[, before, after])`` for the block.

        ``target`` is ``"module:attr"`` or ``"module:Class.attr"``: the
        place the caller resolves the name at call time.
        """
        restore = []
        try:
            for target, layer, *hooks in patches:
                owner, attr = resolve(target)
                original = owner.__dict__[attr]
                before, after = (list(hooks) + [None, None])[:2]
                setattr(owner, attr, self.timed(layer, original, before=before, after=after))
                restore.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def write(self, path) -> None:
        """Dump the spans and per-layer totals as one JSON document."""
        payload = {
            "layers": {
                layer: {
                    "self_s": self.self_s[layer],
                    "total_s": self.total_s[layer],
                    "calls": self.calls[layer],
                }
                for layer in sorted(self.self_s)
            },
            "spans": [list(span) for span in self.spans],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def resolve(target: str):
    """``"pkg.mod:Class.attr"`` → ``(Class, "attr")``; ``"pkg.mod:fn"`` → ``(module, "fn")``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if attr not in owner.__dict__:
        raise AttributeError(f"{target}: no attribute {attr!r} on {owner!r}")
    return owner, attr
