"""Size/deadline micro-batching of solve requests.

The service's throughput comes from :func:`repro.optim.solve_batch`,
which amortizes the dictionary products over many problems — but a
streaming ingest produces one problem at a time.  The
:class:`MicroBatcher` sits between them: solve requests accumulate in a
bounded pending set and a batch fires when either ``batch_size``
requests are waiting (throughput trigger) or the oldest request has
waited ``max_delay_s`` (latency trigger), so load determines the
operating point — full batches under pressure, prompt small batches
when idle.

The batcher is deliberately synchronous and clockless: callers pass
``now`` explicitly, which makes the trigger logic deterministic under
test and lets the service drive it from its injected clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.serve.codec import decode_array, encode_array


@dataclass(frozen=True)
class SolveRequest:
    """One pending sparse solve: a client/AP pair's current snapshot window.

    ``key`` doubles as the warm-start slot name
    (``"<client>:<ap>"``) so consecutive solves for the same pair chain
    through the service's :class:`~repro.optim.warm.WarmStartState`.
    """

    key: str
    client: str
    ap: str
    snapshots: np.ndarray = field(repr=False)  # (m, p) vectorized window
    packet_time_s: float
    rssi_dbm: float
    enqueued_at: float

    @property
    def width(self) -> int:
        """Snapshot count ``p`` — batches group by this for the MMV solve."""
        return int(self.snapshots.shape[1])

    def state_dict(self) -> dict:
        return {
            "key": self.key,
            "client": self.client,
            "ap": self.ap,
            "snapshots": encode_array(self.snapshots),
            "packet_time_s": self.packet_time_s,
            "rssi_dbm": self.rssi_dbm,
            "enqueued_at": self.enqueued_at,
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "SolveRequest":
        return cls(
            key=str(payload["key"]),
            client=str(payload["client"]),
            ap=str(payload["ap"]),
            snapshots=decode_array(payload["snapshots"]),
            packet_time_s=float(payload["packet_time_s"]),
            rssi_dbm=float(payload["rssi_dbm"]),
            enqueued_at=float(payload["enqueued_at"]),
        )


@dataclass(frozen=True)
class MicroBatch:
    """A fired batch and what fired it (``"size"``, ``"deadline"``, ``"flush"``)."""

    requests: tuple[SolveRequest, ...]
    trigger: str

    def __len__(self) -> int:
        return len(self.requests)


class MicroBatcher:
    """Bounded, coalescing pending set with size and deadline triggers.

    A second request for a key already pending *replaces* its payload
    (the newer window supersedes the older one) without consuming a new
    slot or resetting its deadline — a chatty client cannot starve the
    latency trigger or the queue.  ``offer`` returns ``False`` only
    when the pending set is full of *distinct* keys: that is genuine
    backpressure, and the service rejects the packet as
    ``"queue_full"``.
    """

    def __init__(
        self, *, batch_size: int = 16, max_delay_s: float = 0.05, max_pending: int = 4096
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        if max_delay_s < 0:
            raise ConfigurationError(f"max_delay_s must be >= 0, got {max_delay_s}")
        if max_pending < batch_size:
            raise ConfigurationError(
                f"max_pending ({max_pending}) must be >= batch_size ({batch_size})"
            )
        self.batch_size = batch_size
        self.max_delay_s = max_delay_s
        self.max_pending = max_pending
        # Insertion-ordered: the first entry is always the oldest
        # deadline (replacements keep the original position and time).
        self._pending: dict[str, SolveRequest] = {}
        self._deadlines: dict[str, float] = {}

    @property
    def pending(self) -> int:
        return len(self._pending)

    def offer(self, request: SolveRequest, now: float) -> bool:
        """Admit (or coalesce) a request; ``False`` means queue full."""
        if request.key in self._pending:
            self._pending[request.key] = request
            return True
        if len(self._pending) >= self.max_pending:
            return False
        self._pending[request.key] = request
        self._deadlines[request.key] = now
        return True

    def poll(self, now: float) -> MicroBatch | None:
        """The next due batch, or ``None`` when no trigger has fired.

        Call in a loop until ``None`` — under a backlog several size
        batches can be due at once.
        """
        if len(self._pending) >= self.batch_size:
            return self._take(self.batch_size, "size")
        if self._pending:
            oldest = next(iter(self._deadlines.values()))
            if now - oldest >= self.max_delay_s:
                return self._take(len(self._pending), "deadline")
        return None

    def flush(self) -> list[MicroBatch]:
        """Drain everything pending (shutdown), in batch-size chunks."""
        batches = []
        while self._pending:
            batches.append(self._take(min(self.batch_size, len(self._pending)), "flush"))
        return batches

    def _take(self, count: int, trigger: str) -> MicroBatch:
        keys = list(self._pending)[:count]
        requests = tuple(self._pending.pop(key) for key in keys)
        for key in keys:
            self._deadlines.pop(key, None)
        return MicroBatch(requests=requests, trigger=trigger)

    # -- snapshot support ----------------------------------------------------

    def state_dict(self) -> dict:
        """The pending backlog, in insertion order, losslessly.

        Insertion order *is* state: it determines which keys the next
        size-triggered batch takes, so the snapshot preserves it (dicts
        restore in the order entries are written).
        """
        return {
            "pending": [request.state_dict() for request in self._pending.values()],
            "deadlines": {key: self._deadlines[key] for key in self._deadlines},
        }

    def restore_state(self, payload: dict) -> None:
        self._pending = {}
        self._deadlines = {}
        for item in payload["pending"]:
            request = SolveRequest.from_state_dict(item)
            self._pending[request.key] = request
        for key, deadline in payload["deadlines"].items():
            self._deadlines[key] = float(deadline)
