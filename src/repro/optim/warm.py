"""Keyed warm-start state for the sparse solvers.

:class:`WarmStartState` stores prior solutions to seed later solves:

* **Keyed slots** — each slot holds one prior solution under a caller
  chosen key (``"<client>:<ap>"`` for the streaming service), so
  independent problem streams warm independently.
* **Shape-checked reads** — :meth:`get` returns ``None`` (a cold start)
  when the stored solution does not match the requested shape, so a
  changed grid or snapshot width can never poison a solve.
* **Plain data** — the slots are ndarrays, so the streaming service's
  snapshots encode each slot with :mod:`repro.serve.codec`.
* **Accounted** — ``hits`` / ``misses`` count how often a solve actually
  warmed, feeding the service metrics.

:func:`repro.optim.batch.solve_batch` accepts a state plus per-problem
keys (``warm_state=`` / ``warm_keys=``) for cross-batch carry-over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class WarmStartState:
    """Keyed store of prior solutions for warm starts."""

    slots: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Counters are bookkeeping, not identity: they stay out of the
        # dataclass fields so equality sees only the solutions.
        self.hits = 0
        self.misses = 0

    # -- access ------------------------------------------------------------

    def get(self, key: str, shape: tuple[int, ...] | None = None) -> np.ndarray | None:
        """The stored solution for ``key``, or ``None`` for a cold start.

        With ``shape`` given, a stored solution of any other shape is a
        miss — warming a solve with an incompatible iterate would crash
        it (or worse, silently corrupt it).
        """
        solution = self.slots.get(key)
        if solution is None or (shape is not None and solution.shape != tuple(shape)):
            self.misses += 1
            return None
        self.hits += 1
        return solution

    def put(self, key: str, solution: np.ndarray) -> None:
        """Store ``solution`` (copied) as the warm start for ``key``.

        Zeros are canonicalized (``-0.0`` becomes ``+0.0``: adding zero
        flips only the sign of zeros).  Soft-thresholding leaves ``-0.0``
        in most shrunk entries, which would make sparse-recovery
        solutions look dense to the snapshot codec's bit-level nonzero
        test; canonicalizing at the single write point keeps stored
        slots identical on the clean path and after a snapshot restore.
        """
        stored = np.array(solution, copy=True)
        if stored.dtype.kind in "fc":
            stored += 0
        self.slots[key] = stored

    def drop(self, key: str) -> None:
        """Forget one key (e.g. an evicted client session)."""
        self.slots.pop(key, None)

    def clear(self) -> None:
        self.slots.clear()

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.slots)

    def __contains__(self, key: str) -> bool:
        return key in self.slots

    @property
    def nbytes(self) -> int:
        return sum(value.nbytes for value in self.slots.values())
