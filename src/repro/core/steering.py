"""Linearized steering dictionaries (paper Eq. 6 and Eq. 13/16).

The sparse-recovery formulation needs a *known* dictionary whose
columns are steering vectors evaluated on the sampling grid:

* **Spatial-only** (Eq. 6): ``S̃ ∈ ℂ^{M×Nθ}``, column i = s(θ̃_i) of
  Eq. 1.
* **Joint AoA&ToA** (Eq. 13/16): each column stacks the per-antenna,
  per-subcarrier phases ``Λ(θ)^m · Γ(τ)^l``.  With the measurement
  vectorized antenna-fastest (Eq. 15: csi₁,₁ csi₂,₁ csi₃,₁ … per
  subcarrier) the joint column is exactly the Kronecker product
  ``g(τ) ⊗ s(θ)``, so the full dictionary is ``kron(G, S̃)`` with
  ``G ∈ ℂ^{L×Nτ}`` the delay ramps — delay-major column ordering, as
  written in Eq. 16.

Dictionaries and their Lipschitz constants are cached per
configuration, because the evaluation sweeps re-solve against the same
dictionary thousands of times.
"""

from __future__ import annotations

import time

import numpy as np

from repro.channel.array import UniformLinearArray
from repro.channel.ofdm import SubcarrierLayout
from repro.core.grids import AngleGrid, DelayGrid
from repro.optim.linalg import estimate_lipschitz
from repro.optim.operators import KroneckerJointOperator


def angle_steering_dictionary(array: UniformLinearArray, grid: AngleGrid) -> np.ndarray:
    """Paper Eq. 6: ``(M, Nθ)`` dictionary of spatial steering vectors."""
    return array.steering_matrix(grid.angles_deg)


def delay_ramp_dictionary(layout: SubcarrierLayout, grid: DelayGrid) -> np.ndarray:
    """``(L, Nτ)`` dictionary of per-subcarrier delay phase ramps (Eq. 12)."""
    factors = layout.delay_phase_factor(grid.toas_s)[None, :]
    exponents = np.arange(layout.n_subcarriers)[:, None]
    return factors**exponents


def joint_steering_dictionary(
    array: UniformLinearArray,
    layout: SubcarrierLayout,
    angle_grid: AngleGrid,
    delay_grid: DelayGrid,
) -> np.ndarray:
    """Paper Eq. 16: the ``(M·L, Nθ·Nτ)`` joint dictionary.

    Rows are ordered antenna-fastest (matching
    :func:`vectorize_csi_matrix`); columns are ordered delay-major:
    column ``j·Nθ + i`` corresponds to angle ``i``, delay ``j``.
    """
    spatial = angle_steering_dictionary(array, angle_grid)
    temporal = delay_ramp_dictionary(layout, delay_grid)
    return np.kron(temporal, spatial)


def vectorize_csi_matrix(csi: np.ndarray) -> np.ndarray:
    """Paper Eq. 15: stack a CSI matrix antenna-fastest into a vector.

    For ``csi`` of shape ``(M, L)`` returns ``y`` of length ``M·L`` with
    ``y[l·M + m] = csi[m, l]``.
    """
    csi = np.asarray(csi)
    if csi.ndim != 2:
        raise ValueError(f"csi must be 2-D (antennas × subcarriers), got shape {csi.shape}")
    return csi.T.reshape(-1)


class SteeringCache:
    """Precomputed dictionaries + Lipschitz constants for one configuration.

    The cache is the unit of amortization for the evaluation harness: a
    single :class:`SteeringCache` serves every packet, every AP and
    every location that shares the (array, layout, grids) tuple.
    """

    def __init__(
        self,
        array: UniformLinearArray,
        layout: SubcarrierLayout,
        angle_grid: AngleGrid,
        delay_grid: DelayGrid,
    ) -> None:
        self.array = array
        self.layout = layout
        self.angle_grid = angle_grid
        self.delay_grid = delay_grid

        self._angle_dictionary: np.ndarray | None = None
        self._angle_lipschitz: float | None = None
        self._joint_dictionary: np.ndarray | None = None
        self._joint_operator: KroneckerJointOperator | None = None
        self._joint_lipschitz: float | None = None
        #: Seconds spent building each artifact, keyed by artifact name.
        #: Empty until the corresponding property is first accessed; the
        #: batch runtime reads this to report per-worker warmup cost.
        self.build_seconds: dict[str, float] = {}

    def _timed(self, name: str, build):
        start = time.perf_counter()
        artifact = build()
        self.build_seconds[name] = time.perf_counter() - start
        return artifact

    @property
    def angle_dictionary(self) -> np.ndarray:
        if self._angle_dictionary is None:
            self._angle_dictionary = self._timed(
                "angle_dictionary",
                lambda: angle_steering_dictionary(self.array, self.angle_grid),
            )
        return self._angle_dictionary

    @property
    def angle_lipschitz(self) -> float:
        if self._angle_lipschitz is None:
            self._angle_lipschitz = self._timed(
                "angle_lipschitz", lambda: estimate_lipschitz(self.angle_dictionary)
            )
        return self._angle_lipschitz

    @property
    def joint_dictionary(self) -> np.ndarray:
        if self._joint_dictionary is None:
            self._joint_dictionary = self._timed(
                "joint_dictionary",
                lambda: joint_steering_dictionary(
                    self.array, self.layout, self.angle_grid, self.delay_grid
                ),
            )
        return self._joint_dictionary

    @property
    def joint_operator(self) -> KroneckerJointOperator:
        """The Eq. 16 dictionary as an unmaterialized Kronecker operator.

        Numerically interchangeable with :attr:`joint_dictionary` (it
        represents the same matrix) but applies in two small matmuls —
        the form the hot solve paths use.
        """
        if self._joint_operator is None:
            self._joint_operator = self._timed(
                "joint_operator",
                lambda: KroneckerJointOperator(
                    delay_ramp_dictionary(self.layout, self.delay_grid),
                    self.angle_dictionary,
                ),
            )
        return self._joint_operator

    @property
    def joint_lipschitz(self) -> float:
        if self._joint_lipschitz is None:
            # Power iteration through the operator: identical math to the
            # dense estimate (same seed, same iterates up to rounding),
            # without materializing the Kronecker product.
            self._joint_lipschitz = self._timed(
                "joint_lipschitz", lambda: estimate_lipschitz(self.joint_operator)
            )
        return self._joint_lipschitz

    def warmup(self) -> "SteeringCache":
        """Build every artifact now (one-time per-process warmup).

        The batch runtime calls this from its worker initializer so the
        dictionaries and Lipschitz constants are built once per worker
        process rather than lazily inside the first job.  The dense
        joint dictionary is *not* built — the solve paths run on
        :attr:`joint_operator`, and the dense form stays lazy for
        callers that still want it.  Returns ``self`` for chaining.
        """
        _ = self.angle_dictionary
        _ = self.angle_lipschitz
        _ = self.joint_operator
        _ = self.joint_lipschitz
        return self

    @property
    def warmup_seconds(self) -> float:
        """Total seconds spent building artifacts so far."""
        return float(sum(self.build_seconds.values()))
