"""Multi-AP localization (paper §III-D, Eq. 19).

Given one direct-path AoA estimate per AP, ROArray searches a 10 cm
candidate grid over the room and picks the location minimizing the
RSSI-weighted squared AoA deviation

    min_p  Σᵢ Rᵢ · (ϕᵢ(p) − ϕ̂ᵢ)²

where ``ϕᵢ(p)`` is the angle AP *i* would see for a client at ``p``.
RSSI enters as a *relative* weight — stronger links are trusted more —
so we map dBm to linear received power and normalize; any monotone map
preserves the paper's intent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from repro.channel.geometry import AccessPoint, Room
from repro.exceptions import ConfigurationError, QuorumError


@dataclass(frozen=True)
class ApObservation:
    """One AP's contribution to localization."""

    access_point: AccessPoint
    aoa_deg: float
    rssi_dbm: float = -50.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.aoa_deg <= 180.0:
            raise ConfigurationError(f"aoa_deg must be in [0, 180], got {self.aoa_deg}")


@dataclass(frozen=True)
class LocalizationResult:
    """The located position and the residual cost at the optimum."""

    position: tuple[float, float]
    cost: float

    def error_to(self, true_position: tuple[float, float]) -> float:
        """Euclidean localization error in meters."""
        dx = self.position[0] - true_position[0]
        dy = self.position[1] - true_position[1]
        return float(np.hypot(dx, dy))


def rssi_weights(rssi_dbm: np.ndarray) -> np.ndarray:
    """Normalized linear-power weights from dBm RSSIs.

    The strongest AP gets the largest weight; weights sum to 1.  RSSIs
    are first clipped to a 30 dB dynamic range below the best link so a
    single deeply faded AP cannot be assigned a numerically zero weight.
    """
    rssi_dbm = np.asarray(rssi_dbm, dtype=float)
    if rssi_dbm.size == 0:
        raise ConfigurationError("need at least one RSSI")
    clipped = np.maximum(rssi_dbm, rssi_dbm.max() - 30.0)
    linear = 10.0 ** (clipped / 10.0)
    return linear / linear.sum()


def predicted_aoa_grid(
    access_point: AccessPoint, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """AoA (degrees) AP would observe for a client at each (x, y) grid cell.

    Returns an array of shape ``(len(xs), len(ys))``.
    """
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    dx = gx - access_point.position[0]
    dy = gy - access_point.position[1]
    distance = np.hypot(dx, dy)
    distance = np.where(distance == 0, np.finfo(float).eps, distance)
    axis = access_point.axis_unit
    cosine = np.clip((dx * axis[0] + dy * axis[1]) / distance, -1.0, 1.0)
    return np.rad2deg(np.arccos(cosine))


def candidate_axes(room: Room, resolution_m: float) -> tuple[np.ndarray, np.ndarray]:
    """The x and y coordinates of the room's candidate grid."""
    xs = np.arange(0.0, room.width + resolution_m / 2, resolution_m)
    ys = np.arange(0.0, room.depth + resolution_m / 2, resolution_m)
    return xs, ys


def room_aoa_grid(access_point: AccessPoint, room: Room, resolution_m: float) -> np.ndarray:
    """:func:`predicted_aoa_grid` over the room's candidate grid, read-only.

    The grid depends only on the AP's position and axis, the room size
    and the resolution, so it is built once per combination and shared
    by every fix.
    """
    return _room_aoa_grid(
        tuple(float(v) for v in access_point.position),
        float(access_point.axis_direction_deg),
        float(room.width),
        float(room.depth),
        float(resolution_m),
    )


@lru_cache(maxsize=16)
def _room_aoa_grid(position, axis_direction_deg, width, depth, resolution_m) -> np.ndarray:
    xs, ys = candidate_axes(Room(width, depth), resolution_m)
    grid = predicted_aoa_grid(AccessPoint(position, axis_direction_deg), xs, ys)
    grid.flags.writeable = False
    return grid


def localize_weighted_aoa(
    observations: list[ApObservation],
    room: Room,
    *,
    resolution_m: float = 0.1,
    weights: np.ndarray | list[float] | None = None,
) -> LocalizationResult:
    """Paper Eq. 19: weighted AoA grid search over the room.

    Parameters
    ----------
    observations:
        Direct-path AoA + RSSI per AP; at least two APs are required for
        an unambiguous fix with a 1-D angle each.
    resolution_m:
        Candidate grid pitch (the paper uses 10 cm).
    weights:
        Optional per-observation weights replacing the default RSSI
        weighting — non-negative with a positive sum, normalized
        internally.  :func:`localize_consensus` passes RSSI × trust
        products through here.
    """
    if len(observations) < 2:
        raise ConfigurationError(f"localization needs >= 2 APs, got {len(observations)}")
    if resolution_m <= 0:
        raise ConfigurationError(f"resolution must be positive, got {resolution_m}")

    xs, ys = candidate_axes(room, resolution_m)

    if weights is None:
        weights = rssi_weights(np.array([obs.rssi_dbm for obs in observations]))
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(observations),):
            raise ConfigurationError(
                f"weights must have shape ({len(observations)},), got {weights.shape}"
            )
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ConfigurationError("weights must be finite and non-negative")
        total = weights.sum()
        if total <= 0:
            raise ConfigurationError("weights must have a positive sum")
        weights = weights / total
    cost = np.zeros((xs.size, ys.size))
    for weight, obs in zip(weights, observations):
        predicted = room_aoa_grid(obs.access_point, room, resolution_m)
        cost += weight * (predicted - obs.aoa_deg) ** 2

    best = int(np.argmin(cost))
    i, j = np.unravel_index(best, cost.shape)
    return LocalizationResult(position=(float(xs[i]), float(ys[j])), cost=float(cost[i, j]))


# ---------------------------------------------------------------------------
# Degraded-mode localization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DroppedAp:
    """One AP excluded from a fix, with the reason it was dropped."""

    name: str
    reason: str

    def to_dict(self) -> dict:
        return {"name": self.name, "reason": self.reason}


#: Angular-consistency scale (degrees) for the confidence score: a fix
#: whose RSSI-weighted RMS AoA deviation reaches this is trusted half
#: as much as a perfectly consistent one.
_CONFIDENCE_ANGLE_SCALE_DEG = 10.0


@dataclass(frozen=True)
class DegradedResult:
    """A localization fix that survived AP loss — data, not an exception.

    Attributes
    ----------
    position / cost:
        As in :class:`LocalizationResult` (Eq. 19 on the survivors,
        with the RSSI weights renormalized over them).
    confidence:
        A score in (0, 1]: the surviving-AP fraction times an
        angular-consistency factor (how well the survivors' AoAs agree
        at the optimum).  A full-quorum, self-consistent fix scores
        near 1; losing APs or disagreeing survivors pull it down.
    used_aps / dropped_aps:
        Which APs contributed and which were excluded (with reasons).
    quorum:
        The minimum surviving-AP count this fix was required to meet.
    degraded:
        ``True`` when any AP was dropped.
    """

    position: tuple[float, float]
    cost: float
    confidence: float
    used_aps: tuple[str, ...]
    dropped_aps: tuple[DroppedAp, ...]
    quorum: int
    degraded: bool

    def error_to(self, true_position: tuple[float, float]) -> float:
        """Euclidean localization error in meters."""
        dx = self.position[0] - true_position[0]
        dy = self.position[1] - true_position[1]
        return float(np.hypot(dx, dy))

    def to_dict(self) -> dict:
        return {
            "position": [self.position[0], self.position[1]],
            "cost": self.cost,
            "confidence": self.confidence,
            "used_aps": list(self.used_aps),
            "dropped_aps": [ap.to_dict() for ap in self.dropped_aps],
            "quorum": self.quorum,
            "degraded": self.degraded,
        }


def localize_robust(
    observations: list[ApObservation],
    room: Room,
    *,
    dropped: list[DroppedAp] | tuple[DroppedAp, ...] = (),
    min_quorum: int = 2,
    resolution_m: float = 0.1,
    trust: Mapping[str, float] | None = None,
) -> DegradedResult:
    """Eq. 19 over the surviving APs, returning a scored fix.

    ``observations`` holds the APs that survived (outages, validation
    rejections and solver failures already removed — ``dropped``
    documents those).  RSSI weights renormalize over the survivors
    automatically, so the strongest remaining links dominate exactly as
    in the full-quorum fix.

    ``trust`` optionally scales each AP's RSSI weight by a per-AP trust
    factor in [0, 1] (APs missing from the mapping keep factor 1).  This
    is the soft counterpart of ``dropped``: a drop removes an AP from
    the fix entirely and is documented with a reason, while a low trust
    keeps the AP in quorum but shrinks its influence — consensus
    localization (:func:`localize_consensus`) computes these factors
    from NLOS/corruption evidence.

    Raises
    ------
    QuorumError
        When fewer than ``min_quorum`` observations remain (and never
        otherwise — below-quorum is the *only* condition degraded-mode
        localization treats as fatal).
    """
    if min_quorum < 2:
        raise ConfigurationError(f"min_quorum must be >= 2, got {min_quorum}")
    dropped = tuple(dropped)
    n_total = len(observations) + len(dropped)
    if len(observations) < min_quorum:
        reasons = ", ".join(f"{ap.name}: {ap.reason}" for ap in dropped) or "none dropped"
        raise QuorumError(
            f"{len(observations)} of {n_total} APs survived, below quorum "
            f"{min_quorum} ({reasons})"
        )
    weights = None
    if trust is not None:
        factors = np.array(
            [float(trust.get(obs.access_point.name, 1.0)) for obs in observations]
        )
        if np.any(factors < 0) or not np.all(np.isfinite(factors)):
            raise ConfigurationError("trust factors must be finite and non-negative")
        base = rssi_weights(np.array([obs.rssi_dbm for obs in observations]))
        weights = base * factors
        if weights.sum() <= 0:
            # Every AP fully distrusted: fall back to plain RSSI weights
            # rather than failing — quorum, not trust, is the fatal line.
            weights = base
    located = localize_weighted_aoa(
        observations, room, resolution_m=resolution_m, weights=weights
    )
    survival = len(observations) / n_total if n_total else 1.0
    # located.cost is the RSSI-weighted mean squared AoA deviation
    # (weights sum to 1), so its square root is an RMS angle in degrees.
    consistency = 1.0 / (1.0 + np.sqrt(max(located.cost, 0.0)) / _CONFIDENCE_ANGLE_SCALE_DEG)
    confidence = float(np.clip(survival * consistency, 0.0, 1.0))
    return DegradedResult(
        position=located.position,
        cost=located.cost,
        confidence=confidence,
        used_aps=tuple(obs.access_point.name for obs in observations),
        dropped_aps=dropped,
        quorum=min_quorum,
        degraded=bool(dropped),
    )


# ---------------------------------------------------------------------------
# NLOS/corruption-aware consensus localization
# ---------------------------------------------------------------------------


#: Trust below this flags an AP as NLOS/corrupted in consensus fixes.
TRUST_THRESHOLD = 0.5

#: Consensus-disagreement scale (degrees): an AP whose AoA sits this far
#: from the consensus prediction loses ~63% of its trust (e^{-1}).
_TRUST_ANGLE_SCALE_DEG = 10.0

#: Outlier-fraction slack: solver-attributed corruption energy below
#: this fraction of the measurement is treated as noise, not evidence.
_OUTLIER_FRACTION_FLOOR = 0.1
_OUTLIER_FRACTION_GAIN = 2.0

#: Peak-dispersion slack: spectra keep this much energy outside the
#: direct-path lobe even in clean multipath, so only the excess counts.
_DISPERSION_FLOOR = 0.35
_DISPERSION_GAIN = 2.0


def peak_dispersion(
    angles_deg: np.ndarray, power: np.ndarray, *, window_deg: float = 10.0
) -> float:
    """Fraction of spectrum energy outside ±``window_deg`` of the peak.

    Near zero for a clean single-lobe spectrum; grows toward one as
    multipath/NLOS smears energy across the angle grid.  An identically
    zero spectrum is maximally uninformative and scores 1.
    """
    angles_deg = np.asarray(angles_deg, dtype=float)
    power = np.asarray(power, dtype=float)
    if angles_deg.shape != power.shape or angles_deg.ndim != 1:
        raise ConfigurationError(
            f"angle grid {angles_deg.shape} and power {power.shape} must be equal 1-D shapes"
        )
    if window_deg <= 0:
        raise ConfigurationError(f"window_deg must be positive, got {window_deg}")
    total = float(power.sum())
    if total <= 0:
        return 1.0
    peak_angle = angles_deg[int(np.argmax(power))]
    inside = float(power[np.abs(angles_deg - peak_angle) <= window_deg].sum())
    return float(np.clip(1.0 - inside / total, 0.0, 1.0))


@dataclass(frozen=True)
class ApEvidence:
    """Per-AP solver-side corruption evidence feeding trust scoring.

    Attributes
    ----------
    outlier_fraction:
        ``‖e‖²/‖y‖²`` from the outlier-augmented solve
        (:class:`~repro.optim.robust.RobustSolverResult`); near zero on
        clean links.
    peak_dispersion:
        Angle-spectrum energy spread from :func:`peak_dispersion`;
        NLOS-smeared spectra score high.
    """

    outlier_fraction: float = 0.0
    peak_dispersion: float = 0.0

    def __post_init__(self) -> None:
        for label, value in (
            ("outlier_fraction", self.outlier_fraction),
            ("peak_dispersion", self.peak_dispersion),
        ):
            if not np.isfinite(value) or value < 0:
                raise ConfigurationError(f"{label} must be finite and >= 0, got {value}")

    def to_dict(self) -> dict:
        return {
            "outlier_fraction": float(self.outlier_fraction),
            "peak_dispersion": float(self.peak_dispersion),
        }


@dataclass(frozen=True)
class ApTrustScore:
    """Fused trust verdict for one AP against a consensus fix."""

    name: str
    trust: float
    consensus_residual_deg: float
    outlier_fraction: float
    peak_dispersion: float

    @property
    def trusted(self) -> bool:
        return self.trust >= TRUST_THRESHOLD

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trust": self.trust,
            "consensus_residual_deg": self.consensus_residual_deg,
            "outlier_fraction": self.outlier_fraction,
            "peak_dispersion": self.peak_dispersion,
            "trusted": self.trusted,
        }


def score_ap_trust(
    consensus_residual_deg: float, evidence: ApEvidence | None = None
) -> float:
    """Fuse consensus disagreement with solver evidence into trust ∈ (0, 1].

    Three multiplicative factors, each 1 when its signal is clean:

    * ``exp(−(r/10°)²)`` — AoA-vs-consensus disagreement (the dominant
      signal; crosses :data:`TRUST_THRESHOLD` near 8.3°);
    * ``exp(−2·max(0, outlier_fraction − 0.1))`` — corruption energy the
      augmented solver pulled out of the measurement;
    * ``exp(−2·max(0, dispersion − 0.35))`` — NLOS-style spectrum smear.
    """
    if evidence is None:
        evidence = ApEvidence()
    residual = abs(float(consensus_residual_deg)) / _TRUST_ANGLE_SCALE_DEG
    agreement = np.exp(-(residual**2))
    outlier = np.exp(
        -_OUTLIER_FRACTION_GAIN
        * max(0.0, evidence.outlier_fraction - _OUTLIER_FRACTION_FLOOR)
    )
    dispersion = np.exp(
        -_DISPERSION_GAIN * max(0.0, evidence.peak_dispersion - _DISPERSION_FLOOR)
    )
    return float(np.clip(agreement * outlier * dispersion, 0.0, 1.0))


@dataclass(frozen=True)
class ConsensusResult:
    """A consensus fix with per-AP trust diagnostics.

    Field-compatible with :class:`DegradedResult` (position, cost,
    confidence, used/dropped APs, quorum, degraded) plus the
    contamination diagnostics consensus localization adds.

    Attributes
    ----------
    trust_scores:
        One :class:`ApTrustScore` per *input* observation (including APs
        excluded from the final fix), in input order.
    contaminated:
        ``True`` when any AP scored below :data:`TRUST_THRESHOLD` or
        fewer than three APs (all of them, with only two) mutually
        supported any hypothesis.
    consensus_rms_deg:
        Unweighted RMS AoA deviation of the winning hypothesis' inlier
        set at that hypothesis' optimum — the RANSAC consistency the
        fix was built on.
    n_subsets_searched:
        How many minimal-sample hypotheses (AP pairs) the search
        evaluated.
    """

    position: tuple[float, float]
    cost: float
    confidence: float
    used_aps: tuple[str, ...]
    dropped_aps: tuple[DroppedAp, ...]
    quorum: int
    degraded: bool
    trust_scores: tuple[ApTrustScore, ...]
    contaminated: bool
    consensus_rms_deg: float
    n_subsets_searched: int

    def error_to(self, true_position: tuple[float, float]) -> float:
        """Euclidean localization error in meters."""
        dx = self.position[0] - true_position[0]
        dy = self.position[1] - true_position[1]
        return float(np.hypot(dx, dy))

    def trust_for(self, name: str) -> float:
        for score in self.trust_scores:
            if score.name == name:
                return score.trust
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "position": [self.position[0], self.position[1]],
            "cost": self.cost,
            "confidence": self.confidence,
            "used_aps": list(self.used_aps),
            "dropped_aps": [ap.to_dict() for ap in self.dropped_aps],
            "quorum": self.quorum,
            "degraded": self.degraded,
            "trust_scores": [score.to_dict() for score in self.trust_scores],
            "contaminated": self.contaminated,
            "consensus_rms_deg": self.consensus_rms_deg,
            "n_subsets_searched": self.n_subsets_searched,
        }


def localize_consensus(
    observations: list[ApObservation],
    room: Room,
    *,
    evidence: Mapping[str, ApEvidence] | None = None,
    dropped: list[DroppedAp] | tuple[DroppedAp, ...] = (),
    min_quorum: int = 2,
    resolution_m: float = 0.1,
    inlier_rms_deg: float = 8.0,
    trust_threshold: float = TRUST_THRESHOLD,
) -> ConsensusResult:
    """RANSAC-style consensus fix that survives NLOS-biased APs.

    A single NLOS AP reports a *plausible* AoA — shifted, not garbage —
    so the RSSI-weighted fix absorbs the bias instead of rejecting it.
    Consensus localization searches AP subsets for mutual consistency,
    scores every AP's trust against the fix its peers agree on (fusing
    disagreement with the solver evidence in ``evidence``), and
    re-weights the final fix by RSSI × trust.

    Procedure (fully deterministic — hypotheses are enumerated, not
    sampled):

    1. *Hypothesis search*: every AP pair is a minimal sample — two
       bearing rays pin a position.  Each pair's Eq. 19 optimum is
       scored by *support*: how many APs (pair included) land within
       ``inlier_rms_deg`` of it.  The best-supported hypothesis wins
       (ties: smaller inlier RMS, then enumeration order).  Scoring
       support against minimal fits is what defeats leverage: a fix
       computed *with* the biased AP absorbs even a 15° bias into a few
       degrees of residual spread, but a biased AP can only win support
       by dragging a two-ray intersection somewhere the honest majority
       happens to agree with — which an 8° gate makes geometrically
       implausible.
    2. *Detection*: refit over the winning inlier set and score every
       AP's :func:`score_ap_trust` against that fix, fusing the
       residual with the solver evidence in ``evidence``.
    3. *Restoration + final fix*: refit with weights RSSI × trust over
       the trusted APs (the inlier set when fewer than ``min_quorum``
       remain), re-score everyone against that fix, and iterate the
       selection to a fixed point — an honest AP the gate clipped
       recovers, the biased AP stays excluded.

    APs excluded from the final fix are documented as ``dropped_aps``
    with an ``untrusted`` reason alongside any upstream ``dropped``
    (hard failures: outages, validation, solver errors).

    Raises
    ------
    QuorumError
        When fewer than ``min_quorum`` observations remain.
    """
    if min_quorum < 2:
        raise ConfigurationError(f"min_quorum must be >= 2, got {min_quorum}")
    if inlier_rms_deg <= 0:
        raise ConfigurationError(f"inlier_rms_deg must be positive, got {inlier_rms_deg}")
    dropped = tuple(dropped)
    n_total = len(observations) + len(dropped)
    if len(observations) < min_quorum:
        reasons = ", ".join(f"{ap.name}: {ap.reason}" for ap in dropped) or "none dropped"
        raise QuorumError(
            f"{len(observations)} of {n_total} APs survived, below quorum "
            f"{min_quorum} ({reasons})"
        )
    evidence = dict(evidence or {})

    xs, ys = candidate_axes(room, resolution_m)
    # Each AP's squared AoA deviation over the whole candidate grid,
    # computed once; every subset cost is then a cheap weighted sum.
    squared_dev = [
        (room_aoa_grid(obs.access_point, room, resolution_m) - obs.aoa_deg) ** 2
        for obs in observations
    ]
    base_weights = rssi_weights(np.array([obs.rssi_dbm for obs in observations]))

    n = len(observations)
    evidence_per_ap = [evidence.get(obs.access_point.name) for obs in observations]

    def trust_from_residuals(residuals: np.ndarray) -> np.ndarray:
        return np.array(
            [
                score_ap_trust(residuals[index], evidence_per_ap[index])
                for index in range(n)
            ]
        )

    def refit(indices: list[int], trust: np.ndarray) -> tuple[tuple[int, int], float]:
        weights = np.array(
            [base_weights[index] * max(trust[index], 1e-12) for index in indices]
        )
        weights = weights / weights.sum()
        cost = np.zeros((xs.size, ys.size))
        for weight, index in zip(weights, indices):
            cost += weight * squared_dev[index]
        i, j = np.unravel_index(int(np.argmin(cost)), cost.shape)
        return (int(i), int(j)), float(cost[i, j])

    def residuals_at(cell: tuple[int, int]) -> np.ndarray:
        return np.array(
            [float(np.sqrt(squared_dev[index][cell])) for index in range(n)]
        )

    # Stage 1 — hypothesis search over minimal samples.  Two bearing
    # rays intersect at one point, so every AP pair proposes a fix.
    # Judging each AP against fixes it took no part in is what defeats
    # leverage: the full-set grid optimum absorbs even a 15° single-AP
    # bias into a few degrees of residual spread across all APs, hiding
    # the culprit.  A hypothesis' support is the sum of its inliers'
    # evidence priors (trust at zero residual): an AP whose own trace
    # already shows corruption (outlier energy, spectrum smear) cannot
    # recruit a coalition on equal terms with clean APs — the decisive
    # tie-breaker when honest APs split across the gate.  The gate is
    # deliberately *hard*: graded (MSAC-style) scoring was tried and
    # re-admits leverage, because a compromise fix that pulls the
    # corrupted AP's residual below saturation can beat the honest fix
    # on total cost.
    ones = np.ones(n)
    priors = np.array(
        [score_ap_trust(0.0, evidence_per_ap[index]) for index in range(n)]
    )
    n_searched = 0
    best_inliers: list[int] | None = None
    best_support = -1.0
    best_rms = float("inf")
    for pair in itertools.combinations(range(n), 2):
        cell, _ = refit(list(pair), ones)
        residuals = residuals_at(cell)
        inliers = [index for index in range(n) if residuals[index] <= inlier_rms_deg]
        support = float(priors[inliers].sum())
        rms = (
            float(np.sqrt(np.mean(residuals[inliers] ** 2)))
            if inliers
            else float("inf")
        )
        n_searched += 1
        if best_inliers is None or (support, -rms) > (best_support, -best_rms):
            best_inliers, best_support, best_rms = inliers, support, rms
    if not best_inliers:
        # Not even a pair agrees with its own fit (intersections forced
        # outside the room): degrade to the full set instead of failing.
        best_inliers = list(range(n))
        best_rms = float("inf")
    chosen = best_inliers
    support = len(chosen)
    # Fewer than three mutually consistent APs means the "consensus" is
    # just a pair agreeing with itself — with more APs available, that
    # is contamination, not consensus.
    no_consensus = support < min(n, min_quorum + 1)

    # Stage 2 — detection: score everyone against the fix the inlier
    # set agrees on, fusing residuals with the solver evidence.
    cell, final_cost = refit(chosen, ones)
    final_residuals = residuals_at(cell)
    trust = trust_from_residuals(final_residuals)

    # Stage 3 — restoration and the final fix: refit over the trusted
    # set and re-score everyone against that fix, iterating the
    # selection to a fixed point.  An honest AP the inlier gate clipped
    # sits close to the trusted-set fix and recovers; a biased AP's
    # full residual keeps it excluded.
    selection: list[int] | None = None
    keep = list(chosen)
    for _ in range(4):
        keep = [index for index in range(n) if trust[index] >= trust_threshold]
        if len(keep) < min_quorum:
            keep = list(chosen)
        cell, final_cost = refit(keep, trust)
        final_residuals = residuals_at(cell)
        trust = trust_from_residuals(final_residuals)
        if keep == selection:
            break
        selection = keep

    final_indices = keep
    trust_scores = tuple(
        ApTrustScore(
            name=observations[index].access_point.name,
            trust=float(trust[index]),
            consensus_residual_deg=float(final_residuals[index]),
            outlier_fraction=(
                evidence_per_ap[index].outlier_fraction if evidence_per_ap[index] else 0.0
            ),
            peak_dispersion=(
                evidence_per_ap[index].peak_dispersion if evidence_per_ap[index] else 0.0
            ),
        )
        for index in range(n)
    )
    final_obs = [observations[index] for index in final_indices]
    located = LocalizationResult(
        position=(float(xs[cell[0]]), float(ys[cell[1]])), cost=final_cost
    )

    excluded = [
        DroppedAp(
            name=trust_scores[index].name,
            reason=f"untrusted (trust={trust_scores[index].trust:.2f})",
        )
        for index in range(n)
        if index not in final_indices
    ]
    all_dropped = dropped + tuple(excluded)
    used = tuple(obs.access_point.name for obs in final_obs)
    survival = len(final_obs) / n_total if n_total else 1.0
    consistency = 1.0 / (
        1.0 + np.sqrt(max(located.cost, 0.0)) / _CONFIDENCE_ANGLE_SCALE_DEG
    )
    mean_trust = float(np.mean([trust_scores[index].trust for index in final_indices]))
    confidence = float(np.clip(survival * consistency * mean_trust, 0.0, 1.0))
    contaminated = no_consensus or any(not score.trusted for score in trust_scores)
    return ConsensusResult(
        position=located.position,
        cost=located.cost,
        confidence=confidence,
        used_aps=used,
        dropped_aps=all_dropped,
        quorum=min_quorum,
        degraded=bool(all_dropped),
        trust_scores=trust_scores,
        contaminated=contaminated,
        consensus_rms_deg=best_rms,
        n_subsets_searched=n_searched,
    )
