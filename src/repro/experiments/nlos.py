"""NLOS bias sweep: how consensus localization degrades with bias.

Sweeps the single-AP NLOS bias magnitude and compares the blind
trust-weighted fix (which averages the corrupted bearing in) against
the consensus fix (which detects and excludes it).  The interesting
regime starts at the drill's detectability floor (15°): below that, a
biased bearing is statistically indistinguishable from the honest
AoA-estimation noise of the synthetic pipeline (±8–11° at the high
band), so the sweep anchors at a clean baseline row instead of
sweeping sub-floor biases that no detector could separate.

``format_sweep_table`` renders the markdown table EXPERIMENTS.md
embeds.  No CI job regenerates that table; ``tests/experiments/
test_nlos_sweep.py`` pins the sweep's shape at reduced scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.faults.nlos import run_nlos_drill
from repro.obs.tracer import NULL_TRACER

#: Bias magnitudes swept by default — the detectability floor upward.
DEFAULT_BIASES: tuple[float, ...] = (15.0, 18.0, 22.0, 30.0)


@dataclass(frozen=True)
class NlosSweepPoint:
    """One bias magnitude's blind-vs-consensus comparison."""

    bias_deg: float
    clean_median_m: float
    blind_median_m: float
    consensus_median_m: float
    detection_rate: float | None
    false_flag_rate: float | None

    def to_dict(self) -> dict:
        return {
            "bias_deg": self.bias_deg,
            "clean_median_m": self.clean_median_m,
            "blind_median_m": self.blind_median_m,
            "consensus_median_m": self.consensus_median_m,
            "detection_rate": self.detection_rate,
            "false_flag_rate": self.false_flag_rate,
        }


@dataclass
class NlosSweepResult:
    """The full sweep plus the working point it ran at."""

    points: list[NlosSweepPoint] = field(default_factory=list)
    n_trials: int = 0
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "n_trials": self.n_trials,
            "seed": self.seed,
            "points": [point.to_dict() for point in self.points],
        }


def run_nlos_sweep(
    *,
    biases: tuple[float, ...] = DEFAULT_BIASES,
    n_trials: int = 10,
    seed: int = 0,
    workers: int = 0,
    config=None,
    tracer=NULL_TRACER,
    checkpoint_dir=None,
) -> NlosSweepResult:
    """Sweep single-AP NLOS bias and collect blind/consensus medians.

    Each bias point reruns the ``nlos_single_ap`` drill with the same
    seed, so the scenes, SNR draws, and honest measurements are
    identical across the sweep — the only variable is the corruption
    magnitude.  A bias-zero baseline row (clean fix, nothing to
    detect) is prepended from the first drill's clean statistics.

    With the defaults (10 trials per point, seed 0) this regenerates
    the bias-magnitude table of EXPERIMENTS.md's "Robustness — NLOS /
    measurement-domain corruption" section, rendered by
    :func:`format_sweep_table`.
    """
    if not biases:
        raise ConfigurationError("biases must be a non-empty sequence")
    if any(b < 15.0 for b in biases):
        raise ConfigurationError(
            f"swept biases must be >= 15 (the drill's detectability floor), got {biases}"
        )
    result = NlosSweepResult(n_trials=n_trials, seed=seed)
    with tracer.span("experiment", name="nlos_sweep", n_points=len(biases)):
        for bias in biases:
            drill = run_nlos_drill(
                "nlos_single_ap",
                n_trials=n_trials,
                bias_deg=float(bias),
                seed=seed,
                workers=workers,
                config=config,
                tracer=tracer,
                checkpoint_dir=checkpoint_dir,
            )
            criteria = drill.details
            if not result.points:
                # Baseline: no corruption — blind and consensus both see
                # honest measurements, so both sit at the clean median.
                result.points.append(
                    NlosSweepPoint(
                        bias_deg=0.0,
                        clean_median_m=criteria["clean_median_m"],
                        blind_median_m=criteria["clean_median_m"],
                        consensus_median_m=criteria["clean_median_m"],
                        detection_rate=None,
                        false_flag_rate=None,
                    )
                )
            result.points.append(
                NlosSweepPoint(
                    bias_deg=float(bias),
                    clean_median_m=criteria["clean_median_m"],
                    blind_median_m=criteria["blind_median_m"],
                    consensus_median_m=criteria["consensus_median_m"],
                    detection_rate=criteria["detection_rate"],
                    false_flag_rate=criteria["false_flag_rate"],
                )
            )
    return result


def format_sweep_table(result: NlosSweepResult) -> str:
    """Render the sweep as the markdown table EXPERIMENTS.md embeds."""
    lines = [
        "| Bias (°) | Blind median (m) | Consensus median (m) | Detection | False flags |",
        "| --- | --- | --- | --- | --- |",
    ]
    for point in result.points:
        detection = "—" if point.detection_rate is None else f"{point.detection_rate:.0%}"
        false_flags = (
            "—" if point.false_flag_rate is None else f"{point.false_flag_rate:.0%}"
        )
        label = "0 (clean)" if point.bias_deg == 0.0 else f"{point.bias_deg:g}"
        lines.append(
            f"| {label} | {point.blind_median_m:.2f} | "
            f"{point.consensus_median_m:.2f} | {detection} | {false_flags} |"
        )
    return "\n".join(lines)


def sweep_improvement(result: NlosSweepResult) -> float:
    """Median blind/consensus error ratio over the corrupted points."""
    ratios = [
        point.blind_median_m / point.consensus_median_m
        for point in result.points
        if point.bias_deg > 0.0 and point.consensus_median_m > 0.0
    ]
    return float(np.median(ratios)) if ratios else float("nan")
