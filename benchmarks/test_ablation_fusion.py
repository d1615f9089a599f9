"""Ablation — what multi-packet fusion and delay alignment each buy.

Paper §III-D argues coherent fusion improves robustness; Fig. 4 shows
why naive fusion would fail (per-packet detection delay).  This bench
isolates the two mechanisms at low SNR:

* single packet (no fusion),
* fusion without delay alignment (joint-support assumption broken),
* full ROArray fusion (align + SVD + ℓ2,1).
"""

import numpy as np
import pytest

from repro.channel.csi import CsiSynthesizer
from repro.channel.impairments import ImpairmentModel
from repro.channel.paths import random_profile
from repro.core.direct_path import identify_direct_path
from repro.core.fusion import fuse_packets
from repro.core.joint import estimate_joint_spectrum
from repro.core.pipeline import RoArrayEstimator
from repro.experiments.runner import evaluation_roarray_config

N_TRIALS = 8
SNR_DB = 0.0


def run_ablation():
    estimator = RoArrayEstimator(config=evaluation_roarray_config())
    cache = estimator.cache
    errors = {"single packet": [], "fusion w/o alignment": [], "full fusion": []}
    for trial in range(N_TRIALS):
        rng = np.random.default_rng(trial)
        true_aoa = float(rng.uniform(30.0, 150.0))
        profile = random_profile(rng, n_paths=4, direct_aoa_deg=true_aoa)
        synthesizer = CsiSynthesizer(
            estimator.array,
            estimator.layout,
            ImpairmentModel(detection_delay_range_s=200e-9),
            seed=trial,
        )
        trace = synthesizer.packets(profile, n_packets=12, snr_db=SNR_DB, rng=rng)

        single, _ = estimate_joint_spectrum(trace.packet(0), cache)
        ((unaligned, _),) = fuse_packets([trace.csi], cache, align_delays=False)
        ((full, _),) = fuse_packets([trace.csi], cache, align_delays=True)
        for label, spectrum in [
            ("single packet", single),
            ("fusion w/o alignment", unaligned),
            ("full fusion", full),
        ]:
            direct = identify_direct_path(spectrum, peak_floor=0.3, max_paths=6)
            errors[label].append(abs(direct.aoa_deg - true_aoa))
    return {label: float(np.median(values)) for label, values in errors.items()}


@pytest.mark.benchmark(group="ablation")
def test_ablation_fusion_and_alignment(benchmark):
    medians = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    print(f"\n=== Ablation: fusion mechanisms at {SNR_DB:.0f} dB SNR ===")
    for label, median in medians.items():
        print(f"{label:>22}: median direct-AoA error {median:5.1f}°")

    # Full fusion must beat the single packet at this SNR, and must not
    # be worse than skipping alignment.
    assert medians["full fusion"] <= medians["single packet"]
    assert medians["full fusion"] <= medians["fusion w/o alignment"] + 1.0
