"""Ablation — ℓ1 sparse recovery vs OMP vs 2-D MUSIC on identical scenes.

The paper's core design decision is ℓ1 convex recovery rather than
greedy pursuit or subspace methods.  This bench runs all three
estimators on the same joint (AoA, ToA) measurements across SNRs and
reports the median direct-path AoA error of each.
"""

import numpy as np
import pytest

from repro.baselines.spotfi import SpotFiConfig, SpotFiEstimator, smoothed_csi_matrix
from repro.channel.csi import CsiSynthesizer
from repro.channel.impairments import ImpairmentModel
from repro.channel.paths import random_profile
from repro.core.direct_path import identify_direct_path
from repro.core.joint import coefficients_to_joint_power, estimate_joint_spectrum
from repro.core.pipeline import RoArrayEstimator
from repro.core.steering import vectorize_csi_matrix
from repro.experiments.runner import evaluation_roarray_config
from repro.optim import solve_omp
from repro.spectral.spectrum import JointSpectrum

N_TRIALS = 10
SNRS_DB = (15.0, 2.0)


def run_ablation():
    estimator = RoArrayEstimator(config=evaluation_roarray_config())
    cache = estimator.cache
    music = SpotFiEstimator(
        estimator.array,
        estimator.layout,
        SpotFiConfig(angle_grid=cache.angle_grid, delay_grid=cache.delay_grid, model_order=5),
    )

    results = {}
    for snr_db in SNRS_DB:
        errors = {
            "l1 (ROArray)": [],
            "OMP (K=2)": [],
            "OMP (K=5)": [],
            "OMP (K=10)": [],
            "2D MUSIC": [],
        }
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(100 + trial)
            true_aoa = float(rng.uniform(30.0, 150.0))
            blockage = 6.0 if snr_db <= 2.0 else 0.0
            profile = random_profile(
                rng, n_paths=4, direct_aoa_deg=true_aoa
            ).with_direct_attenuation(blockage)
            synthesizer = CsiSynthesizer(
                estimator.array, estimator.layout, ImpairmentModel(), seed=trial
            )
            trace = synthesizer.packets(profile, n_packets=1, snr_db=snr_db, rng=rng)
            csi = trace.packet(0)
            y = vectorize_csi_matrix(csi)

            # ℓ1
            spectrum, _ = estimate_joint_spectrum(csi, cache)
            direct = identify_direct_path(spectrum, peak_floor=0.3, max_paths=6)
            errors["l1 (ROArray)"].append(abs(direct.aoa_deg - true_aoa))

            # OMP on the identical dictionary — it *needs* a model order,
            # and its quality swings with it (the §III-A sensitivity).
            for k in (2, 5, 10):
                omp = solve_omp(cache.joint_dictionary, y, sparsity=k)
                power = coefficients_to_joint_power(
                    omp.x, cache.angle_grid.n_points, cache.delay_grid.n_points
                )
                omp_spectrum = JointSpectrum(
                    cache.angle_grid.angles_deg, cache.delay_grid.toas_s, power
                )
                direct = identify_direct_path(omp_spectrum, peak_floor=0.3, max_paths=6)
                errors[f"OMP (K={k})"].append(abs(direct.aoa_deg - true_aoa))

            # SpotFi-style smoothed 2-D MUSIC.
            spectrum = music.smoothed_spectrum(smoothed_csi_matrix(csi))
            direct = identify_direct_path(spectrum, peak_floor=0.3, max_paths=6)
            errors["2D MUSIC"].append(abs(direct.aoa_deg - true_aoa))

        results[snr_db] = {k: float(np.median(v)) for k, v in errors.items()}
    return results


@pytest.mark.benchmark(group="ablation")
def test_ablation_l1_vs_omp_vs_music(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    print("\n=== Ablation: estimator family, single packet ===")
    for snr_db, medians in results.items():
        row = " | ".join(f"{k}: {v:5.1f}°" for k, v in medians.items())
        print(f"SNR {snr_db:+5.1f} dB (blocked LoS at low SNR): {row}")

    low = results[2.0]
    # At low SNR with a blocked LoS, ℓ1 must beat the subspace method...
    assert low["l1 (ROArray)"] <= low["2D MUSIC"] + 1.0
    # ...and, *without* being told a model order, must be at least as
    # good as OMP run with a wrong one (the §III-A sensitivity claim).
    worst_omp = max(low[f"OMP (K={k})"] for k in (2, 5, 10))
    assert low["l1 (ROArray)"] <= worst_omp + 1.0
