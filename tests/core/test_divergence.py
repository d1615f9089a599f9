"""The O(1) divergence check every pipeline solve runs, under any config."""

from dataclasses import replace

import numpy as np
import pytest

import repro.core.fusion as fusion
from repro.channel.csi import CsiSynthesizer
from repro.channel.impairments import ImpairmentModel
from repro.channel.paths import random_profile
from repro.core.config import RoArrayConfig
from repro.core.pipeline import RoArrayEstimator
from repro.exceptions import SolverDivergenceError
from repro.optim import solve_lasso_fista
from repro.optim.result import check_divergence
from repro.runtime.batch import BatchEvaluator

from tests.optim.test_fista import make_sparse_system


@pytest.fixture
def nan_objective_fusion(monkeypatch):
    """Fusion's ℓ2,1 solves return their real results with NaN objectives."""
    real = fusion.solve_batch

    def poisoned(*args, **kwargs):
        result = real(*args, **kwargs)
        return replace(result, objectives=(float("nan"),) * result.n_problems)

    monkeypatch.setattr(fusion, "solve_batch", poisoned)


def default_trace(estimator, rng):
    profile = random_profile(rng, n_paths=3, direct_aoa_deg=120.0, direct_toa_s=30e-9)
    synthesizer = CsiSynthesizer(estimator.array, estimator.layout, ImpairmentModel(), seed=3)
    return synthesizer.packets(profile, n_packets=3, snr_db=20.0, rng=rng)


class TestPipelineAlwaysChecks:
    def test_default_config_analyze_raises(self, nan_objective_fusion, rng):
        estimator = RoArrayEstimator()
        assert estimator.config == RoArrayConfig()
        with pytest.raises(SolverDivergenceError):
            estimator.analyze(default_trace(estimator, rng))

    def test_batch_job_fails_as_solver_kind(self, nan_objective_fusion, rng):
        estimator = RoArrayEstimator()
        result = BatchEvaluator(estimator, workers=0).evaluate([default_trace(estimator, rng)])
        (outcome,) = result.outcomes
        assert not outcome.ok
        assert outcome.failure.kind == "solver"
        assert outcome.failure.error_type == "SolverDivergenceError"


class TestCheckDivergence:
    def test_rejects_exploding_step_and_passes_clean_solve(self, rng):
        # A wildly wrong Lipschitz estimate makes FISTA's step explosive.
        a, y, *_ = make_sparse_system(rng)
        with np.errstate(over="ignore", invalid="ignore"):
            diverged = solve_lasso_fista(a, y, 0.05, max_iterations=200, lipschitz=1e-8)
        with pytest.raises(SolverDivergenceError):
            check_divergence(diverged, y)
        clean = solve_lasso_fista(a, y, 0.05, max_iterations=200)
        assert np.isfinite(clean.objective)
        check_divergence(clean, y)
