"""Unit tests for the batch-evaluation runtime."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.baselines.arraytrack import ArrayTrackEstimator
from repro.baselines.spotfi import SpotFiEstimator
from repro.core.pipeline import RoArrayEstimator
from repro.exceptions import ConfigurationError, SolverError
from repro.runtime import BatchEvaluator, CheckpointPolicy, EstimatorSpec
from tests.runtime.conftest import make_traces, poison_trace


class TestEstimatorSpec:
    def test_roarray_spec_collapses_to_config(self, small_estimator):
        spec = EstimatorSpec.for_system(small_estimator)
        assert spec.kind == "roarray"
        assert spec.config is small_estimator.config
        rebuilt = spec.build()
        assert isinstance(rebuilt, RoArrayEstimator)
        assert rebuilt is not small_estimator
        assert rebuilt.config == small_estimator.config

    def test_roarray_spec_does_not_ship_the_dictionary(self, small_estimator):
        _ = small_estimator.cache.joint_dictionary  # warm the original
        spec = EstimatorSpec.for_system(small_estimator)
        payload = pickle.dumps(spec)
        dictionary_bytes = small_estimator.cache.joint_dictionary.nbytes
        assert len(payload) < dictionary_bytes

    def test_baseline_systems_wrap_as_instances(self):
        for system in (SpotFiEstimator(), ArrayTrackEstimator()):
            spec = EstimatorSpec.for_system(system)
            assert spec.kind == "instance"
            assert spec.build() is system
            assert pickle.loads(pickle.dumps(spec)).build().name == system.name

    def test_rejects_non_system(self):
        with pytest.raises(ConfigurationError):
            EstimatorSpec.for_system(object())

    def test_spec_passthrough(self, small_estimator):
        spec = EstimatorSpec.for_system(small_estimator)
        assert EstimatorSpec.for_system(spec) is spec

    def test_subclass_runs_itself_and_digests_apart(self, small_estimator, tmp_path):
        """A RoArrayEstimator subclass ships whole: its override runs once
        per trace, and its checkpoint digest is not the plain estimator's."""
        sub = _CountingEstimator(
            array=small_estimator.array, layout=small_estimator.layout, config=small_estimator.config
        )
        traces = make_traces(small_estimator, 2)
        assert EstimatorSpec.for_system(sub).kind == "instance"
        BatchEvaluator(sub, workers=0).evaluate(
            traces, checkpoint=CheckpointPolicy(path=tmp_path / "sub.jsonl")
        )
        assert sub.calls == len(traces)
        BatchEvaluator(small_estimator, workers=0).evaluate(
            traces, checkpoint=CheckpointPolicy(path=tmp_path / "plain.jsonl")
        )
        digests = [
            json.loads((tmp_path / name).read_text().splitlines()[0])["config_digest"]
            for name in ("sub.jsonl", "plain.jsonl")
        ]
        assert digests[0] != digests[1]


class _CountingEstimator(RoArrayEstimator):
    """Counts :meth:`joint_spectrum` calls."""

    calls = 0

    def joint_spectrum(self, trace, *, packet=None):
        self.calls += 1
        return super().joint_spectrum(trace, packet=packet)


class TestBatchEvaluatorSequential:
    def test_matches_direct_analyze(self, small_estimator, workload):
        expected = [small_estimator.analyze(trace) for trace in workload]
        result = BatchEvaluator(small_estimator, workers=0).evaluate(workload)
        assert result.strict_analyses() == expected

    def test_outcomes_are_ordered_and_seeded(self, small_estimator, workload):
        result = BatchEvaluator(small_estimator, base_seed=100).evaluate(workload)
        assert [o.index for o in result.outcomes] == list(range(len(workload)))
        assert result.report.n_jobs == len(workload)

    def test_empty_batch(self, small_estimator):
        result = BatchEvaluator(small_estimator).evaluate([])
        assert result.outcomes == []
        assert result.report.throughput_jobs_per_s == 0.0

    def test_failure_is_tagged_not_raised(self, small_estimator, workload):
        jobs = [workload[0], poison_trace(workload[1]), workload[2]]
        result = BatchEvaluator(small_estimator).evaluate(jobs)
        assert [o.ok for o in result.outcomes] == [True, False, True]
        failure = result.outcomes[1].failure
        assert failure.error_type == "SolverError"
        assert result.report.n_failures == 1

    def test_strict_analyses_raises_on_failure(self, small_estimator, workload):
        result = BatchEvaluator(small_estimator).evaluate([poison_trace(workload[0])])
        with pytest.raises(SolverError, match="1 of 1 batch jobs failed"):
            result.strict_analyses()

    def test_analyses_property_keeps_placeholders(self, small_estimator, workload):
        result = BatchEvaluator(small_estimator).evaluate(
            [workload[0], poison_trace(workload[1])]
        )
        analyses = result.analyses
        assert analyses[0] is not None and analyses[1] is None

    def test_report_stage_totals(self, small_estimator, workload):
        report = BatchEvaluator(small_estimator).evaluate(workload[:3]).report
        assert report.stages.dictionary_s > 0.0  # one warmup, counted once
        assert report.stages.solve_s > 0.0
        assert report.stages.peaks_s >= 0.0
        assert report.busy_s == pytest.approx(sum(report.job_seconds))
        assert report.throughput_jobs_per_s > 0.0

    def test_local_system_is_reused_across_calls(self, small_estimator, workload):
        evaluator = BatchEvaluator(small_estimator, workers=0)
        first = evaluator.evaluate(workload[:2]).report
        second = evaluator.evaluate(workload[:2]).report
        # First call pays the cache build; later calls see a warm cache
        # (the per-job warmup check is a no-op costing microseconds).
        assert first.stages.dictionary_s > second.stages.dictionary_s
        assert second.stages.dictionary_s < 1e-3

    def test_validates_parameters(self, small_estimator):
        with pytest.raises(ConfigurationError):
            BatchEvaluator(small_estimator, workers=-1)
        with pytest.raises(ConfigurationError):
            BatchEvaluator(small_estimator, chunk_size=0)


class TestBatchEvaluatorParallel:
    def test_baseline_system_in_pool(self, workload):
        system = ArrayTrackEstimator()
        expected = [system.analyze(trace) for trace in workload[:4]]
        result = BatchEvaluator(system, workers=2).evaluate(workload[:4])
        # repr-compare: ArrayTrack reports toa_s=nan, and nan != nan
        # would defeat dataclass equality despite identical values.
        assert repr(result.strict_analyses()) == repr(expected)

    def test_chunk_size_does_not_change_results(self, small_estimator, workload):
        baseline = BatchEvaluator(small_estimator, workers=0).evaluate(workload)
        for chunk_size in (1, 2, 5):
            chunked = BatchEvaluator(
                small_estimator, workers=2, chunk_size=chunk_size
            ).evaluate(workload)
            assert chunked.strict_analyses() == baseline.strict_analyses()
            assert chunked.report.chunk_size == chunk_size

    def test_report_reflects_worker_count(self, small_estimator, workload):
        report = BatchEvaluator(small_estimator, workers=2).evaluate(workload).report
        assert report.workers == 2
        assert "2 worker(s)" in report.summary()


class TestSteeringCacheWarmup:
    def test_warmup_builds_everything(self, small_estimator):
        cache = small_estimator.cache
        assert cache.build_seconds == {}
        cache.warmup()
        # The dense joint dictionary is deliberately absent: the solve
        # paths run on the structured joint_operator.
        assert set(cache.build_seconds) == {
            "angle_dictionary",
            "angle_lipschitz",
            "joint_operator",
            "joint_lipschitz",
        }
        assert cache.warmup_seconds == pytest.approx(sum(cache.build_seconds.values()))

    def test_warmup_is_idempotent(self, small_estimator):
        cache = small_estimator.cache.warmup()
        before = dict(cache.build_seconds)
        cache.warmup()
        assert cache.build_seconds == before


class TestTracePickling:
    def test_round_trip_is_exact(self, workload):
        for trace in workload:
            clone = pickle.loads(pickle.dumps(trace))
            assert clone.equals(trace)
            assert trace.equals(clone)

    def test_equals_is_value_based_and_nan_aware(self, workload):
        trace = poison_trace(workload[0])  # contains NaN csi + NaN metadata
        clone = pickle.loads(pickle.dumps(trace))
        assert trace.equals(clone)
        other = workload[1]
        assert not trace.equals(other)
        assert not trace.equals("not a trace")

    def test_analysis_from_spectrum_matches_analyze(self, small_estimator, workload):
        trace = workload[0]
        spectrum = small_estimator.joint_spectrum(trace)
        assert (
            small_estimator.analysis_from_spectrum(spectrum)
            == small_estimator.analyze(trace)
        )
