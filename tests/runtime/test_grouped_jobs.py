"""Grouped fusion in the batch runtime.

A plain ROArray estimator evaluates consecutive jobs ``GROUP_JOBS`` at a
time with their fusion solves batched.  Every outcome — failure kind,
message, attempts, analysis, quarantine count — must be the one the job
gets evaluated alone, also when its group holds a job the validation
gate rejects and a job whose solve raises, at any worker count.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.fusion as fusion
from repro.channel.trace import CsiTrace
from repro.core.pipeline import RoArrayEstimator
from repro.exceptions import SolverError
from repro.runtime import BatchEvaluator
from repro.runtime.batch import GROUP_JOBS, _evaluate_job
from repro.runtime.jobs import EvalJob, ExecutionPolicy
from tests.runtime.conftest import make_traces

#: CSI scale that marks the trace whose solve raises; clean snapshots
#: stay far below ``LOUD``.
SCALE, LOUD = 1e6, 1e3


def raising_on_loud(real):
    def solve_batch(operator, ys, *args, **kwargs):
        if any(np.abs(y).max() > LOUD for y in ys):
            raise SolverError("planted solve failure")
        return real(operator, ys, *args, **kwargs)

    return solve_batch


def troubled_traces(estimator):
    """Two groups: the second holds a trace with every packet poisoned
    (the gate rejects it), a loud trace (its solve raises) and a clean one."""
    traces = make_traces(estimator, 2 * GROUP_JOBS)
    rejected, loud = GROUP_JOBS, GROUP_JOBS + 1
    csi = traces[rejected].csi.copy()
    csi[:, 0, 0] = np.nan
    traces[rejected] = CsiTrace(csi=csi, snr_db=traces[rejected].snr_db)
    traces[loud] = CsiTrace(csi=SCALE * traces[loud].csi, snr_db=traces[loud].snr_db)
    return traces, rejected, loud


def deterministic(outcome):
    failure = outcome.failure
    return (
        outcome.index,
        outcome.analysis,
        outcome.attempts,
        outcome.quarantined_packets,
        None if failure is None else (failure.kind, failure.error_type, failure.message),
        None if failure is None else failure.attempts,
    )


@pytest.mark.parametrize("workers", [0, 2])
def test_failing_jobs_in_a_group_match_per_job_evaluation(
    small_estimator, monkeypatch, workers
):
    monkeypatch.setattr(fusion, "solve_batch", raising_on_loud(fusion.solve_batch))
    sizes = []
    joint_spectra = RoArrayEstimator.joint_spectra

    def counted(self, traces, **kwargs):
        sizes.append(len(traces))
        return joint_spectra(self, traces, **kwargs)

    monkeypatch.setattr(RoArrayEstimator, "joint_spectra", counted)
    traces, rejected, loud = troubled_traces(small_estimator)
    policy = ExecutionPolicy(validate=True)
    result = BatchEvaluator(small_estimator, workers=workers, policy=policy).evaluate(traces)

    alone = [
        _evaluate_job(small_estimator, EvalJob(index=index, trace=trace), policy=policy)
        for index, trace in enumerate(traces)
    ]
    assert [deterministic(o) for o in result.outcomes] == [deterministic(o) for o in alone]
    kinds = [None if o.ok else o.failure.kind for o in result.outcomes]
    assert kinds[rejected] == "validation" and kinds[loud] == "solver"
    assert sum(kind is None for kind in kinds) == len(traces) - 2
    if workers == 0:
        # The clean group ran as one; the troubled group's two survivors
        # failed together, then every job ran alone.
        assert sizes[:2] == [GROUP_JOBS, GROUP_JOBS - 1]


def test_grouped_jobs_keep_their_own_span_trees(small_estimator):
    """Each job of a group gets its own job → fusion → solver spans, with
    its own solve's convergence."""
    from repro.obs import Tracer

    tracer = Tracer()
    traces = make_traces(small_estimator, GROUP_JOBS)
    BatchEvaluator(small_estimator, tracer=tracer).evaluate(traces)
    by_id = {span.span_id: span for span in tracer.spans}
    solvers = tracer.find("solver")
    assert len(solvers) == len(tracer.find("job")) == GROUP_JOBS
    for solver in solvers:
        fusion_span = by_id[solver.parent_id]
        assert fusion_span.name == "fusion"
        assert by_id[fusion_span.parent_id].name == "job"
        assert solver.attributes["convergence"]["solver"] == "mmv_fista"
        assert len(solver.attributes["convergence"]["objectives"]) == solver.attributes["iterations"]
    jobs = [by_id[by_id[s.parent_id].parent_id].attributes["index"] for s in solvers]
    assert jobs == list(range(GROUP_JOBS))
