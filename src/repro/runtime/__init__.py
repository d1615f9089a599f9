"""Batch-evaluation runtime: parallel fan-out with sequential parity.

The paper's evaluation is embarrassingly parallel — hundreds of client
spots × several APs, each an independent ``analyze(trace)`` call — and
this package is the layer that exploits it without changing a single
result.  See :class:`~repro.runtime.batch.BatchEvaluator` for the
determinism, warmup, and failure-isolation contracts.
"""

from repro.runtime.batch import BatchEvaluator, BatchResult
from repro.runtime.bench import joint_solve_benchmark
from repro.runtime.checkpoint import (
    EXIT_RESUMABLE,
    CheckpointJournal,
    CheckpointPolicy,
    atomic_write,
    checkpoint_status,
    config_digest,
    job_key,
    read_manifest,
    trace_fingerprint,
    write_manifest,
)
from repro.runtime.jobs import (
    DEFAULT_POLICY,
    FAILURE_KINDS,
    RETRYABLE_KINDS,
    EstimatorSpec,
    EvalJob,
    ExecutionPolicy,
    JobFailure,
    JobOutcome,
)
from repro.runtime.report import RuntimeReport, StageTotals

__all__ = [
    "BatchEvaluator",
    "BatchResult",
    "CheckpointJournal",
    "CheckpointPolicy",
    "DEFAULT_POLICY",
    "EXIT_RESUMABLE",
    "EstimatorSpec",
    "EvalJob",
    "ExecutionPolicy",
    "FAILURE_KINDS",
    "JobFailure",
    "JobOutcome",
    "RETRYABLE_KINDS",
    "RuntimeReport",
    "StageTotals",
    "atomic_write",
    "checkpoint_status",
    "config_digest",
    "job_key",
    "joint_solve_benchmark",
    "read_manifest",
    "trace_fingerprint",
    "write_manifest",
]
