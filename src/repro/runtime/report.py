"""Runtime instrumentation for batch evaluation.

A :class:`RuntimeReport` aggregates what the workers measured: per-stage
wall time (dictionary build / sparse solve / peak pick), per-job
latencies, failure counts, and end-to-end throughput.  The report is the
contract the scaling benchmark asserts against, and what
``roarray batch`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.jobs import JobOutcome

#: Stage keys in reporting order.
STAGES = ("dictionary", "solve", "peaks")


@dataclass
class StageTotals:
    """Accumulated per-stage worker seconds across a batch.

    ``dictionary`` is the steering-cache build (paid once per process
    thanks to the warmup initializer, so it amortizes toward zero as the
    batch grows), ``solve`` the sparse-recovery solve, and ``peaks`` the
    spectrum peak pick / direct-path selection.

    ``solver`` is the span-derived subtotal of time spent inside the
    sparse solver itself (the ``"solver"`` spans recorded per job when
    the batch runs with tracing enabled).  It is a *breakdown of*
    ``solve`` — the solve stage minus κ tuning, vectorization and
    alignment — so it is excluded from :attr:`total_s`; it stays 0.0
    when tracing is off.
    """

    dictionary_s: float = 0.0
    solve_s: float = 0.0
    peaks_s: float = 0.0
    solver_s: float = 0.0

    def add(self, stage_seconds: dict[str, float]) -> None:
        self.dictionary_s += stage_seconds.get("dictionary", 0.0)
        self.solve_s += stage_seconds.get("solve", 0.0)
        self.peaks_s += stage_seconds.get("peaks", 0.0)
        self.solver_s += stage_seconds.get("solver", 0.0)

    @property
    def total_s(self) -> float:
        return self.dictionary_s + self.solve_s + self.peaks_s

    def to_dict(self) -> dict[str, float]:
        return {
            "dictionary_s": self.dictionary_s,
            "solve_s": self.solve_s,
            "peaks_s": self.peaks_s,
            "solver_s": self.solver_s,
            "total_s": self.total_s,
        }


@dataclass
class RuntimeReport:
    """Everything measured while evaluating one batch.

    Attributes
    ----------
    workers:
        Worker-process count (0 = pure sequential, in-process).
    chunk_size:
        Jobs per scheduling unit.
    n_jobs / n_failures:
        Batch size and how many jobs returned a tagged failure record.
    wall_s:
        End-to-end wall time of the batch (including pool startup).
    stages:
        Summed per-stage worker seconds (see :class:`StageTotals`).
    job_seconds:
        Per-job wall seconds, in job order.
    failure_kinds:
        Failure taxonomy: count per
        :data:`~repro.runtime.jobs.FAILURE_KINDS` bucket (only nonzero
        buckets appear).
    n_timeouts / n_retries:
        How many jobs timed out (every attempt), and how many extra
        attempts the whole batch spent on retries.
    n_quarantined_packets:
        Packets the validation gate removed before analysis.
    pool_respawns:
        How many times a crashed worker pool was rebuilt.
    n_replayed:
        Jobs replayed from a checkpoint journal instead of recomputed
        (0 on a clean, non-resumed run).  Replayed outcomes carry their
        original stage timings and taxonomy, so every other field in
        this report merges identically across a kill/resume boundary.
    """

    workers: int
    chunk_size: int
    n_jobs: int = 0
    n_failures: int = 0
    wall_s: float = 0.0
    stages: StageTotals = field(default_factory=StageTotals)
    job_seconds: list[float] = field(default_factory=list)
    failure_kinds: dict[str, int] = field(default_factory=dict)
    n_timeouts: int = 0
    n_retries: int = 0
    n_quarantined_packets: int = 0
    pool_respawns: int = 0
    n_replayed: int = 0

    @classmethod
    def from_outcomes(
        cls,
        outcomes: Iterable["JobOutcome"],
        *,
        workers: int,
        chunk_size: int,
        wall_s: float,
        warmup_s: float = 0.0,
        pool_respawns: int = 0,
        n_replayed: int = 0,
    ) -> "RuntimeReport":
        report = cls(
            workers=workers,
            chunk_size=chunk_size,
            wall_s=wall_s,
            pool_respawns=pool_respawns,
            n_replayed=n_replayed,
        )
        report.stages.dictionary_s += warmup_s
        for outcome in outcomes:
            report.n_jobs += 1
            if not outcome.ok:
                report.n_failures += 1
                kind = outcome.failure.kind
                report.failure_kinds[kind] = report.failure_kinds.get(kind, 0) + 1
                if kind == "timeout":
                    report.n_timeouts += 1
            report.n_retries += max(0, outcome.attempts - 1)
            report.n_quarantined_packets += outcome.quarantined_packets
            report.stages.add(outcome.stage_seconds)
            report.job_seconds.append(outcome.elapsed_s)
        return report

    @property
    def throughput_jobs_per_s(self) -> float:
        """Completed jobs per wall-clock second (0 for an empty batch)."""
        if self.wall_s <= 0.0 or self.n_jobs == 0:
            return 0.0
        return self.n_jobs / self.wall_s

    @property
    def busy_s(self) -> float:
        """Summed per-job worker seconds (compute, excluding pool overhead)."""
        return float(sum(self.job_seconds))

    def speedup_over(self, sequential: "RuntimeReport") -> float:
        """Throughput ratio of this run over a sequential reference."""
        if self.throughput_jobs_per_s == 0.0 or sequential.throughput_jobs_per_s == 0.0:
            return 0.0
        return self.throughput_jobs_per_s / sequential.throughput_jobs_per_s

    def summary(self) -> str:
        """A compact human-readable block (used by ``roarray batch``)."""
        mode = "sequential" if self.workers == 0 else f"{self.workers} worker(s)"
        solve = f"solve {self.stages.solve_s:.3f}"
        if self.stages.solver_s > 0.0:
            solve += f" (solver {self.stages.solver_s:.3f})"
        lines = [
            f"jobs: {self.n_jobs} ({self.n_failures} failed) | {mode}, chunk {self.chunk_size}",
            f"wall: {self.wall_s:.2f} s | throughput: {self.throughput_jobs_per_s:.2f} jobs/s",
            (
                "stages (worker s): "
                f"dictionary {self.stages.dictionary_s:.3f} | "
                f"{solve} | "
                f"peaks {self.stages.peaks_s:.3f}"
            ),
        ]
        if self.job_seconds:
            lines.append(
                f"per-job: mean {self.busy_s / len(self.job_seconds):.3f} s, "
                f"max {max(self.job_seconds):.3f} s"
            )
        if self.n_replayed:
            lines.append(
                f"checkpoint: {self.n_replayed} of {self.n_jobs} jobs replayed "
                "from the journal"
            )
        if (
            self.n_retries
            or self.n_timeouts
            or self.n_quarantined_packets
            or self.pool_respawns
            or self.failure_kinds
        ):
            parts = [
                f"retries {self.n_retries}",
                f"timeouts {self.n_timeouts}",
                f"quarantined packets {self.n_quarantined_packets}",
                f"pool respawns {self.pool_respawns}",
            ]
            line = "hardening: " + " | ".join(parts)
            if self.failure_kinds:
                kinds = ", ".join(
                    f"{kind} x{self.failure_kinds[kind]}" for kind in sorted(self.failure_kinds)
                )
                line += f" | failures: {kinds}"
            lines.append(line)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready view of the report (``roarray batch --json``)."""
        return {
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "n_jobs": self.n_jobs,
            "n_failures": self.n_failures,
            "wall_s": self.wall_s,
            "throughput_jobs_per_s": self.throughput_jobs_per_s,
            "busy_s": self.busy_s,
            "stages": self.stages.to_dict(),
            "job_seconds": list(self.job_seconds),
            "failure_kinds": dict(self.failure_kinds),
            "n_timeouts": self.n_timeouts,
            "n_retries": self.n_retries,
            "n_quarantined_packets": self.n_quarantined_packets,
            "pool_respawns": self.pool_respawns,
            "n_replayed": self.n_replayed,
        }
