"""End-to-end chaos runs: inject faults, analyze, degrade gracefully.

:func:`run_chaos_experiment` is the acceptance harness for the
robustness substrate.  It synthesizes the standard classroom evaluation
world, applies a :class:`~repro.faults.scenario.ChaosScenario` to every
location's per-AP traces, pushes the corrupted traces through the
hardened batch runtime (validation gate on), and localizes each
location in degraded mode — producing a
:class:`~repro.core.localization.DegradedResult` per location instead
of an exception, alongside the clean-world reference fix for the same
scenes.

Determinism: trace synthesis, fault injection and analysis are all pure
functions of ``seed`` (injection additionally of the scenario's own
seed), so a rerun — at *any* worker count — is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.impairments import ImpairmentModel
from repro.channel.trace import CsiTrace
from repro.core.config import RoArrayConfig
from repro.core.localization import ApObservation, DegradedResult, DroppedAp, localize_robust
from repro.exceptions import ConfigurationError, QuorumError
from repro.faults.scenario import ChaosScenario, InjectionResult, demo_scenario
from repro.obs import NULL_TRACER, MetricsRegistry
from repro.runtime.jobs import ExecutionPolicy
from repro.runtime.report import RuntimeReport


@dataclass(frozen=True)
class LocationOutcome:
    """One location's clean-vs-degraded comparison.

    ``fix`` is the degraded-mode result (``None`` only when the
    survivors fell below quorum, in which case ``quorum_failure`` holds
    the reason); ``clean_error_m`` / ``degraded_error_m`` are distances
    to the scene's ground-truth client position.
    """

    location: int
    clean_error_m: float
    fix: DegradedResult | None
    degraded_error_m: float | None
    quorum_failure: str | None
    injection: InjectionResult

    @property
    def located(self) -> bool:
        return self.fix is not None

    def to_dict(self) -> dict:
        return {
            "location": self.location,
            "clean_error_m": self.clean_error_m,
            "fix": self.fix.to_dict() if self.fix is not None else None,
            "degraded_error_m": self.degraded_error_m,
            "quorum_failure": self.quorum_failure,
            "injection": self.injection.to_dict(),
        }


@dataclass(frozen=True)
class ChaosResult:
    """Everything one chaos run produced."""

    scenario: dict
    band: str
    n_aps: int
    seed: int
    workers: int
    locations: tuple[LocationOutcome, ...]
    report: RuntimeReport
    metrics: dict

    @property
    def n_located(self) -> int:
        return sum(1 for outcome in self.locations if outcome.located)

    def degradation_rows(self) -> list[dict]:
        """Plain-dict rows for the markdown degradation table.

        Duck-typed on purpose: the reporting layer renders these without
        importing ``repro.faults``.
        """
        rows = []
        for outcome in self.locations:
            fix = outcome.fix
            rows.append(
                {
                    "location": outcome.location,
                    "clean_error_m": outcome.clean_error_m,
                    "degraded_error_m": outcome.degraded_error_m,
                    "confidence": fix.confidence if fix is not None else None,
                    "used_aps": list(fix.used_aps) if fix is not None else [],
                    "dropped_aps": [
                        f"{ap.name}: {ap.reason}" for ap in fix.dropped_aps
                    ]
                    if fix is not None
                    else [outcome.quorum_failure or "below quorum"],
                }
            )
        return rows

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "band": self.band,
            "n_aps": self.n_aps,
            "seed": self.seed,
            "workers": self.workers,
            "n_locations": len(self.locations),
            "n_located": self.n_located,
            "locations": [outcome.to_dict() for outcome in self.locations],
            "report": self.report.to_dict(),
            "metrics": self.metrics,
        }


@dataclass(frozen=True)
class SeededWorld:
    """A seeded fault run's clean world, its injections and clean analyses.

    ``clean[i]`` and ``injections[i]`` are location ``i``'s per-AP traces
    before and after its scenario; ``clean_analyses`` is the clean batch,
    flattened location-major (``i * n_aps + ap``).
    """

    scenes: list
    clean: list[list[CsiTrace]]
    injections: list[InjectionResult]
    estimator: object
    clean_analyses: list


def seeded_world(
    scenarios: list[ChaosScenario],
    *,
    n_aps: int,
    n_packets: int,
    band: str,
    seed: int,
    workers: int,
    config: RoArrayConfig,
    tracer=NULL_TRACER,
    checkpoint_dir=None,
    journal: str,
    metrics: MetricsRegistry | None = None,
) -> SeededWorld:
    """Synthesize one random scene per scenario, inject it, analyze it clean.

    Location ``i`` gets a fresh classroom scene and per-AP SNR draws from
    one ``seed``-keyed generator, then ``scenarios[i].apply(..., salt=i)``.
    The clean traces go through the batch runtime (worker-count
    independent), journaled to ``<journal>_clean.jsonl`` with ``:``
    spelled ``_`` when ``checkpoint_dir`` is given.  Everything is a pure
    function of ``seed`` and the scenarios.
    """
    from repro.core.pipeline import RoArrayEstimator
    from repro.experiments.runner import _batch_analyses, _journal_policy, _scene_traces
    from repro.experiments.scenarios import SNR_BANDS, build_random_scene

    if band not in SNR_BANDS:
        raise ConfigurationError(f"band must be one of {sorted(SNR_BANDS)}, got {band!r}")
    snr_band = SNR_BANDS[band]
    rng = np.random.default_rng(seed)
    scenes, clean = [], []
    with tracer.span("synthesis", n_locations=len(scenarios), n_aps=n_aps):
        for location in range(len(scenarios)):
            scene = build_random_scene(rng, n_aps=n_aps)
            snrs = [snr_band.draw(rng) for _ in range(n_aps)]
            scenes.append(scene)
            clean.append(
                _scene_traces(
                    scene,
                    snr_db_per_ap=snrs,
                    n_packets=n_packets,
                    impairments=ImpairmentModel(),
                    rng=rng,
                    boot_seed=seed * 20_000 + location * 100,
                )
            )
    with tracer.span("injection", scenario=scenarios[0].name):
        injections = [
            scenario.apply(clean[location], salt=location)
            for location, scenario in enumerate(scenarios)
        ]
    estimator = RoArrayEstimator(config=config)
    clean_flat = [trace for traces in clean for trace in traces]
    with tracer.span("clean_batch", n_jobs=len(clean_flat)):
        clean_analyses = _batch_analyses(
            estimator,
            clean_flat,
            workers=workers,
            base_seed=seed,
            tracer=tracer,
            checkpoint=_journal_policy(
                checkpoint_dir,
                f"{journal.replace(':', '_')}_clean",
                f"{journal}:clean",
                metrics,
            ),
        )
    return SeededWorld(scenes, clean, injections, estimator, clean_analyses)


def run_chaos_experiment(
    scenario: ChaosScenario | None = None,
    *,
    n_aps: int = 6,
    n_locations: int = 3,
    n_packets: int = 10,
    band: str = "medium",
    seed: int = 0,
    workers: int = 0,
    resolution_m: float = 0.1,
    min_quorum: int = 2,
    policy: ExecutionPolicy | None = None,
    config: RoArrayConfig | None = None,
    tracer=NULL_TRACER,
    metrics: MetricsRegistry | None = None,
    checkpoint_dir=None,
) -> ChaosResult:
    """Run one chaos scenario end-to-end and score the degradation.

    Each location gets a fresh random scene (the standard evaluation
    substrate); the scenario is applied per location with
    ``salt=location``, the surviving corrupted traces are analyzed
    through the hardened batch runtime, and every location is localized
    in degraded mode — dead APs, validation rejections, and solver
    failures all become :class:`~repro.core.localization.DroppedAp`
    records on the fix rather than exceptions.

    Parameters
    ----------
    scenario:
        The fault composition; defaults to
        :func:`~repro.faults.scenario.demo_scenario` (2 AP outages, one
        antenna dropout, 20% NaN-corrupted packets).
    policy:
        Hardening knobs for the faulted batch; defaults to the
        validation gate switched on (everything else off).  The gate is
        required — without it a NaN-poisoned trace fails the whole
        fusion solve instead of being quarantined.
    config:
        Estimator configuration; defaults to the evaluation working
        point (:func:`~repro.experiments.runner.evaluation_roarray_config`).
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; chaos counters
        (injected / detected / dropped / located) are recorded there and
        the export embedded in the result.
    checkpoint_dir:
        Directory for durable journals: the clean batch checkpoints to
        ``chaos_clean.jsonl`` and the faulted batch to
        ``chaos_faulted.jsonl``.  A killed chaos run rerun with the same
        arguments resumes both batches and produces a byte-identical
        :class:`ChaosResult` (injection and localization are cheap,
        deterministic recomputations).
    """
    from repro.experiments.runner import _journal_policy, evaluation_roarray_config
    from repro.runtime.batch import BatchEvaluator

    if n_locations < 1:
        raise ConfigurationError(f"n_locations must be >= 1, got {n_locations}")
    scenario = scenario if scenario is not None else demo_scenario(n_aps, seed=seed)
    policy = policy if policy is not None else ExecutionPolicy(validate=True)
    config = config if config is not None else evaluation_roarray_config()
    metrics = metrics if metrics is not None else MetricsRegistry()

    with tracer.span(
        "experiment", name="chaos", scenario=scenario.name, n_locations=n_locations
    ):
        world = seeded_world(
            [scenario] * n_locations,
            n_aps=n_aps,
            n_packets=n_packets,
            band=band,
            seed=seed,
            workers=workers,
            config=config,
            tracer=tracer,
            checkpoint_dir=checkpoint_dir,
            journal="chaos",
            metrics=metrics,
        )
        for injection in world.injections:
            metrics.counter("chaos.faults_injected").inc(len(injection.injected))
            metrics.counter("chaos.aps_killed").inc(len(injection.dead))

        # --- Faulted batch through the hardened runtime. ---------------------
        keys: list[tuple[int, int]] = []  # flat index -> (location, ap)
        faulted_flat = []
        for location, injection in enumerate(world.injections):
            for ap in injection.surviving:
                keys.append((location, ap))
                faulted_flat.append(injection.traces[ap])
        evaluator = BatchEvaluator(
            world.estimator, workers=workers, base_seed=seed, policy=policy, tracer=tracer
        )
        with tracer.span("faulted_batch", n_jobs=len(faulted_flat)):
            batch = evaluator.evaluate(
                faulted_flat,
                checkpoint=_journal_policy(
                    checkpoint_dir, "chaos_faulted", "chaos:faulted", metrics
                ),
            )

        metrics.counter("chaos.jobs_total").inc(len(batch.outcomes))
        metrics.counter("chaos.jobs_failed").inc(batch.report.n_failures)
        metrics.counter("chaos.packets_quarantined").inc(
            batch.report.n_quarantined_packets
        )

        # --- Degraded-mode localization per location. ------------------------
        outcome_by_key = {key: batch.outcomes[i] for i, key in enumerate(keys)}
        locations: list[LocationOutcome] = []
        for location in range(n_locations):
            scene = world.scenes[location]
            injection = world.injections[location]
            clean_obs = [
                ApObservation(
                    access_point=scene.access_points[ap],
                    aoa_deg=world.clean_analyses[location * n_aps + ap].direct.aoa_deg,
                    rssi_dbm=world.clean[location][ap].rssi_dbm,
                )
                for ap in range(n_aps)
            ]
            clean_fix = localize_robust(
                clean_obs, scene.room, min_quorum=min_quorum, resolution_m=resolution_m
            )

            observations = []
            dropped = [
                DroppedAp(name=scene.access_points[ap].name, reason="AP outage (no trace)")
                for ap in injection.dead
            ]
            for ap in injection.surviving:
                outcome = outcome_by_key[(location, ap)]
                if outcome.ok:
                    observations.append(
                        ApObservation(
                            access_point=scene.access_points[ap],
                            aoa_deg=outcome.analysis.direct.aoa_deg,
                            rssi_dbm=injection.traces[ap].rssi_dbm,
                        )
                    )
                else:
                    dropped.append(
                        DroppedAp(
                            name=scene.access_points[ap].name,
                            reason=f"{outcome.failure.kind}: {outcome.failure.message}",
                        )
                    )
            metrics.counter("chaos.aps_dropped").inc(len(dropped))

            fix: DegradedResult | None
            degraded_error: float | None
            quorum_failure: str | None = None
            try:
                fix = localize_robust(
                    observations,
                    scene.room,
                    dropped=dropped,
                    min_quorum=min_quorum,
                    resolution_m=resolution_m,
                )
                degraded_error = fix.error_to(scene.client)
                metrics.counter("chaos.locations_located").inc()
                metrics.histogram("chaos.confidence").observe(fix.confidence)
            except QuorumError as error:
                fix, degraded_error, quorum_failure = None, None, str(error)
                metrics.counter("chaos.locations_below_quorum").inc()
            locations.append(
                LocationOutcome(
                    location=location,
                    clean_error_m=clean_fix.error_to(scene.client),
                    fix=fix,
                    degraded_error_m=degraded_error,
                    quorum_failure=quorum_failure,
                    injection=injection,
                )
            )

    return ChaosResult(
        scenario=scenario.describe(),
        band=band,
        n_aps=n_aps,
        seed=seed,
        workers=workers,
        locations=tuple(locations),
        report=batch.report,
        metrics=metrics.to_dict(),
    )
