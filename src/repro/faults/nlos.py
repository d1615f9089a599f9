"""NLOS chaos drills: measurement-domain corruption vs. AP consensus.

The injectors in :mod:`repro.faults.injectors` cover faults that make a
trace *visibly* broken — NaN entries, dead antennas, collapsed SNR.
:class:`~repro.faults.injectors.NlosBias` and
:class:`~repro.faults.injectors.GhostPath` are different in kind: the
corrupted trace is perfectly healthy CSI that estimates to a clean,
confidently *wrong* angle.  No validation gate can catch it; only
cross-AP consensus can.

This module is the acceptance harness for that layer.  Each drill runs
the full chain — synthesize the classroom world, corrupt selected APs
in the measurement domain, analyze every trace through the hardened
batch runtime, probe each AP with the outlier-augmented robust solver
for corruption evidence, and localize with
:func:`~repro.core.localization.localize_consensus` — and asserts both
*detection* (the corrupted AP's trust collapses) and *bounded error*
(the consensus fix stays close to the clean-world fix).

Drills (the last three entries of the :mod:`repro.faults.drills`
catalogue):

* ``nlos_single_ap`` — one of four APs reports an AoA biased by ≥ 15°;
  the victim rotates across trials.  Pass: the victim is flagged
  (trust < threshold) in ≥ 90% of trials AND the median consensus
  error is ≤ 1.3× the clean median.
* ``nlos_majority`` — three of four APs are biased the same way; no
  quorum of honest APs exists.  Pass: the fix is marked
  ``contaminated`` in ≥ 70% of trials (the system must not claim
  confidence it does not have).
* ``ghost_multipath`` — a strong early reflection hijacks the
  smallest-ToA direct-path rule on one AP.  Pass: victim flagged in
  ≥ 70% of trials AND median consensus error ≤ 1.5× clean.

Determinism: synthesis, injection, analysis and the evidence probes
are all pure functions of ``seed``, so a drill rerun — at any worker
count, or resumed from its checkpoint journal — produces a
byte-identical scorecard.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.channel.trace import CsiTrace
from repro.core.config import RoArrayConfig
from repro.core.localization import (
    ApEvidence,
    ApObservation,
    ConsensusResult,
    localize_consensus,
    localize_robust,
    peak_dispersion,
)
from repro.core.steering import SteeringCache, vectorize_csi_matrix
from repro.exceptions import ConfigurationError, QuorumError
from repro.faults.chaos import seeded_world
from repro.faults.injectors import GhostPath, NlosBias
from repro.faults.scenario import ApFault, ChaosScenario
from repro.obs import NULL_TRACER
from repro.optim.robust import solve_robust_lasso
from repro.optim.tuning import residual_kappa

if TYPE_CHECKING:
    from repro.faults.drills import DrillOutcome

#: Drill names, in catalogue order (``roarray chaos --scenario`` accepts these).
NLOS_SCENARIOS = ("nlos_single_ap", "nlos_majority", "ghost_multipath")

#: The drills' pinned working point, part of the scored contract: four
#: APs, four packets per trace, the high SNR band and a 10 cm fix grid.
N_APS = 4
N_PACKETS = 4
BAND = "high"
RESOLUTION_M = 0.1

def robust_ap_evidence(
    cache: SteeringCache,
    trace: CsiTrace,
    *,
    kappa_fraction: float = 0.15,
    max_iterations: int = 150,
) -> ApEvidence:
    """Probe one AP's trace with the outlier-augmented solver.

    Solves the robust program ``min ‖y − [Ã|I][x;e]‖² + κ‖x‖₁ + λ‖e‖₁``
    on the first packet against the cached joint dictionary and distills
    the two measurement-domain corruption signatures
    :func:`~repro.core.localization.score_ap_trust` fuses:

    * ``outlier_fraction`` — the share of measurement energy the solver
      had to attribute to the outlier channel ``e`` rather than to any
      dictionary atom (corruption that is *not* explicable as a path);
    * ``peak_dispersion`` — how smeared the recovered angle spectrum is
      around its peak (diffuse NLOS scatter leaves no single clean lobe).

    A clean trace probes near (0, small); NLOS and ghost-path traces
    probe visibly above the trust scorer's evidence floors.
    """
    from repro.core.joint import coefficients_to_joint_power

    y = vectorize_csi_matrix(trace.packet(0))
    kappa = residual_kappa(cache.joint_operator, y, fraction=kappa_fraction)
    result = solve_robust_lasso(
        cache.joint_operator,
        y,
        kappa=kappa,
        max_iterations=max_iterations,
        lipschitz=cache.joint_lipschitz,
    )
    power = coefficients_to_joint_power(
        result.x, cache.angle_grid.n_points, cache.delay_grid.n_points
    )
    dispersion = peak_dispersion(cache.angle_grid.angles_deg, power.max(axis=1))
    return ApEvidence(
        outlier_fraction=min(1.0, result.outlier_fraction),
        peak_dispersion=dispersion,
    )


def nlos_scenario(
    name: str,
    *,
    n_aps: int,
    victims: tuple[int, ...],
    bias_deg: float = 18.0,
    seed: int = 0,
) -> ChaosScenario:
    """The per-trial fault composition for one drill."""
    if any(not 0 <= v < n_aps for v in victims):
        raise ConfigurationError(f"victim indices {victims} out of range for {n_aps} APs")
    if name == "ghost_multipath":
        faults = tuple(ApFault(ap=v, injector=GhostPath()) for v in victims)
    else:
        faults = tuple(
            ApFault(ap=v, injector=NlosBias(bias_deg=bias_deg)) for v in victims
        )
    return ChaosScenario(name=name, faults=faults, seed=seed)


def _drill_victims(name: str, trial: int) -> tuple[int, ...]:
    """Which APs a trial corrupts; the victim set rotates with the trial."""
    if name == "nlos_majority":
        honest = trial % N_APS
        return tuple(ap for ap in range(N_APS) if ap != honest)
    return (trial % N_APS,)


def run_nlos_drill(
    name: str,
    *,
    n_trials: int = 10,
    bias_deg: float = 18.0,
    seed: int = 0,
    workers: int = 0,
    config: RoArrayConfig | None = None,
    tracer=NULL_TRACER,
    checkpoint_dir=None,
) -> DrillOutcome:
    """Run one NLOS drill end-to-end and score it into a ``DrillOutcome``.

    The outcome's ``details`` hold the pass criteria (medians, rates and
    the named ``checks``) plus one record per trial under ``trials``.
    The seeded world comes from :func:`repro.faults.chaos.seeded_world`,
    the same synthesis/injection/clean-batch path the offline chaos
    experiment uses; the faulted batch checkpoints to
    ``nlos_<name>_faulted.jsonl`` next to its ``_clean`` journal.  The
    evidence probes and consensus localization are deterministic
    post-processing, so a rerun at any worker count — or resumed from
    its journals — yields a byte-identical outcome.
    """
    from repro.experiments.runner import (
        _batch_analyses,
        _journal_policy,
        evaluation_roarray_config,
    )
    from repro.faults.drills import DrillOutcome

    if name not in NLOS_SCENARIOS:
        raise ConfigurationError(
            f"unknown NLOS scenario {name!r}; available: {list(NLOS_SCENARIOS)}"
        )
    if n_trials < 1:
        raise ConfigurationError(f"n_trials must be >= 1, got {n_trials}")
    if bias_deg < 15.0:
        raise ConfigurationError(
            f"bias_deg must be >= 15 (the drill's detectability floor), got {bias_deg}"
        )
    config = config if config is not None else evaluation_roarray_config()

    with tracer.span("experiment", name=f"nlos:{name}", n_trials=n_trials):
        world = seeded_world(
            [
                nlos_scenario(
                    name,
                    n_aps=N_APS,
                    victims=_drill_victims(name, trial),
                    bias_deg=bias_deg,
                    seed=seed,
                )
                for trial in range(n_trials)
            ],
            n_aps=N_APS,
            n_packets=N_PACKETS,
            band=BAND,
            seed=seed,
            workers=workers,
            config=config,
            tracer=tracer,
            checkpoint_dir=checkpoint_dir,
            journal=f"nlos:{name}",
        )
        faulted_flat = [
            injection.traces[ap] for injection in world.injections for ap in range(N_APS)
        ]
        with tracer.span("faulted_batch", n_jobs=len(faulted_flat)):
            faulted_analyses = _batch_analyses(
                world.estimator,
                faulted_flat,
                workers=workers,
                base_seed=seed,
                tracer=tracer,
                checkpoint=_journal_policy(
                    checkpoint_dir, f"nlos_{name}_faulted", f"nlos:{name}:faulted"
                ),
            )

        # --- Evidence probes + consensus localization per trial. -------------
        trials = []
        for trial in range(n_trials):
            scene = world.scenes[trial]
            injection = world.injections[trial]
            victim_names = [
                scene.access_points[ap].name for ap in _drill_victims(name, trial)
            ]
            clean_obs = [
                ApObservation(
                    access_point=scene.access_points[ap],
                    aoa_deg=world.clean_analyses[trial * N_APS + ap].direct.aoa_deg,
                    rssi_dbm=world.clean[trial][ap].rssi_dbm,
                )
                for ap in range(N_APS)
            ]
            faulted_obs = [
                ApObservation(
                    access_point=scene.access_points[ap],
                    aoa_deg=faulted_analyses[trial * N_APS + ap].direct.aoa_deg,
                    rssi_dbm=injection.traces[ap].rssi_dbm,
                )
                for ap in range(N_APS)
            ]
            evidence = {
                scene.access_points[ap].name: robust_ap_evidence(
                    world.estimator.cache, injection.traces[ap]
                )
                for ap in range(N_APS)
            }

            clean_fix = localize_robust(clean_obs, scene.room, resolution_m=RESOLUTION_M)
            blind_fix = localize_robust(faulted_obs, scene.room, resolution_m=RESOLUTION_M)

            fix: ConsensusResult | None
            quorum_failure: str | None = None
            try:
                fix = localize_consensus(
                    faulted_obs,
                    scene.room,
                    evidence=evidence,
                    resolution_m=RESOLUTION_M,
                )
            except QuorumError as error:
                fix, quorum_failure = None, str(error)

            scores = {} if fix is None else {s.name: s for s in fix.trust_scores}
            trials.append(
                {
                    "trial": trial,
                    "victims": victim_names,
                    "clean_error_m": clean_fix.error_to(scene.client),
                    "blind_error_m": blind_fix.error_to(scene.client),
                    "consensus_error_m": (
                        None if fix is None else fix.error_to(scene.client)
                    ),
                    "detected": fix is not None
                    and all(not scores[victim].trusted for victim in victim_names),
                    "false_flags": [
                        s.name
                        for s in scores.values()
                        if not s.trusted and s.name not in victim_names
                    ],
                    "contaminated": fix.contaminated if fix is not None else True,
                    "quorum_failure": quorum_failure,
                    "trust": {k: float(s.trust) for k, s in scores.items()},
                    "evidence": {k: v.to_dict() for k, v in evidence.items()},
                }
            )

    passed, criteria = _score_drill(name, trials)
    return DrillOutcome(name, passed, {**criteria, "trials": trials})


def _score_drill(name: str, trials: list[dict]) -> tuple[bool, dict]:
    """The drill's pass criteria: detection AND bounded error."""
    clean_median = float(np.median([t["clean_error_m"] for t in trials]))
    consensus_errors = [
        t["consensus_error_m"] for t in trials if t["consensus_error_m"] is not None
    ]
    consensus_median = (
        float(np.median(consensus_errors)) if consensus_errors else float("inf")
    )
    blind_median = float(np.median([t["blind_error_m"] for t in trials]))
    detection_rate = float(np.mean([t["detected"] for t in trials]))
    contamination_rate = float(np.mean([t["contaminated"] for t in trials]))
    false_flag_rate = float(np.mean([len(t["false_flags"]) > 0 for t in trials]))

    # An absolute floor keeps the ratio criterion meaningful when the
    # clean world localizes to within a grid cell or two.
    error_floor_m = 0.3

    if name == "nlos_single_ap":
        error_bound = max(1.3 * clean_median, error_floor_m)
        checks = {
            "detection_rate >= 0.9": detection_rate >= 0.9,
            f"consensus_median <= {error_bound:.3f}": consensus_median <= error_bound,
        }
    elif name == "nlos_majority":
        checks = {"contamination_rate >= 0.7": contamination_rate >= 0.7}
    else:  # ghost_multipath
        error_bound = max(1.5 * clean_median, error_floor_m)
        checks = {
            "detection_rate >= 0.7": detection_rate >= 0.7,
            f"consensus_median <= {error_bound:.3f}": consensus_median <= error_bound,
        }

    criteria = {
        "clean_median_m": clean_median,
        "blind_median_m": blind_median,
        "consensus_median_m": consensus_median,
        "detection_rate": detection_rate,
        "contamination_rate": contamination_rate,
        "false_flag_rate": false_flag_rate,
        "checks": checks,
    }
    return all(checks.values()), criteria
