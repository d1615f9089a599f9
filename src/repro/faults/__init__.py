"""Fault injection, CSI validation, and chaos experiments (``repro.faults``).

The robustness substrate, in four layers:

* :mod:`~repro.faults.injectors` — deterministic, seeded fault
  injectors at the CSI-trace level (antenna dropout, subcarrier
  nulling, packet loss/duplication, phase glitches, NaN/Inf corruption,
  SNR collapse, AP outage).
* :mod:`~repro.faults.validate` — the validation gate: classify CSI
  defects and quarantine unusable packets before they reach the
  estimator (a byte-identical no-op on clean traces).
* :mod:`~repro.faults.scenario` / :mod:`~repro.faults.chaos` — compose
  injectors into seeded chaos scenarios and run them end-to-end through
  the hardened batch runtime and degraded-mode localization
  (``roarray chaos``).
* :mod:`~repro.faults.drills` — the one catalogue of scored drills
  (service resilience, then NLOS consensus from
  :mod:`~repro.faults.nlos`) behind ``roarray chaos --scenario NAME``.
  It drives :mod:`repro.serve`, so import it by module path; this
  package does not load it.
"""

from repro.faults.chaos import (
    ChaosResult,
    LocationOutcome,
    run_chaos_experiment,
)
from repro.faults.nlos import (
    NLOS_SCENARIOS,
    nlos_scenario,
    robust_ap_evidence,
    run_nlos_drill,
)
from repro.faults.injectors import (
    INJECTORS,
    AntennaDropout,
    ApOutage,
    GhostPath,
    InjectedFault,
    NlosBias,
    PacketDuplication,
    PacketLoss,
    PhaseGlitch,
    SnrCollapse,
    SubcarrierNulling,
    ValueCorruption,
)
from repro.faults.scenario import (
    ApFault,
    ChaosScenario,
    InjectionRecord,
    InjectionResult,
    demo_scenario,
)
from repro.faults.validate import (
    DEFECT_KINDS,
    CsiDefect,
    ValidationReport,
    classify_defects,
    sanitize_trace,
)

__all__ = [
    "DEFECT_KINDS",
    "INJECTORS",
    "NLOS_SCENARIOS",
    "AntennaDropout",
    "ApFault",
    "ApOutage",
    "ChaosResult",
    "ChaosScenario",
    "CsiDefect",
    "GhostPath",
    "InjectedFault",
    "NlosBias",
    "InjectionRecord",
    "InjectionResult",
    "LocationOutcome",
    "PacketDuplication",
    "PacketLoss",
    "PhaseGlitch",
    "SnrCollapse",
    "SubcarrierNulling",
    "ValidationReport",
    "ValueCorruption",
    "classify_defects",
    "demo_scenario",
    "nlos_scenario",
    "robust_ap_evidence",
    "run_chaos_experiment",
    "run_nlos_drill",
    "sanitize_trace",
]
