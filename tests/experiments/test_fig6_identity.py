"""Fig. 6 outcome identity: the sweep's discrete outputs are pinned.

Each system's per-location outcome (grid location error, direct-path
and closest-peak AoA errors per AP) is quantized by the search grids,
so a solver change that only moves rounding leaves it bit-identical,
while a change of the program (a different κ, step or stop rule, a
peak picked differently) moves at least one pick.  The digests below
for 2017 and 2018 were recorded on the code before the fusion loop ran
on the row support, those for 1000 and 1001 on the code before it
screened rows by their Gram energies; ``perfbench``'s ±0.02 m median
check is the benchmark-side form of the same guard.
"""

import hashlib
import json

import pytest

from repro.experiments.runner import run_snr_band_experiment

#: sha256 of ``{system: [outcome.to_dict(), ...]}`` (sorted keys) for
#: ``run_snr_band_experiment('low', n_locations=1, n_packets=15,
#: n_aps=6, seed=seed, workers=0)`` over ROArray, SpotFi and ArrayTrack.
FIG6_DIGESTS = {
    2017: "d7a9fadebf38dc97e64570b6387306cf56ca7fc3622c453a7c4895be36d29ac3",
    2018: "a96245e85f72e006e8b050a1797e0d25cffba25cd43d3ce1e02d9532406e1561",
    1000: "83f609588fc0302f02265cb64f9145a61eb879ecdb870f42c7c54e9c4b355890",
    1001: "4e74650435b2bc43f1cee367d03dbb17239c629c3a1ae481b13b0eaaeb4b78f0",
}


def outcome_digest(result) -> str:
    payload = {
        system: [outcome.to_dict() for outcome in outcomes]
        for system, outcomes in result.outcomes.items()
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(FIG6_DIGESTS))
def test_fig6_outcomes_of_all_three_systems_are_unchanged(seed):
    result = run_snr_band_experiment(
        "low", n_locations=1, n_packets=15, n_aps=6, seed=seed, workers=0
    )
    assert sorted(result.outcomes) == ["ArrayTrack", "ROArray", "SpotFi"]
    assert outcome_digest(result) == FIG6_DIGESTS[seed]


def test_fig6_outcomes_are_unchanged_at_two_workers():
    """Two workers split a location's six jobs into chunks of two, so the
    fusion solves run in lockstep blocks of two instead of three; every
    problem still gets its lone solve's bits, and the digest holds."""
    seed = 2017
    result = run_snr_band_experiment(
        "low", n_locations=1, n_packets=15, n_aps=6, seed=seed, workers=2
    )
    assert outcome_digest(result) == FIG6_DIGESTS[seed]
