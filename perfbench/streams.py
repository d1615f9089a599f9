"""Seeded benchmark inputs: serve packet streams and an Intel 5300 corpus.

Everything here is a pure function of its seed: the same seed always
builds the same packets and the same capture bytes.  The program under
test only ever receives the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.channel.array import UniformLinearArray
from repro.channel.csi import CsiSynthesizer
from repro.channel.geometry import Scene
from repro.channel.impairments import ImpairmentModel
from repro.channel.ofdm import intel5300_layout
from repro.experiments.scenarios import SNR_BANDS, build_random_scene
from repro.io.intel import write_intel_dat
from repro.serve import LoadGenerator
from repro.serve.loadgen import Workload

#: How often each client reports to every AP (packet-time seconds).
REPORT_INTERVAL_S = 0.5
_GOLDEN = (5**0.5 - 1) / 2


def cohort_stream(
    seed: int,
    *,
    n_cohorts: int,
    clients_per_cohort: int,
    client_life_s: float,
    period_s: float,
    stationary_fraction: float,
    n_aps: int = 3,
    band: str = "high",
) -> Workload:
    """A churning client population as one time-ordered packet stream.

    Cohort ``k`` is a :class:`~repro.serve.LoadGenerator` population of
    ``clients_per_cohort`` clients that arrives at ``k * period_s`` and
    reports to every AP each :data:`REPORT_INTERVAL_S` for
    ``client_life_s`` seconds.  Churn keeps the number of distinct client
    positions growing with the stream's length while the offered packet
    rate stays constant.

    Client ``g`` (counted across cohorts) reports at phase
    ``frac(g · φ)`` of the interval, a low-discrepancy sequence, instead
    of the generator's random phase: arrivals stay evenly spread over
    time for every seed, so the seed changes what the packets carry,
    not how they queue.
    """
    packets = []
    truth = {}
    workload = None
    for cohort in range(n_cohorts):
        workload = LoadGenerator(
            n_clients=clients_per_cohort,
            duration_s=client_life_s,
            sample_interval_s=REPORT_INTERVAL_S,
            stationary_fraction=stationary_fraction,
            n_aps=n_aps,
            band=band,
            seed=seed * 10_000 + cohort,
        ).generate()
        shifts = {}
        for index, client in enumerate(workload.clients):
            phase = (cohort * clients_per_cohort + index) * _GOLDEN % 1.0 * REPORT_INTERVAL_S
            first_report_s = workload.truth[client][0][0]
            shifts[client] = cohort * period_s + phase - first_report_s
        prefix = f"k{cohort:03d}-"
        packets.extend(
            replace(
                packet, client=prefix + packet.client, time_s=packet.time_s + shifts[packet.client]
            )
            for packet in workload.packets
        )
        for client, track in workload.truth.items():
            truth[prefix + client] = [(time_s + shifts[client], xy) for time_s, xy in track]
    packets.sort(key=lambda p: (p.time_s, p.client, p.ap))
    return Workload(
        room=workload.room,
        access_points=workload.access_points,
        packets=packets,
        truth=truth,
        array=workload.array,
        layout=workload.layout,
        meta={"seed": seed, "n_cohorts": n_cohorts, "clients_per_cohort": clients_per_cohort},
    )


def prefix_stream(workload: Workload, end_s: float) -> Workload:
    """The packets of ``workload`` due before ``end_s``."""
    return replace(workload, packets=[p for p in workload.packets if p.time_s < end_s])


@dataclass(frozen=True)
class Capture:
    """One written ``.dat`` capture and the float CSI it quantizes."""

    path: Path
    #: ``(packets, antennas, 30)`` CSI in int8 units, before rounding.
    exact: np.ndarray


def write_capture_corpus(
    seed: int, directory: Path, *, n_sites: int, n_aps: int, n_packets: int
) -> list[list[Capture]]:
    """Write ``n_sites × n_aps`` Intel 5300 captures; one list per site.

    Each capture is a synthesized packet train of one client seen by one
    AP of a random classroom scene, scaled into the int8 range and
    rounded exactly as the NIC would quantize it.
    """
    rng = np.random.default_rng(seed)
    array = UniformLinearArray()
    layout = intel5300_layout()
    band = SNR_BANDS["medium"]
    directory.mkdir(parents=True, exist_ok=True)
    sites = []
    for site in range(n_sites):
        scene: Scene = build_random_scene(rng, n_aps=n_aps)
        captures = []
        for ap in range(n_aps):
            synthesizer = CsiSynthesizer(
                array, layout, ImpairmentModel(), seed=seed * 1_000 + site * n_aps + ap
            )
            trace = synthesizer.packets(
                scene.multipath_profile(ap, layout.wavelength),
                n_packets=n_packets,
                snr_db=band.draw(rng),
                rng=rng,
            )
            peak = np.max(np.abs(np.concatenate([trace.csi.real, trace.csi.imag])))
            exact = trace.csi * (100.0 / peak)
            path = directory / f"site{site:02d}_ap{ap}.dat"
            write_intel_dat(path, np.round(exact.real) + 1j * np.round(exact.imag))
            captures.append(Capture(path=path, exact=exact))
        sites.append(captures)
    return sites
