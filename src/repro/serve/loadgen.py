"""Synthetic streaming workloads: many mobile clients, per-AP packets.

The load generator closes the loop for the service the way the
classroom scenes close it for the offline harness: client trajectories
come from :mod:`repro.channel.mobility` (random-waypoint walkers plus a
stationary fraction — real rooms are mostly people sitting still), the
physics from the image-method ray tracer, and the packets from the CSI
synthesizer, so every packet carries a ground-truth position and the
service's fixes can be scored exactly.

A :class:`Workload` is replayable and portable (``save``/``load`` to
one ``.npz``); its time-ordered ``packets`` are the stream
:meth:`~repro.serve.resilience.ServiceSupervisor.run` consumes, and
:func:`offline_reference` replays it through the cold, unbatched solve
path — the accuracy baseline the serve gates hold the service to.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from repro.channel.array import UniformLinearArray
from repro.channel.csi import CsiSynthesizer
from repro.channel.geometry import AccessPoint, Room, trace_paths
from repro.channel.impairments import ImpairmentModel
from repro.channel.mobility import RandomWaypointModel, stationary_track
from repro.channel.ofdm import SubcarrierLayout
from repro.exceptions import ConfigurationError
from repro.experiments.scenarios import (
    SNR_BANDS,
    classroom_access_points,
    classroom_room,
    sample_client_position,
)
from repro.serve.packets import CsiPacket, PositionFix


@dataclass
class Workload:
    """A replayable packet stream with its geometry and ground truth."""

    room: Room
    access_points: list[AccessPoint]
    packets: list[CsiPacket]
    truth: dict[str, list[tuple[float, tuple[float, float]]]]
    array: UniformLinearArray
    layout: SubcarrierLayout
    meta: dict = field(default_factory=dict)

    @property
    def clients(self) -> list[str]:
        return sorted(self.truth)

    @property
    def duration_s(self) -> float:
        return max((p.time_s for p in self.packets), default=0.0)

    def truth_position(self, client: str, time_s: float) -> tuple[float, float]:
        """Ground-truth position of ``client`` at (the sample nearest) ``time_s``."""
        track = self.truth.get(client)
        if not track:
            raise ConfigurationError(f"no ground truth for client {client!r}")
        nearest = min(track, key=lambda sample: abs(sample[0] - time_s))
        return nearest[1]

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """One compressed ``.npz`` holding packets, geometry and truth."""
        clients = self.clients
        client_index = {name: i for i, name in enumerate(clients)}
        ap_names = [ap.name for ap in self.access_points]
        ap_index = {name: i for i, name in enumerate(ap_names)}
        np.savez_compressed(
            path,
            times=np.array([p.time_s for p in self.packets]),
            client_idx=np.array([client_index[p.client] for p in self.packets], dtype=int),
            ap_idx=np.array([ap_index[p.ap] for p in self.packets], dtype=int),
            csi=np.stack([np.asarray(p.csi) for p in self.packets]),
            rssi=np.array([p.rssi_dbm for p in self.packets]),
            clients=np.array(clients),
            ap_names=np.array(ap_names),
            ap_positions=np.array([ap.position for ap in self.access_points]),
            ap_axes=np.array([ap.axis_direction_deg for ap in self.access_points]),
            room=np.array([self.room.width, self.room.depth]),
            truth_times=np.array(
                [t for name in clients for t, _ in self.truth[name]]
            ),
            truth_xy=np.array(
                [pos for name in clients for _, pos in self.truth[name]]
            ).reshape(-1, 2),
            truth_counts=np.array([len(self.truth[name]) for name in clients], dtype=int),
            meta=np.array(
                json.dumps(
                    {
                        **self.meta,
                        "n_antennas": self.array.n_antennas,
                        "antenna_spacing": self.array.spacing,
                        "wavelength": self.array.wavelength,
                        "n_subcarriers": self.layout.n_subcarriers,
                        "subcarrier_spacing": self.layout.spacing,
                        "center_frequency": self.layout.center_frequency,
                    }
                )
            ),
        )

    @classmethod
    def load(cls, path) -> "Workload":
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            array = UniformLinearArray(
                n_antennas=int(meta["n_antennas"]),
                spacing=float(meta["antenna_spacing"]),
                wavelength=float(meta["wavelength"]),
            )
            layout = SubcarrierLayout(
                n_subcarriers=int(meta["n_subcarriers"]),
                spacing=float(meta["subcarrier_spacing"]),
                center_frequency=float(meta["center_frequency"]),
            )
            room = Room(width=float(data["room"][0]), depth=float(data["room"][1]))
            access_points = [
                AccessPoint(
                    position=(float(x), float(y)),
                    axis_direction_deg=float(axis),
                    name=str(name),
                )
                for (x, y), axis, name in zip(
                    data["ap_positions"], data["ap_axes"], data["ap_names"]
                )
            ]
            clients = [str(name) for name in data["clients"]]
            packets = [
                CsiPacket(
                    client=clients[int(ci)],
                    ap=access_points[int(ai)].name,
                    time_s=float(t),
                    csi=np.array(csi),
                    rssi_dbm=float(rssi),
                )
                for t, ci, ai, csi, rssi in zip(
                    data["times"], data["client_idx"], data["ap_idx"],
                    data["csi"], data["rssi"],
                )
            ]
            truth: dict[str, list[tuple[float, tuple[float, float]]]] = {}
            cursor = 0
            for name, count in zip(clients, data["truth_counts"]):
                samples = []
                for offset in range(int(count)):
                    t = float(data["truth_times"][cursor + offset])
                    x, y = data["truth_xy"][cursor + offset]
                    samples.append((t, (float(x), float(y))))
                cursor += int(count)
                truth[name] = samples
        return cls(
            room=room, access_points=access_points, packets=packets, truth=truth,
            array=array, layout=layout, meta=meta,
        )


@dataclass
class LoadGenerator:
    """Deterministic workload factory over the classroom deployment.

    Attributes
    ----------
    n_clients / duration_s / sample_interval_s:
        Population size and per-client packet cadence (one packet per
        AP per trajectory sample).
    stationary_fraction:
        Fraction of clients that sit still (degenerate trajectories);
        the rest are random-waypoint walkers.
    n_aps / band / seed:
        Deployment size, SNR regime, and the seed everything derives
        from — the same arguments always produce the same workload.
    outages:
        Optional mid-stream AP blackouts: ``{ap_name: (start_s, end_s)}``
        windows during which that AP emits nothing (the degraded-mode
        scenario the service must survive).
    layout / array:
        Hardware model; defaults to a reduced 16-subcarrier layout so
        large populations stay fast to synthesize and solve.
    """

    n_clients: int = 10
    duration_s: float = 2.0
    sample_interval_s: float = 0.5
    stationary_fraction: float = 0.3
    n_aps: int = 4
    band: str = "high"
    seed: int = 0
    outages: dict[str, tuple[float, float]] = field(default_factory=dict)
    array: UniformLinearArray = field(default_factory=UniformLinearArray)
    layout: SubcarrierLayout = field(
        default_factory=lambda: SubcarrierLayout(n_subcarriers=16, spacing=1.25e6)
    )

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ConfigurationError(f"n_clients must be >= 1, got {self.n_clients}")
        if self.duration_s <= 0 or self.sample_interval_s <= 0:
            raise ConfigurationError("duration and sample interval must be positive")
        if not 0.0 <= self.stationary_fraction <= 1.0:
            raise ConfigurationError(
                f"stationary_fraction must be in [0, 1], got {self.stationary_fraction}"
            )
        if self.band not in SNR_BANDS:
            raise ConfigurationError(
                f"band must be one of {sorted(SNR_BANDS)}, got {self.band!r}"
            )

    def generate(self) -> Workload:
        rng = np.random.default_rng(self.seed)
        room = classroom_room()
        access_points = classroom_access_points(self.n_aps, room)
        unknown = set(self.outages) - {ap.name for ap in access_points}
        if unknown:
            raise ConfigurationError(f"outage for unknown AP(s): {sorted(unknown)}")
        synthesizers = [
            CsiSynthesizer(self.array, self.layout, ImpairmentModel(), seed=self.seed + i)
            for i in range(self.n_aps)
        ]
        band = SNR_BANDS[self.band]
        model = RandomWaypointModel(room)
        n_stationary = int(round(self.n_clients * self.stationary_fraction))

        packets: list[CsiPacket] = []
        truth: dict[str, list[tuple[float, tuple[float, float]]]] = {}
        for index in range(self.n_clients):
            client = f"client-{index:04d}"
            offset = float(rng.uniform(0.0, self.sample_interval_s))
            if index < n_stationary:
                track = stationary_track(
                    sample_client_position(rng, room),
                    duration_s=self.duration_s,
                    sample_interval_s=self.sample_interval_s,
                )
            else:
                track = model.generate(
                    rng,
                    duration_s=self.duration_s,
                    sample_interval_s=self.sample_interval_s,
                    start=sample_client_position(rng, room),
                )
            snrs = [band.draw(rng) for _ in range(self.n_aps)]
            truth[client] = []
            for sample in track:
                time_s = sample.time_s + offset
                truth[client].append((time_s, sample.position))
                for ap_i, ap in enumerate(access_points):
                    window = self.outages.get(ap.name)
                    if window is not None and window[0] <= time_s < window[1]:
                        continue
                    profile = trace_paths(
                        room=room,
                        transmitter=np.asarray(sample.position),
                        receiver=ap,
                        wavelength=self.array.wavelength,
                    )
                    trace = synthesizers[ap_i].packets(
                        profile, n_packets=1, snr_db=snrs[ap_i], rng=rng
                    )
                    packets.append(
                        CsiPacket(
                            client=client,
                            ap=ap.name,
                            time_s=time_s,
                            csi=trace.csi[0],
                            rssi_dbm=trace.rssi_dbm,
                        )
                    )
        packets.sort(key=lambda p: (p.time_s, p.client, p.ap))
        return Workload(
            room=room,
            access_points=access_points,
            packets=packets,
            truth=truth,
            array=self.array,
            layout=self.layout,
            meta={
                "n_clients": self.n_clients,
                "duration_s": self.duration_s,
                "sample_interval_s": self.sample_interval_s,
                "stationary_fraction": self.stationary_fraction,
                "n_aps": self.n_aps,
                "band": self.band,
                "seed": self.seed,
                "outages": {name: list(window) for name, window in self.outages.items()},
            },
        )


def offline_reference(workload: Workload, *, config=None) -> list[PositionFix]:
    """The workload's fixes through the cold, unbatched solve path.

    Replays the packets through a service configured with
    ``batch_size=1`` (a singleton :func:`~repro.optim.solve_batch` is
    the sequential solver's own one-problem kernel call) and warm starts off, so
    every solve is exactly the offline pipeline's cold MMV solve.  The
    serve gates hold the streaming path's accuracy to this baseline.
    """
    from repro.serve.service import LocalizationService, ServeConfig

    config = config if config is not None else ServeConfig()
    config = replace(config, batch_size=1, max_delay_s=0.0, warm_start=False)
    service = LocalizationService(
        workload.room,
        workload.access_points,
        array=workload.array,
        layout=workload.layout,
        config=config,
    )
    fixes: list[PositionFix] = []
    for packet in workload.packets:
        service.submit(packet)
        fixes.extend(service.process_due())
    fixes.extend(service.drain())
    return fixes


def median_fix_error_m(fixes, workload: Workload) -> float:
    """Median raw-fix error against the workload's ground truth."""
    errors = [
        fix.error_to(workload.truth_position(fix.client, fix.time_s)) for fix in fixes
    ]
    if not errors:
        raise ConfigurationError("no fixes to score")
    return float(np.median(errors))
