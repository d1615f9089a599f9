"""Synthetic WiFi CSI substrate.

The paper's evaluation runs on Intel 5300 NICs in an 18 m × 12 m
classroom.  The NIC, the Linux CSI tool and the room are replaced here
by a physics-faithful simulator that produces exactly the object the
algorithms consume: the per-packet CSI matrix ``C`` of paper Eq. 4,
shaped ``(antennas, subcarriers)``, with the phase structure of Eq. 1
(AoA across antennas) and Eq. 12 (ToA across subcarriers), plus the
testbed impairments that make localization hard in practice — additive
noise at a controlled SNR, per-packet detection delay, per-boot phase
offsets, and polarization loss.

Layer map
---------

========================  ====================================================
:mod:`~repro.channel.array`        ULA geometry and steering phases (Eq. 1)
:mod:`~repro.channel.ofdm`         Subcarrier layouts, incl. the Intel 5300's
:mod:`~repro.channel.geometry`     Rooms, walls, image-method multipath
:mod:`~repro.channel.paths`        Propagation-path containers and generators
:mod:`~repro.channel.impairments`  Detection delay, phase offsets, polarization
:mod:`~repro.channel.noise`        AWGN at a target SNR
:mod:`~repro.channel.csi`          CSI synthesis (Eq. 4) and packet batches
:mod:`~repro.channel.trace`        On-disk trace format (save/load)
========================  ====================================================
"""

from repro.channel.array import UniformLinearArray
from repro.channel.csi import CsiSynthesizer, synthesize_csi_matrix
from repro.channel.geometry import Room, Scene, reflect_point, trace_paths
from repro.channel.impairments import ImpairmentModel, polarization_loss
from repro.channel.interference import Interferer, add_interference
from repro.channel.mobility import (
    RandomWaypointModel,
    TrajectorySample,
    stationary_track,
)
from repro.channel.noise import awgn, measured_snr_db
from repro.channel.ofdm import SubcarrierLayout, intel5300_layout
from repro.channel.paths import MultipathProfile, PropagationPath, random_profile
from repro.channel.trace import CsiTrace

__all__ = [
    "CsiSynthesizer",
    "CsiTrace",
    "ImpairmentModel",
    "Interferer",
    "MultipathProfile",
    "RandomWaypointModel",
    "TrajectorySample",
    "add_interference",
    "stationary_track",
    "PropagationPath",
    "Room",
    "Scene",
    "SubcarrierLayout",
    "UniformLinearArray",
    "awgn",
    "intel5300_layout",
    "measured_snr_db",
    "polarization_loss",
    "random_profile",
    "reflect_point",
    "synthesize_csi_matrix",
    "trace_paths",
]
