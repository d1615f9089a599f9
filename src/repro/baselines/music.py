"""MUSIC (MUltiple SIgnal Classification) and covariance conditioning.

MUSIC (Schmidt [14]) eigendecomposes the snapshot covariance, splits
signal from noise subspace using a model order ``K``, and scores each
candidate steering vector by how orthogonal it is to the noise
subspace:

    P(θ) = 1 / ‖E_nᴴ s(θ)‖²

Indoor multipath is *coherent* (all paths carry the same symbol), which
rank-collapses the covariance; the fix implemented here is
forward–backward averaging (SpotFi smooths its own CSI matrix in
:mod:`repro.baselines.spotfi`).  The paper's §II motivates ROArray
with exactly the failure mode these tools cannot fix: when the SNR is
low the signal/noise subspace split itself becomes unreliable.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SolverError
from repro.optim import as_operator
from repro.spectral.spectrum import AngleSpectrum


def sample_covariance(snapshots: np.ndarray) -> np.ndarray:
    """``R = Y Yᴴ / N`` for a snapshot matrix ``Y`` of shape (M, N)."""
    snapshots = np.asarray(snapshots)
    if snapshots.ndim != 2:
        raise SolverError(f"snapshots must be 2-D (sensors × snapshots), got ndim={snapshots.ndim}")
    n = snapshots.shape[1]
    if n == 0:
        raise SolverError("need at least one snapshot")
    return snapshots @ snapshots.conj().T / n


def forward_backward_average(covariance: np.ndarray) -> np.ndarray:
    """Forward–backward averaging: ``(R + J R* J) / 2``.

    ``J`` is the exchange (flip) matrix.  Decorrelates pairs of coherent
    sources on a ULA at no aperture cost.
    """
    covariance = np.asarray(covariance)
    if covariance.ndim != 2 or covariance.shape[0] != covariance.shape[1]:
        raise SolverError(f"covariance must be square, got shape {covariance.shape}")
    flipped = covariance[::-1, ::-1].conj()
    return 0.5 * (covariance + flipped)


def noise_subspace(covariance: np.ndarray, n_sources: int) -> np.ndarray:
    """Eigenvectors spanning the noise subspace (columns).

    ``n_sources`` is the assumed model order ``K``; MUSIC's accuracy
    hinges on it (paper §III-B notes SpotFi fixes K = 5 and suffers
    when the true K differs).
    """
    covariance = np.asarray(covariance)
    m = covariance.shape[0]
    if not 1 <= n_sources < m:
        raise SolverError(f"n_sources must be in [1, {m - 1}], got {n_sources}")
    eigenvalues, eigenvectors = np.linalg.eigh(covariance)
    # eigh returns ascending order: the smallest M−K eigenpairs are noise.
    return eigenvectors[:, : m - n_sources]


def music_pseudospectrum(noise_basis: np.ndarray, dictionary) -> np.ndarray:
    """``P = 1/‖E_nᴴ s‖²`` for each dictionary column ``s``.

    ``dictionary`` is a dense ``(M, n)`` steering array or any
    :class:`~repro.optim.DictionaryOperator` whose rows follow the
    basis rows; the denominators are the row norms of the adjoint
    product ``Aᴴ E_n``, so a structured dictionary (SpotFi's
    :class:`~repro.optim.KroneckerJointOperator`) is never materialized.
    """
    projections = as_operator(dictionary).rmatvec(noise_basis)
    # Σ|p|² per row, squared in place in the product (ours to clobber): a
    # temporary the size of the product would cost page faults per call.
    energies, imaginary = projections.real, projections.imag
    np.square(energies, out=energies)
    energies += np.square(imaginary, out=imaginary)
    denominator = energies.sum(axis=1)
    floor = 1e-12 * max(float(denominator.max(initial=0.0)), 1e-300)
    return 1.0 / np.maximum(denominator, floor)


def music_angle_spectrum(
    snapshots: np.ndarray,
    steering: np.ndarray,
    angles_deg: np.ndarray,
    *,
    n_sources: int,
    forward_backward: bool = True,
) -> AngleSpectrum:
    """1-D spatial MUSIC from an (M × N) snapshot matrix.

    Parameters
    ----------
    steering:
        Candidate steering matrix of shape ``(M, len(angles_deg))`` —
        build it with :meth:`repro.channel.array.UniformLinearArray.steering_matrix`.
    """
    covariance = sample_covariance(snapshots)
    if forward_backward:
        covariance = forward_backward_average(covariance)
    basis = noise_subspace(covariance, n_sources)
    return AngleSpectrum(angles_deg, music_pseudospectrum(basis, steering))
