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
    sources on a ULA at no aperture cost.  A stack of covariances
    (``(..., M, M)``) is averaged matrix by matrix.
    """
    covariance = np.asarray(covariance)
    if covariance.ndim < 2 or covariance.shape[-1] != covariance.shape[-2]:
        raise SolverError(f"covariance must be square, got shape {covariance.shape}")
    averaged = covariance + covariance[..., ::-1, ::-1].conj()
    averaged *= 0.5
    return averaged


def noise_subspace(covariance: np.ndarray, n_sources: int) -> np.ndarray:
    """Eigenvectors spanning the noise subspace (columns).

    ``n_sources`` is the assumed model order ``K``; MUSIC's accuracy
    hinges on it (paper §III-B notes SpotFi fixes K = 5 and suffers
    when the true K differs).  A stack of covariances (``(..., M, M)``)
    is decomposed in one stacked ``eigh``.
    """
    covariance = np.asarray(covariance)
    m = covariance.shape[-1]
    if not 1 <= n_sources < m:
        raise SolverError(f"n_sources must be in [1, {m - 1}], got {n_sources}")
    eigenvalues, eigenvectors = np.linalg.eigh(covariance)
    # eigh returns ascending order: the smallest M−K eigenpairs are noise.
    return eigenvectors[..., : m - n_sources]


def music_pseudospectrum(noise_basis: np.ndarray, dictionary) -> np.ndarray:
    """``P = 1/‖E_nᴴ s‖²`` for each dictionary column ``s``.

    ``noise_basis`` is one ``(M, M−K)`` basis, or a ``(B, M, M−K)`` stack
    scored in one pass (``(B, n)`` out), each basis floored at ``1e-12``
    of its own largest denominator.  ``dictionary`` is a dense ``(M, n)``
    steering array or any :class:`~repro.optim.DictionaryOperator` whose
    rows follow the basis rows.  The denominators are the operator's
    :meth:`~repro.optim.DictionaryOperator.row_energies` of ``E_n``: the
    squared adjoint for dense steering, the per-delay Gram forms for
    SpotFi's :class:`~repro.optim.KroneckerJointOperator`, which is never
    materialized and never forms ``Aᴴ E_n``.
    """
    operator = as_operator(dictionary)
    bases = np.asarray(noise_basis)
    stack = bases if bases.ndim == 3 else bases[None]
    rows = stack.transpose(0, 2, 1)
    if operator.line_order is not None:
        rows = rows.take(operator.line_order, axis=2)
    denominator = operator.row_energies(rows.reshape(-1, stack.shape[1]).T, stack.shape[2])
    peak = denominator.max(axis=1, initial=0.0, keepdims=True)
    floor = 1e-12 * np.maximum(peak, 1e-300)
    # In place: the energies are a fresh array, as large as the spectra.
    power = np.divide(1.0, np.maximum(denominator, floor, out=denominator), out=denominator)
    return power if bases.ndim == 3 else power[0]


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
