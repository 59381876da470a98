"""Invertible sequence transforms.

Trajectories enter the model through one of four exactly invertible
transforms.  Every kind maps a real sequence of shape ``(t, m)`` to a
spectrum of shape ``(T, M)``:

==========  ============  ================================================
kind        (T, M)        spectrum column layout
==========  ============  ================================================
``none``    ``(t, m)``    the sequence itself
``haar``    ``(t/2, 2m)``  ``[approximation block | detail block]``
``db2``     ``(t/2, 2m)``  ``[approximation block | detail block]``
``dft``     ``(t/2, 2m)``  ``[real block | imaginary block]``
==========  ============  ================================================

``haar`` is the single-level orthonormal Haar wavelet: neighbouring
samples are averaged and differenced with a ``1/sqrt(2)`` factor.

``db2`` is the 4-tap orthonormal wavelet evaluated with a lifting
scheme.  The one off-end sample each lifting step needs is linearly
extrapolated from the two nearest coefficients, which keeps the round
trip exact and makes all detail coefficients of an exactly affine
sequence vanish.

``dft`` keeps the first ``t/2`` bins of the orthonormal real FFT.  Bins
``1 .. t/2-1`` are scaled by ``sqrt(2)`` so the map is orthogonal
(energy preserving), and the purely real Nyquist coefficient is packed
into the otherwise always-zero imaginary slot of bin 0, so no
information is dropped.

A kind is defined by its forward map alone.  Every forward map is
linear and invertible, so its inverse is the matrix inverse of that map:
:func:`inverse_matrix` gives it as a dense matrix acting on flattened
spectra, which is what the model folds into its differentiable decode.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, SequenceLengthError, ShapeError

KINDS = ("none", "haar", "db2", "dft")

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
# Normalisation factors of the final db2 lifting step; their product is 1.
_DB2_S = (_SQRT3 - 1.0) / _SQRT2
_DB2_D = (_SQRT3 + 1.0) / _SQRT2


@dataclass
class TimeSeq:
    """A uniformly sampled sequence: ``values`` is ``(t, m)``, ``dt`` seconds per step."""

    values: np.ndarray
    dt: float


def check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ConfigError(f"unknown transform kind {kind!r}, expected one of {KINDS}")
    return kind


def spectrum_shape(kind: str, t: int, m: int) -> tuple[int, int]:
    """Shape ``(T, M)`` of the spectrum of a ``(t, m)`` sequence."""
    check_kind(kind)
    if kind == "none":
        return t, m
    return t // 2, 2 * m


def forward_values(values: np.ndarray, kind: str) -> np.ndarray:
    """Apply the transform to a ``(..., t, m)`` array, returning ``(..., T, M)``.

    Leading axes are a stack of independent sequences; each one gets
    exactly the values a lone ``(t, m)`` call would give it.
    """
    x = _checked(values, kind)
    if kind == "none":
        return x.copy()
    if kind == "haar":
        return _haar_forward(x)
    if kind == "db2":
        return _db2_forward(x)
    return _dft_forward(x)


@functools.lru_cache(maxsize=None)
def inverse_matrix(kind: str, t: int, m: int) -> np.ndarray:
    """Dense inverse operator ``W`` with ``seq.ravel() == spec.ravel() @ W``.

    The ``t*m`` identity basis sequences go through :func:`forward_values`
    as one stack.  Their spectra are the rows of the forward matrix ``F``,
    with ``x.ravel() @ F == spec.ravel()``, and ``W`` is the inverse of
    ``F``.  Shape is ``(T*M, t*m)``.
    """
    basis = np.eye(t * m).reshape(t * m, t, m)
    w = np.linalg.inv(forward_values(basis, kind).reshape(t * m, -1))
    w.setflags(write=False)
    return w


def _checked(values: np.ndarray, kind: str) -> np.ndarray:
    check_kind(kind)
    x = np.asarray(values, dtype=np.float64)
    if x.ndim < 2:
        raise ShapeError(f"sequence must be (..., t, m), got shape {x.shape}")
    t = x.shape[-2]
    if t < 2:
        raise SequenceLengthError(f"need at least 2 steps, got {t}")
    if kind != "none" and t % 2:
        raise SequenceLengthError(f"kind {kind!r} needs an even length, got {t}")
    if not np.isfinite(x).all():
        raise DomainError("sequence contains NaN or infinite values")
    return x


def _haar_forward(x: np.ndarray) -> np.ndarray:
    even, odd = x[..., 0::2, :], x[..., 1::2, :]
    return np.concatenate([(even + odd) / _SQRT2, (even - odd) / _SQRT2], axis=-1)


def _shift_back(v: np.ndarray) -> np.ndarray:
    """``v`` shifted one row down (axis -2); the missing first row is linearly
    extrapolated."""
    out = np.empty_like(v)
    out[..., 1:, :] = v[..., :-1, :]
    out[..., 0, :] = 2.0 * v[..., 0, :] - v[..., 1, :] if v.shape[-2] > 1 else v[..., 0, :]
    return out


def _shift_fwd(v: np.ndarray) -> np.ndarray:
    """``v`` shifted one row up (axis -2); the missing last row is linearly
    extrapolated."""
    out = np.empty_like(v)
    out[..., :-1, :] = v[..., 1:, :]
    out[..., -1, :] = 2.0 * v[..., -1, :] - v[..., -2, :] if v.shape[-2] > 1 else v[..., -1, :]
    return out


def _db2_forward(x: np.ndarray) -> np.ndarray:
    even, odd = x[..., 0::2, :], x[..., 1::2, :]
    s1 = even + _SQRT3 * odd
    d1 = odd - (_SQRT3 / 4.0) * s1 - ((_SQRT3 - 2.0) / 4.0) * _shift_back(s1)
    s2 = s1 - _shift_fwd(d1)
    return np.concatenate([_DB2_S * s2, _DB2_D * d1], axis=-1)


def _dft_scale(half: int) -> np.ndarray:
    # sqrt(2) on the doubled bins keeps the packed map orthogonal.
    scale = np.full(half, _SQRT2)
    scale[0] = 1.0
    return scale[:, None]


def _dft_forward(x: np.ndarray) -> np.ndarray:
    half = x.shape[-2] // 2
    c = np.fft.rfft(x, axis=-2, norm="ortho")
    scale = _dft_scale(half)
    re = c.real[..., :half, :] * scale
    im = c.imag[..., :half, :] * scale
    im[..., 0, :] = c.real[..., half, :]
    return np.concatenate([re, im], axis=-1)
