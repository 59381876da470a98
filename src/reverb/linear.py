"""Affine least-squares reference motion.

Every ego window gets a two-parameter (intercept, slope) fit per spatial
dimension, solved through the 2x2 normal equations on the 1-based time
design ``(1, t), t = 1..t_h``.  The fit, its extrapolation over the
prediction horizon, and the observation residual are the reference
inputs for the learned correction branches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError, NumericError, ShapeError
from .transforms import TimeSeq

_MAX_CONDITION = 1e12


@dataclass
class LinearFit:
    """Least-squares affine motion model.

    ``w_lin`` has shape (..., 2, m): row 0 intercepts, row 1 slopes per
    step.  ``fitted`` (..., t_h, m) and ``predicted`` (..., t_f, m) both
    lie exactly on the affine model.  Leading axes follow the input.
    """

    w_lin: np.ndarray
    fitted: np.ndarray
    predicted: np.ndarray


def _design(start: int, steps: int) -> np.ndarray:
    t = np.arange(start, start + steps, dtype=np.float64)
    return np.stack([np.ones(steps), t], axis=1)


def _values(x) -> np.ndarray:
    v = x.values if isinstance(x, TimeSeq) else np.asarray(x, dtype=np.float64)
    if v.ndim < 2:
        raise ShapeError(f"expected a (..., t, m) array, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise DomainError("sequence contains NaN or infinite values")
    return v


def linear_fit(x, t_f: int) -> LinearFit:
    """Fit ``x`` (a TimeSeq or (..., t_h, m) array) and extrapolate t_f steps.

    A stack is fitted sequence by sequence; each one gets exactly the
    values a lone ``(t_h, m)`` call would give it.
    """
    values = _values(x)
    t_h = values.shape[-2]
    if t_h < 2:
        raise InsufficientDataError(f"linear fit needs at least 2 steps, got {t_h}")
    if t_f < 1:
        raise ShapeError(f"prediction horizon must be >= 1, got {t_f}")
    a_h = _design(1, t_h)
    normal = a_h.T @ a_h
    if np.linalg.cond(normal) > _MAX_CONDITION:
        raise NumericError(f"ill-conditioned normal equations for t_h={t_h}")
    w = np.linalg.solve(normal, a_h.T @ values)
    return LinearFit(
        w_lin=w,
        fitted=a_h @ w,
        predicted=_design(t_h + 1, t_f) @ w,
    )

