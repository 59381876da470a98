"""Latency-kernel algebra.

The core object is a pair of bounded kernels acting on a sequence-wise
similarity tensor:

* ``r`` (T, T_f) spreads each observed step's influence over the future
  steps (the event-level latency basis).
* ``g`` (T, K_g) mixes the observed steps into K_g alternative global
  combinations.

Applied to a similarity tensor F (T, T, D) the pair produces the
rehearsal field ``out[:, :, d] = g.T @ F[:, :, d] @ r`` of shape
(K_g, T_f, D).  The map is linear in F, and each output slice's rank is
bounded by min(rank g, rank F_d, rank r); :func:`rank_report` verifies
that bound numerically.

:func:`reverberation_transform` takes a general F and is the reference
oracle.  The model only ever applies it to a sequential similarity,
whose slices are rank 1 (``F_d = f_d f_d^T``), so ``ReverbPredictor._rehearse``
uses ``g.T @ F_d @ r = (g.T f_d)(f_d^T r)`` and builds neither F nor the field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError, ShapeError

RANK_TOL = 1e-8
_BOUND_SLACK = 1e-12


@dataclass
class ReverbKernelPair:
    """Bounded kernel pair: ``r`` (T, T_f), ``g`` (T, K_g)."""

    r: np.ndarray
    g: np.ndarray

    def validate(self) -> "ReverbKernelPair":
        for name, k in (("r", self.r), ("g", self.g)):
            if k.ndim != 2:
                raise ShapeError(f"kernel {name} must be 2-d, got shape {k.shape}")
            if not np.isfinite(k).all():
                raise DomainError(f"kernel {name} contains NaN or infinite values")
            if np.abs(k).max(initial=0.0) > 1.0 + _BOUND_SLACK:
                raise DomainError(f"kernel {name} exceeds the [-1, 1] bound")
        if self.r.shape[0] != self.g.shape[0]:
            raise ShapeError(
                f"kernels disagree on T: r is {self.r.shape}, g is {self.g.shape}"
            )
        return self


def sequential_similarity(f: np.ndarray) -> np.ndarray:
    """Per-dimension outer products: out[t, u, d] = f[t, d] * f[u, d].

    Every output slice out[:, :, d] is symmetric, PSD and rank <= 1.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2:
        raise ShapeError(f"features must be 2-d (T, D), got shape {f.shape}")
    if not np.isfinite(f).all():
        raise DomainError("features contain NaN or infinite values")
    return np.einsum("td,ud->tud", f, f)


def reverberation_transform(sim: np.ndarray, kernels: ReverbKernelPair) -> np.ndarray:
    """Apply the kernel pair to a similarity tensor.

    ``sim`` is (T, T, D); the result is (K_g, T_f, D) with slice d equal
    to ``g.T @ sim[:, :, d] @ r`` exactly (no recurrence, one bilinear
    contraction).
    """
    sim = np.asarray(sim, dtype=np.float64)
    if sim.ndim != 3 or sim.shape[0] != sim.shape[1]:
        raise ShapeError(f"similarity tensor must be (T, T, D), got {sim.shape}")
    kernels.validate()
    t = sim.shape[0]
    if kernels.r.shape[0] != t:
        raise ShapeError(
            f"kernel T={kernels.r.shape[0]} does not match similarity T={t}"
        )
    return np.einsum("tk,tud,uv->kvd", kernels.g, sim, kernels.r, optimize=True)


def matrix_rank(a: np.ndarray, rel_tol: float = RANK_TOL) -> int:
    """Numerical rank: singular values above ``rel_tol`` * sigma_max."""
    s = np.linalg.svd(np.atleast_2d(a), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > rel_tol * s[0]).sum())


@dataclass
class RankReport:
    """Numerical ranks of the kernels, input slices, and output slices."""

    rank_r: int
    rank_g: int
    rank_sim: list = field(default_factory=list)
    rank_out: list = field(default_factory=list)


def rank_report(kernels: ReverbKernelPair, sim: np.ndarray) -> RankReport:
    """Rank diagnostics for one transform application.

    Raises NumericError if any output slice exceeds the rank bound
    min(rank g, rank F_d, rank r); the bound is a theorem, so a
    violation signals numerical corruption.
    """
    out = reverberation_transform(sim, kernels)
    report = RankReport(
        rank_r=matrix_rank(kernels.r),
        rank_g=matrix_rank(kernels.g),
    )
    for d in range(sim.shape[2]):
        rank_f = matrix_rank(sim[:, :, d])
        rank_o = matrix_rank(out[:, :, d])
        report.rank_sim.append(rank_f)
        report.rank_out.append(rank_o)
        bound = min(report.rank_g, rank_f, report.rank_r)
        if rank_o > bound:
            raise NumericError(
                f"rank bound violated on slice {d}: rank(out)={rank_o} > "
                f"min(rank_g={report.rank_g}, rank_f={rank_f}, rank_r={report.rank_r})"
            )
    return report
