"""Reference forms that tests compare the program against.

The layer oracles build their results from unfused tape ops
(``matmul``, ``add``, ``mean_``, ``softmax``, ...), one op per step; a
composite such as ``mean_`` records the nodes of the primitives it is
built from.  So their forwards and gradients come from the generic vjps
alone; the fused ops in ``reverb.nn.tensor`` and the split query projection in
``ReverbPredictor._query`` must agree with them.  The scatter oracles
add rows by id with ``np.add.at``, where ``segment_mean`` and the
``index_select`` vjp use one ``np.bincount``.  ``encode_preprocessed``
stacks ``preprocess`` of each sample, which ``ReverbPredictor.encode``'s
shift of whole stacks must equal byte for byte.  ``change_point_frame``
locates the planted heading change of the synthetic generator.

The kernel algebra is the paper's rehearsal in its general form:
``sequential_similarity`` builds F from features, ``reverberation_transform``
applies ``g.T @ F_d @ r`` to every slice of any (T, T, D) F, and
``rank_report`` (with ``matrix_rank`` and ``RankReport``) checks the rank
bound min(rank g, rank F_d, rank r) on each output slice.  The model
only ever needs rank-1 slices, so ``ReverbPredictor._rehearse`` uses a
closed form that these oracles test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from reverb import transforms
from reverb.data import preprocess
from reverb.errors import InsufficientDataError, NumericError
from reverb.linear import linear_fit
from reverb.model import ReverbKernelPair
from reverb.nn import tensor as T


def dense(x, w, b, activation: str = "none"):
    """``act(x @ w + b)`` as matmul, add and activation nodes."""
    out = T.matmul(x, w) + b
    if activation == "tanh":
        return T.tanh(out)
    if activation == "relu":
        return T.relu(out)
    return out


def layer_norm(x, gamma, beta, eps: float):
    mu = T.mean_(x, axis=-1, keepdims=True)
    centered = x - mu
    var = T.mean_(centered * centered, axis=-1, keepdims=True)
    return centered / T.sqrt(var + eps) * gamma + beta


def attention(q, k, v, heads: int, scale: float):
    """Head split, scores, softmax, context and head merge, node by node."""
    bsz, lq, dim = q.shape

    def split(x):
        return T.transpose(T.reshape(x, (bsz, x.shape[1], heads, dim // heads)),
                           (0, 2, 1, 3))

    scores = T.matmul(split(q), T.transpose(split(k), (0, 1, 3, 2))) * scale
    ctx = T.matmul(T.softmax(scores, axis=-1), split(v))
    return T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (bsz, lq, dim))


def query_projection(proj, query_parts, z, rows: int):
    """``proj`` of ``[tile(part) ..., tile(z)]``: every part tiled to
    ``rows`` rows and concatenated with the noise before one Dense."""
    bsz = query_parts[0].shape[0]
    tiled = [T.concat([p] * (rows // p.shape[1]), axis=1) for p in query_parts]
    zt = T.Tensor(np.broadcast_to(z, (bsz, rows, z.shape[0])))
    return dense(T.concat([*tiled, zt], axis=2), proj.w, proj.b)


def segment_mean(values: np.ndarray, ids, num_segments: int) -> np.ndarray:
    """Per-segment mean of the rows of ``values``, summed with ``np.add.at``."""
    sums = np.zeros((num_segments,) + values.shape[1:])
    np.add.at(sums, ids, values)
    counts = np.bincount(ids, minlength=num_segments).astype(np.float64)
    return sums / np.maximum(counts, 1.0).reshape((-1,) + (1,) * (values.ndim - 1))


def index_select_vjp(shape: tuple, idx, g: np.ndarray, axis: int) -> np.ndarray:
    """The gradient of ``a[..., idx, ...]`` (``idx`` on ``axis``) for
    upstream ``g``, scattered with ``np.add.at``."""
    out = np.zeros(shape)
    np.add.at(out, (slice(None),) * axis + (np.asarray(idx),), g)
    return out


def encode_preprocessed(model, samples) -> dict:
    """``EncodedBatch`` fields from ``[preprocess(s) for s in samples]``."""
    c = model.config
    prepped = [preprocess(s) for s in samples]
    ego = np.stack([s.ego.values for s in prepped])
    fit = linear_fit(ego, c.t_f)
    nbr = np.reshape([v.values for s in prepped for v in s.neighbors], (-1, c.t_h, c.m))
    pair_sample = np.repeat(np.arange(len(prepped)), [len(s.neighbors) for s in prepped])
    return {
        "spec_x": transforms.forward_values(ego, c.transform),
        "spec_lin": transforms.forward_values(fit.fitted, c.transform),
        "spec_res": transforms.forward_values(ego - fit.fitted, c.transform),
        "y_lin": fit.predicted,
        "gt": np.stack([s.gt.values for s in prepped]),
        "offsets": np.stack([s.offset for s in prepped]),
        "nbr_spec": model.social.own_spectrum(nbr),
        "pair_sample": pair_sample,
        "pair_rows": model.social.row_partitions(ego[pair_sample], nbr),
    }


def sequential_similarity(f: np.ndarray) -> np.ndarray:
    """Per-dimension outer products: out[t, u, d] = f[t, d] * f[u, d].

    Every output slice out[:, :, d] is symmetric, PSD and rank <= 1.
    """
    return np.einsum("td,ud->tud", f, f)


def reverberation_transform(sim: np.ndarray, kernels: ReverbKernelPair) -> np.ndarray:
    """Apply the kernel pair to a similarity tensor.

    ``sim`` is (T, T, D); the result is (K_g, T_f, D) with slice d equal
    to ``g.T @ sim[:, :, d] @ r`` exactly (no recurrence, one bilinear
    contraction).
    """
    return np.einsum("tk,tud,uv->kvd", kernels.g, sim, kernels.r, optimize=True)


def matrix_rank(a: np.ndarray, rel_tol: float = 1e-8) -> int:
    """Numerical rank: singular values above ``rel_tol`` * sigma_max.

    ``np.linalg.matrix_rank`` takes a relative ``rtol`` only from numpy 2.0.
    """
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


def change_point_frame(xy: np.ndarray) -> int:
    """1-based frame of the largest per-step heading change (first argmax).

    On noise-free generator output this recovers the planted onset frame
    exactly: the first rotated step is the step into the onset frame.
    """
    xy = np.asarray(xy, dtype=np.float64)
    if xy.shape[0] < 4:
        raise InsufficientDataError("need at least 4 points to locate a heading change")
    steps = np.diff(xy, axis=0)
    headings = np.arctan2(steps[:, 1], steps[:, 0])
    dh = np.abs(_wrap_angle(np.diff(headings)))
    # dh[i] compares the steps into frames i+2 and i+3, so the first
    # rotated step (into the onset frame o) sits at index o-3.  A steady
    # turn yields a run of near-ties, so take the first index within
    # rounding distance of the maximum rather than a strict argmax.
    first = int(np.flatnonzero(dh >= dh.max() * (1.0 - 1e-9))[0])
    return first + 3


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return (a + np.pi) % (2.0 * np.pi) - np.pi
