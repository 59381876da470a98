"""Angle-partitioned neighbor encoding.

Neighbors are bucketed by their bearing from the ego at the final
observed frame: bucket ``n`` covers angles ``[2*pi*n/N, 2*pi*(n+1)/N)``
measured counter-clockwise from the +x axis, so a neighbor due +x lands
in bucket 0.  Pair features inside a bucket are averaged per time row;
empty buckets stay exactly zero.

The encoder embeds each agent's own-frame spectrum (sequence translated
so its own last observed point is the origin), forms elementwise
products of ego and neighbor embeddings, runs those through a second
embedding, and averages per bucket.  The numpy side works on stacks:
``own_spectrum`` and ``row_partitions`` take every ego-neighbor pair of
a batch in one call.  Only the neighbors need ``own_spectrum``: a
preprocessed ego already ends at the origin, so its own-frame spectrum
is the ego spectrum the model encodes anyway.  The pooling itself lives
in ``ReverbPredictor._social_rows``, which lays the result out
bucket-major: flat row ``n * T_h + t``.
"""

from __future__ import annotations

import numpy as np

from . import transforms
from .errors import ConfigError
from .nn.layers import MLP, ParameterStore


def assign_partitions(ego_pts: np.ndarray, nbr_pts: np.ndarray, n_theta: int):
    """Vectorized bucketing; returns (indices, degenerate_mask).

    ``ego_pts`` and ``nbr_pts`` are (..., 2) and are compared point by
    point.  Degenerate points (zero displacement) get bucket 0 and a
    True flag.
    """
    if n_theta < 1:
        raise ConfigError(f"need at least one partition, got {n_theta}")
    d = np.asarray(nbr_pts, float) - np.asarray(ego_pts, float)
    degenerate = (d[..., 0] == 0.0) & (d[..., 1] == 0.0)
    theta = np.arctan2(d[..., 1], d[..., 0]) % (2.0 * np.pi)
    idx = np.floor(theta * n_theta / (2.0 * np.pi)).astype(np.int64)
    # Guard the theta == 2*pi float edge and the degenerate points.
    return np.where(degenerate, 0, np.clip(idx, 0, n_theta - 1)), degenerate


class SocialEncoder:
    """Builds the per-bucket interaction representation.

    Parameters live in the shared store under ``<name>.own.*`` (agent
    spectrum embedding, spectrum_dim -> d -> d) and ``<name>.pair.*``
    (pair embedding, d -> d -> d), both tanh MLPs.
    """

    def __init__(self, store: ParameterStore, name: str, kind: str,
                 t_h: int, m: int, d: int, n_theta: int,
                 per_step: bool = False):
        if per_step and kind == "dft":
            raise ConfigError(
                "per-step partition reassignment needs time-local spectrum rows; "
                "kind 'dft' has none"
            )
        self.kind = kind
        self.n_theta = n_theta
        self.per_step = per_step
        self.rows, cols = transforms.spectrum_shape(kind, t_h, m)
        self.embed_own = MLP(store, f"{name}.own", [cols, d, d], "tanh")
        self.embed_pair = MLP(store, f"{name}.pair", [d, d, d], "tanh")

    def own_spectrum(self, values: np.ndarray) -> np.ndarray:
        """Spectra of (..., t_h, m) sequences, each translated to its own
        last point."""
        values = np.asarray(values, dtype=np.float64)
        return transforms.forward_values(values - values[..., -1:, :], self.kind)

    def row_partitions(self, ego_xy: np.ndarray, nbr_xy: np.ndarray) -> np.ndarray:
        """Bucket index per spectrum row: (..., t_h, 2) pairs -> (..., T_h).

        Static mode repeats the final-frame bucket; per-step mode
        re-buckets at the last raw frame covered by each spectrum row.
        """
        if not self.per_step:
            idx, _ = assign_partitions(ego_xy[..., -1, :], nbr_xy[..., -1, :], self.n_theta)
            return np.repeat(idx[..., None], self.rows, axis=-1)
        # Last raw frame covered by each row; paired kinds halve time, so
        # their row k covers frames 2k and 2k+1.
        frames = np.arange(self.rows) if self.kind == "none" else np.arange(self.rows) * 2 + 1
        idx, _ = assign_partitions(ego_xy[..., frames, :], nbr_xy[..., frames, :],
                                   self.n_theta)
        return idx
