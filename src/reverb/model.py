"""The forecasting network: linear base plus two learned delta branches.

Prediction is a superposition of three decoupled parts computed in the
ego-centered frame:

    Y_hat = Y_lin + dY_non + dY_soc

``Y_lin`` extrapolates a least-squares line through the observed steps.
Each delta branch encodes the observation into per-row features, infers
a latency kernel pair (R, G) from them, applies the reverberation
transform to the features' sequential similarity, decodes the result to
spectrum coefficients, and maps those back to trajectory space with the
exact inverse-transform matrix.  The non-interactive branch works on
the ego's own history (rows = T_h spectrum rows); the social branch
works on angle-partitioned neighbor features (rows = N_theta * T_h,
bucket-major).  Both branches share one builder (``_add_branch``) and
one forward (``_branch``); they differ only in row count and query
features.

Every similarity channel is rank 1, ``F_d = f_d f_d^T``, so ``_rehearse``
contracts ``(G^T f_d)(f_d^T R)`` with the linear decode and inverse transform
and builds neither F nor the (B, K_g, T_f, d) field.  The tests check this
closed form against the general-F map ``G^T F_d R`` in ``tests/oracles.py``.

There is one path from samples to forecast, and it is batched:
``encode`` stacks every ego window of a batch, and every neighbor window
as one ego-neighbor pair, moves each stack into the ego frames with one
subtraction, and runs the linear fit, the transforms and the
partitioning once on each stack; ``forward`` runs both branches on the
whole batch and reports each branch's kernels and delta in its ``info``
dict; ``predict`` adds the offsets back once for the batch and hands
each sample views of the batch arrays.  A single sample is a batch of
one.  The social branch stores one row block per pair (the neighbor's
own-frame spectrum) and reads the pair's ego side from ``spec_x``.

Branch and kernel toggles reproduce the ablation grid.  A disabled
branch contributes an exact zero delta (shapes stay fixed, and no
gradient flows into its parameters).  A disabled R kernel becomes a
fixed uniform matrix with entries 1/rows; a disabled G kernel becomes a
static trainable tanh-bounded matrix, one independent column per
generation.  The static-G variant is an approximation of the
per-channel strategy it stands in for, and is documented as such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transforms
from .data import preprocess  # noqa: F401  (perfbench/spans.py counts its calls here)
from .errors import ConfigError, ShapeError
from .linear import linear_fit
from .nn import tensor as T
from .nn.layers import MLP, Dense, ParameterStore
from .nn.transformer import EncoderDecoder
from .social import SocialEncoder

_SQRT_EPS = 1e-12
# Windows per ``predict`` call when a report runs over a whole split.
PREDICT_CHUNK = 256


@dataclass
class ModelConfig:
    """Shape and wiring choices; ``validate`` raises ConfigError early."""

    t_h: int = 8
    t_f: int = 12
    m: int = 2
    dt: float = 0.4
    transform: str = "haar"
    d: int = 128
    k_g: int = 20
    n_theta: int = 8
    tf_layers: int = 2
    tf_heads: int = 8
    noise_dim: int | None = None
    use_linear: bool = True
    use_non: bool = True
    use_soc: bool = True
    kernel_r: bool = True
    kernel_g: bool = True
    per_step_partitions: bool = False

    def validate(self) -> "ModelConfig":
        transforms.check_kind(self.transform)
        if self.t_h < 2 or self.t_f < 1:
            raise ConfigError(f"need t_h >= 2 and t_f >= 1, got {self.t_h}, {self.t_f}")
        if self.transform != "none":
            if self.t_h % 2 or self.t_f % 2:
                raise ConfigError(
                    f"transform {self.transform!r} needs even horizons, "
                    f"got t_h={self.t_h}, t_f={self.t_f}"
                )
        if self.m < 1:
            raise ConfigError("need at least one coordinate dimension")
        if self.k_g < 1:
            raise ConfigError(f"need k_g >= 1, got {self.k_g}")
        if self.n_theta < 1:
            raise ConfigError(f"need n_theta >= 1, got {self.n_theta}")
        if self.d < 2:
            raise ConfigError(f"feature dim too small: {self.d}")
        if self.tf_layers < 1 or self.tf_heads < 1:
            raise ConfigError(
                f"need tf_layers >= 1 and tf_heads >= 1, got {self.tf_layers}, {self.tf_heads}"
            )
        if self.d % self.tf_heads:
            raise ConfigError(f"d={self.d} not divisible by heads={self.tf_heads}")
        if self.z_dim < 1:
            raise ConfigError("noise dimension must be >= 1")
        if not (self.use_linear or self.use_non or self.use_soc):
            raise ConfigError("all three prediction parts are disabled")
        if not 0 < self.dt < np.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        return self

    @property
    def z_dim(self) -> int:
        return self.d // 2 if self.noise_dim is None else self.noise_dim

    @property
    def hist_rows(self) -> int:
        return transforms.spectrum_shape(self.transform, self.t_h, self.m)[0]

    @property
    def fut_rows(self) -> int:
        return transforms.spectrum_shape(self.transform, self.t_f, self.m)[0]

    @property
    def cols(self) -> int:
        return transforms.spectrum_shape(self.transform, self.t_h, self.m)[1]

    @property
    def soc_rows(self) -> int:
        return self.n_theta * self.hist_rows


@dataclass
class EncodedBatch:
    """Numpy-side encoding of a batch of samples, in the ego frames.

    ``offsets`` (B, M) are the shifts back to the world frame: each ego's
    last observed point, or a preprocessed sample's own ``offset``.
    The social fields hold one entry per ego-neighbor pair, in one
    contiguous block per sample, in sample order: ``nbr_spec`` (P, T_h, M)
    is the neighbor's own-frame spectrum, ``pair_sample`` (P,) the sample
    it belongs to and ``pair_rows`` (P, T_h) its bucket per spectrum row.
    The ego side of a pair is ``spec_x[pair_sample]``: an ego-frame ego
    already ends at the origin, so its own-frame spectrum is ``spec_x``
    itself.  The fields are None when the social branch is off and have
    P = 0 when the batch has no neighbors.
    """

    spec_x: np.ndarray
    spec_lin: np.ndarray
    spec_res: np.ndarray
    y_lin: np.ndarray
    gt: np.ndarray
    offsets: np.ndarray
    nbr_spec: np.ndarray | None = None
    pair_sample: np.ndarray | None = None
    pair_rows: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.spec_x.shape[0]

    def subset(self, indices) -> "EncodedBatch":
        idx = np.asarray(indices, dtype=np.int64)
        out = EncodedBatch(
            spec_x=self.spec_x[idx],
            spec_lin=self.spec_lin[idx],
            spec_res=self.spec_res[idx],
            y_lin=self.y_lin[idx],
            gt=self.gt[idx],
            offsets=self.offsets[idx],
        )
        if self.nbr_spec is None:
            return out
        # Each requested sample's contiguous pair block, in request order,
        # so a repeated index gets its neighbours in every copy.
        counts = np.bincount(self.pair_sample, minlength=self.size)
        starts = np.cumsum(counts) - counts
        n = counts[idx]
        pair_keep = np.repeat(starts[idx] - (np.cumsum(n) - n), n) + np.arange(n.sum())
        out.nbr_spec = self.nbr_spec[pair_keep]
        out.pair_sample = np.repeat(np.arange(len(idx), dtype=np.int64), n)
        out.pair_rows = self.pair_rows[pair_keep]
        return out


@dataclass
class ReverbKernelPair:
    """One sample's kernels: ``r`` (rows, fut_rows) and ``g`` (rows, K_g)."""

    r: np.ndarray
    g: np.ndarray


@dataclass
class PredictionBatch:
    """Per-ego output: K_g world-frame hypotheses plus the kernels used."""

    values: np.ndarray
    y_lin: np.ndarray
    kernels_non: ReverbKernelPair | None
    kernels_soc: ReverbKernelPair | None
    scene_id: str
    agent_id: str
    start_frame: float


@dataclass
class _Branch:
    """Layers of one correction branch; ``rows`` is its kernel row count.
    ``head_r`` is None for uniform R; ``static_g`` replaces ``head_g``."""

    rows: int
    proj: Dense
    value: Dense
    tf: EncoderDecoder
    decode: Dense
    head_r: Dense | None
    head_g: Dense | None
    static_g: T.Tensor | None


class ReverbPredictor:
    """Owns the parameters and the differentiable forward passes."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        config.validate()
        self.config = config
        self.store = ParameterStore(seed)
        c = config
        if c.use_non or c.use_soc:
            self.embed_alpha = MLP(self.store, "enc.alpha", [c.cols, c.d, c.d], "tanh")
            self.embed_beta = MLP(self.store, "enc.beta", [c.cols, c.d, c.d], "tanh")
        self.branches: dict[str, _Branch] = {}
        if c.use_non:
            self._add_branch("non", c.d + c.z_dim, c.hist_rows)
        if c.use_soc:
            self.social = SocialEncoder(
                self.store, "soc", c.transform, c.t_h, c.m, c.d, c.n_theta,
                per_step=c.per_step_partitions,
            )
            self._add_branch("soc", 2 * c.d + c.z_dim, c.soc_rows)
        # Row j maps spectrum column j: of each future row (_inv_w), of all rows (_inv_b).
        inv = transforms.inverse_matrix(c.transform, c.t_f, c.m).reshape(c.fut_rows, c.cols, -1)
        self._inv_w = T.Tensor(inv.transpose(1, 0, 2).reshape(c.cols, -1))
        self._inv_b = T.Tensor(inv.sum(axis=0))

    def _add_branch(self, name: str, in_dim: int, rows: int):
        """Build one correction branch.  Parameters are added in field
        order, which fixes their names' order and the seeded init stream."""
        c, store = self.config, self.store
        branch = _Branch(
            rows=rows,
            proj=Dense(store, f"{name}.proj", in_dim, c.d),
            value=Dense(store, f"{name}.value", c.cols, c.d),
            tf=EncoderDecoder(store, f"{name}.tf", c.d, heads=c.tf_heads,
                              layers=c.tf_layers, max_len=rows),
            decode=Dense(store, f"{name}.decode", c.d, c.cols),
            head_r=(Dense(store, f"{name}.head_r", c.d, c.fut_rows, "tanh")
                    if c.kernel_r else None),
            head_g=Dense(store, f"{name}.head_g", c.d, c.k_g, "tanh") if c.kernel_g else None,
            static_g=(None if c.kernel_g
                      else store.add(f"{name}.static_g", (rows, c.k_g), init="xavier")),
        )
        self.branches[name] = branch
        # perfbench/spans.py names each transformer's span by this attribute.
        setattr(self, f"tf_{name}", branch.tf)

    # ------------------------------------------------------------------
    # Encoding (numpy side)

    def encode(self, samples) -> EncodedBatch:
        """Encode the egos and the ego-neighbor pairs as one stack each.

        A raw sample is shifted by its ego's last observed point, as
        ``data.preprocess`` does; a preprocessed one (``offset`` set) is
        shifted by 0.  Each stack subtracts its shifts once.
        """
        c = self.config
        samples = list(samples)
        if not samples:
            raise ShapeError("encode: no samples")
        ego, gt, nbr = self._stack_windows(samples)
        raw = np.array([s.offset is None for s in samples])
        offsets = ego[:, -1].astype(np.float64)
        if not raw.all():
            offsets[~raw] = [s.offset for s in samples if s.offset is not None]
        shift = np.where(raw[:, None], offsets, 0.0)[:, None, :]
        ego = ego - shift
        fit = linear_fit(ego, c.t_f)
        batch = EncodedBatch(
            spec_x=transforms.forward_values(ego, c.transform),
            spec_lin=transforms.forward_values(fit.fitted, c.transform),
            spec_res=transforms.forward_values(ego - fit.fitted, c.transform),
            y_lin=fit.predicted,
            gt=gt - shift,
            offsets=offsets,
        )
        if c.use_soc:
            batch.pair_sample = np.repeat(np.arange(len(samples), dtype=np.int64),
                                          [len(s.neighbors) for s in samples])
            nbr = nbr - shift[batch.pair_sample]
            batch.nbr_spec = self.social.own_spectrum(nbr)
            batch.pair_rows = self.social.row_partitions(ego[batch.pair_sample], nbr)
        return batch

    def _stack_windows(self, samples):
        """The ego, ground-truth and neighbor windows as three stacks (no
        neighbors unless the social branch is on).  The shapes are checked
        per stack; only a wrong one walks the samples, to name the first
        offender with ``sample {b}: ...``."""
        c = self.config
        nbrs = [v.values for s in samples for v in s.neighbors] if c.use_soc else []
        want = [(c.t_h, c.m), (c.t_f, c.m), (c.t_h, c.m)]
        try:  # ``np.array`` of a list stacks in C; ``np.stack`` loops per array
            stacks = [np.array([s.ego.values for s in samples]),
                      np.array([s.gt.values for s in samples]),
                      np.array(nbrs) if nbrs else np.zeros((0,) + want[2])]
        except ValueError:  # windows of different shapes
            stacks = None
        if stacks is None or [a.shape[1:] for a in stacks] != want:
            for b, s in enumerate(samples):
                if s.ego.values.shape != want[0]:
                    raise ShapeError(
                        f"sample {b}: ego window {s.ego.values.shape}, expected {want[0]}")
                if s.gt.values.shape != want[1]:
                    raise ShapeError(
                        f"sample {b}: gt window {s.gt.values.shape}, expected {want[1]}")
                for nbr in s.neighbors if c.use_soc else ():
                    if nbr.values.shape != want[2]:
                        raise ShapeError(
                            f"sample {b}: neighbor window {nbr.values.shape}, expected {want[2]}")
        return stacks

    def draw_noise(self, rng) -> dict:
        """One z per branch per forward pass; draw order is fixed."""
        z = self.config.z_dim
        return {"non": rng.standard_normal(z), "soc": rng.standard_normal(z)}

    def zero_noise(self) -> dict:
        z = self.config.z_dim
        return {"non": np.zeros(z), "soc": np.zeros(z)}

    # ------------------------------------------------------------------
    # Differentiable forward

    def _e_non(self, batch: EncodedBatch) -> T.Tensor:
        a = self.embed_alpha(T.Tensor(batch.spec_x))
        b = self.embed_beta(T.Tensor(batch.spec_lin))
        return (a - b) * 0.5

    def _kernels(self, branch: _Branch, f: T.Tensor):
        c = self.config
        if branch.head_r is not None:
            r = branch.head_r(f)
        else:
            r = T.Tensor(np.broadcast_to(1.0 / branch.rows,
                                         (f.data.shape[0], branch.rows, c.fut_rows)))
        if branch.head_g is not None:
            g = branch.head_g(f)
        else:
            g = T.reshape(T.tanh(branch.static_g), (1, branch.rows, c.k_g))
        return r, g

    def _rehearse(self, f: T.Tensor, r: T.Tensor, g: T.Tensor, decode: Dense) -> T.Tensor:
        """Reverberation, decode and inverse transform as one contraction.

        The channels are rank 1, so ``G^T F_d R = (G^T f_d)(f_d^T R)``; the
        decode and the inverse transform are fixed linear maps, so they fold
        into the second factor: ``h`` contracts ``rf`` over the future rows
        with ``decode.w @ inv_w``, and ``seq = gf @ h`` plus the mapped bias.
        Neither F nor the (B, K_g, T_f, d) field is built, forward or back.
        """
        c = self.config
        bsz, _, d = f.data.shape
        gf = T.matmul(T.transpose(g, (0, 2, 1)), f)
        rf = T.matmul(T.transpose(r, (0, 2, 1)), f)
        a = T.reshape(T.matmul(decode.w, self._inv_w), (d, c.fut_rows, -1))
        h = T.transpose(T.matmul(T.transpose(rf, (2, 0, 1)), a), (1, 0, 2))
        seq = T.matmul(gf, h) + T.matmul(T.reshape(decode.b, (1, c.cols)), self._inv_b)
        return T.reshape(seq, (bsz, c.k_g, c.t_f, c.m))

    def _query(self, branch: _Branch, query_parts: list, z: np.ndarray) -> T.Tensor:
        """The branch's query ``proj([tile(part) ..., z])``, (B, rows, d),
        with one row slice of ``proj.w`` per part.

        A part with fewer rows than the branch (``e_non`` in the social
        branch) is projected on its own rows and the product tiled over
        the partitions; the noise row ``z @ W_z + b`` is computed once
        and broadcast.  Nothing is tiled before its GEMM.
        """
        c, w = self.config, branch.proj.w
        bsz = query_parts[0].shape[0]
        qk = T.matmul(T.Tensor(z[None]), w[-z.shape[0]:]) + branch.proj.b
        start = 0
        for part in query_parts:
            width = part.shape[-1]
            q = T.matmul(part, w[start:start + width])
            qk = qk + T.reshape(q, (bsz, -1, c.hist_rows, c.d))
            start += width
        return T.reshape(qk, (bsz, branch.rows, c.d))

    def _branch(self, name: str, batch: EncodedBatch, query_parts: list, z: np.ndarray):
        """One correction branch: (delta (B, K_g, t_f, m), r, g)."""
        branch = self.branches[name]
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.config.z_dim,):
            raise ShapeError(f"noise must be ({self.config.z_dim},), got {z.shape}")
        qk = self._query(branch, query_parts, z)
        mem = branch.value(T.Tensor(batch.spec_res))
        feats = branch.tf(qk, mem)
        r, g = self._kernels(branch, feats)
        return self._rehearse(feats, r, g, branch.decode), r, g

    def _social_rows(self, batch: EncodedBatch) -> T.Tensor:
        """Pooled pair features, (B, N_theta*T_h, d), bucket-major rows.

        One embedding call covers ``spec_x`` stacked over ``nbr_spec``:
        rows ``:B`` are the egos, row ``B + p`` is pair ``p``'s neighbor.
        """
        c = self.config
        own = self.social.embed_own(T.Tensor(np.concatenate([batch.spec_x, batch.nbr_spec])))
        e_i = T.index_select(own, batch.pair_sample, axis=0)
        e_j = own[batch.size:]
        pf = self.social.embed_pair(e_i * e_j)
        n_pairs = batch.pair_sample.shape[0]
        flat = T.reshape(pf, (n_pairs * c.hist_rows, c.d))
        t_idx = np.broadcast_to(np.arange(c.hist_rows), (n_pairs, c.hist_rows))
        seg = (batch.pair_sample[:, None] * c.soc_rows
               + batch.pair_rows * c.hist_rows + t_idx).ravel()
        pooled = T.segment_mean(flat, seg, batch.size * c.soc_rows)
        return T.reshape(pooled, (batch.size, c.soc_rows, c.d))

    def forward(self, batch: EncodedBatch, noise: dict):
        """Returns (predictions (B, K_g, t_f, m) in the ego frame, info).

        ``info`` holds, per branch, the kernel tensors actually used
        (``r_*``, ``g_*``) and the branch's delta (``delta_*``, shape
        (B, K_g, t_f, m)); all are None for a disabled branch.
        """
        c = self.config
        parts = []
        if c.use_linear:
            parts.append(T.Tensor(batch.y_lin[:, None, :, :]))
        info = dict.fromkeys(("r_non", "g_non", "delta_non", "r_soc", "g_soc", "delta_soc"))
        e_non = self._e_non(batch) if self.branches else None
        for name in self.branches:
            if name == "soc":
                e_soc = self._social_rows(batch)
                query_parts = [e_non, e_soc]
            else:
                query_parts = [e_non]
            delta, r, g = self._branch(name, batch, query_parts, noise[name])
            parts.append(delta)
            info[f"r_{name}"], info[f"g_{name}"], info[f"delta_{name}"] = r, g, delta
        pred = parts[0]
        for p in parts[1:]:
            pred = pred + p
        if pred.data.shape[1] == 1 and c.k_g > 1:
            pred = pred + T.Tensor(np.zeros((1, c.k_g, 1, 1)))
        return pred, info

    def loss(self, batch: EncodedBatch, noise: dict):
        """Best-of-K mean per-step distance, averaged over the batch."""
        pred, info = self.forward(batch, noise)
        diff = pred - T.Tensor(batch.gt[:, None, :, :])
        sq = T.sum_(diff * diff, axis=3)
        dist = T.mean_(T.sqrt(sq + _SQRT_EPS), axis=2)
        best = np.argmin(dist.data, axis=1)
        return T.mean_(T.take_per_row(dist, best)), pred, info

    # ------------------------------------------------------------------
    # Inference-facing wrappers

    def predict(self, samples, rng=None, noise: dict | None = None) -> list:
        """World-frame hypotheses per sample; zero noise when rng is None.

        Each sample's arrays are views of the batch's: its rows of the
        world-frame forecasts and of the kernels the branches used.  No
        samples give ``[]``.
        """
        samples = list(samples)
        if not samples:
            return []
        if noise is None:
            noise = self.draw_noise(rng) if rng is not None else self.zero_noise()
        batch = self.encode(samples)
        with T.no_grad():
            pred, info = self.forward(batch, noise)
        values = pred.data + batch.offsets[:, None, None, :]
        y_lin = batch.y_lin + batch.offsets[:, None, :]
        return [
            PredictionBatch(
                values=values[b],
                y_lin=y_lin[b],
                kernels_non=self._pair(info, "non", b),
                kernels_soc=self._pair(info, "soc", b),
                scene_id=s.scene_id,
                agent_id=s.agent_id,
                start_frame=s.start_frame,
            )
            for b, s in enumerate(samples)
        ]

    def predict_chunks(self, samples):
        """``predict`` over consecutive ``PREDICT_CHUNK``-window slices of
        ``samples``, yielding one slice's predictions at a time, so a
        report over a split holds one chunk's arrays, not the split's."""
        for start in range(0, len(samples), PREDICT_CHUNK):
            yield self.predict(samples[start:start + PREDICT_CHUNK])

    def _pair(self, info: dict, branch: str, b: int):
        """Sample ``b``'s kernels; R has a batch axis, static G one entry."""
        r, g = info[f"r_{branch}"], info[f"g_{branch}"]
        if r is None:
            return None
        return ReverbKernelPair(r=r.data[b], g=g.data[b if g.data.shape[0] > 1 else 0])
