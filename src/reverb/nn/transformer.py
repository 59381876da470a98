"""Small pre-norm Transformer encoder-decoder.

The encoder self-attends over the fused query/key stream.  The decoder
starts from the encoder output, self-attends, then cross-attends with an
embedded value stream as keys/values, so the two streams may have
different lengths.  No causal masking and no autoregressive unrolling:
output length equals query length.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, ShapeError
from . import tensor as T
from .layers import Dense, LayerNorm, ParameterStore


def sinusoidal_encoding(length: int, dim: int) -> np.ndarray:
    """Classic sin/cos positional table of shape (length, dim)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, (2.0 * (i // 2)) / dim)
    table = np.empty((length, dim))
    table[:, 0::2] = np.sin(angles[:, 0::2])
    table[:, 1::2] = np.cos(angles[:, 1::2])
    return table


class MultiHeadAttention:
    """``out(attention(q(queries), k(memory), v(memory)))``.  The q, k and
    v projections are ``none`` ``affine`` outputs whose shared rebuilds
    only the attention reads.  When the probabilities take at least 1 MiB
    (the paper-default social self-attentions: 3.75 MiB each at 60
    windows), the tape keeps neither them nor the projections; backward
    reads q, k and v through those rebuilds, from the layer-norm rebuild
    their weight gradients read anyway, and rebuilds the probabilities
    from the kept softmax row max and sum; each rebuilt array lives as
    long as the vjps and rebuilds that hold it (see ``nn/tensor.py``).
    Smaller attentions keep both."""

    def __init__(self, store: ParameterStore, name: str, dim: int, heads: int):
        if dim % heads:
            raise ConfigError(f"model dim {dim} not divisible by {heads} heads")
        self.heads = heads
        self.scale = 1.0 / math.sqrt(dim // heads)
        self.q = Dense(store, f"{name}.q", dim, dim)
        self.k = Dense(store, f"{name}.k", dim, dim)
        self.v = Dense(store, f"{name}.v", dim, dim)
        self.out = Dense(store, f"{name}.out", dim, dim)

    def __call__(self, queries: T.Tensor, memory: T.Tensor) -> T.Tensor:
        ctx = T.attention(self.q(queries), self.k(memory), self.v(memory),
                          self.heads, self.scale)
        return self.out(ctx)


class FeedForward:
    """``down(relu(up(x)))``, 4·d wide in the middle.  The hidden layer
    is not kept for backward: ``up`` records a rebuild of it, built once
    for ``down``'s weight gradient and freed with ``up``'s vjp, which
    reads it again for its relu mask (see ``nn/tensor.py``)."""

    def __init__(self, store: ParameterStore, name: str, dim: int, hidden: int):
        self.up = Dense(store, f"{name}.up", dim, hidden, activation="relu")
        self.down = Dense(store, f"{name}.down", hidden, dim)

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return self.down(self.up(x))


class EncoderLayer:
    def __init__(self, store, name, dim, heads, hidden):
        self.ln_attn = LayerNorm(store, f"{name}.ln_attn", dim)
        self.attn = MultiHeadAttention(store, f"{name}.attn", dim, heads)
        self.ln_ff = LayerNorm(store, f"{name}.ln_ff", dim)
        self.ff = FeedForward(store, f"{name}.ff", dim, hidden)

    def __call__(self, x: T.Tensor) -> T.Tensor:
        h = self.ln_attn(x)
        x = x + self.attn(h, h)
        return x + self.ff(self.ln_ff(x))


class DecoderLayer:
    def __init__(self, store, name, dim, heads, hidden):
        self.ln_self = LayerNorm(store, f"{name}.ln_self", dim)
        self.self_attn = MultiHeadAttention(store, f"{name}.self", dim, heads)
        self.ln_cross = LayerNorm(store, f"{name}.ln_cross", dim)
        self.cross_attn = MultiHeadAttention(store, f"{name}.cross", dim, heads)
        self.ln_ff = LayerNorm(store, f"{name}.ln_ff", dim)
        self.ff = FeedForward(store, f"{name}.ff", dim, hidden)

    def __call__(self, x: T.Tensor, memory: T.Tensor) -> T.Tensor:
        h = self.ln_self(x)
        x = x + self.self_attn(h, h)
        x = x + self.cross_attn(self.ln_cross(x), memory)
        return x + self.ff(self.ln_ff(x))


class EncoderDecoder:
    """Non-autoregressive encoder-decoder over two feature streams.

    ``queries_keys`` (B, L_q, d) drives the output positions; ``values``
    (B, L_v, d) is the memory the decoder cross-attends into.  Both get
    sinusoidal positions added before any attention.  Feed-forward
    blocks are 4 * d wide.
    """

    def __init__(self, store: ParameterStore, name: str, dim: int,
                 heads: int = 8, layers: int = 2, max_len: int = 512):
        hidden = 4 * dim
        self.dim = dim
        self.pos = sinusoidal_encoding(max_len, dim)
        self.encoder = [
            EncoderLayer(store, f"{name}.enc{i}", dim, heads, hidden)
            for i in range(layers)
        ]
        self.ln_enc = LayerNorm(store, f"{name}.ln_enc", dim)
        self.decoder = [
            DecoderLayer(store, f"{name}.dec{i}", dim, heads, hidden)
            for i in range(layers)
        ]
        self.ln_out = LayerNorm(store, f"{name}.ln_out", dim)

    def __call__(self, queries_keys: T.Tensor, values: T.Tensor) -> T.Tensor:
        if queries_keys.ndim != 3 or values.ndim != 3:
            raise ShapeError("transformer expects (B, L, d) inputs")
        if queries_keys.shape[-1] != self.dim or values.shape[-1] != self.dim:
            raise ShapeError(
                f"feature dim mismatch: model {self.dim}, "
                f"queries {queries_keys.shape[-1]}, values {values.shape[-1]}"
            )
        lq, lv = queries_keys.shape[1], values.shape[1]
        if max(lq, lv) > self.pos.shape[0]:
            raise ShapeError(f"sequence longer than position table ({self.pos.shape[0]})")
        x = queries_keys + T.Tensor(self.pos[:lq])
        for layer in self.encoder:
            x = layer(x)
        x = self.ln_enc(x)
        memory = values + T.Tensor(self.pos[:lv])
        for layer in self.decoder:
            x = layer(x, memory)
        return self.ln_out(x)
