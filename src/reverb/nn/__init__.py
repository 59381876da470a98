"""Minimal differentiable substrate: tensors, layers, a small
Transformer encoder-decoder, Adam, finite-difference checks, and
checkpoint serialization."""

from . import tensor
from .checkpoint import load as load_checkpoint
from .checkpoint import save as save_checkpoint
from .gradcheck import GradCheckReport, grad_check
from .layers import MLP, Dense, LayerNorm, ParameterStore
from .optim import Adam
from .tensor import Tensor, backward, no_grad
from .transformer import EncoderDecoder, sinusoidal_encoding

__all__ = [
    "Adam",
    "Dense",
    "EncoderDecoder",
    "GradCheckReport",
    "LayerNorm",
    "MLP",
    "ParameterStore",
    "Tensor",
    "backward",
    "grad_check",
    "load_checkpoint",
    "no_grad",
    "save_checkpoint",
    "sinusoidal_encoding",
    "tensor",
]
