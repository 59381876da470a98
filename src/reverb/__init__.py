"""Trajectory forecasting with learnable temporal-latency kernels.

The package decomposes a forecast into an affine reference motion plus
two learned spectral corrections (single-agent and social), each built
around a bounded kernel pair that spreads observed events over future
steps.  See README.md for the full tour.
"""

from .config import RunConfig, config_hash, load_config, model_hash
from .curves import average_curves, write_curves_csv
from .data import (
    Sample,
    Scene,
    SynthLatencySpec,
    Tracklet,
    inject_manual_neighbor,
    load_scene,
    load_split_manifest,
    make_windows,
    preprocess,
    synth_latency_scenes,
    write_scene,
)
from .errors import (
    ConfigError,
    DomainError,
    InsufficientDataError,
    NumericError,
    ParseError,
    SequenceLengthError,
    ShapeError,
    TrainingError,
    ValidationError,
)
from .linear import LinearFit, linear_fit
from .metrics import min_ade_fde, stat_ade_fde
from .model import ModelConfig, PredictionBatch, ReverbKernelPair, ReverbPredictor
from .train import run_training
from .transforms import KINDS, TimeSeq

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DomainError",
    "InsufficientDataError",
    "KINDS",
    "LinearFit",
    "ModelConfig",
    "NumericError",
    "ParseError",
    "PredictionBatch",
    "ReverbKernelPair",
    "ReverbPredictor",
    "RunConfig",
    "Sample",
    "Scene",
    "SequenceLengthError",
    "ShapeError",
    "SynthLatencySpec",
    "TimeSeq",
    "Tracklet",
    "TrainingError",
    "ValidationError",
    "average_curves",
    "config_hash",
    "inject_manual_neighbor",
    "linear_fit",
    "load_config",
    "load_scene",
    "load_split_manifest",
    "make_windows",
    "min_ade_fde",
    "model_hash",
    "preprocess",
    "run_training",
    "stat_ade_fde",
    "synth_latency_scenes",
    "write_curves_csv",
    "write_scene",
]
