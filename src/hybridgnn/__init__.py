"""Dual-branch graph neural network for EEG depression detection.

The package is organized around a small float64 autodiff engine
(`hybridgnn.autodiff`); everything downstream (temporal extractor, adjacency
construction, graph convolution, region pooling, the assembled model, and
training) builds dynamic graphs on it and is verified against independent
oracles in the test suite.
"""

from .data import (
    Recording,
    SegmentSet,
    load_dataset,
    save_dataset,
    segment_recording,
    synth_generate,
)
from .model import (
    ModelConfig,
    forward,
    forward_batch,
    init_model,
    load_params,
    save_params,
)
from .training import (
    FoldReport,
    Metrics,
    TrainConfig,
    evaluate,
    ten_fold_cv,
    train_epoch,
    train_model,
)

__version__ = "0.1.0"

__all__ = [
    "FoldReport", "Metrics", "ModelConfig", "Recording",
    "SegmentSet", "TrainConfig", "__version__", "evaluate",
    "forward", "forward_batch", "init_model", "load_dataset", "load_params",
    "save_dataset", "save_params", "segment_recording", "synth_generate",
    "ten_fold_cv", "train_epoch", "train_model",
]
