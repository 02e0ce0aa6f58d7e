"""Per-electrode temporal feature extraction with a shared 1-D CNN.

A raw segment (N electrodes x T_s samples) is z-scored per electrode, pushed
through a small stack of strided valid convolutions with relu, and averaged
over the remaining time axis, giving one feature vector per electrode. The
same kernels are applied to every electrode, so the electrode axis is only
ever permuted, never mixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

Z_SCORE_STD_FLOOR = 1e-8


def default_extractor_layers(feature_dim: int) -> tuple:
    """Layer specs (kernel, stride, in_channels, out_channels); the last
    layer's out_channels is the per-electrode feature count."""
    return ((7, 4, 1, 16), (5, 2, 16, feature_dim))


@dataclass
class ExtractorParams:
    """Conv stack weights: per layer (spec, w, b) with spec the layer tuple
    (kernel, stride, in, out), w shaped (kernel, in, out) and b shaped (out,)."""

    layers: list  # list of (spec tuple, weight Node, bias Node)


def output_lengths(t_s: int, layer_specs) -> list[int]:
    """Per-layer output lengths; raises naming the first layer that underflows."""
    lengths = []
    t = t_s
    for i, (k, stride, _c_in, _c_out) in enumerate(layer_specs):
        if t < k:
            raise ValueError(
                f"segment too short: layer {i} (kernel {k}, stride {stride}) "
                f"needs at least {k} samples, has {t}"
            )
        t = (t - k) // stride + 1
        lengths.append(t)
    return lengths


def zscore(segment: np.ndarray) -> np.ndarray:
    """Per-electrode zero-mean unit-std over time (std floored at 1e-8)."""
    seg = np.asarray(segment, dtype=np.float64)
    mu = seg.mean(axis=-1, keepdims=True)
    sd = seg.std(axis=-1, keepdims=True)
    return (seg - mu) / np.maximum(sd, Z_SCORE_STD_FLOOR)


def extract_features(segment: np.ndarray, params: ExtractorParams) -> ad.Node:
    """Map (..., N, T_s) raw samples to (..., N, F_d) per-electrode features."""
    specs = [layer[0] for layer in params.layers]
    output_lengths(segment.shape[-1], specs)
    x = ad.constant(zscore(segment)[..., None])  # channels-last: (..., N, T_s, 1)
    layers = [(w, b, stride) for (_k, stride, _c_in, _c_out), w, b in params.layers]
    # the whole stack is one node: relu after every layer, then the time-mean
    return ad.conv1d(x, layers, relu=True, time_mean=True)
