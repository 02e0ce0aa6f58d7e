"""Adjacency construction and normalization for the two graph branches.

The common branch keeps one learnable adjacency shared by every input; the
individualized branch builds a fresh adjacency per instance from a bilinear
similarity between electrode features, normalized with a softmax. Both feed
the same symmetric degree normalization before propagation.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


def common_adjacency(raw: ad.Node) -> ad.Node:
    """Entrywise non-negative map of the raw parameter (relu keeps degrees sane)."""
    return ad.relu(raw)


def individual_adjacency(feats: ad.Node, w1: ad.Node, w2: ad.Node, softmax_axis: str = "col") -> ad.Node:
    """Instance adjacency from bilinear feature similarity.

    feats: (..., N, F_d). Scores h = (X W1)(X W2)^T are normalized with a
    softmax over the first node index ("col": each column sums to 1) or, as a
    configurable alternative, over the second ("row").
    """
    scores = ad.matmul(ad.matmul(feats, w1), ad.transpose(ad.matmul(feats, w2)))
    if softmax_axis == "col":
        return ad.softmax(scores, axis=-2)
    if softmax_axis == "row":
        return ad.softmax(scores, axis=-1)
    raise ValueError(f"softmax_axis must be 'col' or 'row', got {softmax_axis!r}")


def normalize_adjacency(adj: ad.Node) -> ad.Node:
    """Symmetric degree normalization D^-1/2 (A + I) D^-1/2 with self-loops.

    Degrees are row sums of A + I, so every degree is >= 1 and the inverse
    square root always exists. Requires a non-negative adjacency.
    """
    if adj.value.min() < 0.0:
        raise ValueError("normalize_adjacency: adjacency has negative entries")
    n = adj.value.shape[-1]
    if adj.value.shape[-2] != n:
        raise ad.ShapeMismatch("normalize_adjacency", adj.value.shape)
    tilde = ad.add(adj, ad.constant(np.eye(n)))
    deg = ad.matmul(tilde, ad.constant(np.ones((n, 1))))  # (..., N, 1) row sums
    inv_sqrt = ad.exp(ad.scale(ad.log(deg), -0.5))  # degrees >= 1, log clamp inert
    return ad.mul(ad.matmul(inv_sqrt, ad.transpose(inv_sqrt)), tilde)
