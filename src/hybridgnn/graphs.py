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

    One node with a closed-form backward. Degrees are row sums of A + I, so
    each is >= 1 and has an inverse square root. Requires A >= 0 entrywise.
    """
    if adj.value.min() < 0.0:
        raise ValueError("normalize_adjacency: adjacency has negative entries")
    n = adj.value.shape[-1]
    if adj.value.shape[-2] != n:
        raise ad.ShapeMismatch("normalize_adjacency", adj.value.shape)
    tilde = adj.value + np.eye(n)
    deg = tilde.sum(axis=-1, keepdims=True)  # (..., N, 1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    scale = inv_sqrt * np.swapaxes(inv_sqrt, -1, -2)  # 1/sqrt(d_i d_j)
    out = scale * tilde

    def bwd(g):
        # d_i sums row i, so row i also gets -(row i + column i of g∘out) / (2 d_i)
        g_out = g * out
        g_deg = (g_out.sum(axis=-1) + g_out.sum(axis=-2))[..., None]
        return (g * scale - g_deg / (2.0 * deg),)

    return ad.Node(out, "normalize_adjacency", (adj,), bwd)
