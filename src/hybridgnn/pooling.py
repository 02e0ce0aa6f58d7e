"""Soft region pooling and unpooling on the channel graph.

Channels are softly assigned to a fixed number of regions (rows of the
assignment matrix are membership distributions), features and adjacency are
coarsened through the assignment, a short graph convolution runs at region
level, and the result is projected back to channels, where the model adds
it into the branch output.
"""

from __future__ import annotations

from . import autodiff as ad
from .gcn import gcn_propagate
from .graphs import normalize_adjacency


def assignment_matrix(a_hat: ad.Node, feats: ad.Node, proj: ad.Node) -> ad.Node:
    """Row-stochastic (..., N, N_r) soft assignment of channels to regions,
    through the (F_d, N_r) projection `proj`."""
    return ad.softmax(ad.matmul(ad.matmul(a_hat, feats), proj), axis=-1)


def pool(assign: ad.Node, adj: ad.Node, feats: ad.Node) -> tuple[ad.Node, ad.Node]:
    """Coarsen the raw (un-normalized) adjacency and features to region level:
    A_r = R^T A R, X_r = R^T X."""
    assign_t = ad.transpose(assign)
    adj_regions = ad.matmul(ad.matmul(assign_t, adj), assign)
    feats_regions = ad.matmul(assign_t, feats)
    return adj_regions, feats_regions


def region_conv(adj_regions: ad.Node, feats_regions: ad.Node, weights: list) -> ad.Node:
    """Polynomial graph convolution on the region graph (renormalized), with
    the L' + 1 weights of shape (F_d, d)."""
    return gcn_propagate(normalize_adjacency(adj_regions), feats_regions, weights)


def unpool(assign: ad.Node, y_regions: ad.Node) -> ad.Node:
    """Project region embeddings back to channels: each channel gets the
    membership-weighted convex combination of region rows."""
    return ad.matmul(assign, y_regions)
