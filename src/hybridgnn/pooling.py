"""Soft region pooling and unpooling on the channel graph.

Channels are softly assigned to a fixed number of regions (rows of the
assignment matrix are membership distributions), features and adjacency are
coarsened through the assignment, a short graph convolution runs at region
level, and the result is projected back to channels, where the model adds
it into the branch output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .extractor import glorot
from .gcn import gcn_propagate, init_gcn_stack
from .graphs import normalize_adjacency


@dataclass
class PoolingParams:
    """Assignment projection plus the region-level convolution stack."""

    assign_proj: ad.Node  # (F_d, N_r)
    region_weights: list  # L' + 1 nodes of shape (F_d, d)


def init_pooling(
    rng: np.random.Generator, feature_dim: int, n_regions: int, region_steps: int, out_dim: int
) -> PoolingParams:
    proj = ad.param(glorot(rng, (feature_dim, n_regions), fan_in=feature_dim, fan_out=n_regions))
    weights = init_gcn_stack(rng, region_steps, feature_dim, out_dim)
    return PoolingParams(proj, weights)


def assignment_matrix(a_hat: ad.Node, feats: ad.Node, params: PoolingParams) -> ad.Node:
    """Row-stochastic (..., N, N_r) soft assignment of channels to regions."""
    return ad.softmax(ad.matmul(ad.matmul(a_hat, feats), params.assign_proj), axis=-1)


def pool(assign: ad.Node, adj: ad.Node, feats: ad.Node) -> tuple[ad.Node, ad.Node]:
    """Coarsen the raw (un-normalized) adjacency and features to region level:
    A_r = R^T A R, X_r = R^T X."""
    assign_t = ad.transpose(assign)
    adj_regions = ad.matmul(ad.matmul(assign_t, adj), assign)
    feats_regions = ad.matmul(assign_t, feats)
    return adj_regions, feats_regions


def region_conv(adj_regions: ad.Node, feats_regions: ad.Node, params: PoolingParams) -> ad.Node:
    """Polynomial graph convolution on the region graph (renormalized)."""
    return gcn_propagate(normalize_adjacency(adj_regions), feats_regions, params.region_weights)


def unpool(assign: ad.Node, y_regions: ad.Node) -> ad.Node:
    """Project region embeddings back to channels: each channel gets the
    membership-weighted convex combination of region rows."""
    return ad.matmul(assign, y_regions)
