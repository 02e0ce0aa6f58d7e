"""Polynomial graph convolution shared by both branches and the region stage.

The propagation output is the sum over steps l = 0..L of A_hat^l X W_l,
computed incrementally (Z_0 = X, Z_l = A_hat Z_{l-1}) rather than through
explicit matrix powers.
"""

from __future__ import annotations

from . import autodiff as ad


def gcn_propagate(a_hat: ad.Node, feats: ad.Node, weights: list[ad.Node]) -> ad.Node:
    """Sum of A_hat^l feats W_l for l = 0..len(weights)-1 (A_hat^0 = I)."""
    if feats.value.shape[-1] != weights[0].value.shape[0]:
        raise ad.ShapeMismatch("gcn_propagate", feats.value.shape, weights[0].value.shape)
    out = ad.matmul(feats, weights[0])
    z = feats
    for w in weights[1:]:
        z = ad.matmul(a_hat, z)
        out = ad.add(out, ad.matmul(z, w))
    return out
