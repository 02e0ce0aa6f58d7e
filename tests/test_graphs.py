"""Adjacency construction tests: stochasticity, hand-computed cases,
normalization algebra, and gradients."""

import numpy as np
import numpy.testing as npt
import pytest

from hybridgnn import autodiff as ad
from hybridgnn import graphs as gr
from hybridgnn.model import ModelConfig, init_model


def numpy_normalize(a):
    # independent oracle for the symmetric degree normalization
    tilde = a + np.eye(a.shape[0])
    d = tilde.sum(axis=1)
    inv = 1.0 / np.sqrt(d)
    return inv[:, None] * tilde * inv[None, :]


# --- common adjacency --------------------------------------------------------


def test_fresh_init_range():
    raw = init_model(ModelConfig(variant="a"), seed=0)["common_adj.raw"]
    assert raw.value.shape == (19, 19)
    adj = gr.common_adjacency(raw).value
    assert np.all(adj >= 0.0) and np.all(adj <= 0.05)


def test_common_adjacency_nonnegative_for_any_params():
    rng = np.random.default_rng(1)
    raw = ad.param(rng.normal(size=(6, 6)))
    assert gr.common_adjacency(raw).value.min() >= 0.0


def test_common_adjacency_is_instance_independent():
    raw = ad.param(np.random.default_rng(2).uniform(0.0, 0.05, size=(5, 5)))
    npt.assert_array_equal(gr.common_adjacency(raw).value, gr.common_adjacency(raw).value)


# --- individual adjacency ----------------------------------------------------


def _random_inst(rng, n=6, f=4, m=3):
    feats = ad.constant(rng.normal(size=(n, f)))
    w1 = ad.param(rng.normal(size=(f, m)))
    w2 = ad.param(rng.normal(size=(f, m)))
    return feats, w1, w2


def test_identical_rows_give_uniform_columns():
    rng = np.random.default_rng(3)
    row = rng.normal(size=4)
    feats = ad.constant(np.tile(row, (5, 1)))
    w1 = ad.param(rng.normal(size=(4, 3)))
    w2 = ad.param(rng.normal(size=(4, 3)))
    adj = gr.individual_adjacency(feats, w1, w2).value
    npt.assert_allclose(adj, np.full((5, 5), 0.2), atol=1e-12)


def test_column_sums_are_one():
    rng = np.random.default_rng(4)
    for _ in range(25):
        feats, w1, w2 = _random_inst(rng)
        adj = gr.individual_adjacency(feats, w1, w2).value
        npt.assert_allclose(adj.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(adj > 0.0)


def test_hand_computed_two_node_case():
    feats = ad.constant(np.array([[1.0], [2.0]]))
    w = ad.param(np.array([[1.0]]))
    adj = gr.individual_adjacency(feats, w, w).value
    npt.assert_allclose(adj, [[0.2689, 0.1192], [0.7311, 0.8808]], atol=1e-3)


def test_row_axis_option():
    rng = np.random.default_rng(5)
    feats, w1, w2 = _random_inst(rng)
    adj = gr.individual_adjacency(feats, w1, w2, softmax_axis="row").value
    npt.assert_allclose(adj.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        gr.individual_adjacency(feats, w1, w2, softmax_axis="diag")


def test_permutation_equivariance():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(7, 4))
    w1 = ad.param(rng.normal(size=(4, 3)))
    w2 = ad.param(rng.normal(size=(4, 3)))
    base = gr.individual_adjacency(ad.constant(x), w1, w2).value
    for _ in range(10):
        perm = rng.permutation(7)
        permuted = gr.individual_adjacency(ad.constant(x[perm]), w1, w2).value
        npt.assert_allclose(permuted, base[np.ix_(perm, perm)], atol=1e-14)


# --- normalization -----------------------------------------------------------


def test_zero_adjacency_normalizes_to_identity():
    out = gr.normalize_adjacency(ad.constant(np.zeros((4, 4)))).value
    npt.assert_allclose(out, np.eye(4), atol=1e-15)


def test_hand_computed_two_node_normalization():
    out = gr.normalize_adjacency(ad.constant(np.array([[0.0, 1.0], [1.0, 0.0]]))).value
    npt.assert_allclose(out, 0.5 * np.ones((2, 2)), atol=1e-15)


def test_symmetric_iff_input_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(0.0, 1.0, size=(5, 5))
        sym = a + a.T
        out = gr.normalize_adjacency(ad.constant(sym)).value
        npt.assert_allclose(out, out.T, atol=1e-14)
        asym = a.copy()
        asym[0, 1] = asym[1, 0] + 1.0
        out = gr.normalize_adjacency(ad.constant(asym)).value
        assert np.abs(out - out.T).max() > 1e-8


def test_matches_numpy_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = rng.uniform(0.0, 2.0, size=(6, 6))
        out = gr.normalize_adjacency(ad.constant(a)).value
        npt.assert_allclose(out, numpy_normalize(a), atol=1e-12)


def test_total_on_nonnegative_inputs():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a = rng.uniform(0.0, 10.0, size=(n, n))
        a[rng.uniform(size=(n, n)) < 0.5] = 0.0  # plenty of zero rows
        out = gr.normalize_adjacency(ad.constant(a)).value
        assert np.all(np.isfinite(out))


def test_negative_entries_rejected():
    bad = np.zeros((3, 3))
    bad[0, 1] = -0.5
    with pytest.raises(ValueError, match="negative"):
        gr.normalize_adjacency(ad.constant(bad))


def test_non_square_rejected():
    with pytest.raises(ad.ShapeMismatch):
        gr.normalize_adjacency(ad.constant(np.zeros((3, 4))))


# --- gradients ---------------------------------------------------------------


def test_gradient_of_individual_adjacency():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(5, 4))
    w1 = rng.normal(size=(4, 3))
    w2 = rng.normal(size=(4, 3))
    probe = np.cos(0.3 * np.arange(25)).reshape(5, 5)

    def f(leaves):
        adj = gr.individual_adjacency(ad.constant(x), leaves[0], leaves[1])
        return ad.reduce_sum(ad.mul(adj, ad.constant(probe)))

    assert ad.gradient_check(f, [w1, w2], eps=1e-5) < 1e-5


def test_gradient_of_normalized_common_adjacency():
    rng = np.random.default_rng(11)
    raw = rng.uniform(0.05, 0.5, size=(4, 4))  # away from the relu kink at 0
    probe = np.cos(0.9 * np.arange(16)).reshape(4, 4)

    def f(leaves):
        a_hat = gr.normalize_adjacency(gr.common_adjacency(leaves[0]))
        return ad.reduce_sum(ad.mul(a_hat, ad.constant(probe)))

    assert ad.gradient_check(f, [raw], eps=1e-5) < 1e-5
