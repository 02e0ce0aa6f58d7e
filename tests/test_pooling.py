"""Region pooling tests: assignment stochasticity, coarsening oracle,
unpooling semantics, the model's branch merge layout, and end-to-end
gradients."""

import numpy as np
import numpy.testing as npt
import pytest

from hybridgnn import autodiff as ad
from hybridgnn import model as mdl
from hybridgnn import pooling as pl
from hybridgnn.extractor import extract_features
from hybridgnn.gcn import gcn_propagate
from hybridgnn.graphs import common_adjacency, individual_adjacency, normalize_adjacency

from test_extractor import extractor_of
from test_graphs import numpy_normalize


def _setup(rng, n=6, f=4, m=3, n_regions=3):
    """Features, their individualized adjacency and an assignment projection."""
    x = rng.normal(size=(n, f))
    w1 = ad.param(rng.normal(size=(f, m)))
    w2 = ad.param(rng.normal(size=(f, m)))
    adj = individual_adjacency(ad.constant(x), w1, w2)
    return x, adj, ad.param(rng.normal(size=(f, n_regions)))


def test_zero_projection_gives_uniform_rows():
    rng = np.random.default_rng(0)
    x, adj, _proj = _setup(rng)
    proj = ad.param(np.zeros((4, 3)))
    assign = pl.assignment_matrix(normalize_adjacency(adj), ad.constant(x), proj).value
    npt.assert_allclose(assign, np.full((6, 3), 1 / 3), atol=1e-15)


def test_assignment_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(25):
        x, adj, proj = _setup(rng)
        assign = pl.assignment_matrix(normalize_adjacency(adj), ad.constant(x), proj).value
        npt.assert_allclose(assign.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((assign > 0) & (assign < 1))


def test_hand_computed_assignment_softmax():
    # softmax of [[0,1],[1,0]] row-wise
    expected = np.array([[0.2689, 0.7311], [0.7311, 0.2689]])
    out = ad.softmax(ad.constant(np.array([[0.0, 1.0], [1.0, 0.0]])), axis=-1).value
    npt.assert_allclose(out, expected, atol=1e-3)


def test_identity_assignment_pools_to_same_graph():
    rng = np.random.default_rng(2)
    adj = rng.uniform(0, 1, size=(4, 4))
    feats = rng.normal(size=(4, 3))
    a_r, x_r = pl.pool(ad.constant(np.eye(4)), ad.constant(adj), ad.constant(feats))
    npt.assert_allclose(a_r.value, adj, atol=1e-15)
    npt.assert_allclose(x_r.value, feats, atol=1e-15)


def test_pool_shapes():
    rng = np.random.default_rng(3)
    assign = ad.softmax(ad.constant(rng.normal(size=(19, 5))), axis=-1)
    a_r, x_r = pl.pool(assign, ad.constant(rng.uniform(0, 1, (19, 19))), ad.constant(rng.normal(size=(19, 32))))
    assert a_r.value.shape == (5, 5) and x_r.value.shape == (5, 32)
    assert a_r.value.min() >= 0.0


def test_pool_matches_triple_product_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        assign = rng.dirichlet(np.ones(2), size=4)  # row-stochastic 4x2
        adj = rng.uniform(0, 1, size=(4, 4))
        feats = rng.normal(size=(4, 3))
        a_r, x_r = pl.pool(ad.constant(assign), ad.constant(adj), ad.constant(feats))
        # independent dense-contraction oracle
        npt.assert_allclose(a_r.value, np.einsum("ia,ij,jb->ab", assign, adj, assign), atol=1e-12)
        npt.assert_allclose(x_r.value, np.einsum("ia,if->af", assign, feats), atol=1e-12)


def test_region_conv_two_term_oracle():
    rng = np.random.default_rng(5)
    adj_r = rng.uniform(0, 1, size=(3, 3))
    feats_r = rng.normal(size=(3, 4))
    w0, w1 = rng.normal(size=(2, 4, 2))
    out = pl.region_conv(ad.constant(adj_r), ad.constant(feats_r), [ad.param(w0), ad.param(w1)]).value
    a_hat = numpy_normalize(adj_r)
    npt.assert_allclose(out, feats_r @ w0 + a_hat @ feats_r @ w1, atol=1e-12)


def test_unpool_one_hot_selects_region_rows():
    y_r = np.array([[1.0, 2.0], [3.0, 4.0]])
    assign = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    out = pl.unpool(ad.constant(assign), ad.constant(y_r)).value
    npt.assert_array_equal(out, y_r[[0, 1, 0]])


def test_unpool_shape():
    rng = np.random.default_rng(6)
    assign = rng.dirichlet(np.ones(5), size=19)
    out = pl.unpool(ad.constant(assign), ad.constant(rng.normal(size=(5, 16))))
    assert out.value.shape == (19, 16)


def test_unpool_identical_rows_collapse():
    v = np.array([2.0, -1.0, 0.5])
    y_r = np.tile(v, (4, 1))
    assign = np.random.default_rng(7).dirichlet(np.ones(4), size=6)
    out = pl.unpool(ad.constant(assign), ad.constant(y_r)).value
    npt.assert_allclose(out, np.tile(v, (6, 1)), atol=1e-12)


# --- branch merge inside the full model (pooling on the individualized branch)

FULL = mdl.ModelConfig(
    variant="full", n_channels=5, feature_dim=4, proj_dim=4, out_dim=3, n_regions=2,
    extractor_layers=((5, 2, 1, 8), (3, 2, 8, 4)),
)


def _merged(monkeypatch, params, segs):
    """The merged branch outputs that `forward_batch` hands to the head."""
    seen = {}
    head = mdl._head

    def spy(y_all, p):
        seen["y_all"] = y_all.value
        return head(y_all, p)

    monkeypatch.setattr(mdl, "_head", spy)
    mdl.forward_batch(segs, params, FULL)
    return seen["y_all"]


def test_merge_zero_context_preserves_branch(monkeypatch):
    # zero region weights give zero region context, so the individualized
    # half is the plain propagation output
    segs = np.random.default_rng(8).normal(size=(2, 5, 32))
    params = mdl.init_model(FULL, 8)
    for l in range(2):
        params[f"pool_inst.region.{l}"] = ad.param(np.zeros((4, 3)))
    feats = extract_features(segs, extractor_of(params, FULL.extractor_layers))
    adj = individual_adjacency(feats, params["inst_adj.w1"], params["inst_adj.w2"])
    ignn = [params[f"ignn.{l}"] for l in range(FULL.steps + 1)]
    y_i = gcn_propagate(normalize_adjacency(adj), feats, ignn).value
    merged = _merged(monkeypatch, params, segs)
    npt.assert_array_equal(merged[..., :3], y_i)
    assert merged.shape == (2, 5, 6)


def test_merge_slice_recovers_common_half_bit_exact(monkeypatch):
    segs = np.random.default_rng(9).normal(size=(2, 5, 32))
    params = mdl.init_model(FULL, 9)
    feats = extract_features(segs, extractor_of(params, FULL.extractor_layers))
    a_hat = normalize_adjacency(common_adjacency(params["common_adj.raw"]))
    cgnn = [params[f"cgnn.{l}"] for l in range(FULL.steps + 1)]
    y_c = gcn_propagate(a_hat, feats, cgnn).value
    npt.assert_array_equal(_merged(monkeypatch, params, segs)[..., 3:], y_c)


def test_merge_rejects_mismatched_dims():
    segs = np.random.default_rng(10).normal(size=(2, 5, 32))
    # region context of another width than the branch output
    params = mdl.init_model(FULL, 10)
    for l in range(2):
        params[f"pool_inst.region.{l}"] = ad.param(np.ones((4, 2)))
    with pytest.raises(ad.ShapeMismatch):
        mdl.forward_batch(segs, params, FULL)
    # common branch over another number of nodes than the individualized one
    params = mdl.init_model(FULL, 10)
    params["common_adj.raw"] = ad.param(np.ones((4, 4)))
    with pytest.raises(ad.ShapeMismatch):
        mdl.forward_batch(segs, params, FULL)


def test_pooling_conserves_feature_mass():
    rng = np.random.default_rng(10)
    for _ in range(20):
        x, adj, proj = _setup(rng)
        assign = pl.assignment_matrix(normalize_adjacency(adj), ad.constant(x), proj)
        _a_r, x_r = pl.pool(assign, adj, ad.constant(x))
        npt.assert_allclose(x_r.value.sum(axis=0), x.sum(axis=0), atol=1e-10)


def test_pooled_path_permutation_equivariance():
    rng = np.random.default_rng(11)
    n, f, m, d = 7, 4, 3, 2
    x = rng.normal(size=(n, f))
    w1 = ad.param(rng.normal(size=(f, m)))
    w2 = ad.param(rng.normal(size=(f, m)))
    proj = ad.param(rng.normal(size=(f, 3)))
    region = [ad.param(rng.normal(size=(f, d))) for _ in range(2)]

    def run(feats):
        adj = individual_adjacency(ad.constant(feats), w1, w2)
        adj_hat = normalize_adjacency(adj)
        assign = pl.assignment_matrix(adj_hat, ad.constant(feats), proj)
        a_r, x_r = pl.pool(assign, adj, ad.constant(feats))
        up = pl.unpool(assign, pl.region_conv(a_r, x_r, region))
        return assign.value, a_r.value, up.value

    assign0, a_r0, up0 = run(x)
    for _ in range(10):
        perm = rng.permutation(n)
        assign_p, a_r_p, up_p = run(x[perm])
        npt.assert_allclose(assign_p, assign0[perm], atol=1e-10)
        npt.assert_allclose(a_r_p, a_r0, atol=1e-10)
        npt.assert_allclose(up_p, up0[perm], atol=1e-10)


def test_end_to_end_pooling_gradients():
    rng = np.random.default_rng(12)
    n, f, m, n_r, d = 5, 3, 2, 2, 2
    x = rng.normal(size=(n, f))
    w1 = rng.normal(size=(f, m))
    w2 = rng.normal(size=(f, m))
    proj = rng.normal(size=(f, n_r))
    rws = [rng.normal(size=(f, d)) for _ in range(2)]
    probe = np.cos(0.6 * np.arange(n * d)).reshape(n, d)

    def f(leaves):
        w1n, w2n, projn, rw0, rw1 = leaves
        adj = individual_adjacency(ad.constant(x), w1n, w2n)
        adj_hat = normalize_adjacency(adj)
        assign = pl.assignment_matrix(adj_hat, ad.constant(x), projn)
        a_r, x_r = pl.pool(assign, adj, ad.constant(x))
        up = pl.unpool(assign, pl.region_conv(a_r, x_r, [rw0, rw1]))
        return ad.reduce_sum(ad.mul(up, ad.constant(probe)))

    assert ad.gradient_check(f, [w1, w2, proj] + rws, eps=1e-5) < 1e-4
