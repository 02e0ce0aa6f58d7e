"""Polynomial propagation tests against an explicit matrix-power oracle."""

import numpy as np
import numpy.testing as npt
import pytest

from hybridgnn import autodiff as ad
from hybridgnn import gcn
from hybridgnn import model as mdl
from hybridgnn.graphs import normalize_adjacency

from test_graphs import numpy_normalize


def power_oracle(a_hat, x, weights):
    # brute force: sum_l matrix_power(A, l) @ X @ W_l
    out = np.zeros((x.shape[0], weights[0].shape[1]))
    for l, w in enumerate(weights):
        out += np.linalg.matrix_power(a_hat, l) @ x @ w
    return out


def _wrap(ws):
    return [ad.param(w) for w in ws]


def test_zero_steps_is_plain_projection():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 3))
    w0 = rng.normal(size=(3, 2))
    out = gcn.gcn_propagate(ad.constant(np.eye(5)), ad.constant(x), _wrap([w0]))
    npt.assert_allclose(out.value, x @ w0, atol=1e-14)


def test_identity_adjacency_sums_weights():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3))
    ws = [rng.normal(size=(3, 2)) for _ in range(4)]
    out = gcn.gcn_propagate(ad.constant(np.eye(4)), ad.constant(x), _wrap(ws))
    npt.assert_allclose(out.value, x @ sum(ws), atol=1e-12)


def test_small_case_matches_power_oracle():
    rng = np.random.default_rng(2)
    a_hat = numpy_normalize(rng.uniform(0, 1, size=(4, 4)))
    x = rng.normal(size=(4, 3))
    ws = [rng.normal(size=(3, 2)) for _ in range(3)]  # L = 2
    out = gcn.gcn_propagate(ad.constant(a_hat), ad.constant(x), _wrap(ws))
    npt.assert_allclose(out.value, power_oracle(a_hat, x, ws), atol=1e-12)


def test_incremental_equals_oracle_many_random_graphs():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        steps = int(rng.integers(0, 5))
        f_d, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        a_hat = numpy_normalize(rng.uniform(0, 1, size=(n, n)))
        x = rng.normal(size=(n, f_d))
        ws = [rng.normal(size=(f_d, d)) for _ in range(steps + 1)]
        out = gcn.gcn_propagate(ad.constant(a_hat), ad.constant(x), _wrap(ws))
        npt.assert_allclose(out.value, power_oracle(a_hat, x, ws), atol=1e-10)


def test_linearity_in_features():
    rng = np.random.default_rng(4)
    a_hat = numpy_normalize(rng.uniform(0, 1, size=(5, 5)))
    x = rng.normal(size=(5, 3))
    ws = _wrap([rng.normal(size=(3, 2)) for _ in range(3)])
    base = gcn.gcn_propagate(ad.constant(a_hat), ad.constant(x), ws).value
    scaled = gcn.gcn_propagate(ad.constant(a_hat), ad.constant(2.5 * x), ws).value
    npt.assert_allclose(scaled, 2.5 * base, atol=1e-12)


def test_joint_permutation_equivariance():
    rng = np.random.default_rng(5)
    a_hat = numpy_normalize(rng.uniform(0, 1, size=(6, 6)))
    x = rng.normal(size=(6, 3))
    ws = _wrap([rng.normal(size=(3, 2)) for _ in range(3)])
    base = gcn.gcn_propagate(ad.constant(a_hat), ad.constant(x), ws).value
    for _ in range(10):
        perm = rng.permutation(6)
        out = gcn.gcn_propagate(
            ad.constant(a_hat[np.ix_(perm, perm)]), ad.constant(x[perm]), ws
        ).value
        npt.assert_allclose(out, base[perm], atol=1e-12)


def test_weight_gradients():
    rng = np.random.default_rng(6)
    a_hat = numpy_normalize(rng.uniform(0, 1, size=(4, 4)))
    x = rng.normal(size=(4, 3))
    ws = [rng.normal(size=(3, 2)) for _ in range(3)]
    probe = np.cos(0.4 * np.arange(8)).reshape(4, 2)

    def f(leaves):
        out = gcn.gcn_propagate(ad.constant(a_hat), ad.constant(x), leaves)
        return ad.reduce_sum(ad.mul(out, ad.constant(probe)))

    assert ad.gradient_check(f, ws, eps=1e-5) < 1e-5


def test_shape_mismatch_rejected():
    with pytest.raises(ad.ShapeMismatch):
        gcn.gcn_propagate(
            ad.constant(np.eye(3)), ad.constant(np.ones((3, 4))), _wrap([np.ones((5, 2))])
        )


def test_branch_outputs_runs_both_branches():
    # the shared features through each branch's own adjacency and weights
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 3))
    a_c = rng.uniform(0, 1, size=(5, 5))
    a_i = rng.uniform(0, 1, size=(5, 5))
    cw = [rng.normal(size=(3, 2)) for _ in range(3)]
    iw = [rng.normal(size=(3, 2)) for _ in range(3)]
    y_c = gcn.gcn_propagate(normalize_adjacency(ad.constant(a_c)), ad.constant(x), _wrap(cw))
    y_i = gcn.gcn_propagate(normalize_adjacency(ad.constant(a_i)), ad.constant(x), _wrap(iw))
    npt.assert_allclose(y_c.value, power_oracle(numpy_normalize(a_c), x, cw), atol=1e-10)
    npt.assert_allclose(y_i.value, power_oracle(numpy_normalize(a_i), x, iw), atol=1e-10)


def test_branch_outputs_zero_weights_zero_branch():
    rng = np.random.default_rng(8)
    x = ad.constant(rng.normal(size=(4, 3)))
    a_hat = normalize_adjacency(ad.constant(rng.uniform(0, 1, size=(4, 4))))
    zeros = _wrap([np.zeros((3, 2)) for _ in range(2)])
    live = _wrap([rng.normal(size=(3, 2)) for _ in range(2)])
    npt.assert_array_equal(gcn.gcn_propagate(a_hat, x, zeros).value, np.zeros((4, 2)))
    assert np.abs(gcn.gcn_propagate(a_hat, x, live).value).max() > 0


def test_branch_outputs_rejects_mismatched_widths():
    # both branches take out_dim from one config: a common-branch stack of
    # another width is refused at bind time, and by the head in forward
    cfg = mdl.ModelConfig(
        variant="c", n_channels=4, feature_dim=4, proj_dim=4, out_dim=3, n_regions=2,
        extractor_layers=((5, 2, 1, 8), (3, 2, 8, 4)),
    )
    params = mdl.init_model(cfg, 0)
    named = params.named_tensors()
    nodes = [ad.param(np.ones((4, 5))) if n.startswith("cgnn.") else t for n, t in named]
    with pytest.raises(ValueError, match="cgnn.0"):
        mdl.bind_params(cfg, nodes)
    params.common_weights = _wrap([np.ones((4, 5))] * len(params.common_weights))
    with pytest.raises(ad.ShapeMismatch):
        mdl.forward_batch(np.random.default_rng(9).normal(size=(2, 4, 32)), params, cfg)
