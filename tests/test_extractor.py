"""Temporal extractor tests: conv oracle, shape contracts, electrode
independence, and parameter gradients."""

import numpy as np
import numpy.testing as npt
import pytest

from hybridgnn import autodiff as ad
from hybridgnn import extractor as ex


DEFAULT_SPECS = ex.default_extractor_layers(32)


def naive_conv1d(signal, kernel, stride):
    # independent sliding-window oracle
    t, k = len(signal), len(kernel)
    return np.array(
        [np.dot(signal[i * stride : i * stride + k], kernel) for i in range((t - k) // stride + 1)]
    )


def test_conv1d_hand_case():
    # one input and one output channel: (T, 1) signal, (k, 1, 1) kernel
    x = ad.constant(np.array([[1.0], [2.0], [3.0]]))
    w = ad.constant(np.ones((2, 1, 1)))
    npt.assert_allclose(ad.conv1d(x, w, stride=1).value[:, 0], [3.0, 5.0])


def test_conv1d_unit_kernel_is_identity():
    sig = np.arange(8.0)
    out = ad.conv1d(ad.constant(sig[:, None]), ad.constant(np.ones((1, 1, 1))), stride=1)
    npt.assert_allclose(out.value[:, 0], sig)


def test_conv1d_output_length_formula():
    out = ad.conv1d(ad.constant(np.ones((10, 1))), ad.constant(np.ones((4, 1, 1))), stride=2)
    assert out.value.shape == (4, 1)


def test_conv1d_matches_naive_oracle():
    # every output channel is the sum over input channels of vector convolutions
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = int(rng.integers(4, 40))
        k = int(rng.integers(1, min(t, 9) + 1))
        stride = int(rng.integers(1, 4))
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sig = rng.normal(size=(t, c_in))
        ker = rng.normal(size=(k, c_in, c_out))
        out = ad.conv1d(ad.constant(sig), ad.constant(ker), stride).value
        for o in range(c_out):
            expected = sum(naive_conv1d(sig[:, c], ker[:, c, o], stride) for c in range(c_in))
            npt.assert_allclose(out[:, o], expected, atol=1e-12)


def test_conv1d_signal_shorter_than_kernel():
    with pytest.raises(ad.ShapeMismatch):
        ad.conv1d(ad.constant(np.ones((3, 1))), ad.constant(np.ones((5, 1, 1))))


def test_default_shape_contract():
    params = ex.init_extractor(np.random.default_rng(0), DEFAULT_SPECS)
    seg = np.random.default_rng(1).normal(size=(19, 1024))
    feats = ex.extract_features(seg, params)
    assert feats.value.shape == (19, 32)


def test_zero_segment_gives_zero_features():
    params = ex.init_extractor(np.random.default_rng(0), DEFAULT_SPECS)
    feats = ex.extract_features(np.zeros((19, 256)), params)
    npt.assert_array_equal(feats.value, np.zeros((19, 32)))


def test_electrode_permutation_equivariance_exact():
    params = ex.init_extractor(np.random.default_rng(2), DEFAULT_SPECS)
    rng = np.random.default_rng(3)
    seg = rng.normal(size=(19, 128))
    base = ex.extract_features(seg, params).value
    for _ in range(5):
        perm = rng.permutation(19)
        permuted = ex.extract_features(seg[perm], params).value
        npt.assert_array_equal(permuted, base[perm])


def test_feature_shape_independent_of_values():
    params = ex.init_extractor(np.random.default_rng(4), DEFAULT_SPECS)
    for scale in (0.0, 1.0, 100.0):
        seg = scale * np.random.default_rng(5).normal(size=(7, 300))
        assert ex.extract_features(seg, params).value.shape == (7, 32)


def test_batched_matches_per_segment():
    params = ex.init_extractor(np.random.default_rng(6), DEFAULT_SPECS)
    rng = np.random.default_rng(7)
    segs = rng.normal(size=(4, 5, 96))
    stacked = ex.extract_features(segs, params).value
    for i in range(4):
        one = ex.extract_features(segs[i], params).value
        # gemm kernels differ across batch sizes, so only near-exact
        npt.assert_allclose(stacked[i], one, atol=1e-12)


def test_parameter_gradients():
    specs = ((3, 2, 1, 2), (3, 1, 2, 3))
    params = ex.init_extractor(np.random.default_rng(8), specs)
    rng = np.random.default_rng(9)
    seg = rng.normal(size=(2, 16))
    arrays = []
    for _spec, w, b in params.layers:
        arrays += [w.value.copy(), b.value.copy()]
    size = 2 * 3
    probe = np.cos(0.5 * np.arange(size)).reshape(2, 3)

    def f(leaves):
        layers = [
            (specs[0], leaves[0], leaves[1]),
            (specs[1], leaves[2], leaves[3]),
        ]
        feats = ex.extract_features(seg, ex.ExtractorParams(layers))
        return ad.reduce_sum(ad.mul(feats, ad.constant(probe)))

    assert ad.gradient_check(f, arrays, eps=1e-5) < 1e-5


def test_too_short_segment_names_failing_layer():
    params = ex.init_extractor(np.random.default_rng(10), DEFAULT_SPECS)
    with pytest.raises(ValueError, match="layer 0"):
        ex.extract_features(np.zeros((3, 5)), params)
    # first layer fits but leaves too little for the second
    with pytest.raises(ValueError, match="layer 1"):
        ex.extract_features(np.zeros((3, 10)), params)


def test_layer_chain_validation():
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError, match="chain"):
        ex.init_extractor(rng, ((3, 1, 1, 4), (3, 1, 8, 2)))


def test_zscore_normalizes_rows():
    rng = np.random.default_rng(12)
    seg = 5.0 + 3.0 * rng.normal(size=(4, 200))
    z = ex.zscore(seg)
    npt.assert_allclose(z.mean(axis=-1), 0.0, atol=1e-12)
    npt.assert_allclose(z.std(axis=-1), 1.0, atol=1e-12)
