"""Temporal extractor tests: conv oracle, shape contracts, electrode
independence, and parameter gradients."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from hybridgnn import autodiff as ad
from hybridgnn import extractor as ex
from hybridgnn import model as mdl


DEFAULT_SPECS = ex.default_extractor_layers(32)


def extractor_of(params, specs):
    """The extractor layers of a model's name -> node parameters."""
    return ex.ExtractorParams([
        (spec, params[f"extractor.{i}.w"], params[f"extractor.{i}.b"]) for i, spec in enumerate(specs)
    ])


def fresh_extractor(seed, specs=DEFAULT_SPECS):
    """The extractor of a freshly initialized model with these layer specs."""
    cfg = mdl.ModelConfig(feature_dim=specs[-1][3], extractor_layers=specs)
    return extractor_of(mdl.init_model(cfg, seed), cfg.extractor_layers)


def naive_conv1d(signal, kernel, stride):
    # independent sliding-window oracle
    t, k = len(signal), len(kernel)
    return np.array(
        [np.dot(signal[i * stride : i * stride + k], kernel) for i in range((t - k) // stride + 1)]
    )


def one_layer(kernel, bias, stride):
    """A one-layer conv1d stack of constant kernel (k, C_in, C_out) and bias (C_out,)."""
    return [(ad.constant(kernel), ad.constant(bias), stride)]


def test_conv1d_hand_case():
    # one input and one output channel: (T, 1) signal, (k, 1, 1) kernel;
    # pre-activations 3 - 4 and 5 - 4, relu, then the mean over time
    x = np.array([[1.0], [2.0], [3.0]])
    out = ad.conv1d(x, one_layer(np.ones((2, 1, 1)), np.array([-4.0]), 1))
    npt.assert_allclose(out.value, [0.5])


def test_conv1d_unit_kernel_is_identity():
    sig = np.arange(8.0) - 3.0
    for b in (0.0, -2.0, 1.5):
        out = ad.conv1d(sig[:, None], one_layer(np.ones((1, 1, 1)), np.array([b]), 1))
        npt.assert_allclose(out.value, [np.maximum(sig + b, 0.0).mean()])


def test_conv1d_output_length_formula():
    # windows of 4 at stride 2 over T = 10 start at 0, 2, 4 and 6: the mean
    # over time divides by (10 - 4)//2 + 1 = 4 outputs
    sig = np.arange(10.0)
    out = ad.conv1d(sig[:, None], one_layer(np.ones((4, 1, 1)), np.zeros(1), 2))
    assert out.value.shape == (1,)
    npt.assert_allclose(out.value, [np.mean([sig[s : s + 4].sum() for s in (0, 2, 4, 6)])])


def test_conv1d_matches_naive_oracle():
    # every output channel is the time-mean of relu(the sum over input
    # channels of vector convolutions + bias)
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = int(rng.integers(4, 40))
        k = int(rng.integers(1, min(t, 9) + 1))
        stride = int(rng.integers(1, 4))
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sig = rng.normal(size=(t, c_in))
        ker = rng.normal(size=(k, c_in, c_out))
        bias = rng.normal(size=(c_out,))
        out = ad.conv1d(sig, one_layer(ker, bias, stride)).value
        for o in range(c_out):
            conv = sum(naive_conv1d(sig[:, c], ker[:, c, o], stride) for c in range(c_in))
            npt.assert_allclose(out[o], np.maximum(conv + bias[o], 0.0).mean(), atol=1e-12)


def test_conv1d_signal_shorter_than_kernel():
    with pytest.raises(ad.ShapeMismatch):
        ad.conv1d(np.ones((3, 1)), one_layer(np.ones((5, 1, 1)), np.zeros(1), 1))


def test_default_shape_contract():
    params = fresh_extractor(0)
    seg = np.random.default_rng(1).normal(size=(19, 1024))
    feats = ex.extract_features(seg, params)
    assert feats.value.shape == (19, 32)


def test_zero_segment_gives_zero_features():
    params = fresh_extractor(0)
    feats = ex.extract_features(np.zeros((19, 256)), params)
    npt.assert_array_equal(feats.value, np.zeros((19, 32)))


def test_electrode_permutation_equivariance_exact():
    params = fresh_extractor(2)
    rng = np.random.default_rng(3)
    seg = rng.normal(size=(19, 128))
    base = ex.extract_features(seg, params).value
    for _ in range(5):
        perm = rng.permutation(19)
        permuted = ex.extract_features(seg[perm], params).value
        npt.assert_array_equal(permuted, base[perm])


def test_feature_shape_independent_of_values():
    params = fresh_extractor(4)
    for scale in (0.0, 1.0, 100.0):
        seg = scale * np.random.default_rng(5).normal(size=(7, 300))
        assert ex.extract_features(seg, params).value.shape == (7, 32)


def test_batched_matches_per_segment():
    params = fresh_extractor(6)
    rng = np.random.default_rng(7)
    segs = rng.normal(size=(4, 5, 96))
    stacked = ex.extract_features(segs, params).value
    for i in range(4):
        one = ex.extract_features(segs[i], params).value
        # gemm kernels differ across batch sizes, so only near-exact
        npt.assert_allclose(stacked[i], one, atol=1e-12)


def test_parameter_gradients():
    specs = ((3, 2, 1, 2), (3, 1, 2, 3))
    params = fresh_extractor(8, specs)
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
    params = fresh_extractor(10)
    with pytest.raises(ValueError, match="layer 0"):
        ex.extract_features(np.zeros((3, 5)), params)
    # first layer fits but leaves too little for the second
    with pytest.raises(ValueError, match="layer 1"):
        ex.extract_features(np.zeros((3, 10)), params)


def test_layer_chain_validation():
    # the model config refuses layer specs the extractor cannot run
    with pytest.raises(ValueError, match="chain"):
        mdl.ModelConfig(feature_dim=2, extractor_layers=((3, 1, 1, 4), (3, 1, 8, 2)))
    with pytest.raises(ValueError, match="chain"):
        mdl.ModelConfig(feature_dim=4, extractor_layers=((3, 1, 2, 4),))
    with pytest.raises(ValueError, match="stride"):
        mdl.ModelConfig(feature_dim=4, extractor_layers=((3, 0, 1, 4),))
    with pytest.raises(ValueError, match="kernel"):
        mdl.ModelConfig(feature_dim=4, extractor_layers=((0, 1, 1, 4),))
    with pytest.raises(ValueError, match="at least one"):
        mdl.ModelConfig(feature_dim=1, extractor_layers=())


def test_zscore_normalizes_rows():
    rng = np.random.default_rng(12)
    seg = 5.0 + 3.0 * rng.normal(size=(4, 200))
    z = ex.zscore_in_place(seg)
    assert z is seg
    npt.assert_allclose(z.mean(axis=-1), 0.0, atol=1e-12)
    npt.assert_allclose(z.std(axis=-1), 1.0, atol=1e-12)


def _forward_backward_peak(params, seed):
    """tracemalloc peak in bytes of a B=8 19 x 1024 extractor forward and backward."""
    seg = np.random.default_rng(seed).normal(size=(8, 19, 1024))
    probe = ad.constant(np.cos(np.arange(8 * 19 * 32)).reshape(8, 19, 32))
    tracemalloc.start()
    try:
        feats = ex.extract_features(seg, params)
        ad.backward(ad.reduce_sum(ad.mul(feats, probe)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_backward_peak_below_whole_batch_im2col():
    # the blocked conv keeps no whole-batch im2col buffer: a B=8 19 x 1024
    # forward and backward must peak below the size of the one layer 2 would need
    params = fresh_extractor(13)
    t_1 = ex.output_lengths(1024, DEFAULT_SPECS)[0]
    k_2, stride_2, c_in_2, _c_out_2 = DEFAULT_SPECS[1]
    im2col_bytes = 8 * 19 * ((t_1 - k_2) // stride_2 + 1) * k_2 * c_in_2 * 8
    peak = _forward_backward_peak(params, 14)
    assert params.layers[1][1].grad is not None
    assert peak < im2col_bytes, f"peak {peak} B >= whole-batch im2col {im2col_bytes} B"


def test_forward_backward_peak_below_whole_batch_layer_1_activation():
    # the whole stack is one node run block by block: a B=8 19 x 1024 forward
    # and backward must peak below the layer-1 activation of the whole batch
    params = fresh_extractor(15)
    t_1 = ex.output_lengths(1024, DEFAULT_SPECS)[0]
    activation_bytes = 8 * 19 * t_1 * DEFAULT_SPECS[0][3] * 8
    peak = _forward_backward_peak(params, 16)
    assert params.layers[0][1].grad is not None
    assert peak < activation_bytes, f"peak {peak} B >= layer-1 activation {activation_bytes} B"
