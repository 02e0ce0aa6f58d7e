"""Engine tests: forward semantics of every primitive plus gradient checks
against central finite differences."""

import numpy as np
import numpy.testing as npt
import pytest

from hybridgnn import autodiff as ad


def scalar_readout(out):
    """Contract an op output to a scalar with a fixed shape-derived probe."""
    size = out.value.size
    probe = np.cos(0.7 * np.arange(size) + 0.3).reshape(out.value.shape)
    return ad.reduce_sum(ad.mul(out, ad.constant(probe)))


# one entry per primitive: name -> builder(rng) returning (f, input arrays);
# builders keep inputs away from relu kinks and the log clamp
def _away_from_zero(x):
    return x + 0.3 * np.sign(x)


def case_add(rng):
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    return lambda l: scalar_readout(ad.add(l[0], l[1])), [a, b]


def case_add_broadcast(rng):
    a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4,))
    return lambda l: scalar_readout(ad.add(l[0], l[1])), [a, b]


def case_sub(rng):
    a, b = rng.normal(size=(5,)), rng.normal(size=(5,))
    return lambda l: scalar_readout(ad.sub(l[0], l[1])), [a, b]


def case_mul(rng):
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    return lambda l: scalar_readout(ad.mul(l[0], l[1])), [a, b]


def case_scale(rng):
    a = rng.normal(size=(4, 2))
    c = float(rng.normal())
    return lambda l: scalar_readout(ad.scale(l[0], c)), [a]


def case_matmul(rng):
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    return lambda l: scalar_readout(ad.matmul(l[0], l[1])), [a, b]


def case_matmul_batched(rng):
    a, b = rng.normal(size=(3, 3)), rng.normal(size=(5, 3, 2))
    return lambda l: scalar_readout(ad.matmul(l[0], l[1])), [a, b]


def case_transpose(rng):
    a = rng.normal(size=(2, 3, 4))
    return lambda l: scalar_readout(ad.transpose(l[0])), [a]


def case_relu(rng):
    a = _away_from_zero(rng.normal(size=(3, 5)))
    return lambda l: scalar_readout(ad.relu(l[0])), [a]


def case_exp(rng):
    a = rng.normal(size=(2, 4))
    return lambda l: scalar_readout(ad.exp(l[0])), [a]


def case_log(rng):
    a = rng.uniform(0.1, 3.0, size=(3, 3))
    return lambda l: scalar_readout(ad.log(l[0])), [a]


def case_softmax(rng):
    a = rng.normal(size=(4, 3))
    axis = int(rng.integers(0, 2))
    return lambda l: scalar_readout(ad.softmax(l[0], axis=axis)), [a]


def case_mean(rng):
    a = rng.normal(size=(3, 4, 2))
    axis = [None, 0, 1, 2][int(rng.integers(0, 4))]
    return lambda l: scalar_readout(ad.mean(l[0], axis=axis)), [a]


def case_sum(rng):
    a = rng.normal(size=(2, 5))
    axis = [None, 0, 1][int(rng.integers(0, 3))]
    return lambda l: scalar_readout(ad.reduce_sum(l[0], axis=axis)), [a]


def case_concat(rng):
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 4))
    return lambda l: scalar_readout(ad.concat([l[0], l[1]], axis=1)), [a, b]


def case_reshape(rng):
    a = rng.normal(size=(3, 4))
    return lambda l: scalar_readout(ad.reshape(l[0], (2, 6))), [a]


def case_slice(rng):
    a = rng.normal(size=(4, 5))
    return lambda l: scalar_readout(ad.slice_(l[0], (slice(1, 3), slice(0, 4)))), [a]


def case_conv1d(rng):
    x = rng.normal(size=(2, 3, 11, 2))
    w = rng.normal(size=(4, 2, 3))
    return lambda l: scalar_readout(ad.conv1d(l[0], l[1], stride=2)), [x, w]


def case_conv1d_bias(rng):
    x = rng.normal(size=(3, 9, 1))
    w = rng.normal(size=(3, 1, 4))
    b = rng.normal(size=(4,))
    return (
        lambda l: scalar_readout(ad.conv1d(l[0], l[1], stride=3, bias=l[2])),
        [x, w, b],
    )


ALL_CASES = [
    case_add, case_add_broadcast, case_sub, case_mul, case_scale, case_matmul,
    case_matmul_batched, case_transpose, case_relu, case_exp, case_log,
    case_softmax, case_mean, case_sum, case_concat, case_reshape, case_slice,
    case_conv1d, case_conv1d_bias,
]


@pytest.mark.parametrize("builder", ALL_CASES, ids=lambda b: b.__name__)
def test_backward_matches_finite_differences(builder):
    # >= 100 random shape/seed combinations across the parametrized cases
    for seed in range(6):
        f, arrays = builder(np.random.default_rng(hash((builder.__name__, seed)) % 2**32))
        err = ad.gradient_check(f, arrays, eps=1e-5)
        assert err < 1e-5, f"{builder.__name__} seed {seed}: rel err {err}"


# --- forward semantics -----------------------------------------------------


def test_add_scalars():
    out = ad.add(ad.constant(2.0 * np.ones(())), ad.constant(3.0 * np.ones(())))
    assert out.value == 5.0


def test_matmul_identity():
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(3, 5))
    out = ad.matmul(ad.constant(np.eye(3)), ad.constant(mat))
    npt.assert_array_equal(out.value, mat)


def test_softmax_symmetry():
    out = ad.softmax(ad.constant(np.zeros(2)), axis=0)
    npt.assert_allclose(out.value, [0.5, 0.5], atol=1e-15)


def test_softmax_axis_sums_and_range():
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = rng.normal(scale=3.0, size=(4, 6))
        for axis in (0, 1):
            out = ad.softmax(ad.constant(z), axis=axis).value
            npt.assert_allclose(out.sum(axis=axis), 1.0, atol=1e-12)
            assert np.all(out > 0.0) and np.all(out < 1.0)


def test_concat_slice_roundtrip_bit_exact():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 2))
    joined = ad.concat([ad.constant(a), ad.constant(b)], axis=1)
    left = ad.slice_(joined, (slice(None), slice(0, 4)))
    right = ad.slice_(joined, (slice(None), slice(4, 6)))
    npt.assert_array_equal(left.value, a)
    npt.assert_array_equal(right.value, b)


def test_matmul_transpose_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 5))
        lhs = ad.transpose(ad.matmul(ad.constant(a), ad.constant(b))).value
        rhs = ad.matmul(ad.transpose(ad.constant(b)), ad.transpose(ad.constant(a))).value
        npt.assert_allclose(lhs, rhs, atol=1e-12)


def test_log_clamps_at_floor():
    out = ad.log(ad.constant(np.array([0.0, 1e-20, 1.0])))
    npt.assert_allclose(out.value[:2], np.log(1e-12))
    assert out.value[2] == 0.0


def test_shape_mismatch_error_names_op_and_shapes():
    a = ad.constant(np.ones((2, 3)))
    b = ad.constant(np.ones((4, 5)))
    with pytest.raises(ad.ShapeMismatch) as info:
        ad.add(a, b)
    msg = str(info.value)
    assert "add" in msg and "(2, 3)" in msg and "(4, 5)" in msg
    with pytest.raises(ad.ShapeMismatch):
        ad.matmul(a, b)
    with pytest.raises(ad.ShapeMismatch):
        ad.conv1d(ad.constant(np.ones((3, 2))), ad.constant(np.ones((5, 2, 1))))


# --- backward semantics ----------------------------------------------------


def test_backward_square_rule():
    x = ad.param(np.array(3.0))
    ad.backward(ad.mul(x, x))
    npt.assert_allclose(x.grad, 6.0)


def test_backward_softmax_sum_is_constant():
    rng = np.random.default_rng(4)
    z = ad.param(rng.normal(size=(5,)))
    ad.backward(ad.reduce_sum(ad.softmax(z, axis=0)))
    npt.assert_allclose(z.grad, np.zeros(5), atol=1e-12)


def test_backward_dot_bilinearity():
    x = ad.param(np.array([[5.0, 7.0]]))
    y = ad.constant(np.array([[1.0], [2.0]]))
    ad.backward(ad.reduce_sum(ad.matmul(x, y)))
    npt.assert_allclose(x.grad, [[1.0, 2.0]])


def test_backward_requires_scalar_root():
    x = ad.param(np.ones((2, 2)))
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(ad.add(x, x))


def test_backward_accumulates_and_zero_grads_resets():
    x = ad.param(np.array(2.0))
    root = ad.mul(x, x)
    ad.backward(root)
    npt.assert_allclose(x.grad, 4.0)
    ad.backward(root)
    npt.assert_allclose(x.grad, 8.0)  # documented accumulate semantics
    ad.zero_grads([x])
    assert x.grad is None


def test_backward_diamond_graph_fan_out():
    # x feeds two paths that rejoin; grads from both must accumulate
    x = ad.param(np.array(2.0))
    y = ad.add(ad.mul(x, x), ad.scale(x, 3.0))  # x^2 + 3x -> dy/dx = 2x + 3
    ad.backward(y)
    npt.assert_allclose(x.grad, 7.0)


def test_constants_never_receive_grads():
    c = ad.constant(np.ones(3))
    x = ad.param(np.ones(3))
    ad.backward(ad.reduce_sum(ad.mul(c, x)))
    assert c.grad is None and x.grad is not None


# --- gradient_check harness ------------------------------------------------


def test_gradient_check_two_layer_chain():
    rng = np.random.default_rng(5)
    w1, w2 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    x = ad.constant(_away_from_zero(rng.normal(size=(3, 3))))

    def f(leaves):
        h = ad.relu(ad.matmul(x, leaves[0]))
        return ad.mean(ad.matmul(h, leaves[1]))

    assert ad.gradient_check(f, [w1, w2], eps=1e-5) < 1e-6


def test_gradient_check_linear_is_near_exact():
    rng = np.random.default_rng(6)
    c = rng.normal(size=(4,))
    x = rng.normal(size=(4,))
    f = lambda l: ad.reduce_sum(ad.mul(l[0], ad.constant(c)))
    assert ad.gradient_check(f, [x], eps=1e-5) < 1e-9


def test_gradient_check_rejects_bad_eps():
    f = lambda l: ad.reduce_sum(l[0])
    with pytest.raises(ValueError):
        ad.gradient_check(f, [np.ones(2)], eps=0.5)
    with pytest.raises(ValueError):
        ad.gradient_check(f, [np.ones(2)], eps=0.0)


def test_kink_margin_reports_smallest_preactivation():
    x = ad.param(np.array([0.5, -0.01, 2.0]))
    root = ad.reduce_sum(ad.relu(x))
    npt.assert_allclose(ad.kink_margin(root), 0.01)
    root = ad.reduce_sum(x)
    assert ad.kink_margin(root) == np.inf


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(7)
    x = ad.param(rng.normal(size=(6, 6)))
    out = ad.softmax(ad.matmul(ad.relu(x), ad.transpose(x)), axis=-1)
    out = ad.log(out)
    assert np.all(np.isfinite(out.value))
    ad.backward(ad.mean(out))
    assert np.all(np.isfinite(x.grad))


def test_distinct_graphs_run_concurrently_on_threads():
    # graphs are thread-confined; identical seeds give identical grads no
    # matter how workers interleave
    from concurrent.futures import ThreadPoolExecutor

    def work(seed):
        rng = np.random.default_rng(seed)
        x = ad.param(rng.normal(size=(16, 16)))
        root = ad.mean(ad.relu(ad.matmul(x, ad.transpose(x))))
        ad.backward(root)
        return x.grad.copy()

    with ThreadPoolExecutor(max_workers=4) as pool:
        grads = list(pool.map(work, [1, 2, 1, 2]))
    npt.assert_array_equal(grads[0], grads[2])
    npt.assert_array_equal(grads[1], grads[3])
    assert not np.array_equal(grads[0], grads[1])
