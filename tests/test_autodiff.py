"""Engine tests: forward semantics of every primitive plus gradient checks
against central finite differences."""

import os
import subprocess
import sys
import threading
import zlib

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


def case_log(rng):
    a = rng.uniform(0.1, 3.0, size=(3, 3))
    return lambda l: scalar_readout(ad.log(l[0])), [a]


def case_softmax(rng):
    a = rng.normal(size=(4, 3))
    axis = int(rng.integers(0, 2))
    return lambda l: scalar_readout(ad.softmax(l[0], axis=axis)), [a]


def case_mean(rng):
    a = rng.normal(size=(3, 4, 2))
    axis = int(rng.integers(0, 3))
    return lambda l: scalar_readout(ad.mean(l[0], axis=axis)), [a]


def case_sum(rng):
    a = rng.normal(size=(2, 5))
    return lambda l: scalar_readout(ad.reduce_sum(l[0])), [a]


def case_concat(rng):
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 4))
    return lambda l: scalar_readout(ad.concat([l[0], l[1]], axis=1)), [a, b]


def _conv_stack(rng, x_shape, layers):
    """conv1d over a stack of (k, C_out, stride) layers, each with a bias and
    relu, then the time-mean; the input x is data and the weights and biases
    are checked. Inputs are redrawn until every layer's pre-activations are
    away from the relu kink."""
    while True:
        x = rng.normal(size=x_shape)
        arrays = []
        c_in = x_shape[-1]
        for k, c_out, _stride in layers:
            arrays += [rng.normal(size=(k, c_in, c_out)), rng.normal(size=(c_out,))]
            c_in = c_out

        def f(leaves, x=x):
            stack = [(leaves[2 * i], leaves[2 * i + 1], spec[2]) for i, spec in enumerate(layers)]
            return scalar_readout(ad.conv1d(x, stack))

        if ad.kink_margin(f([ad.constant(a) for a in arrays])) > 1e-3:
            return f, arrays


# conv1d has one mode (bias, relu after every layer, time-mean, data input);
# the case names predate it and stay as stable test ids. The input gradient's
# col2im runs only between layers, so the strides that do not divide T and
# the kernels shorter than their stride that it must handle sit on layer 2 or 3.


def case_conv1d(rng):
    return _conv_stack(rng, (2, 3, 11, 2), [(4, 3, 2)])


def case_conv1d_bias(rng):
    return _conv_stack(rng, (3, 9, 1), [(3, 4, 3)])


def case_conv1d_mean(rng):
    return _conv_stack(rng, (2, 10, 2), [(3, 3, 2)])


def case_conv1d_relu(rng):
    # layer 2: stride 2 does not divide T = 9
    return _conv_stack(rng, (2, 3, 11, 2), [(3, 3, 1), (4, 2, 2)])


def case_conv1d_relu_mean(rng):
    # layer 2: stride 3 does not divide T = 8
    return _conv_stack(rng, (3, 10, 2), [(3, 4, 1), (3, 2, 3)])


def case_conv1d_relu_short_kernel(rng):
    # layer 2: kernel 2 shorter than stride 3, so some samples feed no output
    return _conv_stack(rng, (2, 13, 3), [(3, 3, 1), (2, 2, 3)])


def case_conv1d_relu_mean_full_kernel(rng):
    # layer 2: k == T = 7 at stride 1, one output step
    return _conv_stack(rng, (2, 9, 2), [(3, 3, 1), (7, 2, 1)])


def case_conv1d_relu_constant_input(rng):
    # the extractor's one-channel input
    return _conv_stack(rng, (2, 3, 16, 1), [(3, 4, 2)])


def case_conv1d_relu_mean_constant_input(rng):
    # k == T = 7 at stride 1 on a one-layer stack
    return _conv_stack(rng, (2, 3, 7, 1), [(7, 2, 1)])


def case_conv1d_stack2_relu(rng):
    # stride 2 divides neither T = 23 nor layer 1's 10 outputs
    return _conv_stack(rng, (2, 3, 23, 2), [(4, 3, 2), (3, 2, 2)])


def case_conv1d_stack2_relu_mean_constant_input(rng):
    # the extractor's shape of stack
    return _conv_stack(rng, (2, 3, 40, 1), [(7, 4, 4), (3, 3, 2)])


def case_conv1d_stack2_mean(rng):
    return _conv_stack(rng, (2, 14, 2), [(3, 3, 2), (2, 2, 1)])


def case_conv1d_stack3_relu_mean_short_kernel(rng):
    # layer 2: kernel 2 shorter than stride 3; layer 3: stride 2 does not
    # divide T = 9
    return _conv_stack(rng, (3, 30, 2), [(3, 3, 1), (2, 2, 3), (2, 2, 2)])


def case_conv1d_stack3_relu_constant_input(rng):
    # layer 3: kernel 1 shorter than stride 2, and stride 2 does not divide T = 11
    return _conv_stack(rng, (2, 2, 26, 1), [(3, 3, 2), (2, 2, 1), (1, 2, 2)])


ALL_CASES = [
    case_add, case_add_broadcast, case_mul, case_scale, case_matmul,
    case_matmul_batched, case_transpose, case_relu, case_log,
    case_softmax, case_mean, case_sum, case_concat,
    case_conv1d, case_conv1d_bias, case_conv1d_mean, case_conv1d_relu, case_conv1d_relu_mean,
    case_conv1d_relu_short_kernel, case_conv1d_relu_mean_full_kernel,
    case_conv1d_relu_constant_input, case_conv1d_relu_mean_constant_input,
    case_conv1d_stack2_relu, case_conv1d_stack2_relu_mean_constant_input, case_conv1d_stack2_mean,
    case_conv1d_stack3_relu_mean_short_kernel, case_conv1d_stack3_relu_constant_input,
]


@pytest.mark.parametrize("builder", ALL_CASES, ids=lambda b: b.__name__)
def test_backward_matches_finite_differences(builder):
    # >= 100 random shape/seed combinations across the parametrized cases
    for seed in range(6):
        # a stable hash (str hashes are salted per process), so a failure replays
        f, arrays = builder(np.random.default_rng(zlib.crc32(f"{builder.__name__}:{seed}".encode())))
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
    npt.assert_array_equal(joined.value[:, :4], a)
    npt.assert_array_equal(joined.value[:, 4:], b)


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
        ad.conv1d(np.ones((3, 2)), [(ad.constant(np.ones((5, 2, 1))), ad.constant(np.zeros(1)), 1)])


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


def test_backward_keeps_grads_on_leaves_only():
    # an intermediate's gradient is freed once passed on; the leaves' are as before
    x = ad.param(np.array([1.0, -2.0, 3.0]))
    w = ad.param(np.array([0.5, 0.25, -1.0]))
    hidden = ad.mul(x, w)
    out = ad.relu(hidden)
    ad.backward(ad.reduce_sum(out))
    assert hidden.grad is None and out.grad is None
    mask = np.array([1.0, 0.0, 0.0])  # hidden = [0.5, -0.5, -3]
    npt.assert_array_equal(x.grad, w.value * mask)
    npt.assert_array_equal(w.grad, x.value * mask)


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
        return ad.mean(ad.mean(ad.matmul(h, leaves[1]), axis=1), axis=0)

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


def test_kink_margin_sees_relu_fused_into_conv1d(monkeypatch):
    # the graph's only relu is inside the conv; its margin is the smallest
    # |pre-activation|, not inf
    x = np.array([[1.0], [2.0], [-3.0], [0.5]])
    w = np.array([[[1.0]], [[1.0]]])
    b = np.array([0.3])
    # pre-activations: 3.3, -0.7, -2.2
    out = ad.conv1d(x, [(ad.param(w), ad.param(b), 1)])
    npt.assert_allclose(ad.kink_margin(ad.reduce_sum(out)), 0.7)
    # in a stack the margin covers every layer, not only the last: a second
    # layer's pre-activations 8.3, 5, 5 leave the first layer's 0.7 smallest
    second = (ad.param(np.ones((1, 1, 1))), ad.param(np.array([5.0])), 1)
    out = ad.conv1d(x, [(ad.param(w), ad.param(b), 1), second])
    npt.assert_allclose(ad.kink_margin(ad.reduce_sum(out)), 0.7)
    # many blocks: one signal a block, 3 blocks a chunk, and the smallest
    # |pre-activation| planted in the first layer of the 11th of 12 blocks
    monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", 1)
    monkeypatch.setattr(ad, "CONV_CHUNK", 3)
    rng = np.random.default_rng(21)
    x = rng.normal(size=(12, 20, 1))
    w1, b1, w2, b2 = (rng.normal(size=s) for s in ((3, 1, 2), (2,), (3, 2, 2), (2,)))
    x[10, 8, 0] += (1e-6 - _naive_conv1d(x, w1, b1, 2)[10, 4, 0]) / w1[0, 0, 0]
    z1 = _naive_conv1d(x, w1, b1, 2)
    z2 = _naive_conv1d(np.maximum(z1, 0.0), w2, b2, 1)
    assert np.unravel_index(np.abs(z1).argmin(), z1.shape)[0] == 10
    assert np.abs(z1).min() < np.abs(z2).min()
    margins = []
    for threads in (1, 2):
        monkeypatch.setattr(ad, "CONV_THREADS", threads)
        stack = [(ad.param(w1), ad.param(b1), 2), (ad.param(w2), ad.param(b2), 1)]
        margins.append(ad.kink_margin(ad.reduce_sum(ad.conv1d(x, stack))))
    npt.assert_allclose(margins[0], np.abs(z1).min(), rtol=1e-6)
    assert margins[0] == margins[1]


def _naive_conv1d(x, w, b, stride):
    """Valid conv (the pre-activation) of every signal by explicit loops:
    x (S, T, C_in)."""
    k, c_in, c_out = w.shape
    t_out = (x.shape[1] - k) // stride + 1
    out = np.zeros((x.shape[0], t_out, c_out))
    for s in range(x.shape[0]):
        for i in range(t_out):
            for o in range(c_out):
                out[s, i, o] = b[o] + sum(
                    x[s, i * stride + j, c] * w[j, c, o] for j in range(k) for c in range(c_in)
                )
    return out


def _naive_relu_conv1d(x, w, b, stride):
    """relu(valid conv) of every signal by explicit loops: x (S, T, C_in)."""
    return np.maximum(_naive_conv1d(x, w, b, stride), 0.0)


def test_fused_conv1d_matches_naive_oracle_across_blocks(monkeypatch):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, 3, 20, 2))  # 15 signals
    w = rng.normal(size=(3, 2, 3))
    b = rng.normal(size=(3,))
    stride, t_out = 2, 9
    # 4 signals per block: blocks of 4, 4, 4 and a ragged 3
    monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", 4 * 8 * (3 * 2 + 3) * t_out)
    expected = _naive_relu_conv1d(x.reshape(15, 20, 2), w, b, stride)
    stack = [(ad.constant(w), ad.constant(b), stride)]
    out = ad.conv1d(x, stack)
    npt.assert_allclose(out.value, expected.mean(axis=-2).reshape(5, 3, 3), atol=1e-12)
    # a second layer (3 outputs per signal) runs on the same blocks
    w2 = rng.normal(size=(3, 3, 2))
    b2 = rng.normal(size=(2,))
    expected = _naive_relu_conv1d(expected, w2, b2, 3)
    out = ad.conv1d(x, stack + [(ad.constant(w2), ad.constant(b2), 3)])
    npt.assert_allclose(out.value, expected.mean(axis=-2).reshape(5, 3, 2), atol=1e-12)


def test_fused_conv1d_blocked_gradients_match_one_block(monkeypatch):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(7, 19, 3))
    # (k, C_in, C_out, stride); the first layer is the largest, so it sets
    # the block size of the stack too
    for specs in ([(5, 3, 4, 2)], [(5, 3, 4, 2), (3, 4, 2, 1), (2, 2, 3, 2)]):
        arrays = []
        for k, c_in, c_out, _stride in specs:
            arrays += [rng.normal(size=(k, c_in, c_out)), rng.normal(size=(c_out,))]

        def grads():
            leaves = [ad.param(a) for a in arrays]
            stack = [(leaves[2 * i], leaves[2 * i + 1], spec[3]) for i, spec in enumerate(specs)]
            ad.backward(scalar_readout(ad.conv1d(x, stack)))
            return [leaf.grad for leaf in leaves]

        whole = grads()
        # 3 signals per block: blocks of 3, 3 and a ragged 1
        monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", 3 * 8 * (5 * 3 + 4) * 8)
        blocked = grads()
        monkeypatch.undo()
        for one, many in zip(whole, blocked):
            npt.assert_allclose(many, one, rtol=1e-12, atol=1e-14)


def _reference_conv_stack(x, stack):
    """conv1d's one mode from checked primitives: each layer is
    sum_j (S_j h) W_j + b, with S_j the (T_out, T) 0/1 matrix that selects
    rows t*stride + j, then relu; the mean over time at the end. stack is
    [(taps, b, stride), ...] with taps the per-tap (C_in, C_out) nodes."""
    h = ad.constant(x)
    for taps, b, stride in stack:
        t = h.value.shape[-2]
        t_out = (t - len(taps)) // stride + 1
        z = None
        for j, tap in enumerate(taps):
            select = np.zeros((t_out, t))
            select[np.arange(t_out), np.arange(t_out) * stride + j] = 1.0
            term = ad.matmul(ad.matmul(ad.constant(select), h), tap)
            z = term if z is None else ad.add(z, term)
        h = ad.relu(ad.add(z, b))
    return ad.mean(h, axis=-2)


def test_fused_conv1d_backward_twice_doubles_gradients(monkeypatch):
    # backward recomputes blocks from what forward kept; a buffer overwritten
    # by the first pass would change the second. The fused gradients equal
    # those of a reference stack made of checked primitives, over ragged
    # blocks: 5 signals in blocks of 2, 2 and 1 (layer 1 is the largest).
    monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", 2 * 8 * (3 * 2 + 3) * 8)
    rng = np.random.default_rng(13)
    x = rng.normal(size=(5, 17, 2))
    # both layers share one bias, so its gradient sums over them
    arrays = [rng.normal(size=s) for s in ((3, 2, 3), (2, 3, 3), (3,))]
    w1, w2, b = leaves = [ad.param(a) for a in arrays]
    root = scalar_readout(ad.conv1d(x, [(w1, b, 2), (w2, b, 2)]))
    ad.backward(root)
    fused = [n.grad.copy() for n in leaves]
    ad.backward(root)
    for n, g in zip(leaves, fused):
        npt.assert_array_equal(n.grad, 2.0 * g)

    taps1, taps2 = ([ad.param(tap) for tap in w] for w in arrays[:2])
    b = ad.param(arrays[2])
    ad.backward(scalar_readout(_reference_conv_stack(x, [(taps1, b, 2), (taps2, b, 2)])))
    reference = [np.stack([tap.grad for tap in taps1]), np.stack([tap.grad for tap in taps2]), b.grad]
    for got, want in zip(fused, reference):
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def _conv_stack_results(x, arrays, strides):
    """conv1d's output and every weight and bias gradient of one stack."""
    leaves = [ad.param(a) for a in arrays]
    stack = [(leaves[2 * i], leaves[2 * i + 1], stride) for i, stride in enumerate(strides)]
    out = ad.conv1d(x, stack)
    ad.backward(scalar_readout(out))
    return [out.value] + [leaf.grad for leaf in leaves]


def test_fused_conv1d_bytes_do_not_depend_on_thread_count(monkeypatch):
    rng = np.random.default_rng(14)
    x = rng.normal(size=(23, 17, 2))
    arrays = [rng.normal(size=s) for s in ((3, 2, 4), (4,), (2, 4, 3), (3,))]
    # layer 1 is the largest (8 * (3*2 + 4) * 8 bytes a signal): 23 signals in
    # blocks of 2 and a ragged 1, and those 12 blocks in chunks of 5, 5 and 2
    monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", 2 * 8 * (3 * 2 + 4) * 8)
    monkeypatch.setattr(ad, "CONV_CHUNK", 5)
    # 2 threads first: a process running the conv on more than one thread
    # pins BLAS to one, and both runs must see the same BLAS
    results = {}
    for threads in (2, 1):
        monkeypatch.setattr(ad, "CONV_THREADS", threads)
        results[threads] = _conv_stack_results(x, arrays, (2, 1))
    for one, two in zip(results[1], results[2]):
        npt.assert_array_equal(two, one)
    # the chunked sums agree with one block in one chunk up to sum order
    monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", 10**9)
    for whole, chunked in zip(_conv_stack_results(x, arrays, (2, 1)), results[2]):
        npt.assert_allclose(chunked, whole, rtol=1e-12, atol=1e-14)


def test_folded_bias_gradient_matches_summed_reference(monkeypatch):
    # each im2col row ends in a 1, so the GEMM that gives a layer's weight
    # gradient gives its bias gradient as its last row, summed in the GEMM's
    # order; the reference sums the pre-activation gradient gz with numpy
    # (gz.sum over signals and time). They agree within 1e-12 of the largest
    # entry, and the fused results are the same bytes on 1 thread and on 2.
    rng = np.random.default_rng(16)
    x = rng.normal(size=(24, 96, 1))
    arrays = [rng.normal(size=(7, 1, 16)) / 2, rng.normal(size=16),
              rng.normal(size=(5, 16, 32)) / 9, rng.normal(size=32)]
    # the extractor's layers; layer 1 is the largest (8 * (5*16 + 32) * 10
    # bytes a signal): blocks of 3 signals, and 8 blocks in chunks of 3, 3, 2
    monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", 3 * 8 * (5 * 16 + 32) * 10)
    monkeypatch.setattr(ad, "CONV_CHUNK", 3)
    results = {}
    for threads in (2, 1):
        monkeypatch.setattr(ad, "CONV_THREADS", threads)
        results[threads] = _conv_stack_results(x, arrays, (4, 2))
    for one, two in zip(results[1], results[2]):
        npt.assert_array_equal(two, one)
    taps1, taps2 = ([ad.param(tap) for tap in w] for w in arrays[0::2])
    b1, b2 = (ad.param(b) for b in arrays[1::2])
    ad.backward(scalar_readout(_reference_conv_stack(x, [(taps1, b1, 4), (taps2, b2, 2)])))
    for fused, reference in ((results[1][2], b1.grad), (results[1][4], b2.grad)):
        npt.assert_allclose(fused, reference, rtol=0, atol=1e-12 * np.abs(reference).max())


def test_folded_bias_gradient_check_over_chunks_of_blocks(monkeypatch):
    # blocks of 2 signals in chunks of 2 blocks: 5 signals make one chunk of
    # two blocks and one ragged chunk whose single block holds one signal;
    # every block's im2col rows end in their ones column
    monkeypatch.setattr(ad, "CONV_CHUNK", 2)
    # (largest layer's bytes a signal, layers): one layer 8 * (3 + 4) * 8
    # bytes; two layers, the first the largest at 8 * (4 + 3) * 7
    for seed, (largest, layers) in enumerate([(448, [(3, 4, 2)]), (392, [(4, 3, 2), (3, 2, 2)])]):
        monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", 2 * largest)
        f, arrays = _conv_stack(np.random.default_rng(seed), (5, 17, 1), layers)
        assert all(np.abs(b).min() > 0.0 for b in arrays[1::2])
        err = ad.gradient_check(f, arrays, eps=1e-5)
        assert err < 1e-5, f"{len(layers)}-layer stack: rel err {err}"


def _fill_and_free_on_conv_threads(shapes):
    """Allocate NaN-filled arrays of `shapes` and free them, on the calling
    thread and on every thread of conv1d's pool, so that each thread's heap
    holds stale blocks of those sizes."""

    def fill_and_free(barrier):
        stale = [np.full(shape, np.nan) for shape in shapes for _ in range(8)]
        barrier.wait(timeout=60)  # holds each pool thread to one call
        del stale

    fill_and_free(threading.Barrier(1))
    pool = ad._POOLS.get(ad.CONV_THREADS)
    if pool is not None:
        barrier = threading.Barrier(ad.CONV_THREADS)
        list(pool.map(fill_and_free, [barrier] * ad.CONV_THREADS))


def test_conv1d_writes_every_entry_of_its_im2col_rows(monkeypatch):
    # each block allocates its im2col rows uninitialized, and the heap, which
    # keeps freed blocks, hands back NaN-filled blocks of exactly those sizes
    # freed just before on the same thread. Output and gradients stay finite
    # and the same bytes, so every entry is written, the ones column included
    ad.keep_freed_memory()
    rng = np.random.default_rng(17)
    x = rng.normal(size=(7, 96, 1))
    arrays = [rng.normal(size=(7, 1, 16)) / 2, rng.normal(size=16),
              rng.normal(size=(5, 16, 32)) / 9, rng.normal(size=32)]
    # layer 1 is the largest (8 * (5*16 + 32) * 10 bytes a signal): blocks
    # of 3, 3 and 1 signals, in chunks of 2 blocks and 1
    monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", 3 * 8 * (5 * 16 + 32) * 10)
    monkeypatch.setattr(ad, "CONV_CHUNK", 2)
    # (n·T_out, k·C_in + 1) rows of each layer, for blocks of 3 and of 1
    shapes = [(n * t_out, cols) for n in (3, 1) for t_out, cols in ((23, 7 + 1), (10, 5 * 16 + 1))]
    for threads in (1, 2):
        monkeypatch.setattr(ad, "CONV_THREADS", threads)
        clean = _conv_stack_results(x, arrays, (4, 2))
        _fill_and_free_on_conv_threads(shapes)
        stale = _conv_stack_results(x, arrays, (4, 2))
        for want, got in zip(clean, stale):
            assert np.isfinite(got).all()
            assert got.tobytes() == want.tobytes()


@pytest.mark.skipif(ad.openblas() is None, reason="numpy's bundled OpenBLAS not found")
def test_conv1d_on_two_threads_pins_blas_to_one_thread():
    # a fresh process, whose BLAS starts at its own default thread count
    code = (
        "import numpy as np\n"
        "from hybridgnn import autodiff as ad\n"
        "ad.CONV_THREADS, ad.CONV_BLOCK_BYTES = 2, 1\n"
        "rng = np.random.default_rng(0)\n"
        "w, b = ad.param(rng.normal(size=(3, 1, 2))), ad.param(rng.normal(size=(2,)))\n"
        "ad.conv1d(rng.normal(size=(4 * ad.CONV_CHUNK, 8, 1)), [(w, b, 1)])\n"
        "print(sorted(ad._POOLS), ad.openblas().scipy_openblas_get_num_threads64_())\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(ad.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=120, check=True)
    assert run.stdout.split() == ["[2]", "1"]


def test_conv1d_without_blas_setter_starts_no_pool(monkeypatch):
    def no_pool(*_args, **_kwargs):
        raise AssertionError("a conv thread pool was created")

    monkeypatch.setattr(ad, "openblas", lambda: None)
    monkeypatch.setattr(ad, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(ad, "_POOLS", {})
    monkeypatch.setattr(ad, "CONV_THREADS", 2)
    monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", 1)  # one signal a block: 4 chunks
    assert ad.usable_cpus() == 1
    rng = np.random.default_rng(15)
    arrays = [rng.normal(size=(3, 1, 2)), rng.normal(size=(2,))]
    _conv_stack_results(rng.normal(size=(4 * ad.CONV_CHUNK, 8, 1)), arrays, (1,))
    assert ad._POOLS == {}


class _FakeLibc:
    """A C library whose `mallopt` records its calls and reports success."""

    def __init__(self, calls):
        def mallopt(param, value):
            calls.append((param, value))
            return 1

        self.mallopt = mallopt


def test_keep_freed_memory_sets_both_thresholds_the_same_each_call(monkeypatch):
    calls = []
    monkeypatch.setattr(ad.ctypes, "CDLL", lambda _name: _FakeLibc(calls))
    assert ad.keep_freed_memory() and ad.keep_freed_memory()
    policy = [(ad.M_MMAP_THRESHOLD, 32 << 20), (ad.M_TRIM_THRESHOLD, 256 << 20)]
    assert calls == policy + policy
    monkeypatch.undo()
    if hasattr(ad.ctypes.CDLL(None), "mallopt"):  # glibc takes both, every time
        assert ad.keep_freed_memory() and ad.keep_freed_memory()


class _NoMallopt:
    pass


def _no_libc(_name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda _name: _NoMallopt(), _no_libc], ids=["no-mallopt", "oserror"])
def test_keep_freed_memory_is_a_no_op_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(ad.ctypes, "CDLL", cdll)
    assert ad.keep_freed_memory() is False


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(7)
    x = ad.param(rng.normal(size=(6, 6)))
    out = ad.softmax(ad.matmul(ad.relu(x), ad.transpose(x)), axis=-1)
    out = ad.log(out)
    assert np.all(np.isfinite(out.value))
    ad.backward(ad.reduce_sum(out))
    assert np.all(np.isfinite(x.grad))


def test_distinct_graphs_run_concurrently_on_threads():
    # graphs are thread-confined; identical seeds give identical grads no
    # matter how workers interleave
    from concurrent.futures import ThreadPoolExecutor

    def work(seed):
        rng = np.random.default_rng(seed)
        x = ad.param(rng.normal(size=(16, 16)))
        root = ad.reduce_sum(ad.relu(ad.matmul(x, ad.transpose(x))))
        ad.backward(root)
        return x.grad.copy()

    with ThreadPoolExecutor(max_workers=4) as pool:
        grads = list(pool.map(work, [1, 2, 1, 2]))
    npt.assert_array_equal(grads[0], grads[2])
    npt.assert_array_equal(grads[1], grads[3])
    assert not np.array_equal(grads[0], grads[1])


# --- no_grad ---------------------------------------------------------------------


def _every_op(x, w, b):
    """One node of each primitive, the fused conv included, over params."""
    h = ad.conv1d(x, [(w, b, 2)])  # (2, 3, 2)
    a = ad.relu(ad.add(h, ad.mul(h, h)))
    m = ad.matmul(ad.transpose(a), a)
    s = ad.softmax(ad.scale(ad.concat([m, m], axis=-1), 0.5), axis=-1)
    return [h, a, m, s, ad.mean(ad.log(s), axis=-1), ad.reduce_sum(s)]


def test_no_grad_nodes_record_no_graph():
    rng = np.random.default_rng(40)
    x = rng.normal(size=(2, 3, 9, 1))
    w, b = ad.param(rng.normal(size=(3, 1, 2))), ad.param(rng.normal(size=(2,)))
    with ad.no_grad():
        nodes = _every_op(x, w, b)
    reference = _every_op(x, w, b)
    for node, ref in zip(nodes, reference):
        assert node.parents == () and node._backward is None and node.kink is None
        assert not node.needs_grad
        assert node.value.tobytes() == ref.value.tobytes()
    assert reference[0].parents == (w, b) and reference[0].kink is not None
    ad.backward(nodes[-1])
    assert w.grad is None and b.grad is None
    assert ad.kink_margin(nodes[-1]) == np.inf


def test_no_grad_conv1d_packs_no_bits(monkeypatch):
    calls = []
    packbits = np.packbits
    monkeypatch.setattr(np, "packbits", lambda *a, **k: calls.append(1) or packbits(*a, **k))
    rng = np.random.default_rng(41)
    x = rng.normal(size=(4, 9, 1))
    w, b = ad.param(rng.normal(size=(3, 1, 2))), ad.param(rng.normal(size=(2,)))
    with ad.no_grad():
        ad.conv1d(x, [(w, b, 1)])
    assert calls == []
    # constant weights: nothing backward would reach, but the kink is kept
    const = ad.conv1d(x, [(ad.constant(w.value), ad.constant(b.value), 1)])
    assert calls == [] and const.kink is not None
    ad.conv1d(x, [(w, b, 1)])
    assert calls


def test_no_grad_nests_and_restores_the_outer_state():
    from concurrent.futures import ThreadPoolExecutor

    assert ad.recording()
    with ad.no_grad():
        with ad.no_grad():
            assert not ad.recording()
        assert not ad.recording()
        # the state is per thread: another thread still records graphs
        with ThreadPoolExecutor(max_workers=1) as pool:
            assert pool.submit(ad.recording).result()
    assert ad.recording()
    with pytest.raises(KeyError), ad.no_grad():
        raise KeyError
    assert ad.recording()
    x = ad.param(np.ones(3))
    assert ad.relu(x).parents == (x,)
