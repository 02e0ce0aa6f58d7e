"""Dense float64 tensor engine with dynamic-graph reverse-mode differentiation.

Each `Node` holds a numpy array value plus the bookkeeping needed to run
backpropagation: the primitive tag that produced it, references to its parent
nodes, and a closure mapping the output gradient to parent gradients. Graphs
are rebuilt on every forward pass; there is no static compilation.

Gradient semantics: `backward` stores gradients in `.grad` on leaves only
(parameters and other nodes without a backward rule) and ACCUMULATES there
across calls; use `zero_grads` to reset between optimizer steps. An
intermediate node's gradient is dropped once it has been passed on to its
parents, so it is not held for as long as the graph lives.

Elementwise primitives follow numpy broadcasting; gradients are summed back
over broadcast axes. `matmul` and `transpose` operate on the last two axes,
so stacked (batched) operands work the way numpy's `@` does.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

LOG_FLOOR = 1e-12


class ShapeMismatch(ValueError):
    """Raised when a primitive's input shapes do not conform to its rule."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = shapes
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(tuple(s)) for s in shapes)}")


class Node:
    """One vertex of the computation graph: a value and its gradient slot."""

    __slots__ = ("value", "grad", "op", "parents", "needs_grad", "_backward", "kink")

    def __init__(self, value, op="leaf", parents=(), backward=None, needs_grad=None, kink=None):
        self.value = value
        self.grad = None
        self.op = op
        self.parents = parents
        self._backward = backward
        # for ops that apply relu: returns the smallest |pre-activation|
        self.kink = kink
        if needs_grad is None:
            needs_grad = any(p.needs_grad for p in parents)
        self.needs_grad = needs_grad

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"


def param(value) -> Node:
    """Leaf that participates in differentiation (a trainable tensor)."""
    arr = np.ascontiguousarray(value, dtype=np.float64)
    return Node(arr, op="param", needs_grad=True)


def constant(value) -> Node:
    """Leaf excluded from differentiation; backward never propagates into it."""
    arr = np.ascontiguousarray(value, dtype=np.float64)
    return Node(arr, op="const", needs_grad=False)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum `grad` over the axes numpy broadcasting introduced for `shape`."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad


def _check_broadcast(op, a, b):
    try:
        np.broadcast_shapes(a.value.shape, b.value.shape)
    except ValueError:
        raise ShapeMismatch(op, a.value.shape, b.value.shape) from None


def add(a: Node, b: Node) -> Node:
    _check_broadcast("add", a, b)

    def bwd(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return Node(a.value + b.value, "add", (a, b), bwd)


def mul(a: Node, b: Node) -> Node:
    _check_broadcast("mul", a, b)

    def bwd(g):
        return _unbroadcast(g * b.value, a.value.shape), _unbroadcast(g * a.value, b.value.shape)

    return Node(a.value * b.value, "mul", (a, b), bwd)


def scale(a: Node, c: float) -> Node:
    c = float(c)

    def bwd(g):
        return (g * c,)

    return Node(a.value * c, "scale", (a,), bwd)


def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim < 2 or b.value.ndim < 2 or a.value.shape[-1] != b.value.shape[-2]:
        raise ShapeMismatch("matmul", a.value.shape, b.value.shape)

    def bwd(g):
        ga = _unbroadcast(g @ np.swapaxes(b.value, -1, -2), a.value.shape)
        gb = _unbroadcast(np.swapaxes(a.value, -1, -2) @ g, b.value.shape)
        return ga, gb

    return Node(a.value @ b.value, "matmul", (a, b), bwd)


def transpose(a: Node) -> Node:
    if a.value.ndim < 2:
        raise ShapeMismatch("transpose", a.value.shape)

    def bwd(g):
        return (np.swapaxes(g, -1, -2),)

    return Node(np.swapaxes(a.value, -1, -2), "transpose", (a,), bwd)


def relu(a: Node) -> Node:
    out = np.maximum(a.value, 0.0)

    def bwd(g):
        return (g * (a.value > 0.0),)

    def kink():
        return float(np.abs(a.value).min())

    return Node(out, "relu", (a,), bwd, kink=kink)


def exp(a: Node) -> Node:
    out = np.exp(a.value)

    def bwd(g):
        return (g * out,)

    return Node(out, "exp", (a,), bwd)


def log(a: Node) -> Node:
    """Natural log with the argument clamped to >= LOG_FLOOR.

    The clamp keeps entropy-style terms finite when a probability underflows
    to zero; in the clamped region the derivative is defined as 0.
    """
    clamped = np.maximum(a.value, LOG_FLOOR)

    def bwd(g):
        return (g * (a.value >= LOG_FLOOR) / clamped,)

    return Node(np.log(clamped), "log", (a,), bwd)


def softmax(a: Node, axis: int) -> Node:
    shifted = a.value - a.value.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return Node(out, "softmax", (a,), bwd)


def mean(a: Node, axis: int | None = None) -> Node:
    if axis is None:
        n = a.value.size

        def bwd(g):
            return (np.full_like(a.value, g / n),)

        return Node(a.value.mean(), "mean", (a,), bwd)

    n = a.value.shape[axis]

    def bwd_axis(g):
        return (np.broadcast_to(np.expand_dims(g, axis) / n, a.value.shape),)

    return Node(a.value.mean(axis=axis), "mean", (a,), bwd_axis)


def reduce_sum(a: Node, axis: int | None = None) -> Node:
    if axis is None:

        def bwd(g):
            return (np.full_like(a.value, g),)

        return Node(a.value.sum(), "sum", (a,), bwd)

    def bwd_axis(g):
        return (np.broadcast_to(np.expand_dims(g, axis), a.value.shape),)

    return Node(a.value.sum(axis=axis), "sum", (a,), bwd_axis)


def concat(nodes, axis: int) -> Node:
    nodes = list(nodes)
    base = list(nodes[0].value.shape)
    for n in nodes[1:]:
        other = list(n.value.shape)
        if len(other) != len(base) or any(
            o != b for i, (o, b) in enumerate(zip(other, base)) if i != axis % len(base)
        ):
            raise ShapeMismatch("concat", nodes[0].value.shape, n.value.shape)
    sizes = [n.value.shape[axis] for n in nodes]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, offsets, axis=axis))

    return Node(np.concatenate([n.value for n in nodes], axis=axis), "concat", tuple(nodes), bwd)


# bytes of im2col and output rows per block of conv1d's largest layer: one
# block stays in a core's L2 cache (set by timing B=128 19 x 1024 train steps)
CONV_BLOCK_BYTES = 384 * 1024


class _ConvLayer:
    """One layer of a conv1d stack: its shapes, flattened kernel and bias, and
    the kernel split into phase groups for the input gradient."""

    def __init__(self, w: np.ndarray, b, stride: int, t_in: int):
        k, c_in, c_out = w.shape
        self.k, self.c_in, self.c_out, self.stride, self.t_in = k, c_in, c_out, stride, t_in
        self.t_out = (t_in - k) // stride + 1
        self.w_flat = w.reshape(k * c_in, c_out)
        self.b = b
        # input gradient by phase groups: time is laid out as (rows, stride*C_in)
        # and the kernel zero-padded to whole groups of `stride` taps; group q is
        # one GEMM added into the contiguous rows q..q+T_out
        groups = -(-k // stride)
        self.rows = -(-t_in // stride) + groups
        w_pad = np.zeros((groups * stride, c_in, c_out))
        w_pad[:k] = w
        self.w_groups = [np.ascontiguousarray(g.T) for g in w_pad.reshape(groups, stride * c_in, c_out)]

    def im2col(self, a: np.ndarray) -> np.ndarray:
        """(n·T_out, k·C_in) rows of a contiguous block a (n, T_in, C_in)."""
        st = a.strides
        # one window of k taps x C_in channels is contiguous in a signal
        windows = as_strided(
            a, shape=(len(a), self.t_out, self.k * self.c_in), strides=(st[0], st[1] * self.stride, st[2])
        )
        return windows.reshape(-1, self.k * self.c_in)

    def input_grad(self, gz: np.ndarray, n: int) -> np.ndarray:
        """(n, T_in, C_in) gradient of a block's input from its (n·T_out, C_out)
        pre-activation gradient."""
        g_rows = np.zeros((n, self.rows, self.stride * self.c_in))
        for q, wq in enumerate(self.w_groups):
            g_rows[:, q : q + self.t_out] += (gz @ wq).reshape(n, self.t_out, -1)
        return g_rows.reshape(n, -1, self.c_in)[:, : self.t_in]


def conv1d(x: Node, layers, relu: bool = False, time_mean: bool = False) -> Node:
    """A stack of valid 1-D convolutions over the time axis, channels last,
    as one node.

    x: (..., T, C_in); layers: [(w, b, stride), ...] with w shaped
    (k, C_in, C_out), each layer's C_in the previous layer's C_out, and b a
    (C_out,) bias or None. Each layer maps length T to
    T_out = (T - k)//stride + 1. Leading axes of x are independent signals
    (e.g. batch and electrode), never mixed by the kernels.

    `relu` applies relu after every layer, and `time_mean` returns the mean
    of the last layer's output over time, shaped (..., C_out). The signals go
    through every layer in blocks of about CONV_BLOCK_BYTES of im2col and
    output rows of the largest layer, so no whole-batch intermediate
    activation, im2col buffer or inner gradient is ever allocated. Forward
    keeps only the output and, with relu and time_mean, the last layer's relu
    mask as packed bits; backward recomputes the earlier layers block by
    block.
    """
    xv = np.ascontiguousarray(x.value)
    if xv.ndim < 2:
        raise ShapeMismatch("conv1d", xv.shape)
    if not layers:
        raise ValueError("conv1d: no layers")
    signals = xv.reshape(-1, *xv.shape[-2:])
    t, c = signals.shape[1:]
    convs = []
    parents = [x]
    for w, b, stride in layers:
        if w.value.ndim != 3 or w.value.shape[1] != c or t < w.value.shape[0]:
            raise ShapeMismatch("conv1d", xv.shape[:-2] + (t, c), w.value.shape)
        if b is not None and b.value.shape != w.value.shape[2:]:
            raise ShapeMismatch("conv1d", b.value.shape, w.value.shape)
        convs.append(_ConvLayer(w.value, None if b is None else b.value, stride, t))
        parents += [w] if b is None else [w, b]
        t, c = convs[-1].t_out, convs[-1].c_out
    last = convs[-1]
    largest = max(8 * (lay.k * lay.c_in + lay.c_out) * lay.t_out for lay in convs)
    per_block = max(1, CONV_BLOCK_BYTES // largest)
    blocks = [slice(i, i + per_block) for i in range(0, len(signals), per_block)]

    def push(a, n_layers, out=None, margins=None):
        """Run block a (n, T, C_in) through the first `n_layers` layers, the
        last one's GEMM into `out`; returns each layer's im2col rows and output
        rows (relu applied), and the block's last output (n, T_out, C_out)."""
        steps = []
        for lay in convs[:n_layers]:
            cols = lay.im2col(a)
            z = np.matmul(cols, lay.w_flat, out=out if lay is last else None)
            if lay.b is not None:
                z += lay.b
            if margins is not None:
                margins.append(float(np.abs(z).min()))
            if relu:
                np.maximum(z, 0.0, out=z)
            steps.append((cols, z))
            a = z.reshape(len(a), lay.t_out, lay.c_out)
        return steps, a

    out = np.empty((len(signals), c) if time_mean else (len(signals), t, c))
    # relu mask of the last layer when its output is averaged away, one row of
    # bits per signal: backward reads it instead of recomputing that GEMM
    bits = np.empty((len(signals), -(-t * c // 8)), np.uint8) if relu and time_mean else None
    for sl in blocks:
        _, a = push(signals[sl], len(convs), out=None if time_mean else out[sl].reshape(-1, c))
        if bits is not None:
            bits[sl] = np.packbits(a.reshape(len(a), -1) > 0.0, axis=-1)
        if time_mean:
            out[sl] = a.mean(axis=1)

    def bwd(g):
        g = g.reshape(out.shape)
        gws = [np.zeros_like(lay.w_flat) for lay in convs]
        gbs = [None if lay.b is None else np.zeros(lay.c_out) for lay in convs]
        gx = np.empty(signals.shape) if x.needs_grad else None

        # one block per call, so its temporaries are freed before the next
        def accumulate(sl):
            steps, a = push(signals[sl], len(convs) - 1)
            n = len(a)
            cols = [step_cols for step_cols, _z in steps] + [last.im2col(a)]
            if time_mean:
                g_mean = (g[sl] / t)[:, None, :]
                if relu:
                    gz = g_mean * np.unpackbits(bits[sl], axis=-1, count=t * c).reshape(n, t, c)
                else:
                    gz = np.repeat(g_mean, t, axis=1)
            else:
                gz = g[sl]
                if relu:
                    gz = gz * (out[sl] > 0.0)
            gz = gz.reshape(-1, c)
            for i in range(len(convs) - 1, -1, -1):
                gws[i] += cols[i].T @ gz
                if gbs[i] is not None:
                    gbs[i] += gz.sum(axis=0)
                if i > 0:
                    ga = convs[i].input_grad(gz, n)
                    if relu:
                        ga = ga * (steps[i - 1][1].reshape(ga.shape) > 0.0)
                    gz = ga.reshape(-1, convs[i - 1].c_out)
                elif gx is not None:
                    gx[sl] = convs[0].input_grad(gz, n)

        for sl in blocks:
            accumulate(sl)
        grads = [None if gx is None else gx.reshape(xv.shape)]
        for lay, gw, gb in zip(convs, gws, gbs):
            grads.append(gw.reshape(lay.k, lay.c_in, lay.c_out))
            if gb is not None:
                grads.append(gb)
        return tuple(grads)

    def kink():
        margins = []
        for sl in blocks:
            push(signals[sl], len(convs), margins=margins)
        return min(margins)

    out_shape = xv.shape[:-2] + out.shape[1:]
    return Node(out.reshape(out_shape), "conv1d", tuple(parents), bwd, kink=kink if relu else None)


def _toposort(root: Node):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.needs_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Node) -> None:
    """Populate `.grad` on every reachable differentiable leaf.

    Gradients accumulate across calls; reset with `zero_grads`. Intermediate
    nodes keep `.grad` unset: their gradient lives only until it has been
    passed to their parents. The root must be scalar (shape product 1).
    """
    if root.value.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.value.shape}")
    if not root.needs_grad:
        return
    order = _toposort(root)  # inputs first, root last
    pending = {id(root): np.ones_like(root.value)}
    for node in reversed(order):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for p, pg in zip(node.parents, node._backward(g)):
            if pg is None or not p.needs_grad:
                continue
            if id(p) in pending:
                pending[id(p)] = pending[id(p)] + pg
            else:
                pending[id(p)] = pg


def zero_grads(nodes) -> None:
    for n in nodes:
        n.grad = None


def graph_nodes(root: Node):
    """All nodes reachable from `root` through parent links (const leaves included)."""
    seen = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        stack.extend(node.parents)
    return list(seen.values())


def kink_margin(root: Node) -> float:
    """Smallest |pre-activation| over every relu in the graph, fused ones
    included (inf if none).

    Finite-difference checks are unreliable when an input sits within ~10*eps
    of a relu kink; callers resample when this margin is too small.
    """
    return min((node.kink() for node in graph_nodes(root) if node.kink is not None), default=np.inf)


def gradient_check(f, params, eps: float = 1e-5) -> float:
    """Compare backward gradients of `f` against central finite differences.

    `f` maps a list of leaf nodes (same shapes as `params`) to a scalar node.
    Returns max over all parameter entries of
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if not 0.0 < eps <= 1e-2:
        raise ValueError(f"gradient_check: eps must be in (0, 1e-2], got {eps}")
    arrays = [np.array(p, dtype=np.float64) for p in params]
    leaves = [param(a) for a in arrays]
    root = f(leaves)
    backward(root)
    analytic = [
        leaf.grad.copy() if leaf.grad is not None else np.zeros_like(leaf.value) for leaf in leaves
    ]

    def eval_at(mod_arrays) -> float:
        out = f([param(a) for a in mod_arrays])
        return float(out.value.reshape(()))

    worst = 0.0
    for i, base in enumerate(arrays):
        flat = base.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            f_plus = eval_at(arrays)
            flat[idx] = orig - eps
            f_minus = eval_at(arrays)
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = analytic[i].ravel()[idx]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
