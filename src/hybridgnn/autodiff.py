"""Dense float64 tensor engine with dynamic-graph reverse-mode differentiation.

Each `Node` holds a numpy array value plus the bookkeeping needed to run
backpropagation: the primitive tag that produced it, references to its parent
nodes, and a closure mapping the output gradient to parent gradients. Graphs
are rebuilt on every forward pass; there is no static compilation.

Gradient semantics: `backward` ACCUMULATES into `.grad` across calls. Use
`zero_grads` to reset between optimizer steps.

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

    __slots__ = ("value", "grad", "op", "parents", "needs_grad", "_backward")

    def __init__(self, value, op="leaf", parents=(), backward=None, needs_grad=None):
        self.value = value
        self.grad = None
        self.op = op
        self.parents = parents
        self._backward = backward
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


def sub(a: Node, b: Node) -> Node:
    _check_broadcast("sub", a, b)

    def bwd(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)

    return Node(a.value - b.value, "sub", (a, b), bwd)


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

    return Node(out, "relu", (a,), bwd)


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


def reshape(a: Node, shape) -> Node:
    shape = tuple(shape)

    def bwd(g):
        return (g.reshape(a.value.shape),)

    return Node(a.value.reshape(shape), "reshape", (a,), bwd)


def slice_(a: Node, key) -> Node:
    """Basic slicing (tuples of `slice`/int); backward scatters into zeros."""
    out = a.value[key]

    def bwd(g):
        full = np.zeros_like(a.value)
        full[key] = g
        return (full,)

    return Node(out, "slice", (a,), bwd)


def conv1d(x: Node, w: Node, stride: int = 1, bias: Node | None = None) -> Node:
    """Valid 1-D convolution over the time axis, channels last.

    x: (..., T, C_in); w: (k, C_in, C_out) -> (..., T_out, C_out) with
    T_out = (T - k)//stride + 1. Leading axes of x are independent signals
    (e.g. batch and electrode), never mixed by the kernel. An optional
    (C_out,) bias is broadcast-added inside the op, sparing one elementwise
    pass over the (large) activation.
    """
    if x.value.ndim < 2 or w.value.ndim != 3 or x.value.shape[-1] != w.value.shape[1]:
        raise ShapeMismatch("conv1d", x.value.shape, w.value.shape)
    k, c_in, c_out = w.value.shape
    if bias is not None and bias.value.shape != (c_out,):
        raise ShapeMismatch("conv1d", bias.value.shape, w.value.shape)
    t = x.value.shape[-2]
    if t < k:
        raise ShapeMismatch("conv1d", x.value.shape, w.value.shape)
    t_out = (t - k) // stride + 1

    xv = np.ascontiguousarray(x.value)
    lead = xv.shape[:-2]
    st = xv.strides
    windows = as_strided(
        xv,
        shape=lead + (t_out, k, c_in),
        strides=st[:-2] + (st[-2] * stride, st[-2], st[-1]),
    )
    # reshape forces the im2col copy once; cached here for the backward pass
    win_flat = windows.reshape(-1, k * c_in)
    w_flat = w.value.reshape(k * c_in, c_out)
    flat = win_flat @ w_flat
    if bias is not None:
        flat += bias.value
    out = flat.reshape(lead + (t_out, c_out))

    def bwd(g):
        g_flat = g.reshape(-1, c_out)
        gw = (win_flat.T @ g_flat).reshape(k, c_in, c_out)
        gb = None if bias is None else g_flat.sum(axis=0)
        if not x.needs_grad:
            return (None, gw) if bias is None else (None, gw, gb)
        gw_cols = (g_flat @ w_flat.T).reshape(lead + (t_out, k, c_in))
        gx = np.zeros_like(xv)
        for j in range(k):
            gx[..., j : j + stride * t_out : stride, :] += gw_cols[..., :, j, :]
        return (gx, gw) if bias is None else (gx, gw, gb)

    parents = (x, w) if bias is None else (x, w, bias)
    return Node(out, "conv1d", parents, bwd)


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
    """Populate `.grad` on every reachable differentiable node.

    Gradients accumulate across calls; reset with `zero_grads`. The root must
    be scalar (shape product 1).
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
        node.grad = g if node.grad is None else node.grad + g
        if node._backward is None:
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
    """Smallest |pre-activation| over every relu in the graph (inf if none).

    Finite-difference checks are unreliable when an input sits within ~10*eps
    of a relu kink; callers resample when this margin is too small.
    """
    margin = np.inf
    for node in graph_nodes(root):
        if node.op == "relu":
            m = np.abs(node.parents[0].value).min()
            margin = min(margin, float(m))
    return margin


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
