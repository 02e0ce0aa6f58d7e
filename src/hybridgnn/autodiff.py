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

Inside `no_grad()` a new node records no parents, no backward rule and no
kink, so a forward run there keeps no graph: each intermediate value is freed
as soon as nothing reads it, and `backward` of its result does nothing.

Elementwise primitives follow numpy broadcasting; gradients are summed back
over broadcast axes. `matmul` and `transpose` operate on the last two axes,
so stacked (batched) operands work the way numpy's `@` does.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import as_strided

LOG_FLOOR = 1e-12


class ShapeMismatch(ValueError):
    """Raised when a primitive's input shapes do not conform to its rule."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = shapes
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(tuple(s)) for s in shapes)}")


# whether new nodes record their graph; per thread, as in `no_grad`
_RECORDING = threading.local()


def recording() -> bool:
    """False inside `no_grad` on this thread."""
    return getattr(_RECORDING, "on", True)


@contextlib.contextmanager
def no_grad():
    """Build nodes without a graph on this thread until the block exits;
    blocks nest, and each restores the state it found."""
    outer = recording()
    _RECORDING.on = False
    try:
        yield
    finally:
        _RECORDING.on = outer


class Node:
    """One vertex of the computation graph: a value and its gradient slot."""

    __slots__ = ("value", "grad", "op", "parents", "needs_grad", "_backward", "kink")

    def __init__(self, value, op="leaf", parents=(), backward=None, needs_grad=None, kink=None):
        if not recording():
            parents, backward, kink = (), None, None
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


def mean(a: Node, axis: int) -> Node:
    n = a.value.shape[axis]

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g, axis) / n, a.value.shape),)

    return Node(a.value.mean(axis=axis), "mean", (a,), bwd)


def reduce_sum(a: Node) -> Node:
    """Sum of every entry, a scalar."""

    def bwd(g):
        return (np.full_like(a.value, g),)

    return Node(a.value.sum(), "sum", (a,), bwd)


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


# bytes of im2col and output rows per block of conv1d's largest layer (set by
# timing B=128 19 x 1024 train steps on 1 and 2 threads: smaller blocks hand
# the GIL back and forth too often for 2 threads to gain)
CONV_BLOCK_BYTES = 768 * 1024
# consecutive blocks per chunk: one conv thread's unit of work, and the unit
# whose partial weight and bias gradients backward adds up in chunk order.
# A thread holds one block's temporaries at a time, so a batch has at most
# one block per chunk in flight: 16 keeps a B=8 19 x 1024 batch to 2 chunks,
# while a B=128 batch still has 26 chunks to share out
CONV_CHUNK = 16


@functools.cache
def openblas():
    """numpy's bundled OpenBLAS if it exports its thread-count setter, else None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            return lib
    return None


def usable_cpus() -> int:
    """CPUs this process may use, where numpy's BLAS can be pinned to one
    thread; else 1, since threads beside a multi-threaded BLAS only contend."""
    if openblas() is None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_blas() -> None:
    """Run numpy's BLAS on one thread, where its setter is found."""
    lib = openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)


# glibc mallopt parameters and the values `keep_freed_memory` sets
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's largest; setting it ends the dynamic threshold
TRIM_THRESHOLD_BYTES = 256 << 20


def keep_freed_memory() -> bool:
    """Keep freed blocks in the process for reuse, where glibc's `mallopt` is
    found; returns whether both settings took.

    By default glibc serves blocks above a dynamic threshold (128 KiB, rising
    to the largest block freed so far) with their own mmap and trims the top
    of the heap once more than twice that is free, so each train step's
    0.2-4 MB conv temporaries and adjacency stacks go back to the kernel and
    are faulted in again, zero-filled, by the next step. Served from the heap,
    whose top is trimmed only once 256 MiB of it is free, they are reused
    instead. Idempotent."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    took = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
    return mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES) == 1 and took


# threads that run conv1d's chunks; fold workers set 1, as the workers
# already fill the CPUs between them
CONV_THREADS = usable_cpus()
_POOLS = {}  # thread count -> executor, made on first use
_POOLS_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):  # a forked child has none of the pool threads
    os.register_at_fork(after_in_child=_POOLS.clear)


def _map_chunks(fn, chunks):
    """`fn` of every chunk, in chunk order; the chunks run on CONV_THREADS
    threads of a pool where BLAS can be pinned to one thread, else serially."""
    threads = min(CONV_THREADS, len(chunks))
    if threads <= 1 or openblas() is None:
        return map(fn, chunks)
    with _POOLS_LOCK:
        if CONV_THREADS not in _POOLS:
            # BLAS threads beside the conv threads only contend
            pin_blas()
            _POOLS[CONV_THREADS] = ThreadPoolExecutor(CONV_THREADS, thread_name_prefix="conv1d")
        pool = _POOLS[CONV_THREADS]
    return pool.map(fn, chunks)


class _ConvLayer:
    """One layer of a conv1d stack: its shapes, its kernel flattened with the
    bias as a last row, and the kernel split into phase groups for the input
    gradient."""

    def __init__(self, w: np.ndarray, b, stride: int, t_in: int):
        k, c_in, c_out = w.shape
        self.k, self.c_in, self.c_out, self.stride, self.t_in = k, c_in, c_out, stride, t_in
        self.t_out = (t_in - k) // stride + 1
        # im2col rows end in a 1, so one GEMM adds the bias too
        self.w_flat = np.vstack([w.reshape(k * c_in, c_out), b])
        # input gradient by phase groups: time is laid out as (rows, stride*C_in)
        # and the kernel zero-padded to whole groups of `stride` taps; group q is
        # one GEMM added into the contiguous rows q..q+T_out
        groups = -(-k // stride)
        self.rows = -(-t_in // stride) + groups
        w_pad = np.zeros((groups * stride, c_in, c_out))
        w_pad[:k] = w
        self.w_groups = [np.ascontiguousarray(g.T) for g in w_pad.reshape(groups, stride * c_in, c_out)]

    def im2col(self, a: np.ndarray) -> np.ndarray:
        """(n·T_out, k·C_in + 1) rows of a contiguous block a (n, T_in, C_in),
        each ending in a 1."""
        st = a.strides
        # one window of k taps x C_in channels is contiguous in a signal
        windows = as_strided(
            a, shape=(len(a), self.t_out, self.k * self.c_in), strides=(st[0], st[1] * self.stride, st[2])
        )
        cols = np.empty((len(a) * self.t_out, self.k * self.c_in + 1))
        cols.reshape(len(a), self.t_out, -1)[..., :-1] = windows
        cols[:, -1] = 1.0
        return cols

    def apply(self, cols: np.ndarray, n: int) -> np.ndarray:
        """A block's output (n, T_out, C_out), relu applied, from its im2col
        rows."""
        z = cols @ self.w_flat
        np.maximum(z, 0.0, out=z)
        return z.reshape(n, self.t_out, self.c_out)

    def input_grad(self, gz: np.ndarray, n: int) -> np.ndarray:
        """(n, T_in, C_in) gradient of a block's input from its (n·T_out, C_out)
        pre-activation gradient."""
        g_rows = np.zeros((n, self.rows, self.stride * self.c_in))
        for q, wq in enumerate(self.w_groups):
            g_rows[:, q : q + self.t_out] += (gz @ wq).reshape(n, self.t_out, -1)
        return g_rows.reshape(n, -1, self.c_in)[:, : self.t_in]


def conv1d(x: np.ndarray, layers) -> Node:
    """The extractor's conv stack as one node: valid 1-D convolutions over the
    time axis, channels last, each adding its bias and applying relu, then the
    mean over time.

    x: (..., T, C_in) data, never differentiated; layers: [(w, b, stride), ...]
    with w shaped (k, C_in, C_out), b shaped (C_out,), and each layer's C_in
    the previous layer's C_out. Each layer maps length T to
    T_out = (T - k)//stride + 1. The result is the last layer's output
    averaged over time, shaped (..., C_out). Leading axes of x are
    independent signals (e.g. batch and electrode), never mixed by the
    kernels. x is used as given: the extractor's callers pass z-scored data.

    The signals go through every layer in blocks of about CONV_BLOCK_BYTES of
    im2col and output rows of the largest layer, so no whole-batch
    intermediate activation, im2col buffer or inner gradient is ever
    allocated. Each im2col row ends in a 1 and each flattened kernel in the
    bias, so one GEMM per layer and block gives the pre-activation in forward,
    and the weight and bias gradients in backward. Forward keeps only the
    output and, where backward can reach the node, the last layer's relu mask
    as packed bits; backward recomputes the earlier layers block by block.

    Chunks of CONV_CHUNK consecutive blocks run on CONV_THREADS threads. Each
    block allocates its own im2col rows; once freed, the heap hands them to
    the next block (see `keep_freed_memory`). Forward writes each chunk's rows
    of the output; backward sums each chunk's weight and bias gradients over
    its blocks in block order, then adds the chunks' sums in chunk order. The
    layout depends only on the shapes, so every result is the same bytes at
    any thread count.
    """
    xv = np.ascontiguousarray(x, dtype=np.float64)
    if xv.ndim < 2:
        raise ShapeMismatch("conv1d", xv.shape)
    if not layers:
        raise ValueError("conv1d: no layers")
    signals = xv.reshape(-1, *xv.shape[-2:])
    t, c = signals.shape[1:]
    convs = []
    parents = []
    for w, b, stride in layers:
        if w.value.ndim != 3 or w.value.shape[1] != c or t < w.value.shape[0]:
            raise ShapeMismatch("conv1d", xv.shape[:-2] + (t, c), w.value.shape)
        if b.value.shape != w.value.shape[2:]:
            raise ShapeMismatch("conv1d", b.value.shape, w.value.shape)
        convs.append(_ConvLayer(w.value, b.value, stride, t))
        parents += [w, b]
        t, c = convs[-1].t_out, convs[-1].c_out
    last = convs[-1]
    largest = max(8 * (lay.k * lay.c_in + lay.c_out) * lay.t_out for lay in convs)
    per_block = max(1, CONV_BLOCK_BYTES // largest)
    blocks = [slice(i, i + per_block) for i in range(0, len(signals), per_block)]
    chunks = [blocks[i : i + CONV_CHUNK] for i in range(0, len(blocks), CONV_CHUNK)]

    out = np.empty((len(signals), c))
    # relu mask of the last layer, whose output is averaged away, one row of
    # bits per signal: backward reads it instead of recomputing that GEMM.
    # Only a node that backward will reach needs it
    differentiable = recording() and any(p.needs_grad for p in parents)
    bits = np.empty((len(signals), -(-t * c // 8)), np.uint8) if differentiable else None

    def forward_chunk(chunk):
        for sl in chunk:
            a = signals[sl]
            n = len(a)
            for lay in convs:
                a = lay.apply(lay.im2col(a), n)
            if differentiable:
                bits[sl] = np.packbits(a.reshape(n, -1) > 0.0, axis=-1)
            # the bits of a.mean(axis=1) where c > 1, in about half its time
            out[sl] = np.einsum("ntc->nc", a) / t

    for _ in _map_chunks(forward_chunk, chunks):
        pass

    def recompute(a):
        """Every layer's im2col rows of block a, and where the output of each
        layer but the last is positive."""
        n = len(a)
        cols, positive = [], []
        for lay in convs[:-1]:
            cols.append(lay.im2col(a))
            a = lay.apply(cols[-1], n)
            positive.append(a > 0.0)
        return cols + [last.im2col(a)], positive

    def bwd(g):
        g = g.reshape(out.shape)

        # one block per call, so its temporaries are freed before the next
        def add_block_grads(sl, gws):
            block = signals[sl]
            n = len(block)
            cols, positive = recompute(block)
            # the unpacked 0/1 bytes as bools: a float times a bool casts faster
            mask = np.unpackbits(bits[sl], axis=-1, count=t * c).reshape(n, t, c).view(bool)
            gz = ((g[sl] / t)[:, None, :] * mask).reshape(-1, c)
            for i in range(len(convs) - 1, -1, -1):
                # the ones column makes the last row the bias gradient
                gws[i] += cols[i].T @ gz
                if i > 0:
                    ga = convs[i].input_grad(gz, n)
                    # not in place: ga is a strided view, and reshaping it
                    # after an in-place product would copy it again
                    ga = ga * positive[i - 1].reshape(ga.shape)
                    gz = ga.reshape(-1, convs[i - 1].c_out)

        def chunk_grads(chunk):
            gws = [np.zeros_like(lay.w_flat) for lay in convs]
            for sl in chunk:
                add_block_grads(sl, gws)
            return gws

        parts = _map_chunks(chunk_grads, chunks)
        gws = next(parts)
        for chunk_gws in parts:
            for total, part in zip(gws, chunk_gws):
                total += part
        grads = []
        for lay, gw in zip(convs, gws):
            grads += [gw[:-1].reshape(lay.k, lay.c_in, lay.c_out), gw[-1]]
        return tuple(grads)

    def kink():
        # each layer's pre-activation, from the rows backward would rebuild
        return min(
            float(np.abs(rows @ lay.w_flat).min())
            for sl in blocks
            for lay, rows in zip(convs, recompute(signals[sl])[0])
        )

    return Node(out.reshape(xv.shape[:-2] + (c,)), "conv1d", tuple(parents), bwd, kink=kink)


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
