"""Dense row-major tensors with reverse-mode automatic differentiation.

The primitive set is exactly what a small encoder-decoder transformer
needs: matmul, broadcasting elementwise ops, softmax / log-softmax,
layer normalization, embedding lookup, inverted dropout, reductions and
row gather/scatter between token rows and a padded grid, and a row copy
inside a grid. Two fused ops cover the transformer's hot paths, each one
tape node with a hand-written backward: ``linear`` (an affine map over
stacked rows in one GEMM) and ``attention`` (scaled, masked, softmaxed
and dropped-out scores applied to values, over hidden-width rows that
the op splits into heads and merges back).
Ops recorded while a Graph is active build a tape in forward order. A
node keeps three things: its op's backward function, which holds exactly
the arrays that backward reads; a weak reference to its output; and its
inputs, each the id of another node of the tape or a leaf (a parameter,
an input or a tensor of another graph). The tape therefore keeps no
output alive, and no tensor and tape point at each other. ``backward`` walks
the tape in exact reverse, dropping each node once it has run, and sums
the gradients of the nodes in a slot per node. It sets ``grad`` on the
leaves and on the outputs the caller still holds. Outside a recording
context the same ops run as plain numpy.
"""

from __future__ import annotations

import math
import weakref
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "GraphError",
    "ShapeError",
    "Graph",
    "Tensor",
    "record",
    "backward",
    "matmul",
    "linear",
    "attention",
    "add",
    "sub",
    "mul",
    "add_const",
    "mul_const",
    "reshape",
    "transpose",
    "relu",
    "softmax",
    "log_softmax",
    "layer_norm",
    "embedding",
    "dropout",
    "reduce_sum",
    "gather_last",
    "take_rows",
    "scatter_rows",
    "copy_rows",
    "finite_diff_check",
]


class ShapeError(ValueError):
    """Operand shapes do not conform for an op."""

    def __init__(self, op: str, detail: str):
        super().__init__(f"{op}: {detail}")
        self.op = op


class GraphError(RuntimeError):
    """Computation-graph misuse: double backward, detached loss, nested tapes."""


class _Node:
    """One op on the tape.

    ``out`` is a weak reference to the op's output, so the tape never keeps
    it alive. Each entry of ``parents`` is the node id of an input recorded
    on the same graph, or the input ``Tensor`` itself for a leaf.
    """

    __slots__ = ("out", "parents", "backward_fn")

    def __init__(self, out: "weakref.ref[Tensor]", parents: tuple, backward_fn: Callable):
        self.out = out
        self.parents = parents
        self.backward_fn = backward_fn


class Graph:
    """Tape of op records in forward (hence topological) order.

    Construction order makes the node list acyclic by design; backward
    consumes the graph, so a second backward without a fresh forward
    pass is rejected.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False


_active: Graph | None = None


@contextmanager
def record(graph: Graph) -> Iterator[Graph]:
    """Record all ops executed in this context onto ``graph``."""
    global _active
    if _active is not None:
        raise GraphError("nested recording contexts are not supported")
    if graph.consumed:
        raise GraphError("graph already consumed by backward(); build a new one")
    _active = graph
    try:
        yield graph
    finally:
        _active = None


class Tensor:
    """Dense tensor; ``grad`` is populated by backward()."""

    __slots__ = ("data", "grad", "graph", "node_id", "__weakref__")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.graph: Graph | None = None
        self.node_id: int | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


def _emit(data: np.ndarray, parents: tuple, backward_fn: Callable) -> Tensor:
    out = Tensor(data)
    graph = _active
    if graph is not None:
        out.graph = graph
        out.node_id = len(graph.nodes)
        ids = tuple(p.node_id if p.graph is graph else p for p in parents)
        graph.nodes.append(_Node(weakref.ref(out), ids, backward_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) onto every leaf and every held tensor t
    reachable from ``loss``.

    The walk consumes the tape: it pops the nodes in reverse order and drops
    each one once its backward function has run. A node's gradient is the
    sum, in the order the walk reaches them, of what its consumers pass it,
    kept in the node's slot. When the node is popped, its slot becomes the
    output's ``grad`` if the caller still holds the output, and is dropped.
    Reference counting then frees the node's saved arrays. Leaves keep
    their gradients, summed onto any ``grad`` they already have.
    """
    if loss.data.shape != ():
        raise GraphError(f"backward() needs a scalar loss, got shape {loss.data.shape}")
    graph = loss.graph
    if graph is None:
        raise GraphError("loss is detached from any computation graph")
    if graph.consumed:
        raise GraphError("backward() already ran on this graph; run a new forward pass")
    graph.consumed = True
    nodes, graph.nodes = graph.nodes, []
    slots: list[np.ndarray | None] = [None] * len(nodes)
    slots[loss.node_id] = np.ones((), dtype=loss.data.dtype)
    while nodes:
        node = nodes.pop()
        node_id = len(nodes)
        out_grad, slots[node_id] = slots[node_id], None
        if out_grad is not None:
            out = node.out()
            if out is not None:
                out.grad = out_grad
            for parent, pgrad in zip(node.parents, node.backward_fn(out_grad)):
                if pgrad is None:
                    continue
                if type(parent) is int:
                    held = slots[parent]
                    slots[parent] = pgrad if held is None else held + pgrad
                elif parent.grad is None:
                    parent.grad = pgrad
                else:
                    parent.grad = parent.grad + pgrad
        # no local may keep this node's arrays alive while the next one runs
        node = out = out_grad = pgrad = held = None


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul", f"operands must have ndim >= 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError("matmul", f"inner dimensions differ: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data
    a_shape, b_shape = a.shape, b.shape

    if b.ndim == 2 and a.ndim > 2:
        # flatten the stacked left operand into one big GEMM; numpy would
        # otherwise loop a tiny GEMM per batch row
        k, n = b_shape
        a2 = np.ascontiguousarray(a_data).reshape(-1, k)

        def bw2(g):
            g2 = np.ascontiguousarray(g).reshape(-1, n)
            ga = (g2 @ b_data.T).reshape(a_shape)
            gb = a2.T @ g2
            return ga, gb

        return _emit((a2 @ b_data).reshape(*a_shape[:-1], n), (a, b), bw2)

    def bw(g):
        ga = _unbroadcast(g @ np.swapaxes(b_data, -1, -2), a_shape)
        gb = _unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b_shape)
        return ga, gb

    return _emit(a_data @ b_data, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` over the last axis of ``x``; stacked leading axes are
    flattened into one GEMM."""
    if w.ndim != 2 or x.shape[-1:] != w.shape[:1] or b.shape != w.shape[1:]:
        raise ShapeError("linear", f"cannot apply {w.shape} weight and {b.shape} bias "
                                   f"to {x.shape}")
    k, n = w.shape
    x_shape, w_data = x.shape, w.data
    x2 = np.ascontiguousarray(x.data).reshape(-1, k)
    y = x2 @ w_data
    y += b.data

    def bw(g):
        g2 = np.ascontiguousarray(g).reshape(-1, n)
        return (g2 @ w_data.T).reshape(x_shape), x2.T @ g2, g2.sum(axis=0)

    return _emit(y.reshape(*x_shape[:-1], n), (x, w, b), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, mask_add, p: float,
              rng: np.random.Generator | None) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention with an additive mask and dropout.

    ``k`` and ``v`` are (groups, keys, hidden). The rows of ``q`` (...,
    hidden) split evenly over the groups, in order, and each row attends to
    its group's keys. Each of the ``heads`` heads attends with its own
    ``hidden // heads`` columns. ``mask_add`` is added to the scaled
    (groups, heads, queries, keys) scores (-inf removes a key; every query
    must keep one). Dropout at rate ``p`` draws from ``rng`` as ``dropout``
    does. Returns the output, shaped like ``q``, and the attention
    probabilities before dropout.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if (q.ndim < 1 or k.ndim != 3 or v.shape != k.shape or 0 in q.shape + k.shape
            or q.shape[-1] != k.shape[-1] or heads < 1 or k.shape[-1] % heads
            or q.data.size % (k.shape[0] * k.shape[-1])):
        raise ShapeError("attention", f"q {q.shape}, k {k.shape}, v {v.shape} do not conform "
                                      f"over {heads} heads")
    q_shape, k_shape = q.shape, k.shape
    groups, dh = k_shape[0], k_shape[-1] // heads
    # (groups, rows, hidden) viewed as (groups, heads, rows, dh), and back
    split = lambda a: a.reshape(groups, -1, heads, dh).transpose(0, 2, 1, 3)
    merge = lambda a, shape: a.transpose(0, 2, 1, 3).reshape(shape)
    q_data, k_data, v_data = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / math.sqrt(dh)
    # in place, but in the order and with the operands of the separate ops
    # (matmul, mul_const, add_const, softmax, dropout), so the bytes match
    probs = q_data @ np.swapaxes(k_data, -1, -2)
    probs *= scale
    try:
        np.add(probs, mask_add, out=probs)
    except ValueError:
        raise ShapeError("attention", f"mask {np.shape(mask_add)} does not broadcast to "
                                      f"scores {probs.shape}") from None
    probs -= np.max(probs, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.sum(probs, axis=-1, keepdims=True)
    keep = _keep_mask(probs.shape, p, rng) if p else None
    keep_scale = probs.dtype.type(1.0 / (1.0 - p))
    # made again by the backward, bit for bit, rather than kept for it
    dropped = lambda: probs if keep is None else probs * keep * keep_scale

    def bw(g):
        g = split(g)
        gv = np.swapaxes(dropped(), -1, -2) @ g
        gs = g @ np.swapaxes(v_data, -1, -2)
        if keep is not None:
            gs *= keep
            gs *= keep_scale
        gs -= np.sum(gs * probs, axis=-1, keepdims=True)
        gs *= probs
        gs *= scale
        gq = gs @ k_data
        gk = np.swapaxes(np.swapaxes(q_data, -1, -2) @ gs, -1, -2)
        return merge(gq, q_shape), merge(gk, k_shape), merge(gv, k_shape)

    return _emit(merge(dropped() @ v_data, q_shape), (q, k, v), bw), probs


def _broadcast(op: str, fn, a: Tensor, b: Tensor) -> np.ndarray:
    """``fn(a, b)`` on the data; numpy's broadcast failure becomes a ShapeError."""
    try:
        return fn(a.data, b.data)
    except ValueError:
        raise ShapeError(op, f"shapes do not broadcast: {a.shape} vs {b.shape}") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _emit(_broadcast("add", np.add, a, b), (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, a_shape), -_unbroadcast(g, b_shape)

    return _emit(_broadcast("sub", np.subtract, a, b), (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a_data, b_data = a.data, b.data
    a_shape, b_shape = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g * b_data, a_shape), _unbroadcast(g * a_data, b_shape)

    return _emit(_broadcast("mul", np.multiply, a, b), (a, b), bw)


def add_const(a: Tensor, c) -> Tensor:
    data = a.data + c
    if data.shape != a.shape:
        raise ShapeError("add_const", f"constant changes shape: {a.shape} -> {data.shape}")
    return _emit(data, (a,), lambda g: (g,))


def mul_const(a: Tensor, c) -> Tensor:
    data = a.data * c
    if data.shape != a.shape:
        raise ShapeError("mul_const", f"constant changes shape: {a.shape} -> {data.shape}")
    return _emit(data, (a,), lambda g: (g * c,))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    old = a.shape
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError("reshape", f"cannot reshape {old} to {tuple(shape)}") from None
    return _emit(data, (a,), lambda g: (g.reshape(old),))


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError("transpose", f"axes {axes} invalid for ndim {a.ndim}")
    return _emit(a.data.transpose(axes), (a,), lambda g: (g.transpose(np.argsort(axes)),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _emit(np.maximum(a.data, 0), (a,), lambda g: (g * mask,))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max subtraction).

    Entries of -inf are allowed as masks and get exactly zero weight;
    every slice along ``axis`` must keep at least one finite entry.
    """
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError("softmax", f"axis {axis} invalid for shape {a.shape}")
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    expd = np.exp(shifted)
    y = expd / np.sum(expd, axis=axis, keepdims=True)

    def bw(g):
        return ((g - np.sum(g * y, axis=axis, keepdims=True)) * y,)

    return _emit(y, (a,), bw)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError("log_softmax", f"axis {axis} invalid for shape {a.shape}")
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    y = shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))

    def bw(g):
        return (g - np.exp(y) * np.sum(g, axis=axis, keepdims=True),)

    return _emit(y, (a,), bw)


LN_EPS = 1e-5  # added to the variance before its square root


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, ``LN_EPS`` in the
    denominator, then scale by ``gain`` and shift by ``bias``."""
    dim = x.shape[-1]
    for name, t in (("gain", gain), ("bias", bias)):
        if t.shape != (dim,):
            raise ShapeError("layer_norm", f"{name} shape {t.shape} != ({dim},)")
    mean = np.mean(x.data, axis=-1, keepdims=True)
    centered = x.data - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv
    gain_data = gain.data

    def bw(g):
        ghat = g * gain_data
        dx = inv * (ghat - np.mean(ghat, axis=-1, keepdims=True)
                    - xhat * np.mean(ghat * xhat, axis=-1, keepdims=True))
        return dx, (g * xhat).reshape(-1, dim).sum(axis=0), g.reshape(-1, dim).sum(axis=0)

    return _emit(xhat * gain_data + bias.data, (x, gain, bias), bw)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise ShapeError("embedding", f"ids must be integers, got dtype {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError("embedding", f"id out of range for table of {table.shape[0]} rows")
    vocab, dim = table.shape
    flat = ids.reshape(-1)

    def bw(g):
        # each id's rows summed in order of occurrence, bitwise as np.add.at
        # but with one reduction per distinct id: a reduction over the outer
        # axis adds rows sequentially (a one-column table would sum pairwise)
        order = np.argsort(flat, kind="stable")
        sorted_ids = flat[order]
        rows = g.reshape(-1, dim)[order]
        cuts = (np.flatnonzero(np.diff(sorted_ids)) + 1).tolist()
        bounds = [0] + cuts + [flat.size] if flat.size else []
        gt = np.zeros((vocab, dim), dtype=g.dtype)
        for lo, hi in zip(bounds, bounds[1:]):
            gt[sorted_ids[lo]] = rows[lo:hi].sum(axis=0)
        return (gt,)

    return _emit(table.data[ids], (table,), bw)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: scales by 1/(1-p) at train time; identity, without a draw, when p == 0."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    # the boolean mask is saved, a quarter of a float32 one; multiplying by
    # it (1 or 0) is exact, so ``x * keep * scale`` has the bits of ``x * (keep * scale)``
    keep = _keep_mask(x.shape, p, rng)
    scale = x.dtype.type(1.0 / (1.0 - p))
    return _emit(x.data * keep * scale, (x,), lambda g: (g * keep * scale,))


def _keep_mask(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    """Dropout's boolean keep mask: one uint32 draw per entry (the halves of
    ``rng``'s raw 64-bit draws), kept when it is at least round(p * 2**32)."""
    n = math.prod(shape)
    bits = rng.bit_generator.random_raw((n + 1) // 2).view(np.uint32)[:n]
    return (bits >= round(p * 2 ** 32)).reshape(shape)


def reduce_sum(x: Tensor, axis=None) -> Tensor:
    x_shape = x.shape

    def bw(g):
        g_exp = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, x_shape).astype(g.dtype),)

    return _emit(np.sum(x.data, axis=axis), (x,), bw)


def gather_last(x: Tensor, idx: np.ndarray) -> Tensor:
    """Pick idx[...]-th entry along the last axis; idx shape == x.shape[:-1]."""
    idx = np.asarray(idx)
    if idx.shape != x.shape[:-1]:
        raise ShapeError("gather_last", f"idx shape {idx.shape} != {x.shape[:-1]}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[-1]):
        raise ShapeError("gather_last", f"index out of range for last axis {x.shape[-1]}")
    expanded = idx[..., None]
    x_shape = x.shape

    def bw(g):
        gx = np.zeros(x_shape, dtype=g.dtype)
        np.put_along_axis(gx, expanded, g[..., None], axis=-1)
        return (gx,)

    return _emit(np.take_along_axis(x.data, expanded, axis=-1)[..., 0], (x,), bw)


def _row_index(op: str, idx, n: int) -> np.ndarray:
    idx = np.asarray(idx)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ShapeError(op, f"idx must be a 1-D integer array, got {idx.dtype} {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(op, f"row index out of range for {n} rows")
    return idx


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Rows ``idx`` of ``x`` along its first axis. The indices must be distinct;
    rows not taken get exactly zero gradient."""
    n = x.shape[0]
    idx = _row_index("take_rows", idx, n)

    def bw(g):
        gx = np.zeros((n,) + g.shape[1:], dtype=g.dtype)
        gx[idx] = g
        return (gx,)

    return _emit(x.data[idx], (x,), bw)


def scatter_rows(x: Tensor, idx: np.ndarray, n: int) -> Tensor:
    """``n`` zero rows with row ``idx[i]`` set to ``x[i]``, the inverse of
    ``take_rows``. The indices must be distinct."""
    idx = _row_index("scatter_rows", idx, n)
    if len(idx) != x.shape[0]:
        raise ShapeError("scatter_rows", f"{len(idx)} indices for {x.shape[0]} rows")
    out = np.zeros((n,) + x.shape[1:], dtype=x.dtype)
    out[idx] = x.data
    return _emit(out, (x,), lambda g: (g[idx],))


def copy_rows(x: Tensor, dst: np.ndarray, src: np.ndarray) -> Tensor:
    """``x`` with row ``dst[i]`` replaced by row ``src[i]``. The ``dst`` rows
    must be distinct and none of them a ``src`` row; a ``src`` row may feed
    several ``dst`` rows. The gradient of each ``dst`` row is added into its
    ``src`` row, and the ``dst`` rows of ``x`` get exactly zero gradient."""
    n = x.shape[0]
    dst = _row_index("copy_rows", dst, n)
    src = _row_index("copy_rows", src, n)
    if len(dst) != len(src):
        raise ShapeError("copy_rows", f"{len(dst)} destination rows for {len(src)} sources")
    source = np.arange(n)
    source[dst] = src
    out = np.take(x.data, source, axis=0)

    def bw(g):
        gx = g.copy()
        gx[dst] = 0
        np.add.at(gx, src, g[dst])
        return (gx,)

    return _emit(out, (x,), bw)


# ---------------------------------------------------------------------------
# gradient oracle


def finite_diff_check(f: Callable[[Tensor], Tensor], point, h: float,
                      coords: Sequence[int] | None = None) -> float:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` must be deterministic and return a scalar. Returns the max over
    (selected) coordinates of |analytic - numeric| / max(1e-12, |analytic| +
    |numeric|). ``coords`` restricts the check to the given flat indices of
    ``point``; by default every coordinate is checked.
    """
    if h <= 0:
        raise ValueError(f"step size h must be positive, got {h}")
    base = np.array(point.data if isinstance(point, Tensor) else point, dtype=np.float64)

    x = Tensor(base.copy())
    with record(Graph()):
        y = f(x)
    backward(y)
    if x.grad is None:
        raise ValueError("f does not depend on the given point")
    analytic = x.grad.ravel()
    if not np.all(np.isfinite(analytic)) or not np.isfinite(y.item()):
        raise ValueError("non-finite values in f or its gradient")

    flat = base.ravel()
    indices = range(flat.size) if coords is None else coords
    max_err = 0.0
    for i in indices:
        saved = flat[i]
        flat[i] = saved + h
        fp = f(Tensor(base)).item()
        flat[i] = saved - h
        fm = f(Tensor(base)).item()
        flat[i] = saved
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite f value at coordinate {i}")
        numeric = (fp - fm) / (2.0 * h)
        a = analytic[i]
        err = abs(a - numeric) / max(1e-12, abs(a) + abs(numeric))
        max_err = max(max_err, err)
    return max_err
