"""Dense float64 tensors with tape-based reverse-mode differentiation.

The distinguishing requirement here is double backpropagation: we need
the gradient of a quantity that is itself built from gradients.  To get
that from one mechanism, every backward rule is written as a composition
of the forward ops, so a backward pass run in create-graph mode appends
ordinary nodes to the tape and the gradients it returns can be
differentiated again, to any order.

Conventions:
  * everything is float64 (second-order finite-difference checks need
    the headroom; sizes are desk-scale);
  * a tensor either carries a (graph, node_id) pair or is a detached
    constant that never receives gradient;
  * node inputs always reference earlier node ids, so iterating ids in
    reverse is a valid topological order, and a create-graph backward
    pass over nodes [0..k] only appends nodes with ids > k;
  * relu/max-with-scalar use subgradient 0 at the kink (the masks are
    piecewise constant, hence detached);
  * a graph lives for one analysis call and is then discarded.  Nodes
    keep their inputs' data arrays and node ids, never the input
    tensors, so nothing in a graph refers back to it: a graph is freed by
    reference counting as soon as the caller drops the last tensor on
    it, without waiting for the cyclic garbage collector.

Batch axis: matmul, transpose, im2col/col2im and conv2d work on a
leading batch axis, one independent matrix or image per row, and tsum
reduces per row when given axes.  With parameters tiled into leaves with
a leading batch axis, row i of every tensor depends only on sample i, so
one backward pass of a sum over rows returns each sample's gradient in
its own row.

A backward pass does only the work its wrt list needs.  One forward
sweep over the ids from the lowest wrt node to the output marks the
nodes that depend on a wrt tensor; the reverse loop visits only those,
stops at the lowest wrt id, and asks each rule for cotangents of its
needed inputs only (so a pass to X never computes parameter cotangents,
and a pass to the parameters never scatters back into X).  Inputs are
still handed to the rules attached, so create-graph results stay
differentiable in every leaf.  A node's cotangent is dropped as soon as
its rule has run; only the wrt tensors' cotangents live to the end.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import GraphError, ShapeError

Array = np.ndarray

# --------------------------------------------------------------------------
# tape structures
# --------------------------------------------------------------------------


class Node:
    """One recorded operation: kind, inputs and a backward rule.

    Each input is kept as its node id (None for a detached constant) and
    its data array.  backward() rebuilds the input tensors and calls
    rule(grad, need, *inputs), where need[i] says whether input i needs
    a cotangent; the rule returns one cotangent per input, None where
    need[i] is false.  backward() calls a rule only when some input
    needs a cotangent, so single-input rules ignore need.  Rules call
    the public op functions below, which is what makes backward
    re-differentiable.
    """

    __slots__ = ("op", "input_ids", "input_data", "rule")

    def __init__(self, op: str, input_ids: tuple, input_data: tuple, rule):
        self.op = op
        self.input_ids = input_ids
        self.input_data = input_data
        self.rule = rule


class Graph:
    """Append-only tape of operation records."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._recording = True

    def leaf(self, data) -> "Tensor":
        """Register data as a differentiable input of this graph."""
        t = Tensor(data, graph=self, node_id=len(self.nodes))
        self.nodes.append(Node("leaf", (), (), None))
        return t

    @contextmanager
    def paused(self):
        """Temporarily stop recording (used for create_graph=False passes)."""
        prev = self._recording
        self._recording = False
        try:
            yield
        finally:
            self._recording = prev


class Tensor:
    """A float64 array, optionally attached to a graph node.

    Detached tensors (graph is None) act as constants: ops on them are
    computed eagerly and they never accumulate gradient.
    """

    __slots__ = ("data", "graph", "node_id")

    def __init__(self, data, graph: Graph | None = None, node_id: int | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.graph = graph
        self.node_id = node_id

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = "" if self.graph is None else f", node={self.node_id}"
        return f"Tensor(shape={self.shape}{tag})"


# --------------------------------------------------------------------------
# op recording helpers
# --------------------------------------------------------------------------


def _tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _graph_of(inputs: tuple[Tensor, ...]) -> Graph | None:
    g = None
    for t in inputs:
        if t.graph is None:
            continue
        if g is None:
            g = t.graph
        elif g is not t.graph:
            raise GraphError("operands belong to different graphs")
    return g


def _record(op: str, out_data: Array, inputs: tuple[Tensor, ...], rule) -> Tensor:
    g = _graph_of(inputs)
    if g is None or not g._recording:
        return Tensor(out_data)
    ids = tuple(t.node_id if t.graph is not None else None for t in inputs)
    t = Tensor(out_data, graph=g, node_id=len(g.nodes))
    g.nodes.append(Node(op, ids, tuple(x.data for x in inputs), rule))
    return t


def _coerce_pair(op: str, a, b) -> tuple[Tensor, Tensor]:
    """Validate an elementwise pair; only detached size-1 operands may broadcast."""
    a, b = _tensor(a), _tensor(b)
    if a.shape != b.shape:
        a_scalar = a.size == 1 and a.graph is None
        b_scalar = b.size == 1 and b.graph is None
        if not (a_scalar or b_scalar):
            raise ShapeError(
                f"{op}: shapes {a.shape} and {b.shape} do not match"
                " (attach an explicit broadcast() if intended)"
            )
    return a, b


# --------------------------------------------------------------------------
# elementwise ops
# --------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce_pair("add", a, b)

    def rule(grad: Tensor, need, a: Tensor, b: Tensor):
        return (grad if need[0] else None, grad if need[1] else None)

    return _record("add", a.data + b.data, (a, b), rule)


def sub(a, b) -> Tensor:
    a, b = _coerce_pair("sub", a, b)

    def rule(grad: Tensor, need, a: Tensor, b: Tensor):
        return (grad if need[0] else None, mul(grad, -1.0) if need[1] else None)

    return _record("sub", a.data - b.data, (a, b), rule)


def mul(a, b) -> Tensor:
    a, b = _coerce_pair("mul", a, b)

    def rule(grad: Tensor, need, a: Tensor, b: Tensor):
        return (mul(grad, b) if need[0] else None, mul(grad, a) if need[1] else None)

    return _record("mul", a.data * b.data, (a, b), rule)


def div(a, b) -> Tensor:
    a, b = _coerce_pair("div", a, b)

    def rule(grad: Tensor, need, a: Tensor, b: Tensor):
        ga = div(grad, b) if need[0] else None
        gb = mul(div(mul(grad, a), square(b)), -1.0) if need[1] else None
        return (ga, gb)

    return _record("div", a.data / b.data, (a, b), rule)


def square(a) -> Tensor:
    a = _tensor(a)

    def rule(grad: Tensor, need, a: Tensor):
        return (mul(grad, mul(a, 2.0)),)

    return _record("square", a.data * a.data, (a,), rule)


def sqrt(a) -> Tensor:
    a = _tensor(a)

    def rule(grad: Tensor, need, a: Tensor):
        return (div(grad, mul(sqrt(a), 2.0)),)

    return _record("sqrt", np.sqrt(a.data), (a,), rule)


def relu(a) -> Tensor:
    a = _tensor(a)

    def rule(grad: Tensor, need, a: Tensor):
        # mask is piecewise constant: detached, subgradient 0 at the kink
        return (mul(grad, Tensor(a.data > 0.0)),)

    return _record("relu", np.maximum(a.data, 0.0), (a,), rule)


def max_scalar(a, c: float) -> Tensor:
    """Elementwise max(a, c) for a scalar threshold c."""
    a = _tensor(a)
    c = float(c)

    def rule(grad: Tensor, need, a: Tensor):
        # at a == c the constant branch wins (derivative 0)
        return (mul(grad, Tensor(a.data > c)),)

    return _record("max-with-scalar", np.maximum(a.data, c), (a,), rule)


def tanh(a) -> Tensor:
    a = _tensor(a)

    def rule(grad: Tensor, need, a: Tensor):
        return (mul(grad, sub(1.0, square(tanh(a)))),)

    return _record("tanh", np.tanh(a.data), (a,), rule)


def softplus(a) -> Tensor:
    a = _tensor(a)
    out = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))

    def rule(grad: Tensor, need, a: Tensor):
        # sigmoid(a) written with in-set ops: (1 + tanh(a/2)) / 2
        sig = mul(add(tanh(mul(a, 0.5)), 1.0), 0.5)
        return (mul(grad, sig),)

    return _record("softplus", out, (a,), rule)


# --------------------------------------------------------------------------
# reductions, shape ops
# --------------------------------------------------------------------------


def _normalize_axes(axes, ndim: int) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    return tuple(sorted(ax % ndim for ax in axes))


def tsum(a, axes=None, keepdims: bool = False) -> Tensor:
    """Sum over the given axes (all axes by default)."""
    a = _tensor(a)
    ax = _normalize_axes(axes, a.data.ndim)
    out = a.data.sum(axis=ax if ax else None, keepdims=keepdims)
    kept = tuple(1 if i in ax else s for i, s in enumerate(a.shape))

    def rule(grad: Tensor, need, a: Tensor):
        return (broadcast(reshape(grad, kept), a.shape),)

    return _record("sum", out, (a,), rule)


def tmean(a) -> Tensor:
    """Mean over all entries."""
    a = _tensor(a)
    n = a.size

    def rule(grad: Tensor, need, a: Tensor):
        return (broadcast(mul(grad, 1.0 / n), a.shape),)

    return _record("mean", np.asarray(a.data.mean()), (a,), rule)


def broadcast(a, shape: tuple) -> Tensor:
    shape = tuple(int(s) for s in shape)
    a = _tensor(a)
    try:
        if np.broadcast_shapes(a.shape, shape) != shape:
            raise ValueError
    except ValueError:
        raise ShapeError(f"broadcast: cannot expand {a.shape} to {shape}") from None
    pad = (1,) * (len(shape) - a.data.ndim) + a.shape
    expanded = tuple(i for i, (sa, so) in enumerate(zip(pad, shape)) if sa == 1 and so != 1)

    def rule(grad: Tensor, need, a: Tensor):
        return (reshape(tsum(grad, axes=expanded, keepdims=True) if expanded else grad, a.shape),)

    return _record("broadcast", np.broadcast_to(a.data, shape).copy(), (a,), rule)


def reshape(a, shape) -> Tensor:
    a = _tensor(a)
    shape = tuple(int(s) for s in shape) if not isinstance(shape, int) else (shape,)
    if math.prod(shape) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")

    def rule(grad: Tensor, need, a: Tensor):
        return (reshape(grad, a.shape),)

    return _record("reshape", a.data.reshape(shape), (a,), rule)


def transpose(a) -> Tensor:
    """Swap the last two axes (a matrix, or a batch of matrices)."""
    a = _tensor(a)
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: expected at least 2 axes, got shape {a.shape}")

    def rule(grad: Tensor, need, a: Tensor):
        return (transpose(grad),)

    return _record("transpose", np.swapaxes(a.data, -1, -2), (a,), rule)


def tslice(a, index) -> Tensor:
    """Slice/int indexing, or integer-array indexing that picks each entry
    at most once; the adjoint is embed()."""
    a = _tensor(a)
    if not isinstance(index, tuple):
        index = (index,)

    def rule(grad: Tensor, need, a: Tensor):
        return (embed(grad, a.shape, index),)

    return _record("slice", np.array(a.data[index]), (a,), rule)


def concat(parts, axis: int = -1) -> Tensor:
    """Join tensors along one axis; the adjoint slices the cotangent apart."""
    parts = tuple(_tensor(p) for p in parts)
    if not parts:
        raise ShapeError("concat: nothing to join")
    ndim = parts[0].data.ndim
    axis %= ndim
    bounds = np.cumsum([0] + [p.shape[axis] for p in parts]).tolist()
    lead = (slice(None),) * axis

    def rule(grad: Tensor, need, *parts: Tensor):
        return tuple(
            tslice(grad, lead + (slice(lo, hi),)) if n else None
            for n, lo, hi in zip(need, bounds[:-1], bounds[1:])
        )

    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise ShapeError(f"concat: shapes {[p.shape for p in parts]} do not join") from None
    return _record("concat", out, parts, rule)


def embed(a, shape: tuple, index) -> Tensor:
    """Place a into a zero tensor of the given shape at the given index."""
    a = _tensor(a)
    if not isinstance(index, tuple):
        index = (index,)
    out = np.zeros(shape)
    out[index] = a.data

    def rule(grad: Tensor, need, a: Tensor):
        return (tslice(grad, index),)

    return _record("embed", out, (a,), rule)


# --------------------------------------------------------------------------
# convolution (im2col/col2im primitive pair; conv2d is their composition)
# --------------------------------------------------------------------------

_CONV_INDEX_CACHE: dict[tuple, tuple[Array, tuple]] = {}


def _conv_geometry(c: int, h: int, w: int, k: int, pad: int):
    """Gather indices into the zero-padded image for k x k patches."""
    key = (c, h, w, k, pad)
    hit = _CONV_INDEX_CACHE.get(key)
    if hit is not None:
        return hit
    hp, wp = h + 2 * pad, w + 2 * pad
    oh, ow = hp - k + 1, wp - k + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"im2col: kernel {k} too large for image {h}x{w} with pad {pad}")
    offs = (
        np.arange(c)[:, None, None] * (hp * wp)
        + np.arange(k)[None, :, None] * wp
        + np.arange(k)[None, None, :]
    ).reshape(-1)
    ii, jj = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
    pos = (ii * wp + jj).reshape(-1)
    idx = offs[:, None] + pos[None, :]
    result = (idx, (hp, wp, oh, ow))
    _CONV_INDEX_CACHE[key] = result
    return result


def im2col(a, kernel: int, pad: int = 0) -> Tensor:
    """(B,C,H,W) images -> (B, C*k*k, out_h*out_w) patch matrices."""
    a = _tensor(a)
    if a.data.ndim != 4:
        raise ShapeError(f"im2col: expected (B,C,H,W) input, got shape {a.shape}")
    shape = a.shape
    b, c, h, w = shape
    idx, _ = _conv_geometry(c, h, w, kernel, pad)
    padded = np.pad(a.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else a.data
    # take() along an axis returns a C-contiguous result; fancy indexing of
    # a 2-d array with [:, idx] returns a strided one that slows the gemm after it
    out = np.take(padded.reshape(b, -1), idx, axis=1)

    def rule(grad: Tensor, need, a: Tensor):
        return (col2im(grad, shape, kernel, pad),)

    return _record("im2col", out, (a,), rule)


def col2im(a, image_shape: tuple, kernel: int, pad: int = 0) -> Tensor:
    """Exact adjoint of im2col: scatter-add patches back into (B,C,H,W) images."""
    a = _tensor(a)
    b, c, h, w = image_shape
    _, (hp, wp, oh, ow) = _conv_geometry(c, h, w, kernel, pad)
    if a.shape != (b, c * kernel * kernel, oh * ow):
        raise ShapeError(
            f"col2im: expected shape {(b, c * kernel * kernel, oh * ow)}, got {a.shape}"
        )
    # one strided add per kernel offset, in the (ki, kj) order im2col
    # lays patches out in, so every pixel sums its patches in that order
    patches = a.data.reshape(b, c, kernel, kernel, oh, ow)
    img = np.zeros((b, c, hp, wp))
    for ki in range(kernel):
        for kj in range(kernel):
            img[:, :, ki : ki + oh, kj : kj + ow] += patches[:, :, ki, kj]
    if pad:
        img = img[:, :, pad : pad + h, pad : pad + w].copy()

    def rule(grad: Tensor, need, a: Tensor):
        return (im2col(grad, kernel, pad),)

    return _record("col2im", img, (a,), rule)


def conv2d(x, kernel, pad: int = 0) -> Tensor:
    """Valid cross-correlation of (B,C,H,W) images with per-row (B,O,C,k,k) kernels.

    Realized as reshape(matmul(kernel-matrices, im2col(x))), so both
    backward and double backward come for free from the primitive rules.
    """
    x, kernel = _tensor(x), _tensor(kernel)
    if kernel.data.ndim != 5 or kernel.shape[3] != kernel.shape[4]:
        raise ShapeError(f"conv2d: expected (B,O,C,k,k) kernels, got shape {kernel.shape}")
    if x.data.ndim != 4 or x.shape[:2] != (kernel.shape[0], kernel.shape[2]):
        raise ShapeError(
            f"conv2d: input shape {x.shape} incompatible with kernel shape {kernel.shape}"
        )
    b, o, c, k = kernel.shape[:4]
    _, (_, _, oh, ow) = _conv_geometry(c, x.shape[2], x.shape[3], k, pad)
    col = im2col(x, k, pad)
    km = reshape(kernel, (b, o, c * k * k))
    return reshape(matmul(km, col), (b, o, oh, ow))


def matmul(a, b) -> Tensor:
    """Matrix product, or one product per row of equal leading batch axes."""
    a, b = _tensor(a), _tensor(b)
    if (
        a.data.ndim < 2
        or a.data.ndim != b.data.ndim
        or a.shape[:-2] != b.shape[:-2]
        or a.shape[-1] != b.shape[-2]
    ):
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not compose")

    def rule(grad: Tensor, need, a: Tensor, b: Tensor):
        ga = matmul(grad, transpose(b)) if need[0] else None
        gb = matmul(transpose(a), grad) if need[1] else None
        return (ga, gb)

    if a.shape[-1] == 1:
        # an outer product, where numpy's stacked matmul leaves BLAS for a
        # slow loop; + 0.0 gives zero entries BLAS's sign (-0.0 -> +0.0)
        out = a.data * b.data
        out += 0.0
    else:
        out = np.matmul(a.data, b.data)
    return _record("matmul", out, (a, b), rule)


# --------------------------------------------------------------------------
# reverse pass
# --------------------------------------------------------------------------


def backward(
    output: Tensor,
    wrt: Sequence[Tensor],
    create_graph: bool = False,
    seed: Tensor | None = None,
) -> list[Tensor]:
    """Gradients of output with respect to each tensor in wrt.

    With create_graph=True the returned gradients are graph nodes and can
    be differentiated again; with False, recording is paused and plain
    constants come back (same values either way).  Non-scalar outputs
    need an explicit seed cotangent.

    The pass visits only nodes between the lowest wrt id and the output
    that depend on a wrt tensor, and computes cotangents only for those
    nodes.  Each is freed once its rule has run, except the wrt tensors'
    own, which are returned.  A wrt tensor may be any node, the output
    included; one the output does not depend on gets zeros.  Values are
    bit-identical to a pass over every node: pruned contributions never
    reach a needed node, and the rest accumulate in the same order.
    """
    graph = output.graph
    if graph is None:
        raise GraphError("backward: output is not attached to a graph")
    for t in wrt:
        if t.graph is not graph:
            raise GraphError("backward: wrt tensor is not on the output's graph")
    if seed is None:
        if output.size != 1:
            raise GraphError(
                f"backward: output has shape {output.shape}; supply a seed cotangent"
            )
        seed = Tensor(np.ones_like(output.data))
    elif seed.data.shape != output.data.shape:
        raise ShapeError(f"backward: seed shape {seed.shape} != output shape {output.shape}")

    nodes = graph.nodes
    start = output.node_id
    keep = {t.node_id for t in wrt}
    low = min(keep, default=start + 1)
    # needed[i]: node i depends on a wrt tensor.  Inputs have lower ids
    # than their node, so one ascending sweep from the lowest wrt id
    # settles every node the pass can reach.
    needed = bytearray(start + 1)
    for nid in keep:
        if nid <= start:
            needed[nid] = 1
    for nid in range(low + 1, start + 1):
        if not needed[nid]:
            for iid in nodes[nid].input_ids:
                if iid is not None and needed[iid]:
                    needed[nid] = 1
                    break

    slots: dict[int, Tensor] = {start: seed}

    def run():
        for nid in range(start, low - 1, -1):
            if not needed[nid]:
                continue
            # a cotangent is dropped once propagated; wrt tensors keep theirs
            grad = slots.get(nid) if nid in keep else slots.pop(nid, None)
            if grad is None:
                continue
            node = nodes[nid]
            need = tuple(iid is not None and needed[iid] == 1 for iid in node.input_ids)
            if not any(need):  # a leaf, or a wrt node whose inputs reach no wrt tensor
                continue
            inputs = [
                Tensor(data) if iid is None else Tensor(data, graph, iid)
                for iid, data in zip(node.input_ids, node.input_data)
            ]
            for iid, g in zip(node.input_ids, node.rule(grad, need, *inputs)):
                if g is None:
                    continue
                cur = slots.get(iid)
                slots[iid] = g if cur is None else add(cur, g)

    if create_graph:
        run()
    else:
        with graph.paused():
            run()

    out = []
    for t in wrt:
        g = slots.get(t.node_id)
        out.append(Tensor(np.zeros_like(t.data)) if g is None else g)
    return out


def finite_diff_check(f: Callable[[Tensor], Tensor], x, h: float = 1e-5) -> float:
    """Max relative error between the analytic gradient of f and central differences.

    Relative error per coordinate is |analytic - central| / (|central| + 1e-12).
    """
    x = np.asarray(x, dtype=np.float64)
    graph = Graph()
    leaf = graph.leaf(x)
    out = f(leaf)
    if out.size != 1:
        raise GraphError("finite_diff_check: f must return a scalar")
    if out.graph is None:
        analytic = np.zeros_like(x)
    else:
        analytic = backward(out, [leaf])[0].data
    numeric = np.zeros_like(x)
    flat = x.reshape(-1)
    num_flat = numeric.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        hi = float(f(Tensor(x)).data.reshape(()))
        flat[j] = orig - h
        lo = float(f(Tensor(x)).data.reshape(()))
        flat[j] = orig
        num_flat[j] = (hi - lo) / (2.0 * h)
    rel = np.abs(analytic - numeric) / (np.abs(numeric) + 1e-12)
    return float(rel.max()) if rel.size else 0.0
