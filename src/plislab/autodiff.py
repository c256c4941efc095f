"""Dense float64 tensors with tape-based reverse-mode differentiation,
and the numpy kernels of the model layers.

The tape carries what analyses build on a model's per-sample gradients:
in the library only the DP clip of expanded PLIS.  Its ops are elementwise
(add, sub, mul, div, square, sqrt, max_scalar), reductions (tsum, tmean)
and shape ops (broadcast, reshape, tslice, embed).  The model is one node:
models.attach_sample records the (B, p) per-sample gradient rows above the
input leaf, and that node's rule maps a (B, p) cotangent c to the rows
J_i^T c_i (J = d grad_theta / dx) by the tape-free forward-over-reverse
walk in models.  So a backward pass to the input seeded with a row
cotangent differentiates the gradients once more: no second-order mode.

Conventions:
  * everything is float64 (second-order finite-difference checks need
    the headroom; sizes are desk-scale);
  * a tensor either carries a (graph, node_id) pair or is a detached
    constant that never receives gradient;
  * node inputs always reference earlier node ids, so iterating ids in
    reverse is a valid topological order;
  * max-with-scalar and the relu kernels use subgradient 0 at the kink;
  * a graph lives for one analysis call and is then discarded.  Nodes
    keep their inputs' data arrays and node ids, never the input
    tensors, so nothing in a graph refers back to it: a graph is freed by
    reference counting as soon as the caller drops the last tensor on
    it, without waiting for the cyclic garbage collector.

Numpy kernels: each layer's value and each of its first-order adjoints
is one private numpy function (the _np suffix).  models calls them on
plain arrays: per_sample_loss_and_grad for the per-sample gradient rows,
and its tangent walk forward-mode, a batch of tangents through kernels
that are each linear in their tangent operand, for J times input
directions (the input Jacobian) and for J^T c (PLIS and the attack).
Patches are laid out by slicing alone: _im2col copies a strided
(B, C, k, k, oh, ow) view of the image for the forward product and the
kernel adjoint.  The input adjoint builds no patch matrix: it lays the
output cotangent out on the image grid, where each kernel offset is one
flat shift, and runs one GEMM and one contiguous add per offset.  No
index table holds either layout.

Batch axis: the kernels work on a leading batch axis, one independent
image, weight matrix, bias or logit row per sample, and tsum reduces per
row when given axes.  Row i of every tensor above the model node depends
only on sample i, so one backward pass seeded with a cotangent of the
output's shape returns each sample's gradient in its own row.

Rules are numpy: a node's rule maps its cotangent array and its input
arrays to one cotangent array per input, by the arithmetic the ops would
record for them, and calls no op, so a backward pass records nothing.
One reverse sweep visits the ids from the output down to the lowest wrt
id; a node's cotangent is dropped as soon as its rule has run, and only
the wrt tensors' cotangents live to the end, wrapped as tensors.
"""

from __future__ import annotations

import math
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
    its data array.  backward() calls rule(grad, *input_data) on arrays;
    the rule returns one cotangent array per input, and backward() drops
    those of detached inputs.  Leaves have no rule.
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

    def leaf(self, data) -> "Tensor":
        """Register data as a differentiable input of this graph."""
        t = Tensor(data, graph=self, node_id=len(self.nodes))
        self.nodes.append(Node("leaf", (), (), None))
        return t


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
    if g is None:
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

    def rule(grad: Array, a: Array, b: Array):
        return (grad, grad)

    return _record("add", a.data + b.data, (a, b), rule)


def sub(a, b) -> Tensor:
    a, b = _coerce_pair("sub", a, b)

    def rule(grad: Array, a: Array, b: Array):
        return (grad, grad * -1.0)

    return _record("sub", a.data - b.data, (a, b), rule)


def mul(a, b) -> Tensor:
    a, b = _coerce_pair("mul", a, b)

    def rule(grad: Array, a: Array, b: Array):
        return (grad * b, grad * a)

    return _record("mul", a.data * b.data, (a, b), rule)


def div(a, b) -> Tensor:
    a, b = _coerce_pair("div", a, b)

    def rule(grad: Array, a: Array, b: Array):
        return (grad / b, grad * a / (b * b) * -1.0)

    return _record("div", a.data / b.data, (a, b), rule)


def square(a) -> Tensor:
    a = _tensor(a)

    def rule(grad: Array, a: Array):
        return (grad * (a * 2.0),)

    return _record("square", a.data * a.data, (a,), rule)


def sqrt(a) -> Tensor:
    a = _tensor(a)

    def rule(grad: Array, a: Array):
        return (grad / (np.sqrt(a) * 2.0),)

    return _record("sqrt", np.sqrt(a.data), (a,), rule)


def max_scalar(a, c: float) -> Tensor:
    """Elementwise max(a, c) for a scalar threshold c."""
    a = _tensor(a)
    c = float(c)

    def rule(grad: Array, a: Array):
        # at a == c the constant branch wins (derivative 0)
        return (grad * (a > c),)

    return _record("max-with-scalar", np.maximum(a.data, c), (a,), rule)


# --------------------------------------------------------------------------
# reductions, shape ops
# --------------------------------------------------------------------------


def _normalize_axes(axes, ndim: int) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    return tuple(sorted(ax % ndim for ax in axes))


def _expand(a: Array, shape: tuple) -> Array:
    """A new array of the given shape holding a broadcast to it."""
    out = np.empty(shape)
    out[...] = a
    return out


def tsum(a, axes=None, keepdims: bool = False) -> Tensor:
    """Sum over the given axes (all axes by default)."""
    a = _tensor(a)
    ax = _normalize_axes(axes, a.data.ndim)
    out = a.data.sum(axis=ax if ax else None, keepdims=keepdims)
    kept = tuple(1 if i in ax else s for i, s in enumerate(a.shape))

    def rule(grad: Array, a: Array):
        return (_expand(grad.reshape(kept), a.shape),)

    return _record("sum", out, (a,), rule)


def tmean(a) -> Tensor:
    """Mean over all entries."""
    a = _tensor(a)
    n = a.size

    def rule(grad: Array, a: Array):
        return (_expand(grad * (1.0 / n), a.shape),)

    return _record("mean", np.asarray(a.data.mean()), (a,), rule)


def broadcast(a, shape: tuple) -> Tensor:
    shape = tuple(int(s) for s in shape)
    a = _tensor(a)
    pad = (1,) * (len(shape) - a.data.ndim) + a.shape
    if len(pad) != len(shape) or any(
        so < 0 or (sa != 1 and sa != so) for sa, so in zip(pad, shape)
    ):
        raise ShapeError(f"broadcast: cannot expand {a.shape} to {shape}")
    expanded = tuple(i for i, (sa, so) in enumerate(zip(pad, shape)) if sa == 1 and so != 1)

    def rule(grad: Array, a: Array):
        return ((grad.sum(axis=expanded, keepdims=True) if expanded else grad).reshape(a.shape),)

    return _record("broadcast", _expand(a.data, shape), (a,), rule)


def reshape(a, shape) -> Tensor:
    a = _tensor(a)
    shape = tuple(int(s) for s in shape) if not isinstance(shape, int) else (shape,)
    if math.prod(shape) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")

    def rule(grad: Array, a: Array):
        return (grad.reshape(a.shape),)

    return _record("reshape", a.data.reshape(shape), (a,), rule)


def tslice(a, index: tuple) -> Tensor:
    """Slice/int indexing, or integer-array indexing that picks each entry
    at most once, by a tuple index; the adjoint is embed()."""
    a = _tensor(a)

    def rule(grad: Array, a: Array):
        return (_embed(grad, a.shape, index),)

    return _record("slice", np.array(a.data[index]), (a,), rule)


def _embed(a: Array, shape: tuple, index: tuple) -> Array:
    out = np.zeros(shape)
    out[index] = a
    return out


def embed(a, shape: tuple, index: tuple) -> Tensor:
    """Place a into a zero tensor of the given shape at the given tuple index."""
    a = _tensor(a)

    def rule(grad: Array, a: Array):
        return (np.array(grad[index]),)

    return _record("embed", _embed(a.data, shape, index), (a,), rule)


# --------------------------------------------------------------------------
# numpy kernels of the model layers and losses (see the module docstring)
# --------------------------------------------------------------------------


def _im2col(images: Array, k: int) -> Array:
    """(B,C,H,W) images -> (B, C*k*k, out_h*out_w) valid-patch matrices.

    A strided (B, C, k, k, oh, ow) view of the image, the patch axes
    first; the reshape makes it one C-contiguous matrix (a copy unless
    k = 1), which the gemm after it needs: it runs several times slower
    on a strided one.
    """
    images = np.ascontiguousarray(images)
    b, c, h, w = images.shape
    oh, ow = h - k + 1, w - k + 1
    sb, sc, sh, sw = images.strides
    view = np.ndarray((b, c, k, k, oh, ow), images.dtype, images, 0, (sb, sc, sh, sw, sh, sw))
    return view.reshape(b, c * k * k, oh * ow)


def _bias_add_np(h: Array, b: Array) -> Array:
    return h + b.reshape(b.shape + (1,) * (h.ndim - 2))


def _bias_adjoint_np(g: Array) -> Array:
    """The (B, O) bias gradient of a (B, O, ...) cotangent: its sum past (B, O)."""
    return g.sum(axis=tuple(range(2, g.ndim))) if g.ndim > 2 else g


def _linear_np(w: Array, h: Array) -> Array:
    return np.matmul(w, h[..., None])[..., 0]


def _linear_input_adjoint_np(w: Array, g: Array) -> Array:
    return np.matmul(np.swapaxes(w, -1, -2), g[..., None])[..., 0]


def _linear_weight_adjoint_np(g: Array, h: Array) -> Array:
    # numpy's stacked matmul runs a slow loop for an inner dimension of 1;
    # + 0.0 gives zero entries the sign BLAS gives them (-0.0 -> +0.0)
    out = g[:, :, None] * h[:, None, :]
    out += 0.0
    return out


def _conv2d_np(kernel: Array, cols: Array, image_shape: tuple) -> Array:
    """(B,O,oh,ow) outputs of (B,O,C,k,k) kernels on the patch matrices of
    (B,C,H,W) images."""
    b, o, _, k = kernel.shape[:4]
    oh, ow = image_shape[2] - k + 1, image_shape[3] - k + 1
    return np.matmul(kernel.reshape(b, o, -1), cols).reshape(b, o, oh, ow)


def _conv2d_input_adjoint_np(g: Array, kernel: Array) -> Array:
    """Gradient of <g, conv> in the (B,C,oh+k-1,ow+k-1) images, from (B,O,oh,ow) g.

    g is laid out on the (H, W) image grid, zero past its (oh, ow) corner,
    so that kernel offset (ki, kj) moves every pixel by one flat shift
    ki*W + kj.  Per offset, one GEMM of the offset's (C, O) kernel slice
    with the laid-out g, then one contiguous add of the product, shifted,
    onto the image: each pixel sums its terms in (ki, kj) order, and the
    zero entries add only zeros.  At C = 1 one GEMM takes all k*k offsets
    as its rows: a product of one row would be a BLAS call (gemv, which
    sums in another order) per offset.  A kernel shared by the batch (batch
    stride 0, as the models tile it) sets the B grids side by side,
    channel-major, for one 2-D GEMM over all B*H*W columns.  Inside the
    CNN's training steps (chunks of 6, one BLAS thread, a 2-vCPU x86-64
    VM) such a call took 0.6 ms, against 0.8 ms for the batched GEMM; one
    input timed again and again reads the other way.  Per-row kernels take
    one batched GEMM.
    """
    b, o, c, k = kernel.shape[:4]
    oh, ow = g.shape[2:]
    h, w = oh + k - 1, ow + k - 1
    shared = kernel.strides[0] == 0
    lead = 1 if shared else b
    grid = np.zeros((o, b, h, w) if shared else (b, o, h, w))
    grid[..., :oh, :ow] = g.swapaxes(0, 1) if shared else g
    grid = grid.reshape(lead, o, -1)
    per = k * k if c == 1 else 1  # offsets per GEMM
    # (k*k/per, lead, O, per*C) kernel slices, taken into the GEMM transposed
    # as by the tests' patch-GEMM reference: a small untransposed product may
    # go to a BLAS kernel that sums an entry's O terms in another order
    slices = kernel[:lead].reshape(lead, o, c, k * k // per, per).transpose(3, 0, 1, 4, 2)
    slices = np.ascontiguousarray(slices).reshape(-1, lead, o, per * c).swapaxes(2, 3)
    n = grid.shape[2] - (k - 1) * (w + 1)
    columns = grid[:, :, :n]
    product = np.empty((lead, per * c, n))
    img = np.zeros((lead, c, grid.shape[2]))
    for i in range(k * k):
        if i % per == 0:
            np.matmul(slices[i // per], columns, out=product)
        j, s = i % per, (i // k) * w + i % k
        img[:, :, s : s + n] += product[:, j * c : (j + 1) * c]
    if shared:
        return np.ascontiguousarray(img.reshape(c, b, h, w).swapaxes(0, 1))
    return img.reshape(b, c, h, w)


def _conv2d_kernel_adjoint_np(g: Array, cols: Array) -> Array:
    """The (B, O, C*k*k) kernel gradient from (B,O,oh,ow) g and the patch matrices."""
    b, o = g.shape[:2]
    return np.matmul(g.reshape(b, o, -1), np.swapaxes(cols, -1, -2))


def _relu_np(a: Array) -> Array:
    return np.maximum(a, 0.0)


def _relu_slope_np(a: Array) -> Array:
    return a > 0.0


def _tanh_slope_np(t: Array) -> Array:
    """1 - tanh^2 from t = tanh(a)."""
    return 1.0 - t * t


def _softplus_np(a: Array) -> Array:
    return np.maximum(a, 0.0) + np.log1p(np.exp(-np.abs(a)))


def _softplus_slope_np(a: Array) -> Array:
    """sigmoid(a), written as (1 + tanh(a/2)) / 2."""
    return (np.tanh(a * 0.5) + 1.0) * 0.5


def _softmax_np(z: Array) -> Array:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_jvp_np(s: Array, v: Array) -> Array:
    """The softmax Jacobian at s = softmax(z), diag(s) - s s^T, applied to v."""
    return s * (v - (s * v).sum(axis=-1, keepdims=True))


def check_labels(labels, n: int, k: int) -> Array:
    """B integer labels, each in [0, k), for n rows of k logits."""
    labels = np.asarray(labels).reshape(-1).astype(np.int64)
    if labels.shape != (n,):
        raise ShapeError(f"cross_entropy: {labels.size} labels for {n} rows of logits")
    bad = labels[(labels < 0) | (labels >= k)]
    if bad.size:
        raise ShapeError(f"label {int(bad[0])} out of range for {k} logits")
    return labels


def _onehot(labels: Array, k: int) -> Array:
    onehot = np.zeros((labels.size, k))
    onehot[np.arange(labels.size), labels] = 1.0
    return onehot


def _cross_entropy_np(z: Array, labels: Array) -> Array:
    # log-sum-exp as top + log1p(sum of the other terms), so a dominant
    # logit's loss keeps its digits instead of rounding to 0 in log(1 + tiny)
    rows = np.arange(z.shape[0])
    top = z.argmax(axis=-1)
    e = np.exp(z - z[rows, top][:, None])
    e[rows, top] = 0.0
    return (z[rows, top] - z[rows, labels]) + np.log1p(e.sum(axis=-1))


def _cross_entropy_adjoint_np(g: Array, z: Array, labels: Array) -> Array:
    return (_softmax_np(z) - _onehot(labels, z.shape[1])) * g[:, None]


def _mse_np(pred: Array, target: Array) -> Array:
    residual = pred - target
    k = float(pred.size // pred.shape[0])
    return (residual * residual).sum(axis=tuple(range(1, pred.ndim))) / k


def _mse_adjoint_np(g: Array, pred: Array, target: Array) -> Array:
    k = float(pred.size // pred.shape[0])
    kept = pred.shape[:1] + (1,) * (pred.ndim - 1)
    return (g / k).reshape(kept) * ((pred - target) * 2.0)


# --------------------------------------------------------------------------
# reverse pass
# --------------------------------------------------------------------------


def backward(output: Tensor, wrt: Sequence[Tensor], *, cotangent=None) -> list[Tensor]:
    """Gradients of <cotangent, output> with respect to each tensor in wrt, as
    detached constants.  The cotangent, read and not copied, must have the
    output's shape (else a ShapeError); without one, a scalar output is
    seeded with 1 and any other is a GraphError.

    One reverse sweep over arrays, from the output down to the lowest wrt
    id, hands each node's cotangent to its rule and frees it, except the
    wrt tensors' own, which are returned.  A wrt tensor may be any node,
    the output included; one the output does not depend on gets zeros.
    """
    graph = output.graph
    if graph is None:
        raise GraphError("backward: output is not attached to a graph")
    for t in wrt:
        if t.graph is not graph:
            raise GraphError("backward: wrt tensor is not on the output's graph")
    if cotangent is None:
        if output.size != 1:
            raise GraphError(f"backward: output has shape {output.shape}; it must be a scalar")
        cotangent = np.ones_like(output.data)
    elif np.shape(cotangent) != output.shape:
        raise ShapeError(f"backward: cotangent {np.shape(cotangent)} for output {output.shape}")

    start = output.node_id
    keep = {t.node_id for t in wrt}
    slots: dict[int, Array] = {start: np.asarray(cotangent, dtype=np.float64)}
    for nid in range(start, min(keep, default=start + 1) - 1, -1):
        grad = slots.get(nid) if nid in keep else slots.pop(nid, None)
        node = graph.nodes[nid]
        if grad is None or node.rule is None:  # unreached, or a leaf
            continue
        for iid, g in zip(node.input_ids, node.rule(grad, *node.input_data)):
            if iid is not None:
                slots[iid] = g if iid not in slots else slots[iid] + g
    return [Tensor(slots[t.node_id] if t.node_id in slots else np.zeros_like(t.data)) for t in wrt]


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
