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

Layer ops: a model layer records one node, not a chain of small ones.
conv2d, linear, bias_add, cross_entropy and mse are primitives
with their own rules.  The rules of conv2d and linear call the op's two
adjoints (input and weight), private rule workers that record a node each
and check no shapes, since only rules call them; each adjoint's rule
calls the other two members of its family, and cross_entropy's rule
calls softmax.  conv2d's rule reuses the patch matrix its forward pass
gathered.  Patches are laid out by slicing alone: _im2col copies a
strided (B, C, k, k, oh, ow) view of the image, and its adjoint _col2im
adds each (ki, kj) slice of the patches back onto the same window of the
image, so no index table holds the layout.  mse (the per-row mean
squared error) stands for a chain of elementwise ops; its rule is built
from that chain's ops in the chain's order, so its value and gradient
are the chain's bit for bit.  concat flattens each (B, ...) part past
the batch axis as it joins them, so per-block gradients become (B, p)
rows in one node.  So a create-graph pass over a layer records a few
layer ops, and what it records is differentiable again.  Per-node
Python, not arithmetic, is what a double backward through these small
models spends its time on.

Numpy kernels: each layer op's value and each of its first-order
adjoints is one private numpy function (the _np suffix), which the op
records.  First-order per-sample gradients, all a DP-SGD step needs, are
tape-free: models.per_sample_loss_and_grad calls the same kernels on
plain arrays, builds no graph, and gets the tape's rows to the bit.  The
tape serves what is differentiated again: PLIS, the input Jacobian and
the attack objective.

Batch axis: the layer ops work on a leading batch axis, one independent
image, weight matrix, bias or logit row per sample, and tsum reduces per
row when given axes.  With parameters tiled into leaves with a leading
batch axis, row i of every tensor depends only on sample i, so one
backward pass of a sum over rows returns each sample's gradient in its
own row.

A backward pass does only the work its wrt list needs.  One forward
sweep over the ids from the lowest wrt node to the output marks the
nodes that depend on a wrt tensor; the reverse loop visits only those,
stops at the lowest wrt id, and asks each rule for cotangents of its
needed inputs only (so a pass to X never computes parameter cotangents,
and a pass to the parameters never scatters back into X).  A
create-graph pass hands the rules their inputs attached, so its results
stay differentiable in every leaf.  Any other pass hands them detached
inputs: the ops the rules call then record nothing and return plain
constants with the same values.  A node's cotangent is dropped as soon
as its rule has run; only the wrt tensors' cotangents live to the end.
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
    its data array.  backward() rebuilds the input tensors and calls
    rule(grad, need, *inputs), where need[i] says whether input i needs
    a cotangent; the rule returns one cotangent per input, None where
    need[i] is false.  backward() calls a rule only when some input
    needs a cotangent, so single-input rules ignore need.  Rules call
    the op functions below, which is what makes backward
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
        return (mul(grad, Tensor(_relu_slope_np(a.data))),)

    return _record("relu", _relu_np(a.data), (a,), rule)


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
        # _tanh_slope_np's arithmetic, op by op
        return (mul(grad, sub(1.0, square(tanh(a)))),)

    return _record("tanh", np.tanh(a.data), (a,), rule)


def softplus(a) -> Tensor:
    a = _tensor(a)

    def rule(grad: Tensor, need, a: Tensor):
        # _softplus_slope_np's arithmetic, op by op
        sig = mul(add(tanh(mul(a, 0.5)), 1.0), 0.5)
        return (mul(grad, sig),)

    return _record("softplus", _softplus_np(a.data), (a,), rule)


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
    pad = (1,) * (len(shape) - a.data.ndim) + a.shape
    if len(pad) != len(shape) or any(
        so < 0 or (sa != 1 and sa != so) for sa, so in zip(pad, shape)
    ):
        raise ShapeError(f"broadcast: cannot expand {a.shape} to {shape}")
    expanded = tuple(i for i, (sa, so) in enumerate(zip(pad, shape)) if sa == 1 and so != 1)

    def rule(grad: Tensor, need, a: Tensor):
        return (reshape(tsum(grad, axes=expanded, keepdims=True) if expanded else grad, a.shape),)

    out = np.empty(shape)
    out[...] = a.data
    return _record("broadcast", out, (a,), rule)


def reshape(a, shape) -> Tensor:
    a = _tensor(a)
    shape = tuple(int(s) for s in shape) if not isinstance(shape, int) else (shape,)
    if math.prod(shape) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")

    def rule(grad: Tensor, need, a: Tensor):
        return (reshape(grad, a.shape),)

    return _record("reshape", a.data.reshape(shape), (a,), rule)


def tslice(a, index: tuple) -> Tensor:
    """Slice/int indexing, or integer-array indexing that picks each entry
    at most once, by a tuple index; the adjoint is embed()."""
    a = _tensor(a)

    def rule(grad: Tensor, need, a: Tensor):
        return (embed(grad, a.shape, index),)

    return _record("slice", np.array(a.data[index]), (a,), rule)


def concat(parts) -> Tensor:
    """Join (B, ...) tensors into one (B, q) tensor, each part flattened past
    the batch axis; the adjoint slices the cotangent apart and restores each
    part's shape."""
    parts = tuple(_tensor(p) for p in parts)
    if not parts:
        raise ShapeError("concat: nothing to join")
    lead = parts[0].shape[:1]
    if lead in ((), (0,)) or any(p.shape[:1] != lead for p in parts):
        raise ShapeError(
            f"concat: shapes {[p.shape for p in parts]} do not share a non-empty batch axis"
        )
    rows = [p.data.reshape(lead[0], -1) for p in parts]
    bounds = np.cumsum([0] + [r.shape[1] for r in rows]).tolist()

    def rule(grad: Tensor, need, *parts: Tensor):
        return tuple(
            reshape(tslice(grad, (slice(None), slice(lo, hi))), p.shape) if nd else None
            for nd, p, lo, hi in zip(need, parts, bounds[:-1], bounds[1:])
        )

    return _record("concat", np.concatenate(rows, axis=1), parts, rule)


def embed(a, shape: tuple, index: tuple) -> Tensor:
    """Place a into a zero tensor of the given shape at the given tuple index."""
    a = _tensor(a)
    out = np.zeros(shape)
    out[index] = a.data

    def rule(grad: Tensor, need, a: Tensor):
        return (tslice(grad, index),)

    return _record("embed", out, (a,), rule)


# --------------------------------------------------------------------------
# layer ops, one node each (see the module docstring).  conv2d and
# linear each form a closed triple with their input and weight adjoints.
# --------------------------------------------------------------------------


def bias_add(h, b) -> Tensor:
    """h + b for per-row biases b (B, O), spread over any axes of h past (B, O)."""
    h, b = _tensor(h), _tensor(b)
    if b.data.ndim != 2 or h.shape[:2] != b.shape:
        raise ShapeError(f"bias_add: bias shape {b.shape} does not lead input shape {h.shape}")
    spread = tuple(range(2, h.data.ndim))

    def rule(grad: Tensor, need, h: Tensor, b: Tensor):
        # _bias_adjoint_np's sum, as an op
        gb = (tsum(grad, axes=spread) if spread else grad) if need[1] else None
        return (grad if need[0] else None, gb)

    return _record("bias-add", _bias_add_np(h.data, b.data), (h, b), rule)


def linear(w, h) -> Tensor:
    """Per-row W h: (B, O, I) weights and (B, I) inputs give (B, O)."""
    w, h = _tensor(w), _tensor(h)
    if w.data.ndim != 3 or h.shape != (w.shape[0], w.shape[2]):
        raise ShapeError(f"linear: weights {w.shape} and inputs {h.shape} do not compose")

    def rule(grad: Tensor, need, w: Tensor, h: Tensor):
        gw = _linear_weight_adjoint(grad, h) if need[0] else None
        gh = _linear_input_adjoint(w, grad) if need[1] else None
        return (gw, gh)

    return _record("linear", _linear_np(w.data, h.data), (w, h), rule)


def _linear_input_adjoint(w: Tensor, g: Tensor) -> Tensor:
    """Per-row W^T g: (B, O, I) weights and (B, O) cotangents give (B, I)."""

    def rule(grad: Tensor, need, w: Tensor, g: Tensor):
        gw = _linear_weight_adjoint(g, grad) if need[0] else None
        gg = linear(w, grad) if need[1] else None
        return (gw, gg)

    return _record("linear-input-adjoint", _linear_input_adjoint_np(w.data, g.data), (w, g), rule)


def _linear_weight_adjoint(g: Tensor, h: Tensor) -> Tensor:
    """Per-row outer product g h^T: (B, O) and (B, I) give (B, O, I)."""

    def rule(grad: Tensor, need, g: Tensor, h: Tensor):
        gg = linear(grad, h) if need[0] else None
        gh = _linear_input_adjoint(grad, g) if need[1] else None
        return (gg, gh)

    return _record("linear-weight-adjoint", _linear_weight_adjoint_np(g.data, h.data), (g, h), rule)


def conv2d(x, kernel) -> Tensor:
    """Valid cross-correlation of (B,C,H,W) images with per-row (B,O,C,k,k) kernels."""
    x, kernel = _tensor(x), _tensor(kernel)
    if kernel.data.ndim != 5 or kernel.shape[3] != kernel.shape[4]:
        raise ShapeError(f"conv2d: expected (B,O,C,k,k) kernels, got shape {kernel.shape}")
    k = kernel.shape[3]
    if x.data.ndim != 4 or x.shape[:2] != (kernel.shape[0], kernel.shape[2]):
        raise ShapeError(
            f"conv2d: input shape {x.shape} incompatible with kernel shape {kernel.shape}"
        )
    if k > min(x.shape[2:]):
        raise ShapeError(f"conv2d: kernel {k} too large for image {x.shape[2]}x{x.shape[3]}")
    return _conv2d(x, kernel, _im2col(x.data, k))


def _conv2d(x: Tensor, kernel: Tensor, cols: Array) -> Tensor:
    """conv2d on the already gathered patch matrices cols of x."""

    def rule(grad: Tensor, need, x: Tensor, kernel: Tensor):
        gx = _conv2d_input_adjoint(grad, kernel) if need[0] else None
        gk = _conv2d_kernel_adjoint(x, grad, cols) if need[1] else None
        return (gx, gk)

    return _record("conv2d", _conv2d_np(kernel.data, cols, x.shape), (x, kernel), rule)


def _conv2d_input_adjoint(g: Tensor, kernel: Tensor) -> Tensor:
    """Gradient of <g, conv2d(x, kernel)> in x: (B,C,oh+k-1,ow+k-1) from (B,O,oh,ow) g."""
    k = kernel.shape[3]

    def rule(grad: Tensor, need, g: Tensor, kernel: Tensor):
        cols = _im2col(grad.data, k)
        gg = _conv2d(grad, kernel, cols) if need[0] else None
        gk = _conv2d_kernel_adjoint(grad, g, cols) if need[1] else None
        return (gg, gk)

    return _record(
        "conv2d-input-adjoint", _conv2d_input_adjoint_np(g.data, kernel.data), (g, kernel), rule
    )


def _conv2d_kernel_adjoint(x: Tensor, g: Tensor, cols: Array) -> Tensor:
    """Gradient of <g, conv2d(x, K)> in K, (B,O,C,k,k) from (B,C,H,W) x and
    (B,O,oh,ow) g, on the already gathered patch matrices cols of x."""
    b, o, oh = g.shape[:3]
    c, k = x.shape[1], x.shape[2] - oh + 1

    def rule(grad: Tensor, need, x: Tensor, g: Tensor):
        gx = _conv2d_input_adjoint(g, grad) if need[0] else None
        gg = _conv2d(x, grad, cols) if need[1] else None
        return (gx, gg)

    out = _conv2d_kernel_adjoint_np(g.data, cols).reshape(b, o, c, k, k)
    return _record("conv2d-kernel-adjoint", out, (x, g), rule)


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------


def softmax(z) -> Tensor:
    """Softmax along the last axis."""
    z = _tensor(z)

    def rule(grad: Tensor, need, z: Tensor):
        # the softmax Jacobian diag(s) - s s^T applied to v is s * (v - <s, v>)
        s = softmax(z)
        dot = tsum(mul(s, grad), axes=-1, keepdims=True)
        return (mul(s, sub(grad, broadcast(dot, s.shape))),)

    return _record("softmax", _softmax_np(z.data), (z,), rule)


def cross_entropy(z, labels) -> Tensor:
    """Per-row log-sum-exp(z) - z[label] for (B, k) logits and B integer labels."""
    z = _tensor(z)
    if z.data.ndim != 2:
        raise ShapeError(f"cross_entropy: expected (B, k) logits, got shape {z.shape}")
    n, k = z.shape
    labels = check_labels(labels, n, k)
    onehot = _onehot(labels, k)

    def rule(grad: Tensor, need, z: Tensor):
        # _cross_entropy_adjoint_np's arithmetic, op by op
        scale = broadcast(reshape(grad, (n, 1)), (n, k))
        return (mul(sub(softmax(z), Tensor(onehot)), scale),)

    return _record("cross-entropy", _cross_entropy_np(z.data, labels), (z,), rule)


def mse(pred, target) -> Tensor:
    """Per-row mean of (pred - target)^2 over the axes past the batch axis:
    (B, ...) predictions and same-shape constant targets give (B,)."""
    pred = _tensor(pred)
    target = Tensor(target)
    if pred.data.ndim < 2 or target.shape != pred.shape:
        raise ShapeError(f"mse: predictions {pred.shape} and targets {target.shape} do not match")
    k = float(pred.size // pred.shape[0])
    kept = pred.shape[:1] + (1,) * (pred.data.ndim - 1)

    def rule(grad: Tensor, need, pred: Tensor):
        # the rules of the chain sub, square, sum over the row, div by k;
        # _mse_adjoint_np's arithmetic, op by op
        scale = broadcast(reshape(div(grad, k), kept), pred.shape)
        return (mul(scale, mul(sub(pred, target), 2.0)),)

    return _record("mse", _mse_np(pred.data, target.data), (pred,), rule)


def check_labels(labels, n: int, k: int) -> Array:
    """B integer labels, each in [0, k), for n rows of k logits."""
    labels = np.asarray(labels).reshape(-1).astype(np.int64)
    if labels.shape != (n,):
        raise ShapeError(f"cross_entropy: {labels.size} labels for {n} rows of logits")
    bad = labels[(labels < 0) | (labels >= k)]
    if bad.size:
        raise ShapeError(f"label {int(bad[0])} out of range for {k} logits")
    return labels


# --------------------------------------------------------------------------
# numpy kernels.  Each layer op's value, and each first-order adjoint, is
# written once, here: the ops above record these values, and the tape-free
# per-sample gradients (models.per_sample_loss_and_grad) call the same
# functions on plain arrays.  The rules above that are chains of ops
# (bias sums, the tanh and softplus slopes, the loss cotangents) do the
# arithmetic of the kernel they name in the same order, so a first-order
# gradient is the same to the bit by either route.
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


def _col2im(cols: Array, image_shape: tuple, k: int) -> Array:
    """Adjoint of _im2col: scatter-add patch matrices back into (B,C,H,W) images."""
    b, c, h, w = image_shape
    oh, ow = h - k + 1, w - k + 1
    # the same (c, ki, kj) slicing as _im2col's view, one strided add per
    # kernel offset, so every pixel sums its patches in (ki, kj) order
    patches = cols.reshape(b, c, k, k, oh, ow)
    img = np.zeros((b, c, h, w))
    for ki in range(k):
        for kj in range(k):
            img[:, :, ki : ki + oh, kj : kj + ow] += patches[:, :, ki, kj]
    return img


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
    b, o, c, k = kernel.shape[:4]
    oh, ow = g.shape[2:]
    cols = np.matmul(np.swapaxes(kernel.reshape(b, o, -1), -1, -2), g.reshape(b, o, -1))
    return _col2im(cols, (b, c, oh + k - 1, ow + k - 1), k)


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
    """sigmoid(a) written as (1 + tanh(a/2)) / 2, which the tape's ops can express."""
    return (np.tanh(a * 0.5) + 1.0) * 0.5


def _softmax_np(z: Array) -> Array:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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


def backward(output: Tensor, wrt: Sequence[Tensor], create_graph: bool = False) -> list[Tensor]:
    """Gradients of the scalar output with respect to each tensor in wrt.

    With create_graph=True the returned gradients are graph nodes and can
    be differentiated again; with False the rules get detached inputs, so
    they record nothing and plain constants come back (same values either
    way).  A non-scalar output is a GraphError.

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
    if output.size != 1:
        raise GraphError(f"backward: output has shape {output.shape}; it must be a scalar")

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

    slots: dict[int, Tensor] = {start: Tensor(np.ones_like(output.data))}
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
            Tensor(data, graph, iid) if create_graph and iid is not None else Tensor(data)
            for iid, data in zip(node.input_ids, node.input_data)
        ]
        for iid, g in zip(node.input_ids, node.rule(grad, need, *inputs)):
            if g is None:
                continue
            cur = slots.get(iid)
            slots[iid] = g if cur is None else add(cur, g)

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
