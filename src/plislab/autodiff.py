"""A one-node tape for the input-gradient pass, and the numpy kernels of
the model layers.

The tape holds the input leaf and one node above it:
models.attach_sample records the (B, p) per-sample gradient rows above
the (B, ...) input leaf, and that node's rule maps a (B, p) cotangent c
to the rows J_i^T c_i (J = d grad_theta / dx) by the tape-free
forward-over-reverse walk in models.  So a backward pass to the input
seeded with a row cotangent differentiates the gradients once more: no
second-order mode.  PLIS and the attack derive their row cotangents in
numpy (the DP clip's by dpsgd.clip_differentiable's pullback), so
nothing is recorded above the node.

Conventions:
  * everything is float64 (second-order finite-difference checks need
    the headroom; sizes are desk-scale);
  * a tensor either carries a (graph, node_id) pair or is a detached
    constant that never receives gradient;
  * a node's inputs are leaves of its graph, so one application of the
    output's rule is a whole backward pass;
  * the relu kernels use subgradient 0 at the kink;
  * a graph lives for one analysis call and is then discarded.  A node
    keeps its inputs' data arrays and node ids, never the input tensors,
    so nothing in a graph refers back to it: a graph is freed by
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
flat shift, and runs per offset one GEMM over the whole grid, whose
product has the image's layout, and one contiguous 1-D add of it, shifted,
per lead row.  The products that fall in the grid's zero padding are +0.0
or -0.0, and the image, which starts at +0.0 and never holds -0.0, takes
them without a changed bit.  The second-order walk's W^T g' + W'^T g is
one such adjoint with both pairs laid into one grid, stacked on O, with no
concatenated copy first.  No index table holds either layout.  A kernel
given out writes its result there: DP-SGD training and a PLIS call of
several chunks pass arrays of a Workspace, reused from chunk to chunk,
and the attack and the input Jacobian let the kernels allocate.

Batch axis: the kernels work on a leading batch axis, one independent
image or logit row per sample, and a weight matrix or bias per sample or
one row of them that broadcasts over the batch (the models' parameter
tiles).  Row i of the model node depends only on sample i, so one
backward pass seeded with a cotangent of the node's shape returns each
sample's gradient in its own row.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from .errors import GraphError, ShapeError

Array = np.ndarray

# --------------------------------------------------------------------------
# tape structures
# --------------------------------------------------------------------------


class Node:
    """One recorded operation: kind, inputs and a backward rule.

    Each input is kept as its node id and its data array.  backward()
    calls rule(grad, *input_data) on arrays, and the rule returns one
    cotangent array per input.  Leaves have no rule.
    """

    __slots__ = ("op", "input_ids", "input_data", "rule")

    def __init__(self, op: str, input_ids: tuple, input_data: tuple, rule):
        self.op = op
        self.input_ids = input_ids
        self.input_data = input_data
        self.rule = rule


class Graph:
    """Append-only tape of leaves and the nodes above them."""

    def __init__(self):
        self.nodes: list[Node] = []

    def leaf(self, data) -> "Tensor":
        """Register data as a differentiable input of this graph."""
        t = Tensor(data, graph=self, node_id=len(self.nodes))
        self.nodes.append(Node("leaf", (), (), None))
        return t


class Tensor:
    """A float64 array, optionally attached to a graph node.

    A detached tensor (graph is None) is a plain value that never receives
    gradient; backward() returns its gradients as detached tensors.
    """

    __slots__ = ("data", "graph", "node_id")

    def __init__(self, data, graph: Graph | None = None, node_id: int | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.graph = graph
        self.node_id = node_id

    @property
    def shape(self) -> tuple:
        return self.data.shape


def _record(op: str, out_data: Array, inputs: tuple[Tensor, ...], rule) -> Tensor:
    """out_data as a new node above inputs, which must be leaves of one graph."""
    graph = inputs[0].graph
    if graph is None or any(
        t.graph is not graph or graph.nodes[t.node_id].rule is not None for t in inputs
    ):
        raise GraphError(f"{op}: a node's inputs must be leaves of one graph")
    t = Tensor(out_data, graph=graph, node_id=len(graph.nodes))
    graph.nodes.append(Node(op, tuple(x.node_id for x in inputs), tuple(x.data for x in inputs), rule))
    return t


# --------------------------------------------------------------------------
# numpy kernels of the model layers and losses (see the module docstring)
# --------------------------------------------------------------------------


class Workspace:
    """Work arrays by key, reused from call to call (models.Workspace), so
    that no chunk allocates them, or faults their pages in, again.  A
    DP-SGD step takes the large temporaries of its gradient route, and a
    private step its (B, p) gradient rows, from the workspace that train
    keeps for all its steps.  A PLIS call of several chunks
    (plis.plis_reports) keeps one for them whose least is
    plis.WORK_ENTRIES: a request of fewer than least entries gets a fresh
    array, kept nowhere, so the workspace holds only the arrays whose
    allocation would fault, and keeps no small one alive past its use.

    empty(key, shape) is an uninitialised array of that shape: a view of
    the first entries of the one flat buffer kept under key, which is
    replaced by a larger one when a larger shape asks for it.  So a ragged
    last chunk takes a prefix of what the full chunks use.  A view is valid
    until the next request under its key: an array that must outlive
    another has its own key, and no route returns a view of a workspace
    that is not its caller's.  Each shape's view is made once and handed
    out again, and so is what kept((key, ...), bases, make) made, while
    bases are the same objects (the models keep only each block's view of
    their gradient rows so); replacing key's buffer drops both.
    """

    def __init__(self, least: int = 0):
        self.least = least
        self._buffers: dict[str, Array] = {}
        self._views: dict[tuple, object] = {}

    def empty(self, key: str, shape: tuple, dtype=np.float64) -> Array:
        if math.prod(shape) < self.least:
            return np.empty(shape, dtype)
        view = self._views.get((key, shape, dtype))
        if view is None:
            size = math.prod(shape)
            buffer = self._buffers.get(key)
            if buffer is None or buffer.size < size or buffer.dtype != dtype:
                buffer = self._buffers[key] = np.empty(size, dtype)
                # nothing may hold on to a replaced buffer
                self._views = {k: v for k, v in self._views.items() if k[0] != key}
            view = self._views[key, shape, dtype] = buffer[:size].reshape(shape)
        return view

    def kept(self, key: tuple, bases: tuple, make, *args):
        """make(*args), kept under key while bases are the same objects:
        the block views of the (B, p) gradient rows, in models._reverse."""
        kept = self._views.get(key)
        if kept is None or not all(map(operator.is_, kept[0], bases)):
            kept = self._views[key] = (bases, make(*args))
        return kept[1]

    def zeros(self, key: str, shape: tuple) -> Array:
        out = self.empty(key, shape)
        out.fill(0.0)
        return out


def _im2col(images: Array, k: int, out: Array | None = None) -> Array:
    """(B,C,H,W) images -> (B, C*k*k, out_h*out_w) valid-patch matrices.

    A strided (B, C, k, k, oh, ow) view of the image, the patch axes
    first, copied into one C-contiguous matrix (out, when given; without
    it the reshape copies unless k = 1), which the gemm after it needs: it
    runs several times slower on a strided one.
    """
    images = np.ascontiguousarray(images)
    b, c, h, w = images.shape
    oh, ow = h - k + 1, w - k + 1
    sb, sc, sh, sw = images.strides
    view = np.ndarray((b, c, k, k, oh, ow), images.dtype, images, 0, (sb, sc, sh, sw, sh, sw))
    if out is None:
        return view.reshape(b, c * k * k, oh * ow)
    out.reshape(view.shape)[...] = view
    return out


def _bias_add_np(h: Array, b: Array, out: Array | None = None) -> Array:
    """h plus one bias per (sample, channel); out=h adds in place."""
    return np.add(h, b.reshape(b.shape + (1,) * (h.ndim - 2)), out=out)


def _bias_adjoint_np(g: Array) -> Array:
    """The (B, O) bias gradient of a (B, O, ...) cotangent: its sum past (B, O)."""
    return g.sum(axis=tuple(range(2, g.ndim))) if g.ndim > 2 else g


def _linear_np(w: Array, h: Array, out: Array | None = None) -> Array:
    return np.matmul(w, h[..., None], out=None if out is None else out[..., None])[..., 0]


def _linear_input_adjoint_np(w: Array, g: Array, out: Array | None = None) -> Array:
    return np.matmul(
        np.swapaxes(w, -1, -2), g[..., None], out=None if out is None else out[..., None]
    )[..., 0]


def _linear_weight_adjoint_np(g: Array, h: Array, out: Array | None = None) -> Array:
    # numpy's stacked matmul runs a slow loop for an inner dimension of 1;
    # + 0.0 gives zero entries the sign BLAS gives them (-0.0 -> +0.0)
    out = np.multiply(g[:, :, None], h[:, None, :], out=out)
    out += 0.0
    return out


def _conv2d_np(kernel: Array, cols: Array, image_shape: tuple, out: Array | None = None) -> Array:
    """(B,O,oh,ow) outputs of (B,O,C,k,k) kernels on the patch matrices of
    (B,C,H,W) images; a kernel or patch stack of length 1 broadcasts."""
    o, _, k = kernel.shape[1:4]
    b = max(len(kernel), len(cols))
    oh, ow = image_shape[2] - k + 1, image_shape[3] - k + 1
    out = None if out is None else out.reshape(b, o, -1)
    return np.matmul(kernel.reshape(len(kernel), o, -1), cols, out=out).reshape(b, o, oh, ow)


def _conv2d_input_adjoint_np(
    g: Array, kernel: Array, out: Array | None = None, work: Workspace | None = None
) -> Array:
    """Gradient of <g, conv> in the (B,C,oh+k-1,ow+k-1) images, from (B,O,oh,ow) g.

    g is laid out on the (H, W) image grid, zero past its (oh, ow) corner,
    so that kernel offset (ki, kj) moves every pixel by one flat shift
    s = ki*W + kj.  Per offset, one GEMM of the offset's (C, O) kernel slice
    with the whole laid-out g, so that the (C, L) product has the image's
    (C, L) layout, L the grid's length; then one contiguous 1-D add per
    lead row: the product's C*L entries, shifted by s, onto the image's.
    Each pixel sums its terms in (ki, kj) order.  The adds also carry
    products of grid columns from L - (k-1)(W+1) on, which lie in the zero
    padding, and some of those spill into the next channel's row: they are
    all +0.0 or -0.0, and adding either to the image, which starts at +0.0
    and never holds -0.0, changes no bit.  At C = 1 one GEMM takes all k*k
    offsets as its rows: a product of one row would be a BLAS call (gemv,
    which sums in another order) per offset.  A kernel of one row, shared
    by the batch (as the models tile it), sets the B grids side by side,
    channel-major, for one 2-D GEMM over all B*H*W columns; per-row kernels
    take one batched GEMM.  The shared layout wins on many rows of small
    images and ties on few: at (B, O, C, k, H, W) = (39, 16, 8, 3, 10, 10),
    the 12x12 CNN's Jacobian chunks, it took 0.40 ms against 0.79 ms for
    the kernel repeated per row (0.78 ms against 1.24 at 64 rows), and at
    the 28x28 CNN's training chunk (6, 16, 8, 3, 26, 26) 0.478 against
    0.475 ms (a workspace, one BLAS thread, a shared 2-vCPU x86-64 VM,
    medians of 15 interleaved rounds).  Given a workspace, the grid, the
    product and the image come from it, under the keys "grid", "product"
    and "image"; given out, the result is copied into it.
    """
    return _conv2d_stacked_input_adjoint_np((g,), (kernel,), out, work)


def _conv2d_stacked_input_adjoint_np(
    gs: Sequence[Array], kernels: Sequence[Array], out: Array | None = None,
    work: Workspace | None = None,
) -> Array:
    """The sum over i of the input adjoints of gs[i] (B,O_i,oh,ow) and
    kernels[i] (B,O_i,C,k,k), as one adjoint of the operands stacked on the
    O axis (see _conv2d_input_adjoint_np, its one-pair case).  Each operand
    is laid straight into the grid and the kernel slices, and nothing is
    concatenated first.  With a per-row kernel among them (as _reverse's
    W'), the GEMMs so take the arrays that the adjoint of
    np.concatenate(gs, 1) and np.concatenate(kernels, 1) takes, and give
    its bits.  The shared layout is taken only if every kernel has one row:
    B is always that of gs, and a kernel of one row serves every row of g
    (in the per-row layout its slices are broadcast over the B rows)."""
    b, (c, k) = len(gs[0]), kernels[0].shape[2:4]
    o = sum(kernel.shape[1] for kernel in kernels)
    oh, ow = gs[0].shape[2:]
    h, w = oh + k - 1, ow + k - 1
    shared = all(len(kernel) == 1 for kernel in kernels)
    lead = 1 if shared else b
    shape = (o, b, h, w) if shared else (b, o, h, w)
    grid = np.zeros(shape) if work is None else work.zeros("grid", shape)
    per = k * k if c == 1 else 1  # offsets per GEMM
    # (k*k/per, lead, O, per*C) kernel slices, taken into the GEMM transposed
    # as by the tests' patch-GEMM reference: a small untransposed product may
    # go to a BLAS kernel that sums an entry's O terms in another order
    slices = np.empty((k * k // per, lead, o, per * c))
    view = slices.reshape(k * k // per, lead, o, per, c)
    first = 0
    for g, kernel in zip(gs, kernels):
        last = first + kernel.shape[1]
        if shared:
            grid[first:last, :, :oh, :ow] = g.swapaxes(0, 1)
        else:
            grid[:, first:last, :oh, :ow] = g
        part = kernel.reshape(len(kernel), last - first, c, k * k // per, per)
        view[:, :, first:last] = part.transpose(3, 0, 1, 4, 2)
        first = last
    grid = grid.reshape(lead, o, -1)
    slices = slices.swapaxes(2, 3)
    size = c * grid.shape[2]  # C*L entries per lead row
    shape = (lead, per * c, grid.shape[2])
    product = np.empty(shape) if work is None else work.empty("product", shape)
    rows = product.reshape(lead, per, size)
    shape = (lead, size)
    img = np.zeros(shape) if work is None else work.zeros("image", shape)
    for i in range(k * k):
        if i % per == 0:
            np.matmul(slices[i // per], grid, out=product)
        s = (i // k) * w + i % k
        img[:, s:] += rows[:, i % per, : size - s]
    img = img.reshape(c, b, h, w).swapaxes(0, 1) if shared else img.reshape(b, c, h, w)
    if out is None:  # a fresh array, never a view of work
        return np.ascontiguousarray(img) if work is None else img.copy()
    out[...] = img
    return out


def _conv2d_kernel_adjoint_np(g: Array, cols: Array, out: Array | None = None) -> Array:
    """The (B, O, C*k*k) kernel gradient from (B,O,oh,ow) g and the patch matrices."""
    b, o = g.shape[:2]
    return np.matmul(g.reshape(b, o, -1), np.swapaxes(cols, -1, -2), out=out)


def _relu_np(a: Array, out: Array | None = None) -> Array:
    return np.maximum(a, 0.0, out=out)


def _relu_slope_np(a: Array, out: Array | None = None) -> Array:
    return np.greater(a, 0.0, out=out)


def _tanh_slope_np(t: Array, out: Array | None = None) -> Array:
    """1 - tanh^2 from t = tanh(a)."""
    return np.subtract(1.0, np.multiply(t, t, out=out), out=out)


def _softplus_np(a: Array, out: Array | None = None) -> Array:
    return np.add(np.maximum(a, 0.0), np.log1p(np.exp(-np.abs(a))), out=out)


def _softplus_slope_np(a: Array, out: Array | None = None) -> Array:
    """sigmoid(a), written as (1 + tanh(a/2)) / 2."""
    return np.multiply(np.tanh(a * 0.5) + 1.0, 0.5, out=out)


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


def backward(output: Tensor, wrt: Sequence[Tensor], *, cotangent) -> list[Tensor]:
    """Gradients of <cotangent, output> with respect to each tensor in wrt, as
    detached constants.  The cotangent, read and not copied, must have the
    output's shape (else a ShapeError).

    The output node's rule maps the cotangent to its inputs, which are
    leaves, so that one call is the whole pass.  A wrt tensor may be any
    tensor on the graph: the output gets the cotangent, and a tensor the
    output does not depend on gets zeros.
    """
    graph = output.graph
    if graph is None:
        raise GraphError("backward: output is not attached to a graph")
    for t in wrt:
        if t.graph is not graph:
            raise GraphError("backward: wrt tensor is not on the output's graph")
    if np.shape(cotangent) != output.shape:
        raise ShapeError(f"backward: cotangent {np.shape(cotangent)} for output {output.shape}")

    node = graph.nodes[output.node_id]
    slots: dict[int, Array] = {output.node_id: np.asarray(cotangent, dtype=np.float64)}
    if node.rule is not None:
        for iid, g in zip(node.input_ids, node.rule(slots[output.node_id], *node.input_data)):
            slots[iid] = slots[iid] + g if iid in slots else g
    return [Tensor(slots[t.node_id] if t.node_id in slots else np.zeros_like(t.data)) for t in wrt]
