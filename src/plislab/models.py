"""Small supervised models (linear, MLP, CNN) and per-sample losses.

Parameters live in one flat vector, laid out block by block; the
gradient with respect to all parameters comes back as one flat row per
sample, or summed over the batch into one flat vector.

Batch axis: every route takes B samples stacked on a leading axis and
reads each parameter block as a one-row (1, ...) tile that broadcasts
over them, so sample i's loss depends only on row i of the inputs.  The
tiles are read-only views of the flat vector, one table per flat array
(ParamSet.tiles): no route copies a parameter or builds them again.
Callers pass at most chunk_size(params) samples, stacked and checked
once into a Batch by stack_batch and by no route again.  The batch sum
leaves that axis only at the end of each weighted layer's adjoint.

One forward pass, then first and second order without a second-order
tape.  _layer_records runs the forward pass in the autodiff numpy kernels
and keeps per layer what the adjoints read, and _reverse is the one
reverse walk through those records, run from the loss by _first_order,
which opens every route.  per_sample_loss_and_grad() takes the B losses and
(B, p) parameter-gradient rows g, which the private DP-SGD step clips;
each weighted layer writes its gradients into its block's view of the
rows.  Its summed mode, loss_and_grad_sum(), is the non-private step's:
each weighted layer adds its batch-summed gradient into a (p,) total (a
conv kernel's and a bias's per-sample adjoints summed in batch order,
with the rows' bits; a Linear weight's one GEMM g^T h), and no row is
formed.  The large temporaries (patch matrices, layer outputs, slopes,
cotangents, the conv input adjoint's grid and image, the rows with their
block views) come from a Workspace: train's, for all its steps, or the
one a PLIS call of several chunks keeps for them, which hands out only
large arrays and serves the node's walk too; other routes allocate them.
_tangent_walk() differentiates the rows once more, forward-over-reverse,
one tangent per row, by the same walk with the product rule's terms:
along input directions v_i it gives the rows J_i v_i (J = dg/dx), for
unit v_i the input Jacobian's columns that FIM, FIL and JacSens read
(grad_tangents(), where one sample's records broadcast over any number
of directions); along parameter tangents c_i the rows J_i^T c_i.
attach_sample() puts the rows on a graph as one node above the input
leaf, and that node's rule is the walk along parameter tangents, from a
(B, p) cotangent array to a (B, ...) input cotangent array: PLIS and the
attack objective seed the node with their row cotangents in one backward
pass to x.

Graph lifetime: a graph is freed by reference counting once the caller
drops the AttachedSample and every tensor on its graph.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff, rng
from .autodiff import Graph, Tensor, Workspace
from .errors import ConfigError, DataFormatError, ShapeError

MSE = "mse"
CROSS_ENTROPY = "cross_entropy"

# Parameter-gradient entries per chunk, a graph or a tape-free call.
# Memory grows with samples x parameters: 2^17 entries give the CLI's CNN
# (19,682 parameters) chunks of 6 samples, and a PLIS ranking of 8 such
# chunks peaks 8.7 MiB above its start (tracemalloc), one chunk's arrays
# alive at a time (11.1 MiB with two alive at once); a 16-parameter
# linear model gets chunks of 8192, so its per-op Python overhead is paid
# once per batch, not once per sample.  Other chunks are slower on the
# CNN, for PLIS and for the summed training route alike: on a 2-vCPU
# x86-64 VM, one BLAS thread, a 48-subject train-and-rank pass (12 epochs)
# took a median of 0.30 s at chunks of 3 and of 4, 0.26 s at 6, 0.27 s at
# 8, 0.29 s at 12 and 0.32 s at 24 (12 interleaved rounds).
CHUNK_ENTRIES = 1 << 17


def chunk_size(params: ParamSet) -> int:
    """Samples per chunk (a graph, or a tape-free call) for this model."""
    return max(1, CHUNK_ENTRIES // max(1, params.count))


def chunks(items, size: int) -> list:
    """Consecutive slices of at most size items."""
    return [items[i : i + size] for i in range(0, len(items), size)]


@dataclass(frozen=True)
class Linear:
    in_dim: int
    out_dim: int
    bias: bool = True

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ConfigError(f"linear({self.in_dim},{self.out_dim}): sizes must be positive")


@dataclass(frozen=True)
class Conv2d:
    in_ch: int
    out_ch: int
    kernel: int
    bias: bool = True

    def __post_init__(self):
        if self.in_ch < 1 or self.out_ch < 1 or self.kernel < 1:
            raise ConfigError(
                f"conv2d({self.in_ch},{self.out_ch},{self.kernel}): sizes must be positive"
            )


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class Tanh:
    pass


@dataclass(frozen=True)
class Softplus:
    pass


@dataclass(frozen=True)
class Flatten:
    pass


Layer = Linear | Conv2d | Relu | Tanh | Softplus | Flatten


@dataclass(frozen=True)
class ModelSpec:
    layers: tuple[Layer, ...]
    loss: str

    def __post_init__(self):
        if self.loss not in (MSE, CROSS_ENTROPY):
            raise ConfigError(f"unknown loss '{self.loss}'")
        if not self.layers:
            raise ConfigError("model needs at least one layer")


def cnn_spec(h: int, w: int, classes: int) -> ModelSpec:
    """The CLI's CNN on (1, h, w) images: two valid 3x3 convs (8 then 16
    channels) with relus, then one linear layer; 19,682 parameters at
    28x28 with two classes."""
    return ModelSpec(
        (
            Conv2d(1, 8, 3),
            Relu(),
            Conv2d(8, 16, 3),
            Relu(),
            Flatten(),
            Linear(16 * (h - 4) * (w - 4), classes),
        ),
        CROSS_ENTROPY,
    )


@dataclass(frozen=True)
class ParamBlock:
    name: str
    offset: int
    shape: tuple[int, ...]

    @functools.cached_property
    def size(self) -> int:
        return math.prod(self.shape)


@dataclass
class ParamSet:
    """Flattened parameter vector plus the per-layer layout, and the table
    from each block's name to the block."""

    flat: np.ndarray
    layout: tuple[ParamBlock, ...]
    blocks: dict[str, ParamBlock] = field(init=False, repr=False, compare=False)
    _tiles: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat = np.asarray(self.flat, dtype=np.float64, order="C")
        if self.flat.ndim != 1:
            raise ShapeError("ParamSet.flat must be one-dimensional")
        total = sum(b.size for b in self.layout)
        if total != self.flat.size:
            raise ShapeError(f"layout covers {total} entries but flat has {self.flat.size}")
        self.blocks = {b.name: b for b in self.layout}

    def columns(self, rows: np.ndarray, name: str) -> np.ndarray:
        """The (..., *shape) view of the named block's columns of (..., p)
        rows: (B, *shape) of (B, p) rows, the block itself of a (p,) vector."""
        block = self.blocks[name]
        columns = rows[..., block.offset : block.offset + block.size]
        return columns.reshape(*rows.shape[:-1], *block.shape)

    def views(self, rows: np.ndarray) -> dict:
        """Each block's columns of rows, by name."""
        return {b.name: self.columns(rows, b.name) for b in self.layout}

    def tiles(self) -> dict:
        """Each block as a read-only (1, *shape) view of flat, by name, which
        broadcasts over any batch: one table per flat array, kept beside it
        (an update of flat in place shows through; a copy keeps none)."""
        if self._tiles is None or self._tiles[0] is not self.flat:
            rows = self.flat[None]  # read-only, and so is every view of it
            rows.flags.writeable = False
            self._tiles = (self.flat, self.views(rows))
        return self._tiles[1]

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_tiles"}

    @property
    def count(self) -> int:
        return self.flat.size

    def with_flat(self, flat: np.ndarray) -> "ParamSet":
        return ParamSet(flat, self.layout)


def layout_for(spec: ModelSpec) -> tuple[ParamBlock, ...]:
    blocks: list[ParamBlock] = []
    offset = 0
    for idx, layer in enumerate(spec.layers):
        shapes: list[tuple[str, tuple[int, ...]]] = []
        if isinstance(layer, Linear):
            shapes.append((f"{idx}.weight", (layer.out_dim, layer.in_dim)))
            if layer.bias:
                shapes.append((f"{idx}.bias", (layer.out_dim,)))
        elif isinstance(layer, Conv2d):
            shapes.append((f"{idx}.weight", (layer.out_ch, layer.in_ch, layer.kernel, layer.kernel)))
            if layer.bias:
                shapes.append((f"{idx}.bias", (layer.out_ch,)))
        for name, shape in shapes:
            block = ParamBlock(name, offset, shape)
            blocks.append(block)
            offset += block.size
    return tuple(blocks)


def init_params(spec: ModelSpec, seed: int) -> ParamSet:
    """Uniform [-a, a] weights with a = sqrt(6/(fan_in+fan_out)); zero biases."""
    layout = layout_for(spec)
    params = ParamSet(np.zeros(sum(b.size for b in layout)), layout)
    for idx, layer in enumerate(spec.layers):
        if isinstance(layer, Linear):
            fan_in, fan_out = layer.in_dim, layer.out_dim
        elif isinstance(layer, Conv2d):
            fan_in = layer.in_ch * layer.kernel * layer.kernel
            fan_out = layer.out_ch * layer.kernel * layer.kernel
        else:
            continue
        a = np.sqrt(6.0 / (fan_in + fan_out))
        block = params.columns(params.flat, f"{idx}.weight")
        u = rng.uniforms(seed, rng.INIT_STREAM + idx, block.size).reshape(block.shape)
        block[...] = (2.0 * u - 1.0) * a
    return params


# --------------------------------------------------------------------------
# forward pass
# --------------------------------------------------------------------------


def output_shape(spec: ModelSpec, input_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Propagate a shape through the layers, validating composition."""
    shape = tuple(input_shape)
    for idx, layer in enumerate(spec.layers):
        if isinstance(layer, Linear):
            if shape != (layer.in_dim,):
                raise ShapeError(
                    f"layer {idx} linear({layer.in_dim},{layer.out_dim}) got input shape {shape}"
                )
            shape = (layer.out_dim,)
        elif isinstance(layer, Conv2d):
            if len(shape) != 3 or shape[0] != layer.in_ch:
                raise ShapeError(f"layer {idx} conv2d expects ({layer.in_ch},H,W), got {shape}")
            h, w = shape[1] - layer.kernel + 1, shape[2] - layer.kernel + 1
            if h <= 0 or w <= 0:
                raise ShapeError(f"layer {idx} conv2d kernel {layer.kernel} too large for {shape}")
            shape = (layer.out_ch, h, w)
        elif isinstance(layer, Flatten):
            shape = (int(np.prod(shape, dtype=np.int64)),)
    return shape


@dataclass
class AttachedSample:
    """A batch's per-sample gradients as one graph node above its input leaf:
    x is the (B, ...) input leaf and grads the node holding the (B, p)
    parameter-gradient rows."""

    graph: Graph
    x: Tensor
    grads: Tensor


class Batch:
    """Samples stacked and checked once by stack_batch: (B, ...) float
    inputs xs and their targets.  A slice is the Batch of consecutive
    samples, views of both arrays: no copy."""

    __slots__ = ("xs", "targets")

    def __init__(self, xs: np.ndarray, targets: np.ndarray):
        self.xs, self.targets = xs, targets

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, rows: slice) -> "Batch":
        return Batch(self.xs[rows], self.targets[rows])


def stack_batch(spec: ModelSpec, xs, ys, first: int = 0) -> Batch:
    """Inputs xs and targets ys as one Batch for spec: (B, ...) float inputs,
    and (B, *output shape) float targets for MSE or B labels for
    cross-entropy.  Every route takes its samples from here.  Inputs that
    do not stack are a ShapeError naming the first whose shape differs from
    xs[0]'s, as sample first + i: first is the index of xs[0] in a longer
    sequence."""
    try:
        xs = np.asarray(xs, dtype=np.float64)
    except ValueError:
        shapes = [np.shape(x) for x in xs]
        odd = next((i for i, shape in enumerate(shapes) if shape != shapes[0]), None)
        if odd is None:
            raise
        raise ShapeError(
            f"sample {first + odd} has input shape {shapes[odd]}, "
            f"sample {first} has {shapes[0]}"
        ) from None
    if xs.ndim < 2 or not xs.shape[0]:
        raise ShapeError(f"expected a non-empty batch of inputs, got shape {xs.shape}")
    out_shape = output_shape(spec, xs.shape[1:])
    if spec.loss == CROSS_ENTROPY and (len(out_shape) != 1 or out_shape[0] < 2):
        raise ShapeError(f"cross-entropy needs >=2 logits, model emits {out_shape}")
    n = xs.shape[0]
    if len(ys) != n:
        raise ShapeError(f"{n} inputs but {len(ys)} targets")
    if spec.loss == CROSS_ENTROPY:
        return Batch(xs, autodiff.check_labels(ys, n, out_shape[0]))
    try:
        targets = np.asarray(ys, dtype=np.float64)
    except ValueError:
        raise ShapeError(f"the {n} targets do not stack into one float array") from None
    if targets.size != n * math.prod(out_shape):
        raise ShapeError(
            f"targets of shape {targets.shape} do not fit {n} outputs of shape {out_shape}"
        )
    return Batch(xs, targets.reshape((n, *out_shape)))


def _buffer(work: Workspace | None, idx: int, name: str, shape: tuple, dtype=np.float64):
    """work's array named name for layer idx; None without one, and the kernel allocates."""
    return None if work is None else work.empty(f"{idx}.{name}", shape, dtype)


def _layer_records(
    spec: ModelSpec, params: ParamSet, xs: np.ndarray, work: Workspace | None = None
) -> tuple[np.ndarray, list]:
    """The model's (B, ...) outputs for inputs xs under the parameters'
    one-row tiles (ParamSet.tiles), in the autodiff numpy kernels, and per
    layer the record its adjoints read: a Linear layer's weights and input,
    a Conv2d layer's kernels, input patch matrix and input shape, an
    activation's slope (and a tanh's output), and Flatten's input shape.
    Every route runs its forward pass here.  Patch matrices, layer outputs
    and slopes come from work, under keys of their layer's index; the bias
    is added in place."""
    n = xs.shape[0]
    tiles = params.tiles()
    records = []
    h = xs
    for idx, layer in enumerate(spec.layers):
        w = tiles.get(f"{idx}.weight")
        if isinstance(layer, Linear):
            records.append((w, h))
            h = autodiff._linear_np(w, h, out=_buffer(work, idx, "out", (n, layer.out_dim)))
        elif isinstance(layer, Conv2d):
            k, (c, height, width) = layer.kernel, h.shape[1:]
            oh, ow = height - k + 1, width - k + 1
            cols = autodiff._im2col(h, k, out=_buffer(work, idx, "cols", (n, c * k * k, oh * ow)))
            records.append((w, cols, h.shape))
            out = _buffer(work, idx, "out", (n, layer.out_ch, oh, ow))
            h = autodiff._conv2d_np(w, cols, h.shape, out=out)
        elif isinstance(layer, Relu):
            slope = _buffer(work, idx, "slope", h.shape, bool)
            records.append((autodiff._relu_slope_np(h, out=slope), None))
            h = autodiff._relu_np(h, out=_buffer(work, idx, "out", h.shape))
        elif isinstance(layer, Tanh):
            h = np.tanh(h, out=_buffer(work, idx, "out", h.shape))
            slope = _buffer(work, idx, "slope", h.shape)
            # the output too: the tanh slope's derivative reads it
            records.append((autodiff._tanh_slope_np(h, out=slope), h))
        elif isinstance(layer, Softplus):
            slope = _buffer(work, idx, "slope", h.shape)
            records.append((autodiff._softplus_slope_np(h, out=slope), None))
            h = autodiff._softplus_np(h, out=_buffer(work, idx, "out", h.shape))
        elif isinstance(layer, Flatten):
            records.append(h.shape)
            h = h.reshape(n, h.size // n)
        if f"{idx}.bias" in tiles:
            autodiff._bias_add_np(h, tiles[f"{idx}.bias"], out=h)
    return h, records


def _batch_sum(a: np.ndarray) -> np.ndarray:
    """The sum over a's leading (batch) axis, sample after sample, as numpy
    sums (B, p) rows, p > 1: a block of one entry is summed by cumsum, since
    numpy sums a lone column pairwise."""
    a = a.reshape(len(a), -1)
    return a.sum(axis=0) if a.shape[1] > 1 else np.cumsum(a, axis=0)[-1]


def _reverse(
    spec: ModelSpec, params: ParamSet, records: list, g: np.ndarray, grads: np.ndarray | None,
    cotangents: list | None = None, moved: list | None = None, dtheta: np.ndarray | None = None,
    work: Workspace | None = None,
) -> tuple[np.ndarray, list]:
    """The reverse walk through _layer_records' records from the cotangent g
    of the model's (B, ...) outputs.  grads takes each weighted layer's
    gradients (in first order; their tangents in second): into (B, p) rows
    they are written through each block's view (ParamSet.columns; work
    keeps those of its own rows); into a (p,) total (summed mode, first
    order only) the batch sums are added.  Returns the cotangent it ends
    with and the per-layer cotangents.

    First order (cotangents None): g is the loss's cotangent; the walk
    records the output cotangents that second order reads and stops at
    the first weighted layer, whose weight block opens the layout, with no
    adjoint of its input (a model without one is walked to x).  The
    cotangents it carries down come from work, under keys of their
    layer's index.  Second order: g is that cotangent's tangent, and the
    walk adds the product rule's terms from the first-order cotangents, the
    input tangents moved (see _tangent_walk) and the parameter tangents
    dtheta; for dtheta it runs through the first layer to x.  It takes
    only a conv input adjoint's buffers from work.
    """
    first_order = cotangents is None
    cotangents = [None] * len(spec.layers) if first_order else cotangents
    keep = work if first_order else None
    # each block's columns of (B, p) rows; work keeps those of its own rows
    views = None if grads is None or grads.ndim == 1 else (
        params.views(grads) if work is None
        else work.kept(("rows", grads.shape), (params, grads), params.views, grads))
    for idx in range(len(spec.layers) - 1, -1, -1):
        layer, record = spec.layers[idx], records[idx]
        if first_order and not isinstance(layer, (Relu, Flatten)):  # what second order reads
            cotangents[idx] = g
        up = None if first_order else cotangents[idx]
        if isinstance(layer, (Linear, Conv2d)):
            w, inputs = record[:2]
            linear = isinstance(layer, Linear)
            if views is not None:
                if layer.bias:
                    views[f"{idx}.bias"][...] = autodiff._bias_adjoint_np(g)
                block = views[f"{idx}.weight"]
                if linear:  # g h^T straight into the rows' block
                    autodiff._linear_weight_adjoint_np(g, inputs, block)
                else:
                    block[...] = autodiff._conv2d_kernel_adjoint_np(g, inputs).reshape(block.shape)
                if not first_order:  # the moved input's term
                    adjoint = (autodiff._linear_weight_adjoint_np if linear
                               else autodiff._conv2d_kernel_adjoint_np)
                    block += adjoint(up, moved[idx]).reshape(block.shape)
            elif grads is not None:
                _add_batch_sums(params, grads, idx, layer, g, inputs, work)
            if dtheta is None and params.layout[0].name == f"{idx}.weight":
                break  # the layout opens with the first weighted layer: nothing flows below
            moving = None if dtheta is None else params.columns(dtheta, f"{idx}.weight")
            if linear:
                out = _buffer(keep, idx, "g", inputs.shape)
                g = autodiff._linear_input_adjoint_np(w, g, out=out)
                if moving is not None:
                    g += autodiff._linear_input_adjoint_np(moving, up)
            elif moving is None:
                out = _buffer(keep, idx, "g", record[2])
                g = autodiff._conv2d_input_adjoint_np(g, w, out=out, work=work)
            else:
                # W^T g' + W'^T g as one adjoint of the stacked operands
                # [g', g] and [W, W']: one GEMM per kernel offset, K = 2 O
                g = autodiff._conv2d_stacked_input_adjoint_np((g, up), (w, moving), work=work)
        elif isinstance(layer, Flatten):  # record: one sample's shape when broadcast
            g = g.reshape(len(g), *record[1:])
        else:
            slope, out = record
            g = np.multiply(g, slope, out=_buffer(keep, idx, "g", g.shape))
            if not first_order and moved[idx] is not None:
                bend = -2.0 * out * slope if isinstance(layer, Tanh) else slope * (1.0 - slope)
                g += up * bend * moved[idx]
    return g, cotangents


def _add_batch_sums(
    params: ParamSet, total: np.ndarray, idx: int, layer: Linear | Conv2d, g: np.ndarray,
    inputs: np.ndarray, work: Workspace | None,
) -> None:
    """Summed mode: add weighted layer idx's batch-summed gradients, from its
    output cotangent g and its record's inputs, into its blocks of total.
    The bias's and a conv kernel's are per-sample adjoints summed by
    _batch_sum, with the bits of their columns in the rows' sum; a Linear
    weight's is the one GEMM g^T h."""
    if layer.bias:
        params.columns(total, f"{idx}.bias")[...] += _batch_sum(autodiff._bias_adjoint_np(g))
    block = params.columns(total, f"{idx}.weight")
    if isinstance(layer, Linear):
        block += np.matmul(g.T, inputs, out=_buffer(work, idx, "dw", block.shape))
    else:
        n, o = g.shape[:2]
        adjoint = autodiff._conv2d_kernel_adjoint_np(
            g, inputs, out=_buffer(work, idx, "dw", (n, o, inputs.shape[1]))
        )
        block += _batch_sum(adjoint).reshape(block.shape)


def _loss_and_cotangent(spec: ModelSpec, h: np.ndarray, targets: np.ndarray):
    """Per-sample losses (B,) of the model's outputs h, and their cotangent
    in h: the loss adjoint at a unit seed, whose exact factor 1 is left out."""
    if spec.loss == MSE:
        return autodiff._mse_np(h, targets), (h - targets) * 2.0 * (1.0 / (h.size // len(h)))
    losses = autodiff._cross_entropy_np(h, targets)
    return losses, autodiff._softmax_np(h) - autodiff._onehot(targets, h.shape[1])


def _first_order(spec: ModelSpec, params: ParamSet, batch: Batch, grads: np.ndarray | None,
                 work: Workspace | None = None) -> tuple[np.ndarray, list, np.ndarray, list]:
    """Every route's prologue: _layer_records' outputs h and records of the
    Batch, its losses (B,), and by _reverse's first order (grads: (B, p)
    rows, a (p,) total or None) the output cotangents second order reads."""
    h, records = _layer_records(spec, params, batch.xs, work)
    losses, g = _loss_and_cotangent(spec, h, batch.targets)
    return h, records, losses, _reverse(spec, params, records, g, grads, work=work)[1]


def _rows(params: ParamSet, n: int, work: Workspace | None) -> np.ndarray:
    """Uninitialised (n, p) gradient rows: work's when given."""
    shape = (n, params.count)
    return np.empty(shape) if work is None else work.empty("rows", shape)


def per_sample_loss_and_grad(
    spec: ModelSpec, params: ParamSet, batch: Batch, work: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses (B,) and parameter gradients (B, p), without a tape.
    Given work, the rows and the large temporaries are its arrays, valid
    until the next call with it; the losses are not."""
    rows = _rows(params, len(batch), work)
    return _first_order(spec, params, batch, rows, work)[2], rows


def loss_and_grad_sum(
    spec: ModelSpec, params: ParamSet, batch: Batch, total: np.ndarray, work: Workspace
) -> np.ndarray:
    """Per-sample losses (B,) of a Batch; the sum of its B parameter
    gradients is added into the (p,) total in place, by _reverse's summed
    mode: no (B, p) row is formed.  The forward pass, and so each loss, is
    per_sample_loss_and_grad's to the bit.  Large temporaries come from
    work, which the next call reuses; the losses do not."""
    return _first_order(spec, params, batch, total, work)[2]


def _tangent_walk(
    spec: ModelSpec, params: ParamSet, h: np.ndarray, records: list, cotangents: list,
    dx: np.ndarray | None = None, dtheta: np.ndarray | None = None, work: Workspace | None = None,
) -> np.ndarray:
    """Tangents of the loss gradient, forward-over-reverse through
    _layer_records' outputs h and records and _first_order's cotangents,
    without a tape.  Given work, the patch matrices along dtheta and the
    conv adjoints' buffers are its arrays; the result is not.

    Takes one of two kinds of tangents, one per row of the B-sample batch:
      * dx, (B, *input shape) input directions (or n over one sample's
        records, broadcast): the (B, p) tangents of grad_theta, J_i dx[i];
      * dtheta, (B, p) parameter tangents: returns
        the (B, *input shape) tangents of grad_x, J_i^T dtheta[i] in row i
        (d/dt grad_x L(theta + t dtheta[i]) is d/dx <grad_theta L, dtheta[i]>).
    The tangents ride along the primal values through the same kernels, each
    linear in its tangent operand.  Forward, a weighted layer's output moves
    by W h' + W' h + b' (h' is 0 at the input for dtheta; W' and b' are 0 for
    dx), an activation's by its slope times h'.  The loss's cotangent moves
    by the softmax Jacobian for cross-entropy and by 2/k for MSE over k
    outputs.  Reverse, _reverse carries that tangent down, with the
    product rule's terms where a primal value moves: a weight adjoint's
    input (g' h^T + g h'^T, and the kernel adjoint of im2col(h')), an input
    adjoint's weights (W^T g' + W'^T g; a conv takes both as one input
    adjoint of the stacked operands) and an activation's slope (its derivative
    -2t(1 - t^2) for tanh, s(1 - s) for softplus, 0 for relu).  For dtheta
    the walk runs through the first layer to x.
    """
    n = len(h if dx is None else dx)
    # per layer, the input tangent _reverse reads (a conv's as patches), else None
    dh, moved = dx, []
    for idx, (layer, record) in enumerate(zip(spec.layers, records)):
        if isinstance(layer, (Linear, Conv2d)):
            w, inputs = record[:2]
            apply = autodiff._linear_np
            if isinstance(layer, Conv2d):
                apply = functools.partial(autodiff._conv2d_np, image_shape=record[2])
                if dh is not None:  # read once along dtheta: the adjoints' grid is idle
                    cols = None if work is None or dtheta is None else work.empty("grid", inputs.shape)
                    dh = autodiff._im2col(dh, layer.kernel, cols)
            moved.append(dh if dtheta is None else None)
            dh = None if dh is None else apply(w, dh)
            if dtheta is not None:
                term = apply(params.columns(dtheta, f"{idx}.weight"), inputs)
                dh = term if dh is None else np.add(dh, term, out=dh)
                if layer.bias:
                    autodiff._bias_add_np(dh, params.columns(dtheta, f"{idx}.bias"), out=dh)
        elif isinstance(layer, Flatten):
            moved.append(None)
            dh = None if dh is None else dh.reshape(n, dh.size // n)
        else:
            moved.append(None if isinstance(layer, Relu) else dh)
            dh = None if dh is None else dh * record[0]
    if dh is None:  # no weighted layer: nothing moves
        dh = np.zeros_like(h)
    if spec.loss == MSE:  # affine in h: the tangent is the cotangent of dh at target 0
        dg = dh * 2.0 * (1.0 / (dh.size // n))
    else:
        dg = autodiff._softmax_jvp_np(autodiff._softmax_np(h), dh)
    tangents = np.empty((n, params.count)) if dtheta is None else None
    dg = _reverse(spec, params, records, dg, tangents, cotangents, moved, dtheta, work)[0]
    return dg if tangents is None else tangents


def attach_sample(spec: ModelSpec, params: ParamSet, batch: Batch,
                  work: Workspace | None = None) -> AttachedSample:
    """A Batch of B samples as their input leaf and one node above it
    holding per_sample_loss_and_grad's (B, p) rows.

    One forward pass serves both directions: the node's value comes from
    _first_order, and its rule maps a (B, p) cotangent array c to the
    array of rows J_i^T c_i, from _tangent_walk on the same records.  Given
    work, the rows too are its arrays, valid until the next call with it.
    """
    rows = _rows(params, len(batch), work)
    h, records, _, cotangents = _first_order(spec, params, batch, rows, work)
    graph = Graph()
    x = graph.leaf(batch.xs)

    def rule(grad: np.ndarray, x: np.ndarray):
        return (_tangent_walk(spec, params, h, records, cotangents, dtheta=grad, work=work),)

    return AttachedSample(graph, x, autodiff._record("per-sample-grad", rows, (x,), rule))


def grad_tangents(spec: ModelSpec, params: ParamSet, batch: Batch, directions) -> np.ndarray:
    """(n, p) tangents of a Batch's parameter gradients along n input
    directions, one per sample, or all n at the sample of a one-sample Batch.

    Row i is d/dt grad_theta loss(xs[i] + t directions[i]) at t = 0 (xs[0]
    for one sample), the gradient's input Jacobian applied to directions[i];
    unit directions give its columns.  _first_order runs the forward pass
    once and gives the cotangents (no rows), along which _tangent_walk
    carries the directions: one sample's records broadcast over n
    directions, with the bits of n stacked copies."""
    directions = np.asarray(directions, dtype=np.float64)
    n = len(directions) if directions.ndim else 0
    if not n or directions.shape[1:] != batch.xs.shape[1:] or len(batch) not in (1, n):
        raise ShapeError(f"input directions of shape {directions.shape} do not fit inputs "
                         f"of shape {batch.xs.shape}")
    h, records, _, cotangents = _first_order(spec, params, batch, None)
    return _tangent_walk(spec, params, h, records, cotangents, dx=directions)


def per_sample_grad(spec: ModelSpec, params: ParamSet, x, y) -> Tensor:
    """One sample's detached flat parameter gradient."""
    return Tensor(per_sample_loss_and_grad(spec, params, stack_batch(spec, [x], [y]))[1][0])


# --------------------------------------------------------------------------
# checkpoint serialization (magic "PLCK")
# --------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"PLCK"
CHECKPOINT_VERSION = 1


# tag of each layer class in the spec text; a layer's descriptor is its tag
# followed by every dataclass field as an integer, in declaration order
_LAYER_TAGS = {
    "linear": Linear,
    "conv2d": Conv2d,
    "relu": Relu,
    "tanh": Tanh,
    "softplus": Softplus,
    "flatten": Flatten,
}


def spec_to_text(spec: ModelSpec) -> str:
    tags = {cls: tag for tag, cls in _LAYER_TAGS.items()}
    parts = [
        ":".join([tags[type(layer)]] + [str(int(getattr(layer, f.name))) for f in fields(layer)])
        for layer in spec.layers
    ]
    return ";".join(parts) + "|" + spec.loss


def _field_value(name: str, text: str) -> int | bool:
    value = int(text)
    if name != "bias":
        return value
    if value not in (0, 1):
        raise ValueError(f"bias must be 0 or 1, got {value}")
    return bool(value)


def spec_from_text(text: str) -> ModelSpec:
    try:
        layers_text, loss = text.rsplit("|", 1)
    except ValueError:
        raise DataFormatError(f"model spec text lacks a loss section: {text!r}") from None
    layers: list[Layer] = []
    for part in layers_text.split(";"):
        tag, *values = part.split(":")
        cls = _LAYER_TAGS.get(tag)
        if cls is None:
            raise DataFormatError(f"unknown layer kind {tag!r}")
        try:
            args = [_field_value(f.name, v) for f, v in zip(fields(cls), values, strict=True)]
            layers.append(cls(*args))
        except (ValueError, ConfigError):
            raise DataFormatError(f"malformed layer descriptor {part!r}") from None
    return ModelSpec(tuple(layers), loss)


def _check_finite(flat: np.ndarray) -> None:
    finite = np.isfinite(flat)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DataFormatError(f"checkpoint parameter {i} is not finite: {float(flat[i])}")


def save_checkpoint(path, spec: ModelSpec, params: ParamSet) -> None:
    _check_finite(params.flat)
    spec_bytes = spec_to_text(spec).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(spec_bytes)))
        fh.write(spec_bytes)
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> tuple[ModelSpec, ParamSet]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise DataFormatError(f"bad checkpoint magic at byte 0: {blob[:4]!r}")
    if len(blob) < 12:
        raise DataFormatError(f"checkpoint truncated at byte {len(blob)}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version}")
    (spec_len,) = struct.unpack_from("<I", blob, 8)
    if len(blob) < 12 + spec_len:
        raise DataFormatError(f"checkpoint truncated at byte {len(blob)}")
    try:
        spec_text = blob[12 : 12 + spec_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"checkpoint spec is not UTF-8 at byte {12 + exc.start}") from None
    spec = spec_from_text(spec_text)
    layout = layout_for(spec)
    expected = sum(b.size for b in layout) * 8
    payload = blob[12 + spec_len :]
    if len(payload) != expected:
        raise DataFormatError(
            f"checkpoint parameter payload is {len(payload)} bytes at offset "
            f"{12 + spec_len}, expected {expected}"
        )
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    _check_finite(flat)
    return spec, ParamSet(flat, layout)
