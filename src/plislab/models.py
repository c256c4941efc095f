"""Small supervised models (linear, MLP, CNN) and per-sample losses.

Parameters live in one flat vector, laid out block by block; the
gradient with respect to all parameters comes back as a single flat
tensor.

Batch axis: every route takes B samples stacked on a leading axis and
tiles each parameter block into a (B, ...) array, so sample i's loss
depends only on row i of the parameters and of the inputs.  The tiles
are read-only views with batch stride 0, so no parameter is copied per
sample.  One sample is a batch of one.  Callers pass at most
chunk_size(params) samples at a time.

Two routes, one arithmetic.  per_sample_loss_and_grad() computes the B
losses and (B, p) parameter-gradient rows without a tape: all DP-SGD
needs is first order.  grad_tangents() differentiates those rows once more
in the input, forward-mode and without a tape: it returns columns of the
input Jacobian that FIM, FIL and JacSens read.  Both run their forward
pass in _layer_records, whose per-layer records hold what the adjoints
read.  attach_sample() builds the loss graph, for what is differentiated
twice in reverse (PLIS and the attack objective): its inputs are graph
leaves, since every analysis differentiates with respect to them.
parameter_grad() returns the same rows from one backward pass (one concat
node flattens and joins the blocks), and a second backward pass of any
per-row quantity built from them returns each sample's input gradient in
its row of X.  Every route checks a batch in _checked_batch and runs the
same autodiff numpy kernels, so the tape's and the tape-free losses and
rows agree to the bit.

Graph lifetime: a graph is freed by reference counting once the caller
drops the AttachedSample and every tensor on its graph.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff, rng
from .autodiff import (
    Graph,
    Tensor,
    bias_add,
    concat,
    conv2d,
    cross_entropy,
    linear,
    mse,
    relu,
    reshape,
    softplus,
    tanh,
    tsum,
)
from .errors import ConfigError, DataFormatError, ShapeError

MSE = "mse"
CROSS_ENTROPY = "cross_entropy"

# Parameter-gradient entries per chunk, a graph or a tape-free call.
# Memory grows with samples x parameters: a PLIS chunk of the CLI's CNN
# (19,682 parameters) peaks near 5 MB per sample, so 2^17 entries give it
# chunks of 6 samples (about 30 MB); a 16-parameter linear model gets
# chunks of 8192, so its per-op Python overhead is paid once per batch,
# not once per sample.  Larger chunks do not speed up a CNN step.
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

    @property
    def size(self) -> int:
        return math.prod(self.shape)


@dataclass
class ParamSet:
    """Flattened parameter vector plus the per-layer layout."""

    flat: np.ndarray
    layout: tuple[ParamBlock, ...]

    def __post_init__(self):
        self.flat = np.asarray(self.flat, dtype=np.float64)
        if self.flat.ndim != 1:
            raise ShapeError("ParamSet.flat must be one-dimensional")
        total = sum(b.size for b in self.layout)
        if total != self.flat.size:
            raise ShapeError(
                f"layout covers {total} entries but flat has {self.flat.size}"
            )

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
    flat = np.zeros(sum(b.size for b in layout))
    for idx, layer in enumerate(spec.layers):
        if isinstance(layer, Linear):
            fan_in, fan_out = layer.in_dim, layer.out_dim
        elif isinstance(layer, Conv2d):
            fan_in = layer.in_ch * layer.kernel * layer.kernel
            fan_out = layer.out_ch * layer.kernel * layer.kernel
        else:
            continue
        a = np.sqrt(6.0 / (fan_in + fan_out))
        block = next(b for b in layout if b.name == f"{idx}.weight")
        u = rng.uniforms(seed, rng.INIT_STREAM + idx, block.size)
        flat[block.offset : block.offset + block.size] = (2.0 * u - 1.0) * a
    return ParamSet(flat, layout)


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


def forward(spec: ModelSpec, params: dict[str, Tensor], x: Tensor) -> Tensor:
    """Model outputs (B, ...) for inputs x (B, ...) under per-row parameter
    blocks params[name] (B, *block shape)."""
    n = x.shape[0]
    h = x
    for idx, layer in enumerate(spec.layers):
        if isinstance(layer, (Linear, Conv2d)):
            w = params[f"{idx}.weight"]
            h = linear(w, h) if isinstance(layer, Linear) else conv2d(h, w)
            if layer.bias:
                h = bias_add(h, params[f"{idx}.bias"])
        elif isinstance(layer, Relu):
            h = relu(h)
        elif isinstance(layer, Tanh):
            h = tanh(h)
        elif isinstance(layer, Softplus):
            h = softplus(h)
        elif isinstance(layer, Flatten):
            h = reshape(h, (n, h.size // n))
    return h


def _loss_tensor(spec: ModelSpec, prediction: Tensor, targets: np.ndarray) -> Tensor:
    """Per-sample losses (B,) for predictions (B, ...) and _checked_batch's targets."""
    if spec.loss == MSE:
        return mse(prediction, targets)
    # log-sum-exp minus the selected logit as one node, whatever k is; its
    # rule goes through softmax, so the loss is differentiable to any order
    return cross_entropy(prediction, targets)


@dataclass
class AttachedSample:
    """A batch's losses on one graph, with its differentiable leaves.

    params holds one (B, *block shape) leaf per parameter block, in layout
    order, and x is the (B, ...) input leaf; losses holds the B per-sample
    losses and loss their sum.
    """

    graph: Graph
    params: list[Tensor]
    x: Tensor
    prediction: Tensor
    losses: Tensor
    loss: Tensor


def _tiled(flat: np.ndarray, block: ParamBlock, n: int) -> np.ndarray:
    """A read-only (n, *block.shape) view of block's entries of the contiguous
    flat, every row the same entries (batch stride 0)."""
    size = flat.itemsize
    strides = [size * math.prod(block.shape[i + 1 :]) for i in range(len(block.shape))]
    view = np.ndarray((n, *block.shape), flat.dtype, flat, block.offset * size, (0, *strides))
    view.flags.writeable = False
    return view


def _checked_batch(spec: ModelSpec, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """(B, ...) float inputs and their targets: (B, *output shape) floats
    for MSE, B labels for cross-entropy.  Both routes to a loss check here."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim < 2 or not xs.shape[0]:
        raise ShapeError(f"expected a non-empty batch of inputs, got shape {xs.shape}")
    out_shape = output_shape(spec, xs.shape[1:])
    if spec.loss == CROSS_ENTROPY and (len(out_shape) != 1 or out_shape[0] < 2):
        raise ShapeError(f"cross-entropy needs >=2 logits, model emits {out_shape}")
    n = xs.shape[0]
    if len(ys) != n:
        raise ShapeError(f"{n} inputs but {len(ys)} targets")
    if spec.loss == CROSS_ENTROPY:
        return xs, autodiff.check_labels(ys, n, out_shape[0])
    try:
        targets = np.asarray(ys, dtype=np.float64)
    except ValueError:
        raise ShapeError(f"the {n} targets do not stack into one float array") from None
    if targets.size != n * math.prod(out_shape):
        raise ShapeError(
            f"targets of shape {targets.shape} do not fit {n} outputs of shape {out_shape}"
        )
    return xs, targets.reshape((n, *out_shape))


def attach_sample(spec: ModelSpec, params: ParamSet, xs, ys) -> AttachedSample:
    """Build the loss graph for B samples stacked in xs (B, ...) with targets ys (B, ...)."""
    xs, targets = _checked_batch(spec, xs, ys)
    n = xs.shape[0]
    graph = Graph()
    flat = np.ascontiguousarray(params.flat)
    blocks = [graph.leaf(_tiled(flat, b, n)) for b in params.layout]
    x_leaf = graph.leaf(xs)
    pred = forward(spec, {b.name: t for b, t in zip(params.layout, blocks)}, x_leaf)
    losses = _loss_tensor(spec, pred, targets)
    return AttachedSample(graph, blocks, x_leaf, pred, losses, tsum(losses))


def parameter_grad(sample: AttachedSample, create_graph: bool = False) -> Tensor:
    """(B, p) per-sample parameter gradients of sample.loss, one backward pass.

    Each block's gradient is computed at its own size and concat flattens
    and joins the blocks in one node; slicing one flat (B, p) leaf instead
    would cost a (B, p) array per block on the way back.
    """
    # looked up on the module at call time, so a wrapper installed on
    # autodiff.backward also sees these passes
    return concat(autodiff.backward(sample.loss, sample.params, create_graph=create_graph))


def _layer_records(spec: ModelSpec, params: ParamSet, xs: np.ndarray) -> tuple[np.ndarray, list]:
    """The model's (B, ...) outputs for inputs xs under tiled views of the
    parameters, in the autodiff numpy kernels, and per layer the record its
    adjoints read: a Linear layer's weights and input, a Conv2d layer's
    kernels and input patch matrix, an activation's slope (and a tanh's
    output), and Flatten's input shape.  Both tape-free routes run their
    forward pass here."""
    n = xs.shape[0]
    flat = np.ascontiguousarray(params.flat)
    blocks = {b.name: b for b in params.layout}
    records = []
    h = xs
    for idx, layer in enumerate(spec.layers):
        if isinstance(layer, Linear):
            w = _tiled(flat, blocks[f"{idx}.weight"], n)
            records.append((w, h))
            h = autodiff._linear_np(w, h)
        elif isinstance(layer, Conv2d):
            w = _tiled(flat, blocks[f"{idx}.weight"], n)
            cols = autodiff._im2col(h, layer.kernel)
            records.append((w, cols))
            h = autodiff._conv2d_np(w, cols, h.shape)
        elif isinstance(layer, Relu):
            records.append((autodiff._relu_slope_np(h), None))
            h = autodiff._relu_np(h)
        elif isinstance(layer, Tanh):
            h = np.tanh(h)
            # the output too: the tanh slope's derivative reads it
            records.append((autodiff._tanh_slope_np(h), h))
        elif isinstance(layer, Softplus):
            records.append((autodiff._softplus_slope_np(h), None))
            h = autodiff._softplus_np(h)
        elif isinstance(layer, Flatten):
            records.append(h.shape)
            h = h.reshape(n, h.size // n)
        if isinstance(layer, (Linear, Conv2d)) and layer.bias:
            h = autodiff._bias_add_np(h, _tiled(flat, blocks[f"{idx}.bias"], n))
    return h, records


def _block_writer(params: ParamSet, rows: np.ndarray):
    """put(name, value): write value, (B, *block shape), into the named block's
    columns of the (B, p) rows."""
    blocks = {b.name: b for b in params.layout}

    def put(name: str, value: np.ndarray) -> None:
        block = blocks[name]
        rows[:, block.offset : block.offset + block.size] = value.reshape(rows.shape[0], -1)

    return put


def _first_weighted(spec: ModelSpec) -> int:
    """Index of the first Linear or Conv2d layer: no adjoint of its input is needed."""
    return min(
        (i for i, layer in enumerate(spec.layers) if isinstance(layer, (Linear, Conv2d))),
        default=len(spec.layers),
    )


def per_sample_loss_and_grad(
    spec: ModelSpec, params: ParamSet, xs, ys
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses (B,) and parameter gradients (B, p), without a tape.

    The same values as attach_sample's losses and parameter_grad's rows,
    to the bit: _layer_records runs the forward pass in the autodiff
    kernels on the same tiled parameter views; the reverse walk writes
    each block's gradient into its columns of the (B, p) result and, like
    the tape's pruning, computes no adjoint of the first layer's input.
    """
    xs, targets = _checked_batch(spec, xs, ys)
    n = xs.shape[0]
    h, records = _layer_records(spec, params, xs)
    ones = np.ones(n)
    if spec.loss == MSE:
        losses, g = autodiff._mse_np(h, targets), autodiff._mse_adjoint_np(ones, h, targets)
    else:
        losses = autodiff._cross_entropy_np(h, targets)
        g = autodiff._cross_entropy_adjoint_np(ones, h, targets)

    grads = np.empty((n, params.count))
    put = _block_writer(params, grads)
    first = _first_weighted(spec)
    for idx in range(len(spec.layers) - 1, first - 1, -1):
        layer = spec.layers[idx]
        if isinstance(layer, (Linear, Conv2d)):
            if layer.bias:
                put(f"{idx}.bias", autodiff._bias_adjoint_np(g))
            w, inputs = records[idx]
            if isinstance(layer, Linear):
                put(f"{idx}.weight", autodiff._linear_weight_adjoint_np(g, inputs))
                if idx > first:
                    g = autodiff._linear_input_adjoint_np(w, g)
            else:
                put(f"{idx}.weight", autodiff._conv2d_kernel_adjoint_np(g, inputs))
                if idx > first:
                    g = autodiff._conv2d_input_adjoint_np(g, w)
        elif isinstance(layer, Flatten):
            g = g.reshape(records[idx])
        else:
            g = g * records[idx][0]
    return losses, grads


def grad_tangents(spec: ModelSpec, params: ParamSet, x, y, directions) -> np.ndarray:
    """(n, p) tangents of one sample's parameter gradient along n input directions.

    Row r is d/dt grad_theta loss(x + t directions[r]) at t = 0, the input
    Jacobian of the gradient applied to directions[r]; unit directions give
    its columns.  Forward mode, without a tape: _layer_records runs the
    sample's forward pass once, at batch 1, and the directions ride along it
    as a batch of n tangents through the same kernels, each linear in its
    tangent operand.  The reverse walk carries every cotangent's tangent
    beside it, adding the product rule's terms where a primal value other
    than the weights moves with x: a weight adjoint's input (g' h^T + g h'^T,
    and the kernel adjoint of im2col(h')) and an activation's slope (its
    derivative -2t(1 - t^2) for tanh, s(1 - s) for softplus, 0 for relu).
    The loss's cotangent moves by the softmax Jacobian for cross-entropy and
    by 2/k for MSE over k outputs.
    """
    xs, targets = _checked_batch(spec, [x], [y])
    directions = np.asarray(directions, dtype=np.float64)
    if directions.shape[1:] != xs.shape[1:]:
        raise ShapeError(
            f"input directions of shape {directions.shape} do not fit an input of shape {xs.shape[1:]}"
        )
    n = directions.shape[0]
    h, records = _layer_records(spec, params, xs)

    def tiled(w: np.ndarray) -> np.ndarray:
        return np.broadcast_to(w, (n, *w.shape[1:]))

    dh, moved = directions, []  # per layer, its input's tangent (a conv's: as patches)
    for layer, record in zip(spec.layers, records):
        if isinstance(layer, Linear):
            moved.append(dh)
            dh = autodiff._linear_np(tiled(record[0]), dh)
        elif isinstance(layer, Conv2d):
            moved.append(autodiff._im2col(dh, layer.kernel))
            dh = autodiff._conv2d_np(tiled(record[0]), moved[-1], dh.shape)
        elif isinstance(layer, Flatten):
            moved.append(None)
            dh = dh.reshape(n, dh.size // n)
        else:
            moved.append(dh)
            dh = dh * record[0]
        # a bias add moves its output by its input's tangent alone
    if spec.loss == MSE:
        g = autodiff._mse_adjoint_np(np.ones(1), h, targets)
        # the adjoint is affine in the prediction: its tangent is the adjoint at target 0
        dg = autodiff._mse_adjoint_np(np.ones(n), dh, 0.0)
    else:
        g = autodiff._cross_entropy_adjoint_np(np.ones(1), h, targets)
        dg = autodiff._softmax_jvp_np(autodiff._softmax_np(h), dh)

    tangents = np.empty((n, params.count))
    put = _block_writer(params, tangents)
    first = _first_weighted(spec)
    for idx in range(len(spec.layers) - 1, first - 1, -1):
        layer, record, dinput = spec.layers[idx], records[idx], moved[idx]
        if isinstance(layer, (Linear, Conv2d)):
            if layer.bias:
                put(f"{idx}.bias", autodiff._bias_adjoint_np(dg))
            w, inputs = record
            if isinstance(layer, Linear):
                adjoint = autodiff._linear_weight_adjoint_np
                put(f"{idx}.weight", adjoint(dg, inputs) + adjoint(g, dinput))
                if idx > first:
                    g = autodiff._linear_input_adjoint_np(w, g)
                    dg = autodiff._linear_input_adjoint_np(tiled(w), dg)
            else:
                adjoint = autodiff._conv2d_kernel_adjoint_np
                put(f"{idx}.weight", adjoint(dg, inputs) + adjoint(g, dinput))
                if idx > first:
                    g = autodiff._conv2d_input_adjoint_np(g, w)
                    dg = autodiff._conv2d_input_adjoint_np(dg, tiled(w))
        elif isinstance(layer, Flatten):
            g, dg = g.reshape(record), dg.reshape((n, *record[1:]))
        else:
            slope, out = record
            dg = dg * slope
            if not isinstance(layer, Relu):
                bend = -2.0 * out * slope if isinstance(layer, Tanh) else slope * (1.0 - slope)
                dg += g * bend * dinput
            g = g * slope
    return tangents


def per_sample_grad(spec: ModelSpec, params: ParamSet, x, y) -> Tensor:
    """One sample's detached flat parameter gradient."""
    return Tensor(per_sample_loss_and_grad(spec, params, [x], [y])[1][0])


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
