"""Small supervised models (linear, MLP, CNN) and per-sample losses.

Parameters live in one flat vector, laid out block by block; the
gradient with respect to all parameters comes back as a single flat
tensor.  Inputs are always registered as graph leaves, since every
analysis in this package differentiates with respect to them.

Batch axis: attach_sample() is the one graph builder.  It takes B samples
stacked on a leading axis and tiles each parameter block into a (B, ...)
leaf, so sample i's loss depends only on row i of the parameters and of
the inputs.  The gradient of the summed loss then holds each sample's
parameter gradient in its own row (parameter_grad() joins the blocks into
(B, p) rows), and a second backward pass of any per-row quantity built
from those rows returns each sample's input gradient in its row of X.
One sample is a batch of one.  Callers build graphs over at most
chunk_size(params) samples at a time.

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
    add,
    broadcast,
    concat,
    conv2d,
    div,
    matmul,
    relu,
    reshape,
    softplus,
    square,
    sub,
    tanh,
    tslice,
    tsum,
)
from .errors import ConfigError, DataFormatError, ShapeError

MSE = "mse"
CROSS_ENTROPY = "cross_entropy"

_INIT_STREAM = 1 << 40  # keep layer-init draws disjoint from other uses of a seed

# Parameter-gradient entries per graph.  A graph's memory grows with
# samples x parameters: a PLIS chunk of the CLI's CNN (19,682 parameters)
# peaks near 5 MB per sample, so 2^17 entries give it chunks of 6 samples
# (about 30 MB); a 16-parameter linear model gets chunks of 8192, so its
# per-op Python overhead is paid once per batch, not once per sample.
CHUNK_ENTRIES = 1 << 17


def chunk_size(params: ParamSet) -> int:
    """Samples per graph for this model."""
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
        u = rng.uniforms(seed, _INIT_STREAM + idx, block.size)
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
        if isinstance(layer, Linear):
            z = matmul(params[f"{idx}.weight"], reshape(h, (n, layer.in_dim, 1)))
            h = reshape(z, (n, layer.out_dim))
            if layer.bias:
                h = add(h, params[f"{idx}.bias"])
        elif isinstance(layer, Conv2d):
            h = conv2d(h, params[f"{idx}.weight"])
            if layer.bias:
                b = reshape(params[f"{idx}.bias"], (n, layer.out_ch, 1, 1))
                h = add(h, broadcast(b, h.shape))
        elif isinstance(layer, Relu):
            h = relu(h)
        elif isinstance(layer, Tanh):
            h = tanh(h)
        elif isinstance(layer, Softplus):
            h = softplus(h)
        elif isinstance(layer, Flatten):
            h = reshape(h, (n, h.size // n))
    return h


def _loss_tensor(spec: ModelSpec, prediction: Tensor, ys) -> Tensor:
    """Per-sample losses (B,) for predictions (B, ...) and B targets."""
    n = prediction.shape[0]
    k = prediction.size // n
    if spec.loss == MSE:
        target = np.asarray(ys, dtype=np.float64).reshape(prediction.shape)
        per_row = tuple(range(1, prediction.data.ndim))
        return div(tsum(square(sub(prediction, Tensor(target))), axes=per_row), float(k))
    # cross-entropy as log-sum-exp minus the selected logit, where
    # log-sum-exp is folded pairwise through softplus for stability:
    # lse(a, b) = a + softplus(b - a)
    labels = np.asarray(ys).reshape(-1).astype(np.int64)
    bad = labels[(labels < 0) | (labels >= k)]
    if bad.size:
        raise ShapeError(f"label {int(bad[0])} out of range for {k} logits")
    acc = tslice(prediction, (slice(None), 0))
    for i in range(1, k):
        zi = tslice(prediction, (slice(None), i))
        acc = add(acc, softplus(sub(zi, acc)))
    return sub(acc, tslice(prediction, (np.arange(n), labels)))


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


def attach_sample(spec: ModelSpec, params: ParamSet, xs, ys) -> AttachedSample:
    """Build the loss graph for B samples stacked in xs (B, ...) with targets ys (B, ...)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim < 2 or not xs.shape[0]:
        raise ShapeError(f"expected a non-empty batch of inputs, got shape {xs.shape}")
    out_shape = output_shape(spec, xs.shape[1:])
    if spec.loss == CROSS_ENTROPY and (len(out_shape) != 1 or out_shape[0] < 2):
        raise ShapeError(f"cross-entropy needs >=2 logits, model emits {out_shape}")
    n = xs.shape[0]
    if len(ys) != n:
        raise ShapeError(f"{n} inputs but {len(ys)} targets")
    graph = Graph()
    blocks = [
        graph.leaf(np.broadcast_to(params.flat[b.offset : b.offset + b.size].reshape(b.shape),
                                   (n,) + b.shape))
        for b in params.layout
    ]
    x_leaf = graph.leaf(xs)
    pred = forward(spec, {b.name: t for b, t in zip(params.layout, blocks)}, x_leaf)
    losses = _loss_tensor(spec, pred, ys)
    return AttachedSample(graph, blocks, x_leaf, pred, losses, tsum(losses))


def parameter_grad(sample: AttachedSample, create_graph: bool = False) -> Tensor:
    """(B, p) per-sample parameter gradients of sample.loss, one backward pass.

    Each block's gradient is computed at its own size and the blocks are
    joined once; slicing one flat (B, p) leaf instead would cost a (B, p)
    array per block on the way back.
    """
    # looked up on the module at call time, so a wrapper installed on
    # autodiff.backward also sees these passes
    grads = autodiff.backward(sample.loss, sample.params, create_graph=create_graph)
    n = sample.x.shape[0]
    return concat([reshape(g, (n, g.size // n)) for g in grads], axis=1)


def per_sample_loss_and_grad(
    spec: ModelSpec, params: ParamSet, xs, ys
) -> tuple[np.ndarray, np.ndarray]:
    """Detached per-sample losses (B,) and parameter gradients (B, p) from one backward pass."""
    sample = attach_sample(spec, params, xs, ys)
    return sample.losses.data, parameter_grad(sample).data


def per_sample_loss(spec: ModelSpec, params: ParamSet, x, y) -> Tensor:
    """One sample's scalar loss tensor, attached to its graph's parameter and input leaves."""
    return attach_sample(spec, params, [x], [y]).loss


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


def save_checkpoint(path, spec: ModelSpec, params: ParamSet) -> None:
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
    return spec, ParamSet(flat, layout)
