"""Gradient correctness for the tape engine and the layer kernels.

Every tape op is checked against central finite differences.  Every
numpy layer kernel's adjoints, which the reverse walks apply, are checked
against central differences of the kernel, and the forward-over-reverse
rules the tangent walk applies to those adjoints are checked against
central differences of a squared gradient norm.  Kink ops (relu,
max-with-scalar) are sampled away from their kinks.
"""

import tracemalloc

import numpy as np
import pytest

from plislab import autodiff as ad, datasets, dpsgd, models, plis
from plislab.errors import GraphError, ShapeError


def _away_from_zero(rng, shape, margin=0.1):
    x = rng.uniform(margin, 1.5, size=shape)
    return x * rng.choice([-1.0, 1.0], size=shape)


def test_add_componentwise():
    out = ad.add(ad.Tensor([1.0, 2.0]), ad.Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_linear_identity():
    eye = np.stack([np.eye(2)] * 2)
    h = np.array([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(ad._linear_np(eye, h), h)


def _conv(images, kernels):
    """The conv2d kernel on images (B,C,H,W) with per-row kernels (B,O,C,k,k)."""
    return ad._conv2d_np(kernels, ad._im2col(images, kernels.shape[3]), images.shape)


def test_conv2d_ones_against_direct_summation():
    image = np.ones((1, 5, 5))
    kernel = np.ones((1, 1, 3, 3))
    out = _conv(image[None], kernel[None])[0]
    # oracle: direct summation over every valid window
    expected = np.zeros((1, 3, 3))
    for i in range(3):
        for j in range(3):
            expected[0, i, j] = image[0, i : i + 3, j : j + 3].sum()
    np.testing.assert_allclose(out, expected)
    np.testing.assert_allclose(out, 9.0)


def test_conv2d_random_against_direct_summation():
    # a batch of two images, each with its own kernels
    rng = np.random.default_rng(3)
    image = rng.normal(size=(2, 2, 6, 5))
    kernel = rng.normal(size=(2, 3, 2, 3, 3))
    out = _conv(image, kernel)
    expected = np.zeros((2, 3, 4, 3))
    for b in range(2):
        for o in range(3):
            for i in range(4):
                for j in range(3):
                    window = image[b, :, i : i + 3, j : j + 3]
                    expected[b, o, i, j] = (window * kernel[b, o]).sum()
    np.testing.assert_allclose(out, expected, rtol=1e-12)
    # the gemm after _im2col runs several times slower on a strided patch matrix
    assert ad._im2col(image, 3).flags.c_contiguous


def test_dx_x_squared_at_3():
    g = ad.Graph()
    x = g.leaf(3.0)
    (grad,) = ad.backward(ad.square(x), [x])
    assert grad.data == pytest.approx(6.0)


def test_relu_subgradient_zero_at_negatives():
    x = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(ad._relu_np(x), [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(ad._relu_slope_np(x), [0.0, 0.0, 1.0])


def test_finite_diff_check_sum_of_squares():
    err = ad.finite_diff_check(lambda t: ad.tsum(ad.square(t)), np.array([1.0, 2.0, 3.0]))
    assert err < 1e-6


def test_finite_diff_check_constant_function():
    err = ad.finite_diff_check(lambda t: ad.Tensor(4.2), np.array([1.0, 2.0]))
    assert err == 0.0


ELEMENTWISE_OPS = {
    "add": lambda a, b: ad.add(a, b),
    "sub": lambda a, b: ad.sub(a, b),
    "mul": lambda a, b: ad.mul(a, b),
    "div": lambda a, b: ad.div(a, b),
}


@pytest.mark.parametrize("name", sorted(ELEMENTWISE_OPS))
def test_binary_op_gradients_match_finite_differences(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    op = ELEMENTWISE_OPS[name]
    a = _away_from_zero(rng, (2, 3))
    b = _away_from_zero(rng, (2, 3))
    err_a = ad.finite_diff_check(lambda t: ad.tsum(op(t, ad.Tensor(b))), a)
    err_b = ad.finite_diff_check(lambda t: ad.tsum(op(ad.Tensor(a), t)), b)
    assert err_a < 1e-5
    assert err_b < 1e-5


UNARY_OPS = {
    "square": ad.square,
    "sqrt": lambda t: ad.sqrt(t),
    "max-with-scalar": lambda t: ad.max_scalar(t, 0.4),
    "mean": ad.tmean,
    "sum": ad.tsum,
}

# the activations are layer kernels: a value and a slope, elementwise
ACTIVATIONS = {
    "tanh": (np.tanh, lambda a: ad._tanh_slope_np(np.tanh(a))),
    "softplus": (ad._softplus_np, ad._softplus_slope_np),
    "relu": (ad._relu_np, ad._relu_slope_np),
}


@pytest.mark.parametrize("name", sorted(UNARY_OPS.keys() | ACTIVATIONS.keys()))
def test_unary_op_gradients_match_finite_differences(name):
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    if name in ACTIVATIONS:
        value, slope = ACTIVATIONS[name]
        x = _away_from_zero(rng, (2, 3))
        assert _max_rel_error(lambda t: value(t).sum(), x, slope(x)) < 1e-5
        return
    op = UNARY_OPS[name]
    if name == "sqrt":
        x = rng.uniform(0.2, 2.0, size=(2, 3))
    elif name == "max-with-scalar":
        # keep every sample at least 0.1 away from the 0.4 kink
        x = rng.uniform(0.5, 1.5, size=(2, 3))
        x[0] = rng.uniform(-0.5, 0.3, size=3)
    else:
        x = _away_from_zero(rng, (2, 3))
    err = ad.finite_diff_check(lambda t: ad.tsum(op(t)) if op(t).size > 1 else op(t), x)
    assert err < 1e-5


def test_structural_op_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 3, 4))

    def through_slices(t):
        s = ad.tslice(t, (slice(0, 2), slice(1, 3), 2))
        e = ad.embed(s, (4, 4), (slice(0, 2), slice(1, 3)))
        r = ad.reshape(e, (2, 8))
        b = ad.broadcast(ad.reshape(ad.tsum(r, axes=1), (2, 1)), (2, 8))
        return ad.tsum(ad.mul(ad.square(r), b))

    assert ad.finite_diff_check(through_slices, x) < 1e-5


def _max_rel_error(f, x, analytic, h=1e-5):
    """finite_diff_check's figure for a numpy f: the largest
    |analytic - central| / (|central| + 1e-12) over the entries of x."""
    numeric = np.zeros_like(x)
    for j in range(x.size):
        step = np.zeros(x.size)
        step[j] = h
        step = step.reshape(x.shape)
        numeric.flat[j] = (f(x + step) - f(x - step)) / (2.0 * h)
    return float((np.abs(analytic - numeric) / (np.abs(numeric) + 1e-12)).max())


def test_conv_ops_gradients_match_finite_differences():
    """Per-row kernels, and one kernel tiled over the batch (batch stride 0,
    as the models tile it), which the input adjoint lays out channel-major."""
    rng = np.random.default_rng(12)
    kernel = rng.normal(size=(2, 2, 1, 3, 3))
    x = rng.normal(size=(2, 1, 6, 6))
    r = 2.0 * _conv(x, kernel)  # the cotangent of sum(conv^2)
    in_x = ad._conv2d_input_adjoint_np(r, kernel)
    in_kernel = ad._conv2d_kernel_adjoint_np(r, ad._im2col(x, 3)).reshape(kernel.shape)
    assert _max_rel_error(lambda t: np.square(_conv(t, kernel)).sum(), x, in_x) < 1e-5
    assert _max_rel_error(lambda t: np.square(_conv(x, t)).sum(), kernel, in_kernel) < 1e-5

    x = rng.normal(size=(3, 2, 6, 5))
    shared = rng.normal(size=(2, 2, 3, 3))

    def tiled(t):
        return np.broadcast_to(t, (3, *t.shape))

    assert tiled(shared).strides[0] == 0
    r = 2.0 * _conv(x, tiled(shared))
    in_x = ad._conv2d_input_adjoint_np(r, tiled(shared))
    # the gradient in the shared kernel is the sum of the rows' gradients
    in_kernel = ad._conv2d_kernel_adjoint_np(r, ad._im2col(x, 3)).sum(axis=0).reshape(shared.shape)
    assert _max_rel_error(lambda t: np.square(_conv(t, tiled(shared))).sum(), x, in_x) < 1e-5
    assert _max_rel_error(lambda t: np.square(_conv(x, tiled(t))).sum(), shared, in_kernel) < 1e-5


def test_plain_backward_records_nothing():
    rng = np.random.default_rng(32)
    g = ad.Graph()
    k = g.leaf(rng.normal(size=(2, 3)))
    x = g.leaf(rng.normal(size=(2, 3)))
    out = ad.tsum(ad.sqrt(ad.add(ad.square(ad.mul(x, k)), 1.0)))
    before = len(g.nodes)
    grads = ad.backward(out, [k, x])
    assert len(g.nodes) == before
    assert all(t.graph is None for t in grads)


RULE_OPS = {
    "add": lambda a, b: ad.add(a, b),
    "sub": lambda a, b: ad.sub(a, b),
    "mul": lambda a, b: ad.mul(a, b),
    "div": lambda a, b: ad.div(a, b),
    "square": lambda a, b: ad.square(a),
    "sqrt": lambda a, b: ad.sqrt(a),
    "max-with-scalar": lambda a, b: ad.max_scalar(a, 0.4),
    "sum": lambda a, b: ad.tsum(a, axes=1),
    "mean": lambda a, b: ad.tmean(a),
    "broadcast": lambda a, b: ad.broadcast(ad.reshape(a, (2, 1, 3)), (2, 4, 3)),
    "reshape": lambda a, b: ad.reshape(a, (3, 2)),
    "slice": lambda a, b: ad.tslice(a, (slice(0, 1), np.array([2, 0]))),
    "embed": lambda a, b: ad.embed(a, (3, 4), (slice(1, 3), slice(0, 3))),
}


def _attached_sample():
    spec = models.ModelSpec((models.Linear(3, 2), models.Tanh(), models.Linear(2, 1)), models.MSE)
    return models.attach_sample(spec, models.init_params(spec, 4), np.ones((2, 3)), [0.5, -1.0])


@pytest.mark.parametrize("name", sorted(RULE_OPS) + ["per-sample-grad"])
def test_rules_map_arrays_to_arrays(name):
    """Each recorded rule takes and returns plain arrays, one per input and
    of its shape, attached or not (backward drops a detached input's)."""
    rng = np.random.default_rng(33)
    cases = []
    if name == "per-sample-grad":
        sample = _attached_sample()
        cases.append((sample.graph, sample.grads))
    else:
        for attached in ((True, True), (True, False), (False, True)):
            g = ad.Graph()
            values = rng.uniform(0.5, 1.5, size=(2, 2, 3))
            a, b = (g.leaf(v) if on else ad.Tensor(v) for v, on in zip(values, attached))
            out = RULE_OPS[name](a, b)
            if out.graph is not None:
                cases.append((g, out))
    for g, out in cases:
        node = g.nodes[out.node_id]
        assert node.op == name
        grads = node.rule(rng.normal(size=out.shape), *node.input_data)
        assert len(grads) == len(node.input_data)
        for grad, data in zip(grads, node.input_data):
            assert type(grad) is np.ndarray and grad.shape == data.shape


@pytest.mark.parametrize("name", sorted(RULE_OPS) + ["per-sample-grad"])
def test_seeded_backward_is_the_scalar_route(name):
    """A pass seeded with a cotangent u of the output's shape gives the bits
    of the scalar route <u, out>: tsum(mul(out, u)) hands out ones * u = u."""
    rng = np.random.default_rng(35)
    cases = []
    if name == "per-sample-grad":
        sample = _attached_sample()
        cases.append((sample.grads, [sample.x]))
    else:
        for attached in ((True, True), (True, False), (False, True)):
            g = ad.Graph()
            values = rng.uniform(0.5, 1.5, size=(2, 2, 3))
            inputs = [g.leaf(v) if on else ad.Tensor(v) for v, on in zip(values, attached)]
            out = RULE_OPS[name](*inputs)
            if out.graph is not None:
                cases.append((out, [t for t in inputs if t.graph is not None]))
    for out, wrt in cases:
        u = rng.normal(size=out.shape)
        seeded = ad.backward(out, wrt, cotangent=u)
        scalar = ad.backward(ad.tsum(ad.mul(out, ad.Tensor(u))), wrt)
        assert [t.data.tobytes() for t in seeded] == [t.data.tobytes() for t in scalar]


def test_backward_refuses_a_cotangent_of_another_shape():
    g = ad.Graph()
    x = g.leaf(np.ones((2, 3)))
    out = ad.square(x)
    for shape in ((3, 2), (6,), (2, 3, 1), (1, 3), ()):
        with pytest.raises(ShapeError, match=r"cotangent \(.*\) for output \(2, 3\)"):
            ad.backward(out, [x], cotangent=np.ones(shape))
    with pytest.raises(ShapeError):
        ad.backward(ad.tsum(out), [x], cotangent=np.ones(1))
    # without a cotangent only a scalar output is seeded; the cotangent is
    # keyword-only, so a third positional argument is refused
    with pytest.raises(GraphError, match="must be a scalar"):
        ad.backward(out, [x])
    with pytest.raises(TypeError):
        ad.backward(out, [x], np.ones((2, 3)))


def test_backward_wraps_only_the_returned_cotangents(monkeypatch):
    rng = np.random.default_rng(34)
    g = ad.Graph()
    k = g.leaf(rng.normal(size=(2, 3)))
    x = g.leaf(rng.normal(size=(2, 3)))
    h = ad.div(ad.square(ad.mul(x, k)), ad.add(ad.max_scalar(k, 0.1), 2.0))
    out = ad.tmean(ad.embed(ad.tsum(ad.sqrt(ad.add(h, 1.0)), axes=1), (4,), (slice(1, 3),)))
    sample = _attached_sample()
    c = ad.Tensor(rng.normal(size=sample.grads.shape))
    through_model = ad.tsum(ad.mul(sample.grads, c))
    made = []
    init = ad.Tensor.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counted)
    for output, wrt in ((out, [k, x, h]), (through_model, [sample.x])):
        made.clear()
        grads = ad.backward(output, wrt)
        assert len(made) == len(wrt) and all(a is b for a, b in zip(made, grads))


def test_detached_tensors_receive_zero_gradient():
    g = ad.Graph()
    x = g.leaf([1.0, 2.0])
    unused = g.leaf([5.0])
    out = ad.tsum(ad.square(x))
    grads = ad.backward(out, [x, unused])
    np.testing.assert_allclose(grads[0].data, 2.0 * x.data)
    np.testing.assert_array_equal(grads[1].data, [0.0])


def test_backward_rejects_foreign_and_nonscalar():
    g1, g2 = ad.Graph(), ad.Graph()
    x = g1.leaf([1.0, 2.0])
    y = g2.leaf([1.0])
    out = ad.tsum(ad.square(x))
    with pytest.raises(GraphError):
        ad.backward(out, [y])
    with pytest.raises(GraphError):
        ad.backward(ad.square(x), [x])  # non-scalar output
    with pytest.raises(GraphError):
        ad.backward(ad.Tensor([1.0]), [x])  # detached output


def test_shape_mismatch_errors_name_op_and_shapes():
    with pytest.raises(ShapeError, match="add"):
        ad.add(ad.Tensor([1.0, 2.0]), ad.Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(ShapeError, match="reshape"):
        ad.reshape(ad.Tensor(np.ones((2, 3))), (4,))
    g = ad.Graph()
    attached = g.leaf(1.5)
    with pytest.raises(ShapeError, match="broadcast"):
        ad.mul(ad.Tensor(np.ones((2, 2))), attached)


# --------------------------------------------------------------------------
# what a backward pass visits, computes and keeps
# --------------------------------------------------------------------------


def test_backward_wrt_non_leaf_tensor():
    g = ad.Graph()
    x = g.leaf([0.5, -1.0])
    h = ad.square(x)
    out = ad.tsum(ad.sqrt(ad.add(h, 1.0)))
    dh = 0.5 / np.sqrt(h.data + 1.0)
    (gh,) = ad.backward(out, [h])
    np.testing.assert_allclose(gh.data, dh)
    gh, gx = ad.backward(out, [h, x])
    np.testing.assert_allclose(gh.data, dh)
    np.testing.assert_allclose(gx.data, dh * 2.0 * x.data)


def test_backward_wrt_the_output_returns_the_seed():
    g = ad.Graph()
    x = g.leaf([1.0, 2.0])
    out = ad.tsum(ad.square(x))
    (g_out,) = ad.backward(out, [out])
    np.testing.assert_array_equal(g_out.data, 1.0)
    vec = ad.square(x)
    g_vec, gx = ad.backward(ad.tsum(ad.mul(vec, ad.Tensor([3.0, -1.0]))), [vec, x])
    np.testing.assert_array_equal(g_vec.data, [3.0, -1.0])
    np.testing.assert_allclose(gx.data, [6.0, -4.0])


def test_backward_when_output_does_not_depend_on_wrt():
    g = ad.Graph()
    x = g.leaf([1.0, 2.0])
    late = g.leaf([[3.0]])
    out = ad.tsum(ad.square(x))
    unrelated = ad.sqrt(x)
    grads = ad.backward(out, [unrelated, late])
    np.testing.assert_array_equal(grads[0].data, [0.0, 0.0])
    np.testing.assert_array_equal(grads[1].data, [[0.0]])


def test_backward_with_a_tensor_listed_twice():
    g = ad.Graph()
    x = g.leaf([1.0, -3.0])
    w = g.leaf([2.0, 0.5])
    out = ad.tsum(ad.mul(ad.square(x), w))
    a, b, c = ad.backward(out, [x, w, x])
    np.testing.assert_array_equal(a.data, 2.0 * x.data * w.data)
    np.testing.assert_array_equal(c.data, a.data)
    np.testing.assert_array_equal(b.data, x.data**2)


def test_backward_frees_cotangents_once_propagated():
    g = ad.Graph()
    x = g.leaf(np.linspace(-1.0, 1.0, 1 << 17))  # 1 MB
    y = x
    for _ in range(32):
        y = ad.mul(ad.square(y), 0.5)
    out = ad.tsum(y)
    assert len(g.nodes) == 66
    tracemalloc.start()
    try:
        (gx,) = ad.backward(out, [x])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gx.shape == x.shape
    assert peak < 8 * (1 << 20)


def _patch_indices(c, h, w, k):
    """(C*k*k, oh*ow) indices into a flattened (C,H,W) image, patch rows in
    (c, ki, kj) order and output pixels in row-major order."""
    oh, ow = h - k + 1, w - k + 1
    offs = (
        np.arange(c)[:, None, None] * (h * w)
        + np.arange(k)[None, :, None] * w
        + np.arange(k)[None, None, :]
    ).reshape(-1)
    pos = (np.arange(oh)[:, None] * w + np.arange(ow)[None, :]).reshape(-1)
    return offs[:, None] + pos[None, :]


def test_im2col_matches_gather_bitwise():
    """The strided view lays patches out as an explicit index gather does."""
    rng = np.random.default_rng(42)
    shapes = [(1, 1, 28, 28), (1, 8, 26, 26), (6, 1, 28, 28), (6, 8, 26, 26), (2, 3, 6, 5)]
    for b, c, h, w in shapes:
        base = rng.normal(size=(2 * b, c, w, h))
        # a C-contiguous image, a strided one and a transposed one
        for images in (base[:b].transpose(0, 1, 3, 2).copy(), base[::2].transpose(0, 1, 3, 2)):
            for k in (1, 2, 3):
                ref = np.take(images.reshape(b, -1), _patch_indices(c, h, w, k), axis=1)
                got = ad._im2col(images, k)
                assert got.flags.c_contiguous
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_conv2d_kernel_too_large_is_shape_error():
    spec = models.ModelSpec((models.Conv2d(1, 2, 3),), models.MSE)
    for shape in [(1, 2, 5), (1, 5, 2)]:
        with pytest.raises(ShapeError, match="conv2d kernel 3 too large for"):
            models.output_shape(spec, shape)


def _patch_gemm_input_adjoint(g, kernel):
    """The conv input adjoint by the patch GEMM: the (B, C*k*k, oh*ow) products
    of the transposed kernels with g, each summed into the pixel that
    _patch_indices names, by a bincount that visits them in (c, ki, kj) order."""
    b, o, c, k = kernel.shape[:4]
    oh, ow = g.shape[2:]
    h, w = oh + k - 1, ow + k - 1
    cols = np.matmul(np.swapaxes(kernel.reshape(b, o, -1), -1, -2), g.reshape(b, o, -1))
    where = _patch_indices(c, h, w, k) + c * h * w * np.arange(b)[:, None, None]
    img = np.bincount(where.reshape(-1), weights=cols.reshape(-1), minlength=b * c * h * w)
    return img.reshape(b, c, h, w)


def test_conv2d_input_adjoint_matches_patch_gemm_scatter_bitwise():
    """One GEMM per kernel offset on the image grid gives the patch GEMM's
    products, summed in its (ki, kj) order, for shared and per-row kernels.
    Where the patch GEMM itself has one row (C = k = 1), BLAS sums it in
    another order, and the two agree to 1e-15 of the largest entry."""
    rng = np.random.default_rng(43)
    shapes = [  # (B, O, C, k, H, W)
        (6, 16, 8, 3, 26, 26), (1, 16, 8, 3, 26, 26), (3, 2, 3, 3, 6, 5), (2, 3, 2, 2, 5, 4),
        (2, 3, 2, 1, 5, 4), (3, 4, 1, 3, 7, 6), (6, 16, 1, 3, 28, 28), (2, 3, 1, 1, 5, 4),
    ]
    for b, o, c, k, h, w in shapes:
        g = rng.normal(size=(b, o, h - k + 1, w - k + 1))
        g[rng.random(g.shape) < 0.2] = -0.0
        g[0, :, 0] = -0.0  # the top row of image 0 gets zero terms only
        shared = np.broadcast_to(rng.normal(size=(o, c, k, k)), (b, o, c, k, k))
        for kernel in (shared, rng.normal(size=(b, o, c, k, k))):
            ref = _patch_gemm_input_adjoint(g, kernel)
            got = ad._conv2d_input_adjoint_np(g, kernel)
            assert got.shape == ref.shape and got.flags.c_contiguous
            if c * k * k > 1:
                assert got.tobytes() == ref.tobytes()
            else:
                assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


def _conv_routes(spec, params, subjects, step_config):
    """What the conv input adjoint feeds: per_sample_loss_and_grad's losses and
    rows, one dp_sgd_step's parameters, PLIS (clipped, by both routes) and
    grad_tangents along two input directions."""
    xs, ys = np.stack([s.x for s in subjects]), [s.y for s in subjects]
    directions = np.random.default_rng(47).normal(size=(2, *xs.shape[1:]))
    batch = [(s.x, s.y) for s in subjects]
    out = list(models.per_sample_loss_and_grad(spec, params, xs, ys))
    out.append(dpsgd.dp_sgd_step(spec, params, batch, step_config, step_index=2).params.flat)
    for expanded in (False, True):
        reports = plis.plis_reports(spec, params, subjects, 1.5, 0.5, expanded)
        out.extend(r.plis for r in reports)
    out.append(models.grad_tangents(spec, params, xs[:2], ys[:2], directions))
    return [a.tobytes() for a in out]


@pytest.mark.parametrize("arch", ["cnn", "softplus"])
def test_conv_routes_match_the_patch_gemm_bitwise(monkeypatch, arch):
    """Every route through a conv input adjoint gives the bits it gives with
    the patch GEMM and scatter in its place: the first-order rows and a DP-SGD
    step, and the tangent walk's stacked [W, W'] products."""
    images = datasets.make_glyph_images(6, 4, 28, 28)
    if arch == "cnn":
        spec = models.cnn_spec(28, 28, images.classes)
    else:
        spec = models.ModelSpec(
            (models.Conv2d(1, 3, 3), models.Softplus(), models.Conv2d(3, 4, 2), models.Softplus(),
             models.Flatten(), models.Linear(4 * 25 * 25, images.classes)),
            models.CROSS_ENTROPY,
        )
    params = models.init_params(spec, 3)
    subjects = datasets.image_subjects(images)
    config = dpsgd.DpSgdConfig(
        learning_rate=0.1, epochs=1, batch_size=6, seed=5, private=True, clip=0.5, sigma=0.3
    )
    got = _conv_routes(spec, params, subjects, config)
    monkeypatch.setattr(ad, "_conv2d_input_adjoint_np", _patch_gemm_input_adjoint)
    assert got == _conv_routes(spec, params, subjects, config)


def test_linear_weight_adjoint_matches_blas_bitwise():
    """g h^T is a matmul with inner dimension 1, computed as a product."""
    rng = np.random.default_rng(44)
    for sa, sb in [((6, 2), (6, 50)), ((1, 3), (1, 4)), ((4, 1), (4, 1))]:
        a, b = rng.normal(size=sa), rng.normal(size=sb)
        a[rng.random(sa) < 0.3] = 0.0
        b[rng.random(sb) < 0.3] = -0.0
        got = ad._linear_weight_adjoint_np(a, b)
        assert got.tobytes() == np.matmul(a[:, :, None], b[:, None, :]).tobytes()
        assert not np.signbit(got[got == 0.0]).any()


def _clip_chain(g, c):
    """The clip as g * C / max(||g||, C) in seven graph ops: the reference that
    dpsgd.clip_differentiable, which takes sqrt(max(||g||^2, C^2)), must
    reproduce."""
    norm = ad.sqrt(ad.tsum(ad.square(g), axes=-1, keepdims=True))
    return ad.mul(g, ad.broadcast(ad.div(c, ad.max_scalar(norm, c)), g.shape))


def test_clip_rows_matches_op_chain_bitwise():
    """Value and gradient are the chain's to the bit."""
    rng = np.random.default_rng(45)
    g0 = rng.normal(size=(5, 4)) * np.array([[0.1], [0.5], [1.0], [2.0], [4.0]])

    def passes(clip_fn, x0, c):
        graph = ad.Graph()
        x = graph.leaf(x0)
        weights = ad.Tensor(np.linspace(0.5, 1.5, x0.size).reshape(x0.shape))
        out = ad.tsum(ad.mul(ad.square(clip_fn(ad.mul(ad.square(x), 0.5), c)), weights))
        (plain,) = ad.backward(out, [x])
        return [a.tobytes() for a in (clip_fn(ad.Tensor(x0), c).data, out.data, plain.data)]

    for c in (0.3, 1.0, 5.0):
        for x0 in (g0, g0[:, :1], g0[0]):
            assert passes(dpsgd.clip_differentiable, x0, c) == passes(_clip_chain, x0, c)


# --------------------------------------------------------------------------
# layer kernels: each one's adjoints, and the tangent rules of those adjoints
# --------------------------------------------------------------------------


def _clip_vjp(r, g):
    """The tape's gradient of <r, clip(g)> in g: the clip is graph ops."""
    leaf = ad.Graph().leaf(g)
    out = ad.tsum(ad.mul(dpsgd.clip_differentiable(leaf, 1.0), ad.Tensor(r)))
    return [ad.backward(out, [leaf])[0].data]


def _layer_op_cases():
    """name -> (kernel, vjp, inputs, kind): every layer kernel on small random
    inputs, with vjp(r, *inputs), the cotangents of its inputs for an output
    cotangent r as the reverse walks compute them.  kind says how the tangent
    of the vjp is formed (see _vjp_tangent): "bilinear" for a kernel linear in
    each input, whose vjp entry for one input is linear in r and in the other
    input alone; "linear" for the bias add; otherwise the kernel's own rule."""
    rng = np.random.default_rng(50)
    x, k, g = rng.normal(size=(2, 2, 5, 4)), rng.normal(size=(2, 3, 2, 2, 2)), rng.normal(size=(2, 3, 4, 3))
    w, h, gl = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4)), rng.normal(size=(2, 3))
    labels = np.array([1, 0, 2])
    target = rng.normal(size=(3, 2, 2))
    clip_input = rng.normal(size=(3, 4)) * np.array([[1.5], [0.2], [3.0]])
    assert (np.abs(np.linalg.norm(clip_input, axis=1) - 1.0) > 0.1).all()

    def patches(images):
        return ad._im2col(images, 2)

    def kernel_shaped(r):
        return r.reshape(k.shape)

    def softmax_vjp(r, z):
        return [ad._softmax_jvp_np(ad._softmax_np(z), r)]

    return {
        "conv2d": (_conv, lambda r, x, k: [
            ad._conv2d_input_adjoint_np(r, k),
            kernel_shaped(ad._conv2d_kernel_adjoint_np(r, patches(x))),
        ], [x, k], "bilinear"),
        "conv2d-input-adjoint": (ad._conv2d_input_adjoint_np, lambda r, g, k: [
            _conv(r, k),
            kernel_shaped(ad._conv2d_kernel_adjoint_np(g, patches(r))),
        ], [g, k], "bilinear"),
        "conv2d-kernel-adjoint": (lambda x, g: ad._conv2d_kernel_adjoint_np(g, patches(x)),
                                  lambda r, x, g: [
            ad._conv2d_input_adjoint_np(g, kernel_shaped(r)),
            _conv(x, kernel_shaped(r)),
        ], [x, g], "bilinear"),
        "linear": (ad._linear_np, lambda r, w, h: [
            ad._linear_weight_adjoint_np(r, h), ad._linear_input_adjoint_np(w, r),
        ], [w, h], "bilinear"),
        "linear-input-adjoint": (ad._linear_input_adjoint_np, lambda r, w, g: [
            ad._linear_weight_adjoint_np(g, r), ad._linear_np(w, r),
        ], [w, gl], "bilinear"),
        "linear-weight-adjoint": (ad._linear_weight_adjoint_np, lambda r, g, h: [
            ad._linear_np(r, h), ad._linear_input_adjoint_np(r, g),
        ], [gl, h], "bilinear"),
        "bias-add-dense": (ad._bias_add_np, lambda r, h, b: [r, ad._bias_adjoint_np(r)],
                           [gl, rng.normal(size=(2, 3))], "linear"),
        "bias-add-image": (ad._bias_add_np, lambda r, h, b: [r, ad._bias_adjoint_np(r)],
                           [g, rng.normal(size=(2, 3))], "linear"),
        "softmax": (ad._softmax_np, softmax_vjp, [rng.normal(size=(3, 4))], "softmax"),
        "cross-entropy": (lambda z: ad._cross_entropy_np(z, labels),
                          lambda r, z: [ad._cross_entropy_adjoint_np(r, z, labels)],
                          [2.0 * rng.normal(size=(3, 4))], "cross-entropy"),
        "mse": (lambda p: ad._mse_np(p, target), lambda r, p: [ad._mse_adjoint_np(r, p, target)],
                [rng.normal(size=(3, 2, 2))], "mse"),
        # the DP clip, graph ops rather than a kernel: rows 0 and 2 above the
        # clip, row 1 below it, none near the kink
        "clip-rows": (lambda g: dpsgd.clip_differentiable(ad.Tensor(g), 1.0).data, _clip_vjp,
                      [clip_input], "tape"),
    }


LAYER_OP_CASES = _layer_op_cases()


def _weights(out):
    # a fixed nonlinear readout, so no symmetry of the op can hide a wrong rule
    return np.linspace(0.5, 1.5, out.size).reshape(out.shape)


def _readout(out):
    return float((np.square(out) * _weights(out)).sum())


def _gradient(name, inputs):
    """The gradient of the readout of the kernel's output in each input."""
    kernel, vjp, _, _ = LAYER_OP_CASES[name]
    out = kernel(*inputs)
    return vjp(2.0 * _weights(out) * out, *inputs)


def _vjp_tangent(name, inputs, tangents):
    """The tangent of _gradient along tangents of the inputs, by the product
    rule on the kernels: the forward-over-reverse step of the tangent walk."""
    kernel, vjp, _, kind = LAYER_OP_CASES[name]
    out = kernel(*inputs)
    r = 2.0 * _weights(out) * out
    if kind == "bilinear":
        a, b = inputs
        da, db = tangents
        dout = kernel(da, b) + kernel(a, db)
        return [u + v for u, v in zip(vjp(2.0 * _weights(out) * dout, a, b), vjp(r, da, db))]
    if kind == "linear":
        return vjp(2.0 * _weights(out) * kernel(*tangents), *inputs)
    # one input z: the vjp at the cotangent's tangent, plus its own derivative
    # in z along dz at r
    (z,), (dz,) = inputs, tangents
    if kind == "softmax":
        s = ad._softmax_np(z)
        ds = ad._softmax_jvp_np(s, dz)
        (at_dr,) = vjp(2.0 * _weights(out) * ds, z)
        return [at_dr + ds * (r - (s * r).sum(axis=-1, keepdims=True))
                - s * (ds * r).sum(axis=-1, keepdims=True)]
    # a per-row loss: each row's output moves by <its slope, dz>
    (slope,) = vjp(np.ones_like(out), z)
    (at_dr,) = vjp(2.0 * _weights(out) * (slope * dz).sum(axis=tuple(range(1, z.ndim))), z)
    if kind == "mse":
        # the adjoint is affine in the prediction: its tangent is the adjoint at target 0
        return [at_dr + ad._mse_adjoint_np(r, dz, 0.0)]
    return [at_dr + ad._softmax_jvp_np(ad._softmax_np(z), dz) * r[:, None]]


@pytest.mark.parametrize("name", sorted(LAYER_OP_CASES))
def test_layer_op_gradients_match_finite_differences(name):
    kernel, _, inputs, _ = LAYER_OP_CASES[name]
    grads = _gradient(name, inputs)
    for i in range(len(inputs)):

        def f(t):
            return _readout(kernel(*[t if j == i else v for j, v in enumerate(inputs)]))

        assert _max_rel_error(f, inputs[i], grads[i]) < 1e-5, f"input {i}"


@pytest.mark.parametrize("name", sorted(set(LAYER_OP_CASES) - {"clip-rows"}))
def test_layer_op_second_order_matches_finite_differences(name):
    """Finite differences of the squared gradient norm in every input, against
    twice the gradient's tangent along the gradient itself (the Hessian is
    symmetric): the tangent walk's rules for the kernel's adjoints are right."""
    inputs = LAYER_OP_CASES[name][2]
    grads = _gradient(name, inputs)
    analytic = [2.0 * t for t in _vjp_tangent(name, inputs, grads)]
    for i in range(len(inputs)):

        def norm_sq(t):
            at = [t if j == i else v for j, v in enumerate(inputs)]
            return sum(float(np.square(gr).sum()) for gr in _gradient(name, at))

        assert _max_rel_error(norm_sq, inputs[i], analytic[i]) < 1e-4, f"input {i}"


def test_cross_entropy_against_log_sum_exp():
    z = np.array([[1.0, -2.0, 0.5], [40.0, 0.0, -3.0], [-700.0, 700.0, 0.0]])
    labels = np.array([2, 0, 0])
    got = ad._cross_entropy_np(z, labels)
    np.testing.assert_allclose(got[0], np.log(np.exp(z[0]).sum()) - 0.5, rtol=1e-15)
    # a dominant logit keeps the loss's digits: log1p(e^-40 + e^-43), not 0
    np.testing.assert_allclose(got[1], np.log1p(np.exp(-40.0) + np.exp(-43.0)), rtol=1e-15)
    assert got[2] == 1400.0
    s = ad._softmax_np(z)
    np.testing.assert_allclose(s.sum(axis=1), 1.0, rtol=1e-15)


@pytest.mark.parametrize("labels, bad", [([0, 3], 3), ([-1, 0], -1)])
def test_cross_entropy_rejects_out_of_range_labels(labels, bad):
    with pytest.raises(ShapeError, match=f"label {bad} out of range for 3 logits"):
        ad.check_labels(labels, 2, 3)
