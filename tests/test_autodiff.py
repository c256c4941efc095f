"""Gradient correctness for the one-node tape and the layer kernels.

The tape's backward pass is checked on the model node and on small test
nodes recorded above leaves.  Every numpy layer kernel's adjoints, which
the reverse walks apply, are checked against central differences of the
kernel, and the forward-over-reverse rules the tangent walk applies to
those adjoints are checked against central differences of a squared
gradient norm.  The relu kernels are sampled away from their kink.  The
DP clip's pullback is checked against a step-by-step reverse pass of the
clip and against central differences.
"""

import numpy as np
import pytest

from plislab import autodiff as ad, datasets, dpsgd, models, plis
from plislab.errors import GraphError, ShapeError


def _away_from_zero(rng, shape, margin=0.1):
    x = rng.uniform(margin, 1.5, size=shape)
    return x * rng.choice([-1.0, 1.0], size=shape)


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


def test_relu_subgradient_zero_at_negatives():
    x = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(ad._relu_np(x), [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(ad._relu_slope_np(x), [0.0, 0.0, 1.0])


# the activations are layer kernels: a value and a slope, elementwise
ACTIVATIONS = {
    "tanh": (np.tanh, lambda a: ad._tanh_slope_np(np.tanh(a))),
    "softplus": (ad._softplus_np, ad._softplus_slope_np),
    "relu": (ad._relu_np, ad._relu_slope_np),
}


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_unary_op_gradients_match_finite_differences(name):
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    value, slope = ACTIVATIONS[name]
    x = _away_from_zero(rng, (2, 3))
    assert _max_rel_error(lambda t: value(t).sum(), x, slope(x)) < 1e-5


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
    """Per-row kernels, and one kernel of one row that broadcasts over the
    batch (as the models tile it), which the input adjoint lays out
    channel-major."""
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
    r = 2.0 * _conv(x, shared[None])
    in_x = ad._conv2d_input_adjoint_np(r, shared[None])
    # the gradient in the shared kernel is the sum of the rows' gradients
    in_kernel = ad._conv2d_kernel_adjoint_np(r, ad._im2col(x, 3)).sum(axis=0).reshape(shared.shape)
    assert _max_rel_error(lambda t: np.square(_conv(t, shared[None])).sum(), x, in_x) < 1e-5
    assert _max_rel_error(lambda t: np.square(_conv(x, t[None])).sum(), shared, in_kernel) < 1e-5


# --------------------------------------------------------------------------
# the tape: leaves, one node above them, and the backward pass
# --------------------------------------------------------------------------


def _square(x):
    """x * x as a node above the leaf x."""
    return ad._record("square", x.data * x.data, (x,), lambda grad, a: (grad * (a * 2.0),))


def _mul(a, b):
    """a * b as a node above the leaves a and b."""
    return ad._record("mul", a.data * b.data, (a, b), lambda grad, a, b: (grad * b, grad * a))


def _attached_sample():
    spec = models.ModelSpec((models.Linear(3, 2), models.Tanh(), models.Linear(2, 1)), models.MSE)
    batch = models.stack_batch(spec, np.ones((2, 3)), [0.5, -1.0])
    return models.attach_sample(spec, models.init_params(spec, 4), batch)


def test_plain_backward_records_nothing():
    sample = _attached_sample()
    c = np.random.default_rng(32).normal(size=sample.grads.shape)
    before = len(sample.graph.nodes)
    grads = ad.backward(sample.grads, [sample.x, sample.grads], cotangent=c)
    assert len(sample.graph.nodes) == before == 2
    assert all(t.graph is None for t in grads)


@pytest.mark.parametrize("name", ["per-sample-grad"])
def test_rules_map_arrays_to_arrays(name):
    """The model node's rule takes and returns plain arrays, one per input
    and of its shape."""
    sample = _attached_sample()
    node = sample.graph.nodes[sample.grads.node_id]
    assert node.op == name
    grads = node.rule(np.random.default_rng(33).normal(size=sample.grads.shape), *node.input_data)
    assert len(grads) == len(node.input_data)
    for grad, data in zip(grads, node.input_data):
        assert type(grad) is np.ndarray and grad.shape == data.shape


def test_record_takes_leaves_of_one_graph():
    """A node sits on leaves of one graph, so one rule call is a whole pass."""
    g1, g2 = ad.Graph(), ad.Graph()
    x, y = g1.leaf([1.0, 2.0]), g2.leaf([3.0, 4.0])
    with pytest.raises(GraphError, match="square: a node's inputs must be leaves of one graph"):
        _square(_square(x))
    with pytest.raises(GraphError, match="leaves of one graph"):
        _mul(x, y)
    with pytest.raises(GraphError, match="leaves of one graph"):
        _square(ad.Tensor([1.0]))


def test_backward_refuses_a_cotangent_of_another_shape():
    g = ad.Graph()
    x = g.leaf(np.ones((2, 3)))
    out = _square(x)
    for shape in ((3, 2), (6,), (2, 3, 1), (1, 3), ()):
        with pytest.raises(ShapeError, match=r"cotangent \(.*\) for output \(2, 3\)"):
            ad.backward(out, [x], cotangent=np.ones(shape))
    # the cotangent is required and keyword-only: no output is seeded with
    # ones, and a third positional argument is refused
    with pytest.raises(TypeError):
        ad.backward(out, [x])
    with pytest.raises(TypeError):
        ad.backward(out, [x], np.ones((2, 3)))


def test_backward_wraps_only_the_returned_cotangents(monkeypatch):
    rng = np.random.default_rng(34)
    g = ad.Graph()
    k = g.leaf(rng.normal(size=(2, 3)))
    x = g.leaf(rng.normal(size=(2, 3)))
    out = _mul(x, k)
    sample = _attached_sample()
    c = rng.normal(size=sample.grads.shape)
    made = []
    init = ad.Tensor.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counted)
    for output, wrt, u in ((out, [k, x, out], np.ones((2, 3))), (sample.grads, [sample.x], c)):
        made.clear()
        grads = ad.backward(output, wrt, cotangent=u)
        assert len(made) == len(wrt) and all(a is b for a, b in zip(made, grads))


def test_detached_tensors_receive_zero_gradient():
    g = ad.Graph()
    x = g.leaf([1.0, 2.0])
    unused = g.leaf([5.0])
    out = _square(x)
    grads = ad.backward(out, [x, unused], cotangent=np.ones(2))
    np.testing.assert_allclose(grads[0].data, 2.0 * x.data)
    np.testing.assert_array_equal(grads[1].data, [0.0])


def test_backward_rejects_foreign_and_nonscalar():
    g1, g2 = ad.Graph(), ad.Graph()
    x = g1.leaf([1.0, 2.0])
    y = g2.leaf([1.0])
    out = _square(x)
    with pytest.raises(GraphError):
        ad.backward(out, [y], cotangent=np.ones(2))
    with pytest.raises(GraphError):
        ad.backward(ad.Tensor([1.0]), [x], cotangent=np.ones(1))  # detached output
    # a scalar output is not seeded with 1 either: every pass takes a cotangent
    with pytest.raises(TypeError):
        ad.backward(_square(g1.leaf(3.0)), [x])


def test_backward_wrt_non_leaf_tensor():
    """The model node listed with the leaf gets the seed, and the leaf the
    bits it gets alone."""
    sample = _attached_sample()
    c = np.random.default_rng(36).normal(size=sample.grads.shape)
    (alone,) = ad.backward(sample.grads, [sample.x], cotangent=c)
    g_node, g_x = ad.backward(sample.grads, [sample.grads, sample.x], cotangent=c)
    assert g_node.data.tobytes() == c.tobytes()
    assert g_x.data.tobytes() == alone.data.tobytes()


def test_backward_wrt_the_output_returns_the_seed():
    g = ad.Graph()
    x = g.leaf([1.0, 2.0])
    # an output that is a leaf has no rule: the pass hands back its seed
    (g_x,) = ad.backward(x, [x], cotangent=np.array([3.0, -1.0]))
    np.testing.assert_array_equal(g_x.data, [3.0, -1.0])
    vec = _square(x)
    g_vec, gx = ad.backward(vec, [vec, x], cotangent=np.array([3.0, -1.0]))
    np.testing.assert_array_equal(g_vec.data, [3.0, -1.0])
    np.testing.assert_allclose(gx.data, [6.0, -4.0])


def test_backward_when_output_does_not_depend_on_wrt():
    g = ad.Graph()
    x = g.leaf([1.0, 2.0])
    out = _square(x)
    unrelated = _square(x)
    late = g.leaf([[3.0]])
    grads = ad.backward(out, [unrelated, late], cotangent=np.ones(2))
    np.testing.assert_array_equal(grads[0].data, [0.0, 0.0])
    np.testing.assert_array_equal(grads[1].data, [[0.0]])


def test_backward_with_a_tensor_listed_twice():
    g = ad.Graph()
    x = g.leaf([1.0, -3.0])
    w = g.leaf([2.0, 0.5])
    a, b, c = ad.backward(_mul(x, w), [x, w, x], cotangent=np.ones(2))
    np.testing.assert_array_equal(a.data, w.data)
    np.testing.assert_array_equal(c.data, a.data)
    np.testing.assert_array_equal(b.data, x.data)
    # a leaf that is both inputs of a node gets the sum of both cotangents
    (twice,) = ad.backward(_mul(x, x), [x], cotangent=np.ones(2))
    np.testing.assert_array_equal(twice.data, 2.0 * x.data)


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


def _patch_gemm_input_adjoint(g, kernel, out=None, work=None):
    """The conv input adjoint by the patch GEMM: the (B, C*k*k, oh*ow) products
    of the transposed kernels with g, each summed into the pixel that
    _patch_indices names, by a bincount that visits them in (c, ki, kj) order.
    A one-row kernel is broadcast over g's B rows.  Copied into out when
    given, as the kernel it stands in for; work unused."""
    kernel = np.broadcast_to(kernel, (len(g), *kernel.shape[1:]))
    b, o, c, k = kernel.shape[:4]
    oh, ow = g.shape[2:]
    h, w = oh + k - 1, ow + k - 1
    cols = np.matmul(np.swapaxes(kernel.reshape(b, o, -1), -1, -2), g.reshape(b, o, -1))
    where = _patch_indices(c, h, w, k) + c * h * w * np.arange(b)[:, None, None]
    img = np.bincount(where.reshape(-1), weights=cols.reshape(-1), minlength=b * c * h * w)
    if out is None:
        return img.reshape(b, c, h, w)
    out[...] = img.reshape(b, c, h, w)
    return out


def test_conv2d_input_adjoint_matches_patch_gemm_scatter_bitwise():
    """One GEMM per kernel offset on the image grid gives the patch GEMM's
    products, summed in its (ki, kj) order, for shared and per-row kernels.
    Where the patch GEMM itself has one row (C = k = 1), BLAS sums it in
    another order, and the two agree to 1e-15 of the largest entry.  The
    cases include the stacked [W, W'] calls of the attack's and PLIS's
    second-order walks on the CLI's CNN (O = 32 and 16 at batch 1 and 6)."""
    rng = np.random.default_rng(43)
    shapes = [  # (B, O, C, k, H, W)
        (6, 16, 8, 3, 26, 26), (1, 16, 8, 3, 26, 26), (3, 2, 3, 3, 6, 5), (2, 3, 2, 2, 5, 4),
        (2, 3, 2, 1, 5, 4), (3, 4, 1, 3, 7, 6), (6, 16, 1, 3, 28, 28), (2, 3, 1, 1, 5, 4),
        (1, 32, 8, 3, 26, 26), (1, 16, 1, 3, 28, 28), (6, 32, 8, 3, 26, 26),
    ]
    for b, o, c, k, h, w in shapes:
        g = rng.normal(size=(b, o, h - k + 1, w - k + 1))
        g[rng.random(g.shape) < 0.2] = -0.0
        g[0, :, 0] = -0.0  # the top row of image 0 gets zero terms only
        shared = rng.normal(size=(1, o, c, k, k))  # one row, as the models tile it
        for kernel in (shared, rng.normal(size=(b, o, c, k, k))):
            ref = _patch_gemm_input_adjoint(g, kernel)
            got = ad._conv2d_input_adjoint_np(g, kernel)
            assert got.shape == ref.shape and got.flags.c_contiguous
            if c * k * k > 1:
                assert got.tobytes() == ref.tobytes()
            else:
                assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


def _concatenated_stacked_adjoint(gs, kernels, out=None, work=None):
    """The stacked input adjoint as the patch GEMM of concatenated operands,
    a one-row kernel broadcast over the B rows of g."""
    kernels = [np.broadcast_to(kernel, (len(gs[0]), *kernel.shape[1:])) for kernel in kernels]
    gs, kernels = np.concatenate(gs, axis=1), np.concatenate(kernels, axis=1)
    return _patch_gemm_input_adjoint(gs, kernels, out, work)


def test_stacked_input_adjoint_matches_the_concatenated_operands_bitwise(monkeypatch):
    """W^T g' + W'^T g with the operands laid straight into the grid and the
    kernel slices gives the bits of the patch GEMM of the concatenated
    [g', g] and [W, W'], for a one-row W and a per-row W' as _reverse passes
    them; and the walks' rows through it (the first-order adjoint is its
    one-pair case) are the rows they give with that in its place."""
    rng = np.random.default_rng(44)
    shapes = [  # (B, O, C, k, H, W) of each operand
        (1, 16, 8, 3, 26, 26), (6, 16, 8, 3, 26, 26), (1, 8, 1, 3, 28, 28), (3, 2, 3, 2, 6, 5),
    ]
    for b, o, c, k, h, w in shapes:
        gs = rng.normal(size=(2, b, o, h - k + 1, w - k + 1))
        gs[rng.random(gs.shape) < 0.2] = -0.0
        kernels = (rng.normal(size=(1, o, c, k, k)), rng.normal(size=(b, o, c, k, k)))
        got = ad._conv2d_stacked_input_adjoint_np(tuple(gs), kernels)
        ref = _concatenated_stacked_adjoint(tuple(gs), kernels)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    spec = models.cnn_spec(12, 12, 2)
    params = models.init_params(spec, 8)
    batch = models.stack_batch(spec, rng.uniform(0, 1, (3, 1, 12, 12)), [0, 1, 1])
    cotangent = rng.normal(size=(3, params.count))

    def rows():
        sample = models.attach_sample(spec, params, batch)
        return ad.backward(sample.grads, [sample.x], cotangent=cotangent)[0].data.tobytes()

    got = rows()
    monkeypatch.setattr(ad, "_conv2d_stacked_input_adjoint_np", _concatenated_stacked_adjoint)
    assert got == rows()


def test_a_one_row_kernel_has_the_bits_of_the_kernel_repeated_per_row():
    """The stacked input adjoint of one-row kernels over B rows of g has the
    bits of the same adjoint with each kernel repeated B times: in the
    shared layout (every kernel one row) and in the per-row layout (a
    one-row W with a per-row W'), on the CNNs' training and Jacobian chunks."""
    rng = np.random.default_rng(48)
    shapes = [  # (B, O, C, k, H, W) of each operand
        (6, 16, 8, 3, 26, 26), (1, 16, 8, 3, 26, 26), (39, 16, 8, 3, 10, 10),
        (64, 16, 8, 3, 10, 10),
    ]
    for b, o, c, k, h, w in shapes:
        gs = rng.normal(size=(2, b, o, h - k + 1, w - k + 1))
        gs[rng.random(gs.shape) < 0.2] = -0.0
        one_row = rng.normal(size=(1, o, c, k, k))
        for second in (rng.normal(size=(1, o, c, k, k)), rng.normal(size=(b, o, c, k, k))):
            got = ad._conv2d_stacked_input_adjoint_np(tuple(gs), (one_row, second))
            repeated = [np.repeat(kernel, b // len(kernel), axis=0) for kernel in (one_row, second)]
            want = ad._conv2d_stacked_input_adjoint_np(tuple(gs), repeated)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _conv_routes(spec, params, subjects, step_config):
    """What the conv input adjoint feeds: per_sample_loss_and_grad's losses and
    rows, one private and one non-private dp_sgd_step's parameters (the rows
    and the summed route), PLIS (clipped, by both routes) and grad_tangents
    along two input directions."""
    batch = models.stack_batch(spec, [s.x for s in subjects], [s.y for s in subjects])
    directions = np.random.default_rng(47).normal(size=(2, *batch.xs.shape[1:]))
    out = list(models.per_sample_loss_and_grad(spec, params, batch))
    plain = dpsgd.DpSgdConfig(learning_rate=0.1, epochs=1, batch_size=6, seed=5)
    for config in (step_config, plain):
        out.append(dpsgd.dp_sgd_step(spec, params, batch, config, step_index=2).params.flat)
    for expanded in (False, True):
        reports = plis.plis_reports(spec, params, subjects, 1.5, 0.5, expanded)
        out.extend(r.plis for r in reports)
    out.append(models.grad_tangents(spec, params, batch[:2], directions))
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


def _clip_chain(g, c, r):
    """The clip as g * C / max(||g||, C) in seven steps (square, sum, sqrt,
    max, div, broadcast, mul), and the gradient of <r, clip> in g back
    through them, one step's derivative at a time: the reference that
    dpsgd.clip_differentiable, which takes sqrt(max(||g||^2, C^2)), must
    reproduce to the bit."""
    s = (g * g).sum(axis=-1, keepdims=True)
    norm = np.sqrt(s)
    m = np.maximum(norm, c)
    f = c / m
    f_bar = (r * g).sum(axis=-1, keepdims=True)
    norm_bar = f_bar * c / (m * m) * -1.0 * (norm > c)
    s_bar = norm_bar / (np.sqrt(s) * 2.0)
    return g * f, r * f + s_bar * (g * 2.0)


def test_clip_rows_matches_op_chain_bitwise():
    """Value and pullback are the chain's to the bit, for the readout
    sum(w * clip(x^2 / 2)^2)'s cotangent and for a random one."""
    rng = np.random.default_rng(45)
    g0 = rng.normal(size=(5, 4)) * np.array([[0.1], [0.5], [1.0], [2.0], [4.0]])
    for c in (0.3, 1.0, 5.0):
        for x0 in (g0, g0[:, :1], g0[0]):
            g = np.square(x0) * 0.5
            clipped, pullback = dpsgd.clip_differentiable(g, c)
            weights = np.linspace(0.5, 1.5, g.size).reshape(g.shape)
            for r in (2.0 * weights * clipped, rng.normal(size=g.shape)):
                want = _clip_chain(g, c, r)
                assert [clipped.tobytes(), pullback(r).tobytes()] == [a.tobytes() for a in want]


# --------------------------------------------------------------------------
# layer kernels: each one's adjoints, and the tangent rules of those adjoints
# --------------------------------------------------------------------------


def _clip_vjp(r, g):
    """The clip's pullback of r: the gradient of <r, clip(g)> in g."""
    return [dpsgd.clip_differentiable(g, 1.0)[1](r)]


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
        # the DP clip, a closed-form pullback rather than a kernel: rows 0 and
        # 2 above the clip, row 1 below it, none near the kink
        "clip-rows": (lambda g: dpsgd.clip_differentiable(g, 1.0)[0], _clip_vjp,
                      [clip_input], "clip"),
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
