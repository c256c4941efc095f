"""Gradient correctness for the tape engine.

Every op is checked against central finite differences, and the
second-order path (gradient of a squared gradient norm) is checked
against finite differences of that norm.  Kink ops (relu, max-with-
scalar) are sampled away from their kinks.
"""

import tracemalloc

import numpy as np
import pytest

from plislab import autodiff as ad
from plislab.errors import GraphError, ShapeError


def _away_from_zero(rng, shape, margin=0.1):
    x = rng.uniform(margin, 1.5, size=shape)
    return x * rng.choice([-1.0, 1.0], size=shape)


def test_add_componentwise():
    out = ad.add(ad.Tensor([1.0, 2.0]), ad.Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_linear_identity():
    eye = ad.Tensor(np.stack([np.eye(2)] * 2))
    h = ad.Tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(ad.linear(eye, h).data, h.data)


def test_conv2d_ones_against_direct_summation():
    image = np.ones((1, 5, 5))
    kernel = np.ones((1, 1, 3, 3))
    out = ad.conv2d(ad.Tensor(image[None]), ad.Tensor(kernel[None])).data[0]
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
    out = ad.conv2d(ad.Tensor(image), ad.Tensor(kernel)).data
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


def test_second_derivative_x_cubed():
    g = ad.Graph()
    x = g.leaf(2.0)
    y = ad.mul(ad.square(x), x)
    (dy,) = ad.backward(y, [x], create_graph=True)
    (d2y,) = ad.backward(dy, [x], create_graph=True)
    assert d2y.data == pytest.approx(12.0)


def test_relu_subgradient_zero_at_negatives():
    g = ad.Graph()
    x = g.leaf([-1.0, 2.0])
    (grad,) = ad.backward(ad.tsum(ad.relu(x)), [x])
    np.testing.assert_array_equal(grad.data, [0.0, 1.0])


def test_finite_diff_check_sum_of_squares():
    err = ad.finite_diff_check(lambda t: ad.tsum(ad.square(t)), np.array([1.0, 2.0, 3.0]))
    assert err < 1e-6


def test_finite_diff_check_constant_function():
    err = ad.finite_diff_check(lambda t: ad.Tensor(4.2), np.array([1.0, 2.0]))
    assert err == 0.0


def test_finite_diff_check_tanh():
    err = ad.finite_diff_check(lambda t: ad.tsum(ad.tanh(t)), np.array([0.5]))
    assert err < 1e-6


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
    "tanh": ad.tanh,
    "softplus": ad.softplus,
    "relu": ad.relu,
    "max-with-scalar": lambda t: ad.max_scalar(t, 0.4),
    "mean": ad.tmean,
    "sum": ad.tsum,
}


@pytest.mark.parametrize("name", sorted(UNARY_OPS))
def test_unary_op_gradients_match_finite_differences(name):
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
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

    fixed = rng.normal(size=(2, 3))

    def through_concat(t):
        joined = ad.concat([t, ad.Tensor(fixed), ad.square(t)])
        return ad.tsum(ad.square(ad.mul(joined, joined)))

    assert ad.finite_diff_check(through_concat, rng.normal(size=(2, 2))) < 1e-5


def test_conv_ops_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    kernel = rng.normal(size=(2, 2, 1, 3, 3))
    x = rng.normal(size=(2, 1, 6, 6))

    def conv_in_x(t):
        return ad.tsum(ad.square(ad.conv2d(t, ad.Tensor(kernel))))

    assert ad.finite_diff_check(conv_in_x, x) < 1e-5

    def conv_in_kernel(t):
        return ad.tsum(ad.square(ad.conv2d(ad.Tensor(x), t)))

    assert ad.finite_diff_check(conv_in_kernel, kernel) < 1e-5


def second_order_cases():
    rng = np.random.default_rng(21)
    cases = []

    def poly(t):
        return ad.tsum(ad.mul(ad.square(t), t))

    cases.append(("cubic", poly, rng.normal(size=(3,))))

    def smooth(t):
        return ad.tsum(ad.tanh(ad.mul(ad.softplus(t), 0.5)))

    cases.append(("tanh-softplus", smooth, _away_from_zero(rng, (4,))))

    w = rng.normal(size=(1, 2, 3))

    def quadratic_form(t):
        y = ad.linear(ad.Tensor(w), ad.reshape(t, (1, 3)))
        return ad.tsum(ad.square(y))

    cases.append(("linear-square", quadratic_form, rng.normal(size=(3,))))
    return cases


@pytest.mark.parametrize("name,f,x", second_order_cases(), ids=lambda c: c if isinstance(c, str) else "")
def test_gradient_norm_squared_matches_finite_differences(name, f, x):
    # G(x) = ||df/dx||^2 built with create_graph, then d G / d x checked by FD
    def grad_norm_sq(t):
        if t.graph is None:
            t = ad.Graph().leaf(t.data)
        out = f(t)
        (g,) = ad.backward(out, [t], create_graph=True)
        return ad.tsum(ad.square(g))

    err = ad.finite_diff_check(grad_norm_sq, x, h=1e-5)
    assert err < 1e-4


def test_create_graph_flag_does_not_change_first_order_values():
    rng = np.random.default_rng(31)
    x0 = rng.normal(size=(4,))

    def build(create):
        g = ad.Graph()
        x = g.leaf(x0)
        out = ad.tsum(ad.square(ad.tanh(x)))
        return ad.backward(out, [x], create_graph=create)[0].data

    a, b = build(False), build(True)
    np.testing.assert_array_equal(a, b)


def test_plain_backward_records_nothing():
    rng = np.random.default_rng(32)
    g = ad.Graph()
    k = g.leaf(rng.normal(size=(1, 2, 1, 3, 3)))
    x = g.leaf(rng.normal(size=(1, 1, 5, 5)))
    out = ad.tsum(ad.softplus(ad.relu(ad.conv2d(x, k))))
    before = len(g.nodes)
    grads = ad.backward(out, [k, x])
    assert len(g.nodes) == before
    assert all(t.graph is None for t in grads)


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
    with pytest.raises(ShapeError, match="linear"):
        ad.linear(ad.Tensor(np.ones((1, 2, 3))), ad.Tensor(np.ones((1, 2))))
    with pytest.raises(ShapeError, match="concat"):
        ad.concat([ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 3)))])
    g = ad.Graph()
    attached = g.leaf(1.5)
    with pytest.raises(ShapeError, match="broadcast"):
        ad.mul(ad.Tensor(np.ones((2, 2))), attached)


def test_create_graph_backward_appends_nodes_above_segment():
    g = ad.Graph()
    x = g.leaf([1.0, -2.0])
    out = ad.tsum(ad.square(x))
    k = len(g.nodes)
    ad.backward(out, [x], create_graph=True)
    assert len(g.nodes) > k
    for nid, node in enumerate(g.nodes):
        for iid in node.input_ids:
            assert iid is None or iid < nid


# --------------------------------------------------------------------------
# what a backward pass visits, computes and keeps
# --------------------------------------------------------------------------


def test_backward_wrt_non_leaf_tensor():
    g = ad.Graph()
    x = g.leaf([0.5, -1.0])
    h = ad.square(x)
    out = ad.tsum(ad.tanh(h))
    dh = 1.0 - np.tanh(h.data) ** 2
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
    unrelated = ad.tanh(x)
    for create_graph in (False, True):
        grads = ad.backward(out, [unrelated, late], create_graph=create_graph)
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


def test_create_graph_result_stays_differentiable_outside_wrt():
    rng = np.random.default_rng(41)
    g = ad.Graph()
    w = g.leaf(rng.normal(size=(1, 3, 2)))
    x = g.leaf(rng.normal(size=(1, 2)))
    out = ad.tsum(ad.tanh(ad.linear(w, x)))
    (gw,) = ad.backward(out, [w], create_graph=True)
    # d/dx of sum_ij (dL/dW)_ij^2, with x outside the first pass's wrt
    (gx,) = ad.backward(ad.tsum(ad.square(gw)), [x])

    def norm_sq(xv):
        t = ad.Graph().leaf(w.data)
        o = ad.tsum(ad.tanh(ad.linear(t, ad.Tensor(xv))))
        return float(np.sum(ad.backward(o, [t])[0].data ** 2))

    h = 1e-6
    fd = np.zeros(2)
    for j in range(2):
        e = np.zeros((1, 2))
        e[0, j] = h
        fd[j] = (norm_sq(x.data + e) - norm_sq(x.data - e)) / (2 * h)
    np.testing.assert_allclose(gx.data.ravel(), fd, rtol=1e-6)


def test_create_graph_pass_appends_only_what_wrt_needs():
    rng = np.random.default_rng(42)
    kernel, image = rng.normal(size=(1, 2, 1, 3, 3)), rng.normal(size=(1, 1, 6, 6))

    def appended(with_x):
        g = ad.Graph()
        k = g.leaf(kernel)
        x = g.leaf(image)
        out = ad.tsum(ad.square(ad.relu(ad.conv2d(x, k))))
        before = len(g.nodes)
        ad.backward(out, [k, x] if with_x else [k], create_graph=True)
        return len(g.nodes) - before, any(n.op == "conv2d-input-adjoint" for n in g.nodes)

    (n_params, scatter_params), (n_both, scatter_both) = appended(False), appended(True)
    assert n_params < n_both
    assert not scatter_params and scatter_both


def test_backward_frees_cotangents_once_propagated():
    g = ad.Graph()
    x = g.leaf(np.linspace(-1.0, 1.0, 1 << 17))  # 1 MB
    y = x
    for _ in range(32):
        y = ad.mul(ad.tanh(y), 0.5)
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
    for shape in [(1, 1, 2, 5), (1, 1, 5, 2)]:
        with pytest.raises(ShapeError, match="kernel 3 too large for image"):
            ad.conv2d(np.zeros(shape), np.zeros((1, 2, 1, 3, 3)))


def test_col2im_matches_bincount_scatter_bitwise():
    """The strided adds sum each pixel's patches in _im2col's (ki, kj) order."""
    rng = np.random.default_rng(43)
    for b, c, h, w, k in [(2, 3, 6, 5, 3), (1, 1, 4, 4, 2), (3, 2, 5, 7, 3)]:
        oh, ow = h - k + 1, w - k + 1
        cols = rng.normal(size=(b, c * k * k, oh * ow))
        cols[rng.random(cols.shape) < 0.2] = -0.0
        idx = _patch_indices(c, h, w, k)
        where = idx + c * h * w * np.arange(b)[:, None, None]
        ref = np.bincount(where.reshape(-1), weights=cols.reshape(-1), minlength=b * c * h * w)
        got = ad._col2im(cols, (b, c, h, w), k)
        assert got.tobytes() == ref.tobytes()


def test_linear_weight_adjoint_matches_blas_bitwise():
    """g h^T is a matmul with inner dimension 1, computed as a product."""
    rng = np.random.default_rng(44)
    for sa, sb in [((6, 2), (6, 50)), ((1, 3), (1, 4)), ((4, 1), (4, 1))]:
        a, b = rng.normal(size=sa), rng.normal(size=sb)
        a[rng.random(sa) < 0.3] = 0.0
        b[rng.random(sb) < 0.3] = -0.0
        got = ad.linear_weight_adjoint(ad.Tensor(a), ad.Tensor(b)).data
        assert got.tobytes() == np.matmul(a[:, :, None], b[:, None, :]).tobytes()
        assert not np.signbit(got[got == 0.0]).any()


def _clip_chain(g, c):
    """The clip as seven graph ops, the reference clip_rows must reproduce."""
    norm = ad.sqrt(ad.tsum(ad.square(g), axes=-1, keepdims=True))
    return ad.mul(g, ad.broadcast(ad.div(c, ad.max_scalar(norm, c)), g.shape))


def test_clip_rows_matches_op_chain_bitwise():
    """Value, gradient, create-graph gradient and its squared norm are the
    chain's to the bit; the derivative of that norm, whose cotangents the
    chain sums in a different order, within roundoff."""
    rng = np.random.default_rng(45)
    g0 = rng.normal(size=(5, 4)) * np.array([[0.1], [0.5], [1.0], [2.0], [4.0]])

    def passes(clip_fn, x0, c):
        graph = ad.Graph()
        x = graph.leaf(x0)
        weights = ad.Tensor(np.linspace(0.5, 1.5, x0.size).reshape(x0.shape))
        out = ad.tsum(ad.mul(ad.square(clip_fn(ad.tanh(x), c)), weights))
        (plain,) = ad.backward(out, [x])
        (cg,) = ad.backward(out, [x], create_graph=True)
        norm_sq = ad.tsum(ad.square(cg))
        (second,) = ad.backward(norm_sq, [x])
        exact = [clip_fn(ad.Tensor(x0), c).data, plain.data, cg.data, norm_sq.data]
        return [a.tobytes() for a in exact], second.data

    for c in (0.3, 1.0, 5.0):
        for x0 in (g0, g0[:, :1], g0[0]):
            chain_exact, chain_second = passes(_clip_chain, x0, c)
            fused_exact, fused_second = passes(ad.clip_rows, x0, c)
            assert fused_exact == chain_exact
            scale = np.abs(chain_second).max()
            assert np.abs(fused_second - chain_second).max() <= 1e-13 * scale


def test_concat_flattens_parts_past_the_batch_axis():
    rng = np.random.default_rng(46)
    shapes = [(2, 3, 2), (2,), (2, 1), (2, 2, 1, 2)]
    values = [rng.normal(size=s) for s in shapes]
    graph = ad.Graph()
    parts = [graph.leaf(v) for v in values]
    joined = ad.concat(parts)
    assert joined.shape == (2, 6 + 1 + 1 + 4)
    assert joined.data.tobytes() == np.concatenate([v.reshape(2, -1) for v in values], axis=1).tobytes()
    weights = np.arange(joined.size, dtype=float).reshape(joined.shape)
    grads = ad.backward(ad.tsum(ad.mul(joined, ad.Tensor(weights))), parts)
    bounds = np.cumsum([0, 6, 1, 1, 4])
    for gr, v, lo, hi in zip(grads, values, bounds[:-1], bounds[1:]):
        assert gr.shape == v.shape
        np.testing.assert_array_equal(gr.data, weights[:, lo:hi].reshape(v.shape))
    for bad in ([np.ones((2, 3)), np.ones((3, 3))], [np.ones((2, 2)), np.ones(3)], [np.ones(()), np.ones(2)]):
        with pytest.raises(ShapeError, match="concat: shapes .* do not share a non-empty batch axis"):
            ad.concat([ad.Tensor(b) for b in bad])


# --------------------------------------------------------------------------
# layer ops: one node each, with rules closed over their op family
# --------------------------------------------------------------------------


def _layer_op_cases():
    """name -> (op, inputs): every layer op on small random inputs."""
    rng = np.random.default_rng(50)
    x, k, g = rng.normal(size=(2, 2, 5, 4)), rng.normal(size=(2, 3, 2, 2, 2)), rng.normal(size=(2, 3, 4, 3))
    w, h, gl = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4)), rng.normal(size=(2, 3))
    labels = [1, 0, 2]
    target = rng.normal(size=(3, 2, 2))
    clip_input = rng.normal(size=(3, 4)) * np.array([[1.5], [0.2], [3.0]])
    assert (np.abs(np.linalg.norm(clip_input, axis=1) - 1.0) > 0.1).all()
    return {
        "conv2d": (ad.conv2d, [x, k]),
        "conv2d-input-adjoint": (ad.conv2d_input_adjoint, [g, k]),
        "conv2d-kernel-adjoint": (ad.conv2d_kernel_adjoint, [x, g]),
        "linear": (ad.linear, [w, h]),
        "linear-input-adjoint": (ad.linear_input_adjoint, [w, gl]),
        "linear-weight-adjoint": (ad.linear_weight_adjoint, [gl, h]),
        "bias-add-dense": (ad.bias_add, [gl, rng.normal(size=(2, 3))]),
        "bias-add-image": (ad.bias_add, [g, rng.normal(size=(2, 3))]),
        "softmax": (ad.softmax, [rng.normal(size=(3, 4))]),
        "cross-entropy": (lambda z: ad.cross_entropy(z, labels), [2.0 * rng.normal(size=(3, 4))]),
        "mse": (lambda p: ad.mse(p, target), [rng.normal(size=(3, 2, 2))]),
        # rows 0 and 2 above the clip, row 1 below it, none near the kink
        "clip-rows": (lambda g: ad.clip_rows(g, 1.0), [clip_input]),
    }


LAYER_OP_CASES = _layer_op_cases()


def _with_input(inputs, i, t):
    """The op's inputs with input i replaced by t, the others as leaves on t's graph."""
    return [t if j == i else t.graph.leaf(v) for j, v in enumerate(inputs)]


def _weighted_square_sum(out):
    # a fixed nonlinear readout, so no symmetry of the op can hide a wrong rule
    weights = np.linspace(0.5, 1.5, out.size).reshape(out.shape)
    return ad.tsum(ad.mul(ad.square(out), ad.Tensor(weights)))


@pytest.mark.parametrize("name", sorted(LAYER_OP_CASES))
def test_layer_op_gradients_match_finite_differences(name):
    op, inputs = LAYER_OP_CASES[name]
    for i in range(len(inputs)):

        def f(t):
            if t.graph is None:
                t = ad.Graph().leaf(t.data)
            return _weighted_square_sum(op(*_with_input(inputs, i, t)))

        assert ad.finite_diff_check(f, inputs[i]) < 1e-5, f"input {i}"


@pytest.mark.parametrize("name", sorted(LAYER_OP_CASES))
def test_layer_op_second_order_matches_finite_differences(name):
    """Finite differences of the squared create-graph gradient in every input,
    differentiated in each input: the rules' own rules are right."""
    op, inputs = LAYER_OP_CASES[name]
    for i in range(len(inputs)):

        def grad_norm_sq(t):
            if t.graph is None:
                t = ad.Graph().leaf(t.data)
            leaves = _with_input(inputs, i, t)
            grads = ad.backward(_weighted_square_sum(op(*leaves)), leaves, create_graph=True)
            total = ad.tsum(ad.square(grads[0]))
            for gr in grads[1:]:
                total = ad.add(total, ad.tsum(ad.square(gr)))
            return total

        assert ad.finite_diff_check(grad_norm_sq, inputs[i]) < 1e-4, f"input {i}"


def test_conv_triple_is_closed_to_third_order():
    """A third derivative through conv2d matches finite differences of a second
    derivative, and every node the three passes record is a conv-family op or
    one of the elementwise ops the test itself applies."""
    rng = np.random.default_rng(51)
    x0, k0 = rng.normal(size=(1, 2, 4, 4)), rng.normal(size=(1, 2, 2, 2, 2))

    def second(xv, kv, create_graph):
        g = ad.Graph()
        x, k = g.leaf(xv), g.leaf(kv)
        out = ad.tsum(ad.square(ad.square(ad.conv2d(x, k))))
        (gk,) = ad.backward(out, [k], create_graph=True)
        (gx,) = ad.backward(ad.tsum(ad.square(gk)), [x], create_graph=True)
        return g, x, k, ad.tsum(ad.mul(gx, ad.Tensor(np.linspace(-1.0, 1.0, gx.size).reshape(gx.shape))))

    g, x, k, s = second(x0, k0, True)
    third_x, third_k = ad.backward(s, [x, k], create_graph=True)
    layer_ops = {n.op for n in g.nodes} - {"leaf", "add", "mul", "square", "sum", "broadcast", "reshape"}
    assert layer_ops == {"conv2d", "conv2d-input-adjoint", "conv2d-kernel-adjoint"}

    h = 1e-5
    for analytic, base, which in ((third_x, x0, 0), (third_k, k0, 1)):
        numeric = np.zeros_like(base)
        for j in range(base.size):
            e = np.zeros(base.size)
            e[j] = h
            e = e.reshape(base.shape)
            args = [x0, k0]
            args[which] = base + e
            hi = second(*args, False)[3].item()
            args[which] = base - e
            lo = second(*args, False)[3].item()
            numeric.reshape(-1)[j] = (hi - lo) / (2 * h)
        np.testing.assert_allclose(analytic.data, numeric, rtol=1e-5, atol=1e-6 * np.abs(numeric).max())


def test_cross_entropy_against_log_sum_exp():
    z = np.array([[1.0, -2.0, 0.5], [40.0, 0.0, -3.0], [-700.0, 700.0, 0.0]])
    labels = [2, 0, 0]
    got = ad.cross_entropy(ad.Tensor(z), labels).data
    np.testing.assert_allclose(got[0], np.log(np.exp(z[0]).sum()) - 0.5, rtol=1e-15)
    # a dominant logit keeps the loss's digits: log1p(e^-40 + e^-43), not 0
    np.testing.assert_allclose(got[1], np.log1p(np.exp(-40.0) + np.exp(-43.0)), rtol=1e-15)
    assert got[2] == 1400.0
    s = ad.softmax(ad.Tensor(z)).data
    np.testing.assert_allclose(s.sum(axis=1), 1.0, rtol=1e-15)


@pytest.mark.parametrize("labels, bad", [([0, 3], 3), ([-1, 0], -1)])
def test_cross_entropy_rejects_out_of_range_labels(labels, bad):
    with pytest.raises(ShapeError, match=f"label {bad} out of range for 3 logits"):
        ad.cross_entropy(ad.Tensor(np.zeros((2, 3))), labels)
