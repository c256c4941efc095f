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


def test_matmul_identity():
    eye = ad.Tensor(np.eye(2))
    m = ad.Tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(ad.matmul(eye, m).data, m.data)


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
    # the gemm after im2col runs several times slower on a strided patch matrix
    assert ad.im2col(ad.Tensor(image), 3).data.flags.c_contiguous


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

    m = rng.normal(size=(3, 4))

    def through_matmul(t):
        return ad.tsum(ad.square(ad.matmul(t, ad.transpose(ad.Tensor(m)))))

    assert ad.finite_diff_check(through_matmul, rng.normal(size=(2, 4))) < 1e-5

    stacked = rng.normal(size=(3, 4, 2))

    def through_batched_matmul(t):
        return ad.tsum(ad.square(ad.matmul(ad.transpose(t), ad.Tensor(stacked))))

    assert ad.finite_diff_check(through_batched_matmul, rng.normal(size=(3, 4, 5))) < 1e-5

    fixed = rng.normal(size=(2, 3))

    def through_concat(t):
        joined = ad.concat([t, ad.Tensor(fixed), ad.square(t)], axis=1)
        return ad.tsum(ad.square(ad.mul(joined, joined)))

    assert ad.finite_diff_check(through_concat, rng.normal(size=(2, 2))) < 1e-5


def test_conv_ops_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    kernel = rng.normal(size=(2, 2, 1, 3, 3))
    x = rng.normal(size=(2, 1, 6, 6))

    def conv_in_x(t):
        return ad.tsum(ad.square(ad.conv2d(t, ad.Tensor(kernel), pad=1)))

    assert ad.finite_diff_check(conv_in_x, x) < 1e-5

    def conv_in_kernel(t):
        return ad.tsum(ad.square(ad.conv2d(ad.Tensor(x), t, pad=1)))

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

    w = rng.normal(size=(2, 3))

    def quadratic_form(t):
        y = ad.matmul(ad.Tensor(w), ad.reshape(t, (3, 1)))
        return ad.tsum(ad.square(y))

    cases.append(("matmul-square", quadratic_form, rng.normal(size=(3,))))
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
        ad.backward(ad.square(x), [x])  # non-scalar output, no seed
    with pytest.raises(GraphError):
        ad.backward(ad.Tensor([1.0]), [x])  # detached output


def test_backward_with_seed_cotangent():
    g = ad.Graph()
    x = g.leaf([1.0, 2.0, 3.0])
    out = ad.square(x)
    (grad,) = ad.backward(out, [x], seed=ad.Tensor([1.0, 0.0, 2.0]))
    np.testing.assert_allclose(grad.data, [2.0, 0.0, 12.0])


def test_shape_mismatch_errors_name_op_and_shapes():
    with pytest.raises(ShapeError, match="add"):
        ad.add(ad.Tensor([1.0, 2.0]), ad.Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="concat"):
        ad.concat([ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 3)))], axis=1)
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
    g_vec, gx = ad.backward(vec, [vec, x], seed=ad.Tensor([3.0, -1.0]))
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
    w = g.leaf(rng.normal(size=(3, 2)))
    x = g.leaf(rng.normal(size=(2, 1)))
    out = ad.tsum(ad.tanh(ad.matmul(w, x)))
    (gw,) = ad.backward(out, [w], create_graph=True)
    # d/dx of sum_ij (dL/dW)_ij^2, with x outside the first pass's wrt
    (gx,) = ad.backward(ad.tsum(ad.square(gw)), [x])

    def norm_sq(xv):
        t = ad.Graph().leaf(w.data)
        o = ad.tsum(ad.tanh(ad.matmul(t, ad.Tensor(xv))))
        return float(np.sum(ad.backward(o, [t])[0].data ** 2))

    h = 1e-6
    fd = np.zeros(2)
    for j in range(2):
        e = np.zeros((2, 1))
        e[j] = h
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
        return len(g.nodes) - before, any(n.op == "col2im" for n in g.nodes)

    (n_params, col2im_params), (n_both, col2im_both) = appended(False), appended(True)
    assert n_params < n_both
    assert not col2im_params and col2im_both


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


def test_col2im_matches_bincount_scatter_bitwise():
    """The strided adds sum each pixel's patches in im2col's (ki, kj) order."""
    rng = np.random.default_rng(43)
    for b, c, h, w, k, pad in [(2, 3, 6, 5, 3, 1), (1, 1, 4, 4, 2, 0), (3, 2, 5, 7, 3, 0)]:
        oh, ow = h + 2 * pad - k + 1, w + 2 * pad - k + 1
        cols = rng.normal(size=(b, c * k * k, oh * ow))
        cols[rng.random(cols.shape) < 0.2] = -0.0
        idx, (hp, wp, _, _) = ad._conv_geometry(c, h, w, k, pad)
        where = idx + c * hp * wp * np.arange(b)[:, None, None]
        ref = np.bincount(where.reshape(-1), weights=cols.reshape(-1), minlength=b * c * hp * wp)
        ref = ref.reshape(b, c, hp, wp)[:, :, pad : pad + h, pad : pad + w]
        got = ad.col2im(ad.Tensor(cols), (b, c, h, w), k, pad).data
        assert got.tobytes() == np.ascontiguousarray(ref).tobytes()


def test_matmul_with_inner_dimension_one_matches_blas_bitwise():
    rng = np.random.default_rng(44)
    for sa, sb in [((6, 2, 1), (6, 1, 50)), ((3, 1), (1, 4)), ((4, 1, 1), (4, 1, 1))]:
        a, b = rng.normal(size=sa), rng.normal(size=sb)
        a[rng.random(sa) < 0.3] = 0.0
        b[rng.random(sb) < 0.3] = -0.0
        got = ad.matmul(ad.Tensor(a), ad.Tensor(b)).data
        assert got.tobytes() == np.matmul(a, b).tobytes()
        assert not np.signbit(got[got == 0.0]).any()
