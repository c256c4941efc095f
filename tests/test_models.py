"""Model construction, per-sample losses/gradients and checkpoint I/O."""

import copy

import numpy as np
import pytest

from plislab import autodiff as ad
from plislab import cli, datasets, models, plis
from plislab.autodiff import backward
from plislab.errors import DataFormatError, ShapeError

LINEAR_NO_BIAS = models.ModelSpec((models.Linear(2, 1, bias=False),), models.MSE)


def _linear_params(w):
    spec = models.ModelSpec((models.Linear(len(w), 1, bias=False),), models.MSE)
    layout = models.layout_for(spec)
    return spec, models.ParamSet(np.asarray(w, dtype=float), layout)


class TestInitParams:
    def test_same_seed_is_identical(self):
        spec = models.ModelSpec(
            (models.Linear(4, 3), models.Relu(), models.Linear(3, 2)), models.MSE
        )
        a = models.init_params(spec, 7)
        b = models.init_params(spec, 7)
        np.testing.assert_array_equal(a.flat, b.flat)
        assert models.init_params(spec, 8).flat.tolist() != a.flat.tolist()

    def test_biases_are_zero(self):
        spec = models.ModelSpec((models.Conv2d(1, 2, 3), models.Flatten()), models.MSE)
        params = models.init_params(spec, 3)
        bias = next(b for b in params.layout if b.name == "0.bias")
        np.testing.assert_array_equal(params.flat[bias.offset : bias.offset + bias.size], 0.0)

    def test_linear_weights_within_uniform_bound(self):
        spec = models.ModelSpec((models.Linear(2, 1, bias=False),), models.MSE)
        params = models.init_params(spec, 7)
        a = np.sqrt(6.0 / 3.0)
        assert np.all(np.abs(params.flat) <= a)
        assert params.flat.std() > 0

    def test_conv_fan_bound(self):
        spec = models.ModelSpec((models.Conv2d(2, 4, 3, bias=False),), models.MSE)
        params = models.init_params(spec, 11)
        a = np.sqrt(6.0 / (2 * 9 + 4 * 9))
        assert np.all(np.abs(params.flat) <= a)


class TestParamSetLayout:
    def test_layout_size_mismatch_rejected(self):
        spec = models.ModelSpec((models.Linear(2, 2),), models.MSE)
        layout = models.layout_for(spec)
        with pytest.raises(ShapeError):
            models.ParamSet(np.zeros(5), layout)


class TestPerSampleLoss:
    def test_linear_mse_closed_form(self):
        spec, params = _linear_params([1.0, 2.0])
        batch = models.stack_batch(spec, [[1.0, 1.0]], [0.0])
        (loss,) = models.per_sample_loss_and_grad(spec, params, batch)[0]
        assert loss == pytest.approx(9.0, abs=1e-12)

    def test_exact_fit_gives_zero(self):
        spec = models.ModelSpec((models.Linear(3, 2),), models.MSE)
        params = models.init_params(spec, 5)
        x = np.array([0.3, -0.2, 0.9])
        y = models._layer_records(spec, params, x[None])[0][0]
        batch = models.stack_batch(spec, [x], [y])
        (loss,) = models.per_sample_loss_and_grad(spec, params, batch)[0]
        assert loss == 0.0

    def test_cross_entropy_uniform_logits_is_ln_k(self):
        spec = models.ModelSpec((models.Linear(4, 10, bias=False),), models.CROSS_ENTROPY)
        layout = models.layout_for(spec)
        params = models.ParamSet(np.zeros(40), layout)
        batch = models.stack_batch(spec, [np.ones(4)], [3])
        (loss,) = models.per_sample_loss_and_grad(spec, params, batch)[0]
        assert loss == pytest.approx(np.log(10.0), rel=1e-12)

    def test_shape_mismatch_raises(self):
        spec, params = _linear_params([1.0, 2.0])
        with pytest.raises(ShapeError):
            models.attach_sample(spec, params, models.stack_batch(spec, [[1.0, 1.0, 1.0]], [0.0]))


class TestPerSampleGrad:
    def test_linear_closed_form(self):
        spec, params = _linear_params([1.0, 2.0])
        g = models.per_sample_grad(spec, params, [1.0, 1.0], 0.0)
        np.testing.assert_allclose(g.data, [6.0, 6.0], rtol=1e-12)

    def test_zero_residual_gives_zero_vector(self):
        spec, params = _linear_params([1.0, 2.0])
        g = models.per_sample_grad(spec, params, [1.0, 1.0], 3.0)
        np.testing.assert_array_equal(g.data, np.zeros(2))

    def test_matches_finite_differences_in_theta(self):
        spec = models.ModelSpec(
            (models.Linear(3, 4), models.Tanh(), models.Linear(4, 2)), models.MSE
        )
        params = models.init_params(spec, 2)
        x = np.array([0.4, -0.7, 0.2])
        y = np.array([0.1, -0.3])
        g = models.per_sample_grad(spec, params, x, y).data

        batch = models.stack_batch(spec, [x], [y])

        def loss_of_theta(theta):
            trial = params.with_flat(theta)
            return float(models.per_sample_loss_and_grad(spec, trial, batch)[0][0])

        h = 1e-5
        fd = np.zeros_like(g)
        for j in range(params.count):
            up, down = params.flat.copy(), params.flat.copy()
            up[j] += h
            down[j] -= h
            fd[j] = (loss_of_theta(up) - loss_of_theta(down)) / (2 * h)
        rel = np.abs(g - fd) / (np.abs(fd) + 1e-12)
        assert rel.max() < 1e-5

    def test_deterministic(self):
        spec = models.ModelSpec(
            (models.Conv2d(1, 2, 3), models.Relu(), models.Flatten(), models.Linear(50, 2)),
            models.CROSS_ENTROPY,
        )
        params = models.init_params(spec, 9)
        x = np.linspace(0, 1, 49).reshape(1, 7, 7)
        a = models.per_sample_grad(spec, params, x, 1).data
        b = models.per_sample_grad(spec, params, x, 1).data
        np.testing.assert_array_equal(a, b)

    def test_create_graph_gradient_is_redifferentiable(self):
        spec, params = _linear_params([1.0, 2.0])
        sample = models.attach_sample(spec, params, models.stack_batch(spec, [[1.0, 1.0]], [0.0]))
        # ||g||^2 seeds the node with its gradient in g, 2 g
        (gx,) = backward(sample.grads, [sample.x], cotangent=2.0 * sample.grads.data)
        # d/dx 4 r^2 ||x||^2 = 8 r w ||x||^2 + 8 r^2 x, r = 3
        np.testing.assert_allclose(gx.data, [[120.0, 168.0]], rtol=1e-12)


def test_batch_mean_loss_gradient_equals_mean_of_per_sample_gradients():
    spec = models.ModelSpec(
        (models.Linear(3, 5), models.Softplus(), models.Linear(5, 2)), models.MSE
    )
    params = models.init_params(spec, 4)
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(6, 3))
    ys = rng.normal(size=(6, 2))
    # one batch: the mean of its rows against one sample at a time, and
    # against central differences of the batch's mean loss in theta
    batch = models.stack_batch(spec, xs, ys)
    gb = models.per_sample_loss_and_grad(spec, params, batch)[1].mean(axis=0)
    per = np.mean(
        [models.per_sample_grad(spec, params, x, y).data for x, y in zip(xs, ys)], axis=0
    )
    rel = np.abs(gb - per) / (np.abs(per) + 1e-15)
    assert rel.max() < 1e-10

    def mean_loss(theta):
        return models.per_sample_loss_and_grad(spec, params.with_flat(theta), batch)[0].mean()

    h = 1e-6
    fd = np.array([
        (mean_loss(params.flat + h * e) - mean_loss(params.flat - h * e)) / (2 * h)
        for e in np.eye(params.count)
    ])
    assert np.abs(gb - fd).max() <= 1e-7 * np.abs(fd).max()


def test_input_is_registered_as_differentiable_leaf():
    """attach_sample's input is the graph's leaf: a backward pass seeded with c
    at the gradient node matches central differences of <g(x), c>."""
    spec = models.ModelSpec(
        (models.Linear(2, 3), models.Relu(), models.Linear(3, 1)), models.MSE
    )
    params = models.init_params(spec, 1)
    x = np.array([0.5, -0.4])
    c = np.random.default_rng(1).normal(size=params.count)
    batch = models.stack_batch(spec, x[None], [np.array([0.2])])
    sample = models.attach_sample(spec, params, batch)
    assert sample.graph.nodes[sample.x.node_id].op == "leaf"
    (gx,) = backward(sample.grads, [sample.x], cotangent=c[None])

    def dot(xv):
        return models.per_sample_grad(spec, params, xv, np.array([0.2])).data @ c

    h = 1e-6
    fd = np.array([(dot(x + h * e) - dot(x - h * e)) / (2 * h) for e in np.eye(2)])
    rel = np.abs(gx.data[0] - fd) / (np.abs(fd) + 1e-12)
    assert rel.max() < 1e-5


@pytest.mark.parametrize("arch", ["cnn", "mlp", "linear"])
def test_cli_models_attach_the_input_and_one_gradient_node(arch):
    """Tape-size guard on the CLI's models: attach_sample records the input
    leaf and one node for the (B, p) gradient rows, whatever the layers."""
    if arch == "cnn":
        data = datasets.make_glyph_images(2, 0)
        spec = models.cnn_spec(28, 28, 2)
        assert cli._build_spec("cnn", data) == spec
        subject = datasets.image_subjects(data)[0]
    else:
        data = datasets.make_regression(4, 16, (9,), 0.1, 0)
        spec = cli._build_spec(arch, (data.X, data.y))
        subject = datasets.tabular_subjects(data.X, data.y)[0]
    params = models.init_params(spec, 0)
    sample = models.attach_sample(spec, params, models.stack_batch(spec, [subject.x], [subject.y]))
    assert [node.op for node in sample.graph.nodes] == ["leaf", "per-sample-grad"]
    assert sample.grads.shape == (1, params.count)


def test_attach_sample_tiles_parameters_as_read_only_views():
    """attach_sample's forward pass, _layer_records, reads each weight block
    through a read-only (1, *block shape) view of the flat parameters, one
    row that broadcasts over the batch."""
    spec = models.ModelSpec((models.Linear(3, 2), models.Tanh(), models.Linear(2, 1)), models.MSE)
    params = models.init_params(spec, 4)
    _, records = models._layer_records(spec, params, np.ones((5, 3)))
    weights = [records[0][0], records[2][0]]
    blocks = [b for b in params.layout if b.name.endswith(".weight")]
    for block, view in zip(blocks, weights, strict=True):
        expected = params.flat[block.offset : block.offset + block.size].reshape(block.shape)
        assert view.shape == (1,) + block.shape
        assert not view.flags.writeable
        assert np.shares_memory(view, params.flat)
        np.testing.assert_array_equal(view[0], expected)


def test_a_workspace_keeps_tiles_that_follow_flat_updated_in_place():
    """With a workspace, _layer_records reads the ParamSet's one tile table
    and the workspace keeps no tile: each chunk length gets the same views,
    they show an update of flat in place, and a new flat array gets new
    tiles."""
    spec = models.ModelSpec((models.Linear(3, 2), models.Tanh(), models.Linear(2, 1)), models.MSE)
    params, work = models.init_params(spec, 4), models.Workspace()

    def weights(n):
        return models._layer_records(spec, params, np.ones((n, 3)), work)[1][0][0]

    tile = weights(5)
    assert weights(5) is tile and weights(1) is tile
    assert tile is models._layer_records(spec, params, np.ones((5, 3)))[1][0][0]
    assert not any(key[0] == "tiles" for key in work._views)
    params.flat *= 2.0
    assert np.shares_memory(tile, params.flat)
    np.testing.assert_array_equal(tile[0], params.columns(params.flat, "0.weight"))
    params.flat = params.flat.copy()
    assert weights(5) is not tile and np.shares_memory(weights(5), params.flat)


def test_layer_records_reads_one_tile_table_at_every_batch_length():
    """_layer_records on batches of 1, 5 and 7 reads the same tile arrays,
    an update of flat in place shows through them, and assigning a new flat
    array gets a new table, as does a copy of the ParamSet."""
    spec = models.ModelSpec((models.Linear(3, 2), models.Tanh(), models.Linear(2, 1)), models.MSE)
    params = models.init_params(spec, 4)

    def tiles(n):
        records = models._layer_records(spec, params, np.ones((n, 3)))[1]
        return records[0][0], records[2][0]

    first = tiles(1)
    for n in (5, 7):
        assert all(a is b for a, b in zip(tiles(n), first, strict=True))
    before = first[0].copy()
    params.flat *= 2.0
    np.testing.assert_array_equal(first[0], 2.0 * before)
    h = models._layer_records(spec, params, np.ones((5, 3)))[0]
    old = params.flat
    params.flat = params.flat.copy()
    again = tiles(5)
    assert all(a is not b for a, b in zip(again, first, strict=True))
    assert all(np.shares_memory(a, params.flat) and not np.shares_memory(a, old) for a in again)
    assert models._layer_records(spec, params, np.ones((5, 3)))[0].tobytes() == h.tobytes()
    clone = copy.deepcopy(params)
    clone.flat *= 3.0
    tile = clone.tiles()["0.weight"]
    assert np.shares_memory(tile, clone.flat)
    np.testing.assert_array_equal(tile[0], clone.columns(clone.flat, "0.weight"))


def test_routes_without_a_workspace_build_the_tile_table_once(monkeypatch):
    """On one ParamSet, two attach_sample calls without a workspace, a
    plis_direct and a fim_subject take their parameter tiles from one table,
    built by one ParamSet.views call on a view of flat."""
    spec = models.ModelSpec((models.Linear(3, 2), models.Tanh(), models.Linear(2, 1)), models.MSE)
    params = models.init_params(spec, 4)
    data = datasets.make_regression(3, 3, (1,), 0.1, 0)
    subject = datasets.tabular_subjects(data.X, data.y)[0]
    batch = models.stack_batch(spec, [subject.x], [subject.y])
    on_flat, original = [], models.ParamSet.views

    def counted(self, rows):
        on_flat.append(np.shares_memory(rows, self.flat))
        return original(self, rows)

    monkeypatch.setattr(models.ParamSet, "views", counted)
    for _ in range(2):
        models.attach_sample(spec, params, batch)
    plis.plis_direct(spec, params, subject, 1.0, 0.5)
    plis.fim_subject(spec, params, subject, 1.0)
    assert on_flat.count(True) == 1


def test_a_workspace_hands_out_a_fresh_array_below_its_least():
    """Workspace(least) keeps, and hands out again, only arrays of at least
    least entries; a smaller request gets a fresh array, kept nowhere."""
    work = models.Workspace(4)
    small = work.empty("a", (3,))
    assert not np.shares_memory(small, work.empty("a", (3,)))
    large = work.empty("a", (2, 2))
    assert work.empty("a", (2, 2)) is large and work.zeros("a", (2, 2)) is large
    every = models.Workspace()  # least 0: every array is kept
    assert every.empty("a", (1,)) is every.empty("a", (1,))


def test_the_tangent_walk_keeps_its_bits_with_a_workspace():
    """Along input directions (the rows' mode, whose patch matrices the
    reverse walk reads) and along parameter tangents, a workspace changes no
    bit of the walk, and its result is not a view of the workspace."""
    spec = models.ModelSpec((models.Conv2d(1, 2, 3), models.Relu(), models.Conv2d(2, 2, 2),
                             models.Tanh(), models.Flatten(), models.Linear(18, 2)),
                            models.CROSS_ENTROPY)
    params = models.init_params(spec, 0)
    rng = np.random.default_rng(0)
    batch = models.stack_batch(spec, list(rng.uniform(size=(3, 1, 6, 6))), [0, 1, 0])
    h, records = models._layer_records(spec, params, batch.xs)
    g = models._loss_and_cotangent(spec, h, batch.targets)[1]
    cotangents = models._reverse(spec, params, records, g, None)[1]
    for tangent in ({"dx": rng.normal(size=(3, 1, 6, 6))},
                    {"dtheta": rng.normal(size=(3, params.count))}):
        work = models.Workspace()
        want = models._tangent_walk(spec, params, h, records, cotangents, **tangent)
        got = models._tangent_walk(spec, params, h, records, cotangents, **tangent, work=work)
        assert got.tobytes() == want.tobytes()
        assert not any(np.shares_memory(got, b) for b in work._buffers.values())


def _signed_zeros(rng, shape):
    """Normal entries, about a third of them +0.0 or -0.0."""
    a = rng.normal(size=shape)
    zero = rng.uniform(size=shape) < 0.35
    a[zero] = rng.choice([-0.0, 0.0], size=int(zero.sum()))
    return a


@pytest.mark.parametrize("order", ["first", "second"])
@pytest.mark.parametrize("workspace", [False, True], ids=["allocated", "workspace"])
def test_linear_weight_rows_are_written_in_place_with_the_kernels_bits(order, workspace):
    """_reverse writes a Linear layer's weight rows straight into their block
    of the (B, p) rows: first order g h^T + 0.0, second order the sum of the
    two normalised products, to the bit of the kernel's own arrays, signed
    zeros in g, h and the second pair included."""
    rng = np.random.default_rng(7)
    spec = models.ModelSpec((models.Linear(4, 3, bias=False),), models.MSE)
    params = models.init_params(spec, 1)
    b = 6
    g, h, up, moved = (_signed_zeros(rng, shape) for shape in [(b, 3), (b, 4), (b, 3), (b, 4)])
    records = [(params.tiles()["0.weight"], h)]
    work = models.Workspace() if workspace else None
    rows = work.empty("rows", (b, params.count)) if workspace else np.empty((b, params.count))
    rows.fill(np.nan)
    if order == "first":
        models._reverse(spec, params, records, g, rows, work=work)
        want = ad._linear_weight_adjoint_np(g, h)
        by_hand = g[:, :, None] * h[:, None, :] + 0.0
    else:
        models._reverse(spec, params, records, g, rows, [up], [moved], work=work)
        want = ad._linear_weight_adjoint_np(g, h) + ad._linear_weight_adjoint_np(up, moved)
        by_hand = (g[:, :, None] * h[:, None, :] + 0.0) + (up[:, :, None] * moved[:, None, :] + 0.0)
    products = g[:, :, None] * h[:, None, :]
    assert (np.signbit(products) & (products == 0.0)).any()  # a -0.0 that + 0.0 turns to +0.0
    assert rows.tobytes() == want.reshape(b, -1).tobytes() == by_hand.reshape(b, -1).tobytes()


@pytest.mark.parametrize("loss", [models.MSE, models.CROSS_ENTROPY])
def test_loss_cotangent_is_the_loss_adjoint_at_a_unit_seed_bitwise(loss):
    """The cotangent _loss_and_cotangent takes without a seed vector has the
    bits of autodiff's loss adjoint seeded with ones, signed zeros included."""
    rng = np.random.default_rng(8)
    h = _signed_zeros(rng, (9, 3))
    if loss == models.MSE:
        targets = np.where(rng.uniform(size=(9, 3)) < 0.3, h, _signed_zeros(rng, (9, 3)))
        want = ad._mse_adjoint_np(np.ones(9), h, targets)
    else:
        targets = rng.integers(0, 3, size=9)
        want = ad._cross_entropy_adjoint_np(np.ones(9), h, targets)
    spec = models.ModelSpec((models.Linear(2, 3),), loss)
    _, got = models._loss_and_cotangent(spec, h, targets)
    assert got.tobytes() == want.tobytes()


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        spec = models.ModelSpec(
            (models.Conv2d(1, 3, 3), models.Relu(), models.Flatten(), models.Linear(27, 2)),
            models.CROSS_ENTROPY,
        )
        params = models.init_params(spec, 42)
        path = tmp_path / "model.plck"
        models.save_checkpoint(path, spec, params)
        spec2, params2 = models.load_checkpoint(path)
        assert spec2 == spec
        assert params2.flat.tobytes() == params.flat.tobytes()
        models.save_checkpoint(tmp_path / "model2.plck", spec2, params2)
        assert (tmp_path / "model2.plck").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_save_refuses_non_finite_parameters(self, tmp_path, bad):
        spec, params = _linear_params([1.0, bad])
        path = tmp_path / "model.plck"
        with pytest.raises(DataFormatError, match="checkpoint parameter 1 is not finite"):
            models.save_checkpoint(path, spec, params)
        assert not path.exists()

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "junk.plck"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(DataFormatError, match="byte 0"):
            models.load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        spec, params = _linear_params([1.0, 2.0])
        path = tmp_path / "model.plck"
        models.save_checkpoint(path, spec, params)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(DataFormatError):
            models.load_checkpoint(path)

    def test_spec_text_roundtrip(self):
        spec = models.ModelSpec(
            (
                models.Conv2d(1, 8, 3),
                models.Relu(),
                models.Conv2d(8, 16, 3, bias=False),
                models.Tanh(),
                models.Flatten(),
                models.Softplus(),
                models.Linear(16, 2),
                models.Linear(2, 2, bias=False),
            ),
            models.CROSS_ENTROPY,
        )
        text = models.spec_to_text(spec)
        assert text == (
            "conv2d:1:8:3:1;relu;conv2d:8:16:3:0;tanh;flatten;softplus;"
            "linear:16:2:1;linear:2:2:0|cross_entropy"
        )
        assert models.spec_from_text(text) == spec
