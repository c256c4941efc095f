"""PLIS/FIM/JacSens against hand-derived closed forms and each other.

The linear-regression closed form is derived and verified numerically
*before* any autodiff path is trusted:

    loss = (w.x - y)^2,   r = w.x - y
    g = dloss/dw = 2 r x
    ||g||^2 = 4 r^2 ||x||^2                  -> pl = 4 r^2 ||x||^2 / s^2
    d||g||^2/dx = 8 r w ||x||^2 + 8 r^2 x    -> plis = (...) / s^2
    J = dg/dx = 2 r I + 2 x w^T              -> fim = J^T J / s^2
"""

import numpy as np
import pytest

from plislab import datasets, models, plis
from plislab.errors import ConfigError, DimensionGuardError


def oracle_pl(w, x, y, sigma=None):
    r = float(w @ x - y)
    value = 4.0 * r * r * float(x @ x)
    return value / sigma**2 if sigma is not None else value


def oracle_plis(w, x, y, sigma=None):
    r = float(w @ x - y)
    value = 8.0 * r * w * float(x @ x) + 8.0 * r * r * x
    return value / sigma**2 if sigma is not None else value


def oracle_jacobian(w, x, y):
    r = float(w @ x - y)
    return 2.0 * r * np.eye(len(x)) + 2.0 * np.outer(x, w)


def _linear(w):
    w = np.asarray(w, dtype=float)
    spec = models.ModelSpec((models.Linear(len(w), 1, bias=False),), models.MSE)
    return spec, models.ParamSet(w, models.layout_for(spec))


def _subject(x, y, sid="s0"):
    return plis.SubjectRecord(sid, np.asarray(x, dtype=float), y)


def _pl(spec, params, subject, sigma=None, clip=None):
    """The subject's PL, a value of plis_reports' forward pass."""
    return plis.plis_reports(spec, params, [subject], sigma, clip)[0].pl


class TestOracleItself:
    """Establish the closed form by central differences before using it."""

    def test_oracle_plis_is_derivative_of_oracle_pl(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            w, x = rng.normal(size=4), rng.normal(size=4)
            y = rng.normal()
            an = oracle_plis(w, x, y, sigma=1.7)
            h = 1e-6
            for j in range(4):
                up, dn = x.copy(), x.copy()
                up[j] += h
                dn[j] -= h
                fd = (oracle_pl(w, up, y, 1.7) - oracle_pl(w, dn, y, 1.7)) / (2 * h)
                assert an[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_oracle_jacobian_is_derivative_of_gradient(self):
        rng = np.random.default_rng(1)
        w, x = rng.normal(size=3), rng.normal(size=3)
        y = rng.normal()
        jac = oracle_jacobian(w, x, y)
        h = 1e-6
        for j in range(3):
            up, dn = x.copy(), x.copy()
            up[j] += h
            dn[j] -= h
            g_up = 2.0 * (w @ up - y) * up
            g_dn = 2.0 * (w @ dn - y) * dn
            np.testing.assert_allclose(jac[:, j], (g_up - g_dn) / (2 * h), rtol=1e-5, atol=1e-8)


class TestPrivacyLoss:
    """PL as plis_reports gives it, against the closed form and its sigma scaling."""

    def test_spec_example(self):
        spec, params = _linear([1.0, 2.0])
        value = _pl(spec, params, _subject([1.0, 1.0], 0.0), sigma=3.0)
        assert value == pytest.approx(8.0, rel=1e-12)

    def test_zero_residual_subject(self):
        spec, params = _linear([1.0, 2.0])
        assert _pl(spec, params, _subject([1.0, 1.0], 3.0), sigma=2.0) == 0.0

    def test_nonprivate_equals_private_times_sigma_sq(self):
        spec, params = _linear([0.7, -1.1, 0.4])
        subject = _subject([0.2, 0.5, -0.8], 0.3)
        for sigma in (0.5, 1.0, 3.7):
            private = _pl(spec, params, subject, sigma=sigma)
            non_private = _pl(spec, params, subject)
            assert private * sigma**2 == pytest.approx(non_private, rel=1e-12)

    def test_pl_times_sigma_sq_independent_of_sigma(self):
        spec, params = _linear([0.7, -1.1])
        subject = _subject([0.4, 0.9], -0.2)
        values = [_pl(spec, params, subject, sigma=s) * s * s for s in (0.3, 1.0, 9.0)]
        np.testing.assert_allclose(values, values[0], rtol=1e-12)

    def test_invalid_sigma(self):
        spec, params = _linear([1.0])
        with pytest.raises(ConfigError):
            _pl(spec, params, _subject([1.0], 0.0), sigma=0.0)


class TestPlisDirect:
    def test_spec_example_closed_form(self):
        spec, params = _linear([1.0, 2.0])
        report = plis.plis_direct(spec, params, _subject([1.0, 1.0], 0.0), sigma=3.0)
        np.testing.assert_allclose(report.plis, [120.0 / 9.0, 168.0 / 9.0], rtol=1e-12)
        assert report.pl == pytest.approx(8.0, rel=1e-12)
        assert report.mode == plis.MODE_PRIVATE
        assert report.subject_plis_norm == pytest.approx(np.linalg.norm(report.plis))

    def test_zero_gradient_subject_gives_zero_matrix(self):
        spec, params = _linear([1.0, 2.0])
        report = plis.plis_direct(spec, params, _subject([1.0, 1.0], 3.0))
        np.testing.assert_array_equal(report.plis, np.zeros(2))
        assert report.mode == plis.MODE_NON_PRIVATE

    @pytest.mark.parametrize("expanded", [False, True])
    def test_zero_gradient_subject_under_a_clip_gives_zero_matrix(self, expanded):
        # ||g|| = 0 <= C: the clip is the identity there, and so is its rule
        spec, params = _linear([1.0, 2.0])
        (report,) = plis.plis_reports(spec, params, [_subject([1.0, 1.0], 3.0)],
                                      sigma=1.0, clip=1.0, expanded=expanded)
        assert report.pl == 0.0
        np.testing.assert_array_equal(report.plis, np.zeros(2))

    def test_closed_form_on_random_linear_cases(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            w, x = rng.normal(size=5), rng.normal(size=5)
            y, sigma = rng.normal(), rng.uniform(0.5, 3.0)
            spec, params = _linear(w)
            report = plis.plis_direct(spec, params, _subject(x, y), sigma=sigma)
            expected = oracle_plis(w, x, y, sigma)
            rel = np.abs(report.plis - expected) / (np.abs(expected) + 1e-300)
            assert rel.max() < 1e-10

    def test_matches_finite_differences_of_privacy_loss(self):
        spec = models.ModelSpec(
            (models.Linear(4, 6), models.Tanh(), models.Linear(6, 2)), models.MSE
        )
        params = models.init_params(spec, 3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=4)
        y = rng.normal(size=2)
        report = plis.plis_direct(spec, params, _subject(x, y), sigma=1.3)
        h = 1e-5
        for j in range(4):
            up, dn = x.copy(), x.copy()
            up[j] += h
            dn[j] -= h
            fd = (
                _pl(spec, params, _subject(up, y), sigma=1.3)
                - _pl(spec, params, _subject(dn, y), sigma=1.3)
            ) / (2 * h)
            assert abs(report.plis[j] - fd) / (abs(fd) + 1e-12) < 1e-4


def _random_small_model(rng, kind):
    if kind == "mlp":
        acts = [models.Relu(), models.Tanh(), models.Softplus()]
        d_in, hidden, d_out = rng.integers(3, 7), rng.integers(4, 9), rng.integers(2, 4)
        layers = (
            models.Linear(int(d_in), int(hidden)),
            acts[int(rng.integers(0, 3))],
            models.Linear(int(hidden), int(d_out)),
        )
        loss = models.MSE if rng.random() < 0.5 else models.CROSS_ENTROPY
        spec = models.ModelSpec(layers, loss)
        x = rng.normal(size=int(d_in))
        y = rng.normal(size=int(d_out)) if loss == models.MSE else int(rng.integers(0, d_out))
    else:
        side = int(rng.integers(6, 9))
        ch = int(rng.integers(2, 4))
        flat = ch * (side - 2) ** 2
        spec = models.ModelSpec(
            (
                models.Conv2d(1, ch, 3),
                models.Relu(),
                models.Flatten(),
                models.Linear(flat, 2),
            ),
            models.CROSS_ENTROPY,
        )
        x = rng.uniform(0, 1, size=(1, side, side))
        y = int(rng.integers(0, 2))
    params = models.init_params(spec, int(rng.integers(0, 1 << 30)))
    return spec, params, _subject(x, y, sid=f"rand-{kind}")


class TestPlisExpanded:
    def test_agrees_with_direct_on_random_models(self):
        rng = np.random.default_rng(4)
        for i in range(12):
            kind = "mlp" if i % 2 == 0 else "cnn"
            spec, params, subject = _random_small_model(rng, kind)
            sigma = None if i % 3 == 0 else float(rng.uniform(0.5, 2.0))
            a = plis.plis_direct(spec, params, subject, sigma=sigma)
            b = plis.plis_expanded(spec, params, subject, sigma=sigma)
            scale = np.abs(a.plis).max() + 1e-300
            assert np.abs(a.plis - b.plis).max() / scale < 1e-8
            assert a.pl == pytest.approx(b.pl, rel=1e-10)

    def test_linear_example_same_closed_form(self):
        spec, params = _linear([1.0, 2.0])
        report = plis.plis_expanded(spec, params, _subject([1.0, 1.0], 0.0), sigma=3.0)
        np.testing.assert_allclose(report.plis, [120.0 / 9.0, 168.0 / 9.0], rtol=1e-12)

    def test_doubling_sigma_divides_by_four(self):
        spec, params = _linear([0.5, 1.5, -0.7])
        subject = _subject([0.3, -0.4, 1.2], 0.1)
        a = plis.plis_expanded(spec, params, subject, sigma=1.0)
        b = plis.plis_expanded(spec, params, subject, sigma=2.0)
        np.testing.assert_allclose(a.plis, 4.0 * b.plis, rtol=1e-12)


class TestClippedPlis:
    def test_saturated_clip_pins_pl_and_kills_plis(self):
        # ||g|| > C strictly: pl == C^2/sigma^2 exactly and the derivative of
        # the saturated norm is identically zero (verified against FD too)
        spec, params = _linear([1.0, 2.0])
        subject = _subject([1.0, 1.0], 0.0)  # ||g|| = sqrt(72) ~ 8.49
        clip, sigma = 1.0, 2.0
        pl = _pl(spec, params, subject, sigma=sigma, clip=clip)
        assert pl == pytest.approx(clip**2 / sigma**2, rel=1e-12)
        report = plis.plis_direct(spec, params, subject, sigma=sigma, clip=clip)
        assert np.abs(report.plis).max() < 1e-10
        h = 1e-6
        x = subject.x
        for j in range(2):
            up, dn = x.copy(), x.copy()
            up[j] += h
            dn[j] -= h
            fd = (
                _pl(spec, params, _subject(up, 0.0), sigma=sigma, clip=clip)
                - _pl(spec, params, _subject(dn, 0.0), sigma=sigma, clip=clip)
            ) / (2 * h)
            assert abs(fd) < 1e-10

    @pytest.mark.parametrize("model", ["linear", "cnn"])
    def test_saturated_direct_plis_is_exactly_zero(self, model):
        # ||clip g||^2 = C^2 wherever ||g|| > C: the direct route's row
        # cotangent is 0 there, so J^T 0 leaves no roundoff behind
        if model == "linear":
            spec, params = _linear([1.0, 2.0])
            subjects = [_subject([1.0, 1.0], 0.0), _subject([-2.0, 0.5], 3.0, "s1")]
        else:
            images = datasets.make_glyph_images(6, 5, 12, 12)
            spec = models.cnn_spec(12, 12, 2)
            params = models.init_params(spec, 4)
            subjects = datasets.image_subjects(images)
        clip, sigma = 1e-3, 1.0
        for report in plis.plis_reports(spec, params, subjects, sigma=sigma, clip=clip):
            assert report.pl == pytest.approx(clip**2 / sigma**2, rel=1e-12)
            assert (report.plis == 0.0).all()
            assert report.subject_plis_norm == 0.0

    def test_unclipped_region_matches_finite_differences(self):
        spec, params = _linear([0.3, -0.2])
        subject = _subject([0.4, 0.1], 0.05)  # tiny gradient, well below clip
        clip, sigma = 10.0, 1.5
        report = plis.plis_direct(spec, params, subject, sigma=sigma, clip=clip)
        no_clip = plis.plis_direct(spec, params, subject, sigma=sigma)
        np.testing.assert_allclose(report.plis, no_clip.plis, rtol=1e-12)
        h = 1e-6
        for j in range(2):
            up, dn = subject.x.copy(), subject.x.copy()
            up[j] += h
            dn[j] -= h
            fd = (
                _pl(spec, params, _subject(up, 0.05), sigma=sigma, clip=clip)
                - _pl(spec, params, _subject(dn, 0.05), sigma=sigma, clip=clip)
            ) / (2 * h)
            assert abs(report.plis[j] - fd) / (abs(fd) + 1e-12) < 1e-4

    def test_direct_and_expanded_agree_with_clipping(self):
        rng = np.random.default_rng(6)
        spec = models.ModelSpec(
            (models.Linear(3, 5), models.Softplus(), models.Linear(5, 2)), models.MSE
        )
        params = models.init_params(spec, 8)
        subject = _subject(rng.normal(size=3), rng.normal(size=2))
        for clip in (0.01, 100.0):  # saturated and untouched
            a = plis.plis_direct(spec, params, subject, sigma=1.0, clip=clip)
            b = plis.plis_expanded(spec, params, subject, sigma=1.0, clip=clip)
            # the expanded route's saturated PLIS is roundoff: measure against
            # the PL floor the CLI's check uses
            assert plis.deviation(a, b, subject.x) < 1e-8
            assert (a.plis == 0.0).all() == (clip == 0.01)


class TestFimAndJacsens:
    def test_fim_matches_linear_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            w, x = rng.normal(size=4), rng.normal(size=4)
            y, sigma = rng.normal(), rng.uniform(0.5, 2.0)
            spec, params = _linear(w)
            report = plis.fim_subject(spec, params, _subject(x, y), sigma=sigma)
            jac = oracle_jacobian(w, x, y)
            expected = jac.T @ jac / sigma**2
            scale = np.abs(expected).max() + 1e-300
            assert np.abs(report.fim - expected).max() / scale < 1e-10

    def test_zero_input_zero_residual_gives_zero_matrix(self):
        spec, params = _linear([1.0, -1.0])
        report = plis.fim_subject(spec, params, _subject([0.0, 0.0], 0.0), sigma=1.0)
        np.testing.assert_array_equal(report.fim, np.zeros((2, 2)))
        assert report.fil_subject == 0.0

    def test_fim_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(8)
        spec = models.ModelSpec(
            (models.Linear(3, 4), models.Tanh(), models.Linear(4, 2)), models.MSE
        )
        params = models.init_params(spec, 5)
        report = plis.fim_subject(
            spec, params, _subject(rng.normal(size=3), rng.normal(size=2)), sigma=1.0
        )
        assert np.linalg.eigvalsh(report.fim).min() >= -1e-10
        np.testing.assert_allclose(report.fim, report.fim.T, atol=1e-15)

    def test_fil_squared_is_largest_fim_eigenvalue(self):
        rng = np.random.default_rng(9)
        spec = models.ModelSpec(
            (models.Linear(4, 6), models.Softplus(), models.Linear(6, 3)), models.MSE
        )
        params = models.init_params(spec, 6)
        report = plis.fim_subject(
            spec, params, _subject(rng.normal(size=4), rng.normal(size=3)), sigma=1.3
        )
        top = np.linalg.eigvalsh(report.fim).max()
        assert report.fil_subject**2 == pytest.approx(top, rel=1e-8)

    def test_fil_per_attribute_is_sqrt_diagonal(self):
        spec, params = _linear([0.4, 0.9, -0.3])
        report = plis.fim_subject(spec, params, _subject([1.0, 0.5, -0.2], 0.3), sigma=2.0)
        np.testing.assert_allclose(report.fil_per_attribute, np.sqrt(np.diag(report.fim)))

    def test_jacsens_matches_linear_jacobian(self):
        w, x, y = np.array([1.2, -0.5]), np.array([0.3, 0.8]), 0.4
        spec, params = _linear(w)
        report = plis.jacsens_subject(spec, params, _subject(x, y))
        np.testing.assert_allclose(report.jac, oracle_jacobian(w, x, y), rtol=1e-10, atol=1e-12)

    def test_spectral_never_exceeds_frobenius(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            spec, params, subject = _random_small_model(rng, "mlp")
            report = plis.jacsens_subject(spec, params, subject)
            assert report.spectral_norm <= report.frobenius_norm + 1e-12

    def test_fim_reconstructed_from_jacsens(self):
        rng = np.random.default_rng(11)
        spec, params, subject = _random_small_model(rng, "mlp")
        sigma = 1.7
        fim = plis.fim_subject(spec, params, subject, sigma=sigma)
        jac = plis.jacsens_subject(spec, params, subject)
        rebuilt = jac.jac.T @ jac.jac / sigma**2
        assert np.abs(fim.fim - rebuilt).max() < 1e-10 * max(1.0, np.abs(rebuilt).max())

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_fim_fil_and_jacsens_keep_the_bits_of_two_gram_products(self, kind):
        """fim_subject forms J^T J once; its FIM, FIL and the JacSens spectral
        norm have the bits of the formulas that formed it twice."""
        rng = np.random.default_rng(13)
        spec, params, subject = _random_small_model(rng, kind)
        sigma = 1.3
        fim, jacsens = plis.fim_subject(spec, params, subject, sigma), plis.jacsens_subject(
            spec, params, subject)
        jac = plis.input_jacobian(spec, params, subject)
        top = max(0.0, float(np.linalg.eigvalsh(jac.T @ jac)[-1]))
        assert fim.fim.tobytes() == ((jac.T @ jac) / (sigma * sigma)).tobytes()
        assert fim.fil_subject == np.sqrt(top) / sigma
        assert jacsens.spectral_norm == np.sqrt(top)
        assert jacsens.frobenius_norm == float(np.linalg.norm(jac))

    def test_dimension_guard_refuses_large_models(self):
        spec = models.ModelSpec(
            (models.Flatten(), models.Linear(784, 8)), models.CROSS_ENTROPY
        )  # p = 6280 > 4096
        params = models.init_params(spec, 0)
        subject = _subject(np.zeros((1, 28, 28)), 1)
        with pytest.raises(DimensionGuardError, match="PLIS"):
            plis.fim_subject(spec, params, subject, sigma=1.0)
        with pytest.raises(DimensionGuardError):
            plis.jacsens_subject(spec, params, subject)


class TestPowerIteration:
    def test_matches_eigvalsh_on_random_matrices(self):
        rng = np.random.default_rng(12)
        for n, m in [(3, 5), (8, 8), (12, 4)]:
            mat = rng.normal(size=(n, m))
            lam = plis.spectral_norm_sq(mat)
            top = np.linalg.svd(mat, compute_uv=False)[0] ** 2
            assert lam == pytest.approx(top, rel=1e-12)

    def test_zero_matrix(self):
        assert plis.spectral_norm_sq(np.zeros((4, 3))) == 0.0

    def test_a_gram_matrix_that_overflows_reads_inf(self):
        # its (0, 0) entry, 2e308, is a lower bound of the largest eigenvalue
        with np.errstate(all="raise"):
            assert plis.spectral_norm_sq(np.array([[1e154, 0.0], [1e154, 1.0]])) == np.inf

    def test_near_tie_at_the_top(self):
        # an iteration that stops once successive estimates agree to 1e-10 can
        # stop anywhere between two eigenvalues this close
        mat = np.diag([3.0, 3.0 - 1e-9, 1.0])
        assert plis.spectral_norm_sq(mat) == pytest.approx(9.0, rel=1e-14)


class TestRankSubjects:
    def _dataset(self, rng, n=6):
        w = np.array([1.0, -0.5, 0.3])
        spec, params = _linear(w)
        subjects = [
            plis.SubjectRecord(f"s{i:02d}", rng.normal(size=3), float(rng.normal()))
            for i in range(n)
        ]
        return spec, params, subjects

    def test_singleton(self):
        rng = np.random.default_rng(15)
        spec, params, subjects = self._dataset(rng, n=1)
        ranked = plis.rank_subjects(subjects, spec, params)
        assert len(ranked) == 1 and ranked[0].subject_id == "s00"

    def test_sigma_scales_values_but_not_order(self):
        rng = np.random.default_rng(16)
        spec, params, subjects = self._dataset(rng)
        base = plis.rank_subjects(subjects, spec, params, sigma=1.0)
        scaled = plis.rank_subjects(subjects, spec, params, sigma=2.0)
        assert [e.subject_id for e in base] == [e.subject_id for e in scaled]
        for a, b in zip(base, scaled):
            assert a.subject_plis_norm == pytest.approx(4.0 * b.subject_plis_norm, rel=1e-12)

    def test_descending_with_id_tiebreak(self):
        spec, params = _linear([1.0])
        subjects = [
            plis.SubjectRecord("b", [1.0], 0.0),
            plis.SubjectRecord("a", [1.0], 0.0),  # identical -> tie
            plis.SubjectRecord("c", [2.0], 0.0),
        ]
        ranked = plis.rank_subjects(subjects, spec, params)
        assert [e.subject_id for e in ranked] == ["c", "a", "b"]
