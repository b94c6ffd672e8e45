"""Distillation losses: frozen oracle values, invariants, gradients, dispatch."""

import itertools

import numpy as np
import pytest

from normkd import distill
from normkd.distill import (
    combine,
    cross_entropy,
    distill_loss,
    kd_loss,
    kl_divergence,
    logit_grad,
    multi_temp_kld,
    multi_temp_prediction,
    norm_soften,
    normkd_loss,
    side_loss,
    soften,
    teacher_side,
)
from normkd.errors import ContractError, DimensionError, NumericError
from normkd.logitstats import (
    Fixed,
    MaxVal,
    MultiSet,
    NormStd,
    Range,
    parse_rule,
    temperature_for,
)
from normkd.numcore import Tape, grad_check, multiply, value_of
from oracles import (
    kd_loss_mp,
    multi_temp_kld_mp,
    norm_soften_mp,
    normkd_loss_mp,
    softmax_mp,
)


class TestSoften:
    def test_uniform(self):
        np.testing.assert_allclose(soften([0.0, 0.0, 0.0], 1.0), np.full(3, 1 / 3), atol=1e-15)

    def test_logistic_pair(self):
        np.testing.assert_allclose(
            soften([1.0, 0.0], 1.0), [0.7310585786300049, 0.2689414213699951], atol=1e-12
        )

    def test_temperature_two(self):
        np.testing.assert_allclose(
            soften([2.0, 0.0, -2.0], 2.0),
            [0.6652409557748218, 0.24472847105479764, 0.09003057317038046],
            atol=1e-12,
        )

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ContractError):
            soften([1.0, 0.0], 0.0)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            z = rng.normal(0, 3, size=rng.integers(2, 10))
            t = float(rng.uniform(0.2, 10))
            expected = [float(p) for p in softmax_mp(z, t)]
            np.testing.assert_allclose(soften(z, t), expected, rtol=1e-12, atol=1e-15)


class TestNormSoften:
    def test_matches_plain_soften_at_sigma(self):
        np.testing.assert_allclose(
            norm_soften([2.0, 0.0, -2.0], t_norm=1.0),
            [0.6652409557748218, 0.24472847105479764, 0.09003057317038046],
            atol=1e-12,
        )

    def test_constant_vector_is_uniform(self):
        np.testing.assert_allclose(norm_soften([5.0, 5.0, 5.0], 2.0), np.full(3, 1 / 3), atol=1e-12)

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = rng.normal(0, 2, size=6)
            if np.std(z, ddof=1) < 1.0:
                continue
            np.testing.assert_allclose(
                norm_soften(10.0 * z, 2.0), norm_soften(z, 2.0), atol=1e-12
            )

    def test_mean_shift_cancels(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            z = rng.normal(0, 2, size=5)
            sigma = float(np.std(z, ddof=1))
            np.testing.assert_allclose(
                soften(z - z.mean(), sigma), soften(z, sigma), atol=1e-12
            )

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            z = rng.normal(0, 3, size=rng.integers(2, 10))
            t_norm = float(rng.uniform(0.5, 4))
            expected = [float(p) for p in norm_soften_mp(z, t_norm)]
            np.testing.assert_allclose(norm_soften(z, t_norm), expected, rtol=1e-12, atol=1e-15)

    def test_is_soften_at_the_normstd_temperature(self):
        rng = np.random.default_rng(15)
        rows = [rng.normal(0, 3, size=c) for c in (2, 3, 10, 100)] + [np.full(4, 7.0)]
        for z in rows:
            for t_norm in (0.5, 2.0):
                expected = soften(z, temperature_for(NormStd(t_norm), z))
                assert norm_soften(z, t_norm).tobytes() == expected.tobytes()


class TestKlDivergence:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            p = soften(rng.normal(size=5), 1.0)
            assert kl_divergence(p, p) == 0.0

    def test_known_value(self):
        np.testing.assert_allclose(
            kl_divergence([0.9, 0.1], [0.5, 0.5]), 0.3680642071684971, atol=1e-12
        )

    def test_zero_teacher_entry_contributes_nothing(self):
        np.testing.assert_allclose(
            kl_divergence([1.0, 0.0], [0.5, 0.5]), np.log(2), atol=1e-12
        )

    def test_zero_student_under_positive_teacher_rejected(self):
        with pytest.raises(NumericError):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_non_simplex_rejected(self):
        with pytest.raises(ContractError):
            kl_divergence([0.9, 0.3], [0.5, 0.5])

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            p = soften(rng.normal(0, 2, size=6), 1.0)
            q = soften(rng.normal(0, 2, size=6), 1.0)
            kl = kl_divergence(p, q)
            assert kl >= 0.0
            if np.max(np.abs(p - q)) > 1e-12:
                assert kl > 0.0


class TestKdLoss:
    def test_equal_logits_zero_kld(self):
        rng = np.random.default_rng(16)
        z = rng.normal(size=(4, 5))
        labels = rng.integers(0, 5, size=4)
        rep = kd_loss(z, z.copy(), labels, temperature=3.0, alpha=0.4, beta=0.6)
        assert rep.kld_part == 0.0
        np.testing.assert_allclose(rep.total, 0.4 * rep.ce_part, rtol=1e-15)

    def test_reduces_to_bare_kl_at_unit_temperature(self):
        z_s = np.array([[0.3, -0.2, 1.0]])
        z_t = np.array([[1.0, 0.0, -1.0]])
        rep = kd_loss(z_s, z_t, [0], temperature=1.0, alpha=0.0, beta=1.0)
        expected = kl_divergence(soften(z_t[0], 1.0), soften(z_s[0], 1.0))
        np.testing.assert_allclose(rep.total, expected, rtol=1e-12)

    def test_frozen_oracle_value(self):
        # 4 * KL(softmax([0.5, 0]) || [0.5, 0.5]), recomputed at 50 digits
        rep = kd_loss(
            np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]), [0],
            temperature=2.0, alpha=0.0, beta=1.0,
        )
        np.testing.assert_allclose(rep.total, 0.121199447923064, rtol=1e-12)

    def test_report_invariant_and_weights(self):
        rng = np.random.default_rng(17)
        z_s = rng.normal(size=(6, 4))
        z_t = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        rep = kd_loss(z_s, z_t, labels, temperature=4.0, alpha=0.1, beta=0.9)
        assert abs(rep.total - (0.1 * rep.ce_part + 0.9 * rep.kld_part)) < 1e-10
        np.testing.assert_array_equal(rep.per_sample_weight, np.full(6, 16.0))
        assert np.all(rep.per_sample_weight > 0)

    def test_batch_oracle_equivalence(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            n, c = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            z_s = rng.normal(0, 2, size=(n, c))
            z_t = rng.normal(0, 2, size=(n, c))
            labels = rng.integers(0, c, size=n)
            t = float(rng.uniform(0.5, 6))
            a, b = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            total, ce, kld = kd_loss_mp(z_s, z_t, labels, t, a, b)[0:3]
            rep = kd_loss(z_s, z_t, labels, t, a, b)
            np.testing.assert_allclose(rep.total, float(total), rtol=1e-12)
            np.testing.assert_allclose(rep.ce_part, float(ce), rtol=1e-12)
            np.testing.assert_allclose(rep.kld_part, float(kld), rtol=1e-12)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            kd_loss(np.zeros((2, 3)), np.zeros((2, 3)), [0, 3], 2.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            kd_loss(np.zeros((2, 3)), np.zeros((2, 4)), [0, 1], 2.0)

    def test_integral_float_labels_are_the_integer_labels(self):
        z_s, z_t = np.arange(6.0).reshape(2, 3), np.ones((2, 3))
        want = kd_loss(z_s, z_t, [0, 2], 2.0).total
        assert kd_loss(z_s, z_t, np.array([0.0, 2.0]), 2.0).total == want

    def test_non_integral_float_labels_rejected(self):
        with pytest.raises(ContractError, match="^labels must be integers$"):
            kd_loss(np.zeros((2, 3)), np.zeros((2, 3)), np.array([0.0, 1.5]), 2.0)


class TestMultiTemp:
    def test_single_temperature_equals_soften_bitwise(self):
        z = np.array([1.0, -0.5, 2.0])
        np.testing.assert_array_equal(multi_temp_prediction(z, [3.0]), soften(z, 3.0))

    def test_duplicate_temperatures_equal_soften(self):
        z = np.array([2.0, 0.0])
        np.testing.assert_allclose(multi_temp_prediction(z, [1.0, 1.0]), soften(z, 1.0), atol=1e-15)

    def test_frozen_oracle_value(self):
        np.testing.assert_allclose(
            multi_temp_prediction([2.0, 0.0], [1.0, 2.0]),
            [0.8059278283280243, 0.1940721716719757],
            atol=1e-12,
        )

    def test_still_a_distribution(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            z = rng.normal(0, 3, size=6)
            temps = rng.uniform(0.3, 8, size=rng.integers(1, 6))
            p = multi_temp_prediction(z, temps)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p > 0)

    def test_kld_identical_logits_zero(self):
        z = np.random.default_rng(20).normal(size=(3, 4))
        assert multi_temp_kld(z, z.copy(), [1.0, 2.0, 4.0]) == 0.0

    def test_kld_single_temp_bit_compatible_with_kd_loss(self):
        rng = np.random.default_rng(21)
        for t in (1.0, 2.0, 4.0, 7.5):
            z_s = rng.normal(size=(4, 5))
            z_t = rng.normal(size=(4, 5))
            kld = kd_loss(z_s, z_t, np.zeros(4, dtype=int), t, alpha=0.0, beta=1.0).kld_part
            assert multi_temp_kld(z_s, z_t, [t]) == kld

    def test_kld_frozen_oracle_value(self):
        # 4 * KL(mean softened teacher || uniform), recomputed at 50 digits
        val = multi_temp_kld(np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]]), [1.0, 2.0])
        np.testing.assert_allclose(val, 0.804292435099217, rtol=1e-12)

    def test_kld_batch_oracle_equivalence(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n, c = int(rng.integers(1, 4)), int(rng.integers(2, 6))
            z_s = rng.normal(0, 2, size=(n, c))
            z_t = rng.normal(0, 2, size=(n, c))
            temps = tuple(float(t) for t in rng.uniform(0.4, 7, size=rng.integers(1, 5)))
            expected = float(multi_temp_kld_mp(z_s, z_t, temps))
            np.testing.assert_allclose(multi_temp_kld(z_s, z_t, temps), expected, rtol=1e-11)

    def test_empty_temperature_set_rejected(self):
        with pytest.raises(ContractError):
            multi_temp_kld(np.zeros((1, 2)), np.zeros((1, 2)), [])


class TestNormKdLoss:
    def test_identical_logits_zero_loss_positive_weights(self):
        rng = np.random.default_rng(23)
        z = rng.normal(size=(5, 6))
        rep = normkd_loss(z, z.copy(), t_norm=2.0)
        assert rep.total == 0.0
        assert np.all(rep.per_sample_weight > 0)

    def test_frozen_oracle_value(self):
        # weight (1*2)^2 = 4, KL(softmax([1,0,-1]) || uniform), at 50 digits
        rep = normkd_loss(np.zeros((1, 3)), np.array([[2.0, 0.0, -2.0]]), t_norm=1.0)
        np.testing.assert_allclose(rep.total, 1.06486682731268, rtol=1e-12)
        np.testing.assert_allclose(rep.per_sample_weight, [4.0])

    def test_teacher_scaling_scales_loss_quadratically(self):
        rng = np.random.default_rng(24)
        z_s = rng.normal(size=(3, 5))
        z_t = rng.normal(size=(3, 5))
        base = normkd_loss(z_s, z_t, t_norm=2.0).total
        for a in (2.0, 5.0):
            scaled = normkd_loss(z_s, a * z_t, t_norm=2.0).total
            np.testing.assert_allclose(scaled, a * a * base, rtol=1e-10)

    def test_batch_oracle_equivalence(self):
        rng = np.random.default_rng(25)
        for corrected in (True, False):
            for _ in range(10):
                n, c = int(rng.integers(1, 4)), int(rng.integers(2, 6))
                z_s = rng.normal(0, 2, size=(n, c))
                z_t = rng.normal(0, 2, size=(n, c))
                t_norm = float(rng.uniform(0.5, 3))
                expected = float(normkd_loss_mp(z_s, z_t, t_norm, corrected=corrected))
                got = distill_loss(NormStd(t_norm), z_s, z_t, np.zeros(n, int), alpha=0.0,
                                   beta=1.0, corrected=corrected).kld_part
                np.testing.assert_allclose(got, expected, rtol=1e-11)

    def test_batch_equals_mean_of_single_sample_calls(self):
        rng = np.random.default_rng(26)
        z_s = rng.normal(size=(4, 5))
        z_t = rng.normal(size=(4, 5))
        batch = normkd_loss(z_s, z_t, t_norm=2.0).total
        singles = [
            normkd_loss(z_s[i : i + 1], z_t[i : i + 1], t_norm=2.0).total
            for i in range(4)
        ]
        np.testing.assert_allclose(batch, np.mean(singles), rtol=1e-15)

    def test_detached_student_std_changes_gradient_not_value(self):
        rng = np.random.default_rng(27)
        z_s = rng.normal(size=(3, 4))
        z_t = rng.normal(size=(3, 4))
        labels = np.zeros(3, int)

        def kld(z, detach):
            return distill_loss(NormStd(2.0), z, z_t, labels, alpha=0.0, beta=1.0,
                                detach_student_stat=detach)

        assert kld(z_s, False).kld_part == kld(z_s, True).kld_part

        def grad_of(detach):
            tape = Tape()
            t = tape.leaf(z_s)
            tape.backward(kld(t, detach).node)
            return t.grad.copy()

        assert np.max(np.abs(grad_of(False) - grad_of(True))) > 1e-8


class TestRuleParameterChecks:
    """The wrappers leave parameter checks to the rule, ahead of any shape check."""

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize(
        "name,loss",
        [
            ("temperature", lambda z_s, z_t, v: kd_loss(z_s, z_t, [0, 1], v)),
            ("t_norm", lambda z_s, z_t, v: normkd_loss(z_s, z_t, t_norm=v)),
        ],
        ids=["kd_loss", "normkd_loss"],
    )
    def test_non_positive_parameter_rejected_before_shapes(self, name, loss, value):
        with pytest.raises(ContractError, match=f"^{name} must be strictly positive"):
            loss(np.zeros((2, 3)), np.zeros((2, 4)), value)


class TestDistillLossDispatch:
    def test_fixed_reproduces_kd_loss_bit_for_bit(self):
        rng = np.random.default_rng(28)
        z_s = rng.normal(size=(4, 6))
        z_t = rng.normal(size=(4, 6))
        labels = rng.integers(0, 6, size=4)
        a = kd_loss(z_s, z_t, labels, 4.0, 0.1, 0.9)
        b = distill_loss(Fixed(4.0), z_s, z_t, labels, 0.1, 0.9)
        assert a.total == b.total
        assert a.ce_part == b.ce_part
        assert a.kld_part == b.kld_part

    def test_multiset_combines_ce_and_multi_temp(self):
        rng = np.random.default_rng(29)
        z_s = rng.normal(size=(3, 4))
        z_t = rng.normal(size=(3, 4))
        labels = rng.integers(0, 4, size=3)
        rep = distill_loss(MultiSet((1.0, 2.0, 4.0)), z_s, z_t, labels, 0.2, 0.8)
        kld = multi_temp_kld(z_s, z_t, (1.0, 2.0, 4.0))
        ce = float(value_of(cross_entropy(z_s, labels)))
        np.testing.assert_allclose(rep.total, 0.2 * ce + 0.8 * kld, rtol=1e-14)
        np.testing.assert_array_equal(rep.per_sample_weight, np.full(3, 16.0))

    def test_normstd_matches_normkd_loss_kld(self):
        rng = np.random.default_rng(30)
        z_s = rng.normal(size=(4, 5))
        z_t = rng.normal(size=(4, 5))
        labels = rng.integers(0, 5, size=4)
        rep = distill_loss(NormStd(2.0), z_s, z_t, labels, 0.1, 0.9)
        assert rep.kld_part == normkd_loss(z_s, z_t, 2.0).total
        np.testing.assert_allclose(
            rep.total, 0.1 * rep.ce_part + 0.9 * rep.kld_part, rtol=1e-14
        )
        for t_norm in (0.5, 2.0):
            for n, c in ((1, 2), (4, 5)):
                z_s, z_t = rng.normal(0, 2, size=(2, n, c))
                rep = normkd_loss(z_s, z_t, t_norm)
                ref = distill_loss(NormStd(t_norm), z_s, z_t, np.zeros(n, int), 0.0, 1.0)
                assert np.float64(rep.total).tobytes() == np.float64(ref.kld_part).tobytes()
                assert rep.per_sample_weight.tobytes() == ref.per_sample_weight.tobytes()
                assert rep.ce_part == 0.0 and rep.kld_part == rep.total

    def test_range_rule_uses_rule_temperature_for_weights(self):
        z_t = np.array([[3.0, -1.0, 0.0]])
        z_s = np.zeros((1, 3))
        for t_v in (1.0, 2.5):
            rep = distill_loss(Range(t_v), z_s, z_t, [0], 0.0, 1.0)
            expected_temp = temperature_for(Range(t_v), z_t[0])
            np.testing.assert_allclose(rep.per_sample_weight, [expected_temp**2], rtol=1e-12)

    def test_maxval_weights(self):
        z_t = np.array([[3.0, -1.0, 0.0], [-2.0, -5.0, -9.0]])
        rep = distill_loss(MaxVal(1.5), np.zeros((2, 3)), z_t, [0, 0], 0.0, 1.0)
        eps = MaxVal(1.5).epsilon
        np.testing.assert_allclose(
            rep.per_sample_weight, [(3.0 * 1.5) ** 2, (eps * 1.5) ** 2], rtol=1e-12
        )


class TestCombine:
    def test_single_term_identity(self):
        assert combine([(1.0, 2.5)]) == 2.5

    def test_two_equal_terms(self):
        rng = np.random.default_rng(31)
        z_s = rng.normal(size=(2, 3))
        z_t = rng.normal(size=(2, 3))
        loss = normkd_loss(z_s, z_t, 2.0).total
        np.testing.assert_allclose(combine([(0.5, loss), (0.5, loss)]), loss, rtol=1e-15)

    def test_gradient_is_sum_of_gradients(self):
        rng = np.random.default_rng(32)
        z_s = rng.normal(size=(3, 4))
        z_t = rng.normal(size=(3, 4))
        labels = rng.integers(0, 4, size=3)

        def grad(fn):
            tape = Tape()
            t = tape.leaf(z_s)
            tape.backward(fn(t))
            return t.grad.copy()

        g_norm = grad(lambda t: normkd_loss(t, z_t, 2.0).node)
        g_kd = grad(lambda t: kd_loss(t, z_t, labels, 3.0, 0.0, 1.0).node)
        g_both = grad(
            lambda t: combine(
                [
                    (1.0, normkd_loss(t, z_t, 2.0).node),
                    (1.0, kd_loss(t, z_t, labels, 3.0, 0.0, 1.0).node),
                ]
            )
        )
        np.testing.assert_allclose(g_both, g_norm + g_kd, rtol=0, atol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            combine([])


class TestSofteningInvariants:
    def test_argmax_preserved_under_every_rule(self):
        rng = np.random.default_rng(33)
        rules = (Fixed(3.0), MultiSet((1.0, 2.0, 4.0)), NormStd(2.0), MaxVal(1.0), Range(1.0))
        for _ in range(100):
            z = rng.normal(0, 2, size=7)
            if np.unique(z).size < 7:
                continue
            for rule in rules:
                if isinstance(rule, MultiSet):
                    p = multi_temp_prediction(z, rule.temperatures)
                else:
                    p = soften(z, float(temperature_for(rule, z)))
                assert int(np.argmax(p)) == int(np.argmax(z))

    def test_monotone_softening_toward_uniform(self):
        rng = np.random.default_rng(34)
        temps = (1.0, 2.0, 4.0, 8.0, 64.0)
        for _ in range(50):
            z = rng.normal(0, 2, size=6)
            if np.unique(z).size < 6:
                continue
            maxes = [soften(z, t).max() for t in temps]
            gaps = [np.max(np.abs(soften(z, t) - 1.0 / 6)) for t in temps]
            assert all(a > b for a, b in zip(maxes, maxes[1:]))
            assert all(a > b for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] < 0.02

    def test_simplex_normalization(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            z = rng.normal(0, 4, size=8)
            for p in (soften(z, 2.0), norm_soften(z, 2.0), multi_temp_prediction(z, [1, 3])):
                assert abs(p.sum() - 1.0) <= 1e-12
                assert np.all(p > 0.0)
                assert np.all(p <= 1.0)


class TestGradients:
    """Central finite differences on every loss, including the per-sample
    statistic paths of the student side."""

    def test_kd_loss(self):
        rng = np.random.default_rng(36)
        for _ in range(10):
            n, c = int(rng.integers(2, 5)), int(rng.integers(3, 6))
            z_t = rng.normal(0, 1.5, size=(n, c))
            z_s = rng.normal(0, 1.5, size=(n, c))
            labels = rng.integers(0, c, size=n)
            err = grad_check(
                lambda t: kd_loss(t, z_t, labels, 3.0, 0.3, 0.7).node, z_s
            )
            assert err <= 1e-4

    def test_normkd_sigma_path_matters(self):
        rng = np.random.default_rng(37)
        z_t = rng.normal(0, 1.5, size=(3, 5))
        z_s = rng.normal(0, 1.5, size=(3, 5))
        err = grad_check(lambda t: normkd_loss(t, z_t, 2.0).node, z_s)
        assert err <= 1e-4
        # detaching sigma drops a real gradient contribution, so the
        # detached analytic gradient must now disagree with the finite
        # differences (which always see the full dependence)
        err_detached = grad_check(
            lambda t: distill_loss(NormStd(2.0), t, z_t, np.zeros(3, int), alpha=0.0,
                                   beta=1.0, detach_student_stat=True).node, z_s
        )
        assert err_detached > 1e-2

    @pytest.mark.parametrize("rule", [MaxVal(1.2), Range(0.9), NormStd(1.7)])
    def test_per_sample_rules(self, rule):
        rng = np.random.default_rng(38)
        z_t = rng.normal(0, 1.5, size=(3, 5))
        z_s = rng.normal(0, 1.5, size=(3, 5))
        labels = rng.integers(0, 5, size=3)
        err = grad_check(
            lambda t: distill_loss(rule, t, z_t, labels, 0.2, 0.8).node, z_s
        )
        assert err <= 1e-4

    def test_multi_temp(self):
        rng = np.random.default_rng(39)
        z_t = rng.normal(0, 1.5, size=(4, 4))
        z_s = rng.normal(0, 1.5, size=(4, 4))
        err = grad_check(lambda t: multi_temp_kld(t, z_t, (0.7, 2.0, 5.0)), z_s)
        assert err <= 1e-4


class TestTeacherSideRowSubsets:
    """The teacher side of a batch, computed on the batch alone, is bit-equal
    to the same computation on the whole cache, indexed by the batch.

    This is what lets the teacher side be computed once per run instead of
    once per step.  It holds because every operation involved works row by
    row; the test pins it on the installed numpy, whose SIMD kernels could
    in principle treat a row differently by its position in the array.
    """

    @pytest.mark.parametrize("kind", ["normal", "float32"])
    @pytest.mark.parametrize("c", [2, 3, 10, 100])
    @pytest.mark.parametrize("corrected", [True, False])
    @pytest.mark.parametrize(
        "rule",
        [Fixed(4.0), MultiSet((1.0, 2.0, 4.0)), NormStd(2.0), MaxVal(1.0), Range(1.0)],
        ids=["fixed", "multiset", "normstd", "maxval", "range"],
    )
    def test_batch_equals_full_matrix_indexed(self, rule, corrected, c, kind):
        from normkd.distill import _softened

        n = 200
        rng = np.random.default_rng([c, n, kind == "float32"])
        z = rng.normal(0.0, 2.0, size=(n, c))
        if kind == "float32":  # the values a student reads back from a cache
            z = (z + 4.0).astype(np.float32).astype(np.float64)
        lp_all, t_all = _softened(rule, z, z, corrected)
        p_all = np.exp(lp_all)
        t_all = np.broadcast_to(t_all, (n, 1))
        for _ in range(30):
            idx = rng.permutation(n)[: rng.integers(1, 70)]
            lp, t = _softened(rule, z[idx], z[idx], corrected)
            assert lp.tobytes() == lp_all[idx].tobytes()
            assert np.exp(lp).tobytes() == p_all[idx].tobytes()
            assert np.broadcast_to(t, (idx.size, 1)).tobytes() == t_all[idx].tobytes()


class TestTeacherSideOncePerRun:
    """``teacher_side`` of a whole logit matrix, indexed by a batch as
    ``train`` indexes it, equals ``teacher_side`` of the batch's own rows
    by ``.tobytes()``: log-probabilities, probabilities and weights."""

    @pytest.mark.parametrize("c", [2, 3, 10])
    @pytest.mark.parametrize("corrected", [True, False])
    @pytest.mark.parametrize(
        "rule",
        [Fixed(4.0), MultiSet((1.0, 2.0, 4.0)), NormStd(2.0), MaxVal(1.0), Range(1.0)],
        ids=["fixed", "multiset", "normstd", "maxval", "range"],
    )
    def test_indexed_triple_equals_batch_triple(self, rule, corrected, c):
        n = 60
        rng = np.random.default_rng([c, n, corrected])
        z = (rng.normal(0.0, 2.0, size=(n, c)) + 4.0).astype(np.float32).astype(np.float64)
        z[::7] = z[::7, :1]  # constant rows: the floored statistic
        lp_all, p_all, w_all = teacher_side(rule, z, corrected)
        for size in (1, 1, 1, 7, 16, n):
            idx = rng.permutation(n)[:size]
            lp, p, w = teacher_side(rule, z[idx], corrected)
            assert lp.tobytes() == lp_all[idx].tobytes()
            assert p.tobytes() == p_all[idx].tobytes()
            if isinstance(rule, (Fixed, MultiSet)):
                assert type(w) is float and np.float64(w).tobytes() == np.float64(w_all).tobytes()
            else:
                assert w.shape == (size, 1)
                assert w.tobytes() == w_all[idx].tobytes()


def _replay_logits(rng, n, c, kind):
    """Logit rows of one kind: normal, every other row constant, exact ties at
    the maximum, every maximum negative, or float32-rounded with an offset."""
    z = rng.normal(0.0, 2.0, size=(n, c))
    if kind == "constant":
        z[::2] = z[::2, :1]
    elif kind == "tied":
        z[:, 1] = z.max(axis=1)
    elif kind == "negative":
        z -= z.max(axis=1, keepdims=True) + 1.0
    elif kind == "float32":
        z = (z + 4.0).astype(np.float32).astype(np.float64)
    return z


def _taped_logit_grad(rule, z, side, labels, alpha, beta, corrected, detach):
    """The logits' gradient from a tape: ``side_loss`` (or alpha-scaled cross
    entropy for a None side) on a leaf, then ``Tape.backward``."""
    tape = Tape()
    leaf = tape.leaf(z)
    if side is None:
        loss = multiply(cross_entropy(leaf, labels), alpha)
    else:
        loss = side_loss(rule, leaf, side, labels, alpha, beta, corrected, detach).node
    tape.backward(loss)
    return leaf.grad


REPLAY_RULES = (
    "fixed:4", "fixed:1", "multiset:1,2,4", "multiset:4", "multiset:0.5,1,2,3,4,5,6,8",
    "normstd:2.0", "normstd:1.0:1e-3", "maxval:1.0", "maxval:2.0:0.5", "range:1.0",
)
REPLAY_KINDS = ("normal", "constant", "tied", "negative", "float32")


class TestLogitGradReplay:
    """``logit_grad`` equals the taped composite's gradient at the logits by
    ``.tobytes()``, for every rule, estimator, detached or live statistic,
    batch shape, kind of row and alpha."""

    @staticmethod
    def _grid(spec, corrected, detach):
        rule = None if spec is None else parse_rule(spec)
        for n, c, kind, alpha in itertools.product(
            (1, 3, 64), (2, 3, 10), REPLAY_KINDS, (0.1, 0.37, 1.0)
        ):
            rng = np.random.default_rng([n, c, REPLAY_KINDS.index(kind)])
            z, z_t = _replay_logits(rng, n, c, kind), _replay_logits(rng, n, c, kind)
            labels = rng.integers(0, c, size=n)
            side = None if rule is None else teacher_side(rule, z_t, corrected)
            args = (rule, z, side, labels, alpha, 0.9, corrected, detach)
            with np.errstate(all="ignore"):
                want = _taped_logit_grad(*args)
                got = logit_grad(*args)
            assert got.tobytes() == want.tobytes(), (n, c, kind, alpha)

    @pytest.mark.parametrize("detach", [False, True], ids=["live", "detached"])
    @pytest.mark.parametrize("corrected", [True, False], ids=["corrected", "uncorrected"])
    @pytest.mark.parametrize("spec", REPLAY_RULES)
    def test_equals_taped_gradient_bytes(self, spec, corrected, detach):
        self._grid(spec, corrected, detach)

    def test_cross_entropy_alone_equals_taped_gradient_bytes(self):
        self._grid(None, True, False)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_raise_before_a_label_error(self, bad):
        z = np.zeros((3, 4))
        z[1, 2] = bad
        side = teacher_side(NormStd(2.0), np.ones((3, 4)) + np.arange(4.0))
        for labels in ([0, 1, 4], [0, 1]):  # out of range, wrong length
            with pytest.raises(NumericError, match="student logits contain non-finite entries"):
                logit_grad(NormStd(2.0), z, side, labels, 0.1, 0.9, True, False)


@pytest.mark.parametrize("n,c", [(1, 10), (2, 2), (3, 5), (4, 6), (64, 10), (1024, 100)])
@pytest.mark.parametrize("spec", REPLAY_RULES)
def test_stack_totals_equal_side_loss_bytes(spec, n, c):
    """The audit's one plain-array pass over an (S, N, C) stack gives each matrix's
    ``side_loss`` total by ``.tobytes()``: its rows, picks and batch means are
    reduced as the (N, C) call reduces them."""
    rule = parse_rule(spec)
    rng = np.random.default_rng([n, c, REPLAY_RULES.index(spec)])
    side = teacher_side(rule, rng.normal(0.0, 2.0, (n, c)))
    labels = rng.integers(0, c, n)
    for s in (1, 2, 5):
        stack = rng.normal(0.0, 2.0, (s, n, c)) * rng.uniform(0.5, 5.0, (s, n, 1))
        totals = distill._stack_totals(rule, stack, side, labels, 0.1, 0.9)
        assert totals.shape == (s,)
        for z, total in zip(stack, totals):
            want = side_loss(rule, z, side, labels, 0.1, 0.9, True, False).total
            assert total.tobytes() == np.float64(want).tobytes(), (s, n, c)


def _empty_batch_calls():
    """Every loss entry point, and ``logit_grad`` with and without a teacher,
    as a function of the student logits, on a batch of no rows."""
    z_t, labels = np.zeros((0, 4)), np.zeros(0, dtype=np.int64)
    side = teacher_side(NormStd(2.0), z_t)
    return {
        "distill_loss": lambda z: distill_loss(NormStd(2.0), z, z_t, labels).node,
        "kd_loss": lambda z: kd_loss(z, z_t, labels, 4.0).node,
        "normkd_loss": lambda z: normkd_loss(z, z_t).node,
        "multi_temp_kld": lambda z: multi_temp_kld(z, z_t, [1.0, 2.0]),
        "cross_entropy": lambda z: cross_entropy(z, labels),
        "logit_grad": lambda z: logit_grad(NormStd(2.0), z, side, labels, 0.1, 0.9, True, False),
        "logit_grad_no_teacher": lambda z: logit_grad(None, z, None, labels, 1.0, 0.0, True, False),
    }


@pytest.mark.parametrize(
    "name,taped",
    [(name, False) for name in _empty_batch_calls()]
    + [(name, True) for name in _empty_batch_calls() if not name.startswith("logit_grad")],
)
def test_empty_batch_raises_one_dimension_error(name, taped):
    """A batch of no rows is refused by the student checks, plain or taped, not
    averaged into NaN or divided by zero when the tape runs backward."""
    call = _empty_batch_calls()[name]
    tape = Tape()
    z = tape.leaf(np.zeros((0, 4))) if taped else np.zeros((0, 4))
    with pytest.raises(DimensionError, match=r"^student logits have no rows, shape \(0, 4\)$"):
        out = call(z)
        if taped:
            tape.backward(out)


@pytest.mark.parametrize("name", ["cross_entropy", "kd_loss", "normkd_loss", "distill_loss"])
def test_one_dimensional_student_raises_one_dimension_error(name):
    """A 1-D student is refused by its shape, with one message for every entry point,
    before cross entropy indexes its class axis."""
    z_t, labels = np.zeros((1, 4)), [0]
    call = {
        "cross_entropy": lambda z: cross_entropy(z, labels),
        "kd_loss": lambda z: kd_loss(z, z_t, labels, 4.0),
        "normkd_loss": lambda z: normkd_loss(z, z_t),
        "distill_loss": lambda z: distill_loss(NormStd(2.0), z, z_t, labels),
    }[name]
    with pytest.raises(DimensionError, match=r"^student logits must be \(N, C\), got shape \(4,\)$"):
        call(np.zeros(4))
