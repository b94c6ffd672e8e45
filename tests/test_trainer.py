"""Training loop: determinism, optimizer semantics, history, caching."""

import re

import numpy as np
import pytest

from normkd import trainer
from normkd.datasets import Dataset, make_blobs
from normkd.errors import ConfigError, ContractError, DimensionError
from normkd.logitstats import Fixed, LogitCache, NormStd
from normkd.trainer import (
    MlpSpec,
    TrainConfig,
    cache_teacher_logits,
    evaluate,
    forward,
    init_mlp,
    train,
)
from test_train_step import taped_forward


def tiny_dataset(seed=0, classes=3, dim=4, per_class=20):
    train_ds, val_ds = make_blobs(classes, dim, per_class, 3.0, seed=seed)
    return train_ds, val_ds


class TestForward:
    """One layer is ``x @ w + b``: checked by hand and at 50 digits."""

    def test_identity(self):
        eye = np.eye(2)
        np.testing.assert_array_equal(forward([(eye, np.zeros(2))], eye), eye)

    def test_hand_sum(self):
        out = forward([(np.array([[1.0], [1.0]]), np.array([3.0]))], np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(out, np.array([[6.0]]))

    def test_random_against_extended_precision(self):
        import mpmath as mp

        mp.mp.dps = 50
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        out = forward([(w, b)], x)
        for i in range(3):
            for j in range(2):
                expected = mp.fsum(
                    [mp.mpf(x[i, d]) * mp.mpf(w[d, j]) for d in range(4)]
                    + [mp.mpf(b[j])]
                )
                assert abs(out[i, j] - float(expected)) <= 1e-12 * max(1.0, abs(float(expected)))


class TestInitMlp:
    def test_same_seed_identical(self):
        a = init_mlp(MlpSpec((4, 8, 3), init_seed=11))
        b = init_mlp(MlpSpec((4, 8, 3), init_seed=11))
        for (wa, ba), (wb, bb) in zip(a, b):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)

    def test_no_hidden_layer_is_single_affine(self):
        params = init_mlp(MlpSpec((5, 3)))
        assert len(params) == 1
        x = np.random.default_rng(0).normal(size=(2, 5))
        np.testing.assert_array_equal(forward(params, x), x @ params[0][0] + params[0][1])

    def test_biases_zero_and_weights_bounded(self):
        for w, b in init_mlp(MlpSpec((9, 7, 2), init_seed=3)):
            np.testing.assert_array_equal(b, np.zeros_like(b))
            assert np.abs(w).max() <= 1.0 / np.sqrt(w.shape[0])

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigError):
            MlpSpec((4,))
        with pytest.raises(ConfigError):
            MlpSpec((4, 0, 2))

    def test_negative_init_seed_rejected(self):
        with pytest.raises(ConfigError, match="init_seed must be nonnegative, got -1"):
            MlpSpec((4, 2), init_seed=-1)


def _misfit_params(kind):
    """4-6-3 params that do not fit 4-feature input, and the weight shape named."""
    (w0, b0), (w1, b1) = init_mlp(MlpSpec((4, 6, 3), init_seed=0))
    if kind == "input_width":
        return [(w0[:3], b0), (w1, b1)], (3, 6)
    if kind == "hidden_width":
        return [(w0, b0), (w1[:5], b1)], (5, 3)
    return [(w0, b0[:5]), (w1, b1)], (4, 6)


@pytest.mark.parametrize(
    "call",
    [
        lambda params, data: forward(params, data.features),
        evaluate,
        cache_teacher_logits,
    ],
    ids=["forward", "evaluate", "cache_teacher_logits"],
)
@pytest.mark.parametrize("kind", ["input_width", "hidden_width", "bias_length"])
def test_params_that_do_not_fit_the_input_raise_dimension_error(call, kind):
    train_ds, _ = tiny_dataset()
    params, weight_shape = _misfit_params(kind)
    with pytest.raises(DimensionError, match=re.escape(str(weight_shape))):
        call(params, train_ds)


class TestTrainConfigValidation:
    def test_defaults_valid(self):
        TrainConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(learning_rate=0.0),
            dict(momentum=1.0),
            dict(momentum=-0.1),
            dict(epochs=10, lr_decay_epochs=(5, 5)),
            dict(epochs=10, lr_decay_epochs=(12,)),
            dict(epochs=10, lr_decay_epochs=(0, 5)),
            dict(seed=-1),
            dict(batch_size=0),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_seed_must_fit_the_philox_key(self):
        with pytest.raises(ConfigError, match=r"seed must be below 2\*\*64"):
            TrainConfig(seed=2**64)
        assert TrainConfig(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "key", ["learning_rate", "weight_decay", "lr_decay_rate", "alpha", "beta"]
    )
    def test_rejects_non_finite(self, key, value):
        with pytest.raises(ConfigError, match=key):
            TrainConfig(**{key: value})


class TestTrain:
    def test_zero_epochs_returns_init(self):
        train_ds, _ = tiny_dataset()
        spec = MlpSpec((4, 8, 3), init_seed=5)
        cfg = TrainConfig(epochs=0, lr_decay_epochs=())
        params, history = train(spec, cfg, train_ds)
        assert history == []
        for (w, b), (w0, b0) in zip(params, init_mlp(spec)):
            np.testing.assert_array_equal(w, w0)
            np.testing.assert_array_equal(b, b0)

    def test_linearly_separable_reaches_full_accuracy(self):
        train_ds, _ = make_blobs(2, 4, 40, 8.0, seed=1)
        cfg = TrainConfig(
            epochs=50, lr_decay_epochs=(), alpha=1.0, beta=0.0, weight_decay=0.0, seed=0
        )
        params, history = train(MlpSpec((4, 2), init_seed=0), cfg, train_ds)
        assert evaluate(params, train_ds) == 1.0
        assert history[-1].top1 == 1.0

    def test_bit_deterministic(self):
        train_ds, val_ds = tiny_dataset()
        cfg = TrainConfig(epochs=3, lr_decay_epochs=(), seed=4, alpha=1.0, beta=0.0)
        spec = MlpSpec((4, 6, 3), init_seed=4)
        p1, h1 = train(spec, cfg, train_ds, None, val_ds)
        p2, h2 = train(spec, cfg, train_ds, None, val_ds)
        for (w1, b1), (w2, b2) in zip(p1, p2):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)
        assert h1 == h2

    def test_beta_zero_bitwise_equals_plain_ce(self):
        train_ds, val_ds = tiny_dataset()
        spec = MlpSpec((4, 6, 3), init_seed=9)
        teacher = cache_teacher_logits(init_mlp(MlpSpec((4, 10, 3), init_seed=1)), train_ds)
        for rule in (Fixed(4.0), NormStd(2.0)):
            cfg_kd = TrainConfig(
                epochs=5, lr_decay_epochs=(), alpha=0.3, beta=0.0, rule=rule, seed=9
            )
            cfg_ce = TrainConfig(epochs=5, lr_decay_epochs=(), alpha=0.3, beta=0.0, seed=9)
            p_kd, h_kd = train(spec, cfg_kd, train_ds, teacher, val_ds)
            p_ce, h_ce = train(spec, cfg_ce, train_ds, None, val_ds)
            for (w1, b1), (w2, b2) in zip(p_kd, p_ce):
                np.testing.assert_array_equal(w1, w2)
                np.testing.assert_array_equal(b1, b2)
            assert h_kd == h_ce

    def test_single_step_equals_explicit_gradient_descent(self):
        train_ds, _ = tiny_dataset()
        n = train_ds.n_samples
        cfg = TrainConfig(
            epochs=1,
            batch_size=n,
            learning_rate=0.05,
            momentum=0.0,
            weight_decay=0.0,
            lr_decay_epochs=(),
            alpha=1.0,
            beta=0.0,
            seed=2,
        )
        spec = MlpSpec((4, 6, 3), init_seed=2)
        params, _ = train(spec, cfg, train_ds)

        from normkd.distill import cross_entropy
        from normkd.numcore import Tape, multiply

        init = init_mlp(spec)
        tape = Tape()
        leaves = [(tape.leaf(w), tape.leaf(b)) for w, b in init]
        logits = taped_forward(leaves, train_ds.features)
        loss = multiply(cross_entropy(logits, train_ds.labels), 1.0)
        tape.backward(loss)
        for (w, b), (w0, b0), (wl, bl) in zip(params, init, leaves):
            np.testing.assert_allclose(w, w0 - 0.05 * wl.grad, rtol=0, atol=1e-12)
            np.testing.assert_allclose(b, b0 - 0.05 * bl.grad, rtol=0, atol=1e-12)

    def test_loss_nonincreasing_on_single_batch(self):
        train_ds, _ = tiny_dataset(per_class=5)
        cfg = TrainConfig(
            epochs=10,
            batch_size=train_ds.n_samples,
            learning_rate=0.01,
            momentum=0.0,
            weight_decay=0.0,
            lr_decay_epochs=(),
            alpha=1.0,
            beta=0.0,
            seed=0,
        )
        _, history = train(MlpSpec((4, 6, 3), init_seed=0), cfg, train_ds)
        totals = [r.total for r in history if r.split == "train"]
        assert all(a >= b - 1e-12 for a, b in zip(totals, totals[1:]))

    def test_distillation_trajectory_matches_hand_stepped_oracle(self):
        """Three Nesterov steps of fixed-temperature distillation recomputed
        from scratch with explicit per-batch gradients."""
        train_ds, _ = tiny_dataset(seed=3, classes=3, dim=4, per_class=10)
        teacher = cache_teacher_logits(init_mlp(MlpSpec((4, 12, 3), init_seed=8)), train_ds)
        z_t_all = teacher.logits
        cfg = TrainConfig(
            epochs=1,
            batch_size=8,
            learning_rate=0.05,
            momentum=0.9,
            weight_decay=5e-4,
            lr_decay_epochs=(),
            alpha=0.1,
            beta=0.9,
            rule=Fixed(4.0),
            seed=6,
        )
        spec = MlpSpec((4, 6, 3), init_seed=6)
        got, _ = train(spec, cfg, train_ds, teacher)

        from normkd.distill import kd_loss
        from normkd.numcore import Tape
        from normkd.trainer import _epoch_order

        params = [(w.copy(), b.copy()) for w, b in init_mlp(spec)]
        bufs = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
        order = _epoch_order(6, 1, train_ds.n_samples)
        for start in range(0, order.size, 8):
            idx = order[start : start + 8]
            tape = Tape()
            leaves = [(tape.leaf(w), tape.leaf(b)) for w, b in params]
            rep = kd_loss(
                taped_forward(leaves, train_ds.features[idx]),
                z_t_all[idx],
                train_ds.labels[idx],
                4.0,
                alpha=0.1,
                beta=0.9,
            )
            tape.backward(rep.node)
            for (w, b), (wl, bl), (vw, vb) in zip(params, leaves, bufs):
                for p, g, v in ((w, wl.grad, vw), (b, bl.grad, vb)):
                    g = g + 5e-4 * p
                    v *= 0.9
                    v += g
                    p -= 0.05 * (g + 0.9 * v)
        for (w, b), (w2, b2) in zip(got, params):
            np.testing.assert_array_equal(w, w2)
            np.testing.assert_array_equal(b, b2)

    def test_history_shape_and_splits(self):
        train_ds, val_ds = tiny_dataset()
        cfg = TrainConfig(epochs=4, lr_decay_epochs=(), alpha=1.0, beta=0.0, seed=0)
        _, history = train(MlpSpec((4, 6, 3), init_seed=0), cfg, train_ds, None, val_ds)
        assert len(history) == 8
        assert {(r.epoch, r.split) for r in history} == {
            (e, s) for e in range(1, 5) for s in ("train", "val")
        }
        assert all(0.0 <= r.top1 <= 1.0 for r in history)

    def test_cache_mismatch_rejected(self):
        train_ds, _ = tiny_dataset()
        full = cache_teacher_logits(init_mlp(MlpSpec((4, 5, 3), init_seed=0)), train_ds)
        bad = LogitCache(full.sample_ids[:-1], full.labels[:-1], full.logits[:-1])
        cfg = TrainConfig(epochs=1, lr_decay_epochs=(), rule=Fixed(2.0))
        with pytest.raises(ContractError):
            train(MlpSpec((4, 6, 3)), cfg, train_ds, bad)

    def test_spec_dataset_width_mismatch_rejected(self):
        train_ds, _ = tiny_dataset()
        cfg = TrainConfig(epochs=1, lr_decay_epochs=())
        with pytest.raises(ContractError):
            train(MlpSpec((5, 6, 3)), cfg, train_ds)
        with pytest.raises(ContractError):
            train(MlpSpec((4, 6, 2)), cfg, train_ds)

    def test_empty_val_split_rejected_before_training(self):
        train_ds, _ = make_blobs(3, 4, 10, 3.0, 0)
        val_ds = Dataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 3)
        cfg = TrainConfig(epochs=2, lr_decay_epochs=())
        with pytest.raises(ContractError, match="^validation dataset is empty$"):
            train(MlpSpec((4, 3, 3)), cfg, train_ds, None, val_ds)

    @pytest.mark.parametrize(
        "dim,classes,message",
        [(7, 4, "spec input width 6 != dataset features 7"),
         (6, 5, "spec class width 4 != dataset classes 5"),
         (6, 3, "spec class width 4 != dataset classes 3")],
    )
    def test_val_split_that_does_not_fit_rejected_before_any_step(
        self, monkeypatch, dim, classes, message
    ):
        train_ds, _ = make_blobs(4, 6, 10, 3.0, 0)
        _, val_ds = make_blobs(classes, dim, 10, 3.0, 1)
        monkeypatch.setattr(trainer, "_step_grads", lambda *args: pytest.fail("a step ran"))
        cfg = TrainConfig(epochs=3, lr_decay_epochs=())
        with pytest.raises(ContractError, match=f"^validation dataset: {re.escape(message)}$"):
            train(MlpSpec((6, 8, 4)), cfg, train_ds, None, val_ds)


class TestEvaluate:
    def test_empty_dataset_rejected(self):
        params = init_mlp(MlpSpec((4, 3, 3)))
        empty = Dataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 3)
        with pytest.raises(ContractError, match="^evaluation dataset is empty$"):
            evaluate(params, empty)

    def test_one_hot_model_is_perfect(self):
        feats = np.eye(3)
        data = Dataset(feats, np.arange(3), 3)
        params = [(np.eye(3) * 10.0, np.zeros(3))]
        assert evaluate(params, data) == 1.0

    def test_constant_model_on_balanced_data(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(90, 4))
        labels = np.repeat(np.arange(3), 30)
        data = Dataset(feats, labels, 3)
        params = [(np.zeros((4, 3)), np.array([5.0, 0.0, 0.0]))]
        assert evaluate(params, data) == pytest.approx(1 / 3)

    def test_matches_manual_recount(self):
        train_ds, _ = tiny_dataset()
        params = init_mlp(MlpSpec((4, 6, 3), init_seed=1))
        logits = forward(params, train_ds.features)
        manual = sum(
            1 for i in range(train_ds.n_samples)
            if int(np.argmax(logits[i])) == int(train_ds.labels[i])
        ) / train_ds.n_samples
        assert evaluate(params, train_ds) == manual


class TestCacheTeacherLogits:
    def test_one_record_per_sample_in_order(self):
        train_ds, _ = tiny_dataset()
        params = init_mlp(MlpSpec((4, 6, 3), init_seed=2))
        cache = cache_teacher_logits(params, train_ds)
        assert len(cache) == train_ds.n_samples
        assert cache.sample_ids.tolist() == list(range(train_ds.n_samples))

    def test_bit_identical_rerun(self):
        train_ds, _ = tiny_dataset()
        params = init_mlp(MlpSpec((4, 6, 3), init_seed=2))
        a = cache_teacher_logits(params, train_ds)
        b = cache_teacher_logits(params, train_ds)
        np.testing.assert_array_equal(a.logits, b.logits)

    def test_matches_single_sample_forward(self):
        train_ds, _ = tiny_dataset()
        params = init_mlp(MlpSpec((4, 6, 3), init_seed=2))
        cache = cache_teacher_logits(params, train_ds)
        for i in (0, 7, train_ds.n_samples - 1):
            single = forward(params, train_ds.features[i : i + 1])[0]
            np.testing.assert_allclose(cache.logits[i], single, rtol=0, atol=1e-12)
