"""Per-sample statistics and temperature rules."""

import numpy as np
import pytest

from normkd.errors import ConfigError, ContractError, DimensionError, NumericError
from normkd.logitstats import (
    Fixed,
    LogitCache,
    MaxVal,
    MultiSet,
    NormStd,
    Range,
    parse_rule,
    row_temperatures,
    rule_label,
    sample_std,
    summarize,
    temperature_for,
)
from normkd.numcore import Tape, Tensor
from oracles import std_mp


class TestSampleStd:
    def test_constant_vector_is_zero(self):
        assert sample_std([5.0, 5.0, 5.0, 5.0]) == 0.0

    def test_known_values_against_oracle(self):
        assert abs(sample_std([2.0, 0.0, -2.0]) - float(std_mp([2, 0, -2]))) < 1e-15
        assert sample_std([2.0, 0.0, -2.0]) == 2.0
        assert abs(sample_std([1.0, 0.0]) - 0.7071067811865476) < 1e-15

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.normal(0, 3, size=rng.integers(2, 12))
            for corrected in (True, False):
                expected = float(std_mp(z, corrected))
                assert abs(sample_std(z, corrected) - expected) <= 1e-12 * max(1.0, expected)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = rng.normal(size=6)
            a, b = rng.normal(), rng.normal()
            np.testing.assert_allclose(
                sample_std(a * z + b), abs(a) * sample_std(z), rtol=1e-10, atol=1e-12
            )

    def test_too_short_vector_rejected(self):
        with pytest.raises(ContractError):
            sample_std([1.0])


class TestTemperatureRules:
    def test_rule_validation(self):
        for bad in (lambda: Fixed(0.0), lambda: Fixed(-1.0), lambda: MultiSet(()),
                    lambda: MultiSet((1.0, 0.0)), lambda: NormStd(2.0, 0.0),
                    lambda: MaxVal(-2.0), lambda: Range(1.0, -1e-9)):
            with pytest.raises(ContractError):
                bad()

    def test_fixed(self):
        assert temperature_for(Fixed(4.0), [9.0, -3.0, 1.0]) == 4.0

    def test_multiset_returns_the_set(self):
        assert temperature_for(MultiSet((1.0, 2.0, 4.0)), [0.0, 1.0]) == (1.0, 2.0, 4.0)

    def test_normstd(self):
        assert temperature_for(NormStd(t_norm=2.0), [2.0, 0.0, -2.0]) == 4.0

    def test_range(self):
        assert temperature_for(Range(t_v=1.0), [3.0, -1.0, 0.0]) == 4.0

    def test_maxval(self):
        assert temperature_for(MaxVal(t_v=2.0), [3.0, -1.0, 0.0]) == 6.0

    def test_epsilon_floor_degenerate_inputs(self):
        eps = 1e-8
        assert temperature_for(NormStd(2.0, eps), [1.0, 1.0, 1.0]) == eps * 2.0
        assert temperature_for(MaxVal(3.0, eps), [-5.0, -6.0]) == eps * 3.0
        assert temperature_for(Range(2.0, eps), [4.0, 4.0]) == eps * 2.0

    def test_always_strictly_positive(self):
        rng = np.random.default_rng(2)
        rules = (Fixed(3.0), NormStd(2.0), MaxVal(1.0), Range(1.0))
        for _ in range(200):
            z = rng.normal(0, rng.uniform(1e-9, 5.0), size=5)
            for rule in rules:
                t = temperature_for(rule, z)
                assert t > 0.0

    def test_normstd_scale_equivariance_above_floor(self):
        rng = np.random.default_rng(3)
        rule = NormStd(2.0, epsilon=1e-8)
        for _ in range(100):
            z = rng.normal(0, 2, size=7)
            a = float(rng.uniform(0.1, 10))
            if sample_std(z) > rule.epsilon / a:
                np.testing.assert_allclose(
                    temperature_for(rule, a * z),
                    a * temperature_for(rule, z),
                    rtol=1e-10,
                )

    def test_range_shift_invariant_maxval_not(self):
        z = np.array([3.0, -1.0, 0.0])
        assert temperature_for(Range(1.0), z + 10.0) == temperature_for(Range(1.0), z)
        assert temperature_for(MaxVal(1.0), z + 10.0) != temperature_for(MaxVal(1.0), z)


def _extreme_batches():
    """(N, C) batches of the inputs the floor and the tie rules decide."""
    rng = np.random.default_rng(5)
    pair = np.array(
        [[0.3, -1.2], [2.0, 2.0], [-0.5, -3.0], [0.0, -0.0], [1e-9, 0.0], [-7.0, 7.0]]
    )
    wide = np.array(
        [
            [4.0, 4.0, 4.0, 4.0, 4.0],  # constant
            [3.0, 3.0, -1.0, 0.5, -1.0],  # tied maximum and tied minimum
            [-2.0, -0.5, -9.0, -0.5, -3.0],  # maximum below zero
            [0.0, -1.0, -2.0, 0.0, -4.0],  # maximum exactly zero, tied
            [1.0, 1.0 + 1e-15, 1.0, 1.0, 1.0],  # spread far below epsilon
        ]
    )
    f32 = (rng.normal(0.0, 1.0, (16, 7)) * 10.0 ** rng.uniform(-3, 3, (16, 1))).astype(
        np.float32
    )
    extreme = np.array([[3.0e38, -3.0e38, 1.0], [1.4e-45, 0.0, -1.4e-45]], dtype=np.float32)
    return [pair, wide, f32.astype(np.float64), extreme.astype(np.float64)]


class TestRowTemperatures:
    @pytest.mark.parametrize(
        "rule, corrected",
        [
            (NormStd(2.0), True),
            (NormStd(2.0), False),
            (NormStd(0.5, 1e-3), True),
            (MaxVal(1.5), True),
            (MaxVal(2.0, 0.25), True),
            (Range(0.7), True),
            (Range(3.0, 1e-2), True),
        ],
    )
    def test_rows_equal_temperature_for_and_tape_equals_plain(self, rule, corrected):
        for z in _extreme_batches():
            plain = row_temperatures(rule, z, corrected)
            assert plain.shape == (z.shape[0], 1)
            for row, t in zip(z, plain[:, 0]):
                assert t == temperature_for(rule, row, corrected) > 0.0
            taped = row_temperatures(rule, Tape().leaf(z), corrected)
            assert isinstance(taped, Tensor)
            assert taped.data.tobytes() == plain.tobytes()

    def test_floor_on_degenerate_rows(self):
        wide, eps = _extreme_batches()[1], 1e-8
        assert row_temperatures(NormStd(2.0, eps), wide)[[0, 4], 0].tolist() == [eps * 2.0] * 2
        assert row_temperatures(Range(2.0, eps), wide)[[0, 4], 0].tolist() == [eps * 2.0] * 2
        assert row_temperatures(MaxVal(3.0, eps), wide)[[2, 3], 0].tolist() == [eps * 3.0] * 2

    @pytest.mark.parametrize("rule", [Fixed(4.0), MultiSet((1.0, 2.0))])
    def test_global_rules_rejected(self, rule):
        with pytest.raises(ContractError, match="no per-sample temperature"):
            row_temperatures(rule, np.zeros((2, 3)))


def rows(*logits, label=0):
    """A LogitCache with ids 0..N-1, every label ``label``, and the given rows."""
    n = len(logits)
    return LogitCache(np.arange(n), np.full(n, label), np.array(logits, dtype=float))


class TestLogitCache:
    @pytest.mark.parametrize(
        "ids,labels,logits",
        [
            ([0, 1], [0, 0], np.zeros(2)),
            ([0, 1], [0], np.zeros((2, 3))),
            ([0], [0, 0], np.zeros((2, 3))),
            ([0, 1], [0, 0], [np.zeros(3), np.zeros(4)]),
        ],
    )
    def test_shapes_checked(self, ids, labels, logits):
        with pytest.raises(DimensionError):
            LogitCache(np.array(ids), np.array(labels), logits)

    @pytest.mark.parametrize(
        "labels,bad_logit,error,message,row",
        [
            ([0, 1, 3, 0], np.inf, ContractError, r"^label 3 outside \[0, 3\)$", 2),
            ([0, -1, 2, 0], np.inf, ContractError, r"^label -1 outside \[0, 3\)$", 1),
            ([0, 1, 2, 0], np.inf, NumericError, "^logits contains non-finite entries$", 3),
            ([0, 1, 2, 0], np.nan, NumericError, "^logits contains non-finite entries$", 3),
            # a row with both faults reports its logits
            ([0, 1, 2, 5], np.nan, NumericError, "^logits contains non-finite entries$", 3),
        ],
    )
    def test_first_bad_row_raises_its_record_error(self, labels, bad_logit, error, message, row):
        logits = np.zeros((4, 3))
        logits[3, 1] = bad_logit
        with pytest.raises(error, match=message) as info:
            LogitCache(np.arange(4), np.array(labels), logits)
        assert type(info.value) is error and info.value.row == row


def _call_with(target, value, tmp_path):
    """Pass ``value`` where ``target`` takes a LogitCache; everything else is valid."""
    from normkd.datasets import make_blobs
    from normkd.experiment import analyze
    from normkd.logitcache import write_logit_cache
    from normkd.trainer import MlpSpec, TrainConfig, train

    cache = rows([0.0, 1.0], [1.0, 0.0])
    if target == "write_logit_cache":
        write_logit_cache(tmp_path / "c.nkdl", value)
    elif target == "summarize":
        summarize(value)
    elif target == "analyze teacher":
        analyze(value, cache)
    elif target == "analyze student":
        analyze(cache, value)
    else:
        train_ds, _ = make_blobs(2, 3, 5, 2.0, seed=0)
        config = TrainConfig(epochs=1, lr_decay_epochs=(), rule=Fixed(2.0))
        train(MlpSpec((3, 2)), config, train_ds, value)


class TestOneBatchType:
    """A LogitCache is the only batch type these boundaries take."""

    @pytest.mark.parametrize(
        "target,value",
        [
            ("write_logit_cache", [np.zeros(3)]),
            # ragged rows: the type check comes before any shape check
            ("summarize", [np.zeros(3), np.zeros(4)]),
            ("analyze teacher", [np.zeros(2), np.ones(2)]),
            ("analyze student", [np.zeros(2), np.ones(2)]),
            ("train", [np.zeros(2)] * 8),
            ("train", np.zeros((8, 2))),
        ],
    )
    def test_other_types_raise_a_contract_error_naming_logitcache(self, tmp_path, target, value):
        with pytest.raises(ContractError, match=f"must be a LogitCache, got {type(value).__name__}$"):
            _call_with(target, value, tmp_path)
        assert not (tmp_path / "c.nkdl").exists()


class TestSummarize:
    def test_uniform_record(self):
        s = summarize(rows(np.zeros(4)))
        assert s.sigma[0] == 0.0
        np.testing.assert_allclose(s.entropy[0], np.log(4), rtol=1e-12)

    def test_known_extremes(self):
        s = summarize(rows([2.0, 0.0, -2.0]))
        assert s.sigma[0] == 2.0
        assert s.v_max[0] == 2.0
        assert s.v_min[0] == -2.0
        assert s.mu[0] == 0.0

    def test_identical_records_concentrate_histogram(self):
        s = summarize(rows([1.0, 3.0, -1.0], [1.0, 3.0, -1.0], label=1))
        assert s.sigma_hist_counts.sum() == 2
        assert s.sigma_hist_counts.max() == 2

    def test_entropy_bounds(self):
        rng = np.random.default_rng(4)
        s = summarize(rows(*(rng.normal(0, rng.uniform(0.1, 5), size=6) for _ in range(50))))
        assert np.all(s.entropy >= 0.0)
        assert np.all(s.entropy <= np.log(6) + 1e-12)
        assert np.all(s.v_max >= s.v_min)
        assert np.all(s.sigma >= 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ContractError, match="at least one record"):
            summarize(LogitCache(np.empty(0), np.empty(0), np.empty((0, 3))))

    def test_overflowing_row_std_is_a_numeric_error_naming_the_row(self):
        cache = rows([1.0, 0.0, -1.0], [1e300, -1e300, 0.0], [2e300, 0.0, -2e300])
        with np.errstate(over="ignore"), pytest.raises(
            NumericError, match=r"^row 1 has a logit std that is not finite: inf$"
        ):
            summarize(cache)


class TestRuleParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("fixed:4", Fixed(4.0)),
            ("multiset:1,2,4", MultiSet((1.0, 2.0, 4.0))),
            ("normstd:2.0", NormStd(2.0)),
            ("normstd:2.0:1e-6", NormStd(2.0, 1e-6)),
            ("maxval:1.5", MaxVal(1.5)),
            ("range:3", Range(3.0)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_rule(text) == expected

    @pytest.mark.parametrize("text", ["fixed", "fixed:0", "multiset:", "nope:3", "fixed:x"])
    def test_parse_rejects(self, text):
        with pytest.raises(ConfigError):
            parse_rule(text)

    @pytest.mark.parametrize(
        "text,name",
        [("fixed:inf", "temperature"), ("normstd:inf", "t_norm"),
         ("multiset:1,inf", "temperature"), ("maxval:2:inf", "epsilon"), ("range:inf", "t_v")],
    )
    def test_parse_rejects_infinite_parameters(self, text, name):
        with pytest.raises(ConfigError, match=f"{name} must be finite, got inf"):
            parse_rule(text)

    @pytest.mark.parametrize(
        "make", [lambda v: Fixed(v), lambda v: MultiSet((1.0, v)), lambda v: NormStd(v),
                 lambda v: NormStd(2.0, v), lambda v: MaxVal(v), lambda v: Range(1.0, v)],
    )
    def test_rules_reject_infinity_after_the_positivity_check(self, make):
        with pytest.raises(ContractError, match="must be finite, got inf"):
            make(float("inf"))
        with pytest.raises(ContractError, match="must be strictly positive, got -inf"):
            make(float("-inf"))

    def test_label_round_trips(self):
        for rule in (Fixed(4.0), MultiSet((1.0, 2.5)), NormStd(2.0), MaxVal(1.0), Range(0.5)):
            name, params = rule_label(rule)
            assert parse_rule(f"{name}:{params}") == rule
