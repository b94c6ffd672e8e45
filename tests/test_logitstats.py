"""Per-sample statistics and temperature rules."""

import numpy as np
import pytest

from normkd.errors import ConfigError, ContractError, DimensionError, NumericError
from normkd.logitstats import (
    Fixed,
    LogitCache,
    LogitRecord,
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


class TestLogitRecord:
    def test_label_range_checked(self):
        with pytest.raises(ContractError):
            LogitRecord(0, 3, np.zeros(3))

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError):
            LogitRecord(0, 0, np.array([np.nan, 1.0]))


class TestLogitCache:
    def make(self):
        return LogitCache(
            np.array([4, 5, 6]), np.array([0, 2, 1]), np.arange(9.0).reshape(3, 3)
        )

    def test_rows_slices_and_iteration(self):
        cache = self.make()
        assert len(cache) == 3 and cache.num_classes == 3
        rec = cache[1]
        assert isinstance(rec, LogitRecord)
        assert (rec.sample_id, rec.label) == (5, 2)
        np.testing.assert_array_equal(rec.logits, [3.0, 4.0, 5.0])
        assert cache[-1].sample_id == 6
        tail = cache[1:]
        assert isinstance(tail, LogitCache)
        np.testing.assert_array_equal(tail.sample_ids, [5, 6])
        assert [r.label for r in cache] == [0, 2, 1]

    def test_from_records_round_trip(self):
        cache = self.make()
        back = LogitCache.from_records(list(cache))
        np.testing.assert_array_equal(back.sample_ids, cache.sample_ids)
        np.testing.assert_array_equal(back.labels, cache.labels)
        np.testing.assert_array_equal(back.logits, cache.logits)
        assert LogitCache.from_records(cache) is cache
        assert len(LogitCache.from_records([])) == 0

    def test_ragged_records_rejected(self):
        with pytest.raises(DimensionError, match="record 1 has 4 classes, expected 3"):
            LogitCache.from_records([LogitRecord(0, 0, np.zeros(3)), LogitRecord(1, 0, np.zeros(4))])

    @pytest.mark.parametrize(
        "ids,labels,logits",
        [
            ([0, 1], [0, 0], np.zeros(2)),
            ([0, 1], [0], np.zeros((2, 3))),
            ([0], [0, 0], np.zeros((2, 3))),
        ],
    )
    def test_shapes_checked(self, ids, labels, logits):
        with pytest.raises(DimensionError):
            LogitCache(np.array(ids), np.array(labels), logits)

    def test_first_bad_row_raises_its_record_error(self):
        logits = np.zeros((4, 3))
        logits[3, 1] = np.inf
        with pytest.raises(ContractError, match=r"label 3 outside \[0, 3\)") as info:
            LogitCache(np.arange(4), np.array([0, 1, 3, 0]), logits)
        assert info.value.row == 2
        with pytest.raises(NumericError, match="non-finite") as info:
            LogitCache(np.arange(4), np.array([0, 1, 2, 0]), logits)
        assert info.value.row == 3


class TestSummarize:
    def test_uniform_record(self):
        s = summarize([LogitRecord(0, 0, np.zeros(4))])
        assert s.sigma[0] == 0.0
        np.testing.assert_allclose(s.entropy[0], np.log(4), rtol=1e-12)

    def test_known_extremes(self):
        s = summarize([LogitRecord(0, 0, np.array([2.0, 0.0, -2.0]))])
        assert s.sigma[0] == 2.0
        assert s.v_max[0] == 2.0
        assert s.v_min[0] == -2.0
        assert s.mu[0] == 0.0

    def test_identical_records_concentrate_histogram(self):
        recs = [LogitRecord(i, 1, np.array([1.0, 3.0, -1.0])) for i in range(2)]
        s = summarize(recs)
        assert s.sigma_hist_counts.sum() == 2
        assert s.sigma_hist_counts.max() == 2

    def test_entropy_bounds(self):
        rng = np.random.default_rng(4)
        recs = [
            LogitRecord(i, 0, rng.normal(0, rng.uniform(0.1, 5), size=6))
            for i in range(50)
        ]
        s = summarize(recs)
        assert np.all(s.entropy >= 0.0)
        assert np.all(s.entropy <= np.log(6) + 1e-12)
        assert np.all(s.v_max >= s.v_min)
        assert np.all(s.sigma >= 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            summarize([])

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            summarize([LogitRecord(0, 0, np.zeros(3)), LogitRecord(1, 0, np.zeros(4))])


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

    def test_label_round_trips(self):
        for rule in (Fixed(4.0), MultiSet((1.0, 2.5)), NormStd(2.0), MaxVal(1.0), Range(0.5)):
            name, params = rule_label(rule)
            assert parse_rule(f"{name}:{params}") == rule
