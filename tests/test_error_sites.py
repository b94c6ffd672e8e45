"""Coded errors on bad input: one case per raise site, error class and whole message."""

import re

import numpy as np
import pytest

from normkd.datasets import Dataset, _place_centers, make_blobs
from normkd.distill import cross_entropy, kl_divergence
from normkd.errors import ConfigError, ContractError, DimensionError
from normkd.ioutil import atomic_write_bytes
from normkd.logitstats import rule_label
from normkd.numcore import Tape, as_matrix, as_vector, gather_rows, grad_check, std_rows, sum_all
from normkd.trainer import MlpSpec, TrainConfig, train


class _SamePoint:
    """An rng whose every uniform draw is the origin: no second center ever fits."""

    def uniform(self, low, high, size):
        return np.zeros(size)


def _backward_from_another_tape():
    Tape().backward(sum_all(Tape().leaf(np.ones(2))))


def _train_on_empty_split():
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 3)
    train(MlpSpec((2, 3)), TrainConfig(epochs=1, lr_decay_epochs=()), empty)


SITES = {
    "Dataset shapes": (
        lambda: Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), 2),
        ContractError, "features (3, 2) and labels (2,) are inconsistent"),
    "Dataset features": (
        lambda: Dataset(np.array([[np.nan, 0.0]]), np.array([0]), 2),
        ContractError, "features contain non-finite entries"),
    "Dataset labels": (
        lambda: Dataset(np.zeros((2, 2)), np.array([0, 2]), 2),
        ContractError, "labels must lie in [0, 2)"),
    "_place_centers": (
        lambda: _place_centers(_SamePoint(), 2, 3, 1.0),
        ConfigError, "could not place 2 centers at separation 1.0 in 3-D"),
    "make_blobs dim": (
        lambda: make_blobs(2, 0, 5, 1.0, 0),
        ContractError, "need at least 1 feature, got 0"),
    "make_blobs separation": (
        lambda: make_blobs(2, 2, 5, 0.0, 0),
        ContractError, "separation must be positive, got 0.0"),
    "kl_divergence shapes": (
        lambda: kl_divergence([0.5, 0.5], [0.25, 0.25, 0.5]),
        DimensionError, "distribution shapes differ: (2,) vs (3,)"),
    "cross_entropy labels shape": (
        lambda: cross_entropy(np.zeros((2, 3)), [0]),
        DimensionError, "labels shape (1,) does not match batch size 2"),
    "as_matrix": (
        lambda: as_matrix([1.0, 2.0], "x"),
        DimensionError, "x must be 2-D, got shape (2,)"),
    "as_vector": (
        lambda: as_vector([[1.0]], "v"),
        DimensionError, "v must be 1-D, got shape (1, 1)"),
    "Tape.backward": (
        _backward_from_another_tape,
        ContractError, "output tensor belongs to a different tape"),
    "std_rows": (
        lambda: std_rows(np.ones(3)),
        DimensionError, "std_rows expects a matrix, got shape (3,)"),
    "gather_rows": (
        lambda: gather_rows(np.zeros((2, 3)), [0]),
        DimensionError, "gather_rows: indices shape (1,) does not match rows of (2, 3)"),
    "grad_check": (
        lambda: grad_check(lambda t: 1.0, np.ones(2)),
        ContractError, "grad_check function must return a Tensor"),
    "rule_label": (
        lambda: rule_label("fixed:4"),
        ContractError, "unknown temperature rule 'fixed:4'"),
    "TrainConfig epochs": (
        lambda: TrainConfig(epochs=-1),
        ConfigError, "epochs must be nonnegative, got -1"),
    "train empty split": (
        _train_on_empty_split,
        ContractError, "training dataset is empty"),
}


@pytest.mark.parametrize("call,error,message", SITES.values(), ids=SITES.keys())
def test_raises_coded_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_atomic_write_removes_its_temporary_on_a_non_os_error(tmp_path):
    with pytest.raises(TypeError, match="^a bytes-like object is required, not 'str'$"):
        atomic_write_bytes(tmp_path / "out.bin", "not bytes")
    assert list(tmp_path.iterdir()) == []
