"""Dataset text files and binary logit caches: round-trips and coded errors."""

import os
import re
import stat
import struct
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from normkd.datasets import Dataset, make_blobs, read_dataset, write_dataset
from normkd.errors import ConfigError, ContractError, FileFormatError, NumericError
from normkd.logitcache import read_logit_cache, write_logit_cache
from normkd.logitstats import LogitCache


class TestMakeBlobs:
    def test_split_sizes(self):
        train_ds, val_ds = make_blobs(10, 3, 100, 2.0, seed=0)
        assert train_ds.n_samples == 800
        assert val_ds.n_samples == 200
        assert train_ds.num_classes == val_ds.num_classes == 10

    def test_deterministic(self):
        a_train, a_val = make_blobs(4, 5, 10, 2.0, seed=3)
        b_train, b_val = make_blobs(4, 5, 10, 2.0, seed=3)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_val.labels, b_val.labels)

    def test_center_separation_honored(self):
        train_ds, _ = make_blobs(6, 2, 50, 3.0, seed=1)
        centers = np.stack(
            [train_ds.features[train_ds.labels == k].mean(axis=0) for k in range(6)]
        )
        dists = np.linalg.norm(centers[:, None] - centers[None, :], axis=-1)
        off_diag = dists[~np.eye(6, dtype=bool)]
        # empirical means sit near the true centers, which are >= 3 apart
        assert off_diag.min() > 2.0

    def test_balanced_splits(self):
        train_ds, val_ds = make_blobs(5, 3, 20, 2.0, seed=2)
        for k in range(5):
            assert (train_ds.labels == k).sum() == 16
            assert (val_ds.labels == k).sum() == 4

    def test_impossible_geometry_rejected(self):
        with pytest.raises(ConfigError):
            make_blobs(3, 2, 4, 1e308, seed=0)

    def test_preconditions(self):
        with pytest.raises(ContractError):
            make_blobs(1, 2, 10, 1.0, seed=0)
        with pytest.raises(ContractError):
            make_blobs(3, 2, 1, 1.0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ContractError, match="seed must be nonnegative, got -1"):
            make_blobs(3, 2, 4, 1.0, seed=-1)

    def test_wide_margin_pair_is_linearly_separable(self):
        from normkd.trainer import MlpSpec, TrainConfig, evaluate, train

        train_ds, val_ds = make_blobs(2, 4, 50, 8.0, seed=3)
        cfg = TrainConfig(
            epochs=30, lr_decay_epochs=(), alpha=1.0, beta=0.0, weight_decay=0.0, seed=0
        )
        params, _ = train(MlpSpec((4, 2), init_seed=0), cfg, train_ds, None, val_ds)
        assert evaluate(params, val_ds) >= 0.99


class TestDatasetFile:
    def test_round_trip(self, tmp_path):
        train_ds, _ = make_blobs(3, 4, 10, 2.0, seed=5)
        path = tmp_path / "data.txt"
        write_dataset(path, train_ds)
        back = read_dataset(path)
        np.testing.assert_array_equal(back.features, train_ds.features)
        np.testing.assert_array_equal(back.labels, train_ds.labels)
        assert back.num_classes == 3

    def test_byte_identical_rewrites(self, tmp_path):
        train_ds, _ = make_blobs(3, 4, 10, 2.0, seed=5)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_dataset(a, train_ds)
        write_dataset(b, train_ds)
        assert a.read_bytes() == b.read_bytes()

    def test_header_format(self, tmp_path):
        train_ds, _ = make_blobs(3, 4, 10, 2.0, seed=5)
        path = tmp_path / "data.txt"
        write_dataset(path, train_ds)
        assert path.read_text().splitlines()[0] == "3 4 24"

    @pytest.mark.parametrize(
        "content,message",
        [
            ("", "empty"),
            ("3 4\n", "header"),
            ("a b c\n", "non-integer"),
            ("2 2 2\n0,1.0,2.0\n", "expected 2 rows"),
            ("2 2 1\n0,1.0\n", "features"),
            ("2 2 1\n5,1.0,2.0\n", "labels outside"),
            ("2 2 1\n0,1.0,nan\n", "non-finite"),
            ("2 2 1\n0,1.0,oops\n", "unparseable"),
            ("3 -1 2\n0,1.0\n1,2.0\n", "header '3 -1 2' needs C >= 1, D >= 1, N >= 0"),
            ("3 0 1\n0\n", "header '3 0 1' needs"),
            ("0 2 0\n", "header '0 2 0' needs"),
            ("-2 2 0\n", "header '-2 2 0' needs"),
            ("2 2 -1\n", "header '2 2 -1' needs"),
        ],
    )
    def test_malformed_files_coded_errors(self, tmp_path, content, message):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(FileFormatError, match=message):
            read_dataset(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(FileFormatError):
            read_dataset(tmp_path / "nope.txt")

    def test_non_utf8_file_is_a_file_format_error(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"2 2 1\n0,1.0,2.0 # caf\xe9\n")
        message = re.escape(f"cannot read dataset {path}: 'utf-8' codec")
        with pytest.raises(FileFormatError, match=message):
            read_dataset(path)


def rows(logits, sample_ids=None, labels=None):
    """A LogitCache of the given rows; ids default to 0..N-1 and labels to 0."""
    logits = np.array(logits, dtype=float)
    n = logits.shape[0]
    return LogitCache(
        np.arange(n) if sample_ids is None else sample_ids,
        np.zeros(n, int) if labels is None else labels,
        logits,
    )


def random_cache(rng, n=7, c=4):
    labels = rng.integers(0, c, size=n)
    return rows(rng.normal(size=(n, c)).astype(np.float32).astype(np.float64), labels=labels)


class TestLogitCacheFile:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        cache = random_cache(rng)
        path = tmp_path / "cache.nkdl"
        write_logit_cache(path, cache)
        back = read_logit_cache(path)
        assert len(back) == len(cache)
        np.testing.assert_array_equal(back.sample_ids, cache.sample_ids)
        np.testing.assert_array_equal(back.labels, cache.labels)
        np.testing.assert_array_equal(back.logits, cache.logits)

    def test_write_read_write_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(1)
        a, b = tmp_path / "a.nkdl", tmp_path / "b.nkdl"
        write_logit_cache(a, rows(rng.normal(size=(4, 5))))
        write_logit_cache(b, read_logit_cache(a))
        assert a.read_bytes() == b.read_bytes()

    def test_exact_size_and_little_endian_layout(self, tmp_path):
        path = tmp_path / "cache.nkdl"
        write_logit_cache(path, rows([[1.0, -2.0, 0.5]], sample_ids=[3], labels=[1]))
        data = path.read_bytes()
        assert len(data) == 16 + 1 * (8 + 4 * 3)
        assert data[:4] == b"NKDL"
        version, n, c = struct.unpack("<III", data[4:16])
        assert (version, n, c) == (1, 1, 3)
        sid, label = struct.unpack("<II", data[16:24])
        assert (sid, label) == (3, 1)
        np.testing.assert_array_equal(
            np.frombuffer(data[24:], dtype="<f4"), np.array([1.0, -2.0, 0.5], dtype="<f4")
        )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nkdl"
        path.write_bytes(b"XKDL" + b"\x00" * 12)
        with pytest.raises(FileFormatError, match="magic.*offset 0"):
            read_logit_cache(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.nkdl"
        path.write_bytes(struct.pack("<4sIII", b"NKDL", 9, 0, 1))
        with pytest.raises(FileFormatError, match="version 9 at offset 4"):
            read_logit_cache(path)

    def test_truncation_names_expected_and_actual(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "cache.nkdl"
        write_logit_cache(path, random_cache(rng, n=3, c=4))
        data = path.read_bytes()
        clipped = tmp_path / "clipped.nkdl"
        clipped.write_bytes(data[:-5])
        with pytest.raises(FileFormatError, match=f"expected {len(data)} bytes.*got {len(data) - 5}"):
            read_logit_cache(clipped)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.nkdl"
        path.write_bytes(b"NKD")
        with pytest.raises(FileFormatError, match="truncated header"):
            read_logit_cache(path)

    def test_label_out_of_range_is_coded(self, tmp_path):
        path = tmp_path / "bad.nkdl"
        body = struct.pack("<II", 0, 7) + np.zeros(3, dtype="<f4").tobytes()
        path.write_bytes(struct.pack("<4sIII", b"NKDL", 1, 1, 3) + body)
        with pytest.raises(FileFormatError, match="record 0 at offset 16"):
            read_logit_cache(path)

    def test_empty_cache_write_rejected(self, tmp_path):
        with pytest.raises(ContractError, match="empty logit cache"):
            write_logit_cache(tmp_path / "e.nkdl", rows(np.empty((0, 3))))

    def test_float32_is_serialization_boundary(self, tmp_path):
        # float64 values are narrowed once on write and widen back exactly
        cache = rows([[0.1234567890123, -7.77]])
        path = tmp_path / "c.nkdl"
        write_logit_cache(path, cache)
        back = read_logit_cache(path)
        np.testing.assert_array_equal(
            back.logits, cache.logits.astype(np.float32).astype(np.float64)
        )


def four_record_file(path, label2=1, logit2=0.0):
    """A 4-record, 3-class cache whose record 2 carries the given label and first logit."""
    body = b""
    for i in range(4):
        label, z = (label2, [logit2, 1.0, 2.0]) if i == 2 else (1, [0.0, 1.0, 2.0])
        body += struct.pack("<II", i, label) + np.array(z, dtype="<f4").tobytes()
    path.write_bytes(struct.pack("<4sIII", b"NKDL", 1, 4, 3) + body)
    return path


class TestLogitCacheBoundaries:
    @pytest.mark.parametrize(
        "label2,logit2,message",
        [
            (3, 0.0, "label 3 outside"),
            (1, np.nan, "non-finite"),
            (1, np.inf, "non-finite"),
        ],
    )
    def test_bad_record_reports_its_own_index_and_offset(self, tmp_path, label2, logit2, message):
        path = four_record_file(tmp_path / "bad.nkdl", label2, logit2)
        offset = 16 + 2 * (8 + 4 * 3)
        with pytest.raises(FileFormatError, match=f"bad record 2 at offset {offset}: .*{message}"):
            read_logit_cache(path)

    @pytest.mark.parametrize("sample_id", [2**32, 2**40, -1])
    def test_sample_id_outside_u32_is_coded(self, tmp_path, sample_id):
        cache = rows(np.zeros((2, 3)), sample_ids=[0, sample_id])
        path = tmp_path / "ids.nkdl"
        with pytest.raises(ContractError, match="record 1 has sample_id"):
            write_logit_cache(path, cache)
        assert not path.exists()

    @pytest.mark.parametrize("value", [1e39, -1e39, 3.5e38])
    def test_logits_beyond_float32_rejected_before_writing(self, tmp_path, value):
        cache = rows([[0.0, 0.0, 0.0], [0.0, value, 1.0]])
        path = tmp_path / "wide.nkdl"
        with pytest.raises(NumericError, match="record 1 has logits outside the float32 range"):
            write_logit_cache(path, cache)
        assert not path.exists()

    def test_float32_max_still_writes(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        path = tmp_path / "edge.nkdl"
        write_logit_cache(path, rows([[top, -top]]))
        np.testing.assert_array_equal(read_logit_cache(path).logits, [[top, -top]])

    def test_read_returns_one_columnar_cache(self, tmp_path):
        path = four_record_file(tmp_path / "ok.nkdl")
        cache = read_logit_cache(path)
        assert isinstance(cache, LogitCache)
        assert len(cache) == 4 and cache.num_classes == 3
        np.testing.assert_array_equal(cache.sample_ids, np.arange(4))
        assert cache.sample_ids.dtype == cache.labels.dtype == np.int64
        assert cache.logits.dtype == np.float64 and cache.logits.shape == (4, 3)


class TestLogitCacheReadEdges:
    def test_short_read_names_the_bytes_present(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.nkdl"
        write_logit_cache(path, random_cache(np.random.default_rng(3), n=3, c=4))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        # the size check passes, so the short count comes from readinto itself
        size = SimpleNamespace(st_mode=stat.S_IFREG, st_size=len(data))
        monkeypatch.setattr("normkd.logitcache.os.fstat", lambda fd: size)
        message = f"expected {len(data)} bytes for 3 records of 4 classes, got {len(data) - 5}$"
        with pytest.raises(FileFormatError, match=message):
            read_logit_cache(path)

    @staticmethod
    def _read_through_fifo(tmp_path, data):
        path = tmp_path / "cache.fifo"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(data,))
        writer.start()
        try:
            return read_logit_cache(path)
        finally:
            writer.join()

    def test_fifo_reads_like_a_file(self, tmp_path):
        path = tmp_path / "cache.nkdl"
        write_logit_cache(path, random_cache(np.random.default_rng(5), n=3, c=4))
        want = read_logit_cache(path)
        got = self._read_through_fifo(tmp_path, path.read_bytes())
        np.testing.assert_array_equal(got.sample_ids, want.sample_ids)
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.logits, want.logits)

    def test_fifo_size_error_counts_the_stream(self, tmp_path):
        path = tmp_path / "cache.nkdl"
        write_logit_cache(path, random_cache(np.random.default_rng(5), n=3, c=4))
        data = path.read_bytes()
        message = f"expected {len(data)} bytes for 3 records of 4 classes, got {len(data) - 1}$"
        with pytest.raises(FileFormatError, match=message):
            self._read_through_fifo(tmp_path, data[:-1])

    # a record of 8 + 4C bytes fits numpy's C int up to C = 536,870,909; numpy itself
    # refuses C >= 2**29 and makes a negative record size at 536,870,910 and 536,870,911
    @pytest.mark.parametrize("c", [3, 536_870_907, 536_870_908, 536_870_909])
    def test_header_only_file_is_an_empty_cache(self, tmp_path, c):
        path = tmp_path / "empty.nkdl"
        path.write_bytes(struct.pack("<4sIII", b"NKDL", 1, 0, c))
        cache = read_logit_cache(path)
        assert len(cache) == 0 and cache.num_classes == c
        assert cache.sample_ids.dtype == cache.labels.dtype == np.int64
        assert cache.logits.dtype == np.float64 and cache.logits.shape == (0, c)

    @pytest.mark.parametrize("c", [536_870_910, 536_870_911, 2**29, 2**31 - 1, 2**31, 2**32 - 1])
    def test_class_count_past_the_record_limit_is_a_format_error(self, tmp_path, c):
        path = tmp_path / "wide.nkdl"
        path.write_bytes(struct.pack("<4sIII", b"NKDL", 1, 0, c))
        message = f"{path}: class count {c} is too large: a record of {8 + 4 * c} bytes is over"
        with pytest.raises(FileFormatError, match=f"^{re.escape(message)} 2147483647$"):
            read_logit_cache(path)

    def test_directory_is_unreadable(self, tmp_path):
        with pytest.raises(FileFormatError, match=re.escape(f"cannot read cache {tmp_path}: ")):
            read_logit_cache(tmp_path)

    def test_huge_claimed_size_fails_before_allocating(self, tmp_path):
        path = tmp_path / "huge.nkdl"
        path.write_bytes(struct.pack("<4sIII", b"NKDL", 1, 2**32 - 1, 2**32 - 1))
        expected = 16 + (2**32 - 1) * (8 + 4 * (2**32 - 1))
        with pytest.raises(FileFormatError, match=f"expected {expected} bytes .* got 16$"):
            read_logit_cache(path)


def _traced_peak(call):
    """``call()``'s result and the peak bytes that tracemalloc saw allocated during it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestLogitCacheMemory:
    """A write and a read each hold one record array, with no whole-file copy."""

    N, C = 4096, 100
    RECORD_BYTES = N * (8 + 4 * C)

    def test_write_peak_is_one_record_array(self, tmp_path):
        cache = random_cache(np.random.default_rng(4), n=self.N, c=self.C)
        _, peak = _traced_peak(lambda: write_logit_cache(tmp_path / "c.nkdl", cache))
        assert peak < 1.3 * self.RECORD_BYTES

    def test_read_peak_is_one_record_array_and_the_cache(self, tmp_path):
        path = tmp_path / "c.nkdl"
        write_logit_cache(path, random_cache(np.random.default_rng(4), n=self.N, c=self.C))
        cache, peak = _traced_peak(lambda: read_logit_cache(path))
        held = cache.sample_ids.nbytes + cache.labels.nbytes + cache.logits.nbytes
        # slack: LogitCache's (N, C) finiteness mask, and 64 KiB for small objects
        assert peak <= self.RECORD_BYTES + held + self.N * self.C + 2**16

