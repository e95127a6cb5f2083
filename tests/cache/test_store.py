"""ResultCache store semantics: roundtrips, atomicity, corruption."""

import json

import numpy as np
import pytest

from repro.cache import ResultCache, atomic_write
from repro.cache.store import ARRAY_MAGIC, STORE_VERSION


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "store")


def entry_files(cache):
    return [p for p in cache.objects_dir.rglob("*") if p.is_file()]


KEY = "ab" + "0" * 62  # sha256-shaped


class TestJsonEntries:
    def test_roundtrip(self, cache):
        payload = {"accuracy": 0.875, "nested": {"xs": [1, 2.5, None]}}
        cache.put_json("sigma_eval", KEY, payload)
        assert cache.get_json("sigma_eval", KEY) == payload
        assert cache.counters.hits == 1
        assert cache.counters.writes == 1

    def test_missing_key_is_miss(self, cache):
        assert cache.get_json("sigma_eval", KEY) is None
        assert cache.counters.misses == 1
        assert cache.counters.hits == 0

    def test_namespaces_isolated(self, cache):
        cache.put_json("a", KEY, 1)
        assert cache.get_json("b", KEY) is None

    def test_garbage_bytes_are_a_miss_and_dropped(self, cache):
        path = cache.put_json("sigma_eval", KEY, {"accuracy": 0.5})
        path.write_bytes(b"\x00garbage\xff")
        assert cache.get_json("sigma_eval", KEY) is None
        assert cache.counters.corrupt == 1
        assert not path.exists()
        # A recompute-and-put cycle then works normally.
        cache.put_json("sigma_eval", KEY, {"accuracy": 0.5})
        assert cache.get_json("sigma_eval", KEY) == {"accuracy": 0.5}

    def test_checksum_tamper_detected(self, cache):
        path = cache.put_json("sigma_eval", KEY, {"accuracy": 0.5})
        envelope = json.loads(path.read_bytes())
        envelope["payload"] = json.dumps({"accuracy": 0.9})
        path.write_bytes(json.dumps(envelope).encode())
        assert cache.get_json("sigma_eval", KEY) is None
        assert cache.counters.corrupt == 1

    def test_version_mismatch_is_a_miss(self, cache):
        path = cache.put_json("sigma_eval", KEY, {"accuracy": 0.5})
        envelope = json.loads(path.read_bytes())
        envelope["version"] = STORE_VERSION + 1
        path.write_bytes(json.dumps(envelope).encode())
        assert cache.get_json("sigma_eval", KEY) is None


class TestArrayEntries:
    def test_roundtrip_bit_identical(self, cache, rng):
        arrays = {
            "sq_sums": rng.normal(size=(3, 8, 2)),
            "counts": np.arange(6, dtype=np.int64).reshape(3, 2),
        }
        cache.put_arrays("profile", KEY, arrays, meta={"layer": "conv1"})
        views = cache.get_arrays("profile", KEY)
        assert set(views) == {"sq_sums", "counts"}
        for name, original in arrays.items():
            assert views[name].dtype == original.dtype
            assert views[name].shape == original.shape
            np.testing.assert_array_equal(views[name], original)

    def test_views_are_read_only(self, cache, rng):
        cache.put_arrays("profile", KEY, {"x": rng.normal(size=4)})
        views = cache.get_arrays("profile", KEY)
        with pytest.raises(ValueError):
            views["x"][0] = 0.0

    def test_missing_key_is_miss(self, cache):
        assert cache.get_arrays("profile", KEY) is None
        assert cache.counters.misses == 1

    def test_truncated_entry_dropped(self, cache, rng):
        path = cache.put_arrays("profile", KEY, {"x": rng.normal(size=64)})
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert cache.get_arrays("profile", KEY) is None
        assert cache.counters.corrupt == 1
        assert not path.exists()

    def test_bad_magic_dropped(self, cache, rng):
        path = cache.put_arrays("profile", KEY, {"x": rng.normal(size=8)})
        blob = path.read_bytes()
        path.write_bytes(b"X" * len(ARRAY_MAGIC) + blob[len(ARRAY_MAGIC) :])
        assert cache.get_arrays("profile", KEY) is None
        assert cache.counters.corrupt == 1

    def test_flipped_data_byte_detected(self, cache, rng):
        path = cache.put_arrays("profile", KEY, {"x": rng.normal(size=32)})
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert cache.get_arrays("profile", KEY) is None
        assert cache.counters.corrupt == 1

    def test_empty_file_is_a_miss(self, cache, rng):
        path = cache.put_arrays("profile", KEY, {"x": rng.normal(size=8)})
        path.write_bytes(b"")
        assert cache.get_arrays("profile", KEY) is None

    def test_byte_counters(self, cache, rng):
        cache.put_arrays("profile", KEY, {"x": rng.normal(size=16)})
        assert cache.counters.bytes_written > 16 * 8
        cache.get_arrays("profile", KEY)
        assert cache.counters.bytes_read == cache.counters.bytes_written


class TestAtomicity:
    def test_no_temporaries_left_behind(self, cache, rng):
        cache.put_json("a", KEY, {"v": 1})
        cache.put_arrays("b", KEY, {"x": rng.normal(size=8)})
        leftovers = [
            p for p in entry_files(cache) if p.name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_overwrite_replaces(self, cache):
        cache.put_json("a", KEY, {"v": 1})
        cache.put_json("a", KEY, {"v": 2})
        assert cache.get_json("a", KEY) == {"v": 2}

    def test_sharded_layout(self, cache):
        path = cache.put_json("sigma_eval", KEY, 1)
        assert path.parent.name == KEY[:2]
        assert path.parent.parent.name == "sigma_eval"
        assert path.parent.parent.parent == cache.objects_dir


class TestDescribe:
    def test_mentions_traffic(self, cache):
        cache.put_json("a", KEY, 1)
        cache.get_json("a", KEY)
        cache.get_json("a", "ff" + "0" * 62)
        text = cache.describe()
        assert "1 hits" in text and "1 misses" in text


class TestAtomicWrite:
    def test_failed_replace_keeps_old_content_and_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "row.json"
        atomic_write(target, b"old")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.cache.store.os.replace", broken_replace)
        with pytest.raises(OSError, match="disk full"):
            atomic_write(target, b"new")
        assert target.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["row.json"]
