"""Persistent store: atomicity, checksums, versioning, key canonicalization."""

import hashlib
import io
import json
import time

import pytest

from pretzelhomfly import ENGINE_VERSION
from pretzelhomfly.cache import (_READ_CHUNK, CACHE_ENV_VAR, HomflyCache,
                                 cache_key, resolve_cache_dir)
from pretzelhomfly.errors import CorruptStore
from pretzelhomfly.laurent import LaurentPoly, Monomial
from pretzelhomfly.pretzel import HomflyEngine, PretzelSpec


@pytest.fixture
def cache(tmp_path):
    return HomflyCache(tmp_path)


SAMPLE = LaurentPoly({(4, 0): -1, (2, 2): 1, (2, -2): 1})


class TestKeys:
    def test_genus2_sorted(self):
        assert cache_key((3, -3, 1), 1) == cache_key((1, 3, -3), 1)
        assert cache_key((3, -3, 1), 1)[0] == (-3, 1, 3)

    def test_higher_genus_raw_order(self):
        assert cache_key((3, 1, 1, 1), 1) != cache_key((1, 1, 1, 3), 1)

    def test_version_in_key(self):
        assert cache_key((1, 1, 1), 1)[2] == ENGINE_VERSION


class TestStore:
    def test_miss_on_empty(self, cache):
        assert cache.get(cache_key((1, 1, 1), 1)) is None

    def test_put_get_round_trip(self, cache, tmp_path):
        key = cache_key((1, 1, 1), 1)
        cache.put(key, SAMPLE)
        assert cache.get(key) == SAMPLE
        (path,) = tmp_path.glob("*.json")
        assert set(json.loads(path.read_text())) == {
            "key", "version", "poly", "checksum", "timestamp"}

    def test_reads_entry_with_duration(self, cache, tmp_path):
        # entries written before the field was dropped still read
        key = cache_key((1, 1, 1), 1)
        cache.put(key, SAMPLE)
        (path,) = tmp_path.glob("*.json")
        obj = json.loads(path.read_text())
        obj["duration"] = 0.5
        path.write_text(json.dumps(obj))
        assert cache.get(key) == SAMPLE

    def test_stale_version_misses(self, cache, tmp_path):
        key = cache_key((1, 1, 1), 1)
        cache.put(key, SAMPLE)
        (path,) = tmp_path.glob("*.json")
        obj = json.loads(path.read_text())
        obj["version"] = "0-stale"
        path.write_text(json.dumps(obj))
        assert cache.get(key) is None

    def test_checksum_corruption_detected(self, cache, tmp_path):
        key = cache_key((1, 1, 1), 1)
        cache.put(key, SAMPLE)
        (path,) = tmp_path.glob("*.json")
        obj = json.loads(path.read_text())
        obj["poly"]["terms"][0][2] = "999"
        path.write_text(json.dumps(obj))
        with pytest.raises(CorruptStore):
            cache.get(key)

    def test_directory_at_entry_path_is_corrupt(self, cache, tmp_path):
        key = cache_key((1, 1, 1), 1)
        cache.put(key, SAMPLE)
        (path,) = tmp_path.glob("*.json")
        path.unlink()
        path.mkdir()
        with pytest.raises(CorruptStore):
            cache.get(key)
        with pytest.raises(CorruptStore):
            cache.clear()
        assert path.is_dir()

    @pytest.mark.parametrize("cut", [lambda data: data[:len(data) // 2],
                                     lambda data: b"",
                                     lambda data: b"\xff" + data[1:]],
                             ids=["half", "empty", "not-utf8"])
    def test_truncated_or_undecodable_entry_is_corrupt(self, cache, tmp_path,
                                                      cut):
        key = cache_key((1, 1, 1), 1)
        cache.put(key, SAMPLE)
        (path,) = tmp_path.glob("*.json")
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(CorruptStore):
            cache.get(key)

    def test_reads_entry_larger_than_one_read(self, cache, tmp_path):
        big = LaurentPoly({(i, j): 10 ** 30 + i * j
                           for i in range(40) for j in range(80)})
        key = cache_key((1, 1, 1), 1)
        cache.put(key, big)
        (path,) = tmp_path.glob("*.json")
        assert path.stat().st_size > 2 * _READ_CHUNK
        assert cache.get(key) == big

    def test_no_temp_files_left(self, cache, tmp_path):
        cache.put(cache_key((1, 1, 1), 1), SAMPLE)
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_overwrite_identical_is_noop_semantically(self, cache):
        key = cache_key((1, 1, 1), 1)
        cache.put(key, SAMPLE)
        cache.put(key, SAMPLE)
        assert cache.get(key) == SAMPLE

    def test_entries_and_clear(self, cache):
        cache.put(cache_key((1, 1, 1), 1), SAMPLE)
        cache.put(cache_key((1, 1, 3), 1), SAMPLE)
        assert len(list(cache.entries())) == 2
        assert cache.clear() == 2
        assert not list(cache.entries())


class TestLayout:
    def test_put_writes_one_flat_file(self, cache, tmp_path):
        cache.put(cache_key((1, 1, 1), 1), SAMPLE)
        blob = json.dumps([[1, 1, 1], 1, ENGINE_VERSION])
        name = hashlib.sha256(blob.encode()).hexdigest() + ".json"
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert (tmp_path / name).is_file()

    def test_text_equals_json_dump(self, cache, tmp_path, monkeypatch):
        # put writes byte for byte what json.dump writes for the entry
        monkeypatch.setattr(time, "time", lambda: 1760848136.6789012)
        cache.put(cache_key((3, 1, -3), 2), SAMPLE)
        body = SAMPLE.to_json()
        obj = {"key": {"params": [-3, 1, 3], "r": 2},
               "version": ENGINE_VERSION,
               "poly": body,
               "checksum": hashlib.sha256(
                   json.dumps(body, sort_keys=True).encode()).hexdigest(),
               "timestamp": 1760848136.6789012}
        fh = io.StringIO()
        json.dump(obj, fh)
        (path,) = tmp_path.glob("*.json")
        assert path.read_text(encoding="utf-8") == fh.getvalue()

    def test_reads_entry_as_json_dump_writes_it(self, cache):
        # an entry written by json.dump, as every earlier put wrote it
        key = cache_key((3, 1, -3), 2)
        body = SAMPLE.to_json()
        obj = {"key": {"params": [-3, 1, 3], "r": 2},
               "version": ENGINE_VERSION,
               "poly": body,
               "checksum": hashlib.sha256(
                   json.dumps(body, sort_keys=True).encode()).hexdigest(),
               "timestamp": 1760848136.6789012}
        with open(cache._path(key), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        assert cache.get(key) == SAMPLE


class TestEngineIntegration:
    def test_cache_hit_skips_recompute(self, tmp_path, monkeypatch):
        eng1 = HomflyEngine(cache=HomflyCache(tmp_path))
        first = eng1.homfly(PretzelSpec((1, 1, 3), 1))
        eng2 = HomflyEngine(cache=HomflyCache(tmp_path))
        calls = []
        monkeypatch.setattr(HomflyEngine, "homfly_rational",
                            lambda self, spec: calls.append(spec))
        assert eng2.homfly(PretzelSpec((1, 1, 3), 1)) == first
        assert calls == []  # a warm engine assembles nothing

    def test_shifted_entry_is_corrupt(self, tmp_path):
        # checksummed and well formed, but off the canonical framing
        spec = PretzelSpec((1, 1, 3), 1)
        shifted = HomflyEngine().homfly(spec).shift(Monomial(-1, 2, -3))
        HomflyCache(tmp_path).put(cache_key(spec.params, 1), shifted)
        with pytest.raises(CorruptStore):
            HomflyEngine(cache=HomflyCache(tmp_path)).homfly(spec)

    def test_cached_equals_uncached(self, tmp_path):
        cached = HomflyEngine(cache=HomflyCache(tmp_path))
        plain = HomflyEngine()
        for params, r in [((1, 1, 1), 1), ((1, 1, 3), 1), ((1, 1, 1), 2)]:
            a = cached.homfly(PretzelSpec(params, r))
            b = plain.homfly(PretzelSpec(params, r))
            assert json.dumps(a.to_json()) == json.dumps(b.to_json())

    def test_permutations_share_entry(self, tmp_path):
        eng = HomflyEngine(cache=HomflyCache(tmp_path))
        eng.homfly(PretzelSpec((3, 1, -3), 1))
        files = list(tmp_path.glob("*.json"))
        eng.homfly(PretzelSpec((-3, 3, 1), 1))
        assert list(tmp_path.glob("*.json")) == files


class TestResolveDir:
    def test_flag_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
        assert resolve_cache_dir(str(tmp_path / "flag")).name == "flag"

    def test_env_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
        assert resolve_cache_dir(None).name == "env"

    def test_none_without_config(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert resolve_cache_dir(None) is None
