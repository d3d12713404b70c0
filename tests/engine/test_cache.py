"""Unit tests for the content-addressed result cache."""

from __future__ import annotations

import io
import json
import os
from pathlib import Path

import pytest

from repro.engine.cache import ResultCache, cache_key, default_cache_dir
from repro.engine.job import AlgorithmSpec

FP_A = "a" * 64
FP_B = "b" * 64


class TestCacheKey:
    def test_deterministic(self):
        spec = AlgorithmSpec.make("sa", size_factor=4)
        assert cache_key(FP_A, spec, 7) == cache_key(FP_A, spec, 7)

    def test_sensitive_to_every_component(self):
        spec = AlgorithmSpec.make("sa", size_factor=4)
        base = cache_key(FP_A, spec, 7)
        assert cache_key(FP_B, spec, 7) != base
        assert cache_key(FP_A, AlgorithmSpec.make("sa", size_factor=8), 7) != base
        assert cache_key(FP_A, AlgorithmSpec.make("kl"), 7) != base
        assert cache_key(FP_A, spec, 8) != base

    def test_param_order_does_not_matter(self):
        a = AlgorithmSpec.make("x", p=1, q=2)
        b = AlgorithmSpec.make("x", q=2, p=1)
        assert cache_key(FP_A, a, 0) == cache_key(FP_A, b, 0)


class TestResultCache:
    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None

    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(FP_A, AlgorithmSpec.make("kl"), 1)
        payload = {"status": "ok", "cut": 4, "side0": ["int:0"], "seconds": 0.5}
        cache.put(key, payload)
        assert cache.get(key) == payload
        assert len(cache) == 1

    def test_sharded_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(FP_A, AlgorithmSpec.make("kl"), 1)
        cache.put(key, {"cut": 1})
        path = cache.path_for(key)
        assert path.exists()
        assert path.parent.name == key[:2]
        assert path.name == f"{key}.json"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(FP_A, AlgorithmSpec.make("kl"), 1)
        cache.put(key, {"cut": 1})
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_default_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"


class TestPut:
    PAYLOAD = {
        "status": "ok",
        "cut": 14,
        "side0": ["int:0", "int:3", "str:é"],
        "seconds": 0.21,
        "attempts": 1,
        "counters": {"passes": 4, "pass_gains": [9, 3, 0], "swaps": 12},
    }

    def test_entry_bytes_equal_json_dump(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(FP_A, AlgorithmSpec.make("kl"), 1)
        cache.put(key, self.PAYLOAD)
        stream = io.StringIO()
        json.dump(self.PAYLOAD, stream, sort_keys=True)
        assert cache.path_for(key).read_bytes() == stream.getvalue().encode("utf-8")

    def test_shard_directory_is_made_once(self, tmp_path, monkeypatch):
        made = []
        mkdir = Path.mkdir
        monkeypatch.setattr(
            Path, "mkdir", lambda self, *a, **k: made.append(self) or mkdir(self, *a, **k)
        )
        cache = ResultCache(tmp_path)
        for seed in range(40):  # 40 keys over 256 shards: some share one
            cache.put(cache_key(FP_A, AlgorithmSpec.make("kl"), seed), {"cut": seed})
        shards = {path.parent for path in cache.entries()}
        assert len(cache) == 40
        assert sorted(made) == sorted(shards)

    @pytest.mark.parametrize("stage", ["write", "replace"])
    def test_failed_put_leaves_no_temp_file(self, tmp_path, monkeypatch, stage):
        cache = ResultCache(tmp_path)
        key = cache_key(FP_A, AlgorithmSpec.make("kl"), 1)
        cache.put(cache_key(FP_A, AlgorithmSpec.make("kl"), 2), {"cut": 2})

        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        if stage == "write":
            write_text = Path.write_text

            def partial_write(self, text, *args, **kwargs):
                write_text(self, text[:3], *args, **kwargs)
                full_disk()

            monkeypatch.setattr(Path, "write_text", partial_write)
        else:
            monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(OSError, match="No space"):
            cache.put(key, {"cut": 1})
        leftovers = [p.name for p in tmp_path.rglob("*") if ".tmp" in p.name]
        assert leftovers == []
        assert cache.get(key) is None and len(cache) == 1
