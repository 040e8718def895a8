"""Tests for the crash-safe result cache (atomic writes, eviction)."""

import json
import os
import socket
import subprocess
import sys

import pytest

from repro.sim.cache import ResultCache


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("abc", {"x": 1, "y": [2, 3]})
        assert cache.load("abc") == {"x": 1, "y": [2, 3]}

    def test_missing_key_is_none(self, tmp_path):
        assert ResultCache(tmp_path).load("nothing") is None

    def test_missing_directory_is_a_miss_not_an_error(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.load("abc") is None

    def test_store_creates_directory(self, tmp_path):
        cache = ResultCache(tmp_path / "deep" / "cache")
        cache.store("abc", {"x": 1})
        assert cache.load("abc") == {"x": 1}


class TestAtomicity:
    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(5):
            cache.store(f"key{i}", {"i": i})
        leftovers = [p for p in tmp_path.iterdir() if p.suffix != ".json"]
        assert leftovers == []

    def test_overwrite_is_replace_not_append(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("abc", {"long": "x" * 4096})
        cache.store("abc", {"short": 1})
        # The file must be exactly the new payload, not a mix.
        assert json.loads(cache.path_for("abc").read_text()) == {"short": 1}

    def test_failed_serialization_leaves_cache_untouched(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("abc", {"good": 1})
        with pytest.raises(TypeError):
            cache.store("abc", {"bad": object()})
        assert cache.load("abc") == {"good": 1}
        leftovers = [p for p in tmp_path.iterdir() if p.suffix != ".json"]
        assert leftovers == []


class TestCorruptEviction:
    def test_truncated_json_is_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("abc", {"x": 1})
        full = cache.path_for("abc").read_text()
        cache.path_for("abc").write_text(full[: len(full) // 2])
        assert cache.load("abc") is None
        assert not cache.path_for("abc").exists()
        assert cache.evictions == 1

    def test_non_object_payload_is_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("abc").parent.mkdir(parents=True, exist_ok=True)
        cache.path_for("abc").write_text("[1, 2, 3]")
        assert cache.load("abc") is None
        assert not cache.path_for("abc").exists()

    def test_evicted_key_refills(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("abc").parent.mkdir(parents=True, exist_ok=True)
        cache.path_for("abc").write_text("{broken")
        assert cache.load("abc") is None
        cache.store("abc", {"x": 2})
        assert cache.load("abc") == {"x": 2}


class TestLeases:
    """The in-flight marker API (atomic create, TTL, stale reclaim)."""

    def test_first_claim_wins(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.lease("abc", "worker-1", ttl_s=60, now=100.0)
        assert cache.lease_path("abc").exists()

    def test_second_claim_loses_while_fresh(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.lease("abc", "worker-1", ttl_s=60, now=100.0)
        assert not cache.lease("abc", "worker-2", ttl_s=60, now=130.0)

    def test_lease_info_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.lease("abc", "worker-1", ttl_s=60, now=100.0)
        info = cache.lease_info("abc")
        assert info.owner == "worker-1"
        assert info.expires_at == 160.0
        assert not info.expired(159.9)
        assert info.expired(160.0)

    def test_expired_lease_is_reclaimed(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.lease("abc", "crashed", ttl_s=60, now=100.0)
        # Past the TTL another worker takes over.
        assert cache.lease("abc", "worker-2", ttl_s=60, now=161.0)
        assert cache.lease_info("abc").owner == "worker-2"
        assert cache.leases_reclaimed == 1

    def test_lease_of_exited_local_process_is_reclaimed(self, tmp_path):
        # A run killed mid-fill leaves its lease behind; the next one
        # on this host takes it over at once, not after the TTL.
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()  # exited and reaped
        cache = ResultCache(tmp_path)
        owner = f"{socket.gethostname()}:{dead.pid}:killed"
        assert cache.lease("abc", owner, ttl_s=300, now=100.0)
        assert cache.lease("abc", "worker-2", ttl_s=60, now=101.0)
        assert cache.lease_info("abc").owner == "worker-2"
        assert cache.leases_reclaimed == 1

    def test_lease_of_live_or_remote_holder_waits_for_ttl(self, tmp_path):
        cache = ResultCache(tmp_path)
        live = f"{socket.gethostname()}:{os.getpid()}:alive"
        assert cache.lease("abc", live, ttl_s=60, now=100.0)
        assert not cache.lease("abc", "worker-2", ttl_s=60, now=101.0)
        remote = "another-host.invalid:999999999:x"
        assert cache.lease("def", remote, ttl_s=60, now=100.0)
        assert not cache.lease("def", "worker-2", ttl_s=60, now=101.0)
        assert cache.leases_reclaimed == 0

    def test_release_by_owner(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.lease("abc", "worker-1", ttl_s=60, now=100.0)
        cache.release("abc", "worker-1")
        assert cache.lease_info("abc") is None
        assert cache.lease("abc", "worker-2", ttl_s=60, now=101.0)

    def test_release_by_stranger_is_ignored(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.lease("abc", "worker-1", ttl_s=60, now=100.0)
        cache.release("abc", "worker-2")
        assert cache.lease_info("abc").owner == "worker-1"

    def test_release_absent_lease_is_noop(self, tmp_path):
        ResultCache(tmp_path).release("abc", "worker-1")

    def test_corrupt_lease_file_treated_as_absent(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.lease_path("abc").parent.mkdir(parents=True, exist_ok=True)
        cache.lease_path("abc").write_text("{torn")
        assert cache.lease_info("abc") is None

    def test_lease_does_not_block_store_or_load(self, tmp_path):
        # Leases are advisory: the data path ignores them entirely.
        cache = ResultCache(tmp_path)
        cache.lease("abc", "worker-1", ttl_s=60, now=100.0)
        cache.store("abc", {"x": 1})
        assert cache.load("abc") == {"x": 1}

    def test_store_counter_counts_writes(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.stores == 0
        cache.store("abc", {"x": 1})
        cache.store("def", {"x": 2})
        assert cache.stores == 2
