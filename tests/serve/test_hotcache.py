"""The adaptive in-memory hot tier: LRU, ghost adaptation, invalidation."""

import asyncio
import json

from repro.serve.app import ServeApp, ServeConfig
from repro.serve.hotcache import ADAPT_INTERVAL, HotCache
from repro.serve.http import HttpRequest


def get(path, query=None):
    return HttpRequest(method="GET", path=path, query=query or {}, headers={})


def make_app(**overrides):
    config = dict(jobs=0, max_inflight=16)
    config.update(overrides)
    return ServeApp(ServeConfig(**config))


def handle(app, request):
    return asyncio.run(app.handle(request))


def fill(cache, count, size=100, prefix="d"):
    for i in range(count):
        cache.put(f"{prefix}{i:04d}", b"x" * size)


class TestHotCacheBasics:
    def test_get_put_roundtrip(self):
        cache = HotCache(4096)
        cache.put("abc", b"body")
        assert cache.get("abc") == b"body"
        assert cache.hits == 1 and cache.misses == 0
        assert len(cache) == 1 and cache.size_bytes == 4

    def test_miss_counts(self):
        cache = HotCache(4096)
        assert cache.get("nope") is None
        assert cache.misses == 1

    def test_overwrite_replaces_bytes_and_size(self):
        cache = HotCache(4096)
        cache.put("abc", b"x" * 100)
        cache.put("abc", b"y" * 10)
        assert cache.get("abc") == b"y" * 10
        assert cache.size_bytes == 10
        assert len(cache) == 1

    def test_lru_eviction_order(self):
        cache = HotCache(4096)
        cache.target_bytes = 250  # room for two 100-byte entries
        fill(cache, 2)
        assert cache.get("d0000") == b"x" * 100  # refresh d0000
        cache.put("d0002", b"x" * 100)  # evicts d0001, the LRU
        assert "d0001" not in cache
        assert "d0000" in cache and "d0002" in cache
        assert cache.evictions == 1

    def test_capacity_zero_disables(self):
        cache = HotCache(0)
        cache.put("abc", b"body")
        assert cache.get("abc") is None
        assert len(cache) == 0

    def test_oversized_body_not_admitted(self):
        cache = HotCache(64)
        cache.put("abc", b"x" * 65)
        assert "abc" not in cache

    def test_invalidate_removes_both_segments(self):
        cache = HotCache(4096)
        cache.target_bytes = 150
        fill(cache, 2)  # d0000 evicted to ghost
        assert cache._ghost  # sanity: something on the ghost list
        cache.invalidate("d0001")
        cache.invalidate("d0000")
        assert "d0001" not in cache
        assert cache.get("d0000") is None
        assert cache.ghost_hits == 0  # invalidation left no ghost trace

    def test_snapshot_shape(self):
        snapshot = HotCache(4096).snapshot()
        for field in (
            "entries",
            "bytes",
            "target_bytes",
            "capacity_bytes",
            "ghost_entries",
            "hits",
            "misses",
            "ghost_hits",
            "evictions",
            "resizes",
        ):
            assert field in snapshot


class TestGhostAdaptation:
    def test_evicted_entry_lands_on_ghost_list(self):
        cache = HotCache(4096)
        cache.target_bytes = 150
        fill(cache, 2)
        assert "d0000" not in cache
        assert cache.get("d0000") is None
        assert cache.ghost_hits == 1

    def test_ghost_hit_grows_target(self):
        cache = HotCache(4096)
        cache.target_bytes = 150
        fill(cache, 2)  # d0000 evicted (100 bytes) to ghost
        before = cache.target_bytes
        cache.get("d0000")  # re-reference shortly after eviction
        assert cache.target_bytes == before + 100
        assert cache.resizes == 1

    def test_growth_capped_at_capacity(self):
        cache = HotCache(256)
        cache.target_bytes = 150
        fill(cache, 2)
        for _ in range(5):
            cache.get("d0000")  # only the first is a ghost hit
        assert cache.target_bytes <= cache.capacity_bytes

    def test_promotion_completes_on_reput(self):
        cache = HotCache(4096)
        cache.target_bytes = 150
        fill(cache, 2)
        cache.get("d0000")  # ghost hit: target grew to 250
        cache.put("d0000", b"x" * 100)  # the caller re-serves and re-puts
        # both entries now fit under the grown target
        assert "d0000" in cache and "d0001" in cache

    def test_quiet_window_decays_target(self):
        cache = HotCache(4096)
        cache.put("d0", b"x")
        grown = cache.target_bytes
        for _ in range(ADAPT_INTERVAL):
            cache.get("d0")  # hits only: no ghost evidence
        assert cache.target_bytes < grown
        assert cache.resizes >= 1

    def test_decay_floors_at_min_target(self):
        cache = HotCache(4096)
        cache.put("d0", b"x")
        for _ in range(ADAPT_INTERVAL * 50):
            cache.get("d0")
        assert cache.target_bytes == cache.min_target_bytes

    def test_ghost_list_bounded(self):
        cache = HotCache(1 << 20, ghost_entries=4)
        cache.target_bytes = 150
        fill(cache, 50)
        assert len(cache._ghost) <= 4


class TestAppMemoryTier:
    def test_memory_hit_bytes_identical_to_store_hit(self):
        store_app = make_app(hot_bytes=0)
        hot_app = make_app()
        computed = handle(hot_app, get("/v1/run/fig1"))
        assert computed.headers["X-Repro-Served-From"] == "computed"
        store = handle(store_app, get("/v1/run/fig1"))
        assert store.headers["X-Repro-Served-From"] == "store"
        memory = handle(hot_app, get("/v1/run/fig1"))
        assert memory.headers["X-Repro-Served-From"] == "memory"
        assert memory.body == store.body == computed.body
        assert (
            memory.headers["X-Repro-Cache-Digest"]
            == store.headers["X-Repro-Cache-Digest"]
        )

    def test_memory_hit_skips_fingerprint_and_store(self, monkeypatch):
        app = make_app()
        first = handle(app, get("/v1/run/fig1"))
        assert first.status == 200

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("slow path touched on a memory hit")

        monkeypatch.setattr("repro.serve.app.cache_key_for", boom)
        monkeypatch.setattr(app.cache, "get", boom)
        memory = handle(app, get("/v1/run/fig1"))
        assert memory.status == 200
        assert memory.headers["X-Repro-Served-From"] == "memory"
        assert memory.body == first.body

    def test_store_hit_populates_hot_tier(self):
        app = make_app()
        cold = make_app(hot_bytes=0)
        handle(cold, get("/v1/run/fig1"))  # compute into the shared store
        first = handle(app, get("/v1/run/fig1"))
        assert first.headers["X-Repro-Served-From"] == "store"
        second = handle(app, get("/v1/run/fig1"))
        assert second.headers["X-Repro-Served-From"] == "memory"
        assert second.body == first.body

    def test_digest_change_invalidates_memory_hits(self, monkeypatch):
        from repro.cache import fingerprint
        from repro.cache.store import CacheKey, cache_key_for

        app = make_app()
        first = handle(app, get("/v1/run/fig1"))
        assert handle(app, get("/v1/run/fig1")).headers[
            "X-Repro-Served-From"
        ] == "memory"

        # Simulate a code edit: the key's digest changes, and (as the
        # fingerprint module documents for mutate-and-refingerprint
        # flows) the fingerprint memos are cleared.
        real_key = cache_key_for("fig1", True, 0)
        edited = CacheKey(
            experiment_id="fig1",
            quick=True,
            seed=0,
            fingerprint="0" * 64,
        )

        def edited_key_for(experiment_id, quick, seed, store=None):
            return edited

        monkeypatch.setattr("repro.serve.app.cache_key_for", edited_key_for)
        monkeypatch.setattr("repro.cache.store.cache_key_for", edited_key_for)
        fingerprint.clear_fingerprint_caches()

        after = handle(app, get("/v1/run/fig1"))
        # The hint generation moved: the request went back through the
        # fingerprinter, derived the new digest, missed the hot tier
        # and the store, and recomputed.
        assert after.headers["X-Repro-Served-From"] == "computed"
        assert after.headers["X-Repro-Cache-Digest"] == edited.digest
        assert after.headers["X-Repro-Cache-Digest"] != real_key.digest
        # the same deterministic code ran: identical payload modulo the
        # recorded compute time of the fresh run
        before_payload = json.loads(first.body)
        after_payload = json.loads(after.body)
        for payload in (before_payload, after_payload):
            payload.pop("saved_wall_time_s", None)
            payload.pop("wall_time_s", None)
        assert after_payload == before_payload
        # The old entry may linger in the LRU (content-addressed, so it
        # is merely unreachable, not wrong) — repeats are now served
        # from memory under the *new* digest.
        repeat = handle(app, get("/v1/run/fig1"))
        assert repeat.headers["X-Repro-Served-From"] == "memory"
        assert repeat.headers["X-Repro-Cache-Digest"] == edited.digest

    def test_generation_bump_alone_keeps_serving_correctly(self):
        from repro.cache import fingerprint

        app = make_app()
        handle(app, get("/v1/run/fig1"))
        fingerprint.clear_fingerprint_caches()
        # No code change: the re-derived digest matches, the hot entry
        # is found again under the same digest, service continues.
        response = handle(app, get("/v1/run/fig1"))
        assert response.status == 200
        assert response.headers["X-Repro-Served-From"] == "memory"
