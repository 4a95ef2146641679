"""Tests for the LRU result cache and the pagination cursor codec."""

import pytest

from repro.errors import ProtocolError
from repro.service import ResultCache, decode_cursor, encode_cursor


class TestResultCache:
    def test_get_put_and_stats(self):
        cache = ResultCache(capacity=4)
        key = ("oecd", 1, "{}")
        assert cache.get(key) is None
        cache.put(key, "value")
        assert cache.get(key) == "value"
        info = cache.info()
        assert info["bytes"] > 0
        del info["bytes"]
        assert info == {"capacity": 4, "size": 1, "hits": 1,
                        "misses": 1, "evictions": 0,
                        "invalidations": 0}

    def test_peek_counts_a_hit_and_never_a_miss(self):
        cache = ResultCache(capacity=2)
        key, other = ("a", 1, 0, "q1"), ("b", 1, 0, "q2")
        assert cache.peek(key) is None          # left for get() to count
        assert cache.get(key) is None
        cache.put(key, "value")
        cache.put(other, "other")
        assert cache.peek(key) == "value"       # a hit like any other ...
        info = cache.info()
        assert (info["hits"], info["misses"]) == (1, 1)
        assert cache.keys() == [other, key]     # ... recency included

    def test_byte_accounting_tracks_inserts_and_evictions(self):
        cache = ResultCache(capacity=2)
        cache.put(("a", 1, "q1"), {"x": "payload-one"})
        one = cache.info()["bytes"]
        assert one > 0
        cache.put(("b", 1, "q2"), {"x": "payload-two"})
        two = cache.info()["bytes"]
        assert two > one
        cache.put(("c", 1, "q3"), {"x": "payload-three"})  # evicts q1
        assert cache.info()["size"] == 2
        cache.invalidate()
        assert cache.info()["bytes"] == 0

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put(("a", 1, "q1"), 1)
        cache.put(("b", 1, "q2"), 2)
        cache.get(("a", 1, "q1"))  # refresh "a": "b" becomes LRU
        cache.put(("c", 1, "q3"), 3)
        assert ("a", 1, "q1") in cache
        assert ("b", 1, "q2") not in cache
        assert ("c", 1, "q3") in cache
        assert cache.info()["evictions"] == 1

    def test_put_existing_key_updates_value(self):
        cache = ResultCache(capacity=2)
        cache.put(("a", 1, "q"), 1)
        cache.put(("a", 1, "q"), 2)
        assert len(cache) == 1
        assert cache.get(("a", 1, "q")) == 2

    def test_invalidate_by_dataset(self):
        cache = ResultCache(capacity=8)
        cache.put(("a", 1, "q1"), 1)
        cache.put(("a", 2, "q1"), 2)
        cache.put(("b", 1, "q1"), 3)
        assert cache.invalidate("a") == 2
        assert len(cache) == 1
        assert ("b", 1, "q1") in cache
        assert cache.invalidate() == 1
        assert len(cache) == 0

    def test_invalidate_counts_as_evictions(self):
        # info()["evictions"] must account for every removal, whether it
        # came from LRU pressure or an explicit invalidate call.
        cache = ResultCache(capacity=2)
        cache.put(("a", 1, "q1"), 1)
        cache.put(("a", 1, "q2"), 2)
        cache.put(("a", 1, "q3"), 3)  # LRU-evicts q1
        assert cache.invalidate("a") == 2
        info = cache.info()
        assert info["evictions"] == 3
        assert info["invalidations"] == 2
        assert info["size"] == 0

    def test_version_in_key_separates_generations(self):
        cache = ResultCache(capacity=8)
        cache.put(("a", 1, "q"), "old")
        assert cache.get(("a", 2, "q")) is None  # new version: unreachable
        assert cache.get(("a", 1, "q")) == "old"

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


class TestCursorCodec:
    def test_round_trip(self):
        for offset in (0, 1, 5, 10_000):
            assert decode_cursor(encode_cursor(offset)) == offset

    def test_none_means_first_page(self):
        assert decode_cursor(None) == 0

    def test_tokens_are_opaque_ascii(self):
        token = encode_cursor(7)
        assert isinstance(token, str)
        assert token.isascii()
        assert "7" not in token or token != "7"

    def test_negative_offset_rejected(self):
        with pytest.raises(ProtocolError):
            encode_cursor(-1)

    def test_malformed_tokens_rejected(self):
        for bad in ("garbage", "AAAA", encode_cursor(1)[:-4]):
            with pytest.raises(ProtocolError):
                decode_cursor(bad)
