"""Unit tests for the result cache (Section 3.3 behaviour)."""

from __future__ import annotations

import threading

import pytest

from repro.cache.cache import MEMO_CAPACITY, ResultCache
from repro.core.miner import MiningResult, MiscelaMiner
from repro.core.result_columns import result_to_columns
from repro.store.database import Database


@pytest.fixture
def cache() -> ResultCache:
    return ResultCache(Database())


class TestGetPut:
    def test_miss_then_hit(self, cache, tiny_dataset, tiny_params):
        assert cache.get("tiny", tiny_params) is None
        result = MiscelaMiner(tiny_params).mine(tiny_dataset)
        cache.put(result)
        cached = cache.get("tiny", tiny_params)
        assert cached is not None
        assert cached.from_cache
        assert {c.key() for c in cached.caps} == {c.key() for c in result.caps}

    def test_stats_track_hits_misses(self, cache, tiny_dataset, tiny_params):
        cache.get("tiny", tiny_params)
        result = MiscelaMiner(tiny_params).mine(tiny_dataset)
        cache.put(result)
        cache.get("tiny", tiny_params)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_different_params_different_entries(self, cache, tiny_dataset, tiny_params):
        r1 = MiscelaMiner(tiny_params).mine(tiny_dataset)
        p2 = tiny_params.with_updates(min_support=3)
        r2 = MiscelaMiner(p2).mine(tiny_dataset)
        cache.put(r1)
        cache.put(r2)
        assert len(cache) == 2
        assert cache.get("tiny", tiny_params).num_caps == 2
        assert cache.get("tiny", p2).num_caps == 1

    def test_put_same_key_replaces(self, cache, tiny_dataset, tiny_params):
        result = MiscelaMiner(tiny_params).mine(tiny_dataset)
        cache.put(result)
        cache.put(result)
        assert len(cache) == 1


class TestMineCached:
    def test_second_call_is_cache_hit(self, cache, tiny_dataset, tiny_params):
        first = cache.mine_cached(tiny_dataset, tiny_params)
        second = cache.mine_cached(tiny_dataset, tiny_params)
        assert not first.from_cache
        assert second.from_cache
        assert {c.key() for c in first.caps} == {c.key() for c in second.caps}

    def test_cached_result_equals_fresh(self, cache, tiny_dataset, tiny_params):
        fresh = MiscelaMiner(tiny_params).mine(tiny_dataset)
        cache.put(fresh)
        replayed = cache.mine_cached(tiny_dataset, tiny_params)
        assert [(c.key(), c.support, c.evolving_indices) for c in replayed.caps] == [
            (c.key(), c.support, c.evolving_indices) for c in fresh.caps
        ]


class TestInvalidation:
    def test_invalidate_dataset(self, cache, tiny_dataset, tiny_params):
        cache.put(MiscelaMiner(tiny_params).mine(tiny_dataset))
        cache.put(MiscelaMiner(tiny_params.with_updates(min_support=3)).mine(tiny_dataset))
        removed = cache.invalidate_dataset("tiny")
        assert removed == 2
        assert cache.get("tiny", tiny_params) is None
        assert cache.stats.invalidations == 2

    def test_invalidate_leaves_other_datasets(self, cache, tiny_dataset, tiny_params):
        result = MiscelaMiner(tiny_params).mine(tiny_dataset)
        cache.put(result)
        other = MiscelaMiner(tiny_params).mine(tiny_dataset.subset(["a", "b"], name="other"))
        cache.put(other)
        cache.invalidate_dataset("other")
        assert cache.get("tiny", tiny_params) is not None


def stored_results(cache, tiny_dataset, tiny_params, count: int) -> list:
    """``count`` distinct results (one per min_support) stored by a peer
    handle on ``cache``'s store, so ``cache`` has decoded none; their params."""
    mined = MiscelaMiner(tiny_params).mine(tiny_dataset)
    params = [tiny_params.with_updates(min_support=psi) for psi in range(1, count + 1)]
    peer = ResultCache(cache.database)
    for p in params:
        peer.put_encoded(result_to_columns(MiningResult("tiny", p, mined.caps)))
    return params


class TestDecodeMemo:
    def test_reads_share_one_decode_and_put_encoded_seeds(
        self, cache, tiny_dataset, tiny_params, decodes
    ):
        result = MiscelaMiner(tiny_params).mine(tiny_dataset)
        ResultCache(cache.database).put_encoded(result_to_columns(result))  # a peer
        assert decodes == []
        first = cache.get("tiny", tiny_params)
        document = cache.documents("tiny")[0]
        assert cache.decode(document) is first
        assert cache.mine_cached(tiny_dataset, tiny_params) is first
        assert len(decodes) == 1
        # This handle's own put_encoded seeds its memo: no decode at all.
        cache.put_encoded(result_to_columns(result))
        seeded = cache.get("tiny", tiny_params)
        assert seeded is not first and seeded.from_cache
        assert seeded.caps == result.caps and seeded.parameters == first.parameters
        assert len(decodes) == 1

    def test_replaced_document_decodes_again(
        self, cache, tiny_dataset, tiny_params, decodes
    ):
        columns = result_to_columns(MiscelaMiner(tiny_params).mine(tiny_dataset))
        cache.put_encoded(columns)
        first = cache.get("tiny", tiny_params)
        # A peer stores a new version of the same key.
        ResultCache(cache.database).put_encoded(columns)
        second = cache.get("tiny", tiny_params)
        assert second is not first
        assert len(decodes) == 1

    def test_put_seeds_what_decode_returns(
        self, cache, tiny_dataset, tiny_params, decodes
    ):
        """A seeded read cannot be told from a decoded one."""
        result = MiscelaMiner(tiny_params.with_updates(n_jobs=2)).mine(tiny_dataset)
        key = cache.put(result)
        seeded = cache.get("tiny", tiny_params)
        assert decodes == []
        decoded = MiningResult.from_document(cache.document(key)["result"])
        assert seeded is not result and seeded.caps is result.caps
        for field in ("dataset_name", "parameters", "caps", "evolving",
                      "adjacency", "elapsed_seconds", "from_cache"):
            assert getattr(seeded, field) == getattr(decoded, field), field
        assert seeded.from_cache and not result.from_cache
        assert result.evolving and seeded.evolving == {}
        # The next put of the key seeds the new stored version.
        cache.put(result)
        assert cache.get("tiny", tiny_params) is not seeded
        assert decodes == ["tiny"]

    def test_33rd_result_drops_oldest(self, cache, tiny_dataset, tiny_params):
        params = stored_results(cache, tiny_dataset, tiny_params, MEMO_CAPACITY + 1)
        decoded = [cache.get("tiny", p) for p in params[:MEMO_CAPACITY]]
        assert cache.stats.evictions == 0
        cache.get("tiny", params[MEMO_CAPACITY])
        assert cache.stats.evictions == 1
        assert cache.get("tiny", params[1]) is decoded[1]  # still memoized
        assert cache.get("tiny", params[0]) is not decoded[0]  # dropped
        assert cache.stats.evictions == 2
        assert len(cache) == MEMO_CAPACITY + 1  # the store keeps everything

    def test_memo_capacity_enforced(self, cache, tiny_dataset, tiny_params):
        params = stored_results(cache, tiny_dataset, tiny_params, MEMO_CAPACITY + 3)
        for i, p in enumerate(params):
            cache.get("tiny", p)
            assert len(cache._memo) == min(i + 1, MEMO_CAPACITY)
        assert cache.stats.evictions == 3
        assert list(cache._memo) == [d["key"] for d in cache.documents("tiny")][3:]

    def test_hit_refreshes_recency(self, cache, tiny_dataset, tiny_params):
        params = stored_results(cache, tiny_dataset, tiny_params, MEMO_CAPACITY + 1)
        decoded = [cache.get("tiny", p) for p in params[:MEMO_CAPACITY]]
        assert cache.get("tiny", params[0]) is decoded[0]  # now most recent
        cache.get("tiny", params[MEMO_CAPACITY])
        assert cache.get("tiny", params[0]) is decoded[0]
        assert cache.get("tiny", params[1]) is not decoded[1]

    def test_delete_and_invalidate_drop_decoded_results(
        self, cache, tiny_dataset, tiny_params
    ):
        params = stored_results(cache, tiny_dataset, tiny_params, 3)
        for p in params:
            cache.get("tiny", p)
        cache.delete_key(cache.documents("tiny")[0]["key"])
        assert len(cache._memo) == 2
        assert cache.invalidate_dataset("tiny") == 2
        assert len(cache._memo) == 0
        assert cache.stats.evictions == 0


class TestSharedStorePublish:
    def test_peer_publish_between_replace_and_insert_stores_one_document(
        self, tmp_path, tiny_dataset, tiny_params, monkeypatch
    ):
        """Two handles on one store publish the same key; the peer's write
        is started exactly between this handle's replace and insert."""
        path = tmp_path / "store.json"
        mine, peer = ResultCache(Database(path)), ResultCache(Database(path))
        result = MiscelaMiner(tiny_params).mine(tiny_dataset)
        collection = mine.database.collection("cap_results")
        original_insert = collection.insert_one
        peers: list[threading.Thread] = []

        def insert_after_peer(document):
            # The peer blocks while this handle holds the store's critical
            # section; the timeout only bounds how long we wait for it.
            peer_put = threading.Thread(target=peer.put, args=(result,))
            peer_put.start()
            peer_put.join(timeout=1.0)
            peers.append(peer_put)
            return original_insert(document)

        monkeypatch.setattr(collection, "insert_one", insert_after_peer)
        mine.put(result)
        for thread in peers:
            thread.join()
        assert len(peers) == 1
        for cache in (mine, peer):
            cache.database.refresh()
            assert len(cache.database.collection("cap_results").find()) == 1


class TestPersistenceAcrossRestart:
    def test_cache_survives_database_reload(self, tmp_path, tiny_dataset, tiny_params):
        path = tmp_path / "db.json"
        db = Database(path)
        cache = ResultCache(db)
        cache.put(MiscelaMiner(tiny_params).mine(tiny_dataset))

        cache2 = ResultCache(Database.open(path))
        cached = cache2.get("tiny", tiny_params)
        assert cached is not None
        assert cached.num_caps == 2
