"""Golden CAP digests: the mined documents and cache keys for fixed seeds.

Each case pins the sha256 of ``json.dumps([cap.to_document() ...],
sort_keys=True)`` and of the ``cache_key`` its result is stored under.  The
digests were recorded from the numpy word-array bitmaps; any change to the
step-3/4 representation must reproduce them byte for byte.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cache.keys import cache_key
from repro.core.miner import MiscelaMiner
from repro.core.streaming import StreamingMiner
from repro.data.datasets import recommended_parameters
from repro.data.synthetic import generate_china6, generate_santander


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(dataset_name, params, caps) -> tuple[int, str, str]:
    documents = json.dumps([cap.to_document() for cap in caps], sort_keys=True)
    return len(caps), _sha(documents), _sha(cache_key(dataset_name, params))


def _china6_case(**updates):
    dataset = generate_china6(seed=1, steps=480)
    params = recommended_parameters("china6").with_updates(**updates)
    return dataset, params


def _santander_case(**updates):
    dataset = generate_santander(seed=1, steps=2016)
    params = recommended_parameters("santander").with_updates(**updates)
    return dataset, params


GOLDEN = {
    "china6-simultaneous": (
        lambda: _china6_case(),
        (
            2801,
            "d99fa1d86ab1d5afef62947cccbb882f2ffd1e858a2e9abdf20f9f47146765c2",
            "96c73bfa450d58781c06cfcb5043de854e87e72e6ab86029b1e8ef19386ce869",
        ),
    ),
    "china6-direction-aware": (
        lambda: _china6_case(direction_aware=True),
        (
            2801,
            "d99fa1d86ab1d5afef62947cccbb882f2ffd1e858a2e9abdf20f9f47146765c2",
            "d23e1f0dd2b7ed863cd55a214d23b48414f2f3e6e964ff5c5006bc4328b46069",
        ),
    ),
    "china6-delayed-2": (
        lambda: _china6_case(max_delay=2),
        (
            2801,
            "8739649b3fca8f19d37b8ffde062bf748c530524172bf30f91114bdfeccec58b",
            "a9ff788a39c0760080ca894e828e7d77c4a6c5459fdb5ec590542c36f6f1dcce",
        ),
    ),
    # china6's stations all move together, so direction-aware and delayed
    # mining also get a santander case where they change the result.
    "santander-direction-aware": (
        lambda: _santander_case(direction_aware=True),
        (
            158,
            "9481cd149dc3af181d183ccfb30144681a1404cc837c4548743f93b6c7ec9378",
            "7775148918bc813e64848b5eeabd91b9675c7c19c645ac53c4f4a6121f957653",
        ),
    ),
    "santander-delayed-2": (
        lambda: _santander_case(max_delay=2),
        (
            240,
            "0442c091c69fecc7d3211e7e76722f82b9881d42dd137b8d4ef97c3ade9355af",
            "f1af9d3b24c69e3b2a321708792d63d72cdf382b87c578bbdff08783ab7ac14a",
        ),
    ),
    "santander-simultaneous": (
        _santander_case,
        (
            213,
            "4714436a9d8d743f5d934e1ef91caa09f12bc360e841c7eeda33c22817d2d6e1",
            "ad6e87437ef375f5a5ed9357c67b35d588f3f3f82c9daebcc30e49e106d99e9a",
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_batch_mine_matches_golden(case):
    build, expected = GOLDEN[case]
    dataset, params = build()
    caps = MiscelaMiner(params).mine(dataset).caps
    assert _digests(dataset.name, params, caps) == expected


STREAM_PREFIX, STREAM_BATCH = 240, 6
STREAM_GOLDEN = (
    143,
    "c776b1c2dd3372f45b8778c2542d726dd5238e15156a896067fdf0db12b5d663",
    "ad6e87437ef375f5a5ed9357c67b35d588f3f3f82c9daebcc30e49e106d99e9a",
)


def test_streaming_prefix_plus_three_batches_matches_golden():
    full = generate_santander(
        seed=1, steps=STREAM_PREFIX + 3 * STREAM_BATCH, neighbourhoods=12
    )
    params = recommended_parameters("santander")
    prefix = full.slice_time(
        full.timeline[0], full.timeline[STREAM_PREFIX], name=full.name
    )
    miner = StreamingMiner(params, prefix)
    for epoch in range(3):
        lo = STREAM_PREFIX + epoch * STREAM_BATCH
        hi = lo + STREAM_BATCH
        miner.extend(
            full.timeline[lo:hi],
            {sid: full.values(sid)[lo:hi] for sid in full.sensor_ids},
        )
    caps = miner.mine().caps
    assert _digests(full.name, params, caps) == STREAM_GOLDEN


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_pooled_mine_matches_golden(monkeypatch, start_method):
    """Workers get the bitmaps inherited (fork) or pickled (spawn): same bytes."""
    import multiprocessing

    from repro.core import parallel

    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} is not available on this platform")
    monkeypatch.setattr(
        parallel, "_pool_context", lambda: multiprocessing.get_context(start_method)
    )
    build, (count, documents, _key) = GOLDEN["china6-delayed-2"]
    dataset, params = build()
    params = params.with_updates(n_jobs=2)
    caps = MiscelaMiner(params).mine(dataset).caps
    assert _digests(dataset.name, params, caps)[:2] == (count, documents)
