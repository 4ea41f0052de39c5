"""Unit tests for canonical cache keys."""

from __future__ import annotations

import pytest

from repro.cache.keys import cache_key, canonical_payload
from repro.core.parameters import MiningParameters
from repro.data.datasets import recommended_parameters


def params(**overrides):
    defaults = dict(
        evolving_rate=1.0, distance_threshold=2.0, max_attributes=3, min_support=5
    )
    defaults.update(overrides)
    return MiningParameters(**defaults)


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key("d", params()) == cache_key("d", params())

    def test_differs_by_dataset(self):
        assert cache_key("a", params()) != cache_key("b", params())

    def test_differs_by_any_parameter(self):
        base = cache_key("d", params())
        assert cache_key("d", params(min_support=6)) != base
        assert cache_key("d", params(evolving_rate=1.5)) != base
        assert cache_key("d", params(direction_aware=True)) != base
        assert cache_key("d", params(max_delay=1)) != base

    def test_per_attribute_rates_order_independent(self):
        a = params(evolving_rate_per_attribute={"x": 1.0, "y": 2.0})
        b = params(evolving_rate_per_attribute={"y": 2.0, "x": 1.0})
        assert cache_key("d", a) == cache_key("d", b)

    def test_key_is_hex_sha256(self):
        key = cache_key("d", params())
        assert len(key) == 64
        int(key, 16)  # parses as hex

    def test_empty_dataset_name_rejected(self):
        with pytest.raises(ValueError):
            cache_key("", params())

    def test_keys_are_pinned(self):
        """Stored results, ETags and stream state are addressed by these."""
        santander = recommended_parameters("santander")
        assert cache_key("santander", santander) == (
            "3a31e42ad727d0acb7f3beb51afc0972ed21dbecb09be6f484ebe5595f9675b2"
        )
        assert cache_key("china6", recommended_parameters("china6")) == (
            "ac701dff464cc157b529cd6b45c0b17458a5c0a2f818f8388ca5bf01c947e8bb"
        )
        delayed = santander.with_updates(direction_aware=True, max_delay=2)
        assert cache_key("santander", delayed) == (
            "a657417c0987c7952f25738cf6d84fe454c34397155940c496bde434fe4ae54d"
        )

    def test_payload_reconstructs_parameters(self):
        payload = canonical_payload("d", params(max_delay=2))
        assert payload["dataset"] == "d"
        assert MiningParameters.from_document(payload["parameters"]) == params(max_delay=2)
