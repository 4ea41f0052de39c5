"""Unit tests for the miner facades and MiningResult."""

from __future__ import annotations

import pytest

from repro.core.miner import MiningResult, MiscelaMiner, NaiveMiner
from repro.core.parameters import MiningParameters
from repro.core.result_columns import result_to_columns


class TestMiscelaMiner:
    def test_mine_returns_result_with_intermediates(self, tiny_dataset, tiny_params):
        result = MiscelaMiner(tiny_params).mine(tiny_dataset)
        assert result.dataset_name == "tiny"
        assert result.parameters == tiny_params
        assert result.num_caps == 2
        assert set(result.evolving) == {"a", "b", "c", "d"}
        assert set(result.adjacency) == {"a", "b", "c", "d"}
        assert result.elapsed_seconds > 0
        assert not result.from_cache

    def test_caps_sorted_by_support(self, tiny_dataset, tiny_params):
        result = MiscelaMiner(tiny_params).mine(tiny_dataset)
        supports = [cap.support for cap in result.caps]
        assert supports == sorted(supports, reverse=True)

    def test_components(self, tiny_dataset, tiny_params):
        comps = MiscelaMiner(tiny_params).components(tiny_dataset)
        assert sorted(sorted(c) for c in comps) == [["a", "b"], ["c", "d"]]


class TestMiningResult:
    @pytest.fixture
    def result(self, tiny_dataset, tiny_params):
        return MiscelaMiner(tiny_params).mine(tiny_dataset)

    def test_caps_containing(self, result):
        assert {cap.key() for cap in result.caps_containing("a")} == {("a", "b")}
        assert result.caps_containing("ghost") == []

    def test_correlated_sensors_click_interaction(self, result):
        assert result.correlated_sensors("a") == {"b"}
        assert result.correlated_sensors("c") == {"d"}

    def test_document_round_trip(self, result):
        doc = result_to_columns(result)  # the stored layout
        restored = MiningResult.from_document(doc)
        assert restored.dataset_name == result.dataset_name
        assert restored.parameters == result.parameters
        assert {c.key() for c in restored.caps} == {c.key() for c in result.caps}
        assert restored.from_cache  # replayed results are flagged

    def test_document_json_serialisable(self, result):
        import json

        json.dumps(result.to_document())
