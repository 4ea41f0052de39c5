"""The columnar stored result layout (``"encoding": 2``) round-trips exactly.

``ResultCache.put`` stores a result as base64 columns; decoding it must give
back CAPs whose ``to_document()`` equals the original's byte for byte,
whatever the CAPs hold: no CAPs, a support without indices, zero and
non-zero delays, horizons past the ``<u2`` range, non-ASCII names.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.cache import ResultCache
from repro.cache.keys import cache_key
from repro.core.miner import MiningResult, MiscelaMiner
from repro.core.result_columns import ResultTable, result_to_columns
from repro.core.types import CAP
from repro.data.datasets import recommended_parameters
from repro.store import Database
from tests.core.test_golden_caps import GOLDEN, _digests

PARAMS = recommended_parameters("santander")


def cap_bytes(caps: list[CAP]) -> bytes:
    return json.dumps([cap.to_document() for cap in caps], ensure_ascii=False).encode()


def stored_and_reopened(result: MiningResult, directory: Path) -> tuple[dict, MiningResult]:
    """``result`` put into a WAL store, then read back through a fresh handle."""
    path = directory / "store.json"
    key = ResultCache(Database(path)).put(result)
    cache = ResultCache(Database(path))
    document = cache.document(key)
    return document, cache.decode(document)


def assert_round_trips(result: MiningResult) -> dict:
    with tempfile.TemporaryDirectory() as directory:
        document, decoded = stored_and_reopened(result, Path(directory))
    assert cap_bytes(decoded.caps) == cap_bytes(result.caps)
    assert decoded.dataset_name == result.dataset_name
    assert decoded.parameters == result.parameters
    assert decoded.elapsed_seconds == result.elapsed_seconds
    assert decoded.from_cache
    return document["result"]


def result_of(*caps: CAP, name: str = "santander") -> MiningResult:
    return MiningResult(name, PARAMS, list(caps), elapsed_seconds=0.25)


# -- named cases -----------------------------------------------------------------


class TestCases:
    def test_empty_result(self):
        stored = assert_round_trips(result_of())
        assert stored["encoding"] == 2 and stored["num_caps"] == 0
        assert stored["sensors"] == [] and "delay_counts" not in stored

    def test_support_without_indices(self):
        stored = assert_round_trips(result_of(
            CAP(frozenset("ab"), frozenset({"x", "y"}), support=7),
            CAP(frozenset("bc"), frozenset({"x"}), support=2, evolving_indices=(4, 9)),
            CAP(frozenset("cd"), frozenset({"y"}), support=0),
        ))
        assert stored["num_caps"] == 3

    def test_delays_zero_and_non_zero(self):
        stored = assert_round_trips(result_of(
            CAP(frozenset("ab"), frozenset("xy"), 2, (1, 5), delays={"a": 0, "b": 3}),
            CAP(frozenset("abc"), frozenset("xy"), 1, (7,), delays={"c": 0, "a": 0, "b": 0}),
            CAP(frozenset("cd"), frozenset("x"), 1, (2,)),
        ))
        assert stored["delay_values"]["dtype"] == "<i1"

    @pytest.mark.parametrize(
        "top, dtype",
        [(255, "<u1"), (479, "<u2"), (65_535, "<u2"), (65_536, "<u4"), (2**32 - 1, "<u4")],
    )
    def test_index_column_widens_past_the_u2_horizon(self, top, dtype):
        stored = assert_round_trips(result_of(
            CAP(frozenset("ab"), frozenset("xy"), 3, (0, 1, top)),
        ))
        assert stored["indices"]["dtype"] == dtype

    def test_non_ascii_names(self):
        assert_round_trips(result_of(
            CAP(frozenset({"café-1", "東京-2", "ab"}), frozenset({"température", "湿度"}), 1, (3,)),
            CAP(frozenset({"🌡️", "東京-2"}), frozenset({"湿度", "x"}), 2, (1, 2)),
            name="ciudad-ñ",
        ))

    def test_values_out_of_range_are_refused(self):
        with pytest.raises(ValueError, match="do not fit"):
            result_to_columns(result_of(CAP(frozenset("ab"), frozenset("x"), 1, (-1,))))
        with pytest.raises(ValueError, match="do not fit"):
            result_to_columns(result_of(CAP(frozenset("ab"), frozenset("x"), 1, (2**32,))))

    def test_unknown_encoding_is_refused(self):
        stored = {**result_to_columns(result_of()), "encoding": 3}
        with pytest.raises(ValueError, match="encoding 3"):
            ResultTable.from_columns(stored)

    def test_stored_bytes_do_not_depend_on_the_hash_seed(self):
        """Names are coded in sorted order, not in set iteration order."""
        script = (
            "import json; from repro.core.types import CAP; "
            "from repro.core.miner import MiningResult; "
            "from repro.core.result_columns import result_to_columns; "
            "from repro.data.datasets import recommended_parameters; "
            "names = [f'sensor-{i}' for i in range(12)]; "
            "caps = [CAP(frozenset(names[i:i + 6]), frozenset(names[i + 1:i + 4]), 1, (i,),"
            " {n: i for n in names[i:i + 6]}) for i in range(6)]; "
            "result = MiningResult('d', recommended_parameters('santander'), caps); "
            "print(json.dumps(result_to_columns(result)))"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script], check=True, capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("1", "2", "3")
        }
        assert len(outputs) == 1

    def test_metadata_reads_no_column(self):
        """``metadata`` and ``caps_by_dataset`` use ``num_caps`` alone."""
        stored = result_to_columns(result_of(CAP(frozenset("ab"), frozenset("x"), 1, (3,))))
        bare = {k: v for k, v in stored.items() if k not in ("sensor_counts", "indices")}
        document = {"key": "k", "payload": {"dataset": "santander", "parameters": {}},
                    "result": bare}
        assert ResultCache.metadata(document)["num_caps"] == 1


# -- property --------------------------------------------------------------------

names = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6),
    st.sampled_from(["san-001-temperature", "café", "東京-1", "Δp", "🌡️"]),
)
delays_values = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**40), 2**40))


@st.composite
def caps(draw, horizon: int) -> CAP:
    sensors = draw(st.lists(names, min_size=2, max_size=5, unique=True))
    attributes = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        indices = tuple(draw(st.lists(st.integers(0, horizon - 1), max_size=8)))
        support = len(indices)
    else:  # a support recorded without its indices
        indices, support = (), draw(st.integers(0, 1000))
    delays = {}
    if draw(st.booleans()):
        keyed = draw(st.lists(st.sampled_from(sensors), min_size=1, unique=True))
        delays = {sid: draw(delays_values) for sid in keyed}
    return CAP(frozenset(sensors), frozenset(attributes), support, indices, delays)


@st.composite
def results(draw) -> MiningResult:
    horizon = draw(st.sampled_from([1, 480, 65_536, 65_537, 2**20]))
    found = draw(st.lists(caps(horizon), max_size=6))
    return MiningResult(draw(names), PARAMS, found,
                        elapsed_seconds=draw(st.floats(0, 100)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(results())
def test_stored_result_round_trips_byte_for_byte(result):
    stored = assert_round_trips(result)
    top = max((i for cap in result.caps for i in cap.evolving_indices), default=0)
    assert stored["indices"]["dtype"] == (
        "<u1" if top < 256 else "<u2" if top < 65_536 else "<u4"
    )


# -- the golden cases through the store --------------------------------------------


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_case_survives_put_reopen_decode(case, tmp_path):
    build, expected = GOLDEN[case]
    dataset, params = build()
    mined = MiscelaMiner(params).mine(dataset)
    document, decoded = stored_and_reopened(mined, tmp_path)
    assert document["key"] == cache_key(dataset.name, params)
    assert _digests(decoded.dataset_name, decoded.parameters, decoded.caps) == expected
