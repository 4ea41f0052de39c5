"""The result table: search rows to stored columns to pages, with no CAP list.

A cold mine ranks the search's pattern rows and packs them straight into
the stored columns (:class:`repro.core.result_columns.ResultTable`); reads
build CAPs or CAP documents for the rows they return only.  These tests
hold that path to the one it replaced: every row decoded into a ``CAP``,
ranked with ``cap.key()``, then flattened by the CAP-list codec — written
out here as the oracle, so the stored bytes, row documents and HTTP bodies
are compared with what the CAP list gives, byte for byte.
"""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.cache import ResultCache
from repro.cache.keys import cache_key
from repro.core import types
from repro.core.miner import MiningResult, MiscelaMiner, NaiveMiner
from repro.core.parallel import sharded_search
from repro.core.result_columns import ResultTable, pack_column, result_to_columns
from repro.core.types import CAP
from repro.jobs.planner import execute_units, merge_outputs, plan_mine
from repro.server.app import TestClient, create_app
from repro.store import Database
from tests.conftest import mine_v1, result_caps
from tests.core.test_search_reference import mining_instances, prepare

API = "/api/v1"


# -- the CAP-list path, as the oracle ------------------------------------------


def reference_caps(dataset, params) -> list[CAP]:
    """Decode every raw row into a CAP, keep the strongest per sensor set
    (first seen on ties), rank by (-support, key)."""
    evolving, adjacency, _, _ = prepare(dataset, params)
    best: dict[tuple[str, ...], CAP] = {}
    for members, delays, attrs, support, bits in sharded_search(
        list(dataset), adjacency, evolving, params
    ):
        cap = CAP(
            sensor_ids=frozenset(members),
            attributes=attrs,
            support=support,
            evolving_indices=tuple(i for i in range(bits.bit_length()) if bits >> i & 1),
            delays=(
                {sid: d - min(delays) for sid, d in zip(members, delays)}
                if params.max_delay else {}
            ),
        )
        if cap.key() not in best or cap.support > best[cap.key()].support:
            best[cap.key()] = cap
    ranked = sorted(best.items(), key=lambda item: (-item[1].support, item[0]))
    return [cap for _key, cap in ranked]


def reference_columns(result: MiningResult, caps: list[CAP]) -> dict:
    """The stored layout of ``caps``, flattened one CAP at a time."""
    sensor_names = [name for cap in caps for name in sorted(cap.sensor_ids)]
    attribute_names = [name for cap in caps for name in sorted(cap.attributes)]
    delays = [sorted(cap.delays.items()) for cap in caps]
    delay_names = [name for items in delays for name, _ in items]
    sensors = list(dict.fromkeys(sensor_names + delay_names))
    attributes = list(dict.fromkeys(attribute_names))
    document = {
        "encoding": 2,
        "dataset": result.dataset_name,
        "parameters": result.parameters.to_document(),
        "elapsed_seconds": result.elapsed_seconds,
        "num_caps": len(caps),
        "sensors": sensors,
        "attributes": attributes,
        "sensor_counts": pack_column([len(cap.sensor_ids) for cap in caps]),
        "sensor_codes": pack_column([sensors.index(name) for name in sensor_names]),
        "attribute_counts": pack_column([len(cap.attributes) for cap in caps]),
        "attribute_codes": pack_column([attributes.index(n) for n in attribute_names]),
        "supports": pack_column([cap.support for cap in caps]),
        "indexed": pack_column([1 if cap.evolving_indices else 0 for cap in caps]),
        "indices": pack_column([i for cap in caps for i in cap.evolving_indices]),
    }
    if delay_names:
        document["delay_counts"] = pack_column([len(items) for items in delays])
        document["delay_codes"] = pack_column([sensors.index(name) for name in delay_names])
        document["delay_values"] = pack_column(
            [value for items in delays for _, value in items],
            ("<i1", "<i2", "<i4", "<i8"),
        )
    return document


def dumps(document) -> str:
    return json.dumps(document, ensure_ascii=False)


# -- rows -> table -> columns, in every mode ------------------------------------

MODES = {
    "simultaneous": {},
    "delayed": {"max_delay": 2},
    "direction-aware": {"direction_aware": True},
    "pooled": {"n_jobs": 2},
}


def distributed_table(dataset, params) -> ResultTable:
    plan = plan_mine(dataset, params, plan_workers=2)
    outputs = []
    for shard in reversed(plan.shard_documents):
        outputs += execute_units(dataset, params, shard)
    return merge_outputs(outputs)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mining_instances(), st.sampled_from(sorted(MODES)))
def test_table_columns_equal_the_cap_list_codec(instance, mode):
    dataset, params = instance
    params = params.with_updates(**MODES[mode])
    result = MiscelaMiner(params).mine(dataset)
    caps = reference_caps(dataset, params)
    expected = dumps(reference_columns(result, caps))
    table = result.caps
    assert isinstance(table, ResultTable)
    assert dumps(result_to_columns(result)) == expected
    assert table.documents() == [cap.to_document() for cap in caps]
    assert list(table) == caps
    # The same table from each other source.
    stored = json.loads(expected)
    for other in (
        ResultTable.from_caps(caps),
        ResultTable.from_columns(stored),
        distributed_table(dataset, params),
    ):
        assert dumps(other.to_columns()) == dumps(table.to_columns())
        assert other.documents() == table.documents()
    if not params.max_delay:
        naive = NaiveMiner(params).mine(dataset)
        assert dumps(naive.caps.to_columns()) == dumps(table.to_columns())
    # Sensor index: a sensor's rows are exactly the CAPs holding it, in order.
    for sensor in dataset.sensor_ids:
        assert table.sensor_rows(sensor) == [
            row for row, cap in enumerate(caps) if sensor in cap.sensor_ids
        ]


# -- HTTP bodies ------------------------------------------------------------------


def expected_click(caps: list[CAP], sensor: str) -> dict[str, list[str]]:
    correlated: dict[str, set[str]] = {}
    for cap in caps:
        if sensor in cap.sensor_ids:
            for other in cap.sensor_ids - {sensor}:
                correlated.setdefault(other, set()).update(cap.attributes)
    return {sid: sorted(attrs) for sid, attrs in sorted(correlated.items())}


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mining_instances(), st.sampled_from(["sync", "async"]), st.integers(1, 4))
def test_pages_filters_and_clicks_equal_the_cap_list(instance, mode, limit):
    dataset, params = instance
    caps = reference_caps(dataset, params)
    app = create_app()
    client = TestClient(app)
    try:
        assert client.upload_dataset(dataset).status == 201
        created = mine_v1(client, dataset.name, params.to_document(), mode=mode)
        if mode == "async":
            job = client.get(created.headers["Location"])
            while job.json()["state"] != "succeeded":
                assert job.json()["state"] in ("queued", "running")
                time.sleep(0.01)
                job = client.get(created.headers["Location"])
        key = cache_key(dataset.name, params)
        assert result_caps(client, key) == [cap.to_document() for cap in caps]
        attributes = sorted({a for cap in caps for a in cap.attributes})
        filters = [(None, None)] + [(sid, None) for sid in dataset.sensor_ids]
        filters += [(None, a) for a in attributes]
        filters += [(sid, a) for sid in dataset.sensor_ids[:2] for a in attributes[:2]]
        for sensor, attribute in filters:
            wanted = [
                cap.to_document() for cap in caps
                if (sensor is None or sensor in cap.sensor_ids)
                and (attribute is None or attribute in cap.attributes)
            ]
            query = "".join(
                f"&{name}={value}"
                for name, value in (("sensor", sensor), ("attribute", attribute))
                if value is not None
            )
            for offset in range(0, len(wanted) + 1, limit):
                page = client.get(
                    f"{API}/results/{key}/caps?offset={offset}&limit={limit}{query}"
                ).json()
                assert page["total"] == len(wanted)
                assert page["caps"] == wanted[offset:offset + limit]
        for sensor in dataset.sensor_ids:
            click = client.get(f"{API}/datasets/{dataset.name}/sensors/{sensor}/correlated")
            assert click.json()["correlated"] == expected_click(caps, sensor)
    finally:
        app.close()


# -- CAPs are built on request ------------------------------------------------------


@pytest.fixture
def built(monkeypatch) -> list[int]:
    """Counts CAP constructions (``CAP.__post_init__`` runs in every one)."""
    calls: list[int] = []
    original = types.CAP.__post_init__

    def counting(cap):
        calls.append(1)
        original(cap)

    monkeypatch.setattr(types.CAP, "__post_init__", counting)
    return calls


def china_result():
    from repro.data.datasets import recommended_parameters
    from repro.data.synthetic import generate_china6

    dataset = generate_china6(seed=3, grid_rows=2, grid_cols=3, steps=120)
    return dataset, recommended_parameters("china6")


def test_a_mine_its_count_and_its_put_build_no_cap(built):
    dataset, params = china_result()
    result = MiscelaMiner(params).mine(dataset)
    cache = ResultCache(Database())
    cache.put(result)
    assert len(result.caps) == result.num_caps > 20
    assert cache.metadata(cache.documents(dataset.name)[0])["num_caps"] == result.num_caps
    assert built == []
    assert len(result.caps[3:7]) == 4 and len(built) == 4


def test_first_page_of_a_put_encoded_result_builds_only_its_rows(built):
    dataset, params = china_result()
    columns = ResultCache.encode(MiscelaMiner(params).mine(dataset))
    app = create_app()
    try:
        client = TestClient(app)
        assert client.upload_dataset(dataset).status == 201
        key = app.state.cache.put_encoded(columns)
        page = client.get(f"{API}/results/{key}/caps?offset=10&limit=5").json()
        assert len(page["caps"]) == 5 and page["total"] == columns["num_caps"]
        assert built == []  # a page reads documents straight from the columns
        decoded = app.state.cache.get(dataset.name, params)
        assert [cap.to_document() for cap in decoded.caps[10:15]] == page["caps"]
        assert len(built) == 5
    finally:
        app.close()


@pytest.mark.parametrize("delayed", [False, True])
def test_an_empty_result_round_trips(delayed, tmp_path):
    table = ResultTable.from_rows([], delayed=delayed)
    assert len(table) == 0 and list(table) == [] and table.documents() == []
    assert table == [] and table.sensor_rows("s0") == []
    columns = table.to_columns()
    assert columns["num_caps"] == 0 and "delay_counts" not in columns
    assert columns == ResultTable.from_caps([]).to_columns()
    from repro.core.parameters import MiningParameters

    params = MiningParameters(evolving_rate=1.0, distance_threshold=1.0,
                              max_attributes=2, min_support=1,
                              max_delay=2 if delayed else 0)
    result = MiningResult("empty", params, table)
    path = tmp_path / "store.json"
    with Database(path) as database:
        key = ResultCache(database).put(result)
    with Database(path) as database:
        cache = ResultCache(database)
        decoded = cache.decode(cache.document(key))
    assert decoded.caps == [] and decoded.num_caps == 0
    assert dumps(result_to_columns(decoded)) == dumps(result_to_columns(result))


def test_stored_rows_read_like_the_packed_ones():
    """A table over stored columns reads any rows as the packed table does."""
    dataset, params = china_result()
    table = MiscelaMiner(params.with_updates(max_delay=1)).mine(dataset).caps
    stored = ResultTable.from_columns({"encoding": 2, **table.to_columns()})
    assert stored.delayed and len(stored) == len(table)
    assert stored.documents(range(5, 9)) == table.documents()[5:9]
    assert stored.documents([7, 2, 7]) == [table.documents()[i] for i in (7, 2, 7)]
    assert stored[-1] == table[len(table) - 1] and stored[2:4] == table[2:4]
    for row in (0, len(table) - 1):
        assert stored.sensors_of(row) == sorted(table[row].sensor_ids)
        assert stored.attributes_of(row) == sorted(table[row].attributes)
