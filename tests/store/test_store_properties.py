"""Property-based tests for the document store.

Invariants:

* an indexed query returns exactly what a full scan returns;
* dump/load is the identity on find() results;
* range queries through the sorted index equal the predicate filter;
* ``update_if`` is a true compare-and-set: under any interleaving of
  claim attempts — sequential or genuinely concurrent — each document is
  won exactly once, by the first attempt that reaches it;
* any sequence of writes, WAL replays and compactions reads back exactly
  what a plain-dict model holds, and every document a read returns is
  read-only all the way down;
* WAL torn-tail recovery is *exact*: a log cut or bit-flipped at any byte
  offset replays to precisely the prefix of intact records — never one
  record short, never a corrupt record adopted — and a record is one
  section, applied to every collection it touches or to none.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from bisect import bisect_right
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import thaw, upgrade, wal
from repro.store.collection import Collection
from repro.store.database import Database

field_values = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.text(min_size=0, max_size=8),
    st.none(),
)

documents = st.lists(
    st.fixed_dictionaries(
        {"group": st.sampled_from(["a", "b", "c"]), "value": st.integers(-50, 50)},
        optional={"extra": field_values},
    ),
    min_size=0,
    max_size=30,
)


@given(documents, st.sampled_from(["a", "b", "c"]))
@settings(max_examples=60)
def test_hash_index_equals_scan(docs, probe):
    plain = Collection("plain")
    indexed = Collection("indexed")
    indexed.create_index("group", "hash")
    plain.insert_many(docs)
    indexed.insert_many(docs)
    assert plain.find({"group": probe}) == indexed.find({"group": probe})


sparse_documents = st.lists(
    st.fixed_dictionaries(
        {"group": st.sampled_from(["a", "b"])},
        optional={"extra": st.one_of(field_values, st.lists(field_values, max_size=2))},
    ),
    max_size=30,
)


@given(sparse_documents, st.one_of(field_values, st.lists(field_values, max_size=2)))
@settings(max_examples=60)
def test_hash_index_on_a_sparse_field_equals_scan(docs, probe):
    """``extra`` is missing, None, a scalar or an array, and so is the probe:
    exact index answers and the declined plans must agree with a full scan."""
    plain = Collection("plain")
    indexed = Collection("indexed")
    indexed.create_index("extra", "hash")
    indexed.create_index("group", "hash")
    plain.insert_many(docs)
    indexed.insert_many(docs)
    for query in (
        {"extra": probe},
        {"extra": {"$in": [probe, 3]}},
        {"extra": probe, "group": "a"},
        {"extra": probe, "group": {"$in": ["a", "c"]}},
    ):
        assert plain.find(query) == indexed.find(query), query
        assert plain.count(query) == indexed.count(query), query


@given(documents, st.integers(-60, 60), st.integers(-60, 60))
@settings(max_examples=60)
def test_sorted_index_equals_scan(docs, bound1, bound2):
    low, high = min(bound1, bound2), max(bound1, bound2)
    plain = Collection("plain")
    indexed = Collection("indexed")
    indexed.create_index("value", "sorted")
    plain.insert_many(docs)
    indexed.insert_many(docs)
    query = {"value": {"$gte": low, "$lte": high}}
    assert plain.find(query) == indexed.find(query)


@given(documents)
@settings(max_examples=60)
def test_dump_load_round_trip(docs):
    c = Collection("c")
    c.create_index("group", "hash")
    c.insert_many(docs)
    restored = Collection.load(c.dump())
    assert restored.find() == c.find()
    assert restored.count({"group": "a"}) == c.count({"group": "a"})


@given(documents, st.sampled_from(["a", "b", "c"]))
@settings(max_examples=40)
def test_delete_then_count_consistent(docs, victim):
    c = Collection("c")
    c.create_index("group", "hash")
    c.insert_many(docs)
    before = c.count()
    removed = c.delete_many({"group": victim})
    assert c.count() == before - removed
    assert c.count({"group": victim}) == 0


# -- update_if: compare-and-set ------------------------------------------------

#: An interleaving: which worker attempts to claim which job slot, in what
#: order.  Jobs are claimable exactly once (state queued -> running).
claim_schedules = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 9)),  # (job index, worker id)
    min_size=0,
    max_size=40,
)


@given(claim_schedules)
@settings(max_examples=80)
def test_update_if_claims_match_sequential_model(schedule):
    """Any interleaving of CAS claims equals the first-wins reference model."""
    n_jobs = 5
    c = Collection("jobs")
    c.create_index("job", "hash")
    for job in range(n_jobs):
        c.insert_one({"job": job, "state": "queued", "worker": None})
    model: dict[int, int] = {}  # job -> winning worker (first attempt wins)
    for job, worker in schedule:
        won = c.update_if(
            {"job": job},
            {"state": "queued"},
            {"state": "running", "worker": worker},
        )
        if job not in model:
            model[job] = worker
            assert won is not None  # first attempt must win...
        else:
            assert won is None  # ...and every later one must lose
    for job in range(n_jobs):
        doc = c.find_one({"job": job})
        if job in model:
            assert (doc["state"], doc["worker"]) == ("running", model[job])
        else:
            assert (doc["state"], doc["worker"]) == ("queued", None)


@given(claim_schedules)
@settings(max_examples=60)
def test_update_if_failed_cas_changes_nothing(schedule):
    """A losing CAS must leave the document untouched, not half-applied."""
    c = Collection("jobs")
    c.insert_one({"job": 0, "state": "done", "worker": 7, "extra": "x"})
    before = c.find_one({"job": 0})
    for _job, worker in schedule:
        assert c.update_if(
            {"job": 0}, {"state": "queued"}, {"state": "running", "worker": worker}
        ) is None
    assert c.find_one({"job": 0}) == before


def test_update_if_is_atomic_under_real_threads():
    """Genuinely concurrent claimers: every job won exactly once, total
    wins == total jobs — the exactly-once property lease claiming needs."""
    n_jobs, n_workers = 25, 8
    c = Collection("jobs")
    c.create_index("job", "hash")
    for job in range(n_jobs):
        c.insert_one({"job": job, "state": "queued", "worker": None})
    wins: list[list[int]] = [[] for _ in range(n_workers)]
    barrier = threading.Barrier(n_workers)

    def claimer(worker: int) -> None:
        barrier.wait()  # maximise contention: everyone starts together
        for job in range(n_jobs):
            if c.update_if(
                {"job": job},
                {"state": "queued"},
                {"state": "running", "worker": worker},
            ) is not None:
                wins[worker].append(job)

    threads = [
        threading.Thread(target=claimer, args=(worker,))
        for worker in range(n_workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    claimed = [job for per_worker in wins for job in per_worker]
    assert sorted(claimed) == list(range(n_jobs))  # once each, none missed
    for job in range(n_jobs):
        doc = c.find_one({"job": job})
        assert doc["state"] == "running"
        assert job in wins[doc["worker"]]  # the stamp matches the winner

# -- op sequences against a plain-dict model ---------------------------------

json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-1000, 1000),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=5),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
    ),
    max_leaves=8,
)
keys = st.sampled_from(["a", "b", "c"])
payloads = st.fixed_dictionaries(
    {"k": keys, "v": json_values}, optional={"w": json_values}
)
store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), payloads),
        st.tuples(st.just("update"), keys, st.dictionaries(
            st.sampled_from(["k", "v", "w", "x"]), json_values, min_size=1
        )),
        st.tuples(st.just("replace"), keys, payloads),
        st.tuples(st.just("delete"), keys),
        st.tuples(st.just("compact")),
        st.tuples(st.just("reopen")),
    ),
    max_size=16,
)


def _first_match(model: dict[int, dict], key: str) -> int | None:
    return min((i for i, doc in model.items() if doc["k"] == key), default=None)


def _assert_read_only(value) -> None:
    """Every container in a returned document rejects mutation."""
    if isinstance(value, dict):
        with pytest.raises(TypeError):
            value["_probe"] = 1
        for item in value.values():
            _assert_read_only(item)
    elif isinstance(value, list):
        with pytest.raises(TypeError):
            value.append(1)
        for item in value:
            _assert_read_only(item)


def _check_view(collection: Collection, model: dict[int, dict]) -> None:
    documents = collection.find()
    assert documents == [model[i] for i in sorted(model)]
    for key in ("a", "b", "c"):
        first = _first_match(model, key)
        found = collection.find_one({"k": key})
        assert found == (None if first is None else model[first])
        documents.append(found)
    for document in documents:
        _assert_read_only(document)


@given(st.lists(payloads, min_size=3, max_size=6), store_ops)
@settings(max_examples=60, deadline=None)
def test_random_ops_read_back_the_model_and_stay_read_only(initial, ops):
    """Writes, WAL replay (reopen and a refreshing peer) and compaction:
    every read equals the plain-dict model and rejects mutation."""
    ops = [("insert", payload) for payload in initial] + ops
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "store.json"
        database, peer = Database(path), Database(path)
        collection = database.collection("docs")
        collection.create_index("k", "hash")
        model: dict[int, dict] = {}
        for op in ops:
            kind = op[0]
            if kind == "insert":
                doc_id = collection.insert_one(op[1])
                model[doc_id] = {**thaw(op[1]), "_id": doc_id}
            elif kind == "update":
                target = _first_match(model, op[1])
                assert collection.update_one({"k": op[1]}, op[2]) == target
                if target is not None:
                    model[target].update(thaw(op[2]))
            elif kind == "replace":
                target = _first_match(model, op[1])
                assert collection.replace_one({"k": op[1]}, op[2]) == target
                if target is not None:
                    model[target] = {**thaw(op[2]), "_id": target}
            elif kind == "delete":
                removed = [i for i, doc in model.items() if doc["k"] == op[1]]
                assert collection.delete_many({"k": op[1]}) == len(removed)
                for doc_id in removed:
                    del model[doc_id]
            elif kind == "compact":
                database.compact()
            else:
                database = Database(path)
                collection = database.collection("docs")
            _check_view(collection, model)
            peer.refresh()
            _check_view(peer.collection("docs"), model)


# -- WAL torn-tail recovery ----------------------------------------------------

#: Every record format: v3 is written and read, v1 and v2 are read by
#: ``repro store upgrade``.
FORMATS = (upgrade.FORMAT_V1, upgrade.FORMAT_V2, wal.FORMAT_V3)


def _record_stream(records, fmt=upgrade.FORMAT_V2):
    """Encode ``records`` back-to-back; returns (bytes, record boundaries)."""
    checksum = upgrade.format_checksum(fmt)
    buffer = b""
    boundaries = [0]
    for record in records:
        buffer += wal.encode_record(record, checksum)
        boundaries.append(len(buffer))
    return buffer, boundaries


_TAIL_RECORDS = [
    {"op": "put", "doc": {"_id": i, "value": "x" * (i % 7), "i": i}}
    for i in range(6)
]


def test_truncation_at_every_byte_offset_recovers_exact_prefix():
    """Cut the stream everywhere, in every format: replay yields exactly the
    whole records before the cut, flags a torn tail iff the cut is
    mid-record."""
    for fmt in FORMATS:
        checksum = upgrade.format_checksum(fmt)
        buffer, boundaries = _record_stream(_TAIL_RECORDS, fmt)
        for cut in range(len(buffer) + 1):
            recovered, valid_end, torn = wal.decode_records(
                buffer[:cut], checksum=checksum
            )
            whole = bisect_right(boundaries, cut) - 1
            assert recovered == _TAIL_RECORDS[:whole]
            assert valid_end == boundaries[whole]
            assert torn == (cut != boundaries[whole])


def test_bit_flip_at_every_byte_offset_never_yields_a_wrong_record():
    """Flip one byte anywhere, in every format: the checksum (or framing)
    must stop replay at the corrupted record's boundary — corruption never
    decodes as data."""
    for fmt in FORMATS:
        checksum = upgrade.format_checksum(fmt)
        buffer, boundaries = _record_stream(_TAIL_RECORDS, fmt)
        for position in range(len(buffer)):
            corrupted = bytearray(buffer)
            corrupted[position] ^= 0xFF
            recovered, valid_end, _torn = wal.decode_records(
                bytes(corrupted), checksum=checksum
            )
            damaged = bisect_right(boundaries, position) - 1
            # Replay stops at (or before) the damaged record; every record
            # it *did* return is byte-identical to what was written.
            assert len(recovered) <= damaged
            assert recovered == _TAIL_RECORDS[: len(recovered)]
            assert valid_end <= boundaries[damaged]


def test_database_reopen_after_truncation_at_every_offset(tmp_path):
    """End-to-end: truncate the log at every offset, reopen, and the store
    must equal the replay of the surviving prefix of whole sections — a
    section spanning two collections lands in both or in neither.  A v1
    or v2 per-collection log cut anywhere upgrades to a v3 log holding
    exactly that log's surviving prefix."""
    path = tmp_path / "store.json"
    database = Database(path)
    caps = database["caps"]
    caps.create_index("i", "hash")
    for i in range(4):
        caps.insert_one({"i": i})
    with database.exclusive():
        caps.delete_many({"i": 1})
        database["other"].insert_one({"j": 1})
        caps.update_one({"i": 2}, {"value": "updated"})

    commits, _end, torn = wal.decode_records(
        (tmp_path / "store.json.wal" / "journal").read_bytes()
    )
    assert not torn and len(commits) == 6
    assert list(commits[-1]) == ["caps", "other"]

    # The expected state after replaying commits[:n], for each n.
    def replay(prefix):
        collections: dict[str, Collection] = {}
        for commit in prefix:
            for name, ops in commit.items():
                for op in ops:
                    collections.setdefault(name, Collection(name)).apply_wal_record(op)
        return {name: c.find() for name, c in collections.items()}

    def state(reopened):
        return {
            name: reopened[name].find()
            for name in reopened.collection_names()
            if reopened[name].find() or reopened[name].indexes() != {"hash": [], "sorted": []}
        }

    def cut_root():
        target = tmp_path / "cut" / "store.json.wal"
        target.mkdir(parents=True)
        return target

    pristine, offsets = _record_stream(commits, wal.FORMAT_V3)
    for cut in range(len(pristine) + 1):
        target = cut_root()
        (target / "FORMAT").write_text(wal.FORMAT_V3 + "\n")
        (target / "journal").write_bytes(pristine[:cut])
        reopened = Database(tmp_path / "cut" / "store.json")
        whole = bisect_right(offsets, cut) - 1
        assert state(reopened) == replay(commits[:whole])
        assert ("other" in reopened and reopened["other"].count() == 1) == (whole == 6)
        # Recovery truncated the torn tail, quarantining its bytes.
        assert (target / "journal").stat().st_size == offsets[whole]
        assert len(list(target.glob("*.corrupt-*"))) == (cut != offsets[whole])
        shutil.rmtree(tmp_path / "cut")

    ops = [op for commit in commits for op in commit.get("caps", [])]
    v2_records = [
        {"op": "put", "doc": op} if isinstance(op, dict)
        else {"op": "del", "ids": op[1]} if op[0] == "del"
        else {"op": "index", "path": op[1], "kind": op[2]}
        for op in ops
    ]
    for fmt in (upgrade.FORMAT_V1, upgrade.FORMAT_V2):
        pristine, offsets = _record_stream(v2_records, fmt)
        log_name = "caps" + upgrade.SEGMENT_SUFFIXES[fmt]
        for cut in range(len(pristine) + 1):
            target = cut_root()
            (target / "FORMAT").write_text(fmt + "\n")
            (target / log_name).write_bytes(pristine[:cut])
            upgrade.upgrade(tmp_path / "cut" / "store.json")
            reopened = Database(tmp_path / "cut" / "store.json")
            whole = bisect_right(offsets, cut) - 1
            expected = Collection("caps")
            for op in ops[:whole]:
                expected.apply_wal_record(op)
            assert reopened["caps"].find() == expected.find()
            # Recovery truncated the torn tail; the log became v3.
            assert (target / "FORMAT").read_text() == wal.FORMAT_V3 + "\n"
            assert not (target / log_name).exists()
            assert not wal.verify_log(target / "journal")["torn"]
            assert len(list(target.glob("*.corrupt-*"))) == (cut != offsets[whole])
            shutil.rmtree(tmp_path / "cut")
