"""A stream epoch's commit section only stages, and an idle epoch diffs nothing.

* Everything an epoch writes (events, alerts, the ``stream_state``
  change set) is frozen before ``Database.exclusive()`` is entered, so no
  ``freeze`` call of an epoch's commit runs while the store lock is held —
  ``insert_many`` freezes its batch before its own section too.
* The session carries each epoch's CAP identities, so an epoch that
  re-mines computes only its own, and an epoch whose batch affects no
  component emits no delta without calling ``diff_caps``.
"""

from __future__ import annotations

from repro.store import collection as store_collection
from repro.store.database import Database
from repro.stream import runner as stream_runner
from repro.stream.feed import caps_by_identity
from tests.stream.test_stream_retention import JUMPS, drive, make_params


def test_epoch_commit_freezes_nothing_under_the_store_lock(
    tiny_dataset, monkeypatch, tmp_path
):
    db = Database(tmp_path / "db.json")  # the WAL engine counts lock depth
    held: list[int] = []
    freeze = store_collection.freeze
    process_epoch = stream_runner.StreamSession.process_epoch
    in_epoch = [False]

    def spying(value):
        if in_epoch[0]:
            held.append(db._lock_depth)
        return freeze(value)

    def epoch(session, number):
        in_epoch[0] = True
        try:
            return process_epoch(session, number)
        finally:
            in_epoch[0] = False

    monkeypatch.setattr(store_collection, "freeze", spying)
    monkeypatch.setattr(stream_runner, "freeze", spying)
    monkeypatch.setattr(stream_runner.StreamSession, "process_epoch", epoch)
    session, _ = drive(db, tiny_dataset, make_params(), [])  # the epoch-0 baseline
    held.clear()
    drive(db, tiny_dataset, make_params(), JUMPS, session=session)
    db.close()
    assert session.mined_epoch == len(JUMPS) and session.next_seq > 1  # events written
    assert held and [depth for depth in held if depth > 0] == []


def test_insert_many_freezes_its_batch_before_its_section(monkeypatch, tmp_path):
    db = Database(tmp_path / "db.json")
    held: list[int] = []
    freeze = store_collection.freeze

    def spying(value):
        held.append(db._lock_depth)
        return freeze(value)

    monkeypatch.setattr(store_collection, "freeze", spying)
    db.collection("things").insert_many([{"n": 1, "tags": ["a"]}, {"n": 2}])
    assert [doc["n"] for doc in db.collection("things").find()] == [1, 2]
    db.close()
    assert held == [0, 0]


def test_identities_ride_along_and_an_idle_epoch_skips_the_diff(
    tiny_dataset, monkeypatch
):
    db = Database()
    diffs: list[int] = []
    diff_caps = stream_runner.diff_caps

    def counting(before, after):
        diffs.append(1)
        return diff_caps(before, after)

    monkeypatch.setattr(stream_runner, "diff_caps", counting)
    session, levels = drive(db, tiny_dataset, make_params(), [])
    for epochs, diffed in (([{"a", "b"}], 1), ([set()], 0), ([{"c", "d"}], 1)):
        before = len(diffs)
        events_before = session.next_seq
        session, levels = drive(
            db, tiny_dataset, make_params(), epochs, levels=levels, session=session
        )
        assert len(diffs) - before == diffed
        assert session.identities == caps_by_identity(session.caps)
        if not diffed:
            assert session.next_seq == events_before
