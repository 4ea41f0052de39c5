"""Stream subsystem units: ingestion validation, feed diffing, alert rules,
and the StreamSession's exactly-once persistence contract.

Everything here runs in-process against an in-memory Database; the live
server (`test_stream_e2e.py`) and the kill -9 matrix
(`test_stream_recovery.py`) prove the same rules over real processes.
"""

from __future__ import annotations

import threading
from datetime import datetime

import pytest

from repro.cache.keys import cache_key
from repro.core.parallel import MiningCancelled
from repro.core.parameters import MiningParameters
from repro.stream import (
    ALERT_RULES,
    CAP_EVENTS,
    STREAM_STATE,
    BatchError,
    RuleError,
    StreamSession,
    append_batch,
    current_epoch,
    diff_caps,
    evaluate_rules,
    match_level,
    read_events,
    render_sse,
    validate_rule,
)
from repro.stream.feed import event_id
from repro.store.database import Database


def make_params(min_support: int = 3) -> MiningParameters:
    return MiningParameters(
        evolving_rate=1.0,
        distance_threshold=2.0,
        max_attributes=3,
        min_support=min_support,
    )


def next_batch(dataset, database, levels, jump_sensors, length=3, jump=5.0):
    """The next on-grid batch; ``jump_sensors`` step by +jump at slot 1.

    ``levels`` carries each sensor's current value across batches so the
    boundary delta between batches is always zero — only the engineered
    jumps count as evolving timestamps.
    """
    _, last = current_epoch(database, dataset.name)
    interval = dataset.timeline[1] - dataset.timeline[0]
    start = (
        datetime.fromisoformat(last) if last else dataset.timeline[-1]
    ) + interval
    timeline = [(start + i * interval).isoformat() for i in range(length)]
    series = {}
    for sid in dataset.sensor_ids:
        row = []
        for i in range(length):
            if i == 1 and sid in jump_sensors:
                levels[sid] += jump
            row.append(levels[sid])
        series[sid] = row
    return {"timeline": timeline, "series": series}


def start_levels(dataset) -> dict[str, float]:
    return {sid: float(dataset.values(sid)[-1]) for sid in dataset.sensor_ids}


class TestIngestValidation:
    def test_append_bumps_epoch_and_logs_batch(self, tiny_dataset):
        db = Database()
        levels = start_levels(tiny_dataset)
        receipt = append_batch(
            db, tiny_dataset, next_batch(tiny_dataset, db, levels, {"a", "b"})
        )
        assert receipt["epoch"] == 1 and receipt["observations"] == 3
        assert current_epoch(db, "tiny")[0] == 1
        logged = db.collection("observations").find_one({"batch_id": "tiny:000001"})
        assert logged["series"]["a"][1] == levels["a"]

    def test_second_batch_continues_the_first(self, tiny_dataset):
        db = Database()
        levels = start_levels(tiny_dataset)
        append_batch(db, tiny_dataset, next_batch(tiny_dataset, db, levels, set()))
        receipt = append_batch(
            db, tiny_dataset, next_batch(tiny_dataset, db, levels, set())
        )
        assert receipt["epoch"] == 2

    def test_off_grid_timestamps_rejected(self, tiny_dataset):
        db = Database()
        batch = next_batch(tiny_dataset, db, start_levels(tiny_dataset), set())
        batch["timeline"][0] = batch["timeline"][1]  # gap at the boundary
        with pytest.raises(BatchError, match="sampling grid"):
            append_batch(db, tiny_dataset, batch)

    def test_wrong_sensor_set_rejected(self, tiny_dataset):
        db = Database()
        batch = next_batch(tiny_dataset, db, start_levels(tiny_dataset), set())
        del batch["series"]["a"]
        with pytest.raises(BatchError, match="lacks series"):
            append_batch(db, tiny_dataset, batch)
        batch["series"]["a"] = batch["series"]["b"]
        batch["series"]["zz"] = batch["series"]["b"]
        with pytest.raises(BatchError, match="unknown sensors"):
            append_batch(db, tiny_dataset, batch)

    def test_ragged_and_non_numeric_rows_rejected(self, tiny_dataset):
        db = Database()
        batch = next_batch(tiny_dataset, db, start_levels(tiny_dataset), set())
        batch["series"]["a"] = batch["series"]["a"][:-1]
        with pytest.raises(BatchError, match="3 readings"):
            append_batch(db, tiny_dataset, batch)
        batch = next_batch(tiny_dataset, db, start_levels(tiny_dataset), set())
        batch["series"]["a"][0] = "hot"
        with pytest.raises(BatchError, match="non-numeric"):
            append_batch(db, tiny_dataset, batch)
        # Booleans are not readings either, even though bool is an int.
        batch["series"]["a"][0] = True
        with pytest.raises(BatchError, match="non-numeric"):
            append_batch(db, tiny_dataset, batch)

    def test_null_and_nan_readings_normalise_to_none(self, tiny_dataset):
        db = Database()
        batch = next_batch(tiny_dataset, db, start_levels(tiny_dataset), set())
        batch["series"]["a"][0] = None
        batch["series"]["a"][1] = float("nan")
        append_batch(db, tiny_dataset, batch)
        logged = db.collection("observations").find_one({"batch_id": "tiny:000001"})
        assert logged["series"]["a"][:2] == [None, None]


class TestFeedDiff:
    CAP_AB = {"sensors": ["a", "b"], "attributes": ["temperature", "traffic_volume"],
              "support": 3, "evolving_indices": [3, 7, 12], "delays": {}}
    CAP_CD = {"sensors": ["c", "d"], "attributes": ["humidity", "temperature"],
              "support": 2, "evolving_indices": [5, 9], "delays": {}}

    def test_new_extended_retired_classification(self):
        grown = dict(self.CAP_AB, support=4, evolving_indices=[3, 7, 12, 17])
        deltas = diff_caps([self.CAP_AB], [grown, self.CAP_CD])
        assert [(t, c["sensors"]) for t, c in deltas] == [
            ("new", ["c", "d"]),
            ("extended", ["a", "b"]),
        ]
        deltas = diff_caps([self.CAP_AB, self.CAP_CD], [self.CAP_AB])
        assert [(t, c["sensors"]) for t, c in deltas] == [("retired", ["c", "d"])]

    def test_unchanged_caps_emit_nothing(self):
        assert diff_caps([self.CAP_AB], [dict(self.CAP_AB)]) == []

    def test_event_ids_are_deterministic(self):
        a = event_id("k" * 64, 3, "new", self.CAP_AB)
        b = event_id("k" * 64, 3, "new", dict(self.CAP_AB, support=99))
        assert a == b  # identity, not evolution, addresses the event
        assert a != event_id("k" * 64, 4, "new", self.CAP_AB)

    def test_render_sse_frames(self):
        events = [{"seq": 7, "type": "new", "event_id": "ev-x", "dataset": "tiny",
                   "key": "k", "epoch": 1, "cap": self.CAP_AB, "created_at": 0.0}]
        body = render_sse(events)
        assert "id: 7\n" in body and "event: new\n" in body and "data: {" in body
        assert render_sse([]) == ""


class TestRuleGrammar:
    def test_valid_rule_normalises(self):
        rule = validate_rule("tiny", {
            "rule_id": "co-move",
            "levels": [{"min_sensors": 3, "severity": "critical"},
                       {"min_sensors": 2, "severity": "info"}],
        })
        assert rule["event_types"] == ["extended", "new", "retired"]
        assert [l["min_sensors"] for l in rule["levels"]] == [2, 3]
        assert rule["name"] == "co-move" and rule["dataset"] == "tiny"

    @pytest.mark.parametrize("payload,match", [
        ("nope", "JSON object"),
        ({"levels": [{"min_sensors": 2, "severity": "x"}]}, "rule_id"),
        ({"rule_id": "bad id!", "levels": [{"min_sensors": 2, "severity": "x"}]},
         "rule_id"),
        ({"rule_id": "r", "levels": []}, "levels"),
        ({"rule_id": "r", "levels": [{"min_sensors": 1, "severity": "x"}]},
         "min_sensors"),
        ({"rule_id": "r", "levels": [{"min_sensors": 2, "severity": ""}]},
         "severity"),
        ({"rule_id": "r", "levels": [{"min_sensors": 2, "severity": "a"},
                                     {"min_sensors": 2, "severity": "b"}]},
         "distinct"),
        ({"rule_id": "r", "event_types": ["exploded"],
          "levels": [{"min_sensors": 2, "severity": "x"}]}, "unknown event"),
    ])
    def test_invalid_rules_rejected(self, payload, match):
        with pytest.raises(RuleError, match=match):
            validate_rule("tiny", payload)

    def test_match_level_picks_highest_severity(self):
        rule = validate_rule("tiny", {
            "rule_id": "ladder", "event_types": ["new"],
            "levels": [{"min_sensors": 2, "severity": "info"},
                       {"min_sensors": 3, "severity": "critical"}],
        })
        event = {"type": "new", "cap": {"sensors": ["a", "b", "c"],
                                        "attributes": ["temperature"]}}
        assert match_level(rule, event)["severity"] == "critical"
        event["cap"]["sensors"] = ["a", "b"]
        assert match_level(rule, event)["severity"] == "info"
        event["type"] = "retired"
        assert match_level(rule, event) is None

    def test_attribute_filter(self):
        rule = validate_rule("tiny", {
            "rule_id": "temp", "attribute": "temperature",
            "levels": [{"min_sensors": 2, "severity": "warn"}],
        })
        event = {"type": "new", "cap": {"sensors": ["a", "b"],
                                        "attributes": ["humidity"]}}
        assert match_level(rule, event) is None
        event["cap"]["attributes"] = ["humidity", "temperature"]
        assert match_level(rule, event)["severity"] == "warn"

    def test_evaluate_rules_is_deterministic_and_addressed(self):
        rule = validate_rule("tiny", {
            "rule_id": "r1", "levels": [{"min_sensors": 2, "severity": "warn"}],
        })
        event = {"event_id": "ev-abc", "dataset": "tiny", "type": "new",
                 "epoch": 2, "seq": 5,
                 "cap": {"sensors": ["a", "b"], "attributes": ["temperature"]}}
        alerts = evaluate_rules([rule], [event])
        assert [a["alert_id"] for a in alerts] == ["r1:ev-abc"]
        assert alerts[0]["severity"] == "warn" and alerts[0]["num_sensors"] == 2


class TestStreamSession:
    def session(self, db, dataset, params):
        return StreamSession(db, dataset, params, cache_key(dataset.name, params))

    def test_epoch_zero_baseline_emits_no_events(self, tiny_dataset):
        db = Database()
        session = self.session(db, tiny_dataset, make_params())
        assert session.mined_epoch == 0 and session.next_seq == 1
        assert [c["sensors"] for c in session.caps] == [["a", "b"]]
        assert read_events(db, "tiny") == []

    def test_epochs_mine_incrementally_and_feed_monotone(self, tiny_dataset):
        db = Database()
        params = make_params()
        session = self.session(db, tiny_dataset, params)
        levels = start_levels(tiny_dataset)
        # Epoch 1: a+b co-jump -> their CAP extends.
        append_batch(db, tiny_dataset, next_batch(tiny_dataset, db, levels, {"a", "b"}))
        events, _ = session.process_epoch(1)
        assert [(e["type"], e["cap"]["sensors"], e["seq"]) for e in events] == [
            ("extended", ["a", "b"], 1)
        ]
        # Epoch 2: c+d reach min_support -> a new CAP.
        append_batch(db, tiny_dataset, next_batch(tiny_dataset, db, levels, {"c", "d"}))
        events, _ = session.process_epoch(2)
        assert [(e["type"], e["cap"]["sensors"], e["seq"]) for e in events] == [
            ("new", ["c", "d"], 2)
        ]
        # Epoch 3: flat batch -> no affected components, no events.
        append_batch(db, tiny_dataset, next_batch(tiny_dataset, db, levels, set()))
        events, _ = session.process_epoch(3)
        assert events == [] and session.mined_epoch == 3
        feed = read_events(db, "tiny")
        assert [e["seq"] for e in feed] == [1, 2]

    def test_out_of_order_epoch_rejected(self, tiny_dataset):
        db = Database()
        session = self.session(db, tiny_dataset, make_params())
        levels = start_levels(tiny_dataset)
        append_batch(db, tiny_dataset, next_batch(tiny_dataset, db, levels, set()))
        with pytest.raises(ValueError, match="out of order"):
            session.process_epoch(2)

    def test_crash_replay_duplicates_nothing(self, tiny_dataset):
        """Replaying an epoch re-inserts neither events nor alerts.

        An epoch's events, alerts and state advance commit as one section,
        so a session that resumes after a crash starts past every epoch
        that committed, and a stale session that re-processes one (it was
        built before the commit, e.g. on a worker that lost its claim)
        loses the compare-and-set on ``mined_epoch`` and writes nothing.
        """
        db = Database()
        params = make_params()
        db.collection(ALERT_RULES).insert_one(
            validate_rule("tiny", {
                "rule_id": "pair",
                "levels": [{"min_sensors": 2, "severity": "warning"}],
            })
        )
        session = self.session(db, tiny_dataset, params)
        stale = self.session(db, tiny_dataset, params)
        levels = start_levels(tiny_dataset)
        append_batch(db, tiny_dataset, next_batch(tiny_dataset, db, levels, {"a", "b"}))
        events, fired = session.process_epoch(1)
        assert len(events) == 1 and len(fired) == 1
        with pytest.raises(MiningCancelled, match="already committed"):
            stale.process_epoch(1)
        resumed = self.session(db, tiny_dataset, params)
        assert resumed.mined_epoch == 1 and list(resumed.pending_epochs()) == []
        assert len(db.collection(CAP_EVENTS).find({"dataset": "tiny"})) == 1
        assert len(db.collection("alerts").find({"dataset": "tiny"})) == 1

    def test_two_sessions_commit_an_epoch_exactly_once(self, tiny_dataset, tmp_path):
        """Two sessions on two handles of one WAL store race every epoch:
        exactly one commits each, the loser raises and writes nothing, and
        the feed stays gap-free and exactly-once."""
        path = tmp_path / "db.json"
        dbs = [Database(path), Database(path)]
        params = make_params()
        dbs[0].collection(ALERT_RULES).insert_one(
            validate_rule("tiny", {
                "rule_id": "pair",
                "levels": [{"min_sensors": 2, "severity": "warning"}],
            })
        )
        levels = start_levels(tiny_dataset)
        for epoch, jumps in enumerate(({"a", "b"}, {"c", "d"}, set()), start=1):
            sessions = [self.session(db, tiny_dataset, params) for db in dbs]
            append_batch(dbs[0], tiny_dataset,
                         next_batch(tiny_dataset, dbs[0], levels, jumps))
            dbs[1].refresh()
            barrier = threading.Barrier(2)
            outcomes: list = [None, None]

            def race(index: int) -> None:
                barrier.wait()
                try:
                    outcomes[index] = sessions[index].process_epoch(epoch)
                except MiningCancelled as error:
                    outcomes[index] = error

            threads = [threading.Thread(target=race, args=(i,)) for i in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            won = [o for o in outcomes if not isinstance(o, MiningCancelled)]
            assert len(won) == 1, outcomes
            for db in dbs:
                db.refresh()
                assert db.collection(STREAM_STATE).find_one({"name": "tiny"})[
                    "mined_epoch"] == epoch
        for db in (*dbs, Database(path)):
            db.refresh()
            feed = read_events(db, "tiny")
            assert [e["seq"] for e in feed] == [1, 2]
            assert len({e["event_id"] for e in feed}) == 2
            assert len(db.collection("alerts").find({"dataset": "tiny"})) == 2

    def test_new_session_resumes_from_high_water_mark(self, tiny_dataset):
        db = Database()
        params = make_params()
        first = self.session(db, tiny_dataset, params)
        levels = start_levels(tiny_dataset)
        append_batch(db, tiny_dataset, next_batch(tiny_dataset, db, levels, {"a", "b"}))
        first.process_epoch(1)
        resumed = self.session(db, tiny_dataset, params)
        assert resumed.mined_epoch == 1 and resumed.next_seq == first.next_seq
        assert resumed.caps == first.caps
        append_batch(db, tiny_dataset, next_batch(tiny_dataset, db, levels, {"c", "d"}))
        events, _ = resumed.process_epoch(2)
        assert [e["seq"] for e in events] == [2]


class TestStreamMetrics:
    def test_counters_and_lag_gauge_exposed(self, tiny_dataset):
        from repro.obs.metrics import get_registry

        db = Database()
        levels = start_levels(tiny_dataset)
        append_batch(db, tiny_dataset, next_batch(tiny_dataset, db, levels, set()))
        rendered = get_registry().render()
        assert "repro_stream_batches_total" in rendered
        assert "repro_stream_lag_seconds" in rendered
        assert "repro_alerts_fired_total" in rendered
