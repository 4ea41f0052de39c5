"""Tests for the command-line interface."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_mine_flags(self):
        args = build_parser().parse_args(
            ["mine", "--dataset", "covid19", "--min-support", "5", "--direction-aware"]
        )
        assert args.dataset == "covid19"
        assert args.min_support == 5
        assert args.direction_aware

    def test_evolving_backend_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mine", "--evolving-backend", "bitset"])


    @pytest.mark.parametrize("value", ["0", "-0.5", "nan", "inf", "soon"])
    def test_serve_rejects_a_non_positive_worker_poll(self, value, capsys):
        """Every server runs claim loops; an interval that would stop them
        is an argparse error, raised before any server starts."""
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--port", "0", "--worker-poll", value])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "--worker-poll" in err
        assert "must be a finite number > 0" in err or "not a number" in err

    def test_serve_worker_poll_flag(self):
        args = build_parser().parse_args(["serve", "--worker-poll", "0.25"])
        assert args.worker_poll == 0.25
        assert build_parser().parse_args(["serve"]).worker_poll == 1.0


class TestInventory:
    def test_prints_all_datasets(self, capsys):
        assert main(["inventory"]) == 0
        out = capsys.readouterr().out
        for name in ("santander", "china6", "china13", "covid19"):
            assert name in out
        assert "2329936" in out  # the paper's Santander record count


class TestSchema:
    def test_prints_json_schema(self, capsys):
        assert main(["schema"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "/api/v1/results/{key}/caps" in payload["paths"]

    def test_out_then_check_round_trips(self, tmp_path, capsys):
        target = tmp_path / "API.md"
        assert main(["schema", "--out", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["schema", "--check", str(target)]) == 0
        assert "route parity OK" in capsys.readouterr().out


class TestGenerate:
    def test_writes_csv_directory(self, tmp_path, capsys):
        out = tmp_path / "csvs"
        assert main(["generate", "covid19", "--seed", "3", "--out", str(out)]) == 0
        assert (out / "data.csv").exists()
        assert (out / "location.csv").exists()
        assert (out / "attribute.csv").exists()

    def test_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["generate", "tokyo", "--out", "/tmp/x"])


class TestMine:
    def test_mines_named_dataset(self, capsys):
        assert main(["mine", "--dataset", "covid19", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "CAPs in" in out
        assert "support" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "caps.json"
        assert main(["mine", "--dataset", "covid19", "--json", str(path)]) == 0
        caps = json.loads(path.read_text())
        assert isinstance(caps, list) and caps
        assert "sensors" in caps[0]

    def test_async_watch_submits_and_polls(self, capsys):
        assert main(
            ["mine", "--dataset", "covid19", "--top", "3",
             "--async", "--watch", "--poll-interval", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "submitted job-" in out
        assert "succeeded" in out
        assert "CAPs in" in out  # the same result table as the sync path

    def test_async_matches_sync_output_table(self, capsys):
        assert main(["mine", "--dataset", "covid19", "--top", "5"]) == 0
        sync_out = capsys.readouterr().out
        assert main(["mine", "--dataset", "covid19", "--top", "5", "--async"]) == 0
        async_out = capsys.readouterr().out
        # Drop the submit banner and the timing line; the CAP table matches.
        sync_table = sync_out.splitlines()[1:]
        async_table = [
            line for line in async_out.splitlines()
            if not line.startswith("submitted ") and "CAPs in" not in line
        ]
        assert async_table == sync_table

    def test_mine_from_data_dir(self, tmp_path, capsys):
        gen_dir = tmp_path / "gen"
        main(["generate", "covid19", "--out", str(gen_dir)])
        assert main(
            ["mine", "--data-dir", str(gen_dir), "--min-support", "8",
             "--distance-threshold", "25", "--max-attributes", "4"]
        ) == 0

    def test_unknown_dataset_exits(self):
        with pytest.raises(SystemExit, match="unknown dataset"):
            main(["mine", "--dataset", "tokyo"])

    def test_parameter_override_changes_results(self, capsys):
        main(["mine", "--dataset", "covid19", "--min-support", "1000"])
        out = capsys.readouterr().out
        assert out.startswith("0 CAPs")


class TestInvalidParameters:
    """Bad mining flags exit with a message, never a traceback."""

    COMMANDS = {
        "mine": ["mine"],
        "report": ["report", "--out", "unused.html"],
        "sweep": ["sweep", "--parameter", "min_support", "--values", "2,8"],
        "compare": ["compare", "--split", "2020-01-23"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_negative_max_delay_exits(self, command):
        with pytest.raises(SystemExit, match="invalid parameters: max_delay"):
            main(self.COMMANDS[command] + ["--dataset", "covid19", "--max-delay", "-1"])

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_direction_aware_delayed_exits(self, command):
        with pytest.raises(SystemExit, match="invalid parameters: direction-aware"):
            main(self.COMMANDS[command] + [
                "--dataset", "covid19", "--direction-aware", "--max-delay", "2",
            ])


class TestReport:
    def test_writes_html(self, tmp_path, capsys):
        path = tmp_path / "r.html"
        assert main(["report", "--dataset", "covid19", "--out", str(path)]) == 0
        assert path.read_text().startswith("<!DOCTYPE html>")


class TestSweep:
    def test_prints_curve(self, capsys):
        assert main(
            ["sweep", "--dataset", "covid19", "--parameter", "min_support",
             "--values", "2,8,50"]
        ) == 0
        out = capsys.readouterr().out
        assert "min_support" in out and "caps" in out

    def test_svg_output(self, tmp_path, capsys):
        path = tmp_path / "sweep.svg"
        assert main(
            ["sweep", "--dataset", "covid19", "--parameter", "min_support",
             "--values", "2,8", "--svg", str(path)]
        ) == 0
        assert path.read_text().startswith("<svg")

    def test_bad_values(self):
        with pytest.raises(SystemExit, match="bad --values"):
            main(["sweep", "--dataset", "covid19", "--parameter", "min_support",
                  "--values", "2,x"])

    def test_unknown_parameter_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--dataset", "covid19", "--parameter", "magic",
                  "--values", "1"])


class TestCompare:
    def test_covid_split(self, capsys):
        assert main(["compare", "--dataset", "covid19", "--split", "2020-01-23"]) == 0
        out = capsys.readouterr().out
        assert "caps_before" in out
        assert "level shifts" in out

    def test_bad_date(self):
        with pytest.raises(SystemExit, match="bad --split"):
            main(["compare", "--dataset", "covid19", "--split", "someday"])


class TestStore:
    def _seed_store(self, tmp_path):
        from repro.store.database import Database

        path = tmp_path / "store.json"
        db = Database(path)
        for i in range(5):
            db["caps"].insert_one({"i": i})
        db["caps"].delete_many({"i": {"$lte": 2}})
        return path

    def _v1_store(self, tmp_path):
        fixture = Path(__file__).resolve().parent / "store" / "fixtures" / "wal_v1"
        shutil.copytree(fixture / "store.json.wal", tmp_path / "store.json.wal")
        return tmp_path / "store.json"

    def test_verify_clean_store(self, tmp_path, capsys):
        path = self._seed_store(tmp_path)
        assert main(["store", "verify", "--store", str(path)]) == 0
        out = capsys.readouterr().out
        assert "format: repro-store-wal-v3" in out
        # One log, one record per commit: 5 inserts + 1 tombstone.
        assert "journal: 6 records" in out and "[ok]" in out

    def test_verify_flags_torn_tail(self, tmp_path, capsys):
        path = self._seed_store(tmp_path)
        with open(tmp_path / "store.json.wal" / "journal", "ab") as handle:
            handle.write(b"\x01torn")
        assert main(["store", "verify", "--store", str(path)]) == 1
        assert "[TORN]" in capsys.readouterr().out

    def test_verify_refuses_an_older_layout_naming_upgrade(self, tmp_path, capsys):
        path = self._v1_store(tmp_path)
        with pytest.raises(SystemExit, match="repro-store-wal-v1") as raised:
            main(["store", "verify", "--store", str(path)])
        assert raised.value.code != 0
        assert "repro store upgrade --store" in str(raised.value.code)
        # Verifying is read-only: the store is not upgraded.
        assert not (tmp_path / "store.json.wal" / "journal").exists()
        assert main(["store", "upgrade", "--store", str(path)]) == 0
        capsys.readouterr()
        assert main(["store", "verify", "--store", str(path)]) == 0
        out = capsys.readouterr().out
        assert "format: repro-store-wal-v3" in out and "[ok]" in out

    def test_upgrade_quarantines_a_torn_v1_tail(self, tmp_path, capsys):
        path = self._v1_store(tmp_path)
        with open(tmp_path / "store.json.wal" / "jobs.log", "ab") as handle:
            handle.write(b"\x01torn")
        assert main(["store", "upgrade", "--store", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro-store-wal-v1 -> repro-store-wal-v3" in out
        sidecars = list((tmp_path / "store.json.wal").glob("jobs.log.corrupt-*"))
        assert [p.read_bytes() for p in sidecars] == [b"\x01torn"]
        assert main(["store", "verify", "--store", str(path)]) == 0
        assert "[TORN]" not in capsys.readouterr().out

    def test_upgrade_of_a_current_store_changes_nothing(self, tmp_path, capsys):
        path = self._seed_store(tmp_path)
        root = tmp_path / "store.json.wal"
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        assert main(["store", "upgrade", "--store", str(path)]) == 0
        assert "0 dataset(s), 0 result(s), 0 job(s); dropped 0 span(s)" in (
            capsys.readouterr().out
        )
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before

    def test_verify_refuses_unknown_format(self, tmp_path):
        path = self._seed_store(tmp_path)
        (tmp_path / "store.json.wal" / "FORMAT").write_text("repro-store-wal-v999\n")
        with pytest.raises(SystemExit, match="unrecognised WAL format") as raised:
            main(["store", "verify", "--store", str(path)])
        assert raised.value.code != 0

    def test_compact_rewrites_live_state(self, tmp_path, capsys):
        from repro.store.database import Database

        path = self._seed_store(tmp_path)
        assert main(["store", "compact", "--store", str(path)]) == 0
        out = capsys.readouterr().out
        assert "journal" in out and "compacted" in out
        assert [d["i"] for d in Database(path)["caps"].find()] == [3, 4]

    def test_missing_store_exits(self, tmp_path):
        for command in ("verify", "upgrade"):
            with pytest.raises(SystemExit, match="no store"):
                main(["store", command, "--store", str(tmp_path / "absent.json")])
        assert list(tmp_path.iterdir()) == []
