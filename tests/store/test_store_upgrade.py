"""The runtime opens one on-disk format; ``repro store upgrade`` owns the rest.

Contracts:

* every older layout (a v1 or v2 directory, a ``repro-store-v1`` snapshot, an
  empty or unknown ``FORMAT`` marker) is refused by ``Database(path)`` and
  by ``repro serve --store`` with an error naming
  ``repro store upgrade --store <path>``, and the refusal changes no byte
  under the store: no migration, no sweep, no quarantine;
* the document decoders refuse every result and dataset document that is
  not ``"encoding": 2`` the same way;
* a second upgrade changes no byte;
* a served upload, mine and CAP page never import ``repro.store.upgrade``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache import ResultCache
from repro.core.miner import MiningResult
from repro.data.documents import dataset_from_document
from repro.store import Database, wal
from repro.store.upgrade import upgrade
from tests.conftest import write_legacy_snapshot

FIXTURES = Path(__file__).resolve().parent / "fixtures"
TESTS = Path(__file__).resolve().parents[1]
SRC_DIR = TESTS.parent / "src"
LAYOUTS = ("wal_v1", "wal_v2", "snapshot", "empty_marker", "unknown_marker")


def _older_store(tmp_path: Path, layout: str) -> Path:
    """A store in one layout the runtime does not open; returns its path."""
    path = tmp_path / "store.json"
    root = tmp_path / "store.json.wal"
    if layout in ("wal_v1", "wal_v2"):
        shutil.copytree(FIXTURES / layout / "store.json.wal", root)
    elif layout == "snapshot":
        database = Database()
        database["caps"].insert_one({"i": 1})
        write_legacy_snapshot(database, path)
    elif layout == "empty_marker":
        root.mkdir()
        (root / wal.FORMAT_MARKER).write_text("")
    else:
        Database(path)["caps"].insert_one({"i": 1})
        (root / wal.FORMAT_MARKER).write_text("repro-store-wal-v999\n")
    return path


def _digests(tmp_path: Path) -> dict[str, str]:
    """sha256 of every file under ``tmp_path``, by relative path."""
    return {
        str(path.relative_to(tmp_path)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), str(TESTS.parent), env.get("PYTHONPATH")])
    )
    env.pop(wal.FAULT_ENV, None)
    return env


@pytest.mark.parametrize("layout", LAYOUTS)
def test_runtime_refuses_an_older_layout_without_touching_a_file(tmp_path, layout):
    path = _older_store(tmp_path, layout)
    before = _digests(tmp_path)
    with pytest.raises(wal.UnknownFormatError) as raised:
        Database(path)
    assert f"repro store upgrade --store {path}" in str(raised.value)
    assert _digests(tmp_path) == before

    served = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--store", str(path),
         "--port", "0"],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert served.returncode != 0
    assert f"repro store upgrade --store {path}" in served.stderr
    assert _digests(tmp_path) == before


@pytest.mark.parametrize("layout", ("wal_v1", "wal_v2", "snapshot", "empty_marker"))
def test_a_second_upgrade_changes_no_byte(tmp_path, layout):
    path = _older_store(tmp_path, layout)
    upgrade(path)
    Database(path)  # the runtime opens it now
    after_one = _digests(tmp_path)
    assert upgrade(path) == {
        "format": wal.FORMAT_V3, "datasets": 0, "results": 0, "jobs": 0, "spans": 0,
        "shard_outputs": 0, "watermarks": 0, "alerts": 0,
    }
    assert _digests(tmp_path) == after_one


def test_decoders_refuse_every_other_document_naming_the_command():
    legacy = json.loads((TESTS / "cache" / "fixtures" / "result_document_v1.json").read_text())
    dataset = json.loads((TESTS / "data" / "fixtures" / "dataset_document_v1.json").read_text())
    for decode, document in (
        (MiningResult.from_document, legacy["result"]),
        (ResultCache.metadata, legacy),
        (dataset_from_document, dataset),
        (dataset_from_document, {**dataset, "encoding": 3}),
    ):
        with pytest.raises(ValueError, match="repro store upgrade --store"):
            decode(document)


_SERVE = """
import sys
from repro.data.datasets import recommended_parameters
from repro.data.synthetic import generate_santander
from repro.server.app import TestClient, create_app
from repro.store import Database
from tests.conftest import mine_v1, result_caps

app = create_app(Database(sys.argv[1]))
client = TestClient(app)
dataset = generate_santander(seed=2, neighbourhoods=1, steps=120)
assert client.upload_dataset(dataset, chunk_lines=1000).status == 201
mined = mine_v1(client, dataset.name, recommended_parameters("santander").to_document())
assert mined.status == 201, mined.body
assert result_caps(client, mined.json()["key"])
app.close()
print("repro.store.upgrade" in sys.modules)
"""


def test_serving_never_imports_the_upgrade(tmp_path):
    run = subprocess.run(
        [sys.executable, "-c", _SERVE, str(tmp_path / "store.json")],
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]
