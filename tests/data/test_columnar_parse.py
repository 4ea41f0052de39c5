"""The columnar upload parser against the plain row path.

``ChunkAssembler`` parses chunks straight into columns and validates them
with set and integer-code checks, falling back to the row validators only
to word the errors.  Two guards keep it identical to the row path:

* a hypothesis property over small random grids (nulls, missing rows,
  shuffled order, duplicate cells, off-grid and uneven timestamps,
  undeclared sensors, attribute mismatches, malformed lines, timestamp
  texts ``strptime`` accepts in non-canonical form, arbitrary chunk
  splits): every chunk answers the same row count or error list, and
  ``finish`` the same dataset document or error list, as
  ``read_data_csv`` rows -> ``validate_*`` -> ``assemble_dataset``;
* ``fixtures/upload_errors.json``: a dozen multi-chunk uploads with what
  the last row-parsing release answered for them, chunk by chunk, which
  this parser must reproduce byte for byte.  Accepted uploads are
  rendered in the legacy dataset document layout the fixture was recorded
  in (``tests.conftest.legacy_dataset_document``), so the comparison does
  not depend on the store's layout.  Regenerate it (only from a
  row-parsing release) with ``PYTHONPATH=src:. python
  tests/data/test_columnar_parse.py --write``.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.csv_io import ChunkAssembler, read_data_csv, read_dataset_dir
from repro.data.resample import assemble_dataset
from repro.data.schema import (
    DATA_COLUMNS,
    DataRow,
    LocationRow,
    format_time,
    parse_time,
    parse_value,
)
from repro.data.validation import (
    DatasetValidationError,
    validate_attributes,
    validate_data_rows,
    validate_locations,
    validate_timeline,
)
from tests.conftest import legacy_dataset_document

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "upload_errors.json"
HEADER = ",".join(DATA_COLUMNS)
T0 = datetime(2016, 3, 1)
HOUR = timedelta(hours=1)
SENSORS = ("s0", "s1", "s2")
ATTRIBUTES = ("temp", "light")


def _loose(when: datetime) -> str:
    """A timestamp text ``strptime`` accepts without zero padding."""
    return f"{when.year}-{when.month}-{when.day} {when.hour}:{when.minute}:{when.second}"


def _chunk(lines: list[str]) -> str:
    return "\n".join([HEADER, *lines]) + "\n"


def _locations(entries) -> list[LocationRow]:
    return [LocationRow(*entry) for entry in entries]


# -- the two paths ---------------------------------------------------------------


def _outcome(call):
    try:
        return {"value": call()}
    except DatasetValidationError as exc:
        return {"errors": exc.errors}


def columnar(chunks, locations, attributes) -> dict:
    assembler = ChunkAssembler("upload")
    answers = [_outcome(lambda: assembler.add_chunk(text)) for text in chunks]
    final = _outcome(
        lambda: legacy_dataset_document(assembler.finish(_locations(locations), attributes))
    )
    return {"chunks": answers, "finish": final}


def row_path(chunks, locations, attributes) -> dict:
    rows: list[DataRow] = []
    answers = []
    for text in chunks:
        answer = _outcome(lambda: read_data_csv(io.StringIO(text)))
        if "value" in answer:
            rows += answer["value"]
            answer = {"value": len(answer["value"])}
        answers.append(answer)
    declared = _locations(locations)

    def finish():
        errors = (
            validate_attributes(attributes)
            + validate_locations(declared, attributes)
            + validate_data_rows(rows, declared)
            + validate_timeline(rows)
        )
        if errors:
            raise DatasetValidationError(errors)
        return legacy_dataset_document(assemble_dataset("upload", rows, declared, attributes))

    return {"chunks": answers, "finish": _outcome(finish)}


def plain_rows(text: str) -> list[tuple]:
    """The row-per-record parse ``read_data_csv`` must agree with."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    rows, errors = [], []
    for lineno, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != 4:
            errors.append(f"data.csv line {lineno}: expected 4 fields, got {len(record)}")
            continue
        try:
            rows.append((record[0], record[1], parse_time(record[2]), parse_value(record[3])))
        except ValueError as exc:
            errors.append(f"data.csv line {lineno}: {exc}")
    if errors:
        raise DatasetValidationError(errors)
    return [(s, a, t, repr(v)) for s, a, t, v in rows]


# -- the property ------------------------------------------------------------------

VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-1000, 1000).map(str),
    st.sampled_from(["null", "", " null ", " 2.5 ", "nan", "1e3", "-0.0"]),
)
MUTATIONS = (
    "duplicate", "off_grid", "uneven", "undeclared", "attribute_mismatch",
    "field_count", "bad_value", "bad_time", "blank", "drop_location",
)


@st.composite
def uploads(draw):
    steps = draw(st.integers(1, 5))
    kinds = {sensor: draw(st.sampled_from(ATTRIBUTES)) for sensor in SENSORS}
    loose = draw(st.booleans())
    mutations = draw(st.sets(st.sampled_from(MUTATIONS), max_size=3))

    def stamp(when: datetime) -> str:
        return _loose(when) if loose and draw(st.booleans()) else format_time(when)

    lines = [
        f"{sensor},{kinds[sensor]},{stamp(T0 + HOUR * i)},{draw(VALUES)}"
        for sensor in SENSORS
        for i in range(steps)
        if draw(st.integers(0, 3))  # a quarter of the rows are missing
    ]
    sensor = draw(st.sampled_from(SENSORS))
    when = T0 + HOUR * draw(st.integers(0, steps - 1))
    extra = {
        "duplicate": f"{sensor},{kinds[sensor]},{stamp(when)},{draw(VALUES)}",
        "off_grid": f"{sensor},{kinds[sensor]},{format_time(when + HOUR / 2)},1",
        "uneven": f"{sensor},{kinds[sensor]},{format_time(T0 + HOUR * (steps + 1))},1",
        "undeclared": f"ghost,temp,{format_time(when)},1",
        "attribute_mismatch": f"{sensor},other,{format_time(when)},1",
        "field_count": draw(st.sampled_from(["s0,temp,1", "s0,temp,x,1,2"])),
        "bad_value": f"{sensor},{kinds[sensor]},{format_time(when)},abc",
        "bad_time": f"{sensor},{kinds[sensor]},"
        + draw(st.sampled_from(["yesterday", format_time(when) + " ", "2016-02-30 00:00:00"]))
        + ",1",
        "blank": "",
    }
    lines += [extra[m] for m in sorted(mutations) if m in extra]
    lines = draw(st.permutations(lines))
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(lines) - 1)), max_size=4)))
    bounds = [0, *(c for c in cuts if c < len(lines)), len(lines)]
    chunks = [_chunk(lines[a:b]) for a, b in zip(bounds, bounds[1:])] or [_chunk([])]
    declared = [s for s in SENSORS if not ("drop_location" in mutations and s == sensor)]
    locations = [(s, kinds[s], 43.46, -3.80) for s in declared]
    return chunks, locations, list(ATTRIBUTES)


@settings(max_examples=300, deadline=None)
@given(uploads())
def test_columnar_equals_row_path(upload):
    chunks, locations, attributes = upload
    assert columnar(chunks, locations, attributes) == row_path(chunks, locations, attributes)
    for text in chunks:
        got = _outcome(lambda: [
            (r.sensor_id, r.attribute, r.time, repr(r.value))
            for r in read_data_csv(io.StringIO(text))
        ])
        assert got == _outcome(lambda: plain_rows(text))


def test_dataset_dir_shares_the_parser(tmp_path):
    chunks, locations, attributes = FIXTURE_CASES["noncanonical_duplicates"]["input"]
    directory = tmp_path / "d"
    directory.mkdir()
    body = "".join(text.split("\n", 1)[1] for text in chunks)
    (directory / "data.csv").write_text(HEADER + "\n" + body)
    (directory / "location.csv").write_text(
        "id,attribute,lat,lon\n" + "".join(f"{s},{a},{la},{lo}\n" for s, a, la, lo in locations)
    )
    (directory / "attribute.csv").write_text("".join(a + "\n" for a in attributes))
    with pytest.raises(DatasetValidationError) as exc:
        read_dataset_dir(directory)
    expected = row_path([HEADER + "\n" + body], locations, attributes)["finish"]
    assert exc.value.errors == expected["errors"]


# -- the golden fixture --------------------------------------------------------------


def _grid(value=lambda i: f"{i}.5", time=format_time):
    """Six hourly steps of s0..s2, time-major, and their locations."""
    kinds = dict(zip(SENSORS, ("temp", "light", "temp")))
    lines = [
        f"{s},{kinds[s]},{time(T0 + HOUR * i)},{value(i)}" for i in range(6) for s in SENSORS
    ]
    locations = [(s, kinds[s], 43.46 + 0.001 * n, -3.80) for n, s in enumerate(SENSORS)]
    return lines, locations


def _split(lines, size=5):
    return [_chunk(lines[i:i + size]) for i in range(0, len(lines), size)] or [_chunk([])]


def fixture_inputs() -> dict:
    """Bad (and two good) multi-chunk uploads, deterministic."""
    cases = {}
    lines, locations = _grid()
    attributes = list(ATTRIBUTES)
    cases["undeclared_sensor"] = (
        _split(
            lines[:9]
            + ["ghost,temp,2016-03-01 02:00:00,1", "ghost,temp,2016-03-01 03:00:00,2"]
            + lines[9:]
        ),
        locations, attributes,
    )
    cases["attribute_mismatch"] = (
        _split([
            line.replace("s1,light", "s1,temp") if i % 4 == 1 else line
            for i, line in enumerate(lines)
        ]),
        locations, attributes,
    )
    cases["duplicate_cells"] = (
        _split(lines + lines[2:4] + ["s0,light,2016-03-01 01:00:00,9"], size=7),
        locations, attributes,
    )
    cases["noncanonical_duplicates"] = (
        _split(lines + [f"s2,temp,{_loose(T0 + HOUR * i)},7" for i in (0, 3)], size=4),
        locations, attributes,
    )
    cases["off_grid"] = (
        _split(lines[:10] + ["s0,temp,2016-03-01 02:30:00,4"] + lines[10:]),
        locations, attributes,
    )
    gappy = [line for line in lines if "03:00:00" not in line and "04:00:00" not in line]
    cases["uneven_steps"] = (_split(gappy, size=3), locations, attributes)
    cases["single_timestamp"] = (_split(lines[:3]), locations, attributes)
    cases["no_measurements"] = (_split([]), locations, attributes)
    cases["rejected_chunks"] = (
        [
            _chunk(lines[:5]),
            _chunk(lines[5:8] + [
                "s0,temp,1", "s1,light,yesterday,1", "", "s2,temp,2016-03-01 04:00:00,abc",
            ]),
            _chunk(lines[8:12] + [
                "s0,temp,2016-03-01 00:00:00 ,1", "s0,temp,2016-02-30 00:00:00,1",
            ]),
            "id,attribute,when,data\n" + "\n".join(lines[12:14]) + "\n",
            _chunk(lines[12:]),
        ],
        locations, attributes,
    )
    cases["everything_at_once"] = (
        _split(
            lines + lines[:6]
            + ["ghost,temp,2016-03-01 09:00:00,1", "s0,light,2016-03-01 07:30:00,1"],
            size=8,
        ),
        locations + [("s0", "humidity", 95.0, -3.80), ("", "temp", 0.0, 200.0)],
        ["temp", "light", "temp", " x"],
    )
    cases["loose_times_accepted"] = (
        _split(_grid(time=_loose, value=lambda i: "null" if i % 4 == 2 else f"{i}.25")[0][::-1]),
        locations, attributes,
    )
    missing = [line for n, line in enumerate(lines) if n % 5 != 2]
    cases["missing_rows_accepted"] = (_split(missing, size=4), locations, attributes)
    return cases


def _fixture_case(chunks, locations, attributes) -> dict:
    return {
        "input": [chunks, [list(entry) for entry in locations], attributes],
        "expected": columnar(chunks, locations, attributes),
    }


FIXTURE_CASES = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


@pytest.mark.parametrize("name", sorted(FIXTURE_CASES))
def test_golden_upload_errors(name):
    case = FIXTURE_CASES[name]
    chunks, locations, attributes = case["input"]
    got = columnar(chunks, locations, attributes)
    assert json.dumps(got, sort_keys=True) == json.dumps(case["expected"], sort_keys=True)
    assert got == row_path(chunks, locations, attributes)


def test_golden_fixture_covers_every_case():
    assert sorted(FIXTURE_CASES) == sorted(fixture_inputs())
    for name, (chunks, locations, attributes) in fixture_inputs().items():
        assert FIXTURE_CASES[name]["input"] == [chunks, [list(e) for e in locations], attributes]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    cases = {name: _fixture_case(*args) for name, args in fixture_inputs().items()}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
