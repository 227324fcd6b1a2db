"""CSV/manifest emission: schema lines, byte-stable floats, JSON coercion."""

from __future__ import annotations

import json

import numpy as np
import pytest

from hugint.output import format_cell, write_csv, write_manifest
from oracles import read_csv, write_csv_reference


def test_format_cell_types():
    """Every cell type of the writer test's mixed rows, whose reference
    writer formats with ``format_cell`` itself."""
    assert format_cell(0.1) == repr(0.1)
    assert format_cell(np.float64(0.1)) == repr(0.1)  # no numpy repr leakage
    assert format_cell(np.float32(0.1)) == repr(float(np.float32(0.1)))
    assert format_cell(np.int64(3)) == "3"
    assert format_cell(np.int64(-3)) == "-3"
    assert format_cell(7) == "7"
    assert format_cell(True) == "1" and format_cell(False) == "0"
    assert format_cell(None) == ""
    assert format_cell("kind") == "kind"
    assert [format_cell(x) for x in (-0.0, np.nan, np.inf, -np.inf, 5e-324, 2.0**70)] == [
        "-0.0", "nan", "inf", "-inf", "5e-324", "1.1805916207174113e+21"
    ]
    assert [format_cell(np.float64(x)) for x in (-0.0, np.nan)] == ["-0.0", "nan"]


def test_csv_roundtrip(tmp_path):
    path = str(tmp_path / "data.csv")
    rows = [(0, 0.1, "rotation"), (1, 1.0 / 3.0, "libration")]
    write_csv(path, "demo/1", ["k", "value", "kind"], rows)
    schema, header, got = read_csv(path)
    assert schema == "demo/1"
    assert header == ["k", "value", "kind"]
    assert got == [["0", repr(0.1), "rotation"], ["1", repr(1.0 / 3.0), "libration"]]
    # repr round-trips exactly
    assert float(got[1][1]) == 1.0 / 3.0


def test_csv_write_is_byte_stable(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    rows = [(i, np.sqrt(i + 0.5)) for i in range(20)]
    write_csv(a, "demo/1", ["i", "x"], rows)
    write_csv(b, "demo/1", ["i", "x"], rows)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_write_csv_gives_the_bytes_of_the_cell_by_cell_writer(tmp_path):
    """Python floats take ``repr`` directly and every other cell
    ``format_cell``; the bytes must be those of the reference writer, which
    formats each cell with ``format_cell`` (pinned by
    :func:`test_format_cell_types`), on rows mixing every cell type the experiments
    write, numpy scalars and special floats among them, and on the Python
    floats of ``tolist()`` against the array rows they came from."""
    scales = 10.0 ** np.arange(-200, 200, 8)  # 50 rows, from 1e-200 to 1e192
    states = np.random.default_rng(4).standard_normal((50, 3)) * scales[:, None]
    cases = {
        "mixed": [
            (np.float64(0.1), 0.1, -0.0, np.nan, np.inf, -np.inf),
            (np.float32(0.1), np.int64(-3), 7, True, False, None),
            ("kind", None, np.float64(-0.0), np.float64(np.nan), 5e-324, 2.0**70),
            (),
        ],
        "tolist": [(i, *state) for i, state in enumerate(states.tolist())],
        "array-rows": [(i, *state) for i, state in enumerate(states)],
        "empty": [],
    }
    for name, rows in cases.items():
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}-reference.csv"
        write_csv(str(got), "demo/1", ["a", "b", "c", "d", "e", "f"], iter(rows))
        write_csv_reference(str(want), "demo/1", ["a", "b", "c", "d", "e", "f"], iter(rows))
        assert got.read_bytes() == want.read_bytes(), name
    assert (tmp_path / "tolist.csv").read_bytes() == (tmp_path / "array-rows.csv").read_bytes()


def test_read_csv_requires_schema_line(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_csv(str(path))


def test_manifest_contents(tmp_path):
    path = str(tmp_path / "run.manifest.json")
    write_manifest(
        path,
        {"experiment": "demo", "seed": 3, "arr": np.array([1.0, 2.0]), "val": np.float64(0.25)},
        wall_time_s=0.125,
        summary={"count": np.int64(4)},
    )
    payload = json.loads(open(path).read())
    assert payload["experiment"] == "demo"
    assert payload["config"]["arr"] == [1.0, 2.0]
    assert payload["config"]["val"] == 0.25
    assert payload["summary"]["count"] == 4
    assert payload["seed"] == 3
    assert "version" in payload and payload["wall_time_s"] == 0.125
    assert set(payload) == {"experiment", "config", "seed", "version", "wall_time_s", "summary"}
