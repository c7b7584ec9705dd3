"""Every numeric-CSV reader shares one codec and therefore one set of diagnostics."""

from __future__ import annotations

import pytest

from visco_impact.analysis import EXPERIMENT_HEADER, ingest_table
from visco_impact.biphasic import load_delta0_csv
from visco_impact.cli import SWEEP_HEADER, read_csv_rows
from visco_impact.errors import ParseError
from visco_impact.models import TRAJECTORY_HEADER, Trajectory

# reader, header, two valid data rows, number of records in the result
READERS = {
    "Trajectory.from_csv": (
        Trajectory.from_csv,
        TRAJECTORY_HEADER,
        ("0,0,1,0,0", "1,0.5,0,-1,1"),
        lambda out: out.times.size,
    ),
    "read_csv_rows": (
        lambda path: read_csv_rows(path, SWEEP_HEADER),
        SWEEP_HEADER,
        ("0.1,3,0.9,1.5,1.4,1,1", "0.2,3,0.8,1.5,1.3,0.9,0.9"),
        len,
    ),
    "load_delta0_csv": (
        load_delta0_csv,
        ("t", "delta0"),
        ("0,0", "1,1e-5"),
        lambda out: out[0].size,
    ),
    "ingest_table": (
        ingest_table,
        EXPERIMENT_HEADER,
        (",".join(["1"] * 13), ",".join(["2"] * 13)),
        len,
    ),
}


def _write(tmp_path, lines):
    path = tmp_path / "table.csv"
    path.write_text("".join(line + "\n" for line in lines))
    return path


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_diagnostics(tmp_path, name):
    read, header, good, count = READERS[name]
    n = len(header)
    head = ",".join(header)

    path = _write(tmp_path, ["a,b", *good])
    with pytest.raises(ParseError, match="expected header") as err:
        read(path)
    assert "got 'a,b'" in str(err.value)
    assert "unknown column 'a'" in str(err.value)
    assert f"missing column {header[0]!r}" in str(err.value)

    path = _write(tmp_path, [head, good[0], ",".join(["1"] * (n + 1))])
    with pytest.raises(ParseError, match=f"expected {n} fields") as err:
        read(path)
    assert err.value.row == 3

    cells = good[1].split(",")
    cells[1] = "abc"
    path = _write(tmp_path, [head, good[0], ",".join(cells)])
    with pytest.raises(ParseError, match="non-numeric value 'abc'") as err:
        read(path)
    assert err.value.row == 3
    assert err.value.column == header[1]

    path = _write(tmp_path, [])
    with pytest.raises(ParseError, match="empty file"):
        read(path)

    path = _write(tmp_path, [head, "", good[0], "", "", good[1], ""])
    assert count(read(path)) == 2


def test_header_only_file_has_one_column_per_field(tmp_path):
    path = _write(tmp_path, [",".join(SWEEP_HEADER)])
    data = read_csv_rows(path, SWEEP_HEADER)
    assert data.shape == (0, len(SWEEP_HEADER))
    assert data[:, 0].size == 0


def test_header_with_known_names_reports_order_or_repeats(tmp_path):
    path = _write(tmp_path, ["delta0,t"])
    with pytest.raises(ParseError, match="columns are out of order"):
        load_delta0_csv(path)
    path = _write(tmp_path, ["t,delta0,t"])
    with pytest.raises(ParseError, match="columns are repeated"):
        load_delta0_csv(path)
