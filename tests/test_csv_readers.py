"""Every numeric-CSV reader shares one codec and therefore one set of diagnostics."""

from __future__ import annotations

import csv
import io
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from visco_impact import models
from visco_impact.analysis import EXPERIMENT_HEADER, ingest_table
from visco_impact.cli import SWEEP_HEADER, main, read_csv_rows
from visco_impact.errors import ParseError
from visco_impact.models import TRAJECTORY_HEADER, Trajectory, read_numeric_csv, write_csv_rows

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
    # The shared reader on a bare two-column table; the key keeps the case's test ids.
    "load_delta0_csv": (
        lambda path: read_numeric_csv(path, ("t", "delta0")),
        ("t", "delta0"),
        ("0,0", "1,1e-5"),
        len,
    ),
    "ingest_table": (
        ingest_table,
        EXPERIMENT_HEADER,
        # A restitution in [0, 1] in each row.
        (",".join(["1"] * 13), ",".join(["2"] * 10 + ["1", "2", "2"])),
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
        read_numeric_csv(path, ("t", "delta0"))
    path = _write(tmp_path, ["t,delta0,t"])
    with pytest.raises(ParseError, match="columns are repeated"):
        read_numeric_csv(path, ("t", "delta0"))


# Edge values every float cell must survive: NaN, both infinities, -0.0,
# the smallest subnormal, a larger subnormal and the largest double; exact
# ties of the 18th significant digit, which "%" rounds to even; doubles just
# below a power of ten, where log10 picks the wrong decade; both sides of the
# switch between fixed and exponential notation; and a few plain values.
EDGE_FLOATS = (
    float("nan"),
    float("inf"),
    float("-inf"),
    -0.0,
    5e-324,
    1.5e-310,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    156981971069.828125,
    -70824773602.6796875,
    1734765231.88671875,
    1e-304,
    1e-302,
    1e-5,
    math.nextafter(1e-4, 0.0),
    1e-4,
    1e16,
    math.nextafter(1e17, 0.0),
    1e17,
    2.0**53 + 2,
    0.1,
)


def _reference_csv(header, rows) -> str:
    """The cell-by-cell format: ``csv.writer`` over ``%.17g`` strings."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["%.17g" % v for v in row])
    return out.getvalue()


def _reference_read(text: str) -> np.ndarray:
    """The cell-by-cell parse: ``csv.reader`` and ``float`` over the body."""
    reader = csv.reader(io.StringIO(text, newline=""))
    width = len(next(reader))
    rows = [list(map(float, row)) for row in reader if row]
    return np.array(rows, dtype=float).reshape(-1, width)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


@st.composite
def _float_tables(draw):
    n_rows = draw(st.sampled_from([0, 1, 2, 3, 7, 20]))
    n_cols = draw(st.integers(min_value=1, max_value=6))
    elements = st.one_of(st.floats(width=64), st.sampled_from(EDGE_FLOATS))
    return draw(arrays(np.float64, (n_rows, n_cols), elements=elements))


@given(table=_float_tables())
@settings(deadline=None, max_examples=200)
def test_block_codec_matches_cell_codec(table, tmp_path_factory):
    """Bytes out equal the cell-by-cell writer's; values back are bit-identical."""
    header = tuple(f"c{i}" for i in range(table.shape[1]))
    out = io.StringIO(newline="")
    write_csv_rows(out, header, table)
    text = out.getvalue()
    assert text == _reference_csv(header, table.tolist())

    path = tmp_path_factory.mktemp("codec") / "table.csv"
    path.write_bytes(text.encode())
    back = read_numeric_csv(path, header)
    assert back.shape == table.shape
    assert np.array_equal(_bits(back), _bits(_reference_read(text)))
    finite = ~np.isnan(table)
    assert np.array_equal(_bits(back[finite]), _bits(table[finite]))
    assert np.isnan(back[~finite]).all()


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_block_seams(tmp_path, extra):
    """Tables that end just before, on and just after a block boundary."""
    rng = np.random.default_rng(7)
    table = rng.standard_normal((2 * models._CSV_BLOCK_ROWS + extra, 5))
    table[::97, 2] = rng.choice(EDGE_FLOATS, table[::97, 2].size)
    out = io.StringIO(newline="")
    write_csv_rows(out, TRAJECTORY_HEADER, table)
    assert out.getvalue() == _reference_csv(TRAJECTORY_HEADER, table.tolist())
    path = tmp_path / "table.csv"
    path.write_bytes(out.getvalue().encode())
    assert np.array_equal(_bits(read_numeric_csv(path, TRAJECTORY_HEADER)), _bits(table))


def test_block_codec_matches_cell_codec_on_decades_and_random_bits():
    """Every power of ten with both its neighbours, and random finite bit patterns."""
    rng = np.random.default_rng(24)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    cells = np.concatenate(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), bits[np.isfinite(bits)]]
    )
    table = cells[: cells.size // 5 * 5].reshape(-1, 5)
    out = io.StringIO(newline="")
    write_csv_rows(out, TRAJECTORY_HEADER, table)
    assert out.getvalue() == _reference_csv(TRAJECTORY_HEADER, table.tolist())


@pytest.mark.parametrize(
    "body, expected",
    [
        ('"1",2\r\n', [[1.0, 2.0]]),
        ("1_0,2\n3,4\n", [[10.0, 2.0], [3.0, 4.0]]),
        ('3,4\n\n"1_0","-inf"\n', [[3.0, 4.0], [10.0, -np.inf]]),
    ],
)
def test_csv_only_syntax_is_read_as_before(tmp_path, body, expected):
    """Quoted cells and digit separators are what csv and float accept."""
    path = tmp_path / "table.csv"
    path.write_text("t,delta0\n" + body)
    assert read_numeric_csv(path, ("t", "delta0")).tolist() == expected


@pytest.mark.parametrize("width", [1, 3])
def test_uniform_wrong_width_is_reported_at_its_first_row(tmp_path, width):
    """A body that parses cleanly at the wrong width is still an error."""
    path = tmp_path / "table.csv"
    path.write_text("t,delta0\n\n" + ",".join(["1"] * width) + "\n" + ",".join(["2"] * width) + "\n")
    with pytest.raises(ParseError, match="expected 2 fields") as err:
        read_numeric_csv(path, ("t", "delta0"))
    assert err.value.row == 3


@pytest.mark.parametrize("body", ["", "\r\n", "\n\n\r\n"])
def test_header_only_file_reads_without_warnings(tmp_path, body):
    """A body with no rows has shape (0, n) and warns about nothing."""
    path = tmp_path / "table.csv"
    path.write_text(",".join(SWEEP_HEADER) + "\r\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = read_numeric_csv(path, SWEEP_HEADER)
    assert data.shape == (0, len(SWEEP_HEADER))


# Measured tracemalloc peak of to_csv: 0.59 MB at 512-row blocks, 0.80 MB
# on the first write in a process, which builds the formatter's tables.
# Formatting the whole table at once would add about 1100 bytes per row
# (110 MB at 1e5 rows).
_BLOCK_ALLOWANCE = 2e6


def test_to_csv_memory_is_one_copy_plus_a_block():
    """Writing holds one array copy and one block of text, not the whole file.

    1e5 rows keep the traced run near 1 s; the allowance does not grow
    with the row count, which is what bounds a write at the 1e7-sample cap.
    """
    n = 100_000
    t = np.linspace(0.0, 1.0, n)
    traj = Trajectory(t, np.sin(t), np.cos(t), -np.sin(t), t * t)
    tracemalloc.start()
    try:
        traj.to_csv(os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 8 * n + _BLOCK_ALLOWANCE


# Measured tracemalloc peak of to_csv with no copy of the samples: 0.59 MB
# at 512-row blocks, the same at 2e4 and 2e5 rows; 0.80 MB on the first
# write in a process, which builds the formatter's tables.
_ONE_BLOCK_BUDGET = 1e6


def test_to_csv_memory_does_not_grow_with_rows():
    """Blocks are stacked from the five columns: no whole-table copy is held.

    A copy of the 5e4 rows alone would take twice the budget.
    """
    n = 50_000
    t = np.linspace(0.0, 1.0, n)
    traj = Trajectory(t, np.sin(t), np.cos(t), -np.sin(t), t * t)
    tracemalloc.start()
    try:
        traj.to_csv(os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _ONE_BLOCK_BUDGET <= 5 * 8 * n / 2


@pytest.mark.parametrize("name", sorted(READERS))
@pytest.mark.parametrize("where", ["header", "body"])
def test_text_that_is_not_utf8_is_a_parse_error(tmp_path, name, where):
    read, header, good, _ = READERS[name]
    # Past the first decoded chunk, so the bad byte reaches the body readers.
    lines = [",".join(header), *good * 5000]
    if where == "header":
        lines[0] += "\xff"
    else:
        lines.append("\xff")
    path = tmp_path / "table.csv"
    path.write_bytes("".join(line + "\n" for line in lines).encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8 text"):
        read(path)


def test_cli_reports_text_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "table.csv"
    path.write_bytes(b"\xff\xfe\x00")
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text\n"
