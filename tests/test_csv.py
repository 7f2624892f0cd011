"""The CSV reader and writer against the row-wise ones they replaced.

`oracle_load` and `oracle_write` are the row-wise reader and writer kept as
independent oracles: one Python list and one parse call per row. The
column-wise reader must match the oracle bitwise on every value, on the
counts of cells it could not read, and on the exception it raises; the
vectorized writer must write the oracle's bytes.
"""

import contextlib
import csv
import itertools
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import batch_cohort
from gapdecomp import Dataset, data, load_csv, write_csv
from gapdecomp.data import normalize_roles
from gapdecomp.errors import AnalysisError, EmptyFile, LongRow, RepeatedColumn, UnreadCells


# -- oracles ---------------------------------------------------------------


def oracle_cell(text):
    """(value, whether the cell holds text that is not a number)."""
    text = text.strip()
    if not text:
        return math.nan, False
    try:
        return float(text), False
    except ValueError:
        return math.nan, True


@contextlib.contextmanager
def any_cell_length():
    """csv.reader reads a cell of any length, as a cell too long for its
    default limit (131072 characters) should read: as text, not an error."""
    limit = csv.field_size_limit(2**31 - 1)
    try:
        yield
    finally:
        csv.field_size_limit(limit)


def oracle_data_line(path, index):
    """File line on which the `index`-th non-empty data row of a CSV ends."""
    with open(path, newline="", encoding="utf-8-sig") as fh, any_cell_length():
        reader = csv.reader(fh)
        next(reader)
        return next(itertools.islice((reader.line_num for row in reader if row), index, None))


def oracle_load(path, role_declarations=None):
    """Row-wise reader: (Dataset, unparsed cells per column, short rows)."""
    with open(path, newline="", encoding="utf-8-sig") as fh, any_cell_length():
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path}: no header row") from None
        header = [h.strip() for h in header]
        for i, name in enumerate(header):
            if name in header[:i]:
                raise RepeatedColumn(f"{path}: the header names column {name!r} more than once")
        rows = [[oracle_cell(cell) for cell in row] for row in reader if row]
    if not rows:
        raise EmptyFile(f"{path}: header but no data rows")
    width = len(header)
    data_ = np.full((len(rows), width), np.nan)
    bad = np.zeros(width, dtype=int)
    short = 0
    for i, row in enumerate(rows):
        if len(row) > width:
            raise LongRow(f"{path}: line {oracle_data_line(path, i)} has {len(row)} cells, "
                          f"more than the {width} columns of the header")
        short += len(row) < width
        for j, (value, unreadable) in enumerate(row):
            data_[i, j] = value
            bad[j] += unreadable
    columns = {name: data_[:, j] for j, name in enumerate(header)}
    unparsed = {name: int(count) for name, count in zip(header, bad)}
    d = Dataset(columns, normalize_roles(role_declarations or {}))
    return d, {name: count for name, count in unparsed.items() if count}, short


def oracle_write(d, path):
    """Row-wise writer: one csv.writer row per data row."""
    names = list(d.columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        arrays = [d.columns[n] for n in names]
        for i in range(d.n_rows):
            writer.writerow(["" if math.isnan(a[i]) else repr(float(a[i])) for a in arrays])


def new_load(path, role_declarations=None):
    """load_csv, with the counts read from its UnreadCells warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d = load_csv(path, role_declarations)
    unread = [w.message for w in caught if isinstance(w.message, UnreadCells)]
    assert len(caught) == len(unread) <= 1
    return (d, unread[0].unparsed, unread[0].short_rows) if unread else (d, {}, 0)


def outcome(read, path, roles):
    """What a reader makes of a file: its columns' bytes and counts, or its error."""
    try:
        d, unparsed, short = read(path, roles)
    except AnalysisError as exc:
        return type(exc), str(exc)
    return [(name, v.tobytes()) for name, v in d.columns.items()], unparsed, short


def assert_same_reading(path, roles=None):
    new = outcome(new_load, path, roles)
    assert new == outcome(oracle_load, path, roles)
    return new


# -- reader ----------------------------------------------------------------

#: Cells a survey extract may hold: numbers plain and padded, blanks, NaN,
#: signed zero, the extremes of a double, infinities and text.
PLAIN = ["", " ", "\t", "0", "1", "0.0", "1.0", " 2.5 ", "nan", "NaN", "-nan", "-0.0",
         "5e-324", "1e308", "-1e308", "inf", "-inf", "abc", "N/A", "1_0", "1e", "+3", ".5",
         "\x1c4", " 1 ", "\x0b7", "\x85", " ", "\ufeff1", "\u0661\u0662"]
#: Quoted fields: commas, line ends and quotes inside, which only csv.reader reads.
QUOTED = ['"1,5"', '"2"', '""', '"3\r\n4"', '"5\r6"', '"7\n"', '"1""2"', '" 8 "']

plain_cells = st.one_of(st.sampled_from(PLAIN), st.floats(allow_nan=False).map(repr))
any_cells = st.one_of(plain_cells, st.sampled_from(QUOTED))


@st.composite
def csv_texts(draw):
    """A CSV file's text. Each irregularity is drawn on its own, so a file
    may be regular but for one: quoted fields, ragged rows (blank, short or
    long), or line ends that mix LF and CRLF or include a lone CR."""
    width = draw(st.integers(1, 4))
    quoted, ragged = draw(st.sampled_from([False, False, True])), draw(st.sampled_from([False, False, True]))
    ends = draw(st.sampled_from([["\n"], ["\r\n"], ["\n"], ["\r\n"],
                                 ["\n", "\r\n"], ["\n", "\r"], ["\r\n", "\r"]]))
    cells = any_cells if quoted else plain_cells
    names = draw(st.lists(st.sampled_from(["a", "b", " c ", "a", '"d,e"' if quoted else "d"]),
                          min_size=width, max_size=width))
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        n = draw(st.integers(0, width + 1)) if ragged and draw(st.booleans()) else width
        rows.append(",".join(draw(st.lists(cells, min_size=n, max_size=n))))
    text = "".join(line + draw(st.sampled_from(ends)) for line in [",".join(names)] + rows)
    if draw(st.booleans()):
        text = "\ufeff" + text
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return draw(st.sampled_from([text, text, text, ""]))


@settings(max_examples=600, deadline=None)
@given(text=csv_texts(), block_rows=st.integers(1, 5),
       roles=st.sampled_from([None, {"outcome": "a"}, {"group": "b"}]))
def test_column_reader_matches_the_row_reader_bitwise(text, block_rows, roles):
    # small blocks, so rows straddle block boundaries
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(data, "_BLOCK_ROWS", block_rows):
        path = Path(tmp) / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_same_reading(path, roles)


#: Files a str.split reading gets wrong unless it sends them to csv.reader.
NASTY = [
    "a\n1\r2",                   # lone CR between two one-cell rows
    "a\n1\r2\r",
    "a,b,c\n1,2\r3,4\n",         # lone CR joining two short rows into one of full width
    "a,b\r\n1,2\n3,4\r\n",      # LF and CRLF in one block
    "a,b\r\n1,\n,2\r\n",        # a lone LF between commas in a CRLF file
    "a,b\r\n1,2\n3\r\n",         # a lone LF joining two CRLF rows into one of full width
    "a,b,c\n1,2,3,4\n5,6\n",     # a long and a short row that add up to the header's width
    "a\n1\n\n2\n",              # a blank line in a one-column file
    "a\n1\n\r\n2\n",
    'a,b\n"1,5",2\n',
    "a,b\n1,2\r",                 # a lone CR ending the file
    "\n1,2\n",                    # a blank header line
    "a,b\n\n",
    # cells longer than csv.reader's default limit, on the split and the csv.reader path
    "a,b\n1," + "x" * 200_000 + "\n",
    'a,b\n"1",' + "x" * 200_000 + "\n",
    'a,b\n"1",0.' + "0" * 140_000 + "25\n",
    "a,b\n1,0." + "0" * 140_000 + "25\n",
]


def short_id(text):
    """A long file's test id: its start and its length (None keeps pytest's own id)."""
    return f"{text[:8]}...{len(text)}chars" if len(text) > 100 else None


@pytest.mark.parametrize("block_rows", [1, 2, 3])
@pytest.mark.parametrize("text", NASTY, ids=short_id)
def test_irregular_files_read_as_the_row_reader_reads_them(tmp_path, text, block_rows):
    path = tmp_path / "nasty.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(data, "_BLOCK_ROWS", block_rows):
        assert_same_reading(path)


def regular_file(path, n, seed, last=None):
    """`n` rows of blanks, junk, 0/1 codes and continuous values; `last`, if
    given, replaces the final row."""
    rng = np.random.default_rng(seed)
    codes = rng.choice(["0.0", "1.0", "", "x"], size=n, p=[0.5, 0.48, 0.015, 0.005])
    values = [repr(v) for v in rng.normal(size=n)]
    for i in rng.choice(n, size=n // 100, replace=False):
        values[i] = rng.choice(["", " ", "N/A", " 1.5 "])
    lines = [f"{c},{v},{i % 7}" for i, (c, v) in enumerate(zip(codes, values))]
    if last is not None:
        lines[-1] = last
    path.write_text("code,value,small\n" + "\n".join(lines) + "\n", encoding="utf-8")


def test_a_regular_file_of_many_blocks_is_cut_without_csv_reader(tmp_path):
    path = tmp_path / "plain.csv"
    regular_file(path, 3 * data._BLOCK_ROWS + 17, seed=1)
    expected = outcome(oracle_load, path, None)
    with mock.patch.object(data.csv, "reader", side_effect=AssertionError("csv.reader used")):
        new = outcome(new_load, path, None)
    assert new == expected
    _, unparsed, short = new
    assert unparsed["code"] > 0 and unparsed["value"] > 0 and "small" not in unparsed
    assert short == 0


@pytest.mark.parametrize("last, error", [
    ('"1,5",2,3', None),            # a quote: csv.reader reads the whole file
    ("1.0,2.0", None),              # a short row, padded and counted
    ("1.0,2.0,3,4", LongRow),       # a long row, refused with its line
])
def test_an_irregular_last_block_sends_the_whole_file_to_csv_reader(tmp_path, last, error):
    path = tmp_path / "tail.csv"
    regular_file(path, 2 * data._BLOCK_ROWS + 5, seed=2, last=last)
    new = assert_same_reading(path)
    if error is None:
        assert new[2] == (last == "1.0,2.0")
    else:
        assert new[0] is error and f"line {2 * data._BLOCK_ROWS + 6} has 4 cells" in new[1]


def test_counts_name_each_column_and_the_short_rows(tmp_path):
    f = tmp_path / "junk.csv"
    f.write_text("y,r,x\n1.0,0,2.0\nN/A,1,abc\n2.0,1\n,0, \n", encoding="utf-8")
    with pytest.warns(UnreadCells) as caught:
        d = load_csv(f)
    (warning,) = caught
    assert warning.message.unparsed == {"y": 1, "x": 1}
    assert warning.message.short_rows == 1
    assert "2 cell(s) that are not numbers" in str(warning.message)
    assert "1 row(s) shorter than the header" in str(warning.message)
    assert np.isnan(d.column("x")[1:]).all() and np.isnan(d.column("y")[[1, 3]]).all()


@pytest.mark.parametrize("text", ["y,r, y\nabc,0,1.0\nN/A,1,2.0\n",
                                  'y,r,"y"\nabc,0,1.0\n"N/A",1,2.0\n'])
def test_a_repeated_header_name_is_refused_by_name(tmp_path, text):
    f = tmp_path / "twice.csv"
    f.write_text(text, encoding="utf-8")
    with pytest.raises(RepeatedColumn, match="column 'y' more than once"):
        load_csv(f)


@pytest.mark.parametrize("text", ['a,b\n"1",' + "x" * 200_000 + "\n", 'a,b\n"1",2,3\n', 'a,"a"\n'],
                         ids=short_id)
def test_reading_leaves_the_csv_cell_limit_as_it_found_it(tmp_path, text):
    path = tmp_path / "long.csv"
    path.write_text(text, encoding="utf-8")
    limit = csv.field_size_limit()
    with contextlib.suppress(AnalysisError), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        load_csv(path)
    assert csv.field_size_limit() == limit


@pytest.mark.parametrize("body", ["1.0,0\n2.0,1\n", '"1.0",0\n2.0,1\n'], ids=["split", "csv.reader"])
def test_a_byte_order_mark_is_not_part_of_the_first_column_name(tmp_path, body):
    f = tmp_path / "bom.csv"
    f.write_bytes(b"\xef\xbb\xbf" + ("outcome,group\n" + body).encode("utf-8"))
    d = load_csv(f, {"outcome": "outcome", "group": "group"})
    assert list(d.columns) == ["outcome", "group"]
    assert d.column("outcome").tolist() == [1.0, 2.0]


def test_blank_cells_are_missing_without_a_warning(tmp_path):
    f = tmp_path / "blank.csv"
    f.write_text("y,r\n1.0,0\n,1\n  ,0\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = load_csv(f)
    assert np.isnan(d.column("y")[1:]).all()


# -- writer ----------------------------------------------------------------

#: Doubles a writer must spell exactly: signed zero, subnormals, extremes
#: and integer-valued floats.
EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
        1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e16, 123456789.0]
values = st.one_of(st.sampled_from(EDGE), st.just(math.nan),
                   st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-10**6, 10**6).map(float))


@settings(max_examples=150, deadline=None)
@given(data_=st.data(), width=st.integers(1, 4), n=st.integers(0, 30), block_rows=st.integers(1, 7))
def test_writer_writes_the_row_writers_bytes_and_round_trips(data_, width, n, block_rows):
    names = data_.draw(st.lists(st.sampled_from(["a", "b", "c d", "e,f", 'g"h']),
                                min_size=width, max_size=width, unique=True))
    d = Dataset({name: data_.draw(st.lists(values, min_size=n, max_size=n)) for name in names})
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(data, "_BLOCK_ROWS", block_rows):
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        write_csv(d, new)
        oracle_write(d, old)
        assert new.read_bytes() == old.read_bytes()
        if n:
            back = load_csv(new)
            assert list(back.columns) == names
            for name in names:
                assert back.column(name).tobytes() == d.column(name).tobytes()


def test_the_reader_holds_the_file_about_once(tmp_path):
    # each column's parsed blocks are joined and dropped before the next
    # column is joined: beside the columns, the reader holds one column and
    # one block's cells, not the whole file a second time
    path = tmp_path / "batch.csv"
    write_csv(batch_cohort(200_000), path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        d = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * sum(column.nbytes for column in d.columns.values())

