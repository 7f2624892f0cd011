"""The CSV reader and writer against the row-wise ones they replaced.

`oracle_load` and `oracle_write` are the row-wise reader and writer kept as
independent oracles: one Python list and one parse call per row. The
column-wise reader must match the oracle bitwise on every value, on the
counts of cells it could not read, and on the exception it raises, whether
it reads a file alone or in ranges split among forked processes; the
vectorized writer must write the oracle's bytes.
"""

import contextlib
import csv
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
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
from gapdecomp.errors import (AnalysisError, EmptyFile, InfiniteCell, LongRow, RepeatedColumn,
                             UnreadCells)


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


@contextlib.contextmanager
def read_in_ranges(cpus, block_bytes=None, fork=os.fork, range_bytes=1):
    """Ranges of `range_bytes` or more, one per CPU of `cpus`, so that even a
    small file is read in ranges, each but the first by a forked process; and, if
    given, blocks of `block_bytes`, so that lines straddle block boundaries.
    Yields the pids forked; on leaving, no process the reads started is left."""
    pids = []

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(data, "_RANGE_BYTES", range_bytes))
        stack.enter_context(mock.patch.object(data.os, "sched_getaffinity",
                                              return_value=set(range(cpus))))
        stack.enter_context(mock.patch.object(data.os, "fork", counted))
        if block_bytes is not None:
            stack.enter_context(mock.patch.object(data, "_BLOCK_BYTES", block_bytes))
        yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
@given(text=csv_texts(), block_rows=st.integers(1, 5), cpus=st.integers(1, 4),
       roles=st.sampled_from([None, {"outcome": "a"}, {"group": "b"}]))
def test_column_reader_matches_the_row_reader_bitwise(text, block_rows, cpus, roles):
    # small blocks, so rows straddle block boundaries; up to 4 ranges, so a
    # file of a few lines is cut at every line boundary
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(data, "_BLOCK_ROWS", block_rows), \
            read_in_ranges(cpus, block_bytes=8 * block_rows):
        path = Path(tmp) / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_same_reading(path, roles)


#: Files a str.split or np.loadtxt reading gets wrong unless it sends them
#: to csv.reader or cuts them cell by cell, and files whose first or last
#: range is unlike the others.
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
    "a\n1\n \n\t\n2\n",         # whitespace-only cells in a one-column file
    "a\r\n1\r\n\r\n \r\n2",
    "a,b\n1,2\n\n3,4\n",         # a blank line, which np.loadtxt skips
    "a,b\n1,2\n ,\n3,4\n",
    "\ufeffa,b\r\n1,2\r\n,4\r\n5,\r\n",  # a byte order mark with CRLF, blank cells at both ends
    "a,b\n1,2\n3,4",             # no final line end
    "a,b\n1,2\n3,",
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


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("block_rows", [1, 2, 3])
@pytest.mark.parametrize("text", NASTY, ids=short_id)
def test_irregular_files_read_as_the_row_reader_reads_them(tmp_path, text, block_rows, cpus):
    path = tmp_path / "nasty.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(data, "_BLOCK_ROWS", block_rows), \
            read_in_ranges(cpus, block_bytes=8 * block_rows):
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


@pytest.mark.parametrize("cpus", [1, 3])
def test_a_regular_file_of_many_blocks_is_cut_without_csv_reader(tmp_path, cpus):
    # junk cells in every range are counted once each, by the range that holds them
    path = tmp_path / "plain.csv"
    regular_file(path, 3 * data._BLOCK_ROWS + 17, seed=1)
    expected = outcome(oracle_load, path, None)
    with mock.patch.object(data.csv, "reader", side_effect=AssertionError("csv.reader used")), \
            read_in_ranges(cpus) as pids:
        new = outcome(new_load, path, None)
    assert new == expected and len(pids) == cpus - 1
    _, unparsed, short = new
    assert unparsed["code"] > 0 and unparsed["value"] > 0 and "small" not in unparsed
    assert short == 0


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("last, error", [
    ('"1,5",2,3', None),            # a quote: csv.reader reads the whole file
    ("1.0,2.0", None),              # a short row, padded and counted
    ("1.0,2.0,3,4", LongRow),       # a long row, refused with its line
])
def test_an_irregular_last_block_sends_the_whole_file_to_csv_reader(tmp_path, last, error, cpus):
    # with 3 CPUs, the last row is in the last range, read by a forked process
    path = tmp_path / "tail.csv"
    regular_file(path, 2 * data._BLOCK_ROWS + 5, seed=2, last=last)
    parent, parse, parsed_here = os.getpid(), data._parse_range, []

    def counted(*args):
        if os.getpid() == parent:
            parsed_here.append(args[2:])
        return parse(*args)

    with read_in_ranges(cpus) as pids, mock.patch.object(data, "_parse_range", counted):
        new = assert_same_reading(path)
    # the first range is parsed here, and nothing is parsed here again
    assert len(pids) == cpus - 1 and len(parsed_here) == 1
    if error is None:
        assert new[2] == (last == "1.0,2.0")
    else:
        assert new[0] is error and f"line {2 * data._BLOCK_ROWS + 6} has 4 cells" in new[1]


@pytest.mark.parametrize("text, error", [
    ("a,b\n" + "1,2\n" * 50, None),                   # read in 4 ranges
    ("a,b\n" + "1,2\n" * 50 + '"3",4\n', None),       # irregular: csv.reader reads it
    ("a,a\n" + "1,2\n" * 50, RepeatedColumn),         # refused before any range is read
    ("a,b\n" + "1,2\n" * 50 + "inf,4\n", InfiniteCell),  # refused after the ranges are read
])
def test_no_process_outlives_a_read(tmp_path, text, error):
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    with read_in_ranges(4) as pids:
        new = assert_same_reading(path)
    assert (new[0] is error) if error else not isinstance(new[0], type)
    assert len(pids) == (0 if error is RepeatedColumn else 3)


def test_an_interrupted_read_kills_its_workers(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("a,b\n" + "1,2\n" * 50, encoding="utf-8")
    parent, parse = os.getpid(), data._parse_range

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return parse(*args)

    with read_in_ranges(4) as pids, mock.patch.object(data, "_parse_range", interrupted), \
            pytest.raises(KeyboardInterrupt):
        load_csv(path)
    assert len(pids) == 3


@pytest.mark.parametrize("when", ["at fork", "before sending", "after sending"])
def test_a_failed_worker_sends_the_file_to_a_serial_read(tmp_path, when):
    path = tmp_path / "junk.csv"
    regular_file(path, 2_000, seed=3)
    parent, parse, exit_, parsed_here = os.getpid(), data._parse_range, os._exit, []

    def parse_or_fail(*args):
        if os.getpid() == parent:
            parsed_here.append(args[2:])
        elif when == "before sending":
            exit_(1)
        return parse(*args)

    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    fail = (mock.patch.object(data.os, "_exit", lambda code: exit_(1)) if when == "after sending"
            else contextlib.nullcontext())
    with mock.patch.object(data, "_parse_range", parse_or_fail), fail, \
            read_in_ranges(3, **({"fork": no_fork} if when == "at fork" else {})) as pids:
        new = assert_same_reading(path)
    # the first range (unless no worker started), then the whole body, read here
    assert len(pids) == (0 if when == "at fork" else 2) and new[1]["code"] > 0
    assert len(parsed_here) == (1 if when == "at fork" else 2)
    assert parsed_here[-1] == (len("code,value,small\n"), path.stat().st_size)


@pytest.mark.parametrize("cpus", [1, 4])
def test_a_read_error_is_raised_after_one_serial_retry(tmp_path, cpus):
    path = tmp_path / "in.csv"
    path.write_text("a,b\n" + "1,2\n" * 50, encoding="utf-8")
    with read_in_ranges(cpus) as pids, \
            mock.patch.object(data, "_parse_range", side_effect=OSError("disk")) as parse, \
            pytest.raises(OSError, match="disk"):
        load_csv(path)
    # in ranges, the forked processes fail too, and the body is read here once more
    assert len(pids) == cpus - 1 and parse.call_count == (1 if cpus == 1 else 2)


def test_a_warning_about_forking_does_not_reach_the_caller(tmp_path):
    # Python 3.12 and later warn when a process with live threads (a BLAS
    # pool) forks
    path = tmp_path / "in.csv"
    path.write_text("a,b\n" + "1,2\n" * 20, encoding="utf-8")
    fork = os.fork

    def warning_fork():
        warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks",
                      DeprecationWarning)
        return fork()

    with read_in_ranges(2, fork=warning_fork) as pids, warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_csv(path).n_rows == 20
    assert len(pids) == 1


def test_a_read_beside_another_python_thread_does_not_fork(tmp_path):
    # a lock the other thread held at the fork would stay held in the child
    path = tmp_path / "in.csv"
    path.write_text("a,b\n" + "1,2\n" * 50, encoding="utf-8")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with read_in_ranges(4) as pids:
            assert_same_reading(path)
    finally:
        stop.set()
        thread.join()
    assert pids == []


@pytest.mark.parametrize("text", ["a,b\n1,2\n,x\n3,4", '"a",b\r\n1,2\r\n\r\n'])
def test_a_named_pipe_reads_as_a_file_of_its_bytes_does(tmp_path, text):
    # a pipe can be read only once and in order, so csv.reader reads it
    path, fifo = tmp_path / "in.csv", tmp_path / "in.fifo"
    path.write_text(text, encoding="utf-8")
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), kwargs={"encoding": "utf-8"},
                              daemon=True)
    writer.start()
    with read_in_ranges(4, range_bytes=1) as pids:
        piped = outcome(new_load, fifo, None)
    writer.join(timeout=60)
    assert piped == outcome(oracle_load, path, None) and pids == []


def test_a_range_tries_loadtxt_no_more_after_a_refused_block(tmp_path):
    # junk in the first block: each later block is cut and parsed cell by
    # cell at once, so a file with junk in most blocks costs no more than that
    path = tmp_path / "junk.csv"
    path.write_text("a,b\nN/A,1\n" + "".join(f"{i},{i / 7!r}\n" for i in range(3_000)),
                    encoding="utf-8")
    with mock.patch.object(data.np, "loadtxt", side_effect=np.loadtxt) as loadtxt, \
            read_in_ranges(1, block_bytes=1024):
        new = assert_same_reading(path)
    assert loadtxt.call_count == 1 and new[1] == {"a": 1}


def test_the_cli_reads_a_file_past_the_range_size_in_parallel(tmp_path):
    # the child counts its forks; its report is the one a serial read gives
    import gapdecomp
    from gapdecomp.cli import main

    d = batch_cohort(60_000)
    write_csv(d, tmp_path / "cohort.csv")
    assert (tmp_path / "cohort.csv").stat().st_size > 2 * data._RANGE_BYTES
    config = {"input": str(tmp_path / "cohort.csv"),
              "bindings": {"outcome": "outcome", "group": "group", "early": ["early"],
                           "target": "target", "covariate": ["covariate"]},
              "preprocess": {"missing_indicators": ["covariate"]},
              "runs": [{"proposition": "P4", "estimator": e} for e in ("SUCCESSIVE", "PLUGIN")],
              "output": {"report": str(tmp_path / "report.json"),
                         "table": str(tmp_path / "table.txt")}}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    child = ("import os, sys; from gapdecomp.cli import main; "
             "fork, pids = os.fork, []; "
             "os.sched_getaffinity = lambda pid: {0, 1}; "
             "os.fork = lambda: pids.append(fork()) or pids[-1]; "
             "code = main(['run', sys.argv[1]]); print(len([p for p in pids if p])); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(Path(gapdecomp.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", child, str(tmp_path / "config.json")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout.splitlines()[-1] == "1"
    parallel = [(tmp_path / name).read_bytes() for name in ("report.json", "table.txt")]
    with mock.patch.object(data, "_RANGE_BYTES", 2**62):
        assert main(["run", str(tmp_path / "config.json")]) == 0
    assert parallel == [(tmp_path / name).read_bytes() for name in ("report.json", "table.txt")]
    assert json.loads(parallel[0])["dataset"]["rows"] == 60_000


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
    # column is joined, and a forked range's values are read into the joined
    # column from its pipe: beside the columns, the reader holds one column
    # and its own range's blocks, not the whole file a second time
    path = tmp_path / "batch.csv"
    write_csv(batch_cohort(200_000), path)
    with read_in_ranges(2, range_bytes=data._RANGE_BYTES) as pids:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            d = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert len(pids) == 1  # the parallel read
    assert peak <= 1.2 * sum(column.nbytes for column in d.columns.values())

