"""Column-oriented dataset with declared analysis roles.

Values are stored as float64 arrays; missing cells are NaN. Datasets are
immutable — every operation returns a new instance — so a bootstrap
replicate can be read as row indices into one of them.
"""

from __future__ import annotations

import copy
import csv
import functools
import io
import itertools
import numbers
import os
import stat
import threading
import warnings
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyFile,
    InfiniteCell,
    InvalidSpec,
    LongRow,
    MissingColumn,
    NonBinaryGroup,
    NotUtf8,
    RepeatedColumn,
    TooFewColumns,
    UnknownColumn,
    UnreadCells,
    ZeroVariance,
)


class Role(str, Enum):
    """What a column means to the decomposition machinery."""

    OUTCOME = "outcome"
    GROUP = "group"
    COVARIATE = "covariate"
    EARLY = "early"
    TARGET = "target"
    CONFOUNDER_L = "confounder"
    MISSING_INDICATOR = "missing_indicator"


_SINGLE_COLUMN_ROLES = (Role.OUTCOME, Role.GROUP, Role.TARGET, Role.CONFOUNDER_L)


def is_integer(value) -> bool:
    """An integer that is not a bool (JSON `true` loads as Python True)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def normalize_roles(roles: Mapping) -> dict[Role, tuple[str, ...]]:
    out: dict[Role, tuple[str, ...]] = {}
    for key, value in roles.items():
        try:
            role = key if isinstance(key, Role) else Role(str(key).lower())
        except ValueError:
            raise UnknownColumn(f"unknown role: {key!r}") from None
        names = (value,) if isinstance(value, str) else tuple(value)
        if role in _SINGLE_COLUMN_ROLES and len(names) != 1:
            raise UnknownColumn(f"role {role.value} takes exactly one column, got {names}")
        out[role] = names
    return out


def memoized(memo: dict, key: tuple, build):
    """memo[key], built by `build()` and stored there on first use."""
    return memo[key] if key in memo else memo.setdefault(key, build())


@dataclass(frozen=True)
class Dataset:
    """Immutable table of float columns plus a role map.

    Parameters
    ----------
    columns : mapping of name -> 1-d float array (NaN marks missing)
    roles : mapping of Role -> ordered tuple of column names

    Columns are stored read-only. A float array that owns its data and is
    already read-only (a parent dataset's column, or a freshly indexed one
    frozen by `take`) is kept as is; any other input is copied once.
    Infinite cells are refused.

    `_memo` holds what is computed from the columns, each entry built once by
    `memoized` under a key naming its kind, then the columns it reads:
    ("rows", bound columns) their analysis sample's mask and ("sample", bound
    columns) its memo (`parametric.Sample`): ("factor", columns) R of [1,
    columns…], ("group factors", group, columns), ("logistic fit", columns,
    q), ("prevalence", columns), ("table", max_levels, roles…) a
    `StratumTable`; a bootstrap replicate's, kept apart, add
    ("cells", table key…). `with_roles` keeps the columns, so it shares the
    memo; `take` and `with_columns` start anew.
    """

    columns: Mapping[str, np.ndarray]
    roles: Mapping[Role, tuple[str, ...]] = field(default_factory=dict)
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        cols = {}
        n = None
        for name, values in dict(self.columns).items():
            arr = np.asarray(values, dtype=float)
            if arr.ndim != 1:
                raise UnknownColumn(f"column {name!r} is not 1-dimensional")
            if arr.flags.writeable or not arr.flags.owndata:
                arr = arr.copy()
                arr.flags.writeable = False
            infinite = np.isinf(arr)
            if infinite.any():
                raise InfiniteCell(
                    f"column {name!r} holds an infinite value; first bad row: "
                    f"{int(np.flatnonzero(infinite)[0])}"
                )
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise UnknownColumn(
                    f"column {name!r} has {arr.shape[0]} rows, expected {n}"
                )
            cols[name] = arr
        object.__setattr__(self, "columns", MappingProxyType(cols))
        self._bind(self.roles)

    def _bind(self, roles: Mapping) -> None:
        """Set the role map; refuse a role naming no column, a group not 0/1."""
        roles = normalize_roles(roles)
        for role, names in roles.items():
            for name in names:
                if name not in self.columns:
                    raise MissingColumn(f"role {role.value} references missing column {name!r}")
        object.__setattr__(self, "roles", MappingProxyType(roles))
        if Role.GROUP in roles:
            g = self.columns[roles[Role.GROUP][0]]
            bad = ~np.isin(g, (0.0, 1.0)) | np.isnan(g)
            if bad.any():
                raise NonBinaryGroup(
                    f"group column {roles[Role.GROUP][0]!r} must be 0/1 with no "
                    f"missing cells; first bad row: {int(np.flatnonzero(bad)[0])}"
                )

    # -- access ----------------------------------------------------------

    @property
    def n_rows(self) -> int:
        for arr in self.columns.values():
            return arr.shape[0]
        return 0

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise UnknownColumn(f"no column named {name!r}") from None

    def role_columns(self, role: Role) -> tuple[str, ...]:
        return self.roles.get(role, ())

    def single_role_column(self, role: Role) -> str:
        names = self.role_columns(role)
        if len(names) != 1:
            raise UnknownColumn(f"expected exactly one {role.value} column, have {names}")
        return names[0]

    def covariate_names(self) -> tuple[str, ...]:
        """Covariates plus missing indicators, in declaration order."""
        return self.role_columns(Role.COVARIATE) + self.role_columns(Role.MISSING_INDICATOR)

    # -- derivation ------------------------------------------------------

    def take(self, indices: np.ndarray) -> "Dataset":
        """Row subset/resample: the rows at `indices`, in their order."""
        idx = np.asarray(indices)
        cols = {k: v[idx] for k, v in self.columns.items()}
        for arr in cols.values():
            arr.flags.writeable = False  # fresh arrays, frozen rather than copied again
        return Dataset(cols, dict(self.roles))

    def with_columns(self, new: Mapping[str, np.ndarray], roles: Mapping | None = None) -> "Dataset":
        """Copy with columns added/replaced and optional extra role bindings."""
        cols = dict(self.columns)
        cols.update(new)
        merged = {role: names for role, names in self.roles.items()}
        if roles:
            for key, value in normalize_roles(roles).items():
                merged[key] = merged.get(key, ()) + tuple(
                    n for n in value if n not in merged.get(key, ())
                )
        return Dataset(cols, merged)

    def with_roles(self, roles: Mapping) -> "Dataset":
        """Copy with the role map replaced, sharing the checked columns and the memo."""
        bound = copy.copy(self)
        bound._bind(roles)
        return bound


# -- CSV ------------------------------------------------------------------

#: Rows csv.reader tokenizes, and write_csv writes, at a time (larger blocks parse no faster).
_BLOCK_ROWS = 1536
#: Bytes of whole lines parsed at a time outside csv.reader.
_BLOCK_BYTES = 1 << 16
#: Least body bytes per range: the body is read as one range per usable CPU
#: at most, every range but the first by a forked process.
_RANGE_BYTES = 1 << 20


def _counted_cell(unparsed: list[int], j: int, text: str) -> float:
    """A cell's value: NaN if it is blank, and NaN counted in unparsed[j] if it is not a number."""
    try:  # most cells are numbers, or blanks filled with "nan": one call each
        return float(text)
    except ValueError:  # float() does not strip the separators \x1c-\x1f, as str.strip() does
        try:
            return float(text.strip() or "nan")
        except ValueError:
            unparsed[j] += 1
            return np.nan


def _parse_cells(cells: list, unparsed: list[int], j: int) -> np.ndarray:
    """One column's block of cells, those not numbers counted in unparsed[j]."""
    try:  # "nan" reads as a blank cell does, so blanks keep the block in C
        return np.fromiter(map(float, [text or "nan" for text in cells]), float, len(cells))
    except ValueError:  # padded or junk cells: parse this block cell by cell
        return np.fromiter(map(functools.partial(_counted_cell, unparsed, j), cells), float, len(cells))


class _Irregular(Exception):
    """Lines that only csv.reader cuts into cells as csv.reader would."""


def _nan_filled(raw: bytes) -> str:
    """Whole lines with "nan" in every blank cell, so np.loadtxt reads each
    cell as csv.reader and float() do; a blank line stays blank. Raises
    _Irregular at a quote or a lone CR."""
    if b'"' in raw:
        raise _Irregular
    e = np.frombuffer(b"\n" + raw + b"\n", np.uint8)
    comma, cr, lf = e == ord(","), e == ord("\r"), e == ord("\n")
    if (cr[:-1] > lf[1:]).any():
        raise _Irregular
    ends = comma | cr | lf  # a blank cell lies between two ends, one of them a comma
    cuts = [0, *np.flatnonzero(comma[:-1] & ends[1:] | ends[:-1] & comma[1:]).tolist(), len(raw)]
    return b"nan".join([raw[i:j] for i, j in zip(cuts, cuts[1:])]).decode()


def _loadtxt(lines: list[str], converters=None) -> np.ndarray | None:
    """np.loadtxt of comma-separated lines, or None if it refuses them."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # blank lines alone: "input contained no data"
            return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, converters=converters)
    except ValueError:
        return None


def _parse_range(path, columns: list[np.ndarray], start: int, end: int) -> list[int]:
    """Parse the whole lines of bytes start..end into `columns`, one row per
    line and `_BLOCK_BYTES` at a time through np.loadtxt; each column's count
    of cells that are not numbers. np.loadtxt parses a number as float() does.
    Once it refuses a block (a junk or whitespace-only cell, a ragged row) or
    reads one at another shape (it skips blank lines), that block and the rest
    of the range are read with `_counted_cell` as every column's converter, so
    a file with junk in most blocks pays for no more refused attempts; a block
    the converters read at another shape too raises _Irregular."""
    width, at, fast, unparsed = len(columns), 0, True, [0] * len(columns)
    converters = {j: functools.partial(_counted_cell, unparsed, j) for j in range(width)}
    with open(path, "rb") as fh:
        fh.seek(start)
        while data := fh.read(min(_BLOCK_BYTES, end - fh.tell())):
            if not data.endswith(b"\n"):
                data += fh.readline(end - fh.tell())  # the rest of the block's last line
            text = _nan_filled(data)
            rows = text.count("\n") + (not text.endswith("\n"))
            if at + rows > columns[0].size:
                raise _Irregular  # the file changed while it was read
            values = _loadtxt(text.split("\n")) if fast else None
            fast = values is not None and values.shape == (rows, width)
            if not fast:
                values = _loadtxt(text.split("\n"), converters)
                if values is None or values.shape != (rows, width):
                    raise _Irregular
            for column, value in zip(columns, values.T):
                column[at:at + rows] = value
            at += rows
    if at != columns[0].size:
        raise _Irregular
    return unparsed


def _ranges(fh, start: int, size: int) -> list[tuple[int, int, int]]:
    """(start, end, rows) of each range of the body's whole lines, one per
    usable CPU at most, each of `_RANGE_BYTES` or more; rows counts line ends
    and a last line with none. There is one range unless os.fork exists and
    this process runs no other Python thread, which could hold a lock a
    forked process would wait on for ever."""
    k = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        k = max(1, min(len(os.sched_getaffinity(0)), (size - start) // _RANGE_BYTES))
    bounds = [start]
    for i in range(1, k):
        fh.seek(start + i * (size - start) // k - 1)
        fh.readline()
        if bounds[-1] < fh.tell() < size:
            bounds.append(fh.tell())
    ranges, last = [], b"\n"
    fh.seek(start)
    for begin, end in zip(bounds, bounds[1:] + [size]):
        rows = 0
        while data := fh.read(min(_BLOCK_BYTES, end - fh.tell())):
            rows, last = rows + data.count(b"\n"), data[-1:]
        ranges.append((begin, end, rows + (end == size and last != b"\n")))
    return ranges


def _fork_range(path, width: int, start: int, end: int, rows: int) -> tuple:
    """(pid, pipe file) of a process that parses the range start..end and then
    writes to the pipe each column's unparsed cells (int64), then each column;
    if the range is irregular it writes nothing and exits 2. It parses before
    it writes, so it never waits on the reader mid-parse, and it ends in
    os._exit, so it flushes no output and runs no exit hook of the process it
    was forked from."""
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # forking a threaded process
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            columns = [np.empty(rows) for _ in range(width)]
            unparsed = _parse_range(path, columns, start, end)
            with open(w, "wb") as out:
                for array in (np.array(unparsed, np.int64), *columns):
                    out.write(array)
            code = 0
        except (_Irregular, UnicodeDecodeError):
            code = 2
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _receive(pipe, values: np.ndarray) -> None:
    """Fill `values` with the next bytes of a worker's pipe."""
    if pipe.readinto(memoryview(values).cast("B")) != values.nbytes:
        raise EOFError


def _reap(workers: list, kill: bool) -> set[int]:
    """Wait for each worker, killed first if `kill`, and close its pipe;
    their exit codes, -9 for one killed before it exited."""
    codes = set()
    while workers:
        pid, pipe = workers[-1]
        if kill:
            os.kill(pid, 9)  # SIGKILL; importing signal costs a process about 0.1 MB
        codes.add(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        pipe.close()
        workers.pop()
    return codes


def _read_ranges(path, width: int, ranges: list) -> tuple[list[np.ndarray], list[int]]:
    """Each column, frozen, and its unparsed cells: the first of `_ranges`
    parsed here into the columns, each other by a forked process and read
    from its pipe into them, a column at a time; raises _Irregular if any
    range is. Every worker is reaped before this returns, killed first unless
    it sent all it had. If one fails, the body is read again here alone,
    which gives the same values and counts."""
    ends = list(itertools.accumulate(rows for *_, rows in ranges))
    columns, workers, codes = [np.empty(ends[-1]) for _ in range(width)], [], {1}
    try:
        for start, end, rows in ranges[1:]:
            workers.append(_fork_range(path, width, start, end, rows))
        unparsed = [_parse_range(path, [column[:ends[0]] for column in columns], *ranges[0][:2])]
        for _, pipe in workers:
            unparsed.append(np.empty(width, np.int64))
            _receive(pipe, unparsed[-1])
        for column in columns:
            for (_, pipe), begin, end in zip(workers, ends, ends[1:]):
                _receive(pipe, column[begin:end])
            column.flags.writeable = False  # owned and frozen, so Dataset keeps it
        codes = _reap(workers, kill=False)
    except (OSError, EOFError):  # a worker not forked, or ended before it sent all
        if len(ranges) == 1:
            raise
    finally:
        codes |= _reap(workers, kill=True)
    if codes <= {0}:
        return columns, np.sum(unparsed, axis=0).tolist()
    if 2 in codes:
        raise _Irregular
    return _read_ranges(path, width, [(ranges[0][0], ranges[-1][1], ends[-1])])


def _csv_blocks(reader, width: int, path):
    """(cells, short rows) per block of the rows left in a csv.reader: blank
    lines are skipped, a short row is padded with blank cells, and a long row
    is refused."""
    cells, short = [], 0
    for row in reader:
        if len(row) != width:
            if not row:
                continue
            if len(row) > width:
                raise LongRow(f"{path}: line {reader.line_num} has {len(row)} cells, "
                              f"more than the {width} columns of the header")
            short += 1
            row += [""] * (width - len(row))
        cells += row
        if len(cells) == _BLOCK_ROWS * width:
            yield cells, short
            cells, short = [], 0
    if cells:
        yield cells, short


def _header(names, path) -> list[str]:
    """The column names, stripped; refuses a missing header or a repeated name."""
    if names is None:
        raise EmptyFile(f"{path}: no header row")
    header = [h.strip() for h in names]
    repeated = next((name for i, name in enumerate(header) if name in header[:i]), None)
    if repeated is not None:
        raise RepeatedColumn(f"{path}: the header names column {repeated!r} more than once")
    return header


class _Counted(io.BufferedReader):
    """A binary file that counts the bytes `read1` hands out: TextIOWrapper reads by it."""
    handed = 0

    def read1(self, size=-1):
        data = super().read1(size)
        self.handed += len(data)
        return data


def _read_rows(fh: _Counted, path) -> tuple[list[str], list[np.ndarray], list[int], int]:
    """`_read_csv`'s header, columns, unparsed cells and short rows, with the
    binary file `fh` tokenized by csv.reader from where it stands. Each
    column's blocks are joined and dropped before the next column's, so the
    file is held about once, plus one column."""
    limit = csv.field_size_limit(2**31 - 1)  # a cell of any length, as np.loadtxt reads it
    try:
        with io.TextIOWrapper(fh, encoding="utf-8-sig", newline="") as text:
            reader = csv.reader(text)
            header = _header(next(reader, None), path)
            parsed, unparsed, short = [[] for _ in header], [0] * len(header), 0
            for cells, block_short in _csv_blocks(reader, len(header), path):
                short += block_short
                for j, column in enumerate(parsed):
                    column.append(_parse_cells(cells[j::len(header)], unparsed, j))
                del cells  # not held while the next block is cut
    except UnicodeDecodeError as err:  # err.object ends at the last byte handed out
        raise NotUtf8(f"byte {fh.handed - len(err.object) + err.start} is not UTF-8") from None
    finally:
        csv.field_size_limit(limit)
    columns = []
    for column in parsed:
        columns.append(np.concatenate(column or [np.empty(0)]))
        column.clear()
        columns[-1].flags.writeable = False
    return header, columns, unparsed, short


def _read_csv(path) -> tuple[dict[str, np.ndarray], dict[str, int], int]:
    """The columns of a CSV by header name, how many cells of each are not
    numbers, and how many rows are shorter than the header.

    The body of a regular file, less its blank last lines, is read in
    `_ranges`. If the header leaves a quote open, if a quote, a lone CR, a
    blank line, a row of another width or a byte that is not UTF-8 shows in
    any, and for a pipe, which can be read only once and in order, csv.reader
    tokenizes the whole file instead (`_read_rows`).
    """
    with _Counted(io.FileIO(path)) as fh:
        info = os.fstat(fh.fileno())
        line = fh.readline() if stat.S_ISREG(info.st_mode) else b""
        try:
            names = next(csv.reader([line[:-1].removesuffix(b"\r").decode("utf-8-sig")], strict=True))
            if not line.endswith(b"\n") or not names:
                raise _Irregular
            header = _header(names, path)
            body = fh.tell()
            at = fh.seek(max(body, info.st_size - _BLOCK_BYTES))
            tail = fh.read(_BLOCK_BYTES)  # blank last lines are cut, as csv.reader skips them
            cut = tail.find(b"\n", len(tail.rstrip(b"\r\n")))
            end = info.st_size if cut < 0 else at + cut + 1
            columns, unparsed = _read_ranges(path, len(header), _ranges(fh, body, end))
            short = 0
        except (_Irregular, csv.Error, UnicodeDecodeError):  # csv.Error: a header's open quote, lone CR
            if line:
                fh.seek(0)
            header, columns, unparsed, short = _read_rows(fh, path)
    if not columns or not columns[0].size:
        raise EmptyFile(f"{path}: header but no data rows")
    return dict(zip(header, columns)), dict(zip(header, unparsed)), short


def load_csv(path, role_declarations: Mapping | None = None) -> Dataset:
    """Read a UTF-8, comma-separated, headered CSV into a Dataset.

    Blank cells become missing (NaN). So do cells that are not numbers and
    the cells a row shorter than the header lacks; if there are any, an
    `UnreadCells` warning carries their counts. A row longer than the header,
    or a header naming a column twice, is refused. The group column, if bound,
    must be strictly 0/1 with no missing cells, and no cell may be infinite.

    Raises
    ------
    EmptyFile, InfiniteCell, LongRow, MissingColumn, NonBinaryGroup, NotUtf8, RepeatedColumn
    """
    columns, unparsed, short_rows = _read_csv(path)
    d = Dataset(columns, normalize_roles(role_declarations or {}))
    if short_rows or any(unparsed.values()):
        warnings.warn(UnreadCells(path, unparsed, short_rows), stacklevel=2)
    return d


def write_csv(d: Dataset, path) -> None:
    """Write a Dataset back to CSV; round-trips finite values bit-exactly.

    Floats are serialized with repr(), which is the shortest string that
    parses back to the same double. Missing cells become empty strings, as
    csv.writer writes them: a row of one empty cell is written as ``""``.
    """
    names = list(d.columns)
    empty = '""' if len(names) == 1 else ""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(names)
        for start in range(0, d.n_rows, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            texts = [[empty if x != x else repr(x) for x in d.columns[n][rows].tolist()] for n in names]
            fh.write("".join(map("{}\r\n".format, map(",".join, zip(*texts)))))


# -- preprocessing ---------------------------------------------------------


def add_missing_indicators(d: Dataset, columns: Sequence[str], fill: float = 0.0) -> Dataset:
    """Replace missing cells by `fill` and append 0/1 indicators.

    For each named column ``c`` a new column ``c_miss`` is appended
    (1 = the cell was missing) with role MISSING_INDICATOR, and missing
    cells of ``c`` are replaced by ``fill``. Non-missing cells are untouched.
    """
    new: dict[str, np.ndarray] = {}
    indicator_names = []
    for name in columns:
        values = d.column(name)
        indicator_name = f"{name}_miss"
        if indicator_name in d.columns or indicator_name in new:
            raise UnknownColumn(f"indicator column {indicator_name!r} already exists")
        missing = np.isnan(values)
        filled = np.where(missing, fill, values)
        new[name] = filled
        new[indicator_name] = missing.astype(float)
        indicator_names.append(indicator_name)
    return d.with_columns(new, {Role.MISSING_INDICATOR: indicator_names})


def first_principal_component(d: Dataset, columns: Sequence[str]) -> np.ndarray:
    """Scores of the leading principal component of the standardized columns.

    Columns are centered and scaled to unit sample variance, so the
    eigendecomposition runs on their correlation matrix. The sign is fixed so
    the first listed column's loading is nonnegative; the returned scores have
    sample mean 0.

    Raises
    ------
    TooFewColumns, ZeroVariance
    """
    if len(columns) < 2:
        raise TooFewColumns("principal component needs at least two columns")
    mat = np.column_stack([d.column(name) for name in columns])
    if np.isnan(mat).any():
        raise UnknownColumn(
            "missing cells in principal-component inputs; run add_missing_indicators first"
        )
    sd = mat.std(axis=0, ddof=1)
    flat = [name for name, s in zip(columns, sd) if not s > 0.0]  # NaN: fewer than 2 rows
    if flat:
        raise ZeroVariance(f"constant column(s): {', '.join(flat)}")
    z = (mat - mat.mean(axis=0)) / sd
    corr = z.T @ z / (z.shape[0] - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(corr)
    leading = eigenvectors[:, np.argmax(eigenvalues)]
    if leading[0] < 0:
        leading = -leading
    scores = z @ leading
    return scores - scores.mean()


def quantile_bin(d: Dataset, columns: Sequence[str], bins: int = 5) -> Dataset:
    """Replace continuous columns by integer quantile-bin codes (0..k-1).

    Bin edges are interior quantiles of the non-missing values; duplicate
    edges (heavily tied data) are collapsed, so fewer than `bins` codes can
    result. Missing cells stay missing.
    """
    if not (is_integer(bins) and bins >= 2):
        raise InvalidSpec(f"quantile binning needs an integer number of bins >= 2, got {bins!r}")
    new = {}
    for name in columns:
        values = d.column(name)
        finite = values[~np.isnan(values)]
        if finite.size == 0:
            raise ZeroVariance(f"column {name!r} has no observed values to bin")
        edges = np.unique(np.quantile(finite, np.linspace(0, 1, bins + 1)[1:-1]))
        codes = np.searchsorted(edges, values, side="left").astype(float)
        codes[np.isnan(values)] = np.nan
        new[name] = codes
    return d.with_columns(new)
