"""Column-oriented dataset with declared analysis roles.

Values are stored as float64 arrays; missing cells are NaN. Datasets are
immutable — every operation returns a new instance — so a bootstrap
replicate can be read as row indices into one of them.
"""

from __future__ import annotations

import copy
import csv
import itertools
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyFile,
    InfiniteCell,
    LongRow,
    MissingColumn,
    NonBinaryGroup,
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

#: Rows `Dataset.level_codes` looks up at a time, so its search holds one
#: block of int64 positions, not one per row.
_SEARCH_ROWS = 10_000


def _as_role(key) -> Role:
    if isinstance(key, Role):
        return key
    try:
        return Role(str(key).lower())
    except ValueError:
        raise UnknownColumn(f"unknown role: {key!r}") from None


def normalize_roles(roles: Mapping) -> dict[Role, tuple[str, ...]]:
    out: dict[Role, tuple[str, ...]] = {}
    for key, value in roles.items():
        role = _as_role(key)
        names = (value,) if isinstance(value, str) else tuple(value)
        if role in _SINGLE_COLUMN_ROLES and len(names) != 1:
            raise UnknownColumn(f"role {role.value} takes exactly one column, got {names}")
        out[role] = names
    return out


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

    `_memo` holds what is computed from the columns, keyed by the columns
    read: a column name maps to its levels and row codes (`level_codes`), a
    column tuple to the `TriangularFactor` of its analysis sample, (tuple, q)
    and (tuple, "prevalence") to that sample's logistic fits and 0/1 check
    (`parametric`), (max_levels, outcome, group, dimension tuples…) to a
    plug-in sample's row mask and `StratumTable`. `with_roles` keeps the
    columns, so it shares the memo; `take` and `with_columns` start an empty one.
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

    def level_codes(self, name: str, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Sorted levels of a column over `rows` (a boolean mask, an index
        array or a slice), and each row's index into them.

        The levels and the indices' values are bitwise what
        ``np.unique(self.column(name)[rows], return_inverse=True)`` returns;
        the indices come in the smallest unsigned type that holds the number
        of levels of the whole column. The column's levels are found once (a
        sort, as ``np.unique`` does) and each row's code by binary search,
        `_SEARCH_ROWS` rows at a time; both are memoized, read-only, and a
        subset keeps the levels it observes. A column whose equal cells differ
        in bits (0.0 and -0.0, NaN payloads) is sorted per call instead, since
        which of them ``np.unique`` keeps depends on the rows.
        """
        if name not in self._memo:
            values = self.column(name)
            levels = np.sort(values)
            distinct = np.ones(levels.size, bool)
            np.not_equal(levels[1:], levels[:-1], out=distinct[1:])
            levels = levels[distinct]
            if levels.size and np.isnan(levels[-1]):  # NaNs sort last; keep one, the first
                levels = levels[: np.argmax(np.isnan(levels)) + 1]
                levels[-1] = values[np.isnan(values)][0]
            codes = np.empty(values.size, np.min_scalar_type(levels.size))
            for start in range(0, values.size, _SEARCH_ROWS):
                part = values[start:start + _SEARCH_ROWS]
                at = np.searchsorted(levels, part)
                if not np.array_equal(levels.view(np.int64)[at], part.view(np.int64)):
                    codes = None
                    break
                codes[start:start + _SEARCH_ROWS] = at
            for arr in (levels, codes):
                if arr is not None:
                    arr.flags.writeable = False  # handed out as they are
            self._memo[name] = (levels, codes)
        levels, codes = self._memo[name]
        if codes is None:
            subset, inverse = np.unique(self.column(name)[rows], return_inverse=True)
            return subset, inverse.astype(np.min_scalar_type(levels.size))
        codes = codes[rows]
        seen = np.bincount(codes, minlength=levels.size) > 0
        if seen.all():
            return levels, codes
        return levels[seen], (np.cumsum(seen) - 1).astype(codes.dtype)[codes]

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

#: Rows the reader tokenizes and parses at a time. Larger blocks parse no
#: faster, and the small objects a block churns stay resident: a 10k-row
#: bootstrap run peaked 1.1 MB higher with 2048-row blocks than with these.
_BLOCK_ROWS = 1536


def _parse_cell(text: str) -> float | None:
    """A cell's value: NaN if it is blank, None if it is not a number."""
    text = text.strip()
    if not text:
        return math.nan
    try:
        return float(text)
    except ValueError:
        return None


class _Irregular(Exception):
    """A block one str.split cannot cut into cells as csv.reader would."""


def _split_rows(text: str, width: int) -> tuple[list, int]:
    r"""Cells of whole lines, cut with one str.split; raises _Irregular
    unless csv.reader would cut them the same way.

    Each line end becomes a "\n" cell of its own, so column j is
    ``cells[j::width + 1]``. The cut is csv.reader's only if the lines hold
    no quote and no line end of another kind (a lone CR, or LF among CRLF),
    and every "\n" cell sits where a row of `width` cells ends. A blank line
    in a one-column file passes that test, so it is refused on its own.
    """
    sep = "\r\n" if "\r" in text else "\n"
    body = text[:-len(sep)] if text.endswith(sep) else text
    joined = body.replace(sep, ",\n,")
    rows = (len(joined) - len(body)) // (3 - len(sep)) + 1
    cells = joined.split(",")
    stride = width + 1
    if ('"' in joined or "\r" in joined or joined.count("\n") != rows - 1
            or len(cells) != rows * stride - 1 or cells[width::stride].count("\n") != rows - 1
            or (width == 1 and "" in cells)):
        raise _Irregular
    return cells, stride


def _split_blocks(fh):
    """The header, then (cells, stride, short rows) per block, read with one
    str.split per block; raises _Irregular at anything else."""
    line = fh.readline()
    if not line.endswith("\n") or '"' in line or not line.rstrip("\r\n"):
        raise _Irregular
    header = line.rstrip("\r\n").split(",")
    yield header
    for lines in iter(lambda: list(itertools.islice(fh, _BLOCK_ROWS)), []):
        yield *_split_rows("".join(lines), len(header)), 0


def _csv_blocks(fh, path):
    """The header, then (cells, stride, short rows) per block, tokenized by
    csv.reader: blank lines are skipped, a short row is padded with blank
    cells, and a long row is refused."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        return
    yield header
    width = len(header)
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
            yield cells, width, short
            cells, short = [], 0
    if cells:
        yield cells, width, short


class _Column:
    """One column's parsed blocks, and how many of its cells are not numbers."""

    def __init__(self):
        self.blocks: list[np.ndarray] = []
        self.unparsed = 0

    def add(self, cells: list) -> None:
        try:  # "nan" reads as a blank cell does, so blanks keep the block in C
            self.blocks.append(np.fromiter(map(float, [text or "nan" for text in cells]),
                                           float, len(cells)))
        except ValueError:  # padded or junk cells: parse this block cell by cell
            values = list(map(_parse_cell, cells))
            self.unparsed += values.count(None)
            self.blocks.append(np.array(values, dtype=float))  # None reads as NaN


def _read_csv(path) -> tuple[dict[str, np.ndarray], dict[str, int], int]:
    """The columns of a CSV by header name, how many cells of each are not
    numbers, and how many rows are shorter than the header.

    Blocks are cut with one str.split each; if any block holds a quote, a
    lone CR, a blank line or a row of another width, csv.reader tokenizes the
    whole file instead. Both feed the same column-wise parse.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            return _parse_blocks(_split_blocks(fh), path)
        except _Irregular:
            fh.seek(0)
            limit = csv.field_size_limit(2**31 - 1)  # a cell of any length, as str.split reads it
            try:
                return _parse_blocks(_csv_blocks(fh, path), path)
            finally:
                csv.field_size_limit(limit)


def _parse_blocks(blocks, path):
    """`_read_csv`'s result from a header and blocks of cells.

    Each block is parsed into one float array per column, and its cells
    dropped, before the next block is cut; then each column's arrays are
    joined and dropped before the next column is joined. So the reader holds
    the parsed file about once, plus one column and one block's cells.
    """
    try:
        header = [h.strip() for h in next(blocks)]
    except StopIteration:
        raise EmptyFile(f"{path}: no header row") from None
    repeated = next((name for i, name in enumerate(header) if name in header[:i]), None)
    if repeated is not None:
        raise RepeatedColumn(f"{path}: the header names column {repeated!r} more than once")
    parsed = [_Column() for _ in header]
    short = 0
    for cells, stride, block_short in blocks:
        short += block_short
        for j, column in enumerate(parsed):
            column.add(cells[j::stride])
        del cells  # not held while the next block is cut
    if not parsed or not parsed[0].blocks:
        raise EmptyFile(f"{path}: header but no data rows")
    columns, unparsed = {}, {}
    for name, column in zip(header, parsed):
        columns[name] = values = np.concatenate(column.blocks)
        column.blocks.clear()  # so the file is held about once, plus one column
        values.flags.writeable = False  # owned and frozen, so Dataset keeps it
        unparsed[name] = column.unparsed
    return columns, unparsed, short


def load_csv(path, role_declarations: Mapping | None = None) -> Dataset:
    """Read a UTF-8, comma-separated, headered CSV into a Dataset.

    Blank cells become missing (NaN). So do cells that are not numbers and
    the cells a row shorter than the header lacks; if there are any, an
    `UnreadCells` warning carries their counts. A row longer than the header,
    or a header naming a column twice, is refused. The group column, if bound,
    must be strictly 0/1 with no missing cells, and no cell may be infinite.

    Raises
    ------
    EmptyFile, InfiniteCell, LongRow, MissingColumn, NonBinaryGroup, RepeatedColumn
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
    flat = [name for name, s in zip(columns, sd) if s == 0.0]
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
    if bins < 2:
        raise ZeroVariance("quantile binning needs at least 2 bins")
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
