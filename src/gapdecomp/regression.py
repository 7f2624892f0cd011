"""Least-squares and logistic fitting from one triangular factor.

Every least-squares fit and rank check is read off one kernel,
`TriangularFactor`: `TriangularFactor.of` reads the regressors and the
response column(s) BLOCK_ROWS (10,000) analysis rows at a time into one
Fortran-ordered block, and `fold_rows`, a left-looking, unpivoted
Householder QR, folds each block into the p×p factor R, R <- R of [R;
block], starting from R = 0 (the sequential TSQR update; Demmel, Grigori,
Hoemmen & Langou, SIAM J. Sci. Comput. 2012); `.fit` and `.check_rank` read
R. No caller holds more than one block of its sample, and every dot product
has at most 10,000 terms, which OpenBLAS sums on one thread (measured on
0.3.31; no BLAS promises it), so with that build R is the same, bit for bit,
at any BLAS thread count. A logistic fit reads its deviance, score and Gram
matrix the same way, one BLOCK_ROWS slice of its design at a time
(`_newton_terms`). Within a block, column j receives the reflectors of
columns 0..j-1 before yielding its own, so R[:, j] depends on columns 0..j
alone and R holds every nested regression: column j on columns 0..q-1 (q <=
j) solves R[:q, :q] b = R[:q, j] (nested QR, i.e. Frisch–Waugh–Lovell; Golub
& Van Loan, *Matrix Computations* §5.3). A fit read from a wider factor thus
equals `fit_ols` on its design alone, bit for bit (LAPACK's geqrf rounds
differently as the trailing block widens, as would a QR of [R; block]
stacked as a plain matrix, whose dot products run over the zero rows a wider
R carries). Rank is checked on the diagonal of each prefix used as a design,
never on a response: a small |R[i, i]| against the norm of column i names
column i as dependent on those declared before it. Downstream formulas read
named coefficients off CoefficientSet: labels, not positions, are the
contract. `WhitenedGrams` gives the factors of many bootstrap replicates of
one sample at once, as a stack that fits with a leading replicate axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset
from .errors import (InvalidSpec, NonFiniteCell, NotConverged, RankDeficient, Separation,
                     UnknownColumn)

INTERCEPT = "intercept"

_RANK_TOL = 1e-10
_MAX_ITER = 100
_COEF_TOL = 1e-10
_DEVIANCE_TOL = 1e-12
_DIVERGENCE_NORM = 1e3
#: Below this logistic deviance each row's own outcome has fitted p > 1/2: complete separation.
_SEPARATED_DEVIANCE = 2 * math.log(2)


@dataclass(frozen=True)
class DesignMatrix:
    """Dense design with unique column labels; first column is the intercept."""

    labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "labels", tuple(self.labels))
        if mat.ndim != 2 or mat.shape[1] != len(self.labels):
            raise UnknownColumn("design shape does not match its labels")
        if len(set(self.labels)) != len(self.labels):
            raise UnknownColumn("duplicate design column labels")
        if self.labels[0] != INTERCEPT or not np.all(mat[:, 0] == 1.0):
            raise UnknownColumn("first design column must be an all-ones intercept")

    @classmethod
    def from_dataset(
        cls,
        d: Dataset,
        columns: Sequence[str],
        rows: np.ndarray | None = None,
        interactions: Sequence[tuple[str, str]] = (),
    ) -> "DesignMatrix":
        """Build [1, columns..., a·b interactions...] from dataset columns.

        Interaction columns are labeled "a:b". `rows` is an optional boolean
        mask or index array selecting the analysis rows. A column listed twice
        is refused by name rather than kept once.
        """
        cols = {name: d.column(name) for name in columns}
        if len(cols) != len(columns):
            repeated = next(name for i, name in enumerate(columns) if name in columns[:i])
            raise InvalidSpec(f"column {repeated!r} is listed more than once in the design")
        if rows is not None:
            cols = {k: v[rows] for k, v in cols.items()}
        n = next(iter(cols.values())).shape[0] if cols else d.n_rows
        labels = [INTERCEPT, *cols]
        arrays = [np.ones(n), *cols.values()]
        for a, b in interactions:
            left = cols[a] if a in cols else (d.column(a) if rows is None else d.column(a)[rows])
            right = cols[b] if b in cols else (d.column(b) if rows is None else d.column(b)[rows])
            labels.append(f"{a}:{b}")
            arrays.append(left * right)
        return cls(tuple(labels), np.column_stack(arrays))


@dataclass(frozen=True)
class CoefficientSet:
    """Named coefficients from one fit plus fit diagnostics."""

    labels: tuple[str, ...]
    values: np.ndarray
    residual_variance: float | None = None
    deviance: float | None = None
    n_iter: int | None = None
    converged: bool = True
    _index: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {l: i for i, l in enumerate(self.labels)})

    def __getitem__(self, label: str):
        """The coefficient as a float; on a stack of fits, one per fit."""
        try:
            value = self.values[..., self._index[label]]
        except KeyError:
            raise UnknownColumn(f"no coefficient labeled {label!r}") from None
        return value if value.ndim else float(value)

    def as_dict(self) -> dict[str, float]:
        return {l: float(v) for l, v in zip(self.labels, self.values)}


#: Rows folded into a factor, or read by a logistic Newton pass, at a time:
#: a constant, not an option. OpenBLAS 0.3.31 runs a dot product of up to
#: 10,000 terms on one thread (10,001 did not), which keeps R and the
#: logistic sums thread-independent with that build only; other BLAS
#: builds may split sums elsewhere. A bootstrap replicate of a 10k-row sample
#: stays one block.
BLOCK_ROWS = 10_000


def stacked_columns(columns: Sequence, rows, out: np.ndarray | None = None) -> np.ndarray:
    """Fortran-ordered matrix of ``columns[j][rows]``; a scalar fills its column.

    `rows` is a boolean mask or an index array, or a slice when `out` is
    given to receive the matrix.
    """
    if out is None:
        n = int(np.count_nonzero(rows)) if rows.dtype == bool else rows.size
        out = np.empty((n, len(columns)), order="F")
    for j, col in enumerate(columns):
        if not np.ndim(col) or isinstance(rows, slice):
            out[:, j] = col[rows] if np.ndim(col) else col
        elif rows.dtype == bool:
            np.compress(rows, col, out=out[:, j])
        else:
            np.take(col, rows, out=out[:, j])
    return out


def fold_rows(r: np.ndarray, block: np.ndarray) -> None:
    """R <- R of [R; block]: one Householder QR update, R (p×p) in place.

    Reflector j is 1 at row j of R and the block's column j below it, so it
    touches only row j of R, and column j reads only R[:j+1, j], the block's
    column j and reflectors 0..j-1: R[:, j] depends on columns 0..j alone.
    The Fortran-ordered m×p ``block`` is overwritten with the reflectors.
    """
    tau = np.zeros(r.shape[0])
    for j in range(r.shape[0]):
        col = block[:, j]
        for i in range(j):
            if tau[i]:
                s = tau[i] * (r[i, j] + np.dot(block[:, i], col))
                r[i, j] -= s
                col -= s * block[:, i]
        alpha, rest = float(r[j, j]), float(np.linalg.norm(col))
        if rest:
            r[j, j] = beta = -math.copysign(math.hypot(alpha, rest), alpha)
            tau[j] = (beta - alpha) / beta
            col *= 1.0 / (alpha - beta)


def back_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with ``r @ x = b`` for upper-triangular r, solved from the last row up;
    on a stack (..., q, q), each system alone, by a BLAS dot per row as unstacked."""
    x = np.array(b, dtype=float)
    for i in range(x.shape[-1] - 1, -1, -1):
        x[..., i] = (x[..., i] - (r[..., i : i + 1, i + 1 :] @ x[..., i + 1 :, None])[..., 0, 0]
                     ) / r[..., i, i]
    return x


def exp_neg_abs(x: np.ndarray) -> np.ndarray:
    """exp(-|x|), the one exponential of both `expit` and the binomial deviance."""
    e = np.empty_like(x)  # out= keeps a 0-d x an array
    return np.exp(np.negative(np.abs(x, out=e), out=e), out=e)


def expit(x, tail: np.ndarray | None = None) -> np.ndarray:
    """The logistic function, 1/(1 + exp(-x)), accurate in both tails.

    With e = exp(-|x|) and d = 1/(1 + e), it is d where x >= 0 and e·d where
    x < 0, so exp never overflows and the lower tail keeps its subnormals.
    `tail`, when given, is ``exp_neg_abs(x)``, and is overwritten.
    """
    x = np.asarray(x, dtype=float)
    e, d = exp_neg_abs(x) if tail is None else tail, np.empty_like(x)
    np.reciprocal(np.add(e, 1.0, out=d), out=d)
    # e <= 1, so max(e, x >= 0) picks 1 or e with no per-element branch
    return np.multiply(d, np.maximum(e, x >= 0, out=e), out=d)


@dataclass(frozen=True)
class TriangularFactor:
    """R of the columns `labels` over `n_rows` analysis rows, folded in
    BLOCK_ROWS rows at a time: no n×p copy of the sample is made. Every
    least-squares fit and rank check reads it here. A stack of factors (r of
    shape (B, p, p)) fits with a leading replicate axis."""

    labels: tuple[str, ...]
    r: np.ndarray
    n_rows: int
    dependent: np.ndarray  # per column: whether it depends on those before it

    @classmethod
    def of(cls, labels: Sequence[str], columns: Sequence, rows=None) -> "TriangularFactor":
        """R of ``columns[j][rows]`` from R = 0 (`fold_rows`); a scalar
        fills its column. `rows` is an optional boolean mask or index array;
        a mask that keeps every row is read by slices, as no `rows`.

        Raises UnknownColumn for columns of unequal lengths, and NonFiniteCell
        naming the first column whose R column overflowed (R[:, j] depends
        on columns 0..j only).
        """
        if rows is not None and rows.dtype == bool and rows.all():
            rows = None
        if rows is None:
            lengths = [(label, len(c)) for label, c in zip(labels, columns) if np.ndim(c)]
            n = lengths[0][1]
            for label, m in lengths:
                if m != n:
                    raise UnknownColumn(f"column {label!r} has {m} rows, expected {n}")
        else:
            rows = np.flatnonzero(rows) if rows.dtype == bool else rows
            n = rows.size
        r = np.zeros((len(columns), len(columns)))
        block = np.empty((min(n, BLOCK_ROWS), len(columns)), order="F")
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, BLOCK_ROWS):
                part = block[: min(BLOCK_ROWS, n - start)]
                at = slice(start, start + len(part))
                fold_rows(r, stacked_columns(columns, at if rows is None else rows[at], part))
        finite = np.isfinite(r).all(axis=0)
        if not finite.all():
            raise NonFiniteCell(
                f"column {labels[int(np.argmin(finite))]!r} holds cells too large in magnitude "
                "to square and sum in floating point; rescale it"
            )
        # R[:, j] is zero below row j, so column j's check is the same in every prefix
        dependent = np.abs(np.diag(r)) <= _RANK_TOL * np.linalg.norm(r, axis=0)
        return cls(tuple(labels), r, n, dependent)

    def check_rank(self, q: int) -> None:
        """RankDeficient naming each of the first q columns that depends on those before it."""
        if self.n_rows <= q:
            raise RankDeficient(self.labels[:q])
        if self.dependent[:q].any():
            raise RankDeficient([self.labels[i] for i in np.flatnonzero(self.dependent[:q])])

    def fit(self, response: str, q: int) -> CoefficientSet:
        """Least squares of the `response` column, the first so labelled at
        or after column q, on the first q columns."""
        j = self.labels.index(response, q)
        self.check_rank(q)
        tail = self.r[..., q : j + 1, j]
        beta = back_substitute(self.r[..., :q, :q], self.r[..., :q, j])
        return CoefficientSet(self.labels[:q], beta, residual_variance=(
            tail[..., None, :] @ tail[..., None])[..., 0, 0] / (self.n_rows - q))

    def centered_norm(self, label: str) -> float:
        """||a - mean(a)||: with column 0 the intercept, R[0, j] = sqrt(n)·mean."""
        j = self.labels.index(label)
        return np.sqrt(self.r[..., None, 1 : j + 1, j] @ self.r[..., 1 : j + 1, j, None])[..., 0, 0]

    def condition(self) -> float:
        """The 2-norm condition number of the columns at unit norm, from the
        eigenvalues of their Gram matrix; inf if it is singular."""
        norms = np.linalg.norm(self.r, axis=0)
        if not norms.all():
            return math.inf
        eigenvalues = np.linalg.eigvalsh((self.r / norms).T @ (self.r / norms))
        return math.sqrt(eigenvalues[-1] / eigenvalues[0]) if eigenvalues[0] > 0 else math.inf


#: Largest condition number of a replicate read off a whitened Gram: its
#: two routes differ by about eps times it (see `WhitenedGrams.factors`).
WHITEN_LIMIT = 100.0


class WhitenedGrams:
    """The factors of bootstrap replicates of one analysis sample: with A its
    `columns` over the boolean `mask` and R its factor, Q = A R⁻¹ (zero
    outside the sample) is built once, BLOCK_ROWS rows at a time. A replicate
    drawing row i w_i times has Gram Rᵀ G R, G = Qᵀ diag(w) Q = S Sᵀ close to
    I, so R_b = SᵀR is its R up to the signs of its rows, which no fit sees
    (Golub & Van Loan, *Matrix Computations* §5.3)."""

    def __init__(self, factor: TriangularFactor, columns: Sequence, mask: np.ndarray):
        self.factor, r, rows = factor, factor.r, np.flatnonzero(mask)
        self.qt, self.grams = np.zeros((r.shape[0], mask.size)), []  # Qᵀ, each replicate's G
        for start in range(0, rows.size, BLOCK_ROWS):
            block = stacked_columns(columns, rows[start : start + BLOCK_ROWS])
            for j in range(r.shape[0]):  # Q R = A, column j from 0..j-1; 0, G singular, at a zero r[j, j]
                block[:, j] = (block[:, j] - block[:, :j] @ r[:j, j]) / r[j, j] if r[j, j] else 0.0
            self.qt[:, rows[start : start + BLOCK_ROWS]] = block.T

    def add(self, idx: np.ndarray) -> None:
        """The next replicate's G, BLOCK_ROWS rows at a time, from its rows `idx`."""
        weights, gram = np.bincount(idx, minlength=self.qt.shape[1]).astype(float), 0.0
        for start in range(0, weights.size, BLOCK_ROWS):
            qt = self.qt[:, start : start + BLOCK_ROWS]
            gram = gram + (qt * weights[start : start + BLOCK_ROWS]) @ qt.T
        self.grams.append(gram)

    @functools.cached_property
    def factors(self) -> tuple[TriangularFactor, np.ndarray]:
        """A stack of every replicate's R_b, and each one's condition number
        (of R with unit columns, times that of S): a fit of R_b and one of the
        replicate's own rows differ by about eps times it. It is inf where G
        is singular, as a dependent column or too few rows leave it. One past
        WHITEN_LIMIT reads the full sample's R, and each the full sample's
        row count, which no split reads."""
        gram = np.array(self.grams)
        eigenvalues = np.linalg.eigvalsh(gram)
        ratio = np.divide(eigenvalues[:, -1], eigenvalues[:, 0], out=np.full(len(gram), np.inf),
                          where=eigenvalues[:, 0] > 0)
        condition, self.qt = self.factor.condition() * np.sqrt(ratio), None  # free Q for refits
        s = np.linalg.cholesky(np.where((condition > WHITEN_LIMIT)[:, None, None], np.eye(
            gram.shape[1]), gram))
        return TriangularFactor(self.factor.labels, np.swapaxes(s, 1, 2) @ self.factor.r,
                                self.factor.n_rows, self.factor.dependent), condition


def refuse_non_finite(labels: Sequence[str], columns) -> None:
    """NonFiniteCell naming the first of `columns` that holds a NaN or infinity."""
    for label, col in zip(labels, columns):
        if not math.isfinite(col.sum()):  # a NaN or infinity reaches the sum
            bad = np.flatnonzero(~np.isfinite(col))
            if bad.size:  # otherwise finite cells overflowed the sum
                raise NonFiniteCell(f"column {label!r} holds {col[bad[0]]} in row {bad[0]}")


def fit_ols(design: DesignMatrix, y: np.ndarray) -> CoefficientSet:
    """Ordinary least squares.

    Raises RankDeficient when the design is singular (names the dependent
    columns in declared order). Residual variance uses the n - k denominator.
    """
    columns = [*design.matrix.T, np.asarray(y, dtype=float)]
    labels = (*design.labels, "response")
    refuse_non_finite(labels, columns)
    return TriangularFactor.of(labels, columns).fit("response", len(design.labels))


def _binomial_deviance(eta: np.ndarray, sign: np.ndarray, tail: np.ndarray) -> float:
    """-2 log-likelihood with sign = 1 - 2y and tail = exp(-|eta|): each term
    log(1 + exp(sign·eta)) is max(sign·eta, 0) + log1p(tail), as |sign·eta| =
    |eta|, so extreme eta stays finite."""
    terms = np.multiply(sign, eta)
    np.maximum(terms, 0.0, out=terms)
    terms += np.log1p(tail)
    return float(2.0 * np.sum(terms))


def _newton_terms(mat: np.ndarray, y: np.ndarray, sign: np.ndarray, beta: np.ndarray,
                  gradient: bool = True):
    """The binomial deviance at beta, and the score Aᵀ(y - p) and Gram
    matrix Aᵀ(w·A) a Newton step from beta solves with (zero unless `gradient`),
    read in one pass over BLOCK_ROWS-row slices of the design A = `mat`.
    Weights w = p(1 - p) are clipped to >= 1e-12. No sum runs over more than
    one slice's rows."""
    k = mat.shape[1]
    deviance, score, gram = 0.0, np.zeros(k), np.zeros((k, k))
    for start in range(0, mat.shape[0], BLOCK_ROWS):
        at = slice(start, start + BLOCK_ROWS)
        a = mat[at]
        eta = a @ beta
        tail = exp_neg_abs(eta)  # read by the deviance, then overwritten by expit
        deviance += _binomial_deviance(eta, sign[at], tail)
        if not gradient:
            continue
        p = expit(eta, tail)
        score += a.T @ (y[at] - p)
        gram += a.T @ (a * np.clip(p * (1.0 - p), 1e-12, None)[:, None])
    return deviance, score, gram


def fit_logistic(design: DesignMatrix, y: np.ndarray,
                 factor: TriangularFactor | None = None) -> CoefficientSet:
    """Maximum-likelihood logistic regression by Newton/IRLS.

    Starts from the zero vector with intercept = logit of the outcome mean.
    Each step solves Aᵀ(w·A)·delta = Aᵀ(y - p) by a Cholesky factor of the
    k×k Gram matrix, or by the QR kernel when that factorization fails; rank
    is checked once, on the unweighted design (weights are clipped to >=
    1e-12, so every weighted design has its rank). The deviance, the score
    and the Gram matrix at each iterate come from one pass over the design,
    BLOCK_ROWS rows at a time (`_newton_terms`), and only the deviance after
    a step that ends the loop by its size. Converges when the max
    absolute coefficient change is < 1e-10 or the deviance stopped changing
    (moved by < 1e-12); at most 100 iterations. A caller that already holds
    a `TriangularFactor` whose first k columns are the design's passes it as
    `factor`, and the rank is checked on that prefix instead of on a factor
    of the design's own; its later columns are not read.

    Raises
    ------
    Separation
        No finite maximizer: either the coefficient sup-norm exceeded 1e3
        while step sizes stopped shrinking, or the norm grew monotonically
        for 40 straight iterations, or the fit ended at a deviance below
        2·ln 2, which only complete separation allows. Newton iterates are
        scale-equivariant, so a fit with a finite optimum reaches it (and
        stops growing) in far fewer steps regardless of column scaling; only
        a likelihood increasing along a ray keeps the norm growing.
    UnknownColumn
        `y` does not have one cell per design row.
    NonFiniteCell, NotConverged, RankDeficient
    """
    y = np.asarray(y, dtype=float)
    mat, labels = design.matrix, design.labels
    n, k = mat.shape
    if len(y) != n:
        raise UnknownColumn(f"column 'response' has {len(y)} rows, expected {n}")
    refuse_non_finite((*labels, "response"), [*mat.T, y])
    (factor or TriangularFactor.of(labels, list(mat.T))).check_rank(k)
    if np.any((y != 0.0) & (y != 1.0)) or not 0 < np.count_nonzero(y) < n:
        raise InvalidSpec("logistic outcome must contain both 0s and 1s (only)")

    beta = np.zeros(k)
    m = float(y.mean())
    beta[0] = math.log(m) - math.log1p(-m)
    sign = 1.0 - 2.0 * y
    deviance, g, gram = _newton_terms(mat, y, sign, beta)
    previous_step, previous_norm, divergence_run = np.inf, abs(float(beta[0])), 0

    for iteration in range(1, _MAX_ITER + 1):
        try:
            chol = np.linalg.cholesky(gram)
            # H = L·Lᵀ: L·z = g is the triangular solve with rows and columns reversed
            delta = back_substitute(chol.T, back_substitute(chol[::-1, ::-1], g[::-1])[::-1])
        except np.linalg.LinAlgError:
            p = expit(mat @ beta)
            root_w = np.sqrt(np.clip(p * (1.0 - p), 1e-12, None))
            columns = [*(col * root_w for col in mat.T), (y - p) / root_w]
            delta = TriangularFactor.of((*labels, "response"), columns).fit("response", k).values
        beta = beta + delta
        step = float(np.max(np.abs(delta)))
        # g, gram: the next step's, which a step below _COEF_TOL ends the loop before
        new_deviance, g, gram = _newton_terms(mat, y, sign, beta, step >= _COEF_TOL)
        norm = float(np.max(np.abs(beta)))
        if norm > _DIVERGENCE_NORM and step >= previous_step:
            raise Separation(
                "logistic fit diverging (coefficient norm "
                f"{norm:.3g} after {iteration} iterations)"
            )
        divergence_run = divergence_run + 1 if norm > previous_norm else 0
        if divergence_run >= 40:
            raise Separation(
                "logistic fit diverging (coefficient norm grew for "
                f"{divergence_run} straight iterations, reaching "
                f"{norm:.3g}; the likelihood has no finite maximizer)"
            )
        previous_norm = norm
        converged = step < _COEF_TOL or abs(deviance - new_deviance) < _DEVIANCE_TOL
        if converged:
            break
        deviance = new_deviance
        previous_step = step
    if new_deviance < _SEPARATED_DEVIANCE:
        raise Separation(f"logistic fit separates the outcome (deviance {new_deviance:.3g} "
                         f"after {iteration} iterations; no finite maximizer)")
    if not converged:
        raise NotConverged(f"logistic fit did not converge in {_MAX_ITER} iterations")
    return CoefficientSet(labels, beta, deviance=new_deviance, n_iter=iteration)
