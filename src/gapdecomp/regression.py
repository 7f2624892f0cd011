"""Least-squares and logistic fitting from one triangular factor.

Every least-squares solve goes through one kernel: the regressors and the
response column(s) are copied into one Fortran-ordered n×p array, and a
left-looking, unpivoted Householder QR keeps only its p×p factor R. Column j
receives the reflectors of columns 0..j-1 before yielding its own, so R[:, j]
depends on columns 0..j alone and R holds every nested regression: column j
on columns 0..q-1 (q <= j) solves R[:q, :q] b = R[:q, j] (nested QR, i.e.
Frisch–Waugh–Lovell; Golub & Van Loan, *Matrix Computations* §5.3). A fit
read from a wider factor thus equals `fit_ols` on its design alone, bit for
bit (LAPACK's geqrf rounds differently as the trailing block widens). Rank is
checked on the diagonal of each prefix used as a design, never on a
response: a small |R[i, i]| against the norm of column i names column i as
dependent on those declared before it. Downstream formulas read named
coefficients off CoefficientSet: labels, not positions, are the contract.
"""

from __future__ import annotations

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

    def __getitem__(self, label: str) -> float:
        try:
            return float(self.values[self._index[label]])
        except KeyError:
            raise UnknownColumn(f"no coefficient labeled {label!r}") from None

    def as_dict(self) -> dict[str, float]:
        return {l: float(v) for l, v in zip(self.labels, self.values)}


def stacked_columns(columns: Sequence, rows: np.ndarray | None = None) -> np.ndarray:
    """Fortran-ordered matrix of ``columns[j][rows]``; a scalar fills its column.

    `rows` is an optional boolean mask or index array selecting the analysis rows.
    """
    if rows is None:
        n = len(next(c for c in columns if np.ndim(c)))
    else:
        n = int(np.count_nonzero(rows)) if rows.dtype == bool else rows.size
    out = np.empty((n, len(columns)), order="F")
    for j, col in enumerate(columns):
        if rows is None or not np.ndim(col):
            out[:, j] = col
        elif rows.dtype == bool:
            np.compress(rows, col, out=out[:, j])
        else:
            np.take(col, rows, out=out[:, j])
    return out


def triangular_factor(a: np.ndarray) -> np.ndarray:
    """R (p×p) of the left-looking Householder QR of a Fortran-ordered n×p ``a``.

    ``a`` is overwritten with the reflectors; when n < p, rows of R past n are 0.
    A column whose cells overflow its norm leaves R non-finite from that
    column on; `_named_factor` refuses such a factor.
    """
    n, p = a.shape
    r = np.zeros((p, p))
    tau = np.zeros(p)
    for j in range(p):
        col = a[:, j]
        top = min(j, n)
        for i in range(top):
            if tau[i]:
                v, x = a[i:, i], col[i:]
                x -= (tau[i] * np.dot(v, x)) * v
        r[:top, j] = col[:top]
        if j >= n:
            continue
        x = col[j:]
        alpha, rest = float(x[0]), float(np.linalg.norm(x[1:]))
        r[j, j] = alpha
        if rest:
            r[j, j] = beta = -math.copysign(math.hypot(alpha, rest), alpha)
            tau[j] = (beta - alpha) / beta
            x *= 1.0 / (alpha - beta)
            x[0] = 1.0
    return r


def _named_factor(a: np.ndarray, labels: Sequence[str]) -> np.ndarray:
    """triangular_factor(a), or NonFiniteCell naming the first of the columns
    `labels` whose R column overflowed (R[:, j] depends on columns 0..j only)."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = triangular_factor(a)
    finite = np.isfinite(r).all(axis=0)
    if not finite.all():
        raise NonFiniteCell(
            f"column {labels[int(np.argmin(finite))]!r} holds cells too large in magnitude "
            "to square and sum in floating point; rescale it"
        )
    return r


def back_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with ``r @ x = b`` for upper-triangular r, solved from the last row up."""
    x = np.array(b, dtype=float)
    for i in range(x.shape[0] - 1, -1, -1):
        x[i] = (x[i] - r[i, i + 1 :] @ x[i + 1 :]) / r[i, i]
    return x


def expit(x) -> np.ndarray:
    """The logistic function, 1/(1 + exp(-x)), accurate in both tails.

    With e = exp(-|x|) and d = 1/(1 + e), it is d where x >= 0 and e·d where
    x < 0, so exp never overflows and the lower tail keeps its subnormals.
    """
    x = np.asarray(x, dtype=float)
    e, d = np.empty_like(x), np.empty_like(x)  # out= keeps a 0-d x an array
    np.exp(np.negative(np.abs(x, out=e), out=e), out=e)
    np.reciprocal(np.add(e, 1.0, out=d), out=d)
    # e <= 1, so max(e, x >= 0) picks 1 or e with no per-element branch
    return np.multiply(d, np.maximum(e, x >= 0, out=e), out=d)


def check_rank(r, n: int, q: int, labels: Sequence[str]) -> None:
    """RankDeficient naming each of the q columns `labels` that depends on those before it."""
    if n <= q:
        raise RankDeficient(labels)
    dependent = np.abs(np.diag(r)[:q]) <= _RANK_TOL * np.linalg.norm(r[:, :q], axis=0)
    if dependent.any():
        raise RankDeficient([labels[i] for i in np.flatnonzero(dependent)])


def least_squares(r, n: int, q: int, j: int, labels: Sequence[str]) -> tuple[np.ndarray, float]:
    """Coefficients and residual sum of squares of column j on columns 0..q-1."""
    check_rank(r, n, q, labels)
    tail = r[q : j + 1, j]
    return back_substitute(r[:q, :q], r[:q, j]), float(tail @ tail)


@dataclass(frozen=True)
class TriangularFactor:
    """R of the stacked columns `labels` over `n_rows` analysis rows."""

    labels: tuple[str, ...]
    r: np.ndarray
    n_rows: int

    @classmethod
    def of(cls, labels: Sequence[str], columns: Sequence, rows=None) -> "TriangularFactor":
        a = stacked_columns(columns, rows)
        return cls(tuple(labels), _named_factor(a, labels), a.shape[0])

    def fit(self, response: str, q: int) -> CoefficientSet:
        """Least squares of the `response` column on the first q columns."""
        beta, rss = least_squares(
            self.r, self.n_rows, q, self.labels.index(response), self.labels[:q]
        )
        return CoefficientSet(self.labels[:q], beta, residual_variance=rss / (self.n_rows - q))

    def centered_norm(self, label: str) -> float:
        """||a - mean(a)||: with column 0 the intercept, R[0, j] = sqrt(n)·mean."""
        j = self.labels.index(label)
        return float(np.linalg.norm(self.r[1 : j + 1, j]))


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
    n, k = design.matrix.shape
    a = stacked_columns([*design.matrix.T, np.asarray(y, dtype=float)])
    labels = (*design.labels, "response")
    refuse_non_finite(labels, a.T)
    beta, rss = least_squares(_named_factor(a, labels), n, k, k, design.labels)
    return CoefficientSet(design.labels, beta, residual_variance=rss / (n - k))


def _binomial_deviance(eta: np.ndarray, sign: np.ndarray) -> float:
    # -2 log-likelihood with sign = 1 - 2y, written with logaddexp so extreme eta stays finite
    return float(2.0 * np.sum(np.logaddexp(0.0, sign * eta)))


def fit_logistic(design: DesignMatrix, y: np.ndarray) -> CoefficientSet:
    """Maximum-likelihood logistic regression by Newton/IRLS.

    Starts from the zero vector with intercept = logit of the outcome mean.
    Each step solves Aᵀ(w·A)·delta = Aᵀ(y - p) by a Cholesky factor of the
    k×k Gram matrix, or by the QR kernel when that factorization fails; rank
    is checked once, on the unweighted design (weights are clipped to >=
    1e-12, so every weighted design has its rank). Converges when the max
    absolute coefficient change is < 1e-10 or the deviance stopped changing
    (moved by < 1e-12); at most 100 iterations.

    Raises
    ------
    Separation
        No finite maximizer: either the coefficient sup-norm exceeded 1e3
        while step sizes stopped shrinking, or the norm grew monotonically
        for 40 straight iterations. Newton iterates are scale-equivariant,
        so a fit with a finite optimum reaches it (and stops growing) in
        far fewer steps regardless of column scaling; only a likelihood
        increasing along a ray keeps the norm growing indefinitely.
    NonFiniteCell, NotConverged, RankDeficient
    """
    y = np.asarray(y, dtype=float)
    mat, labels = design.matrix, design.labels
    n, k = mat.shape
    refuse_non_finite((*labels, "response"), [*mat.T, y])
    weighted = np.array(mat, order="F")  # scratch of the rank check, then of every step
    check_rank(_named_factor(weighted, labels), n, k, labels)
    if not np.array_equal(np.unique(y), [0.0, 1.0]):
        raise InvalidSpec("logistic outcome must contain both 0s and 1s (only)")

    beta = np.zeros(k)
    m = float(y.mean())
    beta[0] = math.log(m) - math.log1p(-m)
    eta = mat @ beta
    sign = 1.0 - 2.0 * y
    deviance = _binomial_deviance(eta, sign)
    previous_step, previous_norm, divergence_run = np.inf, abs(float(beta[0])), 0

    for iteration in range(1, _MAX_ITER + 1):
        p = expit(eta)
        w = np.clip(p * (1.0 - p), 1e-12, None)
        g = mat.T @ (y - p)
        try:
            chol = np.linalg.cholesky(mat.T @ np.multiply(mat, w[:, None], out=weighted))
            # H = L·Lᵀ: L·z = g is the triangular solve with rows and columns reversed
            delta = back_substitute(chol.T, back_substitute(chol[::-1, ::-1], g[::-1])[::-1])
        except np.linalg.LinAlgError:
            root_w = np.sqrt(w)
            a = stacked_columns([*(mat * root_w[:, None]).T, (y - p) / root_w])
            delta, _ = least_squares(_named_factor(a, (*labels, "response")), n, k, k, labels)
        beta = beta + delta
        step = float(np.max(np.abs(delta)))
        eta = mat @ beta  # carried into the next iteration
        new_deviance = _binomial_deviance(eta, sign)
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
        if step < _COEF_TOL or abs(deviance - new_deviance) < _DEVIANCE_TOL:
            return CoefficientSet(labels, beta, deviance=new_deviance, n_iter=iteration)
        deviance = new_deviance
        previous_step = step

    raise NotConverged(f"logistic fit did not converge in {_MAX_ITER} iterations")
