"""Exception and warning taxonomy shared across the package."""


class AnalysisError(Exception):
    """Base class for all errors raised by gapdecomp."""


def outcome_of(fn, *args):
    """fn(*args), or the AnalysisError it raises."""
    try:
        return fn(*args)
    except AnalysisError as err:
        return err


# --- data / ingestion ---------------------------------------------------


class MissingColumn(AnalysisError):
    """A role declaration references a column that is not in the file."""


class UnknownColumn(AnalysisError):
    """An operation references a column that is not in the dataset."""


class NonBinaryGroup(AnalysisError):
    """The group column contains values other than 0/1 (or missing cells)."""


class InfiniteCell(AnalysisError):
    """A column holds an infinite value, which no estimator can use."""


class RepeatedColumn(AnalysisError):
    """A CSV header names one column twice, so the name cannot pick a column."""


class EmptyFile(AnalysisError):
    """The CSV has no header or no data rows."""


class NotUtf8(AnalysisError):
    """A CSV byte that is not UTF-8, named by its offset from the file's first byte."""


class LongRow(AnalysisError):
    """A CSV data row has more cells than its header names (a quoting or
    delimiter mismatch); no cell of it can be trusted to its column."""


class UnreadCells(UserWarning):
    """A CSV held cells that are not numbers, or rows shorter than its header;
    both were read as missing cells.

    Carries the counts: ``unparsed`` maps each column with such cells to
    their number, and ``short_rows`` counts the short rows.
    """

    def __init__(self, path, unparsed, short_rows):
        self.unparsed = {name: count for name, count in unparsed.items() if count}
        self.short_rows = short_rows
        parts = []
        if self.unparsed:
            per_column = ", ".join(f"{name!r}: {count}" for name, count in self.unparsed.items())
            parts.append(f"{sum(self.unparsed.values())} cell(s) that are not numbers "
                         f"read as missing ({per_column})")
        if short_rows:
            parts.append(f"{short_rows} row(s) shorter than the header padded with missing cells")
        super().__init__(f"{path}: " + "; ".join(parts))


class ZeroVariance(AnalysisError):
    """A column required to vary is constant."""


class TooFewColumns(AnalysisError):
    """The principal-component helper needs at least two columns."""


# --- regression ---------------------------------------------------------


class RankDeficient(AnalysisError):
    """Design matrix is not full column rank.

    Carries the labels of the dependent columns in ``columns``.
    """

    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__(
            "design matrix is rank deficient; dependent columns: "
            + ", ".join(self.columns)
        )


class NonFiniteCell(AnalysisError):
    """A design or response cell handed to a fit is NaN or infinite, or so
    large that the fit's factor overflows (|x| above about 1e154)."""


class Separation(AnalysisError):
    """Logistic fit diverged (perfectly or quasi-separated data)."""


class NotConverged(AnalysisError):
    """Iterative fit hit its iteration cap without meeting tolerances."""


# --- decompositions -----------------------------------------------------


class NearZeroDenominator(AnalysisError):
    """A ratio the estimate needs divides by (nearly) zero: a coefficient ratio
    of the marginal-target formulas, or a plug-in risk ratio over a zero mean."""


class EmptyStratum(AnalysisError):
    """A standardization sum needs a conditional mean from an unobserved cell.

    ``cell`` holds the offending (group, variable=value, ...) description.
    """

    def __init__(self, cell):
        self.cell = cell
        super().__init__(f"no observations in required stratum: {cell}")


class TooManyLevels(AnalysisError):
    """A column declared discrete has more distinct levels than allowed."""


class EmptyGroup(AnalysisError):
    """A group-stratified fit was requested but one group has no rows."""


class InvalidSpec(AnalysisError):
    """An AnalysisSpec violates a structural constraint (e.g. P5 without L)."""


class UnsupportedMode(AnalysisError):
    """Closed-form truth is unavailable for this generator configuration."""


# --- inference ----------------------------------------------------------


class InvalidB(AnalysisError):
    """Bootstrap replicate count that is not an integer of at least 2."""


class TooManyFailures(AnalysisError):
    """More than 10% of bootstrap replicates failed to produce an estimate."""


class DegenerateInitial(AnalysisError):
    """Proportion reduced is undefined for a (near) null initial disparity."""


# --- cli ----------------------------------------------------------------


class ConfigError(AnalysisError):
    """Run configuration failed schema or consistency validation."""


class PrevalenceWarning(UserWarning):
    """Rare-outcome ratio formulas applied where the outcome is not rare."""
