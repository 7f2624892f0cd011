import re

import numpy as np
import pytest

from conftest import dataset_from
from gapdecomp import (
    Dataset,
    Role,
    add_missing_indicators,
    first_principal_component,
    load_csv,
    quantile_bin,
    write_csv,
)
from gapdecomp.errors import (
    EmptyFile,
    InfiniteCell,
    InvalidSpec,
    LongRow,
    MissingColumn,
    NonBinaryGroup,
    TooFewColumns,
    UnknownColumn,
    UnreadCells,
    ZeroVariance,
)


def test_load_csv_three_rows(tmp_path):
    f = tmp_path / "tiny.csv"
    f.write_text("y,r,x,m\n1.5,0,2.0,3.0\n2.5,1,1.0,4.0\n0.5,0,0.0,5.0\n")
    d = load_csv(f, {"outcome": "y", "group": "r", "early": ["x"], "target": "m"})
    assert d.n_rows == 3
    np.testing.assert_array_equal(d.column("y"), [1.5, 2.5, 0.5])
    assert d.role_columns(Role.EARLY) == ("x",)


def test_load_csv_nonbinary_group(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("y,r\n1.0,0\n2.0,2\n")
    with pytest.raises(NonBinaryGroup):
        load_csv(f, {"outcome": "y", "group": "r"})


def test_load_csv_missing_group_cell(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("y,r\n1.0,0\n2.0,\n")
    with pytest.raises(NonBinaryGroup):
        load_csv(f, {"outcome": "y", "group": "r"})


def test_load_csv_empty_cell_becomes_missing(tmp_path):
    f = tmp_path / "gap.csv"
    f.write_text("y,r,x\n1.0,0,2.0\n2.0,1,\n3.0,0,4.0\n")
    d = load_csv(f, {"outcome": "y", "group": "r", "early": ["x"]})
    x = d.column("x")
    assert np.isnan(x[1]) and not np.isnan(x[[0, 2]]).any()


def test_load_csv_unparseable_cell_becomes_missing(tmp_path):
    f = tmp_path / "junk.csv"
    f.write_text("y,r\n1.0,0\nN/A,1\n")
    with pytest.warns(UnreadCells) as caught:
        d = load_csv(f, {"outcome": "y", "group": "r"})
    assert caught[0].message.unparsed == {"y": 1} and caught[0].message.short_rows == 0
    assert np.isnan(d.column("y")[1])


def test_load_csv_refuses_a_row_longer_than_its_header(tmp_path):
    f = tmp_path / "long.csv"
    f.write_text("y,r,x\n1.0,0,2.0\n\n2.0,1,3.0,99\n")
    with pytest.raises(LongRow, match="line 4 has 4 cells, more than the 3 columns"):
        load_csv(f, {"outcome": "y", "group": "r"})


def test_load_csv_pads_a_short_row_with_missing_cells(tmp_path):
    f = tmp_path / "short.csv"
    f.write_text("y,r,x\n1.0,0,2.0\n2.0,1\n")
    with pytest.warns(UnreadCells) as caught:
        d = load_csv(f, {"outcome": "y", "group": "r"})
    assert caught[0].message.unparsed == {} and caught[0].message.short_rows == 1
    np.testing.assert_array_equal(d.column("y"), [1.0, 2.0])
    assert d.column("x")[0] == 2.0 and np.isnan(d.column("x")[1])


def test_load_csv_empty_file(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("")
    with pytest.raises(EmptyFile):
        load_csv(f)
    f.write_text("y,r\n")
    with pytest.raises(EmptyFile):
        load_csv(f, {"outcome": "y", "group": "r"})


def test_load_csv_missing_declared_column(tmp_path):
    f = tmp_path / "cols.csv"
    f.write_text("y,r\n1.0,0\n")
    with pytest.raises(MissingColumn):
        load_csv(f, {"outcome": "y", "group": "r", "early": ["x"]})


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    d = dataset_from(
        {"y": rng.normal(size=7), "r": [0, 1, 0, 1, 1, 0, 1],
         "x": [1.25, np.nan, -3.5, 0.0, 2.0 / 3.0, 1e-12, 4e8]},
        {"outcome": "y", "group": "r", "early": ["x"]},
    )
    f = tmp_path / "rt.csv"
    write_csv(d, f)
    back = load_csv(f, {"outcome": "y", "group": "r", "early": ["x"]})
    for name in d.columns:
        np.testing.assert_array_equal(back.column(name), d.column(name))


def test_group_must_be_binary_in_constructor():
    with pytest.raises(NonBinaryGroup):
        dataset_from({"y": [1.0, 2.0], "r": [0.0, 0.5]}, {"outcome": "y", "group": "r"})


def test_infinite_cells_are_refused_with_column_and_row(tmp_path):
    f = tmp_path / "inf.csv"
    f.write_text("y,r,x\n1.0,0,2.0\n2.0,1,-inf\n3.0,0,inf\n")
    with pytest.raises(InfiniteCell, match="column 'x' .*first bad row: 1"):
        load_csv(f, {"outcome": "y", "group": "r", "early": ["x"]})
    with pytest.raises(InfiniteCell, match="column 'y' .*first bad row: 2"):
        dataset_from({"y": [1.0, 2.0, np.inf], "x": [0.0, 1.0, 2.0]}, {})


def test_derived_datasets_reuse_frozen_columns_but_copy_caller_arrays():
    values = np.array([1.0, 2.0, 3.0])
    d = Dataset({"y": values, "r": np.array([0.0, 1.0, 0.0])}, {"outcome": "y", "group": "r"})
    values[0] = 9.0
    assert d.column("y")[0] == 1.0
    assert d.with_roles({"outcome": "y"}).column("y") is d.column("y")
    assert d.with_columns({"z": np.zeros(3)}).column("r") is d.column("r")
    sub = d.take(np.array([2, 0]))
    assert not sub.column("y").flags.writeable


def test_a_rebinding_checks_its_roles_but_not_its_columns_again(monkeypatch):
    d = Dataset({"y": [1.0, 2.0, 3.0], "r": [0.0, 1.0, 0.0], "z": [0.0, 2.0, 1.0]},
                {"outcome": "y", "group": "r"})
    with pytest.raises(MissingColumn, match="'w'"):
        d.with_roles({"outcome": "w"})
    with pytest.raises(NonBinaryGroup, match="group column 'z' .*first bad row: 1"):
        d.with_roles({"outcome": "y", "group": "z"})
    scans = []
    monkeypatch.setattr(np, "isinf", lambda values: scans.append(values) or np.zeros(len(values), bool))
    bound = d.with_roles({"outcome": "z", "group": "r"})
    assert scans == [] and bound.columns is d.columns and bound._memo is d._memo
    assert dict(bound.roles) == {Role.OUTCOME: ("z",), Role.GROUP: ("r",)}
    assert dict(d.roles) == {Role.OUTCOME: ("y",), Role.GROUP: ("r",)}


def test_columns_are_immutable():
    d = dataset_from({"y": [1.0, 2.0], "r": [0.0, 1.0]}, {"outcome": "y", "group": "r"})
    with pytest.raises(ValueError):
        d.column("y")[0] = 9.0


def test_role_referencing_absent_column():
    with pytest.raises(MissingColumn):
        dataset_from({"y": [1.0]}, {"outcome": "y", "group": "r"})


def test_single_column_roles_enforced():
    with pytest.raises(UnknownColumn):
        dataset_from(
            {"y": [1.0], "a": [1.0], "b": [2.0]},
            {"outcome": ["a", "b"]},
        )


def test_ragged_columns_rejected():
    with pytest.raises(UnknownColumn):
        Dataset({"y": np.zeros(3), "x": np.zeros(4)}, {"outcome": "y"})


def test_take_preserves_roles():
    d = dataset_from(
        {"y": [1.0, 2.0, 3.0], "r": [0, 1, 0]}, {"outcome": "y", "group": "r"}
    )
    sub = d.take(np.array([2, 0]))
    np.testing.assert_array_equal(sub.column("y"), [3.0, 1.0])
    assert sub.roles == d.roles


# -- missing indicators ------------------------------------------------------


def test_missing_indicator_basic():
    d = dataset_from(
        {"y": [0.0, 0.0, 0.0], "r": [0, 1, 0], "x": [1.0, np.nan, 3.0]},
        {"outcome": "y", "group": "r", "early": ["x"]},
    )
    out = add_missing_indicators(d, ["x"], fill=0.0)
    np.testing.assert_array_equal(out.column("x"), [1.0, 0.0, 3.0])
    np.testing.assert_array_equal(out.column("x_miss"), [0.0, 1.0, 0.0])
    assert "x_miss" in out.role_columns(Role.MISSING_INDICATOR)
    assert "x_miss" in out.covariate_names()


def test_missing_indicator_no_missing_cells():
    d = dataset_from(
        {"y": [0.0, 0.0], "r": [0, 1], "x": [1.0, 2.0]},
        {"outcome": "y", "group": "r", "early": ["x"]},
    )
    out = add_missing_indicators(d, ["x"])
    np.testing.assert_array_equal(out.column("x_miss"), [0.0, 0.0])
    np.testing.assert_array_equal(out.column("x"), d.column("x"))


def test_missing_indicator_two_columns_same_row():
    d = dataset_from(
        {
            "y": np.zeros(6),
            "r": [0, 1, 0, 1, 0, 1],
            "a": [1, 2, 3, 4, 5, np.nan],
            "b": [9, 8, 7, 6, 5, np.nan],
        },
        {"outcome": "y", "group": "r", "covariate": ["a", "b"]},
    )
    out = add_missing_indicators(d, ["a", "b"], fill=-1.0)
    assert out.column("a_miss")[5] == 1.0 and out.column("b_miss")[5] == 1.0
    assert out.column("a")[5] == -1.0 and out.column("b")[5] == -1.0


def test_missing_indicator_name_collision():
    d = dataset_from(
        {"y": [0.0], "x": [np.nan], "x_miss": [0.0]}, {"outcome": "y"}
    )
    with pytest.raises(UnknownColumn):
        add_missing_indicators(d, ["x"])


def test_missing_indicator_unknown_column():
    d = dataset_from({"y": [0.0]}, {"outcome": "y"})
    with pytest.raises(UnknownColumn):
        add_missing_indicators(d, ["nope"])


# -- first principal component ----------------------------------------------


def _standardize(v):
    return (v - v.mean()) / v.std(ddof=1)


def test_pca_two_identical_columns():
    rng = np.random.default_rng(0)
    a = rng.normal(size=40)
    d = dataset_from({"a": a, "b": a.copy()}, {})
    scores = first_principal_component(d, ["a", "b"])
    expected = np.sqrt(2.0) * _standardize(a)
    np.testing.assert_allclose(scores, expected, atol=1e-10)


def test_pca_anticorrelated_columns():
    rng = np.random.default_rng(1)
    a = rng.normal(size=40)
    d = dataset_from({"a": a, "b": -3.0 * a + 5.0}, {})
    scores = first_principal_component(d, ["a", "b"])
    # loading of the first listed column is nonnegative: (1, -1)/sqrt(2)
    expected = np.sqrt(2.0) * _standardize(a)
    np.testing.assert_allclose(scores, expected, atol=1e-10)


def _largest_eigenpair_3x3(mat):
    """Characteristic-polynomial eigensolve for a symmetric 3x3 matrix.

    Uses the trigonometric solution of the cubic; the eigenvector comes from
    the cross product of two rows of (mat - lambda I).
    """
    q = np.trace(mat) / 3.0
    b = mat - q * np.eye(3)
    p = np.sqrt(np.trace(b @ b) / 6.0)
    det = np.linalg.det(b / p)
    phi = np.arccos(np.clip(det / 2.0, -1.0, 1.0)) / 3.0
    lam = q + 2.0 * p * np.cos(phi)  # largest root
    shifted = mat - lam * np.eye(3)
    vec = np.cross(shifted[0], shifted[1])
    if np.linalg.norm(vec) < 1e-12:
        vec = np.cross(shifted[0], shifted[2])
    return lam, vec / np.linalg.norm(vec)


def test_pca_matches_characteristic_polynomial_oracle():
    rng = np.random.default_rng(7)
    base = rng.normal(size=6)
    cols = {
        "a": base + 0.3 * rng.normal(size=6),
        "b": -0.7 * base + rng.normal(size=6),
        "c": rng.normal(size=6),
    }
    d = dataset_from(cols, {})
    scores = first_principal_component(d, ["a", "b", "c"])

    z = np.column_stack([_standardize(np.asarray(cols[k], dtype=float)) for k in "abc"])
    corr = z.T @ z / (len(base) - 1)
    _, vec = _largest_eigenpair_3x3(corr)
    if vec[0] < 0:
        vec = -vec
    np.testing.assert_allclose(scores, z @ vec, atol=1e-10)


def test_pca_row_order_invariance():
    rng = np.random.default_rng(9)
    cols = {"a": rng.normal(size=25), "b": rng.normal(size=25), "c": rng.normal(size=25)}
    d = dataset_from(cols, {})
    scores = first_principal_component(d, ["a", "b", "c"])
    perm = rng.permutation(25)
    scores_perm = first_principal_component(d.take(perm), ["a", "b", "c"])
    np.testing.assert_allclose(scores_perm, scores[perm], atol=1e-10)


def test_pca_zero_mean():
    rng = np.random.default_rng(3)
    d = dataset_from({"a": rng.normal(2.0, 1.0, 30), "b": rng.normal(-1.0, 3.0, 30)}, {})
    scores = first_principal_component(d, ["a", "b"])
    assert abs(scores.mean()) < 1e-10


def test_pca_errors():
    d = dataset_from({"a": [1.0, 2.0, 3.0], "b": [2.0, 2.0, 2.0]}, {})
    with pytest.raises(TooFewColumns):
        first_principal_component(d, ["a"])
    with pytest.raises(ZeroVariance):
        first_principal_component(d, ["a", "b"])
    nan = dataset_from({"a": [1.0, np.nan, 3.0], "b": [1.0, 2.0, 3.0]}, {})
    with pytest.raises(UnknownColumn):
        first_principal_component(nan, ["a", "b"])


@pytest.mark.parametrize("n", [0, 1])
def test_pca_of_fewer_than_two_rows_is_refused(n):
    # the sample standard deviation is NaN there, not 0
    d = dataset_from({"a": np.arange(n), "b": np.arange(n)}, {})
    with pytest.warns(RuntimeWarning), pytest.raises(ZeroVariance, match="a, b"):
        first_principal_component(d, ["a", "b"])


# -- quantile binning ---------------------------------------------------------


def test_quantile_bin_levels_and_nan():
    rng = np.random.default_rng(11)
    x = rng.normal(size=200)
    x[3] = np.nan
    d = dataset_from({"y": np.zeros(200), "x": x}, {"outcome": "y"})
    binned = quantile_bin(d, ["x"], bins=4)
    out = binned.column("x")
    assert np.isnan(out[3])
    finite = out[~np.isnan(out)]
    assert set(np.unique(finite)) == {0.0, 1.0, 2.0, 3.0}
    # bins are quantile-balanced on continuous data
    counts = [int((finite == k).sum()) for k in range(4)]
    assert max(counts) - min(counts) <= 2


@pytest.mark.parametrize("bins", [2.5, 2.0, "3", True, 1, 0])
def test_quantile_bin_refuses_a_bin_count_it_cannot_honour_by_name(bins):
    d = dataset_from({"y": np.zeros(6), "x": np.arange(6)}, {"outcome": "y"})
    with pytest.raises(InvalidSpec, match=f"integer number of bins >= 2, got {re.escape(repr(bins))}$"):
        quantile_bin(d, ["x"], bins=bins)


def test_quantile_bin_few_distinct_values():
    d = dataset_from({"y": np.zeros(6), "x": [1, 1, 1, 2, 2, 2]}, {"outcome": "y"})
    binned = quantile_bin(d, ["x"], bins=5)
    assert len(np.unique(binned.column("x"))) == 2
