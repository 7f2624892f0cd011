"""The numpy kernels of `regression` against scipy, kept as a test-only oracle.

`expit` must match ``scipy.special.expit`` to 4 ulps wherever scipy's value
is a normal double. Below about x = -709.78 scipy's value underflows (it is
subnormal or 0); there the two may differ by a subnormal amount, less than
the smallest normal double. `back_substitute` must match
``scipy.linalg.solve_triangular`` to a few ulps on well-conditioned systems.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

scipy_special = pytest.importorskip("scipy.special")
scipy_linalg = pytest.importorskip("scipy.linalg")

from gapdecomp.regression import back_substitute, expit  # noqa: E402

TINY = np.finfo(float).tiny
EDGES = [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 40.0, -40.0, 700.5, -700.5, 709.78, -709.78,
         -709.79, 744.4, -744.4, 745.0, -745.0, 745.2, -745.2, 1e308, -1e308, np.inf, -np.inf]


def assert_expit_matches_scipy(x):
    ours, theirs = expit(x), scipy_special.expit(x)
    assert ours.shape == theirs.shape
    normal = np.abs(theirs) >= TINY
    ulps = np.abs(ours[normal].view(np.int64) - theirs[normal].view(np.int64))
    assert ulps.max(initial=0) <= 4
    assert np.all(np.abs(ours[~normal] - theirs[~normal]) < TINY)
    assert np.all((ours >= 0.0) & (ours <= 1.0))


def test_expit_matches_scipy_across_the_range_of_exp():
    x = np.concatenate([np.linspace(-745.2, 745.2, 400_001), EDGES])
    assert_expit_matches_scipy(x)
    assert_expit_matches_scipy(-x)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=50))
def test_expit_matches_scipy_on_any_double(values):
    assert_expit_matches_scipy(np.array(values))


def test_expit_at_its_edges():
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -40.0])
    assert expit(x)[:4].tolist() == [0.5, 0.5, 1.0, 0.0]
    assert np.isnan(expit(x)[4])
    assert expit(x)[5] == pytest.approx(4.248354255291589e-18, rel=1e-15)  # no underflow
    assert expit(-745.0) == 5e-324 and np.ndim(expit(-745.0)) == 0


@settings(max_examples=300, deadline=None)
@given(p=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_back_substitute_matches_scipy(p, seed):
    rng = np.random.default_rng(seed)
    # unit-scale off-diagonal entries over a dominant diagonal: condition number stays small
    r = np.triu(rng.normal(size=(p, p))) + np.diag(rng.choice([-1.0, 1.0], p) * rng.uniform(p, 2 * p, p))
    b = rng.normal(size=p) * 10.0 ** rng.integers(-3, 4)
    ours, theirs = back_substitute(r, b), scipy_linalg.solve_triangular(r, b)
    np.testing.assert_allclose(ours, theirs, rtol=8 * np.finfo(float).eps,
                               atol=8 * np.finfo(float).eps * np.abs(theirs).max())
    assert np.array_equal(back_substitute(r, b), ours)  # deterministic
