"""Construction-stage tests: matrix entries, exact RREF, seed -> formula."""

import math
import warnings
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from fdforge.taylor_system import (
    DifferenceFormula,
    Dimensions,
    NonNormalizableSeedError,
    PivotDisplacementError,
    RankDeficientError,
    build_taylor_matrix,
    echelon_block,
    reduce_to_echelon,
    seed_to_formula,
)

F = Fraction

GRID = [(k, s) for k in range(1, 7) for s in (k, k + 1, k + 2)]


def nullvector(f):
    """The normalized null vector q = [1, q[1:]] of formula ``f``, read back
    from p = [1, -sum(q), q[1:]]."""
    return (f.p[0], *f.p[2:])


# ---------------------------------------------------------------- dimensions


def test_dimensions_derived_quantities():
    d = Dimensions(3, 5)
    assert d.degree == 8
    assert d.order == 5
    assert Dimensions(np.int64(3), np.int64(5)) == d  # NumPy integers pass


@pytest.mark.parametrize("k,s", [(0, 1), (-2, 3), (1, 0), (2, -1), (2.5, 2), (2, "3")])
def test_dimensions_rejects_nonpositive(k, s):
    with pytest.raises(ValueError):
        Dimensions(k, s)


def test_dimensions_are_sizes_only_and_never_warn():
    # s < k and large k are search advice (SearchConfig), not size errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Dimensions(3, 2).degree == 5
        assert Dimensions(9, 9).degree == 18
    assert [f.name for f in fields(Dimensions)] == ["k", "s"]


# -------------------------------------------------------------- matrix build


def test_matrix_2_2_hand_values():
    a = build_taylor_matrix(Dimensions(2, 2))
    assert a == (
        (F(1, 2), F(1, 6)),
        (F(1, 2), F(-1, 6)),
        (F(2), F(-4, 3)),
        (F(9, 2), F(-9, 2)),
    )


def test_matrix_1_1_hand_values():
    a = build_taylor_matrix(Dimensions(1, 1))
    assert a == ((F(1, 2),), (F(1, 2),))


@pytest.mark.parametrize("k,s", GRID)
def test_entry_closed_form(k, s):
    a = build_taylor_matrix(Dimensions(k, s))
    for u in range(1, k + s + 1):
        for v in range(1, k + 1):
            if u == 1:
                expect = F(1, math.factorial(v + 1))
            else:
                expect = F((-1) ** (v + 1) * (u - 1) ** (v + 1), math.factorial(v + 1))
            got = a[u - 1][v - 1]
            assert got == expect
            assert math.gcd(got.numerator, got.denominator) == 1  # lowest terms


# ---------------------------------------------------------- echelon reduction


def test_echelon_2_2_hand_values():
    blk = reduce_to_echelon(build_taylor_matrix(Dimensions(2, 2)))
    assert blk.b == ((F(-2), F(-9)), (F(6), F(18)))


def test_echelon_1_1():
    blk = reduce_to_echelon(build_taylor_matrix(Dimensions(1, 1)))
    assert blk.b == ((F(1),),)


@pytest.mark.parametrize("k,s", GRID)
def test_echelon_against_sympy(k, s):
    # independent exact oracle: sympy's rref of the transpose
    sympy = pytest.importorskip("sympy")
    a = build_taylor_matrix(Dimensions(k, s))
    at = sympy.Matrix([[a[r][c] for r in range(k + s)] for c in range(k)])
    r, pivots = at.rref()
    assert pivots == tuple(range(k))
    blk = reduce_to_echelon(a)
    for i in range(k):
        for j in range(s):
            cell = r[i, k + j]
            assert blk.b[i][j] == F(int(cell.p), int(cell.q))


def test_echelon_rank_deficient_detected():
    rows = tuple((F(n), F(2 * n)) for n in (1, 2, 3, 4))  # rank 1
    with pytest.raises(RankDeficientError):
        reduce_to_echelon(rows)


def test_echelon_pivot_displacement_detected():
    # first column of the transpose is zero -> pivots land in columns 2, 3
    rows = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1)))
    with pytest.raises(PivotDisplacementError):
        reduce_to_echelon(rows)


def test_echelon_block_is_cached():
    assert echelon_block(Dimensions(4, 5)) is echelon_block(Dimensions(4, 5))


@pytest.mark.parametrize("k,s", GRID)
def test_seed_plane_spans_the_unit_leading_entry_hyperplane(k, s):
    blk = echelon_block(Dimensions(k, s))
    b = -blk.b_float[0]
    y_p, n = blk.seed_plane
    assert n.shape == (s, s - 1)
    assert abs(b @ y_p - 1.0) <= 1e-15
    assert np.abs(n.T @ n - np.eye(s - 1)).max(initial=0.0) <= 1e-15
    assert np.abs(b @ n).max(initial=0.0) <= 1e-15 * np.linalg.norm(b)
    assert blk.seed_plane is blk.seed_plane
    with pytest.raises(ValueError):
        y_p[0] = 0.0
    # every point y_p + N z spawns a null vector with q[0] = 1 before
    # normalization
    z = np.random.default_rng(k * 10 + s).standard_normal(s - 1)
    assert abs(b @ (y_p + n @ z) - 1.0) <= 1e-15 * np.linalg.norm(b) * (1 + np.linalg.norm(z))


# ------------------------------------------------------------ seed -> vector


def test_nullvector_reference_seed_exact():
    blk = echelon_block(Dimensions(2, 2))
    y = [F(-5), F(2)]
    head = [-sum(b * v for b, v in zip(row, y)) for row in blk.b]
    assert head == [F(8), F(-6)]  # pre-normalization [8, -6, -5, 2]
    q = nullvector(seed_to_formula(Dimensions(2, 2), y, exact=True))
    assert q == (F(1), F(-3, 4), F(-5, 8), F(1, 4))


def test_nullvector_reference_seed_float():
    q = nullvector(seed_to_formula(Dimensions(2, 2), [-5.0, 2.0]))
    assert np.allclose(q, [1.0, -0.75, -0.625, 0.25], atol=1e-14)


@pytest.mark.parametrize("exact", [True, False])
def test_nullvector_nonnormalizable_seed(exact):
    with pytest.raises(NonNormalizableSeedError):
        seed_to_formula(Dimensions(2, 2), [-9, 2] if exact else [-9.0, 2.0], exact=exact)


def test_nullvector_rejects_zero_seed_and_bad_length():
    d = Dimensions(2, 2)
    for exact in (False, True):
        with pytest.raises(ValueError):
            seed_to_formula(d, [0.0, 0.0], exact=exact)
        with pytest.raises(ValueError):
            seed_to_formula(d, [1.0, 2.0, 3.0], exact=exact)
    # non-finite seeds, and a finite seed whose null vector overflows
    for y in ([np.nan, 1.0], [np.inf, 1.0], [1e308, 1e308]):
        with pytest.raises(ValueError), np.errstate(over="ignore", invalid="ignore"):
            seed_to_formula(d, y)


def test_nullvector_annihilates_matrix_exactly():
    rng = np.random.default_rng(314)
    for k, s in GRID:
        d = Dimensions(k, s)
        a = build_taylor_matrix(d)
        for _ in range(5):
            y = [F(int(v)) for v in rng.integers(-30, 30, size=s)]
            if all(v == 0 for v in y):
                continue
            try:
                q = nullvector(seed_to_formula(d, y, exact=True))
            except NonNormalizableSeedError:
                continue
            for v in range(k):
                assert sum(q[u] * a[u][v] for u in range(k + s)) == 0


def test_nullvector_float_residual_small():
    # float-path version of the same identity, absolute component bound
    rng = np.random.default_rng(2718)
    for k, s in GRID:
        d = Dimensions(k, s)
        a = build_taylor_matrix(d)
        af = np.array([[float(v) for v in row] for row in a])
        for _ in range(100):
            y = rng.standard_normal(s)
            try:
                q = np.array(nullvector(seed_to_formula(d, y)))
            except NonNormalizableSeedError:
                continue
            assert np.abs(q @ af).max() <= 1e-12


# ----------------------------------------------------------- seed -> formula


def test_formula_reference_2_2_exact():
    f = seed_to_formula(Dimensions(2, 2), [F(-5), F(2)], exact=True)
    assert f.p == (F(1), F(1, 8), F(-3, 4), F(-5, 8), F(1, 4))
    assert f.c == F(9, 4)
    assert all(isinstance(v, F) for v in (*f.p, f.c))


def test_formula_reference_3_3_exact():
    f = seed_to_formula(Dimensions(3, 3), [1, 110, -40], exact=True)
    assert f.p == (
        F(1),
        F(80, 237),
        F(-182, 237),
        F(-206, 237),
        F(1, 237),
        F(110, 237),
        F(-40, 237),
    )
    assert f.c == F(196, 79)


def test_formula_euler_from_1_1():
    f = seed_to_formula(Dimensions(1, 1), [1], exact=True)
    assert f.p == (F(1), F(0), F(-1))
    assert f.c == F(2)


def test_formula_float_path_matches_exact():
    f = seed_to_formula(Dimensions(2, 2), [-5.0, 2.0])
    assert all(isinstance(v, float) for v in (*f.p, f.c))
    assert np.allclose(f.p, [1.0, 0.125, -0.75, -0.625, 0.25], atol=1e-14)
    assert abs(f.c - 2.25) < 1e-14


def test_formula_scale_invariance_exact():
    d = Dimensions(2, 2)
    f1 = seed_to_formula(d, [F(-5), F(2)], exact=True)
    f2 = seed_to_formula(d, [F(-10), F(4)], exact=True)
    f3 = seed_to_formula(d, [F(5, 7), F(-2, 7)], exact=True)
    assert f1.p == f2.p == f3.p
    assert f1.c == f2.c == f3.c


def test_formula_scale_invariance_float():
    rng = np.random.default_rng(99)
    for k, s in [(1, 2), (3, 3), (4, 6)]:
        d = Dimensions(k, s)
        y = rng.standard_normal(s)
        f1 = seed_to_formula(d, y)
        f2 = seed_to_formula(d, 17.5 * y)
        assert np.allclose(f1.p, f2.p, rtol=0, atol=1e-12)
        assert abs(f1.c - f2.c) < 1e-10


def test_structural_identities_exact_random():
    # p(1) = 0 and p'(1) = c, exactly, across the dims grid and at k beyond
    # the search's K_LIMIT, which the exact path does not have
    rng = np.random.default_rng(4242)
    for k, s in GRID + [(9, 9), (12, 12)]:
        d = Dimensions(k, s)
        for _ in range(10):
            y = [F(int(n), int(m)) for n, m in zip(
                rng.integers(-50, 50, size=s), rng.integers(1, 9, size=s))]
            if all(v == 0 for v in y):
                continue
            try:
                f = seed_to_formula(d, y, exact=True)
            except NonNormalizableSeedError:
                continue
            assert sum(f.p) == 0
            degree = len(f.p) - 1
            dp1 = sum(i * f.p[degree - i] for i in range(1, degree + 1))
            assert dp1 == f.c


def test_structural_identities_float_random():
    rng = np.random.default_rng(321)
    for k, s in GRID:
        d = Dimensions(k, s)
        for _ in range(50):
            y = rng.standard_normal(s)
            try:
                f = seed_to_formula(d, y)
            except NonNormalizableSeedError:
                continue
            p = np.array(f.p)
            assert abs(p.sum()) <= 1e-10
            degree = len(p) - 1
            dp1 = float(np.arange(degree, 0, -1) @ p[:-1])
            assert abs(dp1 - f.c) <= 1e-10


def test_difference_formula_as_float():
    f = seed_to_formula(Dimensions(1, 1), [1], exact=True)
    g = f.as_float()
    assert all(isinstance(v, float) for v in (*g.p, g.c))
    assert g.p == (1.0, 0.0, -1.0)
    assert g.c == 2.0
    assert len(g.p) == len(f.p) == 3


def test_difference_formula_is_p_and_c():
    # a formula is its polynomial and derivative weight, whatever built it
    assert [f.name for f in fields(DifferenceFormula)] == ["p", "c"]
    f = seed_to_formula(Dimensions(1, 1), [F(3)], exact=True)
    assert f == DifferenceFormula((F(1), F(0), F(-1)), F(2))
    assert f.as_float() == DifferenceFormula((1.0, 0.0, -1.0), 2.0)


def test_large_seed_magnitude_ranges():
    # seeds spanning several orders of magnitude keep identities intact
    d = Dimensions(3, 3)
    f = seed_to_formula(d, [1e-6, 110e6, -40e-3])
    p = np.array(f.p)
    assert abs(p.sum()) < 1e-9


def test_no_warning_when_s_at_least_k():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Dimensions(2, 2)
        Dimensions(2, 5)
