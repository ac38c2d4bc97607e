"""Root finding, the convergence classifier, and the search objective."""

import warnings

import numpy as np
import pytest
from scipy.linalg.lapack import dgeev

from fdforge import charpoly
from fdforge.charpoly import (
    DegenerateInputError,
    PENALTY,
    analyze,
    analyze_formula,
    find_roots,
    objective_function,
)
from fdforge.taylor_system import Dimensions, seed_to_formula

E_POLY = [1.0, 0.125, -0.75, -0.625, 0.25]


# ----------------------------------------------------------------- raw roots


def test_euler_roots():
    r = find_roots([1, 0, -1])
    assert sorted(np.real(r).tolist()) == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert np.abs(np.imag(r)).max() < 1e-12


def test_double_root():
    r = find_roots([1, -2, 1])
    assert np.allclose(r, [1.0, 1.0], atol=1e-7)


def test_roots_sorted_by_descending_magnitude():
    r = find_roots([1.0, 0.0, 0.0, 0.0, -0.0001])
    mags = np.abs(r)
    assert all(mags[i] >= mags[i + 1] - 1e-15 for i in range(len(r) - 1))


def test_e_poly_magnitudes():
    r = find_roots(E_POLY)
    mags = np.abs(r)
    assert mags[0] == pytest.approx(1.0, abs=1e-10)
    assert mags[1] == pytest.approx(0.9025, abs=5e-4)


def _sorted_np_roots(p):
    r = np.roots(p).astype(complex)
    return r[np.lexsort((r.imag, r.real, -np.abs(r)))]


def _random_polys():
    """600 random real polynomials of degree 1-12 over six decades, a third
    of them ending in zeros, plus three that are all zeros past the lead."""
    rng = np.random.default_rng(2024)
    polys = [[3.0, 0.0], [-2.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0, 0.0]]
    for _ in range(600):
        deg = int(rng.integers(1, 13))
        p = rng.standard_normal(deg + 1) * 10.0 ** rng.integers(-3, 4)
        if rng.random() < 0.3:
            p[deg + 1 - int(rng.integers(1, deg + 1)):] = 0.0
        polys.append(p)
    return polys


def test_find_roots_bit_identical_to_np_roots():
    # the dgeev kernel reproduces np.roots, trailing zeros included
    for p in _random_polys():
        got, want = find_roots(p), _sorted_np_roots(p)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.real, want.real) and np.array_equal(got.imag, want.imag)


def test_kernel_bits_equal_scipy_dgeev():
    # NumPy's dgeev gufunc against SciPy's dgeev (the kernel before it), on
    # the companion matrices of the same polynomials; SciPy is an oracle here
    for p in _random_polys():
        p = np.asarray(p)
        comp = np.eye(p.size - 1, k=-1, order="F")
        comp[0] = -p[1:] / p[0]
        got = charpoly._eigvals(comp, signature="d->D")
        wr, wi, _, _, info = dgeev(comp, compute_vl=0, compute_vr=0)
        assert info == 0
        assert got.real.tobytes() == wr.tobytes() and got.imag.tobytes() == wi.tobytes()


@pytest.mark.parametrize(
    "bad",
    [[], [3.0], [0, 1, 2], [1, np.inf, 0], [1, np.nan], [1, 2j, 1], [1e-300, 1e300, 1]],
)
def test_degenerate_inputs(bad):
    with pytest.raises(DegenerateInputError):
        find_roots(bad)


def test_backward_stability_residual_bound():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        deg = int(rng.integers(1, 13))
        p = rng.standard_normal(deg + 1)
        if abs(p[0]) < 1e-3:
            p[0] = 1.0
        roots = find_roots(p)
        norm1 = np.abs(p).sum()
        for z in roots:
            val = abs(np.polyval(p, z))
            assert val <= 1e-8 * norm1 * max(1.0, abs(z)) ** deg


def test_root_product_reconstructs_coefficients():
    # multiplying out (x - z_1)...(x - z_d) reproduces p to 1e-6 relative
    rng = np.random.default_rng(77)
    for _ in range(100):
        deg = int(rng.integers(2, 10))
        p = rng.standard_normal(deg + 1)
        p[0] = 1.0
        roots = find_roots(p)
        rebuilt = np.real(np.poly(roots))
        assert np.allclose(rebuilt, p, rtol=1e-6, atol=1e-9)


# ------------------------------------------------------------ classification


def test_euler_is_convergent():
    rep = analyze([1, 0, -1])
    assert rep.convergent
    assert rep.max_magnitude == pytest.approx(1.0, abs=1e-12)
    assert rep.second_magnitude == pytest.approx(1.0, abs=1e-12)
    assert len(rep.on_circle) == 2


def test_known_three_term_formula_convergent():
    assert analyze([2, -3, 2, -1]).convergent


def test_repeated_circle_root_not_convergent():
    rep = analyze([1, -2, 1])
    assert not rep.convergent


def test_root_outside_disk_not_convergent():
    rep = analyze([1.0, -2.1, 1.1])  # roots 1 and 1.1
    assert not rep.convergent
    assert rep.max_magnitude == pytest.approx(1.1, abs=1e-9)
    assert rep.max_deviation == pytest.approx(0.1, abs=1e-9)


def test_e_poly_report_fields():
    rep = analyze(E_POLY)
    assert rep.convergent
    assert abs(rep.max_deviation) <= 1e-8
    assert rep.second_magnitude == pytest.approx(0.9025, abs=5e-4)
    assert len(rep.roots) == 4


def test_second_magnitude_counts_multiplicity():
    # (x - 0.9)^2 (x - 0.1): two largest magnitudes are both 0.9
    p = np.poly([0.9, 0.9, 0.1])
    rep = analyze(p)
    assert rep.second_magnitude == pytest.approx(0.9, abs=1e-9)


def test_degree_one_second_magnitude_is_zero():
    rep = analyze([1.0, -0.5])
    assert rep.second_magnitude == 0.0
    assert rep.convergent


def test_scale_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = rng.standard_normal(6)
        p[0] = 1.0
        a = analyze(p)
        b = analyze(3.7 * p)
        assert a.convergent == b.convergent
        assert a.max_magnitude == pytest.approx(b.max_magnitude, abs=1e-12)
        assert a.second_magnitude == pytest.approx(b.second_magnitude, abs=1e-12)


def test_conjugate_circle_pair_is_not_repeated():
    # distinct conjugate roots on the circle are fine (e.g. x^2 + 1)
    rep = analyze([1.0, 0.0, 1.0])
    assert rep.convergent
    assert len(rep.on_circle) == 2


def test_nearby_circle_cluster_rejected():
    # roots exp(+-2e-7 i): both on the circle to the last bits, so the
    # magnitude rule accepts them, but 4e-7 apart, within CLUSTER_TOL, so
    # they count as a repeated root
    rep = analyze([1.0, -2 * np.cos(2e-7), 1.0])
    assert abs(rep.max_deviation) <= 1e-15
    assert rep.on_circle == (0, 1)
    assert abs(rep.roots[0] - rep.roots[1]) <= charpoly.CLUSTER_TOL
    assert not rep.convergent


def test_analyze_formula_object():
    f = seed_to_formula(Dimensions(2, 2), [-5.0, 2.0])
    rep = analyze_formula(f)
    assert rep.convergent
    assert rep.second_magnitude == pytest.approx(0.9025, abs=5e-4)


# -------------------------------------------------------------- search lens


def test_objective_known_convergent_seeds():
    assert objective_function(Dimensions(2, 2))([-5.0, 2.0]) == pytest.approx(
        1.0, abs=1e-9
    )
    assert objective_function(Dimensions(3, 3))([1.0, 110.0, -40.0]) == pytest.approx(
        1.0, abs=1e-9
    )


def test_objective_penalty_cases():
    d = Dimensions(2, 2)
    f = objective_function(d)
    assert f(np.array([0.0, 0.0])) == PENALTY
    assert f(np.array([np.nan, 1.0])) == PENALTY
    assert f(np.array([1.0, 2.0, 3.0])) == PENALTY
    assert f(np.array([-9.0, 2.0])) == PENALTY  # non-normalizable seed


def test_objective_overflow_penalized_before_lapack(monkeypatch):
    # a finite seed whose null vector overflows leaves a non-finite companion
    # row; it scores the penalty and never reaches LAPACK
    rows = []
    eigvals = charpoly._eigvals

    def spy(a, **kw):
        rows.append(a[0].copy())
        return eigvals(a, **kw)

    monkeypatch.setattr(charpoly, "_eigvals", spy)
    for k, s in [(2, 2), (3, 3), (4, 4)]:
        f = objective_function(Dimensions(k, s))
        for y in ([1e308] * s, [-1e308] * s, [1e307] * s):
            with np.errstate(over="ignore", invalid="ignore"):
                assert f(np.array(y)) == PENALTY
    assert all(np.isfinite(r).all() for r in rows)
    # the spy sits on the path that a finite companion row takes
    n = len(rows)
    objective_function(Dimensions(2, 2))(np.array([-5.0, 2.0]))
    assert len(rows) == n + 1


def test_lapack_failure_is_a_silent_typed_error(monkeypatch):
    # when dgeev does not converge the gufunc fills its output with NaN and
    # raises NumPy's "invalid value" error; the stub does both
    def failing(a, *, signature, out):
        out[...] = np.float64(np.inf) - np.inf
        return out

    monkeypatch.setattr(charpoly, "_eigvals", failing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            find_roots([1.0, -3.0, 2.0])
        for k, s in [(2, 2), (4, 4)]:
            assert objective_function(Dimensions(k, s))(np.ones(s)) == PENALTY


def test_objective_floor_thousand_seeds():
    # p(1) = 0 pins a root at 1: the objective can never dip below 1
    rng = np.random.default_rng(31337)
    dims = [Dimensions(k, s) for k in range(1, 7) for s in (k, k + 1, k + 2)]
    funcs = [objective_function(d) for d in dims]
    count = 0
    while count < 1000:
        for d, f in zip(dims, funcs):
            y = rng.standard_normal(d.s)
            assert f(y) >= 1.0 - 1e-9
            count += 1


def test_objective_matches_full_pipeline():
    # the objective and the float seed path give one verdict: the penalty
    # exactly where seed_to_formula or the classifier raises, else the
    # classifier's max magnitude to the bit.  Seeds near the reference seeds
    # (-5, 2) and (1, 110, -40) often have a complex dominant root, which
    # pins how magnitudes are taken; a seed ending in 0 gives p trailing
    # zeros, which both deflate; the planted seeds are degenerate.
    d22 = Dimensions(2, 2)
    seeds = [(d22, np.array(y)) for y in ([np.nan, 1.0], [np.inf, 1.0],
                                          [1e308, 1e308], [0.0, 0.0],
                                          [-9.0, 2.0], [1.0, 2.0, 3.0])]
    rng = np.random.default_rng(8)
    cases = [(Dimensions(k, s), np.zeros(s), 1.0)
             for k, s in [(1, 1), (2, 2), (3, 4), (4, 4), (6, 8)]]
    cases += [(d22, np.array([-5.0, 2.0]), 0.5),
              (Dimensions(3, 3), np.array([1.0, 110.0, -40.0]), 5.0)]
    for d, y0, spread in cases:
        for i in range(25):
            y = y0 + spread * rng.standard_normal(d.s)
            if i % 5 == 0:
                y[-1] = 0.0
            seeds.append((d, y))
    complex_top = penalized = 0
    for d, y in seeds:
        with np.errstate(over="ignore", invalid="ignore"):
            v = objective_function(d)(y)
            try:
                formula = seed_to_formula(d, y)
                # a formula the seed path returns is a real one, so the
                # classifier never meets NaN or inf from it
                assert np.isfinite(formula.p).all()
                rep = analyze_formula(formula)
            except (ValueError, np.linalg.LinAlgError):
                assert v == PENALTY
                penalized += 1
                continue
        assert v == rep.max_magnitude
        complex_top += rep.roots[0].imag != 0
    assert complex_top > 0
    assert penalized >= 6


def test_objective_scale_invariant():
    # q = [-By, y] / q[0], so f(lam * y) = f(y) for every lam != 0: the search
    # can run on the hyperplane q[0] = 1.  Scaling by 2, -1 or 1/2 is exact
    # in float, so there the value keeps its bits.
    rng = np.random.default_rng(17)
    for k in (3, 4, 5):
        f = objective_function(Dimensions(k, k))
        for _ in range(200):
            y = rng.standard_normal(k)
            v = f(y)
            assert v < PENALTY
            for lam in (2.0, -1.0, 0.5):
                assert f(lam * y) == v, (k, y, lam)
            lam = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
            assert f(lam * y) == pytest.approx(v, rel=1e-12, abs=0), (k, y, lam)
