"""The BFGS polish, randomized helpers, and the discovery double loop."""

import contextlib
import contextvars
import functools
import math
import multiprocessing
import os
import resource
import subprocess
import sys
import time
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from fdforge import charpoly, search
from fdforge.charpoly import (
    PENALTY,
    _companion_roots,
    analyze_formula,
    deflated_radius,
    objective_function,
)
from fdforge.search import (
    FLOOR_MARGIN,
    K_LIMIT,
    LINE_SEARCH_TRIALS,
    MAX_ITER,
    WOLFE_C1,
    WOLFE_C2,
    SearchConfig,
    SearchResult,
    bfgs,
    discover,
    perturb,
    random_seed,
)
from fdforge.taylor_system import Dimensions, echelon_block, seed_to_formula
from fdforge.validation import empirical_order

E_POLY = (1.0, 0.125, -0.75, -0.625, 0.25)


def plane_points(dims, count, rng):
    """``count`` random points z of the seed plane whose polish value is
    finite, drawn at the scale of the search's start points."""
    block = echelon_block(dims)
    b, (_, plane) = -block.b_float[0], block.seed_plane
    fg = value, gradient = deflated_radius(dims)
    out = []
    while len(out) < count:
        y = rng.standard_normal(dims.s)
        z = plane.T @ (y / (b @ y))
        value(z)
        if gradient() is not None:
            out.append(z)
    return fg, out


def frozen_deflated_radius(dims):
    """charpoly.deflated_radius as one call z -> (h, grad h), or
    (PENALTY, None), frozen as the reference that its value and gradient
    must match bit for bit."""
    r_p, r_z = echelon_block(dims).deflated_plane
    m = r_p.size
    neg_p, neg_z = -r_p, -r_z
    neg_zc = neg_z.astype(complex)
    comp = np.eye(m, k=-1, order="F")
    tail = np.empty(m)
    roots = np.empty(m, dtype=complex)
    exponents = np.arange(m - 1, -1, -1)

    def value_and_gradient(z):
        np.matmul(neg_z, z, out=tail)
        np.add(tail, neg_p, out=tail)
        if not np.isfinite(tail).all():
            return PENALTY, None
        try:
            _companion_roots(tail, comp, roots)
        except np.linalg.LinAlgError:
            return PENALTY, None
        mags = np.abs(roots)
        i = mags.argmax()
        h, root = float(mags[i]), roots[i]
        gaps = root - roots
        gaps[i] = 1.0
        droot = (root ** exponents @ neg_zc) / gaps.prod()
        grad = (root.conjugate() * droot).real / h
        return (h, grad) if np.isfinite(grad).all() else (PENALTY, None)

    with np.errstate(all="ignore"):
        return functools.partial(contextvars.copy_context().run, value_and_gradient)


# ------------------------------------------------------------------- polish


@pytest.mark.parametrize("k, s", [(4, 4), (5, 5), (6, 7)])
def test_radius_gradient_matches_central_differences(k, s):
    dims = Dimensions(k, s)
    (value, gradient), points = plane_points(dims, 20, np.random.default_rng(k * 10 + s))
    y_p, plane = echelon_block(dims).seed_plane
    f = objective_function(dims)
    for z in points:
        h, grad = value(z), gradient()
        # p = (x - 1) r, so p's largest root magnitude is max(1, h)
        assert f(y_p + plane @ z) == pytest.approx(max(1.0, h), rel=1e-9)
        step = 1e-6 * max(1.0, np.abs(z).max())
        central = np.array([(value(z + step * e) - value(z - step * e)) / (2 * step)
                            for e in np.eye(z.size)])
        assert np.abs(central - grad).max() <= 1e-5 * np.abs(grad).max(), z


PENALTY_STARTS = [[np.inf, 0.5, 1.0], [np.nan, 0.0, 0.0], [1e300, -1e300, 1e300]]


@pytest.mark.parametrize("z0", PENALTY_STARTS, ids=["inf", "nan", "overflow"])
def test_polish_from_a_penalty_start_returns_the_penalty_silently(z0):
    fg = value, gradient = deflated_radius(Dimensions(4, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h0, g0 = value(np.array(z0)), gradient()
        z, h, nit = bfgs(fg, np.array(z0))
    # a non-finite tail scores the penalty; at 1e300 the tail is finite, and
    # its roots, about 1e301, overflow the gradient: neither has one
    assert g0 is None and (h0 == PENALTY) == (not np.isfinite(z0).all())
    assert h == PENALTY and nit == 0
    assert z.tobytes() == np.array(z0).tobytes()


def zero_tail_point():
    """The point of the (2,2) seed plane where r's constant term is 0.0, so
    the root kernel strips it into an exact zero root."""
    r_p, r_z = echelon_block(Dimensions(2, 2)).deflated_plane
    z = np.array([-r_p[-1] / r_z[-1, 0]])
    assert (-r_z @ z - r_p)[-1] == 0.0
    return z


def huge_root_point():
    """A point of the (4,4) seed plane where r has a root near 1e60: its
    powers overflow, so h is finite and its gradient is not."""
    r_p, r_z = echelon_block(Dimensions(4, 4)).deflated_plane
    return 1e60 * -r_z[0] / (r_z[0] @ r_z[0])


def test_value_then_gradient_match_the_frozen_kernel_bit_for_bit():
    cases = []
    for k, s in [(2, 2), (4, 4), (5, 5), (6, 7)]:
        rng = np.random.default_rng(k * 10 + s)
        cases += [(Dimensions(k, s), on_plane(Dimensions(k, s), rng.standard_normal(s)))
                  for _ in range(25)]
    cases += [(Dimensions(4, 4), np.array(z0)) for z0 in PENALTY_STARTS]
    cases += [(Dimensions(2, 2), zero_tail_point()), (Dimensions(4, 4), huge_root_point())]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dims, z in cases:
            value, gradient = deflated_radius(dims)
            h, grad = value(z), gradient()
            ref_h, ref_grad = frozen_deflated_radius(dims)(z)
            if ref_grad is None:
                assert ref_h == PENALTY and grad is None, z
            else:
                assert same_bits(h, ref_h) and same_bits(grad, ref_grad), z
        # no gradient at the huge root, but a finite value
        fg = value, gradient = deflated_radius(Dimensions(4, 4))
        z = huge_root_point()
        assert 1e59 < value(z) < math.inf and gradient() is None
        z_end, h, nit = bfgs(fg, z)
        assert same_bits(z_end, z) and h == PENALTY and nit == 0


# The tests named test_nm_* were written for the Nelder-Mead (nm) polish
# that bfgs replaced; they keep their names and check bfgs.


def on_plane(dims, y):
    """z of the start point y / (b·y) on the seed plane, as the search has it."""
    block = echelon_block(dims)
    return block.seed_plane[1].T @ (y / (-block.b_float[0] @ y))


def numpy_bfgs(fg, z0, *, max_iter=MAX_ITER):
    """bfgs as a plain loop, frozen as the reference that bfgs must match bit
    for bit.  Every search's formulas follow from the points the polish
    evaluates, so a change to them must be made here too, on purpose."""
    z = np.asarray(z0, dtype=float)
    h, g = fg(z)
    n = z.size
    inv_h = np.eye(n)
    nit = 0
    while nit < max_iter and g is not None and h > 1.0 - FLOOR_MARGIN:
        d = -inv_h @ g
        if not g @ d < 0.0:
            inv_h = np.eye(n)
            d = -g
        slope = g @ d
        if not slope < 0.0:
            break
        lo, hi, t = 0.0, np.inf, 1.0
        accepted = False
        for _ in range(LINE_SEARCH_TRIALS):
            z_t = z + t * d
            h_t, g_t = fg(z_t)
            if g_t is None or not h_t <= h + WOLFE_C1 * t * slope:
                hi = t
            elif g_t @ d < WOLFE_C2 * slope:
                lo = t
            else:
                accepted = True
                break
            t = 0.5 * (lo + hi) if np.isfinite(hi) else 2.0 * lo
        if not accepted:
            break
        step, dg = z_t - z, g_t - g
        sy = step @ dg
        if sy > 0.0:
            v = np.eye(n) - np.outer(step, dg) / sy
            inv_h = v @ inv_h @ v.T + np.outer(step, step) / sy
        z, h, g = z_t, h_t, g_t
        nit += 1
    return z, h, nit


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def value_first(fg):
    """The (value, gradient) pair of ``fg(z) -> (h, g)``, as bfgs takes it."""
    last = []

    def value(z):
        last[:] = fg(z)
        return last[0]

    return value, lambda: last[1]


def one_call(fg):
    """``z -> (h, g)`` of a (value, gradient) pair, as the frozen loop takes
    it: (PENALTY, None) where there is no gradient."""
    value, gradient = fg

    def value_and_gradient(z):
        h, g = value(z), gradient()
        return (PENALTY, None) if g is None else (h, g)

    return value_and_gradient


class RecordingPair:
    """(value, gradient) pair that records the bits of every point it is
    valued at, and the index of each point whose gradient is read."""

    def __init__(self, fg):
        self.fg, self.points, self.read = fg, [], []

    def value(self, z):
        self.points.append(np.asarray(z, dtype=float).tobytes())
        return self.fg[0](z)

    def gradient(self):
        self.read.append(len(self.points) - 1)
        return self.fg[1]()


class Decrease(float):
    """A value of the frozen loop that notes its point's index in ``log``
    when the loop's sufficient-decrease test, ``h_t <= bound``, passes."""

    def __new__(cls, h, log, index):
        out = super().__new__(cls, h)
        out.log, out.index = log, index
        return out

    def __le__(self, bound):
        passed = float(self) <= bound
        if passed:
            self.log.append(self.index)
        return passed


class RecordingObjective:
    """``fg`` that records the bits of every point it is called on, and the
    index of each point where the frozen loop finds sufficient decrease."""

    def __init__(self, fg):
        self.fg, self.points, self.decreased = fg, [], []

    def __call__(self, z):
        self.points.append(np.asarray(z, dtype=float).tobytes())
        h, g = self.fg(z)
        return Decrease(h, self.decreased, len(self.points) - 1), g


def assert_same_polish(fg, z0, **kw):
    """bfgs on the (value, gradient) pair ``fg`` and the frozen loop on its
    one-call form evaluate the same points in the same order and return the
    same z and h bits and nit, and bfgs reads the gradient at the start and
    at the trials where the frozen loop finds sufficient decrease, only;
    returns bfgs's result and its recording."""
    new, ref = RecordingPair(fg), RecordingObjective(one_call(fg))
    z, h, nit = bfgs((new.value, new.gradient), z0, **kw)
    rz, rh, rnit = numpy_bfgs(ref, z0, **kw)
    assert same_bits(z, rz) and same_bits(h, rh) and nit == rnit, z0
    assert new.points == ref.points, z0
    assert new.read == [0] + ref.decreased, z0
    return (z, h, nit), new


def bowl(a):
    """1 + |v - a|^2 with its gradient: its minimum 1 lies above the floor
    exit, so the polish runs until its line search or gradient ends it."""
    return lambda v: (1.0 + float(np.sum((v - a) ** 2)), 2.0 * (v - a))


def rosenbrock(v):
    x, y = v
    return (1.0 + (1 - x) ** 2 + 100 * (y - x * x) ** 2,
            np.array([-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)]))


def terraces(v):
    # a bowl rounded down to steps of 1/8, with the bowl's gradient: trial
    # values tie with the current one
    return 1.0 + np.floor(8 * float(np.sum((v - 0.2) ** 2))) / 8, 2.0 * (v - 0.2)


def nan_stripes(v):
    # NaN on every other stripe of width 1/4 across the coordinate sum, which
    # is half the domain, and a bowl on the rest: line searches cross stripes
    if int(np.floor(4 * np.sum(v))) % 2:
        return float("nan"), np.full(v.size, np.nan)
    return bowl(0.2)(v)


def test_nm_quadratic_bowl():
    a = np.array([3.0, -2.0, 0.5])
    (x, f, nit), _ = assert_same_polish(value_first(bowl(a)), np.zeros(3))
    assert np.abs(x - a).max() < 1e-6
    assert f - 1.0 < 1e-10
    assert nit >= 1


def test_nm_rosenbrock_classic_start():
    (x, f, nit), _ = assert_same_polish(value_first(rosenbrock), np.array([-1.2, 1.0]))
    assert f - 1.0 < 1e-6
    assert np.abs(x - 1.0).max() < 1e-3
    assert nit < MAX_ITER


def test_nm_known_good_seed_sits_on_the_floor():
    # the (2,2) catalog seed is convergent already: its point is a minimum
    dims = Dimensions(2, 2)
    obj = objective_function(dims)
    y0 = np.array([-5.0, 2.0])
    z, h, nit = bfgs(deflated_radius(dims), on_plane(dims, y0))
    y_p, plane = echelon_block(dims).seed_plane
    f = obj(y_p + plane @ z)
    assert nit == 0 and h == pytest.approx(0.9025, abs=5e-4)
    assert f <= obj(y0) + 1e-15
    assert abs(f - 1.0) <= 1e-9


def test_nm_never_worse_than_start():
    rng = np.random.default_rng(60)
    starts = [(Dimensions(3, 3), on_plane(Dimensions(3, 3), rng.standard_normal(3)))
              for _ in range(5)]
    fg, points = plane_points(Dimensions(5, 5), 10, np.random.default_rng(3))
    starts += [(Dimensions(5, 5), z0) for z0 in points]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dims, z0 in starts:
            fg = value, _ = deflated_radius(dims)
            z, h, nit = bfgs(fg, z0)
            assert h <= value(z0) and value(z) == h
            assert nit <= MAX_ITER


def test_nm_respects_iteration_cap(monkeypatch):
    fg = deflated_radius(Dimensions(4, 4))
    z0 = on_plane(Dimensions(4, 4), np.array([1.0, 2.0, 3.0, 4.0]))
    monkeypatch.setattr(search, "MAX_ITER", 50)
    assert bfgs(fg, z0)[2] <= 50
    fg, points = plane_points(Dimensions(5, 5), 10, np.random.default_rng(3))
    monkeypatch.setattr(search, "MAX_ITER", 3)
    capped = [bfgs(fg, z0)[2] for z0 in points]
    assert max(capped) == 3


def test_nm_matches_the_numpy_loop_from_a_non_finite_start():
    # b·y0 is not finite, so the start enters as its projection: the penalty
    dims = Dimensions(2, 2)
    block = echelon_block(dims)
    z0 = block.seed_plane[1].T @ np.array([np.inf, 0.5])
    with np.errstate(invalid="ignore"):
        (z, h, nit), _ = assert_same_polish(deflated_radius(dims), z0)
    assert h == PENALTY and nit == 0


def test_nm_matches_the_numpy_loop_on_the_discover_44_polishes(monkeypatch):
    # the 44 polishes of the benchmark's discover-44 search (outer runs 0-3
    # of the (4,4) reference stream), replayed on the objective they ran on
    polishes = []

    def record(fg, z0, **kw):
        polishes.append((fg, np.array(z0), kw))
        return bfgs(fg, z0, **kw)

    monkeypatch.setattr(search, "bfgs", record)
    monkeypatch.setattr(search, "_worker_count", lambda runs: 1)  # record here
    discover(SearchConfig(dims=Dimensions(4, 4), runs=4, restarts=10, rng_seed=0))
    monkeypatch.undo()
    assert len(polishes) == 44
    values = gradients = 0
    for fg, z0, kw in polishes:
        _, calls = assert_same_polish(fg, z0, **kw)
        values, gradients = values + len(calls.points), gradients + len(calls.read)
    # most trials fail sufficient decrease, and their gradients are not made
    assert 2 * gradients < values


@pytest.mark.parametrize("n", range(1, 8))
def test_nm_matches_the_numpy_loop_on_ties_and_nan(n):
    # a tied trial value is no decrease and a NaN one counts as too long:
    # both bisect the step, and neither moves the polish uphill
    rng = np.random.default_rng(n)
    fg = deflated_radius(Dimensions(n, n))
    for i in range(12):
        y0 = rng.standard_normal(n)
        for f in (terraces, nan_stripes):
            h0 = f(y0)[0]
            (_, h, _), _ = assert_same_polish(value_first(f), y0)
            assert h <= h0 or np.isnan(h0)
        if i < 2:
            assert_same_polish(fg, on_plane(Dimensions(n, n), y0))


@pytest.fixture(scope="module")
def search_66():
    """The (6,6) search, runs 20, rng 0, from random starts only, in one
    process, with its CPU time."""
    with mock.patch.object(search, "_worker_count", lambda runs: 1):
        t0 = time.process_time()
        res = discover(SearchConfig(dims=Dimensions(6, 6), runs=20, restarts=10, rng_seed=0))
        return res, time.process_time() - t0


def test_random_search_finds_order_8_formulas(search_66):
    res, cpu_s = search_66
    assert res.candidates
    for cand in res.candidates:
        assert analyze_formula(cand.formula).convergent
        assert empirical_order(cand.formula, 8).passed, cand.formula.p
    assert cpu_s < 30.0


def reversed_ties_argsort(a, *args, **kwargs):
    """An ascending order that puts tied values in reverse index order."""
    a = np.asarray(a)
    return np.lexsort((-np.arange(a.size), a))


def test_tie_order_does_not_depend_on_numpy_sort(monkeypatch):
    # How np.argsort orders tied values depends on the sort kernel NumPy
    # picks for the CPU.  With the sort of every host reversed on ties, a
    # (5,5) search must come out the same.
    def search_55():
        res = discover(SearchConfig(dims=Dimensions(5, 5), runs=1, restarts=10, rng_seed=1))
        return bits((res.candidates, res.attempts, res.failure_plateaus))

    monkeypatch.setattr(search, "_worker_count", lambda runs: 1)
    expected = search_55()
    monkeypatch.setattr(np, "argsort", reversed_ties_argsort)
    assert search_55() == expected


# ------------------------------------------------------------- random seeds


def test_random_seed_reproducible():
    a = random_seed(5, np.random.default_rng(123))
    b = random_seed(5, np.random.default_rng(123))
    assert np.array_equal(a, b)
    assert a.shape == (5,)
    assert np.any(a)


def test_random_seed_distribution():
    rng = np.random.default_rng(2024)
    draws = np.array([random_seed(2, rng) for _ in range(50_000)])
    assert np.abs(draws.mean(axis=0)).max() < 0.02
    assert abs(draws.std() - 1.0) < 0.02


def test_perturb_zero_scale_is_identity():
    # the kick is PERTURB_SCALE * max|y|, so zero for a zero seed
    y = np.zeros(3)
    out = perturb(y, np.random.default_rng(1))
    assert np.array_equal(out, y)
    assert out is not y


def test_perturb_reproducible_and_nonzero():
    y = np.array([2.0, -1.0])
    a = perturb(y, np.random.default_rng(9))
    b = perturb(y, np.random.default_rng(9))
    assert np.array_equal(a, b)
    assert np.any(a)


def test_perturb_displacement_scales_linearly():
    y = np.array([1.0, -3.0, 0.5, 2.0])
    d1 = np.mean(
        [np.abs(perturb(y, g) - y).mean()
         for g in map(np.random.default_rng, range(2000))]
    )
    d2 = np.mean(
        [np.abs(perturb(2 * y, g) - 2 * y).mean()
         for g in map(np.random.default_rng, range(2000))]
    )
    assert d2 / d1 == pytest.approx(2.0, rel=0.05)
    # absolute size: scale * max|y| * E|N(0,1)|
    assert d1 == pytest.approx(0.1 * 3.0 * np.sqrt(2 / np.pi), rel=0.05)


# ------------------------------------------------------------ search config


def test_config_validation():
    d = Dimensions(2, 2)
    SearchConfig(dims=d, runs=1, restarts=1)
    with pytest.raises(ValueError):
        SearchConfig(dims=d, runs=0, restarts=1)
    with pytest.raises(ValueError):
        SearchConfig(dims=d, runs=1, restarts=0)
    # counts are integers: NumPy integers pass, floats and strings do not
    SearchConfig(dims=d, runs=np.int64(2), restarts=np.int32(1))
    for bad in ({"runs": 2.5}, {"runs": 2.0}, {"restarts": 1.5},
                {"runs": "2"}, {"restarts": None}):
        with pytest.raises(ValueError, match="must be a positive integer"):
            SearchConfig(dims=d, **{"runs": 1, "restarts": 1, **bad})
    # the rng seed may be 0, but not negative or fractional
    SearchConfig(dims=d, runs=1, restarts=1, rng_seed=np.int64(0))
    for bad in (-1, 1.5, None):
        with pytest.raises(ValueError, match="rng_seed must be a non-negative integer"):
            SearchConfig(dims=d, runs=1, restarts=1, rng_seed=bad)
    # the polish's step cap, the penalty and the perturbation scale are
    # constants, not settings
    cfg = SearchConfig(dims=d, runs=1, restarts=1)
    assert cfg.nm_max_iter == MAX_ITER == 200 and cfg.penalty == PENALTY
    assert [f.name for f in fields(cfg)] == ["dims", "runs", "restarts", "rng_seed"]
    # and a result holds the outcome only: its config stays with the caller
    assert [f.name for f in fields(SearchResult)] == [
        "candidates", "attempts", "failure_plateaus"]


@pytest.mark.parametrize("k, s, match", [
    (9, 9, "K_LIMIT = 8: the float search is ill-conditioned"),
    (3, 2, "s >= k is recommended"),
], ids=["k-limit", "s-below-k"])
def test_config_warns_at_the_callers_line_about_dims_the_search_rarely_solves(k, s, match):
    with pytest.warns(UserWarning, match=match) as record:
        SearchConfig(dims=Dimensions(k, s))
    assert len(record) == 1
    assert record[0].filename == __file__


def test_config_is_silent_up_to_the_k_limit_with_s_at_least_k():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SearchConfig(dims=Dimensions(K_LIMIT, K_LIMIT))
        SearchConfig(dims=Dimensions(1, 3))


# ----------------------------------------------------------------- discover


def test_discover_known_seed_single_candidate():
    cfg = SearchConfig(dims=Dimensions(2, 2), runs=1, restarts=1, rng_seed=0)
    res = discover(cfg, initial_seed=[-5.0, 2.0])
    assert len(res.candidates) == 1
    cand = res.candidates[0]
    assert np.allclose(cand.formula.p, E_POLY, atol=1e-12)
    assert cand.formula.c == pytest.approx(2.25, abs=1e-12)
    # the seed was already optimal: recorded verbatim, no polish drift
    assert cand.iterations == 0
    assert cand.seed_final == (-5.0, 2.0)
    rep = analyze_formula(cand.formula)
    assert rep.convergent
    assert abs(rep.max_deviation) <= 1e-8
    assert rep.second_magnitude == pytest.approx(0.9025, abs=5e-4)
    assert res.attempts == 1
    assert res.failure_plateaus == ()


def test_discover_rational_session_seed():
    cfg = SearchConfig(dims=Dimensions(3, 3), runs=1, restarts=1, rng_seed=0)
    res = discover(cfg, initial_seed=[1.0, 110.0, -40.0])
    assert len(res.candidates) == 1
    cand = res.candidates[0]
    assert cand.iterations == 0
    assert cand.seed_final == (1.0, 110.0, -40.0)
    f = seed_to_formula(Dimensions(3, 3), [1, 110, -40], exact=True)
    assert np.allclose(cand.formula.p, [float(v) for v in f.p], atol=1e-15)


def test_a_convergent_start_is_solved_once(monkeypatch):
    # Every start point is classified once, and its report gives the value
    # too: a convergent start costs one root solve, and no solve is added
    # anywhere else (the discover-44 search: 44 polishes, none from a
    # convergent start).
    solves = []
    eigvals = charpoly._eigvals

    def spy(a, **kw):
        solves.append(1)
        return eigvals(a, **kw)

    monkeypatch.setattr(charpoly, "_eigvals", spy)
    monkeypatch.setattr(search, "_worker_count", lambda runs: 1)  # count here
    res = discover(SearchConfig(Dimensions(3, 3), runs=1, restarts=1),
                   initial_seed=[1, 110, -40])
    assert res.candidates[0].iterations == 0 and len(solves) == 1
    solves.clear()
    res = discover(SearchConfig(Dimensions(4, 4), runs=4, restarts=10, rng_seed=0))
    assert (res.attempts, len(res.candidates)) == (44, 16)
    assert len(solves) == 4278


def test_discover_polishes_on_the_seed_hyperplane():
    # The polish runs on b.y = 1 (b = -B[0], where q[0] = 1), so every
    # polished seed lies there, and its formula is the one recorded.
    dims = Dimensions(4, 4)
    res = discover(SearchConfig(dims=dims, runs=4, restarts=10, rng_seed=0))
    b = -echelon_block(dims).b_float[0]
    polished = [c for c in res.candidates if c.iterations]
    assert len(polished) >= 5
    for cand in polished:
        assert abs(b @ np.array(cand.seed_final) - 1.0) <= 1e-12
        assert seed_to_formula(dims, cand.seed_final).p == cand.formula.p


@pytest.mark.parametrize("k, plateau", [(2, 2.686140661634509), (3, 4.702803653428851)])
def test_discover_single_entry_seed_runs_no_simplex(k, plateau):
    # At s = 1 the hyperplane is one point and every nonzero seed gives one
    # formula, so an attempt scores its start point and no polish runs.  The plateaus are those of the search over all of seed space to
    # rounding, as f(lam * y) = f(y) holds to 1e-12 relative.
    with pytest.warns(UserWarning, match="s >= k"):
        cfg = SearchConfig(dims=Dimensions(k, 1), runs=2, restarts=2, rng_seed=0)
    res = discover(cfg)
    assert res.attempts == 6
    assert res.candidates == ()
    assert res.failure_plateaus == pytest.approx((plateau, plateau), rel=1e-12, abs=0)


def degenerate_starts():
    b = -echelon_block(Dimensions(2, 2)).b_float[0]
    assert b @ [b[1], -b[0]] == 0.0
    return [
        (Dimensions(3, 3), [0.0, 0.0, 0.0]),
        (Dimensions(2, 2), [b[1], -b[0]]),
        (Dimensions(2, 2), [np.inf, 0.5]),
    ]


@pytest.mark.parametrize("dims, start", degenerate_starts(),
                         ids=["zero", "orthogonal-to-b", "non-finite"])
def test_discover_degenerate_start_is_deterministic(dims, start):
    # A start point with b.y0 = 0 has no multiple on the hyperplane: it is
    # projected onto it orthogonally.  A non-finite one is a typed error,
    # raised before any polish could spend its budget on NaN simplices.
    cfg = SearchConfig(dims=dims, runs=1, restarts=2, rng_seed=0)
    if not np.isfinite(start).all():
        with pytest.raises(ValueError, match="finite"):
            discover(cfg, initial_seed=start)
        return

    def key(res):
        return ([(c.seed_final, c.formula.p) for c in res.candidates],
                res.attempts, res.failure_plateaus)

    first, second = (discover(cfg, initial_seed=start) for _ in range(2))
    assert key(first) == key(second)
    assert first.candidates


def test_discover_initial_seed_must_match_s():
    cfg = SearchConfig(dims=Dimensions(2, 2), runs=1, restarts=1)
    with pytest.raises(ValueError):
        discover(cfg, initial_seed=[1.0, 2.0, 3.0])


def test_discover_dedup_collapses_identical_formulas():
    # at (1, 1) every nonzero seed normalizes to the same formula, so five
    # runs still produce exactly one candidate
    cfg = SearchConfig(dims=Dimensions(1, 1), runs=5, restarts=2, rng_seed=11)
    res = discover(cfg)
    assert len(res.candidates) == 1
    assert np.allclose(res.candidates[0].formula.p, (1.0, 0.0, -1.0), atol=1e-12)
    assert res.attempts == 5  # each run's opening attempt succeeds immediately


def test_discover_reproducible():
    cfg = SearchConfig(dims=Dimensions(2, 2), runs=4, restarts=3, rng_seed=99)
    r1 = discover(cfg)
    r2 = discover(cfg)
    assert len(r1.candidates) == len(r2.candidates)
    for a, b in zip(r1.candidates, r2.candidates):
        assert a.formula.p == b.formula.p
        assert a.seed_final == b.seed_final
        assert a.outer_index == b.outer_index
        assert a.inner_index == b.inner_index
    assert r1.attempts == r2.attempts
    assert r1.failure_plateaus == r2.failure_plateaus


def test_discover_outer_runs_independent_of_run_count():
    # each outer run draws only from its own SeedSequence child, so the
    # first two runs of a six-run session find what a two-run session finds
    cfg = SearchConfig(dims=Dimensions(2, 2), runs=6, restarts=2, rng_seed=42)
    short = discover(replace(cfg, runs=2))
    full = discover(cfg)

    def key(cands):
        return [(c.formula.p, c.seed_final, c.inner_index) for c in cands]

    head = [c for c in full.candidates if c.outer_index < 2]
    assert short.candidates
    assert key(short.candidates) == key(head)
    assert len(full.candidates) > len(head)


def test_runtime_loads_no_scipy():
    # NumPy's LAPACK finds the roots and the search runs its own BFGS:
    # SciPy is a test oracle only, and loading any of it would cost set-up
    # time and memory on every command.  A single outer run runs in the
    # calling process, so discover --runs 1 does not import multiprocessing.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    commands = [["analyze", "--poly", "2,-3,2,-1"],
                ["discover", "--k", "3", "--s", "3", "--runs", "1", "--restarts", "1"],
                ["validate-known"]]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fdforge, fdforge.cli\n"
         f"codes = [fdforge.cli.main(argv) for argv in {commands!r}]\n"
         "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
         "      'multiprocessing' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] [] False"


def test_discover_candidates_audit_clean():
    # postcondition audit: every candidate re-checks as convergent with a
    # fresh analyze call, and its final seed spawns its formula
    cfg = SearchConfig(dims=Dimensions(2, 2), runs=6, restarts=3, rng_seed=7)
    res = discover(cfg)
    assert res.candidates  # this configuration does find formulas
    for cand in res.candidates:
        assert analyze_formula(cand.formula).convergent
        f2 = seed_to_formula(cfg.dims, np.array(cand.seed_final))
        assert np.allclose(f2.p, cand.formula.p, atol=1e-12)


def test_discover_failure_plateaus_respect_floor(search_66):
    # a polish minimizes h, which may fall below 1; a plateau is max(1, h)
    res, _ = search_66
    assert res.failure_plateaus
    assert all(v >= 1.0 for v in res.failure_plateaus)


def test_discover_attempt_budget_bounded():
    cfg = SearchConfig(dims=Dimensions(2, 2), runs=5, restarts=4, rng_seed=3)
    res = discover(cfg)
    # per run: 1 opening attempt + at most 2*restarts inner attempts
    assert res.attempts <= cfg.runs * (1 + 2 * cfg.restarts)
    assert res.attempts >= cfg.runs


def test_discover_pairwise_distinct_candidates():
    cfg = SearchConfig(dims=Dimensions(3, 3), runs=6, restarts=4, rng_seed=12)
    res = discover(cfg)
    ps = [np.array(c.formula.p) for c in res.candidates]
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            assert np.abs(ps[i] - ps[j]).max() > 1e-8


# ---------------------------------------------------------- worker processes


def bits(obj):
    """``obj`` with every float replaced by its hex form, so that equal
    values compare equal only when their bits are equal."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, complex):
        return obj.real.hex(), obj.imag.hex()
    if isinstance(obj, (tuple, list)):
        return tuple(bits(v) for v in obj)
    if is_dataclass(obj):
        return type(obj).__name__, tuple(bits(getattr(obj, f.name)) for f in fields(obj))
    return obj


@pytest.mark.parametrize("dims, runs, init", [
    (Dimensions(4, 4), 4, None),
    (Dimensions(3, 3), 6, None),
    (Dimensions(2, 1), 3, None),  # s = 1: no polish runs
    (Dimensions(2, 2), 3, [-5.0, 2.0]),
], ids=["4-4", "3-3", "2-1", "initial-seed"])
def test_discover_results_do_not_depend_on_the_worker_count(monkeypatch, dims, runs, init):
    with pytest.warns(UserWarning) if dims.s < dims.k else contextlib.nullcontext():
        cfg = SearchConfig(dims=dims, runs=runs, restarts=10, rng_seed=0)
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(search, "_worker_count", lambda runs: workers)
        results.append(discover(cfg, initial_seed=init))
    one, two = results
    assert bits(one) == bits(two)


def test_discover_reaps_its_workers_and_their_cpu_is_counted(monkeypatch):
    monkeypatch.setattr(search, "_worker_count", lambda runs: 2)

    def child_cpu():
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime

    before = child_cpu()
    # outer runs 0 and 1 of the (4,4) reference stream, one per worker
    discover(SearchConfig(dims=Dimensions(4, 4), runs=2, restarts=10, rng_seed=0))
    assert multiprocessing.active_children() == []
    assert child_cpu() > before


def test_worker_count_is_one_per_usable_cpu_and_one_in_a_daemon():
    cpus = len(os.sched_getaffinity(0))
    assert search._worker_count(1) == 1
    assert search._worker_count(1000) == cpus
    assert search._worker_count(2) == min(2, cpus)
    # a pool worker is daemonic and may not fork children of its own
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(search._worker_count, (1000,)).get(timeout=60) == 1
        pool.close()
        pool.join()
    assert multiprocessing.active_children() == []
