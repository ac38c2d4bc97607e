"""Nelder-Mead, randomized helpers, and the discovery double loop."""

import contextlib
import multiprocessing
import os
import resource
import subprocess
import sys
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.optimize import minimize

from fdforge import search
from fdforge.charpoly import PENALTY, analyze_formula, objective_function
from fdforge.search import (
    K_LIMIT,
    STALL_ITERS,
    SearchConfig,
    discover,
    nelder_mead,
    perturb,
    random_seed,
)
from fdforge.taylor_system import Dimensions, echelon_block, seed_to_formula

E_POLY = (1.0, 0.125, -0.75, -0.625, 0.25)


def rosenbrock(v):
    return float((1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2)


def scipy_nm(f, x0, max_iter=2000):
    """SciPy's Nelder-Mead with the options nelder_mead documents, and with
    its vertex sort made stable, as nelder_mead's is."""
    argsort = np.argsort
    with mock.patch.object(np, "argsort", lambda a: argsort(a, kind="stable")):
        return minimize(f, x0, method="Nelder-Mead", options={
            "xatol": 1e-8, "fatol": 1e-10, "maxiter": max_iter,
            "initial_simplex": None, "adaptive": False,
        })


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def numpy_nelder_mead(f, x0, *, tol_x=1e-8, tol_f=1e-10, max_iter=2000,
                      fixed_point_exit=True):
    """nelder_mead as a NumPy loop, frozen as the reference that the
    list-based loop must match bit for bit.  Without ``fixed_point_exit`` a
    fixed point is replayed until the stall exit or max_iter ends it."""
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([f(v) for v in sim], dtype=float)
    ind = np.argsort(fsim, kind="stable")
    sim = np.take(sim, ind, 0)
    fsim = np.take(fsim, ind, 0)
    nit = 1
    idle = 0
    while nit < max_iter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= tol_x
                and np.max(np.abs(fsim[0] - fsim[1:])) <= tol_f):
            break
        before = None
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                before = sim.tobytes()
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        nit += 1
        ind = np.argsort(fsim, kind="stable")
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
        idle = 0 if ind[0] else idle + 1
        if idle >= STALL_ITERS:
            break
        if fixed_point_exit and before is not None and sim.tobytes() == before:
            nit = max_iter if ind[0] else min(nit + STALL_ITERS - idle, max_iter)
            break
    return sim[0], float(np.min(fsim)), nit


class RecordingObjective:
    """``f`` that records the bits of every point it is called on."""

    def __init__(self, f):
        self.f, self.points = f, []

    def __call__(self, v):
        self.points.append(np.asarray(v, dtype=float).tobytes())
        return self.f(v)


def assert_same_polish(f, x0, **kw):
    """nelder_mead and the frozen NumPy loop evaluate the same points in the
    same order and return the same x bits, fun and nit."""
    new, ref = RecordingObjective(f), RecordingObjective(f)
    x, fun, nit = nelder_mead(new, x0, **kw)
    rx, rfun, rnit = numpy_nelder_mead(ref, x0, **kw)
    assert same_bits(x, rx) and same_bits(fun, rfun) and nit == rnit, x0
    assert new.points == ref.points, x0
    return len(new.points)


# Start points of polishes in the (4,4) reference search (runs 4, restarts
# 10, rng 0; outer runs 0, 1 and 3) whose simplex shrinks onto itself bit for
# bit: at iteration 260 with 98 idle, 204 with 133 idle and 228 with 6 idle.
FIXED_POINT_STARTS = [
    ["0x1.258ad65ba6610p-1", "-0x1.4e28f575e782ap+0", "0x1.62cb5557ac013p-2", "0x1.79d4e8130ec2cp-3"],
    ["-0x1.3503350807faep+50", "0x1.628acc61413a3p+48", "0x1.a1635942b0140p+48", "-0x1.25ec55a9864d9p+48"],
    ["0x1.2e7065ae63153p+6", "0x1.e57ca9627aee9p+3", "-0x1.2134b62bcd87dp+8", "0x1.f4d8f32590486p+6"],
]


# -------------------------------------------------------------- nelder-mead


def test_nm_quadratic_bowl():
    a = np.array([3.0, -2.0, 0.5])

    def bowl(v):
        return float(np.sum((v - a) ** 2))

    x, f, nit = nelder_mead(bowl, np.zeros(3))
    assert np.abs(x - a).max() < 1e-6
    assert f < 1e-10
    assert nit >= 1
    ref = scipy_nm(bowl, np.zeros(3))
    assert same_bits(x, ref.x) and f == ref.fun and nit == ref.nit


def test_nm_rosenbrock_classic_start():
    x, f, nit = nelder_mead(rosenbrock, np.array([-1.2, 1.0]))
    assert f < 1e-6
    assert np.abs(x - 1.0).max() < 1e-3
    ref = scipy_nm(rosenbrock, np.array([-1.2, 1.0]))
    assert same_bits(x, ref.x) and f == ref.fun and nit == ref.nit


def test_nm_matches_scipy_and_stops_stalls_early():
    # SciPy's Nelder-Mead is the reference: on random (4,4) starts the
    # polish must land on the same point to the bit, in no more iterations.
    # Starts on which SciPy idles to maxiter must occur, and there the
    # stall exit must end the polish early with the same answer.
    obj = objective_function(Dimensions(4, 4))
    rng = np.random.default_rng(2024)
    capped = early = 0
    for _ in range(40):
        y0 = rng.standard_normal(4)
        ref = scipy_nm(obj, y0)
        x, f, nit = nelder_mead(obj, y0)
        assert same_bits(x, ref.x) and f == ref.fun, y0
        assert nit <= ref.nit
        if ref.nit >= 2000:
            capped += 1
            early += nit < ref.nit
    assert capped >= 5
    assert early >= capped - 2


def test_nm_known_good_seed_sits_on_the_floor():
    obj = objective_function(Dimensions(2, 2))
    y0 = np.array([-5.0, 2.0])
    x, f, nit = nelder_mead(obj, y0)
    assert f <= obj(y0) + 1e-15
    assert abs(f - 1.0) <= 1e-9


def test_nm_never_worse_than_start():
    rng = np.random.default_rng(60)
    obj = objective_function(Dimensions(3, 3))
    for _ in range(5):
        y0 = rng.standard_normal(3)
        x, f, nit = nelder_mead(obj, y0)
        assert f <= obj(y0) + 1e-12


def test_nm_respects_iteration_cap():
    obj = objective_function(Dimensions(4, 4))
    x, f, nit = nelder_mead(obj, np.array([1.0, 2.0, 3.0, 4.0]), max_iter=50)
    assert nit <= 50


@pytest.mark.parametrize("start", FIXED_POINT_STARTS, ids=["outer0", "outer1", "outer3"])
def test_nm_fixed_point_exit_returns_the_replayed_result(start):
    # At a fixed point the loop stops instead of replaying it until the stall
    # exit, and still returns that exit's (x, fun, nit).
    obj = objective_function(Dimensions(4, 4))
    y0 = np.array([float.fromhex(h) for h in start])
    new, ref = RecordingObjective(obj), RecordingObjective(obj)
    x, f, nit = nelder_mead(new, y0)
    rx, rf, rnit = numpy_nelder_mead(ref, y0, fixed_point_exit=False)
    assert same_bits(x, rx) and f == rf and nit == rnit
    assert nit < 2000
    assert len(new.points) < len(ref.points)


def test_nm_fixed_point_exit_below_the_stall_horizon_returns_max_iter():
    # The outer-1 start reaches its fixed point at iteration 204 with 133
    # idle, so the stall exit would come at 271; a max_iter of 240 ends the
    # replay first.
    obj = objective_function(Dimensions(4, 4))
    y0 = np.array([float.fromhex(h) for h in FIXED_POINT_STARTS[1]])
    new, ref = RecordingObjective(obj), RecordingObjective(obj)
    x, f, nit = nelder_mead(new, y0, max_iter=240)
    rx, rf, rnit = numpy_nelder_mead(ref, y0, max_iter=240, fixed_point_exit=False)
    assert same_bits(x, rx) and f == rf
    assert nit == rnit == 240
    assert len(new.points) < len(ref.points)


def test_nm_fixed_point_exit_compares_bits_not_values():
    # From a non-finite start every vertex scores the penalty and the first
    # shrink leaves NaN coordinates, which float == never matches.
    obj = objective_function(Dimensions(2, 2))
    y0 = np.array([np.inf, 0.5])
    new, ref = RecordingObjective(obj), RecordingObjective(obj)
    with np.errstate(invalid="ignore"):
        x, f, nit = nelder_mead(new, y0)
        rx, rf, rnit = numpy_nelder_mead(ref, y0, fixed_point_exit=False)
    assert same_bits(x, rx) and f == rf == PENALTY and nit == rnit
    assert len(new.points) < len(ref.points)


def plateau(v):
    # three levels, so most simplices hold tied values
    return float(np.floor(2 * np.abs(v).sum()) % 3)


def nan_stripes(v):
    # NaN on every other stripe of width 1/4 across the coordinate sum, which
    # is half the domain, and a bowl on the rest: simplices straddle stripes
    if int(np.floor(4 * np.sum(v))) % 2:
        return float("nan")
    return float(np.sum((v - 0.2) ** 2))


def test_nm_matches_the_numpy_loop_on_the_discover_44_polishes(monkeypatch):
    # the 34 polishes of the benchmark's discover-44 search (outer runs 0-3
    # of the (4,4) reference stream), replayed on the objective they ran on
    polishes = []

    def record(f, x0, **kw):
        polishes.append((f, np.array(x0), kw))
        return nelder_mead(f, x0, **kw)

    monkeypatch.setattr(search, "nelder_mead", record)
    monkeypatch.setattr(search, "_worker_count", lambda runs: 1)  # record here
    discover(SearchConfig(dims=Dimensions(4, 4), runs=4, restarts=10, rng_seed=0))
    monkeypatch.undo()
    assert len(polishes) == 34
    for f, x0, kw in polishes:
        assert_same_polish(f, x0, **kw)


@pytest.mark.parametrize("n", range(1, 8))
def test_nm_matches_the_numpy_loop_on_ties_and_nan(n):
    # tied values keep their index order (a stable sort); NaN values sort
    # last
    rng = np.random.default_rng(n)
    obj = objective_function(Dimensions(n, n))
    for i in range(12):
        y0 = rng.standard_normal(n)
        assert_same_polish(plateau, y0, max_iter=300)
        assert_same_polish(nan_stripes, y0, max_iter=300)
        if i < 2:
            assert_same_polish(obj, y0)


def reversed_ties_argsort(a, *args, **kwargs):
    """An ascending order that puts tied values in reverse index order."""
    a = np.asarray(a)
    return np.lexsort((-np.arange(a.size), a))


def test_tie_order_does_not_depend_on_numpy_sort(monkeypatch):
    # How np.argsort orders tied values depends on the sort kernel NumPy
    # picks for the CPU.  With the vertex sort of every host reversed on
    # ties, the polishes and a (5,5) search must come out the same.
    def polishes():
        rng = np.random.default_rng(5)
        out = []
        for _ in range(6):
            x, fun, nit = nelder_mead(plateau, rng.standard_normal(4), max_iter=300)
            out.append((x.tobytes(), fun.hex(), nit))
        return out

    def search_55():
        res = discover(SearchConfig(dims=Dimensions(5, 5), runs=1, restarts=10, rng_seed=1))
        return bits((res.candidates, res.attempts, res.failure_plateaus))

    monkeypatch.setattr(search, "_worker_count", lambda runs: 1)
    expected = polishes(), search_55()
    monkeypatch.setattr(np, "argsort", reversed_ties_argsort)
    assert (polishes(), search_55()) == expected


def test_nm_matches_the_numpy_loop_from_a_non_finite_start():
    obj = objective_function(Dimensions(2, 2))
    with np.errstate(invalid="ignore"):
        assert_same_polish(obj, np.array([np.inf, 0.5]))


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
    y = np.array([1.0, -4.0, 2.5])
    out = perturb(y, np.random.default_rng(1), 0.0)
    assert np.array_equal(out, y)
    assert out is not y


def test_perturb_reproducible_and_nonzero():
    y = np.array([2.0, -1.0])
    a = perturb(y, np.random.default_rng(9), 0.1)
    b = perturb(y, np.random.default_rng(9), 0.1)
    assert np.array_equal(a, b)
    assert np.any(a)


def test_perturb_displacement_scales_linearly():
    y = np.array([1.0, -3.0, 0.5, 2.0])
    d1 = np.mean(
        [np.abs(perturb(y, g, 0.1) - y).mean()
         for g in map(np.random.default_rng, range(2000))]
    )
    d2 = np.mean(
        [np.abs(perturb(y, g, 0.2) - y).mean()
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
    # the iteration cap, the penalty and the perturbation scale are
    # constants, not settings
    cfg = SearchConfig(dims=d, runs=1, restarts=1)
    assert cfg.nm_max_iter == 2000 and cfg.penalty == PENALTY
    assert [f.name for f in fields(cfg)] == ["dims", "runs", "restarts", "rng_seed"]


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
    # the seed was already optimal: recorded verbatim, no NM drift
    assert cand.nm_iterations == 0
    assert cand.seed_final == cand.seed_initial == (-5.0, 2.0)
    assert cand.report.convergent
    assert abs(cand.report.max_deviation) <= 1e-8
    assert cand.report.second_magnitude == pytest.approx(0.9025, abs=5e-4)
    assert res.attempts == 1
    assert res.failure_plateaus == ()


def test_discover_rational_session_seed():
    cfg = SearchConfig(dims=Dimensions(3, 3), runs=1, restarts=1, rng_seed=0)
    res = discover(cfg, initial_seed=[1.0, 110.0, -40.0])
    assert len(res.candidates) == 1
    cand = res.candidates[0]
    assert cand.nm_iterations == 0
    assert cand.seed_final == cand.seed_initial == (1.0, 110.0, -40.0)
    f = seed_to_formula(Dimensions(3, 3), [1, 110, -40], exact=True)
    assert np.allclose(cand.formula.p, [float(v) for v in f.p], atol=1e-15)


def test_discover_polishes_on_the_seed_hyperplane():
    # Nelder-Mead runs on b.y = 1 (b = -B[0], where q[0] = 1), so every
    # polished seed lies there, and its formula is the one recorded.
    dims = Dimensions(4, 4)
    res = discover(SearchConfig(dims=dims, runs=4, restarts=10, rng_seed=0))
    b = -echelon_block(dims).b_float[0]
    polished = [c for c in res.candidates if c.nm_iterations]
    assert len(polished) >= 5
    for cand in polished:
        assert abs(b @ np.array(cand.seed_final) - 1.0) <= 1e-12
        assert seed_to_formula(dims, cand.seed_final).p == cand.formula.p


@pytest.mark.parametrize("k, plateau", [(2, 2.686140661634509), (3, 4.702803653428851)])
def test_discover_single_entry_seed_runs_no_simplex(k, plateau):
    # At s = 1 the hyperplane is one point and every nonzero seed gives one
    # formula, so an attempt scores its start point and Nelder-Mead does not
    # run.  The plateaus are those of the search over all of seed space to
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
    # NumPy's LAPACK finds the roots and the search runs its own Nelder-Mead:
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
    # fresh analyze call, and the attached report matches its polynomial
    cfg = SearchConfig(dims=Dimensions(2, 2), runs=6, restarts=3, rng_seed=7)
    res = discover(cfg)
    assert res.candidates  # this configuration does find formulas
    for cand in res.candidates:
        rep = analyze_formula(cand.formula)
        assert rep.convergent
        assert rep.max_magnitude == pytest.approx(
            cand.report.max_magnitude, abs=1e-12
        )
        f2 = seed_to_formula(cfg.dims, np.array(cand.seed_final))
        assert np.allclose(f2.p, cand.formula.p, atol=1e-12)


def test_discover_failure_plateaus_respect_floor():
    cfg = SearchConfig(dims=Dimensions(5, 5), runs=3, restarts=2, rng_seed=1)
    res = discover(cfg)
    for v in res.failure_plateaus:
        assert v >= 1.0 - 1e-9


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
    (Dimensions(2, 1), 3, None),  # s = 1: Nelder-Mead does not run
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
    # outer runs 0 and 1 of the (4,4) reference stream polish for ~10,000
    # objective calls each
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
