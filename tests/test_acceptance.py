"""Acceptance gate: the package's headline guarantees, one printed line each.

Each test prints ``ACCEPTANCE <n> PASS|FAIL ...`` so a plain pytest run shows
the scorecard even with output capture enabled.  The discovery fixtures are
module-scoped because several criteria share the same reference searches.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from fdforge.charpoly import analyze_formula, objective_function
from fdforge.search import SearchConfig, discover
from fdforge.taylor_system import (
    Dimensions,
    DifferenceFormula,
    build_taylor_matrix,
    seed_to_formula,
)
from fdforge.validation import (
    SIN,
    catalog,
    empirical_order,
    monomial,
    residual,
    simulate,
)

REFERENCE_RNG = 0

# Convergent six-step start point, found once by a coarse offline search over
# projected root layouts and pinned here so the highest-order case runs in
# milliseconds instead of minutes.  `discover` still does the verification.
SEED_66 = (
    -1.1893979269503827,
    0.053405747690513566,
    0.6202482513774155,
    -0.07467163608108063,
    -0.19384259959433606,
    0.06494109056839974,
)


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'} - {detail}")


def timed_discover(config, initial_seed=None):
    t0 = time.perf_counter()
    res = discover(config, initial_seed=initial_seed)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def search_44_ref():
    cfg = SearchConfig(dims=Dimensions(4, 4), runs=20, restarts=10,
                       rng_seed=REFERENCE_RNG)
    return timed_discover(cfg)


@pytest.fixture(scope="module")
def search_44_alt():
    out = []
    for rng_seed in (1, 2):
        cfg = SearchConfig(dims=Dimensions(4, 4), runs=20, restarts=10,
                           rng_seed=rng_seed)
        out.append(timed_discover(cfg))
    return out


@pytest.fixture(scope="module")
def search_55_ref():
    cfg = SearchConfig(dims=Dimensions(5, 5), runs=20, restarts=10,
                       rng_seed=REFERENCE_RNG)
    return timed_discover(cfg)


@pytest.fixture(scope="module")
def search_33_small():
    cfg = SearchConfig(dims=Dimensions(3, 3), runs=6, restarts=10,
                       rng_seed=REFERENCE_RNG)
    return timed_discover(cfg)


@pytest.fixture(scope="module")
def search_66_seeded():
    cfg = SearchConfig(dims=Dimensions(6, 6), runs=1, restarts=1,
                       rng_seed=REFERENCE_RNG)
    return timed_discover(cfg, initial_seed=SEED_66)


def test_criterion_1_two_step_session(capsys):
    ok = False
    try:
        t0 = time.perf_counter()
        f = seed_to_formula(Dimensions(2, 2), [Fraction(-5), Fraction(2)],
                            exact=True)
        rep = analyze_formula(f.as_float())
        dt = time.perf_counter() - t0
        assert f.as_float().p == (1.0, 0.125, -0.75, -0.625, 0.25)
        assert abs(rep.max_deviation) <= 1e-8
        assert rep.second_magnitude == pytest.approx(0.9025, abs=5e-4)
        assert f.c == Fraction(9, 4)
        assert dt < 1.0
        ok = True
    finally:
        report(capsys, 1, ok,
               "seed [-5,2] at (2,2) gives (1, 0.125, -0.75, -0.625, 0.25), c = 9/4")


def test_criterion_2_three_step_session(capsys):
    ok = False
    try:
        t0 = time.perf_counter()
        f = seed_to_formula(Dimensions(3, 3), [Fraction(1), Fraction(110),
                                               Fraction(-40)], exact=True)
        rep = analyze_formula(f.as_float())
        dt = time.perf_counter() - t0
        assert f.p == (
            Fraction(1), Fraction(80, 237), Fraction(-182, 237),
            Fraction(-206, 237), Fraction(1, 237), Fraction(110, 237),
            Fraction(-40, 237),
        )
        assert f.c == Fraction(196, 79)
        assert rep.second_magnitude == pytest.approx(446 / 465, abs=1e-3)
        assert dt < 1.0
        ok = True
    finally:
        report(capsys, 2, ok,
               "seed [1,110,-40] at (3,3) gives the exact /237 polynomial, c = 196/79")


def test_criterion_3_catalog_conformance(capsys):
    ok = False
    try:
        for kf in catalog():
            assert sum(kf.char_poly) == 0          # p(1) = 0, exact
            f = kf.to_formula()
            assert analyze_formula(f.as_float()).convergent, kf.label
        entry_e = next(kf for kf in catalog() if kf.label == "E")
        lead = entry_e.char_poly[0]
        normalized = tuple(Fraction(v, lead) for v in entry_e.char_poly)
        assert normalized == (
            Fraction(1), Fraction(1, 8), Fraction(-3, 4), Fraction(-5, 8),
            Fraction(1, 4),
        )
        ok = True
    finally:
        report(capsys, 3, ok,
               "catalog A-F: p(1) = 0 exactly, all convergent, E/8 matches criterion 1")


def test_criterion_4_structural_identities(capsys):
    ok = False
    checked = 0
    try:
        t0 = time.perf_counter()
        rng = np.random.default_rng(987654321)
        for k in range(1, 7):
            for s in (k, k + 1, k + 2):
                dims = Dimensions(k, s)
                a_float = np.array(
                    [[float(v) for v in row]
                     for row in build_taylor_matrix(dims)]
                )
                obj = objective_function(dims)
                done = 0
                while done < 100:
                    y = rng.standard_normal(s)
                    try:
                        f_float = seed_to_formula(dims, y)
                        f_exact = seed_to_formula(
                            dims, [Fraction(v) for v in y], exact=True
                        )
                    except ValueError:
                        continue
                    done += 1
                    checked += 1
                    assert sum(f_exact.p) == 0
                    dp = sum(i * v for i, v in enumerate(reversed(f_float.p)))
                    assert abs(dp - f_float.c) <= 1e-10
                    # q = [1, q[1:]] from p = [1, -sum(q), q[1:]]
                    q = np.array([f_float.p[0], *f_float.p[2:]])
                    assert np.abs(q @ a_float).max() <= 1e-12
                    for r in range(k + 2):
                        assert abs(residual(f_float, monomial(r), 0.0, 0.25)) <= 1e-9
                    assert obj(y) >= 1 - 1e-9
        dt = time.perf_counter() - t0
        assert dt < 30.0
        ok = True
    finally:
        report(capsys, 4, ok,
               f"p(1)=0, p'(1)=c, qA=0, monomial exactness, root floor "
               f"on {checked} random seeds")


def test_criterion_5_truncation_orders(capsys, search_33_small, search_44_ref,
                                        search_55_ref, search_66_seeded):
    ok = False
    counts = {}
    try:
        for kf in catalog():
            oc = empirical_order(kf.to_formula(), kf.claimed_order)
            assert oc.passed, kf.label
            assert oc.fitted_slope is not None
            assert oc.fitted_slope >= kf.claimed_order - 0.3
        for tag, (res, _) in (("3,3", search_33_small), ("4,4", search_44_ref),
                              ("5,5", search_55_ref), ("6,6", search_66_seeded)):
            assert res.candidates, f"no formulas discovered at ({tag})"
            claimed = Dimensions(*map(int, tag.split(","))).order
            for cand in res.candidates:
                oc = empirical_order(cand.formula, claimed)
                assert oc.passed, (tag, cand.formula.p, oc.fitted_slope)
                if oc.fitted_slope is not None:
                    assert oc.fitted_slope >= claimed - 0.3, (tag, oc.fitted_slope)
            counts[tag] = len(res.candidates)
        ok = True
    finally:
        report(capsys, 5, ok,
               f"catalog + discovered formulas meet claimed order - 0.3 "
               f"(checked {counts or 'none'})")


def test_criterion_6_discovery_yield(capsys, search_44_ref, search_44_alt,
                                      search_55_ref):
    ok = False
    try:
        res_ref, dt_ref = search_44_ref
        assert len(res_ref.candidates) >= 5
        assert dt_ref < 300.0
        # hard floor over three distinct rng streams
        for res, dt in [search_44_ref, *search_44_alt]:
            assert len(res.candidates) >= 1
            assert dt < 300.0
        res55, dt55 = search_55_ref
        assert len(res55.candidates) >= 1
        assert dt55 < 300.0
        ok = True
    finally:
        n44 = len(search_44_ref[0].candidates)
        n55 = len(search_55_ref[0].candidates)
        report(capsys, 6, ok,
               f"(4,4) 200-search: {n44} distinct (need 5); (5,5): {n55} (need 1)")


def test_criterion_7_stability_harness(capsys, search_33_small, search_44_ref,
                                        search_55_ref, search_66_seeded):
    ok = False
    checked = 0
    try:
        for res, _ in (search_33_small, search_44_ref, search_55_ref,
                       search_66_seeded):
            for cand in res.candidates:
                run = simulate(cand.formula, SIN, tau=0.01, steps=1000)
                half = simulate(cand.formula, SIN, tau=0.005, steps=2000)
                assert not run.diverged, cand.formula.p
                assert half.max_error < run.max_error, cand.formula.p
                checked += 1
        bad = DifferenceFormula((1.0, -2.1, 1.1), -0.1)
        assert simulate(bad, SIN, tau=0.01, steps=10_000).diverged
        ok = True
    finally:
        report(capsys, 7, ok,
               f"{checked} discovered formulas track sin t and refine under "
               f"tau/2; root-1.1 polynomial diverges")


def test_criterion_8_byte_identical_json(capsys, tmp_path):
    ok = False
    try:
        args = [
            sys.executable, "-m", "fdforge", "discover", "--k", "3", "--s", "3",
            "--runs", "3", "--restarts", "5", "--rng-seed", "2",
            "--format", "json",
        ]
        outs = []
        for hash_seed in ("0", "1", "2"):
            path = tmp_path / f"{hash_seed}.jsonl"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(args + ["--output", str(path)],
                                  capture_output=True, env=env, timeout=180)
            assert proc.returncode == 0, proc.stderr
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        assert outs[0]  # non-empty: the runs actually found formulas
        json.loads(outs[0].splitlines()[0])
        ok = True
    finally:
        report(capsys, 8, ok,
               "repeat discover runs emit byte-identical JSON across fresh "
               "processes with PYTHONHASHSEED 0, 1, 2")


def test_seed_66_is_recorded_verbatim(search_66_seeded):
    # SEED_66 is convergent as pinned, so discover records it before any
    # polish step: the (6,6) formula is the pinned seed's own.
    res, _ = search_66_seeded
    cand = res.candidates[0]
    assert cand.iterations == 0
    assert cand.seed_final == SEED_66
