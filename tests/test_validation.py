"""Catalog integrity, truncation-order measurement, recurrence simulation."""

import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

import fdforge.validation as validation
from fdforge.charpoly import analyze_formula
from fdforge.taylor_system import DifferenceFormula, Dimensions, seed_to_formula
from fdforge.validation import (
    BLOWUP_THRESHOLD,
    EXP,
    SIN,
    OrderCheckResult,
    RecurrenceRun,
    catalog,
    empirical_order,
    monomial,
    residual,
    simulate,
    validate_catalog,
)

F = Fraction


# ------------------------------------------------------------------- catalog


def test_catalog_has_six_entries_with_expected_labels():
    labels = [kf.label for kf in catalog()]
    assert labels == ["A", "B", "C", "D", "E", "F"]


def test_catalog_frozen_values():
    by_label = {kf.label: kf for kf in catalog()}
    assert by_label["A"].char_poly == (1, 0, -1)
    assert by_label["B"].char_poly == (2, -3, 2, -1)
    assert by_label["C"].char_poly == (6, -3, -2, -1)
    assert by_label["D"].char_poly == (5, -3, -1, -1)
    assert by_label["E"].char_poly == (8, 1, -6, -5, 2)
    assert by_label["F"].char_poly == (13, -6, -2, -4, -3, 2)
    assert [by_label[l].c for l in "ABCDEF"] == [
        F(2), F(1), F(5, 3), F(8, 5), F(9, 4), F(24, 13)
    ]
    assert [by_label[l].claimed_order for l in "ABCDEF"] == [2, 3, 3, 3, 4, 4]


def test_catalog_coefficients_sum_to_zero():
    for kf in catalog():
        assert sum(kf.char_poly) == 0  # p(1) = 0 in unnormalized form


def test_catalog_derivative_weight_consistency():
    # p'(1) = c for the normalized polynomial, exactly
    for kf in catalog():
        f = kf.to_formula()
        d = len(f.p) - 1
        dp1 = sum(i * f.p[d - i] for i in range(1, d + 1))
        assert dp1 == kf.c, kf.label


def test_catalog_all_convergent():
    for kf in catalog():
        rep = analyze_formula(kf.to_formula())
        assert rep.convergent, kf.label


def test_catalog_e_matches_seed_session_polynomial():
    e = {kf.label: kf for kf in catalog()}["E"].to_formula()
    assert e.p == (F(1), F(1, 8), F(-3, 4), F(-5, 8), F(1, 4))
    assert e == seed_to_formula(Dimensions(2, 2), [F(-5), F(2)], exact=True)


def test_catalog_second_magnitudes():
    # the two three-term formulas have simple closed-form root pairs
    by_label = {kf.label: kf for kf in catalog()}
    rep_b = analyze_formula(by_label["B"].to_formula())
    assert rep_b.second_magnitude == pytest.approx(math.sqrt(0.5), abs=1e-12)
    rep_c = analyze_formula(by_label["C"].to_formula())
    assert rep_c.second_magnitude == pytest.approx(1 / math.sqrt(6), abs=1e-12)
    rep_e = analyze_formula(by_label["E"].to_formula())
    assert rep_e.second_magnitude == pytest.approx(0.9025, abs=5e-4)


def test_source_notes_present():
    for kf in catalog():
        assert kf.source_note.strip()


# ------------------------------------------------------------------ residual


def test_euler_exact_on_quadratics():
    a = catalog()[0].to_formula()
    for t in (0.0, 0.37, -2.0):
        assert abs(residual(a, monomial(2), t, 0.05)) < 1e-14


def test_euler_exp_residual_is_cubic():
    a = catalog()[0].to_formula()
    for tau in (0.1, 0.01):
        r = residual(a, EXP, 0.0, tau)
        assert r == pytest.approx(math.exp(tau) - math.exp(-tau) - 2 * tau, abs=1e-16)
        assert r == pytest.approx(tau**3 / 3, rel=2e-3)


def test_three_term_formula_exact_on_quadratics():
    b = catalog()[1].to_formula()
    assert abs(residual(b, monomial(2), 1.3, 0.1)) < 1e-13


def test_residual_rejects_nonpositive_tau():
    a = catalog()[0].to_formula()
    with pytest.raises(ValueError):
        residual(a, EXP, 0.0, 0.0)
    with pytest.raises(ValueError):
        residual(a, EXP, 0.0, -0.1)


def test_monomial_basics():
    m = monomial(0)
    assert m.value(3.0) == 1.0
    assert m.derivative(3.0) == 0.0
    with pytest.raises(ValueError):
        monomial(-1)


# ------------------------------------------------------------ order checking


def test_catalog_orders_pass():
    for kf in catalog():
        res = empirical_order(kf.to_formula(), kf.claimed_order)
        assert res.passed, (kf.label, res.fitted_slope)
        assert not res.underflow


def test_catalog_fitted_slopes_near_expected():
    # measured decay rates: the symmetric Euler form gains an order on e^t
    expect = {"A": 3.0, "B": 3.0, "C": 3.0, "D": 3.0, "E": 4.0, "F": 4.0}
    for kf in catalog():
        res = empirical_order(kf.to_formula(), kf.claimed_order)
        assert res.fitted_slope == pytest.approx(expect[kf.label], abs=0.08)


def test_order_check_rejects_low_claim():
    with pytest.raises(ValueError):
        empirical_order(catalog()[0].to_formula(), 1)


def test_order_check_fails_overclaimed():
    # Euler measures slope ~3; claiming order 5 must fail
    res = empirical_order(catalog()[0].to_formula(), 5)
    assert not res.passed


def test_order_check_underflow_flag(monkeypatch):
    # all residuals under the noise floor -> unfittable, passes with a flag
    monkeypatch.setattr(validation, "residual", lambda *a, **k: 1e-20)
    res = empirical_order(catalog()[0].to_formula(), 4)
    assert res.passed
    assert res.underflow
    assert res.fitted_slope is None


def test_order_result_reports_all_taus():
    e = catalog()[4].to_formula()
    res = empirical_order(e, 4)
    assert len(res.residuals) == 8
    # one |residual| per tau = 2^-3 .. 2^-10, in that order
    assert res.residuals == tuple(abs(residual(e, EXP, 0.0, 2.0**-n)) for n in range(3, 11))


def test_results_hold_only_measurements():
    # the formula, its label and the claimed order stay with the caller
    assert [f.name for f in fields(OrderCheckResult)] == [
        "residuals", "fitted_slope", "passed", "underflow"]
    assert [f.name for f in fields(RecurrenceRun)] == ["max_error", "diverged"]


# ------------------------------------------------------------------ simulate


def test_simulate_e_on_sin_regression():
    e = catalog()[4].to_formula()
    run = simulate(e, SIN, 0.01, 1000)
    assert not run.diverged
    # frozen regression baseline from the first validated run
    assert run.max_error == pytest.approx(3.8885272679589633e-07, rel=1e-6)


def test_simulate_halving_tau_shrinks_error():
    for kf in catalog():
        f = kf.to_formula()
        coarse = simulate(f, SIN, 0.01, 1000)
        fine = simulate(f, SIN, 0.005, 2000)  # same end time
        assert not coarse.diverged and not fine.diverged
        assert fine.max_error < coarse.max_error, kf.label


def test_simulate_divergent_polynomial():
    bad = DifferenceFormula((1.0, -2.1, 1.1), -0.1)
    run = simulate(bad, SIN, 0.01, 10000)
    assert run.diverged
    assert run.max_error > 1e9
    # well within the first thousand steps
    assert simulate(bad, SIN, 0.01, 1000).diverged


def test_any_root_beyond_1_05_diverges():
    cases = [
        DifferenceFormula((1.0, -2.1, 1.1), -0.1),     # roots {1, 1.1}
        DifferenceFormula((1.0, 0.0, -1.21), 2.0),     # roots ±1.1
        DifferenceFormula((1.0, -0.05, -1.103), 1.0),  # max root 1.075
    ]
    for f in cases:
        assert max(abs(z) for z in np.roots(f.p)) >= 1.05
        assert simulate(f, SIN, 0.01, 10000).diverged


def test_simulate_euler_exact_on_quadratic():
    a = catalog()[0].to_formula()
    run = simulate(a, monomial(2), 0.1, 50, t0=1.0)
    assert run.max_error < 1e-12


def test_simulate_zero_steps():
    e = catalog()[4].to_formula()
    run = simulate(e, SIN, 0.01, 0)
    assert run.max_error == 0.0
    assert not run.diverged


def test_simulate_argument_validation():
    e = catalog()[4].to_formula()
    with pytest.raises(ValueError):
        simulate(e, SIN, -0.01, 10)
    with pytest.raises(ValueError):
        simulate(e, SIN, 0.01, -1)


@pytest.mark.parametrize("tau", [math.nan, math.inf])
def test_non_finite_tau_is_rejected(tau):
    # a NaN step used to read as a perfect bounded run (max_error 0.0), and
    # an infinite one stopped on a bare math domain error
    e = catalog()[4].to_formula()
    with pytest.raises(ValueError, match="finite"):
        simulate(e, SIN, tau, 100)
    with pytest.raises(ValueError, match="finite"):
        residual(e, EXP, 0.0, tau)


def simulate_reference(f, x, tau, steps, *, t0=0.0, blowup_threshold=BLOWUP_THRESHOLD):
    """simulate's loop before its per-step overhead was cut: the same samples,
    forcing and fsum over the same products, one generator per step."""
    p = [float(v) for v in f.p]
    c = float(f.c)
    d = len(f.p) - 1

    hist = [x.value(t0 + j * tau) for j in range(d)]
    max_error = 0.0
    diverged = False
    for n in range(steps):
        j = d - 1 + n  # index of the newest known iterate
        t_j = t0 + j * tau
        nxt = c * tau * x.derivative(t_j) - math.fsum(
            p[i] * hist[-i] for i in range(1, d + 1)
        )
        hist.append(nxt)
        err = abs(nxt - x.value(t0 + (j + 1) * tau))
        if abs(nxt) > blowup_threshold:
            max_error = err
            diverged = True
            break
        if err > max_error:
            max_error = err

    return RecurrenceRun(max_error=max_error, diverged=diverged)


def run_bits(run):
    """Every field of a RecurrenceRun, floats by their bits."""
    return {
        fl.name: v.hex() if isinstance(v, float) else v
        for fl in fields(run)
        for v in [getattr(run, fl.name)]
    }


@pytest.mark.parametrize("label", "ABCDEF")
def test_simulate_bit_identical_to_reference_loop(label):
    f = {kf.label: kf for kf in catalog()}[label].to_formula()
    for name, x in (("sin", SIN), ("exp", EXP), ("t^3", monomial(3))):
        for tau, steps in ((0.01, 1000), (0.005, 2000), (0.1, 50)):
            for t0 in (0.0, 1.0):
                new = simulate(f, x, tau, steps, t0=t0)
                ref = simulate_reference(f, x, tau, steps, t0=t0)
                assert run_bits(new) == run_bits(ref), (name, tau, steps, t0)


def test_simulate_bit_identical_on_divergent_and_empty_runs():
    bad = DifferenceFormula((1.0, -3.0, 2.0), -1.0)  # roots 1 and 2
    runs = [(bad, 400), (bad, 10000), (catalog()[4].to_formula(), 0)]
    for f, steps in runs:
        new = simulate(f, SIN, 0.01, steps)
        assert run_bits(new) == run_bits(simulate_reference(f, SIN, 0.01, steps))
    assert simulate(bad, SIN, 0.01, 10000).diverged


def test_simulate_divergence_stops_early():
    # max_error is the error at the detection point, not a later blowup value
    bad = DifferenceFormula((1.0, -2.1, 1.1), -0.1)
    r1 = simulate(bad, SIN, 0.01, 10000)
    r2 = simulate(bad, SIN, 0.01, 400)
    if r2.diverged:
        assert r1.max_error == r2.max_error


# ------------------------------------------------------------ whole catalog


def test_validate_catalog_all_ok():
    results = validate_catalog()
    assert len(results) == 6
    assert all(r["ok"] for r in results)


def with_e_corrupted():
    """The catalog with E's trailing coefficient raised by 1, which breaks
    p(1) = 0: a negative control that the checks can fail."""
    return [replace(kf, char_poly=(*kf.char_poly[:-1], kf.char_poly[-1] + 1))
            if kf.label == "E" else kf for kf in catalog()]


def test_validate_catalog_corruption_detected(monkeypatch):
    monkeypatch.setattr(validation, "catalog", with_e_corrupted)
    results = validate_catalog()
    by_label = {r["label"]: r for r in results}
    assert not by_label["E"]["ok"]
    assert not by_label["E"]["root_at_1"]
    assert all(by_label[l]["ok"] for l in "ABCDF")
