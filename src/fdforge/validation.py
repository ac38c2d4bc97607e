"""Catalog of known formulas, truncation-order measurement, stability runs.

Three kinds of evidence about a difference formula live here:

* the catalog of the six convergent look-ahead formulas previously known
  from the multistep/ZNN discretization literature, labeled (A)-(F) in
  their original unnormalized integer form;
* empirical truncation order: the one-step residual on x = e^t sampled
  over dyadic step sizes, with the order read off as the log-log slope;
* recurrence simulation: run the formula as an actual multistep iteration
  against a test function with the exact derivative fed in, to show
  bounded error for convergent formulas and blowup for non-convergent
  ones.

Exact derivatives are supplied analytically so the measurements isolate
the formula's own defect from any derivative-estimation error.  The result
records hold only measurements and verdicts; the formula, its label and
the claimed order stay with the caller that passed them in.

Order labels are treated as lower bounds on the measured slope: the
symmetric Euler formula (A) carries the label 2 but measures slope 3 on
e^t because its residual expansion is odd in tau.  The order check
therefore passes whenever the fitted slope reaches claimed - SLOPE_TOL.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .charpoly import analyze_formula
from .taylor_system import DifferenceFormula

__all__ = [
    "SLOPE_TOL",
    "UNDERFLOW",
    "BLOWUP_THRESHOLD",
    "TestFunction",
    "EXP",
    "SIN",
    "monomial",
    "KnownFormula",
    "OrderCheckResult",
    "RecurrenceRun",
    "catalog",
    "residual",
    "empirical_order",
    "simulate",
    "validate_catalog",
]

# Least-squares slope may fall this far below the claimed order and still pass.
SLOPE_TOL = 0.3
# Residuals below this are considered drowned in float64 rounding noise.
UNDERFLOW = 1e-14
# An iterate beyond this magnitude counts as divergence.
BLOWUP_THRESHOLD = 1e10

# Dyadic step sizes for the order fit.
_ORDER_TAUS = tuple(2.0 ** (-e) for e in range(3, 11))


@dataclass(frozen=True)
class TestFunction:
    """A scalar trajectory with its exact derivative."""

    name: str
    value: Callable[[float], float]
    derivative: Callable[[float], float]


EXP = TestFunction("exp", math.exp, math.exp)
SIN = TestFunction("sin", math.sin, math.cos)


def monomial(r: int) -> TestFunction:
    """t^r with exact derivative r*t^(r-1)."""
    if r < 0:
        raise ValueError("exponent must be >= 0")

    def deriv(t: float) -> float:
        return 0.0 if r == 0 else r * t ** (r - 1)

    return TestFunction(f"t^{r}", lambda t: t**r, deriv)


@dataclass(frozen=True)
class KnownFormula:
    """One catalog entry, kept in its original unnormalized integer form."""

    label: str
    char_poly: tuple
    c: Fraction
    claimed_order: int
    source_note: str

    def to_formula(self) -> DifferenceFormula:
        """Normalized exact DifferenceFormula (leading coefficient 1)."""
        lead = Fraction(self.char_poly[0])
        return DifferenceFormula(tuple(Fraction(v) / lead for v in self.char_poly),
                                 Fraction(self.c))


def catalog() -> list[KnownFormula]:
    """The six previously known convergent look-ahead formulas (A)-(F).

    char_poly holds the integer characteristic polynomial exactly as
    published, c the weight of tau * dx_j once the polynomial is
    normalized.  Every entry satisfies p(1) = 0 (the coefficients sum to
    zero) and the root condition.
    """
    return [
        KnownFormula(
            "A",
            (1, 0, -1),
            Fraction(2),
            2,
            "symmetric (central-difference) Euler predictor",
        ),
        KnownFormula(
            "B",
            (2, -3, 2, -1),
            Fraction(1),
            3,
            "three-instant look-ahead rule, first of two variants",
        ),
        KnownFormula(
            "C",
            (6, -3, -2, -1),
            Fraction(5, 3),
            3,
            "three-instant look-ahead rule, second variant",
        ),
        KnownFormula(
            "D",
            (5, -3, -1, -1),
            Fraction(8, 5),
            3,
            "four-instant forward rule",
        ),
        KnownFormula(
            "E",
            (8, 1, -6, -5, 2),
            Fraction(9, 4),
            4,
            "five-instant look-ahead rule",
        ),
        KnownFormula(
            "F",
            (13, -6, -2, -4, -3, 2),
            Fraction(24, 13),
            4,
            "six-instant look-ahead rule",
        ),
    ]


@dataclass(frozen=True)
class OrderCheckResult:
    """Outcome of fitting the residual decay rate of one formula: the
    |residual| at each step size of the fit (tau = 2^-3 .. 2^-10), the
    fitted slope (None when unfittable), and the verdict."""

    residuals: tuple
    fitted_slope: Optional[float]
    passed: bool
    underflow: bool


@dataclass(frozen=True)
class RecurrenceRun:
    """Outcome of iterating one formula against a test function."""

    max_error: float
    diverged: bool


def _check_tau(tau: float) -> None:
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be positive and finite, got {tau!r}")


def residual(f: DifferenceFormula, x: TestFunction, t: float, tau: float) -> float:
    """One-step defect of ``f`` on exact samples of ``x`` around time t.

    sum_i p[i] * x(t + (1-i)*tau) - c * tau * dx(t); zero through rounding
    on polynomials up to the formula's exactness degree.
    """
    _check_tau(tau)
    p = [float(v) for v in f.p]
    acc = math.fsum(p[i] * x.value(t + (1 - i) * tau) for i in range(len(p)))
    return acc - float(f.c) * tau * x.derivative(t)


def empirical_order(f: DifferenceFormula, claimed: int) -> OrderCheckResult:
    """Measure the truncation order of ``f`` on x = e^t at t = 0.

    |residual| is sampled over tau = 2^-3 .. 2^-10 and the slope of
    log|residual| against log tau fitted by least squares, using only the
    points above the UNDERFLOW noise floor.  Passing means slope >=
    claimed - SLOPE_TOL.  When fewer than two points survive the filter
    the slope is unfittable; that counts as a pass with the underflow
    flag set (the residual died into rounding noise faster than the fit
    could see, which no finite claimed order contradicts).
    """
    if claimed < 2:
        raise ValueError("claimed order must be >= 2")
    res = tuple(abs(residual(f, EXP, 0.0, tau)) for tau in _ORDER_TAUS)
    usable = [(tau, r) for tau, r in zip(_ORDER_TAUS, res) if r >= UNDERFLOW]
    if len(usable) < 2:
        return OrderCheckResult(res, None, passed=True, underflow=True)
    lt = np.log([tau for tau, _ in usable])
    lr = np.log([r for _, r in usable])
    slope = float(np.polyfit(lt, lr, 1)[0])
    return OrderCheckResult(res, slope, passed=slope >= claimed - SLOPE_TOL, underflow=False)


def simulate(
    f: DifferenceFormula,
    x: TestFunction,
    tau: float,
    steps: int,
    *,
    t0: float = 0.0,
) -> RecurrenceRun:
    """Run ``f`` as a multistep recurrence against ``x`` for ``steps`` steps.

    The first degree iterates are exact samples x(t0), ..,
    x(t0 + (degree-1)*tau); each later iterate comes from

        x_{j+1} = -(p[1]*x_j + ... + p[degree]*x_{j+1-degree}) + c*tau*dx(t_j)

    with the exact derivative fed in.  max_error is the largest deviation
    of a computed iterate from the exact trajectory; when an iterate
    passes BLOWUP_THRESHOLD in magnitude the run stops there, diverged is
    set, and max_error is the error at the detection point.

    The arithmetic is fixed, so every result is reproducible to the bit:
    samples and derivatives are taken at t0 + j*tau, the forcing is
    (c*tau) * dx(t_j), and the degree products p[i]*x_{j+1-i} are summed
    by ``math.fsum``, which rounds their exact sum once.
    """
    _check_tau(tau)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    back = [float(v) for v in f.p[:0:-1]]  # p[degree], .., p[1]
    d = len(back)
    c_tau = float(f.c) * tau
    value, deriv, fsum, mul = x.value, x.derivative, math.fsum, operator.mul
    blowup = BLOWUP_THRESHOLD

    hist = [value(t0 + j * tau) for j in range(d)]
    max_error = 0.0
    diverged = False
    # j indexes the newest known iterate; hist[-d:] is x_{j+1-d}, .., x_j
    for j in range(d - 1, d - 1 + steps):
        nxt = c_tau * deriv(t0 + j * tau) - fsum(map(mul, back, hist[-d:]))
        hist.append(nxt)
        err = abs(nxt - value(t0 + (j + 1) * tau))
        if abs(nxt) > blowup:
            max_error = err
            diverged = True
            break
        if err > max_error:
            max_error = err

    return RecurrenceRun(max_error=max_error, diverged=diverged)


def validate_catalog() -> list[dict]:
    """Full integrity check of the catalog; one result dict per entry.

    Each entry is checked for p(1) = 0, p'(1) = c (both exact), the
    root condition, the empirical order, and a bounded sin-t simulation
    (1000 steps of tau = 0.01).  The dict echoes the entry's label and
    claimed order next to those measurements and their overall verdict
    ``ok``.
    """
    out = []
    for kf in catalog():
        formula = kf.to_formula()
        p = formula.p

        sums_to_zero = sum(p) == 0
        dp_at_1 = sum(i * p[len(p) - 1 - i] for i in range(1, len(p)))
        c_matches = dp_at_1 == kf.c
        report = analyze_formula(formula)
        order = empirical_order(formula, kf.claimed_order)
        run = simulate(formula, SIN, 0.01, 1000)
        ok = (
            sums_to_zero
            and c_matches
            and report.convergent
            and order.passed
            and not run.diverged
        )
        out.append(
            {
                "label": kf.label,
                "root_at_1": sums_to_zero,
                "c_consistent": c_matches,
                "convergent": report.convergent,
                "max_magnitude": report.max_magnitude,
                "second_magnitude": report.second_magnitude,
                "fitted_slope": order.fitted_slope,
                "claimed_order": kf.claimed_order,
                "order_ok": order.passed,
                "sim_max_error": run.max_error,
                "sim_diverged": run.diverged,
                "ok": ok,
            }
        )
    return out
