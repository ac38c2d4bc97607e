"""Reference answers computed without fdforge, used to check its outputs.

The exact construction is re-derived from its defining conditions rather
than from the package's echelon path: a look-ahead formula of dimensions
(k, s) has characteristic polynomial p[0..k+s] whose trailing s
coefficients are the seed (up to scale) and which, together with the
derivative weight c, is exact on the monomials t^0 .. t^(k+1):

    sum_i p[i] * (1 - i)^r  =  c * [r == 1]      for r = 0 .. k+1

(sample times t + (1 - i) * tau at t = 0, tau = 1).  That is k + 2 linear
equations in the k + 2 unknowns p[0..k] and c, solved here in exact
rational arithmetic.  A zero p[0] means the seed has no normalizable
formula.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence


def exact_formula(k: int, s: int, seed: Sequence) -> Optional[tuple]:
    """(p, c) normalized to p[0] = 1, or None when the seed is not normalizable."""
    y = [Fraction(v) for v in seed]
    n = k + 2  # unknowns p[0..k] and c
    rows = []
    for r in range(k + 2):
        row = [Fraction((1 - i) ** r) for i in range(k + 1)]
        row.append(Fraction(-1 if r == 1 else 0))
        rhs = -sum(y[j] * (1 - (k + 1 + j)) ** r for j in range(s))
        rows.append(row + [rhs])
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = rows[col][col]
        rows[col] = [v / inv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    sol = [rows[r][n] for r in range(n)]
    head, c = sol[: k + 1], sol[k + 1]
    lead = head[0]
    if lead == 0:
        return None
    return tuple(v / lead for v in head + y), c / lead


# The documented order-check rule: residual on x = e^t at t = 0 over
# tau = 2^-3 .. 2^-10, points below 1e-14 dropped, least-squares slope of
# log|residual| on log tau, pass at slope >= claimed - 0.3 (or when fewer
# than two points survive).
ORDER_TAUS = tuple(2.0 ** (-e) for e in range(3, 11))
ORDER_UNDERFLOW = 1e-14
ORDER_SLOPE_TOL = 0.3


def order_slope(p: Sequence, c) -> Optional[float]:
    """Fitted truncation-order slope of (p, c), or None when it underflows."""
    pf = [float(v) for v in p]
    pts = []
    for tau in ORDER_TAUS:
        acc = math.fsum(pf[i] * math.exp((1 - i) * tau) for i in range(len(pf)))
        r = abs(acc - float(c) * tau)
        if r >= ORDER_UNDERFLOW:
            pts.append((math.log(tau), math.log(r)))
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


# The six known convergent formulas (A)-(F): characteristic polynomials as
# published, highest power first.
CATALOG = {
    "A": (1, 0, -1),
    "B": (2, -3, 2, -1),
    "C": (6, -3, -2, -1),
    "D": (5, -3, -1, -1),
    "E": (8, 1, -6, -5, 2),
    "F": (13, -6, -2, -4, -3, 2),
}


# The two reference constructions of the README: (k, s, init seed) -> (p, c).
REFERENCE_CONSTRUCTIONS = (
    (2, 2, (-5, 2),
     (Fraction(1), Fraction(1, 8), Fraction(-3, 4), Fraction(-5, 8), Fraction(1, 4)),
     Fraction(9, 4)),
    (3, 3, (1, 110, -40),
     (Fraction(1), Fraction(80, 237), Fraction(-182, 237), Fraction(-206, 237),
      Fraction(1, 237), Fraction(110, 237), Fraction(-40, 237)),
     Fraction(196, 79)),
)
