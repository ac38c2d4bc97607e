"""Seed-driven construction of one-step-ahead finite difference formulas.

A look-ahead formula predicts the next state x_{j+1} from the current and
earlier states x_j, ..., x_{j-ell} (ell = k+s-1) plus the current
derivative dx_j, so the next value is available before its time instant
arrives.  The construction runs in two stages:

1. Write the Taylor expansions of x_{j+1}, x_{j-1}, ..., x_{j-ell} around
   t_j and collect the coefficients of the derivative orders 2 .. k+1 into
   a (k+s) x k matrix of exact rationals (signed integer powers over
   factorials).
2. Any vector in the left null space of that matrix combines the expansions
   so that every higher derivative cancels.  The null space has dimension s
   and is parameterized by a length-s seed vector through the reduced row
   echelon form [I | B] of the transposed matrix: the seed fills the free
   variables, the B block completes the pivot variables.

The normalized null vector q (q[0] = 1) yields the characteristic
polynomial p = [1, -sum(q), q[1], ..., q[k+s-1]] of the difference equation

    x_{j+1} + p[1]*x_j + ... + p[k+s]*x_{j-k-s+1} = c * tau * dx_j,

with derivative weight c = 1 - sum(i * q[i], i = 1 .. k+s-1).  Cancelling
derivatives 2 .. k+1 leaves a defect of order tau^(k+2), so the formula is
exact on polynomials of degree <= k+1.

Matrix build, echelon reduction, and the exact formula path all use
``fractions.Fraction``: the entries are factorial-denominator rationals and
exact arithmetic is what makes the structural identities p(1) = 0 and
p'(1) = c hold identically, at any k and s.  A float64 mirror of the
seed-to-polynomial map feeds the float classifier, which the search runs
on every start point and polished seed; its conditioning limits, and the
advice that follows from them, belong to the search
(``search.SearchConfig``), not to this layer.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence, Union

import numpy as np

__all__ = [
    "Dimensions",
    "EchelonBlock",
    "DifferenceFormula",
    "RankDeficientError",
    "PivotDisplacementError",
    "NonNormalizableSeedError",
    "build_taylor_matrix",
    "reduce_to_echelon",
    "echelon_block",
    "seed_to_formula",
]

# A float-path null vector is unusable when its leading entry is this small
# relative to the largest entry.
NORMALIZE_RTOL = 1e-12


class RankDeficientError(ArithmeticError):
    """The Taylor coefficient matrix lost rank during reduction."""


class PivotDisplacementError(ArithmeticError):
    """Echelon pivots left the leading columns, so no [I | B] block exists."""


class NonNormalizableSeedError(ValueError):
    """The seed spawns a null vector whose leading entry is (near) zero, or
    (float path) whose normalization overflows."""


def _check_int(name: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is an integer >= ``least`` (0 or 1).
    NumPy integers pass too."""
    try:
        if operator.index(value) >= least:
            return
    except TypeError:
        pass
    kind = "positive" if least else "non-negative"
    raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


@dataclass(frozen=True)
class Dimensions:
    """Problem size of a formula family.

    k is the number of derivative orders to cancel (orders 2 .. k+1), s the
    seed length.  Everything else is derived: the formula reaches back to
    x_{j-ell} (ell = k+s-1, see the module docstring), its characteristic
    polynomial has degree k+s, and the nominal truncation order is k+2.
    Any positive k and s are valid; ``search.SearchConfig`` warns about
    those the search rarely solves.
    """

    k: int
    s: int

    def __post_init__(self):
        _check_int("k", self.k, 1)
        _check_int("s", self.s, 1)

    @property
    def degree(self) -> int:
        return self.k + self.s

    @property
    def order(self) -> int:
        return self.k + 2


@dataclass(frozen=True)
class EchelonBlock:
    """The k x s non-identity block B of the reduced echelon form [I | B]."""

    b: tuple

    @cached_property
    def b_float(self) -> np.ndarray:
        """float64 copy of B for the optimizer's hot loop."""
        return np.array([[float(v) for v in row] for row in self.b], dtype=float)

    @cached_property
    def seed_plane(self) -> tuple:
        """(y_p, N) spanning the float seed hyperplane b·y = 1, b = -B[0].

        On it the raw null vector has q[0] = 1, and every seed y with
        b·y != 0 has the multiple y / (b·y) there, which spawns the same
        formula.  Its points are y = y_p + N @ z: y_p = b / |b|^2, and the
        s x (s-1) columns of N, an orthonormal basis of the vectors
        orthogonal to b, are the Householder reflector mapping b onto an
        axis with that axis's column dropped.  Both arrays are read-only.
        """
        b = -self.b_float[0]
        v = b / np.linalg.norm(b)
        u = v.copy()
        u[0] += 1.0 if v[0] >= 0 else -1.0  # no cancellation in u[0]
        reflector = np.eye(v.size) - np.outer(u, u) * (2.0 / (u @ u))
        y_p, n = b / (b @ b), np.ascontiguousarray(reflector[:, 1:])
        y_p.flags.writeable = n.flags.writeable = False
        return y_p, n

    @cached_property
    def deflated_plane(self) -> tuple:
        """(r_p, R): on the seed plane y = y_p + N @ z, the tail r[1:] of the
        deflated polynomial r = p / (z - 1) is r_p + R @ z.  There q[0] = 1,
        so r, the prefix sums of p = [1, -sum(q), q[1:]], is minus the suffix
        sums of q[1:] = [-B[1:] @ y, y].  Both arrays are read-only.
        """
        neg_b = -self.b_float[1:]

        def tail(v):
            q_rest = np.concatenate([neg_b @ v, v])
            return np.ascontiguousarray(-np.cumsum(q_rest[::-1], axis=0)[::-1])

        r_p, r = map(tail, self.seed_plane)
        r_p.flags.writeable = r.flags.writeable = False
        return r_p, r


@dataclass(frozen=True, slots=True)
class DifferenceFormula:
    """A look-ahead difference formula in characteristic polynomial form.

    p holds the k+s+1 polynomial coefficients, highest power first and
    normalized to p[0] = 1; c is the weight of tau * dx_j.  Coefficients are
    all Fraction (exact path) or all float (float path).
    """

    p: tuple
    c: Union[float, Fraction]

    def as_float(self) -> "DifferenceFormula":
        return DifferenceFormula(tuple(float(v) for v in self.p), float(self.c))


def build_taylor_matrix(dims: Dimensions) -> tuple:
    """Assemble the exact (k+s) x k coefficient matrix as a tuple of rows.

    Row 1 belongs to x_{j+1}: entry v is 1/(v+1)!.  Row u >= 2 belongs to
    x_{j-(u-1)}: entry v is (-(u-1))^(v+1) / (v+1)!.
    """
    rows = []
    for u in range(1, dims.degree + 1):
        base = 1 if u == 1 else -(u - 1)
        rows.append(
            tuple(Fraction(base ** (v + 1), math.factorial(v + 1)) for v in range(1, dims.k + 1))
        )
    return tuple(rows)


def reduce_to_echelon(rows: tuple) -> EchelonBlock:
    """Reduce the transpose of the (k+s) x k matrix ``rows`` to [I | B] in
    exact rational arithmetic.

    Raises RankDeficientError if the rank drops below k and
    PivotDisplacementError if the pivots do not occupy the first k columns
    (either would break the seed -> null vector map).
    """
    n, k = len(rows), len(rows[0])
    mat = [[rows[r][c] for r in range(n)] for c in range(k)]

    piv_cols = []
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, k) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = mat[row][col]
        mat[row] = [x / inv for x in mat[row]]
        for r in range(k):
            if r != row and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[row])]
        piv_cols.append(col)
        row += 1
        if row == k:
            break

    if row < k:
        raise RankDeficientError(
            f"coefficient matrix for k={k}, s={n - k} has rank {row} < {k}"
        )
    if piv_cols != list(range(k)):
        raise PivotDisplacementError(
            f"echelon pivots fell in columns {piv_cols}, expected the first {k}"
        )
    return EchelonBlock(tuple(tuple(r[k:]) for r in mat))


@lru_cache(maxsize=None)
def echelon_block(dims: Dimensions) -> EchelonBlock:
    """Cached build + reduction; the search loop hits this once per dims."""
    return reduce_to_echelon(build_taylor_matrix(dims))


def seed_to_formula(dims: Dimensions, y: Sequence, *, exact: bool = False) -> DifferenceFormula:
    """The difference formula spawned by seed ``y``.

    The raw left null vector is q = [-B @ y, y] (B of ``echelon_block``,
    cached per dims); divided by its leading entry so that q[0] = 1, it
    gives p = [1, -sum(q), q[1:]] and c = 1 - sum(i * q[i]).  With
    ``exact`` the seed entries are taken as Fractions and so is every
    coefficient; otherwise the arithmetic is float64.

    A seed of the wrong length or a zero seed raises ValueError, and a
    leading entry that vanishes raises NonNormalizableSeedError: exactly
    zero on the exact path, below NORMALIZE_RTOL relative to max|q| on the
    float path.  The float path also raises ValueError for a non-finite
    seed and NonNormalizableSeedError for a null vector that overflows
    float64 once normalized.
    """
    block = echelon_block(dims)
    d = dims.degree
    if not exact:
        yv = np.asarray(y, dtype=float)
        if yv.shape != (dims.s,) or not np.isfinite(yv).all():
            raise ValueError(f"seed must be a finite vector of length s = {dims.s}")
        # -B @ y has the bits of -(B @ y): rounding is symmetric in sign.
        q = np.concatenate([-block.b_float @ yv, yv])
        # max|q| is 0 exactly when the seed is zero (then q is all zeros).
        scale = np.abs(q).max()
        if scale == 0.0:
            raise ValueError("seed must be nonzero")
        if abs(q[0]) < NORMALIZE_RTOL * scale:
            raise NonNormalizableSeedError(f"leading null vector entry {q[0]:.3e} is negligible")
        q /= q[0]
        total = q.sum()
        if not math.isfinite(total):  # as it is if any entry of q is not
            raise NonNormalizableSeedError("normalized null vector overflows float64")
        p = (1.0, float(-total), *(float(v) for v in q[1:]))
        c = 1.0 - float(np.arange(1.0, d) @ q[1:])
        return DifferenceFormula(p, c)
    if len(y) != dims.s:
        raise ValueError(f"seed length {len(y)} != s = {dims.s}")
    ys = [Fraction(v) for v in y]
    if not any(ys):
        raise ValueError("seed must be nonzero")
    q = [-sum(brow[j] * ys[j] for j in range(dims.s)) for brow in block.b] + ys
    if q[0] == 0:
        raise NonNormalizableSeedError(
            "null vector has zero leading entry; "
            "the seed generates no normalizable formula"
        )
    lead = q[0]
    q = [v / lead for v in q]
    p = (Fraction(1), -sum(q), *q[1:])
    c = 1 - sum(i * q[i] for i in range(1, d))
    return DifferenceFormula(p, c)
