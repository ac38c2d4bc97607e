"""Root analysis and convergence classification of difference formulas.

A look-ahead formula is convergent exactly when its characteristic
polynomial satisfies the root condition: every root inside the closed unit
disk and every root on the unit circle simple.  Because p(1) = 0 by
construction, 1 is always a root and the decisive quantity is the largest
magnitude among the rest — in particular the second-largest magnitude
overall, which also sets the asymptotic decay rate of the formula's
parasitic modes.

Roots are the eigenvalues of the companion matrix, computed by one private
kernel that calls NumPy's own LAPACK ``dgeev`` gufunc (no eigenvectors), the
routine behind ``numpy.linalg.eigvals`` and ``numpy.roots``, without their
Python wrapper: the roots are bit-identical to ``numpy.roots`` by
construction, and nothing beyond NumPy is needed at run time.  A seed has
one float path to its roots (``taylor_system.seed_to_formula``, then this
kernel), which scores and judges the search's start points alike, so a
seed gets one verdict and the same magnitudes to the bit.  Companion
eigenvalues are backward stable (Edelman & Murakami, Math. Comp. 1995):
each computed root is an exact root of a polynomial whose coefficients are
a tiny relative perturbation of the input.  The residual contract checked
in the test suite is |p(z)| <= 1e-8 * ||p||_1 * max(1,|z|)^n for every
reported root z.

The search classifies every start point with ``analyze_formula`` on its
float formula, and polishes one that is not convergent with
:func:`deflated_radius`: a value, the largest root magnitude of p / (z - 1)
at a point of the seed plane, from one root solve per trial point, and a
gradient from the same roots, computed only where the line search's
curvature test reads it.  It absorbs every degenerate outcome into a large
penalty (or no gradient) so the optimizer sees a total function.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg

from .taylor_system import DifferenceFormula, Dimensions, echelon_block, seed_to_formula

__all__ = [
    "CIRCLE_TOL",
    "ACCEPT_TOL",
    "CLUSTER_TOL",
    "PENALTY",
    "DegenerateInputError",
    "RootReport",
    "find_roots",
    "analyze",
    "analyze_formula",
    "objective_function",
    "deflated_radius",
]

# |z| within this of 1 counts as "on the unit circle".
CIRCLE_TOL = 1e-9
# Convergence accepts max magnitude up to 1 + ACCEPT_TOL.
ACCEPT_TOL = 1e-9
# Two circle roots closer than this are treated as a repeated root.
CLUSTER_TOL = 1e-6
# Objective value assigned to seeds that break the pipeline.
PENALTY = 1e6

# LAPACK dgeev without eigenvectors, as NumPy ships it: the gufunc that
# np.linalg.eigvals and np.roots call (a private name of numpy.linalg).
_eigvals = _umath_linalg.eigvals


class DegenerateInputError(ValueError):
    """Polynomial input the root solver cannot use: too few, complex or
    non-finite coefficients, or no usable leading coefficient."""


@dataclass(frozen=True)
class RootReport:
    """Root-condition snapshot of one characteristic polynomial."""

    roots: tuple
    max_magnitude: float
    max_deviation: float
    second_magnitude: float
    on_circle: tuple
    convergent: bool


def _coeffs(p) -> np.ndarray:
    a = np.asarray(p, dtype=complex)
    if np.any(a.imag):
        raise DegenerateInputError("polynomial coefficients must be real")
    a = a.real
    if a.ndim != 1 or a.size < 2:
        raise DegenerateInputError("need at least two polynomial coefficients")
    if not np.all(np.isfinite(a)):
        raise DegenerateInputError("polynomial coefficients must be finite")
    if a[0] == 0:
        raise DegenerateInputError("leading coefficient is zero")
    return a


def _companion_roots(tail: np.ndarray, comp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the roots of the polynomial whose negated monic tail
    -p[1:]/p[0] is ``tail`` into the complex array ``out`` and return it.

    ``tail`` must be finite (callers check: LAPACK must never see inf or
    NaN).  Its trailing zeros are stripped into exact zero roots at the end
    of ``out``, as ``np.roots`` does.  ``comp`` is companion scratch from
    ``np.eye(n, k=-1, order="F")`` (Fortran order lets the gufunc copy it
    column by column); only its row 0 is written.  The gufunc writes
    wr + i*wi into ``out`` as ``np.linalg.eigvals`` returns them, so
    ``np.abs(out)`` matches ``np.roots`` to the bit; ``np.hypot(wr, wi)``
    would differ in the last ulp.

    Raises LinAlgError if dgeev does not converge.  The gufunc then fills
    ``out`` with NaN and raises NumPy's "invalid value" floating-point
    error, which callers silence (``np.errstate``) so that nothing prints.
    """
    if tail[-1] == 0.0:  # p ends in a zero: strip it, its root is exactly 0
        out[-1] = 0.0
        if tail.size > 1:
            _companion_roots(tail[:-1], np.eye(tail.size - 1, k=-1, order="F"), out[:-1])
        return out
    comp[0] = tail
    _eigvals(comp, signature="d->D", out=out)
    if out[0] != out[0]:  # NaN: the whole output is NaN on failure
        raise np.linalg.LinAlgError("eigenvalues did not converge")
    return out


def _all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()`` of a short vector, sooner: a finite sum has
    finite terms, so only a sum that is not finite needs the full check."""
    return math.isfinite(sum(a.tolist())) or bool(np.isfinite(a).all())


def find_roots(p) -> np.ndarray:
    """All roots of the real polynomial ``p`` (descending powers), sorted by
    magnitude descending with (real, imag) as tie-breakers.

    Bit-identical to ``np.roots(p).astype(complex)`` under the same sort:
    trailing zero coefficients are stripped and their roots appended as
    exact zeros, so ``[c, 0, ..., 0]`` gives only zeros.
    """
    a = _coeffs(p)
    # An overflow and a LAPACK failure are reported as typed errors instead.
    with np.errstate(all="ignore"):
        tail = -a[1:] / a[0]
        if not np.isfinite(tail).all():
            raise DegenerateInputError("leading coefficient too small: companion row overflows")
        r = _companion_roots(tail, np.eye(tail.size, k=-1, order="F"), np.empty_like(tail, complex))
    order = np.lexsort((r.imag, r.real, -np.abs(r)))
    return r[order]


def analyze(p) -> RootReport:
    """Classify the root condition of the polynomial ``p``.

    max_deviation is max|root| - 1 (signed: negative means strictly inside
    the disk).  second_magnitude is |roots[1]| of the descending-magnitude
    sort, so a repeated dominant root counts with multiplicity; for a
    degree-1 polynomial it is 0.  on_circle lists the indices of roots with
    ||z| - 1| <= CIRCLE_TOL, and convergence requires the max magnitude
    below 1 + ACCEPT_TOL with no two circle roots within CLUSTER_TOL of
    each other.
    """
    roots = find_roots(p)
    mags = np.abs(roots)
    max_mag = float(mags[0])
    second = float(mags[1]) if roots.size > 1 else 0.0
    on_circle = tuple(int(i) for i in np.flatnonzero(np.abs(mags - 1.0) <= CIRCLE_TOL))
    convergent = max_mag <= 1.0 + ACCEPT_TOL and not any(
        abs(a - b) <= CLUSTER_TOL
        for a, b in itertools.combinations(roots[list(on_circle)], 2)
    )

    return RootReport(
        roots=tuple(roots),
        max_magnitude=max_mag,
        max_deviation=max_mag - 1.0,
        second_magnitude=second,
        on_circle=on_circle,
        convergent=convergent,
    )


def analyze_formula(formula: DifferenceFormula) -> RootReport:
    """Root report of a formula's characteristic polynomial."""
    return analyze([float(v) for v in formula.p])


def objective_function(dims: Dimensions) -> Callable[[np.ndarray], float]:
    """Seed -> max root magnitude: ``max_magnitude`` of
    ``analyze_formula(seed_to_formula(dims, y))``, or ``PENALTY`` where that
    raises (a seed of the wrong shape, zero, non-finite, non-normalizable or
    overflowing, or a failed root solve) or is not finite.  Values below 1
    are impossible — p(1) = 0 pins a root at 1 — which makes 1 the global
    floor of the landscape.
    """

    def f(y: np.ndarray) -> float:
        try:
            val = analyze_formula(seed_to_formula(dims, y)).max_magnitude
        except ValueError:
            return PENALTY
        return val if math.isfinite(val) else PENALTY

    return f


def deflated_radius(dims: Dimensions) -> tuple:
    """(value, gradient) of h, the largest root magnitude of r = p / (z - 1)
    at the point z of the seed plane (``EchelonBlock.seed_plane``).

    p's largest root magnitude is max(1, h), but h can fall below 1, so a
    minimizer sees how far inside the disk the other roots are.  ``value(z)``
    returns h after one root solve, and ``PENALTY`` where the tail of r is
    not finite or the root solve fails; it keeps the roots, so that
    ``gradient()`` returns grad h at the last valued point without a second
    solve, or None where that point scored the penalty or the gradient is not
    finite.  A line search reads the gradient only at the trials that pass
    sufficient decrease.
    The tail of r is r_p + R @ z (``EchelonBlock.deflated_plane``), so for a
    root l of r with |l| = h, dl/dz = -(sum_j R[j] l^(m-1-j)) / r'(l), where
    r'(l) = prod(l - other roots).  Where several roots share the largest
    magnitude this is the gradient of one of them, as BFGS on nonsmooth
    functions expects.  Both run silently in a private floating-point
    context, and each pair carries private scratch buffers: give each
    thread its own.
    """
    r_p, r_z = echelon_block(dims).deflated_plane
    m = r_p.size
    neg_p, neg_z = -r_p, -r_z  # the companion tail is -r[1:]
    neg_zc = neg_z.astype(complex)
    comp = np.eye(m, k=-1, order="F")
    tail = np.empty(m)
    roots = np.empty(m, dtype=complex)
    mags = np.empty(m)
    exponents = np.arange(m - 1, -1, -1)
    top = None  # index of the largest root at the last valued point, if any

    def value(z: np.ndarray) -> float:
        nonlocal top
        top = None
        np.matmul(neg_z, z, out=tail)
        np.add(tail, neg_p, out=tail)
        if not _all_finite(tail):
            return PENALTY
        try:
            _companion_roots(tail, comp, roots)
        except np.linalg.LinAlgError:
            return PENALTY
        np.abs(roots, out=mags)
        top = mags.argmax()
        return float(mags[top])

    def gradient():
        if top is None:
            return None
        root = roots[top]
        gaps = root - roots
        gaps[top] = 1.0
        droot = (root ** exponents @ neg_zc) / gaps.prod()
        grad = (root.conjugate() * droot).real / float(mags[top])
        return grad if _all_finite(grad) else None

    with np.errstate(all="ignore"):  # powers of l may overflow, r'(l) vanish
        quiet = contextvars.copy_context()
    return functools.partial(quiet.run, value), functools.partial(quiet.run, gradient)
