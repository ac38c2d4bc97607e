"""Randomized BFGS discovery of convergent look-ahead formulas.

For fixed dimensions (k, s) a seed spawns a characteristic polynomial p
with the root 1, so p's largest root magnitude has a hard floor at 1, and
the convergent formulas live on that floor.  Discovery is global
minimization: throw random Gaussian seeds at the landscape, polish each
with a local minimizer, and keep the points that pass the root condition.

One float path from seed to verdict: ``charpoly.deflated_radius`` solves
for the roots of r = p / (z - 1) at a point of the seed plane, and those
roots give the polish its value h (their largest magnitude) and gradient,
and the attempt its verdict (the root condition on r's roots and p's root
1, as ``analyze`` states it for p).  An attempt scores max(1, h), p's
largest root magnitude; ``seed_to_formula`` builds the formula of a
candidate only.  Unlike p's, r's largest root magnitude falls below 1
inside the convergent set, so a polish can stop once every root is
strictly inside the disk.  The paper polishes with Nelder-Mead; here it is
BFGS with a weak Wolfe line search, which works on nonsmooth functions
such as a root radius (Lewis & Overton, Math. Program. 141, 2013).  Each
trial point costs one root solve; its gradient reuses those roots and is
computed only at the trials that pass sufficient decrease, the only ones
whose curvature the line search tests.

The landscape is flat along every ray: the null vector is normalized by its
leading entry q[0] = b·y (b = -B[0]), so f(lam * y) = f(y) for lam != 0.
So the polish runs on the hyperplane b·y = 1 instead, in s-1 orthonormal
coordinates (``EchelonBlock.seed_plane``).  Seeds are still drawn and
perturbed in seed space, and each start point y0 enters the plane as
y0 / (b·y0), which spawns the same formula; one with b·y0 zero or not finite
has no such multiple and enters as its orthogonal projection (which for a
non-finite y0 scores the penalty everywhere).  At s = 1 the plane is a
single point, and the polish takes no step.

The search is a double loop.  Each outer run draws a fresh standard-normal
seed and minimizes it; on immediate success the run is complete, otherwise
inner restarts perturb the best seed found so far in that run and minimize
again, exploring the neighborhood of the most promising basin.  An inner
restart that lands a new formula replenishes the restart budget (total
inner attempts stay capped at twice the nominal restart count, so regions
where a whole continuum of seeds is convergent still terminate); runs that
end empty record their best value of max(1, h) as a failure plateau — on
hard dimension pairs these cluster just above 1, the signature of
near-miss basins.

Reproducibility: every outer run owns a child of one ``SeedSequence``, so
results are a pure function of the rng seed, and an outer run's outcome
depends on its own child only: the first R runs of a longer session find
exactly what a session of R runs finds.  The outer runs run one after
another in the calling process (a pool of workers doubled a search's CPU
time without shortening it).  Candidate lists are deduplicated by
polynomial coefficients.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from .charpoly import PENALTY, deflated_radius
from .taylor_system import DifferenceFormula, Dimensions, _check_int, echelon_block, seed_to_formula

__all__ = [
    "DEDUP_TOL",
    "MAX_ITER",
    "K_LIMIT",
    "PERTURB_SCALE",
    "FLOOR_MARGIN",
    "WOLFE_C1",
    "WOLFE_C2",
    "LINE_SEARCH_TRIALS",
    "SearchConfig",
    "Candidate",
    "SearchResult",
    "bfgs",
    "random_seed",
    "perturb",
    "discover",
]

# Two formulas whose polynomial coefficients agree within this (absolute,
# per coefficient) are the same discovery.
DEDUP_TOL = 1e-8

# BFGS step cap of every polish.
MAX_ITER = 200

# Above this k the float search is ill-conditioned: the entries of B and the
# condition of the seed -> polynomial map grow fast.
K_LIMIT = 8

# Inner restarts perturb the run's best seed by this much (see perturb).
PERTURB_SCALE = 0.1

# A polish has reached the floor once every root of r = p / (z - 1) lies
# this far inside the unit circle.
FLOOR_MARGIN = 1e-6

# Weak Wolfe line search of bfgs: sufficient decrease, curvature, and the
# number of trial steps before it gives up.
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
LINE_SEARCH_TRIALS = 30


@dataclass(frozen=True)
class SearchConfig:
    """One discovery session: its dimensions, outer runs and inner restarts
    per run, and rng seed.  The polish's step cap, the penalty and the
    perturbation scale are constants.  Dimensions that the search rarely
    solves, k > K_LIMIT or s < k, warn at the caller's line."""

    dims: Dimensions
    runs: int = 100
    restarts: int = 10
    rng_seed: int = 0
    # The BFGS step cap; the benchmark reads it under this name.
    nm_max_iter: ClassVar[int] = MAX_ITER
    penalty: ClassVar[float] = PENALTY

    def __post_init__(self):
        for name in ("runs", "restarts"):
            _check_int(name, getattr(self, name), 1)
        _check_int("rng_seed", self.rng_seed, 0)
        k, s = self.dims.k, self.dims.s
        if k > K_LIMIT:
            warnings.warn(f"k = {k} > K_LIMIT = {K_LIMIT}: the float search is "
                          "ill-conditioned there and rarely finds a formula", stacklevel=3)
        if s < k:
            warnings.warn(f"s = {s} < k = {k}: seeds shorter than k rarely reach "
                          "convergent formulas; s >= k is recommended", stacklevel=3)


@dataclass(frozen=True, slots=True)
class Candidate:
    """One convergent formula as discovered, with the seed and run that produced it.

    seed_final is the seed whose float formula is ``formula``: the
    attempt's start point itself when it satisfied the root condition
    already (``iterations == 0``; its projection onto the plane if b·y0 is
    zero), else the polished point on the seed hyperplane b·y = 1
    (b = -B[0]).  Any nonzero multiple of seed_final
    spawns the same formula.  iterations counts the polish's BFGS steps.
    A search may hold thousands of candidates, so each keeps only what
    cannot be recomputed: ``analyze_formula(formula)`` gives the root
    report again, to the bit.
    """

    seed_final: tuple
    formula: DifferenceFormula
    outer_index: int
    inner_index: int
    iterations: int


@dataclass(frozen=True)
class SearchResult:
    """Aggregate outcome of a discovery session."""

    candidates: tuple
    attempts: int
    failure_plateaus: tuple


def bfgs(fg, z0: np.ndarray):
    """Minimize from ``z0`` by BFGS with a weak Wolfe line search, as Lewis &
    Overton (Math. Program. 141, 2013) run it on nonsmooth functions such as
    a root radius; returns (z, h, nit): the last accepted point, its value
    and the number of steps taken.

    ``fg`` is a pair (value, gradient), as ``charpoly.deflated_radius``
    returns it: ``value(z)`` returns the value at z, and ``gradient()`` the
    gradient at the last valued point, or None.  The gradient is read at the
    start and at the trials that pass sufficient decrease, the only ones
    whose curvature the line search tests.  The inverse Hessian starts as I
    and is reset to I when -H g is not a descent direction; its update is
    skipped unless s·y > 0.  The line search doubles or bisects the step for
    at most LINE_SEARCH_TRIALS trials until sufficient decrease (WOLFE_C1)
    and weak curvature (WOLFE_C2) hold; a trial without a gradient counts as
    too long.  The polish stops at h <= 1 - FLOOR_MARGIN, when the line
    search fails or the gradient vanishes, or after MAX_ITER steps; a start
    without a gradient returns (z0, PENALTY, 0).
    """
    value, gradient = fg
    z = np.asarray(z0, dtype=float)
    h, g = value(z), gradient()
    if g is None:
        return z, PENALTY, 0
    eye = np.eye(z.size)
    inv_h, nit, max_iter = eye, 0, MAX_ITER
    while nit < max_iter and h > 1.0 - FLOOR_MARGIN:
        d = -inv_h @ g
        if not g @ d < 0.0:
            inv_h, d = eye, -g
        slope = float(g @ d)
        if not slope < 0.0:  # the gradient vanishes
            break
        lo, hi, t = 0.0, math.inf, 1.0
        for _ in range(LINE_SEARCH_TRIALS):
            z_t = z + t * d
            h_t = value(z_t)
            g_t = gradient() if h_t <= h + WOLFE_C1 * t * slope else None
            if g_t is None:
                hi = t
            elif g_t @ d < WOLFE_C2 * slope:
                lo = t
            else:
                break
            t = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
        else:
            break
        step, dg = z_t - z, g_t - g
        sy = step @ dg
        if sy > 0.0:
            v = eye - step[:, None] * dg / sy
            inv_h = v @ inv_h @ v.T + step[:, None] * step / sy
        z, h, g = z_t, h_t, g_t
        nit += 1
    return z, h, nit


def random_seed(s: int, rng: np.random.Generator) -> np.ndarray:
    """Standard-normal seed of length s, redrawn in the (measure-zero,
    float-possible) event of an exactly zero vector."""
    y = rng.standard_normal(s)
    while not np.any(y):
        y = rng.standard_normal(s)
    return y


def perturb(y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Gaussian kick around ``y`` of PERTURB_SCALE times its largest entry.

    A zero y returns a copy unchanged; otherwise the (probability-zero)
    event of landing exactly on the zero vector triggers a redraw.
    """
    y = np.asarray(y, dtype=float)
    amp = PERTURB_SCALE * float(np.abs(y).max())
    if amp == 0.0:
        return y.copy()
    out = y + amp * rng.standard_normal(len(y))
    while not np.any(out):
        out = y + amp * rng.standard_normal(len(y))
    return out


def _same_formula(p_a: Sequence[float], p_b: Sequence[float]) -> bool:
    # The polynomials of one search all have the same length.
    return all(abs(a - b) <= DEDUP_TOL for a, b in zip(p_a, p_b))


def _run_outer(
    cfg: SearchConfig,
    outer_index: int,
    ss: np.random.SeedSequence,
    initial_seed: Optional[np.ndarray],
):
    """One outer run: fresh seed, BFGS polish, perturbation restarts.

    Returns (candidates, attempts, plateau) where plateau is the run's best
    max(1, h), p's largest root magnitude, when it found nothing (None
    otherwise).
    """
    rng = np.random.default_rng(ss)
    value, gradient, convergent = deflated_radius(cfg.dims)
    # The polish runs in the coordinates z of the seed hyperplane b·y = 1,
    # where y = y_p + plane @ z (see the module docstring).
    block = echelon_block(cfg.dims)
    b = -block.b_float[0]
    y_p, plane = block.seed_plane

    def onto_plane(y0: np.ndarray):
        """(z, x): z of the start point y0 / (b·y0), which spawns the formula
        of x = y0; or, when b·y0 is zero or not finite, z of the orthogonal
        projection of y0, whose seed is x = y_p + plane @ z.  y0 is first
        scaled exactly by a power of two, as in seed_to_formula, so that
        b·y0 cannot overflow."""
        y = np.ldexp(y0, -math.frexp(np.abs(y0).max())[1])
        t = b @ y
        if t != 0.0 and np.isfinite(t):
            return plane.T @ (y / t), y0
        z = plane.T @ y0
        return z, y_p + plane @ z

    def attempt(y0: np.ndarray, inner_index: int):
        """Polish one start point; returns (value, seed, candidate|None), the
        value being max(1, h) where it ends."""
        # A start point that already satisfies the root condition is a
        # finished formula: record it verbatim (zero iterations) instead of
        # letting the minimizer move it off its exact coefficients.  At s = 1
        # the plane is one point, and bfgs takes no step.
        z, x = onto_plane(y0)
        h, nit = value(z), 0
        if not convergent():
            z, h, nit = bfgs((value, gradient), z)
            value(z)  # bfgs may have valued a rejected trial last
            x = y_p + plane @ z
        if not convergent():
            return max(1.0, h), x, None
        return max(1.0, h), x, Candidate(
            seed_final=tuple(float(v) for v in x), formula=seed_to_formula(cfg.dims, x),
            outer_index=outer_index, inner_index=inner_index, iterations=nit)

    y0 = random_seed(cfg.dims.s, rng) if initial_seed is None else np.asarray(
        initial_seed, dtype=float
    )
    best_f, best_y, cand = attempt(y0, 0)
    if cand is not None:
        # The opening seed already led to a formula: the run is complete.
        return [cand], 1, None

    # Hard ceiling on inner attempts: budget resets on success may not push
    # a single outer run past twice its nominal restart count.  Without the
    # ceiling a run sitting in a region where a whole continuum of seeds is
    # convergent would reset forever.
    inner_cap = 2 * cfg.restarts
    budget = cfg.restarts
    inner = 0
    found: list[Candidate] = []
    while budget > 0 and inner < inner_cap:
        inner += 1
        budget -= 1
        y = perturb(best_y, rng)
        fx, x, cand = attempt(y, inner)
        if fx < best_f:
            best_f, best_y = fx, x
        if cand is not None and not any(
            _same_formula(cand.formula.p, c.formula.p) for c in found
        ):
            found.append(cand)
            # A fresh formula suggests its basin holds more: replenish the
            # budget (bounded by the ceiling above).
            budget = cfg.restarts

    return found, 1 + inner, None if found else best_f


def discover(
    config: SearchConfig,
    *,
    initial_seed: Optional[Sequence[float]] = None,
) -> SearchResult:
    """Run the full double-loop search described in the module docstring.

    ``initial_seed`` replaces the random draw of outer run 0 only — the
    remaining runs stay random, so a known-good start point can be verified
    and still be surrounded by fresh exploration.  Results are reproducible
    for a fixed config, and outer run i finds the same formulas whatever
    ``runs`` is, as long as it is > i.  A start point that is not s finite
    numbers raises ValueError.
    """
    init = None if initial_seed is None else np.asarray(initial_seed, dtype=float)
    if init is not None and init.shape != (config.dims.s,):
        raise ValueError(
            f"initial seed length {init.size} != s = {config.dims.s}"
        )
    if init is not None and not np.isfinite(init).all():
        raise ValueError(f"initial seed must be finite, got {init.tolist()}")

    children = np.random.SeedSequence(config.rng_seed).spawn(config.runs)
    candidates: list[Candidate] = []
    attempts = 0
    plateaus: list[float] = []
    for i, ss in enumerate(children):
        found, n, plateau = _run_outer(config, i, ss, init if i == 0 else None)
        attempts += n
        if plateau is not None:
            plateaus.append(plateau)
        for cand in found:
            if not any(_same_formula(cand.formula.p, c.formula.p) for c in candidates):
                candidates.append(cand)

    return SearchResult(
        candidates=tuple(candidates),
        attempts=attempts,
        failure_plateaus=tuple(plateaus),
    )
