"""Randomized Nelder-Mead discovery of convergent look-ahead formulas.

For fixed dimensions (k, s) the map seed -> max root magnitude is piecewise
smooth with a hard floor at 1 (the characteristic polynomial always has the
root 1).  Convergent formulas live exactly on that floor, so discovery is
global minimization: throw random Gaussian seeds at the landscape, polish
each with derivative-free Nelder-Mead, and keep the minima that reach the
floor and pass the root condition.

The landscape is flat along every ray: the null vector is normalized by its
leading entry q[0] = b·y (b = -B[0]), so f(lam * y) = f(y) for lam != 0.
Nelder-Mead on all s seed coordinates would search that flat direction too,
where it stalls and shrinks in place (McKinnon, SIAM J. Optim. 9(1), 1998).
So it runs on the hyperplane b·y = 1 instead, in s-1 orthonormal
coordinates (``EchelonBlock.seed_plane``).  Seeds are still drawn and
perturbed in seed space, and each start point y0 enters the plane as
y0 / (b·y0), which spawns the same formula; one with b·y0 zero or not finite
has no such multiple and enters as its orthogonal projection (which for a
non-finite y0 scores the penalty everywhere).  At s = 1 the plane is a
single point, every nonzero seed gives the same formula, and Nelder-Mead
does not run.

The search is a double loop.  Each outer run draws a fresh standard-normal
seed and minimizes it; on immediate success the run is complete, otherwise
inner restarts perturb the best seed found so far in that run and minimize
again, exploring the neighborhood of the most promising basin.  An inner
restart that lands a new formula replenishes the restart budget (total
inner attempts stay capped at twice the nominal restart count, so regions
where a whole continuum of seeds is convergent still terminate); runs that
end empty record their best objective value as a failure plateau — on hard
dimension pairs these cluster just above 1, the signature of near-miss
basins.

Reproducibility: every outer run owns a child of one ``SeedSequence``, so
results are a pure function of the rng seed, and an outer run's outcome
depends on its own child only: the first R runs of a longer session find
exactly what a session of R runs finds.  So the outer runs are shared out
over worker processes forked from the caller, one per usable CPU (at most
one per run), and their outcomes are aggregated in (outer, inner) order
as if they had run one after another: the number of workers changes no
result.  Processes, not threads: the loop holds the GIL, and a thread pool
was measured slower than one thread.  Candidate lists are deduplicated by
polynomial coefficients.
"""

from __future__ import annotations

import itertools
import os
import sys
import warnings
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from .charpoly import PENALTY, RootReport, analyze_formula, objective_function
from .taylor_system import DifferenceFormula, Dimensions, _check_int, echelon_block, seed_to_formula

__all__ = [
    "DEDUP_TOL",
    "STALL_ITERS",
    "NM_MAX_ITER",
    "K_LIMIT",
    "PERTURB_SCALE",
    "NM_TOL_X",
    "NM_TOL_F",
    "SearchConfig",
    "Candidate",
    "SearchResult",
    "nelder_mead",
    "random_seed",
    "perturb",
    "discover",
]

# Two formulas whose polynomial coefficients agree within this (absolute,
# per coefficient) are the same discovery.
DEDUP_TOL = 1e-8

# Nelder-Mead stops once its best vertex has stayed put this many
# consecutive iterations (see nelder_mead).
STALL_ITERS = 200

# Nelder-Mead iteration cap of every polish.
NM_MAX_ITER = 2000

# Above this k the float search is ill-conditioned: the entries of B and the
# condition of the seed -> polynomial map grow fast.
K_LIMIT = 8

# Inner restarts perturb the run's best seed by this much (see perturb).
PERTURB_SCALE = 0.1

# Nelder-Mead has converged once its simplex spans at most NM_TOL_X in every
# coordinate and at most NM_TOL_F in value.
NM_TOL_X = 1e-8
NM_TOL_F = 1e-10


@dataclass(frozen=True)
class SearchConfig:
    """One discovery session: its dimensions, outer runs and inner restarts
    per run, and rng seed.  The Nelder-Mead iteration cap, the penalty and
    the perturbation scale are constants.  Dimensions that the search
    rarely solves, k > K_LIMIT or s < k, warn at the caller's line."""

    dims: Dimensions
    runs: int = 100
    restarts: int = 10
    rng_seed: int = 0
    nm_max_iter: ClassVar[int] = NM_MAX_ITER
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


@dataclass(frozen=True)
class Candidate:
    """One convergent formula as discovered, with the seed and run that produced it.

    seed_initial is the attempt's start point and seed_final the seed whose
    float formula is ``formula``: the start point itself when it satisfied
    the root condition already (``nm_iterations == 0``), else the polished
    point on the seed hyperplane b·y = 1 (b = -B[0]).  Any nonzero multiple
    of seed_final spawns the same formula.
    """

    seed_initial: tuple
    seed_final: tuple
    formula: DifferenceFormula
    report: RootReport
    outer_index: int
    inner_index: int
    nm_iterations: int


@dataclass(frozen=True)
class SearchResult:
    """Aggregate outcome of a discovery session."""

    config: SearchConfig
    candidates: tuple
    attempts: int
    failure_plateaus: tuple


def _order(fsim: list) -> list:
    """``np.argsort(fsim, kind="stable")`` as a list: ascending, ties in
    index order, NaN last."""
    return sorted(range(len(fsim)), key=lambda i: (fsim[i] != fsim[i], fsim[i]))


def nelder_mead(f, x0: np.ndarray, *, max_iter: int = NM_MAX_ITER):
    """Minimize ``f`` from ``x0`` with Nelder-Mead; returns (x, fun, nit).

    Standard simplex coefficients (reflection 1, expansion 2, contraction
    0.5, shrink 0.5), initial simplex displacing each coordinate by 5%
    (0.00025 when the coordinate is zero), termination when the simplex
    collapses below NM_TOL_X in x AND NM_TOL_F in f, or after max_iter
    iterations.  These are the steps of SciPy's
    ``minimize(method="Nelder-Mead", adaptive=False)`` with ``xatol=NM_TOL_X``,
    ``fatol=NM_TOL_F`` and ``maxiter=max_iter`` (its vertex sort made
    stable), taken in the same order on the same floats, with ``nit``
    counted the same way and ``f`` called once per point, on a float array
    of x0's size.

    The simplex is kept as lists of Python floats, which for the few
    coordinates of a seed costs less than NumPy's per-call overhead, and
    every operation keeps NumPy's order: the centroid adds the rows in
    order and then divides by n (``np.add.reduce`` over rows is
    sequential; Python's ``sum`` is not used, as from Python 3.12 it
    compensates), and the points use the same folded constants.  The
    vertices are reordered by a stable sort that puts NaN last, so a tie
    resolves the same way on every host.

    One exit is added: stop once the best vertex has not changed for
    ``STALL_ITERS`` consecutive iterations.  Plateaus make NM stall like
    this (McKinnon, SIAM J. Optim. 9(1), 1998), shrinking in place for
    the rest of ``max_iter`` at about 4.6 evaluations per iteration.  The
    best vertex only changes when the reorder moves another vertex to the
    front, so an unchanged front row is an unchanged ``(x, fun)``: the
    exit returns exactly what the uncapped run returns, unless that run
    would have moved its best vertex again after more than ``STALL_ITERS``
    idle iterations.  (The test is on the vertex, not on a strict decrease
    of ``fun``, because the reorder may swap tied vertices.)  Over the
    1,154 polishes of the searches at (3,3), (4,4) and (5,5) with runs 20,
    restarts 10 and rng seeds 0 and 1, the longest idle stretch that a
    later move ended was 100 iterations.

    A shrink can also land the simplex back on itself bit for bit once it
    has collapsed to the last bit (Lagarias et al., SIAM J. Optim. 9(1),
    1998).  Only a shrink can: an accepted reflection, expansion or
    contraction replaces the worst value by a strictly lower one, so the
    sorted values, and with a pure ``f`` the vertices, change.  The loop
    state is then a fixed point: ``f`` is pure, the termination test has
    already failed on it, and every later iteration repeats this one with
    the same reorder ``ind``.  So the loop returns at once what replaying
    it would: ``(sim[0], min(fsim))`` with
    ``nit = min(nit + STALL_ITERS - idle, max_iter)`` when ``ind[0] == 0``
    (the stall exit or the cap ends the replay) and ``max_iter`` otherwise
    (every replayed iteration resets ``idle``).  The vertices are compared
    as bytes, because a NaN coordinate never equals itself under ``==``.
    """
    x0 = np.asarray(x0, dtype=float).ravel().tolist()
    n = len(x0)
    if n == 0:
        raise ValueError("x0 must have at least one coordinate")
    sim = [x0]
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [f(np.array(v)) for v in sim]
    ind = _order(fsim)
    sim = [sim[i] for i in ind]
    fsim = [fsim[i] for i in ind]

    nit = 1
    idle = 0
    while nit < max_iter:
        best, fbest = sim[0], fsim[0]
        if (all(abs(fbest - v) <= NM_TOL_F for v in fsim[1:])
                and all(abs(a - b) <= NM_TOL_X for row in sim[1:] for a, b in zip(row, best))):
            break
        before = None
        xbar = sim[0]
        for row in sim[1:-1]:
            xbar = [a + b for a, b in zip(xbar, row)]
        xbar = [a / n for a in xbar]
        worst = sim[-1]
        # SciPy's forms such as (1 + rho) * xbar - rho * x with rho = 1,
        # chi = 2 and psi = sigma = 0.5 folded in; every folded constant is
        # exact, so the points keep their bits.
        xr = [2 * a - b for a, b in zip(xbar, worst)]
        fxr = f(np.array(xr))
        if fxr < fbest:
            xe = [3 * a - 2 * b for a, b in zip(xbar, worst)]
            fxe = f(np.array(xe))
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = [1.5 * a - 0.5 * b for a, b in zip(xbar, worst)]
                fxc = f(np.array(xc))
                accept = fxc <= fxr
            else:  # inside contraction
                xc = [0.5 * a + 0.5 * b for a, b in zip(xbar, worst)]
                fxc = f(np.array(xc))
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink toward the best vertex
                before = np.array(sim).tobytes()
                for j in range(1, n + 1):
                    sim[j] = [a + 0.5 * (b - a) for a, b in zip(best, sim[j])]
                    fsim[j] = f(np.array(sim[j]))
        nit += 1
        ind = _order(fsim)
        sim = [sim[i] for i in ind]
        fsim = [fsim[i] for i in ind]
        idle = 0 if ind[0] else idle + 1
        if idle >= STALL_ITERS:
            break
        if before is not None and np.array(sim).tobytes() == before:
            # Fixed point: every later iteration repeats this one.
            nit = max_iter if ind[0] else min(nit + STALL_ITERS - idle, max_iter)
            break
    return np.array(sim[0]), float(np.min(fsim)), nit


def random_seed(s: int, rng: np.random.Generator) -> np.ndarray:
    """Standard-normal seed of length s, redrawn in the (measure-zero,
    float-possible) event of an exactly zero vector."""
    y = rng.standard_normal(s)
    while not np.any(y):
        y = rng.standard_normal(s)
    return y


def perturb(y: np.ndarray, rng: np.random.Generator, scale: float) -> np.ndarray:
    """Gaussian kick around ``y`` sized by its largest entry.

    scale = 0 returns y unchanged; otherwise the (probability-zero) event
    of landing exactly on the zero vector triggers a redraw.
    """
    y = np.asarray(y, dtype=float)
    amp = scale * float(np.abs(y).max())
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
    """One outer run: fresh seed, NM polish, perturbation restarts.

    Returns (candidates, attempts, plateau) where plateau is the best
    objective value when the run found nothing (None otherwise).
    """
    rng = np.random.default_rng(ss)
    f = objective_function(cfg.dims)
    # NM runs in the coordinates z of the seed hyperplane b·y = 1, where
    # y = y_p + plane @ z (see the module docstring).
    block = echelon_block(cfg.dims)
    b = -block.b_float[0]
    y_p, plane = block.seed_plane

    def lift(z: np.ndarray) -> np.ndarray:
        return y_p + plane @ z

    def g(z: np.ndarray) -> float:
        return f(lift(z))

    def onto_plane(y0: np.ndarray) -> np.ndarray:
        """z of the start point y0 / (b·y0), which spawns the formula of y0;
        of the orthogonal projection of y0 when b·y0 is zero or not finite."""
        t = b @ y0
        return plane.T @ (y0 / t if t != 0.0 and np.isfinite(t) else y0)

    found: list[Candidate] = []
    attempts = 0

    def classify(y0: np.ndarray, y: np.ndarray, fy: float, nit: int, inner_index: int):
        """Candidate for seed ``y`` if it is convergent, else None.  A value
        fy = f(y) below the penalty means the float seed path cannot raise."""
        if fy >= PENALTY:
            return None
        formula = seed_to_formula(cfg.dims, y)
        report = analyze_formula(formula)
        if not report.convergent:
            return None
        return Candidate(
            seed_initial=tuple(float(v) for v in y0),
            seed_final=tuple(float(v) for v in y),
            formula=formula,
            report=report,
            outer_index=outer_index,
            inner_index=inner_index,
            nm_iterations=nit,
        )

    def attempt(y0: np.ndarray, inner_index: int):
        """Polish one start point; returns (f_min, y_min, candidate|None)."""
        nonlocal attempts
        attempts += 1
        # A start point that already satisfies the root condition is a
        # finished formula: record it verbatim (zero NM iterations) instead
        # of letting the minimizer wander it off its exact coefficients.
        x, fx, nit = y0, f(y0), 0
        cand = classify(y0, x, fx, nit, inner_index)
        # At s = 1 the plane is one point: every nonzero seed is one formula.
        if cand is None and plane.shape[1]:
            z, fx, nit = nelder_mead(g, onto_plane(y0))
            x = lift(z)
            cand = classify(y0, x, fx, nit, inner_index)
        return fx, x, cand

    y0 = random_seed(cfg.dims.s, rng) if initial_seed is None else np.asarray(
        initial_seed, dtype=float
    )
    best_f, best_y, cand = attempt(y0, 0)
    if cand is not None:
        # The opening seed already led to a formula: the run is complete.
        return [cand], attempts, None

    # Hard ceiling on inner attempts: budget resets on success may not push
    # a single outer run past twice its nominal restart count.  Without the
    # ceiling a run sitting in a region where a whole continuum of seeds is
    # convergent would reset forever.
    inner_cap = 2 * cfg.restarts
    budget = cfg.restarts
    inner = 0
    while budget > 0 and inner < inner_cap:
        inner += 1
        budget -= 1
        y = perturb(best_y, rng, PERTURB_SCALE)
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

    plateau = None if found else best_f
    return found, attempts, plateau


def _worker_count(runs: int) -> int:
    """Number of processes for ``runs`` outer runs: one per CPU this process
    may run on, at most one per run.  One, so no fork, where ``os.fork`` or
    ``os.sched_getaffinity`` is missing, and in a daemonic multiprocessing
    worker, which may not have children."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    mp = sys.modules.get("multiprocessing")  # a daemonic caller imported it
    if mp is not None and mp.current_process().daemon:
        return 1
    return min(runs, len(os.sched_getaffinity(0)))


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

    The outer runs are shared out over ``min(runs, usable CPUs)`` processes
    forked from the caller, which take the next run as they finish one;
    ``taskset -c 0`` makes it one, and one runs them in this process
    without importing ``multiprocessing``.  The workers are reaped before
    this returns, so no process outlives the call and their CPU time shows
    in ``resource.getrusage(RUSAGE_CHILDREN)``.  Code patched into this
    process before the call also runs in the workers, but what it records
    there stays there.
    """
    init = None if initial_seed is None else np.asarray(initial_seed, dtype=float)
    if init is not None and init.shape != (config.dims.s,):
        raise ValueError(
            f"initial seed length {init.size} != s = {config.dims.s}"
        )
    if init is not None and not np.isfinite(init).all():
        raise ValueError(f"initial seed must be finite, got {init.tolist()}")

    children = np.random.SeedSequence(config.rng_seed).spawn(config.runs)
    jobs = [(config, i, ss, init if i == 0 else None) for i, ss in enumerate(children)]
    workers = _worker_count(config.runs)
    if workers == 1:
        outcomes = itertools.starmap(_run_outer, jobs)
    else:
        import multiprocessing

        # Fork: the workers are direct children, reaped by join(), and start
        # with this process's modules loaded (spawn would import NumPy anew).
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            outcomes = pool.starmap(_run_outer, jobs, chunksize=1)
            pool.close()
            pool.join()

    candidates: list[Candidate] = []
    attempts = 0
    plateaus: list[float] = []
    for found, n, plateau in outcomes:
        attempts += n
        if plateau is not None:
            plateaus.append(plateau)
        for cand in found:
            if not any(_same_formula(cand.formula.p, c.formula.p) for c in candidates):
                candidates.append(cand)

    return SearchResult(
        config=config,
        candidates=tuple(candidates),
        attempts=attempts,
        failure_plateaus=tuple(plateaus),
    )
