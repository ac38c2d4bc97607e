"""The ``oneshot`` workload: a closed loop of in-process ``fdforge`` CLI calls.

The calls follow the README's one-shot commands with generated arguments:

* ``analyze --seed`` and ``order-check --seed`` with small-integer seeds over
  the (k, s) grid k = 1..6, s in {k, k+1, k+2};
* ``analyze --poly`` on catalog polynomials, scaled by a small integer;
* ``discover --runs 1 --restarts 1 --init-seed ... --rational`` on the two
  reference constructions, as a table or as JSON;
* ``validate-known --json``.

Every call's exit code and output are checked against ``oracle``, which
does not use fdforge.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable, Optional

from oracle import (
    CATALOG,
    ORDER_SLOPE_TOL,
    REFERENCE_CONSTRUCTIONS,
    exact_formula,
    order_slope,
)

# Calls of each kind in the pool of distinct calls the loop cycles through.
# The five kinds are weighted equally: no usage data for this CLI exists, so
# any other split would be a guess.  36 is a multiple of the 18 grid pairs,
# 6 catalog entries and 4 discover variants, so each kind spreads evenly over
# its inputs, and the counts are fixed so that the mix does not vary with the
# seed.
MIX = dict.fromkeys(
    ("analyze-seed", "order-check-seed", "analyze-poly", "discover", "validate-known"), 36)
GRID = tuple((k, s) for k in range(1, 7) for s in (k, k + 1, k + 2))


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple
    check: Callable  # (rc, stdout, stderr) -> None, or a description of what is wrong


@dataclass
class PassResult:
    latencies: list  # wall seconds per call
    cpu: list  # CPU seconds per call
    found: list  # per call: it printed a checked formula
    failures: list
    digests: list


def _seed(rng, s):
    return [rng.randint(-9, 9) for _ in range(s)]


def _field(out: str, label: str) -> Optional[str]:
    for line in out.splitlines():
        if line.startswith(label):
            return line[len(label):].strip()
    return None


def _analyze_seed(rng, i) -> Optional[Op]:
    k, s = GRID[i % len(GRID)]
    y = _seed(rng, s)
    if not any(y):
        return None
    ref = exact_formula(k, s, y)

    def check(rc, out, err):
        if ref is None:
            return None if rc == 1 and "error:" in err else f"rc={rc}, expected 1"
        if rc != 0:
            return f"rc={rc}: {err.strip()[:200]}"
        p, c = _field(out, "p (exact):"), _field(out, "c (exact):")
        if p is None or c is None:
            return "no exact formula in the output"
        if (tuple(Fraction(t) for t in p.split()), Fraction(c)) != ref:
            return "exact formula differs from the reference construction"
        return None

    argv = ("analyze", "--seed=" + ",".join(map(str, y)), "--k", str(k), "--s", str(s))
    return Op("analyze-seed", argv, check)


def _order_check_seed(rng, i) -> Optional[Op]:
    k, s = GRID[i % len(GRID)]
    y = _seed(rng, s)
    ref = exact_formula(k, s, y) if any(y) else None
    if ref is None:
        return None
    claimed = k + 2
    slope = order_slope(*ref)
    if slope is not None and abs(slope - (claimed - ORDER_SLOPE_TOL)) < 0.02:
        return None  # too close to the pass line for a float verdict to be predictable
    passed = slope is None or slope >= claimed - ORDER_SLOPE_TOL
    label = f"seed(k={k},s={s})"

    def check(rc, out, err):
        if rc != (0 if passed else 1):
            return f"rc={rc}, expected {0 if passed else 1}: {err.strip()[:200]}"
        row = _field(out, label)
        if row is None:
            return "no result row"
        toks = row.split()
        if len(toks) != 4 or toks[0] != str(claimed) or toks[3] != str(passed):
            return f"row {row!r}, expected claimed {claimed}, pass {passed}"
        if slope is not None and abs(float(toks[1]) - slope) > 2e-3:
            return f"slope {toks[1]}, expected {slope:.3f}"
        return None

    argv = ("order-check", "--seed=" + ",".join(map(str, y)), "--k", str(k), "--s", str(s))
    return Op("order-check-seed", argv, check)


def _analyze_poly(rng, i) -> Op:
    label, poly = sorted(CATALOG.items())[i % len(CATALOG)]
    scale = rng.randint(1, 5)
    coeffs = [scale * v for v in poly]

    def check(rc, out, err):
        if rc != 0:
            return f"rc={rc}: {err.strip()[:200]}"
        shown = _field(out, "polynomial:")
        if shown is None or [Fraction(t) for t in shown.split()] != coeffs:
            return "polynomial echo differs from the input"
        if _field(out, "convergent:") != "yes":
            return f"catalog entry {label} not classified convergent"
        mag = _field(out, "max magnitude:")
        if mag is None or abs(float(mag) - 1.0) > 1e-9:
            return f"max magnitude {mag}, expected 1"
        return None

    return Op("analyze-poly", ("analyze", "--poly=" + ",".join(map(str, coeffs))), check)


def _discover(rng, i) -> Op:
    k, s, init, p, c = REFERENCE_CONSTRUCTIONS[i % 2]
    as_json = i // 2 % 2 == 1

    def check(rc, out, err):
        if rc != 0:
            return f"rc={rc}: {err.strip()[:200]}"
        if "candidates=1 " not in err:
            return "expected exactly one candidate"
        lines = out.splitlines()
        if len(lines) != 1:
            return f"{len(lines)} result rows, expected 1"
        if as_json:
            row = json.loads(lines[0])
            if (len(row["p"]) != len(p)
                    or any(abs(a - float(b)) > 1e-12 for a, b in zip(row["p"], p))
                    or abs(row["c"] - float(c)) > 1e-12):
                return "JSON row differs from the reference construction"
            if row["convergent"] is not True or row["seed"] != [float(v) for v in init]:
                return "JSON row not convergent or seed changed"
            return None
        toks = lines[0].split()
        got_p = tuple(Fraction(t) for t in toks[: len(p)])
        if got_p != p or toks[len(p)] != "0" or Fraction(toks[-1]) != c:
            return f"table row {lines[0]!r} differs from the reference construction"
        return None

    argv = ["discover", "--k", str(k), "--s", str(s), "--runs", "1", "--restarts", "1",
            "--init-seed=" + ",".join(map(str, init)),
            "--rng-seed", str(rng.randint(0, 10**6)), "--rational"]
    if as_json:
        argv += ["--format", "json"]
    return Op("discover", tuple(argv), check)


def _validate_known(rng, i) -> Op:
    def check(rc, out, err):
        if rc != 0:
            return f"rc={rc}: {err.strip()[:200]}"
        rows = json.loads(out)
        if [r["label"] for r in rows] != list("ABCDEF"):
            return "catalog labels differ from A-F"
        bad = [r["label"] for r in rows if not r["ok"]]
        return f"entries not ok: {bad}" if bad else None

    return Op("validate-known", ("validate-known", "--json"), check)


_BUILDERS = {
    "analyze-seed": _analyze_seed,
    "order-check-seed": _order_check_seed,
    "analyze-poly": _analyze_poly,
    "discover": _discover,
    "validate-known": _validate_known,
}


def make_ops(seed: int) -> list:
    """The pool of distinct calls for ``seed``, in a seed-shuffled order."""
    rng = random.Random(seed)
    ops = []
    for kind, count in MIX.items():
        for i in range(count):
            op = None
            while op is None:  # redraw seeds the oracle cannot predict
                op = _BUILDERS[kind](rng, i)
            ops.append(op)
    rng.shuffle(ops)
    return ops


def call(cli, op: Op, cpu_seconds):
    """One CLI call with its output captured: (rc, stdout, stderr, wall_s, cpu_s)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0 = cpu_seconds()
        t0 = perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        dt = perf_counter() - t0
        dc = cpu_seconds() - c0
    return rc, out.getvalue(), err.getvalue(), dt, dc


def run_pass(cli, ops: list, seconds: float, cpu_seconds) -> PassResult:
    """Call ``cli.main`` back to back, cycling through ``ops``, for ``seconds``."""
    res = PassResult([], [], [], [], [])
    t_end = perf_counter() + seconds
    i = 0
    while perf_counter() < t_end:
        op = ops[i % len(ops)]
        i += 1
        rc, out, err, dt, dc = call(cli, op, cpu_seconds)
        res.latencies.append(dt)
        res.cpu.append(dc)
        try:
            problem = op.check(rc, out, err)
        except (ValueError, KeyError, TypeError, IndexError) as exc:  # unparsable output
            problem = f"output not understood: {exc!r}"
        if problem:
            res.failures.append(f"{' '.join(op.argv)}: {problem}")
        res.found.append(not problem and op.kind == "discover")
        res.digests.append(hashlib.sha256(f"{rc}\0{out}\0{err}".encode()).hexdigest()[:16])
    return res
