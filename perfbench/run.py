"""fdforge benchmark: one workload per run, metrics as JSON on the last line.

Usage, from the root of a source checkout (no install needed; ``src`` is
put on the import path):

    python3 perfbench/run.py --workload discover-44 --seed 0 --seconds 45 --trace 0

``--trace 0`` measures the program untouched and prints the end-to-end
metrics; ``--trace 1`` hooks every layer boundary from outside (see
``tracer.py``) and prints the per-layer metrics.  Every run checks the
program's outputs, and the exit code is 0 only when all checks pass.
Workloads, metrics and the recorded baseline are described in README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oneshot
from oracle import exact_formula
from tracer import Tracer, quantile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = HERE / ".state"

# name -> (k, s, outer runs); every run searches the same reference stream.
DISCOVER = {"discover-44": (4, 4, 4), "discover-55": (5, 5, 8)}
# Reference rng_seed of ROADMAP.  The stream is fixed, not taken from --seed:
# one outer run yields 0 to 12 formulas, so a slice of another stream small
# enough for one run would make formulas_per_cpu_s a lottery over streams.
STREAM = 0
RESTARTS = 10
ONESHOT_DIMS = (3, 3)  # dims of the set-up probe for the oneshot workload
SETUP_REPEATS = 7
# oneshot metrics are medians over windows of this many passes over the call
# pool: 1,080 calls, so that more than ten calls lie beyond each window's p99.
WINDOW_CYCLES = 6
ECHELON_REPEATS = 5

# Runs in a fresh interpreter: import, echelon build, first objective call
# and parser build.
SETUP_PROBE = """
import sys
import numpy as np
from fdforge.charpoly import objective_function
from fdforge.cli import build_parser
from fdforge.taylor_system import Dimensions, echelon_block
dims = Dimensions(int(sys.argv[1]), int(sys.argv[2]))
echelon_block(dims)
objective_function(dims)(np.ones(dims.s))
build_parser()
"""


def cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def program_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FD_FORGE_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def child_cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def setup_seconds(k: int, s: int) -> float:
    """Median CPU time of the set-up probe, each in a fresh interpreter.

    CPU time of the reaped child, not wall time: it leaves out disk and
    scheduler waits, which on a shared host vary more than the work does.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        c0 = child_cpu_seconds()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(k), str(s)],
                       cwd=ROOT, env=program_env(), capture_output=True,
                       timeout=60, check=True)
        times.append(child_cpu_seconds() - c0)
    return statistics.median(times)


def environment(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def source_digest() -> str:
    """Digest of the program and of this benchmark: a change to either one
    may change the exact counts, so earlier runs no longer apply."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_state(key: str, record: dict) -> list:
    """Compare ``record`` with earlier runs of the same inputs and code.

    The exact counts of a run are a pure function of its inputs, so every
    field two runs both recorded must agree.  Records are kept per code
    version, so runs of two versions can alternate.  Returns the fields that
    differ.
    """
    path = STATE / f"{key}-{source_digest()}.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    bad = [k for k, v in record.items() if k in known and known[k] != v]
    if not bad:
        try:
            STATE.mkdir(exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps({**known, **record}))
            tmp.replace(path)
        except OSError:
            pass
    return bad


@dataclass
class Outcome:
    attempted: int = 0
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    record: dict = field(default_factory=dict)  # exact counts, compared across runs
    notes: dict = field(default_factory=dict)


# --- discover-44 / discover-55 ------------------------------------------------

def result_digest(res) -> str:
    h = hashlib.sha256()
    for cand in res.candidates:
        h.update(repr(([float(v).hex() for v in cand.formula.p], float(cand.formula.c).hex(),
                       [v.hex() for v in cand.seed_final])).encode())
    h.update(repr((res.attempts, [v.hex() for v in res.failure_plateaus])).encode())
    return h.hexdigest()[:16]


def verify_candidate(fd, cand, dims):
    """Independent checks of one discovered formula (acceptance criteria 5 and 7);
    None when it passes, else what is wrong."""
    bad = []
    seed = [Fraction(v) for v in cand.seed_final]
    twin = fd.taylor_system.seed_to_formula(dims, seed, exact=True)
    if sum(twin.p) != 0:
        bad.append("exact twin has p(1) != 0")
    if (twin.p, twin.c) != exact_formula(dims.k, dims.s, seed):
        bad.append("exact twin differs from the reference construction")
    scale = max(abs(float(v)) for v in twin.p)
    if max(abs(a - float(b)) for a, b in zip(cand.formula.p, twin.p)) > 1e-9 * scale:
        bad.append("float formula differs from its exact twin")
    if not fd.charpoly.analyze_formula(cand.formula).convergent:
        bad.append("classifier says not convergent")
    if not fd.validation.empirical_order(cand.formula, dims.order).passed:
        bad.append(f"empirical order below {dims.order}")
    run = fd.validation.simulate(cand.formula, fd.validation.SIN, 0.01, 1000)
    half = fd.validation.simulate(cand.formula, fd.validation.SIN, 0.005, 2000)
    if run.diverged:
        bad.append("sin t simulation diverges at tau = 0.01")
    elif not half.max_error < run.max_error:
        bad.append("sin t simulation does not refine at tau / 2")
    return f"candidate {cand.outer_index}/{cand.inner_index}: {'; '.join(bad)}" if bad else None


def make_tracer(fd, cfg) -> Tracer:
    return Tracer(nm_max_iter=cfg.nm_max_iter, penalty=cfg.penalty,
                  accept_tol=getattr(fd.charpoly, "ACCEPT_TOL", 1e-9))


def discover_reps(fd, cfg, seconds):
    """Search ``cfg`` for about ``seconds``: at least once, and again while at
    least half of another search fits, so that the number of searches does
    not flip with small changes of the host's speed."""
    reps = []
    t_end = perf_counter() + seconds
    while not reps or perf_counter() + reps[-1][1] / 2 < t_end:
        c0, t0 = cpu_seconds(), perf_counter()
        res = fd.search.discover(cfg)
        reps.append((res, perf_counter() - t0, cpu_seconds() - c0))
    return reps


def run_discover(fd, name, seconds, trace) -> Outcome:
    k, s, runs = DISCOVER[name]
    dims = fd.Dimensions(k, s)
    cfg = fd.SearchConfig(dims=dims, runs=runs, restarts=RESTARTS, rng_seed=STREAM)
    fd.charpoly.objective_function(dims)([1.0] * s)  # warm caches
    out = Outcome()

    # A traced run needs one untraced search, for the digest and the overhead.
    reps = discover_reps(fd, cfg, 0 if trace else seconds)
    first = reps[0][0]
    digest = result_digest(first)
    out.record = {"digest": digest, "attempts": first.attempts,
                  "candidates": len(first.candidates)}
    out.attempted = len(reps) + len(first.candidates)
    for i, (res, _, _) in enumerate(reps[1:], 2):
        if result_digest(res) != digest:
            out.failures.append(f"search {i} differs from search 1")
    if not first.candidates:
        out.failures.append("no formula found")
    out.failures += filter(None, (verify_candidate(fd, c, dims) for c in first.candidates))

    if not trace:
        walls = [w for _, w, _ in reps]
        formulas = sum(len(r.candidates) for r, _, _ in reps)
        out.metrics = {
            "formulas_per_cpu_s": (formulas / sum(c for _, _, c in reps), "1/s"),
            "formulas_per_wall_s": (formulas / sum(walls), "1/s"),
            "ops_per_s": (len(reps) / sum(walls), "1/s"),
            # Fewer than 100 searches per run: p99 is the slowest one.
            "op_ms.p50": (statistics.median(walls) * 1e3, "ms"),
            "op_ms.p99": (max(walls) * 1e3, "ms"),
        }
        out.notes = {"searches": len(reps), "outer_runs": runs, "stream": STREAM}
        return out

    tracer = make_tracer(fd, cfg)
    tracer.install(fd)
    try:
        t0 = perf_counter()
        traced = fd.search.discover(cfg)
        traced_wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    out.attempted += 1
    if result_digest(traced) != digest:
        out.failures.append("traced search differs from the untraced one")
    out.record.update(objective_evals=tracer.objective[0], exits=tracer.exits())
    untraced_wall = statistics.median(w for _, w, _ in reps)
    out.metrics = tracer.metrics()
    out.metrics["trace.overhead_pct"] = (100.0 * (traced_wall / untraced_wall - 1.0), "%")
    out.notes = {"absent": tracer.absent, "traced_wall_s": traced_wall,
                 "untraced_wall_s": untraced_wall}
    return out


# --- oneshot --------------------------------------------------------------------

def window_metrics(res, size: int) -> dict:
    """End-to-end metrics of a oneshot pass: each is the median over
    consecutive windows of ``size`` calls (the whole pass if it is shorter),
    so that a slow spell of the host moves only the windows it falls in."""
    n = len(res.latencies)
    windows = [slice(a, a + size) for a in range(0, n - size + 1, size)] or [slice(0, n)]
    values = {}
    for w in windows:
        lat_ms = [t * 1e3 for t in res.latencies[w]]
        formulas = sum(res.found[w])
        for name, value in (("formulas_per_cpu_s", formulas / sum(res.cpu[w])),
                            ("formulas_per_wall_s", formulas * 1e3 / sum(lat_ms)),
                            ("ops_per_s", len(lat_ms) * 1e3 / sum(lat_ms)),
                            ("op_ms.p50", quantile(lat_ms, 50)),
                            ("op_ms.p99", quantile(lat_ms, 99))):
            values.setdefault(name, []).append(value)
    units = {"op_ms.p50": "ms", "op_ms.p99": "ms"}
    return {name: (statistics.median(v), units.get(name, "1/s")) for name, v in values.items()}


def run_oneshot(fd, seed, seconds, trace) -> Outcome:
    ops = oneshot.make_ops(seed)
    for op in ops[:50]:  # fill the echelon cache and lazy imports before timing
        oneshot.call(fd.cli, op, cpu_seconds)
    out = Outcome()
    # A traced run splits --seconds between an untraced and a traced pass.
    if trace:
        seconds /= 2
    base = oneshot.run_pass(fd.cli, ops, seconds, cpu_seconds)
    out.attempted = len(base.latencies)
    out.failures = base.failures
    out.record = {"digests": base.digests[:200]}

    if not trace:
        out.metrics = window_metrics(base, WINDOW_CYCLES * len(ops))
        out.notes = {"calls": len(base.latencies), "distinct_calls": len(ops)}
        return out

    # CLI searches use the SearchConfig defaults.
    tracer = make_tracer(fd, fd.SearchConfig(dims=fd.Dimensions(*ONESHOT_DIMS)))
    tracer.install(fd)
    try:
        traced = oneshot.run_pass(fd.cli, ops, seconds, cpu_seconds)
    finally:
        tracer.uninstall()
    out.attempted += len(traced.latencies)
    out.failures += traced.failures
    n = min(len(base.digests), len(traced.digests))
    if base.digests[:n] != traced.digests[:n]:
        out.failures.append("traced calls print other output than untraced ones")
    out.metrics = tracer.metrics()
    ratio = statistics.fmean(traced.latencies) / statistics.fmean(base.latencies)
    out.metrics["trace.overhead_pct"] = (100.0 * (ratio - 1.0), "%")
    out.notes = {"absent": tracer.absent, "calls": len(traced.latencies)}
    return out


# --- entry point ----------------------------------------------------------------

def echelon_ms(fd, k, s, absent: list) -> float:
    """Uncached echelon build for (k, s), median of a few; 0 if its functions are gone."""
    ts = fd.taylor_system
    missing = [f"{ts.__name__}.{name}" for name in ("build_taylor_matrix", "reduce_to_echelon")
               if not hasattr(ts, name)]
    if missing:
        absent += missing
        return 0.0
    dims = fd.Dimensions(k, s)
    times = []
    for _ in range(ECHELON_REPEATS):
        t0 = perf_counter()
        ts.reduce_to_echelon(ts.build_taylor_matrix(dims))
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*DISCOVER, "oneshot"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fdforge" / "__init__.py").is_file():
        print(f"error: no fdforge sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("FD_FORGE_THREADS", None)  # measure the default program
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy
    import fdforge as fd
    import fdforge.cli  # noqa: F401  (submodules the tracer hooks)
    import fdforge.validation  # noqa: F401

    if args.workload == "oneshot":
        k, s = ONESHOT_DIMS
        out = run_oneshot(fd, args.seed, args.seconds, args.trace)
        key = f"oneshot-seed{args.seed}"
    else:
        k, s, _ = DISCOVER[args.workload]
        out = run_discover(fd, args.workload, args.seconds, args.trace)
        key = args.workload  # the search does not depend on --seed
    rss = peak_rss_mb()  # before the set-up probes add their own children
    out.attempted += 1
    differs = check_state(key, out.record)
    if differs:
        out.failures.append(f"{', '.join(differs)} differ from an earlier run of the same inputs")

    if args.trace:
        absent = out.notes["absent"]
        out.metrics["taylor_system.echelon_ms"] = (echelon_ms(fd, k, s, absent), "ms")
        out.metrics["trace.absent_hooks"] = (len(absent), "count")
    else:
        out.metrics["setup_s"] = (setup_seconds(k, s), "s")
        out.metrics["peak_rss_mb"] = (rss, "MB")

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(np, scipy), **out.notes}
    print("# " + json.dumps(info))
    for msg in out.failures:
        print("# FAILED " + msg)
    print(json.dumps({
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in out.metrics.items()},
    }))
    return 0 if not out.failures else 1


if __name__ == "__main__":
    sys.exit(main())
