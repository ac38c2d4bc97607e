"""Layer spans for the traced benchmark run, recorded from outside the package.

Nothing here edits fdforge: the tracer replaces a module attribute (the
name one layer uses to call another) with a timing wrapper and puts the
original back afterwards.  Only the traced run installs hooks, so the
untraced run measures the program as shipped.

A span's self time is its duration minus the time covered by spans opened
inside it.  Objective evaluations are too frequent for a full span; they
are timed individually and charged to whatever span is open, so the NM
span's self time is NM minus its objective calls and the discover span's
self time is the restart loop alone.

A wrapped name that no longer exists (say ``nelder_mead`` once the search
stops calling SciPy) is recorded in ``absent`` and its layer reads 0; the
run does not fail.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Classifier entry points; analyze_formula calls analyze, so nested calls
# count once (see Tracer._span).
CLASSIFY = "charpoly.classify"
# Subcommands whose CLI self time is reported.
CLI_COMMANDS = ("analyze", "order-check", "discover", "validate-known")


def quantile(values, q: int) -> float:
    """The q-th percentile (1..99) of ``values``; 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


class Tracer:
    def __init__(self, *, nm_max_iter: int, penalty: float, accept_tol: float):
        self.nm_max_iter = nm_max_iter
        self.penalty = penalty
        self.floor = 1.0 + accept_tol
        self.names: list = ["root"]
        self.child: list = [0.0]  # time covered by children, one slot per open span
        self.stats: dict = {}  # span name -> [calls, total_s, self_s]
        self.objective = [0, 0.0]  # evaluations, seconds
        self.nm_calls: list = []  # (nit, fun, nfev, seconds, self_seconds)
        self.attempts = 0
        self.candidates = 0
        self.absent: list = []
        self._patched: list = []

    # -- span bookkeeping -------------------------------------------------

    def _span(self, name, fn, args, kwargs, on_result=None):
        if self.names[-1] == name:  # the same layer re-entered itself
            return fn(*args, **kwargs)
        self.names.append(name)
        self.child.append(0.0)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self.names.pop()
            covered = self.child.pop()
            self.child[-1] += dt
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += dt
            st[2] += dt - covered
        if on_result is not None:
            on_result(out, dt, dt - covered)
        return out

    def stat(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])

    # -- hook installation ------------------------------------------------

    def _patch(self, module, attr, make):
        orig = getattr(module, attr, None)
        if orig is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, make(orig))
        self._patched.append((module, attr, orig))

    def install(self, fd):
        """Hook every layer boundary reachable from ``fd`` (the fdforge package)."""
        cli, search, charpoly, validation = fd.cli, fd.search, fd.charpoly, fd.validation
        self._patch(search, "objective_function", self._objective_factory)
        self._patch(search, "nelder_mead", self._nelder_mead)
        self._patch(search, "discover", self._discover)
        self._patch(cli, "discover", self._discover)
        for mod in (search, cli):
            self._patch(mod, "seed_to_formula", self._seed_to_formula)
        self._patch(charpoly, "analyze", lambda fn: self._plain(CLASSIFY, fn))
        self._patch(cli, "analyze", lambda fn: self._plain(CLASSIFY, fn))
        self._patch(search, "analyze_formula", lambda fn: self._plain(CLASSIFY, fn))
        for mod in (cli, validation):
            self._patch(mod, "empirical_order",
                        lambda fn: self._plain("validation.order_fit", fn))
        self._patch(validation, "simulate", lambda fn: self._plain("validation.simulate", fn))
        self._patch(cli, "validate_catalog", lambda fn: self._plain("validation.catalog", fn))
        self._patch(cli, "main", self._cli_main)

    def uninstall(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    # -- wrappers ---------------------------------------------------------

    def _plain(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._span(name, fn, args, kwargs)
        return wrapper

    def _seed_to_formula(self, fn):
        def wrapper(*args, **kwargs):
            name = ("taylor_system.exact_formula" if kwargs.get("exact")
                    else "taylor_system.float_formula")
            return self._span(name, fn, args, kwargs)
        return wrapper

    def _cli_main(self, fn):
        def wrapper(argv=None):
            cmd = argv[0] if argv else "none"
            return self._span(f"cli.main.{cmd}", fn, (argv,), {})
        return wrapper

    def _discover(self, fn):
        def on_result(res, dt, self_dt):
            self.attempts += getattr(res, "attempts", 0)
            self.candidates += len(getattr(res, "candidates", ()))

        def wrapper(*args, **kwargs):
            return self._span("search.discover", fn, args, kwargs, on_result)
        return wrapper

    def _objective_factory(self, factory):
        counter, child = self.objective, self.child

        def make(*args, **kwargs):
            f = factory(*args, **kwargs)

            def traced(y):
                t0 = perf_counter()
                v = f(y)
                dt = perf_counter() - t0
                counter[0] += 1
                counter[1] += dt
                child[-1] += dt
                return v
            return traced
        return make

    def _nelder_mead(self, fn):
        def wrapper(*args, **kwargs):
            n0 = self.objective[0]

            def on_result(out, dt, self_dt):
                try:  # (x, fun, nit) today
                    nit, fun = int(out[2]), float(out[1])
                except (TypeError, IndexError, ValueError):
                    if "nelder_mead result" not in self.absent:
                        self.absent.append("nelder_mead result")
                    return
                self.nm_calls.append((nit, fun, self.objective[0] - n0, dt, self_dt))
            return self._span("search.nelder_mead", fn, args, kwargs, on_result)
        return wrapper

    # -- results ----------------------------------------------------------

    def exit_reason(self, nit, fun):
        if nit >= self.nm_max_iter:
            return "maxiter"
        if fun >= self.penalty:
            return "penalty"
        if fun <= self.floor:
            return "floor"
        return "tolerance"

    def exits(self) -> dict:
        out = {"start": self.attempts - len(self.nm_calls),
               "floor": 0, "tolerance": 0, "maxiter": 0, "penalty": 0}
        for nit, fun, *_ in self.nm_calls:
            out[self.exit_reason(nit, fun)] += 1
        return out

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        n_obj, t_obj = self.objective
        cls_n, cls_t, _ = self.stat(CLASSIFY)
        _, disc_t, disc_self = self.stat("search.discover")
        ex_n, ex_t, _ = self.stat("taylor_system.exact_formula")
        fl_n, fl_t, _ = self.stat("taylor_system.float_formula")
        of_n, of_t, _ = self.stat("validation.order_fit")
        sim_n, sim_t, _ = self.stat("validation.simulate")
        cat_n, cat_t, _ = self.stat("validation.catalog")
        nfev = [c[2] for c in self.nm_calls]
        nm_ms = [c[3] * 1e3 for c in self.nm_calls]

        def per(total, calls, scale):
            return total / calls * scale if calls else 0.0

        m = {
            "charpoly.objective_evals": (n_obj, "count"),
            "charpoly.objective_us": (per(t_obj, n_obj, 1e6), "us"),
            "charpoly.objective_busy_s": (t_obj, "s"),
            "charpoly.classify_us": (per(cls_t, cls_n, 1e6), "us"),
            "charpoly.classify_calls": (cls_n, "count"),
            "search.attempts": (self.attempts, "count"),
            "search.candidates": (self.candidates, "count"),
            "search.success_ratio": (per(self.candidates, self.attempts, 1.0), "ratio"),
        }
        for reason, n in self.exits().items():
            m[f"search.exit.{reason}"] = (n, "count")
        m.update({
            "search.nfev.p50": (quantile(nfev, 50), "count"),
            "search.nfev.p95": (quantile(nfev, 95), "count"),
            "search.nm_ms.p50": (quantile(nm_ms, 50), "ms"),
            "search.nm_ms.p95": (quantile(nm_ms, 95), "ms"),
            "search.nm_self_s": (sum(c[4] for c in self.nm_calls), "s"),
            "search.loop_self_s": (disc_self, "s"),
            "search.attributed_share": (1.0 - per(disc_self, disc_t, 1.0) if disc_t else 0.0,
                                        "ratio"),
            "taylor_system.exact_formula_us": (per(ex_t, ex_n, 1e6), "us"),
            "taylor_system.exact_formula_calls": (ex_n, "count"),
            "taylor_system.float_formula_us": (per(fl_t, fl_n, 1e6), "us"),
            "taylor_system.float_formula_calls": (fl_n, "count"),
            "validation.order_fit_us": (per(of_t, of_n, 1e6), "us"),
            "validation.simulate_ms": (per(sim_t, sim_n, 1e3), "ms"),
            "validation.catalog_ms": (per(cat_t, cat_n, 1e3), "ms"),
        })
        for cmd in CLI_COMMANDS:
            calls, _, self_t = self.stat(f"cli.main.{cmd}")
            m[f"cli.self_ms.{cmd}"] = (per(self_t, calls, 1e3), "ms")
        return m
