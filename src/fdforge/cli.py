"""Batch command-line driver for discovery, analysis, and validation.

Four subcommands:

* ``discover`` — run the randomized search at a given (k, s) and emit one
  result row per distinct convergent formula found;
* ``analyze`` — root-condition report for an explicit polynomial or for
  the formula generated by an explicit seed;
* ``validate-known`` — integrity, root, order, and simulation checks over
  the built-in catalog of known formulas;
* ``order-check`` — empirical truncation-order measurement for the
  catalog or for a user-supplied formula.

Result rows follow the classic TPOLY layout: the normalized polynomial
coefficients (highest power first), a separating literal 0, the deviation
of the maximal root magnitude from 1, the second-largest root magnitude,
and the coefficient c of tau * dx.  Float mode prints 4 decimal places;
``--rational`` rebuilds each table row's formula in exact arithmetic and
prints p and c as lowest-term fractions, while the root magnitudes,
algebraic numbers, stay 4-decimal floats; json and csv rows keep their
floats.  ``--format json`` emits one
JSON object per row with full-precision floats; identical invocations with
the same --rng-seed produce byte-identical output.

Exit codes: 0 success, 1 internal error or failed validation, 2 bad
arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

from .charpoly import analyze, analyze_formula
from .search import Candidate, SearchConfig, discover
from .taylor_system import DifferenceFormula, Dimensions, seed_to_formula
from .validation import catalog, empirical_order, validate_catalog

__all__ = ["main", "build_parser"]

# Flags whose values are comma-separated vectors (or signed scalars) and may
# start with "-"; they get joined into --flag=value form so the parser never
# mistakes the value for an option name.
_VALUE_FLAGS = ("--init-seed", "--poly", "--seed", "--c")


def _join_value_flags(argv: list) -> list:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _fraction(text: str) -> Fraction:
    """argparse type: one exact number ("1.5" and "3/2" both work)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _vector(text: str) -> list:
    """argparse type: comma-separated numbers -> exact Fractions."""
    toks = [t for t in (s.strip() for s in text.split(",")) if t]
    if not toks:
        raise argparse.ArgumentTypeError("empty vector")
    return [_fraction(t) for t in toks]


def _poly(text: str) -> list:
    """argparse type: a ``_vector`` of two or more polynomial coefficients,
    highest power first, the first nonzero."""
    vec = _vector(text)
    if len(vec) < 2 or vec[0] == 0:
        raise argparse.ArgumentTypeError(
            f"need two or more coefficients, the first nonzero: {text}")
    return vec


def _floats(parse):
    """argparse type: what ``parse`` returns, whose entries are also used as floats."""
    def parse_floats(text: str) -> list:
        vec = parse(text)
        try:
            list(map(float, vec))
        except OverflowError:
            raise argparse.ArgumentTypeError(f"too large for a float: {text}") from None
        return vec
    return parse_floats


def _table_line(cand: Candidate, exact: Optional[DifferenceFormula]) -> str:
    """Table row of ``cand``: 4-decimal floats, with p and c as lowest-term
    fractions from ``exact``, its exact twin, when there is one."""
    rep, fmt = analyze_formula(cand.formula), "{:.4f}".format
    if exact is None:
        p, c = map(fmt, cand.formula.p), fmt(cand.formula.c)
    else:
        p, c = map(str, exact.p), str(exact.c)
    return " ".join([*p, "0", fmt(rep.max_deviation), fmt(rep.second_magnitude), c])


_FIELDS = ("k", "s", "p", "c", "max_dev", "second_mag", "seed", "convergent")
_CSV_HEADER = ",".join(_FIELDS)


def _fields(dims: Dimensions, cand: Candidate) -> tuple:
    f, rep = cand.formula, analyze_formula(cand.formula)
    return (dims.k, dims.s, list(f.p), f.c, rep.max_deviation, rep.second_magnitude,
            list(cand.seed_final), rep.convergent)


def _json_line(dims: Dimensions, cand: Candidate) -> str:
    return json.dumps(dict(zip(_FIELDS, _fields(dims, cand))), separators=(",", ":"))


def _csv_cell(v) -> str:
    """Vectors semicolon-joined, floats at full precision, booleans lower case."""
    if isinstance(v, list):
        return ";".join(map(repr, v))
    return str(v).lower() if isinstance(v, bool) else repr(v)


def _csv_line(dims: Dimensions, cand: Candidate) -> str:
    return ",".join(map(_csv_cell, _fields(dims, cand)))


def _dims(parser: argparse.ArgumentParser, args) -> Dimensions:
    try:
        return Dimensions(args.k, args.s)
    except ValueError as exc:
        parser.error(str(exc))


def _reject_ignored(parser: argparse.ArgumentParser, args, flags: tuple, context: str):
    """Usage error naming the first of ``flags`` given where ``context`` ignores it."""
    for flag in flags:
        if getattr(args, flag[2:]) is not None:
            parser.error(f"{flag} is not used {context}")


def _seed_formula(parser: argparse.ArgumentParser, args):
    """(dims, exact formula) of ``--seed`` under ``--k``/``--s``."""
    if args.k is None or args.s is None:
        parser.error("--seed requires --k and --s")
    dims = _dims(parser, args)
    if len(args.seed) != dims.s:
        parser.error(f"--seed has {len(args.seed)} entries, expected s = {dims.s}")
    return dims, seed_to_formula(dims, args.seed, exact=True)


def _exact_twin(
    cand_seed: tuple, dims: Dimensions, init: Optional[list]
) -> Optional[DifferenceFormula]:
    """Exact-arithmetic version of a candidate's formula.

    When the final seed is (to the bit) the user's --init-seed, the
    user's Fractions are used so e.g. 110 stays 110; otherwise each float
    component is converted exactly.
    """
    if init is not None and tuple(float(v) for v in init) == cand_seed:
        y = init
    else:
        y = [Fraction(v) for v in cand_seed]
    try:
        return seed_to_formula(dims, y, exact=True)
    except (ValueError, ArithmeticError):
        return None


def cmd_discover(args, parser: argparse.ArgumentParser) -> int:
    dims = _dims(parser, args)
    init_fracs = args.init_seed
    if init_fracs is not None and len(init_fracs) != dims.s:
        parser.error(f"--init-seed has {len(init_fracs)} entries, expected s = {dims.s}")
    try:
        config = SearchConfig(dims=dims, runs=args.runs, restarts=args.restarts,
                              rng_seed=args.rng_seed)
    except ValueError as exc:
        parser.error(str(exc))
    if args.output:
        # Fail before the search, not after it: "a" leaves an existing file as it is.
        try:
            open(args.output, "a").close()
        except OSError as exc:
            parser.error(f"--output: cannot write {args.output}: {exc.strerror}")

    result = discover(
        config,
        initial_seed=None if init_fracs is None else [float(v) for v in init_fracs],
    )

    cands = result.candidates
    if args.format == "json":
        lines = [_json_line(dims, c) for c in cands]
    elif args.format == "csv":
        lines = [_CSV_HEADER] + [_csv_line(dims, c) for c in cands]
    else:
        lines = [
            _table_line(c, _exact_twin(c.seed_final, dims, init_fracs) if args.rational else None)
            for c in cands
        ]
    text = "".join(line + "\n" for line in lines)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    hist = Counter(round(v, 3) for v in result.failure_plateaus)
    print(
        f"attempts={result.attempts} candidates={len(result.candidates)} "
        f"failed_runs={len(result.failure_plateaus)}",
        file=sys.stderr,
    )
    for level in sorted(hist):
        print(f"  plateau ~{level:.3f}  x{hist[level]}", file=sys.stderr)
    return 0


def _print_report(p_floats, out):
    report = analyze(p_floats)
    print("roots:", file=out)
    for z in report.roots:
        print(f"  {z.real:+.12f} {z.imag:+.12f}i   |z| = {abs(z):.12f}", file=out)
    print(f"max magnitude:    {report.max_magnitude:.12f}", file=out)
    print(f"max deviation:    {report.max_deviation:+.3e}", file=out)
    print(f"second magnitude: {report.second_magnitude:.12f}", file=out)
    print(f"convergent:       {'yes' if report.convergent else 'no'}", file=out)
    return report


def cmd_analyze(args, parser: argparse.ArgumentParser) -> int:
    out = sys.stdout
    coeffs = args.poly
    if coeffs is not None:
        _reject_ignored(parser, args, ("--k", "--s"), "with --poly")
        print("polynomial:", " ".join(str(v) for v in coeffs), file=out)
        _print_report([float(v) for v in coeffs], out)
        return 0

    _, exact = _seed_formula(parser, args)
    flt = exact.as_float()
    print("seed:", " ".join(str(v) for v in args.seed), file=out)
    print("p (float):   ", " ".join(f"{v:.4f}" for v in flt.p), file=out)
    print("p (exact):   ", " ".join(str(v) for v in exact.p), file=out)
    print(f"c (float):    {float(exact.c):.4f}", file=out)
    print(f"c (exact):    {exact.c}", file=out)
    _print_report(list(flt.p), out)
    return 0


def cmd_validate_known(args, parser: argparse.ArgumentParser) -> int:
    results = validate_catalog()
    if args.json:
        print(json.dumps(results, indent=2))
    else:
        head = (
            f"{'label':5} {'p(1)=0':7} {'c ok':5} {'conv':5} "
            f"{'slope':>7} {'order ok':8} {'sim err':>10} {'ok':3}"
        )
        print(head)
        for r in results:
            slope = "--" if r["fitted_slope"] is None else f"{r['fitted_slope']:.2f}"
            print(
                f"{r['label']:5} {str(r['root_at_1']):7} {str(r['c_consistent']):5} "
                f"{str(r['convergent']):5} {slope:>7} {str(r['order_ok']):8} "
                f"{r['sim_max_error']:10.2e} {str(r['ok']):3}"
            )
    return 0 if all(r["ok"] for r in results) else 1


def cmd_order_check(args, parser: argparse.ArgumentParser) -> int:
    checks = []
    if args.claimed is not None and args.claimed < 2:
        parser.error(f"--claimed must be >= 2, got {args.claimed}")
    coeffs = args.poly
    if coeffs is not None:
        _reject_ignored(parser, args, ("--seed", "--k", "--s"), "with --poly")
        if args.c is None or args.claimed is None:
            parser.error("--poly needs --c and --claimed")
        # --c is the tau*dx weight on the same scale as --poly, so both are
        # normalized by the leading coefficient together, and the order fit
        # takes them as floats.
        p = tuple(v / coeffs[0] for v in coeffs)
        c = args.c / coeffs[0]
        for flag, values in (("--poly", p), ("--c", (c,))):
            try:
                list(map(float, values))
            except OverflowError:
                parser.error(f"{flag}: too large for a float once divided by the "
                             "leading coefficient")
        checks.append(("custom", DifferenceFormula(p, c), args.claimed))
    elif args.seed is not None:
        _reject_ignored(parser, args, ("--c",), "with --seed")
        dims, formula = _seed_formula(parser, args)
        claimed = args.claimed if args.claimed is not None else dims.order
        checks.append((f"seed(k={dims.k},s={dims.s})", formula, claimed))
    else:
        _reject_ignored(parser, args, ("--c", "--claimed"), "without --poly or --seed")
        for kf in catalog():
            checks.append((kf.label, kf.to_formula(), kf.claimed_order))

    rows = [(label, claimed, empirical_order(f, claimed)) for label, f, claimed in checks]
    if args.json:
        print(json.dumps([{"id": label, "claimed": claimed, "slope": r.fitted_slope,
                           "underflow": r.underflow, "pass": r.passed}
                          for label, claimed, r in rows], indent=2))
    else:
        print(f"{'id':18} {'claimed':>7} {'slope':>8} {'underflow':9} {'pass':4}")
        for label, claimed, r in rows:
            slope = "--" if r.fitted_slope is None else f"{r.fitted_slope:.3f}"
            print(f"{label:18} {claimed:>7} {slope:>8} {str(r.underflow):9} {str(r.passed):4}")
    return 0 if all(r.passed for _, _, r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the four subcommands on every call."""
    parser = argparse.ArgumentParser(
        prog="fdforge",
        description="Construct, analyze, and discover convergent one-step-ahead "
        "finite difference formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dims(p, required=True):
        p.add_argument("--k", type=int, required=required, help="derivative orders to cancel")
        p.add_argument("--s", type=int, required=required, help="seed length")

    d = sub.add_parser("discover", help="randomized search for convergent formulas")
    add_dims(d)
    d.add_argument("--runs", type=int, default=20, help="outer-loop runs")
    d.add_argument("--restarts", type=int, default=10, help="inner restarts per run")
    d.add_argument("--rng-seed", type=int, default=0, help="reproducibility seed")
    d.add_argument("--init-seed", type=_floats(_vector),
                   help="comma-separated start seed for the first run")
    d.add_argument("--rational", action="store_true",
                   help="table rows print p and c as exact fractions; "
                   "json and csv rows keep their floats")
    d.add_argument("--format", choices=("table", "json", "csv"), default="table")
    d.add_argument("--output", help="write result rows to this file instead of stdout")
    d.set_defaults(func=cmd_discover, parser=d)

    a = sub.add_parser("analyze", help="root report for a polynomial or a seed")
    g = a.add_mutually_exclusive_group(required=True)
    g.add_argument("--poly", type=_floats(_poly),
                   help="comma-separated polynomial, highest power first")
    g.add_argument("--seed", type=_vector, help="comma-separated seed (requires --k/--s)")
    add_dims(a, required=False)
    a.set_defaults(func=cmd_analyze, parser=a)

    v = sub.add_parser("validate-known", help="check the built-in formula catalog")
    v.add_argument("--json", action="store_true", help="machine-readable report")
    v.set_defaults(func=cmd_validate_known, parser=v)

    o = sub.add_parser("order-check", help="empirical truncation-order measurement")
    o.add_argument("--poly", type=_poly,
                   help="comma-separated polynomial, highest power first")
    o.add_argument("--c", type=_fraction, help="derivative weight for --poly")
    o.add_argument("--claimed", type=int, help="claimed truncation order")
    o.add_argument("--seed", type=_vector, help="comma-separated seed (requires --k/--s)")
    add_dims(o, required=False)
    o.add_argument("--json", action="store_true")
    o.set_defaults(func=cmd_order_check, parser=o)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Parsing leaves no state in the parser, so one can serve every call.
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code; usage errors raise SystemExit(2).

    Every call in a process parses with one parser, built on the first
    call, so that repeated in-process calls do not pay for rebuilding it.
    """
    raw = list(sys.argv[1:] if argv is None else argv)
    args = _shared_parser().parse_args(_join_value_flags(raw))
    try:
        return args.func(args, args.parser)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
