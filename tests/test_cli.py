"""End-to-end command line tests (subprocess level, and in process for main)."""

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from fdforge import Dimensions, analyze_formula, cli, seed_to_formula, validation


def run_cli(*args, env_extra=None, timeout=180):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "fdforge", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


# ----------------------------------------------------------------- discover


# The rows below were captured from the reference seeds.  Two of their
# fields come from LAPACK's dgeev, whose last bits are not fixed across
# builds, so the expected rows take max_dev and second_mag from this
# build's classifier; root_fields pins them to the captured values up to
# rounding.
SUMMARY_1 = "attempts=1 candidates=1 failed_runs=0\n"


def root_fields(k, s, seed, second_mag):
    rep = analyze_formula(seed_to_formula(Dimensions(k, s), seed))
    assert abs(rep.max_deviation) <= 1e-12
    assert rep.second_magnitude == pytest.approx(second_mag, abs=1e-12)
    return rep.max_deviation, rep.second_magnitude


def test_discover_table_line_for_known_seed():
    r = run_cli(
        "discover", "--k", "2", "--s", "2",
        "--runs", "1", "--restarts", "1", "--init-seed=-5,2",
    )
    assert r.returncode == 0
    dev, _ = root_fields(2, 2, [-5.0, 2.0], 0.9025012395121704)
    assert r.stdout == f"1.0000 0.1250 -0.7500 -0.6250 0.2500 0 {dev:.4f} 0.9025 2.2500\n"
    assert r.stderr == SUMMARY_1


def test_discover_rational_table_line():
    r = run_cli(
        "discover", "--k", "3", "--s", "3",
        "--runs", "1", "--restarts", "1", "--init-seed=1,110,-40", "--rational",
    )
    assert r.returncode == 0
    dev, mag = root_fields(3, 3, [1.0, 110.0, -40.0], 0.9591400231139727)
    # p and c are exact; the root magnitudes, algebraic numbers, stay floats
    assert r.stdout == (
        f"1 80/237 -182/237 -206/237 1/237 110/237 -40/237 0 {dev:.4f} {mag:.4f} 196/79\n"
    )
    assert r.stderr == SUMMARY_1


def test_discover_json_format():
    r = run_cli(
        "discover", "--k", "2", "--s", "2",
        "--runs", "1", "--restarts", "1", "--init-seed=-5,2", "--format", "json",
    )
    assert r.returncode == 0
    dev, mag = root_fields(2, 2, [-5.0, 2.0], 0.9025012395121704)
    assert r.stdout == (
        '{"k":2,"s":2,"p":[1.0,0.125,-0.75,-0.625,0.25],"c":2.25,'
        f'"max_dev":{dev!r},"second_mag":{mag!r},"seed":[-5.0,2.0],"convergent":true}}\n'
    )
    assert r.stderr == SUMMARY_1


def test_discover_csv_format():
    r = run_cli(
        "discover", "--k", "2", "--s", "2",
        "--runs", "1", "--restarts", "1", "--init-seed=-5,2", "--format", "csv",
    )
    assert r.returncode == 0
    dev, mag = root_fields(2, 2, [-5.0, 2.0], 0.9025012395121704)
    assert r.stdout == (
        "k,s,p,c,max_dev,second_mag,seed,convergent\n"
        f"2,2,1.0;0.125;-0.75;-0.625;0.25,2.25,{dev!r},{mag!r},-5.0;2.0,true\n"
    )
    assert r.stderr == SUMMARY_1


def test_discover_output_file_byte_identical(tmp_path):
    # fresh processes with different string-hash seeds: nothing in the
    # output may depend on set or dict iteration order
    args = (
        "discover", "--k", "2", "--s", "2",
        "--runs", "3", "--restarts", "2", "--rng-seed", "11", "--format", "json",
    )
    outs = []
    for hash_seed in ("0", "1", "2"):
        path = tmp_path / f"{hash_seed}.jsonl"
        r = run_cli(*args, "--output", str(path),
                    env_extra={"PYTHONHASHSEED": hash_seed})
        assert r.returncode == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_discover_unwritable_output_is_a_usage_error_before_the_search(
        tmp_path, monkeypatch, capsys):
    # refused before the search starts, so no finished search loses its rows
    calls = []
    monkeypatch.setattr(cli, "discover", lambda *a, **kw: calls.append(a))
    target = tmp_path / "missing" / "out.jsonl"
    with pytest.raises(SystemExit) as exc:
        cli.main(["discover", "--k", "2", "--s", "2", "--runs", "1", "--output", str(target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fdforge discover ") and "--output" in err
    assert calls == []


def test_discover_rejects_zero_runs():
    r = run_cli("discover", "--k", "2", "--s", "2", "--runs", "0")
    assert r.returncode == 2


def test_discover_zero_init_seed_is_deterministic():
    # the zero seed has no formula of its own; the search starts from its
    # projection onto the seed hyperplane instead of failing
    args = ("discover", "--k", "3", "--s", "3", "--runs", "1", "--restarts", "2",
            "--init-seed=0,0,0", "--format", "json")
    first, second = run_cli(*args), run_cli(*args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert first.stdout


def test_discover_rejects_wrong_seed_length():
    r = run_cli(
        "discover", "--k", "2", "--s", "2",
        "--runs", "1", "--restarts", "1", "--init-seed=1,2,3",
    )
    assert r.returncode == 2


# ------------------------------------------------------------------ analyze


def test_analyze_poly_convergent():
    r = run_cli("analyze", "--poly=1,0,-1")
    assert r.returncode == 0
    assert "convergent:       yes" in r.stdout
    assert "max magnitude:    1.0000" in r.stdout


def test_analyze_poly_double_root_rejected():
    r = run_cli("analyze", "--poly=1,-2,1")
    assert r.returncode == 0
    assert "convergent:       no" in r.stdout


def test_analyze_high_order_catalog_entry():
    r = run_cli("analyze", "--poly=13,-6,-2,-4,-3,2")
    assert r.returncode == 0
    assert "convergent:       yes" in r.stdout


def test_analyze_seed_exact_arithmetic():
    r = run_cli("analyze", "--seed=1,110,-40", "--k", "3", "--s", "3")
    assert r.returncode == 0
    assert "80/237" in r.stdout
    assert "c (exact):    196/79" in r.stdout
    assert "convergent:       yes" in r.stdout


def test_analyze_seed_beyond_the_search_k_limit_is_exact(capsys):
    # the exact path has no k limit: K_LIMIT advises the float search only
    assert cli.main(["analyze", "--seed=1,2,3,4,5,6,7,8,9", "--k", "9", "--s", "9"]) == 0
    out = dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines()
               if ":" in line)
    p = [Fraction(v) for v in out["p (exact)"].split()]
    c = Fraction(out["c (exact)"])
    assert len(p) == 19
    assert sum(p) == 0  # p(1) = 0
    assert sum((18 - i) * v for i, v in enumerate(p)) == c  # p'(1) = c


def test_analyze_nonnormalizable_seed_fails_cleanly():
    r = run_cli("analyze", "--seed=-9,2", "--k", "2", "--s", "2")
    assert r.returncode == 1
    assert "seed" in r.stderr.lower()


def test_analyze_requires_input():
    assert run_cli("analyze").returncode == 2
    assert run_cli("analyze", "--seed=1,2").returncode == 2  # missing --k/--s


# ------------------------------------------------------------ validate-known


def test_validate_known_all_ok():
    r = run_cli("validate-known")
    assert r.returncode == 0
    for label in "ABCDEF":
        assert any(line.startswith(label) for line in r.stdout.splitlines())


def test_validate_known_json():
    r = run_cli("validate-known", "--json")
    assert r.returncode == 0
    rows = json.loads(r.stdout)
    assert [row["label"] for row in rows] == list("ABCDEF")
    assert all(row["ok"] for row in rows)
    assert all(row["root_at_1"] for row in rows)


def test_validate_known_detects_corruption(monkeypatch, capsys):
    # negative control: E's trailing coefficient raised by 1 breaks p(1) = 0
    entries = [replace(kf, char_poly=(*kf.char_poly[:-1], kf.char_poly[-1] + 1))
               if kf.label == "E" else kf for kf in validation.catalog()]
    monkeypatch.setattr(validation, "catalog", lambda: entries)
    assert cli.main(["validate-known", "--json"]) == 1
    rows = {row["label"]: row for row in json.loads(capsys.readouterr().out)}
    assert not rows["E"]["ok"]
    assert not rows["E"]["root_at_1"]
    assert all(rows[l]["ok"] for l in "ABCDF")


def test_validate_known_has_no_corrupt_option(capsys):
    # the negative control is the test above, not an option of the command
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate-known", "--corrupt", "E"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fdforge ") and "--corrupt" in err


# -------------------------------------------------------------- order-check


def test_order_check_catalog_passes():
    r = run_cli("order-check")
    assert r.returncode == 0
    assert all(any(line.startswith(l) for line in r.stdout.splitlines())
               for l in "ABCDEF")


def test_order_check_explicit_poly():
    ok = run_cli("order-check", "--poly=1,0,-1", "--c", "2", "--claimed", "2")
    assert ok.returncode == 0
    inflated = run_cli("order-check", "--poly=1,0,-1", "--c", "2", "--claimed", "5")
    assert inflated.returncode == 1


def test_order_check_from_seed_defaults_to_construction_order():
    r = run_cli("order-check", "--seed=-5,2", "--k", "2", "--s", "2")
    assert r.returncode == 0


def test_order_check_json():
    r = run_cli("order-check", "--poly=1,0,-1", "--c", "2", "--claimed", "2", "--json")
    assert r.returncode == 0
    rows = json.loads(r.stdout)
    assert rows[0]["pass"] is True
    assert rows[0]["claimed"] == 2
    assert rows[0]["slope"] == pytest.approx(2.999, abs=0.05)


# ------------------------------------------------------------------- plumbing


def test_help_lists_subcommands():
    r = run_cli("--help")
    assert r.returncode == 0
    for name in ("discover", "analyze", "validate-known", "order-check"):
        assert name in r.stdout


def test_no_subcommand_is_an_error():
    assert run_cli().returncode == 2


_VECTOR_FLAG_ARGV = {
    "--init-seed": ("discover", "--k", "2", "--s", "2", "--init-seed"),
    "--poly": ("analyze", "--poly"),
    "--seed": ("analyze", "--k", "2", "--s", "2", "--seed"),
    "--c": ("order-check", "--poly", "1,0,-1", "--claimed", "2", "--c"),
}


@pytest.mark.parametrize("bad", ["1,x", "1/0", ","])
@pytest.mark.parametrize("flag", sorted(_VECTOR_FLAG_ARGV))
def test_malformed_number_is_a_usage_error_naming_the_flag(flag, bad, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*_VECTOR_FLAG_ARGV[flag], bad])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (("order-check", "--poly=1,0,-1", "--c", "2", "--claimed", "1"), "--claimed"),
    (("order-check", "--seed=-5,2", "--k", "2", "--s", "2", "--claimed", "1"), "--claimed"),
    # a polynomial has two or more coefficients, the first nonzero
    (("analyze", "--poly=5"), "--poly"),
    (("analyze", "--poly=0,1"), "--poly"),
    (("discover", "--k", "2", "--s", "2", "--rng-seed", "-1"), "rng_seed"),
    (("discover", "--k", "2", "--s", "2", "--init-seed=1e400,1"), "--init-seed"),
    (("analyze", "--poly=1e400,1"), "--poly"),
    # flags that the chosen input would ignore
    (("order-check", "--claimed", "3"), "--claimed"),
    (("order-check", "--c", "2"), "--c"),
    (("order-check", "--seed=-5,2", "--k", "2", "--s", "2", "--c", "2"), "--c"),
    (("order-check", "--poly=1,0,-1", "--c", "2", "--claimed", "2", "--seed=-5,2"), "--seed"),
    (("order-check", "--poly=1,0,-1", "--c", "2", "--claimed", "2", "--k", "2"), "--k"),
    (("analyze", "--poly=1,0,-1", "--k", "2"), "--k"),
    (("analyze", "--poly=1,0,-1", "--s", "2"), "--s"),
    # exact values that overflow a float once normalized by p[0]
    (("order-check", "--poly=1e-300,-1e300", "--c", "1", "--claimed", "2"), "--poly"),
    (("order-check", "--poly=1e-300,-1e-300", "--c", "1e300", "--claimed", "2"), "--c"),
    # a one-coefficient polynomial, and a size rejected after parsing
    (("order-check", "--poly=5", "--c", "1", "--claimed", "2"), "--poly"),
    (("discover", "--k", "0", "--s", "2"), "k must be"),
])
def test_out_of_range_value_is_a_usage_error(argv, name, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: fdforge {argv[0]} ")  # the subcommand's usage
    assert name in err


def test_main_reuses_one_parser_and_prints_what_a_fresh_process_prints(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the same width in both
    build_parser = cli.build_parser
    assert build_parser() is not build_parser()
    builds = []

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._shared_parser.cache_clear()
    calls = [
        ("analyze", "--poly", "2,-3,2,-1"),
        ("analyze", "--poly=1,-1", "--seed=1"),  # usage error
        ("validate-known", "--json"),
        ("analyze", "--poly", "2,-3,2,-1"),
    ]

    def in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    got = [in_process(argv) for argv in calls]
    assert len(builds) == 1
    assert [rc for rc, _, _ in got] == [0, 2, 0, 0]
    assert got[3] == got[0]
    for argv, res in zip(calls, got):
        r = run_cli(*argv)
        assert res == (r.returncode, r.stdout, r.stderr), argv
