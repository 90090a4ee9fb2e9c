import argparse
import functools
import json
import math
import pathlib
import random
import shlex
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest

import cli_corpus
import cyclezeta
from cyclezeta import cycle_oracle, field_census, spaces, zeta_series
from cyclezeta.cli import build_parser, main
from cyclezeta.commands import _SPLIT_BITS, _int_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_byte_identical_reruns(capsys):
    args = ("verify", "norms", "--samples", "3", "--seed", "7",
            "--nvars", "2", "--maxdeg", "2", "--nodes", "12")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert "elapsed" not in out1


def test_timing_flag_attaches_elapsed(capsys):
    doc = run_json(
        capsys, "--timing", "count", "top-cycles", "--space", "p1xn",
        "--n", "2", "--k", "2",
    )
    assert "elapsed_seconds" in doc


def test_counting_system_bound_past_float_overflow(capsys):
    # B(40) = 41^2 2^1681 overflows a float; its log does not
    doc = run_json(capsys, "bound", "counting-system", "--n", "3", "--l", "1",
                   "--h", "40")
    assert math.isclose(doc["results"]["log2_bound"]["value"],
                        2 * (2 * math.log2(41) + 41 ** 2) + 40 ** 2, rel_tol=1e-12)


SUBCOMMANDS = ["count", "enum", "bound", "zeta", "lfun", "speczeta", "norm",
               "delta", "divcount", "height", "census", "verify"]


def _exit(capsys, run, argv):
    """(exit code, stdout, stderr) of run(argv), which must exit."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def _full_parse(argv):
    return build_parser().parse_args(argv)


def _subcommands(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


def test_help_lists_every_subcommand(capsys):
    code, out, err = _exit(capsys, main, ["--help"])
    assert code == 0 and err == ""
    commands = out.partition("\npositional arguments:\n")[2].partition("\n\n")[0]
    lines = commands.splitlines()
    assert lines[0] == "  {" + ",".join(SUBCOMMANDS) + "}"
    assert [line.split()[0] for line in lines[1:]] == SUBCOMMANDS
    assert _subcommands(build_parser()) == SUBCOMMANDS


# the first four name no command, the rest are read by a one-command parser
@pytest.mark.parametrize("argv", [
    "", "nosuch", "--tsv", "--tsv nosuch --n 1",
    "-x count top-cycles",
    "count nonsense --space pn --n 1 --q 2",
    "--tsv count",
    "count top-cycles --space pn --n 1 --q 2 --bogus",
    "norm --poly z1 --tolerance 1e-3",
    "divcount --n 1 --lam 1 --h 2 --scheme monte_carlo --seed 1",
    "census ff-points --q 2 --n 1 --h 2 --a 0.3",
])
def test_usage_errors_match_the_full_parser(capsys, argv):
    argv = shlex.split(argv)
    code, out, err = _exit(capsys, main, argv)
    assert code == 1 and out == ""
    assert err.startswith("usage: cyclezeta")
    assert (code, out, err) == _exit(capsys, _full_parse, argv)
    if not set(argv) & set(SUBCOMMANDS):
        assert err.startswith(build_parser().format_usage())


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_one_subcommand_parser_matches_the_full_one(capsys, name):
    argv = [name, "--help"]
    one = build_parser(argv)
    assert _subcommands(one) == [name]
    assert one.format_usage() == build_parser().format_usage()
    code, out, err = _exit(capsys, main, argv)
    assert code == 0 and out.startswith(f"usage: cyclezeta {name} ")
    assert (code, out, err) == _exit(capsys, _full_parse, argv)


# every float option, with the other arguments its command needs
FLOAT_OPTIONS = [
    ("bound counting-system", "--h"),
    ("bound product-cycle", "--deg-d"),
    ("bound product-cycle", "--deg-e"),
    ("bound product-cycle", "--deg-c"),
    ("lfun --n 1 --l 0 --pmax 100", "--s"),
    ("lfun --n 1 --l 1 --pmax 100", "--s"),
    ("speczeta --cutoff 100", "--s"),
    ("delta --form X1", "--lam"),
    ("divcount --n 1 --h 1", "--lam"),
    ("divcount --n 1 --lam 1", "--h"),
    ("census sh-set", "--a"),
    ("census sh-set", "--h"),
]


@pytest.mark.parametrize("command, option", FLOAT_OPTIONS)
def test_float_options_refuse_non_finite_values(capsys, command, option):
    argv = shlex.split(command)
    for text in ("nan", "NaN", "inf", "-inf", "1e400"):
        code, out, err = _exit(capsys, main, [*argv, f"{option}={text}"])
        assert code == 1 and out == ""
        assert err.startswith(f"usage: cyclezeta {argv[0]} ")
        assert err.endswith(f"error: argument {option}: non-finite float value: "
                            f"{text!r}\n")
    # the message for text that is no number at all is argparse's own
    code, out, err = _exit(capsys, main, [*argv, option, "abc"])
    assert code == 1 and out == ""
    assert err.endswith(f"error: argument {option}: invalid float value: 'abc'\n")
    assert vars(_full_parse([*argv, option, "2.5"]))[option[2:].replace("-", "_")] == 2.5


# Each kind of a command with kinds: the options its sub-parser holds,
# which are the options its run reads, and a minimal command line
KIND_OPTIONS = {
    "count divisors": ("--space --n --q --audit --k --multidegree",
                       "--space pn --n 1 --q 2 --k 1"),
    "count zero-cycles": ("--space --n --q --k --audit", "--space pn --n 1 --q 2"),
    "count top-cycles": ("--space --n --k", "--space pn --n 1"),
    "count cycles": ("--space --n --q --l --k --audit", "--space pn --n 1 --q 2"),
    "enum divisors": ("--space --n --q --multidegree",
                      "--space pn --n 1 --q 2 --multidegree 1"),
    "enum zero-cycles": ("--space --n --q --k", "--space pn --n 1 --q 2"),
    "bound constant": ("--n --l", ""),
    "bound counting-system": ("--q --n --l --h", ""),
    "bound product-cycle": ("--deg-d --deg-e --deg-c --theta-d --theta-e", ""),
    "bound pushforward": ("--deg-pi --mults", ""),
    "height ff": ("--coords --q", "--coords 1,t"),
    "height nv": ("--coords --d --scheme --nodes --mc-samples --seed", "--coords 1,z1"),
    "census closed-points": ("--space --n --q --dmax", ""),
    "census ff-points": ("--q --n --h --stream", ""),
    "census sh-set": ("--d --a --h --stream --scheme --nodes --mc-samples --seed", ""),
}
_TOP_LEVEL = {"command", "func", "tsv", "timing"}


def _kind_parsers():
    """{"command kind": sub-parser} for every kind of every command."""
    found = {}
    for name, command in _choices(build_parser()).items():
        found.update({f"{name} {kind}": p for kind, p in _choices(command).items()})
    return found


def _choices(parser):
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def test_each_kind_parses_and_echoes_only_the_options_it_reads(capsys):
    parsers = _kind_parsers()
    assert set(parsers) == set(KIND_OPTIONS)
    for label, parser in parsers.items():
        options = {o for a in parser._actions for o in a.option_strings}
        assert options - {"-h", "--help"} == set(KIND_OPTIONS[label][0].split()), label
        argv = [*label.split(), *shlex.split(KIND_OPTIONS[label][1])]
        parsed = {k for k, v in vars(_full_parse(argv)).items() if v is not None}
        if "scheme" in parsed:  # the tensor grid reads no Monte Carlo sample count
            parsed.remove("mc_samples")
        assert set(run_json(capsys, *argv)["parameters"]) == parsed - _TOP_LEVEL, label


_EVERY_KIND_OPTION = sorted({o for names, _ in KIND_OPTIONS.values() for o in names.split()})


@pytest.mark.parametrize("label", KIND_OPTIONS)
def test_a_foreign_option_is_a_usage_error(capsys, label):
    names, minimal = KIND_OPTIONS[label]
    argv = [*label.split(), *shlex.split(minimal)]
    foreign = [o for o in _EVERY_KIND_OPTION if o not in names.split()]
    assert foreign
    # no option abbreviates another: --d is not --dmax, --h not --help
    for option in foreign:
        code, out, err = _exit(capsys, main, [*argv, option, "1"])
        assert (code, out) == (1, ""), (label, option)
        # the kind's own parser reports it, with the options it takes
        assert err.startswith(f"usage: cyclezeta {label} "), (label, option)
        assert err.endswith(f"cyclezeta {label}: error: unrecognized arguments: "
                            f"{option} 1\n"), (label, option)


def test_lfun_command(capsys):
    doc = run_json(capsys, "lfun", "--n", "1", "--l", "0", "--s", "4",
                   "--pmax", "50")
    manual = 1.0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        manual *= 1 / ((1 - p ** -4.0) * (1 - p ** -3.0))
    assert doc["results"]["real"]["value"] == pytest.approx(manual, rel=1e-9)


@pytest.mark.parametrize("n, l, s, pmax, local", [
    # divisors of P^n: the k = 1 term (p^(n+1) - 1)/(p - 1) p^-s, as the
    # exponents k^n of k >= 2 underflow.  p^(n+1) passes the float range
    # from p = 21 961 at n = 70 and from p = 1 129 at n = 100, where p^-s
    # is 0.0 from p = 1 439
    (70, 69, 72.5, 100000, lambda p: 1 + p ** -2.5 * (1 - p ** -71) / (1 - 1 / p)),
    (100, 99, 102.5, 2000, lambda p: 1 + p ** -2.5 * (1 - p ** -101) / (1 - 1 / p)),
    # top cycles: 1 + p^-s, the next exponent is 2^1101
    (1100, 1100, 2.0, 10, lambda p: 1 + p ** -2.0),
])
def test_lfun_answers_where_powers_pass_the_float_range(capsys, n, l, s, pmax, local):
    code, out, err = run_cli(capsys, "lfun", "--n", str(n), "--l", str(l),
                             "--s", str(s), "--pmax", str(pmax))
    assert code == 0 and err == ""
    real = json.loads(out)["results"]["real"]
    expected = math.prod(map(local, spaces.primes_upto(pmax)))
    assert abs(real["value"] - expected) <= real["error"]


def test_speczeta_audit(capsys):
    doc = run_json(capsys, "speczeta", "--s", "2", "--cutoff", "50", "--audit")
    expected = sum(m ** -2.0 for m in range(1, 51))
    assert doc["results"]["partial_sum"]["value"] == pytest.approx(expected)


def test_speczeta_audit_failure_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(zeta_series, "primes_upto",
                        lambda limit: [p for p in spaces.primes_upto(limit) if p != 13])
    code, out, err = run_cli(capsys, "speczeta", "--s", "2", "--cutoff", "1000", "--audit")
    assert code == 4 and out == ""
    assert err.startswith("internal error: norm map hits")


def test_int_text_equals_str():
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    limit = sys.get_int_max_str_digits() if set_digits else None
    if set_digits:
        set_digits(0)
    try:
        rng = random.Random(5)
        values = [0, 1, 10 ** 50, 2 ** _SPLIT_BITS, 2 ** _SPLIT_BITS - 1,
                  10 ** 19_729, 10 ** 19_729 - 1, 3 ** 120_000, 7 ** 70_000 - 1]
        values += [rng.getrandbits(bits) for bits in
                   (_SPLIT_BITS - 1, _SPLIT_BITS + 1, 100_003, 150_000, 200_000)]
        for n in values:
            assert _int_text(n) == str(n)
            assert _int_text(-n) == str(-n)
    finally:
        if set_digits:
            set_digits(limit)


def test_delta_command(capsys):
    doc = run_json(capsys, "delta", "--form", "X1 - Y1", "--lam", "1",
                   "--nodes", "128")
    assert doc["results"]["delta"]["value"] == pytest.approx(
        1 + 0.5 * math.log(2), abs=1e-3
    )


def _log_max_one(log_b, k, log_c=None, D=0):
    """Integral of log max(1, |b z^k (1 + c z^D)|) against the Fubini-Study
    measure, b, c > 0 given by their logs (no c term when log_c is None).

    Independent of the grid: at radius r the angle mean of
    max(0, log b + k log r + log |1 + a e^(it)|), a = c r^D, is Jensen's
    log b + k log r + log max(1, a) where the bracket is positive for
    every t, 0 where it is negative for every t, and in between a
    64-point Gauss-Legendre sum over t in [0, t*] up to its root t*.  The
    radius runs on 64-point Gauss-Legendre pieces split around r = 1,
    a = 1 and b r^k = 1; past the last piece the integral is closed.
    """
    t_gl, w_gl = np.polynomial.legendre.leggauss(64)

    def mean(r):
        base = log_b + k * math.log(r)
        if log_c is None:
            return max(base, 0.0)
        la = log_c + D * math.log(r)

        def log_abs(t):  # log |1 + a e^(it)|
            if la > 0:
                return la + 0.5 * np.log1p(math.exp(-2 * la) + 2 * math.exp(-la) * np.cos(t))
            return 0.5 * np.log1p(math.exp(2 * la) + 2 * math.exp(la) * np.cos(t))
        if base + log_abs(math.pi) >= 0:
            return base + max(la, 0.0)
        if base + log_abs(0.0) <= 0:
            return 0.0
        a = math.exp(la)
        kink = math.acos((math.exp(-2 * base) - 1 - a * a) / (2 * a))
        return float(w_gl @ (base + log_abs((t_gl + 1) * kink / 2))) * kink / (2 * math.pi)

    def measure(r):  # the density 2 r / (1 + r^2)^2 of |z| at r
        return 2 * r / (1 + r * r) ** 2

    centers = [1.0] + ([math.exp(-log_c / D)] if log_c is not None else [])
    centers += [math.exp(-log_b / k)] if k else []
    edges = [0.0] + sorted({r0 * math.exp(x / (D + k)) for r0 in centers
                            for x in (-16, -8, -4, -2, -1, -0.5, -0.25, 0,
                                      0.25, 0.5, 1, 2, 4, 8, 16)})
    total = sum((hi - lo) / 2 * sum(w * mean(r) * measure(r) for w, r in
                                    zip(w_gl, (t_gl + 1) * (hi - lo) / 2 + lo))
                for lo, hi in zip(edges, edges[1:]))
    # past the last edge every kink lies behind: the mean is
    # alpha + beta log r, whose integral over r > R is closed
    R = edges[-1]
    alpha = log_b + (log_c or 0.0)
    beta = k + (D if log_c is not None else 0)
    return total + (alpha + beta * math.log(R)) / (1 + R * R) + beta / 2 * math.log1p(R ** -2)


def test_grid_answers_radius_powers_past_the_float_range(capsys):
    # the 1/r half runs reversed, so no radius power passes the float range
    # (degree 178 was the most at 64 nodes, 117 at 512); each height covers
    # an independent one-dimensional evaluation within its printed error
    for coords, degree, reference in [
            ("1,z1^178+z1", 178, _log_max_one(0.0, 1, 0.0, 177)),
            ("1,z1^200+z1", 200, _log_max_one(0.0, 1, 0.0, 199)),
            ("1,(10^150)*z1^100+1", 100, _log_max_one(0.0, 0, 150 * math.log(10), 100))]:
        height = run_json(capsys, "height", "nv", "--coords", coords, "--d", "1")[
            "results"]["height"]
        assert abs(height["value"] - (degree + reference)) <= height["error"] < 0.1, coords
    # z^120 on 512 nodes: 120 + 120 times the integral of log |z| over |z| > 1
    height = run_json(capsys, "height", "nv", "--coords", "1,z1^120", "--d", "1",
                      "--nodes", "512")["results"]["height"]
    assert abs(height["value"] - 120 * (1 + 0.5 * math.log(2))) <= height["error"]
    # every node of 64 has |10^300 z^100| > 1, so the grid integrates
    # log |10^300 z^100| there, 300 log 10 exactly; the disk |z| < 10^-3,
    # where the 1 is larger, lies inside the innermost ring and adds 5.0e-5,
    # which the node-doubling error cannot see
    height = run_json(capsys, "height", "nv", "--coords", "1,(10^300)*z1^100",
                      "--d", "1")["results"]["height"]
    assert abs(height["value"] - (100 + 300 * math.log(10))) <= height["error"] < 1e-9
    reference = 100 + _log_max_one(300 * math.log(10), 100)
    assert reference - height["value"] == pytest.approx(5.0e-5, rel=1e-3)


def test_grid_answers_rows_whose_scaling_bound_passes_the_float_range(capsys):
    # 10^300 r_max^10 is no float, but its log is: the row is scaled, not
    # refused; the height of (1 : c z^10) is 10 + log c
    for e in (30, 200, 300):
        doc = run_json(capsys, "height", "nv", "--coords", f"1,(10^{e})*z1^10", "--d", "1")
        height = doc["results"]["height"]
        exact = 10 + e * math.log(10)
        assert abs(height["value"] - exact) <= max(height["error"], 1e-12 * exact), e
    # the rescaled 1 of (1 : z^178 + z) is 2^-1048 squared: kept as a
    # subnormal, not raised to 2^-1022 (which read 243.93 +- 4.29); the
    # reference integral 61.691185903 is summed in the log domain
    doc = run_json(capsys, "height", "nv", "--coords", "1,z1^178+z1", "--d", "1")
    height = doc["results"]["height"]
    assert abs(height["value"] - (178 + 61.691185903)) <= height["error"] < 0.1



def test_height_answers_coefficients_past_the_float_range(capsys):
    # 10^309 is no float: the row is shifted by a power of two read off the
    # exact integer; the height of (1 : c z^10) is 10 + log c, and that of
    # (c : z) is 1 + log c, up to disks of mass below 10^-60
    for coords, degree in [("1,(10^309)*z1^10", 10), ("(10^309),z1", 1)]:
        height = run_json(capsys, "height", "nv", "--coords", coords, "--d", "1")[
            "results"]["height"]
        exact = degree + 309 * math.log(10)
        assert abs(height["value"] - exact) <= max(height["error"], 1e-15 * exact), coords
    # a monomial integrates exactly as log |c|, which needs no float c
    doc = run_json(capsys, "delta", "--form", "(10^309)*X1")
    assert doc["results"]["delta"]["value"] == pytest.approx(1 + 309 * math.log(10))
    # |f|_2^2 = 10^400 + 1 is no float, but |f|_2 is
    doc = run_json(capsys, "norm", "--poly", "(10^200)*z1 + 1")
    assert doc["results"]["two"]["value"] == 1e200


def test_two_variable_rows_past_the_float_range_answer_exactly(capsys):
    # the exact route scales each row by a power of two and runs the z1
    # nodes past the unit circle reversed, so neither 10^300 z1^5 z2 (NaN
    # before the grid took it) nor a 10^309 coefficient leaves the float
    # range; delta = lam (a + 1) + log c, as the integral of
    # log |z1^a z2 + 1/c| is within 1/c of that of log |z1^a z2|, which is 0
    for form, lam, a, e in [("(10^300)*X1^5*X2+Y1^5*Y2", "1", 5, 300),
                            ("(10^309)*X1^2*X2+Y1^2*Y2", "1", 2, 309)]:
        delta = run_json(capsys, "delta", "--form", form, "--lam", lam)["results"]["delta"]
        assert abs(delta["value"] - (a + 1 + e * math.log(10))) <= delta["error"] < 0.01, form


def test_work_caps_refuse_at_once(capsys):
    # z2-degree 300 on 5 120 outer nodes is 1.4e11 units of the exact route,
    # degree 80 is 2.6e9: both past EXACT_CAP, refused before any solve
    for degree in ("300", "80"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "norms", "--samples", "3", "--nvars", "2",
                                 "--maxdeg", degree, "--seed", "1")
        assert code == 3 and out == "" and "exact two-variable integral" in err
        assert time.perf_counter() - start < 20
    # a row of width 10^7 + 1: its radius powers alone would take ~10 GB.
    # The constant coordinate makes the gcd that normalizes the point 1 at
    # once; a dense Euclid over 10^7 coefficients peaked at 244 MB.  Width
    # 10^6 + 1 passes GRID_CAP, but its radius powers (1 GB) do not pass
    # TABLE_CAP; neither do the z1 powers of z1^20000 z2 + 1 (0.8 GB)
    for argv, phrase in ((["height", "nv", "--coords", "1,z1^10000000", "--d", "1"],
                          "coefficient width 10000001"),
                         (["height", "nv", "--coords", "1,z1^1000000", "--d", "1"],
                          "coefficient width 1000001 needs tables"),
                         (["norm", "--poly", "z1^20000*z2+1"],
                          "z1-width 20001 needs tables")):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv],
                              capture_output=True, text=True, timeout=20)
        assert proc.returncode == 3 and proc.stdout == ""
        message, peak_mb = proc.stderr.splitlines()
        assert phrase in message
        assert int(peak_mb) < 100
        assert time.perf_counter() - start < 10


def test_sh_set_stream_lists_the_box(capsys):
    from cyclezeta.height_lab import sh_set_table
    from cyclezeta.quadrature import QuadratureConfig

    argv = ["census", "sh-set", "--d", "1", "--a", "0.25", "--h", "4"]
    code, out, err = run_cli(capsys, *argv, "--stream")
    assert code == 0 and err == ""
    lines = [json.loads(line) for line in out.splitlines()]
    census = run_json(capsys, *argv)["results"]
    assert len(lines) == int(census["count"]["value"])
    _, rows, heights, _, _ = sh_set_table(1, 0.25, 4.0, QuadratureConfig())
    assert [line["height"] for line in lines] == [round(float(x), 12) for x in heights]
    assert max(line["height"] for line in lines) == round(census["max_height"]["value"], 12)
    # each line's coefficients are its row of the box
    assert [sorted(line["coeffs"].values()) for line in lines] == [
        sorted(int(c) for c in row if c) for row in rows]


def test_big_integers_serialized_as_strings(capsys):
    doc = run_json(capsys, "count", "divisors", "--space", "pn", "--n", "2",
                   "--q", "5", "--k", "9")
    value = doc["results"]["count"]["value"]
    assert isinstance(value, str)
    assert int(value) > 10 ** 30
    # 2^20001 - 1 has 6 021 digits, over Python's default limit of 4 300
    doc = run_json(capsys, "count", "divisors", "--space", "pn", "--n", "1",
                   "--q", "2", "--multidegree", "20000")
    assert len(doc["results"]["count"]["value"]) == 6021


@pytest.mark.parametrize("entry", cli_corpus.ENTRIES, ids=str)
def test_pinned_outputs_byte_identical(entry):
    # each corpus entry: its exit code, then its pinned bytes or its named
    # check on the stream that answers, stdout on exit 0 and stderr
    # otherwise (a usage error pins its last line); the other stream
    # stays empty
    code, out, err, seconds = cli_corpus.run(entry)
    assert "Traceback" not in err
    assert code == entry.code, err
    shown, other = cli_corpus.shown(code, out, err)
    assert other == ""
    if entry.check:
        cli_corpus.CHECKS[entry.check](out if code == 0 else err)
    else:
        assert shown == entry.pinned
    assert entry.wall is None or seconds <= entry.wall


def test_readme_examples_are_corpus_entries():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    examples = [shlex.split(line)[1:] for block in readme.split("```")[1::2]
                for line in block.splitlines() if line.startswith("cyclezeta ")]
    assert examples
    corpus = [entry.args for entry in cli_corpus.ENTRIES]
    for args in examples:
        assert args in corpus, args


def test_a_repeated_command_line_is_refused():
    # the command line is the test id
    with pytest.raises(AssertionError, match="twice"):
        cli_corpus.load("$ cyclezeta nosuch # exit=1 check=usage\n" * 2)


def test_pinned_integrals_match_closed_forms():
    # v(3 z1 z2 - 4) = 4 exp(a log a / (2 (a - 1))) with a = 9/16, and
    # z^2 - 3z + 1 has roots c, 1/c with (1 + c^2)(1 + c^-2) = 9
    a = 9 / 16
    v = cli_corpus.results('norm --poly "3*z1*z2 - 4" --nodes 32')["v"]
    assert abs(v["value"] - 4 * math.exp(0.5 * a * math.log(a) / (a - 1))) <= v["error"]
    assert v["error"] < 1e-9
    delta = cli_corpus.results('delta --form "X1^2 - 3*X1*Y1 + Y1^2" --lam 1')["delta"]
    assert abs(delta["value"] - (2 + math.log(3))) <= delta["error"]
    assert delta["error"] < 1e-9


def test_pinned_lfun_error_bounds_the_zeta_product():
    # on P^1 the Euler product of the 0-cycle zetas is zeta(s) zeta(s - 1)
    real = cli_corpus.results("lfun --n 1 --l 0 --s 4 --pmax 100000")["real"]
    exact = float(mpmath.zeta(4) * mpmath.zeta(3))
    assert abs(real["value"] - exact) <= real["error"] < 1e-9
    # just above the abscissa s = 2, where the product is refused
    real = cli_corpus.results("lfun --n 1 --l 0 --s 2.5 --pmax 1000")["real"]
    exact = float(mpmath.zeta(2.5) * mpmath.zeta(1.5))
    assert abs(real["value"] - exact) <= real["error"]


def test_pinned_speczeta_error_bounds_the_direct_sum():
    partial = cli_corpus.results("speczeta --s 2 --cutoff 10000 --audit")["partial_sum"]
    with mpmath.workdps(40):
        exact = mpmath.fsum(mpmath.mpf(m) ** -2 for m in range(1, 10001))
    assert abs(partial["value"] - exact) <= partial["error"] < 1e-15


def test_pinned_height_error_bounds_the_closed_form():
    # (1 : z) has height 1 + integral of log max(1, |z|) = 1 + log(2)/2
    height = cli_corpus.results("height nv --coords 1,z1 --d 1 --nodes 128")["height"]
    assert abs(height["value"] - (1 + 0.5 * math.log(2))) <= height["error"] < 1e-4


def test_pinned_sh_set_height_agrees_with_a_finer_grid(capsys):
    # the census at 512 nodes per axis (8x the angles and radii)
    pinned = cli_corpus.results("census sh-set --d 1 --a 0.25 --h 4")["max_height"]
    doc = run_json(capsys, "census", "sh-set", "--d", "1", "--a", "0.25",
                   "--h", "4", "--nodes", "512")
    fine = doc["results"]["max_height"]["value"]
    assert abs(fine - pinned["value"]) <= pinned["error"]


@pytest.mark.parametrize("argv", [
    "lfun --n 1 --l 0 --s 4 --pmax 10000001",
    "lfun --n 1 --l 0 --s 4 --pmax 1000000000000",
    "lfun --n 1 --l 1 --s 2.5 --pmax 10000001",
    "speczeta --s 2 --cutoff 10000001",
    "speczeta --s 2 --cutoff 2000000 --audit",
])
def test_oversized_ranges_refused(capsys, block_sieves, argv):
    # refused before the sieve or the sum starts
    block_sieves()
    code, out, err = run_cli(capsys, *shlex.split(argv))
    assert code == 3 and out == ""
    assert err.startswith("size cap exceeded")


# the child's own peak RSS in MB, VmHWM: its ru_maxrss also holds the RSS of
# the pytest process that spawned it, carried across exec
_PEAK_RSS = """
import sys
from cyclezeta.cli import main
code = main(sys.argv[1:])
peak = next(line for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(int(peak.split()[1]) // 1024, file=sys.stderr)
sys.exit(code)
"""


def test_oversized_grid_refused_before_it_is_allocated():
    # 3 697 integrated rows (one per sign class of 28 561) of a
    # two-variable box on 3.4e7 grid nodes: gigabytes of grid values and
    # some twenty minutes of work if it ran
    argv = shlex.split("census sh-set --d 2 --a 0.24 --h 4.2")
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    message, peak_mb = proc.stderr.splitlines()
    assert message.startswith("size cap exceeded: a grid integral of 1.24e+11 points")
    assert int(peak_mb) < 200


@pytest.mark.parametrize("argv", [
    "zeta --space pn --n 2 --q 3 --l 0 --kmax 1000",  # about 490 kB at once
    "census ff-points --q 4 --n 1 --h 3 --stream",  # about 16 000 lines
])
def test_closed_pipe_exits_141_without_a_traceback(argv):
    # the output is far larger than a pipe buffers, so a write fails after
    # the reader has gone, as under `| head -c 50`
    proc = subprocess.Popen([sys.executable, "-m", "cyclezeta.cli", *shlex.split(argv)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(50).startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert b"Traceback" not in err and err == b""


def _count_calls(monkeypatch, family):
    closed_form, oracle = cycle_oracle.AUDITS[family]
    calls = []

    def counting(*args):
        calls.append(args)
        return oracle(*args)

    monkeypatch.setitem(cycle_oracle.AUDITS, family, (closed_form, counting))
    return calls


def test_audit_enumerates_once_per_count(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "divisors")
    doc = run_json(capsys, "count", "cycles", "--space", "pn", "--n", "2",
                   "--q", "2", "--l", "1", "--k", "2", "--audit")
    assert "audit" in doc["results"]
    assert len(calls) == 1
    run_json(capsys, "zeta", "--space", "pn", "--n", "2", "--q", "2",
             "--l", "1", "--kmax", "2", "--audit")
    assert len(calls) == 1 + 3


def test_internal_faults_exit_4(capsys, monkeypatch):
    closed_form, oracle = cycle_oracle.AUDITS["zero-cycles"]
    monkeypatch.setitem(cycle_oracle.AUDITS, "zero-cycles",
                        (closed_form, lambda *args: oracle(*args) + 1))
    for argv in (
        ("count", "zero-cycles", "--space", "pn", "--n", "1", "--q", "2",
         "--k", "2", "--audit"),
        ("zeta", "--space", "pn", "--n", "1", "--q", "2", "--l", "0",
         "--kmax", "2", "--audit"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 4 and out == ""
        assert "audit failed" in err
    # point counts that no space has: b_2 = (N_2 - N_1) / 2 is not an integer
    monkeypatch.setattr(field_census, "point_count",
                        lambda space, q, m: 3 if m == 1 else 4)
    code, out, err = run_cli(capsys, "census", "closed-points", "--space", "pn",
                             "--n", "1", "--q", "2", "--dmax", "2")
    assert code == 4 and out == ""
    assert "non-integral" in err


def test_plain_prime_power_q(capsys):
    argv = ("count", "zero-cycles", "--space", "pn", "--n", "2", "--k", "2")
    _, plain, _ = run_cli(capsys, *argv, "--q", "4")
    _, power, _ = run_cli(capsys, *argv, "--q", "2^2")
    assert plain == power and '"q": "2^2"' in plain
    doc = run_json(capsys, "census", "closed-points", "--space", "pn",
                   "--n", "1", "--q", "27", "--dmax", "1")
    assert doc["parameters"]["q"] == "3^3"
    assert doc["results"]["b"]["value"] == ["28"]
    # read by integer roots, not by trial division up to sqrt(q)
    start = time.perf_counter()
    doc = run_json(capsys, *argv, "--q", str(2 ** 61 - 1))
    assert time.perf_counter() - start < 1.0
    assert doc["parameters"]["q"] == str(2 ** 61 - 1)
    doc = run_json(capsys, *argv, "--q", str((2 ** 31 - 1) ** 2))
    assert doc["parameters"]["q"] == f"{2 ** 31 - 1}^2"


# The answered corpus entries without a wall bound (the slow runs carry
# one).  Those of the exact commands may not import numpy; one of a
# command that integrates, probed last, does
_CHEAP = [e.argv for e in cli_corpus.ENTRIES if e.code == 0 and not (e.check or e.wall)]
_QUADRATURE = ("norm", "delta", "divcount", "height nv", "census sh-set", "verify")
NUMPY_FREE_COMMANDS = [argv for argv in _CHEAP if not argv.startswith(_QUADRATURE)]

# After each step: the label, which of numpy, dataclasses and inspect are
# loaded, and the cyclezeta modules loaded so far
_NUMPY_PROBE = """
import contextlib, io, shlex, sys

def loaded(label):
    heavy = [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]
    ours = sorted(m for m in sys.modules if m.partition(".")[0] == "cyclezeta")
    print(label, ",".join(heavy) or "-", ",".join(ours))

import cyclezeta
loaded("import cyclezeta")
import cyclezeta.cli
loaded("import cyclezeta.cli")
for line in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cyclezeta.cli.main(shlex.split(line))
    assert code == 0, line
    loaded(line)
"""


@functools.lru_cache(maxsize=None)
def _probe(*commands):
    """{label: (numpy/dataclasses/inspect loaded, cyclezeta modules loaded)}
    in one fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *commands],
        capture_output=True, text=True, check=True,
    )
    seen = {}
    for line in proc.stdout.splitlines():
        label, heavy, modules = line.rsplit(" ", 2)
        seen[label] = (set(heavy.split(",")) - {"-"}, set(modules.split(",")))
    return seen


_PROBED = (*NUMPY_FREE_COMMANDS, "norm --poly z1")
_NUMPY_FREE_LABELS = ["import cyclezeta", "import cyclezeta.cli", *NUMPY_FREE_COMMANDS]


def test_exact_commands_do_not_import_numpy():
    seen = _probe(*_PROBED)
    assert not any("numpy" in seen[label][0] for label in _NUMPY_FREE_LABELS)
    assert "numpy" in seen[_PROBED[-1]][0]  # quadrature commands still load it


def test_no_command_imports_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize: about 11 ms a process
    seen = _probe(*_PROBED)
    assert not any("dataclasses" in heavy for heavy, _ in seen.values())
    assert set(seen) == {*_NUMPY_FREE_LABELS, _PROBED[-1]}
    # numpy itself imports inspect; nothing else may
    assert not any("inspect" in seen[label][0] for label in _NUMPY_FREE_LABELS)


# the first cheap entry of each subcommand, each probed in a process of its own
_ONE_PER_COMMAND = {}
for _argv in _CHEAP:
    if not _argv.startswith("--"):  # a top-level option such as --tsv comes first
        _ONE_PER_COMMAND.setdefault(_argv.split()[0], _argv)


def test_cli_loads_only_the_modules_its_command_runs():
    command = "bound constant --n 2 --l 1"
    seen = _probe(command)
    assert seen["import cyclezeta"][1] == {"cyclezeta"}
    assert seen["import cyclezeta.cli"][1] == {
        "cyclezeta", "cyclezeta.cli", "cyclezeta.errors", "cyclezeta.records",
        "cyclezeta.spaces",
    }
    unused = {"cyclezeta.cycle_oracle", "cyclezeta.zeta_series",
              "cyclezeta.multipoly", "cyclezeta.height_lab"}
    assert not seen[command][1] & unused
    # the oracle's closed-point cap reads spaces.point_count, so neither
    # it nor an audit loads the census module
    oracle_runs = ("enum zero-cycles --space pn --n 2 --q 2 --k 2",
                   "count divisors --space pn --n 2 --q 2 --k 2 --audit",
                   "zeta --space pn --n 2 --q 2 --l 0 --kmax 3 --audit")
    seen = _probe(*oracle_runs)
    assert "cyclezeta.cycle_oracle" in seen[oracle_runs[0]][1]
    assert not any("cyclezeta.field_census" in seen[line][1] for line in oracle_runs)
    assert set(_ONE_PER_COMMAND) == set(SUBCOMMANDS)
    for line in _ONE_PER_COMMAND.values():
        loaded = {m for m in _probe(line)[line][1] if m.startswith("cyclezeta.commands.")}
        assert loaded == {f"cyclezeta.commands.{line.split()[0]}"}, line


# runs the dispatcher as python -m does, then lists the cyclezeta modules
_RUN_AS_MAIN = """
import contextlib, io, runpy, sys
sys.argv[0] = "cyclezeta"
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    runpy.run_module("cyclezeta.cli", run_name="__main__", alter_sys=True)
print(" ".join(sorted(m for m in sys.modules if m.partition(".")[0] == "cyclezeta")))
"""


@pytest.mark.parametrize("argv", ["count zero-cycles --space pn --n 2 --q 3 --k 4",
                                  "lfun --n 1 --l 0 --s 4 --pmax 100", "--help"])
def test_running_the_cli_module_never_imports_it_by_name(argv):
    # under python -m the dispatcher is __main__; a command module that
    # imported cyclezeta.cli would compile it again, with a second
    # CommandResult class
    proc = subprocess.run([sys.executable, "-c", _RUN_AS_MAIN, *shlex.split(argv)],
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "cyclezeta.cli" not in loaded
    names = SUBCOMMANDS if argv == "--help" else [argv.split()[0]]
    assert {m for m in loaded if m.startswith("cyclezeta.commands.")} == {
        f"cyclezeta.commands.{name}" for name in names}


_NO_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now fails
from cyclezeta.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_missing_numpy_exits_5_with_one_line():
    for argv, code, message in (
            ("norm --poly z1", 5, "numpy is required for norm"),
            ("census sh-set --d 1 --h 4", 5, "numpy is required for census sh-set"),
            # an exact command's domain error stays a domain error
            ("lfun --n 3 --l 1 --s 9 --pmax 100", 2,
             "domain error: no closed form for l=1 on P3 (dim 3)")):
        proc = subprocess.run(
            [sys.executable, "-c", _NO_NUMPY, *shlex.split(argv)],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", message + "\n")


def test_delta_of_the_diagonal_form(capsys):
    # div(X1 Y2 - Y1 X2) is the diagonal of P1 x P1: lam (1 + 1) + 1/2
    doc = run_json(capsys, "delta", "--form", "X1*Y2-Y1*X2", "--lam", "1")
    delta = doc["results"]["delta"]
    assert abs(delta["value"] - 2.5) <= min(delta["error"], 1e-4)


# Every name the package exports, the lazily loaded numpy-backed ones
# included.
PACKAGE_EXPORTS = [
    "AbscissaReport", "ClosedPoint", "ClosedPointCensus", "CountingSystemSpec",
    "ExplicitConstant", "FormClass", "FunctionFieldPoint", "IntegerForm",
    "MultiPoly", "NormSampleSpec", "P1Power", "PrimePower", "Product",
    "ProjSpace", "QuadratureConfig", "RationalFunctionPoint", "SpaceDescriptor",
    "SparseSeries", "ZeroCycle", "abscissa_sequence", "closed_point_census",
    "closed_points", "count_arith_divisors_bounded", "count_ff_points",
    "counting_system_log_bound", "cycle_count", "delta_lambda", "divisor_count",
    "divisor_count_by_degree", "enum_divisors", "enum_zero_cycles",
    "explicit_constant_pn", "fiber_count", "height_ff", "height_nv",
    "height_nv_with_error", "lc_sigma_max", "local_zeta_series", "norms",
    "parse_affine_polynomial", "parse_integer_form", "point_count",
    "product_cycle_bound", "pushforward_bound", "pushforward_zero_cycle",
    "sh_set_census", "spec_z_zeta_partial", "top_cycle_count", "v_measure",
    "verify_norm_props", "zero_cycle_count",
]


def test_package_exports_resolve():
    for name in PACKAGE_EXPORTS:
        namespace = {}
        exec(f"from cyclezeta import {name}", namespace)
        assert namespace[name] is getattr(cyclezeta, name), name
    # a stale name in the export table fails here, not only on first use
    assert PACKAGE_EXPORTS == sorted(cyclezeta._LAZY_EXPORTS)
    assert set(PACKAGE_EXPORTS) <= set(dir(cyclezeta))
    with pytest.raises(AttributeError, match="no_such_name"):
        cyclezeta.no_such_name  # noqa: B018
