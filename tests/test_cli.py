import argparse
import functools
import json
import math
import random
import shlex
import subprocess
import sys
import time

import mpmath
import pytest

import cyclezeta
from cyclezeta import cycle_oracle, field_census, spaces, zeta_series
from cyclezeta.cli import _SPLIT_BITS, _int_text, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_count_divisors_example(capsys):
    doc = run_json(
        capsys, "count", "divisors", "--space", "p1xn", "--n", "2",
        "--q", "2", "--multidegree", "1,1",
    )
    assert doc["results"]["count"]["value"] == "15"
    assert doc["results"]["count"]["error"] == 0


def test_count_audit_flag(capsys):
    doc = run_json(
        capsys, "count", "zero-cycles", "--space", "pn", "--n", "1",
        "--q", "2", "--k", "2", "--audit",
    )
    assert doc["results"]["count"]["value"] == "7"
    assert "audit" in doc["results"]


def test_zeta_example(capsys):
    doc = run_json(
        capsys, "zeta", "--space", "pn", "--n", "1", "--q", "2",
        "--l", "0", "--kmax", "3",
    )
    assert doc["results"]["coefficients"]["value"] == ["1", "3", "7", "15"]
    assert doc["results"]["exponents"]["value"] == [0, 1, 2, 3]


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
        "--n", "2", "--q", "2", "--k", "2",
    )
    assert "elapsed_seconds" in doc


def test_tsv_output(capsys):
    code, out, _ = run_cli(
        capsys, "--tsv", "count", "divisors", "--space", "p1xn", "--n", "2",
        "--q", "3", "--multidegree", "1,0",
    )
    assert code == 0
    assert out.splitlines()[0].split("\t")[:2] == ["count", "4"]


def test_exit_codes(capsys):
    code, _, err = run_cli(
        capsys, "count", "divisors", "--space", "p1xn", "--n", "2",
        "--q", "6", "--multidegree", "1,1",
    )
    assert code == 2 and "not prime" in err
    code, _, err = run_cli(
        capsys, "enum", "divisors", "--space", "p1xn", "--n", "4",
        "--q", "5", "--multidegree", "4,4,4,4",
    )
    assert code == 3
    with pytest.raises(SystemExit) as exc:
        main(["count", "nonsense", "--space", "pn", "--n", "1", "--q", "2"])
    assert exc.value.code == 1


def test_counting_system_bound_past_float_overflow(capsys):
    # B(40) = 41^2 2^1681 overflows a float; its log does not
    doc = run_json(capsys, "bound", "counting-system", "--n", "3", "--l", "1",
                   "--h", "40")
    assert math.isclose(doc["results"]["log2_bound"]["value"],
                        2 * (2 * math.log2(41) + 41 ** 2) + 40 ** 2, rel_tol=1e-12)
    code, out, err = run_cli(capsys, "bound", "counting-system", "--n", "3", "--l", "1",
                             "--h", "1e200")
    assert code == 3 and out == "" and "float range" in err


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


def test_enum_outputs_forms(capsys):
    doc = run_json(
        capsys, "enum", "divisors", "--space", "pn", "--n", "1",
        "--q", "2", "--multidegree", "1",
    )
    assert doc["results"]["count"]["value"] == "3"
    assert len(doc["results"]["forms"]["value"]) == 3


def test_lfun_command(capsys):
    doc = run_json(capsys, "lfun", "--n", "1", "--l", "0", "--s", "4",
                   "--pmax", "50")
    manual = 1.0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        manual *= 1 / ((1 - p ** -4.0) * (1 - p ** -3.0))
    assert doc["results"]["real"]["value"] == pytest.approx(manual, rel=1e-9)


def test_lfun_refuses_a_negative_pmax(capsys):
    code, out, err = run_cli(capsys, "lfun", "--n", "1", "--l", "0", "--s", "3.5",
                             "--pmax", "-5")
    assert code == 2 and out == ""
    assert err == "domain error: pmax must be >= 0\n"
    # pmax 0 and 1 are the empty product
    for pmax in ("0", "1"):
        code, out, _ = run_cli(capsys, "lfun", "--n", "1", "--l", "0", "--s", "3.5",
                               "--pmax", pmax)
        assert code == 0 and out == (
            '{"command": "lfun", "parameters": {"l": 0, "n": 1, "pmax": %s, "s": 3.5}, '
            '"provenance": "partial Euler product of exact cellular local factors", '
            '"results": {"imag": {"error": 2.4854883252692925, "value": 0.0}, '
            '"real": {"error": 2.4854883252692925, "value": 1.0}}}\n' % pmax)


@pytest.mark.parametrize("n, l, named", [
    (3, 1, "no closed form for l=1 on P3 (dim 3)"),
    (4, 2, "no closed form for l=2 on P4 (dim 4)"),
    (2, 3, "cycle dimension l=3 outside 0..2"),
    (1, -1, "cycle dimension l=-1 outside 0..1"),
])
def test_lfun_refuses_a_cycle_dimension_without_a_closed_form(capsys, n, l, named):
    code, out, err = run_cli(capsys, "lfun", "--n", str(n), "--l", str(l),
                             "--s", "9", "--pmax", "100")
    assert code == 2 and out == ""
    assert err == f"domain error: {named}\n"


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


def test_norm_command(capsys):
    doc = run_json(capsys, "norm", "--poly", "3*z1*z2 - 4", "--nodes", "16")
    assert doc["results"]["inf"]["value"] == 4.0
    assert doc["results"]["two"]["value"] == 5.0


def test_delta_command(capsys):
    doc = run_json(capsys, "delta", "--form", "X1 - Y1", "--lam", "1",
                   "--nodes", "128")
    assert doc["results"]["delta"]["value"] == pytest.approx(
        1 + 0.5 * math.log(2), abs=1e-3
    )


def test_divcount_command(capsys):
    doc = run_json(
        capsys, "divcount", "--n", "1", "--lam", "1",
        "--h", str(math.log(3)), "--nodes", "64",
    )
    assert doc["results"]["count"]["value"] == "5"
    assert doc["results"]["borderline"]["value"] == []


def test_height_commands(capsys):
    doc = run_json(capsys, "height", "ff", "--q", "2", "--coords", "1,t^2+1")
    assert doc["results"]["height"]["value"] == "2"
    doc = run_json(capsys, "height", "nv", "--coords", "1,z1", "--d", "1",
                   "--nodes", "128")
    assert doc["results"]["height"]["value"] == pytest.approx(
        1 + 0.5 * math.log(2), abs=1e-3
    )


def test_grid_refuses_radius_powers_past_the_float_range(capsys):
    # 53.65^178 at the largest radius of 64 nodes is a float, 53.65^179 not
    doc = run_json(capsys, "height", "nv", "--coords", "1,z1^178+z1", "--d", "1")
    assert math.isfinite(doc["results"]["height"]["value"])
    for coords, named in [("1,z1^200+z1", "degree 200 on 64 nodes"),
                          ("1,z1^179+z1", "degree 179 on 64 nodes"),
                          ("1,(10^300)*z1^10", "coefficients too large")]:
        code, out, err = run_cli(capsys, "height", "nv", "--coords", coords, "--d", "1")
        assert code == 3 and out == ""
        assert err.startswith("size cap exceeded: " + named)
    code, out, err = run_cli(capsys, "height", "nv", "--coords", "1,z1^120", "--d", "1",
                             "--nodes", "512")
    assert code == 3 and "degree 120 on 512 nodes" in err and "at most degree 117" in err


def test_census_commands(capsys):
    doc = run_json(capsys, "census", "closed-points", "--space", "pn",
                   "--n", "1", "--q", "2", "--dmax", "2")
    assert doc["results"]["b"]["value"] == ["3", "1"]
    doc = run_json(capsys, "census", "ff-points", "--q", "2", "--n", "1",
                   "--h", "1")
    assert doc["results"]["count"]["value"] == "9"
    doc = run_json(capsys, "census", "sh-set", "--d", "1", "--a", "0.25",
                   "--h", "4", "--nodes", "48")
    assert doc["results"]["count"]["value"] == "841"
    assert doc["results"]["all_heights_ok"]["value"] is True


def test_verify_command_reports_counts(capsys):
    doc = run_json(capsys, "verify", "norms", "--samples", "4", "--seed", "3",
                   "--nvars", "1", "--maxdeg", "3", "--nodes", "64")
    assert doc["results"]["fail"]["value"] == "0"
    assert int(doc["results"]["checks"]["value"]) == 20


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


# Full stdout of audited and census commands and of the README examples:
# the echoed parameters, the provenance strings and the ``audit`` key are
# part of the output contract.  ``verify norms`` runs at 3 samples and 16
# nodes; the README's 100 samples at 64 nodes take about 90 s.
PINNED_OUTPUTS = [
    (
        'count divisors --space p1xn --n 2 --q 2 --multidegree 1,1 --audit',
        '{"command": "count", "parameters": {"audit": true, '
        '"k": 0, "kind": "divisors", "l": 0, '
        '"multidegree": [1, 1], "n": 2, "q": "2", "space": "p1xn"}, '
        '"provenance": "closed-form multidegree divisor count", '
        '"results": {"audit": {"error": 0, '
        '"value": "oracle enumeration matched"}, "count": {"error": 0, '
        '"value": "15"}}}\n'
    ),
    (
        'count divisors --space pn --n 2 --q 2 --k 2 --audit',
        '{"command": "count", "parameters": {"audit": true, '
        '"k": 2, "kind": "divisors", "l": 0, "n": 2, '
        '"q": "2", "space": "pn"}, '
        '"provenance": "closed-form divisor count by polarization degree", '
        '"results": {"audit": {"error": 0, '
        '"value": "oracle enumeration matched"}, "count": {"error": 0, '
        '"value": "63"}}}\n'
    ),
    (
        'count divisors --space p1xn --n 2 --q 2 --k 2 --audit',
        '{"command": "count", "parameters": {"audit": true, '
        '"k": 2, "kind": "divisors", "l": 0, "n": 2, '
        '"q": "2", "space": "p1xn"}, '
        '"provenance": "closed-form divisor count by polarization degree", '
        '"results": {"audit": {"error": 0, '
        '"value": "oracle enumeration matched"}, "count": {"error": 0, '
        '"value": "29"}}}\n'
    ),
    (
        'count zero-cycles --space pn --n 2 --q 2 --k 2 --audit',
        '{"command": "count", "parameters": {"audit": true, '
        '"k": 2, "kind": "zero-cycles", "l": 0, "n": 2, '
        '"q": "2", "space": "pn"}, "provenance": "product of the cell '
        'factors (1 - q^j T)^(-b_j)", "results": {"audit": {"error": 0, '
        '"value": "oracle enumeration matched"}, "count": {"error": 0, '
        '"value": "35"}}}\n'
    ),
    (
        'count top-cycles --space pn --n 2 --q 2 --k 2',
        '{"command": "count", "parameters": {"audit": false, '
        '"k": 2, "kind": "top-cycles", "l": 0, "n": 2, '
        '"q": "2", "space": "pn"}, '
        '"provenance": "divisibility by the top polarization degree", '
        '"results": {"count": {"error": 0, "value": "1"}}}\n'
    ),
    (
        'count cycles --space pn --n 2 --q 2 --l 1 --k 2 --audit',
        '{"command": "count", "parameters": {"audit": true, '
        '"k": 2, "kind": "cycles", "l": 1, "n": 2, '
        '"q": "2", "space": "pn"}, '
        '"provenance": "closed-form dispatch on cycle dimension", '
        '"results": {"audit": {"error": 0, '
        '"value": "oracle enumeration matched"}, "count": {"error": 0, '
        '"value": "63"}}}\n'
    ),
    (
        'zeta --space pn --n 2 --q 2 --l 0 --kmax 3 --audit',
        '{"command": "zeta", "parameters": {"audit": true, '
        '"kmax": 3, "l": 0, "n": 2, "q": "2", '
        '"space": "pn"}, '
        '"provenance": "exact cycle counts at sparse exponents", '
        '"results": {"audit": {"error": 0, '
        '"value": "oracle enumeration matched"}, '
        '"coefficients": {"error": 0, "value": ["1", "7", "35", "155"]}, '
        '"exponents": {"error": 0, "value": [0, 1, 2, 3]}}}\n'
    ),
    (
        'zeta --space pn --n 2 --q 2 --l 1 --kmax 2 --audit',
        '{"command": "zeta", "parameters": {"audit": true, '
        '"kmax": 2, "l": 1, "n": 2, "q": "2", '
        '"space": "pn"}, '
        '"provenance": "exact cycle counts at sparse exponents", '
        '"results": {"audit": {"error": 0, '
        '"value": "oracle enumeration matched"}, '
        '"coefficients": {"error": 0, "value": ["1", "7", "63"]}, '
        '"exponents": {"error": 0, "value": [0, 1, 4]}}}\n'
    ),
    (
        'zeta --space pn --n 2 --q 2 --l 2 --kmax 3 --audit',
        '{"command": "zeta", "parameters": {"audit": true, '
        '"kmax": 3, "l": 2, "n": 2, "q": "2", '
        '"space": "pn"}, '
        '"provenance": "exact cycle counts at sparse exponents", '
        '"results": {"coefficients": {"error": 0, "value": ["1", "1", "1", '
        '"1"]}, "exponents": {"error": 0, "value": [0, 1, 8, 27]}}}\n'
    ),
    (
        'census closed-points --space pn --n 2 --q 2 --dmax 4',
        '{"command": "census", "parameters": {"a": 0.25, '
        '"d": 1, "dmax": 4, "h": 0.0, '
        '"kind": "closed-points", "mc_samples": 1000000, "n": 2, '
        '"nodes": 64, "q": "2", "scheme": "tensor_gauss", "space": "pn", '
        '"stream": false, "tolerance": 0.001}, '
        '"provenance": "Moebius inversion of extension point counts", '
        '"results": {"b": {"error": 0, "value": ["7", "7", "22", "63"]}}}\n'
    ),
    (
        'bound constant --n 2 --l 1',
        '{"command": "bound", "parameters": {'
        '"deg_c": 1.0, "deg_d": 1.0, "deg_e": 1.0, "deg_pi": 1, "h": '
        '1.0, "kind": "constant", "l": 1, "mults": [1], "n": 2, "q": '
        '"2", "theta_d": 1, "theta_e": 1}, "provenance": "pinned '
        'recursion over boundary strata", "results": {"constant": '
        '{"error": 0, "value": "37"}, "derivation": {"error": 0, '
        '"value": ["C(1,1) = 1  (top-dimensional base case)", "C(2,1) = '
        'C(1,1) + 2^2 * C\'(2,1) = 1 + 4 * 9 = 37"]}}}\n'
    ),
    (
        'lfun --n 1 --l 0 --s 4 --pmax 100000',
        '{"command": "lfun", "parameters": {"l": 0, '
        '"n": 1, "pmax": 100000, "s": 4.0}, "provenance": "partial Euler '
        'product of exact cellular local factors", "results": '
        '{"imag": {"error": 8.722543055870286e-11, "value": 0.0}, '
        '"real": {"error": 8.722543055870286e-11, "value": '
        '1.301014114527025}}}\n'
    ),
    (
        'speczeta --s 2 --cutoff 10000 --audit',
        '{"command": "speczeta", "parameters": {"audit": true, '
        '"cutoff": 10000, "s": 2.0}, '
        '"provenance": "cycle enumeration through the norm bijection", '
        '"results": {"partial_sum": {"error": 7.30453063301466e-16, "value": '
        '1.6448340718480599}, "tail_bound": {"error": 0.0, "value": '
        '0.0001}}}\n'
    ),
    (
        'norm --poly "3*z1*z2 - 4" --nodes 32',
        '{"command": "norm", "parameters": {'
        '"mc_samples": 1000000, "nodes": 32, "poly": "3*z1*z2 - 4", '
        '"scheme": "tensor_gauss", "tolerance": 0.001}, "provenance": '
        '"coefficient norms exact; v by Fubini-Study quadrature", '
        '"results": {"inf": {"error": 0.0, "value": 4.0}, '
        '"lc_sigma_max": {"error": 0.0, "value": 3.0}, "two": {"error": '
        '0.0, "value": 5.0}, "v": {"error": 1.596014028119039e-11, '
        '"value": 5.790225929224306}}}\n'
    ),
    (
        'delta --form "X1^2 - 3*X1*Y1 + Y1^2" --lam 1',
        '{"command": "delta", "parameters": {"form": '
        '"X1^2 - 3*X1*Y1 + Y1^2", "lam": 1.0, "mc_samples": 1000000, '
        '"nodes": 64, "scheme": "tensor_gauss", "tolerance": 0.001}, '
        '"provenance": "lambda-degree term plus Fubini-Study integral", '
        '"results": {"delta": {"error": 2.09861228866811e-12, "value": '
        '3.09861228866811}, "multidegree": {"error": 0, "value": '
        '[2]}}}\n'
    ),
    (
        'divcount --n 1 --lam 1 --h 1.0986122886681098',
        '{"command": "divcount", "parameters": {'
        '"h": 1.0986122886681098, "lam": 1.0, "mc_samples": 1000000, '
        '"n": 1, "nodes": 64, "scheme": "tensor_gauss", "search_cap": '
        '2000000, "tolerance": 0.001}, "provenance": "exhaustive '
        'certified-region search with guard band", "results": '
        '{"borderline": {"error": 0, "value": []}, "coeff_box": '
        '{"error": 0, "value": "3"}, "count": {"error": 0, "value": '
        '"5"}, "log_certified_bound": {"error": 0.0, "value": '
        '4.82498726282649}}}\n'
    ),
    (
        'height nv --coords 1,z1 --d 1 --nodes 128',
        '{"command": "height", "parameters": {'
        '"coords": "1,z1", "d": 1, "kind": "nv", "mc_samples": 1000000, '
        '"nodes": 128, "q": "2", "scheme": "tensor_gauss", "tolerance": '
        '0.001}, "provenance": "infinity degrees plus Fubini-Study '
        'integral", "results": {"height": {"error": 5.678083896920594e-05, '
        '"value": 1.3465544705452155}}}\n'
    ),
    (
        'height ff --coords 1,t^2+1 --q 2',
        '{"command": "height", "parameters": {'
        '"coords": "1,t^2+1", "d": 1, "kind": "ff", "mc_samples": '
        '1000000, "nodes": 64, "q": "2", "scheme": "tensor_gauss", '
        '"tolerance": 0.001}, "provenance": "max coordinate degree after '
        'normalization", "results": {"height": {"error": 0, "value": '
        '"2"}}}\n'
    ),
    (
        'census ff-points --q 2 --n 1 --h 2 --stream',
        '{"coords": ["0", "1"], "height": 0}\n'
        '{"coords": ["t^2", "1"], "height": 2}\n'
        '{"coords": ["t^2", "1 + t^2"], "height": 2}\n'
        '{"coords": ["t^2", "1 + t"], "height": 2}\n'
        '{"coords": ["t^2", "1 + t + t^2"], "height": 2}\n'
        '{"coords": ["t", "1"], "height": 1}\n'
        '{"coords": ["t", "1 + t^2"], "height": 2}\n'
        '{"coords": ["t", "1 + t"], "height": 1}\n'
        '{"coords": ["t", "1 + t + t^2"], "height": 2}\n'
        '{"coords": ["t + t^2", "1"], "height": 2}\n'
        '{"coords": ["t + t^2", "1 + t + t^2"], "height": 2}\n'
        '{"coords": ["1", "0"], "height": 0}\n'
        '{"coords": ["1", "t^2"], "height": 2}\n'
        '{"coords": ["1", "t"], "height": 1}\n'
        '{"coords": ["1", "t + t^2"], "height": 2}\n'
        '{"coords": ["1", "1"], "height": 0}\n'
        '{"coords": ["1", "1 + t^2"], "height": 2}\n'
        '{"coords": ["1", "1 + t"], "height": 1}\n'
        '{"coords": ["1", "1 + t + t^2"], "height": 2}\n'
        '{"coords": ["1 + t^2", "t^2"], "height": 2}\n'
        '{"coords": ["1 + t^2", "t"], "height": 2}\n'
        '{"coords": ["1 + t^2", "1"], "height": 2}\n'
        '{"coords": ["1 + t^2", "1 + t + t^2"], "height": 2}\n'
        '{"coords": ["1 + t", "t^2"], "height": 2}\n'
        '{"coords": ["1 + t", "t"], "height": 1}\n'
        '{"coords": ["1 + t", "1"], "height": 1}\n'
        '{"coords": ["1 + t", "1 + t + t^2"], "height": 2}\n'
        '{"coords": ["1 + t + t^2", "t^2"], "height": 2}\n'
        '{"coords": ["1 + t + t^2", "t"], "height": 2}\n'
        '{"coords": ["1 + t + t^2", "t + t^2"], "height": 2}\n'
        '{"coords": ["1 + t + t^2", "1"], "height": 2}\n'
        '{"coords": ["1 + t + t^2", "1 + t^2"], "height": 2}\n'
        '{"coords": ["1 + t + t^2", "1 + t"], "height": 2}\n'
    ),
    (
        'census sh-set --d 1 --a 0.25 --h 4',
        '{"command": "census", "parameters": {"a": 0.25, "d": 1, '
        '"dmax": 1, "h": 4.0, "kind": "sh-set", '
        '"mc_samples": 1000000, "n": 1, "nodes": 64, "q": "2", "scheme": '
        '"tensor_gauss", "space": "pn", "stream": false, "tolerance": '
        '0.001}, "provenance": "exhaustive box census with numerical '
        'height check", "results": {"all_heights_ok": {"error": 0, '
        '"value": true}, "analytic_lower_bound": {"error": 0.0, "value": '
        '2.718281828459045}, "coeff_box": {"error": 0, "value": "14"}, '
        '"count": {"error": 0, "value": "841"}, "max_height": {"error": '
        '0.0007621847286256589, "value": 3.986130506979503}}}\n'
    ),
    (
        'verify norms --samples 3 --seed 7 --nvars 2 --maxdeg 3 --nodes 16',
        '{"command": "verify", "parameters": {"coeff_bound": 10, '
        '"kind": "norms", "maxdeg": 3, '
        '"mc_samples": 1000000, "nodes": 16, "nvars": 2, "samples": 3, '
        '"scheme": "tensor_gauss", "seed": 7, "tolerance": 0.001}, '
        '"provenance": "seeded random polynomials against norm '
        'inequalities", "results": {"checks": {"error": 0, "value": '
        '"15"}, "fail": {"error": 0, "value": "0"}, "failures": '
        '{"error": 0, "value": []}, "pass": {"error": 0, "value": "15"}, '
        '"warn": {"error": 0, "value": "0"}}}\n'
    ),
]


@pytest.mark.parametrize("argv, expected", PINNED_OUTPUTS)
def test_pinned_outputs_byte_identical(capsys, argv, expected):
    code, out, err = run_cli(capsys, *shlex.split(argv))
    assert code == 0, err
    assert out == expected


def _pinned(prefix):
    return next(json.loads(out) for argv, out in PINNED_OUTPUTS
                if argv.startswith(prefix))["results"]


def test_pinned_integrals_match_closed_forms():
    # v(3 z1 z2 - 4) = 4 exp(a log a / (2 (a - 1))) with a = 9/16, and
    # z^2 - 3z + 1 has roots c, 1/c with (1 + c^2)(1 + c^-2) = 9
    a = 9 / 16
    v = _pinned("norm")["v"]
    assert abs(v["value"] - 4 * math.exp(0.5 * a * math.log(a) / (a - 1))) <= v["error"]
    assert v["error"] < 1e-9
    delta = _pinned("delta")["delta"]
    assert abs(delta["value"] - (2 + math.log(3))) <= delta["error"]
    assert delta["error"] < 1e-9


def test_pinned_lfun_error_bounds_the_zeta_product():
    # on P^1 the Euler product of the 0-cycle zetas is zeta(s) zeta(s - 1)
    real = _pinned("lfun")["real"]
    exact = float(mpmath.zeta(4) * mpmath.zeta(3))
    assert abs(real["value"] - exact) <= real["error"] < 1e-9


def test_pinned_speczeta_error_bounds_the_direct_sum():
    partial = _pinned("speczeta")["partial_sum"]
    with mpmath.workdps(40):
        exact = mpmath.fsum(mpmath.mpf(m) ** -2 for m in range(1, 10001))
    assert abs(partial["value"] - exact) <= partial["error"] < 1e-15


def test_pinned_height_error_bounds_the_closed_form():
    # (1 : z) has height 1 + integral of log max(1, |z|) = 1 + log(2)/2
    height = _pinned("height nv")["height"]
    assert abs(height["value"] - (1 + 0.5 * math.log(2))) <= height["error"] < 1e-4


def test_pinned_sh_set_height_agrees_with_a_finer_grid(capsys):
    # the census at 512 nodes per axis (8x the angles and radii)
    pinned = _pinned("census sh-set")["max_height"]
    doc = run_json(capsys, "census", "sh-set", "--d", "1", "--a", "0.25",
                   "--h", "4", "--nodes", "512")
    fine = doc["results"]["max_height"]["value"]
    assert abs(fine - pinned["value"]) <= pinned["error"]


def test_lfun_refuses_uncertified_half_plane(capsys):
    # s = n + 1, the abscissa of the 0-cycle product on P^1: the bound on
    # the primes above pmax diverges
    code, out, err = run_cli(capsys, "lfun", "--n", "1", "--l", "0", "--s", "2",
                             "--pmax", "10")
    assert code == 2 and out == ""
    assert "not certified" in err
    # just above it the product is answered, and its error covers
    # zeta(s) zeta(s - 1)
    doc = run_json(capsys, "lfun", "--n", "1", "--l", "0", "--s", "2.5",
                   "--pmax", "1000")
    real = doc["results"]["real"]
    exact = float(mpmath.zeta(2.5) * mpmath.zeta(1.5))
    assert abs(real["value"] - exact) <= real["error"]


@pytest.mark.parametrize("argv", [
    "lfun --n 1 --l 0 --s 4 --pmax 10000001",
    "lfun --n 1 --l 0 --s 4 --pmax 1000000000000",
    "lfun --n 1 --l 1 --s 2.5 --pmax 10000001",
    "speczeta --s 2 --cutoff 10000001",
    "speczeta --s 2 --cutoff 2000000 --audit",
])
def test_oversized_ranges_refused(capsys, monkeypatch, argv):
    # refused before the sieve or the sum starts
    monkeypatch.setattr(spaces, "primes_upto", None)
    monkeypatch.setattr(zeta_series, "primes_upto", None)
    code, out, err = run_cli(capsys, *shlex.split(argv))
    assert code == 3 and out == ""
    assert err.startswith("size cap exceeded")


_PEAK_RSS = """
import resource, sys
from cyclezeta.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024, file=sys.stderr)
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
    # q^C(40,20): about 17 GB if it were built
    "count divisors --space pn --n 20 --q 3 --multidegree 20",
    "zeta --space pn --n 2 --q 3 --l 0 --kmax 100000",
    "count zero-cycles --space pn --n 0 --q 2 --k 1000000000",
    # each n_k is under the cap, the whole sequence is not
    "zeta --space pn --n 2 --q 2 --l 1 --kmax 2000",
    # one small int per degree, but a million of them
    "zeta --space pn --n 1 --q 2 --l 1 --kmax 1000000",
])
def test_oversized_closed_forms_refused(capsys, argv):
    code, out, err = run_cli(capsys, *shlex.split(argv))
    assert code == 3 and out == ""
    assert err.startswith("size cap exceeded")


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
    for q in ("6", "1", "0", "-4", str((2 ** 31 - 1) * (2 ** 31 - 19))):
        code, out, err = run_cli(capsys, *argv, "--q", q)
        assert code == 2 and out == ""
        assert f"q = {q} is not prime or a prime power" in err


# One exact command per kind; none of them may import numpy.
NUMPY_FREE_COMMANDS = [
    "count zero-cycles --space pn --n 2 --q 3 --k 4",
    "enum divisors --space pn --n 2 --q 2 --multidegree 1",
    "zeta --space pn --n 1 --q 2 --l 0 --kmax 3",
    "bound constant --n 2 --l 1",
    "lfun --n 1 --l 0 --s 4 --pmax 1000",
    "speczeta --s 2 --cutoff 1000 --audit",
    "height ff --coords 1,t^2+1 --q 2",
    "census closed-points --space pn --n 2 --q 2 --dmax 3",
    "census ff-points --q 2 --n 1 --h 1",
    # closed points of degree 2 and 3 over F_2: F_4 and F_8 need no numpy
    "enum zero-cycles --space pn --n 2 --q 2 --k 2",
    "zeta --space pn --n 2 --q 2 --l 0 --kmax 3 --audit",
]

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


_PROBED = (*NUMPY_FREE_COMMANDS, "norm --poly z1 --nodes 8")
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


_NO_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now fails
from cyclezeta.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_missing_numpy_exits_5_with_one_line():
    for argv, name in (("norm --poly z1", "norm"),
                       ("census sh-set --d 1 --h 4", "census sh-set")):
        proc = subprocess.run(
            [sys.executable, "-c", _NO_NUMPY, *shlex.split(argv)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 5
        assert proc.stdout == ""
        assert proc.stderr == f"numpy is required for {name}\n"


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
