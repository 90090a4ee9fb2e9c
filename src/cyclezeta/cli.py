"""Exact cycle counts over finite fields, cycle zeta series, Euler
products and Fubini-Study heights.

Each command prints one JSON document whose floats carry an error (0
when exact).  Exit codes: 0 success, 1 usage error, 2 domain error, 3
size-cap refusal, 4 internal fault (an --audit mismatch or a
non-integral exact count), 5 numpy missing.  Polynomials use integer
coefficients, + - * ^ and parentheses over z1..z9 (affine), X1, Y1, ..,
X9, Y9 (forms) or t (function-field coordinates), with explicit
products: 3*z1^2, X1*Y2.
"""

# Output: ``--tsv`` switches tabular commands to tab-separated rows;
# ``census ... --stream`` emits one JSON line per census member.  Big
# integers are serialized as decimal strings, every randomized command
# requires ``--seed``, and output is byte-identical across runs for
# identical arguments and seed; wall-clock timing is only attached with
# ``--timing``.  ``--q`` takes a prime power as ``p^e`` or as a plain
# integer (4 = 2^2).  Exponents are literal non-negative integers; float
# options refuse nan and infinities.
#
# Each process does only the set-up its command needs.  This module is
# the dispatcher: it holds what every command runs (the command table,
# the parser, ``--q``, the digit limit, the output and the exit codes)
# and loads just ``errors`` and ``spaces`` at start-up.  Each subcommand
# is one module, ``commands/<name>.py``, whose ``add_arguments(p)`` sets
# the function that runs it; what two or more share is in
# ``commands/__init__``.  The kinds of ``count``, ``enum``, ``bound``,
# ``height`` and ``census`` are sub-parsers, each holding only the options
# its kind reads: any other option, or an abbreviated one, is a usage
# error reported by that kind's parser, and the echoed parameters are the
# options used.
# ``build_parser`` imports the one command module named on the command
# line (all twelve for ``--help``, a missing or an unknown command, so
# usage and errors read the same).  A process without a bytecode cache
# compiles every module it imports from source, so a command compiles
# only its own handler, not the other eleven.  No module uses the
# standard library's data classes, whose import pulls in ``inspect`` and
# ``ast``; the value classes derive from ``records``.  numpy is imported
# only where arrays are computed: by the quadrature commands (``norm``,
# ``delta``, ``divcount``, ``height nv``, ``census sh-set``, ``verify``),
# which import ``fs_norms``/``quadrature`` when they run, and by the table
# build of an extension field of order above 32.  Smaller fields, such as
# the F_4 and F_8 of ``enum zero-cycles`` and zero-cycle ``--audit``s over
# F_2, are built without it, and the other commands never load it.

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
import time

from .errors import (
    AuditMismatch,
    CycleZetaError,
    DomainError,
    IntegralityError,
    SizeCapExceeded,
)
from .spaces import BIT_CAP, PRIME_CAP, PrimePower, is_prime

# decimal digits of the largest exact count the closed forms may build
_MAX_DIGITS = math.ceil(BIT_CAP * math.log10(2)) + 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)

    def parse_known_args(self, args=None, namespace=None):
        # argparse runs each command and kind parser through this and hands
        # their unknown options up to the top level; each parser reports
        # its own instead, so the usage line shows the options it takes
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _emit(result, args) -> None:
    if getattr(args, "tsv", False):
        for name, cell in result.results.items():
            print(f"{name}\t{cell['value']}\t{cell['error']}")
        return
    doc = {
        "command": result.command,
        "parameters": result.parameters,
        "results": result.results,
        "provenance": result.provenance,
    }
    if result.elapsed is not None:
        doc["elapsed_seconds"] = round(result.elapsed, 6)
    print(json.dumps(doc, sort_keys=True))


def _exact_root(q: int, e: int) -> int | None:
    """The integer r with r^e = q, or None; needs log2(q) / e < 1000."""
    x = math.log2(q) / e
    if x < 30:  # the float estimate is within 1e-3 of the root
        r = round(2.0 ** x)
    else:  # integer Newton steps decrease to floor(q^(1/e)) from above it
        r = int(2.0 ** x * (1 + 1e-9)) + 1
        while (s := ((e - 1) * r + q // r ** (e - 1)) // e) < r:
            r = s
    # the residue mod 2^64 rules out almost every e without a full power
    return r if pow(r, e, 1 << 64) == q % (1 << 64) and r ** e == q else None


def _prime_power(text: str) -> PrimePower:
    """Read ``p^e`` or a plain prime power such as 4 (= 2^2)."""
    if "^" in text:
        p, e = text.split("^", 1)
        return PrimePower(int(p), int(e))
    q = int(text)
    if q > 1:
        # every exact root of q is a power of the one for the largest e,
        # so only that one can be prime.  Roots of PRIME_CAP and above
        # cannot be proven prime: their e are left to the test of q
        # itself, which refuses such q.
        e_min = max(2, math.ceil(math.log2(q) / math.log2(PRIME_CAP)))
        for e in range(q.bit_length() - 1, e_min - 1, -1):
            p = _exact_root(q, e)
            if p is not None:
                if is_prime(p):
                    return PrimePower(p, e)
                break
        else:
            if is_prime(q):
                return PrimePower(q)
    raise DomainError(f"q = {q} is not prime or a prime power")


# name -> help, in the order --help lists them; the command runs from
# the module ``commands.<name>``
_COMMANDS = {
    "count": "exact cycle counts",
    "enum": "exhaustive enumeration (oracle)",
    "bound": "counting bounds and pinned constants",
    "zeta": "truncated cycle zeta series",
    "lfun": "partial Euler product over primes",
    "speczeta": "integer-spectrum zeta partial sum",
    "norm": "coefficient norms and the v measure",
    "delta": "arithmetic degree of an integer form",
    "divcount": "bounded arithmetic-degree divisor census",
    "height": "heights of projective points",
    "census": "closed-point and bounded-height censuses",
    "verify": "property verification drivers",
}
_FLAGS = ("--tsv", "--timing")


def _named_command(argv) -> str | None:
    """The subcommand argv runs, if its parser alone can read argv.

    The top-level options are all flags, so the command is the first token
    other than those flags.  Anything else there (``--help``, an unknown
    option or command, no command at all) is left to the full parser, whose
    usage and error messages it prints.
    """
    for token in argv:
        if token not in _FLAGS:
            return token if token in _COMMANDS else None
    return None


def build_parser(argv=None) -> _Parser:
    """The parser for argv: the top level and the one subcommand it names,
    whose module alone is imported.

    Without argv, or when argv names no subcommand, every subcommand is
    built.
    """
    command = None if argv is None else _named_command(argv)
    parser = _Parser(prog="cyclezeta", description=__doc__, allow_abbrev=False)
    parser.add_argument("--tsv", action="store_true", help="tabular output")
    parser.add_argument("--timing", action="store_true",
                        help="attach wall-clock time (breaks byte-identity)")
    # a one-command parser still names every command in its usage line
    choices = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=choices)
    for name, help_text in _COMMANDS.items():
        if command in (None, name):
            module = importlib.import_module(f".commands.{name}", __package__)
            p = sub.add_parser(name, help=help_text, allow_abbrev=False)
            module.add_arguments(p)
    return parser


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed standard output (``| head``): exit as a tool
        # killed by SIGPIPE would, and point stdout at devnull so that the
        # flush at shutdown prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _main(argv) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    start = time.perf_counter()
    try:
        if isinstance(getattr(args, "q", None), str):
            args.q = _prime_power(args.q)
        # exact counts run up to BIT_CAP bits; the arguments
        # are read by now, so they keep Python's digit limit (Python 3.10
        # has neither)
        set_digits = getattr(sys, "set_int_max_str_digits", None)
        if set_digits is not None and 0 < sys.get_int_max_str_digits() < _MAX_DIGITS:
            set_digits(_MAX_DIGITS)
        result = args.func(args)
    except SizeCapExceeded as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (AuditMismatch, IntegralityError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (CycleZetaError, ValueError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        command = " ".join(filter(None, [args.command, getattr(args, "kind", None)]))
        print(f"numpy is required for {command}", file=sys.stderr)
        return 5
    if result is not None:
        if getattr(args, "timing", False):
            result.elapsed = time.perf_counter() - start
        _emit(result, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
