"""What two or more subcommands share: the result record, decimal text of
big integers, the echoed parameters, argument helpers and the audit.

Each subcommand is one module here whose ``add_arguments(p)`` sets the
function that runs it (one per kind, where the command has kinds).
That function imports the modules that compute its results, so that
parsing, a usage error or ``--help`` loads none of them.
``cyclezeta.cli`` imports only the one argv names.  No
module here imports ``cyclezeta.cli``: under ``python -m cyclezeta.cli``
that module runs as ``__main__``, and importing it by name would compile
it a second time.
"""

from __future__ import annotations

import argparse
import math
from typing import TYPE_CHECKING

from ..errors import AuditMismatch, DomainError
from ..spaces import PrimePower, parse_space

if TYPE_CHECKING:
    from ..quadrature import QuadratureConfig

# str() converts an int to decimal in time quadratic in its length; above
# this many bits ints convert by splitting through the decimal module,
# which is imported only then
_SPLIT_BITS = 1 << 16
_LEAF_BITS = 512


def _int_text(n: int) -> str:
    """The decimal digits of n, as str(n), in subquadratic time for big n.

    n = hi * 2^h + lo with h half its width; both halves convert to
    Decimal recursively and recombine with exact Decimal arithmetic, whose
    big multiplications are subquadratic; the powers 2^h are memoized.
    """
    if n < 0:
        return "-" + _int_text(-n)
    if n.bit_length() <= _SPLIT_BITS:
        return str(n)
    import decimal

    powers = {}

    def power(w):
        if w not in powers:
            powers[w] = (decimal.Decimal(1 << w) if w <= _LEAF_BITS
                         else power(w >> 1) * power(w - (w >> 1)))
        return powers[w]

    def convert(m, w):
        if w <= _LEAF_BITS:
            return decimal.Decimal(m)
        h = w >> 1
        hi = m >> h
        return convert(hi, w - h) * power(h) + convert(m - (hi << h), h)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(convert(n, n.bit_length()))


class CommandResult:
    __slots__ = ("command", "parameters", "results", "provenance", "elapsed")

    def __init__(self, command: str, parameters: dict, results: dict | None = None,
                 provenance: str = "", elapsed: float | None = None):
        self.command, self.parameters, self.provenance = command, parameters, provenance
        self.results = {} if results is None else results
        self.elapsed = elapsed

    def add_int(self, name: str, value: int):
        self.results[name] = {"value": _int_text(value), "error": 0}

    def add_float(self, name: str, value: float, error: float = 0.0):
        self.results[name] = {"value": float(value), "error": float(error)}

    def add_raw(self, name: str, value):
        self.results[name] = {"value": value, "error": 0}


def _params(args) -> dict:
    # the command is printed once, at the top level; a quadrature scheme
    # reads only its own options: the grid no sample count and no seed
    # (verify's seed also draws its polynomials), Monte Carlo no nodes
    skip = {"command", "func", "tsv", "timing"}
    scheme = getattr(args, "scheme", None)
    if scheme == "tensor_gauss":
        skip |= {"mc_samples"} if args.command == "verify" else {"mc_samples", "seed"}
    elif scheme == "monte_carlo":
        skip.add("nodes")
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in skip or val is None:
            continue
        out[key] = str(val) if isinstance(val, PrimePower) else (
            list(val) if isinstance(val, tuple) else val
        )
    return out


def _result(args, provenance: str) -> CommandResult:
    """The result of the command args ran, with its echoed parameters."""
    return CommandResult(args.command, _params(args), provenance=provenance)


def _finite_float(text: str) -> float:
    """The type of every float option: a float, but not nan or +-inf."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite float value: {text!r}")
    return value


# argparse names the type in "invalid float value: 'abc'"
_finite_float.__name__ = "float"


def _multidegree(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _space(args):
    return parse_space(args.space, args.n)


# options that several commands share: add_argument keywords by flag
_SPACE = {
    "--space": dict(required=True, help="pn or p1xn"),
    "--n": dict(type=int, required=True),
    "--q": dict(required=True, help="prime power, e.g. 3 or 2^2"),
}
_QUAD = {
    "--scheme": dict(choices=["tensor_gauss", "monte_carlo"], default="tensor_gauss"),
    "--nodes": dict(type=int, default=64),
    "--mc-samples": dict(type=int, default=1_000_000),
    "--seed": dict(type=int),
}


def _add_options(p, options, names):
    """Add the options named in the space-separated names from the table."""
    for name in names.split():
        p.add_argument(name, **options[name])


def _add_kinds(p, options, kinds):
    """One sub-parser per kind of ``{kind: (run, option names)}``, holding
    only the named options from the table; returns them by kind.  No
    abbreviation: another kind's --d must not read as this one's --dmax."""
    sub = p.add_subparsers(dest="kind", required=True)
    for kind, (run, names) in kinds.items():
        k = sub.add_parser(kind, allow_abbrev=False)
        _add_options(k, options, names)
        k.set_defaults(func=run)
    return sub.choices


def _quad_config(args) -> QuadratureConfig:
    from ..quadrature import QuadratureConfig

    if args.scheme == "monte_carlo" and args.seed is None:
        raise DomainError("monte_carlo quadrature requires --seed")
    return QuadratureConfig(args.scheme, args.nodes, args.mc_samples, args.seed)


def _audit(res: CommandResult, family: str, space, q, counts) -> None:
    """Re-derive each (degree, count) pair with the family's oracle.

    The oracle comes from ``cycle_oracle.AUDITS``; a family without one
    (top cycles) is left unaudited and gets no ``audit`` result.
    """
    from ..cycle_oracle import AUDITS

    if family not in AUDITS:
        return
    _, oracle = AUDITS[family]
    for degree, count in counts:
        found = oracle(space, q, degree)
        if found != count:
            raise AuditMismatch(f"audit failed: oracle {found} != formula {count}")
    res.add_raw("audit", "oracle enumeration matched")
