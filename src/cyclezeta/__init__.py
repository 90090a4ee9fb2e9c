"""Exact censuses of effective cycles over finite fields, cycle zeta
functions, Fubini-Study polynomial measures, arithmetic degrees of
divisors on products of projective lines over the integers, and
bounded-height point counts over function fields.

Exact counting is big-integer arithmetic validated against brute-force
enumeration; the analytic side is seeded, tolerance-tracked quadrature
against the product Fubini-Study volume.

Importing the package does not import numpy.  The exports of
``quadrature`` and ``fs_norms``, the modules that need it, are loaded on
first access.
"""

import importlib

from .spaces import P1Power, PrimePower, Product, ProjSpace, SpaceDescriptor
from .field_census import (
    ClosedPointCensus,
    closed_point_census,
    irreducible_count,
    point_count,
)
from .exact_counts import (
    cycle_count,
    divisor_count,
    divisor_count_by_degree,
    top_cycle_count,
    zero_cycle_count,
)
from .cycle_oracle import (
    ClosedPoint,
    FormClass,
    ZeroCycle,
    closed_points,
    enum_divisors,
    enum_zero_cycles,
    fiber_count,
    pushforward_zero_cycle,
)
from .bound_engine import (
    CountingSystemSpec,
    ExplicitConstant,
    counting_system_bound,
    counting_system_log_bound,
    explicit_constant_pn,
    product_cycle_bound,
    pushforward_bound,
)
from .zeta_series import (
    AbscissaReport,
    SparseSeries,
    TailBound,
    abscissa_sequence,
    eval_with_tail,
    l_function_partial,
    local_zeta_series,
    spec_z_zeta_partial,
)
from .multipoly import IntegerForm, MultiPoly, parse_affine_polynomial, parse_integer_form
from .height_lab import (
    FunctionFieldPoint,
    RationalFunctionPoint,
    count_ff_points,
    height_ff,
    height_nv,
    height_nv_with_error,
    sh_set_census,
)

__version__ = "0.1.0"

# export -> numpy-backed module that defines it, resolved by __getattr__
_LAZY_EXPORTS = {
    "QuadratureConfig": "quadrature",
    "NormSampleSpec": "fs_norms",
    "count_arith_divisors_bounded": "fs_norms",
    "delta_lambda": "fs_norms",
    "lc_sigma_max": "fs_norms",
    "norms": "fs_norms",
    "v_measure": "fs_norms",
    "verify_norm_props": "fs_norms",
}


def __getattr__(name):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
