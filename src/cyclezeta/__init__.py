"""Exact censuses of effective cycles over finite fields, cycle zeta
functions, Fubini-Study polynomial measures, arithmetic degrees of
divisors on products of projective lines over the integers, and
bounded-height point counts over function fields.

Exact counting is big-integer arithmetic validated against brute-force
enumeration; the analytic side is seeded quadrature against the product
Fubini-Study volume, each value with its measured error.

Importing the package loads no submodule and no numpy.  Each export is
loaded from its module on first access, so a program pays only for the
modules it uses.  numpy is loaded by ``quadrature`` and ``fs_norms`` and
by the table build of an extension field of order above 32.
"""

import importlib

__version__ = "0.1.0"

# module -> the names it exports, resolved by __getattr__
_EXPORTS = {
    "spaces": (
        "P1Power", "PrimePower", "Product", "ProjSpace", "SpaceDescriptor", "point_count",
    ),
    "field_census": ("ClosedPointCensus", "closed_point_census"),
    "exact_counts": (
        "cycle_count", "divisor_count", "divisor_count_by_degree", "top_cycle_count",
        "zero_cycle_count",
    ),
    "cycle_oracle": (
        "ClosedPoint", "FormClass", "ZeroCycle", "closed_points", "enum_divisors",
        "enum_zero_cycles", "fiber_count", "pushforward_zero_cycle",
    ),
    "bound_engine": (
        "CountingSystemSpec", "ExplicitConstant", "counting_system_log_bound",
        "explicit_constant_pn", "product_cycle_bound", "pushforward_bound",
    ),
    "zeta_series": (
        "AbscissaReport", "SparseSeries", "abscissa_sequence", "local_zeta_series",
        "spec_z_zeta_partial",
    ),
    "multipoly": (
        "IntegerForm", "MultiPoly", "parse_affine_polynomial", "parse_integer_form",
    ),
    "height_lab": (
        "FunctionFieldPoint", "RationalFunctionPoint", "count_ff_points", "height_ff",
        "height_nv", "height_nv_with_error", "sh_set_census",
    ),
    "quadrature": ("QuadratureConfig",),
    "fs_norms": (
        "NormSampleSpec", "count_arith_divisors_bounded", "delta_lambda",
        "lc_sigma_max", "norms", "v_measure", "verify_norm_props",
    ),
}
_LAZY_EXPORTS = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
