"""Exact censuses of effective cycles over finite fields, cycle zeta
functions, Fubini-Study polynomial measures, arithmetic degrees of
divisors on products of projective lines over the integers, and
bounded-height point counts over function fields.

Exact counting is big-integer arithmetic validated against brute-force
enumeration; the analytic side is seeded, tolerance-tracked quadrature
against the product Fubini-Study volume.
"""

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
from .quadrature import QuadratureConfig
from .fs_norms import (
    NormSampleSpec,
    count_arith_divisors_bounded,
    delta_lambda,
    lc_sigma_max,
    norms,
    v_measure,
    verify_norm_props,
)
from .height_lab import (
    FunctionFieldPoint,
    RationalFunctionPoint,
    count_ff_points,
    height_ff,
    height_nv,
    sh_set_census,
)

__version__ = "0.1.0"
