"""Partial-fraction coefficients of 1/((1-x)(1-x^2)...(1-x^N)).

The decomposition of the finite product into partial fractions has, at
the pole x = 1, coefficients C(N, l) whose large-N behavior was long
conjectured to converge.  They do not: |C(N, l)| oscillates with period
about 31.96 in N under an exponentially growing envelope b^N with
b about 1.0704.  This package computes the coefficients in three
independent ways (exact rational arithmetic, a saddle-point closed form,
and a contour integral) and ships the comparison and peak-growth reports
that make the divergence visible.
"""

from .exact import (
    CoefficientVector,
    coefficient_range,
    decimal_str,
    exact_coefficients,
    float_coefficients,
    parse_rational,
    rational_str,
)
from .specfun import (
    EvalResult,
    dilog,
    hurwitz_zeta,
    phi,
    polylog_jonquiere,
)
from .saddle import (
    AsymptoticValue,
    SaddleData,
    H,
    argument_principle_count,
    asymptotic_C,
    saddle_constants,
)
from .contour import (
    MonotoneReport,
    OracleValue,
    QuadratureSpec,
    cauchy_oracle,
    check_lower_bound_inequality,
    check_monotone_exponent,
    constant_c,
    constant_c_euler_check,
    integral_approx_C,
    oracle_spec,
)
from .report import (
    ComparisonRow,
    DisproofReport,
    RunConfig,
    analyze_divergence,
    build_rows,
    emit_csv,
    emit_json,
    figure_configs,
    find_peaks,
    magnitude_series,
    parse_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientVector",
    "coefficient_range",
    "decimal_str",
    "exact_coefficients",
    "float_coefficients",
    "parse_rational",
    "rational_str",
    "EvalResult",
    "dilog",
    "hurwitz_zeta",
    "phi",
    "polylog_jonquiere",
    "AsymptoticValue",
    "SaddleData",
    "H",
    "argument_principle_count",
    "asymptotic_C",
    "saddle_constants",
    "MonotoneReport",
    "OracleValue",
    "QuadratureSpec",
    "cauchy_oracle",
    "check_lower_bound_inequality",
    "check_monotone_exponent",
    "constant_c",
    "constant_c_euler_check",
    "integral_approx_C",
    "oracle_spec",
    "ComparisonRow",
    "DisproofReport",
    "RunConfig",
    "analyze_divergence",
    "build_rows",
    "emit_csv",
    "emit_json",
    "figure_configs",
    "find_peaks",
    "magnitude_series",
    "parse_csv",
    "__version__",
]
