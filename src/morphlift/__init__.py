"""morphlift: exact complete lifts of Euclidean maps and harmonic-morphism
certificates."""

from .analysis import (
    CheckReport,
    Violation,
    hessian_conditions,
    hwc_certificate,
    is_harmonic,
    is_harmonic_morphism,
    is_holomorphic,
    is_orthogonal_multiplication,
)
from .calculus import (
    PolyMatrix,
    hessian,
    jacobian,
    jacobian_at,
    laplacian,
)
from .exact import (
    DimensionMismatch,
    ExactMatrix,
    GaussianRational,
    IntegerTooLong,
    bilinear_dot,
)
from .expr import EvalDomainError, Expr, NotPolynomial, SmoothMap
from .kaehler import (
    INCONCLUSIVE,
    NOT_KAEHLER,
    KaehlerReport,
    search_points,
    span_report,
)
from .lift import (
    MixedPartialObstruction,
    NotPartialLinear,
    anti_lift,
    block_jacobian_check,
    complete_lift_complex,
    complete_lift_real,
)
from .mapfile import MapSyntaxError, parse_map, parse_poly, render_map_source
from .maps import (
    ComplexPolyMap,
    RealPolyMap,
    ShapeError,
    complexify,
    compose,
    real_form,
    real_identification,
)
from .numeric import (
    InternalConsistencyError,
    ResidualReport,
    SamplingError,
    numeric_check,
    numeric_complete_lift,
    sample_points,
)
from .poly import ConsistencyError, MultiPoly, render

__version__ = "0.1.0"

__all__ = [
    "CheckReport", "Violation", "hessian_conditions", "hwc_certificate",
    "is_harmonic", "is_harmonic_morphism", "is_holomorphic",
    "is_orthogonal_multiplication",
    "PolyMatrix", "hessian", "jacobian",
    "jacobian_at", "laplacian",
    "DimensionMismatch", "ExactMatrix", "GaussianRational", "IntegerTooLong",
    "bilinear_dot",
    "EvalDomainError", "Expr", "NotPolynomial", "SmoothMap",
    "INCONCLUSIVE", "NOT_KAEHLER", "KaehlerReport", "search_points",
    "span_report",
    "MixedPartialObstruction", "NotPartialLinear", "anti_lift",
    "block_jacobian_check", "complete_lift_complex", "complete_lift_real",
    "MapSyntaxError", "parse_map", "parse_poly", "render_map_source",
    "ComplexPolyMap", "RealPolyMap", "ShapeError", "complexify", "compose",
    "real_form", "real_identification",
    "InternalConsistencyError", "ResidualReport", "SamplingError",
    "numeric_check", "numeric_complete_lift", "sample_points",
    "ConsistencyError", "MultiPoly", "render",
]
