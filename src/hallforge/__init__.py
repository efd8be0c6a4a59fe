"""hallforge: exact Ringel-Hall and derived Hall algebra computations.

Everything is computed from first principles over a prime field F_p:
isomorphism classes of quiver representations by brute-force enumeration,
subobject-counting structure constants, extension counts, the derived
(t-periodic) product, and machine checks of the identities that make the
whole thing an associative algebra.
"""
from __future__ import annotations

from .algebra import (RELATION_FAMILIES, CheckResult, DerivedHall, HallVector,
                      relation_check)
from .cache import (CACHE_ENV_VAR, cache_path, load_cache, save_cache,
                    setup_fingerprint)
from .complexes import (ComplexObj, GradedObject, check_period,
                        class_at_or_zero, complex_obj, cone_counts,
                        dt_hom_with_cone_count, enumerate_complex_classes,
                        format_graded, graded_object, hom_dt_count, homology,
                        parse_graded, stalk, validate_complex,
                        zero_diff_complex)
from .errors import (CacheInvalid, DivisionByZero, EnumerationTooLarge,
                     HallforgeError, IncompatibleObjects, InternalInconsistency,
                     InvalidField, NotAPureQPower, NotASubobject,
                     NotHereditarySetup, RewriteBudgetExceeded,
                     UnsupportedPeriod)
from .hall import (euler_add, euler_mult, euler_table, ext1_count,
                   ext1_middle_count, gamma_coeff, gamma_terms, green_sides, hall_number)
from .linalg import (Mat, Subspace, count_matrices_of_rank,
                     enumerate_subspaces, gaussian_binomial, gl_order,
                     is_invertible, kernel_basis, rank, rref,
                     subspace_from_vectors)
from .quivers import (Arrow, Quiver, canonical_quiver_json, dims_add,
                      dims_sub, dimvecs_up_to, line_quiver, quiver_from_dict,
                      quiver_to_dict, subdimvecs, topological_order,
                      validate_quiver)
from .reps import (ClassRegistry, IsoClassId, Rep, direct_sum,
                   hom_basis, hom_dim, is_isomorphic,
                   semisimple_rep, simple_rep, zero_rep)
from .scalars import QSqrtScalar, parse_scalar, sqrt_of_fraction

__version__ = "0.1.0"

__all__ = [
    "RELATION_FAMILIES", "CheckResult", "DerivedHall", "HallVector",
    "relation_check",
    "CACHE_ENV_VAR", "cache_path", "load_cache", "save_cache",
    "setup_fingerprint",
    "ComplexObj", "GradedObject", "check_period", "class_at_or_zero",
    "complex_obj", "cone_counts", "dt_hom_with_cone_count",
    "enumerate_complex_classes", "format_graded", "graded_object",
    "hom_dt_count", "homology", "parse_graded", "stalk", "validate_complex",
    "zero_diff_complex",
    "CacheInvalid", "DivisionByZero", "EnumerationTooLarge", "HallforgeError",
    "IncompatibleObjects", "InternalInconsistency", "InvalidField",
    "NotAPureQPower", "NotASubobject", "NotHereditarySetup",
    "RewriteBudgetExceeded", "UnsupportedPeriod",
    "euler_add", "euler_mult", "euler_table", "ext1_count",
    "ext1_middle_count", "gamma_coeff", "gamma_terms", "green_sides", "hall_number",
    "Mat", "Subspace", "count_matrices_of_rank",
    "enumerate_subspaces", "gaussian_binomial", "gl_order", "is_invertible",
    "kernel_basis", "rank", "rref", "subspace_from_vectors",
    "Arrow", "Quiver", "canonical_quiver_json", "dims_add", "dims_sub",
    "dimvecs_up_to", "line_quiver", "quiver_from_dict", "quiver_to_dict",
    "subdimvecs", "topological_order", "validate_quiver",
    "ClassRegistry", "IsoClassId", "Rep", "direct_sum",
    "hom_basis", "hom_dim", "is_isomorphic",
    "semisimple_rep", "simple_rep", "zero_rep",
    "QSqrtScalar", "parse_scalar", "sqrt_of_fraction",
    "__version__",
]
