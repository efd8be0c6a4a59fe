"""hallforge: exact Ringel-Hall and derived Hall algebra computations.

Everything is computed from first principles over a prime field F_p:
isomorphism classes of quiver representations by brute-force enumeration,
subobject-counting structure constants, extension counts, the derived
(t-periodic) product, and machine checks of the identities that make the
whole thing an associative algebra.

Importing the package runs the Ringel-Hall core (errors, linalg, quivers,
reps, hall).  The derived layer (complexes, scalars, algebra) and the cache
are bound here unexecuted, and each one's body runs on the first read of one
of its attributes, so a run that only counts Hall numbers, Ext groups or
Green's formula never compiles them.
"""
from __future__ import annotations

import importlib.util
import sys

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
from .quivers import (Arrow, Quiver, check_period, dims_add, dims_sub,
                      dimvecs_up_to, line_quiver, quiver_from_dict,
                      quiver_to_dict, subdimvecs, topological_order,
                      validate_quiver)
from .reps import (ClassRegistry, IsoClassId, Rep, direct_sum,
                   hom_basis, hom_dim, is_isomorphic,
                   semisimple_rep, simple_rep, zero_rep)

__version__ = "0.1.0"

# The modules that load on first use -> the names they export, which __getattr__
# resolves.  Each module is put in sys.modules and bound here through
# importlib.util.LazyLoader, so `from . import algebra` runs nothing and a tool
# that rebinds functions in every hallforge module of sys.modules
# (perfbench/tracing.py) finds them all; reading an attribute runs the body.
_LAZY = {
    "algebra": ("RELATION_FAMILIES", "CheckResult", "DerivedHall", "HallVector",
                "relation_check"),
    "cache": ("CACHE_ENV_VAR", "cache_path", "load_cache", "save_cache",
              "setup_fingerprint"),
    "complexes": ("ComplexObj", "GradedObject", "class_at_or_zero",
                  "complex_obj", "cone_counts", "dt_hom_with_cone_count",
                  "enumerate_complex_classes", "format_graded", "graded_object",
                  "hom_dt_count", "homology", "parse_graded", "stalk",
                  "validate_complex", "zero_diff_complex"),
    "scalars": ("QSqrtScalar", "parse_scalar", "sqrt_of_fraction"),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}

for _module in _LAZY:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _module, _spec


def __getattr__(name: str):
    """Read a lazy name off its module (PEP 562) and keep the value in this namespace."""
    module = _LAZY_HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY_HOME.keys())


__all__ = [
    "RELATION_FAMILIES", "CheckResult", "DerivedHall", "HallVector",
    "relation_check",
    "CACHE_ENV_VAR", "cache_path", "load_cache", "save_cache",
    "setup_fingerprint",
    "ComplexObj", "GradedObject", "class_at_or_zero",
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
    "Arrow", "Quiver", "check_period", "dims_add", "dims_sub",
    "dimvecs_up_to", "line_quiver", "quiver_from_dict", "quiver_to_dict",
    "subdimvecs", "topological_order", "validate_quiver",
    "ClassRegistry", "IsoClassId", "Rep", "direct_sum",
    "hom_basis", "hom_dim", "is_isomorphic",
    "semisimple_rep", "simple_rep", "zero_rep",
    "QSqrtScalar", "parse_scalar", "sqrt_of_fraction",
    "__version__",
]
