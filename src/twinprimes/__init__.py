"""Exact prime / twin-prime counting, bound verification, and table audits.

Importing the package loads none of its modules, nor numpy: each public
name below, and each module by its name, is imported on first use.
"""

import importlib

__version__ = "0.1.0"

# Module -> the public names it defines.
_EXPORTS = {
    "config": ("RunConfig",),
    "counting": ("CountCheckpoint", "checkpoint_rows", "composed_count",
                 "count_primes", "count_twin_pairs"),
    "estimators": ("BoundsRow", "EstimateRow", "bounds_rows", "density_ratio",
                   "estimate_rows", "hardy_littlewood_product",
                   "hardy_littlewood_simple", "log_grid", "mean_density_ratio",
                   "round_half_away", "sandwich_bounds", "trost_bounds",
                   "twin_count_estimate", "twin_prime_constant",
                   "twin_ratio_product"),
    "legendre": ("density_upper_bound", "first_primes", "phi_mobius",
                 "phi_mobius_row", "phi_recursive"),
    "report": ("AuditReport", "CrossTableConflict", "InvariantCheck",
               "ReferenceCell", "audit_against_reference",
               "load_reference_tables", "run_invariant_suite"),
    "sieve": ("MemoryBudgetError", "PointCounts", "PrimeSieve",
              "SieveRangeError", "build_sieve", "count_at", "small_primes"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
