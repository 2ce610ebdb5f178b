"""Exact prime / twin-prime counting, bound verification, and table audits."""

from .counting import (
    CountCheckpoint,
    checkpoint_rows,
    composed_count,
    count_primes,
    count_twin_pairs,
)
from .estimators import (
    BoundsRow,
    EstimateRow,
    SandwichCheck,
    bounds_rows,
    check_density_ratio_bound,
    density_ratio,
    estimate_rows,
    hardy_littlewood_product,
    hardy_littlewood_simple,
    log_grid,
    mean_density_ratio,
    round_half_away,
    sandwich_bounds,
    sandwich_check,
    trost_bounds,
    twin_count_estimate,
    twin_prime_constant,
    twin_ratio_product,
)
from .legendre import (
    DensityBoundCheck,
    DensityBoundParams,
    PhiPrimeBound,
    check_phi_pi_bound,
    density_upper_bound,
    first_primes,
    phi_mobius,
    phi_recursive,
)
from .report import (
    AuditReport,
    CrossTableConflict,
    InvariantReport,
    ReferenceCell,
    RunConfig,
    audit_against_reference,
    load_reference_tables,
    run_invariant_suite,
)
from .sieve import (
    MemoryBudgetError,
    PrimeSieve,
    SieveRangeError,
    build_sieve,
    count_upto,
    small_primes,
)

__version__ = "0.1.0"
