"""Recombination dynamics on multi-site type spaces.

The deterministic mixing flow is solved four independent ways (numerical
integration, partition-lattice semigroup, decay-coefficient recursion,
and a closed form for ordered-site models) and validated against two
finite-population samplers (a forward resampling model and a backward
ancestry partitioning process).  All stochastic paths are reproducible
from a single integer seed: the kernels run one plain-Python path over a
splitmix64 stream per replicate, with ``math.log`` waiting times, so each
replicate's output is a bitwise-pinned function of (seed, replicate).
"""

from ._kernels import splitmix_raw, stream_uniforms
from .ancestral import (
    EXACT_METHODS,
    CoefficientVector,
    PartitionMatrix,
    PsiTheta,
    build_discrete_matrix,
    build_generator,
    coefficients_discrete,
    coefficients_recursion,
    coefficients_semigroup,
    coefficients_single_crossover,
    compute_psi_theta,
    exit_rate,
    partition_frequencies,
    partitioning_history,
    simulate_partitioning,
    transition_semigroup,
)
from .config import ModelConfig, RunSpec
from .dynamics import (
    SignedIncrement,
    Trajectory,
    check_duality,
    exact_coefficients,
    integrate,
    integrate_grid,
    iterate_discrete,
    mixture_from_coefficients,
    rhs,
    solve_exact,
)
from .errors import (
    ConfigError,
    CrosscheckError,
    DomainError,
    MassDriftError,
    NonGenericRatesError,
    RecombError,
    SizeCapError,
)
from .measure import (
    TypeDistribution,
    TypeSpace,
    marginal,
    product_of_marginals,
    product_over_blocks,
    total_variation_distance,
)
from .moran import (
    AncestralState,
    LlnReport,
    PopulationState,
    ancestry_reconstruct,
    arg_partition_frequencies,
    arg_replicates,
    lln_report,
    moran_event_counts,
    reconstruct_replicates,
    simulate_arg,
    simulate_moran,
    simulate_moran_grid,
)
from .partitions import (
    DEFAULT_SITE_CAP,
    Partition,
    PartitionIndex,
    all_partitions,
    bell_number,
    cut_partition,
    interval_partition,
    refinements,
    shared_index,
    two_block_partitions,
)
from .rates import RecombinationDistribution

__version__ = "0.1.0"

__all__ = [
    "AncestralState",
    "CoefficientVector",
    "ConfigError",
    "CrosscheckError",
    "DEFAULT_SITE_CAP",
    "DomainError",
    "EXACT_METHODS",
    "LlnReport",
    "MassDriftError",
    "ModelConfig",
    "NonGenericRatesError",
    "Partition",
    "PartitionIndex",
    "PartitionMatrix",
    "PopulationState",
    "PsiTheta",
    "RecombError",
    "RecombinationDistribution",
    "RunSpec",
    "SignedIncrement",
    "SizeCapError",
    "Trajectory",
    "TypeDistribution",
    "TypeSpace",
    "all_partitions",
    "ancestry_reconstruct",
    "arg_partition_frequencies",
    "arg_replicates",
    "bell_number",
    "build_discrete_matrix",
    "build_generator",
    "check_duality",
    "coefficients_discrete",
    "coefficients_recursion",
    "coefficients_semigroup",
    "coefficients_single_crossover",
    "compute_psi_theta",
    "cut_partition",
    "exact_coefficients",
    "exit_rate",
    "integrate",
    "integrate_grid",
    "interval_partition",
    "iterate_discrete",
    "lln_report",
    "marginal",
    "mixture_from_coefficients",
    "moran_event_counts",
    "partition_frequencies",
    "partitioning_history",
    "product_of_marginals",
    "product_over_blocks",
    "reconstruct_replicates",
    "refinements",
    "rhs",
    "shared_index",
    "simulate_arg",
    "simulate_moran",
    "simulate_moran_grid",
    "simulate_partitioning",
    "solve_exact",
    "splitmix_raw",
    "stream_uniforms",
    "total_variation_distance",
    "transition_semigroup",
    "two_block_partitions",
]
