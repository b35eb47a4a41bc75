"""Model-free price bounds and static hedges for convex payoffs and weighted
variance swaps implied by a co-maturing put-option chain, plus pathwise
calculus checks of the hedging identity behind the swap mapping."""

from .chain import (
    ChainError,
    ChainStatus,
    ChainVerdict,
    NormalizedChain,
    OptionChain,
    boundary_indices,
    denormalize,
    interpolant_r,
    load_chain,
    normalize,
    validate_puts,
)
from .lower import (
    AtomicMeasure,
    C1Violation,
    DualSolution,
    HedgePortfolio,
    ReconstructionFailure,
    UnsupportedChain,
    atoms_from_policy,
    dp_lower_bound,
    feasible_policy_sets,
    grid_lp_oracle,
    reconstruct_subhedge,
    tighten_tail,
)
from .payoff import (
    ConvexPayoff,
    DualExistence,
    InvalidPayoff,
    WeightSpec,
    check_c1,
    dual_existence_lb,
    make_payoff,
    parse_weight,
)
from .swap import (
    BoundsReport,
    PriceVerdict,
    VerdictStatus,
    bounds_payload,
    classify_european,
    classify_rate_against_bounds,
    classify_swap_quote,
    swap_rate_bounds,
    vol_points,
)
from .upper import NegativeWeight, UpperBound, extremal_upper_measure, superhedge
from .pathwise import (
    C2Function,
    LocalTimeProfile,
    NonMonotone,
    PartitionLadder,
    SampledPath,
    arithmetic_walk,
    build_dyadic_ladder,
    discrete_local_time,
    follmer_integral,
    geometric_walk,
    ladder_checks,
    occupation_density_check,
    quadratic_variation,
    transform_local_time,
    transform_local_times,
    verify_ito,
)

__version__ = "0.1.0"
