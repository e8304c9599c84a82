"""Maximum (k,l)-sum-free sets in finite abelian groups.

Closed-form values and bounds, explicit certificate-carrying witness
constructions, and an exhaustive-search oracle that verifies the formulas
at desk scale.
"""

from .abelian import (
    GroupSpec,
    all_abelian_groups,
    divisors,
    format_group_spec,
    invariant_factor_chains,
    invariant_factors,
    make_group,
    parse_group_spec,
)
from .formulas import (
    AlphaReport,
    BoundReport,
    ClassReport31,
    FormulaUnavailableError,
    KLParams,
    alpha_21,
    alpha_31,
    alpha_report,
    beta_report,
    delta,
    gamma_bounds,
    hp_general_bounds,
    lambda_31_class_report,
    lambda_bounds_general,
    lambda_cyclic_21,
    lambda_cyclic_31,
    lambda_cyclic_via_alpha,
    lambda_formula,
    theorem16_condition,
)
from .oracle import (
    CountResult,
    LimitExceededError,
    SearchResult,
    alpha_exact,
    beta_exact,
    count_sum_free,
    enumerate_maximum,
    gamma_exact,
    lambda_exact,
)
from .sumset import (
    KneserCheck,
    StabilizerResult,
    Subset,
    find_violation,
    h_fold,
    is_kl_sum_free,
    is_kl_sum_free_via_difference,
    kneser_check,
    negate,
    pair_sumset,
    stabilizer,
)
from .witness import (
    APWitness,
    EuclidCertificate,
    LiftedWitness,
    ap_witness,
    ap_witness_max,
    best_witness,
    case51_witness,
    coset_union_witness,
    cyclic_quotient_lift,
    lift_witness,
)

__version__ = "0.1.0"
