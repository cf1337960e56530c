"""Exact arithmetic for generalised power series with well-ordered
support over an ordered abelian exponent group, together with the
condition algebra on support-set families and the classification of the
substructures they cut out of the full series field."""

from .errors import (
    DescriptorMismatch,
    FieldTooSmall,
    HahnSeriesError,
    InvalidWitness,
    NotInNonNegCone,
    ParseError,
    TermBudgetExceeded,
    UnknownWithinBudget,
    UnorderedField,
)
from .groups import (
    GroupDescriptor,
    GroupElement,
    INTEGERS,
    RATIONALS,
    TRIVIAL,
    group_zero,
    lex_product,
    subgroup_contains,
)
from .fields import (
    CoefficientSupply,
    FieldDescriptor,
    FieldElement,
    QQ,
    independent_coefficients,
    is_strictly_positive,
    prime_field,
    rational_functions,
)
from .series import (
    EvaluationContext,
    Horizon,
    Inverse,
    InversionFactorization,
    Literal,
    Monomial,
    Series,
    TermList,
    Truncation,
    coefficient_at,
    coefficients_up_to,
    equal_up_to,
    factorize_for_inversion,
    from_terms,
    invert,
    monomial,
    one_series,
    render_terms,
    support_up_to,
    t_power,
    terms_to_json_dict,
    truncate,
    vmin,
    zero_series,
)
from .supports import (
    Family,
    Region,
    SearchBudget,
    SupportSet,
    build_group_witnesses,
    explicit_family,
    explicit_support,
    family_contains,
    finite_region,
    finite_subsets_family,
    finite_sums_closure,
    is_initial_segment,
    minkowski_sum,
    nonneg_cone,
    ones_series,
    pos_cone,
    region_contains,
    subgroup,
    submonoid,
    subset_sum_witness,
    support_of_terms,
    translate,
    union_sum_witness,
    well_ordered_family,
    whole_group,
)
from .conditions import CONDITION_NAMES, Verdict, check_condition, witness_refutes
from .classify import Classification, Flag, classify_khull
from .verify import (
    Report,
    brute_force_closure_probe,
    check_equivalence_lemma,
    refute_truncation_closure_f2,
    run_suite,
    verify_fp_gap,
    verify_neumann_support,
    verify_product_support,
)
from .parser import parse_expression, render_expression

__all__ = [name for name in dir() if not name.startswith("_")]
