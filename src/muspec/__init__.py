"""Dichotomy spectra of nonautonomous linear systems under general growth
rates: rate comparisons, overflow-safe evolution operators, spectral
estimation, and executable theorem checks."""

from .params import CONTINUOUS, DISCRETE, Params
from .rates import (
    ExpressionRate,
    Glued,
    GrowthRate,
    Polynomial,
    PowerExp,
    RelationProfile,
    find_crossover,
    log_rate,
    rate_from_descriptor,
    rate_to_descriptor,
    symbolic_compare,
    validate_rate,
)
from .evolution import (
    LinearSystem,
    ScaledMatrix,
    WeightedSystem,
    operator_norm_bounds,
    propagate,
    quotient_system,
    system_from_descriptor,
    system_to_descriptor,
    weighted_propagate,
)
from .spectrum import (
    BohlEstimate,
    DichotomyVerdict,
    GrowthVerdict,
    SpectralGap,
    SpectralInterval,
    SpectrumReport,
    bohl_exponents,
    compute_spectrum,
    has_mu_dichotomy,
    has_mu_growth,
)
from .relations import (
    ChainReport,
    PairClassification,
    RelationVerdict,
    chain_check,
    check_almost,
    check_faster,
    check_weakly_faster,
    classify_pair,
)
from .theorems import (
    Fixture,
    TheoremReport,
    catalog_fixtures,
    generate_quotient_system,
    run_all,
    verify_805,
    verify_806,
    verify_808_809,
    verify_811,
    verify_908,
)

__version__ = "0.1.0"
