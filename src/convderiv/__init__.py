"""Derivations on the one-sided convolution algebra, computationally.

The package represents bounded derivations from the algebra of summable
one-sided sequences into its dual as coefficient sequences, computes their
norms, classifies compactness by certificate, constructs explicit
non-compactness witnesses, verifies the finite-dimensional bimodule
transfer results, and builds and certifies the swiss-cheese uniform-algebra
counterexample numerically.

All values are immutable after construction and all operations are pure
functions of their inputs, so concurrent use needs no synchronisation.
"""

from .convolution import (
    DEGREE_CAP,
    INDEX_CAP,
    CertificateViolationError,
    ClosedForm,
    Constant,
    Decay,
    DegreeCapError,
    DualSequence,
    Floor,
    L1Element,
    UNDECLARED,
    Undeclared,
    UndeclaredTailError,
    ZeroTail,
    act_on_dual,
    convolve,
    convolve_with_radius,
    l1_norm,
    monomial,
    one,
    pair,
    validate_tail,
    zero,
)
from .derivations import (
    CompactnessVerdict,
    Derivation,
    IndexOverflowError,
    NoAdmissibleIndexError,
    TailUnknownError,
    UnboundedDerivationError,
    WitnessReport,
    WitnessVerificationError,
)
from .bimodules import (
    FiniteAlgebra,
    FiniteBimodule,
    FiniteMap,
    InnerFit,
    NoSuchElementError,
    NotOutsideSquareError,
    NotSymmetricError,
    algebra_catalog,
    algebra_from_dict,
    algebra_from_file,
    derivation_defect,
    derivation_scale,
    dual_homomorphism,
    euler_derivation,
    find_anchor,
    find_transfer_functional,
    is_inner,
    matrix_rank,
    opnorm_l1_to_l1,
    opnorm_l1_to_sup,
    rank_one_derivation,
    square_span,
    transfer,
    truncated_polynomials,
    zero_product_algebra,
)
from .cheese import (
    CheeseSet,
    ConstructionFailedError,
    Disc,
    OnBoundaryError,
    RationalFunction,
    build_cheese,
    interval_grid,
    landing_interval,
    midpoint,
    noncompact_report,
    pole_probe,
    verify_cheese,
)
from .rules import (
    Add,
    Div,
    Lit,
    Mul,
    Neg,
    Pow,
    RationalProfile,
    RuleEvaluationError,
    RuleExpr,
    RuleSyntaxError,
    Sub,
    Var,
    certificate_for,
    eval_rule,
    format_rule,
    parse_rule,
    rational_profile,
    rule_callable,
)

__version__ = "0.1.0"
