"""Exact-arithmetic construction and analysis of twisted evaluation codes.

The package builds generalized Reed-Solomon codes and their row- and
column-twisted relatives over arbitrary finite fields GF(p^m), checks
the MDS property (exhaustive minors and closed-form criteria), computes
Schur-square dimensions, and runs the distinguishers that separate the
constructed codes from RS and column-twisted RS codes.  Everything is
integer arithmetic on element indices; no floating point anywhere.
"""

from types import ModuleType as _ModuleType

from .errors import (
    DegenerateBCError,
    DegreeMismatchError,
    FieldMismatchError,
    HookOutOfRangeError,
    InvalidSpecError,
    LengthMismatchError,
    MembershipViolationError,
    MethodDisagreementError,
    NotADivisorError,
    NotPrimeError,
    NotSquareError,
    OrderDoesNotDivideError,
    ParseError,
    ReducibleError,
    UnsupportedExtendedGeneralHError,
    WrongHookTwistError,
)
from .gf import (
    Field,
    FieldElement,
    MultiplicativeSubgroup,
    SubfieldView,
    field_create,
    is_prime,
    prime_factors,
    subgroup_of_order,
)
from .linalg import (
    Matrix,
    det,
    matrix_from_text,
    matrix_to_text,
    null_space,
    rank,
    rref,
)
from .codes import (
    CodeFamily,
    CodeSpec,
    GeneratorMatrix,
    encode,
    generator_matrix,
    twist_space_basis,
)
from .mds import (
    DEFAULT_DISTANCE_BUDGET,
    DistanceResult,
    MdsVerdict,
    check_mds,
    closed_form_for,
    colex_subsets,
    mds_by_minors,
    mds_closed_form_general,
    mds_closed_form_h0,
    mds_closed_form_hk1,
    min_distance,
)
from .schur import (
    SchurReport,
    ctrs_distinguisher,
    is_non_rs,
    schur_report,
    schur_square_dim,
    schur_square_rows,
    schur_vec,
)
from .construct import (
    ConstructedCode,
    SubgroupConstructionParams,
    build_subfield_chain_code,
    build_subgroup_code,
    corollary_lengths,
    corollary_witness_codes,
    subgroup_eval_points,
)
from .specfile import (
    codespec_from_text,
    codespec_read,
    codespec_to_text,
)
from .report import BUDGET_ENV_VAR, AnalysisReport, analyze, distance_budget
from .golden import GOLDEN_KEYS, GoldenCase, check_case, golden_cases

__version__ = "1.0.0"

# The imports above are the public names: every public global that is not
# a submodule.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
