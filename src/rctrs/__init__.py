"""Exact-arithmetic construction and analysis of twisted evaluation codes.

The package builds generalized Reed-Solomon codes and their row- and
column-twisted relatives over arbitrary finite fields GF(p^m), checks
the MDS property (exhaustive minors and closed-form criteria), computes
Schur-square dimensions, and runs the distinguishers that separate the
constructed codes from RS and column-twisted RS codes.  Everything is
integer arithmetic on element indices; no floating point anywhere.

`import rctrs` loads no submodule.  _PUBLIC is the one table of which
submodule defines each public name, and the command line resolves its
names through it.  The module __getattr__ (PEP 562) imports a submodule
on first access to it or to one of its names, by the import statement's
path, so `python -X importtime` lists it; a command that only inspects
a field loads `gf` and `errors` and nothing else.
"""

import sys as _sys

__version__ = "1.0.0"

# The worked examples in golden, in order.  The keys are kept here so that
# the command-line parser offers them without importing the examples.
GOLDEN_KEYS = ("7_4", "23_2", "17", "29_2")

# The public names, by the submodule that exports them.
_PUBLIC = {
    "errors": (
        "DegenerateBCError",
        "DegreeMismatchError",
        "FieldMismatchError",
        "InvalidSpecError",
        "LengthMismatchError",
        "MembershipViolationError",
        "MethodDisagreementError",
        "NotADivisorError",
        "NotPrimeError",
        "NotSquareError",
        "OrderDoesNotDivideError",
        "ParseError",
        "ReducibleError",
        "UnsupportedExtendedGeneralHError",
        "WrongHookTwistError",
    ),
    "gf": (
        "Field",
        "FieldElement",
        "MultiplicativeSubgroup",
        "SubfieldView",
        "field_create",
        "is_prime",
        "prime_factors",
        "subgroup_of_order",
    ),
    "linalg": ("Matrix", "det", "matrix_from_text", "matrix_to_text", "rank", "rref"),
    "codes": (
        "CodeFamily",
        "CodeSpec",
        "GeneratorMatrix",
        "encode",
        "generator_matrix",
    ),
    "mds": (
        "DEFAULT_DISTANCE_BUDGET",
        "DistanceResult",
        "MdsVerdict",
        "check_mds",
        "closed_form_for",
        "colex_subsets",
        "mds_by_minors",
        "mds_closed_form_general",
        "mds_closed_form_h0",
        "mds_closed_form_hk1",
        "min_distance",
    ),
    "schur": (
        "SchurReport",
        "ctrs_distinguisher",
        "is_non_rs",
        "schur_report",
        "schur_square_dim",
        "schur_square_rows",
    ),
    "construct": (
        "ConstructedCode",
        "SubgroupConstructionParams",
        "build_subfield_chain_code",
        "build_subgroup_code",
        "corollary_lengths",
        "corollary_witness_codes",
        "subgroup_eval_points",
    ),
    "specfile": ("codespec_from_text", "codespec_read", "codespec_to_text"),
    "report": ("AnalysisReport", "analyze"),
    "golden": ("GOLDEN_KEYS", "GoldenCase", "check_case", "golden_cases"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = name if name in _PUBLIC else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    value = _sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = globals()[name] = getattr(value, name)  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_PUBLIC})
