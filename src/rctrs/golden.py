"""Built-in worked examples with frozen expected results.

EXAMPLES holds each example's recipe inputs (default moduli,
smallest-index primitive elements) and the values computed once and
frozen; the package's GOLDEN_KEYS names them, so that the command-line
parser can list them without importing this module.  golden_cases
builds the examples through the public construction API; check_case
analyzes one and compares each frozen value.  The reproduce CLI command
and the acceptance tests both run through this module, so there is a
single source of truth.
"""

from __future__ import annotations

from typing import Optional

from . import GOLDEN_KEYS
from .codes import _Record, _fill
from .construct import (
    SUBFIELD_CHAIN,
    SUBGROUP,
    ConstructedCode,
    SubgroupConstructionParams,
    build_subfield_chain_code,
    build_subgroup_code,
)
from .gf import field_create
from .report import AnalysisReport, analyze


class Expected(_Record):
    """The frozen values of one case, in the order check_case reports them."""

    __slots__ = ("length", "dimension", "distance", "distance_method", "schur_dim", "non_rs",
                 "ctrs_incompatible", "alphas", "mds", "mds_method")

    def __init__(self, length: int, dimension: int, distance: int, distance_method: str, schur_dim: int,
                 non_rs: Optional[bool], ctrs_incompatible: Optional[bool], alphas: frozenset[int],
                 mds: bool = True, mds_method: str = "both"):
        _fill(self, length, dimension, distance, distance_method, schur_dim, non_rs, ctrs_incompatible,
              alphas, mds, mds_method)


class GoldenCase(_Record):
    __slots__ = ("label", "code", "expected")

    def __init__(self, label: str, code: ConstructedCode, expected: Expected):
        _fill(self, label, code, expected)


class Primitive(_Record):
    """A recipe input standing for the primitive element of the degree-d subfield."""

    __slots__ = ("degree",)

    def __init__(self, degree: int):
        _fill(self, degree)


class Example(_Record):
    """One worked example.  inputs holds the recipe arguments after the
    field, apart from `extended`; variants holds (length, dimension,
    distance, distance method, schur dim, non_rs, ctrs_incompatible) of
    the plain code, then of the extended one."""

    __slots__ = ("field", "recipe", "inputs", "alphas", "variants", "unguaranteed")

    def __init__(self, field: tuple[int, int], recipe: str, inputs: dict, alphas: frozenset[int],
                 variants: tuple[tuple, ...], unguaranteed: bool = False):
        _fill(self, field, recipe, inputs, alphas, variants, unguaranteed)


# GOLDEN_KEYS names these examples, in order.
EXAMPLES = dict(zip(GOLDEN_KEYS, (
    # 7_4: F_7 inside F_49 inside GF(7^4), hook 0
    Example(
        (7, 4), SUBFIELD_CHAIN,
        dict(q0_degree=1, q1_degree=2, alphas=(0, 1, 2, 3, 4, 5), b=6, c=5,
             lam=Primitive(2), eta=Primitive(4), k=3),
        frozenset(range(6)),
        ((7, 3, 5, "minors", 6, True, False), (8, 3, 6, "minors", 6, True, False)),
    ),
    # 23_2: the order-11 subgroup of F_23*, hook 0
    Example(
        (23, 2), SUBGROUP,
        dict(base_subfield_degree=1, group_order=11, b=12, c=7, lam=5,
             eta=Primitive(2), h=0, k=4),
        frozenset({2, 3, 4, 6, 13, 15, 16, 17, 20, 22}),
        ((11, 4, 8, "minors", 9, True, True), (12, 4, 9, "minors", 10, True, False)),
    ),
    # 17: the order-8 subgroup of F_17*, hook 0; eta lies in F_17*, outside the
    # recipe, so the build is unguaranteed and the analyzers decide
    Example(
        (17, 1), SUBGROUP,
        dict(base_subfield_degree=1, group_order=8, b=1, c=2, lam=10, eta=4, h=0, k=4),
        frozenset({0, 3, 7, 8, 10, 12, 13}),
        ((8, 4, 5, "enumeration", 8, True, None),),
        unguaranteed=True,
    ),
    # 29_2: the order-14 subgroup of F_29*, hook k-1
    Example(
        (29, 2), SUBGROUP,
        dict(base_subfield_degree=1, group_order=14, b=12, c=7, lam=15,
             eta=Primitive(2), h=3, k=4),
        frozenset({3, 4, 6, 8, 9, 10, 11, 13, 15, 16, 22, 24, 26}),
        ((14, 4, 11, "minors", 9, True, True), (15, 4, 12, "minors", 9, True, True)),
    ),
), strict=True))


def golden_cases(key: str) -> list[GoldenCase]:
    if key not in EXAMPLES:
        raise ValueError(f"unknown example {key!r}; choose from {', '.join(GOLDEN_KEYS)}")
    ex = EXAMPLES[key]
    f = field_create(*ex.field)
    inputs = {
        name: f.subfield(v.degree).primitive_element().index if isinstance(v, Primitive) else v
        for name, v in ex.inputs.items()
    }
    cases = []
    for extended, values in enumerate(ex.variants):
        if ex.recipe == SUBFIELD_CHAIN:
            code = build_subfield_chain_code(f, **inputs, extended=bool(extended))
        else:
            params = SubgroupConstructionParams(f, **inputs, extended=bool(extended))
            code = build_subgroup_code(params, unguaranteed=ex.unguaranteed)
        expected = Expected(*values, alphas=ex.alphas)
        cases.append(GoldenCase(key + "_ext" * extended, code, expected))
    return cases


def check_case(case: GoldenCase) -> tuple[AnalysisReport, list[str]]:
    """Analyze one case and list every frozen value it does not reproduce."""
    report = analyze(case.code)
    got = Expected(
        report.length, report.dimension, report.distance.value, report.distance.method,
        report.schur.dim, report.schur.non_rs, report.schur.ctrs_incompatible,
        frozenset(case.code.spec.alphas), report.mds.is_mds, report.mds.method,
    )
    problems = [
        f"{name}: expected {want!r}, got {have!r}"
        for name, want, have in zip(Expected.__slots__, case.expected._values(), got._values())
        if have != want
    ]
    return report, problems
