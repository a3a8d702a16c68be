"""Built-in worked examples with frozen expected results.

Each example constructs its code through the public construction API
with deterministic parameter choices (default moduli, smallest-index
primitive elements), analyzes it, and compares against expectations that
were computed once and frozen here.  The reproduce CLI command and the
acceptance tests both run through this module so there is a single
source of truth.

Example keys:

* 7_4: subfield-chain code over GF(7^4) with points 0..5 of the prime
  subfield, twist points 6 and 5, lambda primitive in the order-49
  subfield, eta primitive in the full field, k = 3, hook 0.  Plain and
  extended.
* 23_2: subgroup code over GF(23^2) from the order-11 subgroup of
  F_23*, twist points 12 and 7, lambda 5, eta primitive, k = 4, hook 0.
  Plain and extended.
* 17: subgroup code over GF(17) from the order-8 subgroup, twist points
  1 and 2, lambda 10, eta 4.  Because eta sits inside F_17* this uses
  the unguaranteed mode and lets the analyzers decide.  k = 4, hook 0.
* 29_2: subgroup code over GF(29^2) from the order-14 subgroup, twist
  points 12 and 7, lambda 15, eta primitive, k = 4, hook k-1 = 3.
  Plain and extended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .construct import (
    ConstructedCode,
    SubgroupConstructionParams,
    build_subfield_chain_code,
    build_subgroup_code,
)
from .gf import field_create
from .report import AnalysisReport, analyze

GOLDEN_KEYS = ("7_4", "23_2", "17", "29_2")


@dataclass(frozen=True)
class Expected:
    length: int
    dimension: int
    distance: int
    distance_method: str
    schur_dim: int
    non_rs: Optional[bool]
    ctrs_incompatible: Optional[bool]
    alphas: frozenset[int]


@dataclass(frozen=True)
class GoldenCase:
    label: str
    code: ConstructedCode
    expected: Expected


def _case(label, code, **kw) -> GoldenCase:
    return GoldenCase(label, code, Expected(alphas=frozenset(code.spec.alphas), **kw))


def golden_cases(key: str) -> list[GoldenCase]:
    if key == "7_4":
        f = field_create(7, 4)
        lam = f.subfield(2).primitive_element().index
        eta = f.primitive_element().index
        pts = (0, 1, 2, 3, 4, 5)
        out = []
        for ext, length, dist in ((False, 7, 5), (True, 8, 6)):
            code = build_subfield_chain_code(f, 1, 2, pts, 6, 5, lam, eta, 3, extended=ext)
            out.append(
                _case(
                    f"7_4{'_ext' if ext else ''}", code,
                    length=length, dimension=3, distance=dist,
                    distance_method="minors", schur_dim=6,
                    non_rs=True, ctrs_incompatible=False,
                )
            )
        return out
    if key == "23_2":
        f = field_create(23, 2)
        eta = f.primitive_element().index
        expected_pts = frozenset({2, 3, 4, 6, 13, 15, 16, 17, 20, 22})
        out = []
        for ext, length, dist, dim, ctrs in (
            (False, 11, 8, 9, True),
            (True, 12, 9, 10, False),
        ):
            params = SubgroupConstructionParams(
                f, 1, 11, 12, 7, 5, eta, h=0, k=4, extended=ext
            )
            code = build_subgroup_code(params)
            assert frozenset(code.spec.alphas) == expected_pts
            out.append(
                _case(
                    f"23_2{'_ext' if ext else ''}", code,
                    length=length, dimension=4, distance=dist,
                    distance_method="minors", schur_dim=dim,
                    non_rs=True, ctrs_incompatible=ctrs,
                )
            )
        return out
    if key == "17":
        f = field_create(17)
        params = SubgroupConstructionParams(f, 1, 8, 1, 2, 10, 4, h=0, k=4)
        code = build_subgroup_code(params, unguaranteed=True)
        assert frozenset(code.spec.alphas) == {0, 3, 7, 8, 10, 12, 13}
        return [
            _case(
                "17", code,
                length=8, dimension=4, distance=5,
                distance_method="enumeration", schur_dim=8,
                non_rs=True, ctrs_incompatible=None,
            )
        ]
    if key == "29_2":
        f = field_create(29, 2)
        eta = f.primitive_element().index
        expected_pts = frozenset({3, 4, 6, 8, 9, 10, 11, 13, 15, 16, 22, 24, 26})
        out = []
        for ext, length, dist in ((False, 14, 11), (True, 15, 12)):
            params = SubgroupConstructionParams(
                f, 1, 14, 12, 7, 15, eta, h=3, k=4, extended=ext
            )
            code = build_subgroup_code(params)
            assert frozenset(code.spec.alphas) == expected_pts
            out.append(
                _case(
                    f"29_2{'_ext' if ext else ''}", code,
                    length=length, dimension=4, distance=dist,
                    distance_method="minors", schur_dim=9,
                    non_rs=True, ctrs_incompatible=True,
                )
            )
        return out
    raise ValueError(f"unknown example {key!r}; choose from {', '.join(GOLDEN_KEYS)}")


def check_case(case: GoldenCase) -> tuple[AnalysisReport, list[str]]:
    """Analyze one case and list every expectation that does not hold."""
    report = analyze(case.code)
    exp = case.expected
    problems = []

    def expect(name, got, want):
        if got != want:
            problems.append(f"{name}: expected {want!r}, got {got!r}")

    expect("length", report.length, exp.length)
    expect("dimension", report.dimension, exp.dimension)
    expect("mds", report.mds.is_mds, True)
    expect("mds method", report.mds.method, "both")
    expect("distance", report.distance.value, exp.distance)
    expect("distance method", report.distance.method, exp.distance_method)
    expect("schur dim", report.schur.dim, exp.schur_dim)
    expect("non_rs", report.schur.non_rs, exp.non_rs)
    expect("ctrs_incompatible", report.schur.ctrs_incompatible, exp.ctrs_incompatible)
    expect("alphas", frozenset(case.code.spec.alphas), exp.alphas)
    if case.code.guaranteed_mds and not report.mds.is_mds:
        problems.append("guaranteed-MDS construction failed the minor check")
    return report, problems
