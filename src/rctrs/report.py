"""One-stop analysis of a code spec.

analyze() builds the generator matrix once and runs the MDS check, the
distance computation and the Schur-square distinguishers on it, then
bundles everything into a line-oriented report.  The MDS check's minor
scan keeps its verdict on that matrix (see rctrs.linalg), where the
distance and the distinguishers read it, so the minors are scanned
once.  Reports are fully deterministic for a given spec and budget.
analyze() enumerates within the budget it is passed, 2^24 by default,
and always checks the minor scan against the closed form where one
applies.
"""

from __future__ import annotations

from .codes import CodeSpec, _Record, _fill, generator_matrix
from .mds import (
    DEFAULT_DISTANCE_BUDGET,
    DistanceResult,
    MdsVerdict,
    _require_budget,
    check_mds,
    min_distance,
)
from .schur import SchurReport, schur_report


class AnalysisReport(_Record):
    __slots__ = ("spec", "length", "dimension", "mds", "distance", "schur", "provenance",
                 "warnings")

    def __init__(
        self,
        spec: CodeSpec,
        length: int,
        dimension: int,
        mds: MdsVerdict,
        distance: DistanceResult,
        schur: SchurReport,
        provenance: tuple[str, ...],
        warnings: tuple[str, ...],
    ):
        _fill(self, spec, length, dimension, mds, distance, schur, provenance, warnings)

    def lines(self) -> list[str]:
        spec = self.spec
        out = [
            f"family={spec.family.value}",
            f"field={spec.field.descriptor()}",
            f"length={self.length}",
            f"dimension={self.dimension}",
            f"extended={'true' if spec.extended else 'false'}",
        ]
        if spec.family.twisted:
            out.append(f"hook={spec.h} twist={spec.t}")
        if spec.alphas:
            out.append("alphas=" + ",".join(str(a) for a in spec.alphas))
        if spec.family.pointed:
            out.append(f"b={spec.b} c={spec.c} lambda={spec.lam}")
        if spec.family.twisted:
            out.append(f"eta={spec.eta}")
        out.append(self.mds.render())
        out.append(self.distance.render(self.length - self.dimension + 1))
        out.append(self.schur.render())
        for p in self.provenance:
            out.append(f"guarantee={p}")
        for w in self.warnings:
            out.append(f"warning={w}")
        return out

    def render(self) -> str:
        return "\n".join(self.lines()) + "\n"


def _spec_warnings(spec: CodeSpec) -> list[str]:
    out = []
    if spec.family.pointed:
        if spec.b in spec.alphas:
            out.append("twist point b coincides with an evaluation point")
        if spec.c in spec.alphas:
            out.append("twist point c coincides with an evaluation point")
        if spec.b == spec.c:
            out.append("twist points b and c coincide")
    return out


def analyze(source, budget: int = DEFAULT_DISTANCE_BUDGET) -> AnalysisReport:
    """Report on a CodeSpec, or on a ConstructedCode with its guarantees and warnings.

    A negative budget raises ValueError before any work is done."""
    _require_budget(budget)
    if isinstance(source, CodeSpec):
        spec = source
        provenance = ()
        warnings = []
    else:
        spec = source.spec
        provenance = source.provenance()
        warnings = list(source.warnings)
    warnings.extend(_spec_warnings(spec))
    gen = generator_matrix(spec)
    verdict = check_mds(spec, gen=gen)
    dist = min_distance(gen, budget)
    schur = schur_report(gen)
    return AnalysisReport(
        spec=spec,
        length=gen.ncols,
        dimension=gen.nrows,
        mds=verdict,
        distance=dist,
        schur=schur,
        provenance=provenance,
        warnings=tuple(warnings),
    )
