"""MDS verification and minimum distance.

Two independent routes decide whether a code is MDS:

* mds_by_minors checks every k-subset of columns for an invertible
  k-by-k minor.  It works on any generator matrix and is the oracle the
  closed forms are measured against.
* the closed-form checkers replay the determinant factorizations for
  twisted codes with t = 1.  Each k-subset of columns either consists of
  evaluation columns only, or swaps in the twist and/or coefficient
  column; every case reduces to a product of point differences times a
  low-degree correction polynomial evaluated at the twist points.

mds_by_minors scans column subsets in colexicographic order.  The closed
forms scan category by category, each in colexicographic order: subsets
of evaluation columns only, then (when extended) k-1 evaluations plus
the coefficient column, then k-1 evaluations plus the twist column, then
k-2 evaluations plus both; a category that cannot fail is skipped.
Either way a failing witness is deterministic.  Witness column indices
are 0-based with the twist column at position n-1 and, when extended,
the coefficient column at position n.

Minimum distance is exact when q^k fits the budget.  The first k-1 rows
are enumerated projectively, and each resulting prefix covers all q
codewords it forms with the last row in one pass over the columns (see
_enumerate_min_weight); the result still counts the q^k - 1 nonzero
codewords covered.  Past the budget it falls back to the Singleton bound
through the minor check.  Exceeding the budget on a non-MDS code is
reported as an explicit result, not an error.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

from .codes import CodeFamily, CodeSpec, GeneratorMatrix, generator_matrix
from .errors import MethodDisagreementError, WrongHookTwistError
from .gf import Field
from .linalg import Matrix, _det_rows

DEFAULT_DISTANCE_BUDGET = 1 << 24

METHOD_MINORS = "minors"
METHOD_CLOSED_H0 = "closed_form_h0"
METHOD_CLOSED_HK1 = "closed_form_hk1"
METHOD_CLOSED_GENERAL = "closed_form_general"
METHOD_BOTH = "both"

MatrixLike = Union[Matrix, GeneratorMatrix]


@dataclass(frozen=True)
class MdsVerdict:
    is_mds: bool
    witness: Optional[tuple[int, ...]]
    method: str

    def render(self) -> str:
        if self.is_mds:
            return f"mds=true method={self.method}"
        cols = ",".join(str(c) for c in self.witness)
        return f"mds=false witness=[{cols}] method={self.method}"


@dataclass(frozen=True)
class DistanceResult:
    value: Optional[int]
    method: str  # "enumeration", "minors" or "budget-exceeded"
    enumerated: int = 0

    @property
    def budget_exceeded(self) -> bool:
        return self.value is None


@lru_cache(maxsize=None)
def _colex_subsets(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    if k == 0:
        return ((),)
    if k > n:
        return ()
    out = []
    for last in range(k - 1, n):
        for rest in _colex_subsets(last, k - 1):
            out.append(rest + (last,))
    return tuple(out)


def colex_subsets(n: int, k: int):
    """All k-subsets of range(n) in colexicographic order."""
    return iter(_colex_subsets(n, k))


def _unwrap(g: MatrixLike) -> Matrix:
    return g.matrix if isinstance(g, GeneratorMatrix) else g


def mds_by_minors(g: MatrixLike) -> MdsVerdict:
    """Exhaustive minor check; witness is the first singular column set."""
    m = _unwrap(g)
    f = m.field
    k = m.nrows
    rows = m.rows
    for cols in _colex_subsets(m.ncols, k):
        sub = [[row[c] for c in cols] for row in rows]
        if not _det_rows(f, sub):
            return MdsVerdict(False, cols, METHOD_MINORS)
    return MdsVerdict(True, None, METHOD_MINORS)


# ---------------------------------------------------------------------------
# Correction polynomials for the twisted minors (t = 1 throughout).


def phi(field: Field, x, window: Sequence, eta, k: int):
    """Hook-0 twist correction: prod(x - a) * (1 + (-1)^(k-1) eta x prod(a))."""
    xi = field.to_index(x)
    eta_i = field.to_index(eta)
    pts = [field.to_index(a) for a in window]
    mul = field.mul
    diff_prod = 1
    pt_prod = 1
    for a in pts:
        diff_prod = mul(diff_prod, field.sub(xi, a))
        pt_prod = mul(pt_prod, a)
    corr = mul(eta_i, mul(xi, pt_prod))
    if k % 2 == 0:
        corr = field.neg(corr)
    return field.element(mul(diff_prod, field.add(1, corr)))


def psi(field: Field, x, window: Sequence, eta):
    """Hook-(k-1) twist correction: prod(x - a) * (1 + eta*(x + sum(a)))."""
    xi = field.to_index(x)
    eta_i = field.to_index(eta)
    pts = [field.to_index(a) for a in window]
    mul = field.mul
    diff_prod = 1
    total = xi
    for a in pts:
        diff_prod = mul(diff_prod, field.sub(xi, a))
        total = field.add(total, a)
    return field.element(mul(diff_prod, field.add(1, mul(eta_i, total))))


def _require_closed_form(spec: CodeSpec, hook: str) -> None:
    if spec.family is not CodeFamily.RCTRS:
        raise WrongHookTwistError(f"closed form applies to RCTRS specs, not {spec.family.value}")
    if spec.t != 1:
        raise WrongHookTwistError(f"closed form needs t=1, spec has t={spec.t}")
    if hook == "h0" and spec.h != 0:
        raise WrongHookTwistError(f"hook-0 closed form used with h={spec.h}")
    if hook == "hk1" and spec.h != spec.k - 1:
        raise WrongHookTwistError(f"hook-(k-1) closed form used with h={spec.h}, k={spec.k}")


def mds_closed_form_h0(spec: CodeSpec) -> MdsVerdict:
    """Closed-form MDS check for hook 0, twist 1, plain or extended."""
    _require_closed_form(spec, "h0")
    f = spec.field
    al = spec.alphas
    npts = len(al)
    k = spec.k
    b, c, lam, eta = spec.b, spec.c, spec.lam, spec.eta
    add = f.add
    sub = f.sub
    mul = f.mul
    neg = f.neg
    twist_col = npts
    coeff_col = npts + 1
    method = METHOD_CLOSED_H0

    # sign (-1)^k folded into eta once per parity
    eta_sign_k = neg(eta) if k % 2 else eta
    eta_sign_km1 = neg(eta_sign_k)

    # all-evaluation subsets: (-1)^k eta prod(a) must avoid 1
    for cols in _colex_subsets(npts, k):
        prod = 1
        for i in cols:
            prod = mul(prod, al[i])
        if mul(eta_sign_k, prod) == 1:
            return MdsVerdict(False, cols, method)

    if spec.extended:
        # k-1 evaluations plus the coefficient column
        for cols in _colex_subsets(npts, k - 1):
            prod = 1
            total = 0
            for j in cols:
                prod = mul(prod, al[j])
                total = add(total, al[j])
            if mul(eta_sign_km1, mul(prod, total)) == 1:
                return MdsVerdict(False, cols + (coeff_col,), method)

    # k-1 evaluations plus the twist column
    for cols in _colex_subsets(npts, k - 1):
        prod = 1
        for j in cols:
            prod = mul(prod, al[j])
        vb = 1
        vc = 1
        for j in cols:
            vb = mul(vb, sub(b, al[j]))
            vc = mul(vc, sub(c, al[j]))
        phib = mul(vb, add(1, mul(eta_sign_km1, mul(b, prod))))
        phic = mul(vc, add(1, mul(eta_sign_km1, mul(c, prod))))
        if phib == mul(lam, phic):
            return MdsVerdict(False, cols + (twist_col,), method)

    if spec.extended and k >= 2:
        # k-2 evaluations plus twist and coefficient columns; the
        # correction picks up an extra factor x + sum(a)
        for cols in _colex_subsets(npts, k - 2):
            prod = 1
            total = 0
            vb = 1
            vc = 1
            for j in cols:
                a = al[j]
                prod = mul(prod, a)
                total = add(total, a)
                vb = mul(vb, sub(b, a))
                vc = mul(vc, sub(c, a))
            tb = mul(eta_sign_k, mul(b, mul(prod, add(b, total))))
            tc = mul(eta_sign_k, mul(c, mul(prod, add(c, total))))
            if mul(vb, add(1, tb)) == mul(lam, mul(vc, add(1, tc))):
                return MdsVerdict(False, cols + (twist_col, coeff_col), method)

    return MdsVerdict(True, None, method)


def mds_closed_form_hk1(spec: CodeSpec) -> MdsVerdict:
    """Closed-form MDS check for hook k-1, twist 1, plain or extended."""
    _require_closed_form(spec, "hk1")
    f = spec.field
    al = spec.alphas
    npts = len(al)
    k = spec.k
    b, c, lam, eta = spec.b, spec.c, spec.lam, spec.eta
    add = f.add
    sub = f.sub
    mul = f.mul
    twist_col = npts
    coeff_col = npts + 1
    method = METHOD_CLOSED_HK1
    minus_one = f.neg(1)

    for cols in _colex_subsets(npts, k):
        total = 0
        for i in cols:
            total = add(total, al[i])
        if mul(eta, total) == minus_one:
            return MdsVerdict(False, cols, method)

    for cols in _colex_subsets(npts, k - 1):
        total_b = b
        total_c = c
        vb = 1
        vc = 1
        for j in cols:
            a = al[j]
            total_b = add(total_b, a)
            total_c = add(total_c, a)
            vb = mul(vb, sub(b, a))
            vc = mul(vc, sub(c, a))
        psib = mul(vb, add(1, mul(eta, total_b)))
        psic = mul(vc, add(1, mul(eta, total_c)))
        if psib == mul(lam, psic):
            return MdsVerdict(False, cols + (twist_col,), method)

    if spec.extended and k >= 2:
        for cols in _colex_subsets(npts, k - 2):
            vb = 1
            vc = 1
            for j in cols:
                vb = mul(vb, sub(b, al[j]))
                vc = mul(vc, sub(c, al[j]))
            if vb == mul(lam, vc):
                return MdsVerdict(False, cols + (twist_col, coeff_col), method)

    return MdsVerdict(True, None, method)


def mds_closed_form_general(spec: CodeSpec) -> MdsVerdict:
    """Closed-form MDS check for any hook, twist 1, plain codes only.

    Must coincide with the specialized hook-0 and hook-(k-1) checkers on
    their ranges.  Extended specs with 0 < h < k-1 have no closed form
    and should use the minor oracle.
    """
    _require_closed_form(spec, "general")
    if spec.extended and 0 < spec.h < spec.k - 1:
        raise WrongHookTwistError(
            "no closed form for extended codes with an interior hook"
        )
    if spec.extended:
        # delegate to the matching specialized extended checker
        verdict = mds_closed_form_h0(spec) if spec.h == 0 else mds_closed_form_hk1(spec)
        return MdsVerdict(verdict.is_mds, verdict.witness, METHOD_CLOSED_GENERAL)
    f = spec.field
    al = spec.alphas
    npts = len(al)
    k = spec.k
    h = spec.h
    r = k - h  # symmetric degree of the correction
    b, c, lam, eta = spec.b, spec.c, spec.lam, spec.eta
    add = f.add
    sub = f.sub
    mul = f.mul
    neg = f.neg
    twist_col = npts
    method = METHOD_CLOSED_GENERAL

    eta_sign_i = neg(eta) if r % 2 else eta
    eta_sign_ii = neg(eta_sign_i)

    def esym(vals: list[int], degree: int) -> int:
        table = [1] + [0] * degree
        for v in vals:
            for j in range(degree, 0, -1):
                if table[j - 1]:
                    table[j] = add(table[j], mul(v, table[j - 1]))
        return table[degree]

    for cols in _colex_subsets(npts, k):
        sigma = esym([al[i] for i in cols], r)
        if mul(eta_sign_i, sigma) == 1:
            return MdsVerdict(False, cols, method)

    for cols in _colex_subsets(npts, k - 1):
        window = [al[j] for j in cols]
        vb = 1
        vc = 1
        for a in window:
            vb = mul(vb, sub(b, a))
            vc = mul(vc, sub(c, a))
        fb = mul(vb, add(1, mul(eta_sign_ii, esym(window + [b], r))))
        fc = mul(vc, add(1, mul(eta_sign_ii, esym(window + [c], r))))
        if fb == mul(lam, fc):
            return MdsVerdict(False, cols + (twist_col,), method)

    return MdsVerdict(True, None, method)


def closed_form_for(spec: CodeSpec):
    """The applicable closed-form checker, or None when only minors work."""
    if spec.family is not CodeFamily.RCTRS or spec.t != 1:
        return None
    if spec.h == 0:
        return mds_closed_form_h0
    if spec.h == spec.k - 1:
        return mds_closed_form_hk1
    if not spec.extended:
        return mds_closed_form_general
    return None


def check_mds(spec: CodeSpec, method: str = METHOD_BOTH, gen: GeneratorMatrix | None = None) -> MdsVerdict:
    """Run the requested verification route(s) on a spec.

    With method="both" the minor oracle and the closed form (when one
    applies) must agree; disagreement raises MethodDisagreementError
    rather than silently trusting either side.
    """
    if gen is None:
        gen = generator_matrix(spec)
    if method == METHOD_MINORS:
        return mds_by_minors(gen)
    if method == "closed":
        fn = closed_form_for(spec)
        if fn is None:
            raise WrongHookTwistError(
                f"no closed form for this spec ({spec.family.value}, h={spec.h}, "
                f"t={spec.t}, extended={spec.extended})"
            )
        return fn(spec)
    if method != METHOD_BOTH:
        raise ValueError(f"unknown method {method!r}")
    minors = mds_by_minors(gen)
    fn = closed_form_for(spec)
    if fn is None:
        return minors
    closed = fn(spec)
    if closed.is_mds != minors.is_mds:
        raise MethodDisagreementError(
            f"minor oracle says mds={minors.is_mds} but {closed.method} says "
            f"mds={closed.is_mds} for {spec}"
        )
    return MdsVerdict(minors.is_mds, minors.witness, METHOD_BOTH)


# ---------------------------------------------------------------------------
# Minimum distance.


def _enumerate_min_weight(m: Matrix) -> int:
    """Minimum weight over all nonzero codewords, exact.

    Weight does not change when a codeword or a column is scaled by a
    nonzero constant.  So each column j where the last row r has r_j != 0
    is scaled by -1/r_j, after which a + s*r vanishes there exactly when
    a_j = s.  The first k-1 rows are enumerated projectively (first
    nonzero coefficient 1); for each prefix a, the best s zeroes the most
    frequent value a takes on those columns, and the columns with r_j = 0
    vanish when a_j does.  The multiples of r cover the zero prefix.
    A matrix with no rows has no nonzero codeword and gives ncols + 1.
    """
    f = m.field
    q = f.q
    k = m.nrows
    if not k:
        return m.ncols + 1
    add = f.add
    mul = f.mul
    last = m.rows[-1]
    fixed = [j for j, x in enumerate(last) if not x]
    moving = [(j, f.neg(f.inv(x))) for j, x in enumerate(last) if x]
    if not moving:
        return 0
    nfixed = len(fixed)
    head = [
        [row[j] for j in fixed] + [mul(s, row[j]) for j, s in moving]
        for row in m.rows[:-1]
    ]
    multiples = [[[mul(s, x) for x in row] for s in range(1, q)] for row in head]
    most_zeros = nfixed  # the zeros of r itself
    # Depth-first over (level, partial prefix); a prefix is complete at k-1.
    stack = [(lead + 1, head[lead]) for lead in range(k - 1)]
    while stack:
        level, acc = stack.pop()
        if level == k - 1:
            zeros = acc[:nfixed].count(0) + max(Counter(acc[nfixed:]).values())
            if zeros > most_zeros:
                most_zeros = zeros
            continue
        stack.append((level + 1, acc))
        stack.extend((level + 1, [add(a, x) for a, x in zip(acc, row)]) for row in multiples[level])
    return m.ncols - most_zeros


def min_distance(
    g: MatrixLike,
    budget: int = DEFAULT_DISTANCE_BUDGET,
    mds_verdict: MdsVerdict | None = None,
) -> DistanceResult:
    """Exact distance by enumeration within budget, else the minors route.

    An enumerated result counts the q^k - 1 nonzero codewords it covers.
    """
    m = _unwrap(g)
    total = m.field.q**m.nrows
    if total <= budget:
        return DistanceResult(_enumerate_min_weight(m), "enumeration", total - 1)
    if mds_verdict is None:
        mds_verdict = mds_by_minors(m)
    if mds_verdict.is_mds:
        return DistanceResult(m.ncols - m.nrows + 1, METHOD_MINORS)
    return DistanceResult(None, "budget-exceeded")
