"""MDS verification and minimum distance.

Two independent routes decide whether a code is MDS:

* mds_by_minors checks every k-subset of columns for an invertible
  k-by-k minor.  It works on any generator matrix and is the oracle the
  closed forms are measured against.  G is reduced to RREF once; each
  minor is then decided on the block of the non-pivot columns it takes,
  whose determinant expands into memoized sub-minors, so a minor costs
  a few multiplications and no field inverse.
* one closed-form checker replays the determinant factorizations for
  RCTRS codes with t = 1.  Each k-subset of columns either consists of
  evaluation columns only, or swaps in the twist and/or coefficient
  column; every case reduces to a product of point differences times
  1 - eta_r sigma_r of the points, r = k - h, or a hook-0 variant for
  the coefficient column.  Consecutive colex subsets share their highest
  points, whose sigma bands and twist products carry over, so a subset
  costs a few multiplications.  Its three entry points,
  mds_closed_form_h0, _hk1 and _general, differ only in the hooks they
  accept and the method label they report.

mds_by_minors scans column subsets in colexicographic order.  The closed
form scans category by category, each in colexicographic order: subsets
of evaluation columns only, then (when extended, at hook 0) k-1
evaluations plus the coefficient column, then k-1 evaluations plus the
twist column, then (when extended) k-2 evaluations plus both.
Either way a failing witness is deterministic.  Witness column indices
are 0-based with the twist column at position n-1 and, when extended,
the coefficient column at position n.

Minimum distance is exact when q^k fits the budget.  The first k-1 rows
are enumerated projectively, and each resulting prefix covers all q
codewords it forms with the last row in one pass over the columns (see
_enumerate_min_weight); the result still counts the q^k - 1 nonzero
codewords covered.  Past the budget it falls back to the Singleton bound
through the minor check, and a G of rank below k has distance 0.
Exceeding the budget on a full-rank non-MDS code is reported as an
explicit result, not an error.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .codes import CodeFamily, CodeSpec, generator_matrix
from .errors import MethodDisagreementError, WrongHookTwistError
from .linalg import Matrix, _eliminate, rank, symmetric_tables

DEFAULT_DISTANCE_BUDGET = 1 << 24

METHOD_MINORS = "minors"
METHOD_CLOSED_H0 = "closed_form_h0"
METHOD_CLOSED_HK1 = "closed_form_hk1"
METHOD_CLOSED_GENERAL = "closed_form_general"
METHOD_BOTH = "both"


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

    def render(self, bound: int) -> str:
        """The distance line of a report; bound is the Singleton bound n - k + 1."""
        if self.value is None:
            return f"distance_method=budget-exceeded distance_upper_bound={bound}"
        line = f"distance={self.value} distance_method={self.method}"
        if self.method == "enumeration":
            line += f" codewords_enumerated={self.enumerated}"
        return line


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


def mds_by_minors(g: Matrix) -> MdsVerdict:
    """Exhaustive minor check; witness is the first singular column set.

    G is reduced once to RREF A with pivot set I.  The minor on a column
    set S vanishes exactly when the block of A on the columns S minus I
    and the rows whose pivot is not in S is singular.  That block's
    determinant expands along its last column c into the blocks of the
    column sets S - c + p, p the pivot of a row with a nonzero entry in
    c.  A row of A is zero left of its pivot, so p < c and S - c + p
    comes earlier in colex order: the scan has already stored its block,
    nonzero, in a dict keyed by the column-set mask (its pivot bits give
    the row mask, its other bits the column mask).  So a block costs at
    most k multiplications and no inverse.  A rank-deficient G has every
    minor zero, so its witness is the first subset.  A matrix with more
    rows than columns raises ValueError.
    """
    f = g.field
    k, n = g.nrows, g.ncols
    if k > n:
        raise ValueError(f"a {k}x{n} matrix has no {k}-column minors")
    rows = [list(r) for r in g.rows]
    pivots, _ = _eliminate(f, rows, full=True)
    if len(pivots) < k:
        return MdsVerdict(False, tuple(range(k)), METHOD_MINORS)
    add, sub, mul = f.add, f.sub, f.mul
    columns = list(zip(*rows))
    pivot_bits = [1 << c for c in pivots]
    free_mask = (1 << n) - 1 - sum(pivot_bits)
    # rows from last to first, with the pivot bit that marks a row as removed
    row_order = [(i, pivot_bits[i]) for i in reversed(range(k))]
    dets = {sum(pivot_bits): 1}
    for cols in _colex_subsets(n, k):
        mask = 0
        for c in cols:
            mask |= 1 << c
        free = mask & free_mask
        if not free:
            continue  # S = I
        last = free.bit_length() - 1
        col = columns[last]
        rest = mask ^ (1 << last)
        total = 0
        plus = True  # the last remaining row's cofactor sign
        for i, bit in row_order:
            if mask & bit:
                continue
            a = col[i]
            if a:
                term = mul(a, dets[rest | bit])
                total = add(total, term) if plus else sub(total, term)
            plus = not plus
        if not total:
            return MdsVerdict(False, cols, METHOD_MINORS)
        dets[mask] = total
    return MdsVerdict(True, None, METHOD_MINORS)


# ---------------------------------------------------------------------------
# The t = 1 closed form.


def _require_closed_form(spec: CodeSpec, method: str) -> None:
    if spec.family is not CodeFamily.RCTRS:
        raise WrongHookTwistError(f"closed form applies to RCTRS specs, not {spec.family.value}")
    if spec.t != 1:
        raise WrongHookTwistError(f"closed form needs t=1, spec has t={spec.t}")
    if method == METHOD_CLOSED_H0 and spec.h != 0:
        raise WrongHookTwistError(f"hook-0 closed form used with h={spec.h}")
    if method == METHOD_CLOSED_HK1 and spec.h != spec.k - 1:
        raise WrongHookTwistError(f"hook-(k-1) closed form used with h={spec.h}, k={spec.k}")
    if method == METHOD_CLOSED_GENERAL and spec.extended and 0 < spec.h < spec.k - 1:
        raise WrongHookTwistError("no closed form for extended codes with an interior hook")


def _closed_form(spec: CodeSpec, method: str) -> MdsVerdict:
    """Scan the minors of a t = 1 RCTRS code through their factorizations.

    With r = k - h and eta_r = (-1)^r eta, a minor on k columns that are
    evaluations at the points V (b or c standing in for the twist column)
    is a Vandermonde product times 1 - eta_r sigma_r(V).  Swapping in the
    coefficient column leaves k-1 points and the correction
    1 + eta_r sigma_(k-1)(V) sigma_1(V) at hook 0, or 1 at hook k-1.  The
    twist column is f(b) - lambda f(c), so with evaluation points W such
    a minor vanishes when prod(b - a) corr(W + b) == lambda prod(c - a)
    corr(W + c), where sigma_d(W + x) = sigma_d(W) + x sigma_(d-1)(W).
    Extended codes with an interior hook have no such form; callers rule
    them out.  Each category walks its subsets with symmetric_tables, whose
    tables end with prod(b - a) and prod(c - a) in the twist categories;
    the first compares sigma_r with 1/eta_r, which never holds at eta_r = 0.
    """
    f = spec.field
    al = spec.alphas
    npts = len(al)
    k, h = spec.k, spec.h
    r = k - h
    b, c, lam = spec.b, spec.c, spec.lam
    add, sub, mul = f.add, f.sub, f.mul
    eta_r = f.neg(spec.eta) if r % 2 else spec.eta
    twist, coeff = npts, npts + 1
    diffs = ([sub(b, a) for a in al], [sub(c, a) for a in al])

    def coeff_corr(top: int, one: int) -> int:
        """The hook-0 coefficient-column correction from sigma_(k-1) and sigma_1."""
        return add(1, mul(eta_r, mul(top, one)))

    inv_eta = f.inv(eta_r) if eta_r else None
    for cols, table in symmetric_tables(f, al, _colex_subsets(npts, k), r, r):
        if table[r] == inv_eta:
            return MdsVerdict(False, cols, method)

    if spec.extended and not h:
        # at k = 1 the table still needs sigma_1, which is 0
        for cols, table in symmetric_tables(f, al, _colex_subsets(npts, k - 1), 1, max(k - 1, 1)):
            if not coeff_corr(table[k - 1], table[1]):
                return MdsVerdict(False, cols + (coeff,), method)

    eta_b, eta_c = mul(eta_r, b), mul(eta_r, c)
    for cols, table in symmetric_tables(f, al, _colex_subsets(npts, k - 1), r - 1, r, diffs):
        corr = sub(1, mul(eta_r, table[r]))
        corr_b = sub(corr, mul(eta_b, table[r - 1]))
        corr_c = sub(corr, mul(eta_c, table[r - 1]))
        if mul(table[-2], corr_b) == mul(lam, mul(table[-1], corr_c)):
            return MdsVerdict(False, cols + (twist,), method)

    if spec.extended and k >= 2:
        # at hook k-1 the coefficient-column correction is 1, so no sigma is needed
        top = 0 if h else k - 1
        for cols, table in symmetric_tables(f, al, _colex_subsets(npts, k - 2), min(top, 1), top, diffs):
            corr_b = corr_c = 1
            if not h:
                corr_b = coeff_corr(add(table[top], mul(b, table[top - 1])), add(table[1], b))
                corr_c = coeff_corr(add(table[top], mul(c, table[top - 1])), add(table[1], c))
            if mul(table[-2], corr_b) == mul(lam, mul(table[-1], corr_c)):
                return MdsVerdict(False, cols + (twist, coeff), method)

    return MdsVerdict(True, None, method)


def mds_closed_form_h0(spec: CodeSpec) -> MdsVerdict:
    """Closed-form MDS check for hook 0, twist 1, plain or extended."""
    _require_closed_form(spec, METHOD_CLOSED_H0)
    return _closed_form(spec, METHOD_CLOSED_H0)


def mds_closed_form_hk1(spec: CodeSpec) -> MdsVerdict:
    """Closed-form MDS check for hook k-1, twist 1, plain or extended."""
    _require_closed_form(spec, METHOD_CLOSED_HK1)
    return _closed_form(spec, METHOD_CLOSED_HK1)


def mds_closed_form_general(spec: CodeSpec) -> MdsVerdict:
    """Closed-form MDS check for any hook, twist 1; extended codes only at hook 0 or k-1."""
    _require_closed_form(spec, METHOD_CLOSED_GENERAL)
    return _closed_form(spec, METHOD_CLOSED_GENERAL)


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


def check_mds(spec: CodeSpec, method: str = METHOD_BOTH, gen: Matrix | None = None) -> MdsVerdict:
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
    """Minimum weight over all nonzero codewords of a matrix with rows, exact.

    Weight does not change when a codeword or a column is scaled by a
    nonzero constant.  So each column j where the last row r has r_j != 0
    is scaled by -1/r_j, after which a + s*r vanishes there exactly when
    a_j = s.  The first k-1 rows are enumerated projectively (first
    nonzero coefficient 1); for each prefix a, the best s zeroes the most
    frequent value a takes on those columns, and the columns with r_j = 0
    vanish when a_j does.  The multiples of r cover the zero prefix.
    """
    f = m.field
    q = f.q
    k = m.nrows
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
    g: Matrix,
    budget: int = DEFAULT_DISTANCE_BUDGET,
    mds_verdict: MdsVerdict | None = None,
) -> DistanceResult:
    """Exact distance by enumeration within budget, else the minors route.

    An enumerated result counts the q^k - 1 nonzero codewords it covers.
    Past the budget, a G of rank below k (every k-minor is zero) has a
    nonzero message that encodes to zero, so its distance is 0.  A matrix
    with no rows has no nonzero codeword and raises ValueError.
    """
    k = g.nrows
    if not k:
        raise ValueError("a code with no rows has no nonzero codeword, so no minimum distance")
    total = g.field.q**k
    if total <= budget:
        return DistanceResult(_enumerate_min_weight(g), "enumeration", total - 1)
    if k <= g.ncols:
        if mds_verdict is None:
            mds_verdict = mds_by_minors(g)
        if mds_verdict.is_mds:
            return DistanceResult(g.ncols - k + 1, METHOD_MINORS)
        if rank(g) == k:
            return DistanceResult(None, "budget-exceeded")
    return DistanceResult(0, METHOD_MINORS)
