"""MDS verification and minimum distance.

Two independent routes decide whether a code is MDS:

* mds_by_minors checks every k-subset of columns for an invertible
  k-by-k minor.  It works on any generator matrix and is the oracle the
  closed forms are measured against.  G is reduced to RREF once; unless
  its first k columns are dependent (then they are the witness), it is
  [I | A], and each minor is decided on the block of A its columns
  take, whose determinant expands along its last column into memoized
  sub-minors.  The expansion's terms are built once per set of
  remaining rows, and each column of A is kept beside its negation, so
  with the cofactor signs folded in a term needs no inverse.  Over the
  fields that keep a Zech table (odd p, m > 1, q <= 2^20) the
  expansion runs on discrete logs, exactly, since no stored minor is
  zero: a term is one integer add and each sum one Zech lookup.  Other
  fields take one multiplication and one addition per term on indices:
  prime fields and fields above 2^20 have no log tables, and p = 2 adds
  by XOR, so a Zech table would cost more to build than it saves.
* one closed-form checker replays the determinant factorizations for
  RCTRS codes with t = 1.  Each k-subset of columns either consists of
  evaluation columns only, or swaps in the twist and/or coefficient
  column; every case reduces to a product of point differences times
  1 - eta_r sigma_r of the points, r = k - h, or a hook-0 variant for
  the coefficient column.  Consecutive colex subsets share their highest
  points, whose sigma bands and twist products carry over, so a subset
  costs a few multiplications.  On the fields with a Zech table, as for
  the minor scan, the bands, products and tests run on discrete logs:
  a multiplication is an integer add and a sum one Zech lookup.  Prime
  fields, p = 2 and fields above 2^20 stay on indices, for the same
  reasons.  closed_form_for alone decides where it applies; its three
  entry points, mds_closed_form_h0, _hk1 and _general, differ only in
  the hook they take within that (h = 0, h = k-1, any) and the method
  label they report.

mds_by_minors scans column subsets in colexicographic order, which for
bitmasks is increasing order, so it steps each mask to the next by
Gosper's hack while it reads the column tuples alongside.  The closed
form scans category by category, each in colexicographic order: subsets
of evaluation columns only, then (when extended, at hook 0) k-1
evaluations plus the coefficient column, then k-1 evaluations plus the
twist column, then (when extended) k-2 evaluations plus both.  Both
read one cached table of colex subsets per (n, k), built from
itertools.combinations.  Either way a failing witness is deterministic.
Witness column indices are 0-based with the twist column at position
n-1 and, when extended, the coefficient column at position n.

Minimum distance is exact when q^k fits the budget.  The first k-1 rows
are enumerated projectively, and each resulting prefix covers all q
codewords it forms with the last row in one pass over the columns; its
exact mode is counted only when a bound from its distinct values could
beat the best weight so far (see _enumerate_min_weight).  The result
still counts the q^k - 1 nonzero codewords covered.  Past the budget it
falls back to the Singleton bound through the minor check, and a G of
rank below k has distance 0.  Exceeding the budget on a full-rank
non-MDS code is reported as an explicit result, not an error.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
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
    # lex order over n-1 > ... > 0, with each subset and the whole order reversed
    return tuple(c[::-1] for c in combinations(range(n - 1, -1, -1), k))[::-1]


def colex_subsets(n: int, k: int):
    """All k-subsets of range(n) in colexicographic order."""
    return iter(_colex_subsets(n, k))


def mds_by_minors(g: Matrix) -> MdsVerdict:
    """Exhaustive minor check; witness is the first singular column set.

    G is reduced once to RREF.  Its first k columns, the first colex
    subset, are independent exactly when the pivots are columns 0..k-1;
    otherwise (a G of rank below k included) that subset is the witness.
    So every later minor works on [I | A]: the minor on a column set S
    vanishes exactly when the block of A on the columns of S past k-1
    and the rows i not in S is singular.  That block's determinant
    expands along its last column c into the blocks of S - c + i, which
    come earlier in colex order, so the scan has already stored them,
    nonzero, in a dict keyed by the column-set mask.  The terms of each
    set of rows are built once per scan as (row bit, position of the
    entry with its cofactor sign), and each column of A is kept beside
    its negation, so a term needs no sign flip and no inverse.  A zero
    entry A[i][c] makes the one-term block of I - i + c vanish before
    any longer block with last column c reads it, so no row is skipped
    for a zero.  Where the field keeps a Zech table (odd p, m > 1,
    q <= 2^20) the sums run on discrete logs, exactly, since no stored
    minor is zero and a zero entry ends the scan in its one-term block:
    the columns hold log a and log -a = log a + (q-1)/2 (None for 0),
    the dict the minors' logs, a term is one integer add, and a sum is
    log x + Z(log y - log x) mod q-1, None when zero, which the next
    term restarts.  Other fields (prime, p = 2, q > 2^20) take one mul
    and one add per term on indices.  Colex order of k-subsets is
    increasing bitmask order, so each mask is the last one's successor
    by Gosper's hack; the column tuples, pulled from the colex table
    alongside, name the witness.  A matrix with more rows than columns
    raises ValueError.
    """
    f = g.field
    k, n = g.nrows, g.ncols
    if k > n:
        raise ValueError(f"a {k}x{n} matrix has no {k}-column minors")
    rows = [list(r) for r in g.rows]
    pivots, _ = _eliminate(f, rows, full=True)
    subsets = iter(_colex_subsets(n, k))
    first = next(subsets)
    if pivots != list(range(k)):
        return MdsVerdict(False, first, METHOD_MINORS)
    add, mul, neg = f.add, f.mul, f.neg  # the first read builds the tables
    zech = f._zech
    if zech is None:  # each entry of A beside its negation
        signed = [[x for a in col for x in (a, neg(a))] for col in zip(*rows)]
    else:  # their logs, None for a zero entry; -1 = g^half
        log, qm1 = f._log, f.q - 1
        half = qm1 // 2
        signed = [[x for a in col for x in ((log[a], (log[a] + half) % qm1) if a else (None, None))]
                  for col in zip(*rows)]
    unit = (1 << k) - 1  # the mask of I, the pivot columns
    dets = {unit: 1 if zech is None else 0}  # det(I) = 1 = g^0
    terms = {}  # pivot columns in S -> [(row bit, position of +-A[row] in a column)]
    mask = unit
    for cols in subsets:
        low = mask & -mask
        high = mask + low
        mask = high | ((high ^ mask) >> 2) // low  # Gosper: the next mask with k bits
        last = mask.bit_length() - 1
        removed = mask & unit
        laplace = terms.get(removed)
        if laplace is None:
            free_rows = [i for i in reversed(range(k)) if not removed >> i & 1]
            laplace = terms[removed] = [(1 << i, 2 * i + j % 2) for j, i in enumerate(free_rows)]
        col = signed[last]
        rest = mask ^ 1 << last
        if zech is None:
            total = 0
            for bit, at in laplace:
                total = add(total, mul(col[at], dets[rest | bit]))
            if not total:
                break
        else:
            # log(x + y) = log x + zech[log y - log x]; None is a zero sum,
            # which the next term restarts.  The logs are left unreduced.
            total = None
            for bit, at in laplace:
                try:
                    term = col[at] + dets[rest | bit]
                except TypeError:  # None: a zero entry, so a zero term
                    continue
                if total is None:
                    total = term
                else:
                    z = zech[(term - total) % qm1]
                    total = None if z is None else total + z
            if total is None:
                break
        dets[mask] = total
    else:
        return MdsVerdict(True, None, METHOD_MINORS)
    return MdsVerdict(False, cols, METHOD_MINORS)


# ---------------------------------------------------------------------------
# The t = 1 closed form.


def _require_closed_form(spec: CodeSpec, method: str):
    """closed_form_for(spec), if method (an entry point's label or "closed form") takes the hook."""
    fn = closed_form_for(spec)
    hook = {METHOD_CLOSED_H0: 0, METHOD_CLOSED_HK1: spec.k - 1}.get(method, spec.h)
    if fn is None or spec.h != hook:
        raise WrongHookTwistError(
            f"no {method} for this spec ({spec.family.value}, h={spec.h}, "
            f"t={spec.t}, extended={spec.extended})"
        )
    return fn


def _arithmetic(f, logs: bool):
    """(one, zero, reps, neg, mul, add) for the closed form's tests.

    reps maps a list of element indices into the representation.  On
    indices the rest are the field's own ops.  On logs every value is a
    discrete log reduced mod q-1, or None for zero, so == compares
    elements on either path (0 == 0 becomes None == None): -x is
    log x + (q-1)/2, a product is an integer add and a sum one Zech
    lookup.
    """
    if not logs:
        return 1, 0, lambda xs: xs, f.neg, f.mul, f.add
    log, zech, qm1 = f._log, f._zech, f.q - 1
    half = qm1 // 2  # -1 = g^half

    def reps(xs):
        return [log[x] if x else None for x in xs]

    def neg(a):
        return None if a is None else (a + half) % qm1

    def mul(a, b):
        return None if a is None or b is None else (a + b) % qm1

    def add(a, b):
        if a is None:
            return b
        if b is None:
            return a
        z = zech[(b - a) % qm1]
        return None if z is None else (a + z) % qm1

    return 0, None, reps, neg, mul, add


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
    Extended codes with an interior hook factor too, through
    s_(2,1^m) = sigma_1 sigma_m - sigma_(m+1) with m = k-1-h, but this
    checker does not cover them; closed_form_for rules them out.  Each
    category walks its subsets with symmetric_tables, whose tables end
    with prod(b - a) and prod(c - a) in the twist categories; the first
    compares sigma_r with 1/eta_r, which does not exist at eta_r = 0.

    Over the fields that keep a Zech table (odd p, m > 1, q <= 2^20) the
    walks and the tests run on discrete logs (see _arithmetic): a product
    is an integer add and a sum one Zech lookup, and a twist-category
    subset whose two sides are both zero (None) is a witness, as 0 == 0
    is on indices.  There the twist test first takes its corrections as
    g^u and g^u + g^(v_x), which share u, so it takes at most three Zech
    lookups and one difference of logs mod q-1; a zero in the table raises
    TypeError and sends the subset through the general test, which every
    subset takes when eta_r, b, c or lambda is zero.  Prime fields and
    fields above 2^20 keep no log tables, and p = 2 adds by XOR, so a
    Zech table would cost more to build than it saves: they stay on
    indices.
    """
    f = spec.field
    al = spec.alphas
    npts = len(al)
    k, h = spec.k, spec.h
    r = k - h
    b, c = spec.b, spec.c
    sub = f.sub  # the first read builds the tables
    logs = f._zech is not None
    zech, qm1 = f._zech, f.q - 1
    one, zero, reps, neg, mul, add = _arithmetic(f, logs)
    eta_r = f.neg(spec.eta) if r % 2 else spec.eta
    e_r, lam, lb, lc, inv_eta = reps([eta_r, spec.lam, b, c, f.inv(eta_r) if eta_r else 1])
    if not eta_r:
        inv_eta = -1  # no 1/eta_r: -1 is neither an index nor a reduced log, so no sigma_r matches
    # 1 - eta_r sigma_r - eta_r x sigma_(r-1), the twist-column correction, is a sum
    minus_e, minus_eb, minus_ec = neg(e_r), neg(mul(e_r, lb)), neg(mul(e_r, lc))
    pts = reps(al)
    diffs = (reps([sub(b, a) for a in al]), reps([sub(c, a) for a in al]))
    twist, coeff = npts, npts + 1

    def coeff_corr(top, first):
        """The hook-0 coefficient-column correction from sigma_(k-1) and sigma_1."""
        return add(one, mul(e_r, mul(top, first)))

    for cols, table in symmetric_tables(f, pts, _colex_subsets(npts, k), r, r, logs=logs):
        if table[r] == inv_eta:
            return MdsVerdict(False, cols, method)

    if spec.extended and not h:
        # at k = 1 the table still needs sigma_1, which is 0
        for cols, table in symmetric_tables(f, pts, _colex_subsets(npts, k - 1), 1, max(k - 1, 1), logs=logs):
            if coeff_corr(table[k - 1], table[1]) == zero:
                return MdsVerdict(False, cols + (coeff,), method)

    fast = logs and None not in (lam, minus_eb, minus_ec)  # no zero eta_r, b, c or lambda
    for cols, table in symmetric_tables(f, pts, _colex_subsets(npts, k - 1), r - 1, r, diffs, logs):
        if fast:
            try:  # u = log(1 - eta_r sigma_r), v_x = log(-eta_r x sigma_(r-1))
                s0, s1 = table[r - 1], table[r]
                u = 0 if s1 is None else zech[(minus_e + s1) % qm1]
                corr_b = corr_c = u
                if s0 is not None:
                    corr_b = u + zech[(minus_eb + s0 - u) % qm1]
                    corr_c = u + zech[(minus_ec + s0 - u) % qm1]
                if (table[-2] + corr_b - lam - table[-1] - corr_c) % qm1:
                    continue
                return MdsVerdict(False, cols + (twist,), method)
            except TypeError:  # a zero past sigma_r
                pass
        corr = add(one, mul(minus_e, table[r]))
        corr_b = add(corr, mul(minus_eb, table[r - 1]))
        corr_c = add(corr, mul(minus_ec, table[r - 1]))
        if mul(table[-2], corr_b) == mul(lam, mul(table[-1], corr_c)):
            return MdsVerdict(False, cols + (twist,), method)

    if spec.extended and k >= 2:
        # at hook k-1 the coefficient-column correction is 1, so no sigma is needed
        top = 0 if h else k - 1
        for cols, table in symmetric_tables(f, pts, _colex_subsets(npts, k - 2), min(top, 1), top, diffs, logs):
            corr_b = corr_c = one
            if not h:
                corr_b = coeff_corr(add(table[top], mul(lb, table[top - 1])), add(table[1], lb))
                corr_c = coeff_corr(add(table[top], mul(lc, table[top - 1])), add(table[1], lc))
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
    if method == "closed":
        return _require_closed_form(spec, "closed form")(spec)
    if method not in (METHOD_MINORS, METHOD_BOTH):
        raise ValueError(f"unknown method {method!r}")
    minors = mds_by_minors(generator_matrix(spec) if gen is None else gen)
    if method == METHOD_MINORS:
        return minors
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
    A prefix with d distinct values on the N columns with r_j != 0
    repeats its mode at most N - d + 1 times, so its exact mode is
    counted only when that bound plus its zeros where r_j = 0 could beat
    the best so far.  Head row 0 only leads prefixes, so only rows
    1..k-2 have their q - 1 multiples tabled: a k = 2 code scores its one
    prefix at once.
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
    # multiples[i - 1] holds the q - 1 multiples of head row i
    multiples = [[[mul(s, x) for x in row] for s in range(1, q)] for row in head[1:]]
    spare = len(moving) + 1  # d distinct values repeat the mode at most spare - d times
    most_zeros = nfixed  # the zeros of r itself
    # Depth-first over (level, partial prefix); a prefix is complete at k-1.
    stack = [(lead + 1, head[lead]) for lead in range(k - 1)]
    while stack:
        level, acc = stack.pop()
        if level == k - 1:
            tail = acc[nfixed:]
            values = set(tail)
            zeros = acc[:nfixed].count(0)
            if zeros + spare - len(values) > most_zeros:
                most_zeros = max(most_zeros, zeros + max(Counter(tail).values()))
            continue
        stack.append((level + 1, acc))
        stack.extend((level + 1, list(map(add, acc, row))) for row in multiples[level - 1])
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
