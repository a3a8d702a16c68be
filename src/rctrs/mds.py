"""MDS verification and minimum distance.

Two independent routes decide whether a code is MDS:

* mds_by_minors checks every k-subset of columns for an invertible
  k-by-k minor.  It works on any generator matrix and is the oracle the
  closed forms are measured against; its docstring gives the scan.
* one closed-form checker replays the determinant factorizations for
  RCTRS codes with t = 1.  Each k-subset of columns either consists of
  evaluation columns only, or swaps in the twist and/or coefficient
  column; every case reduces to a product of point differences times
  1 - eta_r sigma_r of the points, r = k - h, or a hook-0 variant for
  the coefficient column.  closed_form_for alone decides where it
  applies; its three entry points, mds_closed_form_h0, _hk1 and
  _general, differ only in the hook they take within that (h = 0,
  h = k-1, any) and the method label they report.

Both routes visit column subsets in colexicographic order, read from one
cached table per (n, k), so a failing witness is deterministic, and both
run in the field's log domain (see the rctrs.gf docstring), whose
constants _arithmetic sets up.  The closed form scans category by
category: subsets of evaluation columns only, then (when extended, at
hook 0) k-1 evaluations plus the coefficient column, then k-1
evaluations plus the twist column, then (when extended) k-2 evaluations
plus both.  Each category walks its subsets with _symmetric_tables, and
colex order is what makes that walk cheap: consecutive subsets share
their highest points, whose sigma bands and twist products carry over,
so a subset costs a few multiplications.  Witness column indices are
0-based with the twist column at position n-1 and, when extended, the
coefficient column at position n.

Minimum distance is exact when q^k fits the budget.  It reads G's RREF,
which the Matrix keeps (see rctrs.linalg), and whose pivot columns are
unit vectors.  The first k-1 rows are enumerated projectively, and each
resulting prefix covers all q codewords it forms with the last row in
one pass over the columns; its exact mode is counted only when a bound
from its distinct values could beat the best weight so far.  A prefix
built from w rows is nonzero on their w pivot columns, so no codeword
under it weighs less than w, and the walk drops it once w reaches the
best weight (see _enumerate_min_weight).  The result counts the q^k - 1
nonzero codewords decided, pruned or not.  Past the budget a G of rank
below k has distance 0, and otherwise G's own minor verdict decides
whether the Singleton bound is the distance: mds_by_minors keeps it on
the Matrix (see rctrs.linalg), and _verdict reads it there or, when
none is kept, scans the minors.  Exceeding the budget on a
full-rank non-MDS code is reported as an explicit result, not an error.
A negative budget raises ValueError.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from itertools import combinations
from typing import Optional

from .codes import CodeFamily, CodeSpec, _Record, _set, generator_matrix
from .errors import MethodDisagreementError, WrongHookTwistError
from .linalg import Matrix, _reduced

DEFAULT_DISTANCE_BUDGET = 1 << 24

METHOD_MINORS = "minors"
METHOD_CLOSED_H0 = "closed_form_h0"
METHOD_CLOSED_HK1 = "closed_form_hk1"
METHOD_CLOSED_GENERAL = "closed_form_general"
METHOD_BOTH = "both"


class MdsVerdict(_Record):
    __slots__ = ("is_mds", "witness", "method")

    def __init__(self, is_mds: bool, witness: Optional[tuple[int, ...]], method: str):
        _set(self, "is_mds", is_mds)
        _set(self, "witness", witness)
        _set(self, "method", method)

    def render(self) -> str:
        if self.is_mds:
            return f"mds=true method={self.method}"
        cols = ",".join(str(c) for c in self.witness)
        return f"mds=false witness=[{cols}] method={self.method}"


class DistanceResult(_Record):
    __slots__ = ("value", "method", "enumerated")

    def __init__(self, value: Optional[int], method: str, enumerated: int = 0):
        _set(self, "value", value)
        _set(self, "method", method)  # "enumeration", "minors" or "budget-exceeded"
        _set(self, "enumerated", enumerated)

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

    The scan reads G's kept RREF (see rctrs.linalg).  Its first k columns,
    the first colex subset, are independent exactly when the pivots are
    columns 0..k-1; otherwise (a G of rank below k included) that subset is
    the witness.  So every later minor works on [I | A]: the minor on a
    column set S vanishes exactly when the block of A on the columns of S
    past k-1 and the rows i not in S is singular.  That block's determinant
    expands along its last column c into the blocks of S - c + i, which come
    earlier in colex order, so the scan has already stored them, nonzero, in
    a dict keyed by the column-set mask.  The terms of each set of rows are
    built once per scan as (row bit, position of the entry with its cofactor
    sign), and each column of A is kept beside its negation, so a term needs
    no sign flip and no inverse.  A zero entry A[i][c] makes the one-term
    block of I - i + c vanish before any longer block with last column c
    reads it, so no row is skipped for a zero.  The sums run in the field's
    log domain (see the rctrs.gf docstring).  On logs that is exact, since
    no stored minor is zero and a zero entry ends the scan in its one-term
    block: the columns hold log a and log -a (None for 0), the dict the
    minors' logs, a term is one integer add and a sum one Zech lookup, None
    when zero, which the next term restarts.  On indices a term is one mul
    and one add.  Colex order of k-subsets is increasing bitmask order, so
    each mask is the last one's successor by Gosper's hack; the column
    tuples, pulled from the colex table alongside, name the witness.  The
    verdict is kept on g (see rctrs.linalg), where _verdict reads it.  A
    matrix with more rows than columns raises ValueError.
    """
    f = g.field
    k, n = g.nrows, g.ncols
    if k > n:
        raise ValueError(f"a {k}x{n} matrix has no {k}-column minors")
    pivots, rows = _reduced(g)
    subsets = iter(_colex_subsets(n, k))
    first = next(subsets)
    if pivots != tuple(range(k)):
        g._mds = MdsVerdict(False, first, METHOD_MINORS)
        return g._mds
    zech, qm1 = f._zech, f.q - 1
    one, _, reps, neg, mul, add = _arithmetic(f)
    # each entry of A beside its negation
    signed = [[x for a in reps(col) for x in (a, neg(a))] for col in zip(*rows)]
    unit = (1 << k) - 1  # the mask of I, the pivot columns
    dets = {unit: one}  # det(I) = 1
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
        cols = None
    g._mds = MdsVerdict(cols is None, cols, METHOD_MINORS)
    return g._mds


def _verdict(g: Matrix) -> MdsVerdict:
    """G's kept minor verdict; the minors are scanned only when none is kept.

    A kept verdict is returned without a call to mds_by_minors, so a
    wrapper set on that name sees one call per scan.
    """
    return g._mds or mds_by_minors(g)


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


def _arithmetic(f):
    """(one, zero, reps, neg, mul, add) in the field's log domain (see the
    rctrs.gf docstring): the one set-up of the domain for both scans.

    reps maps a list of element indices into the domain.  On indices the
    rest are the field's own ops.  On logs every value is reduced, so ==
    compares elements on either path (0 == 0 becomes None == None).
    """
    zech = f._zech
    if zech is None:
        return 1, 0, lambda xs: xs, f.neg, f.mul, f.add
    log, qm1 = f._log, f.q - 1

    def reps(xs):
        return [log[x] if x else None for x in xs]

    def mul(a, b):
        return None if a is None or b is None else (a + b) % qm1

    neg = partial(mul, log[f.p - 1])  # -a = (p - 1)a, as on indices
    def add(a, b):
        if a is None:
            return b
        if b is None:
            return a
        z = zech[(b - a) % qm1]
        return None if z is None else (a + z) % qm1

    return 0, None, reps, neg, mul, add


def _symmetric_tables(f, points, size: int, lo: int, hi: int, factors=()):
    """For each size-subset of positions into points, in colex order, yield
    the subset and [sigma_0, ..., sigma_hi] of its points, exact in degrees
    lo..hi, followed by the product over the subset of each sequence in
    factors.

    bands[p] is the table of the points at positions p and above, built by
    sigma_j += x * sigma_(j-1) from the top position down and banded to the
    degrees that can still reach lo.  Each subset keeps the positions
    above the first i with cols[i] != i, so only bands[i] down to bands[0]
    are redone: at lo = hi = size a subset usually costs one
    multiplication.  The first subset, 0..size-1, enters the same loop;
    it has no such i, so it redoes every band.  Entries below lo are
    stale, and the yielded list is reused, so read it before the next.
    The points, the factors and the tables are in the log domain of
    _arithmetic.
    """
    zech, qm1 = f._zech, f.q - 1
    one, zero, _, _, mul, add = _arithmetic(f)
    slots = list(enumerate(factors, hi + 1))
    bands = [[one] + [zero] * hi + [one] * len(slots) for _ in range(size + 1)]
    updates = [(p, bands[p], bands[p + 1], range(min(hi, size - p), max(0, lo - p - 1), -1))
               for p in range(size)]
    # the updates for positions i, i-1, ..., 0; one empty entry at size 0
    steps = [updates[i::-1] for i in range(max(size, 1))]
    for cols in _colex_subsets(len(points), size):
        try:
            i = 0
            while cols[i] == i:
                i += 1
        except IndexError:  # the first subset, 0..size-1: redo every band
            i = size - 1
        if zech is None:
            for p, band, above, degrees in steps[i]:
                x = points[cols[p]]
                for j in degrees:
                    y = mul(x, above[j - 1])
                    band[j] = add(above[j], y) if above[j] else y
                for s, values in slots:
                    band[s] = mul(above[s], values[cols[p]])
            yield cols, bands[0]
            continue
        for p, band, above, degrees in steps[i]:
            at = cols[p]
            x = points[at]
            for j in degrees:
                t, y = above[j], above[j - 1]
                if x is None or y is None:
                    band[j] = t
                elif t is None:
                    band[j] = (x + y) % qm1
                else:
                    z = zech[(x + y - t) % qm1]
                    band[j] = None if z is None else (t + z) % qm1
            for s, values in slots:
                y = values[at]
                band[s] = None if y is None or above[s] is None else (above[s] + y) % qm1
        yield cols, bands[0]


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
    category walks its subsets with _symmetric_tables, whose tables end
    with prod(b - a) and prod(c - a) in the twist categories; the first
    compares sigma_r with 1/eta_r, which does not exist at eta_r = 0.
    At hook 0 the twist category's sigma_r is sigma_k of k-1 points,
    which is 0, so its correction 1 - eta_r sigma_r is 1.

    The walks and the tests run in the field's log domain (see the
    rctrs.gf docstring and _arithmetic), where a twist-category subset
    whose two sides are both zero (None) is a witness, as 0 == 0 is on
    indices.  On logs the twist test first takes its corrections as g^u
    and g^u + g^(v_x), which share u, so it takes at most three Zech
    lookups and one difference of logs mod q-1; a zero in the table raises
    TypeError and sends the subset through the general test, which every
    subset takes when eta_r, b, c or lambda is zero.
    """
    f = spec.field
    al = spec.alphas
    k, h = spec.k, spec.h
    r = k - h
    b, c = spec.b, spec.c
    zech, qm1 = f._zech, f.q - 1
    one, zero, reps, neg, mul, add = _arithmetic(f)
    sub = f.sub
    eta_r = f.neg(spec.eta) if r % 2 else spec.eta
    e_r, lam, lb, lc, inv_eta = reps([eta_r, spec.lam, b, c, f.inv(eta_r) if eta_r else 1])
    if not eta_r:
        inv_eta = -1  # no 1/eta_r: -1 is neither an index nor a reduced log, so no sigma_r matches
    # 1 - eta_r sigma_r - eta_r x sigma_(r-1), the twist-column correction, is a sum
    minus_e, minus_eb, minus_ec = neg(e_r), neg(mul(e_r, lb)), neg(mul(e_r, lc))
    pts = reps(al)
    diffs = (reps([sub(b, a) for a in al]), reps([sub(c, a) for a in al]))
    twist, coeff = len(al), len(al) + 1

    def coeff_corr(top, first):
        """The hook-0 coefficient-column correction from sigma_(k-1) and sigma_1."""
        return add(one, mul(e_r, mul(top, first)))

    for cols, table in _symmetric_tables(f, pts, k, r, r):
        if table[r] == inv_eta:
            return MdsVerdict(False, cols, method)

    if spec.extended and not h:
        # at k = 1 the table still needs sigma_1, which is 0
        for cols, table in _symmetric_tables(f, pts, k - 1, 1, max(k - 1, 1)):
            if coeff_corr(table[k - 1], table[1]) == zero:
                return MdsVerdict(False, cols + (coeff,), method)

    fast = zech is not None and None not in (lam, minus_eb, minus_ec)  # no zero eta_r, b, c or lambda
    for cols, table in _symmetric_tables(f, pts, k - 1, r - 1, r, diffs):
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
        corr = add(one, mul(minus_e, table[r])) if h else one
        corr_b = add(corr, mul(minus_eb, table[r - 1]))
        corr_c = add(corr, mul(minus_ec, table[r - 1]))
        if mul(table[-2], corr_b) == mul(lam, mul(table[-1], corr_c)):
            return MdsVerdict(False, cols + (twist,), method)

    if spec.extended and k >= 2:
        # at hook k-1 the coefficient-column correction is 1, so no sigma is needed
        top = 0 if h else k - 1
        for cols, table in _symmetric_tables(f, pts, k - 2, min(top, 1), top, diffs):
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

    The rows are those of the matrix's kept RREF (see rctrs.linalg), and a
    codeword is a + s*r, where r is the last row and the prefix a a
    combination of head rows 0..k-2.  Below full row rank r is zero, a
    nonzero message that encodes to zero, so the best weight starts at 0 and
    the walk drops every prefix.  On the pivot column of a head row a
    codeword equals that row's coefficient, and r is zero there, so under a
    prefix built from w rows it weighs exactly w on those columns: the walk
    counts w and drops the columns.

    Weight does not change when a codeword or a column is scaled by a
    nonzero constant.  So each column j where r_j != 0 is scaled by
    -1/r_j, after which a + s*r vanishes there exactly when a_j = s.
    The head rows are enumerated projectively (first nonzero coefficient
    1); for each prefix a, the best s zeroes the most frequent value a
    takes on those columns, and the columns with r_j = 0 vanish when a_j
    does.  The multiples of r cover the zero prefix.  A prefix with d
    distinct values on the c columns with r_j != 0 repeats its mode at
    most c - d + 1 times, so its exact mode is counted only when that
    bound could beat the best so far.  Head row 0 only leads prefixes,
    so only rows 1..k-2 have their q - 1 multiples tabled: a k = 2 code
    scores its one prefix at once.

    Since every codeword under a prefix of w rows weighs at least w, the
    depth-first walk drops a prefix whose w reaches the best weight and
    builds the q - 1 children that add a row only while w + 1 is below
    it.  The child that skips a row is popped first, so the first leaf
    is a single row: on an MDS code it sets the best weight to N - k + 1
    at once.
    """
    f = m.field
    add, mul = f.add, f.mul
    k = m.nrows
    pivots, rows = _reduced(m)
    last = rows[-1]
    fixed = [j for j, x in enumerate(last) if not x and j not in pivots]
    moving = [(j, f.neg(f.inv(x))) for j, x in enumerate(last) if x]
    nfixed = len(fixed)
    ncols = nfixed + len(moving)  # the columns left once the head rows' pivots go
    head = [[row[j] for j in fixed] + [mul(s, row[j]) for j, s in moving] for row in rows[:-1]]
    # multiples[i - 1] holds the q - 1 multiples of head row i
    multiples = [[[mul(s, x) for x in row] for s in range(1, f.q)] for row in head[1:]]
    spare = len(moving) + 1  # d distinct values repeat the mode at most spare - d times
    best = len(moving)  # the weight of r itself
    # (level, w, prefix); a prefix is complete at level k-1
    stack = [(lead + 1, 1, head[lead]) for lead in range(k - 1)]
    while stack:
        level, weight, acc = stack.pop()
        if weight >= best:
            continue
        if level == k - 1:
            tail = acc[nfixed:]
            weight += ncols - acc[:nfixed].count(0)  # before the best s zeroes the columns of the mode
            if weight - spare + len(set(tail)) < best:
                best = min(best, weight - max(Counter(tail).values()))
            continue
        if weight + 1 < best:
            stack.extend((level + 1, weight + 1, list(map(add, acc, row))) for row in multiples[level - 1])
        stack.append((level + 1, weight, acc))
    return best


def _require_budget(budget: int) -> None:
    """Refuse a negative distance budget, which is no budget."""
    if budget < 0:
        raise ValueError(f"distance budget must be non-negative, got {budget!r}")


def min_distance(g: Matrix, budget: int = DEFAULT_DISTANCE_BUDGET) -> DistanceResult:
    """Exact distance by enumeration within budget, else the minors route.

    An enumerated result counts the q^k - 1 nonzero codewords it decides,
    those under prefixes that the pivot-weight bound drops included (see
    _enumerate_min_weight).  Past the budget, a G of rank below k, which
    its kept RREF shows (see rctrs.linalg), has a nonzero message that
    encodes to zero, so its distance is 0 and no minor is scanned; that
    covers k > N.  Otherwise G's own minor verdict, the one kept on G or
    else a scan made here (see _verdict), decides whether the Singleton
    bound is the distance; no caller passes one in.  A matrix with no rows
    has no nonzero codeword, and a negative budget is no budget; both
    raise ValueError.
    """
    _require_budget(budget)
    k = g.nrows
    if not k:
        raise ValueError("a code with no rows has no nonzero codeword, so no minimum distance")
    total = g.field.q**k
    if total <= budget:
        return DistanceResult(_enumerate_min_weight(g), "enumeration", total - 1)
    if len(_reduced(g)[0]) < k:
        return DistanceResult(0, METHOD_MINORS)
    if _verdict(g).is_mds:
        return DistanceResult(g.ncols - k + 1, METHOD_MINORS)
    return DistanceResult(None, "budget-exceeded")
