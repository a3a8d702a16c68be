"""MDS verification: minor oracle, closed forms, minimum distance."""

import itertools
import math
import random
import sys

import pytest

import rctrs.cli
import rctrs.linalg
import rctrs.mds
import rctrs.report
from rctrs.codes import CodeFamily, CodeSpec, generator_matrix
from rctrs.errors import MethodDisagreementError, WrongHookTwistError
from rctrs.gf import Field, field_create
from rctrs.specfile import codespec_to_text
from rctrs.linalg import Matrix, det, rref
from rctrs.mds import (
    DEFAULT_DISTANCE_BUDGET,
    DistanceResult,
    MdsVerdict,
    _symmetric_tables,
    check_mds,
    closed_form_for,
    colex_subsets,
    mds_by_minors,
    mds_closed_form_general,
    mds_closed_form_h0,
    mds_closed_form_hk1,
    min_distance,
)

from oracles import colex_subsets as colex_oracle
from oracles import minor_scan, pivot_columns

F13 = field_create(13)
F9 = field_create(3, 2)


def rctrs_spec(f, alphas, b, c, lam, eta, k, h=0, extended=False):
    n = len(alphas) + 1
    return CodeSpec(
        CodeFamily.RCTRS, f, n, k, tuple(alphas),
        h=h, t=1, b=b, c=c, lam=lam, eta=eta, extended=extended,
    )


def random_spec(f, rng, h=None, extended=False, kmax=5, nmax=10):
    """A valid random twisted spec with n <= nmax, k <= kmax."""
    while True:
        npts = rng.randrange(2, min(nmax, f.q + 1))
        k = rng.randrange(2, min(kmax, npts) + 1)
        hook = rng.randrange(k) if h is None else h
        if hook >= k:
            continue
        pool = list(range(f.q))
        rng.shuffle(pool)
        alphas = pool[:npts]
        b, c = pool[npts % len(pool)], pool[(npts + 1) % len(pool)]
        if b == c:
            continue
        lam = rng.randrange(f.q)
        eta = rng.randrange(f.q)
        return rctrs_spec(f, alphas, b, c, lam, eta, k=k, h=hook, extended=extended)


# --- colex ordering -----------------------------------------------------------


def test_colex_order():
    assert list(colex_subsets(4, 2)) == [
        (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
    ]
    subs = list(colex_subsets(6, 3))
    assert len(subs) == 20
    assert subs[0] == (0, 1, 2) and subs[-1] == (3, 4, 5)
    assert list(colex_subsets(3, 0)) == [()]
    assert list(colex_subsets(2, 3)) == []
    # k = 0 and k > n included; each call caches its own (n, k) table only
    table = rctrs.mds._colex_subsets
    for n in range(13):
        for k in range(n + 3):
            want = colex_oracle(n, k)
            assert list(table(n, k)) == want, (n, k)
            assert list(colex_subsets(n, k)) == want, (n, k)
    table.cache_clear()
    table(12, 6)
    assert table.cache_info().currsize == 1


# --- minor oracle ---------------------------------------------------------------


def test_minors_on_rs_code_is_mds():
    spec = CodeSpec(CodeFamily.GRS, F13, 6, 3, (1, 2, 3, 4, 5, 6))
    verdict = mds_by_minors(generator_matrix(spec))
    assert verdict.is_mds and verdict.witness is None and verdict.method == "minors"


def test_minors_reports_first_colex_witness():
    # columns 0 and 2 are parallel, so (0, 2) is the first singular pair
    m = Matrix(F13, [[1, 2, 2], [3, 4, 6]])
    verdict = mds_by_minors(m)
    assert not verdict.is_mds
    assert verdict.witness == (0, 2)


def test_minors_witness_is_singular():
    rng = random.Random(11)
    found = 0
    while found < 10:
        spec = random_spec(F9, rng)
        g = generator_matrix(spec)
        verdict = mds_by_minors(g)
        if verdict.is_mds:
            continue
        found += 1
        sub = Matrix(F9, [[row[c] for c in verdict.witness] for row in g.rows])
        assert det(sub) == 0


# --- correction polynomials -------------------------------------------------------
# With lambda = 0 or a fixed ratio, the twist minor on points 1, 2 and the twist
# column of a k = 3 code over GF(7) vanishes exactly when
# corr(b) == lambda * corr(c), so each verdict pins a hand value of corr.


def test_phi_hand_value():
    # hook 0: phi(x) = prod(x - a) * (1 + (-1)^(k-1) eta x prod(a))
    f = field_create(7)
    # phi(3) = (3-1)(3-2) * (1 + 1*3*2) = 2 * 7 = 0 at eta = 1
    spec = rctrs_spec(f, (1, 2), 3, 4, 0, 1, k=3)
    for fn in (mds_closed_form_h0, mds_closed_form_general):
        assert fn(spec).witness == (0, 1, 2)
    # at eta = 0, phi(3) = 2 and phi(4) = 6: only lambda = 2/6 = 5 matches
    for lam in range(7):
        spec = rctrs_spec(f, (1, 2), 3, 4, lam, 0, k=3)
        assert mds_closed_form_h0(spec).is_mds == (lam != 5)


def test_psi_hand_value():
    # hook k-1: psi(x) = prod(x - a) * (1 + eta*(x + sum(a)))
    f = field_create(7)
    # psi(3) = 2 * (1 + 1*(3 + 1 + 2)) = 2 * 7 = 0 at eta = 1
    spec = rctrs_spec(f, (1, 2), 3, 4, 0, 1, k=3, h=2)
    for fn in (mds_closed_form_hk1, mds_closed_form_general):
        assert fn(spec).witness == (0, 1, 2)
    # at eta = 2, psi(3) = 2 * (1 + 2*6) = 5 and psi(4) = 6 * (1 + 2*7) = 6:
    # only lambda = 5/6 = 2 matches
    for lam in range(7):
        spec = rctrs_spec(f, (1, 2), 3, 4, lam, 2, k=3, h=2)
        assert mds_closed_form_hk1(spec).is_mds == (lam != 2)


# --- the sigma walk -------------------------------------------------------------------


def tables_one_by_one(f, points, subsets, lo, hi):
    """Each subset's banded table from scratch, points in position order;
    the oracle for the shared-suffix walk of _symmetric_tables."""
    add, mul = f.add, f.mul
    start = [1] + [0] * hi
    steps = None
    for cols in subsets:
        if steps is None:
            n = len(cols)
            steps = [(p, j) for p in range(n) for j in range(min(hi, p + 1), max(0, lo - n + p), -1)]
        table = start[:]
        for p, j in steps:
            y = mul(points[cols[p]], table[j - 1])
            table[j] = add(table[j], y) if table[j] else y
        yield cols, table


def test_symmetric_tables_walk_matches_tables_one_by_one(monkeypatch):
    """Every table of the walk on indices, degrees lo..hi and both carried
    products, equals the oracle's and the products taken directly, on
    points with zeros and repeats, over every subset size 0..6 and every
    lo <= hi.  Over the fields with a Zech table, where the index walk
    runs with _zech = None, the walk on logs runs beside it, and each of
    its entries, read back through exp, equals the index walk's."""
    rng = random.Random(4096)
    seen = set()
    for f in (field_create(2, 3), field_create(3, 3), F13, field_create(1031, 2), field_create(5, 2)):
        zech = f._zech is not None
        for size in range(7):
            npts = size + rng.randrange(4)
            pool = [0, 1] + [rng.randrange(2, f.q) for _ in range(npts)]
            points = [rng.choice(pool) for _ in range(npts)]
            b, c = rng.choice(points) if npts else 0, rng.randrange(f.q)
            factors = ([f.sub(b, a) for a in points], [f.sub(c, a) for a in points])
            subsets = list(itertools.combinations(range(npts), size))
            subsets.sort(key=lambda cols: cols[::-1])  # colex
            for hi in range(size + 2):
                for lo in range(hi + 1):
                    with monkeypatch.context() as mp:
                        mp.setattr(f, "_zech", None)
                        # the walk reuses its yielded list, so each table is copied
                        walk = [(cols, table[:]) for cols, table in
                                _symmetric_tables(f, points, size, lo, hi, factors)]
                    oracle = tables_one_by_one(f, points, subsets, lo, hi)
                    if zech:
                        log_walk = _symmetric_tables(
                            f, to_logs(f, points), size, lo, hi,
                            [to_logs(f, values) for values in factors],
                        )
                    count = 0
                    for (cols, table), (want_cols, want) in zip(walk, oracle):
                        assert cols == want_cols
                        assert table[lo : hi + 1] == want[lo : hi + 1], (f, points, cols, lo, hi)
                        products = [1, 1]
                        for i in cols:
                            products = [f.mul(x, values[i]) for x, values in zip(products, factors)]
                        assert table[hi + 1 :] == products
                        seen |= {"zero product"} if 0 in products else set()
                        if zech:
                            log_cols, logs = next(log_walk)
                            assert log_cols == cols
                            back = [f._exp[x] if x is not None else 0 for x in logs]
                            assert back[lo : hi + 1] == table[lo : hi + 1], (f, points, cols, lo, hi)
                            assert back[hi + 1 :] == products
                            seen |= {"log walk"} | ({"log walk zero product"} if 0 in products else set())
                            seen |= {"log walk zero sigma"} if 0 in table[max(lo, 1) : hi + 1] else set()
                        count += 1
                    assert count == len(subsets)
                    assert not zech or next(log_walk, None) is None
                    seen |= {f"size={size}"} | ({"lo=0"} if lo == 0 else set())
                    seen |= {"size=npts"} if size == npts else set()
            seen |= {"zero point"} if 0 in points else set()
            seen |= {"log walk zero point"} if zech and 0 in points else set()
            seen |= {"repeated point"} if len(set(points)) < npts else set()
    wanted = {f"size={s}" for s in range(7)} | {"size=npts", "lo=0", "zero product", "zero point", "repeated point"}
    wanted |= {"log walk", "log walk zero point", "log walk zero product", "log walk zero sigma"}
    assert wanted <= seen, wanted - seen
    assert list(_symmetric_tables(F13, [1, 2], 3, 0, 3)) == []  # two points have no 3-subset


def to_logs(f, values):
    """Discrete logs of field elements, None for zero, as the log walk takes them."""
    return [f._log[x] if x else None for x in values]


# --- closed forms against the oracle -----------------------------------------------


@pytest.mark.parametrize("extended", [False, True])
def test_closed_h0_matches_minors(extended):
    rng = random.Random(1000 + extended)
    for f in (F13, F9):
        for _ in range(60):
            spec = random_spec(f, rng, h=0, extended=extended)
            want = mds_by_minors(generator_matrix(spec))
            got = mds_closed_form_h0(spec)
            assert got.is_mds == want.is_mds, spec


@pytest.mark.parametrize("extended", [False, True])
def test_closed_hk1_matches_minors(extended):
    rng = random.Random(2000 + extended)
    for f in (F13, F9):
        for _ in range(60):
            spec = random_spec(f, rng, extended=extended)
            spec = rctrs_spec(
                f, spec.alphas, spec.b, spec.c, spec.lam, spec.eta,
                k=spec.k, h=spec.k - 1, extended=extended,
            )
            want = mds_by_minors(generator_matrix(spec))
            got = mds_closed_form_hk1(spec)
            assert got.is_mds == want.is_mds, spec


def test_closed_general_matches_minors_all_hooks():
    rng = random.Random(3000)
    for f in (F13, F9):
        for _ in range(60):
            spec = random_spec(f, rng)
            want = mds_by_minors(generator_matrix(spec))
            got = mds_closed_form_general(spec)
            assert got.is_mds == want.is_mds, spec


def test_general_agrees_with_specialized_forms():
    rng = random.Random(4000)
    for _ in range(40):
        spec = random_spec(F13, rng, h=0)
        assert mds_closed_form_general(spec).is_mds == mds_closed_form_h0(spec).is_mds
        spec = random_spec(F13, rng)
        spec = rctrs_spec(
            F13, spec.alphas, spec.b, spec.c, spec.lam, spec.eta,
            k=spec.k, h=spec.k - 1,
        )
        assert mds_closed_form_general(spec).is_mds == mds_closed_form_hk1(spec).is_mds


def test_closed_form_witness_columns_are_singular():
    rng = random.Random(5000)
    checked = 0
    while checked < 15:
        spec = random_spec(F9, rng, h=0, extended=bool(checked % 2))
        verdict = mds_closed_form_h0(spec)
        if verdict.is_mds:
            continue
        checked += 1
        g = generator_matrix(spec)
        sub = Matrix(F9, [[row[c] for c in verdict.witness] for row in g.rows])
        assert det(sub) == 0, (spec, verdict)


def category_order(npts, k, extended):
    """Column sets in the closed forms' scan order; twist at npts, coefficient at npts+1."""
    twist, coeff = npts, npts + 1
    yield from colex_subsets(npts, k)
    if extended:
        yield from (cols + (coeff,) for cols in colex_subsets(npts, k - 1))
    yield from (cols + (twist,) for cols in colex_subsets(npts, k - 1))
    if extended and k >= 2:
        yield from (cols + (twist, coeff) for cols in colex_subsets(npts, k - 2))


def corner_spec(f, rng):
    """A random t = 1 RCTRS spec that may hit k = 1, b or c among the points,
    b = c, lambda = 0 or eta = 0; returns it with the corners it hits."""
    npts = rng.randrange(1, min(f.q, 8) + 1)
    k = rng.randrange(1, min(5, npts + 1) + 1)
    h = rng.choice((0, k - 1, rng.randrange(k)))
    pool = rng.sample(range(f.q), f.q)
    alphas = pool[:npts]
    b, c = rng.choice(pool), rng.choice(pool)
    if rng.random() < 0.15:
        c = b
    lam = 0 if rng.random() < 0.15 else rng.randrange(f.q)
    eta = 0 if rng.random() < 0.15 else rng.randrange(f.q)
    extended = rng.random() < 0.5
    spec = rctrs_spec(f, alphas, b, c, lam, eta, k=k, h=h, extended=extended)
    corners = {f"q={f.q}", "extended" if extended else "plain"}
    corners |= {"k=1"} if k == 1 else set()
    corners |= {"h=0"} if h == 0 else ({"h=k-1"} if h == k - 1 else {"interior hook"})
    corners |= {"b or c among points"} if b in alphas or c in alphas else set()
    corners |= {"b=c"} if b == c else set()
    corners |= {"lambda=0"} if lam == 0 else set()
    corners |= {"eta=0"} if eta == 0 else set()
    return spec, corners


CORNER_FIELDS = (F13, F9) + tuple(field_create(p, m) for p, m in ((7, 1), (2, 3), (2, 4), (5, 2), (3, 3), (11, 1)))


# a witness by its columns past the points: twist at offset 0, coefficient at 1
WITNESS_KINDS = {(): "evaluations only", (0,): "twist", (1,): "coefficient", (0, 1): "twist and coefficient"}


def test_closed_form_witness_is_first_singular_set_in_category_order():
    rng = random.Random(5500)
    differs = 0
    seen = set()
    for f in CORNER_FIELDS:
        for _ in range(50):
            spec, corners = corner_spec(f, rng)
            entries = {
                "closed_form_h0": (mds_closed_form_h0, spec.h == 0),
                "closed_form_hk1": (mds_closed_form_hk1, spec.h == spec.k - 1),
                "closed_form_general": (mds_closed_form_general, not spec.extended or spec.h in (0, spec.k - 1)),
            }
            g = generator_matrix(spec)
            npts = len(spec.alphas)
            first = next(
                (cols for cols in category_order(npts, spec.k, spec.extended)
                 if det(Matrix(f, [[row[c] for c in cols] for row in g.rows])) == 0),
                None,
            )
            for label, (fn, applies) in entries.items():
                if not applies:
                    with pytest.raises(WrongHookTwistError):
                        fn(spec)
                    continue
                got = fn(spec)
                assert (got.witness, got.method) == (first, label), (spec, got)
            if first is not None:
                corners.add("witness with " + WITNESS_KINDS[tuple(c - npts for c in first if c >= npts)])
                differs += first != mds_by_minors(g).witness
            seen |= corners
    wanted = {f"q={f.q}" for f in CORNER_FIELDS} | {
        "plain", "extended", "k=1", "h=0", "h=k-1", "interior hook", "b or c among points",
        "b=c", "lambda=0", "eta=0", "witness with evaluations only", "witness with coefficient",
        "witness with twist", "witness with twist and coefficient",
    }
    assert wanted <= seen, wanted - seen
    assert differs  # the category order is not the global colex order


# --- dispatch -------------------------------------------------------------------------


def test_closed_form_dispatch():
    spec = rctrs_spec(F13, (1, 2, 3, 4), 5, 6, 7, 8, k=3, h=0)
    assert closed_form_for(spec) is mds_closed_form_h0
    spec = rctrs_spec(F13, (1, 2, 3, 4), 5, 6, 7, 8, k=3, h=2)
    assert closed_form_for(spec) is mds_closed_form_hk1
    spec = rctrs_spec(F13, (1, 2, 3, 4), 5, 6, 7, 8, k=4, h=1)
    assert closed_form_for(spec) is mds_closed_form_general
    grs = CodeSpec(CodeFamily.GRS, F13, 4, 2, (1, 2, 3, 4))
    assert closed_form_for(grs) is None
    ext_interior = rctrs_spec(F13, (1, 2, 3, 4, 5), 6, 7, 8, 9, k=4, h=1, extended=True)
    assert closed_form_for(ext_interior) is None


def test_check_mds_closed_without_closed_form():
    grs = CodeSpec(CodeFamily.GRS, F13, 4, 2, (1, 2, 3, 4))
    with pytest.raises(WrongHookTwistError):
        check_mds(grs, method="closed")


def test_check_mds_both_on_extended_interior_falls_back_to_minors():
    spec = rctrs_spec(F13, (1, 2, 3, 4, 5), 6, 7, 8, 9, k=4, h=1, extended=True)
    verdict = check_mds(spec)
    assert verdict.method == "minors"


def test_check_mds_both_method_label():
    spec = rctrs_spec(F13, (1, 2, 3, 4), 5, 6, 7, 8, k=3, h=0)
    assert check_mds(spec).method == "both"


def test_check_mds_closed_builds_no_generator_matrix(monkeypatch):
    spec = rctrs_spec(F13, (1, 2, 3, 4), 5, 6, 7, 8, k=3, h=0)
    monkeypatch.setattr(rctrs.mds, "generator_matrix", lambda s: pytest.fail("matrix built"))
    assert check_mds(spec, method="closed").method == "closed_form_h0"


def test_check_mds_unknown_method():
    spec = rctrs_spec(F13, (1, 2, 3, 4), 5, 6, 7, 8, k=3, h=0)
    with pytest.raises(ValueError):
        check_mds(spec, method="guesswork")


def test_method_disagreement_raises(monkeypatch):
    spec = rctrs_spec(F13, (1, 2, 3, 4), 5, 6, 7, 8, k=3, h=0)
    truth = check_mds(spec, method="minors")
    import rctrs.mds as mds_mod

    def flipped(s):
        return MdsVerdict(not truth.is_mds, None, "closed_form_h0")

    monkeypatch.setattr(mds_mod, "closed_form_for", lambda s: flipped)
    with pytest.raises(MethodDisagreementError):
        check_mds(spec)


def test_closed_form_twist_witness_error_is_not_swallowed(monkeypatch):
    """The fast twist test on logs guards only its log arithmetic with
    except TypeError, so a TypeError raised while building its witness
    propagates rather than sending the subset to the general test."""
    f = field_create(7, 2)
    spec = rctrs_spec(f, (24, 1, 23, 26), b=18, c=27, lam=45, eta=36, k=4)
    assert mds_closed_form_h0(spec).witness == (0, 1, 2, 4)  # a twist witness, found by the fast test
    raised = []

    def failing_once(is_mds, witness, method):
        if 4 in witness and not raised:
            raised.append(witness)
            raise TypeError("witness")
        return MdsVerdict(is_mds, witness, method)

    monkeypatch.setattr(rctrs.mds, "MdsVerdict", failing_once)
    with pytest.raises(TypeError, match="witness"):
        mds_closed_form_h0(spec)
    assert raised == [(0, 1, 2, 4)]


def test_verdict_render():
    assert MdsVerdict(True, None, "both").render() == "mds=true method=both"
    assert (
        MdsVerdict(False, (0, 2, 3), "minors").render()
        == "mds=false witness=[0,2,3] method=minors"
    )


# --- minor scan against the slow oracle -----------------------------------------------


def brute_mds_by_minors(g):
    """One determinant per k-subset of columns, in colex order."""
    for cols in colex_subsets(g.ncols, g.nrows):
        if det(Matrix(g.field, [[row[c] for c in cols] for row in g.rows])) == 0:
            return MdsVerdict(False, cols, "minors")
    return MdsVerdict(True, None, "minors")


# GF(2), GF(4), GF(8), prime fields, GF(9), GF(27) and GF(49), which sum on
# logs, and GF(1031^2), which has no tables
MINOR_FIELDS = ((2, 1), (2, 2), (2, 3), (3, 1), (5, 1), (3, 2), (13, 1), (3, 3), (7, 2), (1031, 2))


def minor_cases(rng):
    """Seeded RCTRS specs and raw matrices, each with its field label."""
    for p, m in MINOR_FIELDS:
        f = field_create(p, m)
        label = f"p={p},m={m}"
        rounds = 8 if f.q > 1000 else 40
        for _ in range(rounds):
            npts = rng.randrange(1, min(f.q, 7) + 1)
            k = rng.randrange(1, min(5, npts + 1) + 1)
            pool = rng.sample(range(f.q), min(f.q, npts + 2))
            try:
                spec = CodeSpec(
                    CodeFamily.RCTRS, f, npts + 1, k, tuple(pool[:npts]),
                    h=rng.randrange(k), t=rng.choice((1, 1, 2)),
                    b=rng.choice(pool), c=rng.choice(pool), lam=rng.randrange(f.q),
                    eta=rng.randrange(f.q), extended=rng.random() < 0.5,
                )
                g = generator_matrix(spec).matrix
            except ValueError:
                continue
            yield g, {label}
        for _ in range(rounds * 2):
            k = rng.randrange(1, 5)
            n = rng.randrange(k, k + 5)
            density = rng.choice((0.3, 0.7, 1.0))
            rows = [[rng.randrange(f.q) if rng.random() < density else 0 for _ in range(n)] for _ in range(k)]
            shape = rng.randrange(5)
            if shape == 0 and k >= 2:
                rows[rng.randrange(k)] = [0] * n
            elif shape == 1 and k >= 2:
                i, j = rng.sample(range(k), 2)
                rows[i] = rows[j][:]
            elif shape == 2 and n > k:
                for row in rows:
                    row[0] = 0
            yield Matrix(f, rows), {label}


def test_minor_scan_matches_brute_force():
    seen = set()
    for g, corners in minor_cases(random.Random(7000)):
        verdict = mds_by_minors(g)
        assert verdict == brute_mds_by_minors(g), (g.field, g.rows)
        k = g.nrows
        pivots = pivot_columns(g)
        corners |= {"k=1"} if k == 1 else set()
        corners |= {"k=N"} if k == g.ncols else set()
        corners |= {"zero row"} if any(not any(row) for row in g.rows) else set()
        corners |= {"repeated row"} if len(set(g.rows)) < k else set()
        if len(pivots) < k:
            corners.add("rank-deficient")
            assert verdict.witness == tuple(range(k))
        else:
            if pivots != list(range(k)):
                corners.add("pivots not the first k columns")
            elif any(not x for row in rref(g).rows for x in row[k:]):
                corners.add("zero in the block beside the pivots")  # a zero Laplace term
            if not verdict.is_mds:
                has_pivot = set(verdict.witness) & set(pivots)
                corners.add("witness with pivot column" if has_pivot else "witness without pivot column")
        seen |= corners
    wanted = {f"p={p},m={m}" for p, m in MINOR_FIELDS} | {
        "k=1", "k=N", "zero row", "repeated row", "rank-deficient",
        "pivots not the first k columns", "zero in the block beside the pivots",
        "witness with pivot column", "witness without pivot column",
    }
    assert wanted <= seen, wanted - seen


# odd-p extensions with a Zech table, on which mds_by_minors sums on logs
LOG_FIELDS = ((5, 2), (3, 3), (7, 2), (3, 5), (31, 2))


class CountingZech(list):
    """A Zech table that counts its reads and the zero sums it returns."""

    reads = zeros = 0

    def __getitem__(self, d):
        z = super().__getitem__(d)
        self.reads += 1
        self.zeros += z is None
        return z


def log_sum_cases(rng):
    """Seeded matrices over LOG_FIELDS, most of them [I | A]."""
    for p, m in LOG_FIELDS:
        f = field_create(p, m)
        for _ in range(30):
            k = rng.randint(1, 6)
            n = rng.randint(k, 14)
            zeros = rng.choice((0.0, 0.0, 0.05, 0.3))
            rows = [[0 if rng.random() < zeros else rng.randrange(1, f.q) for _ in range(n)]
                    for _ in range(k)]
            shape = rng.randrange(6)
            if shape < 4:
                for i, row in enumerate(rows):
                    row[:k] = [int(i == j) for j in range(k)]
            elif shape == 4 and k >= 2:
                rows[-1] = [f.mul(x, 2) for x in rows[0]]
            yield f, Matrix(f, rows)
    # An MDS scan sums to zero only before the last term of a block of three
    # or more terms, about once in 50 [I | A] with a 3x3 A over GF(25).
    f = field_create(5, 2)
    for _ in range(300):
        yield f, Matrix(f, [[int(i == j) for j in range(3)] + [rng.randrange(1, f.q) for _ in range(3)]
                            for i in range(3)])


def test_log_sum_matches_index_sum(monkeypatch):
    """The log sum of mds_by_minors against the index sum, its oracle."""
    seen = set()
    for f, g in log_sum_cases(random.Random(1700)):
        assert f._zech is not None
        counting = CountingZech(f._zech)
        with monkeypatch.context() as mp:
            mp.setattr(f, "_zech", counting)
            verdict = mds_by_minors(g)
            mp.setattr(f, "_zech", None)
            assert mds_by_minors(g) == verdict, (f, g.rows)
        k = g.nrows
        reduced = rref(g).rows
        pivots = [next(j for j, x in enumerate(row) if x) for row in reduced if any(row)]
        corners = {f"p={f.p},m={f.m}"}
        corners |= {"k=1"} if k == 1 else set()
        corners |= {"k=N"} if k == g.ncols else set()
        corners |= {"rank below k"} if len(pivots) < k else set()
        corners |= {"log sums ran"} if counting.reads else set()
        if pivots == list(range(k)):
            if any(not x for row in reduced for x in row[k:]):
                corners.add("zero entry of A")
            if verdict.is_mds and counting.zeros:
                corners.add("zero partial sum restarted")  # no block of an MDS scan sums to zero
            if not verdict.is_mds and len(set(verdict.witness) & set(range(k))) <= k - 2:
                corners.add("singular multi-term block")
        seen |= corners
    wanted = {f"p={p},m={m}" for p, m in LOG_FIELDS} | {
        "k=1", "k=N", "rank below k", "log sums ran", "zero entry of A",
        "zero partial sum restarted", "singular multi-term block",
    }
    assert wanted <= seen, wanted - seen


def test_scans_on_a_fresh_field_sum_through_its_zech_table(monkeypatch):
    """On a field none of whose ops was read before, mds_by_minors and the
    closed form bind the Zech table with their first read and sum through it."""
    bind = Field._bind_ops

    def bind_counting(f):
        bind(f)
        f._zech = CountingZech(f._zech)

    monkeypatch.setattr(Field, "_bind_ops", bind_counting)
    for p, m in ((5, 2), (3, 5)):
        f = Field(p, m)
        g = Matrix(f, [[1, 0, 0, 2, 3], [0, 1, 0, 4, 5], [0, 0, 1, 6, 7]])
        assert not vars(f)  # no op read yet
        mds_by_minors(g)
        assert f._zech.reads
        f = Field(p, m)
        spec = rctrs_spec(f, [1, 2, 3, 4, 5], b=6, c=7, lam=1, eta=1, k=2, h=1)
        assert not vars(f)
        closed_form_for(spec)(spec)
        assert f._zech.reads


def test_closed_form_on_logs_matches_index_path(monkeypatch):
    """The closed form on discrete logs against itself on indices, its
    oracle: the same verdict, witness and method label on every spec."""
    rng = random.Random(2020)
    seen = set()
    for p, m in ((3, 2),) + LOG_FIELDS:
        f = field_create(p, m)
        assert f._zech is not None
        for _ in range(150):
            spec, corners = corner_spec(f, rng)
            fn = closed_form_for(spec)
            if fn is None:
                continue
            verdict = fn(spec)
            with monkeypatch.context() as mp:
                mp.setattr(f, "_zech", None)
                assert fn(spec) == verdict, spec
            npts = len(spec.alphas)
            corners |= {"zero evaluation point"} if 0 in spec.alphas else set()
            corners |= {"k=2 extended"} if spec.k == 2 and spec.extended else set()
            if verdict.witness is not None:
                extra = tuple(col - npts for col in verdict.witness if col >= npts)
                corners.add("witness with " + WITNESS_KINDS[extra])
                if 0 in extra and spec.b in (spec.alphas[col] for col in verdict.witness if col < npts):
                    corners.add("twist witness with both sides zero")  # prod(b - a) = 0
            seen |= corners
    wanted = {f"q={p ** m}" for p, m in ((3, 2),) + LOG_FIELDS} | {
        "plain", "extended", "k=1", "k=2 extended", "h=0", "h=k-1", "interior hook",
        "zero evaluation point", "b or c among points", "b=c", "lambda=0", "eta=0",
        "witness with evaluations only", "witness with coefficient", "witness with twist",
        "witness with twist and coefficient", "twist witness with both sides zero",
    }
    assert wanted <= seen, wanted - seen


def test_minor_scan_rejects_more_rows_than_columns():
    # no 3-column subset of 2 columns: the scan would have nothing to test
    with pytest.raises(ValueError):
        mds_by_minors(Matrix(field_create(7), [[1, 0], [0, 1], [1, 1]]))


# --- the block walk against the subset-at-a-time scan ----------------------------------


def test_colex_masks_are_the_masks_of_the_colex_table():
    for n in range(11):
        for k in range(n + 2):
            want = tuple(sum(1 << c for c in cols) for cols in rctrs.mds._colex_subsets(n, k))
            assert rctrs.mds._colex_masks(n, k) == want, (n, k)


# GF(31^2) and GF(7^4) sum on logs; GF(2^8), GF(13) and GF(1031^2) on indices
BLOCK_FIELDS = ((31, 2), (7, 4), (2, 8), (13, 1), (1031, 2))


def block_scan_cases(rng):
    """Seeded [I | A] at k = 5..7 and N up to 16: the RREF of a GRS code,
    which is MDS, then with zero entries, and with one entry of A solved
    so that a column set early or late in its block is singular; and the
    edge shapes: no rows, k = 1, k = N, rank below k, pivots not 0..k-1."""
    for p, m in BLOCK_FIELDS:
        f = field_create(p, m)
        for shape in ("mds", "zeros", "early", "late"):
            k, n = rng.randint(5, 7), min(16, f.q)
            spec = CodeSpec(CodeFamily.GRS, f, n, k, tuple(rng.sample(range(f.q), n)))
            rows = [list(row) for row in rref(generator_matrix(spec).matrix).rows]
            if shape == "zeros":
                for _ in range(2):
                    rows[rng.randrange(k)][rng.randrange(k, n)] = 0
            elif shape != "mds":
                # the minor on rest + last is linear in A[i][last], i a row not in rest
                last = rng.randrange(k, n)
                masks = rctrs.mds._colex_masks(last, k - 1)
                half = len(masks) // 2
                rest = masks[rng.randrange(half) if shape == "early" else rng.randrange(half, len(masks))]
                cols = [c for c in range(last) if rest >> c & 1] + [last]
                i = rng.choice([i for i in range(k) if not rest >> i & 1])
                minor = []
                for x in (0, 1):
                    rows[i][last] = x
                    minor.append(det(Matrix(f, [[row[c] for c in cols] for row in rows])).index)
                rows[i][last] = f.mul(f.neg(minor[0]), f.inv(f.sub(minor[1], minor[0])))
            yield Matrix(f, rows)
        yield Matrix(f, [], ncols=4)
        yield Matrix(f, [[1] + [rng.randrange(f.q) for _ in range(7)]])
        yield Matrix(f, [[int(i == j) for j in range(5)] for i in range(5)])
        yield Matrix(f, [[1, 2, 3, 4, 5, 6], [2, 4, 6, 8, 10, 12], [0, 0, 1, 1, 2, 3]])
        yield Matrix(f, [[0, 1, 0, 5, 6, 7], [0, 0, 1, 2, 9, 4]])


def test_block_scan_matches_the_subset_at_a_time_scan(monkeypatch):
    """mds_by_minors against the scan it replaced (oracles.minor_scan):
    the same verdict and witness on every case, and one colex tuple pulled
    per subset decided, the witness's colex rank + 1 or C(N, k)."""
    real = rctrs.mds._colex_subsets
    pulled = []

    def counting(n, k):
        for cols in real(n, k):
            pulled.append(cols)
            yield cols

    monkeypatch.setattr(rctrs.mds, "_colex_subsets", counting)
    seen = set()
    for g in block_scan_cases(random.Random(3100)):
        k, n = g.nrows, g.ncols
        pulled.clear()
        verdict = mds_by_minors(g)
        assert verdict == minor_scan(g), (g.field, g.rows)
        order = colex_oracle(n, k)
        assert len(pulled) == (order.index(verdict.witness) + 1 if verdict.witness else len(order))
        corners = {f"q={g.field.q}", f"k={k}" if k < 2 or k == n else "k=5..7" if k >= 5 else "k=2..4"}
        pivots = pivot_columns(g)
        corners |= {"pivots not 0..k-1"} if pivots != list(range(k)) else set()
        corners |= {"zero entry of A"} if any(not x for row in rref(g).rows for x in row[k:]) else set()
        if verdict.witness and pivots == list(range(k)) and k < n:
            last = verdict.witness[-1]
            at = rctrs.mds._colex_masks(n - 1, k - 1).index(sum(1 << c for c in verdict.witness[:-1]))
            corners.add("witness early in its block" if 2 * at < math.comb(last, k - 1) else
                        "witness late in its block")
        corners |= {"mds"} if verdict.is_mds else set()
        seen |= corners
    wanted = {f"q={p ** m}" for p, m in BLOCK_FIELDS} | {
        "k=0", "k=1", "k=5..7", "pivots not 0..k-1", "zero entry of A", "mds",
        "witness early in its block", "witness late in its block",
    }
    assert wanted <= seen, wanted - seen


# --- minimum distance --------------------------------------------------------------------


def brute_min_weight(f, g):
    best = g.ncols
    k = g.nrows
    for msg in itertools.product(range(f.q), repeat=k):
        if not any(msg):
            continue
        weight = 0
        for j in range(g.ncols):
            acc = 0
            for i in range(k):
                acc = f.add(acc, f.mul(msg[i], g.rows[i][j]))
            weight += acc != 0
        best = min(best, weight)
    return best


# prime, m=2, m>=3 with odd p, and p=2 fields
ENUM_FIELDS = ((5, 1), (7, 1), (3, 2), (2, 2), (3, 3), (2, 3), (2, 4))


def enumeration_cases(rng):
    """Seeded specs and raw matrices, with the corners each one reaches."""
    for p, m in ENUM_FIELDS:
        f = field_create(p, m)
        kmax = max(k for k in range(1, 6) if f.q**k <= 800)
        for k in range(1, kmax + 1):
            for extended in (False, True):
                n = k if rng.random() < 0.3 else rng.randrange(k, min(f.q, k + 5) + 1)
                pool = list(range(f.q))
                rng.shuffle(pool)
                alphas = pool[: n - 1]
                inside = len(alphas) >= 2 and rng.random() < 0.5
                b, c = rng.sample(alphas, 2) if inside else (rng.randrange(f.q), rng.randrange(f.q))
                spec = rctrs_spec(
                    f, alphas, b, c, rng.randrange(f.q), rng.randrange(f.q),
                    k=k, h=rng.randrange(k), extended=extended,
                )
                corners = {f"p={p},m={m}", f"k={k}"}
                corners |= {"k=n"} if k == n else set()
                corners |= {"extended"} if extended else set()
                corners |= {"b,c among points"} if inside else set()
                yield generator_matrix(spec).matrix, corners
        # [n, n-1] and [n, n-2] codes: the best weight falls below k, so the walk prunes
        for k in range(3, kmax + 1):
            for n in (k + 1, k + 2):
                if n > f.q:
                    continue
                pts = rng.sample(range(f.q), n)
                yield generator_matrix(CodeSpec(CodeFamily.GRS, f, n, k, tuple(pts))).matrix, {"GRS n-k<=2"}
                spec = rctrs_spec(
                    f, pts[1:], pts[0], rng.randrange(f.q), rng.randrange(1, f.q), rng.randrange(f.q),
                    k=k, h=rng.randrange(k),
                )
                yield generator_matrix(spec).matrix, {"RCTRS n-k<=2"}
        for k in range(2, kmax + 1):
            n = rng.randrange(k, k + 5)
            rows = [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]
            zero_last = [r[:] for r in rows[:-1]] + [[0] * n]
            yield Matrix(f, zero_last), {"zero last row"}
            repeated = [r[:] for r in rows]
            repeated[rng.randrange(k - 1)] = repeated[-1][:]
            yield Matrix(f, repeated), {"repeated row"}
            # row 0 a multiple of row 1, so the dependent row is not the last
            scaled = [r[:] for r in rows]
            scale = rng.randrange(f.q)
            scaled[0] = [f.mul(scale, x) for x in scaled[1]]
            yield Matrix(f, scaled), {"dependent row not last"}
            # a zero or repeated leading column moves a pivot past column k-1
            wide = [r + [rng.randrange(f.q)] for r in rows]
            yield Matrix(f, [[0] + r[1:] for r in wide]), {"zero leading column"}
            yield Matrix(f, [[r[0]] + r[:-1] for r in wide]), {"repeated leading column"}


def test_enumeration_matches_brute_force():
    seen = set()
    for g, corners in enumeration_cases(random.Random(6000)):
        result = min_distance(g, budget=10**6)
        f, k = g.field, g.nrows
        assert result.method == "enumeration"
        assert result.enumerated == f.q**k - 1
        assert result.value == brute_min_weight(f, g), (f, g.rows)
        pivots = pivot_columns(g)
        if corners & {"zero last row", "repeated row", "dependent row not last"}:
            assert result.value == 0
            assert len(pivots) < k
        # fixed columns (zero in the last row) beside moving ones
        corners |= {"last row partly zero"} if 0 in g.rows[-1] and any(g.rows[-1]) else set()
        if len(pivots) == k:
            # the walk drops the prefixes of at least result.value rows
            corners |= {"distance below k"} if result.value < k else set()
            corners |= {"pivot past column k-1"} if pivots != list(range(k)) else set()
        seen |= corners
    wanted = {f"p={p},m={m}" for p, m in ENUM_FIELDS}
    wanted |= {"k=1", "k=2", "k=n", "extended", "b,c among points", "zero last row", "repeated row"}
    wanted |= {"last row partly zero", "GRS n-k<=2", "RCTRS n-k<=2", "distance below k"}
    wanted |= {"dependent row not last", "zero leading column", "repeated leading column"}
    wanted |= {"pivot past column k-1"}
    assert wanted <= seen, wanted - seen
    # no rows, no nonzero codeword, no minimum distance
    with pytest.raises(ValueError):
        min_distance(Matrix(F13, [], ncols=4))


def test_negative_budget_is_refused():
    spec = CodeSpec(CodeFamily.GRS, F13, 6, 3, (1, 2, 3, 4, 5, 6))
    g = generator_matrix(spec).matrix
    for call in (lambda b: min_distance(g, budget=b), lambda b: rctrs.analyze(spec, budget=b)):
        with pytest.raises(ValueError, match="distance budget must be non-negative, got -5"):
            call(-5)

    # analyze refuses the budget before it builds G or checks it
    def fail(*args, **kwargs):
        raise AssertionError("analyze did work before refusing the budget")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rctrs.report, "generator_matrix", fail)
        patch.setattr(rctrs.report, "check_mds", fail)
        with pytest.raises(ValueError, match="distance budget must be non-negative, got -5"):
            rctrs.analyze(spec, budget=-5)
    # a zero budget enumerates nothing: the MDS shortcut gives n - k + 1
    assert min_distance(g, budget=0) == DistanceResult(4, "minors")
    assert rctrs.analyze(spec, budget=0).distance == DistanceResult(4, "minors")


def test_budget_equal_to_q_to_the_k_enumerates():
    spec = CodeSpec(CodeFamily.GRS, F13, 6, 2, (1, 2, 3, 4, 5, 6))
    g = generator_matrix(spec).matrix
    assert min_distance(g, budget=13**2) == DistanceResult(5, "enumeration", 13**2 - 1)
    assert min_distance(g, budget=13**2 - 1) == DistanceResult(5, "minors")


def test_distance_minors_path_on_mds_code():
    # q^k too large to enumerate: falls back to Singleton through minors
    f = field_create(23, 2)
    spec = CodeSpec(CodeFamily.GRS, f, 12, 6, tuple(range(1, 13)))
    g = generator_matrix(spec)
    result = min_distance(g, budget=1000)
    assert result.method == "minors"
    assert result.value == 12 - 6 + 1


def test_distance_budget_exceeded_on_non_mds_code():
    f = field_create(23, 2)
    pts = tuple(range(1, 12))
    squares = [f.mul(x, x) for x in pts]
    cubes = [f.mul(x, y) for x, y in zip(pts, squares)]
    # Full rank, but the zero first column makes every minor through it vanish.
    m = Matrix(f, [[0, *pts], [0, *squares], [0, *cubes]])
    assert not mds_by_minors(m).is_mds
    result = min_distance(m, budget=1000)
    assert result.value is None
    assert result.method == "budget-exceeded"
    # A repeated row has rank below k, so some nonzero message encodes to zero.
    repeated = Matrix(f, [pts, pts, squares])
    assert min_distance(repeated, budget=1000) == DistanceResult(0, "minors")


def test_distance_of_rank_deficient_matrix_is_zero_within_and_past_budget():
    f = field_create(7)
    m = Matrix(f, [[1, 2], [3, 4], [5, 6]])  # more rows than columns
    assert min_distance(m).value == 0
    assert min_distance(m, budget=100) == DistanceResult(0, "minors")
    dependent = Matrix(f, [[1, 2, 3, 4], [2, 4, 6, 1], [0, 1, 1, 5]])  # row 2 = 2 * row 1
    assert min_distance(dependent).value == 0
    # past the budget the kept RREF shows rank 2 < 3, so no minor is scanned
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rctrs.mds, "mds_by_minors", lambda g: pytest.fail("scanned the minors"))
        assert min_distance(dependent, budget=100) == DistanceResult(0, "minors")
        assert min_distance(m, budget=100) == DistanceResult(0, "minors")


def test_each_matrix_is_reduced_once(tmp_path, monkeypatch, capsys):
    """A Matrix keeps its first full reduction (see rctrs.linalg), so an
    analysis reduces G once however many analyzers read its RREF."""
    real = rctrs.linalg._eliminate
    calls = []

    def counting(field, rows, full=False):
        calls.append(full)
        return real(field, rows, full)

    # wrapped wherever a module of the package holds it
    for name, module in list(sys.modules.items()):
        if name.startswith("rctrs") and getattr(module, "_eliminate", None) is real:
            monkeypatch.setattr(module, "_eliminate", counting)

    def reductions(call):
        """(full reductions made, result) of call()."""
        calls.clear()
        result = call()
        return calls.count(True), result

    f17 = field_create(17)
    mds17 = rctrs_spec(f17, (0, 3, 7, 8, 10, 12, 13), 1, 2, 10, 4, k=4)
    cases = [
        (CodeSpec(CodeFamily.GRS, F13, 6, 3, (1, 2, 3, 4, 5, 6)), "enumeration"),
        (mds17, "enumeration"),
        (rctrs_spec(F9, (0, 1, 2, 3, 4), 5, 6, 1, 1, k=2, extended=True), "enumeration"),
        (rctrs_spec(f17, (0, 3, 7, 8, 10, 12, 13), 1, 2, 10, 4, k=4, h=2), "enumeration"),
        (mds17, "minors"),
        (rctrs_spec(f17, (0, 1, 2, 3, 4), 1, 2, 3, 2, k=3), "budget-exceeded"),
    ]
    for spec, method in cases:
        budget = DEFAULT_DISTANCE_BUDGET if method == "enumeration" else 0
        count, report = reductions(lambda: rctrs.analyze(spec, budget=budget))
        assert (count, report.distance.method) == (1, method), spec
    dependent = Matrix(F13, [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 5]])
    assert reductions(lambda: min_distance(dependent, budget=0)) == (1, DistanceResult(0, "minors"))

    path = tmp_path / "code.spec"
    path.write_text(codespec_to_text(mds17))
    for argv in (["schur-dim"], ["distinguish", "--target", "ctrs"], ["distance", "--budget", "0"]):
        argv = argv[:1] + [str(path)] + argv[1:]
        assert reductions(lambda: rctrs.cli.main(argv)) == (1, 0), argv
    capsys.readouterr()

    built = ((2, 4, 6), (1, 2, 3), (0, 0, 5))
    f7 = field_create(7)
    m = Matrix(f7, built)
    count, (first, second) = reductions(lambda: (rref(m), rref(m)))
    assert count == 1 and first == second
    assert first.rows == ((1, 2, 0), (0, 0, 1), (0, 0, 0))
    # the kept form is immutable, and rows, equality and hashing see only G as built
    pivots, rows = rctrs.linalg._reduced(m)
    assert pivots == (0, 2) and type(rows) is tuple and all(type(r) is tuple for r in rows)
    assert m.rows == built and m == Matrix(f7, built) and hash(m) == hash(Matrix(f7, built))


def test_each_analysis_scans_the_minors_once(tmp_path, monkeypatch, capsys):
    """mds_by_minors keeps its verdict on G (see rctrs.linalg), and the
    distance and the Schur distinguishers read it there, so an analysis or
    a CLI run scans the minors once.  The scans are counted through a
    wrapper set on rctrs.mds.mds_by_minors, where a tracing wrapper goes."""
    real = rctrs.mds.mds_by_minors
    calls = []

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(rctrs.mds, "mds_by_minors", counting)

    def scans(call):
        """(minor scans made, result) of call()."""
        calls.clear()
        result = call()
        return len(calls), result

    f7, f17 = field_create(7), field_create(17)
    mds17 = rctrs_spec(f17, (0, 3, 7, 8, 10, 12, 13), 1, 2, 10, 4, k=4)
    # x + 6x^7 vanishes on GF(7), so row 1 is zero; with 2k <= N the Schur line reads the verdict
    deficient = CodeSpec(CodeFamily.TRS, f7, 7, 3, tuple(range(7)), h=1, t=5, eta=6)
    cases = [
        (CodeSpec(CodeFamily.GRS, F13, 6, 3, (1, 2, 3, 4, 5, 6)), DEFAULT_DISTANCE_BUDGET, "enumeration", True),
        (mds17, 0, "minors", True),
        (rctrs_spec(f17, (0, 1, 2, 3, 4), 1, 2, 3, 2, k=3), 0, "budget-exceeded", False),
        (deficient, 0, "minors", False),
    ]
    for spec, budget, method, is_mds in cases:
        count, report = scans(lambda: rctrs.analyze(spec, budget=budget))
        assert (count, report.distance.method, report.mds.is_mds) == (1, method, is_mds), spec
    assert rctrs.analyze(deficient, budget=0).distance == DistanceResult(0, "minors")

    path = tmp_path / "code.spec"
    path.write_text(codespec_to_text(mds17))
    for argv in (["check-mds"], ["schur-dim"], ["distinguish", "--target", "ctrs"], ["distance", "--budget", "0"]):
        argv = argv[:1] + [str(path)] + argv[1:]
        assert scans(lambda: rctrs.cli.main(argv)) == (1, 0), argv
    capsys.readouterr()


def test_distance_reads_the_kept_verdict(monkeypatch):
    """Once mds_by_minors has scanned G, min_distance past the budget reads
    the verdict kept on G and scans no minor."""
    f = field_create(23, 2)
    grs = generator_matrix(CodeSpec(CodeFamily.GRS, f, 12, 6, tuple(range(1, 13))))
    repeated = Matrix(F13, [[1, 0, 1, 1, 2], [0, 1, 1, 1, 3]])  # columns 2 and 3 are equal
    assert mds_by_minors(grs).is_mds and not mds_by_minors(repeated).is_mds
    monkeypatch.setattr(rctrs.mds, "mds_by_minors", lambda g: pytest.fail("scanned the minors"))
    assert min_distance(grs, budget=1000) == DistanceResult(7, "minors")
    assert min_distance(repeated, budget=0) == DistanceResult(None, "budget-exceeded")


def test_default_budget_value():
    assert DEFAULT_DISTANCE_BUDGET == 1 << 24
