"""MDS verification: minor oracle, closed forms, minimum distance."""

import itertools
import random

import pytest

import rctrs.mds
from rctrs.codes import CodeFamily, CodeSpec, generator_matrix
from rctrs.errors import MethodDisagreementError, WrongHookTwistError
from rctrs.gf import field_create
from rctrs.linalg import Matrix, det, rref
from rctrs.mds import (
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

from oracles import colex_subsets as colex_oracle

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
        pivots = [next(j for j, x in enumerate(row) if x) for row in rref(g).rows if any(row)]
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
        f.add  # the first read builds the tables
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


def test_closed_form_on_logs_matches_index_path(monkeypatch):
    """The closed form on discrete logs against itself on indices, its
    oracle: the same verdict, witness and method label on every spec."""
    rng = random.Random(2020)
    seen = set()
    for p, m in ((3, 2),) + LOG_FIELDS:
        f = field_create(p, m)
        f.add  # the first read builds the tables
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
        for k in range(2, kmax + 1):
            n = rng.randrange(k, k + 5)
            rows = [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]
            zero_last = [r[:] for r in rows[:-1]] + [[0] * n]
            yield Matrix(f, zero_last), {"zero last row"}
            repeated = [r[:] for r in rows]
            repeated[rng.randrange(k - 1)] = repeated[-1][:]
            yield Matrix(f, repeated), {"repeated row"}


def test_enumeration_matches_brute_force():
    seen = set()
    for g, corners in enumeration_cases(random.Random(6000)):
        result = min_distance(g, budget=10**6)
        f, k = g.field, g.nrows
        assert result.method == "enumeration"
        assert result.enumerated == f.q**k - 1
        assert result.value == brute_min_weight(f, g), (f, g.rows)
        if "zero last row" in corners or "repeated row" in corners:
            assert result.value == 0
        # fixed columns (zero in the last row) beside moving ones
        corners |= {"last row partly zero"} if 0 in g.rows[-1] and any(g.rows[-1]) else set()
        seen |= corners
    wanted = {f"p={p},m={m}" for p, m in ENUM_FIELDS}
    wanted |= {"k=1", "k=2", "k=n", "extended", "b,c among points", "zero last row", "repeated row"}
    wanted |= {"last row partly zero"}
    assert wanted <= seen, wanted - seen
    # no rows, no nonzero codeword, no minimum distance
    with pytest.raises(ValueError):
        min_distance(Matrix(F13, [], ncols=4))


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
    assert min_distance(dependent, budget=100) == DistanceResult(0, "minors")


def test_distance_uses_supplied_verdict():
    f = field_create(23, 2)
    spec = CodeSpec(CodeFamily.GRS, f, 12, 6, tuple(range(1, 13)))
    g = generator_matrix(spec)
    verdict = mds_by_minors(g)
    result = min_distance(g, budget=1000, mds_verdict=verdict)
    assert result.value == 7


def test_default_budget_value():
    assert DEFAULT_DISTANCE_BUDGET == 1 << 24
