"""Schur squares, distinguishers and Hamming isometries."""

import inspect
import random

import pytest

from rctrs.codes import CodeFamily, CodeSpec, generator_matrix
from rctrs.gf import _is_irreducible, field_create
from rctrs.linalg import Matrix, rank
from rctrs.mds import DistanceResult, check_mds, mds_by_minors, min_distance
from rctrs.report import analyze
from rctrs.schur import (
    ctrs_distinguisher,
    is_non_rs,
    schur_report,
    schur_square_dim,
    schur_square_rows,
)

from oracles import (
    Isometry,
    SizeMismatchError,
    apply_isometry,
    field_isomorphism,
    pivot_columns,
    random_isometry,
    row_space_equal,
)

F13 = field_create(13)


def grs_spec(f, alphas, k, v=None):
    return CodeSpec(CodeFamily.GRS, f, len(alphas), k, tuple(alphas), v=v)


def random_grs(f, rng, half=True):
    n = rng.randrange(4, min(11, f.q + 1))
    k = rng.randrange(2, max(3, n // 2 + 1)) if half else rng.randrange(2, n + 1)
    pts = rng.sample(range(f.q), n)
    v = tuple(rng.randrange(1, f.q) for _ in range(n))
    return grs_spec(f, pts, k, v)


# --- schur products -------------------------------------------------------------


def test_schur_square_rows_count():
    spec = grs_spec(F13, (1, 2, 3, 4, 5, 6), 3)
    rows = schur_square_rows(generator_matrix(spec))
    assert rows.nrows == 3 * 4 // 2
    assert rows.ncols == 6


# prime, m=2, m>=3 with odd p, p=2, and two fields with no tables
SCHUR_FIELDS = ((13, 1), (2, 1), (7, 2), (3, 3), (2, 4), (2, 8), (1031, 2), (2, 21))


def test_schur_square_dim_matches_the_rank_of_every_row_product():
    """schur_square_dim reads the dimension off the RREF; the rank of all
    k(k+1)/2 row products on all columns is its oracle."""
    rng = random.Random(2400)
    seen = set()
    for p, m in SCHUR_FIELDS:
        f = field_create(p, m)
        for _ in range(40):
            k = rng.randrange(1, 6)
            n = rng.randrange(k, k + 5)
            density = rng.random()
            rows = [[rng.randrange(f.q) if rng.random() < density else 0 for _ in range(n)] for _ in range(k)]
            shape = rng.randrange(4)
            if shape == 1 and k > 1:
                rows[0] = rows[-1][:]
            elif shape == 2:
                zero = rng.randrange(n)
                for row in rows:
                    row[zero] = 0
            elif shape == 3 and n > 1:
                for row in rows:
                    row[1] = row[0]
            g = Matrix(f, rows)
            assert schur_square_dim(g) == rank(schur_square_rows(g)), (f, rows)
            pivots = pivot_columns(g)
            seen.add(f"p={p},m={m}")
            seen |= {"k=1"} if k == 1 else set()
            seen |= {"N=k"} if n == k else set()
            seen |= {"rank below k"} if len(pivots) < k else set()
            seen |= {"zero column"} if not all(any(col) for col in zip(*rows)) else set()
            seen |= {"pivot past column k-1"} if pivots != list(range(len(pivots))) else set()
    wanted = {f"p={p},m={m}" for p, m in SCHUR_FIELDS}
    wanted |= {"k=1", "N=k", "rank below k", "zero column", "pivot past column k-1"}
    assert wanted <= seen, wanted - seen


# --- the GRS law ------------------------------------------------------------------


def test_grs_schur_square_dimension_and_row_space():
    rng = random.Random(42)
    for f in (F13, field_create(2, 4), field_create(23, 2)):
        for _ in range(20):
            spec = random_grs(f, rng)
            gen = generator_matrix(spec)
            rows = schur_square_rows(gen)
            k = spec.k
            assert schur_square_dim(gen) == 2 * k - 1
            vv = tuple(f.mul(x, x) for x in spec.multipliers())
            square = grs_spec(f, spec.alphas, 2 * k - 1, vv)
            assert row_space_equal(rows, generator_matrix(square).matrix)


def test_extended_grs_schur_square():
    # the Schur square of an extended GRS code is the extended GRS code
    # of dimension 2k-1 with squared multipliers
    f = F13
    spec = CodeSpec(CodeFamily.GRS, f, 8, 3, tuple(range(1, 9)), extended=True)
    gen = generator_matrix(spec)
    assert schur_square_dim(gen) == 5
    square = CodeSpec(CodeFamily.GRS, f, 8, 5, tuple(range(1, 9)), extended=True)
    assert row_space_equal(schur_square_rows(gen), generator_matrix(square).matrix)


# --- distinguishers ----------------------------------------------------------------


def test_is_non_rs_on_grs_is_false():
    spec = grs_spec(F13, (1, 2, 3, 4, 5, 6, 7, 8), 3)
    gen = generator_matrix(spec)
    assert is_non_rs(gen, schur_square_dim(gen)) is False


def test_distinguishers_undetermined_when_preconditions_fail():
    spec = grs_spec(F13, (1, 2, 3, 4, 5), 3)  # MDS, but 2k > n
    gen = generator_matrix(spec)
    assert mds_by_minors(gen).is_mds
    assert is_non_rs(gen, schur_square_dim(gen)) is None
    # not MDS (columns 2 and 3 are equal), with 2k <= n - 1; the dimensions
    # passed in would decide both verdicts on an MDS code
    repeated = Matrix(F13, [[1, 0, 1, 1, 2], [0, 1, 1, 1, 3]])
    assert not mds_by_minors(repeated).is_mds
    for dim in (3, 4, 5):
        assert is_non_rs(repeated, dim) is None
        assert ctrs_distinguisher(repeated, dim) is None
    boundary = grs_spec(F13, (1, 2, 3, 4, 5, 6), 3)  # MDS, 2k = n: rs ok, ctrs not
    gen = generator_matrix(boundary)
    dim = schur_square_dim(gen)
    assert is_non_rs(gen, dim) is False
    assert ctrs_distinguisher(gen, dim) is None


def test_ctrs_distinguisher_values():
    f = field_create(23, 2)
    eta = f.primitive_element().index
    from rctrs.construct import SubgroupConstructionParams, build_subgroup_code

    code = build_subgroup_code(SubgroupConstructionParams(f, 1, 11, 12, 7, 5, eta, h=0, k=4))
    gen = generator_matrix(code.spec)
    assert check_mds(code.spec, gen=gen).is_mds
    assert schur_square_dim(gen) == 9
    assert ctrs_distinguisher(gen, 9) is True
    assert is_non_rs(gen, 9) is True


def test_plain_ctrs_code_is_not_flagged():
    # eta = 0 degenerates to a CTRS code whose square has dimension 2k
    f = field_create(23, 2)
    from rctrs.construct import SubgroupConstructionParams, build_subgroup_code

    code = build_subgroup_code(
        SubgroupConstructionParams(f, 1, 11, 12, 7, 5, 0, h=0, k=4)
    )
    gen = generator_matrix(code.spec)
    assert check_mds(code.spec, gen=gen).is_mds
    assert schur_square_dim(gen) == 8
    assert ctrs_distinguisher(gen, 8) is False
    assert is_non_rs(gen, 8) is True


def test_analyses_read_g_own_mds_verdict():
    """No analysis takes an MDS verdict from its caller: G = [[1,0,1,1],
    [0,1,1,1]] over GF(7) has two equal columns, so it is not MDS, and the
    distance past the budget and both distinguishers read that from G."""
    signatures = {fn.__name__: list(inspect.signature(fn).parameters)
                  for fn in (min_distance, schur_report, is_non_rs, ctrs_distinguisher)}
    assert signatures == {"min_distance": ["g", "budget"], "schur_report": ["g"],
                          "is_non_rs": ["g", "dim"], "ctrs_distinguisher": ["g", "dim"]}
    g = Matrix(field_create(7), [[1, 0, 1, 1], [0, 1, 1, 1]])
    assert min_distance(g, budget=0) == DistanceResult(None, "budget-exceeded")
    rep = schur_report(g)
    assert (rep.non_rs, rep.ctrs_incompatible) == (None, None)
    assert rep.render() == f"schur_dim={rep.dim} non_rs=undetermined ctrs_incompatible=undetermined"
    assert not mds_by_minors(g).is_mds


def test_schur_report_render():
    spec = grs_spec(F13, (1, 2, 3, 4, 5, 6, 7, 8), 3)
    gen = generator_matrix(spec)
    rep = schur_report(gen)
    assert rep.dim == 5
    assert rep.render() == "schur_dim=5 non_rs=false ctrs_incompatible=false"
    small = grs_spec(F13, (1, 2, 3, 4), 3)
    gen = generator_matrix(small)
    rep = schur_report(gen)
    assert rep.render().endswith("non_rs=undetermined ctrs_incompatible=undetermined")


# --- isometries ------------------------------------------------------------------------


def test_isometry_validation():
    with pytest.raises(SizeMismatchError):
        Isometry((0, 1), (1,))
    with pytest.raises(ValueError):
        Isometry((0, 0), (1, 1))
    with pytest.raises(ValueError):
        Isometry((0, 1), (1, 0))


def test_apply_isometry_by_hand():
    m = Matrix(F13, [[1, 2, 3], [4, 5, 6]])
    iso = Isometry((2, 0, 1), (2, 3, 1))
    out = apply_isometry(m, iso)
    assert out.rows == ((6, 3, 2), (12, 12, 5))


def test_apply_isometry_wrong_length():
    m = Matrix(F13, [[1, 2, 3]])
    with pytest.raises(SizeMismatchError):
        apply_isometry(m, Isometry((1, 0), (1, 1)))


def test_isometry_preserves_schur_dim_and_mds():
    rng = random.Random(77)
    f = field_create(3, 2)
    spec = grs_spec(f, (0, 1, 2, 3, 4, 5, 6, 7), 3)
    gen = generator_matrix(spec)
    base_dim = schur_square_dim(gen)
    base_mds = mds_by_minors(gen).is_mds
    for _ in range(25):
        iso = random_isometry(f, gen.ncols, rng)
        image = apply_isometry(gen, iso)
        assert schur_square_dim(image) == base_dim
        assert mds_by_minors(image).is_mds == base_mds


# Odd p with a Zech table at m = 2, 3 and 4, and p = 2 at m = 6 and 8.
ISOMORPHIC_FIELDS = ((7, 2), (5, 3), (3, 4), (2, 6), (2, 8), (13, 2), (31, 2))


def random_family_spec(f, family, rng):
    n = rng.randrange(3, 12)
    k = rng.randrange(1, n)
    kw = {"extended": rng.random() < 0.5}
    if family is CodeFamily.GRS:
        kw["v"] = tuple(rng.randrange(1, f.q) for _ in range(n))
    else:
        kw.update(h=rng.randrange(k), t=rng.randrange(1, 4), eta=rng.randrange(1, f.q))
    if family.pointed:
        kw.update(b=rng.randrange(f.q), c=rng.randrange(f.q), lam=rng.randrange(f.q))
    points = rng.sample(range(f.q), n - 1 if family.pointed else n)
    return CodeSpec(family, f, n, k, tuple(points), **kw)


def test_a_second_modulus_changes_no_verdict():
    """A field isomorphism onto GF(p^m) under a second modulus maps each
    code onto one with the same MDS verdict, witness and method, distance
    and Schur dimension, although the tables, the Zech table, the derived
    ops and both log paths follow the modulus and the generator."""
    rng = random.Random(2509)
    seen = set()
    for p, m in ISOMORPHIC_FIELDS:
        f = field_create(p, m)
        while True:
            modulus = [rng.randrange(p) for _ in range(m)] + [1]
            if tuple(modulus) != f.modulus and _is_irreducible(modulus, p):
                break
        g = field_create(p, m, modulus)
        phi = field_isomorphism(f, g)
        assert sorted(phi) == list(range(f.q))
        for a, b in ((rng.randrange(f.q), rng.randrange(1, f.q)) for _ in range(100)):
            assert phi[f.add(a, b)] == g.add(phi[a], phi[b])
            assert phi[f.sub(a, b)] == g.sub(phi[a], phi[b])
            assert phi[f.neg(a)] == g.neg(phi[a])
            assert phi[f.mul(a, b)] == g.mul(phi[a], phi[b])
            assert phi[f.inv(b)] == g.inv(phi[b])
        for family in (CodeFamily.GRS, CodeFamily.TRS, CodeFamily.RCTRS):
            for _ in range(6):
                spec = random_family_spec(f, family, rng)
                scalars = {name: phi[getattr(spec, name)] for name in ("b", "c", "lam", "eta")
                           if getattr(spec, name) is not None}
                image = CodeSpec(
                    family, g, spec.n, spec.k, tuple(phi[a] for a in spec.alphas),
                    v=None if spec.v is None else tuple(phi[x] for x in spec.v),
                    h=spec.h, t=spec.t, extended=spec.extended, **scalars,
                )
                want, got = analyze(spec, budget=20000), analyze(image, budget=20000)
                assert (got.mds, got.distance, got.schur) == (want.mds, want.distance, want.schur)
                seen |= {"extended" if spec.extended else "plain"}
                seen |= {"witness" if want.mds.witness else "mds", want.mds.method}
                seen |= {want.distance.method}
    assert seen == {"plain", "extended", "witness", "mds", "minors", "both",
                    "enumeration", "budget-exceeded"}


def test_random_isometry_seeded_reproducible():
    f = F13
    a = random_isometry(f, 6, random.Random(9))
    b = random_isometry(f, 6, random.Random(9))
    assert a == b


def test_apply_isometry_permutes_generator_columns():
    gen = generator_matrix(grs_spec(F13, (1, 2, 3, 4), 2))
    iso = Isometry((3, 2, 1, 0), (1, 1, 1, 1))
    out = apply_isometry(gen, iso)
    assert type(out) is Matrix
    assert out.rows == tuple(tuple(reversed(r)) for r in gen.rows)
