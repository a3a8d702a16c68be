"""Schur squares, distinguishers and Hamming isometries."""

import random

import pytest

from rctrs.codes import CodeFamily, CodeSpec, generator_matrix
from rctrs.errors import LengthMismatchError
from rctrs.gf import field_create
from rctrs.linalg import Matrix
from rctrs.mds import MdsVerdict, check_mds, mds_by_minors
from rctrs.schur import (
    ctrs_distinguisher,
    is_non_rs,
    schur_report,
    schur_square_dim,
    schur_square_rows,
    schur_vec,
)

from oracles import (
    Isometry,
    SizeMismatchError,
    apply_isometry,
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


def test_schur_vec():
    f = field_create(7)
    out = schur_vec([1, 2, 3], [4, 5, 6], field=f)
    assert tuple(x.index for x in out) == (4, 3, 4)
    with pytest.raises(LengthMismatchError):
        schur_vec([1, 2], [1, 2, 3], field=f)


def test_schur_vec_infers_field_from_elements():
    f = field_create(7)
    x = [f.element(2), f.element(3)]
    y = [f.element(4), f.element(5)]
    assert tuple(e.index for e in schur_vec(x, y)) == (1, 1)


def test_schur_square_rows_count():
    spec = grs_spec(F13, (1, 2, 3, 4, 5, 6), 3)
    rows = schur_square_rows(generator_matrix(spec))
    assert rows.nrows == 3 * 4 // 2
    assert rows.ncols == 6


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


MDS_TRUE = MdsVerdict(True, None, "minors")
MDS_FALSE = MdsVerdict(False, (0,), "minors")


def test_is_non_rs_on_grs_is_false():
    spec = grs_spec(F13, (1, 2, 3, 4, 5, 6, 7, 8), 3)
    gen = generator_matrix(spec)
    assert is_non_rs(gen, mds_by_minors(gen)) is False


def test_distinguishers_undetermined_when_preconditions_fail():
    spec = grs_spec(F13, (1, 2, 3, 4, 5), 3)  # 2k > n
    gen = generator_matrix(spec)
    assert is_non_rs(gen, MDS_TRUE) is None
    assert is_non_rs(gen, MDS_FALSE) is None
    boundary = grs_spec(F13, (1, 2, 3, 4, 5, 6), 3)  # 2k = n: rs ok, ctrs not
    gen = generator_matrix(boundary)
    assert is_non_rs(gen, MDS_TRUE) is False
    assert ctrs_distinguisher(gen, MDS_TRUE) is None


def test_ctrs_distinguisher_values():
    f = field_create(23, 2)
    eta = f.primitive_element().index
    from rctrs.construct import SubgroupConstructionParams, build_subgroup_code

    code = build_subgroup_code(SubgroupConstructionParams(f, 1, 11, 12, 7, 5, eta, h=0, k=4))
    gen = generator_matrix(code.spec)
    verdict = check_mds(code.spec, gen=gen)
    assert schur_square_dim(gen) == 9
    assert ctrs_distinguisher(gen, verdict) is True
    assert is_non_rs(gen, verdict) is True


def test_plain_ctrs_code_is_not_flagged():
    # eta = 0 degenerates to a CTRS code whose square has dimension 2k
    f = field_create(23, 2)
    from rctrs.construct import SubgroupConstructionParams, build_subgroup_code

    code = build_subgroup_code(
        SubgroupConstructionParams(f, 1, 11, 12, 7, 5, 0, h=0, k=4)
    )
    gen = generator_matrix(code.spec)
    verdict = check_mds(code.spec, gen=gen)
    assert schur_square_dim(gen) == 8
    assert ctrs_distinguisher(gen, verdict) is False
    assert is_non_rs(gen, verdict) is True


def test_schur_report_render():
    spec = grs_spec(F13, (1, 2, 3, 4, 5, 6, 7, 8), 3)
    gen = generator_matrix(spec)
    rep = schur_report(gen, mds_by_minors(gen))
    assert rep.dim == 5
    assert rep.render() == "schur_dim=5 non_rs=false ctrs_incompatible=false"
    small = grs_spec(F13, (1, 2, 3, 4), 3)
    gen = generator_matrix(small)
    rep = schur_report(gen, mds_by_minors(gen))
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
