"""Exact linear algebra over finite fields."""

import gc
import itertools
import random
import sys

import pytest

from rctrs.errors import NotSquareError, ParseError
from rctrs import gf
from rctrs.gf import field_create
from rctrs.linalg import (
    Matrix,
    det,
    matrix_from_text,
    matrix_to_text,
    rank,
    rref,
)

from oracles import (
    deleted_row_vandermonde_det,
    deleted_row_vandermonde_matrix,
    elementary_symmetric,
    identity,
    row_space_equal,
    transpose,
    vandermonde_det,
    vandermonde_matrix,
)

F7 = field_create(7)
F13 = field_create(13)


def random_matrix(f, nrows, ncols, rng):
    return Matrix(f, [[rng.randrange(f.q) for _ in range(ncols)] for _ in range(nrows)])


def cofactor_det(f, rows):
    """Laplace expansion along the first row; the slow reference."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = f.mul(rows[0][j], cofactor_det(f, minor))
        total = f.add(total, term) if j % 2 == 0 else f.sub(total, term)
    return total


# --- matrix basics -----------------------------------------------------------


def test_matrix_construction_and_access():
    m = Matrix(F7, [[1, 2, 3], [4, 5, 6]])
    assert (m.nrows, m.ncols) == (2, 3)
    assert m.rows[1][2] == 6
    assert m.rows[0] == (1, 2, 3)
    assert transpose(m).rows == ((1, 4), (2, 5), (3, 6))
    assert m == Matrix(F7, [[1, 2, 3], [4, 5, 6]])
    assert m != Matrix(F7, [[1, 2, 3], [4, 5, 0]])


def test_matrix_rejects_bad_entries():
    with pytest.raises(IndexError):
        Matrix(F7, [[0, 7]])
    with pytest.raises(ValueError):
        Matrix(F7, [[0, 1], [2]])


def test_identity():
    m = identity(F7, 3)
    assert m.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert det(m) == 1


def test_empty_matrix_needs_explicit_width():
    m = Matrix(F7, [], ncols=4)
    assert (m.nrows, m.ncols) == (0, 4)
    assert rank(m) == 0
    with pytest.raises(ValueError, match="empty matrix needs an explicit column count"):
        Matrix(F7, [])


def test_matrix_rows_do_not_pile_up_in_tuple_free_lists():
    # A row built by tuple(<generator>) is allocated small and resized, so
    # once freed it lands in CPython's tuple free list for its final size,
    # which no later allocation drains; those lists grow over many matrices.
    rng = random.Random(3)
    grids = [[[rng.randrange(7) for _ in range(11 + i % 5)] for _ in range(3)] for i in range(3000)]
    for grid in grids[:100]:
        Matrix(F7, grid)
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for grid in grids:
            Matrix(F7, grid)
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 500


# --- rank, determinant, rref --------------------------------------------------


def test_det_hand_values():
    assert det(Matrix(F7, [[2]])) == 2
    assert det(Matrix(F7, [[1, 2], [3, 4]])) == (4 - 6) % 7
    singular = Matrix(F7, [[1, 2, 3], [2, 4, 6], [0, 1, 5]])
    assert det(singular) == 0
    assert rank(singular) == 2


def test_det_requires_square():
    with pytest.raises(NotSquareError):
        det(Matrix(F7, [[1, 2, 3], [4, 5, 6]]))


def sparse_matrix(f, nrows, ncols, rng):
    """Random matrix with a random share of zeros, sometimes with a repeated row."""
    density = rng.random()
    rows = [[rng.randrange(1, f.q) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.2:
        rows[-1] = rows[0][:]
    return Matrix(f, rows)


def test_det_matches_cofactor_expansion():
    rng = random.Random(23)
    for _ in range(60):
        m = random_matrix(F13, 4, 4, rng)
        assert det(m) == cofactor_det(F13, [list(r) for r in m.rows])
    seen = set()
    for f in (field_create(2, 3), field_create(3, 2)):
        for _ in range(150):
            n = rng.randrange(1, 6)
            m = sparse_matrix(f, n, n, rng)
            want = cofactor_det(f, [list(r) for r in m.rows])
            assert det(m) == want, m.rows
            if not want:
                seen.add("singular")
            elif not m.rows[0][0]:
                seen.add("row swap")
    assert seen == {"singular", "row swap"}


def test_det_multiplicative():
    f = field_create(3, 2)
    rng = random.Random(17)
    for _ in range(50):
        a = random_matrix(f, 3, 3, rng)
        b = random_matrix(f, 3, 3, rng)
        prod = Matrix(
            f,
            [
                [
                    _dot(f, a.rows[i], tuple(b.rows[t][j] for t in range(3)))
                    for j in range(3)
                ]
                for i in range(3)
            ],
        )
        assert det(prod).index == f.mul(det(a).index, det(b).index)


def _dot(f, x, y):
    acc = 0
    for a, b in zip(x, y):
        acc = f.add(acc, f.mul(a, b))
    return acc


def minor_rank(f, rows):
    """Size of the largest square submatrix with a nonzero cofactor determinant."""
    for size in range(min(len(rows), len(rows[0])), 0, -1):
        for rs in itertools.combinations(rows, size):
            for cs in itertools.combinations(range(len(rows[0])), size):
                if cofactor_det(f, [[row[c] for c in cs] for row in rs]):
                    return size
    return 0


def test_rank_transpose_and_nullity():
    rng = random.Random(31)
    deficient = 0
    for f in (F13, field_create(2, 3), field_create(3, 2)):
        for _ in range(40):
            nrows = rng.randrange(1, 6)
            ncols = rng.randrange(1, 7)
            m = random_matrix(f, nrows, ncols, rng) if f is F13 else sparse_matrix(f, nrows, ncols, rng)
            r = rank(m)
            assert r == minor_rank(f, m.rows)
            assert r == rank(transpose(m))
            deficient += r < min(nrows, ncols)
    assert deficient


# One field of each shape: prime, p = 2 and odd p with tables, odd p and
# p = 2 without (q above 2^20).
ELIMINATION_SHAPES = [(13, 1), (2, 8), (7, 4), (1031, 2), (2, 21)]


@pytest.mark.parametrize("p,m", ELIMINATION_SHAPES)
def test_elimination_adds_a_negated_multiple_and_never_subtracts(p, m):
    shared = field_create(p, m)  # the oracles' field, its sub intact
    f = gf.Field(p, m)  # an instance of its own, so the cached field keeps its sub
    f.add(0, 0)  # the first arithmetic binds the ops, which would rebind sub

    def no_sub(a, b):
        raise AssertionError(f"elimination called sub({a}, {b})")

    f.sub = no_sub
    rng = random.Random(f"no-sub:{p}^{m}")
    deficient = 0
    for _ in range(12):
        square = sparse_matrix(f, 4, 4, rng)
        assert det(square) == cofactor_det(shared, [list(r) for r in square.rows])
        wide = sparse_matrix(f, 3, 5, rng)
        r = rank(wide)
        assert r == minor_rank(shared, wide.rows)
        reduced = rref(wide)
        assert rank(reduced) == r == rank(Matrix(f, wide.rows + reduced.rows))
        assert all(next(x for x in row if x) == 1 for row in reduced.rows[:r])
        deficient += r < 3
    assert deficient


def test_rref_shape():
    m = Matrix(F7, [[2, 4, 6], [1, 2, 3], [0, 0, 5]])
    r = rref(m)
    assert r.rows[0] == (1, 2, 0)
    assert r.rows[1] == (0, 0, 1)
    assert all(x == 0 for x in r.rows[2])
    assert rref(r) == r  # idempotent


def test_row_space_equal():
    a = Matrix(F7, [[1, 2, 3], [0, 1, 4]])
    swapped_scaled = Matrix(F7, [[0, 3, 5], [2, 4, 6]])
    assert row_space_equal(a, swapped_scaled)
    assert not row_space_equal(a, Matrix(F7, [[1, 2, 3]]))
    other = Matrix(F7, [[1, 2, 3], [0, 1, 5]])
    assert not row_space_equal(a, other)


# --- elementary symmetric polynomials ------------------------------------------


def brute_esym(f, values, r):
    total = 0
    for combo in itertools.combinations(values, r):
        prod = 1
        for x in combo:
            prod = f.mul(prod, x)
        total = f.add(total, prod)
    return total


def test_elementary_symmetric_against_subset_enumeration():
    rng = random.Random(47)
    f = field_create(13)
    for _ in range(20):
        values = [rng.randrange(13) for _ in range(8)]
        for r in range(9):
            assert elementary_symmetric(f, values, r) == brute_esym(f, values, r)
    assert elementary_symmetric(f, [], 0) == 1
    assert elementary_symmetric(f, [5], 2) == 0


# --- Vandermonde ----------------------------------------------------------------


def test_vandermonde_matrix_layout():
    m = vandermonde_matrix(F7, [2, 3], 3)
    assert m.rows == ((1, 1), (2, 3), (4, 2))


def test_vandermonde_det_product_formula():
    rng = random.Random(59)
    f = field_create(7, 2)
    for _ in range(100):
        n = rng.randrange(1, 7)
        pts = rng.sample(range(f.q), n)
        v = vandermonde_matrix(f, pts, n)
        expected = 1
        for i in range(n):
            for j in range(i + 1, n):
                expected = f.mul(expected, f.sub(pts[j], pts[i]))
        assert det(v) == expected
        assert vandermonde_det(f, pts) == expected


def test_vandermonde_det_vanishes_on_repeats():
    assert vandermonde_det(F7, [1, 3, 1]) == 0


def test_deleted_row_vandermonde_against_direct_det():
    rng = random.Random(61)
    for f in (F13, field_create(7, 2)):
        for _ in range(100):
            n = rng.randrange(2, 7)
            skip = rng.randrange(1, n)
            pts = rng.sample(range(f.q), n)
            m = deleted_row_vandermonde_matrix(f, pts, skip)
            assert m.nrows == n == m.ncols
            assert deleted_row_vandermonde_det(f, pts, skip) == det(m)


def test_deleted_row_vandermonde_closed_form_value():
    # deleting the x^1 row for points (a, b): det [[1,1],[a^2,b^2]] = b^2 - a^2
    f = F13
    for a in range(5):
        for b in range(5, 10):
            got = deleted_row_vandermonde_det(f, [a, b], 1)
            assert got == f.sub(f.mul(b, b), f.mul(a, a))


def test_deleted_row_skip_bounds():
    with pytest.raises(ValueError):
        deleted_row_vandermonde_matrix(F7, [1, 2, 3], 0)
    with pytest.raises(ValueError):
        deleted_row_vandermonde_matrix(F7, [1, 2, 3], 3)


# --- text round trip --------------------------------------------------------------


def test_matrix_text_round_trip():
    rng = random.Random(71)
    for f, header in ((field_create(23, 2), "23 2 3 5"), (F7, "7 1 3 5")):
        m = random_matrix(f, 3, 5, rng)
        text = matrix_to_text(m)
        assert text.splitlines()[0] == header
        back = matrix_from_text(text)
        assert back == m and back.field == f


def test_matrix_text_round_trip_keeps_a_non_default_modulus():
    f = field_create(3, 2, [2, 2, 1])  # x^2 + 2x + 2, not the default x^2 + 1
    assert f.modulus != field_create(3, 2).modulus
    m = Matrix(f, [[1, 1, 1], [1, 7, 6], [1, 8, 4]])
    assert rank(m) == 3
    text = matrix_to_text(m)
    assert text.splitlines()[0] == "3 2 3 3 1,2,2"
    back = matrix_from_text(text)
    assert back == m and back.field == f and rank(back) == 3
    default = matrix_from_text(matrix_to_text(Matrix(field_create(3, 2), m.rows)))
    assert default.field == field_create(3, 2) != f


def test_matrix_text_searches_the_default_modulus_once(monkeypatch):
    """Exporting over a non-default field compares its modulus with the
    default one, which only the first export may search for, though the
    weak field cache lets the default field go between exports."""
    f = field_create(2, 16, [1, 1, 0, 1] + [0] * 8 + [1, 0, 0, 0, 1])  # x^16 + x^12 + x^3 + x + 1
    m = Matrix(f, [[0, 1, 2, 3]])
    calls = []
    real = gf._is_irreducible
    monkeypatch.setattr(gf, "_is_irreducible", lambda poly, p: calls.append(poly) or real(poly, p))
    counts = []
    for _ in range(5):
        assert matrix_to_text(m).splitlines()[0] == "2 16 1 4 1,0,0,0,1,0,0,0,0,0,0,0,0,1,0,1,1"
        gc.collect()
        counts.append(len(calls))
    assert counts == counts[:1] * 5, counts


def test_matrix_text_parse_errors():
    with pytest.raises(ParseError):
        matrix_from_text("")
    with pytest.raises(ParseError):
        matrix_from_text("7 1 2\n1 2\n3 4\n")  # short header
    for header in ("7 1 -1 2", "7 1 1 -2"):  # negative counts
        with pytest.raises(ParseError, match="bad matrix header"):
            matrix_from_text(header + "\n1\n")
    with pytest.raises(ParseError):
        matrix_from_text("7 1 2 2\n1 2\n")  # missing row
    with pytest.raises(ParseError):
        matrix_from_text("7 1 2 2\n1 2\n3 x\n")
    with pytest.raises(ParseError):
        matrix_from_text("7 1 1 2\n1 2 3\n")  # long row
    with pytest.raises(ParseError):
        matrix_from_text("7 1 1 2\n1 7\n")  # entry outside GF(7)
