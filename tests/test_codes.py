"""Code specs, twisted polynomial bases and generator matrices."""

import random
from itertools import product

import pytest

from rctrs.codes import CodeFamily, CodeSpec, encode, generator_matrix
from rctrs.errors import InvalidSpecError, LengthMismatchError
from rctrs.gf import field_create
from rctrs.linalg import Matrix, rank

from oracles import eval_poly, twist_space_basis

F7 = field_create(7)
F13 = field_create(13)


def rctrs_spec(f, alphas, b, c, lam, eta, k, h=0, extended=False):
    n = len(alphas) + 1
    return CodeSpec(
        CodeFamily.RCTRS, f, n, k, tuple(alphas),
        h=h, t=1, b=b, c=c, lam=lam, eta=eta, extended=extended,
    )


# --- twist space basis ---------------------------------------------------------


def test_twist_space_basis_layout():
    basis = twist_space_basis(F7, k=3, t=1, h=0, eta=5)
    assert basis == [[1, 0, 0, 5], [0, 1, 0, 0], [0, 0, 1, 0]]
    basis = twist_space_basis(F7, k=3, t=2, h=2, eta=4)
    assert basis == [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 4]]


def test_twist_space_basis_hook_range():
    with pytest.raises(ValueError):
        twist_space_basis(F7, k=3, t=1, h=3, eta=1)
    with pytest.raises(ValueError):
        twist_space_basis(F7, k=3, t=1, h=-1, eta=1)


def test_eval_poly_matches_naive_powers():
    f = field_create(3, 2)
    rng = random.Random(3)
    for _ in range(100):
        coeffs = [rng.randrange(f.q) for _ in range(5)]
        x = rng.randrange(f.q)
        naive = 0
        for i, ci in enumerate(coeffs):
            naive = f.add(naive, f.mul(ci, f.pow(x, i)))
        assert eval_poly(f, coeffs, x).index == naive


def test_generator_matrix_rows_evaluate_the_twisted_basis():
    # Every family, plain and extended, at t = 1, 2, 3, over a table field,
    # a prime field, a char-2 field and table-free GF(1031^2), where
    # Field.pow runs on _poly_powmod.  Points include 0; b and c may be
    # evaluation points or equal; GRS specs may carry multipliers.
    rng = random.Random(4)
    fields = (field_create(3, 2), F13, field_create(2, 3), field_create(1031, 2))
    for f, family, extended, t, _ in product(fields, CodeFamily, (False, True), (1, 2, 3), range(4)):
        if t > 1 and not family.twisted:
            continue
        npts = rng.randrange(1, min(f.q, 8))
        alphas = (0, *rng.sample(range(1, f.q), npts - 1))
        alphas = tuple(rng.sample(alphas, npts))
        k = rng.randrange(1, npts + 1)
        kw = {}
        if family.twisted:
            kw.update(h=rng.randrange(k), t=t, eta=rng.randrange(f.q))
        if family.pointed:
            b, c = (rng.choice((rng.choice(alphas), rng.randrange(f.q)))
                    for _ in range(2))
            kw.update(b=b, c=c, lam=rng.randrange(f.q))
        n = npts + family.pointed
        if family is CodeFamily.GRS and rng.randrange(2):
            kw["v"] = tuple(rng.randrange(1, f.q) for _ in range(n))
        spec = CodeSpec(family, f, n, k, alphas, extended=extended, **kw)

        if family.twisted:
            basis = twist_space_basis(f, k, t, kw["h"], kw["eta"])
        else:
            basis = [[int(i == j) for j in range(k)] for i in range(k)]
        rows = []
        for coeffs in basis:
            row = [eval_poly(f, coeffs, a).index for a in alphas]
            if family.pointed:
                fb, fc = (eval_poly(f, coeffs, x).index for x in (b, c))
                row.append(f.sub(fb, f.mul(kw["lam"], fc)))
            if "v" in kw:
                row = [f.mul(vj, x) for vj, x in zip(kw["v"], row)]
            if extended:
                row.append(coeffs[k - 1])
            rows.append(row)
        gen = generator_matrix(spec)
        assert isinstance(gen, Matrix)
        assert gen == Matrix(f, rows), spec
        assert gen.matrix is gen


# --- spec validation -------------------------------------------------------------


def test_spec_validation_errors():
    with pytest.raises(InvalidSpecError):  # duplicate points
        rctrs_spec(F7, [0, 1, 1], 5, 6, 2, 1, k=2)
    with pytest.raises(InvalidSpecError):  # k out of range
        rctrs_spec(F7, [0, 1, 2], 5, 6, 2, 1, k=5)
    with pytest.raises(InvalidSpecError):  # hook at k
        rctrs_spec(F7, [0, 1, 2], 5, 6, 2, 1, k=3, h=3)
    with pytest.raises(InvalidSpecError, match="^twist amount t=0 must be at least 1$"):
        CodeSpec(CodeFamily.TRS, F7, 3, 2, (0, 1, 2), t=0, eta=1)
    with pytest.raises(InvalidSpecError, match="^GRS spec does not take hook or twist$"):
        CodeSpec(CodeFamily.GRS, F7, 3, 2, (0, 1, 2), h=1)
    with pytest.raises(InvalidSpecError, match="^CTRS spec does not take hook or twist$"):
        CodeSpec(CodeFamily.CTRS, F7, 4, 2, (0, 1, 2), t=2, b=3, c=4, lam=5)
    with pytest.raises(InvalidSpecError, match="^CTRS spec needs b$"):
        CodeSpec(CodeFamily.CTRS, F7, 4, 2, (0, 1, 2))
    with pytest.raises(InvalidSpecError, match="^TRS spec needs eta$"):
        CodeSpec(CodeFamily.TRS, F7, 3, 2, (0, 1, 2))
    with pytest.raises(InvalidSpecError, match="^CTRS spec does not take eta$"):
        CodeSpec(CodeFamily.CTRS, F7, 4, 2, (0, 1, 2), b=3, c=4, lam=5, eta=1)
    with pytest.raises(InvalidSpecError, match="^GRS spec does not take b$"):
        CodeSpec(CodeFamily.GRS, F7, 3, 2, (0, 1, 2), b=3, c=4, lam=5)
    with pytest.raises(InvalidSpecError):  # multipliers on non-GRS
        CodeSpec(CodeFamily.TRS, F7, 3, 2, (0, 1, 2), v=(1, 1, 1), eta=1)
    with pytest.raises(InvalidSpecError):  # zero multiplier
        CodeSpec(CodeFamily.GRS, F7, 3, 2, (0, 1, 2), v=(1, 0, 1))
    with pytest.raises(InvalidSpecError, match="^need 3 column multipliers, got 2$"):
        CodeSpec(CodeFamily.GRS, F7, 3, 2, (0, 1, 2), v=(1, 1))
    with pytest.raises(InvalidSpecError):  # wrong point count
        CodeSpec(CodeFamily.GRS, F7, 3, 2, (0, 1))
    with pytest.raises(InvalidSpecError):  # n beyond q for GRS
        CodeSpec(CodeFamily.GRS, F7, 8, 2, tuple(range(7)) + (0,))
    with pytest.raises(InvalidSpecError):
        CodeFamily.coerce("XYZ")


def test_spec_length_bounds():
    # GRS/TRS cap at q points; CTRS/RCTRS reach q+1 via the twist column.
    CodeSpec(CodeFamily.GRS, F7, 7, 2, tuple(range(7)))
    CodeSpec(CodeFamily.RCTRS, F7, 8, 2, tuple(range(7)), h=0, t=1, b=0, c=1, lam=2, eta=3)


def test_spec_family_coercion_and_columns():
    spec = CodeSpec("rctrs", F7, 4, 2, (0, 1, 2), h=1, t=1, b=3, c=4, lam=5, eta=6)
    assert spec.family is CodeFamily.RCTRS
    assert spec.num_columns == 4
    ext = CodeSpec("rctrs", F7, 4, 2, (0, 1, 2), h=1, t=1, b=3, c=4, lam=5, eta=6,
                   extended=True)
    assert ext.num_columns == 5


# --- generator matrices -----------------------------------------------------------


def test_hook0_k3_matrix_by_hand():
    # basis 1 + eta*x^3, x, x^2 on points (alpha, twist column f(b) - lam*f(c))
    f = F13
    alphas, b, c, lam, eta = (2, 5), 3, 4, 6, 7
    g = generator_matrix(rctrs_spec(f, alphas, b, c, lam, eta, k=3)).matrix

    def row0(x):
        return f.add(1, f.mul(eta, f.pow(x, 3)))

    twist0 = f.sub(row0(b), f.mul(lam, row0(c)))
    assert g.rows[0] == (row0(2), row0(5), twist0)
    assert g.rows[1] == (2, 5, f.sub(b, f.mul(lam, c)))
    assert g.rows[2] == (4, 12, f.sub(f.pow(b, 2), f.mul(lam, f.pow(c, 2))))


def test_extended_matrix_appends_coefficient_column():
    spec = rctrs_spec(F13, (2, 5), 3, 4, 6, 7, k=3, extended=True)
    g = generator_matrix(spec).matrix
    plain = generator_matrix(rctrs_spec(F13, (2, 5), 3, 4, 6, 7, k=3)).matrix
    assert g.ncols == plain.ncols + 1
    for i in range(3):
        assert g.rows[i][:-1] == plain.rows[i]
    # only the x^(k-1) basis polynomial carries that coefficient
    assert tuple(row[-1] for row in g.rows) == (0, 0, 1)


def test_extended_hook_k1_coefficient_column_includes_eta():
    # with h = k-1 and t = 1 the hooked polynomial is x^(k-1) + eta*x^k,
    # so its x^(k-1) coefficient is still 1
    spec = rctrs_spec(F13, (2, 5, 7), 3, 4, 6, 7, k=3, h=2, extended=True)
    g = generator_matrix(spec).matrix
    assert tuple(row[-1] for row in g.rows) == (0, 0, 1)


def test_grs_matrix_and_multipliers():
    spec = CodeSpec(CodeFamily.GRS, F7, 4, 2, (1, 2, 3, 4), v=(1, 2, 3, 4))
    g = generator_matrix(spec).matrix
    assert g.rows[0] == (1, 2, 3, 4)
    assert g.rows[1] == (1, 4, 2, 2)  # v_j * alpha_j mod 7


def test_grs_default_multipliers_are_ones():
    spec = CodeSpec(CodeFamily.GRS, F7, 3, 2, (1, 2, 3))
    assert spec.multipliers() == (1, 1, 1)
    g = generator_matrix(spec).matrix
    assert g.rows[0] == (1, 1, 1)


# --- degenerations ------------------------------------------------------------------


def random_rctrs(f, rng, lam=None, eta=None, fresh_b=False):
    npts = rng.randrange(3, 7)
    pool = list(range(f.q))
    rng.shuffle(pool)
    alphas = pool[:npts]
    b = pool[npts] if fresh_b else rng.choice(pool[npts:])
    c = pool[npts + 1]
    k = rng.randrange(2, npts + 1)
    h = rng.randrange(k)
    lam = rng.randrange(f.q) if lam is None else lam
    eta = rng.randrange(f.q) if eta is None else eta
    return rctrs_spec(f, alphas, b, c, lam, eta, k=k, h=h)


def test_degeneration_to_rs():
    rng = random.Random(201)
    f = F13
    for _ in range(10):
        spec = random_rctrs(f, rng, lam=0, eta=0, fresh_b=True)
        rs = CodeSpec(CodeFamily.GRS, f, spec.n, spec.k, spec.alphas + (spec.b,))
        assert generator_matrix(spec).matrix == generator_matrix(rs).matrix


def test_degeneration_to_ctrs():
    rng = random.Random(202)
    f = F13
    for _ in range(10):
        spec = random_rctrs(f, rng, eta=0)
        ctrs = CodeSpec(
            CodeFamily.CTRS, f, spec.n, spec.k, spec.alphas,
            b=spec.b, c=spec.c, lam=spec.lam,
        )
        assert generator_matrix(spec).matrix == generator_matrix(ctrs).matrix


def test_degeneration_to_trs():
    rng = random.Random(203)
    f = F13
    for _ in range(10):
        spec = random_rctrs(f, rng, lam=0, fresh_b=True)
        trs = CodeSpec(
            CodeFamily.TRS, f, spec.n, spec.k, spec.alphas + (spec.b,),
            h=spec.h, t=spec.t, eta=spec.eta,
        )
        assert generator_matrix(spec).matrix == generator_matrix(trs).matrix


# --- rank and encoding ----------------------------------------------------------------


def test_generator_matrix_has_full_rank():
    rng = random.Random(301)
    f = field_create(2, 4)
    for _ in range(25):
        spec = random_rctrs(f, rng)
        assert rank(generator_matrix(spec).matrix) == spec.k


def test_generator_matrix_deterministic():
    spec = rctrs_spec(F13, (2, 5, 7), 3, 4, 6, 7, k=3, h=1)
    assert generator_matrix(spec).matrix == generator_matrix(spec).matrix


def test_encode_matches_row_combination():
    f = F13
    spec = rctrs_spec(f, (2, 5, 7), 3, 4, 6, 7, k=3, h=1, extended=True)
    gen = generator_matrix(spec)
    rng = random.Random(401)
    for _ in range(20):
        msg = [rng.randrange(f.q) for _ in range(3)]
        word = encode(gen, msg)
        for j in range(gen.ncols):
            want = 0
            for i in range(3):
                want = f.add(want, f.mul(msg[i], gen.rows[i][j]))
            assert word[j].index == want


def test_encode_zero_message():
    gen = generator_matrix(rctrs_spec(F7, (0, 1, 2), 5, 6, 2, 3, k=2))
    assert all(x.index == 0 for x in encode(gen, [0, 0]))


def test_encode_length_mismatch():
    gen = generator_matrix(rctrs_spec(F7, (0, 1, 2), 5, 6, 2, 3, k=2))
    with pytest.raises(LengthMismatchError):
        encode(gen, [1, 2, 3])
