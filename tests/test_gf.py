"""Finite field arithmetic, subfields and subgroups."""

import gc
import itertools
import math
import operator
import random
import re
import time
import weakref

import pytest

from rctrs.errors import (
    DegreeMismatchError,
    ElementIndexError,
    FieldMismatchError,
    NotADivisorError,
    NotPrimeError,
    OrderDoesNotDivideError,
    ParseError,
    ReducibleError,
)
import rctrs.gf
from rctrs.gf import (
    _is_irreducible,
    _table_free_ops,
    Field,
    FieldElement,
    SubfieldView,
    field_create,
    is_prime,
    prime_factors,
    subgroup_of_order,
)
from rctrs.linalg import Matrix

from oracles import order_of, smallest_generator


# --- reference helpers ----------------------------------------------------


def slow_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def poly_mul_mod(p: int, a: list[int], b: list[int], mod: list[int]) -> list[int]:
    """Schoolbook product of little-endian coefficient lists, reduced mod."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    deg = len(mod) - 1
    while len(out) > deg:
        lead = out.pop()
        if lead:
            for i in range(deg):
                out[-deg + i] = (out[-deg + i] - lead * mod[i]) % p
    while len(out) < deg:
        out.append(0)
    return out


def coeffs_of_index(p: int, m: int, idx: int) -> list[int]:
    out = []
    for _ in range(m):
        out.append(idx % p)
        idx //= p
    return out


def index_of_coeffs(p: int, coeffs: list[int]) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * p + c
    return out


def poly_pow_index(f, idx: int, e: int) -> int:
    """idx^e by square-and-multiply on coefficient lists, without f.pow."""
    p, m, mod = f.p, f.m, list(f.modulus)
    result = coeffs_of_index(p, m, 1)
    base = coeffs_of_index(p, m, idx)
    while e:
        if e & 1:
            result = poly_mul_mod(p, result, base, mod)
        base = poly_mul_mod(p, base, base, mod)
        e >>= 1
    return index_of_coeffs(p, result)


# --- primality and factoring ----------------------------------------------


def test_is_prime_matches_trial_division_below_2000():
    for n in range(2000):
        assert is_prime(n) == slow_is_prime(n), n


def test_is_prime_on_large_inputs():
    assert is_prime(2**61 - 1)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert is_prime(10**18 + 9)
    # the least strong pseudoprime to every prime base up to 37
    assert not is_prime(399165290221 * 798330580441)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(2400) == [2, 3, 5]
    assert prime_factors(2**20) == [2]
    assert prime_factors(97) == [97]
    # 2^64 - 1 stops at 65537, once is_prime proves the cofactor 6700417
    assert prime_factors(2**64 - 1) == [3, 5, 17, 257, 641, 65537, 6700417]
    # q - 1 of a safe prime near 2^70: twice a prime that is_prime proves
    assert prime_factors(1180591620717411303658) == [2, 590295810358705651829]
    # Pollard rho splits composite cofactors with no factor below 2^22:
    # two primes, a square, and the two primes nearest the top of the range
    assert prime_factors(136501194702142) == [2, 7186589, 9496939]
    assert prime_factors(2 * 4194319**2 * 1000000007) == [2, 4194319, 1000000007]
    assert prime_factors(1000000000039 * 1800000000047) == [1000000000039, 1800000000047]
    # near 2^90 the cofactor is past the range where is_prime is exact
    with pytest.raises(ValueError, match="cannot factor 618970019642690137449563171"):
        prime_factors(1237940039285380274899126342)


def test_prime_factors_gives_up_past_the_rho_cap(monkeypatch):
    import rctrs.gf as gf

    monkeypatch.setattr(gf, "_RHO_STEPS", 0)
    with pytest.raises(ValueError, match="cannot factor 68250597351071: Pollard rho"):
        prime_factors(136501194702142)


def rho_one_gcd_per_step(n: int) -> int:
    """Brent's rho as _rho_divisor walks it, but with one gcd per step; the
    oracle for its batched gcds."""
    for c in itertools.count(1):
        y, r, d = 2, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for _ in range(r):
                y = (y * y + c) % n
                d = math.gcd(x - y, n)
                if d != 1:
                    break
            r *= 2
        if d != n:
            return d


def test_rho_divisor_retakes_an_overshot_batch():
    """Each odd composite n below 4000 splits, and its divisor is a multiple
    of the first step's gcd above 1, under the same c, as one gcd per step
    finds it.  A batch of steps shares one gcd, which may take in more
    primes, and when it takes in all of n (153 of these n, from 25 on), the
    batch is retaken one gcd at a time, which must find that first step."""
    import rctrs.gf as gf

    for n in range(9, 4000, 2):
        if is_prime(n):
            continue
        d = gf._rho_divisor(n)
        assert d is not None and 1 < d < n and n % d == 0, n
        assert d % rho_one_gcd_per_step(n) == 0, n


def trial_then_rho_factors(n: int) -> list[int]:
    """Trial division by every odd number below _TRIAL_LIMIT before rho;
    the oracle for the earlier hand-over to rho in prime_factors."""
    import rctrs.gf as gf

    out = []
    divisors = itertools.chain((2,), range(3, gf._TRIAL_LIMIT, 2))
    while n > 1 and not (n < gf._PRIME_TEST_EXACT and is_prime(n)):
        d = next((d for d in divisors if n % d == 0), None)
        if d is None:
            if n >= gf._PRIME_TEST_EXACT:
                raise ValueError(
                    f"cannot factor {n}: no prime factor below {gf._TRIAL_LIMIT}, "
                    f"and it is not provably prime"
                )
            return out + sorted(gf._rho_factors(n))
        out.append(d)
        while n % d == 0:
            n //= d
    if n > 1:
        out.append(n)
    return out


def test_prime_factors_matches_full_trial_division():
    """Rho takes composite cofactors from 2^16 on; the factors, or the error,
    are those of trial division to 2^22 followed by rho."""
    import rctrs.gf as gf

    rng = random.Random(2**16)

    def prime_near(lo, hi):
        n = rng.randrange(lo, hi) | 1
        while not is_prime(n):
            n += 2
        return n

    def mid():  # mostly small, so the oracle stays quick; 4194301 is the largest below 2^22
        return prime_near(1 << 16, 1 << rng.randrange(17, 22))

    def outcome(factor, n):
        try:
            return factor(n)
        except ValueError as exc:
            return str(exc)

    unprovable = 618970019642690137449563171  # past _PRIME_TEST_EXACT, no factor below 2^22
    big, mid_big = prime_near(1 << 40, 1 << 62), prime_near(1 << 24, 1 << 30)
    cases = [65537, 4194301, 65537**2, 4194301**2, 65537 * 4194301]
    cases += [65537 * unprovable, 65537 * big**2, 65537 * mid_big**2]
    for _ in range(3):
        small = 2 ** rng.randrange(1, 4) * 3 ** rng.randrange(2)
        p, p2, big = mid(), mid(), prime_near(1 << 40, 1 << 62)
        cases += [p, p * p, small * p * big, p * p * big, small * p * p2 * big]
    assert {n < gf._PRIME_TEST_EXACT for n in cases} == {True, False}
    for n in cases:
        assert outcome(prime_factors, n) == outcome(trial_then_rho_factors, n), n
    assert outcome(prime_factors, 65537 * unprovable).startswith(f"cannot factor {unprovable}: no prime")


# --- construction and moduli ------------------------------------------------


def test_prime_field_construction():
    f = field_create(17)
    assert (f.p, f.m, f.q) == (17, 1, 17)
    assert f.modulus == (0, 1)


def test_nonprime_characteristic_rejected():
    with pytest.raises(NotPrimeError):
        Field(4)
    with pytest.raises(NotPrimeError):
        Field(1, 2)


@pytest.mark.parametrize(
    "p,m", [(3, 1000), (2, 99999999999), (2, 65), (3, 41), (2**64 + 1, 1), (2**70, 1)]
)
def test_field_order_above_2_to_64_rejected_before_any_work(p, m):
    # 2^64 + 1 is composite and 2^99999999999 is not built: the bound comes first
    started = time.monotonic()
    with pytest.raises(DegreeMismatchError, match=r"exceeds the limit 2\^64"):
        Field(p, m)
    assert time.monotonic() - started < 0.1


def test_default_modulus_is_deterministic_and_known():
    assert field_create(7, 4).descriptor() == "7^4/1,0,0,1,1"
    assert field_create(2, 2).descriptor() == "2^2/1,1,1"
    assert field_create(3, 2).descriptor() == "3^2/1,0,1"


def trial_division_irreducibles(p: int, max_degree: int) -> list[list[int]]:
    """Monic irreducibles of degree 1..max_degree, by trial division by the smaller ones."""
    def divides(div, target):
        rem = list(target)
        d = len(div) - 1
        for top in range(len(rem) - 1, d - 1, -1):
            lead = rem[top]
            if lead:
                for i in range(d):
                    rem[top - d + i] = (rem[top - d + i] - lead * div[i]) % p
        return not any(rem[:d])

    found = []
    for degree in range(1, max_degree + 1):
        for idx in range(p**degree):
            f = coeffs_of_index(p, degree, idx) + [1]
            if not any(divides(g, f) for g in found if 2 * (len(g) - 1) <= degree):
                found.append(f)
    return found


@pytest.mark.parametrize("p,m", [(2, 4), (2, 6), (3, 3), (5, 2), (7, 4)])
def test_default_modulus_is_irreducible(p, m):
    mod = list(field_create(p, m).modulus)
    assert len(mod) == m + 1 and mod[-1] == 1
    assert mod in trial_division_irreducibles(p, m)


@pytest.mark.parametrize("p,max_degree", [(2, 6), (3, 6), (5, 6), (7, 4)])
def test_rabin_irreducibility_matches_trial_division(p, max_degree):
    irreducible = {tuple(f) for f in trial_division_irreducibles(p, max_degree)}
    for degree in range(1, max_degree + 1):
        for idx in range(p**degree):
            f = coeffs_of_index(p, degree, idx) + [1]
            assert _is_irreducible(f, p) == (tuple(f) in irreducible), f


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleError):
        Field(2, 2, [1, 0, 1])  # x^2 + 1 = (x+1)^2 over GF(2)


def test_wrong_degree_modulus_rejected():
    with pytest.raises(DegreeMismatchError):
        Field(3, 2, [1, 1])
    # GF(p)'s one modulus is x: x + 3 would name a second, unequal GF(7).
    with pytest.raises(DegreeMismatchError, match=re.escape("must be x, got 7^1/1,3")):
        Field.from_descriptor("7^1/1,3")
    assert Field.from_descriptor("17^1/1,0") is field_create(17)


def test_modulus_coefficients_outside_the_prime_field_rejected():
    # Each reduces mod 3 to x^2 + 1, which is irreducible; none is reduced.
    # The message quotes the modulus as a descriptor, leading coefficient first.
    for coeffs, typed in (([4, 0, 1], "1,0,4"), ([-2, 0, 1], "1,0,-2"), ([1, 0, 4], "4,0,1"), ([1, 3, 1], "1,3,1")):
        with pytest.raises(DegreeMismatchError, match=re.escape(f"in [0, 3), got 3^2/{typed}")):
            field_create(3, 2, coeffs)
    assert field_create(3, 2, [1, 0, 1]).modulus == (1, 0, 1)


# --- arithmetic axioms ------------------------------------------------------


@pytest.mark.parametrize("p,m", [(5, 1), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, m):
    f = field_create(p, m)
    q = f.q
    add, mul, neg, inv = f.add, f.mul, f.neg, f.inv
    for a in range(q):
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert add(a, neg(a)) == 0
        if a:
            assert mul(a, inv(a)) == 1
    for a in range(q):
        for b in range(q):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            for c in range(q):
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_field_axioms_random_triples_gf_23_2():
    f = field_create(23, 2)
    rng = random.Random(101)
    add, mul, neg, inv = f.add, f.mul, f.neg, f.inv
    for _ in range(10_000):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        if a:
            assert mul(a, inv(a)) == 1
        assert add(a, neg(a)) == 0


def test_mul_matches_polynomial_arithmetic():
    f = field_create(3, 3)
    mod = list(f.modulus)
    rng = random.Random(7)
    for _ in range(500):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        ca = coeffs_of_index(3, 3, a)
        cb = coeffs_of_index(3, 3, b)
        want = index_of_coeffs(3, poly_mul_mod(3, ca, cb, mod))
        assert f.mul(a, b) == want


def test_division_by_zero():
    """inv(0) raises on every shape: prime, p = 2 with and without tables,
    odd p with and without tables."""
    for p, m in [(7, 1), (2, 8), (2, 21), (3, 2), (1031, 2)]:
        f = field_create(p, m)
        with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
            f.inv(0)
        with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
            f.inv(f.element(0).index)
        assert (f._log is not None) == (m > 1 and f.q <= 1 << 20)


def test_pow_and_order():
    f = field_create(7, 2)
    g = f.primitive_element().index
    assert f.pow(g, f.q - 1) == 1
    assert f.pow(g, 0) == 1
    assert f.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError, match="zero to a negative power"):
        f.pow(0, -1)
    assert order_of(f, g) == 48
    assert order_of(f, 1) == 1


# --- element indices and coefficients ---------------------------------------


def test_index_coeff_round_trip_gf_27():
    f = field_create(3, 3)
    for idx in range(27):
        coeffs = f.coeffs_of(idx)
        assert len(coeffs) == 3
        assert f.index_from_coeffs(coeffs) == idx
        assert idx == sum(c * 3**i for i, c in enumerate(coeffs))


def test_coeff_vector_to_index_example():
    f = field_create(7, 2)
    assert f.index_from_coeffs((3, 2)) == 17
    assert f.index_from_coeffs((-4, 9)) == 17  # coefficients are taken mod p
    with pytest.raises(DegreeMismatchError, match="longer than extension degree 2"):
        field_create(3, 2).index_from_coeffs([1, 2, 0])


def test_to_index_range_checks():
    f = field_create(5)
    with pytest.raises(IndexError):
        f.to_index(5)
    with pytest.raises(IndexError):
        f.to_index(-1)
    g = field_create(7)
    with pytest.raises(FieldMismatchError):
        f.to_index(g.element(3))
    e = f.element(3)
    assert f.element(e) is e
    with pytest.raises(FieldMismatchError):
        f.element(g.element(3))
    with pytest.raises(ElementIndexError, match=re.escape("element index 9 outside [0, 9)")):
        FieldElement(field_create(3, 2), 9)


def test_element_operators():
    f = field_create(13)
    a = f.element(5)
    assert (a**3).index == f.pow(5, 3) == 8
    assert a**3 == f.element(8)
    assert a == 5 and a != 6
    four = f.element(4)
    assert (four == "4") is False and four != "4"


def test_element_hash_agrees_with_int_equality():
    f = field_create(13)
    e = f.element(3)
    assert e == 3 and hash(e) == hash(3)
    assert e in {3}
    assert {e: 1}[3] == 1
    assert {3: "x"}[e] == "x"
    other = field_create(7).element(3)
    assert e != other and other != e
    assert len({e, other}) == 2
    assert len({e, f.element(3)}) == 1
    # so equality is not transitive across fields
    assert e == 3 == other


def test_elements_iteration():
    f = field_create(2, 3)
    elems = list(f.elements())
    assert len(elems) == 8
    assert [e.index for e in elems] == list(range(8))
    assert all(isinstance(e, FieldElement) for e in elems)


# --- primitive elements and Frobenius ---------------------------------------


def brute_order(f, a: int) -> int:
    assert a != 0
    acc, n = a, 1
    while acc != 1:
        acc = f.mul(acc, a)
        n += 1
    return n


@pytest.mark.parametrize(
    "p,m", [(2, 1), (3, 1), (7, 1), (17, 1), (7, 2), (2, 4), (3, 3), (2, 6)]
)
def test_primitive_element_is_smallest_generator(p, m):
    f = field_create(p, m)
    g = f.primitive_element().index
    assert brute_order(f, g) == f.q - 1
    for a in range(1, g):
        assert brute_order(f, a) < f.q - 1


def test_known_primitive_elements():
    assert field_create(7).primitive_element().index == 3
    assert field_create(7, 4).primitive_element().index == 12


@pytest.mark.parametrize(
    "p,m", [(31, 2), (251, 2), (13, 3), (7, 4), (3, 5), (5, 6), (2, 8), (3, 10), (2, 16)]
)
def test_generator_search_from_p_matches_the_search_from_1(p, m):
    f = field_create(p, m)
    assert f.primitive_element().index == smallest_generator(f)


def test_generator_search_skips_a_large_prime_subfield():
    # From 1, the search would first try the 2^32 - 6 nonzero constants.
    started = time.monotonic()
    f = Field(4294967291, 2)
    g = f.primitive_element().index
    assert time.monotonic() - started < 1.0
    assert order_of(f, g) == f.q - 1
    assert all(order_of(f, a) < f.q - 1 for a in range(f.p, g))


def test_frobenius():
    f = field_create(3, 4)
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert f.pow(f.add(a, b), f.p) == f.add(f.pow(a, f.p), f.pow(b, f.p))
        assert f.pow(a, f.p) == f.mul(f.mul(a, a), a)
    for a in range(3):  # prime subfield is fixed pointwise
        assert f.pow(a, f.p) == a


# --- subfields ---------------------------------------------------------------


def test_subfield_view_gf_7_4_degree_2():
    f = field_create(7, 4)
    view = f.subfield(2)
    assert view.order == 49
    fixed = [a for a in range(f.q) if f.pow(a, 49) == a]
    assert len(fixed) == 49
    assert sorted(view.element_indices()) == fixed
    assert all(view.contains(a) for a in fixed)
    assert not view.contains(next(a for a in range(f.q) if a not in set(fixed)))


def test_subfield_primitive():
    f = field_create(7, 4)
    view = f.subfield(2)
    lam = view.primitive_element()
    assert lam.index == 1531
    assert brute_order(f, lam.index) == 48


def test_subfield_degree_must_divide():
    f = field_create(2, 6)
    f.subfield(3)
    for bad in (4, 0, -2, 2.0, "2"):
        with pytest.raises(NotADivisorError):
            f.subfield(bad)
        with pytest.raises(NotADivisorError):
            SubfieldView(f, bad)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_subfield_listing_is_frobenius_fixed_points_gf_2_6(degree):
    f = field_create(2, 6)
    order = 2**degree
    fixed = [a for a in range(f.q) if f.pow(a, order) == a]
    assert len(fixed) == order
    assert f.subfield(degree).element_indices() == fixed


def test_full_degree_subfield_is_whole_field():
    f = field_create(5, 2)
    view = f.subfield(2)
    assert view.order == f.q
    assert len(view.element_indices()) == f.q


# --- XOR and Zech addition, packed table build -------------------------------

# p = 2 fields add by XOR, with tables or without (GF(2^21)); odd p with tables
# add through Zech logarithms, m = 2 included.
FAST_ADD_FIELDS = [
    (2, 3), (2, 8), (2, 16), (2, 21), (3, 3), (5, 3), (7, 4), (3, 10), (5, 2), (31, 2),
]


@pytest.mark.parametrize("p,m", FAST_ADD_FIELDS)
def test_fast_add_sub_neg_match_digit_loops(p, m):
    f = field_create(p, m)
    f.add(1, 1)  # the first arithmetic binds the ops and builds the tables
    if p == 2:
        assert f.add is operator.xor
    else:
        assert f._log is not None
    digits, _ = _table_free_ops(p, m, f.modulus)
    # the digit loop is only the oracle here
    assert getattr(f.add, "__code__", None) is not digits.__code__

    def minus(a: int, b: int) -> int:
        ca, cb = coeffs_of_index(p, m, a), coeffs_of_index(p, m, b)
        return index_of_coeffs(p, [(x - y) % p for x, y in zip(ca, cb)])

    rng = random.Random(f"fast-add:{p}^{m}")
    pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(3000)]
    for _ in range(200):
        a = rng.randrange(f.q)
        pairs += [(a, 0), (0, a), (a, a), (a, minus(0, a)), (a, p - 1), (p - 1, a)]
    seen = set()
    for a, b in pairs:
        assert f.add(a, b) == digits(a, b), (a, b)
        assert f.sub(a, b) == minus(a, b), (a, b)
        assert f.neg(a) == minus(0, a), a
        seen |= {"zero operand"} if 0 in (a, b) else set()
        seen |= {"b = -a"} if a and digits(a, b) == 0 else set()
        seen |= {"a = b"} if a == b else set()
        seen |= {"-1"} if p - 1 in (a, b) else set()
    assert seen == {"zero operand", "b = -a", "a = b", "-1"}


_WALKED: dict[tuple, tuple[list[int], list[int]]] = {}


def walked_tables(f) -> tuple[list[int], list[int]]:
    """exp/log by multiplying by the generator with poly_mul_mod at every step,
    walked once per field: p, m and the modulus key the walk."""
    key = (f.p, f.m, f.modulus)
    if key in _WALKED:
        return _WALKED[key]
    p, m, mod = f.p, f.m, list(f.modulus)
    gen = coeffs_of_index(p, m, f.primitive_element().index)
    exp, log = [], [0] * f.q
    cur = coeffs_of_index(p, m, 1)
    for i in range(f.q - 1):
        idx = index_of_coeffs(p, cur)
        exp.append(idx)
        log[idx] = i
        cur = poly_mul_mod(p, cur, gen, mod)
    _WALKED[key] = exp + exp[:-1], log
    return _WALKED[key]


# The benchmark's table fields but GF(2^16) (a second of walking), GF(4),
# GF(9), GF(127^2) and GF(257^2) (the narrowest and widest lane margin,
# 2^(w-1) - p, for large p), and two user-given moduli whose generator is not x.
TABLE_FIELDS = [
    "31^2", "7^4", "2^8", "3^10", "5^2", "7^2", "3^3", "2^4", "2^5", "5^6", "23^2", "29^2",
    "2^2", "3^2", "127^2", "257^2", "2^4/1,1,1,1,1", "5^3/1,0,1,1",
]


@pytest.mark.parametrize("descriptor", TABLE_FIELDS)
def test_packed_table_build_matches_polynomial_walk(descriptor):
    f = Field.from_descriptor(descriptor)
    exp, log = walked_tables(f)
    f.mul(1, 1)  # the tables are built on first arithmetic
    assert f._exp == exp
    assert f._log == log
    if "/" in descriptor:
        assert f.primitive_element().index != f.p  # the generator is not x


@pytest.mark.parametrize("descriptor", [d for d in TABLE_FIELDS if not d.startswith("2^")])
def test_zech_table_is_log_of_one_plus_each_power(descriptor):
    f = Field.from_descriptor(descriptor)
    add, _ = _table_free_ops(f.p, f.m, f.modulus)
    zech = f._zech  # the first read builds the tables
    exp, log = f._exp, f._log
    assert len(zech) == f.q - 1
    for d, z in enumerate(zech):
        total = add(exp[d], 1)  # the digit loop's sum, no table read
        assert z == (None if total == 0 else log[total]), d
        assert (z is None) == (d == log[f.p - 1]), d


# --- tables built on first arithmetic ----------------------------------------


def fresh(descriptor: str) -> Field:
    """A new instance of the described field, with no tables built yet."""
    f = Field.from_descriptor(descriptor)
    return Field(f.p, f.m, f.modulus)


@pytest.mark.parametrize("descriptor", ["3^10", "2^16", "5^3/1,0,1,1"])
def test_half_tables_take_one_polynomial_product_per_digit(descriptor, monkeypatch):
    f = fresh(descriptor)
    f.primitive_element()  # the generator search multiplies polynomials too
    calls = []
    product = rctrs.gf._poly_mulmod
    monkeypatch.setattr(rctrs.gf, "_poly_mulmod", lambda *args: calls.append(args) or product(*args))
    f.mul(1, 1)
    assert f._log is not None
    assert len(calls) <= f.m


LAZY_FIELDS = ["3^10", "2^8", "31^2", "7^4", "5^6", "2^4/1,1,1,1,1"]


@pytest.mark.parametrize("descriptor", LAZY_FIELDS)
def test_field_inspection_builds_no_tables(descriptor, monkeypatch):
    f = fresh(descriptor)
    g = f.primitive_element().index
    views = [f.subfield(d) for d in range(1, f.m + 1) if f.m % d == 0]
    sub_gens = [v.primitive_element().index for v in views]
    rng = random.Random(f"lazy:{descriptor}")
    sample = [0, 1, g, *sub_gens, *(rng.randrange(f.q) for _ in range(50))]
    members = [[v.contains(a) for a in sample] for v in views]
    assert f._log is None and f._exp is None
    with monkeypatch.context() as patch:
        patch.setattr(Field, "_find_generator", lambda self: pytest.fail("second generator search"))
        f.mul(1, 1)  # the tables reuse the generator found above
    assert f._log is not None
    assert f.primitive_element().index == g
    assert [v.primitive_element().index for v in views] == sub_gens
    assert [[v.contains(a) for a in sample] for v in views] == members
    subfields = [set(v.element_indices()) for v in views]
    assert members == [[a in sub for a in sample] for sub in subfields]


@pytest.mark.parametrize("op", ["add", "mul"])
@pytest.mark.parametrize("descriptor", ["3^10", "2^8", "31^2", "5^3/1,0,1,1"])
def test_first_arithmetic_builds_the_walked_tables(descriptor, op):
    f = fresh(descriptor)
    assert f._log is None
    getattr(f, op)(1, 1)  # no generator search before this one
    assert f._log is not None
    assert (f._exp, f._log) == walked_tables(f)


def test_reading_zech_first_binds_it_with_the_ops(monkeypatch):
    """_zech is bound with the ops: read before any of them, it is the Zech
    table where the field keeps one and None on every other shape, and a
    field with tables never binds the table-free ops."""
    monkeypatch.setattr(rctrs.gf, "_table_free_ops", lambda *args: pytest.fail("table-free ops bound"))
    for descriptor in ("5^2", "3^5"):
        f = fresh(descriptor)
        assert len(f._zech) == f.q - 1
        assert f._zech[(f.q - 1) // 2] is None  # 1 + g^((q-1)/2) = 0
        assert {"add", "sub", "neg", "mul", "inv"} <= vars(f).keys()
    for descriptor in ("31", "2^8"):
        assert fresh(descriptor)._zech is None
    monkeypatch.undo()
    for descriptor in ("1031^2", "2^21"):  # q > 2^20: no tables
        assert fresh(descriptor)._zech is None


@pytest.mark.parametrize("p,m", [(17, 1), (31, 2), (7, 4), (2, 8)])
def test_pow_is_the_same_before_and_after_the_tables(p, m):
    f = Field(p, m)
    rng = random.Random(f"pow:{p}^{m}")
    cases = [(a, e) for a in (1, 2, f.q - 1) for e in (0, 1, -1, f.q - 1, f.q - 2, -f.q)]
    cases += [(rng.randrange(1, f.q), rng.randrange(-3 * f.q, 3 * f.q)) for _ in range(300)]
    before = [f.pow(a, e) for a, e in cases]
    assert f._log is None
    f.inv(1)
    assert (f._log is not None) == (m > 1)
    assert [f.pow(a, e) for a, e in cases] == before
    assert before == [poly_pow_index(f, a, e % (f.q - 1)) for a, e in cases]


# --- fields above the table limit ---------------------------------------------

# GF(2^21), GF(3^13) and GF(1031^2) have q > 2^20, so they reach polynomial
# mul and the table-free pow/inv/contains; the odd-p ones add with the
# digit loop, GF(1031^2) at m = 2.
LARGE_FIELDS = [(2, 21), (3, 13), (1031, 2)]


@pytest.mark.parametrize("p,m", LARGE_FIELDS)
def test_table_free_field_axioms_sampled(p, m):
    f = field_create(p, m)
    assert f._log is None
    mod = list(f.modulus)
    add, sub, neg, mul, inv = f.add, f.sub, f.neg, f.mul, f.inv
    rng = random.Random(211 + p)
    for _ in range(300):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        ca, cb = coeffs_of_index(p, m, a), coeffs_of_index(p, m, b)
        assert add(a, b) == index_of_coeffs(p, [(x + y) % p for x, y in zip(ca, cb)])
        assert sub(a, b) == index_of_coeffs(p, [(x - y) % p for x, y in zip(ca, cb)])
        assert neg(a) == index_of_coeffs(p, [-x % p for x in ca])
        assert mul(a, b) == index_of_coeffs(p, poly_mul_mod(p, ca, cb, mod))
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, neg(a)) == 0 and sub(a, b) == add(a, neg(b))
    for _ in range(40):
        a = rng.randrange(1, f.q)
        e = rng.randrange(f.q)
        assert f.pow(a, e) == poly_pow_index(f, a, e)
        assert mul(a, inv(a)) == 1
        assert f.pow(a, -1) == inv(a)
    assert f.pow(0, 0) == 1 and f.pow(0, 3) == 0
    with pytest.raises(ZeroDivisionError):
        inv(0)


@pytest.mark.parametrize("p,m", LARGE_FIELDS)
def test_table_free_primitive_element_is_smallest_by_cofactors(p, m):
    f = field_create(p, m)
    cofactors = [(f.q - 1) // r for r in prime_factors(f.q - 1)]
    g = f.primitive_element().index
    assert all(poly_pow_index(f, g, e) != 1 for e in cofactors)
    for a in range(1, g):
        assert any(poly_pow_index(f, a, e) == 1 for e in cofactors)
    assert order_of(f, g) == f.q - 1


@pytest.mark.parametrize("p,m", LARGE_FIELDS)
def test_table_free_order_and_subfields(p, m):
    f = field_create(p, m)
    rng = random.Random(307 + p)
    assert order_of(f, 1) == 1
    for _ in range(10):
        a = rng.randrange(1, f.q)
        order = order_of(f, a)
        assert (f.q - 1) % order == 0
        assert poly_pow_index(f, a, order) == 1
        assert all(poly_pow_index(f, a, order // r) != 1 for r in prime_factors(order))
    for degree in (d for d in range(1, m) if m % d == 0):
        view = f.subfield(degree)
        members = view.element_indices()
        assert len(members) == view.order
        assert all(poly_pow_index(f, a, view.order) == a for a in members)
        assert all(view.contains(a) for a in members)
        for a in (rng.randrange(f.q) for _ in range(20)):
            assert view.contains(a) == (poly_pow_index(f, a, view.order) == a)
        assert order_of(f, view.primitive_element().index) == view.order - 1


# --- multiplicative subgroups -------------------------------------------------


def test_subgroup_golden_sets():
    f23 = field_create(23)
    g11 = subgroup_of_order(f23.subfield(1), 11)
    assert set(g11.indices) == {1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18}

    f17 = field_create(17)
    g8 = subgroup_of_order(f17.subfield(1), 8)
    assert set(g8.indices) == {1, 2, 4, 8, 9, 13, 15, 16}

    f29 = field_create(29)
    g14 = subgroup_of_order(f29.subfield(1), 14)
    assert set(g14.indices) == {1, 4, 5, 6, 7, 9, 13, 16, 20, 22, 23, 24, 25, 28}


def test_subgroup_structure():
    f = field_create(23, 2)
    view = f.subfield(1)
    g = subgroup_of_order(view, 11)
    assert g.order == 11
    assert g.indices[0] == 1
    mul = f.mul
    members = set(g.indices)
    for a in members:  # closure
        for b in members:
            assert mul(a, b) in members
    generator = g.indices[1]
    assert g.indices == tuple(f.pow(generator, i) for i in range(11))  # its powers, in order
    assert brute_order(f, generator) == 11
    assert 1 in g and generator in g and 0 not in g


def test_subgroup_order_must_divide():
    f = field_create(17)
    with pytest.raises(OrderDoesNotDivideError):
        subgroup_of_order(f.subfield(1), 5)


def test_subgroup_inside_subfield_of_extension():
    f = field_create(23, 2)
    g = subgroup_of_order(f.subfield(1), 11)
    assert set(g.indices) == {1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18}


# --- descriptors and identity --------------------------------------------------


def test_descriptor_round_trip():
    for f in (field_create(17), field_create(2, 8), field_create(23, 2), field_create(7, 4)):
        assert Field.from_descriptor(f.descriptor()) == f


def test_reprs_name_the_field():
    """The Field repr is also the one FieldMismatchError quotes."""
    f = field_create(7, 2)
    assert repr(f) == "GF(7^2)" and repr(field_create(13)) == "GF(13)"
    e = f.element(10)
    assert repr(e) == "GF(7^2)(10)" and int(e) == 10
    assert repr(Matrix(f, [[1, 2, 3], [4, 5, 6]])) == "Matrix(GF(7^2), 2x3)"
    assert repr(f.subfield(1)) == "GF(7^1) in GF(7^2)"
    assert repr(subgroup_of_order(f.subfield(1), 3)) == "subgroup of order 3 in GF(7^2)"
    with pytest.raises(FieldMismatchError, match=r"^element of GF\(7\^4\) used in GF\(7\^2\)$"):
        f.to_index(field_create(7, 4).element(3))


def test_descriptor_shorthand():
    assert Field.from_descriptor("17") == field_create(17)
    assert Field.from_descriptor("7^4") == field_create(7, 4)


def test_descriptor_parse_errors():
    for bad in ("", "x", "7^", "7^4/1,0,zz,1,1"):
        with pytest.raises(ParseError):
            Field.from_descriptor(bad)


def test_dropping_a_field_frees_its_tables_without_the_cycle_collector():
    """No reference cycle runs through a field of any shape (prime, with
    tables, or without them past 2^20), its bound ops included, so dropping
    the last reference frees it at once, tables and all."""
    gc.disable()
    try:
        for p, m in ((13, 1), (3, 6), (2, 8), (1031, 2), (2, 21)):
            f = Field(p, m)
            assert (f.add(1, 2), f.sub(1, 2), f.neg(3), f.mul(2, 3), f.mul(2, f.inv(2))) != ()
            dropped = weakref.ref(f)
            del f
            assert dropped() is None, (p, m)
    finally:
        gc.enable()


def test_field_equality_and_cache():
    assert field_create(7, 4) is field_create(7, 4)
    assert field_create(7) == Field(7)
    assert field_create(7) != field_create(11)
    assert hash(field_create(3, 2)) == hash(Field(3, 2))
