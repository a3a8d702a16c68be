"""Exact arithmetic in finite fields GF(p^m).

A field is GF(p)[x]/(f) for a monic irreducible f of degree m.  Elements
are residue classes represented by their coefficient vector
(c_0, ..., c_{m-1}) with c_i in [0, p), constant term first.  Every
element also has a canonical integer index

    index = c_0 + c_1*p + ... + c_{m-1}*p^(m-1)

in [0, q) with q = p^m, which is the form used for serialization and for
all internal arithmetic.  Index 0 is the zero element and index 1 is the
multiplicative identity.

When no modulus is supplied the constructor picks the first irreducible
monic polynomial of degree m, scanning coefficient vectors with the
constant term varying fastest, so a (p, m) pair always names the same
field.  Irreducibility is decided by Rabin's test: x^(p^m) = x mod f,
and x^(p^(m/r)) - x is prime to f for each prime r dividing m.

Arithmetic depends on the shape of the field, and a shape binds only
add and mul:

* Prime fields (m = 1) add and multiply modulo p.
* Extensions with m > 1 and q <= 2^20 get exp/log tables, so
  multiplication is a table lookup.  The tables are built
  on first arithmetic, not by the constructor: the first read of add,
  sub, neg, mul, inv or _zech binds all six.  Until then pow, the
  generator search, primitive_element and subfield membership take the
  table-free path, with the same results.  The tables come from one walk over the
  powers of the primitive element; each step multiplies by it on a
  packed index, one digit per bit lane, with two lookups of half-index
  products, one integer add and a lane-wise reduction mod p (for p = 2,
  one XOR).  That product is linear, so one polynomial product per digit
  fills the half-tables.  Beside them every such field keeps the Zech
  table below, sliced out of the log table with no loop per entry, and
  odd p add through it.
* Larger extensions multiply polynomials modulo f.  Odd p add digit
  by digit on the index.  Both ops close over p, m and f, not over the
  field (_table_free_ops), so the field's last reference frees it.
* p = 2 with m > 1, tables or not, adds by XOR on the index.

The rest is one rule for every shape: -a = (p - 1)a, as -1 is the
index p - 1; a - b = a + (-b); and a^-1 = pow(a, -1), which reads the
tables where the field has them and powers otherwise.

The log domain, the one rule every log path follows.  A field keeps a
Zech table, read as _zech, exactly when it has exp/log tables (m > 1
and q <= 2^20), in every characteristic; every other field's _zech is
None.  Where the table is kept, the minor scan and the closed form in
mds run on discrete logs to the primitive element g: a nonzero x is
log_g x reduced mod q - 1, and zero is None.  A product is an integer
add, and a sum log x + zech[(log y - log x) mod (q - 1)], where
zech[d] = log(1 + g^d) has q - 1 entries (about 0.5 MB at GF(3^10))
and is None at d = log(p - 1), since 1 + g^d = 0 there: d = (q - 1)/2
for odd p and d = 0 for p = 2, where -1 = 1.  So -x is the product
log x + log(p - 1), the same rule as on indices.  Prime fields and
fields without tables run the scans on indices through the field's ops.

The primitive element is the smallest index g with g^((q-1)/r) != 1 for
every prime r dividing q - 1; one search finds it for every shape, and
the tables are built from it, reusing it when primitive_element has
already found it.  For m > 1 the search starts at index p, past the
constants of GF(p), none of which can generate.

Fields of order above 2^64 (_FIELD_LIMIT) are rejected with a
DegreeMismatchError, before p^m is computed or p is tested for primality.

field_create and Field.from_descriptor share one instance per live field,
modulus named or not, so a field in spec text builds its tables once.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain, count, islice
from math import gcd
from operator import xor
from typing import Iterable, Iterator, Sequence, Union
from weakref import WeakValueDictionary, ref

from .errors import (
    DegreeMismatchError,
    ElementIndexError,
    FieldMismatchError,
    NotADivisorError,
    NotPrimeError,
    OrderDoesNotDivideError,
    ParseError,
    ReducibleError,
)

ElementLike = Union[int, "FieldElement"]

# Extension fields up to this order get exp/log tables.
_TABLE_LIMIT = 1 << 20
# Fields above this order are rejected: the modulus and generator searches
# and the factoring of q - 1 have no bounded cost past it.
_FIELD_LIMIT = 1 << 64

# prime_factors trial-divides below _TRIAL_SMALL (below _TRIAL_LIMIT while the
# cofactor is too large for is_prime), then runs at most _RHO_STEPS of rho.
_TRIAL_SMALL = 1 << 16
_TRIAL_LIMIT = 1 << 22
_RHO_STEPS = 1 << 23
# Miller-Rabin to these bases is exact below _PRIME_TEST_EXACT, the least
# composite that passes them all (Sorenson and Webster, Math. Comp. 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_EXACT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < _PRIME_TEST_EXACT (3.3e24)."""
    if n < 2:
        return False
    for small in _WITNESSES:
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(n: int) -> int | None:
    """A proper divisor of the odd composite n by Brent's variant of Pollard
    rho (BIT 20(2), 1980), or None when _RHO_STEPS steps find none."""
    steps = 0
    for c in count(1):
        y, r, prod, d = 2, 1, 1, 1
        while d == 1:
            if steps + 2 * r > _RHO_STEPS:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and d == 1:
                saved = y
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                d = gcd(prod, n)
                done += 128
            steps += 2 * r
            r *= 2
        if d == n:
            # the last batch overshot: retake its steps one gcd at a time
            d = 1
            while d == 1:
                saved = (saved * saved + c) % n
                d = gcd(x - saved, n)
        if d != n:
            return d


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending.

    Trial division stops once is_prime proves the cofactor left prime.
    From _TRIAL_SMALL on, Pollard rho splits a composite cofactor below
    _PRIME_TEST_EXACT; a larger one is divided on below _TRIAL_LIMIT.  A
    cofactor still not provably prime, or one rho cannot split, raises ValueError.
    """
    out = []
    divisors = chain((2,), range(3, _TRIAL_LIMIT, 2))
    while n > 1 and not (n < _PRIME_TEST_EXACT and is_prime(n)):
        limit = _TRIAL_SMALL if n < _PRIME_TEST_EXACT else _TRIAL_LIMIT
        d = next((d for d in divisors if n % d == 0 or d >= limit), None)
        if d is None or n % d:
            if n >= _PRIME_TEST_EXACT:
                raise ValueError(
                    f"cannot factor {n}: no prime factor below {_TRIAL_LIMIT}, "
                    f"and it is not provably prime"
                )
            return out + sorted(_rho_factors(n))
        out.append(d)
        while n % d == 0:
            n //= d
    if n > 1:
        out.append(n)
    return out


def _rho_factors(n: int) -> set[int]:
    """The prime factors of n < _PRIME_TEST_EXACT, none below _TRIAL_SMALL."""
    if is_prime(n):
        return {n}
    d = _rho_divisor(n)
    if d is None:
        raise ValueError(f"cannot factor {n}: Pollard rho found no divisor in {_RHO_STEPS} steps")
    return _rho_factors(d) | _rho_factors(n // d)


# ---------------------------------------------------------------------------
# Polynomials over GF(p): little-endian coefficient lists, used only for
# modulus handling and for fields too large for lookup tables.


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    # mod must be monic
    a = list(a)
    dm = len(mod) - 1
    while len(a) > dm:
        lead = a.pop()
        if lead:
            off = len(a) - dm
            for i in range(dm):
                a[off + i] = (a[off + i] - lead * mod[i]) % p
    return _poly_trim(a)


def _poly_mulmod(a, b, mod, p):
    return _poly_mod(_poly_mul(a, b, p), mod, p)


def _poly_powmod(a: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(a, mod, p)
    while e > 0:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        e >>= 1
        if e:
            base = _poly_mulmod(base, base, mod, p)
    return result


def _digits(idx: int, p: int, m: int) -> tuple[int, ...]:
    """The m base-p digits of idx, least significant first: its coefficients."""
    out = []
    for _ in range(m):
        out.append(idx % p)
        idx //= p
    return tuple(out)


def _from_digits(coeffs: Sequence[int], p: int) -> int:
    """The index whose base-p digits are the coefficients, each taken mod p."""
    idx = 0
    for c in reversed(coeffs):
        idx = idx * p + int(c) % p
    return idx


def _table_free_ops(p: int, m: int, modulus: Sequence[int]):
    """add and mul on the indices of a field without tables.

    add works digit by digit; mul multiplies the coefficient vectors
    modulo the modulus.  Both close over p, m and the modulus alone, so
    a field that binds them is in no reference cycle.
    """

    def add(a: int, b: int) -> int:
        out = 0
        mult = 1
        for _ in range(m):
            out += (a + b) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def mul(a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return _from_digits(_poly_mulmod(_digits(a, p, m), _digits(b, p, m), modulus, p), p)

    return add, mul


def _monic_polys(degree: int, p: int) -> Iterator[list[int]]:
    """All monic polynomials of the given degree, constant term fastest."""
    for idx in range(p**degree):
        yield [*_digits(idx, p, degree), 1]


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Greatest common divisor over GF(p), monic unless b is zero."""
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, _poly_mod(a, b, p)
    return a


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Rabin's test for a monic f of degree m over GF(p).

    f is irreducible exactly when x^(p^m) = x mod f and, for each prime r
    dividing m, x^(p^(m/r)) - x is prime to f.  The gcds come first, as
    soon as their power is reached: they catch every factor of small
    degree, so most reducible f stop early.
    """
    m = len(f) - 1
    if m < 1:
        return False
    if m == 1:
        return True
    if not f[0]:
        return False  # x divides f
    x = [0, 1]
    checks = {m // r for r in prime_factors(m)}
    power = x  # x^(p^i) mod f
    for i in range(1, m + 1):
        power = _poly_powmod(power, p, f, p)
        if i in checks:
            diff = power + [0] * (2 - len(power))
            diff[1] = (diff[1] - 1) % p
            if len(_poly_gcd(f, diff, p)) > 1:
                return False
    return power == x


def _descriptor(p: int, m: int, coeffs: Sequence[int]) -> str:
    """The field descriptor p^m/c_m,...,c_0 of a modulus given constant term first."""
    return f"{p}^{m}/" + ",".join(str(c) for c in reversed(coeffs))


@lru_cache(maxsize=64)
def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    # Cached apart from the fields: the field cache is weak, and asking
    # whether a modulus is the default must not search for it again.
    if m == 1:
        return (0, 1)
    for f in _monic_polys(m, p):
        if _is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class _Arithmetic:
    """One of a Field's add, sub, neg, mul, inv and _zech before its first read.

    That read binds all six in the instance dict (_bind_ops), with the
    tables where the field has them, and the dict entries then shadow this
    non-data descriptor.  The other attributes stay slots, whose reads
    CPython specializes; a class __getattr__ would cost every read of them.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, field, owner=None):
        if field is None:
            return self
        field._bind_ops()
        return field.__dict__[self.name]


class Field:
    """GF(p^m) with index-based arithmetic.

    The scalar methods (add, sub, mul, ...) operate on integer element
    indices and are the workhorse API for the linear algebra layer.
    They are bound, and the tables built, on first read.
    Use element() / elements() for the wrapped FieldElement view.
    """

    __slots__ = (
        "p",
        "m",
        "q",
        "modulus",
        "__dict__",  # add, sub, neg, mul, inv and _zech, once bound
        "_exp",
        "_log",
        "_gen",
        "__weakref__",  # for _field_cache
    )

    def __init__(self, p: int, m: int = 1, modulus: Iterable[int] | None = None):
        if not isinstance(p, int) or p < 2:
            raise NotPrimeError(f"characteristic {p!r} is not prime")
        if not isinstance(m, int) or m < 1:
            raise DegreeMismatchError(f"extension degree must be a positive integer, got {m!r}")
        # Every p gives q > 2^64 once m > 64, so a huge m never reaches p**m.
        if m >= _FIELD_LIMIT.bit_length() or p**m > _FIELD_LIMIT:
            raise DegreeMismatchError(f"field order {p}^{m} exceeds the limit 2^64")
        if not is_prime(p):
            raise NotPrimeError(f"characteristic {p!r} is not prime")
        self.p = p
        self.m = m
        self.q = p**m
        if modulus is None:
            self.modulus = _default_modulus(p, m)
        else:
            coeffs = [int(c) for c in modulus]
            if len(coeffs) != m + 1 or coeffs[-1] != 1 or not all(0 <= c < p for c in coeffs):
                raise DegreeMismatchError(
                    f"modulus must be monic of degree {m} with coefficients in [0, {p}), "
                    f"got {_descriptor(p, m, coeffs)}"
                )
            if m == 1 and coeffs[0]:  # GF(p) has one modulus, x: no second copy of it
                raise DegreeMismatchError(f"the modulus of GF({p}) must be x, got {_descriptor(p, m, coeffs)}")
            if m > 1 and not _is_irreducible(coeffs, p):
                raise ReducibleError(f"modulus {_descriptor(p, m, coeffs)} is reducible over GF({p})")
            self.modulus = tuple(coeffs)
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._gen: int | None = None

    add = _Arithmetic()
    sub = _Arithmetic()
    neg = _Arithmetic()
    mul = _Arithmetic()
    inv = _Arithmetic()
    _zech = _Arithmetic()  # the Zech table, or None: see the module docstring

    # -- construction helpers -------------------------------------------------

    def _bind_ops(self) -> None:
        """Bind add, mul and _zech for the field's shape, then neg, sub and
        inv by one rule for every shape: -a = (p - 1)a, a - b = a + (-b)
        and a^-1 = pow(a, -1), which reads the tables where there are any."""
        p = self.p
        self._zech = None  # _build_tables keeps the table where there is one
        if self.m == 1:
            self.add = lambda a, b: (a + b) % p
            self.mul = lambda a, b: a * b % p
        elif self.q <= _TABLE_LIMIT:
            self._build_tables()  # mul, the Zech table and an add through it
        else:
            self.add, self.mul = _table_free_ops(p, self.m, self.modulus)
        if p == 2 and self.m > 1:
            self.add = xor  # with tables or without
        add = self.add
        self.neg = neg = partial(self.mul, p - 1)  # -a = (p - 1)a
        self.sub = lambda a, b: add(a, neg(b))
        field = ref(self)  # a weak reference: no cycle keeps the tables alive

        def inv(a: int) -> int:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return field().pow(a, -1)

        self.inv = inv

    def _build_tables(self) -> None:
        """Bind the exp/log tables, mul, the Zech table (_zech) and an add
        through it, for every p; _bind_ops then rebinds add to XOR for p = 2."""
        p, qm1 = self.p, self.q - 1
        exp, log = self._walk_powers(self.primitive_element().index)
        self._exp = exp
        self._log = log

        def mul(a: int, b: int) -> int:
            if a == 0 or b == 0:
                return 0
            return exp[log[a] + log[b]]

        self.mul = mul
        # Zech logarithms: a + b = g^la (1 + g^(lb - la)) with zech[d] =
        # log(1 + g^d), None where g^d = -1.  Adding 1 to an index changes
        # only its constant digit: log rotated left by one is log(x + 1)
        # but where that digit p - 1 wraps to 0, every p-th entry.
        succ = [*islice(log, 1, None), log[0]]
        succ[p - 1::p] = log[::p]
        self._zech = zech = list(map(succ.__getitem__, islice(exp, qm1)))
        zech[log[p - 1]] = None  # -1 is the index p - 1

        def add(a: int, b: int) -> int:
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            z = zech[log[b] - la]  # a negative difference wraps: len(zech) = q - 1
            return 0 if z is None else exp[la + z]

        self.add = add

    def _walk_powers(self, gen: int) -> tuple[list[int], list[int]]:
        """exp (two periods, less one entry) and log tables of gen's powers.

        Multiplying by gen is GF(p)-linear on the digits.  The walk keeps
        the power packed, each digit in its own w-bit lane, and looks up
        the products of its low and high halves.  For p = 2 lanes add by
        XOR and the packed form is the index.  For odd p they add lane by
        lane, and a lane at or above p loses p: adding 2^(w-1) - p to every
        lane sets exactly those lanes' top bits.  By the same linearity a
        half-table entry is the entry one lower in digit i plus gen * x^i,
        so the half-tables cost one polynomial product per digit.
        """
        p, m, q = self.p, self.m, self.q
        w = 1 if p == 2 else p.bit_length() + 1
        low = m // 2
        shift = w * low
        low_mask = (1 << shift) - 1
        top = w - 1
        lanes = sum(1 << (w * i) for i in range(m))
        bias = ((1 << top) - p) * lanes
        tops = lanes << top
        # the walk's lane addition, for the half-tables
        lane_add = xor if p == 2 else lambda a, b: a + b - (((a + b + bias) & tops) >> top) * p
        gpoly = _poly_trim(list(self.coeffs_of(gen)))
        step_lo = [0] * (1 << shift)
        step_hi = [0] * (1 << (w * (m - low)))
        # odd p only: the index of a packed half, whose lanes are its digits
        index_lo = [0] * len(step_lo) if p != 2 else None
        index_hi = [0] * len(step_hi) if p != 2 else None
        for offset, digits, step, index in (
            (0, low, step_lo, index_lo),
            (low, m - low, step_hi, index_hi),
        ):
            keys = [0]  # the packed halves filled so far, in index order
            for i in range(digits):
                lane, place = 1 << (w * i), p ** (offset + i)
                prod = _poly_mulmod((0,) * (offset + i) + (1,), gpoly, self.modulus, p)
                unit = sum(c << (w * j) for j, c in enumerate(prod))
                for j in range((p - 1) * len(keys)):  # digit i goes 0 -> 1, ..., p - 2 -> p - 1
                    key = keys[j] + lane
                    keys.append(key)
                    step[key] = lane_add(step[key - lane], unit)
                    if index is not None:
                        index[key] = index[key - lane] + place
        exp = [0] * (q - 1)
        log = [0] * q
        cur = 1
        if p == 2:
            for i in range(q - 1):
                exp[i] = cur
                log[cur] = i
                cur = step_lo[cur & low_mask] ^ step_hi[cur >> shift]
        else:
            for i in range(q - 1):
                lo, hi = cur & low_mask, cur >> shift
                idx = index_lo[lo] + index_hi[hi]
                exp[i] = idx
                log[idx] = i
                s = step_lo[lo] + step_hi[hi]
                cur = s - (((s + bias) & tops) >> top) * p
        exp.extend(islice(exp, q - 2))
        return exp, log

    def _find_generator(self) -> int:
        """Smallest-index element of multiplicative order q - 1.

        For m > 1 the search starts at p: the indices below p are the
        constants of GF(p), whose orders divide p - 1 < q - 1.
        """
        qm1 = self.q - 1
        cofactors = [qm1 // r for r in prime_factors(qm1)]
        for idx in range(1 if self.m == 1 else self.p, self.q):
            if all(self.pow(idx, e) != 1 for e in cofactors):
                return idx
        raise RuntimeError("no generator found")  # unreachable

    # -- scalar API ------------------------------------------------------------

    def pow(self, a: int, e: int) -> int:
        """a raised to an arbitrary integer exponent, on indices.

        Reads the tables once they exist and builds none: a nonzero a has
        a^e = a^(e mod (q - 1)), so a negative e needs no inverse.
        """
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("zero to a negative power")
            return 0
        if self._log is not None:
            return self._exp[self._log[a] * e % (self.q - 1)]
        if self.m == 1:
            return pow(a, e, self.p)
        return self.index_from_coeffs(
            _poly_powmod(self.coeffs_of(a), e % (self.q - 1), self.modulus, self.p)
        )

    def coeffs_of(self, idx: int) -> tuple[int, ...]:
        """Little-endian coefficient vector of length m."""
        return _digits(idx, self.p, self.m)

    def index_from_coeffs(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) > self.m:
            raise DegreeMismatchError(
                f"coefficient vector longer than extension degree {self.m}"
            )
        return _from_digits(coeffs, self.p)

    def to_index(self, x: ElementLike) -> int:
        """Coerce an element or raw index into a validated index."""
        if isinstance(x, FieldElement):
            if x.field is not self and x.field != self:
                raise FieldMismatchError(f"element of {x.field} used in {self}")
            return x.index
        idx = int(x)
        if not 0 <= idx < self.q:
            raise ElementIndexError(f"element index {idx} outside [0, {self.q})")
        return idx

    def element(self, x: ElementLike) -> "FieldElement":
        if isinstance(x, FieldElement):
            self.to_index(x)
            return x
        return FieldElement(self, self.to_index(x))

    def elements(self) -> Iterator["FieldElement"]:
        for idx in range(self.q):
            yield FieldElement(self, idx)

    def primitive_element(self) -> "FieldElement":
        """Smallest-index element whose multiplicative order is q - 1."""
        if self._gen is None:
            self._gen = self._find_generator()
        return FieldElement(self, self._gen)

    def subfield(self, degree: int) -> "SubfieldView":
        return SubfieldView(self, degree)

    # -- descriptors and dunders -----------------------------------------------

    def descriptor(self) -> str:
        """Text form p^m/c_m,...,c_0 with modulus coefficients leading first."""
        return _descriptor(self.p, self.m, self.modulus)

    @classmethod
    def from_descriptor(cls, text: str) -> "Field":
        body = text.strip()
        mod_part = None
        if "/" in body:
            body, mod_part = body.split("/", 1)
        try:
            if "^" in body:
                p_s, m_s = body.split("^", 1)
                p, m = int(p_s), int(m_s)
            else:
                p, m = int(body), 1
        except ValueError as exc:
            raise ParseError(f"bad field descriptor {text!r}") from exc
        modulus = None
        if mod_part is not None:
            try:
                big_endian = [int(c) for c in mod_part.split(",")]
            except ValueError as exc:
                raise ParseError(f"bad modulus in field descriptor {text!r}") from exc
            modulus = list(reversed(big_endian))
        return field_create(p, m, modulus)

    def _key(self):
        return (self.p, self.m, self.modulus)

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


_field_cache: WeakValueDictionary[tuple, Field] = WeakValueDictionary()


def field_create(p: int, m: int = 1, modulus: Iterable[int] | None = None) -> Field:
    """Shared-instance Field factory; fields are immutable so reuse is safe."""
    key = (p, m, tuple(modulus) if modulus is not None else None)
    f = _field_cache.get(key)
    if f is None:
        f = Field(p, m, modulus)
        f = _field_cache.setdefault(f._key(), f)
        _field_cache[key] = f
    return f


class FieldElement:
    """A single field element, identified by its index.

    It is a value, not an arithmetic type: the only operator is ** (an
    int exponent), and sums and products go through the Field's index
    ops (f.add(a.index, b.index), ...).

    An element equals the int with the same index, and hashes as that
    index; elements of different fields never compare equal.  Equality is
    therefore not transitive across fields: GF(13)(3) == 3 == GF(7)(3),
    but GF(13)(3) != GF(7)(3).
    """

    __slots__ = ("field", "index")

    def __init__(self, field: Field, index: int):
        if not 0 <= index < field.q:
            raise ElementIndexError(f"element index {index} outside [0, {field.q})")
        self.field = field
        self.index = index

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow(self.index, e))

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.index == other.index
        if isinstance(other, int):
            return self.index == other
        return NotImplemented

    def __hash__(self) -> int:
        # Equal to hash(index), since an element compares equal to its index.
        return hash(self.index)

    def __int__(self) -> int:
        return self.index

    def __repr__(self) -> str:
        return f"{self.field!r}({self.index})"


class SubfieldView:
    """The subfield GF(p^d) sitting inside GF(p^m), d dividing m.

    Membership is the Frobenius fixed-point test x^(p^d) = x.  The view
    does not re-represent elements; it exposes the ambient indices that
    happen to lie in the subfield.
    """

    __slots__ = ("field", "degree", "order", "_step")

    def __init__(self, field: Field, degree: int):
        if not isinstance(degree, int) or degree < 1 or field.m % degree != 0:
            raise NotADivisorError(
                f"subfield degree {degree!r} does not divide extension degree {field.m}"
            )
        self.field = field
        self.degree = degree
        self.order = field.p**degree
        self._step = (field.q - 1) // (self.order - 1)

    def contains(self, x: ElementLike) -> bool:
        idx = self.field.to_index(x)
        if idx == 0 or self.order == self.field.q:
            return True
        return self.field.pow(idx, self.order) == idx

    __contains__ = contains

    def primitive_element(self) -> FieldElement:
        """Generator of the subfield's multiplicative group."""
        g = self.field.primitive_element()
        return g ** self._step

    def element_indices(self) -> list[int]:
        """The subfield's elements as ambient indices, in increasing order;
        a proper subfield with more than 2^20 + 1 elements is refused, as
        subgroup_of_order refuses its group."""
        if self.order == self.field.q:
            return list(range(self.field.q))
        return sorted([0, *subgroup_of_order(self, self.order - 1).indices])

    def __repr__(self) -> str:
        return f"GF({self.field.p}^{self.degree}) in {self.field!r}"


class MultiplicativeSubgroup:
    """Cyclic subgroup of a subfield's multiplicative group.

    Elements are listed as consecutive powers of the generator starting
    at the identity, as ambient field indices.
    """

    __slots__ = ("field", "indices")

    def __init__(self, field: Field, indices: Sequence[int]):
        self.field = field
        self.indices = tuple(indices)

    @property
    def order(self) -> int:
        return len(self.indices)

    def __contains__(self, x: ElementLike) -> bool:
        return self.field.to_index(x) in set(self.indices)

    def __repr__(self) -> str:
        return f"subgroup of order {self.order} in {self.field!r}"


def subgroup_of_order(view: SubfieldView, n: int) -> MultiplicativeSubgroup:
    """The unique subgroup of the given order; n must divide p^d - 1.

    The subgroup is listed power by power, so an order above 2^20
    (_TABLE_LIMIT, the largest field with tables) is refused before the
    generator search or the walk.
    """
    group_order = view.order - 1
    if not isinstance(n, int) or n < 1 or group_order % n != 0:
        raise OrderDoesNotDivideError(
            f"subgroup order {n!r} does not divide group order {group_order}"
        )
    if n > _TABLE_LIMIT:
        raise OrderDoesNotDivideError(
            f"subgroup order {n} exceeds the limit 2^20 = {_TABLE_LIMIT} on listed subgroups"
        )
    f = view.field
    gen = f.to_index(view.primitive_element() ** (group_order // n))
    indices = [1]
    cur = gen
    while cur != 1:
        indices.append(cur)
        cur = f.mul(cur, gen)
    assert len(indices) == n
    return MultiplicativeSubgroup(f, indices)
