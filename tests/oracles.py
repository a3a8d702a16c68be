"""Test oracles: independent references the suite checks the library against.

None of these run in the library.  The deleted-power-row Vandermonde
identity checks det and symmetric_tables; Hamming isometries (column
permutations composed with nonzero column scalings) preserve distance,
MDS-ness and the Schur-square dimension, so their images check
schur_square_dim and check_mds; the rest are plain references for
polynomial evaluation, row spaces, multiplicative orders and the
generator search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from rctrs.errors import HookOutOfRangeError
from rctrs.gf import ElementLike, Field, FieldElement, prime_factors
from rctrs.linalg import Matrix, rank, rref, symmetric_tables


# ---------------------------------------------------------------------------
# Matrices, polynomials and symmetric functions.


def identity(field: Field, n: int) -> Matrix:
    return Matrix(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])


def transpose(m: Matrix) -> Matrix:
    return Matrix(m.field, zip(*m.rows)) if m.nrows else Matrix(m.field, [], ncols=1)


def row_space_equal(a: Matrix, b: Matrix) -> bool:
    """Whether two matrices span the same row space (RREF is canonical)."""
    if a.field != b.field or a.ncols != b.ncols:
        return False
    return rref(a).rows[: rank(a)] == rref(b).rows[: rank(b)]


def eval_poly(field: Field, coeffs: Sequence[ElementLike], x: ElementLike) -> FieldElement:
    """Horner evaluation of a little-endian coefficient vector."""
    xi = field.to_index(x)
    add = field.add
    mul = field.mul
    acc = 0
    for c in reversed([field.to_index(c) for c in coeffs]):
        acc = add(mul(acc, xi), c)
    return FieldElement(field, acc)


def elementary_symmetric(field: Field, values: Sequence[ElementLike], r: int) -> FieldElement:
    """Degree-r elementary symmetric polynomial of the values."""
    if r < 0:
        raise ValueError("degree must be nonnegative")
    vals = [field.to_index(v) for v in values]
    _, table = next(symmetric_tables(field, vals, [range(len(vals))], r, r))
    return FieldElement(field, table[r])


def vandermonde_matrix(field: Field, points: Sequence[ElementLike], nrows: int | None = None) -> Matrix:
    """Rows are powers 0..nrows-1 of the points, one column per point."""
    pts = [field.to_index(x) for x in points]
    if nrows is None:
        nrows = len(pts)
    mul = field.mul
    rows = [[1] * len(pts)]
    for _ in range(nrows - 1):
        rows.append([mul(a, x) for a, x in zip(rows[-1], pts)])
    return Matrix(field, rows[:nrows])


def vandermonde_det(field: Field, points: Sequence[ElementLike]) -> FieldElement:
    """Product of (x_j - x_i) over i < j."""
    pts = [field.to_index(x) for x in points]
    mul = field.mul
    sub = field.sub
    out = 1
    for j in range(1, len(pts)):
        pj = pts[j]
        for i in range(j):
            out = mul(out, sub(pj, pts[i]))
            if not out:
                return FieldElement(field, 0)
    return FieldElement(field, out)


def deleted_row_vandermonde_matrix(
    field: Field, points: Sequence[ElementLike], skip_power: int
) -> Matrix:
    """Square matrix with power rows 0..n except skip_power, n = #points."""
    n = len(points)
    if not 1 <= skip_power <= n - 1:
        raise HookOutOfRangeError(f"skipped power {skip_power} outside [1, {n - 1}]")
    full = vandermonde_matrix(field, points, nrows=n + 1)
    return Matrix(field, [full.rows[e] for e in range(n + 1) if e != skip_power])


def deleted_row_vandermonde_det(
    field: Field, points: Sequence[ElementLike], skip_power: int
) -> FieldElement:
    """Closed form: sigma_(n-skip_power)(points) times the Vandermonde det."""
    n = len(points)
    if not 1 <= skip_power <= n - 1:
        raise HookOutOfRangeError(f"skipped power {skip_power} outside [1, {n - 1}]")
    sigma = elementary_symmetric(field, points, n - skip_power)
    return FieldElement(field, field.mul(sigma.index, vandermonde_det(field, points).index))


# ---------------------------------------------------------------------------
# Multiplicative orders and generators.


def order_of(field: Field, a: int) -> int:
    """Multiplicative order of a nonzero element index."""
    if a == 0:
        raise ZeroDivisionError("zero has no multiplicative order")
    order = field.q - 1
    for r in prime_factors(field.q - 1):
        while order % r == 0 and field.pow(a, order // r) == 1:
            order //= r
    return order


def smallest_generator(field: Field) -> int:
    """Smallest index of multiplicative order q - 1, searched from 1."""
    qm1 = field.q - 1
    cofactors = [qm1 // r for r in prime_factors(qm1)]
    for idx in range(1, field.q):
        if all(field.pow(idx, e) != 1 for e in cofactors):
            return idx
    raise RuntimeError("no generator found")  # unreachable


# ---------------------------------------------------------------------------
# Hamming isometries.


class SizeMismatchError(ValueError):
    """Isometry size does not match the code length."""


@dataclass(frozen=True)
class Isometry:
    """Hamming isometry x -> (scale_i * x[perm_i]); both parts length N."""

    perm: tuple[int, ...]
    scale: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if len(self.scale) != n:
            raise SizeMismatchError("permutation and scaling lengths differ")
        if sorted(self.perm) != list(range(n)):
            raise ValueError(f"not a permutation of range({n}): {self.perm}")
        if any(s == 0 for s in self.scale):
            raise ValueError("column scalings must be nonzero")


def apply_isometry(g: Matrix, iso: Isometry) -> Matrix:
    """Image of the generator matrix; rows keep their message meaning but
    no longer follow the basis-evaluation layout of the original spec."""
    if len(iso.perm) != g.ncols:
        raise SizeMismatchError(
            f"isometry on {len(iso.perm)} coordinates applied to length {g.ncols}"
        )
    mul = g.field.mul
    rows = [
        [mul(s, row[p]) for p, s in zip(iso.perm, iso.scale)]
        for row in g.rows
    ]
    return Matrix(g.field, rows, ncols=g.ncols)


def random_isometry(field: Field, n: int, rng: random.Random) -> Isometry:
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [rng.randrange(1, field.q) for _ in range(n)]
    return Isometry(tuple(perm), tuple(scale))
