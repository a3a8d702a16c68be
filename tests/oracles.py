"""Test oracles: independent references the suite checks the library against.

None of these run in the library.  The deleted-power-row Vandermonde
identity checks det; Hamming isometries (column permutations composed
with nonzero column scalings) preserve distance, MDS-ness and the
Schur-square dimension, so their images check schur_square_dim and
check_mds; a field isomorphism onto the same GF(p^m) under another
modulus maps a code onto one with the same verdicts; the minor scan
that walked one Gosper step per subset checks the block walk that
replaced it; the rest are plain references for the twisted polynomial
basis, polynomial evaluation, symmetric functions, row spaces, colex
order, pivot columns, multiplicative orders and the generator search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from rctrs.gf import ElementLike, Field, FieldElement, prime_factors
from rctrs.linalg import Matrix, _reduced, rank, rref
from rctrs.mds import MdsVerdict, _arithmetic


# ---------------------------------------------------------------------------
# Subsets, matrices, polynomials and symmetric functions.


def colex_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """The k-subsets of range(n) in colex order: by their reversed tuples."""
    return sorted(combinations(range(n), k), key=lambda c: c[::-1])


def identity(field: Field, n: int) -> Matrix:
    return Matrix(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])


def transpose(m: Matrix) -> Matrix:
    return Matrix(m.field, zip(*m.rows)) if m.nrows else Matrix(m.field, [], ncols=1)


def pivot_columns(m: Matrix) -> list[int]:
    """The pivot columns of the RREF, one per independent row."""
    return [next(j for j, x in enumerate(row) if x) for row in rref(m).rows if any(row)]


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
    """Degree-r elementary symmetric polynomial of the values, by
    sigma_j += x * sigma_(j-1) on indices, independent of the
    symmetric_tables walk it checks."""
    if r < 0:
        raise ValueError("degree must be nonnegative")
    sigma = [1] + [0] * r
    for x in values:
        x = field.to_index(x)
        for j in range(r, 0, -1):
            sigma[j] = field.add(sigma[j], field.mul(x, sigma[j - 1]))
    return FieldElement(field, sigma[r])


def twist_space_basis(field: Field, k: int, t: int, h: int, eta: ElementLike) -> list[list[int]]:
    """Coefficient vectors (length k+t, little-endian) of the basis
    1, x, ..., x^h + eta*x^(k-1+t), ..., x^(k-1) of V(k, t, h, eta)."""
    if k < 1:
        raise ValueError(f"dimension k={k} must be positive")
    if t < 1:
        raise ValueError(f"twist amount t={t} must be at least 1")
    if not 0 <= h < k:
        raise ValueError(f"hook h={h} outside [0, k={k})")
    eta_idx = field.to_index(eta)
    deg = k - 1 + t
    basis = []
    for i in range(k):
        coeffs = [0] * (deg + 1)
        coeffs[i] = 1
        if i == h:
            coeffs[deg] = eta_idx
        basis.append(coeffs)
    return basis


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
        raise ValueError(f"skipped power {skip_power} outside [1, {n - 1}]")
    full = vandermonde_matrix(field, points, nrows=n + 1)
    return Matrix(field, [full.rows[e] for e in range(n + 1) if e != skip_power])


def deleted_row_vandermonde_det(
    field: Field, points: Sequence[ElementLike], skip_power: int
) -> FieldElement:
    """Closed form: sigma_(n-skip_power)(points) times the Vandermonde det."""
    n = len(points)
    if not 1 <= skip_power <= n - 1:
        raise ValueError(f"skipped power {skip_power} outside [1, {n - 1}]")
    sigma = elementary_symmetric(field, points, n - skip_power)
    return FieldElement(field, field.mul(sigma.index, vandermonde_det(field, points).index))


# ---------------------------------------------------------------------------
# The minor scan, one subset at a time.


def minor_scan(g: Matrix) -> MdsVerdict:
    """rctrs.mds.mds_by_minors as it scanned before its block walk: every
    subset's mask follows the last by Gosper's hack, its Laplace terms are
    looked up (or built) per subset, and a zero entry of A is skipped as a
    zero term on logs.  The verdict is returned, not kept on g."""
    f = g.field
    k, n = g.nrows, g.ncols
    pivots, rows = _reduced(g)
    subsets = iter(colex_subsets(n, k))
    first = next(subsets)
    if pivots != tuple(range(k)):
        return MdsVerdict(False, first, "minors")
    zech, qm1, one, _, reps, neg, mul, add = _arithmetic(f)
    signed = [[x for a in reps(col) for x in (a, neg(a))] for col in zip(*rows)]
    unit = (1 << k) - 1
    dets = {unit: one}
    terms = {}
    mask = unit
    for cols in subsets:
        low = mask & -mask
        high = mask + low
        mask = high | ((high ^ mask) >> 2) // low
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
                return MdsVerdict(False, cols, "minors")
        else:
            total = None
            for bit, at in laplace:
                if col[at] is None:
                    continue
                term = col[at] + dets[rest | bit]
                if total is None:
                    total = term
                else:
                    z = zech[(term - total) % qm1]
                    total = None if z is None else total + z
            if total is None:
                return MdsVerdict(False, cols, "minors")
        dets[mask] = total
    return MdsVerdict(True, None, "minors")


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


def field_isomorphism(source: Field, target: Field) -> list[int]:
    """The index map of an isomorphism from source onto target, the same
    GF(p^m) under another modulus: x goes to the least root r of source's
    modulus in target, so sum c_i x^i goes to sum c_i r^i."""
    assert (source.p, source.m) == (target.p, target.m)

    def horner(coeffs: Sequence[int], x: int) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = target.add(target.mul(acc, x), c)
        return acc

    root = next(r for r in range(target.q) if horner(source.modulus, r) == 0)
    return [horner(source.coeffs_of(a), root) for a in range(source.q)]
