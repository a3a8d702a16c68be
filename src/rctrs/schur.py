"""Schur-square analysis and code equivalence helpers.

The Schur square of a code is spanned by the componentwise products of
codeword pairs; for a k-row generator matrix the k(k+1)/2 products of
row pairs already span it.  Its dimension separates code families:
generalized Reed-Solomon codes of dimension k sit at 2k-1, while the
twisted constructions here reach 2k or 2k+1.

Both distinguishers are one-sided and only meaningful on MDS codes in a
dimension range, so they return True, False or None (undetermined when
the preconditions fail):

* is_non_rs: dimension different from 2k-1 proves the code is not GRS,
  requires k <= N/2.
* ctrs_distinguisher: dimension 2k+1 rules out one-twist CTRS codes,
  which stay at or below 2k; requires k <= (N-1)/2.

Hamming isometries (column permutations composed with nonzero column
scalings) preserve distance, MDS-ness and the Schur-square dimension,
which the test suite uses as an invariance oracle.

Functions taking a Matrix also take a GeneratorMatrix, which exposes the
same field, nrows, ncols and rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .codes import GeneratorMatrix
from .errors import LengthMismatchError, SizeMismatchError
from .gf import ElementLike, Field, FieldElement
from .linalg import Matrix, rank
from .mds import MdsVerdict


def schur_vec(
    x: Sequence[ElementLike], y: Sequence[ElementLike], field: Field | None = None
) -> tuple[FieldElement, ...]:
    """Componentwise product of two vectors."""
    if field is None:
        for entry in (*x, *y):
            if isinstance(entry, FieldElement):
                field = entry.field
                break
        else:
            raise ValueError("cannot infer the field from plain indices")
    if len(x) != len(y):
        raise LengthMismatchError(f"vector lengths differ: {len(x)} vs {len(y)}")
    mul = field.mul
    return tuple(
        FieldElement(field, mul(field.to_index(a), field.to_index(b)))
        for a, b in zip(x, y)
    )


def schur_square_rows(g: Matrix) -> Matrix:
    """All row products g_i * g_j with i <= j, as a matrix."""
    mul = g.field.mul
    rows = []
    for i in range(g.nrows):
        ri = g.rows[i]
        for j in range(i, g.nrows):
            rj = g.rows[j]
            rows.append([mul(a, b) for a, b in zip(ri, rj)])
    return Matrix(g.field, rows, ncols=g.ncols)


def schur_square_dim(g: Matrix) -> int:
    """Dimension of the Schur square of the row space."""
    return rank(schur_square_rows(g))


def is_non_rs(g: Matrix, mds: MdsVerdict, dim: int | None = None) -> Optional[bool]:
    """True when the Schur square certifies the code is not GRS."""
    if not mds.is_mds or 2 * g.nrows > g.ncols:
        return None
    if dim is None:
        dim = schur_square_dim(g)
    return dim != 2 * g.nrows - 1


def ctrs_distinguisher(g: Matrix, mds: MdsVerdict, dim: int | None = None) -> Optional[bool]:
    """True when the Schur square rules out any one-twist CTRS structure."""
    if not mds.is_mds or 2 * g.nrows > g.ncols - 1:
        return None
    if dim is None:
        dim = schur_square_dim(g)
    return dim == 2 * g.nrows + 1


def tri(v: Optional[bool]) -> str:
    """A one-sided verdict as true, false or undetermined."""
    return "undetermined" if v is None else ("true" if v else "false")


@dataclass(frozen=True)
class SchurReport:
    dim: int
    dimension_k: int
    non_rs: Optional[bool]
    ctrs_incompatible: Optional[bool]

    def render(self) -> str:
        return (
            f"schur_dim={self.dim} non_rs={tri(self.non_rs)} "
            f"ctrs_incompatible={tri(self.ctrs_incompatible)}"
        )


def schur_report(g: Matrix, mds: MdsVerdict) -> SchurReport:
    dim = schur_square_dim(g)
    return SchurReport(
        dim=dim,
        dimension_k=g.nrows,
        non_rs=is_non_rs(g, mds, dim),
        ctrs_incompatible=ctrs_distinguisher(g, mds, dim),
    )


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
    no longer follow the basis-evaluation layout of the original spec.
    A GeneratorMatrix comes back as a GeneratorMatrix with the same spec."""
    if len(iso.perm) != g.ncols:
        raise SizeMismatchError(
            f"isometry on {len(iso.perm)} coordinates applied to length {g.ncols}"
        )
    mul = g.field.mul
    rows = [
        [mul(s, row[p]) for p, s in zip(iso.perm, iso.scale)]
        for row in g.rows
    ]
    out = Matrix(g.field, rows, ncols=g.ncols)
    if isinstance(g, GeneratorMatrix):
        return GeneratorMatrix(g.spec, out)
    return out


def random_isometry(field: Field, n: int, rng: random.Random) -> Isometry:
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [rng.randrange(1, field.q) for _ in range(n)]
    return Isometry(tuple(perm), tuple(scale))
