"""Schur-square analysis and the distinguishers built on it.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .linalg import Matrix, rank
from .mds import MdsVerdict


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


def is_non_rs(g: Matrix, mds: MdsVerdict, dim: int) -> Optional[bool]:
    """True when the Schur square, of dimension dim, certifies the code is not GRS."""
    if not mds.is_mds or 2 * g.nrows > g.ncols:
        return None
    return dim != 2 * g.nrows - 1


def ctrs_distinguisher(g: Matrix, mds: MdsVerdict, dim: int) -> Optional[bool]:
    """True when the Schur square, of dimension dim, rules out one-twist CTRS structure."""
    if not mds.is_mds or 2 * g.nrows > g.ncols - 1:
        return None
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

