"""Schur-square analysis and the distinguishers built on it.

The Schur square of a code is spanned by the componentwise products of
codeword pairs; for a k-row generator matrix the k(k+1)/2 products of
row pairs already span it.  Its dimension separates code families:
generalized Reed-Solomon codes of dimension k sit at 2k-1, while the
twisted constructions here reach 2k or 2k+1.

The dimension is read off the RREF [I | A] of G (columns permuted),
which the Matrix keeps (see rctrs.linalg), with k' pivots: on the pivot
columns g_i * g_j is e_i when i = j and 0 otherwise, so the k' squares
are independent of each other and of the off-diagonal products, and the
dimension is k' plus the rank of the k'(k'-1)/2 products A_i * A_j,
i < j, on the non-pivot columns.
schur_square_rows keeps all k(k+1)/2 products on all columns, the
direct form of the same span.

Both distinguishers are one-sided and only meaningful on MDS codes in a
dimension range, so they return True, False or None (undetermined when
the preconditions fail).  Whether G is MDS is G's own minor verdict,
which rctrs.mds.mds_by_minors keeps on the Matrix (see rctrs.linalg);
the distinguishers read it there, or scan the minors when none is kept,
and only once the dimension range holds.  No caller passes one in.

* is_non_rs: dimension different from 2k-1 proves the code is not GRS,
  requires k <= N/2.
* ctrs_distinguisher: dimension 2k+1 rules out one-twist CTRS codes,
  which stay at or below 2k; requires k <= (N-1)/2.
"""

from __future__ import annotations

from typing import Optional

from .codes import _Record, _set
from .linalg import Matrix, _eliminate, _reduced
from .mds import _verdict


def schur_square_rows(g: Matrix) -> Matrix:
    """All row products g_i * g_j with i <= j, as a matrix.

    Its rank is the Schur dimension; schur_square_dim reads that off the
    RREF instead, from fewer products on fewer columns.
    """
    mul = g.field.mul
    products = [list(map(mul, gi, gj)) for i, gi in enumerate(g.rows) for gj in g.rows[i:]]
    return Matrix(g.field, products, ncols=g.ncols)


def schur_square_dim(g: Matrix) -> int:
    """Dimension of the Schur square of the row space.

    With g_1..g_k' the rows of G's RREF with pivots P and A the rows on
    the other columns: on P, g_i * g_j is e_i when i = j and 0 otherwise.
    So a combination of products that vanishes has no square in it, and
    the dimension is k' + rank{A_i * A_j : i < j}, or k' alone when there
    are no such products or no columns outside P.
    """
    pivots, rows = _reduced(g)
    a = [[x for j, x in enumerate(row) if j not in pivots] for row in rows[: len(pivots)]]
    mul = g.field.mul
    products = [list(map(mul, ai, aj)) for i, ai in enumerate(a) for aj in a[i + 1:]]
    return len(pivots) + len(_eliminate(g.field, products)[0])


def is_non_rs(g: Matrix, dim: int) -> Optional[bool]:
    """True when the Schur square, of dimension dim, certifies the code is not GRS."""
    if 2 * g.nrows > g.ncols or not _verdict(g).is_mds:
        return None
    return dim != 2 * g.nrows - 1


def ctrs_distinguisher(g: Matrix, dim: int) -> Optional[bool]:
    """True when the Schur square, of dimension dim, rules out one-twist CTRS structure."""
    if 2 * g.nrows > g.ncols - 1 or not _verdict(g).is_mds:
        return None
    return dim == 2 * g.nrows + 1


def tri(v: Optional[bool]) -> str:
    """A one-sided verdict as true, false or undetermined."""
    return "undetermined" if v is None else ("true" if v else "false")


class SchurReport(_Record):
    __slots__ = ("dim", "dimension_k", "non_rs", "ctrs_incompatible")

    def __init__(
        self, dim: int, dimension_k: int, non_rs: Optional[bool], ctrs_incompatible: Optional[bool]
    ):
        _set(self, "dim", dim)
        _set(self, "dimension_k", dimension_k)
        _set(self, "non_rs", non_rs)
        _set(self, "ctrs_incompatible", ctrs_incompatible)

    def render(self) -> str:
        return (
            f"schur_dim={self.dim} non_rs={tri(self.non_rs)} "
            f"ctrs_incompatible={tri(self.ctrs_incompatible)}"
        )


def schur_report(g: Matrix) -> SchurReport:
    dim = schur_square_dim(g)
    return SchurReport(
        dim=dim,
        dimension_k=g.nrows,
        non_rs=is_non_rs(g, dim),
        ctrs_incompatible=ctrs_distinguisher(g, dim),
    )

