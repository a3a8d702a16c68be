"""Exact linear algebra over a finite field.

Matrices are immutable row-major grids of element indices tied to a
Field.  Rank, determinant and RREF all run one Gaussian elimination
loop (_eliminate) with exact field inverses; nothing here ever rounds.
A Matrix keeps two facts about itself, each worked out at most once.
_reduced keeps the first full reduction to RREF, and the minor scan,
the distance enumeration, the Schur dimension and rref() all read that
one.  rctrs.mds.mds_by_minors keeps its MDS verdict, and the distance
past its budget and the Schur distinguishers read that one.  rows never
changes, and neither kept fact is seen by rows, equality, hashing or the
text format.  Rank and determinant run their own echelon pass, which
costs less than a full reduction.  Also hosts the plain-text matrix
format.
"""

from __future__ import annotations

from typing import Iterable

from .errors import NotSquareError, ParseError
from .gf import ElementLike, Field, FieldElement, _default_modulus, field_create


class Matrix:
    """Immutable matrix over a field; entries stored as element indices.

    rows is the matrix as built.  _rref, None until _reduced first reads
    it, holds the RREF; _mds, None until rctrs.mds.mds_by_minors first
    scans the matrix, holds its MDS verdict.  Equality, hashing and the
    text format see neither.
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "_rref", "_mds")

    def __init__(self, field: Field, rows: Iterable[Iterable[ElementLike]], ncols: int | None = None):
        # Rows go through a list so each tuple is allocated at its final size;
        # tuple(<generator>) resizes, and CPython's per-size tuple free lists
        # then keep growing over many matrices.
        grid = tuple([tuple([field.to_index(x) for x in row]) for row in rows])
        if grid:
            ncols = len(grid[0])
            if any(len(r) != ncols for r in grid):
                raise ValueError("rows have unequal lengths")
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        if ncols < 1:
            raise ValueError("matrix must have at least one column")
        self.field = field
        self.rows = grid
        self.nrows = len(grid)
        self.ncols = ncols
        self._rref = self._mds = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.field._key(), self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"


# ---------------------------------------------------------------------------
# The elimination loop, on mutable row lists of indices.


def _eliminate(field: Field, rows: list[list[int]], full: bool = False) -> tuple[list[int], int]:
    """Gaussian elimination in place; returns (pivot columns, signed pivot product).

    Echelon mode clears each pivot column below the pivot; full mode
    clears it above as well and scales each pivot row to 1, leaving the
    reduced row echelon form.  Each cleared row adds a negated multiple
    of the pivot row, -lead/pivot times it, so the loop calls the field's
    add and never its sub; the updates start right of the pivot column.
    The pivot product carries the sign of the row swaps, so on a square
    matrix of full rank it is the determinant.
    """
    mul = field.mul
    add = field.add
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    detval = 1
    negate = False
    r = 0
    for col in range(ncols):
        for piv in range(r, nrows):
            if rows[piv][col]:
                break
        else:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            negate = not negate
        prow = rows[r]
        pval = prow[col]
        detval = mul(detval, pval)
        pinv = field.inv(pval)
        minus = field.neg(pinv)
        for i in range(0 if full else r + 1, nrows):
            ri = rows[i]
            lead = ri[col]
            if lead and i != r:
                f = mul(lead, minus)
                ri[col] = 0
                for j in range(col + 1, ncols):
                    if prow[j]:
                        ri[j] = add(ri[j], mul(f, prow[j]))
        if full and pval != 1:
            rows[r] = [mul(x, pinv) for x in prow]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return pivots, field.neg(detval) if negate else detval


def _mutable(m: Matrix) -> list[list[int]]:
    return [list(r) for r in m.rows]


def rank(m: Matrix) -> int:
    return len(_eliminate(m.field, _mutable(m))[0])


def det(m: Matrix) -> FieldElement:
    if m.nrows != m.ncols:
        raise NotSquareError(f"determinant of a {m.nrows}x{m.ncols} matrix")
    pivots, value = _eliminate(m.field, _mutable(m))
    return FieldElement(m.field, value if len(pivots) == m.nrows else 0)


def _reduced(m: Matrix) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(pivot columns, rows) of the RREF of m, reduced on the first call
    and kept on m for every later one.  The rows are tuples built at
    their final size, as in Matrix.__init__."""
    if m._rref is None:
        rows = _mutable(m)
        pivots, _ = _eliminate(m.field, rows, full=True)
        m._rref = tuple(pivots), tuple([tuple(r) for r in rows])
    return m._rref


def rref(m: Matrix) -> Matrix:
    return Matrix(m.field, _reduced(m)[1], ncols=m.ncols)


# ---------------------------------------------------------------------------
# Plain text serialization: header "p m rows cols", then index rows.  A field
# whose modulus is not the default adds it to the header as in the field
# descriptor, leading coefficient first: "p m rows cols c_m,...,c_0".


def matrix_to_text(m: Matrix) -> str:
    f = m.field
    modulus = "" if f.modulus == _default_modulus(f.p, f.m) else " " + f.descriptor().partition("/")[2]
    lines = [f"{f.p} {f.m} {m.nrows} {m.ncols}{modulus}"]
    lines.extend(" ".join(str(x) for x in row) for row in m.rows)
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> Matrix:
    """Parse matrix text over the field its header names."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty matrix text")
    head = lines[0].split()
    try:
        if len(head) not in (4, 5):
            raise ValueError
        p, m, nrows, ncols = (int(tok) for tok in head[:4])
        if nrows < 0 or ncols < 0:
            raise ValueError
        modulus = [int(c) for c in reversed(head[4].split(","))] if len(head) == 5 else None
    except ValueError as exc:
        raise ParseError(f"bad matrix header {lines[0]!r}") from exc
    field = field_create(p, m, modulus)
    if len(lines) - 1 != nrows:
        raise ParseError(f"expected {nrows} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise ParseError(f"bad matrix row {ln!r}") from exc
        if len(row) != ncols:
            raise ParseError(f"expected {ncols} columns, found {len(row)}")
        rows.append(row)
    try:
        return Matrix(field, rows, ncols=ncols)
    except IndexError as exc:
        raise ParseError(str(exc)) from exc
