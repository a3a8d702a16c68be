"""Exact linear algebra over a finite field.

Matrices are immutable row-major grids of element indices tied to a
Field.  Rank, determinant and RREF all run one Gaussian elimination
loop (_eliminate) with exact field inverses; nothing here ever rounds.

Also hosts symmetric_tables, the elementary symmetric polynomials of
point subsets that the closed-form MDS criteria read, by the standard
one-pass recurrence banded to the degrees asked for, and the plain-text
matrix format.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import NotSquareError, ParseError
from .gf import ElementLike, Field, FieldElement, _default_modulus, field_create


class Matrix:
    """Immutable matrix over a field; entries stored as element indices."""

    __slots__ = ("field", "nrows", "ncols", "rows")

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
    reduced row echelon form.  Row updates start right of the pivot
    column.  The pivot product carries the sign of the row swaps, so on
    a square matrix of full rank it is the determinant.
    """
    mul = field.mul
    sub = field.sub
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
        for i in range(0 if full else r + 1, nrows):
            ri = rows[i]
            lead = ri[col]
            if lead and i != r:
                f = mul(lead, pinv)
                ri[col] = 0
                for j in range(col + 1, ncols):
                    if prow[j]:
                        ri[j] = sub(ri[j], mul(f, prow[j]))
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


def rref(m: Matrix) -> Matrix:
    rows = _mutable(m)
    _eliminate(m.field, rows, full=True)
    return Matrix(m.field, rows, ncols=m.ncols)


# ---------------------------------------------------------------------------
# Elementary symmetric functions over colex subsets.


def symmetric_tables(
    field: Field, points: Sequence[int], subsets: Iterable[Sequence[int]], lo: int, hi: int, factors=(),
    logs: bool = False,
):
    """For each subset of positions into points, yield the subset and
    [sigma_0, ..., sigma_hi] of its points, exact in degrees lo..hi,
    followed by the product over the subset of each sequence in factors.

    The subsets are the k-subsets of a range in colex order, as from
    _colex_subsets, or a prefix of them.  bands[p] is the table of the
    points at positions p and above, built by sigma_j += x * sigma_(j-1)
    from the top position down and banded to the degrees that can still
    reach lo.  The next subset keeps the positions above the first i with
    cols[i] != i, so only bands[i] down to bands[0] are redone: at lo = hi
    = size a subset usually costs one multiplication.  Entries below lo
    are stale, and the yielded list is reused, so read it before the next.

    With logs=True, on a field that keeps a Zech table (odd p, m > 1,
    q <= 2^20), the points, the factors and the tables are discrete logs
    reduced mod q-1, None for zero: a product is an integer add and a sum
    log x + zech[(log y - log x) mod q-1], with no field-op call.  Prime
    fields and fields above 2^20 keep no log tables, and p = 2 fields no
    Zech table, so they walk on indices.
    """
    add = field.add  # the first read builds the tables
    mul = field.mul
    zech, qm1 = field._zech, field.q - 1
    one, zero = (0, None) if logs else (1, 0)
    slots = list(enumerate(factors, hi + 1))
    steps = None
    for cols in subsets:
        if steps is None:
            n = len(cols)
            bands = [[one] + [zero] * hi + [one] * len(slots) for _ in range(n + 1)]
            steps = [(p, bands[p], bands[p + 1], range(min(hi, n - p), max(0, lo - p - 1), -1)) for p in range(n)]
            # the updates for positions i, i-1, ..., 0; none for the empty subset, at i = -1
            steps = [steps[i::-1] for i in range(n)] + [[]]
            i = n - 1
        else:
            i = 0
            while cols[i] == i:
                i += 1
        if not logs:
            for p, band, above, degrees in steps[i]:
                x = points[cols[p]]
                for j in degrees:
                    y = mul(x, above[j - 1])
                    band[j] = add(above[j], y) if above[j] else y
                for s, values in slots:
                    band[s] = mul(above[s], values[cols[p]])
            yield cols, bands[0]
            continue
        for p, band, above, degrees in steps[i]:
            at = cols[p]
            x = points[at]
            for j in degrees:
                t, y = above[j], above[j - 1]
                if x is None or y is None:
                    band[j] = t
                elif t is None:
                    band[j] = (x + y) % qm1
                else:
                    z = zech[(x + y - t) % qm1]
                    band[j] = None if z is None else (t + z) % qm1
            for s, values in slots:
                y = values[at]
                band[s] = None if y is None or above[s] is None else (above[s] + y) % qm1
        yield cols, bands[0]


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
