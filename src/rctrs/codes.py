"""Evaluation code families and their generator matrices.

Four families share one builder.  A spec fixes a polynomial space and a
list of columns:

* GRS: scaled evaluations of polynomials of degree < k at n points.
* TRS: evaluations of the twisted space V(k, t, h, eta) at n points,
  where V replaces the monomial x^h by x^h + eta*x^(k-1+t).
* CTRS: degree < k polynomials on n-1 points plus one twist column
  f(b) - lambda*f(c).
* RCTRS: the twisted space on n-1 points plus the same twist column,
  combining both deformations.

Row i evaluates the i-th basis polynomial of 1, x, ..., x^(k-1), with x^h
replaced by x^h + eta*x^(k-1+t) for twisted families.  A point's column
holds its powers 1, a, ..., a^(k-1), plus eta*a^(k-1+t) on the hook row
by Field.pow, so t costs O(log t).  The extended column holds each basis
polynomial's x^(k-1) coefficient; as t >= 1, that is the unit vector e_(k-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import InvalidSpecError, LengthMismatchError
from .gf import ElementLike, Field, FieldElement
from .linalg import Matrix


class CodeFamily(str, Enum):
    GRS = "GRS"
    TRS = "TRS"
    CTRS = "CTRS"
    RCTRS = "RCTRS"

    @classmethod
    def coerce(cls, value) -> "CodeFamily":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).upper())
        except ValueError:
            raise InvalidSpecError(f"unknown code family {value!r}") from None

    @property
    def twisted(self) -> bool:
        """TRS and RCTRS take the hook h, the twist t and eta."""
        return self in ("TRS", "RCTRS")

    @property
    def pointed(self) -> bool:
        """CTRS and RCTRS take b, c and lambda, with n-1 evaluation points."""
        return self in ("CTRS", "RCTRS")

    def takes(self, attr: str) -> bool:
        """Whether a spec of this family takes the CodeSpec attribute."""
        if attr in ("h", "t", "eta"):
            return self.twisted
        if attr in ("b", "c", "lam"):
            return self.pointed
        return attr != "v" or self == "GRS"


@dataclass(frozen=True)
class CodeSpec:
    """Validated description of one code; immutable once constructed.

    n is the unextended code length.  For GRS and TRS the evaluation
    points fill all n columns; for CTRS and RCTRS there are n-1 points
    and the twist column.  Scalars are stored as element indices.
    """

    family: CodeFamily
    field: Field
    n: int
    k: int
    alphas: tuple[int, ...] = ()
    v: tuple[int, ...] | None = None
    h: int = 0
    t: int = 1
    b: int | None = None
    c: int | None = None
    lam: int | None = None
    eta: int | None = None
    extended: bool = False

    def __post_init__(self):
        fam = CodeFamily.coerce(self.family)
        object.__setattr__(self, "family", fam)
        f = self.field
        object.__setattr__(self, "alphas", tuple(f.to_index(a) for a in self.alphas))
        for name in ("b", "c", "lam", "eta"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, f.to_index(val))
        if self.v is not None:
            object.__setattr__(self, "v", tuple(f.to_index(x) for x in self.v))
        object.__setattr__(self, "extended", bool(self.extended))
        self._validate()

    def _validate(self):
        fam = self.family
        f = self.field
        n, k = self.n, self.k
        if not 1 <= k <= n:
            raise InvalidSpecError(f"dimension k={k} outside [1, n={n}]")
        max_n = f.q + 1 if fam.pointed else f.q
        if n > max_n:
            raise InvalidSpecError(f"length n={n} exceeds {max_n} for {fam.value} over {f!r}")
        want_pts = n - 1 if fam.pointed else n
        if len(self.alphas) != want_pts:
            raise InvalidSpecError(
                f"{fam.value} with n={n} needs {want_pts} evaluation points, got {len(self.alphas)}"
            )
        if len(set(self.alphas)) != len(self.alphas):
            raise InvalidSpecError("evaluation points must be pairwise distinct")
        if fam.twisted:
            if self.t < 1:
                raise InvalidSpecError(f"twist amount t={self.t} must be at least 1")
            if not 0 <= self.h < k:
                raise InvalidSpecError(f"hook h={self.h} outside [0, k={k})")
        elif self.h != 0 or self.t != 1:
            raise InvalidSpecError(f"{fam.value} spec does not take hook or twist")
        for name in ("eta", "b", "c", "lam"):
            takes = fam.takes(name)
            if takes != (getattr(self, name) is not None):
                verb = "needs" if takes else "does not take"
                raise InvalidSpecError(f"{fam.value} spec {verb} {name}")
        if self.v is not None:
            if not fam.takes("v"):
                raise InvalidSpecError("column multipliers apply to GRS only")
            if len(self.v) != n:
                raise InvalidSpecError(f"need {n} column multipliers, got {len(self.v)}")
            if any(x == 0 for x in self.v):
                raise InvalidSpecError("column multipliers must be nonzero")

    @property
    def num_columns(self) -> int:
        return self.n + 1 if self.extended else self.n

    def multipliers(self) -> tuple[int, ...]:
        return self.v if self.v is not None else (1,) * self.n


class GeneratorMatrix(Matrix):
    """The Matrix that generator_matrix returns."""

    __slots__ = ()

    @property
    def matrix(self) -> Matrix:
        """This matrix itself.  perfbench/probes.py reads
        generator_matrix(spec).matrix; the alias goes when the benchmark
        reads the matrix directly."""
        return self


def generator_matrix(spec: CodeSpec) -> GeneratorMatrix:
    """Build the canonical generator matrix for a spec."""
    f = spec.field
    k = spec.k
    mul = f.mul
    twisted = spec.family.twisted
    h, hook_deg, eta = spec.h, k - 1 + spec.t, spec.eta
    pointed = spec.family.pointed
    points = spec.alphas + (spec.b, spec.c) if pointed else spec.alphas
    cols = []
    for a in points:
        col = [1]
        for _ in range(k - 1):
            col.append(mul(col[-1], a))
        if twisted:
            col[h] = f.add(col[h], mul(eta, f.pow(a, hook_deg)))
        cols.append(col)

    if pointed:
        fc = cols.pop()
        cols[-1] = [f.sub(x, mul(spec.lam, y)) for x, y in zip(cols[-1], fc)]
    if spec.family is CodeFamily.GRS:
        cols = [[mul(vj, x) for x in col] for vj, col in zip(spec.multipliers(), cols)]
    if spec.extended:
        cols.append([0] * (k - 1) + [1])

    return GeneratorMatrix(f, zip(*cols))


def encode(gen: Matrix, message: Sequence[ElementLike]) -> tuple[FieldElement, ...]:
    """Message times generator matrix."""
    f = gen.field
    msg = [f.to_index(x) for x in message]
    if len(msg) != gen.nrows:
        raise LengthMismatchError(f"message length {len(msg)} != dimension {gen.nrows}")
    add = f.add
    mul = f.mul
    out = [0] * gen.ncols
    for mi, row in zip(msg, gen.rows):
        if mi:
            out = [add(acc, mul(mi, x)) for acc, x in zip(out, row)]
    return tuple(FieldElement(f, x) for x in out)
