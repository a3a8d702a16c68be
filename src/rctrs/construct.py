"""Parameter recipes that guarantee MDS twisted codes.

Two recipes, both for hook/twist codes with t = 1 over GF(q) with a
subfield tower in play:

* subfield chain: evaluation points and both twist points live in a
  small subfield F_q0, lambda lives in an intermediate subfield F_q1
  but outside F_q0, and eta lies outside F_q1 (or is zero).  Works for
  hook 0.  The twist points may not all double as evaluation points
  when k-1 points could cover them, since that forces a singular minor.
* multiplicative subgroup: the points are derived from a subgroup G of
  F_q0* through the fractional map a_i = (b - mu_i c) / (1 - mu_i) over
  the non-identity mu_i, lambda is drawn from F_q0 outside G, and eta
  lies outside F_q0* (or is zero).  Works for every hook; extended
  variants are guaranteed for hooks 0 and k-1 only.

Each builder validates the membership hypotheses and records which
guarantees follow: the MDS property always, a non-GRS certificate when
the dimension window and nonzero conditions hold, and a CTRS
incompatibility certificate when additionally eta avoids F_q0 entirely
and k sits in the tighter window.  An explicit unguaranteed mode skips
the lambda/eta membership gates and sets no flags, leaving the verdicts
to the analyzers; this admits parameter choices outside the recipes.
"""

from __future__ import annotations

from typing import Sequence

from .codes import CodeFamily, CodeSpec, _Record, _fill
from .errors import (
    DegenerateBCError,
    MembershipViolationError,
    NotADivisorError,
    UnsupportedExtendedGeneralHError,
)
from .gf import (
    ElementLike,
    Field,
    MultiplicativeSubgroup,
    field_create,
    is_prime,
    prime_factors,
    subgroup_of_order,
)

SUBFIELD_CHAIN = "subfield-chain"
SUBGROUP = "subgroup"


class ConstructedCode(_Record):
    """A spec plus the guarantees its construction actually earns."""

    __slots__ = ("spec", "construction", "guaranteed_mds", "guaranteed_non_rs",
                 "guaranteed_ctrs_inequivalent", "warnings")

    def __init__(
        self,
        spec: CodeSpec,
        construction: str,
        guaranteed_mds: bool,
        guaranteed_non_rs: bool,
        guaranteed_ctrs_inequivalent: bool,
        warnings: tuple[str, ...] = (),
    ):
        _fill(self, spec, construction, guaranteed_mds, guaranteed_non_rs,
              guaranteed_ctrs_inequivalent, warnings)

    def provenance(self) -> tuple[str, ...]:
        out = []
        if self.guaranteed_mds:
            out.append(f"mds:{self.construction} construction (hook={self.spec.h})")
        if self.guaranteed_non_rs:
            out.append(f"non_rs:{self.construction} schur-dimension guarantee")
        if self.guaranteed_ctrs_inequivalent:
            out.append(f"ctrs_incompatible:{self.construction} schur-dimension guarantee")
        return tuple(out)


def subgroup_eval_points(
    group: MultiplicativeSubgroup, b: ElementLike, c: ElementLike
) -> list[int]:
    """Points (b - mu*c) / (1 - mu) over the non-identity subgroup elements.

    With b != c these are pairwise distinct and never equal b, which is
    what makes the twisted minors factor so cleanly.
    """
    f = group.field
    bi = f.to_index(b)
    ci = f.to_index(c)
    if bi == ci:
        raise DegenerateBCError("twist points b and c must differ")
    sub, mul, inv = f.sub, f.mul, f.inv
    pts = [mul(sub(bi, mul(mu, ci)), inv(sub(1, mu))) for mu in group.indices[1:]]
    assert len(set(pts)) == len(pts) and bi not in pts
    return pts


def build_subfield_chain_code(
    field: Field,
    q0_degree: int,
    q1_degree: int,
    alphas: Sequence[ElementLike],
    b: ElementLike,
    c: ElementLike,
    lam: ElementLike,
    eta: ElementLike,
    k: int,
    extended: bool = False,
) -> ConstructedCode:
    """Hook-0 code from a subfield chain F_q0 inside F_q1 inside F_q."""
    v0 = field.subfield(q0_degree)
    v1 = field.subfield(q1_degree)
    if v1.degree % v0.degree != 0:
        raise NotADivisorError(
            f"subfield degrees must nest: {q0_degree} does not divide {q1_degree}"
        )
    if q0_degree == q1_degree:
        raise MembershipViolationError("the chain needs F_q0 strictly inside F_q1")
    pts = [field.to_index(a) for a in alphas]
    bi, ci, li, ei = (field.to_index(x) for x in (b, c, lam, eta))
    for a in pts:
        if not v0.contains(a):
            raise MembershipViolationError(f"evaluation point {a} lies outside F_{v0.order}")
    if not v0.contains(bi) or not v0.contains(ci):
        raise MembershipViolationError(f"twist points must lie in F_{v0.order}")
    if li == 0 or not v1.contains(li):
        raise MembershipViolationError(f"lambda must lie in F_{v1.order} minus zero")
    if v0.contains(li):
        raise MembershipViolationError(f"lambda {li} must avoid F_{v0.order}")
    if ei != 0 and v1.contains(ei):
        raise MembershipViolationError(f"eta {ei} must avoid F_{v1.order} unless zero")
    # Whenever some k-1 evaluation points include every distinct twist
    # value, the k columns they select together with the twist column are
    # singular, so no parameter choice can make the code MDS.
    twist_vals = {bi, ci}
    if len(twist_vals) <= k - 1 and twist_vals.issubset(pts):
        raise DegenerateBCError(
            "twist points may not all appear among the evaluation points; "
            "any k-1 points covering them make a singular minor"
        )

    n = len(pts) + 1
    spec = CodeSpec(
        CodeFamily.RCTRS, field, n, k, tuple(pts),
        h=0, t=1, b=bi, c=ci, lam=li, eta=ei, extended=extended,
    )
    warnings = []
    if n > v0.order:
        warnings.append(
            f"length {n} exceeds the subfield order {v0.order}; the guarantee "
            f"is stated for n <= {v0.order}"
        )
    non_rs = bi != 0 and ci != 0 and bi != ci and 3 <= k and 2 * k <= n
    return ConstructedCode(
        spec,
        SUBFIELD_CHAIN,
        guaranteed_mds=True,
        guaranteed_non_rs=non_rs,
        guaranteed_ctrs_inequivalent=False,
        warnings=tuple(warnings),
    )


class SubgroupConstructionParams(_Record):
    """Inputs for the subgroup recipe; group_order is the code length n."""

    __slots__ = ("field", "base_subfield_degree", "group_order", "b", "c", "lam", "eta", "h", "k",
                 "extended")

    def __init__(
        self,
        field: Field,
        base_subfield_degree: int,
        group_order: int,
        b: int,
        c: int,
        lam: int,
        eta: int,
        h: int,
        k: int,
        extended: bool = False,
    ):
        _fill(self, field, base_subfield_degree, group_order, b, c, lam, eta, h, k, extended)


def build_subgroup_code(
    params: SubgroupConstructionParams, unguaranteed: bool = False
) -> ConstructedCode:
    """Code of length group_order (+1 when extended) from a subgroup of F_q0*."""
    f = params.field
    view = f.subfield(params.base_subfield_degree)
    n, k, h = params.group_order, params.k, params.h
    if params.extended and 0 < h < k - 1:
        raise UnsupportedExtendedGeneralHError(
            f"extended codes are guaranteed for hooks 0 and k-1 only, got h={h}"
        )
    bi, ci, li, ei = (f.to_index(x) for x in (params.b, params.c, params.lam, params.eta))
    if bi == ci:
        raise DegenerateBCError("twist points b and c must differ")
    if not view.contains(bi) or not view.contains(ci):
        raise MembershipViolationError(f"twist points must lie in F_{view.order}")
    group = subgroup_of_order(view, n)
    if not unguaranteed:
        if not view.contains(li):
            raise MembershipViolationError(f"lambda must lie in F_{view.order}")
        if li in group:
            raise MembershipViolationError("lambda must avoid the subgroup")
        if ei != 0 and view.contains(ei):
            raise MembershipViolationError(
                f"eta {ei} lies in F_{view.order}*; pass unguaranteed=True to "
                f"build anyway with no flags"
            )

    pts = subgroup_eval_points(group, bi, ci)
    spec = CodeSpec(
        CodeFamily.RCTRS, f, n, k, tuple(pts),
        h=h, t=1, b=bi, c=ci, lam=li, eta=ei, extended=params.extended,
    )
    if unguaranteed:
        return ConstructedCode(spec, SUBGROUP, False, False, False)

    # Both certificates need nonzero twist points at hooks 0 and 1.  The CTRS
    # one needs eta outside F_q0 (so nonzero, and F_q0 proper), and at hook 0
    # it holds for the plain code only: the extended one can land at Schur
    # dimension 2k+2 instead of 2k+1.
    bc = h > 1 or (bi != 0 and ci != 0)
    non_rs = 3 <= k and 2 * k <= n and li != 0 and (h == 0 or ei != 0) and bc
    ctrs = (
        not view.contains(ei) and li != 0 and 4 <= k and 2 * k <= n - 1
        and bc and not (h == 0 and params.extended)
    )

    return ConstructedCode(
        spec,
        SUBGROUP,
        guaranteed_mds=True,
        guaranteed_non_rs=non_rs,
        guaranteed_ctrs_inequivalent=ctrs,
    )


def corollary_lengths(q: int, p_div: int) -> tuple[int, int]:
    """MDS twisted-code lengths over GF(q^2) promised for each prime p | q-1."""
    if not is_prime(p_div):
        raise ValueError(f"{p_div} is not prime")
    if (q - 1) % p_div != 0:
        raise NotADivisorError(f"{p_div} does not divide q-1 = {q - 1}")
    n = (q - 1) // p_div
    return n, n + 1


def _prime_power(q: int) -> tuple[int, int]:
    factors = prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = factors[0]
    e = 1
    while p**e < q:
        e += 1
    return p, e


def corollary_witness_codes(q: int, p_div: int) -> tuple[ConstructedCode, ConstructedCode]:
    """Plain and extended witnesses realizing the corollary lengths.

    Parameter choices are deterministic: the ambient field is GF(q^2),
    the twist points are the first two nonzero subfield elements, lambda
    is the first nonzero subfield element outside the subgroup and eta
    is the ambient primitive element.
    """
    n, _ = corollary_lengths(q, p_div)
    p, e = _prime_power(q)
    ambient = field_create(p, 2 * e)
    view = ambient.subfield(e)
    group = subgroup_of_order(view, n)
    member = set(group.indices)
    sub_elems = view.element_indices()
    b, c = sub_elems[1], sub_elems[2]
    lam = next(x for x in sub_elems if x != 0 and x not in member)
    eta = ambient.primitive_element().index
    k = min(4, n)
    out = []
    for extended in (False, True):
        params = SubgroupConstructionParams(
            ambient, e, n, b, c, lam, eta, h=0, k=k, extended=extended
        )
        out.append(build_subgroup_code(params))
    return out[0], out[1]
