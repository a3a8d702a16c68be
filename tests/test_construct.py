"""Guaranteed constructions: membership gates, flags, corollary lengths."""

import random

import pytest

from rctrs.codes import generator_matrix
from rctrs.construct import (
    SUBFIELD_CHAIN,
    SUBGROUP,
    SubgroupConstructionParams,
    build_subfield_chain_code,
    build_subgroup_code,
    corollary_lengths,
    corollary_witness_codes,
    subgroup_eval_points,
)
from rctrs.errors import (
    DegenerateBCError,
    InvalidSpecError,
    MembershipViolationError,
    NotADivisorError,
    UnsupportedExtendedGeneralHError,
)
from rctrs.gf import field_create, prime_factors, subgroup_of_order
from rctrs.mds import mds_by_minors


# --- evaluation points from a subgroup ---------------------------------------


def test_subgroup_points_f23_order_11():
    f = field_create(23, 2)
    group = subgroup_of_order(f.subfield(1), 11)
    pts = subgroup_eval_points(group, 12, 7)
    assert sorted(pts) == [2, 3, 4, 6, 13, 15, 16, 17, 20, 22]
    assert len(pts) == 10
    assert 12 not in pts


def test_subgroup_points_distinct_and_exclude_b():
    f = field_create(17)
    group = subgroup_of_order(f.subfield(1), 8)
    rng = random.Random(5)
    for _ in range(30):
        b, c = rng.sample(range(17), 2)
        pts = subgroup_eval_points(group, b, c)
        assert len(set(pts)) == len(pts) == group.order - 1
        assert b not in pts


def test_subgroup_points_degenerate_bc():
    f = field_create(17)
    group = subgroup_of_order(f.subfield(1), 8)
    with pytest.raises(DegenerateBCError):
        subgroup_eval_points(group, 3, 3)


# --- subfield chain -----------------------------------------------------------


def subfield_chain_7_4(**overrides):
    f = field_create(7, 4)
    kw = dict(
        field=f, q0_degree=1, q1_degree=2, alphas=(0, 1, 2, 3, 4, 5),
        b=6, c=5, lam=f.subfield(2).primitive_element().index,
        eta=f.primitive_element().index, k=3,
    )
    kw.update(overrides)
    return build_subfield_chain_code(**kw)


def test_subfield_chain_flags_and_spec():
    code = subfield_chain_7_4()
    assert code.construction == SUBFIELD_CHAIN
    assert code.guaranteed_mds and code.guaranteed_non_rs
    assert not code.guaranteed_ctrs_inequivalent
    assert code.spec.n == 7 and code.spec.k == 3 and code.spec.h == 0
    assert not code.warnings
    assert any(p.startswith("mds:") for p in code.provenance())


def test_subfield_chain_membership_gates():
    f = field_create(7, 4)
    lam = f.subfield(2).primitive_element().index
    eta = f.primitive_element().index
    with pytest.raises(MembershipViolationError):  # alpha outside F_7
        subfield_chain_7_4(alphas=(0, 1, 2, 3, 4, 7))
    with pytest.raises(MembershipViolationError):  # b outside F_7
        subfield_chain_7_4(b=eta)
    with pytest.raises(MembershipViolationError):  # lambda inside F_7
        subfield_chain_7_4(lam=3)
    with pytest.raises(MembershipViolationError):  # lambda zero
        subfield_chain_7_4(lam=0)
    with pytest.raises(MembershipViolationError):  # lambda outside F_49
        subfield_chain_7_4(lam=eta)
    with pytest.raises(MembershipViolationError):  # eta inside F_49
        subfield_chain_7_4(eta=lam)
    with pytest.raises(MembershipViolationError):  # degenerate chain
        subfield_chain_7_4(q1_degree=1)


def test_subfield_chain_eta_zero_allowed():
    code = subfield_chain_7_4(eta=0)
    assert code.guaranteed_mds
    assert mds_by_minors(generator_matrix(code.spec)).is_mds


def test_subfield_chain_degree_nesting():
    f = field_create(2, 6)
    with pytest.raises(NotADivisorError):
        build_subfield_chain_code(f, 2, 3, (0, 1), 0, 1, 2, 0, 2)


def test_subfield_chain_length_warning():
    # all seven prime-field points pushes n past the subfield order; k = 2
    # keeps the covered twist pair legal
    code = subfield_chain_7_4(alphas=(0, 1, 2, 3, 4, 5, 6), b=1, c=2, k=2)
    assert code.warnings and "exceeds" in code.warnings[0]


def test_subfield_chain_small_k_drops_non_rs_flag():
    code = subfield_chain_7_4(k=2)
    assert code.guaranteed_mds and not code.guaranteed_non_rs


# --- subgroup construction -------------------------------------------------------


def subgroup_23(**overrides):
    f = field_create(23, 2)
    kw = dict(
        field=f, base_subfield_degree=1, group_order=11, b=12, c=7,
        lam=5, eta=f.primitive_element().index, h=0, k=4, extended=False,
    )
    kw.update(overrides)
    return build_subgroup_code(SubgroupConstructionParams(**kw))


def test_subgroup_build_flags():
    code = subgroup_23()
    assert code.construction == SUBGROUP
    assert code.guaranteed_mds and code.guaranteed_non_rs
    assert code.guaranteed_ctrs_inequivalent
    assert code.spec.n == 11


def test_subgroup_membership_gates():
    f = field_create(23, 2)
    with pytest.raises(MembershipViolationError):  # lambda inside the subgroup
        subgroup_23(lam=2)
    with pytest.raises(MembershipViolationError):  # lambda outside F_23
        subgroup_23(lam=f.primitive_element().index)
    with pytest.raises(MembershipViolationError):  # eta inside F_23*
        subgroup_23(eta=5)
    with pytest.raises(DegenerateBCError):
        subgroup_23(b=7, c=7)
    with pytest.raises(MembershipViolationError):  # b outside F_23
        subgroup_23(b=f.primitive_element().index)
    for h in (-1, 4):
        with pytest.raises(InvalidSpecError, match=rf"^hook h={h} outside \[0, k=4\)$"):
            subgroup_23(h=h)
    with pytest.raises(InvalidSpecError, match=r"^dimension k=0 outside \[1, n=11\]$"):
        subgroup_23(k=0)  # the dimension is at fault, not the hook


def test_subgroup_eta_zero_allowed_and_ctrs_flag_dropped():
    code = subgroup_23(eta=0)
    assert code.guaranteed_mds
    assert not code.guaranteed_ctrs_inequivalent


def test_subgroup_unguaranteed_mode():
    f = field_create(17)
    params = SubgroupConstructionParams(f, 1, 8, 1, 2, 10, 4, h=0, k=4)
    with pytest.raises(MembershipViolationError):
        build_subgroup_code(params)  # eta = 4 sits inside F_17*
    code = build_subgroup_code(params, unguaranteed=True)
    assert not code.guaranteed_mds
    assert not code.guaranteed_non_rs
    assert not code.guaranteed_ctrs_inequivalent
    assert sorted(code.spec.alphas) == [0, 3, 7, 8, 10, 12, 13]


def test_subgroup_flag_windows():
    # k = 2 leaves the non-RS window
    assert not subgroup_23(k=2).guaranteed_non_rs
    # k = 5: 2k = 10 <= 11 and 2k <= n-1 = 10 keep both certificates
    code = subgroup_23(k=5)
    assert code.guaranteed_non_rs and code.guaranteed_ctrs_inequivalent
    # zero twist point loses the hook-0 certificates
    code = subgroup_23(b=0, c=7)
    assert code.guaranteed_mds and not code.guaranteed_non_rs


def test_subgroup_extended_hook0_keeps_mds_but_not_ctrs_flag():
    code = subgroup_23(extended=True)
    assert code.guaranteed_mds and code.guaranteed_non_rs
    assert not code.guaranteed_ctrs_inequivalent


def test_subgroup_extended_hook_k1_keeps_ctrs_flag():
    f = field_create(29, 2)
    params = SubgroupConstructionParams(
        f, 1, 14, 12, 7, 15, f.primitive_element().index, h=3, k=4, extended=True
    )
    code = build_subgroup_code(params)
    assert code.guaranteed_ctrs_inequivalent


def test_subgroup_extended_interior_hook_rejected():
    with pytest.raises(UnsupportedExtendedGeneralHError):
        subgroup_23(h=2, extended=True)


def test_subgroup_hook_one_needs_nonzero_twist_points():
    f = field_create(29, 2)
    eta = f.primitive_element().index
    base = dict(field=f, base_subfield_degree=1, group_order=14, c=7,
                lam=15, eta=eta, h=1, k=4, extended=False)
    with_zero = build_subgroup_code(SubgroupConstructionParams(b=0, **base))
    assert with_zero.guaranteed_mds and not with_zero.guaranteed_non_rs
    nonzero = build_subgroup_code(SubgroupConstructionParams(b=12, **base))
    assert nonzero.guaranteed_non_rs


def _hook_by_hook_flags(f, view, n, k, h, b, c, lam, eta, extended):
    """The subgroup recipe's flags, written as its first case split on the hook."""
    in_window = 3 <= k and 2 * k <= n
    if h == 0:
        non_rs = in_window and b != 0 and c != 0 and lam != 0
    elif h == k - 1:
        non_rs = in_window and lam != 0 and eta != 0
    else:
        non_rs = in_window and lam != 0 and eta != 0 and (h != 1 or (b != 0 and c != 0))
    proper = view.order < f.q
    eta_outside = eta != 0 and not view.contains(eta)
    ctrs_base = proper and eta_outside and lam != 0 and 4 <= k and 2 * k <= n - 1
    if h == 0:
        ctrs = ctrs_base and b != 0 and c != 0 and not extended
    elif h == k - 1:
        ctrs = ctrs_base
    else:
        ctrs = ctrs_base and (h != 1 or (b != 0 and c != 0))
    return non_rs, ctrs


def test_subgroup_flags_match_the_hook_by_hook_rules():
    # (p, m, subfield degree): proper subfields with subgroups long enough
    # for both certificate windows, and whole fields
    shapes = ((31, 2, 1), (37, 2, 1), (5, 4, 2), (2, 8, 4), (3, 4, 2), (13, 1, 1), (2, 4, 4))
    # held for the whole run: the field cache is weak, so a field dropped
    # between draws would have its tables walked again at its next draw
    held = [field_create(p, m) for p, m, _ in shapes]
    rng = random.Random(49536)
    seen = set()
    for _ in range(4000):
        p, m, d = rng.choice(shapes)
        f = field_create(p, m)
        view = f.subfield(d)
        sub = view.element_indices()
        divisors = [x for x in range(2, view.order) if (view.order - 1) % x == 0]
        n = rng.choice(divisors[-3:] if rng.random() < 0.5 else divisors)
        members = set(subgroup_of_order(view, n).indices)
        k = rng.randint(1, min(8, n))
        if n >= 9 and rng.random() < 0.5:
            k = rng.randint(4, (n - 1) // 2)  # the CTRS window
        h = rng.choice((0, 1 % k, k - 1, rng.randrange(k)))
        b, c = rng.sample(sub[1:], 2)
        b, c = rng.choice(((b, c), (0, c), (b, 0)))
        lam = rng.choice((0, rng.choice([x for x in sub if x not in members] or [0])))
        eta = rng.choice((0, rng.choice(sub[1:]), rng.randrange(f.q)))
        extended = h in (0, k - 1) and rng.random() < 0.5
        eta_kind = "zero" if not eta else "inside" if view.contains(eta) else "outside"
        params = SubgroupConstructionParams(f, d, n, b, c, lam, eta, h=h, k=k, extended=extended)
        code = build_subgroup_code(params, unguaranteed=eta_kind == "inside")
        want = (False, False)
        if eta_kind != "inside":
            want = _hook_by_hook_flags(f, view, n, k, h, b, c, lam, eta, extended)
        assert (code.guaranteed_non_rs, code.guaranteed_ctrs_inequivalent) == want, params
        hook = "0" if h == 0 else "k-1" if h == k - 1 else "1" if h == 1 else "interior"
        seen.update({
            ("hook", hook), ("b or c zero", not (b and c)), ("lambda zero", not lam),
            ("eta", eta_kind), ("extended", extended), ("proper", view.order < f.q),
            ("non_rs", want[0]), ("ctrs", want[1]),
        })
        if eta_kind == "outside" and lam and 4 <= k and 2 * k <= n - 1:
            seen.add(("ctrs window", hook, extended, not (b and c)))
    for kind in ("0", "1", "k-1", "interior"):
        assert ("hook", kind) in seen
    for kind in ("zero", "inside", "outside"):
        assert ("eta", kind) in seen
    for key in ("b or c zero", "lambda zero", "extended", "proper", "non_rs", "ctrs"):
        assert {(key, True), (key, False)} <= seen
    for hook in ("0", "1", "k-1", "interior"):
        for zero in (False, True):
            assert ("ctrs window", hook, False, zero) in seen
    assert ("ctrs window", "0", True, False) in seen


def test_random_guaranteed_builds_are_mds():
    f = field_create(13, 2)
    view = f.subfield(1)
    eta_pool = [x for x in range(f.q) if x != 0 and not view.contains(x)]
    rng = random.Random(99)
    built = 0
    while built < 30:
        n = rng.choice([4, 6, 12])
        group = subgroup_of_order(view, n)
        members = set(group.indices)
        lam_pool = [x for x in range(1, 13) if x not in members]
        if not lam_pool:
            continue
        b, c = rng.sample(range(13), 2)
        k = rng.randrange(2, min(5, n) + 1)
        h = rng.choice([0, k - 1] if rng.random() < 0.6 else list(range(k)))
        extended = h in (0, k - 1) and rng.random() < 0.4
        params = SubgroupConstructionParams(
            f, 1, n, b, c, rng.choice(lam_pool), rng.choice(eta_pool),
            h=h, k=k, extended=extended,
        )
        code = build_subgroup_code(params)
        assert code.guaranteed_mds
        assert mds_by_minors(generator_matrix(code.spec)).is_mds, params
        built += 1


def test_random_subfield_chain_builds_are_mds():
    f = field_create(5, 4)
    v0 = f.subfield(1)
    v1 = f.subfield(2)
    sub1 = set(v1.element_indices())
    lam_pool = [x for x in sorted(sub1) if x != 0 and not v0.contains(x)]
    eta_pool = [x for x in range(200) if x != 0 and x not in sub1]
    rng = random.Random(123)
    built = 0
    while built < 30:
        npts = rng.randrange(2, 6)
        alphas = rng.sample(range(5), npts)
        b, c = rng.sample(range(5), 2)
        k = rng.randrange(1, npts + 2)
        covered = {b, c}.issubset(alphas) and len({b, c}) <= k - 1
        if covered:
            with pytest.raises(DegenerateBCError):
                build_subfield_chain_code(
                    f, 1, 2, alphas, b, c, rng.choice(lam_pool),
                    rng.choice(eta_pool), k, extended=rng.random() < 0.5,
                )
            continue
        code = build_subfield_chain_code(
            f, 1, 2, alphas, b, c, rng.choice(lam_pool), rng.choice(eta_pool), k,
            extended=rng.random() < 0.5,
        )
        assert code.guaranteed_mds
        assert mds_by_minors(generator_matrix(code.spec)).is_mds
        built += 1


def test_subfield_chain_rejects_covered_twist_points():
    f = field_create(5, 4)
    lam = next(
        x for x in f.subfield(2).element_indices()
        if x != 0 and not f.subfield(1).contains(x)
    )
    eta = f.primitive_element().index
    # both twist points among the points with k >= 3: provably non-MDS
    for extended in (False, True):
        with pytest.raises(DegenerateBCError):
            build_subfield_chain_code(
                f, 1, 2, (0, 2, 4, 1), 4, 0, lam, eta, 3, extended=extended
            )
    # b = c counts as a single value, so one covering point already breaks k = 2
    with pytest.raises(DegenerateBCError):
        build_subfield_chain_code(f, 1, 2, (0, 1, 2), 1, 1, lam, eta, 2)
    # k = 2 leaves no room for a 1-subset to cover two distinct points
    code = build_subfield_chain_code(f, 1, 2, (0, 2, 4, 1), 4, 0, lam, eta, 2)
    assert code.guaranteed_mds
    assert mds_by_minors(generator_matrix(code.spec)).is_mds
    # a single coinciding twist point is fine at any k
    code = build_subfield_chain_code(f, 1, 2, (0, 2, 4, 1), 4, 3, lam, eta, 3)
    assert code.guaranteed_mds
    assert mds_by_minors(generator_matrix(code.spec)).is_mds


# --- corollary ---------------------------------------------------------------------


def test_corollary_lengths_values():
    assert corollary_lengths(17, 2) == (8, 9)
    assert corollary_lengths(23, 11) == (2, 3)
    assert corollary_lengths(29, 7) == (4, 5)
    with pytest.raises(NotADivisorError):
        corollary_lengths(17, 5)
    with pytest.raises(ValueError):
        corollary_lengths(17, 4)
    # each p_div is a prime dividing q - 1, but q is no prime power
    for q, p_div in ((6, 5), (12, 11), (1, 2)):
        with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
            corollary_lengths(q, p_div)
    with pytest.raises(ValueError, match="^6 is not a prime power$"):
        corollary_witness_codes(6, 5)


def test_corollary_witnesses():
    plain, ext = corollary_witness_codes(17, 2)
    assert plain.spec.n == 8 and not plain.spec.extended
    assert ext.spec.n == 8 and ext.spec.extended
    assert plain.guaranteed_mds and ext.guaranteed_mds
    assert mds_by_minors(generator_matrix(plain.spec)).is_mds
    assert mds_by_minors(generator_matrix(ext.spec)).is_mds
    with pytest.raises(ValueError, match="^15 is not a prime power$"):
        corollary_witness_codes(15, 7)


def test_corollary_witnesses_all_prime_divisors():
    for q in (17, 29, 25):  # 25 = 5^2: the ambient field is GF(5^4), the subfield F_25
        for p in prime_factors(q - 1):
            plain, ext = corollary_witness_codes(q, p)
            want = (q - 1) // p
            assert generator_matrix(plain.spec).ncols == want
            assert generator_matrix(ext.spec).ncols == want + 1
