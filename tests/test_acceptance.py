"""Acceptance suite: every shipped guarantee, each run against its time bound.

One test per criterion; each prints a single `criterion NN PASS` line with
its elapsed time (visible with pytest -s or -rP) and fails loudly if a value
or the time bound is off.
"""

import dataclasses
import random
import time

from rctrs.codes import CodeFamily, CodeSpec, generator_matrix
from rctrs.construct import corollary_witness_codes
from rctrs.gf import field_create, prime_factors
from rctrs.golden import GOLDEN_KEYS, check_case, golden_cases
from rctrs.linalg import det
from rctrs.mds import check_mds, mds_by_minors
from rctrs.schur import schur_square_dim, schur_square_rows

from oracles import (
    apply_isometry,
    deleted_row_vandermonde_det,
    deleted_row_vandermonde_matrix,
    random_isometry,
    row_space_equal,
)


def _finish(num: int, label: str, started: float, bound: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < bound, f"criterion {num} took {elapsed:.2f}s, bound {bound:g}s"
    print(f"criterion {num:02d} PASS {label} ({elapsed:.2f}s < {bound:g}s)")


def test_criterion_01_subfield_chain_worked_example():
    started = time.monotonic()
    cases = golden_cases("7_4")
    assert [c.expected.length for c in cases] == [7, 8]
    assert [c.expected.distance for c in cases] == [5, 6]
    for case in cases:
        report, problems = check_case(case)
        assert not problems, problems
        assert report.mds.method == "both"
        assert report.distance.method == "minors"
        assert report.schur.dim == 6
        assert report.schur.non_rs is True
    _finish(1, "subfield-chain example [7,3,5] / [8,3,6]", started, 5.0)


def test_criterion_02_subgroup_example_over_gf23_squared():
    started = time.monotonic()
    cases = golden_cases("23_2")
    assert [c.expected.length for c in cases] == [11, 12]
    assert [c.expected.distance for c in cases] == [8, 9]
    for case in cases:
        report, problems = check_case(case)
        assert not problems, problems
        assert report.schur.non_rs is True
        assert sorted(case.code.spec.alphas) == [2, 3, 4, 6, 13, 15, 16, 17, 20, 22]
    _finish(2, "subgroup example [11,4,8] / [12,4,9]", started, 5.0)


def test_criterion_03_prime_field_example_with_full_enumeration():
    started = time.monotonic()
    (case,) = golden_cases("17")
    report, problems = check_case(case)
    assert not problems, problems
    assert report.distance.method == "enumeration"
    assert report.distance.enumerated == 83520
    assert report.distance.value == 5
    assert report.schur.dim == 8
    _finish(3, "prime-field example [8,4,5], 83520 codewords", started, 10.0)


def test_criterion_04_interior_hook_example_over_gf29_squared():
    started = time.monotonic()
    cases = golden_cases("29_2")
    assert [c.expected.length for c in cases] == [14, 15]
    assert [c.expected.distance for c in cases] == [11, 12]
    for case in cases:
        report, problems = check_case(case)
        assert not problems, problems
        assert report.schur.dim == 9
        assert report.schur.ctrs_incompatible is True
    _finish(4, "hook k-1 example [14,4,11] / [15,4,12]", started, 10.0)


def _random_rctrs(f, rng, h):
    while True:
        npts = rng.randrange(2, min(10, f.q + 1))
        k = rng.randrange(2, min(5, npts) + 1)
        if h >= k:
            continue
        pool = list(range(f.q))
        rng.shuffle(pool)
        alphas = tuple(pool[:npts])
        b, c = pool[npts % len(pool)], pool[(npts + 1) % len(pool)]
        if b == c:
            continue
        return CodeSpec(
            CodeFamily.RCTRS, f, npts + 1, k, alphas,
            h=h, t=1, b=b, c=c, lam=rng.randrange(f.q), eta=rng.randrange(f.q),
        )


def test_criterion_05_closed_forms_match_minor_oracle():
    started = time.monotonic()
    rng = random.Random(5)
    checked = extended_checked = mismatches = 0
    for f in (field_create(13), field_create(3, 2)):
        for h in range(5):
            for _ in range(200):
                spec = _random_rctrs(f, rng, h)
                if (h == 0 or h == spec.k - 1) and rng.random() < 0.5:
                    spec = dataclasses.replace(spec, extended=True)
                    extended_checked += 1
                closed = check_mds(spec, method="closed")
                minors = check_mds(spec, method="minors")
                checked += 1
                mismatches += closed.is_mds != minors.is_mds
    assert checked == 2000
    assert extended_checked > 100
    assert mismatches == 0
    _finish(5, f"closed forms vs minors, {checked} specs, 0 mismatches", started, 60.0)


def test_criterion_06_grs_schur_square_row_space_law():
    started = time.monotonic()
    rng = random.Random(6)
    fields = (field_create(13), field_create(3, 2), field_create(17))
    for i in range(100):
        f = fields[i % 3]
        n = rng.randrange(2, f.q + 1)
        k = rng.randrange(1, n // 2 + 1)
        alphas = tuple(rng.sample(range(f.q), n))
        v = None
        if rng.random() < 0.7:
            v = tuple(rng.randrange(1, f.q) for _ in range(n))
        spec = CodeSpec(CodeFamily.GRS, f, n, k, alphas, v=v)
        squared = schur_square_rows(generator_matrix(spec))
        vv = None if v is None else tuple(f.mul(x, x) for x in v)
        target = CodeSpec(CodeFamily.GRS, f, n, 2 * k - 1, alphas, v=vv)
        assert row_space_equal(squared, generator_matrix(target).matrix)
    _finish(6, "schur square of 100 GRS codes is GRS(2k-1, v*v)", started, 10.0)


def test_criterion_07_deleted_power_row_determinant_identity():
    started = time.monotonic()
    rng = random.Random(7)
    fields = (field_create(17), field_create(23, 2))
    for i in range(200):
        f = fields[i % 2]
        npts = rng.randrange(2, 8)
        pts = rng.sample(range(f.q), npts)
        skip = rng.randrange(1, npts)
        closed = deleted_row_vandermonde_det(f, pts, skip)
        direct = det(deleted_row_vandermonde_matrix(f, pts, skip))
        assert closed == direct
    _finish(7, "200 deleted-power-row determinants match", started, 5.0)


def test_criterion_08_degenerations_reproduce_simpler_families():
    started = time.monotonic()
    rng = random.Random(8)
    f = field_create(13)
    for _ in range(50):
        npts = rng.randrange(2, 9)
        k = rng.randrange(1, npts + 1)
        h = rng.randrange(k)
        t = rng.randrange(1, 3)
        pool = list(range(13))
        rng.shuffle(pool)
        alphas = tuple(pool[:npts])
        b, c = pool[npts], pool[(npts + 1) % 13]
        lam = rng.randrange(1, 13)
        eta = rng.randrange(1, 13)
        ext = rng.random() < 0.5
        n = npts + 1

        def rc(lam_, eta_):
            return generator_matrix(CodeSpec(
                CodeFamily.RCTRS, f, n, k, alphas,
                h=h, t=t, b=b, c=c, lam=lam_, eta=eta_, extended=ext,
            )).rows

        ctrs = generator_matrix(CodeSpec(
            CodeFamily.CTRS, f, n, k, alphas, b=b, c=c, lam=lam, extended=ext,
        )).rows
        assert rc(lam, 0) == ctrs
        trs = generator_matrix(CodeSpec(
            CodeFamily.TRS, f, n, k, alphas + (b,), h=h, t=t, eta=eta, extended=ext,
        )).rows
        assert rc(0, eta) == trs
        rs = generator_matrix(CodeSpec(
            CodeFamily.GRS, f, n, k, alphas + (b,), extended=ext,
        )).rows
        assert rc(0, 0) == rs
    _finish(8, "50 specs degenerate exactly to CTRS / TRS / RS", started, 5.0)


def test_criterion_09_promised_lengths_for_each_prime_divisor():
    started = time.monotonic()
    pairs = 0
    for q in (17, 23, 29):
        for p_div in prime_factors(q - 1):
            n = (q - 1) // p_div
            plain, ext = corollary_witness_codes(q, p_div)
            assert plain.spec.n == n and not plain.spec.extended
            assert ext.spec.n == n and ext.spec.extended
            for code in (plain, ext):
                assert code.guaranteed_mds
                gen = generator_matrix(code.spec)
                assert gen.ncols == n + (1 if code.spec.extended else 0)
                assert mds_by_minors(gen).is_mds
            pairs += 1
    assert pairs == 5
    _finish(9, "lengths (q-1)/p and (q-1)/p+1 are MDS for 5 divisor pairs", started, 60.0)


def test_criterion_10_isometries_preserve_schur_dim_and_mds():
    started = time.monotonic()
    rng = random.Random(10)
    baselines = []
    for key in GOLDEN_KEYS:
        for case in golden_cases(key):
            gen = generator_matrix(case.code.spec)
            dim = schur_square_dim(gen)
            assert dim == case.expected.schur_dim
            baselines.append((gen, dim, mds_by_minors(gen).is_mds))
    for i in range(100):
        gen, dim, is_mds = baselines[i % len(baselines)]
        moved = apply_isometry(gen, random_isometry(gen.field, gen.ncols, rng))
        assert schur_square_dim(moved) == dim
        assert mds_by_minors(moved).is_mds == is_mds
    _finish(10, "100 isometries leave schur dim and MDS unchanged", started, 10.0)
