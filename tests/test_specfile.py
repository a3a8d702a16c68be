"""Text round trips and rejection paths for plain-text code specs."""

import gc
import random
from weakref import WeakValueDictionary

import pytest

from rctrs import gf
from rctrs.codes import CodeFamily, CodeSpec
from rctrs.errors import InvalidSpecError, ParseError
from rctrs.gf import field_create
from rctrs.golden import GOLDEN_KEYS, golden_cases
from rctrs.report import analyze
from rctrs.specfile import codespec_from_text, codespec_read, codespec_to_text

SAMPLE = """\
field 17^1/1,0
family RCTRS
n 8
k 4
h 0
t 1
extended 0
alphas 0,3,7,8,10,12,13
b 1
c 2
lambda 10
eta 4
"""


def test_sample_parses():
    spec = codespec_from_text(SAMPLE)
    assert spec.family is CodeFamily.RCTRS
    assert spec.field.q == 17
    assert (spec.n, spec.k, spec.h, spec.t) == (8, 4, 0, 1)
    assert spec.alphas == (0, 3, 7, 8, 10, 12, 13)
    assert (spec.b, spec.c, spec.lam, spec.eta) == (1, 2, 10, 4)
    assert not spec.extended


def test_serialize_is_parse_inverse_on_sample():
    spec = codespec_from_text(SAMPLE)
    assert codespec_to_text(spec) == SAMPLE
    # a CTRS code of length 1 has no evaluation points and no alphas line
    bare = "field 13^1/1,0\nfamily CTRS\nn 1\nk 1\nextended 0\nb 4\nc 5\nlambda 6\n"
    assert codespec_to_text(codespec_from_text(bare)) == bare


def test_an_empty_list_line_is_an_empty_list(tmp_path):
    """A CTRS code of length 1 may say so with an alphas line and no value;
    the written text then leaves the line out."""
    path = tmp_path / "bare.spec"
    path.write_text("field 13\nfamily CTRS\nn 1\nk 1\nalphas\nb 4\nc 5\nlambda 6\n")
    spec = codespec_read(path)
    assert spec.alphas == ()
    text = codespec_to_text(spec)
    assert text == "field 13^1/1,0\nfamily CTRS\nn 1\nk 1\nextended 0\nb 4\nc 5\nlambda 6\n"
    assert codespec_from_text(text) == spec


def test_comments_and_blank_lines_ignored():
    noisy = "# preamble\n\n" + SAMPLE.replace("n 8", "n 8\n# midway note\n")
    assert codespec_from_text(noisy) == codespec_from_text(SAMPLE)


def test_golden_specs_round_trip():
    for key in GOLDEN_KEYS:
        for case in golden_cases(key):
            text = codespec_to_text(case.code.spec)
            again = codespec_from_text(text)
            assert again == case.code.spec
            assert codespec_to_text(again) == text


def test_a_field_named_in_text_builds_its_tables_once(monkeypatch):
    # The text names the modulus in full; field_create(3, 10) names the
    # default.  Both are one instance, whose tables one walk builds.
    monkeypatch.setattr(gf, "_field_cache", WeakValueDictionary())
    walks = []
    walk = gf.Field._walk_powers
    monkeypatch.setattr(gf.Field, "_walk_powers", lambda self, g: walks.append(self) or walk(self, g))
    f = field_create(3, 10)
    text = codespec_to_text(CodeSpec(CodeFamily.GRS, f, 8, 3, tuple(range(8))))
    assert "/" in text.splitlines()[0]
    specs = [codespec_from_text(text) for _ in range(2)]
    assert specs[0].field is specs[1].field is f
    reports = [analyze(spec).render() for spec in specs]
    assert reports[0] == reports[1]
    assert walks == [f]


def test_the_field_cache_frees_a_field_once_nothing_uses_it():
    # Two GF(3^6) moduli other than the default, so no other test holds them.
    moduli = ((1, 0, 0, 0, 1, 1, 1), (1, 0, 0, 0, 1, 2, 1))
    fields = [field_create(3, 6, modulus) for modulus in moduli]
    assert fields[0] is not fields[1]
    texts = [codespec_to_text(CodeSpec(CodeFamily.GRS, f, 8, 3, tuple(range(8)))) for f in fields]
    specs = [codespec_from_text(text) for text in texts]
    assert all(spec.field is f for spec, f in zip(specs, fields))
    assert all(field_create(3, 6, modulus) is f for modulus, f in zip(moduli, fields))
    assert all(analyze(spec).mds.is_mds for spec in specs)  # builds the tables
    keys = [(3, 6, modulus) for modulus in moduli]
    assert all(gf._field_cache[key] is f for key, f in zip(keys, fields))
    del fields, specs
    gc.collect()
    assert not any(key in gf._field_cache for key in keys)


def _random_spec(rng: random.Random) -> CodeSpec:
    f = field_create(13)
    family = rng.choice(list(CodeFamily))
    k = rng.randrange(1, 6)
    n = rng.randrange(k, 11)
    npts = n - 1 if family.pointed else n
    kw = dict(alphas=tuple(rng.sample(range(13), npts)))
    if family.twisted:
        kw.update(h=rng.randrange(k), t=rng.randrange(1, 3), eta=rng.randrange(13))
    if family.pointed:
        kw.update(b=rng.randrange(13), c=rng.randrange(13), lam=rng.randrange(13))
    if family is CodeFamily.GRS and rng.random() < 0.5:
        kw.update(v=tuple(rng.randrange(1, 13) for _ in range(n)))
    return CodeSpec(family, f, n, k, **kw)


def test_random_specs_round_trip():
    rng = random.Random(2024)
    for _ in range(100):
        spec = _random_spec(rng)
        text = codespec_to_text(spec)
        again = codespec_from_text(text)
        assert again == spec
        assert codespec_to_text(again) == text


def test_unknown_key_rejected():
    with pytest.raises(ParseError, match="unknown key 'twist'"):
        codespec_from_text(SAMPLE + "twist 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ParseError, match="duplicate key 'k'"):
        codespec_from_text(SAMPLE + "k 4\n")


def test_duplicate_field_line_rejected():
    with pytest.raises(ParseError, match="duplicate field"):
        codespec_from_text(SAMPLE + "field 17^1/1,0\n")


def test_field_must_come_first():
    flipped = "family RCTRS\n" + SAMPLE.replace("family RCTRS\n", "")
    with pytest.raises(ParseError, match="field line must come first"):
        codespec_from_text(flipped)


def test_missing_lines_rejected():
    with pytest.raises(ParseError, match="missing field"):
        codespec_from_text("# nothing but commentary\n")
    with pytest.raises(ParseError, match="missing family"):
        codespec_from_text("field 13^1/1,0\nn 4\nk 2\nalphas 0,1,2,3\n")
    for key in ("n", "k"):
        broken = "\n".join(
            line for line in SAMPLE.splitlines() if not line.startswith(f"{key} ")
        )
        with pytest.raises(ParseError, match=f"missing {key}"):
            codespec_from_text(broken)


def test_bad_values_rejected():
    with pytest.raises(ParseError, match="^line 7: extended must be 0 or 1$"):
        codespec_from_text(SAMPLE.replace("extended 0", "extended 2"))
    with pytest.raises(ParseError, match="needs an integer"):
        codespec_from_text(SAMPLE.replace("k 4", "k four"))
    with pytest.raises(ParseError, match="comma-separated integers"):
        codespec_from_text(SAMPLE.replace("alphas 0,3,7,8,10,12,13", "alphas 0,x,2"))
    with pytest.raises(InvalidSpecError, match="unknown code family"):
        codespec_from_text(SAMPLE.replace("family RCTRS", "family XRS"))


def test_family_specific_keys_enforced():
    grs = "field 13^1/1,0\nfamily GRS\nn 4\nk 2\nalphas 0,1,2,3\n"
    with pytest.raises(ParseError, match="does not apply to family GRS"):
        codespec_from_text(grs + "eta 5\n")
    ctrs = "field 13^1/1,0\nfamily CTRS\nn 4\nk 2\nalphas 0,1,2\nb 4\nc 5\nlambda 6\n"
    assert codespec_from_text(ctrs).family is CodeFamily.CTRS
    with pytest.raises(ParseError, match="does not apply to family CTRS"):
        codespec_from_text(ctrs + "h 1\n")
    trs = "field 13^1/1,0\nfamily TRS\nn 4\nk 2\nh 1\nt 1\nalphas 0,1,2,3\neta 5\n"
    assert codespec_from_text(trs).family is CodeFamily.TRS
    with pytest.raises(ParseError, match="does not apply to family TRS"):
        codespec_from_text(trs + "b 4\n")


def test_spec_validation_still_applies():
    with pytest.raises(InvalidSpecError, match="hook"):
        codespec_from_text(SAMPLE.replace("h 0", "h 4"))


def test_read_from_path(tmp_path):
    spec = codespec_from_text(SAMPLE)
    path = tmp_path / "code.spec"
    path.write_text(SAMPLE)
    assert codespec_read(path) == spec
    assert codespec_read(str(path)) == spec
    with pytest.raises(FileNotFoundError):
        codespec_read(str(tmp_path / "missing.spec"))
