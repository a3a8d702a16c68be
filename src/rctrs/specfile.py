"""Plain-text code specs.

One key/value pair per line, key and value separated by whitespace.  The
field line comes first so every later element index has a home:

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

The field descriptor is p^m followed by the modulus coefficients from
the leading term down to the constant.  All element values are integer
indices.  Blank lines and lines starting with # are ignored; unknown or
repeated keys are rejected.  Keys that do not apply to the named family
are also rejected, so a GRS spec cannot smuggle in a twist.
"""

from __future__ import annotations

from pathlib import Path

from .codes import CodeFamily, CodeSpec
from .errors import ParseError
from .gf import Field


def _parse_int(key: str, value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"line {lineno}: key {key!r} needs an integer, got {value!r}") from None


def _parse_int_list(key: str, value: str, lineno: int) -> tuple[int, ...]:
    if not value:
        return ()
    try:
        return tuple(int(tok) for tok in value.split(","))
    except ValueError:
        raise ParseError(
            f"line {lineno}: key {key!r} needs comma-separated integers, got {value!r}"
        ) from None


def _parse_flag(key: str, value: str, lineno: int) -> bool:
    flag = _parse_int(key, value, lineno)
    if flag not in (0, 1):
        raise ParseError(f"line {lineno}: {key} must be 0 or 1")
    return bool(flag)


def _parse_family(key: str, value: str, lineno: int) -> CodeFamily:
    return CodeFamily.coerce(value)


# (key, CodeSpec attribute, parser) for every key after the field line,
# in the order codespec_to_text writes them.
_KEYS = (
    ("family", "family", _parse_family),
    ("n", "n", _parse_int),
    ("k", "k", _parse_int),
    ("h", "h", _parse_int),
    ("t", "t", _parse_int),
    ("extended", "extended", _parse_flag),
    ("alphas", "alphas", _parse_int_list),
    ("v", "v", _parse_int_list),
    ("b", "b", _parse_int),
    ("c", "c", _parse_int),
    ("lambda", "lam", _parse_int),
    ("eta", "eta", _parse_int),
)
_ATTRS = {key: attr for key, attr, _ in _KEYS}


def codespec_from_text(text: str) -> CodeSpec:
    field: Field | None = None
    pairs: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        key = parts[0]
        value = parts[1].strip() if len(parts) > 1 else ""
        if key == "field":
            if field is not None:
                raise ParseError(f"line {lineno}: duplicate field line")
            field = Field.from_descriptor(value)
            continue
        if field is None:
            raise ParseError(f"line {lineno}: the field line must come first")
        if key not in _ATTRS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = (value, lineno)
    if field is None:
        raise ParseError("missing field line")
    if "family" not in pairs:
        raise ParseError("missing family line")
    family = CodeFamily.coerce(pairs["family"][0])
    for key, (_, lineno) in pairs.items():
        if not family.takes(_ATTRS[key]):
            raise ParseError(
                f"line {lineno}: key {key!r} does not apply to family {family.value}"
            )
    for key in ("n", "k"):
        if key not in pairs:
            raise ParseError(f"missing {key} line")
    kwargs = {attr: parse(key, *pairs[key]) for key, attr, parse in _KEYS if key in pairs}
    return CodeSpec(field=field, **kwargs)


def _format(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(x) for x in value)
    if isinstance(value, CodeFamily):
        return value.value
    return str(int(value))


def codespec_to_text(spec: CodeSpec) -> str:
    lines = [f"field {spec.field.descriptor()}"]
    for key, attr, _ in _KEYS:
        # A GRS spec without v, or a code with no points, leaves the line out.
        value = getattr(spec, attr)
        if spec.family.takes(attr) and value not in (None, ()):
            lines.append(f"{key} {_format(value)}")
    return "\n".join(lines) + "\n"


def codespec_read(path: str | Path) -> CodeSpec:
    """Read and validate the spec file at path."""
    return codespec_from_text(Path(path).read_text())
