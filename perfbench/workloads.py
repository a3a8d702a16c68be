"""Seeded workload decks for the rctrs benchmark, and the checks on their outputs.

A deck is the list of operations one pass of a workload runs.  Every
workload is built from a fixed catalogue of classes; each class has a
few numbered variants whose parameters come from a random stream keyed
by (class, variant).  The run seed picks one variant per class and the
order of the deck, so the same seed always gives the same inputs while
the cost of a pass barely depends on the seed.  reference.json holds, for
every (class, variant), a digest of the input and of the output the
library produced when the benchmark was defined, so each output of any
seed is compared against a recorded value.

The library only ever sees the generated specs, spec files and command
lines; the seed stays inside the benchmark.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Variants recorded in reference.json per class.
VARIANTS = {"mds_sweep": 4, "distance_enum": 6, "cold_cli": 4}

# mds_sweep.  q^k is above the default budget, so distance takes the MDS
# shortcut and every guaranteed code pays the full C(N, k) minor scan.
# Eight seeded copies each of the GF(31^2) n=15 hook-0 codes at k=5 and
# k=7 put a plateau of near-equal ops under the median and under the 90th
# percentile, so those two do not jump between op kinds from seed to seed.
SWEEP_PLATEAU = ((31, 2, 1, 15, 5), (31, 2, 1, 15, 7))
PLATEAU_COPIES = 8
# Subgroup recipe over every hook kind, plain and extended: (p, m, d, n, k).
SWEEP_HOOKS = (
    (31, 2, 1, 15, 3),
    (7, 4, 2, 16, 5),
    (2, 8, 4, 15, 5),
    (3, 10, 5, 11, 4),
)
# Subfield-chain recipe over GF(7^4): F_7 inside F_49.
SWEEP_CHAIN_KS = (3, 4)
# Unguaranteed hook-0 subgroup specs, eta inside F_q0*: their witnesses end
# the scan early.  With them, 18 ops cost under 35 ms and 18 over 200 ms, so
# the median falls in the middle of the k=5 plateau.
SWEEP_UNGUARANTEED = (
    (31, 2, 1, 15, 5),
    (7, 4, 2, 16, 4),
    (2, 8, 4, 15, 5),
    (3, 10, 5, 11, 4),
)

# distance_enum: (p, m, n, k); each row gives one RCTRS and one GRS class.
# q^k stays within the default budget, so distance is enumerated.  GF(13)
# at k=5 takes n=7 so that its two ops cost about as much as the GF(2^4)
# k=4 pair, and the 90th percentile falls among four near-equal ops.
ENUM_SHAPES = (
    (13, 1, 12, 3),
    (13, 1, 10, 4),
    (13, 1, 7, 5),
    (17, 1, 16, 3),
    (17, 1, 9, 4),
    (5, 2, 20, 3),
    (5, 2, 12, 3),
    (7, 2, 12, 3),
    (3, 3, 20, 3),
    (3, 3, 12, 3),
    (2, 4, 15, 3),
    (2, 4, 8, 4),
    (2, 5, 12, 3),
)

# cold_cli spec classes: name -> (kind, p, m, n, k, hook).
CLI_SPECS = {
    "sub23_2": ("subgroup", 23, 2, 11, 4, 0),
    "sub29_2": ("subgroup", 29, 2, 14, 4, 3),
    "rctrs5_2": ("rctrs", 5, 2, 10, 3, None),
    "grs1031_2": ("grs", 1031, 2, 8, 4, None),
    "rctrs1031_2": ("rctrs", 1031, 2, 10, 4, None),
}
# cold_cli requests per pass: (label, argv); {spec} names a spec class file.
CLI_REQUESTS = (
    ("field-info:3^10", ("field-info", "3^10")),
    ("field-info:2^16", ("field-info", "2^16")),
    ("field-info:5^6", ("field-info", "5^6")),
    ("analyze:sub23_2", ("analyze", "{sub23_2}")),
    ("analyze:sub29_2", ("analyze", "{sub29_2}")),
    ("analyze:rctrs5_2", ("analyze", "{rctrs5_2}")),
    ("analyze:grs1031_2", ("analyze", "{grs1031_2}")),
    ("analyze:rctrs1031_2", ("analyze", "{rctrs1031_2}")),
    ("check-mds:sub23_2", ("check-mds", "{sub23_2}", "--expect", "true")),
    ("check-mds:grs1031_2", ("check-mds", "{grs1031_2}", "--expect", "true")),
    ("check-mds:rctrs1031_2", ("check-mds", "{rctrs1031_2}")),
    ("distinguish:sub23_2", ("distinguish", "{sub23_2}", "--target", "rs")),
    ("distinguish:sub29_2", ("distinguish", "{sub29_2}", "--target", "ctrs")),
    ("distinguish:rctrs5_2", ("distinguish", "{rctrs5_2}", "--target", "rs")),
    ("reproduce:all", ("reproduce", "--example", "all")),
)

WORKLOADS = ("mds_sweep", "distance_enum", "cold_cli")


def fields_built(rctrs, workload: str) -> tuple[tuple[int, int], ...]:
    """The (p, m) pairs whose field a workload constructs."""
    if workload == "mds_sweep":
        return tuple(dict.fromkeys((p, m) for p, m, *_ in SWEEP_HOOKS))
    if workload == "distance_enum":
        return tuple(dict.fromkeys((p, m) for p, m, *_ in ENUM_SHAPES))
    # `reproduce --example all` builds the fields of the worked examples.
    golden = tuple((c.code.spec.field.p, c.code.spec.field.m)
                   for key in rctrs.golden.GOLDEN_KEYS for c in rctrs.golden.golden_cases(key))
    specs = tuple((p, m) for _, p, m, *_ in CLI_SPECS.values())
    return tuple(dict.fromkeys(((3, 10), (2, 16), (5, 6)) + specs + golden))


def field_label(p: int, m: int) -> str:
    return f"gf{p}" if m == 1 else f"gf{p}_{m}"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def drop_rctrs() -> None:
    """Forget any earlier import, so that once unreferenced it can be collected."""
    for name in [n for n in sys.modules if n == "rctrs" or n.startswith("rctrs.")]:
        del sys.modules[name]
    # typing caches the Optional[...] annotations of the library's classes.
    for clear in getattr(typing, "_cleanups", ()):
        clear()


def import_rctrs():
    """Import the library afresh from the checkout's src, dropping any earlier import."""
    drop_rctrs()
    return importlib.import_module("rctrs")


# ---------------------------------------------------------------------------
# Deck items.


@dataclass
class Item:
    """One operation of a deck: an analyzed spec or one CLI invocation."""

    label: str  # class:variant, the key into reference.json
    source: Any = None  # CodeSpec or ConstructedCode (library workloads)
    spec_text: str = ""  # canonical spec text, digested as the input
    argv: tuple[str, ...] = ()  # CLI arguments (cold_cli)
    command: str = ""  # the CLI request with spec files named by class
    guaranteed: bool = False
    family: str = ""

    @property
    def spec(self):
        return getattr(self.source, "spec", self.source)


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def _outside(f, view, rng: random.Random) -> int:
    """A nonzero element of f outside the subfield view."""
    while True:
        x = rng.randrange(1, f.q)
        if not view.contains(x):
            return x


def _subgroup_code(rctrs, f, d, n, k, h, extended, rng, unguaranteed=False):
    view = f.subfield(d)
    group = set(rctrs.gf.subgroup_of_order(view, n).indices)
    sub_elems = view.element_indices()
    b, c = rng.sample(sub_elems, 2)
    outside = [x for x in sub_elems if x not in group]
    nonzero = [x for x in outside if x] or outside
    lam = rng.choice(nonzero)
    eta = rng.choice(sub_elems[1:]) if unguaranteed else _outside(f, view, rng)
    params = rctrs.construct.SubgroupConstructionParams(
        f, d, n, b, c, lam, eta, h=h, k=k, extended=extended
    )
    return rctrs.construct.build_subgroup_code(params, unguaranteed=unguaranteed)


def _chain_code(rctrs, f, k, extended, rng):
    f7 = f.subfield(1).element_indices()
    f49 = f.subfield(2)
    pts = sorted(rng.sample(f7, 5))
    spare = [x for x in f7 if x not in pts]
    b = rng.choice(spare)
    c = rng.choice([x for x in f7 if x != b])
    lam = rng.choice([x for x in f49.element_indices() if x and x not in f7])
    eta = _outside(f, f49, rng)
    return rctrs.construct.build_subfield_chain_code(
        f, 1, 2, pts, b, c, lam, eta, k, extended=extended
    )


def _random_spec(rctrs, f, family, n, k, extended, rng):
    codes = rctrs.codes
    if family == "GRS":
        pts = rng.sample(range(f.q), n)
        mults = tuple(rng.randrange(1, f.q) for _ in range(n))
        return codes.CodeSpec(codes.CodeFamily.GRS, f, n, k, tuple(pts), v=mults, extended=extended)
    pts = rng.sample(range(f.q), n - 1)
    return codes.CodeSpec(
        codes.CodeFamily.RCTRS, f, n, k, tuple(pts),
        h=rng.randrange(k), t=1,
        b=rng.randrange(f.q), c=rng.randrange(f.q), lam=rng.randrange(f.q),
        eta=rng.randrange(1, f.q), extended=extended,
    )


def _sweep_classes():
    for p, m, d, n, k in SWEEP_PLATEAU:
        for copy in range(PLATEAU_COPIES):
            yield f"sub{p}_{m}.n{n}.k{k}.h0.c{copy}", ("subgroup", p, m, d, n, k, 0, False)
    for p, m, d, n, k in SWEEP_HOOKS:
        for h in dict.fromkeys((0, 1, k - 1)):
            for ext in (False, True) if h in (0, k - 1) else (False,):
                yield f"sub{p}_{m}.n{n}.k{k}.h{h}{'.ext' if ext else ''}", ("subgroup", p, m, d, n, k, h, ext)
    for k in SWEEP_CHAIN_KS:
        for ext in (False, True):
            yield f"chain7_4.k{k}{'.ext' if ext else ''}", ("chain", 7, 4, k, ext)
    for p, m, d, n, k in SWEEP_UNGUARANTEED:
        yield f"ung{p}_{m}.n{n}.k{k}.h0", ("unguaranteed", p, m, d, n, k, 0)


def _enum_classes():
    for i, (p, m, n, k) in enumerate(ENUM_SHAPES):
        for family in ("RCTRS", "GRS"):
            ext = (i % 2 == 1) == (family == "GRS")
            yield f"{family.lower()}{p}_{m}.n{n}.k{k}{'.ext' if ext else ''}", (family, p, m, n, k, ext)


def _library_classes(workload: str):
    return _sweep_classes() if workload == "mds_sweep" else _enum_classes()


def class_names(workload: str) -> list[str]:
    """The classes of mds_sweep or distance_enum; one op of each per pass."""
    return [name for name, _ in _library_classes(workload)]


def _choose(workload: str, seed: int) -> tuple[random.Random, dict[str, int]]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cold_cli":
        keys = list(CLI_SPECS)
    else:
        keys = class_names(workload)
    return rng, {key: rng.randrange(VARIANTS[workload]) for key in keys}


def build_library_item(rctrs, workload: str, name: str, desc, variant: int) -> Item:
    rng = _rng(workload, name, variant)
    field_create = rctrs.gf.field_create
    kind = desc[0]
    if kind == "subgroup":
        _, p, m, d, n, k, h, ext = desc
        code = _subgroup_code(rctrs, field_create(p, m), d, n, k, h, ext, rng)
    elif kind == "chain":
        _, p, m, k, ext = desc
        code = _chain_code(rctrs, field_create(p, m), k, ext, rng)
    elif kind == "unguaranteed":
        _, p, m, d, n, k, h = desc
        code = _subgroup_code(rctrs, field_create(p, m), d, n, k, h, False, rng, unguaranteed=True)
    else:
        family, p, m, n, k, ext = desc
        code = _random_spec(rctrs, field_create(p, m), family, n, k, ext, rng)
    spec = getattr(code, "spec", code)
    return Item(
        label=f"{name}:{variant}",
        source=code,
        spec_text=rctrs.specfile.codespec_to_text(spec),
        guaranteed=getattr(code, "guaranteed_mds", False),
        family=spec.family.value,
    )


def _cli_spec(rctrs, name: str, variant: int):
    kind, p, m, n, k, hook = CLI_SPECS[name]
    rng = _rng("cold_cli", name, variant)
    f = rctrs.gf.field_create(p, m)
    if kind == "subgroup":
        return _subgroup_code(rctrs, f, 1, n, k, hook, False, rng)
    return _random_spec(rctrs, f, kind.upper(), n, k, False, rng)


def _cli_items(rctrs, chosen: dict[str, int], workdir: Path) -> list[Item]:
    """The cold_cli requests, with each spec class's chosen variant written to workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths, texts = {}, {}
    for name, variant in chosen.items():
        code = _cli_spec(rctrs, name, variant)
        texts[name] = rctrs.specfile.codespec_to_text(getattr(code, "spec", code))
        path = workdir / f"{name}.spec"
        path.write_text(texts[name])
        paths[name] = str(path)
    items = []
    for label, argv in CLI_REQUESTS:
        names = [a[1:-1] for a in argv if a.startswith("{")]
        items.append(Item(
            label=f"{label}:{chosen[names[0]]}" if names else label,
            spec_text=texts[names[0]] if names else "",
            argv=tuple(a.format(**paths) for a in argv),
            command=" ".join(argv),
        ))
    return items


def build_deck(rctrs, workload: str, seed: int, workdir: Path) -> list[Item]:
    """One pass of a workload for a seed; cold_cli writes its spec files to workdir."""
    rng, chosen = _choose(workload, seed)
    if workload == "cold_cli":
        deck = _cli_items(rctrs, chosen, workdir)
    else:
        deck = [build_library_item(rctrs, workload, name, desc, chosen[name])
                for name, desc in _library_classes(workload)]
    rng.shuffle(deck)
    return deck


def all_variants(rctrs, workload: str, workdir: Path) -> list[Item]:
    """Every (class, variant) item of a workload, for recording the reference."""
    if workload != "cold_cli":
        return [build_library_item(rctrs, workload, name, desc, v)
                for name, desc in _library_classes(workload) for v in range(VARIANTS[workload])]
    items = {}
    for v in range(VARIANTS["cold_cli"]):
        for item in _cli_items(rctrs, dict.fromkeys(CLI_SPECS, v), workdir / f"v{v}"):
            items.setdefault(item.label, item)
    return list(items.values())


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; an empty list passes.


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check_report(item: Item, report, reference: dict) -> list[str]:
    """Independent checks on one AnalysisReport plus the recorded digest."""
    problems = []
    n_cols, k = report.length, report.dimension
    singleton = n_cols - k + 1
    dist = report.distance
    if dist.method == "enumeration":
        if dist.value > singleton:
            problems.append(f"distance {dist.value} above the Singleton bound {singleton}")
        if report.mds.is_mds and dist.value != singleton:
            problems.append(f"MDS code with enumerated distance {dist.value} != {singleton}")
        if not report.mds.is_mds and dist.value == singleton:
            problems.append("minor witness contradicts an enumerated MDS distance")
    if item.guaranteed and not report.mds.is_mds:
        problems.append("recipe-guaranteed code reported mds=false")
    if item.family == "GRS" and report.schur.dim != min(2 * k - 1, n_cols):
        problems.append(f"GRS schur_dim {report.schur.dim} != min(2k-1, N)")
    problems.extend(check_digest(item, report.render(), reference))
    return problems


def check_digest(item: Item, output: str, reference: dict) -> list[str]:
    want = reference.get(item.label)
    if want is None:
        return [f"no recorded reference for {item.label}"]
    got = [sha(item.command + "\n" + item.spec_text), sha(output)]
    if got[0] != want[0]:
        return [f"{item.label}: generated input differs from the recorded one"]
    if got[1] != want[1]:
        return [f"{item.label}: output differs from the recorded one"]
    return []
