"""Command-line front end.

Subcommands cover the whole pipeline: field inspection, guaranteed
constructions, MDS checks, Schur-square analysis, distance computation,
the RS/CTRS distinguishers, file export/import, and a reproduction
harness for the built-in worked examples.

Each run is a fresh process, so the library is imported per subcommand:
field-info loads gf and errors only, check-mds adds specfile, codes,
linalg and mds, analyze adds schur and report but no recipe module, and
only construct and reproduce load the recipes.  The commands call each
library name as an attribute of _cli, this module, which resolves it
through the package on first use, so a replacement set here (a tracing
wrapper) is the one called.

analyze and distance enumerate within --budget, a non-negative integer,
else 2^24.  analyze always cross-checks the MDS verdict; check-mds
--method picks the route.

Exit codes: 0 on success, 1 on analysis failure (a reproduction
mismatch, a method disagreement, or an --expect gate that does not
hold), 2 on usage, parse or validation errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import GOLDEN_KEYS
from .errors import MethodDisagreementError

_cli = sys.modules[__name__]


def __getattr__(name: str):
    package = sys.modules[__package__]
    if name.startswith("_") or name not in dir(package):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)  # later lookups skip this hook
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _budget(text: str) -> int:
    if int(text) < 0:  # a non-integer is argparse's "invalid _budget value"
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_constructed(code, out: str | None) -> None:
    lines = [f"# construction {code.construction}"]
    lines.extend(f"# guarantee {p}" for p in code.provenance())
    lines.extend(f"# warning {w}" for w in code.warnings)
    _emit("\n".join(lines) + "\n" + _cli.codespec_to_text(code.spec), out)


def cmd_field_info(args) -> int:
    f = _cli.Field.from_descriptor(args.field)
    g = f.primitive_element()
    print(f"field={f.descriptor()}")
    print(f"p={f.p}")
    print(f"m={f.m}")
    print(f"q={f.q}")
    print(f"primitive={g.index} order={f.q - 1}")
    for d in range(1, f.m):
        if f.m % d:
            continue
        view = f.subfield(d)
        print(f"subfield degree={d} order={view.order} primitive={view.primitive_element().index}")
    return 0


def cmd_construct_subfield_chain(args) -> int:
    f = _cli.Field.from_descriptor(args.field)
    code = _cli.build_subfield_chain_code(
        f, args.q0_degree, args.q1_degree, args.alphas,
        args.b, args.c, args.lam, args.eta, args.k, extended=args.extended,
    )
    _emit_constructed(code, args.output)
    return 0


def cmd_construct_subgroup(args) -> int:
    f = _cli.Field.from_descriptor(args.field)
    params = _cli.SubgroupConstructionParams(
        f, args.subfield_degree, args.order, args.b, args.c,
        args.lam, args.eta, h=args.hook, k=args.k, extended=args.extended,
    )
    code = _cli.build_subgroup_code(params, unguaranteed=args.unguaranteed)
    _emit_constructed(code, args.output)
    return 0


def cmd_check_mds(args) -> int:
    spec = _cli.codespec_read(args.spec)
    gen = _cli.generator_matrix(spec)
    verdict = _cli.check_mds(spec, method=args.method, gen=gen)
    print(verdict.render())
    if args.verbose:
        sys.stdout.write(_cli.matrix_to_text(gen))
    if args.expect is not None and verdict.is_mds != (args.expect == "true"):
        print(f"error: expected mds={args.expect}", file=sys.stderr)
        return 1
    return 0


def cmd_schur(args) -> int:
    """schur-dim prints the Schur line; distinguish prints its dimension and its --target's
    verdict, one a line."""
    spec = _cli.codespec_read(args.spec)
    gen = _cli.generator_matrix(spec)
    _cli.check_mds(spec, gen=gen)  # cross-checks; gen keeps the verdict the Schur line reads
    line = _cli.schur_report(gen).render()
    if args.target is not None:
        dim, non_rs, ctrs_incompatible = line.split()
        line = f"{dim}\n{non_rs if args.target == 'rs' else ctrs_incompatible}"
    print(line)
    return 0


def cmd_distance(args) -> int:
    spec = _cli.codespec_read(args.spec)
    gen = _cli.generator_matrix(spec)
    budget = _cli.DEFAULT_DISTANCE_BUDGET if args.budget is None else args.budget
    result = _cli.min_distance(gen, budget)
    print(result.render(gen.ncols - gen.nrows + 1))
    return 0


def cmd_reproduce(args) -> int:
    keys = GOLDEN_KEYS if args.example == "all" else (args.example,)
    failures = 0
    total = 0
    for key in keys:
        for case in _cli.golden_cases(key):
            total += 1
            report, problems = _cli.check_case(case)
            print(f"example={case.label}")
            for line in report.lines():
                print(line)
            if args.verbose:
                sys.stdout.write(_cli.matrix_to_text(_cli.generator_matrix(case.code.spec)))
            for problem in problems:
                print(f"mismatch={problem}")
            print(f"result={'PASS' if not problems else 'FAIL'}")
            print()
            failures += bool(problems)
    print(f"reproduce={'PASS' if not failures else 'FAIL'} cases={total - failures}/{total}")
    return 1 if failures else 0


def cmd_export(args) -> int:
    spec = _cli.codespec_read(args.spec)
    if args.format == "matrix":
        text = _cli.matrix_to_text(_cli.generator_matrix(spec))
    else:
        text = _cli.codespec_to_text(spec)
    _emit(text, args.output)
    return 0


def cmd_import(args) -> int:
    text = Path(args.file).read_text()
    first = next(
        (ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")),
        "",
    )
    if first.startswith("field"):
        spec = _cli.codespec_from_text(text)
        print("kind=codespec")
        sys.stdout.write(_cli.codespec_to_text(spec))
    else:
        m = _cli.matrix_from_text(text)
        print("kind=matrix")
        print(f"field={m.field.descriptor()}")
        print(f"rows={m.nrows} cols={m.ncols} rank={_cli.rank(m)}")
    return 0


def cmd_analyze(args) -> int:
    spec = _cli.codespec_read(args.spec)
    budget = _cli.DEFAULT_DISTANCE_BUDGET if args.budget is None else args.budget
    report = _cli.analyze(spec, budget=budget)
    sys.stdout.write(report.render())
    return 0


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rctrs",
        description="Construct and analyze twisted Reed-Solomon family codes.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-info", help="describe a finite field")
    p.add_argument("field", help="descriptor such as 17, 7^4 or 7^4/1,0,0,1,1")
    p.set_defaults(func=cmd_field_info)

    build = sub.add_parser("construct", help="emit a guaranteed code spec")
    bsub = build.add_subparsers(dest="recipe", required=True)

    p = bsub.add_parser("subfield-chain", help="hook-0 code from a subfield chain")
    p.add_argument("--field", required=True)
    p.add_argument("--q0-degree", type=int, required=True)
    p.add_argument("--q1-degree", type=int, required=True)
    p.add_argument("--alphas", type=_int_list, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--eta", type=int, default=0)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--extended", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_construct_subfield_chain)

    p = bsub.add_parser("subgroup", help="code from a multiplicative subgroup")
    p.add_argument("--field", required=True)
    p.add_argument("--subfield-degree", type=int, default=1)
    p.add_argument("--order", type=int, required=True, help="subgroup order = code length n")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--eta", type=int, default=0)
    p.add_argument("--hook", type=int, default=0)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--extended", action="store_true")
    p.add_argument("--unguaranteed", action="store_true",
                   help="skip the lambda/eta membership gates and set no flags")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_construct_subgroup)

    def spec_command(name, func, summary, **defaults):
        """A subcommand that reads the spec file its spec positional names."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("spec")
        p.set_defaults(func=func, **defaults)
        return p

    p = spec_command("check-mds", cmd_check_mds, "verify the MDS property of a spec file")
    p.add_argument("--method", choices=("minors", "closed", "both"), default="both")
    p.add_argument("--expect", choices=("true", "false"))
    p.add_argument("-v", "--verbose", action="store_true")

    spec_command("schur-dim", cmd_schur, "Schur-square dimension and distinguishers", target=None)

    p = spec_command("distance", cmd_distance, "minimum distance, enumerated within budget")
    p.add_argument("--budget", type=_budget)

    p = spec_command("distinguish", cmd_schur, "test inequivalence to RS or CTRS codes")
    p.add_argument("--target", choices=("rs", "ctrs"), required=True)

    p = sub.add_parser("reproduce", help="run the built-in worked examples")
    p.add_argument("--example", choices=GOLDEN_KEYS + ("all",), default="all")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_reproduce)

    p = spec_command("analyze", cmd_analyze, "full report for a spec file")
    p.add_argument("--budget", type=_budget)

    p = spec_command("export", cmd_export, "write the generator matrix or canonical spec")
    p.add_argument("--format", choices=("matrix", "spec"), default="matrix")
    p.add_argument("-o", "--output")

    p = sub.add_parser("import", help="validate and summarize a spec or matrix file")
    p.add_argument("file")
    p.set_defaults(func=cmd_import)

    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except MethodDisagreementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
