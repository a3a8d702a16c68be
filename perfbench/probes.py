"""Per-layer probes for the traced run: each times calls into one module's public API.

* L0: fresh Field construction for every field a workload builds.
* L1: add/sub/mul/inv on seeded operand streams, one field per table shape.
* L2: linalg.det replayed on a workload's own k x k minors, linalg.rank on
  the Schur-square rows and linalg.rref on each generator matrix.
* L4: bare interpreter start, import of the CLI, and one pass of the
  cold_cli requests as child processes, timed per subcommand.
"""

from __future__ import annotations

import itertools
import random
import statistics
import subprocess
import sys
import time

import spans
import workloads

# One field per scalar-op shape; all of them are built by some workload.
SHAPES = {
    "prime": (17, 1),
    "m2": (31, 2),
    "m3": (7, 4),
    "p2": (2, 8),
    "poly": (1031, 2),  # above the table limit: polynomial arithmetic
}
SCALAR_OPS = ("add", "sub", "mul", "inv")
BUILD_REPEATS = 3
DET_SAMPLE = 24  # minors replayed per spec
CLI_REPEATS = 5


def all_fields(rctrs) -> list[tuple[int, int]]:
    return list(dict.fromkeys(f for w in workloads.WORKLOADS for f in workloads.fields_built(rctrs, w)))


def field_builds(rctrs) -> dict[str, tuple[float, str]]:
    """gf.build_ms.<field>: median fresh construction time, tables included."""
    out = {}
    for p, m in all_fields(rctrs):
        times = []
        for _ in range(BUILD_REPEATS):
            t0 = time.perf_counter()
            rctrs.gf.Field(p, m)
            times.append(time.perf_counter() - t0)
        out[f"gf.build_ms.{workloads.field_label(p, m)}"] = (statistics.median(times) * 1e3, "ms")
    return out


def scalar_ops(rctrs, seed: int) -> dict[str, tuple[float, str]]:
    """gf.<op>_ns.<shape>: median ns per call over a seeded operand stream."""
    out = {}
    for shape, (p, m) in SHAPES.items():
        f = rctrs.gf.field_create(p, m)
        rng = random.Random(f"scalar:{seed}:{shape}")
        count = 2000 if shape == "poly" else 20000
        pairs = [(rng.randrange(f.q), rng.randrange(1, f.q)) for _ in range(count)]
        nonzero = [b for _, b in pairs]
        for op in SCALAR_OPS:
            fn = getattr(f, op)
            times = []
            for _ in range(3):
                if op == "inv":
                    t0 = time.perf_counter_ns()
                    for b in nonzero:
                        fn(b)
                else:
                    t0 = time.perf_counter_ns()
                    for a, b in pairs:
                        fn(a, b)
                times.append((time.perf_counter_ns() - t0) / count)
            out[f"gf.{op}_ns.{shape}"] = (statistics.median(times), "ns")
    return out


def linalg_replay(rctrs, specs_and_witnesses, seed: int) -> dict[str, tuple[float, str]]:
    """det on the minors the scan evaluates, rank on Schur rows, rref on G."""
    linalg = rctrs.linalg
    det_ns, rank_ns, rref_ns = [], [], []
    for spec, witness in specs_and_witnesses:
        gen = rctrs.codes.generator_matrix(spec).matrix
        n_cols, k = gen.ncols, gen.nrows
        evaluated = spans.minors_evaluated(rctrs, n_cols, k, witness)
        prefix = list(itertools.islice(rctrs.mds.colex_subsets(n_cols, k), evaluated))
        rng = random.Random(f"det:{seed}:{rctrs.specfile.codespec_to_text(spec)}")
        for cols in rng.sample(prefix, min(DET_SAMPLE, len(prefix))):
            minor = linalg.Matrix(gen.field, [[row[c] for c in cols] for row in gen.rows])
            t0 = time.perf_counter_ns()
            linalg.det(minor)
            det_ns.append(time.perf_counter_ns() - t0)
        square = rctrs.schur.schur_square_rows(gen)
        t0 = time.perf_counter_ns()
        linalg.rank(square)
        rank_ns.append(time.perf_counter_ns() - t0)
        t0 = time.perf_counter_ns()
        linalg.rref(gen)
        rref_ns.append(time.perf_counter_ns() - t0)
    return {
        "linalg.det_us": (statistics.fmean(det_ns) / 1e3, "us"),
        "linalg.det_calls": (len(det_ns), "count"),
        "linalg.rank_ms": (statistics.fmean(rank_ns) / 1e6, "ms"),
        "linalg.rref_ms": (statistics.fmean(rref_ns) / 1e6, "ms"),
    }


def spec_parse(rctrs, texts: list[str]) -> dict[str, tuple[float, str]]:
    """specfile.parse_ms: mean codespec_from_text time over the cold_cli spec files."""
    times = []
    for text in texts:
        t0 = time.perf_counter_ns()
        rctrs.specfile.codespec_from_text(text)
        times.append(time.perf_counter_ns() - t0)
    return {"specfile.parse_ms": (statistics.fmean(times) / 1e6, "ms")}


def golden_checks(rctrs) -> list[spans.Span]:
    """Spans of building and checking every worked example (golden, construct)."""
    rec = spans.Recorder(rctrs)
    rec.rid = "golden"
    rec.install()
    try:
        for key in rctrs.golden.GOLDEN_KEYS:
            for case in rctrs.golden.golden_cases(key):
                rctrs.golden.check_case(case)
    finally:
        rec.uninstall()
    return rec.finished()


def _run_ms(argv: list[str], env: dict, cwd: str) -> float:
    # Pipes, not DEVNULL: with pipes, run() returns when the child closes
    # them at exit; without, wait(timeout) polls in steps of up to 50 ms.
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, timeout=150)
    elapsed = (time.perf_counter() - t0) * 1e3
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}")
    return elapsed


def cli_processes(cli_deck, env: dict, cwd: str) -> dict[str, tuple[float, str]]:
    """cli.python_start_ms, cli.import_ms and cli.process_ms.<subcommand>."""
    py = sys.executable
    start = statistics.median(_run_ms([py, "-c", "pass"], env, cwd) for _ in range(CLI_REPEATS))
    imported = statistics.median(
        _run_ms([py, "-c", "import rctrs.cli"], env, cwd) for _ in range(CLI_REPEATS)
    )
    by_kind: dict[str, list[float]] = {}
    for item in cli_deck:
        by_kind.setdefault(item.argv[0], []).append(
            _run_ms([py, "-m", "rctrs.cli", *item.argv], env, cwd)
        )
    out = {"cli.python_start_ms": (start, "ms"), "cli.import_ms": (imported - start, "ms")}
    for kind, times in sorted(by_kind.items()):
        out[f"cli.process_ms.{kind}"] = (statistics.median(times), "ms")
    return out
