"""rctrs benchmark: three seeded closed-loop workloads, one client each.

Run from the root of a checkout; the checkout's src is what is measured:

    python3 perfbench/run.py --workload mds_sweep --seed 1 --seconds 20 --trace 0

Workloads (an op is one analyzed spec, or one completed CLI invocation):

* mds_sweep: rctrs.report.analyze on recipe-guaranteed MDS codes (plus a
  few unguaranteed specs) whose q^k is above the distance budget, so the
  minor scan, i.e. linalg determinants, does almost all the work.
* distance_enum: analyze on RCTRS and GRS specs with q^k within the budget,
  so codeword enumeration, i.e. field addition, does almost all the work.
* cold_cli: one fresh `python -m rctrs.cli` process per request, so
  interpreter start, import and field construction set the latency.

--trace 0 prints the end-to-end metrics of an untraced run.  Their times
are scaled to a fixed reference speed with the calibration kernel of
speed.py, timed before and after every op and every set-up, because a
shared machine's own speed can drift by up to 2x within minutes; the
unscaled values are printed beside them.  ops_per_s counts op time only, not the
output checks between ops.  --trace 1 runs every op untraced and then
under the span recorder of spans.py, and prints per-layer self times,
exact work counters, the tracing overhead and the probes of probes.py.
The last line of stdout is always one JSON object with the keys correct,
attempted, failed, metrics.
Every output is checked: independent invariants plus a digest recorded
in reference.json (see record_reference.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probes
import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
# setup_s is the median of the set-ups that fit in SETUP_SECONDS, at least
# SETUP_REPEATS of them.  Each set-up drops the previous one first, so
# peak_rss_mb counts one import and its deck.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
# The loop runs whole passes over the deck, at least MIN_OPS ops in all, so
# that the tail percentile TAIL_PCT always has at least ten samples beyond it.
MIN_OPS = 100
TAIL_PCT = 90.0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("mds_sweep", "distance_enum", "cold_cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(root: Path, seed: int, traced: bool) -> dict:
    """Commit, interpreter, machine and run flags, printed with every result."""
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_files = sorted((root / "src" / "rctrs").glob("*.py"))
    return {
        "commit": commit,
        "src_sha256": workloads.sha("".join(p.read_text() for p in src_files)),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "traced": traced,
    }


# ---------------------------------------------------------------------------
# Ops and the closed loop.


class LibraryOp:
    """analyze() in-process; checks every report."""

    def __init__(self, rctrs, reference, recorder=None):
        self.rctrs = rctrs
        self.reference = reference
        self.recorder = recorder

    def run(self, item, rid):
        if self.recorder is not None:
            self.recorder.rid = rid
        return self.rctrs.report.analyze(item.source)

    def check(self, item, report):
        return workloads.check_report(item, report, self.reference)


class CliOp:
    """One child process per request; checks exit code and stdout digest."""

    def __init__(self, root: Path, env: dict, reference, spans_dir: Path | None = None):
        self.root = root
        self.env = env
        self.reference = reference
        self.spans_dir = spans_dir
        self.dumps: list[dict] = []

    def run(self, item, rid):
        if self.spans_dir is None:
            argv = [sys.executable, "-m", "rctrs.cli", *item.argv]
        else:
            out = self.spans_dir / f"{rid}.json"
            argv = [sys.executable, str(HERE / "cli_child.py"), str(out), str(rid), "--", *item.argv]
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=150)
        if self.spans_dir is not None:
            self.dumps.append(json.loads(out.read_text()))
            out.unlink()
        return proc

    def check(self, item, proc):
        if proc.returncode != 0:
            return [f"{item.label}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}"]
        return workloads.check_digest(item, proc.stdout, self.reference)


def closed_loop(deck, op, seconds: float, min_ops: int = MIN_OPS, rid: int = 0) -> dict:
    """Whole passes over the deck, one op at a time, until seconds have elapsed.

    Each op's latency is also scaled to the reference speed by the
    calibration blocks timed before and after it (speed.py).  rid numbers
    the ops, so that spans can be told apart by request.
    """
    latencies = []
    scaled = []
    problems = []
    failed = 0
    first_pass = {}
    passes = 0
    start = time.perf_counter()
    before = speed.block()
    while True:
        for item in deck:
            t0 = time.perf_counter()
            try:
                out = op.run(item, rid)
            except Exception as exc:  # a raising op is a failed op, not a crash
                out = exc
            latency = time.perf_counter() - t0
            after = speed.block()
            latencies.append(latency)
            scaled.append(speed.scaled(latency, before, after))
            before = after
            rid += 1
            if isinstance(out, Exception):
                found = [f"{item.label}: {type(out).__name__}: {out}"]
            else:
                found = op.check(item, out)
            problems.extend(found)
            failed += bool(found)
            if passes == 0:
                first_pass[item.label] = out
        passes += 1
        if len(latencies) >= min_ops and time.perf_counter() - start >= seconds:
            break
    return {
        "latencies": latencies,
        "scaled": scaled,
        "problems": problems,
        "failed": failed,
        "passes": passes,
        "first_pass": first_pass,
    }


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Set-up.


def setup(workload: str, seed: int, workdir: Path, traced: bool = False):
    """Import, field construction, recipe construction and input generation."""
    workloads.drop_rctrs()
    gc.collect()
    before = speed.block()
    t0 = time.perf_counter()
    rctrs = workloads.import_rctrs()
    recorder = None
    if traced:
        recorder = spans.Recorder(rctrs)
        recorder.rid = "setup"
        recorder.install()
    deck = workloads.build_deck(rctrs, workload, seed, workdir)
    elapsed = time.perf_counter() - t0
    return elapsed, speed.scaled(elapsed, before, speed.block()), rctrs, deck, recorder


def child_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src))


def make_op(workload, rctrs, reference, root, env, recorder=None, spans_dir=None):
    if workload == "cold_cli":
        return CliOp(root, env, reference, spans_dir)
    return LibraryOp(rctrs, reference, recorder)


# ---------------------------------------------------------------------------
# The two kinds of run.


def untraced_run(args, root: Path, src: Path, workdir: Path) -> dict:
    reference = workloads.load_reference()[args.workload]
    setups, raw_setups = [], []
    while len(setups) < SETUP_REPEATS or sum(raw_setups) < SETUP_SECONDS:
        rctrs = deck = None  # setup() collects it before its clock starts
        elapsed, scaled, rctrs, deck, _ = setup(args.workload, args.seed, workdir)
        raw_setups.append(elapsed)
        setups.append(scaled)
    op = make_op(args.workload, rctrs, reference, root, child_env(src))
    loop = closed_loop(deck, op, args.seconds)
    n = len(loop["latencies"])
    who = resource.RUSAGE_CHILDREN if args.workload == "cold_cli" else resource.RUSAGE_SELF

    def timings(latencies, set_ups):
        lat = sorted(latencies)
        return {
            "ops_per_s": (n / sum(lat), "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_tail_ms": (percentile(lat, TAIL_PCT) * 1e3, "ms"),
            "setup_s": (statistics.median(set_ups), "s"),
        }

    metrics = timings(loop["scaled"], setups)
    metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024, "MB")
    raw = timings(loop["latencies"], raw_setups)
    failed = loop["failed"]
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print("unscaled: " + ", ".join(f"{name} = {value:.6g} {unit}" for name, (value, unit) in raw.items()))
    slowdown = statistics.median(r / s for r, s in zip(loop["latencies"], loop["scaled"]))
    print(f"machine slowdown against the reference speed: median {slowdown:.3f}x")
    print(f"latency_tail_ms is p{TAIL_PCT:g} of {n} samples ({loop['passes']} passes of {len(deck)} ops)")
    print(f"setup_s is the median of {len(setups)} set-ups")
    print(f"failed_ratio = {failed / n:.6g} ({failed} of {n} ops)")
    for problem in loop["problems"][:20]:
        print(f"problem: {problem}")
    return {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def per_op_ms(agg: dict, name: str, ops: int, kind: str = "self_ns") -> float:
    row = agg.get(name)
    return row[kind] / ops / 1e6 if row else 0.0


def traced_run(args, root: Path, src: Path, workdir: Path) -> dict:
    """Run every op untraced and then traced, then the per-layer probes.

    Pairing the two runs of each op puts them under the same machine
    conditions, so their ops_per_s difference is the tracing overhead.
    """
    reference = workloads.load_reference()[args.workload]
    env = child_env(src)
    _, _, rctrs, deck, recorder = setup(args.workload, args.seed, workdir, traced=True)
    recorder.uninstall()
    setup_spans = recorder.finished()

    cli = args.workload == "cold_cli"
    spans_dir = workdir / "spans"
    if cli:
        spans_dir.mkdir(parents=True, exist_ok=True)
    recorder = spans.Recorder(rctrs)
    plain_op = make_op(args.workload, rctrs, reference, root, env)
    traced_op = make_op(args.workload, rctrs, reference, root, env, recorder, spans_dir if cli else None)
    plain, traced = [], []
    passes = 0
    start = time.perf_counter()
    while len(traced) < MIN_OPS or time.perf_counter() - start < args.seconds:
        for item in deck:
            plain.append(closed_loop([item], plain_op, 0, 1, -1))
            if not cli:
                recorder.install()
            try:
                traced.append(closed_loop([item], traced_op, 0, 1, len(traced)))
            finally:
                recorder.uninstall()
        passes += 1
    if cli:
        loop_spans, counters = spans.merge(traced_op.dumps)
    else:
        loop_spans, counters = recorder.finished(), recorder.counters
    golden_spans = probes.golden_checks(rctrs)
    spans_path = workdir / f"spans-seed{args.seed}.jsonl"
    with open(spans_path, "w") as fh:
        for s in spans.concat([setup_spans, loop_spans, golden_spans]):
            fh.write(json.dumps(s.to_json()) + "\n")

    ops = len(traced)
    agg = spans.aggregate(loop_spans)
    exact = {}
    for name, total in counters.items():
        if total % passes:
            raise RuntimeError(f"counter {name}={total} is not a multiple of {passes} passes")
        exact[name] = total // passes
    golden = spans.aggregate(golden_spans)
    built = spans.aggregate(spans.concat([setup_spans, golden_spans]))["construct.build"]
    distance_s = agg.get("mds.min_distance", {}).get("incl_ns", 0) / 1e9
    metrics = {
        "codes.generator_matrix_ms": (per_op_ms(agg, "codes.generator_matrix", ops), "ms"),
        "construct.build_ms": (built["self_ns"] / built["calls"] / 1e6, "ms"),
        "mds.minors_ms": (per_op_ms(agg, "mds.mds_by_minors", ops), "ms"),
        "mds.minors_evaluated": (exact["mds.minors_evaluated"], "count"),
        "mds.minors_scan_ratio": (exact["mds.minors_evaluated"] / exact["mds.minors_total"], "ratio"),
        "mds.closed_form_ms": (per_op_ms(agg, "mds.closed_form", ops), "ms"),
        "mds.closed_form_subsets": (exact["mds.closed_form_subsets"], "count"),
        "mds.check_ms": (per_op_ms(agg, "mds.check_mds", ops), "ms"),
        "mds.distance_ms": (per_op_ms(agg, "mds.min_distance", ops), "ms"),
        "mds.codewords_enumerated": (exact["mds.codewords_enumerated"], "count"),
        "mds.codewords_per_s": (
            counters["mds.codewords_enumerated"] / distance_s if distance_s else 0.0, "1/s"),
        "mds.route.enumeration": (exact["mds.route.enumeration"], "count"),
        "mds.route.minors": (exact["mds.route.minors"], "count"),
        "mds.route.budget-exceeded": (exact["mds.route.budget-exceeded"], "count"),
        "schur.report_ms": (per_op_ms(agg, "schur.schur_report", ops), "ms"),
        "schur.rows": (exact["schur.rows"], "count"),
        "report.analyze_ms": (per_op_ms(agg, "report.analyze", ops, "incl_ns"), "ms"),
        "report.self_ms": (per_op_ms(agg, "report.analyze", ops), "ms"),
        "golden.check_case_ms": (
            golden["golden.check_case"]["self_ns"] / golden["golden.check_case"]["calls"] / 1e6, "ms"),
    }
    plain_rate = ops / sum(r["latencies"][0] for r in plain)
    traced_rate = ops / sum(r["latencies"][0] for r in traced)
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = ((plain_rate - traced_rate) / plain_rate * 100, "%")

    if cli:
        cli_deck = deck
        specs = [rctrs.specfile.codespec_from_text(t)
                 for t in dict.fromkeys(i.spec_text for i in deck if i.spec_text)]
        replay = [(spec, rctrs.mds.mds_by_minors(rctrs.codes.generator_matrix(spec)).witness)
                  for spec in specs]
    else:
        cli_deck = workloads.build_deck(rctrs, "cold_cli", args.seed, workdir / "cli_specs")
        reports = {label: out for r in plain[:len(deck)] for label, out in r["first_pass"].items()}
        replay = [(item.spec, reports[item.label].mds.witness) for item in deck
                  if not isinstance(reports[item.label], Exception)]
    metrics.update(probes.field_builds(rctrs))
    metrics.update(probes.scalar_ops(rctrs, args.seed))
    metrics.update(probes.linalg_replay(rctrs, replay, args.seed))
    metrics.update(probes.spec_parse(
        rctrs, list(dict.fromkeys(i.spec_text for i in cli_deck if i.spec_text))))
    metrics.update(probes.cli_processes(cli_deck, env, str(root)))

    problems = [p for r in plain + traced for p in r["problems"]]
    failed = sum(r["failed"] for r in plain + traced)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"counters cover one pass of {len(deck)} ops; {passes} passes, each op run untraced "
          f"and then traced; spans written to {spans_path}")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    return {
        "correct": failed == 0,
        "attempted": 2 * ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "rctrs" / "__init__.py").is_file():
        print(f"error: no rctrs package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # The library reads this; the recorded outputs are those of the default budget.
    os.environ.pop("RCTRS_DISTANCE_BUDGET", None)
    sys.path.insert(0, str(src))
    imported = workloads.import_rctrs().__file__
    if Path(imported).resolve().parent != (src / "rctrs").resolve():
        print(f"error: imported rctrs from {imported}, not from {src}", file=sys.stderr)
        return 2
    workdir = root / ".perfbench_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment(root, args.seed, bool(args.trace))
    result = (traced_run if args.trace else untraced_run)(args, root, src, workdir)
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
