"""Span recorder for the traced run.

The recorder replaces the library's public entry points at the names
where callers look them up (rctrs.report.check_mds, rctrs.cli.analyze,
...) with wrappers that record one span per call: name, start, end,
parent span and request id.  Spans stay in memory until the run ends.
A few wrappers also derive exact work counters from the values the
entry point returns, so counts are taken at the same boundaries as the
times.  Private kernels such as linalg._det_rows are not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute, span name).  An attribute is wrapped in every module
# that looks it up, so calls from the benchmark and from the library are
# both seen.
ENTRY_POINTS = (
    ("rctrs.gf", "field_create", "gf.field_create"),
    ("rctrs.construct", "field_create", "gf.field_create"),
    ("rctrs.golden", "field_create", "gf.field_create"),
    ("rctrs.construct", "build_subgroup_code", "construct.build"),
    ("rctrs.construct", "build_subfield_chain_code", "construct.build"),
    ("rctrs.golden", "build_subgroup_code", "construct.build"),
    ("rctrs.golden", "build_subfield_chain_code", "construct.build"),
    ("rctrs.report", "generator_matrix", "codes.generator_matrix"),
    ("rctrs.mds", "generator_matrix", "codes.generator_matrix"),
    ("rctrs.cli", "generator_matrix", "codes.generator_matrix"),
    ("rctrs.report", "check_mds", "mds.check_mds"),
    ("rctrs.cli", "check_mds", "mds.check_mds"),
    ("rctrs.mds", "mds_by_minors", "mds.mds_by_minors"),
    ("rctrs.mds", "mds_closed_form_h0", "mds.closed_form"),
    ("rctrs.mds", "mds_closed_form_hk1", "mds.closed_form"),
    ("rctrs.mds", "mds_closed_form_general", "mds.closed_form"),
    ("rctrs.report", "min_distance", "mds.min_distance"),
    ("rctrs.cli", "min_distance", "mds.min_distance"),
    ("rctrs.report", "schur_report", "schur.schur_report"),
    ("rctrs.cli", "schur_report", "schur.schur_report"),
    ("rctrs.report", "analyze", "report.analyze"),
    ("rctrs.cli", "analyze", "report.analyze"),
    ("rctrs.golden", "analyze", "report.analyze"),
    ("rctrs.specfile", "codespec_from_text", "specfile.codespec_from_text"),
    ("rctrs.cli", "codespec_from_text", "specfile.codespec_from_text"),
    ("rctrs.cli", "check_case", "golden.check_case"),
    ("rctrs.golden", "check_case", "golden.check_case"),
)

COUNTERS = (
    "mds.minors_evaluated",
    "mds.minors_total",
    "mds.closed_form_subsets",
    "mds.codewords_enumerated",
    "mds.route.enumeration",
    "mds.route.minors",
    "mds.route.budget-exceeded",
    "schur.rows",
)


@dataclass(frozen=True)
class Span:
    name: str
    start: int  # perf_counter_ns; CLOCK_MONOTONIC, so comparable across processes
    end: int
    parent: int | None  # index of the parent span in the same list
    rid: object  # request id

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.rid]


def _colex_rank(rctrs, n: int, k: int, cols) -> int:
    cols = tuple(cols)
    for rank, sub in enumerate(rctrs.mds.colex_subsets(n, k)):
        if sub == cols:
            return rank
    raise ValueError(f"{cols} is not a {k}-subset of range({n})")


def minors_evaluated(rctrs, n_cols: int, k: int, witness) -> int:
    """Minors mds_by_minors evaluates: colex rank of the witness plus one, else C(N, k)."""
    if witness is None:
        return math.comb(n_cols, k)
    return _colex_rank(rctrs, n_cols, k, witness) + 1


def closed_form_subsets(rctrs, spec, verdict) -> int:
    """Subsets a closed-form checker scans, from the binomials of its case split.

    The cases run in order: k evaluation columns; on extended hook-0
    codes, k-1 evaluations with the coefficient column; k-1 evaluations
    with the twist column; on extended codes, k-2 evaluations with both.
    A witness stops the scan inside its case, at its colex rank.
    """
    npts = len(spec.alphas)
    k = spec.k
    twist, coeff = npts, npts + 1
    cases = [((), k)]
    if spec.extended and spec.h == 0:
        cases.append(((coeff,), k - 1))
    cases.append(((twist,), k - 1))
    if spec.extended and k >= 2:
        cases.append(((twist, coeff), k - 2))
    total = 0
    witness = verdict.witness
    head = tuple(c for c in witness if c < npts) if witness is not None else None
    for tail, size in cases:
        if witness is not None and tuple(witness) == head + tail:
            return total + _colex_rank(rctrs, npts, size, head) + 1
        total += math.comb(npts, size)
    if witness is not None:
        raise ValueError(f"witness {witness} fits no closed-form case")
    return total


class Recorder:
    """Wraps the entry points of one imported rctrs and records spans and counters."""

    def __init__(self, rctrs):
        self.rctrs = rctrs
        self.spans: list[Span | None] = []
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.rid: object = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._count = {
            "mds.mds_by_minors": self._count_minors,
            "mds.closed_form": self._count_closed_form,
            "mds.min_distance": self._count_distance,
            "schur.schur_report": self._count_schur,
        }

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for mod_name, attr, span_name in ENTRY_POINTS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            wrapped = wrappers.get(id(original))
            if wrapped is None:
                wrapped = self._wrap(span_name, original)
                wrappers[id(original)] = wrapped
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapped)
        field_cls = self.rctrs.gf.Field
        self._saved.append((field_cls, "__init__", field_cls.__init__))
        field_cls.__init__ = self._wrap("gf.Field", field_cls.__init__)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        count = self._count.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            index = len(self.spans)
            self.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.rid)
            if count is not None:
                count(args, result)
            return result

        return traced

    # -- counters derived from returned values ---------------------------------

    def _count_minors(self, args, verdict) -> None:
        g = args[0]
        n_cols, k = g.ncols, g.nrows
        self.counters["mds.minors_evaluated"] += minors_evaluated(self.rctrs, n_cols, k, verdict.witness)
        self.counters["mds.minors_total"] += math.comb(n_cols, k)

    def _count_closed_form(self, args, verdict) -> None:
        self.counters["mds.closed_form_subsets"] += closed_form_subsets(self.rctrs, args[0], verdict)

    def _count_distance(self, args, result) -> None:
        self.counters["mds.codewords_enumerated"] += result.enumerated
        self.counters["mds.route." + result.method] += 1

    def _count_schur(self, args, report) -> None:
        k = report.dimension_k
        self.counters["schur.rows"] += k * (k + 1) // 2

    # -- export ----------------------------------------------------------------

    def finished(self) -> list[Span]:
        """The spans so far; only valid outside traced calls, when all have ended."""
        if None in self.spans:
            raise RuntimeError("a traced call is still running")
        return list(self.spans)

    def dump(self) -> dict:
        return {"spans": [s.to_json() for s in self.finished()], "counters": self.counters}


def concat(span_lists: list[list[Span]]) -> list[Span]:
    """One list of spans, with parent indices re-based."""
    out: list[Span] = []
    for spans in span_lists:
        base = len(out)
        out.extend(
            Span(s.name, s.start, s.end, None if s.parent is None else s.parent + base, s.rid)
            for s in spans
        )
    return out


def merge(dumps: list[dict]) -> tuple[list[Span], dict[str, int]]:
    """Spans and summed counters of several Recorder.dump() results."""
    counters = dict.fromkeys(COUNTERS, 0)
    for d in dumps:
        for key, value in d["counters"].items():
            counters[key] += value
    return concat([[Span(*row) for row in d["spans"]] for d in dumps]), counters


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive and self time in ns.

    Self time is a span's duration minus its direct children's durations;
    calls within one thread nest, so the children never overlap.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.end - s.start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0})
    for i, s in enumerate(spans):
        row = out[s.name]
        row["calls"] += 1
        row["incl_ns"] += s.end - s.start
        row["self_ns"] += s.end - s.start - child_ns[i]
    return dict(out)
