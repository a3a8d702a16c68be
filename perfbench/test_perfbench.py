"""Determinism and exactness of the benchmark's inputs, counters and digests.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench

Two traced passes over one seed's deck must give identical exact
counters and identical output digests, every digest must match
reference.json, and the counters derived from returned verdicts must
equal the column subsets the scans actually visit.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _traced_pass(workload, tmp_path):
    rctrs = workloads.import_rctrs()
    deck = workloads.build_deck(rctrs, workload, SEED, tmp_path)
    rec = spans.Recorder(rctrs)
    rec.install()
    try:
        digests = [workloads.sha(rctrs.report.analyze(item.source).render()) for item in deck]
    finally:
        rec.uninstall()
    return deck, rec.counters, digests


def test_distance_enum_counters_and_digests_repeat(tmp_path):
    deck, counters, digests = _traced_pass("distance_enum", tmp_path)
    again = _traced_pass("distance_enum", tmp_path)
    assert [i.label for i in deck] == [i.label for i in again[0]]
    assert counters == again[1]
    assert digests == again[2]
    reference = workloads.load_reference()["distance_enum"]
    assert digests == [reference[i.label][1] for i in deck]
    assert counters["mds.route.enumeration"] == len(deck)
    q_k = [i.spec.field.q ** i.spec.k - 1 for i in deck]
    assert counters["mds.codewords_enumerated"] == sum(q_k)


def test_seed_picks_inputs():
    rctrs = workloads.import_rctrs()
    one = workloads.build_deck(rctrs, "mds_sweep", 1, None)
    same = workloads.build_deck(rctrs, "mds_sweep", 1, None)
    other = workloads.build_deck(rctrs, "mds_sweep", 2, None)
    assert [i.spec_text for i in one] == [i.spec_text for i in same]
    assert [i.spec_text for i in one] != [i.spec_text for i in other]
    assert sorted(i.label.split(":")[0] for i in one) == sorted(workloads.class_names("mds_sweep"))


def test_counters_match_the_subsets_the_scans_visit(monkeypatch):
    """Counters derived from returned verdicts equal the colex subsets actually visited."""
    rctrs = workloads.import_rctrs()
    items = [i for i in workloads.build_deck(rctrs, "mds_sweep", SEED, None)
             if ".k5.h0.c" not in i.label and ".k7.h0.c" not in i.label]
    items += workloads.build_deck(rctrs, "distance_enum", SEED, None)
    real = rctrs.mds._colex_subsets
    # Fill the subset cache first: the builder recurses through the module
    # global, so only cache hits reach it unwrapped.
    for item in items:
        npts = len(item.spec.alphas)
        real(item.spec.num_columns, item.spec.k)
        for size in range(max(item.spec.k - 2, 0), item.spec.k + 1):
            real(npts, size)
    visited = []

    def counting(n, k):
        for cols in real(n, k):
            visited.append(cols)
            yield cols

    monkeypatch.setattr(rctrs.mds, "_colex_subsets", counting)
    witnesses = 0
    for item in items:
        gen = rctrs.codes.generator_matrix(item.spec)
        visited.clear()
        verdict = rctrs.mds.mds_by_minors(gen)
        assert len(visited) == spans.minors_evaluated(rctrs, gen.ncols, gen.nrows, verdict.witness)
        witnesses += verdict.witness is not None
        closed_form = rctrs.mds.closed_form_for(item.spec)
        if closed_form is not None:
            visited.clear()
            verdict = closed_form(item.spec)
            assert len(visited) == spans.closed_form_subsets(rctrs, item.spec, verdict)
    assert witnesses > 0


def test_calibration_kernel_is_fixed_and_leaves_the_collector_alone():
    import gc

    import speed

    first = speed.kernel()
    gc.collect()
    before = gc.get_count()[0]
    for _ in range(50):
        assert speed.kernel() == first
    # The tuple that get_count returned above is the one tracked allocation.
    assert gc.get_count()[0] - before <= 1
    assert speed.scaled(2.0, speed.REFERENCE_S, 3 * speed.REFERENCE_S) == 1.0
