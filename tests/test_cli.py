"""End-to-end command-line checks: output contracts and exit codes."""

import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rctrs
from rctrs.cli import main
from rctrs.specfile import codespec_from_text

SPEC_17 = """\
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

CHAIN_7_4 = [
    "construct", "subfield-chain", "--field", "7^4",
    "--q0-degree", "1", "--q1-degree", "2",
    "--alphas", "0,1,2,3,4,5", "--b", "6", "--c", "5",
    "--lambda", "1531", "--eta", "12", "--k", "3",
]


def test_readme_command_walkthrough_runs(tmp_path, monkeypatch, capsys):
    # Each rctrs line of the sh block under the README's "Command line"
    # heading, continuations joined, runs in one directory and exits 0.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    lines = [line for line in block.splitlines() if line.strip() and not line.startswith("#")]
    assert all(line.startswith("rctrs ") for line in lines)
    commands = [shlex.split(line) for line in lines]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        capsys.readouterr()
        assert main(argv[1:]) == 0, argv
    assert argv[1:] == ["reproduce", "--example", "all"]
    assert "reproduce=PASS cases=7/7" in capsys.readouterr().out


def write_spec(tmp_path, text, name="code.spec"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_field_info(capsys):
    assert main(["field-info", "7^4"]) == 0
    out = capsys.readouterr().out
    assert "field=7^4/1,0,0,1,1" in out
    assert "q=2401" in out
    assert "primitive=12 order=2400" in out
    assert "subfield degree=1 order=7 primitive=5" in out
    assert "subfield degree=2 order=49 primitive=1531" in out


def test_construct_subfield_chain_pipeline(tmp_path, capsys):
    out_path = tmp_path / "chain.spec"
    assert main(CHAIN_7_4 + ["-o", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.startswith("# construction subfield-chain")
    assert "# guarantee mds:" in text
    assert "# guarantee non_rs:" in text
    spec = codespec_from_text(text)
    assert (spec.n, spec.k, spec.h) == (7, 3, 0)

    assert main(["check-mds", str(out_path), "--method", "both"]) == 0
    assert "mds=true method=both" in capsys.readouterr().out

    assert main(["check-mds", str(out_path), "--expect", "false"]) == 1
    captured = capsys.readouterr()
    assert "expected mds=false" in captured.err


def test_construct_to_stdout(capsys):
    assert main(CHAIN_7_4) == 0
    out = capsys.readouterr().out
    assert "family RCTRS" in out and "lambda 1531" in out


def test_construct_gate_failure_is_usage_error(capsys):
    # lambda inside F_7 violates the chain membership hypotheses, and a
    # subfield degree of 0 divides no extension degree
    for at, value in ((CHAIN_7_4.index("1531"), "2"), (CHAIN_7_4.index("--q0-degree") + 1, "0")):
        argv = CHAIN_7_4[:at] + [value] + CHAIN_7_4[at + 1:]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


def test_construct_subgroup_pipeline(tmp_path, capsys):
    out_path = tmp_path / "subgroup.spec"
    argv = [
        "construct", "subgroup", "--field", "23^2", "--order", "11",
        "--b", "12", "--c", "7", "--lambda", "5", "--eta", "25", "--k", "4",
        "-o", str(out_path),
    ]
    assert main(argv) == 0
    spec = codespec_from_text(out_path.read_text())
    assert sorted(spec.alphas) == [2, 3, 4, 6, 13, 15, 16, 17, 20, 22]

    assert main(["schur-dim", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "schur_dim=9 non_rs=true ctrs_incompatible=true" in out


def test_check_mds_verbose_prints_matrix(tmp_path, capsys):
    path = write_spec(tmp_path, SPEC_17)
    assert main(["check-mds", path, "-v"]) == 0
    out = capsys.readouterr().out
    assert "mds=true" in out
    assert "\n17 1 4 8\n" in out


def test_distance_and_distinguish(tmp_path, capsys):
    path = write_spec(tmp_path, SPEC_17)
    assert main(["distance", path]) == 0
    out = capsys.readouterr().out
    assert "distance=5 distance_method=enumeration codewords_enumerated=83520" in out

    # distinguish prints the schur-dim line's first field and its target's, one a line
    assert main(["schur-dim", path]) == 0
    assert capsys.readouterr().out == "schur_dim=8 non_rs=true ctrs_incompatible=undetermined\n"

    assert main(["distinguish", path, "--target", "rs"]) == 0
    assert capsys.readouterr().out == "schur_dim=8\nnon_rs=true\n"

    assert main(["distinguish", path, "--target", "ctrs"]) == 0
    assert capsys.readouterr().out == "schur_dim=8\nctrs_incompatible=undetermined\n"


def test_budget_must_be_a_non_negative_integer(tmp_path, capsys):
    path = write_spec(tmp_path, SPEC_17)
    for command in ("distance", "analyze"):
        for bad, message in (("-5", "expected a non-negative integer, got '-5'"),
                             ("x", "invalid _budget value: 'x'")):
            assert main([command, path, "--budget", bad]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith(f"error: argument --budget: {message}\n"), captured.err
        # a zero budget enumerates nothing, and this MDS code takes the minors route
        assert main([command, path, "--budget", "0"]) == 0
        assert "distance=5 distance_method=minors\n" in capsys.readouterr().out


def test_distance_minors_shortcut_under_budget(tmp_path, capsys):
    # MDS codes resolve through minors even when enumeration is blocked
    path = write_spec(tmp_path, SPEC_17)
    assert main(["distance", path, "--budget", "10"]) == 0
    out = capsys.readouterr().out
    assert "distance=5 distance_method=minors" in out


def test_distance_budget_exceeded(tmp_path, capsys):
    # non-MDS, so minors give no distance and enumeration is over budget
    text = (
        "field 17^1/1,0\nfamily RCTRS\nn 6\nk 3\nh 0\nt 1\nextended 0\n"
        "alphas 0,1,2,3,4\nb 1\nc 2\nlambda 3\neta 2\n"
    )
    path = write_spec(tmp_path, text, "nonmds.spec")
    assert main(["distance", path, "--budget", "10"]) == 0
    out = capsys.readouterr().out
    assert "distance_method=budget-exceeded distance_upper_bound=4" in out


def test_reproduce_single_example(capsys):
    assert main(["reproduce", "--example", "7_4"]) == 0
    out = capsys.readouterr().out
    assert "example=7_4" in out
    assert "mismatch=" not in out
    assert out.count("result=PASS") == 2
    assert out.rstrip().endswith("reproduce=PASS cases=2/2")


def test_reproduce_is_deterministic(capsys):
    assert main(["reproduce", "--example", "23_2"]) == 0
    first = capsys.readouterr().out
    assert main(["reproduce", "--example", "23_2"]) == 0
    assert capsys.readouterr().out == first


def test_reproduce_reports_a_wrong_point_set(capsys, monkeypatch):
    import rctrs.golden as golden

    example = golden.EXAMPLES["17"]
    wrong = example._replace(alphas=frozenset({0, 3, 7}))
    monkeypatch.setitem(golden.EXAMPLES, "17", wrong)
    assert main(["reproduce", "--example", "17"]) == 1
    captured = capsys.readouterr()
    assert "mismatch=alphas: expected frozenset({0, 3, 7}), got frozenset({" in captured.out
    assert captured.out.count("mismatch=") == 1
    assert "result=FAIL" in captured.out
    assert captured.out.rstrip().endswith("reproduce=FAIL cases=0/1")
    assert captured.err == ""


def test_analyze_report(tmp_path, capsys):
    path = write_spec(tmp_path, SPEC_17)
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "family=RCTRS" in out
    assert "length=8" in out and "dimension=4" in out
    assert "mds=true method=both" in out
    assert "schur_dim=8 non_rs=true ctrs_incompatible=undetermined" in out


def test_analyze_report_lines_follow_the_family(tmp_path, capsys):
    trs = "field 13\nfamily TRS\nn 6\nk 3\nh 1\nt 1\nalphas 1,2,3,4,5,6\neta 5\n"
    assert main(["analyze", write_spec(tmp_path, trs, "trs.spec")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[5:8] == ["hook=1 twist=1", "alphas=1,2,3,4,5,6", "eta=5"]
    assert not any(line.startswith(("b=", "warning=")) for line in lines)

    ctrs = "field 13\nfamily CTRS\nn 6\nk 3\nalphas 1,2,3,4,5\nb 7\nc 7\nlambda 3\n"
    assert main(["analyze", write_spec(tmp_path, ctrs, "ctrs.spec")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[5:7] == ["alphas=1,2,3,4,5", "b=7 c=7 lambda=3"]
    assert lines[-1] == "warning=twist points b and c coincide"
    assert not any(line.startswith(("hook=", "eta=")) for line in lines)

    on_points = ctrs.replace("b 7\nc 7", "b 1\nc 2")
    assert main(["analyze", write_spec(tmp_path, on_points, "on_points.spec")]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "warning=twist point b coincides with an evaluation point",
        "warning=twist point c coincides with an evaluation point",
    ]


def test_a_large_twist_finishes(tmp_path, capsys):
    # Only the hook term a^(k-1+t) sees t.  Over GF(13) a nonzero point has
    # a^e = a^(e mod 12) and the point 0 gives 0 for any e >= 1, so t = 10^9
    # and the small t with the same residue give the same matrix.
    rctrs_text = ("field 13\nfamily RCTRS\nn 7\nk 3\nh 1\nt {t}\nalphas 0,1,2,3,4,5\n"
                  "b 6\nc 7\nlambda 2\neta 3\n")
    trs_text = "field 13\nfamily TRS\nn 7\nk 3\nh 2\nt {t}\nalphas 0,1,2,3,4,5,6\neta 5\n"
    t = 10**9
    small = (t - 1) % 12 + 1
    for name, text in (("rctrs", rctrs_text), ("trs", trs_text)):
        path = write_spec(tmp_path, text.format(t=t), f"{name}.spec")
        started = time.monotonic()
        assert main(["analyze", path]) == 0
        assert time.monotonic() - started < 1.0
        assert f"twist={t}" in capsys.readouterr().out
        big = rctrs.generator_matrix(codespec_from_text(text.format(t=t)))
        assert big.rows == rctrs.generator_matrix(codespec_from_text(text.format(t=small))).rows


def test_distance_with_two_rows_over_a_large_field_finishes(tmp_path, capsys):
    # q^2 is about 1.1e12 and within the budget, but with k = 2 there is
    # one prefix to score, so enumeration must not build the q - 1
    # multiples of the leading row.
    text = "field 1031^2\nfamily GRS\nn 10\nk 2\nalphas 1,2,3,4,5,6,7,8,9,10\n"
    path = write_spec(tmp_path, text, "k2.spec")
    q_2 = 1031**4
    started = time.monotonic()
    result = rctrs.min_distance(rctrs.generator_matrix(codespec_from_text(text)), budget=1 << 41)
    assert (result.value, result.method, result.enumerated) == (9, "enumeration", q_2 - 1)
    assert main(["distance", path, "--budget", str(1 << 41)]) == 0
    assert capsys.readouterr().out == (
        f"distance=9 distance_method=enumeration codewords_enumerated={q_2 - 1}\n"
    )
    assert time.monotonic() - started < 5.0


def test_export_import_round_trip(tmp_path, capsys):
    path = write_spec(tmp_path, SPEC_17)
    matrix_path = tmp_path / "gen.matrix"
    assert main(["export", path, "--format", "matrix", "-o", str(matrix_path)]) == 0
    assert main(["import", str(matrix_path)]) == 0
    out = capsys.readouterr().out
    assert "kind=matrix" in out
    assert "rows=4 cols=8 rank=4" in out

    spec_path = tmp_path / "canonical.spec"
    assert main(["export", path, "--format", "spec", "-o", str(spec_path)]) == 0
    assert spec_path.read_text() == SPEC_17
    assert main(["import", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "kind=codespec" in out and "family RCTRS" in out


def test_matrix_file_keeps_a_non_default_modulus(tmp_path, capsys):
    # x^2 + 2x + 2 is not the default modulus of GF(9); read with the
    # default x^2 + 1, this matrix has rank 2.
    path = write_spec(tmp_path, "field 3^2/1,2,2\nfamily GRS\nn 3\nk 3\nalphas 1,7,6\n")
    assert main(["check-mds", path]) == 0
    assert capsys.readouterr().out.startswith("mds=true")
    matrix_path = tmp_path / "gen.matrix"
    assert main(["export", path, "-o", str(matrix_path)]) == 0
    assert matrix_path.read_text().splitlines()[0] == "3 2 3 3 1,2,2"
    assert main(["import", str(matrix_path)]) == 0
    assert capsys.readouterr().out == "kind=matrix\nfield=3^2/1,2,2\nrows=3 cols=3 rank=3\n"

    matrix_path.write_text("3 2 1 1 1,0,2\n1\n")  # x^2 + 2 = (x + 1)(x + 2)
    assert main(["import", str(matrix_path)]) == 2
    assert capsys.readouterr().err == "error: modulus 3^2/1,0,2 is reducible over GF(3)\n"
    # the modulus is quoted as typed, leading coefficient first
    assert main(["field-info", "3^2/1,2,0"]) == 2  # x^2 + 2x = x(x + 2)
    assert capsys.readouterr().err == "error: modulus 3^2/1,2,0 is reducible over GF(3)\n"


def test_matrix_header_with_a_negative_count_is_a_bad_header(tmp_path, capsys):
    matrix_path = tmp_path / "gen.matrix"
    for text in ("3 1 -1 2\n", "3 1 1 -1\n1\n"):
        matrix_path.write_text(text)
        assert main(["import", str(matrix_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad matrix header {text.splitlines()[0]!r}\n"
    matrix_path.write_text("3 1 0 0\n")  # zero columns: not a bad header, but no matrix
    assert main(["import", str(matrix_path)]) == 2
    assert capsys.readouterr().err == "error: matrix must have at least one column\n"


def test_non_integer_alphas_are_a_usage_error(capsys):
    argv = CHAIN_7_4[:]
    argv[argv.index("--alphas") + 1] = "1,x"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --alphas: expected comma-separated integers, got '1,x'" in captured.err
    assert "Traceback" not in captured.err


def test_reproduce_verbose_adds_each_generator_matrix(capsys):
    assert main(["reproduce", "--example", "all"]) == 0
    blocks = capsys.readouterr().out.split("result=PASS\n")
    cases = [case for key in rctrs.GOLDEN_KEYS for case in rctrs.golden.golden_cases(key)]
    assert len(blocks) == len(cases) + 1
    want = ""
    for block, case in zip(blocks, cases):
        assert block.lstrip("\n").startswith(f"example={case.label}\n")
        want += block + rctrs.matrix_to_text(rctrs.generator_matrix(case.code.spec)) + "result=PASS\n"
    assert main(["reproduce", "--example", "all", "-v"]) == 0
    assert capsys.readouterr().out == want + blocks[-1]


def test_usage_and_validation_exit_codes(tmp_path, capsys):
    assert main([]) == 2
    capsys.readouterr()

    assert main(["check-mds", str(tmp_path / "missing.spec")]) == 2
    assert "error:" in capsys.readouterr().err

    bad = write_spec(tmp_path, SPEC_17.replace("alphas 0,3,7,8,10,12,13",
                                               "alphas 0,0,7,8,10,12,13"), "dup.spec")
    assert main(["check-mds", bad]) == 2
    assert "pairwise distinct" in capsys.readouterr().err

    unknown = write_spec(tmp_path, SPEC_17 + "mystery 1\n", "unknown.spec")
    assert main(["check-mds", unknown]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_closed_form_requested_where_unavailable(tmp_path, capsys):
    # general-hook extended specs have no closed-form certificate
    text = SPEC_17.replace("h 0", "h 2").replace("extended 0", "extended 1")
    path = write_spec(tmp_path, text, "interior.spec")
    assert main(["check-mds", path, "--method", "closed"]) == 2
    assert "error:" in capsys.readouterr().err


def test_element_index_out_of_range_is_usage_error(tmp_path, capsys):
    text = "field 17^1/1,0\nfamily GRS\nn 4\nk 2\nalphas 0,1,2,99\n"
    path = write_spec(tmp_path, text, "index.spec")
    assert main(["analyze", path]) == 2
    assert capsys.readouterr().err == "error: element index 99 outside [0, 17)\n"

    argv = [
        "construct", "subgroup", "--field", "17", "--order", "8", "--b", "1",
        "--c", "99", "--lambda", "10", "--eta", "4", "--k", "4",
    ]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: element index 99 outside [0, 17)\n"


def test_bad_field_descriptors_exit_2(tmp_path, capsys):
    # A modulus coefficient outside [0, p) is refused as given, not reduced
    # mod p: each of these would otherwise name x^2 + 1 over GF(3).
    matrix = tmp_path / "m.matrix"
    matrix.write_text("3 2 1 1 1,0,-1\n0\n")
    for argv, message in (
        (["field-info", "7^0"], "extension degree must be a positive integer, got 0"),
        (["field-info", "3^2/1,0,4"], "with coefficients in [0, 3), got 3^2/1,0,4"),
        (["field-info", "3^2/1,0,-2"], "with coefficients in [0, 3), got 3^2/1,0,-2"),
        (["import", str(matrix)], "with coefficients in [0, 3), got 3^2/1,0,-1"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.endswith(f"{message}\n"), captured.err
        assert captured.err.count("\n") == 1


def test_unknown_example_key_lists_the_four_keys():
    with pytest.raises(ValueError) as excinfo:
        rctrs.golden_cases("nope")
    assert str(excinfo.value) == "unknown example 'nope'; choose from 7_4, 23_2, 17, 29_2"


def test_field_info_rejects_unfactorable_group_order(capsys):
    # A safe prime near 2^90: (q-1)/2 is prime but too large to prove so.
    # Fields this large are refused before q - 1 is factored.
    assert main(["field-info", "1237940039285380274899126343"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: field order 1237940039285380274899126343^1 exceeds the limit 2^64\n"


def test_fields_above_2_to_64_exit_2_at_once(tmp_path, capsys):
    spec = write_spec(tmp_path, "field 3^1000\nfamily GRS\nn 2\nk 1\nalphas 0,1\n")
    matrix = tmp_path / "big.matrix"
    matrix.write_text("3 1000 1 1\n0\n")
    for argv, order in (
        (["field-info", "3^1000"], "3^1000"),
        (["analyze", spec], "3^1000"),
        (["import", str(matrix)], "3^1000"),
        (["field-info", "2^99999999999"], "2^99999999999"),
    ):
        started = time.monotonic()
        assert main(argv) == 2
        assert time.monotonic() - started < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: field order {order} exceeds the limit 2^64\n"
    assert main(["field-info", "2^64"]) == 0
    assert "q=18446744073709551616" in capsys.readouterr().out


def test_field_info_factors_group_order_with_two_large_primes(capsys):
    # q - 1 = 2 * 7186589 * 9496939: both odd factors lie past trial division
    assert main(["field-info", "136501194702143"]) == 0
    assert "order=136501194702142" in capsys.readouterr().out


def test_the_budget_variable_changes_nothing(tmp_path, capsys, monkeypatch):
    # The budget comes from --budget or the default; the environment is not read.
    path = write_spec(tmp_path, SPEC_17)
    runs = (["distance", path], ["analyze", path], ["reproduce", "--example", "17"])
    plain = [(main(argv), capsys.readouterr()) for argv in runs]
    assert [code for code, _ in plain] == [0, 0, 0]
    for value in ("10", "lots"):
        monkeypatch.setenv("RCTRS_DISTANCE_BUDGET", value)
        assert [(main(argv), capsys.readouterr()) for argv in runs] == plain
        for command in ("distance", "analyze"):
            assert main([command, path, "--budget", "100000"]) == 0
            assert "distance_method=enumeration" in capsys.readouterr().out


def test_reproduce_and_library_analysis_ignore_the_budget_variable(capsys, monkeypatch):
    monkeypatch.setenv("RCTRS_DISTANCE_BUDGET", "1")
    assert main(["reproduce", "--example", "17"]) == 0
    out = capsys.readouterr().out
    assert "distance=5 distance_method=enumeration" in out
    assert out.endswith("reproduce=PASS cases=1/1\n")
    (case,) = rctrs.golden.golden_cases("17")
    report = rctrs.report.analyze(case.code)
    assert (report.distance.value, report.distance.method) == (5, "enumeration")


def test_method_disagreement_exits_1(tmp_path, capsys, monkeypatch):
    import rctrs.mds as mds

    def wrong(spec):
        return mds.MdsVerdict(False, tuple(range(spec.k)), mds.METHOD_CLOSED_H0)

    monkeypatch.setattr(mds, "mds_closed_form_h0", wrong)
    path = write_spec(tmp_path, SPEC_17)
    assert main(["check-mds", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: minor oracle says mds=True but closed_form_h0 says mds=False"
    )


# A fresh process runs the command, then lists the rctrs modules it loaded.
# It runs under -X importtime, which must list the same modules: the lazy
# imports go through the import statement's path, which it instruments.
_COLD = """
import sys
from rctrs.cli import main
code = main(sys.argv[1:])
print("loaded=" + ",".join(sorted(m for m in sys.modules if m.split(".")[0] == "rctrs")))
sys.exit(code)
"""
_SRC = str(Path(rctrs.__file__).resolve().parent.parent)
_BASE = {"rctrs", "rctrs.cli", "rctrs.errors", "rctrs.gf"}
_SPEC = _BASE | {"rctrs.specfile", "rctrs.codes", "rctrs.linalg", "rctrs.mds"}


@pytest.mark.parametrize("argv,loaded", [
    (["field-info", "3^10"], _BASE),
    (["check-mds", "{spec}"], _SPEC),
    (["distinguish", "{spec}", "--target", "rs"], _SPEC | {"rctrs.schur"}),
    (["analyze", "{spec}"], _SPEC | {"rctrs.schur", "rctrs.report"}),
    (["reproduce", "--example", "17"], _SPEC - {"rctrs.specfile"}
     | {"rctrs.schur", "rctrs.construct", "rctrs.report", "rctrs.golden"}),
])
def test_each_subcommand_loads_only_the_modules_it_uses(tmp_path, capsys, argv, loaded):
    argv = [a.format(spec=write_spec(tmp_path, SPEC_17)) for a in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", _COLD, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    out, _, modules = proc.stdout.rpartition("loaded=")
    assert proc.returncode == 0, proc.stderr
    assert set(modules.split()[0].split(",")) == loaded
    timed = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    assert {m for m in timed if m.split(".")[0] == "rctrs"} == loaded
    assert main(argv) == 0
    assert capsys.readouterr().out == out


def test_commands_call_the_library_through_the_cli_module(tmp_path, capsys, monkeypatch):
    """A replacement set as an attribute of rctrs.cli, such as a tracing
    wrapper, is the function the commands call."""
    import rctrs.cli as cli

    spec = write_spec(tmp_path, SPEC_17)
    names = ("generator_matrix", "check_mds", "min_distance", "schur_report", "analyze",
             "codespec_from_text", "check_case")
    calls = set()
    for name in names:
        def counted(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls.add(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    for argv, called in (
        (["check-mds", spec], {"generator_matrix", "check_mds"}),
        (["distance", spec], {"generator_matrix", "min_distance"}),
        (["distinguish", spec, "--target", "rs"], {"generator_matrix", "check_mds", "schur_report"}),
        (["analyze", spec], {"analyze"}),
        (["import", spec], {"codespec_from_text"}),
        (["reproduce", "--example", "17"], {"check_case"}),
    ):
        calls.clear()
        assert main(argv) == 0
        assert calls == called, argv
    capsys.readouterr()
    # Only library names resolve through the package: not its private or
    # dunder names, which would make this module look like a package.
    assert not hasattr(cli, "__path__") and not hasattr(cli, "_PUBLIC")
    with pytest.raises(AttributeError, match="'rctrs.cli' has no attribute 'no_such_name'"):
        cli.no_such_name
