"""Command line behavior: values, determinism, exit codes, file output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zeropat
from zeropat.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_pair_family_values(capsys):
    code, out = run_cli(capsys, "pair", "--family", "lambda:6", "--format", "text")
    assert code == 0 and out.strip() == "-360"
    code, out = run_cli(capsys, "pair", "--family", "pi:4", "--format", "text")
    assert code == 0 and out.strip() == "8"


def test_pair_literal_pattern(capsys):
    code, out = run_cli(
        capsys, "pair", "--n", "3", "--pattern", "[[1,2],[1,3],[2,3]]",
        "--format", "text",
    )
    assert code == 0 and out.strip() == "6"


def test_pair_json_payload(capsys):
    code, out = run_cli(capsys, "pair", "--family", "lambda:4")
    data = json.loads(out)
    assert data["pairing"] == -12 and data["nonsingular"] is True
    assert data["schema_version"] == 1


def test_classify_small(capsys):
    code, out = run_cli(capsys, "classify", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["census"]["num_classes"] == 3
    assert data["expected_mismatches"] == {}
    assert len(data["classes"]) == 3


def test_classify_weak_flag(capsys):
    code, out = run_cli(capsys, "classify", "--n", "4", "--weak", "--format", "text")
    assert code == 0 and out.strip() == "12"


def test_classify_csv(capsys):
    code, out = run_cli(capsys, "classify", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("canonical,orbit_size")
    assert len(lines) == 2


def test_classify_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "classify", "--n", "3")
    _, out2 = run_cli(capsys, "classify", "--n", "3")
    assert out1 == out2


def test_classify_out_file(tmp_path, capsys):
    target = tmp_path / "census.json"
    code, _ = run_cli(capsys, "classify", "--n", "2", "--out", str(target))
    assert code == 0
    data = json.loads(target.read_text())
    assert data["census"]["total_patterns"] == 2


def test_stabdim_command(capsys):
    code, out = run_cli(capsys, "stabdim", "--family", "ne:4")
    assert code == 0
    assert "stabilizer dimension: 4" in out
    assert "defective: no" in out


def test_stabdim_json(capsys):
    code, out = run_cli(
        capsys, "stabdim", "--n", "4", "--family", "ne:4", "--format", "json"
    )
    data = json.loads(out)
    assert data["stab_dim"] == 4 and data["defective"] is False


def test_invariants_zero(capsys):
    code, out = run_cli(capsys, "invariants", "--matrix", "zero")
    data = json.loads(out)
    assert code == 0
    assert data["invariants"] == [0.0] * 16


def test_invariants_file(tmp_path, capsys):
    mat = [[[0, 0], [0, 0], [1, 0]], [[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(mat))
    code, out = run_cli(capsys, "invariants", "--matrix", str(path))
    data = json.loads(out)
    assert code == 0
    assert abs(data["invariants"][0] - 3.0) < 1e-12  # tr(X X*) of a permutation


def test_verify_suite_pass(capsys):
    code, out = run_cli(capsys, "verify", "pi-family", "--max-n", "5")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True


def test_verify_jfamily_small(capsys):
    code, out = run_cli(capsys, "verify", "jfamily", "--samples", "20")
    assert code == 0


def test_every_suite_is_defined_in_verify():
    from zeropat.verify import SUITES

    modules = {name: suite.__module__ for name, suite in SUITES.items()}
    assert modules == dict.fromkeys(SUITES, "zeropat.verify")


PATTERN_SHAPE = "a pattern is a JSON list of [i, j] pairs of ints"


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "nonesuch"])


@pytest.mark.parametrize("argv, message", [
    (["pair", "--family", "nope:3"], "unknown family 'nope'"),
    (["verify", "extremal", "--sample5", "50"],
     "unrecognized arguments: --sample5 50"),
    (["verify", "extremal", "--max-n", "2"],
     "suite 'extremal' does not take --max-n"),
    (["pair", "--pattern", "[[1,2]]"], "--pattern needs --n"),
    (["stabdim", "--n", "3"], "need --pattern or --family"),
    (["classify", "--n", "2", "--weak"], "--weak needs --format text"),
    (["pair", "--family", "cyclic:7"], "the cyclic pattern is 3 x 3"),
    (["pair", "--family", "jfam:sigma=[1,3,2],i=[1,-1],bogus=[9]"],
     "jfam spec is 'jfam:sigma=[...],i=[...]'"),
    (["pair", "--family", "cyclic", "--n", "7", "--format", "text"],
     "--family cyclic fixes n = 3, not 7"),
    (["stabdim", "--family", "lambda:4", "--n", "6"],
     "--family lambda:4 fixes n = 4, not 6"),
    (["pair", "--family", "lambda:4", "--pattern", "[[1,2]]", "--n", "4",
      "--format", "text"], "give --pattern or --family, not both"),
    (["pair", "--n", "3", "--pattern", "5"], PATTERN_SHAPE),
    (["pair", "--n", "3", "--pattern", "[1,2]"], PATTERN_SHAPE),
    (["pair", "--n", "3", "--pattern", "null"], PATTERN_SHAPE),
    (["pair", "--n", "3", "--pattern", "[[1.5,2]]"], PATTERN_SHAPE),
    (["pair", "--n", "3", "--pattern", "[[true,2]]"], PATTERN_SHAPE),
    (["flags3", "--samples", "0"], "--samples must be at least 1, got 0"),
    (["flags3", "--samples", "-1"], "--samples must be at least 1, got -1"),
    (["flags3", "--restarts", "0"], "--restarts must be at least 1, got 0"),
    (["verify", "certificates", "--samples", "0"],
     "--samples must be at least 1, got 0"),
    (["verify", "block-product", "--samples", "0"],
     "--samples must be at least 1, got 0"),
    (["verify", "lambda-family", "--max-n", "1"],
     "--max-n must be at least 3, got 1"),
    (["verify", "all", "--max-n", "2"], "--max-n must be at least 3, got 2"),
    (["pair", "--n", "0", "--pattern", "[]", "--format", "text"],
     "grid size must be at least 1, got 0"),
    (["pair", "--n", "-3", "--pattern", "[]"],
     "grid size must be at least 1, got -3"),
    (["stabdim", "--n", "-2", "--pattern", "[]"],
     "grid size must be at least 1, got -2"),
    (["flags3", "--seed", "-1"], "--seed must be at least 0, got -1"),
    (["verify", "certificates", "--seed", "-1"],
     "--seed must be at least 0, got -1"),
    (["verify", "jfamily", "--seed", "-1"], "--seed must be at least 0, got -1"),
    (["verify", "derivative-chain", "--max-n", "40"],
     "derivative-chain is budgeted for max_n <= 7, got 40"),
    (["verify", "ideal-congruence", "--max-n", "8"],
     "ideal-congruence is budgeted for max_n <= 7, got 8"),
    (["pair", "--n", "3", "--pattern", "[[1,2],[2,3],[1,2]]"],
     "repeated position [1, 2] in pattern"),
    (["pair", "--family", "lambda:5:3"],
     "family spec 'lambda:5:3': '5:3' is not an integer"),
    (["pair", "--family", "jkn:a,5"], "family spec 'jkn:a,5': 'a' is not an integer"),
    (["pair", "--family", "jfam:sigma=[],i=[]"], "sigma must not be empty"),
    (["pair", "--family", "jfam:sigma=[1,a],i=[1]"],
     "family spec 'jfam:sigma=[1,a],i=[1]': 'a' is not an integer"),
], ids=["unknown-family", "removed-sample5", "option-the-suite-ignores",
        "pattern-without-n", "no-pattern", "weak-without-text",
        "cyclic-of-another-size", "unknown-jfam-key",
        "n-against-the-family-pair", "n-against-the-family-stabdim",
        "family-and-pattern", "pattern-a-number", "pattern-not-pairs",
        "pattern-null", "pattern-float-index", "pattern-bool-index",
        "flags3-no-samples", "flags3-negative-samples", "flags3-no-restarts",
        "certificates-no-samples",
        "block-product-no-samples", "lambda-family-below-3", "all-below-3",
        "pair-empty-grid", "pair-negative-grid", "stabdim-negative-grid",
        "flags3-negative-seed", "certificates-negative-seed",
        "jfamily-negative-seed", "derivative-chain-over-budget",
        "ideal-congruence-over-budget", "pattern-repeated-position",
        "family-size-not-an-int", "jkn-size-not-an-int", "jfam-empty-sigma",
        "jfam-entry-not-an-int"])
def test_bad_input_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "zeropat: error: " + message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content, message", [
    (None, "cannot read --matrix"),
    ("[[1, 2, 3], [4, 5, 6], [7, 8, 9]]", "--matrix rows must be lists of [re, im] pairs"),
    ("[[[1, 0, 0]]]", "--matrix rows must be lists of [re, im] pairs"),
    ('[[["1", 0]]]', "--matrix rows must be lists of [re, im] pairs"),
    ("null", "--matrix rows must be lists of [re, im] pairs"),
    ("[[[1, 0], [0, 0]], [[0, 0]]]", "--matrix rows must be lists of [re, im] pairs"),
    ("[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]", "expected a 3 x 3 matrix"),
    ("[[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]",
     "matrix is not traceless"),
], ids=["missing-file", "numbers-not-pairs", "triples", "string-entry", "null",
        "ragged", "2-by-2", "not-traceless"])
def test_malformed_matrix_file_is_a_usage_error(tmp_path, capsys, content, message):
    path = tmp_path / "m.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--matrix", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "zeropat: error: " + message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["pair", "--family", "lambda:4", "--format", "text"],
    ["pair", "--family", "lambda:4"],
    ["stabdim", "--family", "ne:4"],
    ["stabdim", "--family", "ne:4", "--format", "json"],
    ["classify", "--n", "3"],
    ["classify", "--n", "3", "--format", "csv"],
    ["classify", "--n", "3", "--weak", "--format", "text"],
    ["invariants", "--matrix", "zero"],
    ["verify", "pi-family", "--max-n", "5"],
    ["flags3", "--samples", "1", "--restarts", "50"],
], ids=["pair-text", "pair-json", "stabdim-text", "stabdim-json", "classify-json",
        "classify-csv", "classify-weak", "invariants", "verify", "flags3"])
def test_out_holds_what_stdout_would(tmp_path, capsys, argv):
    _, expected = run_cli(capsys, *argv)
    target = tmp_path / "out"
    code, out = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == expected


def test_unwritable_out_is_a_usage_error_before_any_work(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("classify_all ran")

    monkeypatch.setattr("zeropat.cli.classify_all", no_work)
    for target, message in [
        (tmp_path / "missing" / "census.json",
         f"--out {tmp_path / 'missing' / 'census.json'}: no directory "
         f"{tmp_path / 'missing'}"),
        (tmp_path, f"--out {tmp_path} is a directory"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--n", "3", "--out", str(target)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "zeropat: error: " + message in err
        assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_a_failed_command_keeps_an_existing_out_file(tmp_path, capsys):
    target = tmp_path / "kept.json"
    target.write_text("earlier result\n")
    with pytest.raises(SystemExit) as exc:
        main(["pair", "--family", "nope:3", "--out", str(target)])
    assert exc.value.code == 2
    assert target.read_text() == "earlier result\n"


def test_weak_count_mismatch_is_reported(capsys, monkeypatch):
    _, count = run_cli(capsys, "classify", "--n", "3", "--weak", "--format", "text")
    wrong = {"num_weak_classes": int(count) + 1}
    monkeypatch.setattr("zeropat.cli.load_expected", lambda: {"census": {"3": wrong}})
    code = main(["classify", "--n", "3", "--weak", "--format", "text"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == count
    assert captured.err == (
        "expected-count mismatch: "
        + json.dumps({"num_weak_classes": {
            "computed": int(count), "expected": int(count) + 1}}, sort_keys=True)
        + "\n"
    )


def test_flags3_small(capsys):
    code, out = run_cli(
        capsys, "flags3", "--samples", "1", "--restarts", "300", "--seed", "7"
    )
    assert code == 0
    data = json.loads(out)
    s = data["samples"][0]
    assert s["N"] % 6 == 0
    assert len(s["P1"]) == s["N"]
    assert all(r <= 1e-18 for r in s["cluster_residuals"])
    assert s["incomplete"] is False
    assert 0 <= s["last_new_cluster"] < 300
    assert sum(s["gn_iterations"]) == 300


def test_flags3_fails_a_run_that_converges_nothing(capsys, monkeypatch):
    # no squared residual is at most -1, so no restart converges
    monkeypatch.setattr("zeropat.orbit3.RESID_TOL", -1.0)
    code, out = run_cli(
        capsys, "flags3", "--samples", "1", "--restarts", "20", "--seed", "3"
    )
    s = json.loads(out)["samples"][0]
    assert (s["converged"], s["N"], s["incomplete"]) == (0, 0, True)
    assert code == 1 and json.loads(out)["passed"] is False


def test_flags3_rejects_a_restart_budget_past_the_cap(capsys, monkeypatch):
    # the cap is checked before any start is drawn: every start is held at
    # once, about 1.2 kB each
    def refuse(*args):
        raise AssertionError("the starts were drawn")

    monkeypatch.setattr("zeropat.orbit3.haar_unitaries", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["flags3", "--samples", "1", "--restarts", "1000001"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "zeropat: error: at most 1000000 restarts, got 1000001" in err


def test_flags3_deterministic(capsys):
    _, out1 = run_cli(capsys, "flags3", "--samples", "1", "--restarts", "200", "--seed", "3")
    _, out2 = run_cli(capsys, "flags3", "--samples", "1", "--restarts", "200", "--seed", "3")
    assert out1 == out2


def test_verify_extremal_is_exhaustive_through_n5(capsys):
    code, out = run_cli(capsys, "verify", "extremal")
    assert code == 0
    reports = json.loads(out)["reports"][0]["reports"]
    assert [r["n"] for r in reports] == [2, 3, 4, 5]
    assert all(r["passed"] for r in reports)
    assert reports[-1]["scanned"] == 184_756


def test_csv_is_only_offered_by_classify(capsys):
    for argv in (
        ["pair", "--family", "pi:3"],
        ["verify", "pi-family"],
        ["flags3", "--samples", "1"],
        ["stabdim", "--family", "ne:3"],
        ["invariants", "--matrix", "zero"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    # Run outside the checkout; an inherited relative PYTHONPATH (such as
    # "src") would not resolve from there, so put the absolute directory of
    # the imported package first.
    src = str(Path(zeropat.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, inherited])))
    out = subprocess.run(
        [sys.executable, "-m", "zeropat", "pair", "--family", "pi:5", "--format", "text"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "15"
