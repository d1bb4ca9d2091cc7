import hashlib
import io
import json
import os
import sys

import pytest

from qeslab import cli
from qeslab.cli import run_command


def run_json(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_rep_verify_exit_codes(capsys):
    code, rep = run_json(capsys, ["rep", "verify", "--algebra", "sl2", "--n", "3"])
    assert code == 0 and rep["ok"] and rep["schema"] == 1


def test_param_count_payload(capsys):
    code, rep = run_json(capsys, ["param-count", "--algebra", "sl2",
                                  "--n", "7/2", "--degree", "2"])
    assert code == 0
    assert rep["payload"]["rank"] == 9 and rep["payload"]["paper"] == 9


def test_invariance_failure_exit_code(capsys):
    code, rep = run_json(capsys, ["invariance", "--space", "tri:3",
                                  "--op", "x^3*Dx"])
    assert code == 1
    assert not rep["payload"]["preserved"]
    assert rep["payload"]["escapes"]


def test_usage_error_exit_code(capsys):
    assert run_command(["no-such-command"]) == 2
    assert run_command(["param-count"]) == 2          # missing --algebra
    assert run_command(["parse", "--op", "x +"]) == 2  # syntax error


@pytest.mark.parametrize("argv", [
    ["rep", "verify", "--algebra", "sl2", "--n", "abc"],
    ["rep", "verify", "--algebra", "gl2_semi", "--r", "0"],
    ["rep", "verify", "--algebra", "sl2q", "--q", "0"],
    ["rep", "verify", "--algebra", "sl2q", "--n", "1/2", "--q", "3"],
    ["invariance", "--space", "tri:x", "--op", "Dx"],
    ["invariance", "--space", "cube:3", "--op", "Dx"],
    ["grading", "--algebra", "sl2", "--word", "J+,K"],
    ["reduce", "--sextic", "n=1,k=0"],
    ["matrix-example", "--alpha", "2", "--beta", "x", "--n", "1"],
    ["identity", "--id", "A12", "--n", "two"],
    ["grading", "--algebra", "osp22", "--word", "Q2,Q2"],
    ["rep", "verify", "--algebra", "sl2q", "--n", "2", "--q", "-1"],
    ["identity", "--id", "A8", "--q", "0"],
    ["param-count", "--algebra", "sl3", "--n", "2", "--matrix"],
    ["verify", "--suite", "structure", "--trials", "-3"],
    ["verify", "--suite", "cases", "--trials", "0"],
    ["reduce", "--sextic", "n=1,k=0,a=1,b=0", "--spacing", "0"],
    ["reduce", "--sextic", "n=1,k=0,a=1,b=0", "--spacing=-1e-3"],
    ["reduce", "--sextic", "n=1,k=0,a=1,b=0", "--zmin", "0"],
    ["reduce", "--sextic", "n=1,k=0,a=1,b=0", "--zmin=-1"],
    ["reduce", "--sextic", "n=1,k=0,a=1,b=0", "--zmax", "0.05"],
    ["reduce", "--sextic", "n=2,k=0,a=1,b=1", "--zmax", "1e200", "--spacing", "1e199"],
    ["reduce", "--sextic", "n=2,k=0,a=1,b=1", "--zmin", "1e60", "--zmax", "1e60"],
    ["reduce", "--sextic", "n=2,k=0,a=1,b=1", "--spacing", "1e-9"],
    ["reduce", "--sextic", "n=2,k=0,a=1,b=1", "--zmin", "1e40", "--zmax", "1e40"],
    ["reduce", "--sextic", "n=2,k=0,a=1,b=1", "--zmin", "1e-200"],
    ["invariance", "--algebra", "sl2", "--n", "2", "--op", "J+", "--space", "int:200000"],
    ["invariance", "--algebra", "sl2", "--n", "2", "--op", "J+", "--space", "simplex:40,40"],
    ["burnside", "--degree", "0"],
    ["burnside", "--degree", "-1"],
    ["identity", "--id", "A2", "--n", "-3"],
    ["identity", "--id", "A1", "--n", "-1"],
    ["identity", "--id", "A4", "--n", "-1"],
    ["identity", "--id", "A9", "--n", "-1"],
    ["identity", "--id", "A12", "--n", "-1"],
    ["identity", "--id", "A14", "--n", "-1"],
    ["identity", "--id", "A8", "--n", "-2"],
    ["identity", "--id", "A5", "--k", "0"],
    ["identity", "--id", "A6", "--k", "0"],
    ["identity", "--id", "A7", "--r", "0"],
    ["matrix-example", "--alpha", "2", "--beta", "1", "--n", "-1"],
    ["reduce", "--sextic", "n=-1,k=0,a=1,b=1"],
    ["reduce", "--sextic", "n=2,k=2,a=1,b=1"],
    ["invariance", "--algebra", "sl2", "--n", "2", "--op", "J+", "--space", "tri:2"],
    ["spectrum", "--algebra", "sl2", "--n", "2", "--op", "J+", "--space", "spin:1,1"],
    ["parse", "--op", "J+[1/2]", "--algebra", "sl2q", "--n", "2"],
    ["parse", "--op", "J+[2]", "--algebra", "sl2q", "--n", "1", "--q", "-1"],
    ["parse", "--op", "x^99999999", "--vars", "x"],
    ["parse", "--op", "x^" + "9" * 5000, "--vars", "x"],
    ["parse", "--op", "((x+Dx)^32)^32", "--vars", "x"],
    ["parse", "--op", "J+[1/0]", "--algebra", "sl2", "--n", "2"],
    ["parse", "--op", "x^\u00b2", "--vars", "x"],
    ["burnside", "--degree", "abc"],
    ["bogus"],
    [],
])
def test_bad_input_is_a_usage_error(argv, capsys):
    assert run_command(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["schema"] == 1 and "internal" not in err


@pytest.mark.parametrize("argv", [
    ["rep", "verify", "--algebra", "sl2", "--n", "3"],
    ["grading", "--algebra", "sl2", "--word", "J+"],
    ["classify", "--algebra", "sl2", "--n", "4", "--coeffs", "COEFFS"],
    ["match-cases", "--algebra", "sl2", "--n", "4", "--coeffs", "COEFFS"],
], ids=lambda argv: argv[0])
def test_vars_is_refused_where_nothing_reads_it(argv, tmp_path, capsys):
    # only the commands that read an operator without --algebra take --vars
    coeffs = tmp_path / "c.json"
    coeffs.write_text(json.dumps({"c_+": "1"}))
    argv = [str(coeffs) if a == "COEFFS" else a for a in argv]
    assert run_command(argv) == 0
    assert run_command(argv + ["--vars", "x,y"]) == 2


@pytest.mark.parametrize("argv", [
    ["parse", "--op", "y*Dx"],
    ["act", "--op", "y*Dx", "--f", "x^2"],
    ["commutator", "--a", "y*Dx", "--b", "x"],
    ["invariance", "--op", "x*Dx", "--space", "int:2"],
    ["spectrum", "--op", "x*Dx", "--space", "int:2"],
], ids=lambda argv: argv[0])
def test_vars_is_kept_where_an_operator_is_read(argv, capsys):
    assert run_command(argv + ["--vars", "x,y"]) == 0


@pytest.mark.parametrize("suite", ["params", "relations", "identities", "shapes"])
def test_trials_is_refused_where_no_suite_reads_it(suite, capsys):
    # only the structure and cases suites draw trials
    assert run_command(["verify", "--suite", suite, "--trials", "3"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "internal" not in err and "--trials" in err["error"]


@pytest.mark.parametrize("suite", ["structure", "cases"])
def test_trials_is_kept_where_a_suite_reads_it(suite, capsys):
    code, rep = run_json(capsys, ["verify", "--suite", suite, "--trials", "1"])
    assert code == 0 and rep["inputs"]["trials"] == 1


def test_a_closed_pipe_is_not_an_internal_failure(capsys, monkeypatch, tmp_path):
    # `qeslab ... | head`: the reader closes stdout before the report is out
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return sink.fileno()

    with open(tmp_path / "stdout", "wb") as sink:
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert run_command(["burnside", "--degree", "1"]) == 141
        os.write(sink.fileno(), b"after")       # the fd now points at devnull
    assert capsys.readouterr().err == ""
    assert (tmp_path / "stdout").read_bytes() == b""


def test_bad_choice_is_rejected_by_the_parser(capsys):
    assert run_command(["identity", "--id", "A99"]) == 2
    assert run_command(["param-count", "--algebra", "sl2", "--degree", "3"]) == 2


def test_unknown_coefficient_name_is_a_usage_error(tmp_path, capsys):
    coeffs = tmp_path / "c.json"
    coeffs.write_text(json.dumps({"c_nope": "1"}))
    assert run_command(["classify", "--algebra", "sl2", "--n", "4",
                        "--coeffs", str(coeffs)]) == 2
    assert "c_nope" in json.loads(capsys.readouterr().err)["error"]
    assert run_command(["classify", "--algebra", "sl2", "--n", "4",
                        "--coeffs", str(tmp_path / "missing.json")]) == 2


def test_internal_failure_exit_code(monkeypatch, capsys):
    # an error raised inside a computation is not a usage error
    def broken(args, rng):
        raise ValueError("boom")

    monkeypatch.setitem(cli.SUITES, "shapes", broken)
    assert run_command(["verify", "--suite", "shapes"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert "boom" in err.pop("traceback")
    assert err == {"schema": 1, "error": "ValueError: boom", "internal": True,
                   "stage": "verify shapes"}


def test_internal_failure_names_the_command(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise KeyError("J9")

    monkeypatch.setattr(cli, "verify_structure", broken)
    assert run_command(["rep", "verify", "--algebra", "sl2", "--n", "3"]) == 3
    assert json.loads(capsys.readouterr().err)["stage"] == "rep verify"


# sha256 of each report at the default seed, taken before the word-expansion
# paths were merged; any change to a report's bytes must be explained
REPORT_DIGESTS = {
    # re-pinned when the suite's r and k stopped being drawn and began to
    # cycle r = 1..4 and k = 2..3 with the trial, so that gl2_semi is built
    # at r = 1 too: the n and m draws, and so the rows, moved.  Re-pinned
    # again when each row began to carry its spec's m, q, r and k; the rows'
    # other fields held
    ("verify", "--suite", "structure"):
        "c773dbcd5fa911e37b05025e597bb04fa30f71c8db35608b7e78472a202f4337",
    ("verify", "--suite", "relations"):
        "230b5860a432e1762f9e019e49834096fef45e96217aea6536d5c8d8eeee5e7f",
    # re-pinned when A10 began reading the difference family's own table:
    # only its three relation labels moved, at q = 2 and q = 3/2
    ("verify", "--suite", "identities"):
        "038fdd529668cd62ecbf3dca168d32297b1ebb13554942294afe68671b7a082c",
    ("verify", "--suite", "shapes"):
        "725bf444debe721d65cd8539b4993ec3effeec9d03c349d329106d7a12d67384",
    ("burnside", "--degree", "4"):
        "00ea4e9081aa48a6e482e8502ba26656909fbfd3205f3ea04953b86c6a263377",
    # the count reports, each count one exact rank; the Gaussian n runs the
    # Gaussian rank and, through preserving_family, the Gaussian nullspace.
    # The params report held again when the exact kernels moved from Scalar
    # arithmetic onto Python ints
    ("verify", "--suite", "params"):
        "39c7ac9ec7daeeffe5e7542b8e8d15fbbfdcc68f92c9613d9e808ce459cae254",
    # the case-catalogue sweep, held again when the oracle began to certify
    # each rule on its predicate's nullspace basis
    ("verify", "--suite", "cases"):
        "0b28af7f320ed489bd66b366281fd95d4b070723cb3de0d1a1a072f81b31d81c",
    ("param-count", "--algebra", "osp22", "--n", "7/2+1*i", "--variant", "exact", "--matrix"):
        "e9b161c0377286c6321d22e4b5c2173696bfcbb6adbec87a3973833dc0eb476c",
}


@pytest.mark.parametrize("argv", sorted(REPORT_DIGESTS))
def test_report_digests_pinned(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("QESLAB_SEED", raising=False)
    path = tmp_path / "report.json"
    assert run_command(list(argv) + ["--json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_DIGESTS[argv]


# difference-family reports, pinned when make_rep stopped checking a rescaled
# copy of the cleared table: against the earlier bytes, the rep reports lost
# only their rescaled-check notes and A10's report changed only its labels
DIFFERENCE_TABLE_DIGESTS = {
    ("rep", "verify", "--algebra", "sl2q", "--n", "4", "--q", "3"):
        "dc11db9a44b4aa01d540e032b7529fcc014b165a1fcf10ccb9d5097e7e6e377a",
    ("rep", "verify", "--algebra", "sl2q", "--n", "3", "--q", "1"):
        "6abe02ece16d822e165b16a08e857d7b453234a1a50d95035e4903b2e8ef4db2",
    ("identity", "--id", "A10", "--n", "2", "--q", "3/2"):
        "3214d26e4b4add773aa80175082ab4333bf88379b01857a3db5ba30423a4a024",
}


@pytest.mark.parametrize("argv", list(DIFFERENCE_TABLE_DIGESTS), ids=lambda argv: argv[-1])
def test_difference_table_report_digests_pinned(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("QESLAB_SEED", raising=False)
    path = tmp_path / "report.json"
    assert run_command(list(argv) + ["--json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIFFERENCE_TABLE_DIGESTS[argv]


# superalgebra reports, pinned the same way; the classify fixture holds
# J words and matches rule III.1.1, so the J body sign (which decides
# confirmed_spaces) and positive_words are pinned too
CLASSIFY_COEFFS = {"c_+0": "1", "c_+J": "-1", "c_+": "1", "c_+1": "1", "c_2": "1",
                   "c_0J": "-1/3", "c_J": "5", "c_-": "3", "c": "7/2"}
OSP22_DIGESTS = {
    ("rep", "verify", "--algebra", "osp22", "--n", "3"):
        "976bc44a740c920380ae0f1c4868d122ad928f8dec6afa1a4e20aa9b2a67560d",
    ("param-count", "--algebra", "osp22", "--n", "7/2", "--k", "2", "--matrix",
     "--variant", "exact"):
        "c992c5913664646d8318a2386237f36a816be4b9d2a3612cf188765dfd1b05c0",
    ("grading", "--algebra", "osp22", "--word", "T+,J,Q1"):
        "01f7e1d3e623464da6a4fa829265302497f55fc19ef43de11445e378b9018d51",
    ("classify", "--algebra", "osp22", "--n", "3", "--coeffs", "COEFFS"):
        "b2e0315aca6490d441afc28f8ab07a7ac87e1491c8ded3d7d013581bd31cad76",
}


@pytest.mark.parametrize("argv", list(OSP22_DIGESTS), ids=lambda argv: argv[0])
def test_osp22_report_digests_pinned(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("QESLAB_SEED", raising=False)
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps(CLASSIFY_COEFFS))
    path = tmp_path / "report.json"
    args = [str(coeffs) if a == "COEFFS" else a for a in argv]
    assert run_command(args + ["--json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == OSP22_DIGESTS[argv]


# the matrix-form quasi count, pinned the same way before the matrix-form
# counts moved from 2x2 operators to the odd-variable operators
MATRIX_FORM_DIGESTS = {
    ("param-count", "--algebra", "osp22", "--n", "7/2", "--k", "2", "--matrix",
     "--variant", "quasi"):
        "0e4402dcf57f4ec6beab15b37717b05d3a5f657db9d551563e411585376be8ea",
}


@pytest.mark.parametrize("argv", list(MATRIX_FORM_DIGESTS), ids=lambda argv: argv[0])
def test_matrix_form_report_digests_pinned(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("QESLAB_SEED", raising=False)
    path = tmp_path / "report.json"
    assert run_command(list(argv) + ["--json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MATRIX_FORM_DIGESTS[argv]


# difference-calculus reports, pinned the same way before the calculus was
# folded into one q-Leibniz rule
DIFFERENCE_DIGESTS = {
    ("act", "--vars", "x", "--q", "3/2", "--op", "JDx^3*x^4 - x^2*JDx", "--f", "x^5"):
        "ca6adcae9a19fa344b26f2d5c90833e853b94d0e03d698e780a94519d880a0de",
    ("commutator", "--algebra", "sl2q", "--n", "4", "--q", "3/2", "--a", "J+*J+",
     "--b", "J-*J-"):
        "0b7ab341f72431e35e067cb81b590b8cfa0110b94a0e52298cb1af4d50292fa6",
}


@pytest.mark.parametrize("argv", list(DIFFERENCE_DIGESTS), ids=lambda argv: argv[0])
def test_difference_report_digests_pinned(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("QESLAB_SEED", raising=False)
    path = tmp_path / "report.json"
    assert run_command(list(argv) + ["--json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIFFERENCE_DIGESTS[argv]


# match-cases and classify reports, pinned the same way before each rule was
# instantiated from one parameter environment.  The sl2 fixture matches
# Lemma1.3 at m = 5.  The n = 7 fixture is sample_assignment of I.3.1 at
# m = 2 under random.Random(1): it matches I.1.2b at m = -13/2 (a non-integer
# solve with an unbounded-even conclusion) and I.3.1 within its free_max.
# The n = 6 fixture matches 19 instances, over flag, flag2 and sequence
# conclusions and every free k of I.2.2.
MATCH_FIXTURES = {
    ("sl2", "4"): {"c_+0": "1", "c_+": "-3", "c_0": "2", "c": "1"},
    ("osp22", "7"): {"c": "-4/3", "c_+": "-2", "c_+-": "6", "c_+0": "-2", "c_+1": "1/2",
                     "c_+2": "1/3", "c_-": "-5/2", "c_--": "-3", "c_-J": "6", "c_0": "5/2",
                     "c_0-": "-2/3", "c_01": "6", "c_0J": "3", "c_1": "-1", "c_2": "-6",
                     "c_J": "4/3"},
    ("osp22", "6"): {"c": "-4/3", "c_+-": "6", "c_+1": "-2", "c_+2": "1/2", "c_-": "1/3",
                     "c_-1": "-5/2", "c_-J": "-3", "c_0-": "6", "c_01": "5/2", "c_0J": "-2/3",
                     "c_1": "6", "c_2": "3", "c_J": "-1"},
}
MATCH_CASES_DIGESTS = {
    ("match-cases", "sl2", "4"):
        "62b4511dc71d719be9b25bcc78e277ed54a4fe7bf5606ce60b157c930121e0ae",
    ("classify", "sl2", "4"):
        "837910229a94d29f65a002dc185176778d1a2f99f45a8240f84121169c1b75f0",
    ("match-cases", "osp22", "7"):
        "21d318b52b9e9b2292fbd209b9b1055b1bb1ee62cbebb7acec9c9c460c68ecc3",
    ("classify", "osp22", "7"):
        "96e79653396b74cac6df7431974d03ae99dcf716b3f51bbdf9fa07d49a4db845",
    ("match-cases", "osp22", "6"):
        "5d46d29dc07a8ad0564b6bb58d06e8fb66ae9e22fa25a7c08a8e5a5ebc40e01a",
    ("classify", "osp22", "6"):
        "eee8392d996f0bdcff6760eb42d8019901aabc625941261ec78509ef3cbd7a28",
}


def _match_report_digest(key, tmp_path) -> str:
    command, algebra, n = key
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps(MATCH_FIXTURES[algebra, n]))
    path = tmp_path / "report.json"
    argv = [command, "--algebra", algebra, "--n", n, "--coeffs", str(coeffs)]
    assert run_command(argv + ["--json", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("key", list(MATCH_CASES_DIGESTS), ids="-".join)
def test_match_cases_report_digests_pinned(key, tmp_path, monkeypatch):
    monkeypatch.delenv("QESLAB_SEED", raising=False)
    assert _match_report_digest(key, tmp_path) == MATCH_CASES_DIGESTS[key]


def test_classify_confirms_on_the_matched_instances(tmp_path, monkeypatch):
    # classify reads the rule instances match-cases built, not the catalogue again
    monkeypatch.delenv("QESLAB_SEED", raising=False)
    calls = []
    monkeypatch.setattr(cli, "find_rule", lambda *a: calls.append(a))
    key = ("classify", "osp22", "6")
    assert _match_report_digest(key, tmp_path) == MATCH_CASES_DIGESTS[key]
    assert calls == []


@pytest.mark.parametrize("data", [{"c_+": 1}, ["c_+"]], ids=["number", "list"])
@pytest.mark.parametrize("command", ["classify", "match-cases"])
def test_malformed_coefficient_file_is_a_usage_error(command, data, tmp_path, capsys):
    coeffs = tmp_path / "c.json"
    coeffs.write_text(json.dumps(data))
    assert run_command([command, "--algebra", "sl2", "--n", "4", "--coeffs", str(coeffs)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "internal" not in err and "coeff" in err["error"]


def test_negative_bound_is_a_usage_error(tmp_path, capsys):
    coeffs = tmp_path / "c.json"
    coeffs.write_text(json.dumps(MATCH_FIXTURES["sl2", "4"]))
    argv = ["match-cases", "--algebra", "sl2", "--n", "4", "--coeffs", str(coeffs)]
    code, rep = run_json(capsys, argv)
    assert code == 0 and [(m["id"], m["params"]) for m in rep["payload"]["matches"]] \
        == [("Lemma1.3", {"m": "5"})]
    assert run_command(argv + ["--bound", "-1"]) == 2
    assert "--bound" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("option", [["--seed", "5"], ["--json", "F"], ["--compact"]],
                         ids=lambda o: o[0])
def test_global_options_before_the_command_are_refused(option, capsys):
    assert run_command(option + ["burnside", "--degree", "1"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert option[0] in err and "after the command" in err


@pytest.mark.parametrize("argv", [["--help"], ["burnside", "--help"]])
def test_help_is_printed_and_exits_0(argv, capsys):
    assert run_command(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: qeslab") and captured.err == ""


def test_global_options_after_the_command_are_read(tmp_path, capsys):
    path = tmp_path / "F"
    assert run_command(["burnside", "--degree", "1", "--seed", "5", "--compact",
                        "--json", str(path)]) == 0
    assert capsys.readouterr().out == ""
    lines = path.read_text().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["seed"] == 5


def test_deformed_family_refuses_a_fractional_mark(capsys):
    assert run_command(["rep", "verify", "--algebra", "sl2q", "--n", "5/2"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert "integer mark" in err and "qn" not in err


# rank- and charpoly-heavy reports, checked the same way before the exact
# kernels moved from Scalar arithmetic onto Python ints; the sl2 operator is
# not triangular on int:30 and all 32 of its charpoly coefficients are
# nonzero. The params report's pin is the one in REPORT_DIGESTS.  The
# spectrum report was re-pinned when it gained `exact_roots` (null here, off
# the triangular branch); its other fields held
KERNEL_DIGESTS = {
    ("verify", "--suite", "params"): REPORT_DIGESTS[("verify", "--suite", "params")],
    ("spectrum", "--algebra", "sl2", "--n", "30", "--op", "J+*J- - J0*J- + J+ + 2*J0 + J-",
     "--space", "int:30"):
        "7685a84da551f161d1a94eda1a4160aa65d15ac95ac9ffcc4531410a80866396",
}


@pytest.mark.parametrize("argv", list(KERNEL_DIGESTS), ids=lambda argv: argv[0])
def test_kernel_report_digests_pinned(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("QESLAB_SEED", raising=False)
    path = tmp_path / "report.json"
    assert run_command(list(argv) + ["--json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == KERNEL_DIGESTS[argv]


# the case-catalogue sweep, checked the same way before the oracle certified
# each rule on its predicate's nullspace basis; its pin is the one in
# REPORT_DIGESTS
CASES_DIGESTS = {
    ("verify", "--suite", "cases"): REPORT_DIGESTS[("verify", "--suite", "cases")],
}


@pytest.mark.parametrize("argv", list(CASES_DIGESTS), ids=lambda argv: argv[-1])
def test_cases_report_digest_pinned(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("QESLAB_SEED", raising=False)
    path = tmp_path / "report.json"
    assert run_command(list(argv) + ["--json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CASES_DIGESTS[argv]


def test_spectrum_beyond_the_float_range(tmp_path, monkeypatch):
    # on int:100 the same operator's charpoly has a 1054-bit coefficient, so
    # its roots are read in t / 2^s; the report is pinned (re-pinned when it
    # gained `exact_roots`, null off the triangular branch)
    monkeypatch.delenv("QESLAB_SEED", raising=False)
    path = tmp_path / "report.json"
    argv = ["spectrum", "--algebra", "sl2", "--n", "100", "--op",
            "J+*J- - J0*J- + J+ + 2*J0 + J-", "--space", "int:100"]
    assert run_command(argv + ["--json", str(path)]) == 0
    assert json.loads(path.read_text())["payload"]["trace_check"] < 1e-12
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "fda743e82c4076fdebee5b0914b684181c2d3cf7ea0d2223266a7576113941e2"


def test_each_suite_report_is_pinned_once():
    # each suite has its one pin in REPORT_DIGESTS; another table may check a
    # suite report again, but only against that pin, never a hash of its own
    pinned = [argv[2] for argv in REPORT_DIGESTS if argv[0] == "verify"]
    assert sorted(pinned) == sorted(cli.SUITES)
    for name, table in globals().items():
        if name.endswith("_DIGESTS"):
            for argv, digest in table.items():
                if argv[0] == "verify":
                    assert digest is REPORT_DIGESTS[argv], (name, argv)


# the sextic reduction report, pinned the same way before the default z grid
# and the spacing parameter left reduce_to_schrodinger; re-taken when the
# potential became N/P4 with N exact, which moved closed_form_deviation from
# 7.958078640513122e-13 to 6.821210263296962e-13 and nothing else
REDUCE_DIGESTS = {
    ("reduce", "--sextic", "n=2,k=0,a=1,b=1"):
        "e3d21ccacc53ba72a4706fa769d5108cf98966ee57d80c27c54663d6e73b8fcd",
}


@pytest.mark.parametrize("argv", list(REDUCE_DIGESTS), ids=lambda argv: argv[0])
def test_reduce_report_digest_pinned(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("QESLAB_SEED", raising=False)
    path = tmp_path / "report.json"
    assert run_command(list(argv) + ["--json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REDUCE_DIGESTS[argv]


# invariance reports and their exit codes, pinned the same way before the
# action was stored as sparse columns: a preserved space, a triangle with 31
# escapes (the report lists the first 20, in basis and image-term order), and
# a spinor pair whose even row escapes into the odd sector
INVARIANCE_DIGESTS = {
    ("invariance", "--algebra", "sl2", "--n", "4", "--op", "J+*J- - 2*J0 + J-",
     "--space", "int:4"):
        (0, "4fa851a8fa10c1c9be3d3d382da9645b5c76ceb553720aa39f4f38f5eeafc31a"),
    ("invariance", "--op", "x^3*Dx + 2*y^2*x - 3*y^3", "--space", "tri:4"):
        (1, "8778af6cd9ff66bbbcfbbfcd1c9ba27cbb9542754fa6b8c9ba12df1c82003c8d"),
    ("invariance", "--algebra", "osp22", "--n", "3", "--op", "T+*Q1 + J*T0 + x^2*Qb1",
     "--space", "spin:3,2"):
        (1, "0146517cdd0b7d320ef736c2386b0a3a5f96dabf85e71bd81b460b80587746cf"),
}


@pytest.mark.parametrize("argv", list(INVARIANCE_DIGESTS), ids=lambda argv: argv[-1])
def test_invariance_report_digests_pinned(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("QESLAB_SEED", raising=False)
    code, digest = INVARIANCE_DIGESTS[argv]
    path = tmp_path / "report.json"
    assert run_command(list(argv) + ["--json", str(path)]) == code
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_spectrum_command(capsys):
    code, rep = run_json(capsys, [
        "spectrum", "--algebra", "sl2", "--n", "1",
        "--op", "0 - 4*J0*J- + 4*J0 - 4*J- + 3", "--space", "int:1"])
    assert code == 0
    assert rep["payload"]["charpoly"] == ["1", "-6", "5"]


@pytest.mark.parametrize("n", [20, 100])
def test_triangular_spectrum_roots_are_the_diagonal(n, capsys):
    # J+*J- + J0 maps x^d to (d(d - n) - n/2) x^d; at n = 100 the charpoly's
    # coefficients are beyond the float range
    code, rep = run_json(capsys, ["spectrum", "--algebra", "sl2", "--n", str(n),
                                  "--op", "J+*J- + J0", "--space", f"int:{n}"])
    assert code == 0 and rep["payload"]["trace_check"] == 0.0
    diag = [d * (d - n) - n // 2 for d in range(n + 1)]
    assert rep["payload"]["roots"] == sorted(f"{e}+0j" for e in diag)
    assert rep["payload"]["exact_roots"] == [str(e) for e in diag]


@pytest.mark.parametrize("zmin", ["1e-6", "1e-10", "1e-160"])
def test_reduce_small_zmin_matches_the_closed_form(zmin, capsys):
    # V = N/P4 with N exact has no terms that cancel as x = c z^2/4 -> 0
    code, rep = run_json(capsys, ["reduce", "--sextic", "n=2,k=0,a=1,b=1", "--zmin", zmin])
    assert code == 0 and rep["payload"]["closed_form_deviation"] < 1e-8


def test_reduce_csv(tmp_path, capsys):
    out = tmp_path / "red.csv"
    code, rep = run_json(capsys, ["reduce", "--sextic", "n=1,k=0,a=1,b=0",
                                  "--csv", str(out), "--zmax", "1.0"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "z,V,A"
    assert len(lines) > 100


def test_matrix_example_command(capsys):
    code, rep = run_json(capsys, ["matrix-example", "--alpha", "2",
                                  "--beta", "1", "--n", "1"])
    assert code == 0
    p = rep["payload"]
    assert p["preserved"] and p["hermitian"] and p["dimension"] == 3


def test_classify_command(tmp_path, capsys):
    coeffs = tmp_path / "c.json"
    coeffs.write_text(json.dumps({"c_+0": "1", "c_+": "1", "c_0-": "2"}))
    code, rep = run_json(capsys, ["classify", "--algebra", "sl2", "--n", "4",
                                  "--coeffs", str(coeffs)])
    assert code == 0
    hits = rep["payload"]["matched_rules"]
    assert [h["id"] for h in hits] == ["Lemma1.3"]
    assert "interval:1" in rep["payload"]["confirmed_spaces"]


def test_identity_command(capsys):
    code, rep = run_json(capsys, ["identity", "--id", "A12", "--n", "2",
                                  "--q", "3/2"])
    assert code == 0 and rep["ok"]


def test_report_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_command(["verify", "--suite", "relations",
                            "--seed", "777", "--json", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QESLAB_SEED", "424242")
    code, rep = run_json(capsys, ["grading", "--algebra", "sl2", "--n", "1",
                                  "--word", "J+"])
    assert code == 0 and rep["seed"] == 424242


def test_burnside_command(capsys):
    code, rep = run_json(capsys, ["burnside", "--degree", "3"])
    assert code == 0
    assert all(r["ok"] for r in rep["payload"]["rows"])
