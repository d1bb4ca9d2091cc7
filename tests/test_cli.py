import hashlib
import json
import os

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
])
def test_bad_input_is_a_usage_error(argv, capsys):
    assert run_command(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["schema"] == 1 and "internal" not in err


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
    ("verify", "--suite", "structure"):
        "a96e6b77c8c608d6f70066cd57086513106dfe3c64134453dd9fbf491e2c7d99",
    ("verify", "--suite", "relations"):
        "230b5860a432e1762f9e019e49834096fef45e96217aea6536d5c8d8eeee5e7f",
    ("verify", "--suite", "identities"):
        "af94f3a5c352e58beff539355fbb8ab74a57aae2d5556ba6b787e187570efb59",
    ("verify", "--suite", "shapes"):
        "725bf444debe721d65cd8539b4993ec3effeec9d03c349d329106d7a12d67384",
    ("burnside", "--degree", "4"):
        "00ea4e9081aa48a6e482e8502ba26656909fbfd3205f3ea04953b86c6a263377",
}


@pytest.mark.parametrize("argv", sorted(REPORT_DIGESTS))
def test_report_digests_pinned(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("QESLAB_SEED", raising=False)
    path = tmp_path / "report.json"
    assert run_command(list(argv) + ["--json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_DIGESTS[argv]


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


# rank- and charpoly-heavy reports, pinned the same way before the exact
# kernels moved from Scalar arithmetic onto Python ints; the sl2 operator is
# not triangular on int:30 and all 32 of its charpoly coefficients are nonzero
KERNEL_DIGESTS = {
    ("verify", "--suite", "params"):
        "39c7ac9ec7daeeffe5e7542b8e8d15fbbfdcc68f92c9613d9e808ce459cae254",
    ("spectrum", "--algebra", "sl2", "--n", "30", "--op", "J+*J- - J0*J- + J+ + 2*J0 + J-",
     "--space", "int:30"):
        "3aee3adc2aacd5969afd9a8ab204bb371bc0a549ed2f60c47b8699bd2c7ad4c3",
}


@pytest.mark.parametrize("argv", list(KERNEL_DIGESTS), ids=lambda argv: argv[0])
def test_kernel_report_digests_pinned(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("QESLAB_SEED", raising=False)
    path = tmp_path / "report.json"
    assert run_command(list(argv) + ["--json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == KERNEL_DIGESTS[argv]


# the case-catalogue sweep, pinned the same way before the oracle certified
# each rule on its predicate's nullspace basis
CASES_DIGESTS = {
    ("verify", "--suite", "cases"):
        "0b28af7f320ed489bd66b366281fd95d4b070723cb3de0d1a1a072f81b31d81c",
}


@pytest.mark.parametrize("argv", list(CASES_DIGESTS), ids=lambda argv: argv[-1])
def test_cases_report_digest_pinned(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("QESLAB_SEED", raising=False)
    path = tmp_path / "report.json"
    assert run_command(list(argv) + ["--json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CASES_DIGESTS[argv]


def test_spectrum_command(capsys):
    code, rep = run_json(capsys, [
        "spectrum", "--algebra", "sl2", "--n", "1",
        "--op", "0 - 4*J0*J- + 4*J0 - 4*J- + 3", "--space", "int:1"])
    assert code == 0
    assert rep["payload"]["charpoly"] == ["1", "-6", "5"]


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
