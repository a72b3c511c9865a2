import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qgraded.algebras import GradedAlgebra
from qgraded.cli import main
from qgraded.corpus import standard_corpus
from qgraded.descriptors import Descriptor, dump_descriptor
from qgraded.errors import InternalConsistencyError
from qgraded.groups import GradingGroup
from qgraded.scalars import Scalar, cyclotomic_polynomial

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
# sha256 of the --report bytes of `check` on every corpus file (with
# --expect not-strong on the entries not expected to be strong) and of
# `suite corpus`; a change to any of them is a change of verdict,
# witness or report format and must be deliberate
DIGESTS = json.loads((Path(__file__).resolve().parent
                      / "report_digests.json").read_text(encoding="utf-8"))


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_entry(tmp_path, name):
    entry = next(e for e in standard_corpus() if e.name == name)
    desc = Descriptor(entry.algebra.group, entry.factor, entry.algebra)
    path = tmp_path / f"{name}.json"
    path.write_text(dump_descriptor(desc), encoding="utf-8")
    return path


def test_check_passes_on_twisted_descriptor(tmp_path, capsys):
    path = write_entry(tmp_path, "twisted-z2x2-omega")
    assert main(["check", str(path)]) == 0
    assert "OK" in capsys.readouterr().out


def test_check_expected_failure_mode(tmp_path):
    path = write_entry(tmp_path, "truncated-poly-m2")
    assert main(["check", str(path)]) == 1
    # expecting one side of the equivalence implies the other
    assert main(["check", str(path), "--expect", "not-strong"]) == 0
    assert main(["check", str(path), "--expect", "not-strong",
                 "--expect", "not-galois"]) == 0
    # a wrong expectation still fails
    assert main(["check", str(path), "--expect", "strong"]) == 1


def test_in_process_checks_share_one_parser_and_no_expectations(tmp_path, monkeypatch):
    # the parser is built once per process, so no call builds another
    monkeypatch.setattr("qgraded.cli.build_parser",
                        lambda: pytest.fail("main built a parser"))
    path = write_entry(tmp_path, "truncated-poly-m2")
    assert main(["check", str(path), "--expect", "not-strong"]) == 0
    # no call inherits an earlier call's --expect list
    assert main(["check", str(path)]) == 1
    assert main(["check", str(path), "--expect", "not-strong"]) == 0


def test_check_malformed_scalar_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "group": {"free_rank": 0, "torsion": [2]},
        "factor": {"sigma": [[0]], "omega": [[0]], "q": "zeta(0)"}}),
        encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert "position" in capsys.readouterr().err


def test_check_cap_exceeded_exits_3(tmp_path, capsys):
    path = write_entry(tmp_path, "twisted-z4x4-omega")
    assert main(["check", str(path), "--max-group-order", "8"]) == 3
    assert "cap" in capsys.readouterr().err


def test_check_report_is_byte_deterministic(tmp_path):
    path = write_entry(tmp_path, "twisted-z2-trivial")
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["check", str(path), "--report", str(r1)]) == 0
    assert main(["check", str(path), "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    payload = json.loads(r1.read_text())
    assert payload["passed"] is True
    assert any(row["id"] == "equivalence.agreement" for row in payload["checks"])


def _broken_truncated_poly(broken: str) -> GradedAlgebra:
    """k[x]/(x^3) graded by Z_3 with one product entry changed so that
    structural validation fails on `broken`."""
    group = GradingGroup(0, (3,))
    basis = [("1", group.element((0,))), ("x", group.element((1,))),
             ("x^2", group.element((2,)))]
    one = Scalar.one()
    products = {(0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one},
                (1, 0): {1: one}, (2, 0): {2: one}, (1, 1): {2: one}}
    if broken == "homogeneity":
        products[(1, 1)] = {1: one}  # x*x lands in grade 1, not 2
    else:
        products[(2, 1)] = {0: one}  # (x*x)*x = 1 but x*(x*x) = 0
    return GradedAlgebra(group, basis, products, {0: one}, validate=False)


@pytest.mark.parametrize("broken", ["homogeneity", "associativity"])
def test_check_skips_verdicts_on_structurally_invalid_algebra(tmp_path, broken):
    algebra = _broken_truncated_poly(broken)
    path = tmp_path / f"{broken}.json"
    path.write_text(dump_descriptor(Descriptor(algebra.group, None, algebra)),
                    encoding="utf-8")
    report = tmp_path / "report.json"
    assert main(["check", str(path), "--report", str(report)]) == 1
    rows = {r["id"]: r for r in json.loads(report.read_text())["checks"]}
    assert rows[f"algebra.{broken}"]["passed"] is False
    assert rows["grading.strong"]["note"] == \
        "skipped: algebra failed structural validation"
    assert "galois.bijective" not in rows


@pytest.mark.parametrize("broken, witness", [
    ("homogeneity", "x*x has a component in grade (1), expected (2)"),
    ("associativity", "(x*x)*x != x*(x*x)"),
])
def test_suite_reports_a_structurally_invalid_algebra(tmp_path, broken, witness):
    algebra = _broken_truncated_poly(broken)
    scan = tmp_path / "descriptors"
    scan.mkdir()
    path = scan / f"{broken}.json"
    path.write_text(dump_descriptor(Descriptor(algebra.group, None, algebra)),
                    encoding="utf-8")
    report = tmp_path / "suite.json"
    assert main(["suite", str(scan), "--report", str(report)]) == 1
    [row] = json.loads(report.read_text())["rows"]
    assert row["error"] == (f"{path}: algebra descriptor: invalid algebra "
                            f"(algebra.{broken}): {witness}")
    assert row["strong"] is row["galois"] is row["agree"] is None


def test_generate_check_round_trip(tmp_path):
    out = tmp_path / "gen.json"
    assert main(["generate", "twisted-group-algebra", "--n", "2", "--N", "2",
                 "--sigma", "[[0,1],[1,0]]", "--omega", "[[0,0],[0,0]]",
                 "--q", "1", "--out", str(out)]) == 0
    assert main(["check", str(out)]) == 0
    # regeneration is byte-identical
    out2 = tmp_path / "gen2.json"
    main(["generate", "twisted-group-algebra", "--n", "2", "--N", "2",
          "--sigma", "[[0,1],[1,0]]", "--omega", "[[0,0],[0,0]]",
          "--q", "1", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_generate_truncated_poly(tmp_path):
    out = tmp_path / "trunc.json"
    assert main(["generate", "truncated-poly", "--m", "3",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["algebra"]["basis"]) == 3
    assert main(["check", str(out), "--expect", "not-strong",
                 "--expect", "not-galois"]) == 0


def test_generate_pauli_truncation(tmp_path):
    out = tmp_path / "pauli.json"
    assert main(["generate", "b-symmetric", "--n", "2", "--N", "1",
                 "--sigma", "[[1]]", "--omega", "[[0]]", "--q", "1",
                 "--max-degree", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert [b["label"] for b in data["algebra"]["basis"]] == ["1", "x"]


def test_generate_invalid_params_exit_2(tmp_path):
    assert main(["generate", "twisted-group-algebra", "--n", "2", "--N", "2",
                 "--sigma", "[[0,1],[0,0]]", "--omega", "[[0,0],[0,0]]",
                 "--q", "1", "--out", str(tmp_path / "x.json")]) == 2
    for builder in ("twisted-group-algebra", "b-symmetric"):
        # grading groups are finite: --n 0 and a missing --n are refused
        for n in (["--n", "0"], []):
            assert main(["generate", builder, *n, "--N", "1", "--q", "1",
                         "--out", str(tmp_path / "y.json")]) == 2
    assert main(["generate", "b-symmetric", "--n", "2", "--N", "1",
                 "--sigma", "not json", "--omega", "[[0]]", "--q", "1"]) == 2


# q = 2 is no root of unity, so b(gen 0, gen 1) = 2^(10^6) has no power 1
_TORSION_TEXT = ("factor descriptor: factor is not well-defined on torsion "
                 "coordinate 0 (modulus 2): b(gen 0, gen 1)^2 != 1")


def _no_large_powers(monkeypatch):
    pow_ = Scalar.__pow__

    def bounded(self, exponent):
        assert abs(exponent) <= 1000, "a large power was taken before the refusal"
        return pow_(self, exponent)

    monkeypatch.setattr(Scalar, "__pow__", bounded)


def test_check_refuses_a_factor_value_that_is_no_root_of_unity_before_any_power(
        tmp_path, monkeypatch, capsys):
    scan = tmp_path / "descriptors"
    scan.mkdir()
    path = scan / "probe.json"
    path.write_text(json.dumps({
        "group": {"free_rank": 0, "torsion": [2, 2]},
        "factor": {"sigma": [[0, 0], [0, 0]],
                   "omega": [[0, 10 ** 6], [-10 ** 6, 0]], "q": "2"}}),
        encoding="utf-8")
    _no_large_powers(monkeypatch)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {_TORSION_TEXT}\n"
    report = tmp_path / "report.json"
    assert main(["suite", str(scan), "--report", str(report)]) == 1
    [row] = json.loads(report.read_text())["rows"]
    assert row["error"] == f"{path}: {_TORSION_TEXT}"


def test_generate_refuses_a_factor_value_that_is_no_root_of_unity_before_any_power(
        monkeypatch, capsys):
    _no_large_powers(monkeypatch)
    assert main(["generate", "b-symmetric", "--n", "2", "--N", "2",
                 "--omega", "[[0,1000000],[-1000000,0]]", "--q", "2"]) == 2
    assert capsys.readouterr().err == f"error: {_TORSION_TEXT}\n"


def _graded_unit_and_two_squares_zero(grades):
    basis = [{"label": label, "grade": g} for label, g in zip("1xy", grades)]
    products = [{"left": 0, "right": j, "result": [{"basis": j, "coeff": "1"}]}
                for j in range(3)]
    products += [{"left": j, "right": 0, "result": [{"basis": j, "coeff": "1"}]}
                 for j in (1, 2)]
    return {"basis": basis, "unit": {"0": "1"}, "products": products}


@pytest.mark.parametrize("command", ["check", "suite"])
def test_grade_coordinates_out_of_range_are_reduced_before_any_power(
        tmp_path, monkeypatch, command):
    # on Z_2 x Z_2 the grades (10^5 + 1, 0) and (0, -10^5 - 1) are (1, 0)
    # and (0, 1): the run takes no large power and reports as on those
    reports = []
    for name, big in [("reduced", 1), ("huge", 10 ** 5 + 1)]:
        scan = tmp_path / name
        scan.mkdir()
        (scan / "probe.json").write_text(json.dumps({
            "group": {"free_rank": 0, "torsion": [2, 2]},
            "factor": {"sigma": [[0, 0], [0, 0]], "omega": [[0, 1], [-1, 0]],
                       "q": "-1"},
            "algebra": _graded_unit_and_two_squares_zero(
                [[0, 0], [big, 0], [0, -big]])}), encoding="utf-8")
        report = tmp_path / f"{name}.json"
        argv = ["suite", str(scan)] if command == "suite" else [
            "check", str(scan / "probe.json"), "--expect", "not-strong"]
        with monkeypatch.context() as patch:
            _no_large_powers(patch)
            code = main(argv + ["--report", str(report)])
        reports.append((code, json.loads(report.read_text())))
    assert reports[0] == reports[1]
    assert reports[0][0] == 0


def test_check_decides_an_algebra_graded_by_the_trivial_group(tmp_path):
    # no generators: the Hopf and cqt laws run on the identity alone
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({
        "group": {"free_rank": 0, "torsion": []},
        "factor": {"sigma": [], "omega": [], "q": "1"},
        "algebra": _graded_unit_and_two_squares_zero([[], [], []])}),
        encoding="utf-8")
    report = tmp_path / "report.json"
    assert main(["check", str(path), "--expect", "strong",
                 "--report", str(report)]) == 0
    rows = {r["id"]: r for r in json.loads(report.read_text())["checks"]}
    assert rows["grading.strong"]["verdict"] is True
    assert rows["galois.bijective"]["verdict"] is True


_ZETA_CAP_TEXT = "error: factor.q: cyclotomic order exceeds the cap 512\n"


def _no_large_cyclotomic_orders(monkeypatch):
    phi = cyclotomic_polynomial

    def bounded(n):
        assert n <= 512, "arithmetic above the cyclotomic order cap"
        return phi(n)

    monkeypatch.setattr("qgraded.scalars.cyclotomic_polynomial", bounded)


@pytest.mark.parametrize("q", ["zeta(99991)", "zeta(100000000)"])
def test_check_and_suite_refuse_a_zeta_order_above_the_cap(
        tmp_path, monkeypatch, capsys, q):
    scan = tmp_path / "descriptors"
    scan.mkdir()
    path = scan / "probe.json"
    path.write_text(json.dumps({
        "group": {"free_rank": 0, "torsion": [2, 2]},
        "factor": {"sigma": [[0, 0], [0, 0]], "omega": [[0, 1], [-1, 0]], "q": q}}),
        encoding="utf-8")
    _no_large_cyclotomic_orders(monkeypatch)
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err == _ZETA_CAP_TEXT
    report = tmp_path / "report.json"
    assert main(["suite", str(scan), "--report", str(report)]) == 1
    [row] = json.loads(report.read_text())["rows"]
    assert row["error"] == _ZETA_CAP_TEXT[len("error: "):-1]


def test_a_zeta_order_above_the_cap_is_named_by_its_field(tmp_path, monkeypatch,
                                                         capsys):
    data = json.loads((CORPUS / "twisted-z2-trivial.json").read_text())
    data["algebra"]["products"][1]["result"][0]["coeff"] = "zeta(99991)"
    scan = tmp_path / "descriptors"
    scan.mkdir()
    path = scan / "probe.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    _no_large_cyclotomic_orders(monkeypatch)
    text = "algebra.products[1].result[0].coeff: cyclotomic order exceeds the cap 512"
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {text}\n"
    report = tmp_path / "report.json"
    assert main(["suite", str(scan), "--report", str(report)]) == 1
    [row] = json.loads(report.read_text())["rows"]
    assert row["error"] == text


def test_generate_refuses_a_zeta_order_above_the_cap(monkeypatch, capsys):
    _no_large_cyclotomic_orders(monkeypatch)
    assert main(["generate", "twisted-group-algebra", "--n", "3", "--N", "2",
                 "--omega", "[[0,1],[-1,0]]", "--q", "zeta(100000000)"]) == 3
    assert capsys.readouterr().err == _ZETA_CAP_TEXT


def test_suite_on_shipped_corpus(tmp_path, capsys):
    assert CORPUS.is_dir(), "shipped corpus directory missing"
    report = tmp_path / "suite.json"
    assert main(["suite", str(CORPUS), "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "agree" in out
    assert "ERROR" not in out
    assert sha256(report) == DIGESTS["suite"]


def test_check_reports_match_recorded_digests(tmp_path, capsys, corpus):
    weak = {e.name for e in corpus if not e.expect_strong}
    files = sorted(CORPUS.glob("*.json"))
    assert sorted(p.name for p in files) == sorted(DIGESTS["check"])
    changed = []
    for path in files:
        report = tmp_path / path.name
        argv = ["check", str(path), "--report", str(report)]
        if path.stem in weak:
            argv += ["--expect", "not-strong"]
        assert main(argv) == 0, path.name
        if sha256(report) != DIGESTS["check"][path.name]:
            changed.append(path.name)
    capsys.readouterr()
    assert changed == []


def test_suite_flags_corrupted_fixture(tmp_path, capsys):
    for name in ("twisted-z2-trivial", "truncated-poly-m2"):
        shutil.copy(CORPUS / f"{name}.json", tmp_path / f"{name}.json")
    (tmp_path / "broken.json").write_text("{", encoding="utf-8")
    assert main(["suite", str(tmp_path)]) == 1
    assert "ERROR" in capsys.readouterr().out


def test_suite_empty_directory(tmp_path, capsys):
    assert main(["suite", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "descriptor" in out


def test_suite_report_excludes_timings(tmp_path):
    scan = tmp_path / "descriptors"
    scan.mkdir()
    shutil.copy(CORPUS / "twisted-z2-trivial.json", scan / "a.json")
    report = tmp_path / "suite.json"
    assert main(["suite", str(scan), "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["rows"][0]["agree"] is True
    assert "seconds" not in payload["rows"][0]
    again = tmp_path / "suite2.json"
    assert main(["suite", str(scan), "--report", str(again)]) == 0
    assert report.read_bytes() == again.read_bytes()


def test_shipped_corpus_is_reproducible():
    entries = standard_corpus()
    assert len(list(CORPUS.glob("*.json"))) == len(entries)
    for entry in entries:
        path = CORPUS / f"{entry.name}.json"
        desc = Descriptor(entry.algebra.group, entry.factor, entry.algebra)
        assert path.read_text(encoding="utf-8") == dump_descriptor(desc), entry.name


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qgraded.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "check" in proc.stdout and "suite" in proc.stdout


def test_invalid_caps_exit_2(tmp_path):
    path = write_entry(tmp_path, "twisted-z2-trivial")
    assert main(["check", str(path), "--max-group-order", "0"]) == 2
    assert main(["suite", str(tmp_path), "--max-group-order", "0"]) == 2


@pytest.mark.parametrize("command", ["check", "suite"])
def test_group_order_cap_is_applied_before_validation(tmp_path, monkeypatch,
                                                       capsys, command):
    scan = tmp_path / "descriptors"
    scan.mkdir()
    path = scan / "group-algebra-Z_8.json"
    shutil.copy(CORPUS / path.name, path)
    calls = []
    validation_report = GradedAlgebra.validation_report

    def counted(self):
        calls.append(self)
        return validation_report(self)

    monkeypatch.setattr(GradedAlgebra, "validation_report", counted)
    report = tmp_path / "report.json"
    target = path if command == "check" else scan
    code = main([command, str(target), "--max-group-order", "4",
                 "--report", str(report)])
    assert calls == []
    if command == "check":
        assert code == 3
        assert "group order 8 exceeds the cap 4" in capsys.readouterr().err
    else:
        assert code == 1
        [row] = json.loads(report.read_text())["rows"]
        assert row["error"] == "group order 8 exceeds the cap 4"


@pytest.mark.parametrize("command", ["check", "suite"])
def test_group_order_cap_bounds_the_generator_count(tmp_path, monkeypatch,
                                                    capsys, command):
    # Z_2^400 would multiply out an order of 2^400 and run the Hopf
    # sample of 801 group-likes pairwise
    scan = tmp_path / "descriptors"
    scan.mkdir()
    path = scan / "z2-400.json"
    path.write_text(json.dumps({"group": {"torsion": [2] * 400}}), encoding="utf-8")

    def refused(group):
        raise AssertionError("a check ran on a refused descriptor")

    monkeypatch.setattr("qgraded.cli.check_hopf_axioms", refused)
    report = tmp_path / "report.json"
    target = path if command == "check" else scan
    code = main([command, str(target), "--report", str(report)])
    text = "400 group generators exceed the 8 allowed by the cap 256"
    if command == "check":
        assert code == 3
        assert text in capsys.readouterr().err
    else:
        assert code == 1
        [row] = json.loads(report.read_text())["rows"]
        assert row["error"] == text


@pytest.mark.parametrize("argv, text", [
    (["twisted-group-algebra", "--n", "2", "--N", "14"],
     "14 group generators exceed the 8 allowed by the cap 256"),
    (["truncated-poly", "--m", "3000"], "group order 3000 exceeds the cap 256"),
    (["b-symmetric", "--n", "2", "--N", "9"],
     "9 group generators exceed the 8 allowed by the cap 256"),
], ids=["Z2^14", "Z3000", "Z2^9"])
def test_generate_refuses_a_group_that_check_would_refuse(tmp_path, monkeypatch,
                                                          capsys, argv, text):
    def refused(*args, **kwargs):
        raise AssertionError("an algebra was built on a refused group")

    monkeypatch.setattr(GradedAlgebra, "__init__", refused)
    out = tmp_path / "x.json"
    started = time.monotonic()
    assert main(["generate", *argv, "--out", str(out)]) == 3
    assert time.monotonic() - started < 1
    assert capsys.readouterr().err == f"error: {text}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, dim", [
    (["b-symmetric", "--n", "2", "--N", "1", "--max-degree", "600"], 601),
    # the builder would enumerate 601^8 exponent tuples
    (["b-symmetric", "--n", "2", "--N", "8", "--max-degree", "600"],
     442206334804720596),
    (["b-symmetric", "--n", "2", "--N", "2", "--max-degree", "22"], 276),
], ids=["Z_2-600", "Z_2^8-600", "Z_2^2-22"])
def test_generate_refuses_an_algebra_above_the_dimension_cap(
        tmp_path, monkeypatch, capsys, argv, dim):
    def refused(*args, **kwargs):
        raise AssertionError("an algebra was built above the dimension cap")

    monkeypatch.setattr(GradedAlgebra, "__init__", refused)
    monkeypatch.setattr("qgraded.cli.build_b_symmetric_truncation", refused)
    out = tmp_path / "x.json"
    started = time.monotonic()
    assert main(["generate", *argv, "--out", str(out)]) == 3
    assert time.monotonic() - started < 1
    assert capsys.readouterr().err == \
        f"error: algebra dimension {dim} exceeds the cap 256\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "suite"])
def test_algebra_dimension_cap_is_applied_before_any_check(
        tmp_path, monkeypatch, capsys, command):
    # dimension 257 over the trivial group: the unit and 256 vectors e_i
    group = GradingGroup(0, ())
    e, one = group.identity(), Scalar.one()
    basis = [("1", e)] + [(f"e{i}", e) for i in range(1, 257)]
    products = {(0, i): {i: one} for i in range(257)}
    products.update({(i, 0): {i: one} for i in range(1, 257)})
    algebra = GradedAlgebra(group, basis, products, {0: one}, validate=False)
    scan = tmp_path / "descriptors"
    scan.mkdir()
    path = scan / "dim-257.json"
    path.write_text(dump_descriptor(Descriptor(group, None, algebra)),
                    encoding="utf-8")

    def refused(*args):
        raise AssertionError("a check ran on a refused descriptor")

    monkeypatch.setattr("qgraded.cli.check_hopf_axioms", refused)
    monkeypatch.setattr(GradedAlgebra, "validation_report", refused)
    report = tmp_path / "report.json"
    target = path if command == "check" else scan
    code = main([command, str(target), "--report", str(report)])
    text = "algebra dimension 257 exceeds the cap 256"
    if command == "check":
        assert code == 3
        assert capsys.readouterr().err == f"error: {text}\n"
    else:
        assert code == 1
        [row] = json.loads(report.read_text())["rows"]
        assert row["error"] == text


def test_the_dimension_cap_is_applied_before_any_product_is_parsed(tmp_path, capsys):
    # a malformed coefficient in products[0] of a dim-257 descriptor: the
    # cap, not the coefficient, refuses it
    path = tmp_path / "dim-257.json"
    path.write_text(json.dumps({"group": {}, "algebra": {
        "basis": [{"label": f"e{i}", "grade": []} for i in range(257)],
        "unit": {"0": "1"},
        "products": [{"left": 0, "right": 0,
                      "result": [{"basis": 0, "coeff": "not a scalar"}]}]}}),
        encoding="utf-8")
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err == "error: algebra dimension 257 exceeds the cap 256\n"


@pytest.mark.parametrize("text, reason", [
    ('{"group": {"torsion": [%s]}}' % ("7" * 5000), "integer string conversion"),
    ('{"group": ' + "[" * 1000 + "]" * 1000 + "}", "recursion depth"),
], ids=["5000-digit-integer", "nested-1000-deep"])
def test_json_python_cannot_load_is_invalid_input(tmp_path, capsys, text,
                                                  reason):
    scan = tmp_path / "descriptors"
    scan.mkdir()
    path = scan / "probe.json"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: invalid JSON" in err and reason in err
    report = tmp_path / "report.json"
    assert main(["suite", str(scan), "--report", str(report)]) == 1
    [row] = json.loads(report.read_text())["rows"]
    assert row["error"].startswith(f"{path}: invalid JSON")


_BIG = int("7" * 2200) * int("9" * 2200)


@pytest.mark.parametrize("group, text", [
    ({"torsion": [2] * 15000},
     "15000 group generators exceed the 8 allowed by the cap 256"),
    ({"torsion": [2] * 300000},
     "300000 group generators exceed the 8 allowed by the cap 256"),
    ({"torsion": [int("7" * 2200), int("9" * 2200)]},
     f"group order at least 2^{_BIG.bit_length() - 1} exceeds the cap 256"),
], ids=["15000-moduli", "300000-moduli", "2200-digit-moduli"])
def test_huge_groups_are_refused_without_printing_huge_integers(
        tmp_path, monkeypatch, capsys, group, text):
    scan = tmp_path / "descriptors"
    scan.mkdir()
    path = scan / "probe.json"
    path.write_text(json.dumps({"group": group}), encoding="utf-8")
    order = GradingGroup.order

    def bounded(self):
        assert self.ngens < 9, "order multiplied out past the generator bound"
        return order.fget(self)

    monkeypatch.setattr(GradingGroup, "order", property(bounded))
    assert main(["check", str(path)]) == 3
    assert f"error: {text}\n" == capsys.readouterr().err
    report = tmp_path / "report.json"
    assert main(["suite", str(scan), "--report", str(report)]) == 1
    [row] = json.loads(report.read_text())["rows"]
    assert row["error"] == text


@pytest.mark.parametrize("rank, code", [(2, 0), (3, 3)])
def test_a_group_of_order_4_has_at_most_two_generators(tmp_path, rank, code):
    path = tmp_path / "z2-power.json"
    path.write_text(json.dumps({"group": {"torsion": [2] * rank}}), encoding="utf-8")
    assert main(["check", str(path), "--max-group-order", "4"]) == code


@pytest.mark.parametrize("free_rank", [1, 2, int("9" * 4300)],
                         ids=["1", "2", "4300-digit"])
def test_a_free_rank_is_refused_before_any_check(tmp_path, monkeypatch, capsys,
                                                 free_rank):
    # grading groups are finite: the field is named, its value not printed
    scan = tmp_path / "descriptors"
    scan.mkdir()
    path = scan / "free.json"
    path.write_text(json.dumps({"group": {"free_rank": free_rank, "torsion": [2]}}),
                    encoding="utf-8")

    def refused(group):
        raise AssertionError("a check ran on a refused descriptor")

    monkeypatch.setattr("qgraded.cli.check_hopf_axioms", refused)
    text = f"{path}: free_rank must be 0: grading groups are finite"
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {text}\n"
    report = tmp_path / "report.json"
    assert main(["suite", str(scan), "--report", str(report)]) == 1
    [row] = json.loads(report.read_text())["rows"]
    assert row["error"] == text


def test_suite_does_not_hide_an_internal_consistency_error(monkeypatch):
    def broken(algebra):
        raise InternalConsistencyError("planted")

    monkeypatch.setattr("qgraded.cli.check_equivalence_theorem", broken)
    with pytest.raises(InternalConsistencyError, match="planted"):
        main(["suite", str(CORPUS)])


def test_generate_does_not_hide_an_internal_consistency_error(monkeypatch):
    def broken(m):
        raise InternalConsistencyError("planted")

    monkeypatch.setattr("qgraded.cli.build_truncated_poly", broken)
    with pytest.raises(InternalConsistencyError, match="planted"):
        main(["generate", "truncated-poly"])


@pytest.mark.parametrize("argv", [
    ["generate", "truncated-poly", "--report", "r.json"],
    ["generate", "truncated-poly", "--max-group-order", "0"],
    ["suite", "corpus", "--verbose"],
])
def test_options_a_subcommand_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_generate_rejects_a_boolean_matrix_entry(tmp_path, capsys):
    assert main(["generate", "twisted-group-algebra", "--n", "2", "--N", "1",
                 "--sigma", "[[true]]", "--omega", "[[0]]",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert "factor.sigma" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def _set_path(data, path, value):
    *outer, last = path
    for key in outer:
        data = data[key]
    data[last] = value


@pytest.mark.parametrize("path,value,field", [
    (("group", "free_rank"), False, "free_rank"),
    (("group", "torsion", 0), True, "torsion"),
    (("algebra", "basis", 1, "grade", 0), True, "algebra.basis[1].grade"),
    (("algebra", "products", 1, "left"), False, "algebra.products[1].left"),
    (("algebra", "products", 0, "right"), False, "algebra.products[0].right"),
    (("algebra", "products", 0, "result", 0, "basis"), False,
     "algebra.products[0].result[0].basis"),
    (("factor", "sigma", 0, 0), False, "factor.sigma"),
    (("factor", "omega", 0, 0), False, "factor.omega"),
    (("algebra", "name"), ["twisted"], "algebra.name"),
])
def test_check_rejects_booleans_for_integers_and_non_string_names(
        tmp_path, capsys, path, value, field):
    data = json.loads((CORPUS / "twisted-z2-trivial.json").read_text())
    _set_path(data, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("alias", ["00", "+0", " 0", "0_0"])
def test_check_rejects_a_unit_key_that_aliases_index_zero(tmp_path, capsys,
                                                          alias):
    # int() reads each of these as 0, so the last key would silently win
    data = json.loads((CORPUS / "twisted-z2-trivial.json").read_text())
    data["algebra"]["unit"] = {"0": "5", alias: "1"}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert "algebra.unit" in capsys.readouterr().err


def test_check_rejects_a_repeated_basis_index_in_one_product(tmp_path, capsys):
    # u*u given twice on basis index 0: the last term would silently win
    data = json.loads((CORPUS / "twisted-z2-trivial.json").read_text())
    entry = data["algebra"]["products"][3]
    assert (entry["left"], entry["right"]) == (1, 1)
    entry["result"] = [{"basis": 0, "coeff": "5"}, {"basis": 0, "coeff": "1"}]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert "algebra.products[3].result[1].basis" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "suite", "generate"])
def test_an_unwritable_output_path_exits_2_naming_it(tmp_path, capsys, command):
    target = tmp_path / "missing" / "out.json"
    scan = tmp_path / "descriptors"
    scan.mkdir()
    shutil.copy(CORPUS / "twisted-z2-trivial.json", scan)
    argv = {"check": ["check", str(scan / "twisted-z2-trivial.json"),
                      "--report", str(target)],
            "suite": ["suite", str(scan), "--report", str(target)],
            "generate": ["generate", "truncated-poly", "--m", "3", "--out", str(target)],
            }[command]
    assert main(argv) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(target) in line
    assert not target.exists()


@pytest.mark.parametrize("command, work", [
    ("check", "check_hopf_axioms"),
    ("suite", "check_equivalence_theorem"),
    ("generate", "build_truncated_poly"),
])
def test_an_unwritable_output_path_is_refused_before_any_work(
        tmp_path, monkeypatch, capsys, command, work):
    def refused(*args, **kwargs):
        raise AssertionError("work ran before the output path was refused")

    monkeypatch.setattr(f"qgraded.cli.{work}", refused)
    target = tmp_path / "missing" / "out.json"
    path = CORPUS / "twisted-z2-trivial.json"
    argv = {"check": ["check", str(path), "--report", str(target)],
            "suite": ["suite", str(CORPUS), "--report", str(target)],
            "generate": ["generate", "truncated-poly", "--m", "3", "--out", str(target)],
            }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        f"error: cannot write {target}: No such file or directory\n"


def test_the_output_probe_truncates_nothing_and_leaves_no_file(tmp_path, monkeypatch):
    def crash(group):
        raise RuntimeError("crash during the checks")

    monkeypatch.setattr("qgraded.cli.check_hopf_axioms", crash)
    path = str(CORPUS / "twisted-z2-trivial.json")
    fresh, old = tmp_path / "fresh.json", tmp_path / "old.json"
    old.write_text("old report", encoding="utf-8")
    for report in (fresh, old):
        with pytest.raises(RuntimeError, match="crash"):
            main(["check", path, "--report", str(report)])
    assert not fresh.exists()
    assert old.read_text(encoding="utf-8") == "old report"


def test_check_reports_a_failing_quantum_commutativity_row(tmp_path):
    # with b(xi, xi) = -1 and no crossing pair, u(1)*u(1) = 1 is not -1
    out, report = tmp_path / "fermion.json", tmp_path / "report.json"
    assert main(["generate", "twisted-group-algebra", "--n", "2", "--N", "1",
                 "--sigma", "[[1]]", "--out", str(out)]) == 0
    assert main(["check", str(out), "--expect", "not-quantum-commutative",
                 "--report", str(report)]) == 0
    rows = {r["id"]: r for r in json.loads(report.read_text())["checks"]}
    row = rows["algebra.quantum-commutativity"]
    assert row["verdict"] is False and row["passed"] is True
    assert row["witness"] == "(u(1), u(1))"


def test_generate_writes_the_same_bytes_to_stdout(tmp_path, capsys):
    argv = ["generate", "twisted-group-algebra", "--n", "3", "--N", "2",
            "--omega", "[[0,1],[-1,0]]", "--q", "zeta(3)"]
    out = tmp_path / "gen.json"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


def test_suite_on_a_missing_directory_exits_2(tmp_path, capsys):
    assert main(["suite", str(tmp_path / "missing")]) == 2
    assert "is not a directory" in capsys.readouterr().err


def test_suite_names_a_descriptor_without_an_algebra(tmp_path):
    data = json.loads((CORPUS / "twisted-z2-trivial.json").read_text())
    del data["algebra"]
    scan = tmp_path / "descriptors"
    scan.mkdir()
    (scan / "factor-only.json").write_text(json.dumps(data), encoding="utf-8")
    report = tmp_path / "suite.json"
    assert main(["suite", str(scan), "--report", str(report)]) == 1
    [row] = json.loads(report.read_text())["rows"]
    assert row["error"] == "no algebra in descriptor"
    assert row["strong"] is row["galois"] is row["agree"] is None
