import importlib.util
from pathlib import Path

import pytest

from qgraded.algebras import build_group_algebra
from qgraded.corpus import CorpusEntry
from qgraded.groups import GradingGroup

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(name, directory=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_equivalence_suite_reports_a_non_bijective_iterate(monkeypatch, capsys):
    # the check must not be an assert, which python -O strips
    suite = _load("run_equivalence_suite")
    A = build_group_algebra(GradingGroup(0, (2,)))
    monkeypatch.setattr(suite, "standard_corpus",
                        lambda: [CorpusEntry("group-algebra-z2", A, None, True)])
    beta_n = suite.beta_n

    def empty_first_column(bmap):
        width = bmap.starts[1]
        del bmap.positions[:width], bmap.values[:width]
        bmap.starts[1:] = [start - width for start in bmap.starts[1:]]

    def first_two_columns_on_one_row(bmap):
        # still monomial, so the rank is counted, not eliminated
        assert bmap.starts[:3] == [0, 1, 2]
        bmap.positions[1] = bmap.positions[0]

    for breaks in (empty_first_column, first_two_columns_on_one_row):
        def broken_beta_n(algebra, n, **kw):
            bmap = beta_n(algebra, n, **kw)
            if n == 2:
                breaks(bmap)
            return bmap

        monkeypatch.setattr(suite, "beta_n", broken_beta_n)
        monkeypatch.setattr("sys.argv", ["run_equivalence_suite.py", "--beta", "2"])
        assert suite.main() == 1, breaks.__name__
        out = capsys.readouterr().out
        assert "FAIL: beta^2 of group-algebra-z2 is not bijective" in out
        assert "iterates 1..2 bijective" not in out
        assert "1 non-bijective iterates" in out


def test_equivalence_suite_rejects_a_negative_depth(monkeypatch, capsys):
    suite = _load("run_equivalence_suite")
    monkeypatch.setattr("sys.argv", ["run_equivalence_suite.py", "--beta", "-1"])
    with pytest.raises(SystemExit) as exc:
        suite.main()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--beta" in captured.err
    assert "bijective" not in captured.out


def test_equivalence_suite_refuses_a_depth_above_the_cap(monkeypatch, capsys):
    suite = _load("run_equivalence_suite")

    def unreachable(*args, **kwargs):
        raise AssertionError("built something before checking the cap")

    monkeypatch.setattr(suite, "standard_corpus", unreachable)
    monkeypatch.setattr(suite, "beta_n", unreachable)
    monkeypatch.setattr("sys.argv", ["run_equivalence_suite.py", "--beta", "5"])
    assert suite.main() == 3
    captured = capsys.readouterr()
    assert captured.err == "error: beta iterate 5 exceeds the configured cap 4\n"
    assert captured.out == ""


def test_perfbench_tracer_wraps_and_restores_every_entry_point():
    # a deletion that drops a traced entry point must fail here, not only
    # print "not traced" in a benchmark run
    import qgraded.cli  # noqa: F401  (the traced modules must be loaded)
    tracer = _load("tracing", ROOT / "perfbench").Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        assert tracer.remove() == []
