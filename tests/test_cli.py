import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from planalg import analysis, config, suites
from planalg.cli import OPS, main
from planalg.config import Config
from planalg.diagrams import Diagram
from planalg.elements import Element
from planalg.scalars import Ring
from planalg.tower import GradedElement, phi, sharp, trace_Tr


def write_json(path, data):
    path.write_text(json.dumps(data))


@pytest.fixture
def sym_elements(tmp_path, sym):
    cup = Element.basis(Diagram(2, [(1, 2), (3, 4)]), sym)
    one = Element.unit(2, sym)
    a = GradedElement.of_element(1, cup)
    b = GradedElement.of_element(1, one)
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    write_json(pa, a.to_json())
    write_json(pb, b.to_json())
    return a, b, pa, pb


def test_compute_sharp(tmp_path, sym, sym_elements, capsys):
    a, b, pa, pb = sym_elements
    out = tmp_path / "prod.json"
    assert main(["compute", "sharp", str(pa), str(pb), "--out", str(out)]) == 0
    result = GradedElement.from_json(json.loads(out.read_text()))
    assert result == sharp(a, b)


def test_compute_trace_scalar(sym_elements, capsys):
    a, _b, pa, _pb = sym_elements
    assert main(["compute", "trace-tk", str(pa)]) == 0
    captured = capsys.readouterr().out.strip()
    assert captured == "0"          # no level-1 component


def test_compute_tau(tmp_path, sym, capsys):
    cup = Element.basis(Diagram(2, [(1, 2), (3, 4)]), sym)
    p = tmp_path / "x.json"
    write_json(p, cup.to_json())
    assert main(["compute", "tau", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "d^-1"


def test_tangle_eval(tmp_path, sym, capsys):
    dsl = tmp_path / "t.dsl"
    dsl.write_text("ext 2\nbox b1 2\nstrand e1-b1.1 e2-b1.2 e3-b1.3 e4-b1.4\n")
    x = Element.basis(Diagram(2, [(1, 2), (3, 4)]), sym)
    px = tmp_path / "x.json"
    write_json(px, x.to_json())
    out = tmp_path / "y.json"
    assert main(["tangle", "eval", str(dsl), str(px), "--out", str(out)]) == 0
    assert Element.from_json(json.loads(out.read_text())) == x
    assert main(["tangle", "validate", str(dsl)]) == 0
    assert capsys.readouterr().out.strip().endswith("ok")


def test_exit_codes(tmp_path, capsys):
    bad_dsl = tmp_path / "bad.dsl"
    bad_dsl.write_text("ext 1\nstrand e1-\n")
    assert main(["tangle", "validate", str(bad_dsl)]) == 1       # parse error
    crossing = tmp_path / "crossing.dsl"
    crossing.write_text("ext 2\nstrand e1-e3 e2-e4\n")
    assert main(["tangle", "validate", str(crossing)]) == 2      # precondition
    bad_json = tmp_path / "x.json"
    bad_json.write_text("{not json")
    assert main(["compute", "tau", str(bad_json)]) == 1
    assert main(["dims", "--max-colour", "99"]) == 2
    capsys.readouterr()
    assert main(["dims", "--max-colour", "-1"]) == 2               # no bare header
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("precondition violation: ") and err.count("\n") == 1


def assert_one_line_parse_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1


def test_missing_tangle_file(tmp_path, capsys):
    assert main(["tangle", "validate", str(tmp_path / "missing.dsl")]) == 1
    assert_one_line_parse_error(capsys)


INF = float("inf")


def one_term(coeff):
    return {"colour": 1, "terms": [{"pairs": [[1, 2]], "coeff": coeff}]}


BAD_COEFF = {"colour": 1, "terms": [{"pairs": [[1, 2]],
                                     "coeff": {"mode": "symbolic",
                                               "terms": [[0, "x/y"]]}}]}


@pytest.mark.parametrize("op, data", [
    ("tau", {"colour": 2}),                             # no "terms"
    ("tau", [{"colour": 2, "terms": []}]),              # a list, not an object
    ("tau", "P_2"),
    ("tau", BAD_COEFF),                                 # bad coefficient literal
    ("tau", {"colour": 1, "terms": [{"pairs": [[1, 2]], "coeff": {
        "mode": "rational", "value": "1/0", "delta": "2"}}]}),
    ("dagger", {"level": 1}),                           # graded, no "components"
    ("dagger", {"level": 1, "components": {"1": BAD_COEFF}}),
    ("dagger", {"level": 1, "components": []}),         # a list, not an object
    # a literal such as 1e400 reads as inf, which Fraction and int overflow on
    ("tau", one_term({"mode": "rational", "value": INF, "delta": "2"})),
    ("tau", one_term({"mode": "rational", "value": "1", "delta": INF})),
    ("tau", one_term({"mode": "symbolic", "terms": [[0, INF]]})),
    ("tau", one_term({"mode": "symbolic", "terms": [[INF, 1]]})),
    # float mode reads inf (a 1e400 literal too) and nan; neither is a value
    ("tau", one_term({"mode": "float", "value": INF, "delta": 2.0})),
    ("tau", one_term({"mode": "float", "value": float("nan"), "delta": 2.0})),
    ("tau", one_term({"mode": "float", "value": 1.0, "delta": INF})),
    ("tau", one_term({"mode": "float", "value": "-inf", "delta": 2.0})),
    # colours above the cap are refused before any point is allocated
    ("tau", {"colour": config.COLOUR_CAP + 1, "terms": []}),
    ("dagger", {"level": 0, "components": {
        str(config.COLOUR_CAP + 1): {"colour": config.COLOUR_CAP + 1, "terms": []}}}),
])
def test_malformed_json_is_a_parse_error(tmp_path, capsys, op, data):
    path = tmp_path / "x.json"
    write_json(path, data)
    assert main(["compute", op, str(path)]) == 1
    assert_one_line_parse_error(capsys)


@pytest.mark.parametrize("pairs", [
    [[1.0, 4.0], [2.0, 3.0]],       # float endpoints
    [[1, 4, 2], [2, 3]],            # a third entry
    [[True, 4], [2, 3]],            # a bool endpoint
], ids=["float", "three-entries", "bool"])
@pytest.mark.parametrize("argv", [["multiply", "f", "f"], ["inner", "f", "f"],
                                  ["dagger", "f"]], ids=["multiply", "inner", "dagger"])
def test_malformed_pair_endpoints_are_a_precondition_violation(tmp_path, capsys,
                                                               pairs, argv):
    path = tmp_path / "f.json"
    write_json(path, {"colour": 2, "terms": [
        {"pairs": pairs, "coeff": {"mode": "symbolic", "terms": [[0, 1]]}}]})
    assert main(["compute"] + [str(path) if a == "f" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition violation: pair ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["tau"], ["tau", "f", "f"],                         # unary
    ["multiply", "f"], ["multiply", "f", "f", "f"],     # binary
    ["sharp"], ["sharp", "f", "f", "f"],
    ["phi"], ["phi", "f", "f"],
], ids="-".join)
def test_compute_with_the_wrong_number_of_inputs_is_a_precondition_violation(
        tmp_path, capsys, argv):
    # the count is checked before any file is read: a missing one is not met
    missing = str(tmp_path / "missing.json")
    assert main(["compute"] + [missing if a == "f" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err == (f"precondition violation: {argv[0]} takes "
                   f"{2 if argv[0] in ('multiply', 'sharp') else 1} input file(s), "
                   f"got {len(argv) - 1}\n")


@pytest.mark.parametrize("argv", [["tau", "f"], ["sharp", "f", "f"]], ids="-".join)
def test_compute_refuses_a_level_it_would_ignore(tmp_path, capsys, argv):
    # only phi/psi read --level; it is refused before any file is read
    missing = str(tmp_path / "missing.json")
    argv = ["compute"] + [missing if a == "f" else a for a in argv] + ["--level", "7"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"precondition violation: {argv[1]} takes no --level\n")


def test_compute_help_lists_the_operations_of_the_table(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["compute", "--help"])
    assert exit_.value.code == 0
    # argparse may wrap the list, even at a hyphen
    assert "oneof:" + ",".join(OPS) in "".join(capsys.readouterr().out.split())
    assert set(OPS) == {"sharp", "bullet", "dot", "inner", "dagger", "include",
                        "expect", "trace-tk", "trace-gr", "phi", "psi",
                        "multiply", "star", "tau"}


def test_compute_phi_reads_the_level(tmp_path, sym_elements, capsys):
    a, _b, pa, _pb = sym_elements
    out = tmp_path / "phi.json"
    assert main(["compute", "phi", str(pa), "--level", "1", "--out", str(out)]) == 0
    assert GradedElement.from_json(json.loads(out.read_text())) == phi(1, a)
    assert main(["compute", "phi", str(pa), "--level", "2"]) == 2
    assert "phi level must match" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["positivity", "filtalg"])
def test_verify_bad_delta_is_a_parse_error(capsys, suite):
    assert main(["verify", suite, "--delta", "abc"]) == 1
    assert_one_line_parse_error(capsys)


def test_verify_non_finite_delta_is_a_parse_error(capsys):
    assert main(["verify", "positivity", "--delta", "1.0e400"]) == 1
    assert_one_line_parse_error(capsys)


@pytest.mark.parametrize("suite, delta", [
    ("estimates", "1e155"), ("positivity", "1e155"), ("estimates", "1e154"),
], ids=["estimates-overflow", "positivity-overflow", "estimates-numpy"])
def test_verify_huge_float_delta_is_a_precondition_violation(capsys, recwarn, suite, delta):
    # 1e155 overflows a power of delta, 1e154 a numpy sum in the GNS operator;
    # no numpy warning may print ahead of the one line
    assert main(["verify", suite, "--delta", delta, "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition violation: float arithmetic failed")
    assert err.count("\n") == 1 and not recwarn.list


def test_library_path_raises_on_a_float_overflow(recwarn):
    # the float policy lives in the numeric suites, so run_suites raises
    # as `pa` does, and leaves numpy's error state as it found it
    with pytest.raises(FloatingPointError):
        suites.run_suites(["estimates"], Config(delta="1e154", trials=1))
    assert not recwarn.list
    assert np.geterr()["over"] == "warn" and np.geterr()["invalid"] == "warn"


def test_verify_all_float_overflow_in_a_worker_exits_2(capsys, recwarn):
    assert main(["verify", "all", "--delta", "1e154", "--trials", "1",
                 "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition violation: float arithmetic failed")
    assert err.count("\n") == 1 and not recwarn.list


def test_verify_failure_exit_code(monkeypatch, capsys):
    # the failing footer counts the failing rows, not every row
    monkeypatch.setitem(suites.SUITES, "annular", lambda cfg: [
        suites._row("annular.fake", {}, False), suites._row("annular.fake_pass", {}, True),
        suites._row("annular.fake_fail", {}, False)])
    assert main(["verify", "annular"]) == 4
    out = capsys.readouterr().out
    assert out.endswith("\nFAILURES (2 of 3 checks failed, seed 42)\n")


def test_verify_rejects_zero_jobs(capsys):
    assert main(["verify", "annular", "--jobs", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition violation: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "annular", "--max-colour", "-1", "--trials", "1"],
    ["verify", "filtalg", "--trials", "0"],
    ["verify", "filtalg", "--max-colour", "-3", "--trials", "1"],
    ["verify", "gjs-iso", "--trials", "-2"],
], ids=["annular-colour-1", "filtalg-trials0", "filtalg-colour-3", "gjs-trials-2"])
def test_verify_rejects_bad_sizes(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precondition violation: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "filtalg", "--max-colour", "1", "--trials", "1"],
    ["verify", "gjs-iso", "--level", "1", "--max-colour", "0", "--trials", "1"],
    ["verify", "jones", "--level", "1", "--max-colour", "0", "--trials", "1"],
    ["verify", "jones", "--level", "0", "--max-colour", "0", "--trials", "1"],
    ["verify", "all", "--max-colour", "1", "--trials", "1"],
], ids=["filtalg-2-1", "gjs-1-0", "jones-1-0", "jones-0-0", "all-2-1"])
def test_verify_rejects_a_level_above_the_max_colour(capsys, argv):
    # each would pass its trial rows on zero elements
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precondition violation: max colour ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "gjs-iso", "--level", "1", "--max-colour", "1", "--trials", "1"],
    ["verify", "jones", "--level", "0", "--max-colour", "1", "--trials", "1"],
], ids=["gjs-1-1", "jones-0-1"])
def test_verify_accepts_a_max_colour_at_the_level(capsys, argv):
    assert main(argv) == 0
    assert "all passed" in capsys.readouterr().out


def test_verify_accepts_colour_zero(capsys):
    assert main(["verify", "annular", "--max-colour", "0", "--trials", "1"]) == 0
    assert "PASS annular.rotation_unitary \n" in capsys.readouterr().out


def test_negative_cap_is_a_precondition_violation(capsys):
    assert main(["--cap", "-1", "dims", "--max-colour", "2"]) == 2
    assert capsys.readouterr().err == \
        "precondition violation: colour cap must be non-negative\n"


def test_a_failing_clause_fails_only_its_own_rows(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(suites, "trace_Tr", lambda a: trace_Tr(a) + a.ring.one())
    out = tmp_path / "rep.json"
    assert main(["verify", "gjs-iso", "--level", "1", "--max-colour", "3",
                 "--trials", "2", "--out", str(out)]) == 4
    assert "FAIL gjs.trace k=0 trials=2  [0/2 exact]" in capsys.readouterr().out
    rows = json.loads(out.read_text())["checks"]
    failed = [row for row in rows if row["status"] == "fail"]
    assert [row["check"] for row in failed] == ["gjs.trace", "gjs.trace"]
    assert all(row["details"] == "0/2 exact" for row in failed)
    passed = [row for row in rows if row["status"] == "pass"]
    assert {row["check"] for row in passed} == {
        "gjs.inverse", "gjs.multiplicative", "gjs.star"}
    assert all(row["details"] == "2/2 exact" for row in passed)


def test_a_lemma_row_keeps_the_residual_of_a_non_self_adjoint_lhs(monkeypatch, tmp_path,
                                                                   capsys):
    # every GNS operator above colour 0 made asymmetric: each left-hand side
    # of the lemma grid is then not self-adjoint and must still report a residual
    operator = analysis.GnsGeometry.operator
    monkeypatch.setattr(analysis.GnsGeometry, "operator",
                        lambda geo, x: operator(geo, x) + np.triu(np.ones(geo.chol.shape), 1))
    monkeypatch.setattr(analysis, "boundedness_verify",
                        lambda a, k, trials, rng: {"status": "pass"})
    reports, verify = [], analysis.estimate_lemma_verify
    monkeypatch.setattr(analysis, "estimate_lemma_verify",
                        lambda *args: reports.append(verify(*args)) or reports[-1])
    out = tmp_path / "rep.json"
    assert main(["verify", "estimates", "--delta", "2.5", "--trials", "1",
                 "--out", str(out)]) == 4
    residuals = [rep["max_residual"] for rep in reports]
    assert len(residuals) == 10 and all(math.isfinite(r) for r in residuals)
    assert any(math.isnan(rep["min_eigenvalue"]) for rep in reports)
    row, = [row for row in json.loads(out.read_text())["checks"]
            if row["check"] == "estimates.lemma_grid"]
    assert row["status"] == "fail"
    assert row["max_residual"] == max(residuals) > 0
    assert f"max residual {max(residuals):.2e}" in capsys.readouterr().out


def test_jobs_are_capped_at_the_number_of_suites(monkeypatch):
    import concurrent.futures
    asked = []

    class Recorder:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    cfg = Config(seed=42, trials=1, level=0)
    suites.run_suites(("annular", "commutant-replay"), cfg, jobs=64)
    suites.run_suites(("annular", "commutant-replay"), cfg, jobs=2)
    assert asked == [2, 2]


def test_report_does_not_depend_on_jobs():
    cfg = Config(seed=42, trials=2, level=1)
    reports = [json.dumps(suites.run_suites(("annular", "commutant-replay"), cfg,
                                            jobs=jobs), sort_keys=True)
               for jobs in (1, 2)]
    assert reports[0] == reports[1]


def test_dims_output(capsys):
    assert main(["dims", "--max-colour", "4"]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == [1, 1, 2, 5, 14]


def test_verify_single_suite(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["verify", "positivity", "--trials", "3", "--json",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "pass"
    assert all(row["status"] == "pass" for row in report["checks"])
    capsys.readouterr()


def test_verify_delta_guard(capsys):
    # positivity suites require delta >= 2 in numeric mode
    assert main(["verify", "positivity", "--delta", "3/2"]) == 2
    capsys.readouterr()


_SYMBOLIC_ONLY = """
import sys
import planalg.cli, planalg.suites
from planalg.config import Config
loaded = ["numpy" in sys.modules]
planalg.suites.run_suites(("filtalg", "annular", "gjs-iso", "jones"),
                          Config(seed=42, trials=1, max_colour=3))
loaded.append("numpy" in sys.modules)
assert planalg.cli.main(["dims"]) == 0
loaded.append("numpy" in sys.modules)
planalg.suites.run_suites(("positivity",), Config(seed=42, trials=1))
loaded.append("numpy" in sys.modules)
sys.stderr.write(repr(loaded))
"""


def test_only_the_numeric_suites_load_numpy():
    # after the imports, the symbolic suites and `pa dims`; then one numeric suite
    src = str(Path(analysis.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", _SYMBOLIC_ONLY], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[False, False, False, True]"


def test_installed_script_runs():
    proc = subprocess.run([sys.executable, "-m", "planalg.cli", "dims",
                           "--max-colour", "3"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "5" in proc.stdout
