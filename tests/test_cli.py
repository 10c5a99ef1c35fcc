"""CLI contract: normal forms, suite reports, tables, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import pstats
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from qmink import cli, kernel
from qmink.checks import SUITE_NAMES, _SUITE_BUILDERS, _run_checks, run_suite
from qmink.cli import ALGEBRAS, EvaluationError, main, normal_form_text
from qmink.reports import SuiteReport

from line_audit import child_env
from reference_parser import (Atom, exprs, reference_evaluate,
                              reference_parse, to_text)
from reporting import deterministic


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_nf_examples(capsys):
    rc, out, _ = run(capsys, "nf", "a[1,2]*a[1,1]", "--algebra", "slq41")
    assert rc == 0 and out.strip() == "q*a[1,1]*a[1,2]"
    rc, out, _ = run(capsys, "nf", "tau[5,1]*tau[5,1]", "--algebra",
                     "chiral-abstract")
    assert rc == 0 and out.strip() == "0"
    rc, out, _ = run(capsys, "nf", "D[1,2]*D12inv", "--algebra", "minkq")
    assert rc == 0 and out.strip() == "1"
    rc, out, _ = run(capsys, "nf", "--algebra", "minkq", "--",
                     "D[1,2]*D12inv - 1")
    assert rc == 0 and out.strip() == "0"


def test_nf_round_trips_through_the_grammar():
    text = normal_form_text("a[2,2]*a[1,1]", "slq41")
    cli._read_syntax(text)  # canonical output is parseable
    assert normal_form_text(text, "slq41") == text


def test_nf_straightening(capsys):
    rc, out, _ = run(capsys, "nf", "D[3,4]*D[1,2]", "--algebra", "grq")
    assert rc == 0 and out.strip() == "q^2*D[1,2]*D[3,4]"
    rc, out, _ = run(capsys, "nf", "D[2,4]*D[1,3]", "--algebra", "grq")
    assert rc == 0
    assert out.strip() == "q^2*D[1,3]*D[2,4] + (-q^3 + q)*D[1,2]*D[3,4]"


def test_nf_chiral_relation(capsys):
    rc, out, _ = run(capsys, "nf",
                     "t[3,2]*t[4,1] - t[4,1]*t[3,2] - (q^-1 - q)*t[4,2]*t[3,1]",
                     "--algebra", "chiral-abstract")
    assert rc == 0 and out.strip() == "0"


def test_nf_errors(capsys):
    rc, _, err = run(capsys, "nf", "a[6,1]", "--algebra", "slq41")
    assert rc == 2 and "a[6,1]" in err
    rc, _, err = run(capsys, "nf", "a[1,2] +", "--algebra", "slq41")
    assert rc == 2 and "column" in err
    rc, _, err = run(capsys, "nf", "D12inv", "--algebra", "grq")
    assert rc == 2 and "minkq" in err
    rc, _, err = run(capsys, "nf", "x0", "--algebra", "slq41")
    assert rc == 2 and "unknown atom name 'x0'" in err


# sha256 of normal_form_text over _nf_corpus(), one output a line, pinned
# so that a change to parsing or evaluation cannot alter any output
NF_SHA256 = \
    "53cffdfea6e7f980b343ec4ec0c8110ca1df9f9704f15cd65a071a54a595ee18"

_NF_ATOMS = {
    "slq41": ["a[%d,%d]" % (i, j) for i in range(1, 6) for j in range(1, 6)]
    + ["D[1,2]", "D[2,5]", "D[5,5]", "Dc[13;24]", "Dc[25;15]"],
    "grq": ["D[%d,%d]" % p for p in ((1, 2), (1, 3), (2, 4), (3, 4), (1, 5),
                                     (4, 5), (5, 5))],
    "minkq": ["D[%d,%d]" % p for p in ((1, 2), (1, 4), (2, 3), (3, 4),
                                       (2, 5), (5, 5))] + ["D12inv"],
    "chiral-abstract": ["t[3,1]", "t[3,2]", "t[4,1]", "t[4,2]", "tau[5,1]",
                        "tau[5,2]"],
}
_NF_CONSTANTS = ["2", "3", "0", "i", "q", "q^-1", "q^2", "-1", "-i",
                 "(1 - q^2)", "(2 + i)", "(q - q)", "7*q^-3"]


def _nf_corpus(n=300, seed=1515):
    """n seeded (algebra, expression) queries, cycling the four algebras;
    constants, atoms, juxtaposition, unary minus and nested sums mix."""
    rng = random.Random(seed)

    def factor(atoms, depth):
        r = rng.random()
        if r < 0.4:
            return rng.choice(_NF_CONSTANTS)
        if r < 0.5 and depth:
            return "(" + expr(atoms, depth - 1) + ")"
        return rng.choice(atoms)

    def product(atoms, depth):
        head = "-" if rng.random() < 0.2 else ""
        return head + "".join(
            (rng.choice(["*", " ", "*"]) if k else "") + factor(atoms, depth)
            for k in range(rng.randint(1, 4)))

    def expr(atoms, depth):
        return "".join((rng.choice([" + ", " - "]) if k else "")
                       + product(atoms, depth)
                       for k in range(rng.randint(1, 3)))

    return [(ALGEBRAS[k % 4], expr(_NF_ATOMS[ALGEBRAS[k % 4]], 1))
            for k in range(n)]


def test_nf_output_digest():
    h = hashlib.sha256()
    for algebra, expr in _nf_corpus():
        h.update(normal_form_text(expr, algebra).encode() + b"\n")
    assert h.hexdigest() == NF_SHA256


def _nf_outcome(expr, algebra):
    try:
        return normal_form_text(expr, algebra)
    except EvaluationError as exc:
        return exc.__class__, str(exc)


def _reference_nf_outcome(expr, algebra):
    """_nf_outcome of the reference tree of expr, each node evaluated in
    the algebra, constants too, and printed as normal_form_text prints."""
    try:
        value = reference_evaluate(reference_parse(expr),
                                   *cli._algebra(algebra))
    except EvaluationError as exc:
        return exc.__class__, str(exc)
    if algebra in ("grq", "minkq"):
        value = value.straightened()
    return value.to_text()


@pytest.mark.parametrize("algebra, expr, expected", [
    ("slq41", "2 3", "6"),
    ("slq41", "(1 - 1)*a[1,1]", "0"),
    ("grq", "q^99999999999999999999*q^-99999999999999999999", "1"),
    ("slq41", "i*i*a[5,1]", "(-1)*a[5,1]"),
    ("minkq", "D12inv*(q - q)", "0"),
    ("minkq", "2 + D12inv*D[1,2] - 3", "0"),
    ("chiral-abstract", "-(q - q^-1) t[3,1] i", "(-i*q + i*q^-1)*t[3,1]"),
    ("slq41", "t[3,1]", (EvaluationError,
                         "atom t[3,1] is not defined in slq41")),
    ("grq", "0*t[4,1] + D12inv", (EvaluationError,
                                  "atom t[4,1] is not defined in grq")),
])
def test_constant_folding_pinned(algebra, expr, expected):
    assert _nf_outcome(expr, algebra) == expected
    assert _reference_nf_outcome(expr, algebra) == expected


@pytest.mark.parametrize("algebra, expr, message", [
    ("chiral-abstract", "Dc[12;34]",
     "atom Dc[12;34] is not defined in chiral-abstract"),
    ("chiral-abstract", "D[1,2] + t[3,1]",
     "atom D[1,2] is not defined in chiral-abstract"),
    ("slq41", "2*D12inv + q", "atom D12inv is not defined in slq41"),
    ("slq41", "tau[5,2]", "atom tau[5,2] is not defined in slq41"),
    ("grq", "a[1,2]", "atom a[1,2] is not defined in grq"),
    ("minkq", "(Dc[12;45] + t[4,1])",
     "atom Dc[12;45] is not defined in minkq"),
])
def test_undefined_atoms_print_as_written(capsys, algebra, expr, message):
    # parser.atom_text writes each atom kind back as the grammar reads it
    rc, out, err = run(capsys, "nf", "--algebra", algebra, "--", expr)
    assert (rc, out, err) == (2, "", "error: %s\n" % message)


# atoms of each algebra, most pairs of them not commuting
_OWN_ATOMS = {
    "slq41": [Atom("a", (1, 1)), Atom("a", (1, 2)), Atom("a", (2, 1)),
              Atom("a", (5, 5)), Atom("D", (1, 2)), Atom("Dc", (1, 2, 3, 4))],
    "grq": [Atom("D", p) for p in ((1, 2), (1, 3), (2, 4), (3, 4), (1, 5))],
    "minkq": [Atom("D", p) for p in ((1, 3), (2, 4), (2, 5))]
    + [Atom("D12inv", ())],
    "chiral-abstract": [Atom(kind, (i, j)) for kind, i in (("t", 3), ("t", 4),
                                                        ("tau", 5))
                        for j in (1, 2)],
}


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(ALGEBRAS).flatmap(lambda algebra: st.tuples(
    st.just(algebra), exprs(3) | exprs(2, _OWN_ATOMS[algebra]))))
def test_constant_folding_matches_elementwise_evaluation(case):
    # parse's folded value prints as the reference tree evaluated node by
    # node, or both raise the same first EvaluationError: most trees over
    # all atoms hold one the algebra does not define, and trees over its
    # own atoms compare values
    algebra, node = case
    expr = to_text(node)
    assert _nf_outcome(expr, algebra) == _reference_nf_outcome(expr, algebra)


_OVERSIZED = [
    ("(" * 3000 + "q" + ")" * 3000, "nested deeper"),
    ("-" * 3000 + "q", "nested deeper"),
    ("9" * 5000, "invalid integer literal"),
    ("9" * 3000 + "*" + "9" * 3000, "more than 4300 digits"),
    # the coefficient is 1 and the exponent has 4,301 digits
    ("q^%s*q^%s*a[1,1]" % ("9" * 4300, "9" * 4300),
     "a number in the result has more than 4300 digits"),
]


@pytest.mark.parametrize("expr, message", _OVERSIZED, ids=[
    "parentheses", "minus-signs", "long-integer", "long-coefficient",
    "long-exponent"])
def test_nf_deep_nesting_is_bad_input(expr, message):
    proc = subprocess.run(
        [sys.executable, "-m", "qmink.cli", "nf", "--algebra", "slq41", "--",
         expr], capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr


# argv that qmink refuses as bad input, exit 2; tests/line_audit.py runs
# them with the other production entry points
BAD_INPUT_ARGV = [
    ["nf", "a[6,1]", "--algebra", "slq41"],
    ["nf", "a[1,2] +", "--algebra", "slq41"],
    ["nf", "a[1,1", "--algebra", "slq41"],
    ["nf", "x0", "--algebra", "slq41"],
    ["nf", "t[3,1]", "--algebra", "slq41"],
    ["nf", "a[1,1]", "--algebra", "chiral-abstract"],
    ["nf", "D12inv", "--algebra", "grq"],
    ["nf", "t[3,1]", "--algebra", "minkq"],
] + [["nf", "--algebra", "slq41", "--", expr] for expr, _m in _OVERSIZED] + [
    ["check", "no-such-suite"],
    ["check", "twistor", "--serial"],
    ["check", "pauli-metric", "--out", os.path.join(os.devnull, "r.json")],
    ["check", "pauli-metric", "--profile", os.path.join(os.devnull, "p")],
]


@pytest.mark.parametrize("argv", BAD_INPUT_ARGV,
                         ids=lambda argv: " ".join(argv)[:32])
def test_bad_input_exits_2(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse refuses the argv
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith(("error: ", "usage: "))
    assert "Traceback" not in err


_REVERSED_GENERATORS = " ".join("a[%d,%d]" % (i, j) for i in range(5, 0, -1)
                                for j in range(5, 0, -1))


def test_nf_past_the_rewrite_budget_is_bad_input(capsys, monkeypatch):
    # no other test multiplies all 25 generators, so some word of this
    # product is not in the memo and needs at least one rewrite step
    monkeypatch.setattr(kernel, "STEP_BUDGET", 0)
    rc, out, err = run(capsys, "nf", _REVERSED_GENERATORS, "--algebra",
                       "slq41")
    assert rc == 2 and out == ""
    assert err.startswith("error: rewrite budget exceeded at ")
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("algebra, expr, budget, message", [
    ("slq41", "t[3,1] +", None, "unexpected end of input (line 1, column 9)"),
    ("grq", "D12inv*D[1,2] - (q", None,
     "expected ')', found end of input (line 1, column 19)"),
    ("slq41", _REVERSED_GENERATORS + " +", 0,
     "unexpected end of input (line 1, column 177)"),
], ids=["undefined-atom", "D12inv-in-grq", "past-the-budget"])
def test_a_syntax_error_is_reported_before_evaluation(
        capsys, monkeypatch, algebra, expr, budget, message):
    # each text also holds an evaluation error: an atom the algebra does
    # not define, or a product past a rewrite budget of 0 steps
    if budget is not None:
        monkeypatch.setattr(kernel, "STEP_BUDGET", budget)
    rc, out, err = run(capsys, "nf", "--algebra", algebra, "--", expr)
    assert (rc, out, err) == (2, "", "error: %s\n" % message)


_FRAGMENTS = ["a[1,2]", "a[5,5]", "a[6,1]", "D[1,2]", "D[3,4]", "D[2,5]",
              "D[5,5]", "D[2,1]", "Dc[12;34]", "Dc[21;34]", "t[3,1]",
              "tau[5,2]", "D12inv", "x0", "q", "q^-2", "q^", "i", "2", "07",
              "-", "+", "*", "(", ")", "[", "]", ",", ";", "^", " "]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALGEBRAS),
       st.lists(st.sampled_from(_FRAGMENTS) | st.characters(), max_size=10))
def test_nf_fuzz_exits_cleanly(algebra, pieces):
    # any text is a normal form (exit 0) or bad input (exit 2), never a
    # traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["nf", "--algebra", algebra, "--", "".join(pieces)])
    assert rc in (0, 2)
    assert (rc == 2) == err.getvalue().startswith("error: ")


def test_check_exit_codes(capsys):
    rc, out, _ = run(capsys, "check", "pauli-metric", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["suite"] == "pauli-metric"
    assert all(r["verdict"] for r in data["records"])


def test_check_profile_flag(capsys, tmp_path):
    path = tmp_path / "suite.pstats"
    rc, out, _ = run(capsys, "check", "su221-dimensions", "--format", "json")
    rc_p, out_p, _ = run(capsys, "check", "su221-dimensions", "--format",
                         "json", "--profile", str(path))
    assert rc_p == rc == 0
    reports = json.loads(out), json.loads(out_p)
    assert deterministic(reports[0]) == deterministic(reports[1])
    stats = pstats.Stats(str(path))
    assert any(fn == "run_suite" for _f, _l, fn in stats.stats)
    rc, _, err = run(capsys, "check", "pauli-metric", "--profile",
                     str(tmp_path / "missing" / "x.pstats"))
    assert rc == 2 and err.startswith("error: ")


def test_check_text_format(capsys):
    rc, out, _ = run(capsys, "check", "su221-dimensions", "--verbose")
    assert rc == 0
    assert "PASS" in out and "fixed-point-dimensions" in out


def test_raising_suite_builder_is_one_failed_record(capsys, monkeypatch):
    # every other suite gets a one-check stub builder, so `all` stays cheap
    # and still shows that the other suites run, in order
    def stub(name):
        return lambda: [(name + "-ran", "", "", lambda: (True, ""))]

    def broken():
        raise RuntimeError("no checks")

    for name in SUITE_NAMES:
        monkeypatch.setitem(_SUITE_BUILDERS, name, stub(name))
    monkeypatch.setitem(_SUITE_BUILDERS, "pauli-metric", broken)
    expected = ["%s/%s-ran" % (name, name) for name in SUITE_NAMES
                if name != "pauli-metric"]
    rc, out, err = run(capsys, "check", "pauli-metric")
    assert rc == 1 and "Traceback" not in out + err
    assert "[FAIL] builder" in out
    assert "witness: exception: RuntimeError('no checks')" in out
    records = run_suite("all").records
    bad = {r.id: r.witness for r in records if not r.verdict}
    assert bad == {"pauli-metric/builder":
                   "exception: RuntimeError('no checks')"}
    assert [r.id for r in records if r.id != "pauli-metric/builder"] == \
        expected


def test_check_unknown_suite():
    with pytest.raises(SystemExit):
        main(["check", "no-such-suite"])


def test_run_suite_refuses_an_unknown_suite():
    # argparse's choices refuse it in the CLI; run_suite names the suites
    with pytest.raises(ValueError, match="unknown suite 'no-such-suite'") \
            as exc:
        run_suite("no-such-suite")
    assert all(name in str(exc.value) for name in SUITE_NAMES + ("'all'",))


# the ways stdout can fail: a pipe whose reader is gone, fd 1 closed (as
# the shell's >&- leaves it, so that sys.stdout is None), and a full
# device, where the system has one
FAILING_STDOUTS = ("pipe", "closed") + (
    ("full",) if os.path.exists("/dev/full") else ())


def run_with_failing_stdout(argv, way):
    """Run qmink argv with the stdout of FAILING_STDOUTS named way;
    returns the exit code and stderr."""
    kwargs = {}
    if way == "pipe":
        read_end, kwargs["stdout"] = os.pipe()
        os.close(read_end)
    elif way == "closed":
        kwargs["preexec_fn"] = lambda: os.close(1)
    else:
        kwargs["stdout"] = os.open("/dev/full", os.O_WRONLY)
    try:
        proc = subprocess.run([sys.executable, "-m", "qmink.cli", *argv],
                              stderr=subprocess.PIPE, env=child_env(),
                              timeout=120, **kwargs)
    finally:
        if "stdout" in kwargs:
            os.close(kwargs["stdout"])
    return proc.returncode, proc.stderr


def test_closed_stdout_is_exit_2_without_traceback():
    # coaction's JSON report is over 64 KiB, more than a pipe holds, so
    # the child is still writing when the reader closes the pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "qmink.cli", "check", "coaction", "--format",
         "json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env())
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        assert proc.wait(timeout=120) == 2
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()
    # each command, each way: a reader that left says nothing, the other
    # two say one error line
    for argv in (["nf", "a[1,2]*a[1,1]", "--algebra", "slq41"],
                 ["check", "pauli-metric"], ["table", "closure"]):
        for way in FAILING_STDOUTS:
            code, err = run_with_failing_stdout(argv, way)
            assert code == 2, (argv, way, err)
            if way == "pipe":
                assert err == b"", argv
            else:
                assert err.startswith(b"error: ") and err.count(b"\n") == 1
                assert b"Traceback" not in err


def test_closed_stdout_still_writes_the_out_file(tmp_path):
    # the report file is written before the report is printed
    path = tmp_path / "r.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "qmink.cli", "check", "coaction", "--format",
         "json", "--out", str(path)], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=child_env())
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        assert proc.wait(timeout=120) == 2
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()
    assert len(json.loads(path.read_text())["records"]) == 320
    for way in FAILING_STDOUTS:
        path = tmp_path / ("%s.json" % way)
        code, err = run_with_failing_stdout(
            ["check", "pauli-metric", "--format", "json", "--out", str(path)],
            way)
        assert code == 2 and b"Traceback" not in err, way
        assert len(json.loads(path.read_text())["records"]) == 3, way


# the ways a child's stderr cannot be written: closed, and the full
# device, where the system has one
FAILING_STDERRS = ("closed",) + (
    ("full",) if os.path.exists("/dev/full") else ())


@pytest.mark.parametrize("way", FAILING_STDERRS)
@pytest.mark.parametrize("argv", [
    ["nf", "a[6,1]", "--algebra", "slq41"],
    ["check", "pauli-metric", "--out", "{tmp}/no-such-dir/r.txt"],
], ids=["nf-bad-input", "check-bad-out"])
def test_unwritable_stderr_keeps_exit_2(tmp_path, argv, way):
    # the error line is lost, but "bad input" stays exit 2, not the 1 of
    # a false claim; check still prints its report
    argv = [a.format(tmp=tmp_path) for a in argv]
    kwargs = {}
    if way == "closed":
        kwargs["preexec_fn"] = lambda: os.close(2)
    else:
        kwargs["stderr"] = os.open("/dev/full", os.O_WRONLY)
    try:
        proc = subprocess.run([sys.executable, "-m", "qmink.cli", *argv],
                              stdout=subprocess.PIPE, env=child_env(),
                              timeout=120, **kwargs)
    finally:
        if "stderr" in kwargs:
            os.close(kwargs["stderr"])
    assert proc.returncode == 2, way
    if argv[0] == "check":
        assert proc.stdout.startswith(b"suite pauli-metric: PASS")
    else:
        assert proc.stdout == b""


def test_nf_of_a_deep_word_is_not_bounded_by_recursion():
    # a[1,2]^1500 * a[1,1] moves a[1,1] past 1,500 letters, one rewrite
    # for each; a recursive kernel ends in RecursionError on it
    expr = "*".join(["a[1,2]"] * 1500 + ["a[1,1]"])
    proc = subprocess.run([sys.executable, "-m", "qmink.cli", "nf", expr,
                           "--algebra", "slq41"], capture_output=True,
                          text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "*".join(["q^1500", "a[1,1]"] + ["a[1,2]"] * 1500) \
        + "\n"


def test_import_loads_neither_dataclasses_nor_inspect():
    # every process imports these two modules first, so their imports are
    # paid on each check and each one-shot nf; dataclasses alone, with
    # inspect, ast, dis and tokenize behind it, took nearly a quarter of it
    code = ("import sys; before = set(sys.modules); "
            "import qmink.checks, qmink.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), timeout=60, check=True)
    new = set(proc.stdout.split())
    assert {"qmink.checks", "qmink.cli"} <= new
    assert not new & {"dataclasses", "inspect"}


def test_serial_flag_is_a_usage_error(capsys):
    # --serial was accepted and ignored; now argparse refuses it
    with pytest.raises(SystemExit) as exc:
        main(["check", "twistor", "--serial"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "--serial" in err
    assert "Traceback" not in err
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert "--serial" not in capsys.readouterr().out


def test_report_determinism():
    # the same checks twice: first on a cold normal-form memo, then warm
    checks = _SUITE_BUILDERS["sct-inversion"]()
    rep1 = SuiteReport("sct-inversion", _run_checks(checks))
    rep2 = SuiteReport("sct-inversion", _run_checks(checks))
    d1, d2 = (deterministic(json.loads(rep.to_json(indent=2)))
              for rep in (rep1, rep2))
    assert d1 == d2


def test_check_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc, out, _ = run(capsys, "check", "twistor", "--format", "json",
                     "--out", str(path))
    assert rc == 0
    data = json.loads(path.read_text())
    assert data["suite"] == "twistor" and data["passed"]
    rc, _, err = run(capsys, "check", "pauli-metric", "--out",
                     str(tmp_path / "missing" / "report.json"))
    assert rc == 2 and err.startswith("error: ")


# sha256 of the full JSON output of each table, pinned so that every
# entry is checked, not a sample
CLOSURE_JSON_SHA256 = \
    "2e6ad1494c55808b8ca5b93c505d99479248eb5267160240114bfcd344eca9dc"
CONFORMAL_JSON_SHA256 = \
    "e57d546877dbf78920cd17dda6a18c2c55c885b5f753d7c23c4f3a6462dc6ccf"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_table_closure(capsys):
    rc, out, _ = run(capsys, "table", "closure", "--format", "json")
    assert rc == 0
    assert sha256(out) == CLOSURE_JSON_SHA256
    data = json.loads(out)
    assert data["all_ok"] is True
    assert len(data["entries"]) == 66
    by_pair = {(e["left"], e["right"]): e for e in data["entries"]}
    e = by_pair[("D[3,4]", "D[1,2]")]
    assert e["sign"] == 1 and e["exponent"] == 2 and e["correction"] == ""
    rc, out, _ = run(capsys, "table", "closure")
    assert rc == 0 and "all entries resolve: True" in out


def test_closure_table_lines_read_back_as_identities(capsys):
    # each printed identity, fed back to nf, holds in grq: a correction
    # whose coefficient is a sum prints in parentheses, as nf prints it
    rc, out, _ = run(capsys, "table", "closure")
    assert rc == 0
    lines = [line for line in out.splitlines()[1:-1]
             if not line.endswith(" = trivial")]
    assert len(lines) == 60
    for line in lines:
        lhs, rhs = line.split(" = ")
        if lhs.endswith("^2"):
            lhs = "%s*%s" % (lhs[:-2], lhs[:-2])
        assert normal_form_text(rhs, "grq") == normal_form_text(lhs, "grq"), \
            line


def test_table_conformal(capsys):
    rc, out, _ = run(capsys, "table", "conformal", "--format", "json")
    assert rc == 0
    assert sha256(out) == CONFORMAL_JSON_SHA256
    data = json.loads(out)
    assert data["closed"] is True
    assert len(data["entries"]) == 105
    by_pair = {(e["left"], e["right"]): e["bracket"] for e in data["entries"]}
    assert by_pair[("P0", "P1")] == "0"
    assert by_pair[("P0", "D")] == "P0"
