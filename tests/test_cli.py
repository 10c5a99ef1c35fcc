"""CLI contract: normal forms, suite reports, tables, exit codes."""

import json
import subprocess
import sys

import pytest

from qmink.checks import _SUITE_BUILDERS, _run_checks
from qmink.cli import main, normal_form_text
from qmink.reports import SuiteReport


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


def test_nf_round_trips_through_the_grammar():
    from qmink.parser import parse
    text = normal_form_text("a[2,2]*a[1,1]", "slq41")
    parse(text)  # canonical output is parseable
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
    assert rc == 2


@pytest.mark.parametrize("expr", ["(" * 3000 + "q" + ")" * 3000,
                                  "-" * 3000 + "q"],
                         ids=["parentheses", "minus-signs"])
def test_nf_deep_nesting_is_bad_input(expr):
    proc = subprocess.run(
        [sys.executable, "-m", "qmink.cli", "nf", "--algebra", "slq41", "--",
         expr], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "nested deeper" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_exit_codes(capsys):
    rc, out, _ = run(capsys, "check", "pauli-metric", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["suite"] == "pauli-metric"
    assert all(r["verdict"] for r in data["records"])


def test_check_text_format(capsys):
    rc, out, _ = run(capsys, "check", "su221-dimensions", "--verbose")
    assert rc == 0
    assert "PASS" in out and "fixed-point-dimensions" in out


def test_check_unknown_suite():
    with pytest.raises(SystemExit):
        main(["check", "no-such-suite"])


def test_report_determinism():
    # the same checks twice: first on a cold normal-form memo, then warm
    checks = _SUITE_BUILDERS["sct-inversion"]()
    rep1 = SuiteReport("sct-inversion", _run_checks(checks))
    rep2 = SuiteReport("sct-inversion", _run_checks(checks))
    d1, d2 = rep1.to_dict(), rep2.to_dict()
    for d in (d1, d2):
        for r in d["records"]:
            r["seconds"] = 0.0
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_check_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc, out, _ = run(capsys, "check", "twistor", "--format", "json",
                     "--out", str(path))
    assert rc == 0
    data = json.loads(path.read_text())
    assert data["suite"] == "twistor" and data["passed"]


def test_table_closure(capsys):
    rc, out, _ = run(capsys, "table", "closure", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["all_ok"] is True
    assert len(data["entries"]) == 66
    by_pair = {(e["left"], e["right"]): e for e in data["entries"]}
    e = by_pair[("D[3,4]", "D[1,2]")]
    assert e["sign"] == 1 and e["exponent"] == 2 and e["correction"] == ""
    rc, out, _ = run(capsys, "table", "closure")
    assert rc == 0 and "all entries resolve: True" in out


def test_table_conformal(capsys):
    rc, out, _ = run(capsys, "table", "conformal", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["closed"] is True
    assert len(data["entries"]) == 105
    by_pair = {(e["left"], e["right"]): e["bracket"] for e in data["entries"]}
    assert by_pair[("P0", "P1")] == "0"
    assert by_pair[("P0", "D")] == "1*P0"
