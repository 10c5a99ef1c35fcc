"""Acceptance criteria, one test per criterion.

Every check here is exact (symbolic); there are no numeric tolerances
to pin.  The stated runtime budgets are asserted where the criteria
give them: the 25-generator confluence check under 2 minutes and the
full CLI suite under 10 minutes.
"""

import functools
import hashlib
import json
import subprocess
import sys
import time

from qmink.checks import SUITE_NAMES, run_suite
from qmink.minkowski import (build_chiral_presentation,
                             supercommutative_dimension)
from qmink.reports import CheckRecord, SuiteReport
from qmink.supergroup import build_slq41

from line_audit import child_env
from reporting import RECORD_FIELDS, deterministic, report_dict


def report(name, ok, detail=""):
    print("ACCEPTANCE %-28s %s %s" % (name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s failed: %s" % (name, detail)


def records(suite, family=""):
    """The suite's records whose id starts with family, e.g. "overlap:"."""
    return [r for r in run_suite(suite).records if r.id.startswith(family)]


def verdicts(*suites):
    """Record id -> verdict over the named suites, ids as in `check all`."""
    return {"%s/%s" % (name, r.id): r.verdict
            for name in suites for r in run_suite(name).records}


def failed(recs):
    return [r.id for r in recs if not r.verdict]


def test_manin_confluence():
    t0 = time.monotonic()
    overlaps = records("manin-confluence", "overlap:")
    dt = time.monotonic() - t0
    ok = len(overlaps) == 2500 and not failed(overlaps) and dt < 120.0
    report("manin-confluence", ok,
           "(%d overlaps, %d unresolved, %.1fs)"
           % (len(overlaps), len(failed(overlaps)), dt))


def test_pbw_dimensions():
    pres = build_slq41()
    expected = {d: supercommutative_dimension(17, 8, d) for d in (1, 2, 3, 4)}
    got = {d: pres.pbw_dimension(d) for d in (1, 2, 3, 4)}
    ok = got == expected and got[2] == 317
    report("pbw-dimensions", ok, "(%s)" % got)


def test_grassmannian_closure():
    pairs = records("grassmannian-closure", "pair:")
    ok = len(pairs) == 66 and not failed(pairs)
    report("grassmannian-closure", ok,
           "(%d/66 entries resolve)" % (len(pairs) - len(failed(pairs))))


def test_chiral_minkowski_presentation():
    relations = records("minkowski-presentation")
    confluence = records("presentation-confluence")
    overlaps = [r for r in confluence if r.id.startswith("overlap:")]
    spans = [r for r in confluence if r.id.startswith("span:")]
    confluent = len(overlaps) == 32 and not failed(overlaps)
    dims_ok = len(spans) == 3 and not failed(spans)
    ok = len(relations) == 17 and not failed(relations) and confluent \
        and dims_ok
    report("minkowski-presentation", ok,
           "(%d relation instances, confluent=%s, degrees 1..3 match=%s)"
           % (len(relations), confluent, dims_ok))


def test_coaction():
    recs = records("coaction")
    members = [r for r in recs if r.id.startswith("membership:")]
    homs = [r for r in recs if r.id.startswith("homomorphism:")]
    ok = len(members) == 11 and len(homs) == 308 and not failed(recs)
    report("coaction", ok,
           "(%d/11 minors, %d/%d rules, cofactor pattern=%s)"
           % (len(members) - len(failed(members)),
              len(homs) - len(failed(homs)), len(homs),
              "cofactor-pattern:D[1,2]" not in failed(recs)))


def test_classical_limit():
    # one record per rule of each presentation; a failure names its rule
    records = run_suite("classical-limit").records
    rules = len(build_slq41().rules) + len(build_chiral_presentation().rules)
    failures = [r.id for r in records if not r.verdict]
    ok = len(records) == rules and not failures
    report("classical-limit", ok, "(exceptions: %d)" % len(failures))


def test_conformal_closure():
    brackets = records("conformal-algebra", "bracket:")
    sct = verdicts("sct-inversion")
    standard_ok = sct["sct-inversion/inversion-identity"]
    literal_fails = sct["sct-inversion/literal-denominator"]
    ok = len(brackets) == 105 and not failed(brackets) and standard_ok \
        and literal_fails
    report("conformal-closure", ok,
           "(105 brackets, inversion identity=%s, literal variant fails=%s)"
           % (standard_ok, literal_fails))


def test_geometry_identities():
    v = verdicts("pauli-metric", "poincare-action", "twistor")
    pauli_ok = v["pauli-metric/determinant-identity"]
    axiom_ok = v["poincare-action/axiom"]
    covariance_ok = v["poincare-action/covariance"]
    twistor_ok = v["twistor/generic"]
    ok = pauli_ok and axiom_ok and covariance_ok and twistor_ok
    report("geometry-identities", ok,
           "(pauli=%s, axiom=%s, covariance=%s, twistor=%s)"
           % (pauli_ok, axiom_ok, covariance_ok, twistor_ok))


def test_real_forms():
    v = verdicts("sigma-involution", "su221-dimensions", "poincare-reality",
                 "super-action")
    # sigma^2 = id is the 24 involution: records; antilinearity checks
    # sigma(iX) = -i sigma(X) and the trace conditions
    invol_ok = v["sigma-involution/antilinearity"] and all(
        ok for rid, ok in v.items()
        if rid.startswith("sigma-involution/involution:"))
    compat_ok = v["sigma-involution/bracket-compatibility"]
    dims_ok = v["su221-dimensions/fixed-point-dimensions"]
    group_invol_ok = v["poincare-reality/involutive"]
    reduced_ok = all(v["poincare-reality/" + rid] for rid in (
        "fixed-point", "displayed-conditions", "t-hermitian"))
    action_ok = v["super-action/reality"]
    ok = invol_ok and compat_ok and dims_ok and group_invol_ok \
        and reduced_ok and action_ok
    report("real-forms", ok,
           "(sigma=%s, brackets=%s, dims=%s, group=%s, reduced=%s, action=%s)"
           % (invol_ok, compat_ok, dims_ok, group_invol_ok, reduced_ok,
              action_ok))


# sha256 of `check all --format json` without the non-deterministic
# record fields, dumped with sorted keys: every verdict, witness,
# statement and anchor of all 3,428 records, pinned
VERDICT_SHA256 = \
    "f006d5d44d7f4cab56eb7da171a9a4760a34d91022e435d1f7039e3cc3c08643"


def verdict_digest(data):
    return hashlib.sha256(json.dumps(deterministic(data), sort_keys=True)
                          .encode()).hexdigest()


@functools.cache
def check_all_json():
    """One `qmink check all --format json` child: (process, wall seconds)."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "qmink.cli", "check", "all", "--format",
         "json"],
        capture_output=True, text=True, env=child_env(), timeout=600)
    return proc, time.monotonic() - t0


def test_cli_contract():
    proc, dt = check_all_json()
    ok = proc.returncode == 0 and dt < 600.0
    data = json.loads(proc.stdout) if proc.stdout else {}
    verdicts_ok = bool(data) and data.get("passed") is True and \
        all(r["verdict"] for r in data.get("records", []))
    n_records = len(data.get("records", []))
    digest_ok = verdicts_ok and verdict_digest(data) == VERDICT_SHA256
    ok = ok and verdicts_ok and digest_ok
    report("cli-contract", ok,
           "(exit=%d, %d records, digest %s, %.1fs)"
           % (proc.returncode, n_records, "ok" if digest_ok else "changed",
              dt))


def test_json_report_is_json_dumps_byte_for_byte():
    # the full `check all` report and each suite's, rebuilt from the
    # printed records, against the general path
    proc, _dt = check_all_json()
    data = json.loads(proc.stdout)
    assert all(set(r) == RECORD_FIELDS for r in data["records"])
    full = SuiteReport("all", [CheckRecord(**r) for r in data["records"]])
    assert full.to_json(indent=2) + "\n" == proc.stdout
    suites = {name: SuiteReport(name) for name in SUITE_NAMES}
    for r in data["records"]:
        name, rid = r["id"].split("/", 1)
        suites[name].records.append(CheckRecord(**dict(r, id=rid)))
    for rep in (full, *suites.values()):
        assert rep.records
        assert rep.to_json(indent=2) == json.dumps(
            report_dict(rep), indent=2, sort_keys=True), rep.suite
