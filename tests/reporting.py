"""Shared helpers for tests that compare check reports."""

from qmink.reports import NONDETERMINISTIC_FIELDS, CheckRecord

RECORD_FIELDS = set(CheckRecord.__slots__)


def deterministic(report):
    """The report dict without its non-deterministic record fields."""
    for r in report["records"]:
        for key in NONDETERMINISTIC_FIELDS:
            del r[key]
    return report


def report_dict(report):
    """The report as a dict: the general path that `SuiteReport.to_json`
    is held to, as ``json.dumps(report_dict(r), indent=2, sort_keys=True)``."""
    records = []
    for r in report.records:
        d = {name: getattr(r, name) for name in CheckRecord.__slots__}
        d["seconds"] = round(d["seconds"], 6)
        records.append(d)
    failed = sum(1 for r in report.records if not r.verdict)
    return {
        "suite": report.suite,
        "passed": not failed,
        "counts": {"total": len(report.records), "failed": failed},
        "records": records,
    }
