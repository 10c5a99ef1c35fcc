"""Shared helper for tests that compare check reports."""

from qmink.reports import NONDETERMINISTIC_FIELDS


def deterministic(report):
    """The report dict without its non-deterministic record fields."""
    for r in report["records"]:
        for key in NONDETERMINISTIC_FIELDS:
            del r[key]
    return report
