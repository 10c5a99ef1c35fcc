"""Verification reports: one record per checked statement.

The machine format and the human format carry identical verdict data;
the record fields named in NONDETERMINISTIC_FIELDS (the wall time) are
the only non-deterministic part.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

NONDETERMINISTIC_FIELDS = ("seconds",)


@dataclass
class CheckRecord:
    id: str
    statement: str
    anchor: str
    verdict: bool
    witness: str = ""
    seconds: float = 0.0

    def to_dict(self):
        return {
            "id": self.id,
            "statement": self.statement,
            "anchor": self.anchor,
            "verdict": self.verdict,
            "witness": self.witness,
            "seconds": round(self.seconds, 6),
        }


@dataclass
class SuiteReport:
    suite: str
    records: list = field(default_factory=list)

    @property
    def passed(self):
        return all(r.verdict for r in self.records)

    def to_dict(self):
        return {
            "suite": self.suite,
            "passed": self.passed,
            "counts": {
                "total": len(self.records),
                "failed": sum(1 for r in self.records if not r.verdict),
            },
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_text(self, verbose=False):
        lines = ["suite %s: %s (%d checks, %d failed)"
                 % (self.suite, "PASS" if self.passed else "FAIL",
                    len(self.records),
                    sum(1 for r in self.records if not r.verdict))]
        for r in self.records:
            if verbose or not r.verdict:
                mark = "ok" if r.verdict else "FAIL"
                lines.append("  [%s] %s: %s" % (mark, r.id, r.statement))
                if r.witness and not r.verdict:
                    lines.append("        witness: %s" % r.witness)
        return "\n".join(lines)
