"""Verification reports: one record per checked statement.

The machine format and the human format carry identical verdict data;
the record fields named in NONDETERMINISTIC_FIELDS (the wall time) are
the only non-deterministic part.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

NONDETERMINISTIC_FIELDS = ("seconds",)


class CheckRecord:
    __slots__ = ("id", "statement", "anchor", "verdict", "witness", "seconds")

    def __init__(self, id, statement, anchor, verdict, witness="",
                 seconds=0.0):
        self.id = id
        self.statement = statement
        self.anchor = anchor
        self.verdict = verdict
        self.witness = witness
        self.seconds = seconds


class SuiteReport:
    __slots__ = ("suite", "records")

    def __init__(self, suite, records=None):
        self.suite = suite
        self.records = [] if records is None else records

    @property
    def passed(self):
        return all(r.verdict for r in self.records)

    @property
    def failed(self):
        return sum(1 for r in self.records if not r.verdict)

    def to_json(self, indent=2):
        """The report as ``json.dumps(d, indent=indent, sort_keys=True)``
        prints its dict d, with ``seconds`` rounded to 6 places.

        Written directly: with ``indent`` set, json.dumps runs its
        pure-Python encoder, which costs as much as a large suite on
        ``check all``.  Strings go through json's own C escaper, and
        ``seconds`` through ``repr`` as json prints a float.  A test holds
        the output to json.dumps byte for byte.
        """
        p1, p2, p3 = ("\n" + " " * (indent * k) for k in (1, 2, 3))
        record = "{%s%s}" % (",".join('%s"%s": %%s' % (p3, key) for key in (
            "anchor", "id", "seconds", "statement", "verdict", "witness")),
            p2)
        records = ("," + p2).join([
            record % (_quote(r.anchor), _quote(r.id),
                      repr(round(r.seconds, 6)), _quote(r.statement),
                      "true" if r.verdict else "false", _quote(r.witness))
            for r in self.records])
        records = "[%s%s%s]" % (p2, records, p1) if self.records else "[]"
        failed = self.failed
        return ('{%s"counts": {%s"failed": %d,%s"total": %d%s},'
                '%s"passed": %s,%s"records": %s,%s"suite": %s\n}'
                % (p1, p2, failed, p2, len(self.records), p1,
                   p1, "false" if failed else "true",
                   p1, records, p1, _quote(self.suite)))

    def to_text(self, verbose=False):
        failed = self.failed
        lines = ["suite %s: %s (%d checks, %d failed)"
                 % (self.suite, "FAIL" if failed else "PASS",
                    len(self.records), failed)]
        for r in self.records:
            if verbose or not r.verdict:
                mark = "ok" if r.verdict else "FAIL"
                lines.append("  [%s] %s: %s" % (mark, r.id, r.statement))
                if r.witness and not r.verdict:
                    lines.append("        witness: %s" % r.witness)
        return "\n".join(lines)
