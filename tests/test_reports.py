"""The JSON report writer, held to json.dumps byte for byte."""

import json

from hypothesis import example, given, settings, strategies as st

from qmink.reports import CheckRecord, SuiteReport

from reporting import RECORD_FIELDS, report_dict


def assert_as_json_dumps(report, indent=2):
    text = report.to_json(indent=indent)
    assert text == json.dumps(report_dict(report), indent=indent,
                              sort_keys=True)
    # a CheckRecord field that the writer does not print fails here
    assert all(set(r) == RECORD_FIELDS for r in json.loads(text)["records"])
    return text


def test_empty_report():
    text = assert_as_json_dumps(SuiteReport("empty"))
    assert '"records": [],' in text and '"passed": true' in text


def test_false_record_with_witness():
    report = SuiteReport("twistor", [
        CheckRecord("generic", "B = A - beta*alpha", "Sec. 5", True,
                    seconds=0.0123456789),
        CheckRecord("even", "B = A at odd = 0", "Sec. 5", False,
                    "difference (-1)*x1*x1", 2.5e-7)])
    text = assert_as_json_dumps(report)
    assert '"passed": false' in text and '"failed": 1,' in text
    assert '"witness": "difference (-1)*x1*x1"' in text
    assert report.to_text().startswith("suite twistor: FAIL (2 checks, "
                                       "1 failed)")


# quotes, backslashes, every control character, DEL, non-ASCII BMP
# letters, astral characters and lone surrogates, beside plain ASCII
CHARS = st.one_of(
    st.characters(min_codepoint=0x20, max_codepoint=0x7e),
    st.sampled_from('"\\\x7f'),
    st.characters(min_codepoint=0, max_codepoint=0x1f),
    st.characters(categories=["L"], min_codepoint=0x80,
                  max_codepoint=0xffff),
    st.characters(min_codepoint=0x10000),
    st.characters(categories=["Cs"]))
TEXT = st.text(CHARS, max_size=12)
SECONDS = st.one_of(st.just(0.0), st.floats(0.0, 5e-7),
                    st.floats(0.0, 100.0), st.floats(1e6, 1e300))
RECORDS = st.builds(CheckRecord, TEXT, TEXT, TEXT, st.booleans(), TEXT,
                    SECONDS)


@settings(max_examples=200, deadline=None)
@given(TEXT, st.lists(RECORDS, max_size=4), st.integers(0, 4))
@example('s"\\', [CheckRecord('"\\\x00\x1f\x7f', "é\U0001f600", "\ud800",
                              False, "\udfff", 4.9e-7)], 2)
def test_written_as_json_dumps(suite, records, indent):
    assert_as_json_dumps(SuiteReport(suite, records), indent)
