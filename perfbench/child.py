"""One round of one workload in a fresh interpreter; run.py starts it.

    python3 perfbench/child.py --workload W --seed N --out PATH [--trace PATH]

Expects src/ on PYTHONPATH and BENCH_SPAWN_T, the CLOCK_MONOTONIC time
at which the parent started this process.  Writes one JSON object to
--out: calibrated and raw intervals, the workload's own outputs and the
facts about the construction that run.py checks them against.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time

T_MAIN = time.clock_gettime(time.CLOCK_MONOTONIC)

from calib import BOUNDARY_SAMPLES, Calibrator  # noqa: E402
from run import QUANTUM_SUITES, QUERIES_PER_ROUND  # noqa: E402
from streams import (eval_q1, join_terms, make_stream,  # noqa: E402
                     output_terms)

WARMUP = (("slq41", "a[1,1]"), ("grq", "D[1,2]"), ("minkq", "D12inv"),
          ("chiral-abstract", "t[3,1]"))


def _interval(iv):
    return {"raw_s": iv.raw, "factor": iv.factor, "s": iv.calibrated}


class Round:
    def __init__(self, args):
        self.args = args
        self.cal = Calibrator()
        self.tracer = None
        self.out = {"workload": args.workload, "seed": args.seed}

    def span(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def startup_and_import(self):
        cal = self.cal
        cal.sample()
        self.t_first = cal.sample_t[0]
        if not self.args.trace:
            # no sampling inside traced spans: it would land in their self time
            cal.start()
        mark = cal.begin()
        import qmink.checks  # noqa: F401
        import qmink.cli  # noqa: F401
        if self.args.trace:
            from spans import Tracer
            self.tracer = Tracer()
            self.tracer.install()
        self.import_iv = cal.end(mark)
        from qmink import backend_name
        self.out["backend"] = backend_name()

    def settle(self):
        """End the timed work: last samples, factors, peak memory, spans."""
        cal = self.cal
        for _ in range(BOUNDARY_SAMPLES):
            cal.sample()
        cal.stop()
        cal.settle()
        raw = T_MAIN - float(os.environ["BENCH_SPAWN_T"])
        factor = cal.factor(self.t_first, self.t_first)
        self.out["startup"] = {"raw_s": raw, "factor": factor,
                               "s": raw * factor}
        self.out["import"] = _interval(self.import_iv)
        self.out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.tracer is not None:
            self.out["trace"] = self.tracer.summary()
            self.out["trace"]["mean_factor"] = cal.mean_factor()
            self.tracer.write(self.args.trace)

    # -- suites ---------------------------------------------------------------

    def suites(self, names):
        from qmink.checks import run_suite
        from qmink.reports import SuiteReport
        cal = self.cal
        report = SuiteReport("all")
        runs = []
        for name in names:
            with self.span("bench.suite:" + name):
                mark = cal.begin()
                sub = run_suite(name, serial=True)
                runs.append((name, cal.end(mark), sub.records))
            for r in sub.records:
                r.id = "%s/%s" % (name, r.id)
                report.records.append(r)
        with self.span("bench.report"):
            mark = cal.begin()
            text = report.to_json(indent=2)
            report_iv = cal.end(mark)
        self.settle()
        suites = {}
        latencies = []
        raw_latencies = []
        for name, iv, records in runs:
            # sampling that fell inside records inflated their seconds;
            # the alarm is periodic, so split it by duration
            share = iv.raw / (iv.raw + iv.sampled) if iv.raw else 1.0
            raws = [r.seconds * share for r in records]
            check_raw = sum(raws)
            latencies.extend(x * iv.factor for x in raws)
            raw_latencies.extend(raws)
            suites[name] = dict(_interval(iv), check_s=check_raw * iv.factor,
                                check_raw_s=check_raw, records=len(records))
        self.out["suites"] = suites
        self.out["report_iv"] = _interval(report_iv)
        self.out["report"] = text
        self.out["latencies"] = latencies
        self.out["raw_latencies"] = raw_latencies
        self.out["construction"] = construction_facts()

    # -- nf stream ------------------------------------------------------------

    def nf_stream(self):
        from qmink.cli import normal_form_text
        cal = self.cal
        with self.span("bench.warmup"):
            mark = cal.begin()
            for algebra, expr in WARMUP:
                normal_form_text(expr, algebra)
            warmup_iv = cal.end(mark)
        stream = make_stream(self.args.seed, QUERIES_PER_ROUND)
        raws = []
        ends = []
        outs = []
        perf = time.perf_counter
        with self.span("bench.stream"):
            for algebra, expr in stream:
                o0 = cal.overhead
                t0 = perf()
                text = normal_form_text(expr, algebra)
                t1 = perf()
                raws.append(t1 - t0 - (cal.overhead - o0))
                ends.append(t1)
                outs.append(text)
        self.settle()
        self.out["warmup"] = _interval(warmup_iv)
        self.out["latencies"] = [r * cal.factor(t, t)
                                 for r, t in zip(raws, ends)]
        self.out["raw_latencies"] = raws
        self.out["queries"] = len(stream)
        self.out["nf_check"] = check_stream(stream, outs)

    def finish(self):
        with open(self.args.out, "w", encoding="utf-8") as fh:
            json.dump(self.out, fh)


# -- what the construction says the suites must contain ----------------------


def _overlaps(rules):
    firsts = {}
    for a, _b in rules:
        firsts[a] = firsts.get(a, 0) + 1
    return sum(firsts.get(b, 0) for _a, b in rules)


def construction_facts():
    """Counts read off the presentations, for run.py's record-count check."""
    from qmink.minkowski import build_chiral_presentation, minor_set
    from qmink.supergroup import build_slq41
    slq = build_slq41()
    chiral = build_chiral_presentation()
    return {"slq41_generators": slq.ngens,
            "slq41_odd": sum(slq.parities),
            "slq41_rules": len(slq.rules),
            "slq41_overlaps": _overlaps(slq.rules),
            "chiral_rules": len(chiral.rules),
            "chiral_overlaps": _overlaps(chiral.rules),
            "minors": len(minor_set())}


# -- nf output checks ---------------------------------------------------------


def _rule_pairs():
    """algebra -> set of adjacent name pairs that must not occur in output."""
    from qmink.minkowski import build_chiral_presentation, localized
    from qmink.supergroup import build_slq41

    def pairs(pres):
        names = [g.name for g in pres.generators]
        return {(names[a], names[b]) for a, b in pres.rules}

    straight = pairs(localized().straightener())
    # D12inv is printed after every minor
    minors = {g for pair in straight for g in pair}
    straight |= {("D12inv", m) for m in minors}
    return {"slq41": pairs(build_slq41()), "grq": straight,
            "minkq": straight,
            "chiral-abstract": pairs(build_chiral_presentation())}


def _reversed_sum(expr):
    """The same expression with its summands in the opposite order."""
    terms = output_terms(expr)
    signs = [sep or " + " for sep, _c, _w in terms]
    text = ""
    for sign, (_sep, coeff, word) in zip(reversed(signs), reversed(terms)):
        body = "*".join(coeff + word)
        text = ("-" if sign == " - " else "") + body if not text \
            else "%s%s%s" % (text, sign, body)
    return text


def check_query(algebra, expr, out, rule_pairs, nf):
    """Names of the properties the output of one query violates.

    fixed-point: the normal form of the output text is the output.
    reordered-input: the input with its summands reversed has the same
    normal form.  rule-left-side: no output word contains a rule's left
    side.  q=1 (slq41, chiral-abstract): at q = 1 the output equals the
    sorted, Koszul-signed product the benchmark computes itself.
    """
    bad = []
    try:
        if nf(out, algebra) != out:
            bad.append("fixed-point")
        if nf(_reversed_sum(expr), algebra) != out:
            bad.append("reordered-input")
    except Exception as exc:  # an unreadable output is a failed check
        bad.append("unreadable:%r" % (exc,))
    pairs = rule_pairs[algebra]
    for _sep, _coeff, word in output_terms(out):
        if any((word[k], word[k + 1]) in pairs for k in range(len(word) - 1)):
            bad.append("rule-left-side")
            break
    if algebra in ("slq41", "chiral-abstract") and \
            eval_q1(out) != eval_q1(expr):
        bad.append("q=1")
    return bad


def _controls(stream, outs, rule_pairs, nf):
    """Corrupted outputs the checks must reject; name -> rejected."""
    found = {}
    for (algebra, expr), out in zip(stream, outs):
        terms = output_terms(out)
        if out == "0":
            continue
        if "coefficient" not in found:
            sep, coeff, word = terms[0]
            changed = [(sep, ["2"] + coeff, word)] + terms[1:]
            found["coefficient"] = (algebra, expr, join_terms(changed))
        pairs = rule_pairs[algebra]
        for n, (sep, coeff, word) in enumerate(terms):
            for k in range(len(word) - 1):
                if "unsorted" not in found and \
                        (word[k + 1], word[k]) in pairs:
                    w = list(word)
                    w[k], w[k + 1] = w[k + 1], w[k]
                    changed = list(terms)
                    changed[n] = (sep, coeff, w)
                    found["unsorted"] = (algebra, expr, join_terms(changed))
        if len(found) == 2:
            break
    return {name: bool(check_query(a, e, o, rule_pairs, nf))
            for name, (a, e, o) in sorted(found.items())}


def check_stream(stream, outs):
    from qmink.cli import normal_form_text
    rule_pairs = _rule_pairs()
    failed = {}
    checked = {}
    for (algebra, expr), out in zip(stream, outs):
        key = (algebra, expr)
        if key not in checked:
            checked[key] = check_query(algebra, expr, out, rule_pairs,
                                       normal_form_text)
        for name in checked[key]:
            failed[name] = failed.get(name, 0) + 1
    bad_queries = sum(1 for (a, e) in stream if checked[(a, e)])
    examples = [[a, e, b] for (a, e), b in checked.items() if b][:3]
    return {"failed": bad_queries, "by_check": failed,
            "distinct": len(checked), "examples": examples,
            "controls": _controls(stream, outs, rule_pairs,
                                  normal_form_text)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("check-all", "quantum-suites", "nf-stream"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", default=None)
    args = ap.parse_args(argv)
    rnd = Round(args)
    rnd.startup_and_import()
    if args.workload == "nf-stream":
        rnd.nf_stream()
    else:
        from qmink.checks import SUITE_NAMES
        rnd.suites(SUITE_NAMES if args.workload == "check-all"
                   else QUANTUM_SUITES)
    rnd.finish()
    return 0


if __name__ == "__main__":
    sys.exit(main())
