#!/usr/bin/env python3
"""qmink benchmark: check-all, quantum-suites and nf-stream.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare A.json B.json

Run from the repository root.  Each workload runs in rounds; a round is
one fresh child interpreter (perfbench/child.py) with src/ on its path,
run serially, one at a time.  Rounds repeat until --seconds have passed.
Every output is checked, and the last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  End-to-end metrics come
from untraced rounds in calibrated seconds (see calib.py); --trace 1 adds
one traced round and prints the per-layer metrics instead.  Each run also
writes a result file under perfbench/results/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("check-all", "quantum-suites", "nf-stream")
QUERIES_PER_ROUND = 3000
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150
SUITE_NAMES = (  # qmink.checks.SUITE_NAMES, in order
    "manin-confluence", "grassmannian-closure", "minkowski-presentation",
    "presentation-confluence", "coaction", "classical-limit",
    "conformal-algebra", "sct-inversion", "pauli-metric", "poincare-action",
    "twistor", "super-action", "sigma-involution", "su221-dimensions",
    "poincare-reality")
QUANTUM_SUITES = SUITE_NAMES[:6]
# GrassmannRational methods counted as grassmann.rational_ops
RATIONAL_OPS = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                "__mul__", "__rmul__", "__truediv__", "inverse",
                "div_element", "star", "__eq__"}


class BenchError(RuntimeError):
    pass


# -- expected record counts -----------------------------------------------------


def expected_counts(facts):
    """Records each suite must hold, derived from the construction."""
    minors = facts["minors"]
    return {
        # one record per length-3 overlap word, plus PBW degrees 1..4
        "manin-confluence": facts["slq41_overlaps"] + 4,
        # ordered pairs (a <= b) of the 11 minors
        "grassmannian-closure": minors * (minors + 1) // 2,
        # eight relation families of the chiral coordinates, 17 instances
        "minkowski-presentation": 17,
        # overlaps, PBW degrees 1..3 and span checks in degrees 1..3
        "presentation-confluence": facts["chiral_overlaps"] + 3 + 3,
        # membership per minor, the cofactor pattern, one per slq41 rule
        "coaction": minors + 1 + facts["slq41_rules"],
        # one per rule of both presentations
        "classical-limit": facts["slq41_rules"] + facts["chiral_rules"],
        # brackets of the 15 conformal generators
        "conformal-algebra": comb(15, 2),
        "sct-inversion": 5,
        "pauli-metric": 3,
        "poincare-action": 6,
        "twistor": 3,
        "super-action": 3,
        # sigma^2 on each basis element of sl(4|1), antilinearity, brackets
        "sigma-involution": (4 + 1) ** 2 - 1 + 2,
        "su221-dimensions": 2,
        "poincare-reality": 5,
    }


def pbw2_agrees(facts, records):
    """Degree-2 PBW count: normal words, the formula and the record agree."""
    n, odd = facts["slq41_generators"], facts["slq41_odd"]
    even = n - odd
    from_rules = n * n - facts["slq41_rules"]
    formula = comb(even + 1, 2) + even * odd + comb(odd, 2)
    rec = [r for r in records if r["id"] == "manin-confluence/pbw:2"]
    return from_rules == formula == 317 and len(rec) == 1 and \
        rec[0]["verdict"] is True and \
        " number %d " % formula in rec[0]["statement"]


def check_report(report, suites, facts):
    """(attempted, failed, notes) for one suite-workload report.

    A suite whose record count differs from the derived count fails as a
    whole; otherwise each record with a false verdict fails.
    """
    expected = expected_counts(facts)
    by_suite = {name: [] for name in suites}
    stray = 0
    for r in report["records"]:
        name = r["id"].split("/", 1)[0]
        if name in by_suite:
            by_suite[name].append(r)
        else:
            stray += 1
    attempted = sum(expected[name] for name in suites)
    failed = 0
    notes = []
    for name in suites:
        recs = by_suite[name]
        if len(recs) != expected[name]:
            failed += expected[name]
            notes.append("%s: %d records, expected %d"
                         % (name, len(recs), expected[name]))
            continue
        bad = sum(1 for r in recs if r["verdict"] is not True)
        if bad:
            failed += bad
            notes.append("%s: %d false verdicts" % (name, bad))
    if "manin-confluence" in suites and not pbw2_agrees(facts,
                                                        report["records"]):
        failed += 1
        notes.append("PBW degree 2 is not 317 by rules, formula and record")
    if stray:
        failed += stray
        notes.append("%d records of suites not run" % stray)
    return attempted, failed, notes


def report_controls(report, suites, facts):
    """Corrupted reports the check must reject; name -> rejected."""
    flipped = json.loads(json.dumps(report))
    flipped["records"][0]["verdict"] = not flipped["records"][0]["verdict"]
    short = dict(report)
    first = suites[0] + "/"
    drop = max(k for k, r in enumerate(report["records"])
               if r["id"].startswith(first))
    short["records"] = report["records"][:drop] + report["records"][drop + 1:]
    return {"verdict-flipped": check_report(flipped, suites, facts)[1] > 0,
            "record-count": check_report(short, suites, facts)[1] > 0}


# -- rounds -------------------------------------------------------------------


def run_child(workload, seed, trace_path=None):
    os.makedirs(RESULTS, exist_ok=True)
    out_path = os.path.join(RESULTS, ".round-%d.json" % os.getpid())
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--out", out_path]
    if trace_path:
        cmd += ["--trace", trace_path]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("QMINK_PURE", None)
    env["BENCH_SPAWN_T"] = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise BenchError("child %s failed (exit %d):\n%s"
                         % (workload, proc.returncode, proc.stderr[-2000:]))
    with open(out_path, encoding="utf-8") as fh:
        data = json.load(fh)
    os.remove(out_path)
    return data


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, int(round(p / 100.0 * len(s) + 0.5)) - 1))
    return s[k]


def round_metrics(d, key):
    """One round's figures; key "s" gives calibrated ones, "raw_s" raw."""
    lat = d["latencies"] if key == "s" else d["raw_latencies"]
    if "suites" in d:
        suites = d["suites"].values()
        ck = "check_s" if key == "s" else "check_raw_s"
        check = sum(s[ck] for s in suites)
        setup = d["import"][key] + sum(s[key] - s[ck] for s in suites)
        rest = sum(s[key] for s in suites) + d["report_iv"][key]
    else:
        check = sum(lat)
        setup = d["import"][key] + d["warmup"][key]
        rest = d["warmup"][key] + check
    return {"verify_s": d["startup"][key] + d["import"][key] + rest,
            "setup_s": setup, "check_s": check,
            "nf_p50_ms": 1e3 * statistics.median(lat)}


def stream_seed(seed, k):
    """Round k of a run with --seed seed reads its own stream."""
    return seed * 1000 + k


class Run:
    """Rounds of one workload: per-round figures, pooled latencies."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        # per key ("s" calibrated, "raw_s" raw): per-round figures and
        # the latencies of every operation of the run
        self.rounds = {"s": [], "raw_s": []}
        self.latencies = {"s": [], "raw_s": []}
        self.rss = []
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.controls = {}
        self.backend = None
        self.suite_s = {}
        self.last = None

    def check(self, d):
        if self.workload == "nf-stream":
            chk = d["nf_check"]
            self.controls = chk["controls"]
            self.attempted += d["queries"]
            self.failed += chk["failed"]
            if chk["failed"]:
                self.notes.append("nf checks failed: %r" % chk["by_check"])
                self.notes.extend("  %r" % e for e in chk["examples"])
            return
        report = json.loads(d["report"])
        suites = SUITE_NAMES if self.workload == "check-all" \
            else QUANTUM_SUITES
        attempted, failed, notes = check_report(report, suites,
                                                d["construction"])
        self.attempted += attempted
        self.failed += failed
        self.notes.extend(notes)
        if not self.controls:
            self.controls = report_controls(report, suites,
                                            d["construction"])

    def child(self, trace_path=None):
        k = len(self.rss)
        seed = stream_seed(self.seed, 0 if trace_path else k)
        d = run_child(self.workload, seed, trace_path)
        self.check(d)
        self.backend = d["backend"]
        self.last = d
        return d

    def round(self):
        d = self.child()
        for key, lat in (("s", d["latencies"]), ("raw_s", d["raw_latencies"])):
            self.rounds[key].append(round_metrics(d, key))
            self.latencies[key].extend(lat)
        self.rss.append(d["peak_rss_mb"])
        for name, s in d.get("suites", {}).items():
            self.suite_s.setdefault(name, []).append(s["s"])

    def measure(self):
        t0 = time.monotonic()
        while True:
            t = time.monotonic()
            self.round()
            took = time.monotonic() - t
            # stop unless another whole round fits in the time left
            if len(self.rss) >= MIN_ROUNDS and \
                    time.monotonic() - t0 + took > self.seconds:
                break

    def metrics(self, key="s"):
        """Medians of per-round figures; the tail and rate over all rounds.

        A round whose calibration was off moves a median of rounds less
        than a median of the pooled latencies; the 99th percentile needs
        every sample of the run.
        """
        rounds = self.rounds[key]
        out = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
        lat = self.latencies[key]
        out["peak_rss_mb"] = statistics.median(self.rss)
        out["nf_p99_ms"] = 1e3 * percentile(lat, 99)
        out["nf_per_s"] = len(lat) / sum(r["check_s"] for r in rounds)
        return out


# -- traced round ----------------------------------------------------------------


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(run, traced_verify):
    d = run.last
    tr = d["trace"]
    calls = tr["calls"]
    c = tr["counters"]
    f = tr["mean_factor"]
    layer = {k: v * f for k, v in tr["layer_self_s"].items()}
    untraced = run.metrics()["verify_s"]
    m = {}
    for name in SUITE_NAMES:
        v = run.suite_s.get(name)
        m["suite.%s_s" % name] = statistics.median(v) if v else 0.0
    mul = calls.get("scalars.Scalar.__mul__", 0)
    divs = calls.get("grassmann.exact_divide", 0)
    nf_calls = calls.get("kernel.nf_word", 0) + \
        calls.get("kernel.normal_form_terms", 0)
    m.update({
        "scalars.mul_calls": mul,
        "scalars.add_calls": calls.get("scalars.Scalar.__add__", 0),
        "scalars.mul_monomial_share": _ratio(c["mul_monomial"], mul),
        "scalars.exact_div_calls": calls.get("scalars.Scalar.exact_div", 0),
        "scalars.self_s": layer["scalars"],
        "kernel.nf_calls": nf_calls,
        "kernel.words_reduced": c["words_reduced"],
        "kernel.memo_hit_ratio": _ratio(c["nf_hits"], c["nf_lookups"]),
        "kernel.self_s": layer["kernel"],
        "algebra.element_mul_calls": calls.get("algebra.Element.__mul__", 0),
        "algebra.self_s": layer["algebra"],
        "grassmann.exact_divide_calls": divs,
        "grassmann.exact_divide_ok_ratio": _ratio(c["exact_divide_ok"], divs),
        "grassmann.exact_divide_self_s":
            tr["self_s"].get("grassmann.exact_divide", 0.0) * f,
        "grassmann.rational_ops": sum(
            v for k, v in calls.items()
            if k.startswith("grassmann.GrassmannRational.")
            and k.rsplit(".", 1)[1] in RATIONAL_OPS),
        "grassmann.matrix_mul_calls":
            calls.get("grassmann.GrassmannMatrix.__mul__", 0),
        "grassmann.self_s": layer["grassmann"],
        "linalg.span_add_calls": calls.get("linalg.SpanSolver.add", 0),
        "linalg.self_s": layer["linalg"],
        "supergroup.comultiply_calls": calls.get("supergroup.comultiply", 0),
        "supergroup.self_s": layer["supergroup"],
        "minkowski.self_s": layer["minkowski"],
        "classical.self_s": layer["classical"],
        "realforms.self_s": layer["realforms"],
        "parser.parse_calls": calls.get("parser.parse", 0),
        "parser.self_s": layer["parser"],
        "cli.self_s": layer["cli"],
        "reports.self_s": layer["reports"],
        "trace.verify_s_traced": traced_verify,
        "trace.verify_s_untraced": untraced,
        "trace.overhead": _ratio(traced_verify, untraced),
    })
    return m


def traced_round(run):
    trace_path = os.path.join(RESULTS, run.workload + ".trace")
    d = run.child(trace_path)
    return round_metrics(d, "s")["verify_s"], trace_path


# -- output -----------------------------------------------------------------------


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def compare(path_a, path_b):
    spec = load_spec()
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    print("%s (%s, seed %s) -> %s (%s, seed %s)"
          % (path_a, a["workload"], a["seed"], path_b, b["workload"],
             b["seed"]))
    worse = 0
    for m in spec["end_to_end"] + spec["per_layer"]:
        name = m["name"]
        if name not in a["metrics"] or name not in b["metrics"]:
            continue
        va = a["metrics"][name]["value"]
        vb = b["metrics"][name]["value"]
        ratio = vb / va if va else float("nan")
        flag = ""
        if "bound" in m and va:
            change = ratio - 1 if m["better"] == "lower" else 1 - ratio
            if change > m["bound"]:
                flag = "  WORSE than bound %.2f" % m["bound"]
                worse += 1
        print("  %-36s %14.6g -> %14.6g %-6s x%.3f%s"
              % (name, va, vb, m["unit"], ratio, flag))
    print("%d metrics worse than their bound" % worse)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "qmink", "checks.py")):
        print("error: no qmink sources under %s; run from a qmink checkout"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    spec = load_spec()
    run = Run(args.workload, args.seed, args.seconds)
    try:
        run.measure()
        stem = "%s-seed%d-trace%d-%d" % (args.workload, args.seed,
                                         args.trace, int(time.time()))
        if args.trace:
            traced_verify, trace_path = traced_round(run)
            values = per_layer(run, traced_verify)
            names = spec["per_layer"]
        else:
            values = run.metrics()
            names = spec["end_to_end"]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    correct = all(run.controls.values()) and len(run.controls) == 2
    if not correct:
        run.notes.append("a negative control was not rejected: %r"
                         % run.controls)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    raw = run.metrics("raw_s")
    print("qmink benchmark: workload %s, seed %d, %d rounds, backend %s"
          % (args.workload, args.seed, len(run.rss), run.backend))
    for note in run.notes:
        print("  check: %s" % note)
    print("  negative controls rejected: %s" % ", ".join(
        "%s=%s" % kv for kv in sorted(run.controls.items())))
    for name, m in metrics.items():
        extra = ""
        if name in raw and name != "peak_rss_mb":
            extra = "  (raw %.6g, factor %.4f)" % (
                raw[name], _ratio(m["value"], raw[name]))
        print("  %-36s %14.6g %s%s" % (name, m["value"], m["unit"], extra))
    print("  attempted %d, failed %d" % (run.attempted, run.failed))
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "git_sha": git_sha(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "backend": run.backend,
              "rounds": run.rounds["s"], "raw_rounds": run.rounds["raw_s"],
              "raw_metrics": raw, "peak_rss_mb": run.rss,
              "factors": {k: _ratio(metrics[k]["value"], v)
                          for k, v in raw.items() if k in metrics},
              "controls": run.controls, "notes": run.notes,
              "correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    if args.trace:
        result["trace_file"] = os.path.relpath(trace_path, ROOT)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, stem + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print("  result file: %s" % os.path.relpath(path, ROOT))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
