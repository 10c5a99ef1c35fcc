"""qmink command line: normal forms, verification suites, derived tables."""

from __future__ import annotations

import argparse
import json
import sys

from . import classical
from .checks import SUITE_NAMES, UnknownSuiteError, run_suite
from .minkowski import localized, minor_index, minor_set
from .parser import (Atom, ExprSyntaxError, ImagUnit, IntLit, Neg, Prod,
                     QPow, Sum, parse, to_text)
from .scalars import I, Scalar
from .supergroup import build_slq41, general_minor, minor

ALGEBRAS = ("slq41", "grq", "minkq", "chiral-abstract")


class EvaluationError(ValueError):
    pass


def _evaluate(node, scalar, atom):
    def ev(n):
        if isinstance(n, IntLit):
            return scalar(Scalar.from_int(n.value))
        if isinstance(n, ImagUnit):
            return scalar(I)
        if isinstance(n, QPow):
            return scalar(Scalar.q_pow(n.exp))
        if isinstance(n, Atom):
            return atom(n)
        if isinstance(n, Neg):
            return -ev(n.arg)
        if isinstance(n, Prod):
            out = ev(n.factors[0])
            for f in n.factors[1:]:
                out = out * ev(f)
            return out
        if isinstance(n, Sum):
            out = ev(n.terms[0])
            for t in n.terms[1:]:
                out = out + ev(t)
            return out
        raise TypeError(n)

    return ev(node)


def evaluate_expression(node, algebra):
    """Evaluate a parsed expression in one of the named algebras."""
    if algebra == "slq41":
        pres = build_slq41()

        def atom(n):
            if n.kind == "a":
                return pres.gen("a[%d,%d]" % n.indices)
            if n.kind == "D":
                return minor(*n.indices).value
            if n.kind == "Dc":
                r1, r2, c1, c2 = n.indices
                return general_minor((r1, r2), (c1, c2)).value
            raise EvaluationError("atom %s is not defined in slq41"
                                      % to_text(n))

        return _evaluate(node, lambda s: pres.scalar(s), atom)
    if algebra == "chiral-abstract":
        from .minkowski import build_chiral_presentation
        pres = build_chiral_presentation()

        def atom(n):
            if n.kind in ("t", "tau"):
                return pres.gen("%s[%d,%d]" % ((n.kind,) + n.indices))
            raise EvaluationError(
                "atom %s is not defined in chiral-abstract" % to_text(n))

        return _evaluate(node, lambda s: pres.scalar(s), atom)
    if algebra in ("grq", "minkq"):
        loc = localized()

        def atom(n):
            if n.kind == "D":
                return loc.from_minor(minor_index(*n.indices))
            if n.kind == "D12inv":
                if algebra == "grq":
                    raise EvaluationError(
                        "D12inv lives in minkq, not in grq")
                return loc.dinv()
            raise EvaluationError("atom %s is not defined in %s"
                                  % (to_text(n), algebra))

        def scalar(s):
            return loc.one().scale(s)

        return _evaluate(node, scalar, atom)
    raise EvaluationError("unknown algebra %r (expected one of %s)"
                          % (algebra, ", ".join(ALGEBRAS)))


def normal_form_text(expr_text, algebra):
    node = parse(expr_text)
    value = evaluate_expression(node, algebra)
    if algebra in ("grq", "minkq"):
        return value.straightened().to_text()
    return value.to_text()


# -- derived tables ------------------------------------------------------------


def closure_table_data():
    from .minkowski import closure_table
    table = closure_table()
    names = [m.name for m in minor_set()]
    entries = []
    for (a, b), e in sorted(table.entries.items()):
        corr = " + ".join(
            "%s*%s*%s" % (fr.to_text() if fr.num.monomial_unit() is None
                          else fr.to_text(), names[c1], names[c2])
            for (c1, c2), fr in sorted(e.correction.items()))
        entries.append({
            "left": names[b],
            "right": names[a],
            "kind": e.kind,
            "sign": e.sign,
            "exponent": e.exponent,
            "correction": corr,
            "ok": e.ok,
        })
    return {"table": "closure", "minor_order": names, "entries": entries,
            "all_ok": table.all_ok}


def conformal_table_data():
    sc = classical.bracket_closure_table()
    entries = []
    for (i, j), combo in sorted(sc.table.items()):
        entries.append({
            "left": sc.names[i],
            "right": sc.names[j],
            "bracket": " + ".join("%s*%s" % (c.to_text(), sc.names[k])
                                  for k, c in combo) or "0",
        })
    return {"table": "conformal", "basis": sc.names, "entries": entries,
            "closed": sc.closed}


def _emit_table(data, fmt):
    if fmt == "json":
        return json.dumps(data, indent=2, sort_keys=True)
    lines = []
    if data["table"] == "closure":
        lines.append("closure table (minor order: %s)"
                     % ", ".join(data["minor_order"]))
        for e in data["entries"]:
            if e["kind"] == "trivial":
                rhs = "trivial"
            elif e["kind"] == "square":
                rhs = e["correction"] or "0"
                lines.append("%s^2 = %s" % (e["left"], rhs))
                continue
            else:
                exp = e["exponent"]
                qpow = "" if exp == 0 else ("q*" if exp == 1
                                            else "q^%d*" % exp)
                lead = "%s%s%s*%s" % ("-" if e["sign"] < 0 else "",
                                      qpow, e["right"], e["left"])
                rhs = lead + (" + " + e["correction"] if e["correction"]
                              else "")
            lines.append("%s*%s = %s" % (e["left"], e["right"], rhs))
        lines.append("all entries resolve: %s" % data["all_ok"])
    else:
        lines.append("conformal structure constants (basis: %s)"
                     % ", ".join(data["basis"]))
        for e in data["entries"]:
            lines.append("[%s, %s] = %s" % (e["left"], e["right"],
                                            e["bracket"]))
        lines.append("closed: %s" % data["closed"])
    return "\n".join(lines)


# -- argument parsing ------------------------------------------------------------


def build_arg_parser():
    ap = argparse.ArgumentParser(
        prog="qmink",
        description="Exact symbolic verification of the quantum chiral "
                    "Minkowski superspace construction.")
    sub = ap.add_subparsers(dest="command", required=True)

    nf = sub.add_parser("nf", help="print the canonical normal form of an "
                                   "expression")
    nf.add_argument("expr")
    nf.add_argument("--algebra", choices=ALGEBRAS, required=True)

    check = sub.add_parser("check", help="run a verification suite")
    check.add_argument("suite", choices=SUITE_NAMES + ("all",))
    check.add_argument("--format", choices=("json", "text"), default="text")
    check.add_argument("--serial", action="store_true",
                       help="accepted for older scripts; checks always run "
                            "serially")
    check.add_argument("--out", default=None,
                       help="also write the report to this path")
    check.add_argument("--verbose", action="store_true",
                       help="list passing records in text format")

    table = sub.add_parser("table", help="emit a derived table")
    table.add_argument("which", choices=("closure", "conformal"))
    table.add_argument("--format", choices=("json", "text"), default="text")
    return ap


def main(argv=None):
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    if args.command == "nf":
        try:
            print(normal_form_text(args.expr, args.algebra))
        except (ExprSyntaxError, EvaluationError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        return 0
    if args.command == "check":
        try:
            report = run_suite(args.suite)
        except UnknownSuiteError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        out = report.to_json(indent=2) if args.format == "json" \
            else report.to_text(verbose=args.verbose)
        print(out)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out + "\n")
        return 0 if report.passed else 1
    if args.command == "table":
        data = closure_table_data() if args.which == "closure" \
            else conformal_table_data()
        print(_emit_table(data, args.format))
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
