"""qmink command line: normal forms, verification suites, derived tables."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import classical
from .algebra import terms_text
from .checks import SUITE_NAMES, run_suite
from .kernel import BudgetExceeded
from .minkowski import (build_chiral_presentation, closure_table, localized,
                        minor_index)
from .parser import (Atom, ExprSyntaxError, ImagUnit, IntLit, Neg, Prod,
                     QPow, Sum, atom_text, parse)
from .scalars import DigitLimitError, I, ONE, Scalar, ZERO
from .supergroup import MINOR_NAMES, build_slq41, general_minor, minor

ALGEBRAS = ("slq41", "grq", "minkq", "chiral-abstract")


class EvaluationError(ValueError):
    pass


def _evaluate(node, scalar, atom):
    """The value of node in the algebra of scalar and atom.

    A subtree that holds no Atom folds to one Scalar.  A Scalar meets
    the algebra only as element.scale(s) in a product, as scalar(s)
    where a sum mixes constants with elements, and as scalar(s) when
    the whole expression is constant.  Nodes are visited left to
    right, so the first EvaluationError is the one of a left-to-right
    walk.
    """
    def ev(n):
        cls = n.__class__
        if cls is Atom:
            return atom(n)
        if cls is Prod:
            coeff = ONE
            out = None
            for f in n.factors:
                v = ev(f)
                if v.__class__ is Scalar:
                    coeff = coeff * v
                elif out is None:
                    out = v
                else:
                    out = out * v
            if out is None:
                return coeff
            return out if coeff is ONE else out.scale(coeff)
        if cls is Sum:
            const = ZERO
            out = None
            for t in n.terms:
                v = ev(t)
                if v.__class__ is Scalar:
                    const = const + v
                elif out is None:
                    out = v
                else:
                    out = out + v
            if out is None:
                return const
            return out + scalar(const) if const else out
        if cls is Neg:
            return -ev(n.arg)
        if cls is IntLit:
            return Scalar.from_int(n.value)
        if cls is QPow:
            return Scalar.q_pow(n.exp)
        if cls is ImagUnit:
            return I
        raise TypeError(n)

    value = ev(node)
    return scalar(value) if value.__class__ is Scalar else value


def evaluate_expression(node, algebra):
    """Evaluate a parsed expression in one of the named algebras."""
    if algebra == "slq41":
        pres = build_slq41()

        def atom(n):
            if n.kind == "a":
                return pres.gen("a[%d,%d]" % n.indices)
            if n.kind == "D":
                return minor(*n.indices)
            if n.kind == "Dc":
                r1, r2, c1, c2 = n.indices
                return general_minor((r1, r2), (c1, c2))
            raise EvaluationError("atom %s is not defined in slq41"
                                      % atom_text(n))

        return _evaluate(node, lambda s: pres.scalar(s), atom)
    if algebra == "chiral-abstract":
        pres = build_chiral_presentation()

        def atom(n):
            if n.kind in ("t", "tau"):
                return pres.gen("%s[%d,%d]" % ((n.kind,) + n.indices))
            raise EvaluationError(
                "atom %s is not defined in chiral-abstract" % atom_text(n))

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
                                  % (atom_text(n), algebra))

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
    table = closure_table()
    names = MINOR_NAMES

    def pair_text(pair):
        return "%s*%s" % (names[pair[0]], names[pair[1]])

    entries = []
    for (a, b), e in sorted(table.items()):
        entries.append({
            "left": names[b],
            "right": names[a],
            "kind": e.kind,
            "sign": e.sign,
            "exponent": e.exponent,
            "correction": terms_text(e.correction, pair_text)
            if e.correction else "",
            "ok": e.ok,
        })
    return {"table": "closure", "minor_order": names, "entries": entries,
            "all_ok": all(e.ok for e in table.values())}


def conformal_table_data():
    names = [vf.name for vf in classical.conformal_basis()[1]]
    entries = []
    closed = True
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            combo = classical.bracket_coordinates(i, j)
            if combo is None:
                closed = False
                continue
            entries.append({
                "left": names[i],
                "right": names[j],
                "bracket": terms_text(dict(combo), names.__getitem__),
            })
    return {"table": "conformal", "basis": names, "entries": entries,
            "closed": closed}


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
                # the lead word sorts above every correction word, so
                # its term prints first, as in the sum of both
                rhs = terms_text({"%s*%s" % (e["right"], e["left"]):
                                  Scalar.term(e["exponent"], e["sign"])}, str)
                if e["correction"]:
                    rhs += " + " + e["correction"]
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

    nf = sub.add_parser("nf", help="print the normal form of an expression "
                                   "(in grq and minkq, a straightened "
                                   "representative that depends on how "
                                   "the input is written)")
    nf.add_argument("expr")
    nf.add_argument("--algebra", choices=ALGEBRAS, required=True)

    check = sub.add_parser("check", help="run a verification suite")
    check.add_argument("suite", choices=SUITE_NAMES + ("all",))
    check.add_argument("--format", choices=("json", "text"), default="text")
    check.add_argument("--out", default=None,
                       help="also write the report to this path")
    check.add_argument("--verbose", action="store_true",
                       help="list passing records in text format")
    check.add_argument("--profile", metavar="PATH", default=None,
                       help="write cProfile statistics of the run to this "
                            "path (pstats format)")

    table = sub.add_parser("table", help="emit a derived table")
    table.add_argument("which", choices=("closure", "conformal"))
    table.add_argument("--format", choices=("json", "text"), default="text")
    return ap


def main(argv=None):
    """Run the command line argv; returns the exit code."""
    args = build_arg_parser().parse_args(argv)
    if args.command == "nf":
        try:
            text = normal_form_text(args.expr, args.algebra)
        except (ExprSyntaxError, EvaluationError, DigitLimitError,
                BudgetExceeded) as exc:
            _print_err("error: %s" % exc)
            return 2
        return _print_out(text)
    if args.command == "check":
        prof = None
        if args.profile:
            import cProfile
            prof = cProfile.Profile()
        report = prof.runcall(run_suite, args.suite) if prof \
            else run_suite(args.suite)
        out = report.to_json(indent=2) if args.format == "json" \
            else report.to_text(verbose=args.verbose)
        code = 0 if report.passed else 1
        try:  # the files first: a reader may close stdout early
            if args.out:
                Path(args.out).write_text(out + "\n", encoding="utf-8")
            if prof:
                prof.dump_stats(args.profile)
        except OSError as exc:
            _print_err("error: %s" % exc)
            code = 2
        return _print_out(out) or code
    data = closure_table_data() if args.which == "closure" \
        else conformal_table_data()
    return _print_out(_emit_table(data, args.format))


def _print_out(text):
    """Print text on stdout and flush it.  Returns 0, or 2 when stdout is
    closed or cannot be written, as for an unwritable --out; one error
    line says why, but for a reader that closed the pipe early."""
    out = sys.stdout
    if out is None:  # fd 1 was closed when the interpreter started
        _print_err("error: stdout is closed")
        return 2
    try:
        print(text, file=out)
        out.flush()
    except OSError as exc:
        # point fd 1 at /dev/null, so that the interpreter's own flush
        # of what is left in the buffer does not fail again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        if not isinstance(exc, BrokenPipeError):
            _print_err("error: %s" % exc)
        return 2
    return 0


def _print_err(text):
    """Print one line on stderr.  A stderr that is closed or cannot be
    written loses the line and changes no exit code."""
    err = sys.stderr
    if err is None:  # fd 2 was closed when the interpreter started
        return
    try:
        print(text, file=err)
        err.flush()
    except OSError:
        # as for stdout: the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), err.fileno())


if __name__ == "__main__":
    sys.exit(main())
