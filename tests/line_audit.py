"""Which functions and lines of src/qmink the production entry points reach.

The production entry points are the qmink commands that the suites, the
tables and the nf front end run (production_argv): `check all` in JSON,
one suite in verbose text, both tables in both formats, `nf` over
test_cli's seeded corpus, and test_cli's bad-input argv, which exit 2.
All of them run through cli.main, one after another, in one fresh
interpreter, so the lru_cache builders run cold.

never_called() runs them under sys.setprofile and returns the name of
each function defined in src/qmink whose code never ran, as
module.Class.method (nested functions get their enclosing function's
name as a prefix).  test_surface.py compares that set with its
allow-list.  unreached_lines() runs them under a sys.settrace line
tracer and returns the executable lines that never ran, by function;
line_counts() counts how often each executable line of one module ran,
so that a traffic figure quoted for a fast path can be taken again.

    python tests/line_audit.py                   # never-called functions
    python tests/line_audit.py --lines           # unreached lines
    python tests/line_audit.py --counts scalars  # runs of each line

Each takes about 10 s on a 2-core x86-64 box with Python 3.11.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmink"

# runs in the child: reads {"mode", "package", "argv"} from stdin, runs
# each argv through cli.main with its output discarded, and writes as JSON
# the code positions ("calls") it reached in the files under the prefix
# "package", or each line ("lines") it reached there with its run count
_CHILD = r"""
import contextlib, io, json, sys
job = json.load(sys.stdin)
package = job["package"]
seen = set()
if job["mode"] == "calls":
    def hook(frame, event, arg, add=seen.add):
        add(frame.f_code)
    def install():
        sys.setprofile(hook)
else:
    seen = {}
    def local(frame, event, arg, seen=seen):
        if event == "line":
            key = (frame.f_code.co_filename, frame.f_lineno)
            seen[key] = seen.get(key, 0) + 1
        return local
    def hook(frame, event, arg):
        if frame.f_code.co_filename.startswith(package):
            return local(frame, event, arg)
        return None
    def install():
        sys.settrace(hook)
install()
from qmink import cli
for argv in job["argv"]:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
    install()  # check --profile replaces the hook with cProfile's
sys.setprofile(None)
sys.settrace(None)
if job["mode"] == "calls":
    out = sorted({(c.co_filename, c.co_firstlineno) for c in seen
                  if c.co_filename.startswith(package)})
else:
    out = sorted((f, line, n) for (f, line), n in seen.items())
json.dump(out, sys.stdout)
"""


def production_argv():
    """The argv lists the audit runs, in order."""
    from test_cli import BAD_INPUT_ARGV, _nf_corpus
    argv = [["check", "all", "--format", "json"],
            ["check", "sct-inversion", "--format", "text", "--verbose"]]
    argv += [["table", which, "--format", fmt]
             for which in ("closure", "conformal") for fmt in ("json", "text")]
    argv += [["nf", "--algebra", algebra, "--", expr]
             for algebra, expr in _nf_corpus()]
    return argv + BAD_INPUT_ARGV


def child_env():
    """os.environ with ROOT/src first on PYTHONPATH, so that a child
    python finds qmink in a checkout where it is not installed."""
    src, rest = str(ROOT / "src"), os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + rest if rest else src)


def _run_child(mode, prefix=str(PACKAGE) + os.sep):
    job = {"mode": mode, "package": prefix, "argv": production_argv()}
    proc = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(job),
                          capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=600, check=True)
    return [tuple(x) for x in json.loads(proc.stdout)]


def _definitions():
    """(path, first line, dotted name) of every def in PACKAGE.  The first
    line is the one code objects report: the first decorator's, if any."""
    out = []

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    out.append((str(path), first, name))
                walk(child, path, name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path,
             path.stem + ".")
    return out


def never_called():
    """Dotted names of the defs in PACKAGE the production argv never call."""
    called = set(_run_child("calls"))
    return {name for path, line, name in _definitions()
            if (path, line) not in called}


def _executable_lines(path):
    """line -> dotted name of the innermost def or module whose code holds
    it, over every code object compiled from path."""
    owner = {}

    def walk(code, name):
        for _start, _end, line in code.co_lines():
            if line:  # None, or 0 for a module's first instruction
                owner[line] = name
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, name + "." + const.co_name
                     if code.co_name != "<module>" else
                     path.stem + "." + const.co_name)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         path.stem)
    return owner


def unreached_lines():
    """{dotted name: [unreached line, ...]} over PACKAGE, and the counts
    (unreached, executable)."""
    reached = {(f, line) for f, line, _n in _run_child("lines")}
    out, total = {}, 0
    for path in sorted(PACKAGE.glob("*.py")):
        owner = _executable_lines(path)
        total += len(owner)
        for line in sorted(owner):
            if (str(path), line) not in reached:
                out.setdefault((str(path), owner[line]), []).append(line)
    return out, sum(len(v) for v in out.values()), total


def line_counts(module):
    """{executable line: how often it ran} over src/qmink/<module>.py,
    and the dotted name of the def that owns each line."""
    path = PACKAGE / (module + ".py")
    ran = {line: n for _f, line, n in _run_child("lines", str(path))}
    owner = _executable_lines(path)
    return {line: ran.get(line, 0) for line in owner}, owner


def main(argv):
    if len(argv) == 2 and argv[0] == "--counts" and \
            (PACKAGE / (argv[1] + ".py")).is_file():
        counts, owner = line_counts(argv[1])
        text = (PACKAGE / (argv[1] + ".py")).read_text(
            encoding="utf-8").splitlines()
        last = None
        for line in sorted(counts):
            if owner[line] != last:
                last = owner[line]
                print("%s:" % last)
            print("  %5d  %9d  %s" % (line, counts[line],
                                      text[line - 1].strip()))
        return 0
    if argv == ["--lines"]:
        found, unreached, total = unreached_lines()
        for (path, name), lines in found.items():
            text = Path(path).read_text(encoding="utf-8").splitlines()
            print("%s (%s):" % (name, Path(path).name))
            for line in lines:
                print("  %5d  %s" % (line, text[line - 1].strip()))
        print("%d of %d executable lines unreached" % (unreached, total))
        return 0
    if argv:
        print("usage: python tests/line_audit.py [--lines | --counts MODULE]"
              "\n  MODULE: a module of src/qmink, such as scalars",
              file=sys.stderr)
        return 2
    for name in sorted(never_called()):
        print(name)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))  # test_cli imports qmink
    sys.exit(main(sys.argv[1:]))
