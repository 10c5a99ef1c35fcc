"""Every public module-level name in qmink is reached by the program.

A public function or class that only tests name is surface kept for the
tests alone: the suites, the CLI and the benchmark never run it, so it
can drift from what `qmink check` verifies.  This test parses
src/qmink/*.py and asserts that each module-level public definition is
named somewhere in src/qmink or perfbench/*.py outside its own body.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmink"


def _program_files():
    return sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench")
                                                 .glob("*.py"))


def _references(node):
    """Identifiers that node names: variables, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def unreached_public_names():
    # per file, the names each module-level statement refers to
    refs = {path: [_references(stmt) for stmt in
                   ast.parse(path.read_text(encoding="utf-8")).body]
            for path in _program_files()}
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        for k, node in enumerate(body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            named = any(node.name in names
                        for other, stmts in refs.items()
                        for j, names in enumerate(stmts)
                        if other != path or j != k)
            if not named:
                unreached.append("%s.%s" % (path.stem, node.name))
    return unreached


def test_every_public_name_is_reached_outside_the_tests():
    assert unreached_public_names() == []
