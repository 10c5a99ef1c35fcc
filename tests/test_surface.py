"""Every public name in qmink is reached by the program.

A public function, class, method or field that only tests name is
surface kept for the tests alone: the suites, the CLI and the benchmark
never run it, so it can drift from what `qmink check` verifies.  These
tests parse src/qmink/*.py and assert that each module-level public
definition is named, and each public member of a module-level class is
read as an attribute, somewhere in src/qmink or perfbench/*.py outside
its own definition.  Tests pin which functions hold a `del`, so that
the sparse zero-dropping merge is not copied again, and which print a
sum, so that the term printer is not either; one checks that only
grassmann.py reads the packed word layout.  The last test runs
the production entry points (tests/line_audit.py) and checks that every
function in src/qmink is called there, but for an allow-list.
"""

import ast
from collections import Counter
from pathlib import Path

from line_audit import never_called

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


def _public_members(cls):
    """(name, defining node) for each public method and attribute that
    __init__ sets on self, of the class cls."""
    out = []
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            if not node.name.startswith("_"):
                out.append((node.name, node))
            elif node.name == "__init__":
                out += [(t.attr, sub) for sub in ast.walk(node)
                        if isinstance(sub, ast.Assign) for t in sub.targets
                        if isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"
                        and not t.attr.startswith("_")]
    return out


def _attribute_reads(node):
    """How often each name is read as an attribute (x.name) in node."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute)
                   and isinstance(sub.ctx, ast.Load))


def unread_class_members():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in _program_files()}
    reads = sum((_attribute_reads(tree) for tree in trees.values()),
                Counter())
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for name, node in _public_members(cls):
                if reads[name] == _attribute_reads(node)[name]:
                    unread.append("%s.%s.%s" % (path.stem, cls.name, name))
    return unread


def test_every_public_class_member_is_read_outside_the_tests():
    assert unread_class_members() == []


def _collect_holders(node, scope, func, match, out):
    """Add to out the innermost function (module.name, or
    module.Class.name) around each node under node that match accepts."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = "%s.%s" % (scope, child.name)
            _collect_holders(child, name, name if isinstance(
                child, ast.FunctionDef) else func, match, out)
            continue
        if match(child):
            out.add(func)
        _collect_holders(child, scope, func, match, out)


def _functions_holding(match):
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _collect_holders(tree, path.stem, path.stem, match, found)
    return sorted(found)


def test_the_sparse_merge_is_written_once():
    # every term map sums through kernel.accumulate; the kernel's two
    # per-word loops, the tensor product's slot merge and the packed
    # Grassmann product stay inline for speed, and exact_divide also
    # pushes each word that enters its remainder onto a heap
    assert _functions_holding(lambda n: isinstance(n, ast.Delete)) == [
        "algebra.TensorPoly.__mul__",
        "grassmann.GrassmannAlgebra._product", "grassmann.exact_divide",
        "kernel._multiply", "kernel.accumulate", "kernel.normal_form_terms"]


def _calls_signed_join(node):
    return isinstance(node, ast.Call) and \
        isinstance(node.func, ast.Name) and node.func.id == "signed_join"


def _joins_with_plus(node):
    return isinstance(node, ast.Call) and \
        isinstance(node.func, ast.Attribute) and node.func.attr == "join" \
        and isinstance(node.func.value, ast.Constant) \
        and node.func.value.value == " + "


def test_the_term_printer_is_written_once():
    # every linear combination, the two CLI tables included, prints
    # through algebra.terms_text; a Scalar joins its own monomials, and
    # nothing else builds a sum's text
    assert _functions_holding(_calls_signed_join) == [
        "algebra.terms_text", "scalars.Scalar.to_text"]
    assert _functions_holding(_joins_with_plus) == []


# the fields of GrassmannAlgebra._pack_layout
PACKED_LAYOUT = frozenset(("fields", "letter_keys", "even_letter_ranks",
                           "guards", "odd_bits"))


def test_only_grassmann_reads_the_packed_layout():
    # packed words are one module's business: every other module of the
    # program goes through GrassmannAlgebra's methods, and nothing, tests
    # included, asks a presentation for a second, supercommutative mode
    readers, flagged = set(), []
    program = _program_files()
    for path in program + sorted(Path(__file__).parent.glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(sub, ast.Attribute) and sub.attr in PACKED_LAYOUT \
                    and path in program:
                readers.add(path.name)
            elif isinstance(sub, ast.keyword) and \
                    sub.arg == "supercommutative":
                flagged.append(path.name)
    assert readers == {"grassmann.py"}
    assert flagged == []


# functions that no production entry point calls, each kept for a reason;
# any other never-called function is surface to delete, and an entry
# that production reaches is stale
NEVER_CALLED = {
    "grassmann.GrassmannRational.__bool__":
        "without it every rational is truthy",
    "minkowski.LocalElement.__eq__":
        "TermMap's would compare term dicts, not ambient images",
    "minkowski.LocalElement.is_zero":
        "TermMap's would test the term dict, not the ambient image",
    "minkowski.LocalElement.__bool__":
        "TermMap's would test the term dict, not the ambient image",
    "scalars.Scalar.__hash__": "test_scalars pins the hash",
    "parser._Node.__eq__": "test_parser pins node equality",
    "grassmann.GrassmannAlgebra.word_text":
        "prints the classical-limit failure witness",
    "grassmann.GrassmannAlgebra._term_order":
        "prints the classical-limit failure witness",
    "algebra.TensorPoly._key_text":
        "prints the coaction homomorphism failure witness",
    "algebra.TensorPoly._term_order":
        "prints the coaction homomorphism failure witness",
    "algebra.TermMap.__repr__": "one-line repr over to_text",
    "scalars.Scalar.__repr__": "one-line repr over to_text",
    "scalars.GaussRational.__repr__": "one-line repr over to_text",
    "kernel.backend_name": "perfbench records it with each run",
}


def test_only_allow_listed_functions_are_never_called():
    assert never_called() == set(NEVER_CALLED)
