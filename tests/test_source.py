"""Static checks of the package source: no imported name goes unread, no private or public name goes unused,
and shared state (a Representation's attributes, a Monomial's words) is written only by its owner."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sga"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names a module imports and never reads, with the line of their import."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scanner_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from .x import a, b as c, d\n"
        "def f():\n"
        "    return os.path.join(a, d.e)\n"
    )
    assert unused_imports(source) == [(2, "math"), (4, "c")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def rep_attribute_stores(source):
    """(line, name) of each attribute of a name `rep` that the source assigns or deletes, by statement or setattr."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target, name = node.value, node.attr
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("setattr", "delattr"):
            target, name = node.args[0], ast.unparse(node.args[1])
        else:
            continue
        if isinstance(target, ast.Name) and target.id == "rep":
            out.append((node.lineno, name))
    return sorted(out)


def test_scanner_finds_rep_attribute_stores():
    source = (
        "rep.a = 1\n"
        "rep.b += 1\n"
        "x.rep = rep.read\n"
        "rep.c.d = 3\n"
        "rep._cache[k] = v\n"
        "(rep.e, y) = 1, 2\n"
        "setattr(rep, 'f', 1)\n"
        "del rep.g\n"
        "setattr(other, 'h', rep)\n"
    )
    assert rep_attribute_stores(source) == [(1, "a"), (2, "b"), (6, "e"), (7, "'f'"), (8, "g")]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "representation.py"])
def test_only_the_representation_sets_its_attributes(module):
    """A Representation's state is its own: other modules may fill its caches but add or replace no attribute."""
    assert rep_attribute_stores((SRC / module).read_text()) == []


MONOMIAL_WORDS = frozenset("nxzmvpe")

# a Monomial's words are written where one is made, so representations can share operators
WORD_WRITERS = {("Monomial.__init__", w) for w in MONOMIAL_WORDS} | {("_word", w) for w in MONOMIAL_WORDS}
WORD_WRITERS.add(("OuterProduct.__init__", "v"))  # its own row factor


def word_stores(source):
    """(line, scope, name) of each store or delete of an attribute named like a Monomial word.

    A store is an assignment, augmented assignment or del of x.name, or a
    setattr, object.__setattr__ or delattr call naming it as a literal;
    `scope` is the dotted path of the enclosing classes and functions.
    """
    setters = ("setattr", "object.__setattr__", "delattr")
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = None
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, (ast.Store, ast.Del)):
                name = child.attr
            elif (isinstance(child, ast.Call) and ast.unparse(child.func) in setters and len(child.args) > 1
                  and isinstance(child.args[1], ast.Constant)):
                name = child.args[1].value
            if name in MONOMIAL_WORDS:
                out.append((child.lineno, scope, name))
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(out)


def test_scanner_finds_word_stores():
    source = (
        "class A:\n"
        "    def f(self, o):\n"
        "        o.x = 1\n"
        "        o.p += 2\n"
        "        (o.v, y) = 1, 2\n"
        "        o.other = o.n\n"
        "        o.x.y = 4\n"
        "        o.items[0] = 5\n"
        "def g(o):\n"
        "    setattr(o, 'e', 1)\n"
        "    object.__setattr__(o, 'z', 1)\n"
        "    del o.m\n"
        "    setattr(o, name, 1)\n"
    )
    assert word_stores(source) == [(3, "A.f", "x"), (4, "A.f", "p"), (5, "A.f", "v"),
                                   (10, "g", "e"), (11, "g", "z"), (12, "g", "m")]


@pytest.mark.parametrize("module", MODULES)
def test_monomial_words_are_written_only_where_a_monomial_is_made(module):
    """Operators are shared between representations, so no code may change a Monomial's words after it is made."""
    stores = word_stores((SRC / module).read_text())
    assert [(line, scope, name) for line, scope, name in stores if (scope, name) not in WORD_WRITERS] == []


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def is_public(name):
    return not name.startswith("_")


def referenced_names(trees):
    """Every name or attribute read, and every name imported, in the parsed sources."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
    return out


def member_uses(trees):
    """(called, read): the attribute names the sources call as x.name(...), and those they read without a call."""
    called, read = set(), set()
    for tree in trees:
        funcs = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                (called if id(node) in funcs else read).add(node.attr)
    return called, read


def imported_names(trees):
    return {alias.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def is_property(node):
    return any(ast.unparse(d) in ("property", "cached_property") for d in node.decorator_list)


def unused_names(sources, selected, readers=()):
    """(module, line, name) of each module-level function or class, or method, of `sources` that no source uses.

    `sources` maps module names to their source text, and only the names
    that `selected` accepts are reported.  A module-level name is used
    if any of the sources or of the `readers` texts reads or imports it.
    A method is used if one of them calls it as x.name(...) or imports
    it, and a property if one of them reads it without calling it.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    every = [*trees.values(), *map(ast.parse, readers)]
    referenced, imported = referenced_names(every), imported_names(every)
    called, read = member_uses(every)
    called |= imported
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, defs) and selected(node.name) and node.name not in referenced:
                out.append((module, node.lineno, node.name))
            for item in node.body if isinstance(node, ast.ClassDef) else []:
                if not isinstance(item, defs) or not selected(item.name):
                    continue
                used = item.name in (read if is_property(item) else called)
                if not used:
                    out.append((module, item.lineno, item.name))
    return sorted(out)


def unused_private_names(sources):
    return unused_names(sources, is_private)


def unused_public_names(sources, readers):
    return unused_names(sources, is_public, readers)


def test_scanner_finds_unused_private_names():
    sources = {
        "a": (
            "def _used():\n    pass\n"
            "def _unused():\n    pass\n"
            "class _Gone:\n    pass\n"
            "class Kept:\n"
            "    def __init__(self):\n        self._helper()\n"
            "    def _helper(self):\n        pass\n"
            "    def _stale(self):\n        pass\n"
            "    def public(self):\n        pass\n"
        ),
        "b": "from a import _used\n_used()\n",
    }
    assert unused_private_names(sources) == [("a", 3, "_unused"), ("a", 5, "_Gone"), ("a", 12, "_stale")]


def test_no_unused_private_names():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unused_private_names(sources) == []


def test_scanner_finds_unused_public_names():
    sources = {
        "a": (
            "def used():\n    pass\n"
            "def unused():\n    pass\n"
            "class Gone:\n    pass\n"
            "class Kept:\n"
            "    def __eq__(self, other):\n        return self.helper()\n"
            "    def helper(self):\n        pass\n"
            "    def stale(self):\n        pass\n"
            "    def _private(self):\n        pass\n"
        ),
    }
    readers = ["from a import used, Kept\n"]
    assert unused_public_names(sources, readers) == [("a", 3, "unused"), ("a", 5, "Gone"), ("a", 12, "stale")]
    assert ("a", 1, "used") in unused_public_names(sources, [])  # read only outside the package


def test_scanner_counts_a_method_used_only_when_called_and_a_property_only_when_read():
    sources = {
        "a": (
            "class Kept:\n"
            "    def called(self):\n        pass\n"
            "    def imported(self):\n        pass\n"
            "    def named_only(self):\n        pass\n"
            "    def tally(self):\n        pass\n"
            "    @property\n"
            "    def read(self):\n        pass\n"
            "    @property\n"
            "    def measure(self):\n        pass\n"
            "    @cached_property\n"
            "    def cached(self):\n        pass\n"
        ),
    }
    readers = [
        "from a import Kept, imported\n"
        "k = Kept()\n"
        "k.called()\n"
        "f = k.named_only\n"  # a bound method passed around is no call
        "k.x.tally\n"  # a read of the name, not a call
        "n = k.read + k.cached\n"
        "k.measure()\n"  # a call of the name is no read of a property
    ]
    assert unused_public_names(sources, readers) == [
        ("a", 6, "named_only"), ("a", 8, "tally"), ("a", 14, "measure"),
    ]


def test_no_unused_public_names():
    """Every public function, class and method of the package is read in it, its tests or the benchmark."""
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    readers = [p.read_text() for folder in ("tests", "bench") for p in (SRC.parent.parent / folder).glob("*.py")]
    assert unused_public_names(sources, readers) == []
