"""Static checks of the package source: no imported name goes unread (in the test modules too), no private or public name goes unused,
scipy is never imported and numpy only inside functions, shared state (a Representation's attributes,
a Monomial's words) is written only by its owner, a Scalar's parts are read only by the ring and its kernels,
and the CLI sets every representation option."""

import ast
import dataclasses
from pathlib import Path

import pytest

from sga.representation import RepConfig, Signature

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sga"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


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


@pytest.mark.parametrize(
    "path",
    [SRC / m for m in MODULES] + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}",
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def eager_imports(source):
    """(line, module) of each import of scipy, and of each import of numpy outside a function body.

    Exact work must start without either: numpy is imported inside the
    functions that do float work, and scipy not at all.
    """
    out = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                modules = [child.module]
            else:
                modules = []
            for module in modules:
                top = module.split(".")[0]
                if top == "scipy" or top == "numpy" and not in_function:
                    out.append((child.lineno, module))
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(ast.parse(source), False)
    return sorted(out)


def test_scanner_finds_eager_imports():
    source = (
        "import numpy as np\n"
        "from .numpy_helpers import a\n"
        "import os, numpy.linalg\n"
        "class A:\n"
        "    from numpy import eye\n"
        "    def f(self):\n"
        "        import numpy as np\n"
        "        from scipy.linalg import expm\n"
        "        return np, expm\n"
        "try:\n"
        "    import scipy\n"
        "except ImportError:\n"
        "    pass\n"
    )
    assert eager_imports(source) == [(1, "numpy"), (3, "numpy.linalg"), (5, "numpy"), (8, "scipy.linalg"), (11, "scipy")]


@pytest.mark.parametrize("module", MODULES)
def test_no_scipy_and_numpy_only_inside_functions(module):
    assert eager_imports((SRC / module).read_text()) == []


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


def attribute_uses(source, contexts, accessors):
    """(line, scope, name) of each attribute x.name in one of the ast `contexts`, or named as a literal by a call to one of `accessors`.

    `scope` is the dotted path of the enclosing classes and functions.
    """
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, contexts):
                out.append((child.lineno, scope, child.attr))
            elif (isinstance(child, ast.Call) and ast.unparse(child.func) in accessors and len(child.args) > 1
                  and isinstance(child.args[1], ast.Constant)):
                out.append((child.lineno, scope, child.args[1].value))
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(out)


def word_stores(source):
    """(line, scope, name) of each store or delete of an attribute named like a Monomial word.

    A store is an assignment, augmented assignment or del of x.name, or a
    setattr, object.__setattr__ or delattr call naming it as a literal.
    """
    uses = attribute_uses(source, (ast.Store, ast.Del), ("setattr", "object.__setattr__", "delattr"))
    return [use for use in uses if use[2] in MONOMIAL_WORDS]


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


SCALAR_PARTS = frozenset("abcdq")

# outside scalars.py only these read a Scalar's numerators: a unit's exponents, the accumulating product, the blade
# transform's packing
PART_READERS = {("matrices.py", "_unit_exponents"), ("matrices.py", "_exact_product"), ("blades.py", "_packing")}


def part_reads(source):
    """(line, scope, name) of each use of an attribute named like a Scalar part (a, b, c, d, q), or a getattr naming one."""
    uses = attribute_uses(source, (ast.Load, ast.Store, ast.Del), ("getattr",))
    return [use for use in uses if use[2] in SCALAR_PARTS]


def test_scanner_finds_part_reads():
    source = (
        "class A:\n"
        "    def f(self, s):\n"
        "        return s.a * s.q\n"
        "def g(s, t):\n"
        "    x = [u.d for u in t]\n"
        "    y = getattr(s, 'c')\n"
        "    s.b = 1\n"
        "    return s.ab, s.e, getattr(s, name), x, y\n"
        "z = lambda s: s.b\n"
    )
    assert part_reads(source) == [(3, "A.f", "a"), (3, "A.f", "q"), (5, "g", "d"), (6, "g", "c"), (7, "g", "b"),
                                  (9, "", "b")]


def test_only_the_ring_and_its_kernels_read_scalar_parts():
    """The Q(i, sqrt2) product is written out in scalars.py and in the accumulating product only, so a fix lands in two places."""
    found = [(path.name, scope, line, name) for path in sorted(SRC.glob("*.py")) if path.name != "scalars.py"
             for line, scope, name in part_reads(path.read_text())]
    assert [read for read in found if read[:2] not in PART_READERS] == []
    assert {read[:2] for read in found} == PART_READERS  # no stale exception


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


def unused_names(sources, selected, readers=(), exported=()):
    """(module, line, name) of each module-level function or class, or method, of `sources` that no source uses.

    `sources` maps module names to their source text, and only the names
    that `selected` accepts are reported.  A module-level name is used
    if it is `exported` or if any of the sources or of the `readers`
    texts reads or imports it.
    A method is used if one of them calls it as x.name(...) or imports
    it, and a property if one of them reads it without calling it.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    every = [*trees.values(), *map(ast.parse, readers)]
    referenced, imported = referenced_names(every) | set(exported), imported_names(every)
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


def unused_public_names(sources, readers, exported=()):
    return unused_names(sources, is_public, readers, exported)


def export_table(source):
    """The public names of a package's ``__init__.py``: the keys of its ``_EXPORTS`` table, which ``__all__`` is read off."""
    [table] = [node.value for node in ast.parse(source).body
               if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_EXPORTS"]]
    return set(ast.literal_eval(table))


EXPORTS = export_table((SRC / "__init__.py").read_text())


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


def test_scanner_counts_an_exported_name_as_read():
    sources = {
        "__init__.py": '_EXPORTS = {"exported": "a"}\n',
        "a": "def exported():\n    pass\ndef hidden():\n    pass\n",
    }
    exported = export_table(sources["__init__.py"])
    assert exported == {"exported"}
    assert unused_public_names(sources, [], exported) == [("a", 3, "hidden")]  # neither exported nor read
    assert unused_public_names(sources, []) == [("a", 1, "exported"), ("a", 3, "hidden")]


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
    assert unused_public_names(sources, readers, EXPORTS) == []


# public names only the tests read, kept as oracles: the dense view of a Matrix and a bitcode's chirality
TEST_ORACLES = {("bitcodes.py", "chirality"), ("matrices.py", "rows")}


def test_no_public_name_is_read_by_the_tests_alone():
    """Every public name of the package is read in it, by the benchmark or by ``sga.__all__``, not only by the tests.

    The names of ``__init__.py``'s export table, which ``sga.__all__`` is
    read off, count as read.  A helper only tests need belongs in the
    tests; the oracles in TEST_ORACLES are the exceptions.
    """
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    readers = [p.read_text() for p in (SRC.parent.parent / "bench").glob("*.py")]
    found = unused_public_names(sources, readers, EXPORTS)
    assert [(module, name) for module, _, name in found if (module, name) not in TEST_ORACLES] == []
    assert {(module, name) for module, _, name in found} == TEST_ORACLES  # no stale exception


def config_call_keywords(source, function):
    """The names `function` of the source passes to its RepConfig(...) call, by keyword or by position."""
    names = [f.name for f in dataclasses.fields(RepConfig)]
    [func] = [node for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.FunctionDef) and node.name == function]
    [call] = [node for node in ast.walk(func)
              if isinstance(node, ast.Call) and ast.unparse(node.func) == "RepConfig"]
    return set(names[:len(call.args)]) | {k.arg for k in call.keywords}


def test_scanner_reads_a_config_call():
    source = "def f(a):\n    return g(RepConfig(a.sig, odd_mode=a.o))\n"
    assert config_call_keywords(source, "f") == {"signature", "odd_mode"}


def test_every_representation_option_is_a_cli_option():
    """The CLI sets every RepConfig field, so no representation option is reachable from tests alone."""
    fields = {f.name for f in dataclasses.fields(RepConfig)}
    assert config_call_keywords((SRC / "cli.py").read_text(), "_rep_from_args") == fields
    with pytest.raises(TypeError):
        RepConfig(Signature(3, 1), gamma_phase_sign=-1)
