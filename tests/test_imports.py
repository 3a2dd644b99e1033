"""Every module of the package, the tests and the scripts uses each name it imports; each name, method and stored attribute the package defines is used."""

import ast
from pathlib import Path

import pytest

import infidelay

SOURCES = sorted(Path(infidelay.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
_ROOT = Path(__file__).resolve().parent.parent
TESTS_AND_SCRIPTS = sorted(_ROOT.glob("tests/*.py")) + sorted(_ROOT.glob("scripts/*.py"))
BENCH = sorted(_ROOT.glob("bench/*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations such as Optional["HistoryFunction"] name types too
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES + TESTS_AND_SCRIPTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import math\nimport os\nprint(math.pi)\n") == ["os (line 2)"]


def _dead_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions, classes and constants that no code outside their own definition names.

    A name loaded in a module refers to that module's own definition, a
    relative import ("from .history import x", into __init__ too) to the named
    module's, and an attribute to every module's.  Dunder names such as
    __all__ are exempt, and the strings listed in __all__ are not references.
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    defined = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(mod, name, node.lineno, node.end_lineno) for name in names if not name.startswith("__")]
    refs = []  # (module whose definition is meant, None for any; name; module and line of the reference)
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((mod, node.id, mod, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((None, node.attr, mod, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                refs += [(f"{node.module}.py", alias.name, mod, node.lineno) for alias in node.names]
    return [
        f"{mod}:{first} {name}"
        for mod, name, first, last in defined
        if not any(
            r == name and t in (None, mod) and not (m == mod and first <= line <= last) for t, r, m, line in refs
        )
    ]


def test_every_definition_is_used():
    assert _dead_definitions({p.name: p.read_text() for p in SOURCES}) == []


def test_the_check_sees_a_dead_definition():
    sources = {
        "a.py": "LIMIT = 3\n\ndef used():\n    return LIMIT\n\ndef dead():\n    return dead()\n",
        "b.py": "from .a import used\n__all__ = ['dead']\nLIMIT = 4\n",
    }
    # b's LIMIT is a copy left behind: a's own use does not count for it
    assert _dead_definitions(sources) == ["a.py:6 dead", "b.py:3 LIMIT"]


def _unused_methods(defining: dict[str, str], using: list[str]) -> list[str]:
    """Methods of the classes in defining whose name no source in using reads as an attribute.

    Dunder methods are exempt: Python calls them itself.  A method left on one
    class of a protocol the others dropped is found once no caller names it.
    """
    used = {n.attr for src in using for n in ast.walk(ast.parse(src)) if isinstance(n, ast.Attribute)}
    return [
        f"{mod}:{node.lineno} {cls.name}.{node.name}"
        for mod, src in defining.items()
        for cls in ast.walk(ast.parse(src))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__")) and node.name not in used
    ]


def test_every_method_is_used():
    using = [p.read_text() for p in SOURCES + TESTS_AND_SCRIPTS + BENCH]
    assert _unused_methods({p.name: p.read_text() for p in SOURCES}, using) == []


def test_the_check_sees_an_unused_method():
    source = (
        "class A:\n    def __init__(self):\n        self.x = 1\n\n    def atoms(self):\n        return []\n\n"
        "class B:\n    def atoms(self):\n        return []\n\n    def retired(self):\n        return None\n"
    )
    assert _unused_methods({"m.py": source}, [source, "print(A().atoms())\n"]) == ["m.py:12 B.retired"]


def _unread_attributes(defining: dict[str, str], using: list[str]) -> list[str]:
    """Attributes stored as self.x = ... in defining whose name no source in using reads as .x.

    Any store counts: a tuple's entries, an augmented or annotated
    assignment.  An attribute that is only ever written holds state nothing
    uses.  Names are matched, not classes: a .x read of any object counts.
    """
    read = {n.attr for src in using for n in ast.walk(ast.parse(src)) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    stored = {}
    for mod, src in defining.items():
        for n in ast.walk(ast.parse(src)):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Name) and n.value.id == "self":
                stored.setdefault(n.attr, f"{mod}:{n.lineno} self.{n.attr}")
    return sorted(where for name, where in stored.items() if name not in read)


def test_every_stored_attribute_is_read():
    using = [p.read_text() for p in SOURCES + TESTS_AND_SCRIPTS + BENCH]
    assert _unread_attributes({p.name: p.read_text() for p in SOURCES}, using) == []


def test_the_check_sees_an_unread_attribute():
    source = (
        "class Chain:\n    def __init__(self):\n        self.rows, self.lo = 0, 0\n        self.hi: int = 0\n\n"
        "    def grow(self):\n        self.rows += 1\n        self.hi += 1\n        return self.rows\n"
    )
    # lo is only stored, hi only stored and incremented: neither is read
    assert _unread_attributes({"m.py": source}, [source]) == ["m.py:3 self.lo", "m.py:4 self.hi"]


def _discarded_batches(sources: dict[str, str]) -> list[str]:
    """Statements that call _seminorms or _sup_norms and drop the values they return.

    The batches return what they compute; a bare call would only fill
    phi._memo for a read-back through p_seminorm or sup_norm_k.
    """
    return [
        f"{mod}:{node.lineno}"
        for mod, src in sources.items()
        for node in ast.walk(ast.parse(src))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
        and {getattr(node.value.func, "id", None), getattr(node.value.func, "attr", None)} & {"_seminorms", "_sup_norms"}
    ]


def test_no_batch_result_is_dropped():
    assert _discarded_batches({p.name: p.read_text() for p in SOURCES}) == []


def test_the_check_sees_a_dropped_batch():
    source = (
        "def warm(phi, fam, ks):\n    _seminorms(phi, fam, ks, 1e-10)\n    history._sup_norms(phi, ks)\n"
        "    return [p_seminorm(phi, fam, k) for k in ks], _sup_norms(phi, ks)\n"
    )
    assert _discarded_batches({"m.py": source}) == ["m.py:2", "m.py:3"]


def test_all_names_exactly_what_the_package_imports():
    tree = ast.parse(Path(infidelay.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    exported = [name for name in infidelay.__all__ if name != "__version__"]
    assert sorted(exported) == sorted(imported)
    assert all(hasattr(infidelay, name) for name in infidelay.__all__)
