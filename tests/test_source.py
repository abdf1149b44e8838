"""Source-level invariants of the package."""
import ast
from pathlib import Path

import dyncompress

SOURCES = sorted(Path(dyncompress.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips asserts, so exact invariants must raise instead
    assert len(SOURCES) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def unused_imports(path: Path) -> list[str]:
    """Names a file imports and never reads, except on lines marked `# noqa: F401`."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*":
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    assert len(TESTS) > 1
    assert [u for path in SOURCES + TESTS for u in unused_imports(path)] == []


def test_unused_import_scan_sees_unused_names(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import os\nimport os.path as osp\nfrom json import dumps, loads\n"
        "from math import pi  # noqa: F401\nprint(loads('1'))\n"
    )
    assert unused_imports(sample) == ["sample.py:1 os", "sample.py:2 osp", "sample.py:3 dumps"]


def test_no_coverage_exclusions():
    # every branch of the package is meant to be reachable from the tests
    found = [
        f"{path.name}:{i}"
        for path in SOURCES
        for i, line in enumerate(path.read_text().splitlines(), start=1)
        if "pragma: no cover" in line
    ]
    assert found == []


def environment_reads(path: Path) -> list[str]:
    """Places where a file reads os.environ or os.getenv, by attribute or import."""
    names = {"environ", "getenv"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"{path.name}:{node.lineno} {node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name in names]
    return found


def test_no_environment_reads():
    # every setting is an argument or an option, so a run is reproducible
    # from its command line alone
    assert [r for path in SOURCES for r in environment_reads(path)] == []


def test_environment_scan_sees_reads(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import os\nfrom os import getenv\nfrom os.path import join\n"
        "a = os.environ.get('X')\nb = os.getenv('Y')\nc = join('p', 'q')\n"
    )
    assert sorted(environment_reads(sample)) == [
        "sample.py:2 getenv", "sample.py:4 environ", "sample.py:5 getenv",
    ]


def bare_dataclasses(path: Path) -> list[str]:
    """file:line class for every @dataclass class in a file without a __post_init__."""
    def named(node):
        node = node.func if isinstance(node, ast.Call) else node
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    return [
        f"{path.name}:{node.lineno} {node.name}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        and any(named(d) == "dataclass" for d in node.decorator_list)
        and not any(isinstance(b, ast.FunctionDef) and b.name == "__post_init__"
                    for b in node.body)
    ]


def test_dataclasses_only_validate():
    # a dataclass builds its methods with exec at import, about 0.5 ms a
    # class against 0.1 ms for a NamedTuple, so a plain record is a
    # NamedTuple and @dataclass stays for classes that check their fields
    assert [c for path in SOURCES for c in bare_dataclasses(path)] == []


def test_dataclass_scan_sees_bare_records(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import dataclasses\nfrom dataclasses import dataclass\nfrom typing import NamedTuple\n"
        "@dataclass\nclass A:\n    x: int\n"
        "@dataclasses.dataclass(frozen=True)\nclass B:\n    x: int\n"
        "    def check(self):\n        pass\n"
        "@dataclass(frozen=True)\nclass C:\n    x: int\n"
        "    def __post_init__(self):\n        pass\n"
        "class D(NamedTuple):\n    x: int\n"
    )
    assert bare_dataclasses(sample) == ["sample.py:5 A", "sample.py:8 B"]


def call_sites(path: Path, name: str) -> list[str]:
    """file:function for every call of name (by attribute or bare name) in a file.

    The function is the innermost one around the call; <module> outside any.
    """
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            called = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
            if called == name:
                found.append(f"{path.name}:{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_polyroots_has_one_call_site():
    # every census root call goes through _poly_roots, so none skips its
    # double-precision seed pass or its guard-bit ladder
    assert [s for path in SOURCES for s in call_sites(path, "polyroots")] == [
        "dynamics.py:_poly_roots"
    ]


def test_horner_has_one_call_site():
    # g is evaluated only in _Retention.keeps, through its cache of g
    assert [s for path in SOURCES for s in call_sites(path, "_horner")] == ["dynamics.py:keeps"]


def test_interpolation_matrix_built_only_for_wide_ellipsoids():
    # the schedule's det L_k is a product of binomials and the ellipsoid
    # takes the closed-form Gram, so only the Gram of build_ellipsoid's
    # k - 1 > d + 1 diagnostic builds the rows
    assert [s for path in SOURCES for s in call_sites(path, "build_interpolation_matrix")] == [
        "geometry.py:_ellipsoid_gram"
    ]


def test_polyroots_scan_sees_calls(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import mpmath as mp\nfrom mpmath import polyroots\n"
        "def a(c):\n    return mp.polyroots(c)\n"
        "def b(c):\n    def inner():\n        return mp.polyroots(c, maxsteps=9)\n    return inner()\n"
        "def c(c):\n    return polyroots(c)\n"
        "roots = polyroots([1, 0, -1])\n"
    )
    assert call_sites(sample, "polyroots") == [
        "sample.py:a", "sample.py:inner", "sample.py:c", "sample.py:<module>",
    ]
