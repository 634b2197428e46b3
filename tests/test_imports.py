"""Every top-level import of a library or test module is used by it, each
module is named by one `from X import` statement per file, the package
exports exactly what its __init__ imports, every helper of the package
(private, or public and not exported) serves the package itself, and every
parameter default of a package function is overridden by some call and
left out by some call of the program, no function of the package takes
a `metric` (a system names its own), and importing the package loads no
thread pool and no logging."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import infotraj

REPO = Path(__file__).resolve().parents[1]
PACKAGE_INIT = REPO / "src" / "infotraj" / "__init__.py"
LIBRARY = sorted((REPO / "src" / "infotraj").glob("*.py"))
PERFBENCH = sorted((REPO / "perfbench").glob("*.py"))
MODULES = sorted(
    p for p in (REPO / "src" / "infotraj").glob("*.py") if p.name != "__init__.py"
) + sorted((REPO / "tests").glob("*.py"))


def _dotted(node):
    """'a.b.c' for the expression a.b.c, None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that it never reads; a
    dotted `import a.b` counts as used only where a.b itself is read."""
    tree = ast.parse(source)
    bound = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            bound += [alias.asname or alias.name for alias in stmt.names]
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            bound += [alias.asname or alias.name for alias in stmt.names if alias.name != "*"]
    used = set()
    for node in ast.walk(tree):
        name = _dotted(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
        while name:
            used.add(name)
            name = name.rpartition(".")[0]
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_unused_names():
    source = (
        "import os\nimport infotraj.cli\nimport infotraj.grid\n"
        "from math import pi, tau as turn\n"
        "print(infotraj.grid.Axis, turn)\n"
    )
    assert unused_imports(source) == ["os", "infotraj.cli", "pi"]


def repeated_from_imports(source: str) -> list:
    """Modules that more than one top-level `from X import` statement names."""
    seen, repeated = set(), []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.ImportFrom):
            name = "." * stmt.level + (stmt.module or "")
            if name in seen and name not in repeated:
                repeated.append(name)
            seen.add(name)
    return repeated


@pytest.mark.parametrize(
    "path", [PACKAGE_INIT] + MODULES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_one_from_import_per_module(path):
    assert repeated_from_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_repeated_from_imports():
    source = "from a import b\nfrom c import d\nfrom a import e\nfrom a import f\n"
    assert repeated_from_imports(source) == ["a"]


def test_all_is_what_the_package_imports():
    tree = ast.parse(PACKAGE_INIT.read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for stmt in tree.body
        if isinstance(stmt, ast.ImportFrom)
        for alias in stmt.names
    ]
    assert sorted(infotraj.__all__) == sorted(imported)


def _reads(root) -> Counter:
    """How often each name is read under root, as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(root)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def unreferenced_helpers(sources: list, exported=()) -> list:
    """Functions and classes defined in the sources that no source reads
    outside their own definition: single-underscore ones at any depth, and
    public module-level ones whose names are not in exported."""
    trees = [ast.parse(source) for source in sources]
    everywhere = sum((_reads(tree) for tree in trees), Counter())
    definitions = (ast.FunctionDef, ast.ClassDef)
    private = [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, definitions)
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    public = [
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, definitions)
        and not node.name.startswith("_")
        and node.name not in exported
    ]
    return [
        node.name
        for node in private + public
        if everywhere[node.name] == _reads(node)[node.name]
    ]


def test_private_helpers_are_used_in_src():
    sources = [path.read_text(encoding="utf-8") for path in LIBRARY]
    assert unreferenced_helpers(sources, infotraj.__all__) == []


def test_scan_flags_helpers_only_tests_call():
    library = (
        "def _used(n):\n    return _used(n - 1) if n else 0\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
        "class _Stencil:\n    def _check(self):\n        return 1\n"
        "def leftover_step(y):\n    return leftover_step(y) if y else 0\n"
        "def public():\n    return _used(2), _Stencil()\n"
    )
    tests = (
        "from lib import _recursive, _Stencil, leftover_step\n"
        "print(_recursive(3), _Stencil()._check(), leftover_step(0))\n"
    )
    exported = ["public"]
    assert unreferenced_helpers([library], exported) == ["_recursive", "_check", "leftover_step"]
    assert unreferenced_helpers([library, tests], exported) == []
    # a public function that is neither exported nor read anywhere
    assert unreferenced_helpers([library, tests]) == ["public"]


def _defaulted(trees) -> dict:
    """Each module-level function of trees with a defaulted parameter: name ->
    (positional parameter names, defaulted parameter names)."""
    defaulted = {}
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            names = positional[len(positional) - len(args.defaults):] + [
                a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            if names:
                defaulted[node.name] = (positional, names)
    return defaulted


def _calls(trees, defaulted):
    """(name, parameters it passes, by position or keyword) for each call in
    trees of a function in defaulted; None for a call with *args or
    **kwargs, which may pass any."""
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name not in defaulted:
                continue
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            ):
                yield name, None
            else:
                positional = defaulted[name][0]
                yield name, set(positional[: len(call.args)]) | {k.arg for k in call.keywords}


def _unmarked(defaulted, marked) -> list:
    """'function(parameter)' for each defaulted parameter not in marked."""
    return [
        f"{name}({p})"
        for name, (_, names) in defaulted.items()
        for p in names
        if (name, p) not in marked
    ]


def unoverridden_defaults(sources: list, library_count: int) -> list:
    """'function(parameter)' for each defaulted parameter of a module-level
    function of the first library_count sources that no call in any source
    passes, by keyword or by position; a call with *args or **kwargs passes
    every parameter."""
    trees = [ast.parse(source) for source in sources]
    defaulted = _defaulted(trees[:library_count])
    passed = set()
    for name, given in _calls(trees, defaulted):
        passed.update((name, p) for p in defaulted[name][1] if given is None or p in given)
    return _unmarked(defaulted, passed)


def test_every_default_is_overridden_somewhere():
    sources = [path.read_text(encoding="utf-8") for path in LIBRARY]
    tests = [path.read_text(encoding="utf-8") for path in sorted((REPO / "tests").glob("*.py"))]
    assert unoverridden_defaults(sources + tests, len(sources)) == []


def test_scan_flags_defaults_no_call_passes():
    library = (
        "def solve(grid, steps=10, tol=1e-9, *, width=640, legs=1):\n    return grid\n"
        "def check(z, delta=1e-5):\n    return z\n"
        "class Metric:\n    def flow(self, h=0.5):\n        return h\n"
    )
    tests = (
        "from lib import solve, check\n"
        "solve(1, 20)\nmake().solve(1, legs=2)\ncheck(*[1, 2])\nMetric().flow()\n"
    )
    # a method's defaults are not scanned, *args passes everything
    assert unoverridden_defaults([library, tests], 1) == ["solve(tol)", "solve(width)"]
    assert unoverridden_defaults([library], 1) == [
        "solve(steps)", "solve(tol)", "solve(width)", "solve(legs)", "check(delta)",
    ]


def defaults_no_call_leaves_out(sources: list, library_count: int) -> list:
    """'function(parameter)' for each defaulted parameter of a module-level
    function of the first library_count sources that no call in any source
    leaves out; a call with *args or **kwargs leaves out none, and a
    function that a source reads without calling it (say, hands to another
    function) leaves out all of its defaults."""
    trees = [ast.parse(source) for source in sources]
    defaulted = _defaulted(trees[:library_count])
    left_out = set()
    for name, given in _calls(trees, defaulted):
        if given is not None:
            left_out.update((name, p) for p in defaulted[name][1] if p not in given)
    for tree in trees:
        callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees:
                name = node.attr if isinstance(node, ast.Attribute) else node.id
                left_out.update((name, p) for p in defaulted.get(name, ((), ()))[1])
    return _unmarked(defaulted, left_out)


def test_every_default_is_left_out_by_the_program():
    sources = [path.read_text(encoding="utf-8") for path in LIBRARY]
    bench = [path.read_text(encoding="utf-8") for path in PERFBENCH]
    assert defaults_no_call_leaves_out(sources + bench, len(sources)) == []


def test_scan_flags_defaults_no_call_leaves_out():
    library = (
        "def solve(grid, steps=10, tol=1e-9, *, width=640, legs=1):\n    return grid\n"
        "def check(z, delta=1e-5):\n    return z\n"
        "def extract(out, starts=None, scenario=None):\n    return out\n"
        "class Metric:\n    def flow(self, h=0.5):\n        return h\n"
        "def main():\n    return solve(1, 20, 1e-6, width=10), check(1, 2)\n"
    )
    bench = "timed(lib.extract, 'out')\nlib.solve(1, legs=2)\ncheck(*[1])\nMetric().flow(1)\n"
    # a method's defaults are not scanned, *args leaves nothing out, and a
    # function read without a call leaves out every default
    assert defaults_no_call_leaves_out([library, bench], 1) == ["check(delta)"]
    assert defaults_no_call_leaves_out([library], 1) == [
        "solve(steps)", "solve(tol)", "solve(width)", "check(delta)",
        "extract(starts)", "extract(scenario)",
    ]


def parameters_named(sources: list, name: str) -> list:
    """Each function, method or lambda of the sources, at any depth, that
    takes a parameter called name."""
    found = []
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                if any(a.arg == name for a in params):
                    found.append(getattr(node, "name", "<lambda>"))
    return found


def test_no_function_takes_a_metric():
    # the one terminal metric is the system's own (CascadeSystem.metric)
    sources = [path.read_text(encoding="utf-8") for path in LIBRARY]
    assert parameters_named(sources, "metric") == []


def test_only_the_march_kernel_takes_a_plan():
    # a prior holds its Taylor stencil and a sensor its noise information,
    # so no sensing kernel takes a precomputed plan
    sources = [path.read_text(encoding="utf-8") for path in LIBRARY]
    assert parameters_named(sources, "plan") == ["lf_rate"]


def test_scan_flags_parameters_named():
    source = (
        "def solve(system, metric):\n    return system\n"
        "class Car:\n    @property\n    def metric(self):\n        return 1\n"
        "    def flow(self, h, *, metric=None):\n        return h\n"
        "cost = lambda metric: metric\n"
        "def extract(*metric):\n    return 0\n"
    )
    assert sorted(parameters_named([source], "metric")) == ["<lambda>", "extract", "flow", "solve"]


def test_package_import_loads_no_thread_pool_or_logging():
    # the march's slab threads are plain threading ones: concurrent.futures
    # alone pulls in logging, 0.25 MB and about 5 ms of every start-up
    probe = (
        "import sys, infotraj\n"
        "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"
