"""Every name has one import path, and every public function has a caller.

The package root re-exports only the run API; a layer's names are imported
from their own module. A module-level function without a leading
underscore must be used outside the module that defines it: by another
module of the package, by a demo, by an acceptance criterion or as a
console script. Neither unit tests nor the function's own module keep a
name public. A module-level function with a leading underscore must be
called or named somewhere under src/ outside its own body, and every
module-level class must be built somewhere under src/ outside its own
body, so no private helper or argument bag lives on for callers outside
the package. The slot engine takes no parameter that the access driver
does not pass.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import crspectrum
from crspectrum.harness import _simulate_access

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "crspectrum"

RUN_API = [
    "ConfigError",
    "RunSummary",
    "SCENARIOS",
    "SimConfig",
    "default_config",
    "emit_outputs",
    "run_scenario",
    "summary_to_csv",
    "summary_to_json",
    "validate_config",
]


def _modules():
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def _users():
    files = _modules() + sorted((ROOT / "demos").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return files


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(roots):
    names = set()
    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _referenced_names(path):
    return _names([_parse(path)])


def _console_scripts():
    """(module, function) of every console script pyproject.toml declares."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return set(re.findall(r'"crspectrum\.(\w+):(\w+)"', text))


def test_every_public_name_is_used():
    references = {path: _referenced_names(path) for path in _users()}
    scripts = _console_scripts()
    unused = []
    for path in _modules():
        module = importlib.import_module(f"crspectrum.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__ or (path.stem, name) in scripts:
                continue
            if not any(name in names for user, names in references.items()
                       if user != path):
                unused.append(f"{path.stem}.{name}")
    assert unused == []


def test_every_private_function_is_used_in_src():
    statements = [
        node for path in sorted(PACKAGE.glob("*.py")) for node in _parse(path).body
    ]
    unused = [
        fn.name
        for fn in statements
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
        and fn.name not in _names(node for node in statements if node is not fn)
    ]
    assert unused == []


def test_every_class_is_built_in_src():
    statements = [
        node for path in sorted(PACKAGE.glob("*.py")) for node in _parse(path).body
    ]
    called = {
        node: {
            call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))
        }
        for node in statements
    }
    unbuilt = [
        cls.name
        for cls in statements
        if isinstance(cls, ast.ClassDef)
        and not any(cls.name in names for node, names in called.items() if node is not cls)
    ]
    assert unbuilt == []


def test_engine_takes_only_what_the_driver_passes():
    # an engine parameter that the access driver never passes is an input
    # form that lives on for unit tests alone
    tree = _parse(PACKAGE / "harness.py")
    [driver] = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_run_access"
    ]
    [call] = [
        node for node in ast.walk(driver)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_simulate_access"
    ]
    assert not any(isinstance(arg, ast.Starred) for arg in call.args)
    params = list(inspect.signature(_simulate_access).parameters)
    passed = params[: len(call.args)] + [kw.arg for kw in call.keywords]
    assert sorted(passed) == sorted(params)


def test_root_is_the_run_api():
    assert crspectrum.__all__ == RUN_API
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    sources = sorted(
        ast.unparse(node).split(" import ")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )
    assert sources == ["from .config", "from .harness"]
