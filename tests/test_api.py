"""The public surface holds only names that a run reaches.

A function in ``crspectrum.__all__`` must be used outside the module that
defines it: by another module of the package, by a demo or by an
acceptance criterion. Neither unit tests nor the function's own module
keep a name public. A class may stay public without such a user, as the
type a public function returns; any other name must be used by one of
those files.
"""

import ast
import inspect
from pathlib import Path

import crspectrum

ROOT = Path(__file__).resolve().parents[1]


def _users():
    package = sorted((ROOT / "src" / "crspectrum").glob("*.py"))
    files = [p for p in package if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return files


def _referenced_names(path):
    names = set()
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_is_used():
    references = {path.resolve(): _referenced_names(path) for path in _users()}
    unused = []
    for name in crspectrum.__all__:
        obj = getattr(crspectrum, name)
        if inspect.isclass(obj):
            continue
        home = Path(inspect.getfile(obj)).resolve() if inspect.isfunction(obj) else None
        if not any(name in names for path, names in references.items() if path != home):
            unused.append(name)
    assert unused == []


def test_all_is_sorted_without_repeats():
    assert crspectrum.__all__ == sorted(set(crspectrum.__all__))
