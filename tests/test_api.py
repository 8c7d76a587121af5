"""The public surface holds only names that a run reaches.

A name in ``crspectrum.__all__`` must be used by the package itself, by a
demo or by an acceptance criterion; unit tests alone do not keep a name
public.
"""

import ast
from pathlib import Path

import crspectrum

ROOT = Path(__file__).resolve().parents[1]


def _users():
    package = sorted((ROOT / "src" / "crspectrum").glob("*.py"))
    files = [p for p in package if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return files


def _referenced_names():
    names = set()
    for path in _users():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_used():
    unused = sorted(set(crspectrum.__all__) - _referenced_names())
    assert unused == []


def test_all_is_sorted_without_repeats():
    assert crspectrum.__all__ == sorted(set(crspectrum.__all__))
