"""Package hygiene: the runtime stays stdlib-only (every module that
src/fliftlab imports is in the standard library or is fliftlab itself),
and `fliftlab.__all__` lists each name the package has, once."""

import ast
import sys
from pathlib import Path

import fliftlab

SRC = Path(__file__).resolve().parent.parent / "src" / "fliftlab"


def _imported_top_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 8
    for path in files:
        for name in _imported_top_modules(path):
            assert name in sys.stdlib_module_names or name == "fliftlab", \
                (path.name, name)


def test_every_export_exists_once():
    names = fliftlab.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(fliftlab, name)]
    assert not missing, missing
