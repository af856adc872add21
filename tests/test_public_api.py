"""The package exports only what the runtime or the benchmark reads: every
name in `fliftlab.__all__` is read in a module of the package other than
`__init__`, in a benchmark script, or is an engine entry that the
benchmark's tracer wraps by name."""

import ast
from pathlib import Path

import fliftlab

ROOT = Path(__file__).resolve().parent.parent
# kept for the planned F-regularity test, which decomposes f^(p-1)
ALLOWED = {"frobenius_decompose"}


def _read_names(path: Path) -> set[str]:
    """The names that `path` reads, as a bare name or an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))}


def _traced() -> set[str]:
    """The strings of perfbench/tracer.py's TRACED table."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            return {c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant)}
    raise AssertionError("perfbench/tracer.py defines no TRACED")


def test_every_export_is_read_by_the_runtime_or_the_benchmark():
    files = [f for f in (ROOT / "src" / "fliftlab").glob("*.py")
             if f.name != "__init__.py"]
    files += (ROOT / "perfbench").glob("*.py")
    read = set().union(*map(_read_names, files)) | _traced()
    exported = set(fliftlab.__all__)
    assert ALLOWED <= exported
    assert sorted(exported - read - ALLOWED) == []
