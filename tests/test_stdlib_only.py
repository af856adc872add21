"""Package hygiene: the runtime and the scripts in tools/ stay
stdlib-only (every module that src/fliftlab imports is in the standard
library or is fliftlab itself), the lower modules keep their place in
the package's import graph, `cli` imports only `classify` from
`criteria`, `criteria` reads only the public names of the modules it
imports, every degree-guard error but three is
raised through `DegreeGuardError.check`, and `fliftlab.__all__` lists
each name the package has, once."""

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
    # (directory, fewest files, names allowed beyond the standard library)
    for directory, least, own in ((SRC, 8, {"fliftlab"}),
                                  (SRC.parent.parent / "tools", 1, set())):
        files = sorted(directory.glob("*.py"))
        assert len(files) >= least, directory.name
        for path in files:
            for name in _imported_top_modules(path):
                assert name in sys.stdlib_module_names or name in own, \
                    (path.name, name)


def _package_imports(path: Path) -> set[str]:
    """The fliftlab modules that a module imports, relatively or not."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module
                         else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom):
            if node.module.startswith("fliftlab."):
                names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("fliftlab."))
    return names


# fp_poly, in whose arithmetic certificates are re-checked, depends on no
# other module, so the check cannot come to rest on the engine it checks;
# a report, and so reading one back, needs fp_poly alone; the front end
# reaches the Groebner engine only through `classify`
LAYERS = {"fp_poly": set(), "groebner": {"fp_poly"},
          "frobsplit": {"fp_poly"}, "catalog": {"fp_poly"},
          "report": {"fp_poly"},
          "cli": {"catalog", "criteria", "fp_poly", "report"}}


def test_lower_modules_keep_their_imports():
    for name, imports in LAYERS.items():
        assert _package_imports(SRC / f"{name}.py") == imports, name


def test_cli_imports_only_classify_from_criteria():
    # the front end reaches the pipeline through `classify` alone: no
    # other name of `criteria`, and not the module, at module level or
    # inside a function
    found = []
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("criteria", "fliftlab.criteria"):
                found += [alias.name for alias in node.names]
            elif node.module in (None, "fliftlab"):
                found += [alias.name for alias in node.names
                          if alias.name == "criteria"]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name == "fliftlab.criteria"]
    assert found == ["classify"], found


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_criteria_reads_only_public_names_of_other_modules():
    # the pipeline reaches the engine, the splitting and the report
    # through their public names alone: `criteria` imports no _-prefixed
    # name and reads no _-prefixed attribute (dunders aside); its own
    # functions are plain names, which it may call
    tree = ast.parse((SRC / "criteria.py").read_text())
    found = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names
             if _private(alias.name)]
    found += [node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and _private(node.attr)]
    assert not found, found


def _constructions(path: Path, name: str) -> list[str]:
    """The name of the innermost enclosing function of each call of
    `name` in a module, None at module level."""
    found = []

    def walk(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    walk(ast.parse(path.read_text(), str(path)), None)
    return found


def test_degree_guard_errors_are_worded_by_check():
    # "<what> degree D exceeds guard G" is written once, in
    # DegreeGuardError.check; only the S-pair check of the Buchberger
    # loop, the origin walk and the parser word their own messages
    sites = sorted((path.stem, where) for path in SRC.glob("*.py")
                   for where in _constructions(path, "DegreeGuardError"))
    assert sites == [("fp_poly", "power"), ("groebner", "_groebner"),
                     ("groebner", "supported_only_at_origin")]
    assert _constructions(SRC / "fp_poly.py", "cls") == ["check"]


def test_every_export_exists_once():
    names = fliftlab.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(fliftlab, name)]
    assert not missing, missing
