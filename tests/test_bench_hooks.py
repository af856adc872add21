"""The benchmark's tracer wraps fliftlab functions by name; a renamed or
inlined function would silently drop its per-layer spans."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from fliftlab import criteria

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# the traced engine functions that the pipeline calls through names
# bound in `criteria`; the tracer patches those bindings too
BOUND_IN_CRITERIA = (("groebner", "supported_only_at_origin"),
                     ("frobsplit", "build_splitting"))


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_traced_names_are_module_level_functions():
    traced = _traced()
    assert traced
    for module_name, fn_name in traced:
        home = importlib.import_module(f"fliftlab.{module_name}")
        fn = getattr(home, fn_name, None)
        assert inspect.isfunction(fn), (module_name, fn_name)
        assert fn.__module__ == home.__name__, (module_name, fn_name)


def test_traced_engine_names_are_bound_in_criteria():
    traced = _traced()
    for module_name, fn_name in BOUND_IN_CRITERIA:
        assert (module_name, fn_name) in traced
        home = importlib.import_module(f"fliftlab.{module_name}")
        assert getattr(criteria, fn_name, None) is getattr(home, fn_name), \
            (module_name, fn_name)
