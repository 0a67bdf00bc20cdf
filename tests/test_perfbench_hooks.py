"""The benchmark's hooks into ``src/``: the caches its tracer reads.

``perfbench/tracer.py`` wraps every public module-level ``delpair`` function
and, in ``Tracer.summary()``, calls ``cache_info()`` on each one named in its
``LRU_FUNCTIONS``; renaming one of them, or dropping its ``lru_cache``,
crashes every traced run.  The names are read from the tracer's source with
``ast``: nothing under ``perfbench/`` is imported.
"""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def lru_functions() -> tuple[str, ...]:
    """The tracer's ``LRU_FUNCTIONS``, each "module.function" under ``delpair``."""
    for node in ast.parse(TRACER.read_text("utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "LRU_FUNCTIONS"):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER.name} assigns no LRU_FUNCTIONS")


def test_each_cache_the_tracer_reads_is_a_public_module_level_lru_cache():
    names = lru_functions()
    assert names
    for name in names:
        module_name, _, function = name.rpartition(".")
        module = importlib.import_module(f"delpair.{module_name}")
        obj = vars(module).get(function)
        assert obj is not None, f"delpair.{module_name} defines no {function}"
        assert not function.startswith("_"), name
        assert obj.__module__ == module.__name__, name
        assert callable(getattr(obj, "cache_info", None)), f"{name} has no cache_info"
