"""The benchmark traces public functions by name; every name must still exist."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_in_its_module():
    traced = _load_layers().TRACED
    assert traced
    for module_name, names in traced.items():
        module = importlib.import_module(f"sdnb.{module_name}")
        for name in names:
            fn = getattr(module, name, None)
            assert callable(fn), f"sdnb.{module_name}.{name}"
            assert fn.__module__ == module.__name__, f"sdnb.{module_name}.{name}"
