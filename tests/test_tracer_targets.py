"""Every function the benchmark's tracer (``perfbench/tracer.py``) wraps
still exists where the tracer looks it up, so renaming or deleting one
fails here instead of silently reading 0 in a per-layer metric."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize(
    "name, module_name, path", TARGETS, ids=[f"{m}.{p}" for _, m, p in TARGETS]
)
def test_every_tracer_target_resolves(name, module_name, path):
    module = importlib.import_module(module_name)
    if "." in path:  # a method, looked up in its class's own namespace
        cls_name, attr = path.split(".")
        target = vars(getattr(module, cls_name)).get(attr)
    else:
        target = getattr(module, path, None)
    assert callable(target), f"{name}: {module_name}.{path} is gone"
