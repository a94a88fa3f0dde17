"""The benchmark's span table names functions that exist.

perfbench/spans.py wraps the perifsi functions listed in LAYERS and raises
on a missing name, but only in traced benchmark runs.  This test resolves
every entry the way Tracer.install does, without installing the wrappers: a
dotted path must be in the owning class's own __dict__, a plain name must be
a module attribute.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("name, module, path", _layers())
def test_layer_resolves(name, module, path):
    owner = importlib.import_module(module)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    if cls_path:
        assert attr in owner.__dict__, f"{name}: {module}.{path} is not defined"
    else:
        assert callable(getattr(owner, attr, None)), f"{name}: {module}.{path} is missing"
