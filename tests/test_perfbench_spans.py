"""The benchmark's span table names functions that exist and are called.

perfbench/spans.py wraps the perifsi functions listed in LAYERS and raises
on a missing name, but only in traced benchmark runs.  The first test
resolves every entry the way Tracer.install does, without installing the
wrappers: a dotted path must be in the owning class's own __dict__, a plain
name must be a module attribute.  The second installs the tracer in a fresh
interpreter, since it cannot be uninstalled, and checks that a moving sample
still fires the assembly spans.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


_MOVING_SAMPLE = """
import importlib.util
import json
import sys

import numpy as np

import perifsi.assembly
import perifsi.cli
import perifsi.extension_ops
import perifsi.fluidgrid
import perifsi.geometry
import perifsi.solver_periodic
from perifsi.cli import RunConfig, build_model

spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
model = build_model(RunConfig(n_z=4, n_interior=4).validate())
model.sample()
tracer = spans.Tracer()
tracer.install()
shell = model.basis.shell_basis
rng = np.random.default_rng(0)
model.sample(delta=0.02 * rng.standard_normal(shell.n_modes),
             dt_delta=0.02 * rng.standard_normal(shell.n_modes),
             v_coeff=rng.standard_normal(model.basis.n))
json.dump([[name, end - start] for name, start, end, _ in tracer.spans], sys.stdout)
"""


def test_a_moving_sample_fires_the_assembly_spans():
    """Each per-layer span of a moving sample is recorded with a positive
    duration when perfbench's Tracer wraps a later sample of the small
    model: a refactor that bypasses a wrapped function would silently zero
    its metric instead."""
    root = SPANS.parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", _MOVING_SAMPLE, str(SPANS)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    fired = {}
    for name, duration in json.loads(run.stdout):
        fired[name] = min(duration, fired.get(name, duration))
    for name in ("assembly.sample", "assembly.extension_fields",
                 "assembly.fluid_tables", "extension_ops.tables",
                 "extension_ops.extend_dt", "extension_ops.piola",
                 "fluidgrid.jets"):
        assert fired.get(name, 0.0) > 0.0, name
