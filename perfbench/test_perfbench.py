"""Tests of the benchmark itself: result parsing, span arithmetic, the gate.

    python3 -m pytest -q perfbench

The end-to-end tests run perifsi on a tiny model (n_z = 4, n_interior = 4,
n_t = 64) in child processes, as the benchmark does; they take about 20 s on
a 2-core machine, most of it the lazy corrector set-up of each child.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload, config_text  # noqa: E402

TINY = (("n_z", 4), ("n_interior", 4), ("n_t", 64), ("matrix_samples", 8))
TINY_PERIODIC = Workload("run-periodic", TINY + (("theta_r", 1.0),))
TINY_IVP = Workload("run-ivp", TINY + (("t_final", 0.25),))


def benchmark_spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def child_run(tmp_path, workload, seed, trace=False):
    _, cfg = workload.inputs(seed)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config_text(cfg))
    rec = run.run_child(workload, cfg_path, tmp_path, "t", trace=trace)
    assert rec["ok"], rec["problems"]
    return rec


@pytest.fixture(scope="module")
def traced_periodic(tmp_path_factory):
    return child_run(tmp_path_factory.mktemp("periodic"), TINY_PERIODIC, 1, trace=True)


@pytest.fixture(scope="module")
def ivp_run(tmp_path_factory):
    return child_run(tmp_path_factory.mktemp("ivp"), TINY_IVP, 3)


# --- result parser -----------------------------------------------------------


def result_line(**overrides):
    result = {
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {"wall_s": {"value": 1.25, "unit": "s"}},
    }
    result.update(overrides)
    return "workload x\n  wall_s 1.25 s\n" + json.dumps(result) + "\n"


def test_parse_result_reads_last_line():
    result = run.parse_result(result_line())
    assert result["metrics"]["wall_s"] == {"value": 1.25, "unit": "s"}


@pytest.mark.parametrize("bad", [
    {"attempted": 0},
    {"attempted": 2.0},
    {"failed": 4},
    {"correct": 1},
    {"metrics": {"wall_s": {"value": 1.0}}},
    {"metrics": {"wall_s": {"value": True, "unit": "s"}}},
])
def test_parse_result_rejects(bad):
    with pytest.raises(ValueError):
        run.parse_result(result_line(**bad))


def test_parse_result_rejects_extra_key_and_nan():
    line = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {}, "extra": 1})
    with pytest.raises(ValueError):
        run.parse_result(line)
    nan = result_line().replace("\"value\": 1.25", "\"value\": NaN")
    with pytest.raises(ValueError):
        run.parse_result(nan)


# --- span arithmetic ---------------------------------------------------------


def test_covered_merges_overlaps():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0


def test_self_times_and_layer_totals():
    # sample [0, 10] holds tables [1, 3] and [4, 5]; tables [4, 5] re-enters
    # itself at [4.2, 4.6]; a second sample [12, 13] has no children
    recorded = [
        ["assembly.sample", 0.0, 10.0, -1],
        ["extension_ops.tables", 1.0, 3.0, 0],
        ["extension_ops.tables", 4.0, 5.0, 0],
        ["extension_ops.tables", 4.2, 4.6, 2],
        ["assembly.sample", 12.0, 13.0, -1],
    ]
    selfs = spans.self_times(recorded)
    assert selfs == pytest.approx([7.0, 2.0, 0.6, 0.4, 1.0])
    m = spans.layer_metrics(recorded, wall_s=14.0)
    assert m["assembly.sample.s"][0] == pytest.approx(11.0)
    assert m["assembly.sample.calls"][0] == 2
    assert m["assembly.sample.self_s"][0] == pytest.approx(8.0)
    assert m["assembly.sample.first_s"][0] == pytest.approx(10.0)
    # the re-entrant call is inside the outer one and is not counted again
    assert m["extension_ops.tables.s"][0] == pytest.approx(3.0)
    assert m["extension_ops.tables.calls"][0] == 3
    assert m["process.span_self_sum_s"][0] == pytest.approx(11.0)
    assert m["process.unspanned_s"][0] == pytest.approx(3.0)


def test_monodromy_excludes_residual_pass():
    recorded = [
        ["solver_periodic.periodic_solve", 0.0, 5.0, -1],
        ["assembly.matrices_at", 0.5, 1.0, 0],
        ["solver_periodic.poincare_map", 3.0, 4.5, 0],
        ["solver_periodic.poincare_map", 6.0, 7.0, -1],
    ]
    m = spans.layer_metrics(recorded, wall_s=8.0)
    assert m["solver_periodic.periodic_solve.s"][0] == pytest.approx(5.0)
    assert m["solver_periodic.monodromy.s"][0] == pytest.approx(3.5)
    assert m["solver_periodic.poincare_map.s"][0] == pytest.approx(2.5)


def test_tracer_records_nesting():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert tracer.spans == [["outer", 0.0, 3.0, -1], ["inner", 1.0, 2.0, 0]]


# --- traced tiny run -----------------------------------------------------------


def test_traced_run_accounts_for_wall_time(traced_periodic):
    rec = traced_periodic
    recorded = json.loads(Path(rec["spans_path"]).read_text())
    metrics = spans.layer_metrics(recorded["spans"], rec["wall_s"],
                                  recorded["sigma_min_rel"])
    total = metrics["process.span_self_sum_s"][0] + metrics["process.unspanned_s"][0]
    assert total == pytest.approx(rec["wall_s"], rel=1e-12)
    assert 0.0 <= metrics["process.unspanned_s"][0] < 0.05 * rec["wall_s"]
    # one rest-geometry sample, then 8 moving samples per further iteration
    iters = rec["fingerprint"]["outer_iters"]
    assert metrics["assembly.sample.calls"][0] == 1 + 8 * (iters - 1)
    assert metrics["assembly.sample.s"][0] > 0.5 * rec["wall_s"]
    assert metrics["assembly.matrices_at.calls"][0] > 0
    assert 0.0 < metrics["solver_periodic.sigma_min_rel"][0] < 1.0


def test_benchmark_json_names_what_the_run_prints(traced_periodic):
    rec = traced_periodic
    layer = run.per_layer(rec, [rec])
    layer["failed_frac"] = (0.0, "fraction")
    spec = benchmark_spec()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layer.items()}
    e2e = run.end_to_end([rec], [rec["setup_s"]])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in e2e.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert all(math.isfinite(v) for v, _ in layer.values())


# --- correctness gate ----------------------------------------------------------


def test_gate_accepts_own_fingerprint(traced_periodic, ivp_run):
    rec = traced_periodic
    assert gate.check(rec["fingerprint"], rec["fingerprint"], True, 1e-8) == []
    assert gate.check(ivp_run["fingerprint"], ivp_run["fingerprint"], False, 1e-8) == []


@pytest.mark.parametrize("field,change", [
    ("sup_E", 1e-2),
    ("integral_D", -1e-2),
    ("x_star", 1e-5),
    ("periodic_residual", 1e-6),
])
def test_gate_catches_tampered_periodic_fingerprint(traced_periodic, field, change):
    rec = traced_periodic
    ref = rec["fingerprint"]
    got = dict(ref)
    if field == "x_star":
        got["x_star"] = list(ref["x_star"])
        got["x_star"][3] += change
    elif field == "periodic_residual":
        got[field] = change
    else:
        got[field] = ref[field] * (1.0 + change)
    problems = gate.check(got, ref, True, 1e-8)
    assert problems and field in problems[0]


@pytest.mark.parametrize("new_value", [0.0, "flip"])
def test_gate_catches_tampered_small_mode(traced_periodic, new_value):
    # a change to the smallest entry of x_star is far below the sup-norm
    # allowance and barely moves the quadratic energies
    ref = traced_periodic["fingerprint"]
    x = list(ref["x_star"])
    i = min((j for j in range(len(x)) if x[j] != 0.0), key=lambda j: abs(x[j]))
    x[i] = -x[i] if new_value == "flip" else new_value
    problems = gate.check(dict(ref, x_star=x), ref, True, 1e-8)
    assert problems and f"x_star entry {i}" in problems[0]


@pytest.mark.parametrize("field", ["sup_E", "integral_D"])
def test_gate_catches_tampered_ivp_fingerprint(ivp_run, field):
    ref = ivp_run["fingerprint"]
    got = dict(ref, **{field: ref[field] * (1.0 + 1e-6)})
    problems = gate.check(got, ref, False, 1e-8)
    assert problems and field in problems[0]


def test_reference_covers_every_variant():
    refs = json.loads((HERE / "reference.json").read_text())
    for name, workload in WORKLOADS.items():
        assert sorted(refs[name], key=int) == [str(v) for v in range(workload.variants)]
        fields = {"sup_E", "integral_D"} | ({"x_star"} if workload.periodic else set())
        assert all(set(ref) == fields for ref in refs[name].values())
