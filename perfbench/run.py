"""perifsi benchmark: end-to-end and per-layer figures for one workload.

    python3 perfbench/run.py --workload periodic_default --seed 3 \
        --seconds 30 --trace 0

Run from the root of a checkout; perifsi is imported from its `src/`.  Each
measured run is a fresh child process (`child.py`) that makes one perifsi
command line run on a config generated from the seed, with the BLAS pool
pinned to BLAS_THREADS before numpy is imported.  Runs start one after
another (a closed loop with one client) for as long as another run still
fits in `--seconds`; at least one is made.  The outputs of every run pass
the correctness gate (`gate.py`) or the run counts as failed.

With `--trace 0` the last line reports the end-to-end metrics (medians over
the runs); with `--trace 1` it reports the per-layer metrics of one traced
run (`spans.py`), next to untraced runs for the tracing overhead.  The lines
before it give every metric with its unit and the sample counts.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
MIN_SETUPS = 9
HARD_LIMIT_S = 170  # a run ends within this, whatever its children do
OUTER_TOL = 1e-8  # perifsi's default outer-loop tol, which no workload changes


def blas_threads():
    return min(BLAS_THREADS, len(os.sched_getaffinity(0)))


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(blas_threads())
    env.pop("PERIFSI_THREADS", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(workload, cfg_path, work, tag, reference=None, trace=False,
              setup_only=False, timeout=HARD_LIMIT_S):
    """One child run: its timings, fingerprint and gate verdict.

    The outputs are checked against `reference` when one is given.  A child
    still running after `timeout` seconds is killed and counts as failed.
    """
    out_dir = work / f"out-{tag}"
    result_path = work / f"result-{tag}.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--command", workload.command, "--config", str(cfg_path),
        "--out-dir", str(out_dir), "--result", str(result_path),
    ]
    spans_path = work / f"spans-{tag}.json"
    if trace:
        cmd += ["--spans", str(spans_path)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=sys.stderr, stderr=sys.stderr, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"child killed after {timeout:.0f} s"]}
    if proc.returncode != 0 or not result_path.exists():
        return {"ok": False, "problems": [f"child exited with {proc.returncode}"]}
    with open(result_path) as fh:
        rec = json.load(fh)
    rec.update(out_dir=out_dir, spans_path=spans_path, ok=True, problems=[])
    if setup_only:
        return rec
    if rec["exit_code"] != 0:
        rec.update(ok=False, problems=[f"perifsi exited with {rec['exit_code']}"])
        return rec
    try:
        rec["fingerprint"] = gate.read_outputs(out_dir)
    except (OSError, KeyError, StopIteration, ValueError) as exc:
        rec.update(ok=False, problems=[f"unreadable outputs: {exc!r}"])
        return rec
    if reference is not None:
        rec["problems"] = gate.check(
            rec["fingerprint"], reference, workload.periodic, OUTER_TOL)
        rec["ok"] = not rec["problems"]
    return rec


def output_bytes(out_dir):
    return sum(p.stat().st_size for p in Path(out_dir).iterdir())


def measure(workload, cfg_path, work, reference, seconds, trace, hard_stop):
    """Runs until the next one would pass the deadline; at least one."""
    deadline = time.perf_counter() + seconds
    traced = None
    if trace:
        traced = run_child(workload, cfg_path, work, "traced", reference, trace=True,
                           timeout=hard_stop - time.perf_counter())
    runs = []
    while True:
        t0 = time.perf_counter()
        runs.append(run_child(workload, cfg_path, work, f"run{len(runs)}", reference,
                              timeout=hard_stop - t0))
        now = time.perf_counter()
        if now + (now - t0) > min(deadline, hard_stop):
            break
    return runs, traced


def end_to_end(runs, setups):
    timed = [r for r in runs if "wall_s" in r]
    # a failed run's times count only when no run succeeded
    ok = [r for r in timed if r["ok"]] or timed
    med = {k: statistics.median(r[k] for r in ok)
           for k in ("wall_s", "solve_s", "peak_rss_mb")}
    return {
        "wall_s": (med["wall_s"], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (med["solve_s"], "s"),
        "peak_rss_mb": (med["peak_rss_mb"], "MB"),
    }


def per_layer(traced, runs):
    with open(traced["spans_path"]) as fh:
        recorded = json.load(fh)
    metrics = spans.layer_metrics(
        recorded["spans"], traced["wall_s"], recorded["sigma_min_rel"])
    untraced = statistics.median(r["wall_s"] for r in runs if "wall_s" in r)
    metrics.update({
        "solver_periodic.outer_iters": (traced["fingerprint"]["outer_iters"], "count"),
        "cli.output_bytes": (output_bytes(traced["out_dir"]), "bytes"),
        "process.cpu_s": (traced["cpu_s"], "s"),
        "process.cpu_per_wall": (traced["cpu_s"] / traced["wall_s"], "ratio"),
        "process.tracing_overhead_s": (traced["wall_s"] - untraced, "s"),
    })
    return metrics


def parse_result(text):
    """The result object on the last line of the benchmark's output.

    Raises ValueError unless it has exactly the contract's keys, whole
    counts and a finite value with a unit for every metric.
    """
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        raise ValueError("attempted / failed out of range")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"metric {name} has keys {sorted(metric)}")
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ValueError(f"metric {name} has value {value!r}")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    hard_stop = time.perf_counter() + HARD_LIMIT_S

    if not (ROOT / "src" / "perifsi" / "__init__.py").is_file():
        print(f"perifsi sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    variant, cfg = workload.inputs(args.seed)
    references = json.loads((HERE / "reference.json").read_text())
    reference = references[args.workload][str(variant)]

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        cfg_path = work / "run.cfg"
        cfg_path.write_text(config_text(cfg))
        runs, traced = measure(
            workload, cfg_path, work, reference, args.seconds, bool(args.trace),
            hard_stop)
        setups = [r["setup_s"] for r in runs if "setup_s" in r]
        while not args.trace and len(setups) < MIN_SETUPS:
            probe = run_child(workload, cfg_path, work, f"setup{len(setups)}",
                              setup_only=True, timeout=hard_stop - time.perf_counter())
            if "setup_s" not in probe:
                break
            setups.append(probe["setup_s"])

        attempted = len(runs) + (traced is not None)
        failed = [r for r in runs + ([traced] if traced else []) if not r["ok"]]
        for rec in failed:
            print(f"FAILED run: {'; '.join(rec['problems'])}", file=sys.stderr)
        if not any("wall_s" in r for r in runs) or (
                traced is not None and "fingerprint" not in traced):
            print("no result: the runs produced no timings or outputs", file=sys.stderr)
            return 1
        failed_frac = (len(failed) / attempted, "fraction")
        if args.trace:
            metrics = per_layer(traced, runs)
            metrics["failed_frac"] = failed_frac
        else:
            metrics = end_to_end(runs, setups)
        print(f"workload {args.workload} seed {args.seed} variant {variant} "
              f"blas_threads {blas_threads()} runs {len(runs)} "
              f"setups {len(setups)} traced {int(bool(traced))}")
        shown = dict(metrics, failed_frac=failed_frac)
        for name, (value, unit) in shown.items():
            print(f"  {name:<36} {value:.6g} {unit}")
        for i, r in enumerate(runs):
            print(f"  run {i}: wall_s {r.get('wall_s', float('nan')):.4f} "
                  f"setup_s {r.get('setup_s', float('nan')):.4f} ok {r['ok']}")
        line = json.dumps({
            "correct": not failed,
            "attempted": attempted,
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        })
        parse_result(line)  # never print a result that breaks the format
        print(line)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
