"""Write reference.json: the fingerprint of every workload input variant.

    python3 perfbench/make_reference.py

Runs each variant of every workload once, in a child process like a measured
run, and writes a fresh reference.json from the results: sup_E and
integral_D, and for the periodic workloads also x_star (the gate reads it
only for those).  For a periodic workload, variant v shifts the forcing by v
matrix sample intervals, so its x_star must equal the variant-0 orbit at
that time; the script refuses to write a reference that fails this check
(within the gate's tolerance).  Regenerate the references only when a
change is meant to alter perifsi's results, and say so in the change.
"""

import csv
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, OUTER_TOL, ROOT, run_child
from workloads import WORKLOADS, config_text
import gate


def orbit_row(out_dir, index):
    with open(Path(out_dir) / "coefficients.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    return [float(v) for v in rows[1 + index][1:]]


def reference_for(name, work):
    workload = WORKLOADS[name]
    refs = {}
    orbit0 = None
    for variant in range(workload.variants):
        _, cfg = workload.inputs(variant)
        cfg_path = work / f"{name}-{variant}.cfg"
        cfg_path.write_text(config_text(cfg))
        rec = run_child(workload, cfg_path, work, f"{name}-{variant}")
        if not rec["ok"]:
            raise SystemExit(f"{name} variant {variant}: {rec['problems']}")
        fp = rec["fingerprint"]
        keys = ("sup_E", "integral_D") + (("x_star",) if workload.periodic else ())
        refs[str(variant)] = {k: fp[k] for k in keys}
        if workload.periodic:
            if variant == 0:
                orbit0 = rec["out_dir"]
            shift = variant * cfg["n_t"] // workload.variants
            shifted = dict(refs["0"], x_star=orbit_row(orbit0, shift))
            problems = gate.check(fp, shifted, True, OUTER_TOL)
            if problems:
                raise SystemExit(f"{name} variant {variant} is not the shifted "
                                 f"variant-0 orbit: {problems}")
        print(f"{name} variant {variant}: wall {rec['wall_s']:.2f} s", file=sys.stderr)
    return refs


def main():
    refs = {}
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        for name in sorted(WORKLOADS):
            refs[name] = reference_for(name, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
