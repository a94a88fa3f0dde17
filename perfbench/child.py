"""Run one perifsi command line invocation and write its timings as JSON.

    python3 perfbench/child.py --command run-periodic --config run.cfg \
        --out-dir out/ --result result.json [--spans spans.json] [--setup-only]

The parent (`run.py`) starts one of these per measured run, with the BLAS
pool size already fixed in the environment, so that numpy starts with it.
perifsi is imported from the checkout's `src/`; the child refuses any other
installed copy.  With `--spans` the public calls of each layer are wrapped
from outside (see `spans.py`) and the spans are written when the run ends.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402  (the benchmark's own module)


def import_perifsi():
    """Import perifsi from ROOT/src and no other place."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import perifsi
    from perifsi import cli

    if Path(perifsi.__file__).resolve().parent != src / "perifsi":
        raise ImportError(f"perifsi imported from {perifsi.__file__}, not {src}")
    return cli


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--command", required=True, choices=["run-periodic", "run-ivp"])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the model and forcing, then stop")
    args = parser.parse_args(argv)

    cli = import_perifsi()
    setup = {"s": 0.0, "start": None}

    def timed(fn):
        def run(*a, **k):
            t0 = time.perf_counter()
            if setup["start"] is None:
                setup["start"] = t0
            try:
                return fn(*a, **k)
            finally:
                setup["s"] += time.perf_counter() - t0

        return run

    # set-up is build_model plus build_forcing; wall time starts at the
    # first of them and ends when the CSVs are written
    cli.build_model = timed(cli.build_model)
    cli.build_forcing = timed(cli.build_forcing)
    if args.setup_only:
        cfg = cli.load_config(args.config)
        cli.build_model(cfg)
        cli.build_forcing(cfg)
        with open(args.result, "w") as fh:
            json.dump({"setup_s": setup["s"]}, fh)
        return 0
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()

    cpu0 = os.times()
    code = cli.main([args.command, "--config", args.config, "--out-dir", args.out_dir])
    t_end = time.perf_counter()
    cpu1 = os.times()
    wall = t_end - setup["start"] if setup["start"] is not None else 0.0
    result = {
        "exit_code": code,
        "wall_s": wall,
        "setup_s": setup["s"],
        "solve_s": wall - setup["s"],
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        with open(args.spans, "w") as fh:
            json.dump({"spans": tracer.spans, "sigma_min_rel": tracer.sigma_min_rel}, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
