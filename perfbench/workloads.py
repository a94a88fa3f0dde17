"""The benchmark's workloads and the inputs each seed gives them.

Every workload is a perifsi command line run on a generated config.  The
seed picks one of a fixed number of input variants, so the same seed always
gives the same inputs and every variant has a committed reference result
(`reference.json`, written by `make_reference.py`):

* periodic workloads: the seed sets the inlet pressure phase to a multiple
  of 2 pi / matrix_samples.  Such a phase shifts the forcing by a whole
  number of matrix sample intervals, so every variant does the same work
  (the periodic solution is the same orbit, shifted in time);
* the IVP workload: the seed is the config seed, which draws the initial
  data.

Why each workload exists is recorded in NOTES.md.
"""

import math
from dataclasses import dataclass

# an IVP variant is the random draw of the initial data
IVP_VARIANTS = 8


@dataclass(frozen=True)
class Workload:
    command: str
    config: tuple  # (key, value) overrides of perifsi's RunConfig defaults

    @property
    def periodic(self):
        return self.command == "run-periodic"

    @property
    def variants(self):
        return dict(self.config)["matrix_samples"] if self.periodic else IVP_VARIANTS

    def inputs(self, seed):
        """(variant, config overrides) for a benchmark seed."""
        variant = seed % self.variants
        cfg = dict(self.config)
        if self.periodic:
            cfg["p_in_phase"] = 2.0 * math.pi * variant / self.variants
        else:
            cfg["seed"] = variant
        return variant, cfg


WORKLOADS = {
    # the default RunConfig (n = 16, theta_r = 0.5, tol = 1e-8, about 20
    # outer iterations) on a coarser time grid, so that one run fits the
    # run length: assembly-bound, and the outer iteration count matters
    "periodic_default": Workload(
        "run-periodic", (("n_t", 64), ("matrix_samples", 4)),
    ),
    # one period of the IVP: a fresh moving sample every step; with 64 steps
    # the 63 moving samples outweigh the lazy set-up in the first one
    "ivp_period": Workload(
        "run-ivp", (("n_t", 64), ("t_final", 1.0)),
    ),
    # a fine time step with few matrix samples and no relaxation: the
    # stepper, monodromy, interpolation and ledger dominate
    "periodic_fine_dt": Workload(
        "run-periodic", (("n_t", 4096), ("matrix_samples", 4), ("theta_r", 1.0)),
    ),
}


def config_text(cfg):
    """perifsi config text; keys outside a [section] header are accepted."""
    return "".join(f"{key} = {value!r}\n" for key, value in sorted(cfg.items()))
