"""Correctness gate: a run's CSV outputs against the committed reference.

Periodic runs are fingerprinted by sup_E, integral_D and x_star (row 0 of
coefficients.csv).  The outer loop stops at the first iterate whose path
update is at most `tol`, so two correct runs may stop at different iterates.
How far x_star then is from the fixed point was measured by running the
loop on to tol = 1e-13 and comparing each iterate's x_star with the limit
(n = 16, the periodic_default and periodic_fine_dt configs, 1 BLAS thread):

* the sup-norm error of x_star was at most 4.1e-3 times the update of that
  iterate (2.6e-4 at theta_r = 0.5, up to 4.1e-3 at theta_r = 1);
* the largest relative error of a single entry of x_star was at most 1.8e3
  times the update (4.2e2 at theta_r = 0.5, up to 1.8e3 at theta_r = 1).

A run and the reference each stop within these errors of the fixed point,
so they differ by at most twice as much.  The gate allows ten times that
again: a loop whose update shrinks by as little as 0.9 per iteration is
still up to 1 / (1 - 0.9) = 10 updates from its fixed point.  Hence
X_ABS_FACTOR = 2 * 10 * 4.1e-3 (about 0.1) on the sup norm and
X_REL_FACTOR = 2 * 10 * 1.8e3 (about 4e4) on each entry, both times `tol`.
The per-entry check catches a change to a small mode (entries go down to
3e-10) that the sup-norm check cannot.  sup_E and integral_D are quadratic
in the state, so they may change by twice the relative sup-norm allowance.
The map residual of x_star must also be at round-off.

IVP runs are fingerprinted by sup_E and integral_D alone, at IVP_RTOL.  The
IVP's energy ledger is not a round-off check (it leaves out the symmetric
part of G, so its balance residual is about 1e-5 relative), and the gate
does not use it.
"""

import csv
import os

X_ABS_FACTOR = 0.1
X_REL_FACTOR = 4e4
RESIDUAL_TOL = 1e-8
IVP_RTOL = 1e-9


def read_outputs(out_dir):
    """The fingerprint fields of one run's summary.csv and coefficients.csv."""
    with open(os.path.join(out_dir, "summary.csv"), newline="") as fh:
        summary = next(csv.DictReader(fh))
    with open(os.path.join(out_dir, "coefficients.csv"), newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        row0 = next(reader)
    return {
        "sup_E": float(summary["sup_E"]),
        "integral_D": float(summary["integral_D"]),
        "periodic_residual": float(summary["periodic_residual"]),
        "outer_iters": int(summary["outer_iters"]),
        "x_star": [float(v) for v in row0[1:]],
    }


def check(got, ref, periodic, tol):
    """A list of the gate's complaints; empty when the run is correct."""
    problems = []
    if periodic:
        if len(got["x_star"]) != len(ref["x_star"]):
            return [f"x_star has {len(got['x_star'])} entries, "
                    f"reference {len(ref['x_star'])}"]
        scale = max(abs(v) for v in ref["x_star"])
        x_tol = X_ABS_FACTOR * tol
        x_rtol = X_REL_FACTOR * tol
        diffs = [abs(a - b) for a, b in zip(got["x_star"], ref["x_star"])]
        if not max(diffs) <= x_tol:
            problems.append(f"x_star differs by {max(diffs):.3e} > {x_tol:.3e}")
        for i, (d, r) in enumerate(zip(diffs, ref["x_star"])):
            if not d <= x_rtol * abs(r):
                problems.append(f"x_star entry {i} is {got['x_star'][i]:.17g}, "
                                f"reference {r:.17g} (relative allowance {x_rtol:.1e})")
                break
        x_sup = max(abs(v) for v in got["x_star"])
        bound = RESIDUAL_TOL * (1.0 + x_sup)
        if not got["periodic_residual"] <= bound:
            problems.append(
                f"periodic_residual {got['periodic_residual']:.3e} > {bound:.3e}")
        e_rtol = 2.0 * x_tol / scale
    else:
        e_rtol = IVP_RTOL
    for key in ("sup_E", "integral_D"):
        err = abs(got[key] - ref[key])
        if not err <= e_rtol * abs(ref[key]):
            problems.append(
                f"{key} {got[key]:.17g} differs from reference {ref[key]:.17g} "
                f"by {err / abs(ref[key]):.3e} relative > {e_rtol:.3e}")
    return problems
