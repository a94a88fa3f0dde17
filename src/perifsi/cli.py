"""CSV emission, model construction and the command line front end.

The configuration schema and its text format live in perifsi.config.

Subcommands:
  run-periodic   solve the time-periodic problem via the outer fixed point
  run-ivp        integrate the nonlinear initial value problem
  verify         run the built-in identity checks and write a report

Exit codes: 0 success, 2 domain violation, 3 outer loop did not converge,
4 singular monodromy (resonance), 5 singular time-step system, 1 any other
failure.  Runs are deterministic given (config, seed).  The numeric backends
read their thread counts (OMP_NUM_THREADS, OPENBLAS_NUM_THREADS) when numpy
loads, so set them in the environment before launch.
"""

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from .assembly import Assembler, GalerkinState, GlobalBasis, assemble
from .config import RunConfig, load_config
from .diagnostics import coupling_residuals, diffusion_ratio, korn_check
from .errors import ZeroForcing, exit_code_for
from .extension_ops import ExtensionOperator, mollify
from .fluid_basis import BoundaryForcing, build_stokes_basis, trilinear_b
from .fluidgrid import FluidGrid, QuadJets
from .geometry import CylinderConfig
from .shell_solid import ShellBasis, SolidBasis, SolidGrid, SolidParams
from .solver_periodic import (
    EnergyLedger,
    OuterLoopConfig,
    PeriodicProblem,
    outer_fixed_point,
    periodic_solve,
    poincare_map,
    solve_ivp,
)


# ---------------------------------------------------------------------------
# model construction


def build_model(cfg):
    """Instantiate the basis and assembler described by a configuration."""
    cyl = CylinderConfig(R=cfg.R, L=cfg.L, H=cfg.H)
    shell = ShellBasis(cfg.n_theta, cfg.n_z, cfg.L)
    max_m = shell.max_azimuthal_wavenumber
    # the global basis uses min(n_shell, n_stokes) interior modes, so none
    # beyond the shell mode count is built
    stokes = build_stokes_basis(cyl, min(cfg.n_interior, shell.n_modes),
                                max_wavenumber=max_m)
    solid = SolidBasis(cyl, shell, n_r=cfg.n_r_solid)
    ext = ExtensionOperator(cyl, shell)
    n = 2 * min(shell.n_modes, stokes.n_modes)
    basis = GlobalBasis(cyl, shell, solid, stokes, ext, n)
    params = SolidParams(
        lambda1=cfg.lambda1, lambda2=cfg.lambda2,
        delta_visc=cfg.delta_visc, rho_s2=cfg.rho_s2,
    )
    # uniform-theta rules are spectrally exact once the grid resolves the
    # full bandwidth of triple products of basis fields.  With max_m = 0
    # every basis field and the radial ALE map are axisymmetric, so every
    # integrand of a sample (a rotation-invariant scalar) is constant in
    # theta and one node integrates it exactly
    n_theta = 1 if max_m == 0 else max(8, 8 * max_m + 4)
    grid = FluidGrid(cyl, n_r=cfg.n_r_fluid,
                     n_theta=n_theta, n_z=max(12, 2 * cfg.n_z + 4))
    solid_grid = SolidGrid(cyl, shell, n_r=cfg.n_r_solid + 8)
    return Assembler(cyl, basis, params, grid=grid, solid_grid=solid_grid)


def build_forcing(cfg):
    if cfg.p_in_series:
        n = len(cfg.p_in_series)
        t = np.linspace(0.0, cfg.T, n)
        return BoundaryForcing(t, np.array(cfg.p_in_series), np.array(cfg.p_out_series))
    w = 2.0 * np.pi / cfg.T

    def p_in(t):
        return cfg.p_in_amplitude * np.sin(w * cfg.p_in_frequency * t + cfg.p_in_phase)

    def p_out(t):
        return cfg.p_out_amplitude * np.sin(
            w * cfg.p_out_frequency * t + cfg.p_out_phase
        )

    return BoundaryForcing.from_callables(p_in, p_out, cfg.T)


# ---------------------------------------------------------------------------
# CSV emission


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_floats(path, header, values):
    """A header and the rows of a float array, every value as %.17g, with
    one format string per row.  The bytes are those of _write_csv over the
    formatted strings: the csv module's default dialect ends lines with
    \r\n and quotes no number, nan or inf."""
    row = ",".join(["{:.17g}"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row.format(*r) for r in values.tolist())


def write_energies(path, ledger):
    names = ledger.COLUMNS
    _write_floats(path, names, np.column_stack([getattr(ledger, k) for k in names]))


def write_coefficients(path, traj):
    n = traj.n
    header = (
        ["t"]
        + [f"a_{k + 1}" for k in range(n)]
        + [f"adot_{k + 1}" for k in range(n)]
    )
    _write_floats(path, header, np.column_stack([traj.t, traj.a, traj.a_dot]))


def write_summary(path, *, sup_E, integral_D, forcing_L2, diffusion_ratio,
                  periodic_residual, outer_iters):
    header = ["sup_E", "integral_D", "forcing_L2", "diffusion_ratio",
              "periodic_residual", "outer_iters"]
    row = [f"{sup_E:.17g}", f"{integral_D:.17g}", f"{forcing_L2:.17g}",
           f"{diffusion_ratio:.17g}", f"{periodic_residual:.17g}",
           str(outer_iters)]
    _write_csv(path, header, [row])


# ---------------------------------------------------------------------------
# run modes


def _diffusion_ratio(integral_D, forcing):
    """The measured diffusion ratio of a run; nan for zero pressure data."""
    try:
        return diffusion_ratio(integral_D, forcing)
    except ZeroForcing:
        return float("nan")


def run_periodic(cfg, out_dir):
    forcing = build_forcing(cfg)
    assembler = build_model(cfg)
    outer = OuterLoopConfig(
        eps=cfg.eps_value, theta_r=cfg.theta_r, max_iter=cfg.max_iter,
        tol=cfg.tol,
    )
    result = outer_fixed_point(
        assembler, cfg.T, cfg.n_t, forcing, outer, n_samples=cfg.matrix_samples
    )
    ledger = EnergyLedger.from_trajectory(
        result.problem.system, result.trajectory, cfg.T / cfg.n_t, result.problem.f
    )
    write_energies(os.path.join(out_dir, "energies.csv"), ledger)
    write_coefficients(os.path.join(out_dir, "coefficients.csv"), result.trajectory)
    write_summary(
        os.path.join(out_dir, "summary.csv"),
        sup_E=ledger.sup_energy(),
        integral_D=ledger.integral_dissipation(),
        forcing_L2=forcing.l2_norm(),
        diffusion_ratio=_diffusion_ratio(ledger.integral_dissipation(), forcing),
        periodic_residual=result.periodic_residual,
        outer_iters=result.iterations,
    )
    return 0


def run_ivp(cfg, out_dir):
    forcing = build_forcing(cfg)
    assembler = build_model(cfg)
    if forcing.is_zero():
        forcing = None
    n = assembler.basis.n
    rng = np.random.default_rng(cfg.seed)
    x0 = GalerkinState(
        cfg.ivp_amplitude * rng.standard_normal(n),
        cfg.ivp_amplitude * rng.standard_normal(n),
    )
    dt = cfg.T / cfg.n_t
    result = solve_ivp(assembler, x0, cfg.t_final, dt, forcing=forcing)
    write_energies(os.path.join(out_dir, "energies.csv"), result.ledger)
    write_coefficients(os.path.join(out_dir, "coefficients.csv"), result.trajectory)
    forcing_l2 = forcing.l2_norm() if forcing is not None else 0.0
    intd = result.ledger.integral_dissipation()
    write_summary(
        os.path.join(out_dir, "summary.csv"),
        sup_E=result.ledger.sup_energy(),
        integral_D=intd,
        forcing_L2=forcing_l2,
        diffusion_ratio=_diffusion_ratio(intd, forcing),
        periodic_residual=float("nan"),
        outer_iters=0,
    )
    if not result.completed:
        print(
            f"domain violation: shell left the admissible region at "
            f"t = {result.violation_time:.6g}",
            file=sys.stderr,
        )
        return 2
    return 0


def run_verify(cfg, out_dir):
    """Built-in identity checks on the configured model; writes a report."""
    rng = np.random.default_rng(cfg.seed)
    forcing = build_forcing(cfg)
    assembler = build_model(cfg)
    basis = assembler.basis
    shell = basis.shell_basis
    checks = []

    # extension divergence on interior nodes
    c = 0.01 * rng.standard_normal(shell.n_modes)
    xi = np.eye(shell.n_modes)[min(1, shell.n_modes - 1)]
    ext = basis.ext_op.extend(c, xi)
    jets = QuadJets(assembler.grid, shell, c, np.zeros(shell.n_modes))
    div = ext.tables(jets.r_phys, jets.theta, jets.z)["div"][0]
    checks.append(("extension_interior_div", float(np.max(np.abs(div))), 1e-6))

    # trilinear antisymmetry and the Korn identity on two Stokes modes
    grid = assembler.grid
    val, grad = basis.stokes_basis.tables_on(grid)
    tu, tv = ({"val": val[k], "grad": grad[k]} for k in (0, min(3, len(val)) - 1))
    bsym = abs(trilinear_b(tu, tv, tv, grid.w))
    checks.append(("trilinear_antisymmetry", bsym, 1e-12))
    checks.append(("korn_identity", korn_check(tu, tv, grid.w)[0], 1e-6))

    # mollifier non-expansion
    sig = rng.standard_normal(64)
    sm = mollify(sig, 4.0 / 64, 1.0 / 64)
    checks.append(
        ("mollifier_nonexpansion",
         float(np.max(np.abs(sm)) - np.max(np.abs(sig))), 1e-12)
    )

    # frozen-geometry energy balance over one period
    system = assemble(assembler, cfg.T, forcing)
    prob = PeriodicProblem(system, cfg.T, cfg.T / cfg.n_t)
    x0 = GalerkinState.zero(basis.n)
    traj = poincare_map(prob, x0)
    led = EnergyLedger.from_trajectory(system, traj, prob.dt, prob.f)
    scale = max(led.sup_energy(), 1e-30)
    checks.append(
        ("frozen_energy_balance", led.max_balance_residual() / scale, 1e-10)
    )

    # zero forcing gives the zero periodic orbit
    system0 = assemble(assembler, cfg.T, None)
    x_star, info = periodic_solve(PeriodicProblem(system0, cfg.T, cfg.T / cfg.n_t))
    checks.append(
        ("zero_forcing_orbit", float(np.max(np.abs(x_star.a)) + np.max(np.abs(x_star.a_dot))), 1e-10)
    )

    # kinematic coupling of a random state: fluid and solid traces
    state = GalerkinState(0.01 * rng.standard_normal(basis.n),
                          0.01 * rng.standard_normal(basis.n))
    checks.append(
        ("kinematic_coupling", max(coupling_residuals(state, basis).values()), 1e-8)
    )

    rows = []
    all_pass = True
    for name, measured, tolerance in checks:
        ok = measured <= tolerance
        all_pass = all_pass and ok
        rows.append([name, f"{measured:.6e}", f"{tolerance:.1e}", str(ok).lower()])
    _write_csv(
        os.path.join(out_dir, "verify_report.csv"),
        ["check", "measured", "tolerance", "pass"],
        rows,
    )
    for row in rows:
        print(f"{row[0]}: measured {row[1]} tolerance {row[2]} pass={row[3]}")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="perifsi",
        description="periodic fluid-shell-solid interaction simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run-periodic", "run-ivp", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=False, default=None,
                       help="path to a key = value configuration file")
        p.add_argument("--out-dir", required=False, default=".",
                       help="directory for the CSV outputs")
        p.add_argument("--seed", required=False, type=int, default=None,
                       help="override the configured random seed")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig().validate()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed).validate()
        os.makedirs(args.out_dir, exist_ok=True)
        if args.command == "run-periodic":
            return run_periodic(cfg, args.out_dir)
        if args.command == "run-ivp":
            return run_ivp(cfg, args.out_dir)
        return run_verify(cfg, args.out_dir)
    except Exception as exc:
        code = exit_code_for(exc)
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
