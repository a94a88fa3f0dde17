"""Configuration parsing, CSV emission, and the command line front end.

Config files are flat ``key = value`` assignments grouped under
``[section]`` headers; every key is known in advance and unknown keys are
rejected with their line number.  The canonical emitter reproduces a parsed
configuration exactly, so emit -> parse is the identity on RunConfig.

Subcommands:
  run-periodic   solve the time-periodic problem via the outer fixed point
  run-ivp        integrate the nonlinear initial value problem
  verify         run the built-in identity checks and write a report

Exit codes: 0 success, 2 domain violation, 3 outer loop did not converge,
4 singular monodromy (resonance), 1 any other failure.  Runs are
deterministic given (config, seed).  The numeric backends read their thread
counts (OMP_NUM_THREADS, OPENBLAS_NUM_THREADS) when numpy loads, so set them
in the environment before launch.
"""

import argparse
import csv
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ParseError,
    ValidationError,
    ZeroForcing,
    exit_code_for,
)


# ---------------------------------------------------------------------------
# configuration schema


@dataclass
class RunConfig:
    """Complete description of one run.

    Fixed conventions: fluid density and viscosity are 1, as is the shell
    surface density; the remaining physics is in the solid parameters.
    """

    # run
    seed: int = 0
    t_final: float = 1.0
    ivp_amplitude: float = 1e-3
    # geometry
    R: float = 1.0
    L: float = 2.0
    H: float = 0.5
    # physics
    lambda1: float = 1.0
    lambda2: float = 1.0
    delta_visc: float = 1.0
    rho_s2: float = 1.0
    # discretization
    n_theta: int = 1
    n_z: int = 8
    n_r_fluid: int = 10
    n_r_solid: int = 4
    n_interior: int = 16
    n_t: int = 256
    matrix_samples: int = 16
    # forcing
    T: float = 1.0
    p_in_amplitude: float = 0.1
    p_in_frequency: int = 1
    p_in_phase: float = 0.0
    p_out_amplitude: float = 0.0
    p_out_frequency: int = 1
    p_out_phase: float = 0.0
    p_in_series: tuple = ()
    p_out_series: tuple = ()
    # outer loop
    eps: float = 0.0  # 0 means the default 4 * T / n_t
    theta_r: float = 0.5
    max_iter: int = 50
    tol: float = 1e-8

    def validate(self):
        for name in ("R", "L", "H", "T", "lambda1", "rho_s2", "t_final"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        for name in ("lambda2", "delta_visc", "eps", "ivp_amplitude"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be nonnegative")
        for name in ("n_theta", "n_z", "n_r_fluid", "n_r_solid",
                     "n_interior", "n_t", "matrix_samples", "max_iter"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be at least 1")
        if not 0.0 < self.theta_r <= 1.0:
            raise ValidationError("theta_r must lie in (0, 1]")
        if self.tol <= 0:
            raise ValidationError("tol must be positive")
        if self.n_t % self.matrix_samples:
            raise ValidationError("matrix_samples must divide n_t")
        if len(self.p_in_series) != len(self.p_out_series):
            raise ValidationError(
                "p_in_series and p_out_series must have equal length"
            )
        return self

    @property
    def eps_value(self):
        return self.eps if self.eps > 0 else 4.0 * self.T / self.n_t


_SECTIONS = {
    "run": ("seed", "t_final", "ivp_amplitude"),
    "geometry": ("R", "L", "H"),
    "physics": ("lambda1", "lambda2", "delta_visc", "rho_s2"),
    "discretization": (
        "n_theta", "n_z", "n_r_fluid", "n_r_solid", "n_interior",
        "n_t", "matrix_samples",
    ),
    "forcing": (
        "T",
        "p_in_amplitude", "p_in_frequency", "p_in_phase",
        "p_out_amplitude", "p_out_frequency", "p_out_phase",
        "p_in_series", "p_out_series",
    ),
    "outer": ("eps", "theta_r", "max_iter", "tol"),
}

_KEY_SECTION = {k: s for s, keys in _SECTIONS.items() for k in keys}


def _convert(name, raw, line_no):
    kind = RunConfig.__dataclass_fields__[name].type
    try:
        if name in ("p_in_series", "p_out_series"):
            raw = raw.strip()
            return tuple(float(x) for x in raw.split(",")) if raw else ()
        if kind in (int, "int"):
            return int(raw)
        if kind in (float, "float"):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ParseError(f"bad value for {name!r}: {raw!r}", line=line_no) from exc


def parse_config(text):
    """Parse flat key = value configuration text into a RunConfig."""
    values = {}
    section = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SECTIONS:
                raise ParseError(f"unknown section {section!r}", line=line_no)
            continue
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got {stripped!r}", line=line_no)
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key not in _KEY_SECTION:
            raise ParseError(f"unknown key {key!r}", line=line_no)
        if section is not None and _KEY_SECTION[key] != section:
            raise ParseError(
                f"key {key!r} belongs to section [{_KEY_SECTION[key]}]",
                line=line_no,
            )
        if key in values:
            raise ParseError(f"duplicate key {key!r}", line=line_no)
        values[key] = _convert(key, raw, line_no)
    return replace(RunConfig(), **values).validate()


def emit_config(cfg):
    """Canonical text form; parse_config(emit_config(cfg)) == cfg."""
    lines = []
    for section, keys in _SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            v = getattr(cfg, key)
            if isinstance(v, tuple):
                v = ",".join(repr(x) for x in v)
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{key} = {v}")
        lines.append("")
    return "\n".join(lines)


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# model construction


def build_model(cfg):
    """Instantiate the basis and assembler described by a configuration."""
    from .assembly import GlobalBasis, Assembler
    from .extension_ops import ExtensionOperator
    from .fluid_basis import build_stokes_basis
    from .fluidgrid import FluidGrid
    from .geometry import CylinderConfig
    from .shell_solid import ShellBasis, SolidBasis, SolidParams, SolidGrid

    cyl = CylinderConfig(R=cfg.R, L=cfg.L, H=cfg.H)
    shell = ShellBasis(cfg.n_theta, cfg.n_z, cfg.L)
    max_m = shell.max_azimuthal_wavenumber
    stokes = build_stokes_basis(cyl, cfg.n_interior, max_wavenumber=max_m)
    solid = SolidBasis(cyl, shell, n_r=cfg.n_r_solid)
    ext = ExtensionOperator(cyl, shell)
    n = 2 * min(shell.n_modes, stokes.n_modes)
    basis = GlobalBasis(cyl, shell, solid, stokes, ext, n)
    params = SolidParams(
        lambda1=cfg.lambda1, lambda2=cfg.lambda2,
        delta_visc=cfg.delta_visc, rho_s2=cfg.rho_s2,
    )
    # uniform-theta rules are spectrally exact once the grid resolves the
    # full bandwidth of triple products of basis fields
    grid = FluidGrid(cyl, n_r=cfg.n_r_fluid,
                     n_theta=max(8, 8 * max_m + 4), n_z=max(12, 2 * cfg.n_z + 4))
    solid_grid = SolidGrid(cyl, shell, n_r=cfg.n_r_solid + 8)
    return Assembler(cyl, basis, params, grid=grid, solid_grid=solid_grid)


def build_forcing(cfg):
    from .fluid_basis import BoundaryForcing

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


def write_energies(path, ledger):
    arr = ledger.as_arrays()
    names = ["t", "E_kin", "E_el", "E", "D", "work_rate", "balance_residual"]
    rows = zip(*(arr[n] for n in names))
    _write_csv(path, names, ([f"{x:.17g}" for x in row] for row in rows))


def write_coefficients(path, traj):
    n = traj[0].n
    header = (
        ["t"]
        + [f"a_{k + 1}" for k in range(n)]
        + [f"adot_{k + 1}" for k in range(n)]
    )
    rows = (
        [f"{s.t:.17g}"] + [f"{x:.17g}" for x in s.a] + [f"{x:.17g}" for x in s.a_dot]
        for s in traj
    )
    _write_csv(path, header, rows)


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
    from .diagnostics import diffusion_ratio

    try:
        return diffusion_ratio(integral_D, forcing)
    except ZeroForcing:
        return float("nan")


def run_periodic(cfg, out_dir):
    from .solver_periodic import EnergyLedger, OuterLoopConfig, outer_fixed_point

    assembler = build_model(cfg)
    forcing = build_forcing(cfg)
    outer = OuterLoopConfig(
        eps=cfg.eps_value, theta_r=cfg.theta_r, max_iter=cfg.max_iter,
        tol=cfg.tol,
    )
    result = outer_fixed_point(
        assembler, cfg.T, cfg.n_t, forcing, outer, n_samples=cfg.matrix_samples
    )
    ledger = EnergyLedger.from_trajectory(
        result.system, result.trajectory, cfg.T / cfg.n_t, result.problem.operators
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
    from .assembly import GalerkinState
    from .solver_periodic import solve_ivp

    assembler = build_model(cfg)
    forcing = build_forcing(cfg)
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
    from .assembly import GalerkinState, assemble
    from .diagnostics import coupling_residuals, korn_check
    from .extension_ops import mollify
    from .fluid_basis import trilinear_b
    from .fluidgrid import QuadJets
    from .solver_periodic import EnergyLedger, PeriodicProblem, periodic_solve, poincare_map

    rng = np.random.default_rng(cfg.seed)
    assembler = build_model(cfg)
    basis = assembler.basis
    shell = basis.shell_basis
    checks = []

    # extension divergence on interior nodes
    c = 0.01 * rng.standard_normal(shell.n_modes)
    delta = shell.field(c)
    xi = shell.unit_field(min(1, shell.n_modes - 1))
    ext = basis.ext_op.extend(delta, xi)
    jets = QuadJets(assembler.grid, delta, shell.zero_field())
    div = ext.tables(jets.r_phys, jets.theta, jets.z)["div"][0]
    checks.append(("extension_interior_div", float(np.max(np.abs(div))), 1e-6))

    # trilinear antisymmetry and the Korn identity on two Stokes modes
    grid = assembler.grid
    modes = basis.stokes_basis.modes[: min(3, len(basis.stokes_basis.modes))]
    tu, tv = (m.tables(grid.r, grid.theta, grid.z) for m in (modes[0], modes[-1]))
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
    forcing = build_forcing(cfg)
    system = assemble(assembler, cfg.T, forcing)
    prob = PeriodicProblem(system, cfg.T, cfg.T / cfg.n_t)
    x0 = GalerkinState.zero(basis.n)
    traj = poincare_map(prob, x0, record=True)
    led = EnergyLedger.from_trajectory(system, traj, prob.dt, prob.operators)
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
