"""End-to-end acceptance battery.

Each numbered test exercises one guaranteed property of the solver at the
default resolution (axisymmetric shell modes, 8 axial shell modes, 16
interior fluid modes, 256 time steps per period) and asserts the stated
tolerance, so `pytest -v` reports one pass/fail line per criterion.
"""

import numpy as np
import pytest

from perifsi.assembly import GalerkinState, assemble
from perifsi.cli import RunConfig, build_forcing, build_model
from perifsi.diagnostics import diffusion_ratio, korn_check
from perifsi.errors import EXIT_CODES, SingularMonodromy, exit_code_for
from perifsi.extension_ops import mollify, push_piola
from perifsi.fluid_basis import BoundaryForcing, trilinear_b
from perifsi.fluidgrid import FluidGrid, QuadJets
from perifsi.geometry import admissibility
from perifsi.solver_periodic import (
    EnergyLedger,
    OuterLoopConfig,
    PeriodicProblem,
    outer_fixed_point,
    periodic_solve,
    poincare_map,
    solve_ivp,
)

DEFAULT = dict(n_z=8, n_interior=16, n_t=256, matrix_samples=16,
               p_in_amplitude=0.1)


@pytest.fixture(scope="module")
def cfg():
    return RunConfig(**DEFAULT).validate()


@pytest.fixture(scope="module")
def model(cfg):
    return build_model(cfg)


@pytest.fixture(scope="module")
def forcing(cfg):
    return build_forcing(cfg)


def _outer_run(run_cfg):
    asm = build_model(run_cfg)
    fc = build_forcing(run_cfg)
    oc = OuterLoopConfig(eps=run_cfg.eps_value, theta_r=1.0, max_iter=50,
                         tol=1e-8)
    res = outer_fixed_point(asm, run_cfg.T, run_cfg.n_t, fc, oc,
                            n_samples=run_cfg.matrix_samples)
    ledger = EnergyLedger.from_trajectory(res.problem.system, res.trajectory,
                                          run_cfg.T / run_cfg.n_t,
                                          res.problem.f)
    return {"cfg": run_cfg, "forcing": fc, "result": res, "ledger": ledger}


@pytest.fixture(scope="module")
def outer_runs(model, forcing, cfg):
    """Converged periodic solves shared by the small-data criteria: the
    default resolution, doubled resolution, and halved forcing amplitude."""
    runs = {"base": _outer_run(cfg)}
    runs["doubled"] = _outer_run(
        RunConfig(**{**DEFAULT, "n_z": 16, "n_interior": 32}).validate()
    )
    runs["half"] = _outer_run(
        RunConfig(**{**DEFAULT, "p_in_amplitude": 0.05}).validate()
    )
    return runs


def _combo_tables(stokes_basis, coeff, grid):
    """Tables of a linear combination of the reference modes on one grid."""
    val, grad = stokes_basis.tables_on(grid)
    return {"val": np.einsum("k,kiq->iq", coeff, val),
            "grad": np.einsum("k,kijq->ijq", coeff, grad)}


def test_criterion_01_extension_divergence_and_traces(model):
    """20 random (delta, xi) pairs: interior divergence below 1e-6 ||xi||_inf,
    interface trace and inlet tangential components below 1e-10."""
    rng = np.random.default_rng(11)
    shell = model.basis.shell_basis
    ext_op = model.basis.ext_op
    cyl = model.cyl
    grid = model.grid
    th = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
    zz = np.linspace(0.05, cyl.L - 0.05, 15)
    TT, ZZ = np.meshgrid(th, zz, indexing="ij")
    tflat, zflat = TT.ravel(), ZZ.ravel()
    rdisk, thdisk, _, zdisk = grid.disk(0.0)
    for _ in range(20):
        # draw band-limited data: the corrector resolves smooth boundary
        # sources; spectra decaying like k^-2 keep the divergence within the
        # operator's resolution
        decay = 1.0 / (1.0 + np.arange(shell.n_modes)) ** 2
        delta = 0.02 * rng.standard_normal(shell.n_modes) * decay
        xi = rng.standard_normal(shell.n_modes) * decay
        F = ext_op.extend(delta, xi)
        xi_sup = admissibility(cyl, shell, xi)[0]

        jets = QuadJets(grid, shell, delta, np.zeros(shell.n_modes))
        div = F.tables(jets.r_phys, jets.theta, jets.z)["div"][0]
        assert np.max(np.abs(div)) <= 1e-6 * xi_sup

        r_int = cyl.R + shell.evaluate(delta, tflat, zflat, 0)[0]
        val = F.tables(r_int, tflat, zflat)["val"][0]
        val[0] -= shell.evaluate(xi, tflat, zflat, 0)[0]  # the target is xi e_r
        assert np.max(np.abs(val)) <= 1e-10

        vin = F.tables(rdisk, thdisk, zdisk)["val"][0]
        assert np.max(np.abs(vin[:2])) <= 1e-10


def test_criterion_02_trilinear_antisymmetry(model):
    """100 random triples: b(u,v,w) + b(u,w,v) and b(u,v,v) vanish to 1e-12
    relative to the product of field norms."""
    rng = np.random.default_rng(22)
    grid = model.grid
    val, grad = model.basis.stokes_basis.tables_on(grid)
    fields = [{"val": v, "grad": g} for v, g in zip(val, grad)]
    norms = [np.sqrt(np.einsum("iq,iq,q->", v, v, grid.w)) for v in val]
    for _ in range(100):
        i, j, k = rng.integers(0, len(fields), size=3)
        scale = norms[i] * norms[j] * norms[k] + 1e-30
        u, v, w = fields[i], fields[j], fields[k]
        s1 = trilinear_b(u, v, w, grid.w) + trilinear_b(u, w, v, grid.w)
        s2 = trilinear_b(u, v, v, grid.w)
        assert abs(s1) <= 1e-12 * scale
        assert abs(s2) <= 1e-12 * scale


def test_criterion_03_korn_identity(model):
    """20 solenoidal pairs satisfy the Korn identity to 1e-6; the residual
    decreases under quadrature refinement and a non-solenoidal control
    violates it."""
    rng = np.random.default_rng(33)
    basis = model.basis.stokes_basis
    grid = model.grid
    coarse = FluidGrid(model.cyl, n_r=3, n_theta=8, n_z=6)
    for _ in range(20):
        u = _combo_tables(basis, rng.standard_normal(basis.n_modes), grid)
        q = _combo_tables(basis, rng.standard_normal(basis.n_modes), grid)
        resid, _, _ = korn_check(u, q, grid.w)
        assert resid <= 1e-6
    cval, cgrad = basis.tables_on(coarse)
    fval, fgrad = basis.tables_on(grid)
    for k in range(min(5, basis.n_modes)):
        tc = {"val": cval[k], "grad": cgrad[k]}
        tf = {"val": fval[k], "grad": fgrad[k]}
        rc, _, _ = korn_check(tc, tc, coarse.w)
        rf, _, _ = korn_check(tf, tf, grid.w)
        assert rf <= rc + 1e-14

    # the non-solenoidal control u = (x, 0, 0)
    grad = np.zeros((3, 3, grid.n_nodes))
    grad[0, 0] = 1.0
    control = {"grad": grad}
    bad, _, _ = korn_check(control, control, grid.w)
    assert bad > 1e-6


def test_criterion_04_piola_transform(model):
    """20 transported fields stay divergence free to 1e-6 on deformed
    domains, and the transform is the exact identity at eta = 0."""
    rng = np.random.default_rng(44)
    shell = model.basis.shell_basis
    grid = model.grid
    zval, zgrad = model.basis.stokes_basis.tables_on(grid)

    jets = QuadJets(grid, shell, np.zeros(shell.n_modes), np.zeros(shell.n_modes))
    val, grad = push_piola(jets.A, jets.dA, jets.ginv, zval[:4], zgrad[:4])
    assert np.max(np.abs(val - zval[:4])) <= 1e-12
    assert np.max(np.abs(grad - zgrad[:4])) <= 1e-10

    count = 0
    while count < 20:
        decay = 1.0 / (1.0 + np.arange(shell.n_modes))
        eta = 0.03 * rng.standard_normal(shell.n_modes) * decay
        jets = QuadJets(grid, shell, eta, np.zeros(shell.n_modes))
        for k in (count % len(zval), (count + 7) % len(zval)):
            val, grad = push_piola(jets.A, jets.dA, jets.ginv, zval[k], zgrad[k])
            scale = np.max(np.abs(val)) + 1e-30
            assert np.max(np.abs(np.einsum("iiq->q", grad))) <= 1e-6 * scale
            count += 1


def test_criterion_05_energy_balance(model, forcing):
    """Frozen geometry satisfies the discrete energy identity to 1e-10 of the
    peak energy per step; on a moving geometry the accumulated defect over a
    period shrinks by 4x (within 20%) when the step is halved."""
    system = assemble(model, 1.0, forcing)
    prob = PeriodicProblem(system, 1.0, 1.0 / 256)
    x_star, _ = periodic_solve(prob)
    traj = poincare_map(prob, x_star)
    led = EnergyLedger.from_trajectory(system, traj, prob.dt, prob.f)
    assert led.max_balance_residual() <= 1e-10 * max(led.sup_energy(), 1e-30)

    shell = model.basis.shell_basis
    N = 64
    t = np.arange(N) / N
    samples = np.zeros((N, shell.n_modes))
    samples[:, 0] = 0.01 * np.sin(2 * np.pi * t)
    moving = assemble(model, 1.0, None, shell=samples, n_samples=64)
    rng = np.random.default_rng(55)
    n = moving.n
    x0 = GalerkinState(0.01 * rng.standard_normal(n) / (1 + np.arange(n)),
                       0.01 * rng.standard_normal(n) / (1 + np.arange(n)))
    sums = []
    for nt in (64, 128):
        p = PeriodicProblem(moving, 1.0, 1.0 / nt)
        tr = poincare_map(p, x0)
        ledger = EnergyLedger.from_trajectory(moving, tr, p.dt, p.f)
        sums.append(float(np.sum(ledger.balance_residual)))
    ratio = sums[0] / sums[1]
    assert 4.0 * 0.8 <= ratio <= 4.0 * 1.2


def test_criterion_06_zero_forcing_zero_orbit(model):
    """With no pressure data the unique periodic orbit is rest."""
    system = assemble(model, 1.0, None)
    prob = PeriodicProblem(system, 1.0, 1.0 / 256)
    x_star, info = periodic_solve(prob)
    assert max(np.max(np.abs(x_star.a)), np.max(np.abs(x_star.a_dot))) <= 1e-10
    assert info["residual"] <= 1e-12


def test_criterion_07_small_data_periodic_solution(outer_runs):
    """Small pressure data: the outer loop converges within 50 iterations,
    the orbit closes the period to 1e-8, the energy bound constant is stable
    under resolution doubling, and the diffusion ratio is amplitude
    independent to 10%."""
    consts = {}
    for name, run in outer_runs.items():
        res = run["result"]
        assert res.iterations <= 50
        xsup = max(np.max(np.abs(res.x_star.a)), np.max(np.abs(res.x_star.a_dot)))
        assert res.periodic_residual <= 1e-8 * (1.0 + xsup)
        P2 = run["forcing"].l2_norm() ** 2
        consts[name] = run["ledger"].sup_energy() / P2
    stability = max(consts["base"], consts["doubled"]) / min(
        consts["base"], consts["doubled"]
    )
    assert stability <= 2.0
    r_base = diffusion_ratio(
        outer_runs["base"]["ledger"].integral_dissipation(),
        outer_runs["base"]["forcing"],
    )
    r_half = diffusion_ratio(
        outer_runs["half"]["ledger"].integral_dissipation(),
        outer_runs["half"]["forcing"],
    )
    assert abs(r_half - r_base) <= 0.10 * abs(r_base)


def test_criterion_08_dissipation_bound(outer_runs):
    """Every converged periodic run reports a finite measured constant C with
    int_I D <= C ||P||^2_{L2}."""
    for name, run in outer_runs.items():
        integral_D = run["ledger"].integral_dissipation()
        C_meas = diffusion_ratio(integral_D, run["forcing"])
        assert np.isfinite(C_meas) and C_meas >= 0.0
        assert integral_D <= C_meas * run["forcing"].l2_norm() ** 2 * (1 + 1e-12)


def test_criterion_09_initial_value_problem(model):
    """Unforced nonlinear runs dissipate energy monotonically (1e-8 per-step
    slack); oversized forcing ends in a reported domain violation time rather
    than a crash."""
    rng = np.random.default_rng(99)
    n = model.basis.n
    x0 = GalerkinState(0.005 * rng.standard_normal(n) / (1 + np.arange(n)),
                       0.005 * rng.standard_normal(n) / (1 + np.arange(n)))
    res = solve_ivp(model, x0, 0.25, 1.0 / 256)
    assert res.completed
    E = res.ledger.E
    assert np.all(np.diff(E) <= 1e-8 * (1.0 + E[0]))

    # a constant oversized inlet pressure inflates the shell monotonically
    # until it leaves the admissible region
    big = BoundaryForcing.from_callables(lambda t: 3.0e4, lambda t: 0.0, 1.0)
    out = solve_ivp(model, GalerkinState.zero(n), 0.25, 1.0 / 256, forcing=big)
    assert not out.completed
    assert out.violation_time is not None and 0.0 <= out.violation_time <= 0.25


def test_criterion_10_mollifier():
    """100 random signals: sup-norm non-expansion with 1e-12 slack, and
    constants are reproduced exactly."""
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(16, 256))
        dt = 1.0 / n
        sig = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
        eps = rng.uniform(1.0, 10.0) * dt
        out = mollify(sig, eps, dt)
        assert np.max(np.abs(out)) <= np.max(np.abs(sig)) + 1e-12
    const = np.full(128, -2.5)
    out = mollify(const, 4.0 / 128, 1.0 / 128)
    assert np.max(np.abs(out + 2.5)) <= 1e-12


class _ResonantPair:
    """Two-mode system: one mode with tunable damping and stiffness tuned so
    its discrete Floquet multiplier sits exactly at 1 when undamped, plus a
    generic damped companion mode."""

    def __init__(self, omega2, damping):
        self.n = 2
        self.M = np.eye(2)
        self.C = np.diag([damping, 0.3])
        self.K = np.diag([omega2, 7.3])

        # the load (sin 2 pi t, cos 2 pi t): p_in drives mode 0, p_out mode 1
        self.forcing = BoundaryForcing.from_callables(
            lambda s: np.sin(2.0 * np.pi * s), lambda s: -np.cos(2.0 * np.pi * s), 1.0)

    def matrices_at(self, t):
        shape = np.shape(t) + (2, 2)
        return {"M": np.broadcast_to(self.M, shape),
                "C": np.broadcast_to(self.C, shape), "K": self.K,
                "qin": np.broadcast_to([1.0, 0.0], np.shape(t) + (2,)),
                "qout": np.broadcast_to([0.0, 1.0], np.shape(t) + (2,))}


def test_criterion_11_resonance_sentinel():
    """An undamped mode resonant with the period raises the
    singular-monodromy error (exit code 4); adding viscoelastic damping makes
    the same case solvable."""
    T, N = 1.0, 256
    dt = T / N
    omega = (2.0 / dt) * np.tan(np.pi / N)  # discrete multiplier exactly at 1
    with pytest.raises(SingularMonodromy) as err:
        periodic_solve(PeriodicProblem(_ResonantPair(omega**2, 0.0), T, dt))
    assert exit_code_for(err.value) == 4
    assert EXIT_CODES[SingularMonodromy] == 4

    x_star, info = periodic_solve(
        PeriodicProblem(_ResonantPair(omega**2, 0.1), T, dt)
    )
    assert np.all(np.isfinite(x_star.a))
    assert info["residual"] <= 1e-10 * (1.0 + np.max(np.abs(x_star.a)))
