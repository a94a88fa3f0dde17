"""Time stepping, the periodic orbit solve, and the geometry fixed point."""

from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest

from perifsi import solver_periodic
from perifsi.assembly import GalerkinState, assemble
from perifsi.errors import (
    DomainViolation,
    GridMismatch,
    LinearSolveFailure,
    NoConvergence,
)
from perifsi.geometry import MARGIN_FRAC, CylinderConfig, check_injectivity
from perifsi.shell_solid import ShellBasis
from perifsi.solver_periodic import (
    EnergyLedger,
    OuterLoopConfig,
    PeriodicProblem,
    outer_fixed_point,
    periodic_solve,
    poincare_map,
    solve_ivp,
    step,
)


class _CountingSystem:
    """A system wrapper that counts its matrices_at and mass_at calls."""

    def __init__(self, system):
        self.system = system
        self.n = system.n
        self.K = system.K
        self.calls = 0
        self.mass_calls = 0

    def matrices_at(self, t):
        self.calls += 1
        return self.system.matrices_at(t)

    def mass_at(self, times):
        self.mass_calls += 1
        return self.system.mass_at(times)

    def forcing_at(self, t, mats=None):
        if mats is None:
            mats = self.matrices_at(t)
        return self.system.forcing_at(t, mats)

    def dissipation_matrix(self, mats):
        return self.system.dissipation_matrix(mats)


@pytest.fixture(scope="module")
def rest_system(small_model, small_forcing):
    return assemble(small_model, 1.0, small_forcing)


@pytest.fixture(scope="module")
def free_system(small_model):
    return assemble(small_model, 1.0, None)


class TestStepping:
    def test_problem_requires_integer_steps(self, rest_system):
        with pytest.raises(GridMismatch):
            PeriodicProblem(rest_system, 1.0, 1.0 / 64.5)

    def test_unforced_energy_decays(self, free_system, rng):
        n = free_system.n
        state = GalerkinState(0.01 * rng.standard_normal(n),
                              0.01 * rng.standard_normal(n))
        prob = PeriodicProblem(free_system, 1.0, 1.0 / 64)
        traj = poincare_map(prob, state, record=True)
        led = EnergyLedger.from_trajectory(free_system, traj, prob.dt, prob.operators)
        E = led.as_arrays()["E"]
        assert np.all(np.diff(E) <= 1e-12 * E[0])

    def test_step_advances_time(self, rest_system):
        s0 = GalerkinState.zero(rest_system.n)
        (op,) = PeriodicProblem(rest_system, 1.0 / 64, 1.0 / 64).operators
        s1 = step(op, s0, 1.0 / 64)
        assert s1.t == pytest.approx(1.0 / 64)


class TestPeriodicSolve:
    def test_zero_forcing_zero_orbit(self, free_system):
        prob = PeriodicProblem(free_system, 1.0, 1.0 / 64)
        x_star, info = periodic_solve(prob)
        assert np.max(np.abs(x_star.a)) == 0.0
        assert np.max(np.abs(x_star.a_dot)) == 0.0
        assert info["residual"] <= 1e-12

    def test_forced_orbit_closes_period(self, rest_system):
        prob = PeriodicProblem(rest_system, 1.0, 1.0 / 128)
        x_star, info = periodic_solve(prob)
        x_T = poincare_map(prob, x_star)
        gap = max(np.max(np.abs(x_T.a - x_star.a)),
                  np.max(np.abs(x_T.a_dot - x_star.a_dot)))
        scale = 1.0 + max(np.max(np.abs(x_star.a)), np.max(np.abs(x_star.a_dot)))
        assert gap <= 1e-10 * scale
        assert info["sigma_min"] > 0.0

    def test_singular_step_is_a_linear_solve_failure(self):
        """M = C = K = 0 makes every midpoint operator singular: the solve
        names the first step's midpoint instead of failing inside the
        monodromy's SVD."""
        zero = np.zeros((2, 2))
        system = SimpleNamespace(
            n=2,
            matrices_at=lambda t: {"M": zero, "C": zero, "K": zero},
            forcing_at=lambda t, mats=None: np.zeros(2),
        )
        with pytest.raises(LinearSolveFailure, match="t=0.125"):
            periodic_solve(PeriodicProblem(system, 1.0, 0.25))

    def test_each_step_is_built_once(self, rest_system):
        counting = _CountingSystem(rest_system)
        prob = PeriodicProblem(counting, 1.0, 1.0 / 32)
        periodic_solve(prob)
        assert counting.calls == prob.n_steps

    def test_ledger_reads_the_step_operators(self, rest_system):
        """The ledger interpolates only the mass matrix, once for all
        states; its dissipation and work rate are those of the midpoint
        matrices."""
        counting = _CountingSystem(rest_system)
        prob = PeriodicProblem(counting, 1.0, 1.0 / 32)
        traj = periodic_solve(prob)[1]["trajectory"]
        counting.calls = 0
        led = EnergyLedger.from_trajectory(counting, traj, prob.dt, prob.operators)
        assert (counting.calls, counting.mass_calls) == (0, 1)
        for s0, s1, rec in zip(traj, traj[1:], led.records):
            t_mid = s0.t + 0.5 * prob.dt
            mm = rest_system.matrices_at(t_mid)
            vbar = 0.5 * (s0.a_dot + s1.a_dot)
            D = float(vbar @ rest_system.dissipation_matrix(mm) @ vbar)
            work = (float(vbar @ rest_system.forcing_at(t_mid, mm))
                    - float(vbar @ mm["Q"] @ vbar))
            assert (rec.D, rec.work_rate) == (D, work)

    def test_orbit_comes_from_the_solve(self, rest_system):
        prob = PeriodicProblem(rest_system, 1.0, 1.0 / 32)
        x_star, info = periodic_solve(prob)
        traj = info["trajectory"]
        assert len(traj) == prob.n_steps + 1
        assert np.array_equal(traj[0].a, x_star.a)
        assert np.array_equal(traj[0].a_dot, x_star.a_dot)
        x_T = poincare_map(prob, x_star)
        assert np.array_equal(traj[-1].a, x_T.a)
        assert np.array_equal(traj[-1].a_dot, x_T.a_dot)
        gap = max(np.max(np.abs(x_T.a - x_star.a)),
                  np.max(np.abs(x_T.a_dot - x_star.a_dot)))
        assert info["residual"] == gap


class TestOuterLoop:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            OuterLoopConfig(eps=-1.0)
        with pytest.raises(ValueError):
            OuterLoopConfig(eps=0.1, theta_r=1.5)

    def test_exhausted_budget_raises(self, small_model, small_forcing):
        cfg = OuterLoopConfig(eps=4.0 / 64, theta_r=0.5, max_iter=1, tol=1e-14)
        with pytest.raises(NoConvergence) as err:
            outer_fixed_point(small_model, 1.0, 64, small_forcing, cfg,
                              n_samples=8)
        assert err.value.iterations == 1
        assert err.value.last_update > 0.0
        assert len(err.value.history) == err.value.iterations
        assert err.value.history[-1] == err.value.last_update

    def test_converges_small_data(self, small_model, small_forcing):
        cfg = OuterLoopConfig(eps=4.0 / 64, theta_r=1.0, max_iter=30, tol=1e-7)
        res = outer_fixed_point(small_model, 1.0, 64, small_forcing, cfg,
                                n_samples=8)
        assert res.iterations <= 30
        assert res.update <= 1e-7
        scale = 1.0 + max(np.max(np.abs(res.x_star.a)),
                          np.max(np.abs(res.x_star.a_dot)))
        assert res.periodic_residual <= 1e-10 * scale
        assert len(res.trajectory) == 65

    def test_one_period_replay_per_iteration(self, small_model, small_forcing,
                                             monkeypatch):
        passes = []
        replay = solver_periodic.poincare_map

        def counting(*args, **kwargs):
            passes.append(1)
            return replay(*args, **kwargs)

        monkeypatch.setattr(solver_periodic, "poincare_map", counting)
        cfg = OuterLoopConfig(eps=4.0 / 64, theta_r=0.5, max_iter=2, tol=1e-14)
        with pytest.raises(NoConvergence):
            outer_fixed_point(small_model, 1.0, 64, small_forcing, cfg,
                              n_samples=8)
        assert len(passes) == 2


def _outer_small(small_model, small_forcing, tol, max_iter=20):
    cfg = OuterLoopConfig(eps=4.0 / 64, theta_r=0.5, max_iter=max_iter, tol=tol)
    return outer_fixed_point(small_model, 1.0, 64, small_forcing, cfg,
                             n_samples=8)


@pytest.fixture(scope="module")
def accelerated(small_model, small_forcing):
    return _outer_small(small_model, small_forcing, 1e-8)


class _Recorder:
    """Wraps assemble and _regularize_paths to record each pass's shell and
    transport paths p and their regularized images G(p)."""

    def __init__(self, monkeypatch):
        self.p, self.g = [], []
        assemble_ = solver_periodic.assemble
        regularize = solver_periodic._regularize_paths

        def recording_assemble(*args, delta_path=None, v_path=None, **kwargs):
            self.p.append((delta_path, v_path))
            return assemble_(*args, delta_path=delta_path, v_path=v_path, **kwargs)

        def recording_regularize(*args):
            self.g.append(regularize(*args))
            return self.g[-1]

        monkeypatch.setattr(solver_periodic, "assemble", recording_assemble)
        monkeypatch.setattr(solver_periodic, "_regularize_paths",
                            recording_regularize)

    def paths(self, k):
        """The (shell, transport) samples of pass k (zero for the rest state)."""
        delta_path, v_path = self.p[k]
        if delta_path is None:
            return tuple(np.zeros_like(g) for g in self.g[k])
        return delta_path.samples, v_path.samples

    def damped(self, k, theta):
        """The damped step p + theta (G(p) - p) from pass k."""
        return tuple(p + theta * (g - p) for p, g in zip(self.paths(k), self.g[k]))


class TestAndersonOuterLoop:
    def test_converges_in_few_iterations(self, accelerated):
        assert accelerated.iterations <= 6
        assert accelerated.update <= 1e-8

    def test_matches_a_tight_solve(self, small_model, small_forcing, accelerated):
        tight = _outer_small(small_model, small_forcing, 1e-12)
        err = max(np.max(np.abs(accelerated.x_star.a - tight.x_star.a)),
                  np.max(np.abs(accelerated.x_star.a_dot - tight.x_star.a_dot)))
        assert err <= 0.1 * 1e-8

    def test_result_system_is_that_of_the_last_pair(self, small_model,
                                                    small_forcing, monkeypatch):
        rec = _Recorder(monkeypatch)
        res = _outer_small(small_model, small_forcing, 1e-8)
        assert len(rec.p) == res.iterations
        delta_path, v_path = rec.p[-1]
        want = assemble(small_model, 1.0, small_forcing, delta_path=delta_path,
                        v_path=v_path, n_samples=8)
        assert res.system.stacks.keys() == want.stacks.keys()
        for k, v in want.stacks.items():
            assert np.array_equal(res.system.stacks[k], v), k

    def test_inadmissible_mix_falls_back_to_the_damped_step(
            self, small_model, small_forcing, monkeypatch):
        rec = _Recorder(monkeypatch)
        rejected = []

        def only_damped(basis, shell, dt, cyl):
            if np.array_equal(shell, rec.damped(len(rec.g) - 1, 0.5)[0]):
                return None
            rejected.append(len(rec.g))
            return 0.0

        monkeypatch.setattr(solver_periodic, "_shell_violation", only_damped)
        with pytest.raises(NoConvergence):
            _outer_small(small_model, small_forcing, 1e-14, max_iter=3)
        assert rejected == [2, 3]
        for k in (0, 1):
            for got, want in zip(rec.paths(k + 1), rec.damped(k, 0.5)):
                assert np.array_equal(got, want)

    def test_inadmissible_damped_step_raises(self, small_model, small_forcing,
                                             monkeypatch):
        rec = _Recorder(monkeypatch)
        calls = []

        def reject_after_first_pass(basis, shell, dt, cyl):
            calls.append(len(rec.g))
            return None if len(rec.g) < 2 else 0.0

        monkeypatch.setattr(solver_periodic, "_shell_violation",
                            reject_after_first_pass)
        with pytest.raises(DomainViolation) as err:
            _outer_small(small_model, small_forcing, 1e-14, max_iter=3)
        assert err.value.time == 0.0
        assert calls.count(2) == 2  # the mixed pair, then the damped step
        assert len(rec.p) == 2


class TestShellViolation:
    """The batched path check agrees with check_injectivity at every time."""

    cyl = CylinderConfig(R=1.0, L=2.0, H=0.5)
    basis = SimpleNamespace(shell_basis=ShellBasis(3, 4, 2.0))

    def _per_time(self, shell, dt):
        for s, c in enumerate(shell):
            field = self.basis.shell_basis.field(c)
            if not check_injectivity(field, self.cyl):
                return s * dt
        return None

    def test_random_paths(self, rng):
        n = self.basis.shell_basis.n_modes
        dt = 1.0 / 32
        found = 0
        for _ in range(40):
            shell = rng.uniform(0.05, 0.6) * rng.standard_normal((32, n))
            want = self._per_time(shell, dt)
            got = solver_periodic._shell_violation(self.basis, shell, dt, self.cyl)
            assert got == want
            found += want is not None
        assert 0 < found < 40

    def test_path_crossing_the_margin_at_a_known_step(self, rng):
        """The sup of the path grows linearly through R - MARGIN_FRAC R."""
        sb = self.basis.shell_basis
        dt, s0 = 0.1, 7
        c = rng.standard_normal(sb.n_modes)
        unit = c / sb.field(c).sup_norm()
        bound = self.cyl.R - MARGIN_FRAC * self.cyl.R
        shell = np.array([bound * (s + 0.5) / s0 * unit for s in range(16)])
        got = solver_periodic._shell_violation(self.basis, shell, dt, self.cyl)
        assert got == self._per_time(shell, dt) == s0 * dt
        assert solver_periodic._shell_violation(
            self.basis, shell[:s0], dt, self.cyl) is None


class TestIvp:
    def test_unforced_nonlinear_run_dissipates(self, small_model, rng):
        n = small_model.basis.n
        x0 = GalerkinState(0.01 * rng.standard_normal(n),
                           0.01 * rng.standard_normal(n))
        res = solve_ivp(small_model, x0, 0.125, 1.0 / 64)
        assert res.completed
        E = res.ledger.as_arrays()["E"]
        assert np.all(np.diff(E) <= 1e-10 * E[0])

    def test_domain_violation_is_graceful(self, small_model):
        n = small_model.basis.n
        a = np.zeros(n)
        a[0] = 10.0  # coupled mode amplitude far beyond the margin
        res = solve_ivp(small_model, GalerkinState(a, np.zeros(n)), 0.1, 1.0 / 64)
        assert not res.completed
        assert res.violation_time is not None

    def test_one_step_ledger_integrates_dissipation(self, small_model, rng):
        n = small_model.basis.n
        x0 = GalerkinState(0.01 * rng.standard_normal(n),
                           0.01 * rng.standard_normal(n))
        dt = 1.0 / 64
        res = solve_ivp(small_model, x0, dt, dt)
        (rec,) = res.ledger.records
        assert rec.D > 0.0
        assert res.ledger.integral_dissipation() == rec.D * dt

    def test_rest_step_matches_the_periodic_system(self, small_model, small_forcing,
                                                   rest_system, rng):
        """With the shell at rest (zero coupled entries, zero velocity) an IVP
        step runs on the rest geometry, so it and its ledger record equal a
        step of the assembled periodic system and that system's ledger."""
        n = small_model.basis.n
        a = np.zeros(n)
        a[1::2] = 0.01 * rng.standard_normal(n // 2)
        x0 = GalerkinState(a, np.zeros(n))
        dt = 1.0 / 64
        res = solve_ivp(small_model, x0, dt, dt, forcing=small_forcing)
        got = res.trajectory[1]
        (op,) = PeriodicProblem(rest_system, dt, dt).operators
        want = step(op, x0, dt)
        scale = max(np.max(np.abs(want.a)), np.max(np.abs(want.a_dot)))
        assert np.max(np.abs(got.a - want.a)) <= 1e-14 * scale
        assert np.max(np.abs(got.a_dot - want.a_dot)) <= 1e-14 * scale
        led = EnergyLedger.from_trajectory(rest_system, [x0, want], dt, [op])
        got_rec = np.array(astuple(res.ledger.records[0]))
        want_rec = np.array(astuple(led.records[0]))
        assert len(res.ledger.records) == 1
        assert np.max(np.abs(got_rec - want_rec)) <= 1e-14 * np.max(np.abs(want_rec))
