"""Time stepping, the periodic orbit solve, and the geometry fixed point."""

import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from perifsi import solver_periodic
from perifsi.assembly import GalerkinState, GlobalBasis, assemble
from perifsi.basis1d import trig_weights
from perifsi.cli import build_forcing
from perifsi.errors import (
    DomainViolation,
    GridMismatch,
    LinearSolveFailure,
    NoConvergence,
)
from perifsi.extension_ops import azimuthal_damping, mollify
from perifsi.geometry import MARGIN_FRAC, CylinderConfig, admissibility, sup_grid
from perifsi.shell_solid import ShellBasis
from perifsi.solver_periodic import (
    LANES,
    STEP_CHUNK,
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
        self.forcing = system.forcing
        self.calls = 0
        self.mass_calls = 0

    def matrices_at(self, t):
        self.calls += 1
        return self.system.matrices_at(t)

    def mass_at(self, times):
        self.mass_calls += 1
        return self.system.mass_at(times)

    def quadratic_forms(self, times, v):
        return self.system.quadratic_forms(times, v)


def _oracle_load(system, t, mats):
    """The pressure load p_in qin - p_out qout at t, from the forcing's
    series at t."""
    if system.forcing is None:
        return np.zeros(system.n)
    (p_in,), (p_out,) = system.forcing.values(t % system.forcing.T)
    return p_in * mats["qin"] - p_out * mats["qout"]


def _oracle_operators(system, n_steps, dt):
    """The sequential stepping path: one matrices_at call and one LU solve
    per step, V = P^-1 [-dt K, Pm, dt f] with the step's midpoint load f."""
    ops = []
    for m in range(n_steps):
        t = (m + 0.5) * dt
        mats = system.matrices_at(t)
        M, C, K = mats["M"], mats["C"], mats["K"]
        P = M + 0.5 * dt * C + 0.25 * dt * dt * K
        Pm = M - 0.5 * dt * C - 0.25 * dt * dt * K
        f = _oracle_load(system, t, mats)
        V = lu_solve(lu_factor(P), np.column_stack([-dt * K, Pm, dt * f]))
        ops.append((V, f))
    return ops


def _oracle_period_map(ops, dt, n):
    """The one-period affine map [A | b], composed one step at a time."""
    Ab = np.eye(2 * n, 2 * n + 1)
    for V, _ in ops:
        v1 = V[:, :-1] @ Ab
        v1[:, -1] += V[:, -1]
        Ab = np.vstack([Ab[:n] + 0.5 * dt * (Ab[n:] + v1), v1])
    return Ab[:, :-1], Ab[:, -1]


def _oracle_replay(ops, x0, dt):
    """The states (n_steps + 1, 2n) from x0, one step map at a time."""
    n = x0.size // 2
    orbit = [x0]
    for V, _ in ops:
        a, v = orbit[-1][:n], orbit[-1][n:]
        v1 = V @ np.concatenate([a, v, [1.0]])
        orbit.append(np.concatenate([a + 0.5 * dt * (v + v1), v1]))
    return np.array(orbit)


def _oracle_ledger(system, ops, orbit, dt):
    """The ledger's E, D and work rate along orbit, with every midpoint
    block interpolated on its own."""
    n = system.n
    E = [0.5 * x[n:] @ system.matrices_at(m * dt)["M"] @ x[n:]
         + 0.5 * x[:n] @ system.K @ x[:n] for m, x in enumerate(orbit[:-1])]
    D, work = [], []
    for m, (V, f) in enumerate(ops):
        w = trig_weights((m + 0.5) * dt, system.T, system.times.size)
        Vf, Q = (np.tensordot(w, system.stacks[k], axes=1) for k in ("V", "Q"))
        vbar = 0.5 * (orbit[m, n:] + orbit[m + 1, n:])
        D.append(vbar @ (Vf + system.constants["A_visc"]) @ vbar)
        work.append(vbar @ f - vbar @ Q @ vbar)
    return {"E": np.array(E), "D": np.array(D), "work_rate": np.array(work)}


def _states(traj):
    return np.hstack([traj.a, traj.a_dot])


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.fixture(scope="module")
def rest_system(small_model, small_forcing):
    return assemble(small_model, 1.0, small_forcing)


@pytest.fixture(scope="module")
def phased_forcing(small_cfg):
    """An inlet pressure whose midpoint value is not zero even on a one-step
    grid (the default phase puts the one midpoint at a zero of the sine)."""
    return build_forcing(replace(small_cfg, p_in_phase=0.7))


@pytest.fixture(scope="module")
def rest_phased(small_model, phased_forcing):
    return assemble(small_model, 1.0, phased_forcing)


@pytest.fixture(scope="module")
def moving_system(small_model, phased_forcing):
    """A moving shell with a transport field, sampled 8 times a period."""
    rng = np.random.default_rng(21)
    t = np.arange(16) / 16
    shell = np.zeros((16, small_model.basis.shell_basis.n_modes))
    shell[:, 0] = 0.02 * np.sin(2 * np.pi * t)
    shell[:, 1] = 0.01 * np.cos(2 * np.pi * t)
    v = 0.05 * np.outer(np.sin(2 * np.pi * t), rng.standard_normal(small_model.basis.n))
    return assemble(small_model, 1.0, phased_forcing, shell=shell, transport=v,
                    n_samples=8)


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
        traj = poincare_map(prob, state)
        led = EnergyLedger.from_trajectory(free_system, traj, prob.dt, prob.f)
        assert np.all(np.diff(led.E) <= 1e-12 * led.E[0])

    def test_step_advances_time(self, rest_system):
        s0 = GalerkinState.zero(rest_system.n)
        (V,) = PeriodicProblem(rest_system, 1.0 / 64, 1.0 / 64).V
        s1 = step(V, s0, 1.0 / 64)
        assert s1.t == pytest.approx(1.0 / 64)


def _lane_ends(prob):
    """The step index after each lane of a problem's period."""
    return np.append(np.arange(prob.lane, prob.n_steps, prob.lane), prob.n_steps)


class TestStackedPeriod:
    """The period stepped in lockstep lanes against the sequential path."""

    @pytest.mark.parametrize("n_steps", [1, 5, 15, 16, 17, 64, 300, 2 * STEP_CHUNK,
                                         2 * STEP_CHUNK + 1])
    @pytest.mark.parametrize("name", ["rest_phased", "moving_system"])
    def test_matches_the_sequential_path(self, name, n_steps, request):
        """x_star and its orbit, and the orbit and ledger of a replay from a
        random state (on a one-step periodic orbit the midpoint velocity is
        zero, so its ledger is round-off).  Up to LANES steps are one step
        per lane; 17 and 300 steps leave a ragged last lane (9 lanes of 2
        steps, the last of 1, and 16 of 19, the last of 15); 64 steps are
        16 lanes of 4; 2 STEP_CHUNK steps are two full build blocks, and
        one step more adds a one-step third block."""
        system = request.getfixturevalue(name)
        n, dt = system.n, 1.0 / n_steps
        ops = _oracle_operators(system, n_steps, dt)
        A, b = _oracle_period_map(ops, dt, n)
        x_want = np.linalg.solve(np.eye(2 * n) - A, b)
        prob = PeriodicProblem(system, 1.0, dt)
        x_star, info = periodic_solve(prob)
        assert _rel(np.concatenate([x_star.a, x_star.a_dot]), x_want) <= 1e-12
        assert _rel(_states(info["trajectory"]), _oracle_replay(ops, x_want, dt)) <= 1e-12

        x0 = 0.01 * np.random.default_rng(n_steps).standard_normal(2 * n)
        traj = poincare_map(prob, GalerkinState(x0[:n], x0[n:]))
        orbit = _oracle_replay(ops, x0, dt)
        assert _rel(_states(traj), orbit) <= 1e-12
        got = EnergyLedger.from_trajectory(system, traj, dt, prob.f)
        for k, want in _oracle_ledger(system, ops, orbit, dt).items():
            assert _rel(getattr(got, k), want) <= 1e-12, k

    def test_a_perturbed_step_map_opens_a_seam(self, rest_phased):
        """Each lane of the replay starts from its seed, the prefix map of
        the steps before it applied to x_star, so a step map changed in the
        middle of a lane after the period is built leaves the orbit's end
        at x_star but opens the seam at that lane's end: the residual, the
        largest seam gap, sees it, and no other seam opens."""
        n_steps = 2 * STEP_CHUNK + 1
        prob = PeriodicProblem(rest_phased, 1.0, 1.0 / n_steps)
        x_star, info = periodic_solve(prob)
        scale = np.max(np.abs(_states(info["trajectory"])))
        assert info["residual"] <= 1e-12 * scale
        lane = LANES // 2
        prob.V[lane * prob.lane + prob.lane // 2, :, -1] *= 1.0 + 1e-3
        perturbed = periodic_solve(prob)[1]
        orbit = _states(perturbed["trajectory"])
        assert np.max(np.abs(orbit[-1] - _states(x_star))) <= 1e-12 * scale
        assert perturbed["residual"] > 1e-8 * scale
        seeds = (prob.prefix_maps @ np.append(_states(x_star), 1.0))[1:, :-1]
        gaps = np.max(np.abs(orbit[_lane_ends(prob)[:-1]] - seeds), axis=1)
        assert np.flatnonzero(gaps > 1e-12 * scale).tolist() == [lane]
        assert gaps[lane] == perturbed["residual"]

    def test_step_maps_are_the_sequential_ones(self, moving_system):
        n_steps = 300
        prob = PeriodicProblem(moving_system, 1.0, 1.0 / n_steps)
        ops = _oracle_operators(moving_system, n_steps, prob.dt)
        assert prob.V.shape == (n_steps, prob.system.n, 2 * prob.system.n + 1)
        assert _rel(prob.V, np.array([V for V, _ in ops])) <= 1e-12
        assert _rel(prob.f, np.array([f for _, f in ops])) <= 1e-14

    @pytest.mark.filterwarnings("error")
    def test_singular_midpoint_in_a_later_chunk(self):
        """P is singular at one midpoint of the second build block of
        STEP_CHUNK steps only, in the middle of a lane: the failure names
        that midpoint."""
        n_steps, bad = 300, STEP_CHUNK + 14
        dt = 1.0 / n_steps
        t_bad = (bad + 0.5) * dt

        def matrices_at(t):
            M = np.broadcast_to(np.eye(2), np.shape(t) + (2, 2)).copy()
            M[np.asarray(t) == t_bad] = 0.0
            return {"M": M, "C": np.zeros_like(M), "K": np.zeros((2, 2))}

        system = SimpleNamespace(n=2, matrices_at=matrices_at, forcing=None)
        with pytest.raises(LinearSolveFailure,
                           match=re.escape(f"t={t_bad}") + "$"):
            periodic_solve(PeriodicProblem(system, 1.0, dt))


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
        gap = max(np.max(np.abs(x_T.a[-1] - x_star.a)),
                  np.max(np.abs(x_T.a_dot[-1] - x_star.a_dot)))
        scale = 1.0 + max(np.max(np.abs(x_star.a)), np.max(np.abs(x_star.a_dot)))
        assert gap <= 1e-10 * scale
        assert info["sigma_min"] > 0.0

    @pytest.mark.filterwarnings("error")
    def test_singular_step_is_a_linear_solve_failure(self):
        """M = C = K = 0 makes every midpoint operator singular: the solve
        names the first step's midpoint instead of failing inside the
        monodromy's SVD."""
        zero = np.zeros((4, 2, 2))
        system = SimpleNamespace(
            n=2,
            matrices_at=lambda t: {"M": zero, "C": zero, "K": zero[0]},
            forcing=None,
        )
        with pytest.raises(LinearSolveFailure, match="t=0.125"):
            periodic_solve(PeriodicProblem(system, 1.0, 0.25))

    def test_each_step_is_built_once(self, rest_system, monkeypatch):
        """One matrices_at call per build block of STEP_CHUNK steps, none in
        the replay, and one lockstep stepping of the lanes for the period
        map and one for the orbit; a period has LANES lanes of
        ceil(n_steps / LANES) steps, at most STEP_CHUNK, so a longer one
        has more."""
        replays = []
        replay = solver_periodic._replay

        def counting_replay(V, x, dt, lane, out):
            replays.append((len(V), x.shape[::2], lane))
            return replay(V, x, dt, lane, out)

        monkeypatch.setattr(solver_periodic, "_replay", counting_replay)
        n = rest_system.n
        for n_steps, blocks, lane, lanes in ((32, 1, 2, 16), (64, 1, 4, 16),
                                             (STEP_CHUNK, 1, 16, 16),
                                             (2 * STEP_CHUNK + 1, 3, 33, 16),
                                             (LANES * STEP_CHUNK + 1, 17, STEP_CHUNK, 17)):
            counting = _CountingSystem(rest_system)
            prob = PeriodicProblem(counting, 1.0, 1.0 / n_steps)
            replays.clear()
            periodic_solve(prob)
            assert counting.calls == blocks
            assert replays == [(n_steps, (lanes, 2 * n + 1), lane),
                               (n_steps, (lanes, 1), lane)]

    def test_ledger_reads_the_step_operators(self, moving_system):
        """The ledger interpolates only the mass matrix, once for all
        states, and reads the stored loads; its dissipation and work rate
        are those of the midpoint matrices (1e-13 relative: the sampled
        forms sum in another order)."""
        counting = _CountingSystem(moving_system)
        prob = PeriodicProblem(counting, 1.0, 1.0 / 32)
        traj = periodic_solve(prob)[1]["trajectory"]
        counting.calls = 0
        led = EnergyLedger.from_trajectory(counting, traj, prob.dt, prob.f)
        assert (counting.calls, counting.mass_calls) == (0, 1)
        ops = _oracle_operators(moving_system, prob.n_steps, prob.dt)
        want = _oracle_ledger(moving_system, ops, _states(traj), prob.dt)
        for k in ("D", "work_rate"):
            np.testing.assert_allclose(getattr(led, k), want[k], rtol=1e-13, atol=0.0)

    def test_orbit_comes_from_the_solve(self, rest_system):
        prob = PeriodicProblem(rest_system, 1.0, 1.0 / 32)
        x_star, info = periodic_solve(prob)
        traj = info["trajectory"]
        assert traj.a.shape == traj.a_dot.shape == (prob.n_steps + 1, prob.system.n)
        # dt = 1/32 is exact in binary, so the accumulated times are too
        assert np.array_equal(traj.t, np.arange(prob.n_steps + 1) * prob.dt)
        assert np.array_equal(traj.a[0], x_star.a)
        assert np.array_equal(traj.a_dot[0], x_star.a_dot)
        x_T = poincare_map(prob, x_star)
        assert np.array_equal(traj.a, x_T.a)
        assert np.array_equal(traj.a_dot, x_T.a_dot)
        assert np.array_equal(traj.t, x_T.t)
        # the residual is the largest gap at a lane seam, the orbit's end
        # against x_star included
        x = _states(x_T)
        seeds = (prob.prefix_maps @ np.append(x[0], 1.0))[1:, :-1]
        gaps = np.abs(x[_lane_ends(prob)] - np.vstack([seeds, x[0]]))
        assert info["residual"] == np.max(gaps)
        assert np.max(gaps[-1]) == max(np.max(np.abs(x_T.a[-1] - x_star.a)),
                                       np.max(np.abs(x_T.a_dot[-1] - x_star.a_dot)))


class TestConstantSystem:
    """A one-sample system (the rest cylinder) is constant in t: its
    matrices come with a time axis of length 1 and step_maps inverts its P
    once per build block."""

    def test_step_maps_are_the_sequential_ones(self, rest_phased):
        n_steps = 300
        prob = PeriodicProblem(rest_phased, 1.0, 1.0 / n_steps)
        ops = _oracle_operators(rest_phased, n_steps, prob.dt)
        assert prob.V.shape == (n_steps, prob.system.n, 2 * prob.system.n + 1)
        assert _rel(prob.V, np.array([V for V, _ in ops])) <= 1e-12
        assert _rel(prob.f, np.array([f for _, f in ops])) <= 1e-14

    def test_one_inverse_per_build_block(self, rest_phased, monkeypatch):
        inverted = []
        inv = np.linalg.inv

        def spy(P):
            inverted.append(P.shape)
            return inv(P)

        monkeypatch.setattr(solver_periodic.np.linalg, "inv", spy)
        n = rest_phased.n
        periodic_solve(PeriodicProblem(rest_phased, 1.0, 1.0 / (2 * STEP_CHUNK + 1)))
        assert inverted == [(1, n, n)] * 3

    @pytest.mark.filterwarnings("error")
    def test_singular_constant_operator(self):
        """A constant P that is singular fails at the first midpoint."""
        zero = np.zeros((1, 2, 2))
        system = SimpleNamespace(
            n=2,
            matrices_at=lambda t: {"M": zero, "C": zero, "K": zero[0]},
            forcing=None,
        )
        dt = 1.0 / 300
        with pytest.raises(LinearSolveFailure, match=re.escape(f"t={0.5 * dt}") + "$"):
            periodic_solve(PeriodicProblem(system, 1.0, dt))


class TestOuterLoop:
    def test_config_validation(self):
        for eps in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="eps"):
                OuterLoopConfig(eps=eps)
        with pytest.raises(ValueError):
            OuterLoopConfig(eps=0.1, theta_r=1.5)
        for max_iter in (0, -3):
            with pytest.raises(ValueError, match="max_iter"):
                OuterLoopConfig(eps=0.1, max_iter=max_iter)
        for tol in (0.0, -1e-9, np.nan, np.inf):
            with pytest.raises(ValueError, match="tol"):
                OuterLoopConfig(eps=0.1, tol=tol)
        OuterLoopConfig(eps=0.1, max_iter=1, tol=1e-300)

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
        assert res.trajectory.a.shape == (65, small_model.basis.n)

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

        def recording_assemble(*args, shell=None, transport=None, **kwargs):
            self.p.append((shell, transport))
            return assemble_(*args, shell=shell, transport=transport, **kwargs)

        def recording_regularize(*args):
            self.g.append(regularize(*args))
            return self.g[-1]

        monkeypatch.setattr(solver_periodic, "assemble", recording_assemble)
        monkeypatch.setattr(solver_periodic, "_regularize_paths",
                            recording_regularize)

    def paths(self, k):
        """The (shell, transport) samples of pass k (zero for the rest state)."""
        shell, transport = self.p[k]
        if shell is None:
            return tuple(np.zeros_like(g) for g in self.g[k])
        return shell, transport

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
        shell, transport = rec.p[-1]
        want = assemble(small_model, 1.0, small_forcing, shell=shell,
                        transport=transport, n_samples=8)
        system = res.problem.system
        assert system.stacks.keys() == want.stacks.keys()
        for k, v in want.stacks.items():
            assert np.array_equal(system.stacks[k], v), k

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
    """The one admissibility test, geometry.admissibility, and the outer
    loop's path check built on it, against an independent per-row einsum
    evaluation of each shell field on the sup grid."""

    cyl = CylinderConfig(R=1.0, L=2.0, H=0.5)
    basis = SimpleNamespace(shell_basis=ShellBasis(3, 4, 2.0))

    def _per_row(self, shell):
        """sup |eta| of each row, and the first row not below the bound."""
        sb = self.basis.shell_basis
        tab = sb.eval_modes(*sup_grid(sb), 0)[:, 0]
        sup = np.array([np.max(np.abs(np.einsum("k,kx->x", c, tab))) for c in shell])
        bad = [s for s, v in enumerate(sup) if not v < self.cyl.sup_bound]
        return sup, (bad[0] if bad else None)

    def _check(self, shell, dt):
        sup, bad = self._per_row(shell)
        got_sup, got_bad = admissibility(self.cyl, self.basis.shell_basis, shell)
        np.testing.assert_allclose(got_sup, sup, rtol=1e-14, atol=0.0)
        assert got_bad == bad
        got = solver_periodic._shell_violation(self.basis, shell, dt, self.cyl)
        assert got == (None if bad is None else bad * dt)
        return bad

    def test_random_paths(self, rng):
        n = self.basis.shell_basis.n_modes
        found = 0
        for _ in range(40):
            shell = rng.uniform(0.05, 0.6) * rng.standard_normal((32, n))
            found += self._check(shell, 1.0 / 32) is not None
        assert 0 < found < 40

    def test_path_crossing_the_margin_at_a_known_step(self, rng):
        """The sup of the path grows linearly through R - MARGIN_FRAC R."""
        sb = self.basis.shell_basis
        dt, s0 = 0.1, 7
        c = rng.standard_normal(sb.n_modes)
        unit = c / self._per_row([c])[0][0]
        bound = self.cyl.R - MARGIN_FRAC * self.cyl.R
        shell = np.array([bound * (s + 0.5) / s0 * unit for s in range(16)])
        assert self._check(shell, dt) == s0
        assert self._check(shell[:s0], dt) is None


class TestRegularizePaths:
    @pytest.mark.parametrize("n", [8, 4])
    def test_matches_the_per_row_shell_map(self, small_model, rng, n):
        """The mollified paths equal, bitwise, those of the shell path taken
        row by row through GlobalBasis.shell_coefficients, on the small
        model's basis (as many coupled entries as shell modes) and on a
        truncated one (fewer, so the shell path is zero padded)."""
        b = small_model.basis
        basis = GlobalBasis(b.cyl, b.shell_basis, b.solid_basis, b.stokes_basis,
                            b.ext_op, n)
        assert basis.half == min(n // 2, b.shell_basis.n_modes)
        T, eps, n_t = 1.0, 4.0 / 64, 64
        a, v = rng.standard_normal((2, n_t, n))
        shell, vel = solver_periodic._regularize_paths(basis, a, v, T, eps)
        per_row = np.array([basis.shell_coefficients(row) for row in a])
        want = mollify(per_row.T, eps, T / n_t).T
        want *= azimuthal_damping(basis.shell_basis, eps)
        assert np.array_equal(shell, want)
        assert np.array_equal(vel, mollify(v.T, eps, T / n_t).T)


class TestIvp:
    def test_unforced_nonlinear_run_dissipates(self, small_model, rng):
        n = small_model.basis.n
        x0 = GalerkinState(0.01 * rng.standard_normal(n),
                           0.01 * rng.standard_normal(n))
        res = solve_ivp(small_model, x0, 0.125, 1.0 / 64)
        assert res.completed
        E = res.ledger.E
        assert np.all(np.diff(E) <= 1e-10 * E[0])

    def test_domain_violation_is_graceful(self, small_model):
        n = small_model.basis.n
        a = np.zeros(n)
        a[0] = 10.0  # coupled mode amplitude far beyond the margin
        res = solve_ivp(small_model, GalerkinState(a, np.zeros(n)), 0.125, 1.0 / 64)
        assert not res.completed
        assert res.violation_time == 0.0

    @pytest.mark.parametrize("n_steps", [1, 2])
    def test_leaving_the_domain_on_the_last_step(self, small_model, n_steps):
        """A shell at 0.93 of the bound moving out fast reaches sup |eta|
        0.964 > 0.95 = sup_bound after one step: the run stops there with
        that state's time, whether or not it is the final one, after one
        step and one ledger row."""
        n = small_model.basis.n
        shell = small_model.basis.shell_basis
        sup_y0 = admissibility(small_model.cyl, shell, np.eye(shell.n_modes)[0])[0]
        a, a_dot = np.zeros(n), np.zeros(n)
        a[0] = 0.93 / sup_y0
        a_dot[0] = 5.0 * np.sign(a[0])
        dt = 1.0 / 64
        res = solve_ivp(small_model, GalerkinState(a, a_dot), n_steps * dt, dt)
        assert not res.completed
        assert res.violation_time == dt
        assert res.trajectory.t.tolist() == [0.0, dt]
        assert res.ledger.t.tolist() == [0.0]

    def test_balance_residual_falls_with_dt(self, small_model, small_forcing):
        """Each row books E with its own step's frozen mass, so the summed
        balance residual over one period, relative to sup E, falls with dt
        (2.03x from 128 to 256 steps; 0.99x when E_{m+1} was booked with
        step m's mass)."""
        n = small_model.basis.n
        rng = np.random.default_rng(0)
        x0 = GalerkinState(1e-2 * rng.standard_normal(n), 1e-2 * rng.standard_normal(n))
        sums = []
        for n_t in (128, 256):
            led = solve_ivp(small_model, x0, 1.0, 1.0 / n_t, forcing=small_forcing).ledger
            sums.append(float(np.sum(led.balance_residual)) / led.sup_energy())
        assert sums[0] / sums[1] >= 1.5

    def test_off_grid_final_time_is_a_grid_mismatch(self, small_model):
        x0 = GalerkinState.zero(small_model.basis.n)
        for t_final in (0.01, 0.005):
            with pytest.raises(GridMismatch):
                solve_ivp(small_model, x0, t_final, 1.0 / 64)

    def test_one_step_ledger_integrates_dissipation(self, small_model, rng):
        n = small_model.basis.n
        x0 = GalerkinState(0.01 * rng.standard_normal(n),
                           0.01 * rng.standard_normal(n))
        dt = 1.0 / 64
        res = solve_ivp(small_model, x0, dt, dt)
        (D,) = res.ledger.D
        assert D > 0.0
        assert res.ledger.integral_dissipation() == D * dt

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
        got = res.trajectory
        prob = PeriodicProblem(rest_system, dt, dt)
        want = step(prob.V[0], x0, dt)
        scale = max(np.max(np.abs(want.a)), np.max(np.abs(want.a_dot)))
        assert np.max(np.abs(got.a[1] - want.a)) <= 1e-14 * scale
        assert np.max(np.abs(got.a_dot[1] - want.a_dot)) <= 1e-14 * scale
        pair = GalerkinState(np.stack([x0.a, want.a]), np.stack([x0.a_dot, want.a_dot]),
                             [x0.t, want.t])
        led = EnergyLedger.from_trajectory(rest_system, pair, dt, prob.f)
        got_rec = np.array([getattr(res.ledger, k) for k in EnergyLedger.COLUMNS])
        want_rec = np.array([getattr(led, k) for k in EnergyLedger.COLUMNS])
        assert got_rec.shape == (7, 1)
        assert np.max(np.abs(got_rec - want_rec)) <= 1e-14 * np.max(np.abs(want_rec))
