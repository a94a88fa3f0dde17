"""Time stepping, periodic orbits, and the accelerated outer fixed point.

The assembled system is the linear second-order ODE

    M(t) a'' + C(t) a' + K a = f(t),        C = G + V + B + Q + A_visc,

integrated as a first-order system in x = (a, a') by the implicit midpoint
rule.  Because the rule is linear, one period defines an affine Poincare map
P(x) = A x + b whose fixed point (the T-periodic trajectory) is found from
(I - A) x* = b; a singular monodromy factor I - A signals a resonance between
the forcing period and an undamped mode.  The outer fixed point iterates the
geometry: solve the linearized periodic problem for a prescribed (shell
motion, transport) pair, mollify the resulting shell displacement and fluid
coefficients, and mix the pair with the last few passes (Anderson
acceleration) until self-consistency.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .assembly import AssembledSystem, GalerkinState, TimeGridPath, assemble
from .diagnostics import energies
from .errors import (
    DomainViolation,
    GridMismatch,
    LinearSolveFailure,
    NoConvergence,
    SingularMonodromy,
)
from .extension_ops import azimuthal_damping, mollify
from .geometry import check_injectivity, sup_grid

ANDERSON_DEPTH = 3  # residual differences kept by the outer loop's mixing


@dataclass
class PeriodicProblem:
    """A linear periodic system together with its time grid."""

    system: object
    T: float
    dt: float

    def __post_init__(self):
        ratio = self.T / self.dt
        self.n_steps = int(round(ratio))
        if self.n_steps < 1 or abs(ratio - self.n_steps) > 1e-9 * ratio:
            raise GridMismatch("the period must be an integer number of steps")

    @cached_property
    def operators(self):
        """The midpoint operator of every step, built on first use; the
        monodromy, every replay of the period and the energy ledger read the
        same list."""
        return [
            _midpoint_operator(self.system, (m + 0.5) * self.dt, self.dt)
            for m in range(self.n_steps)
        ]


class StepOperator(NamedTuple):
    """One step of the implicit midpoint rule at the step's midpoint: the
    step map V with v+ = V (a, a', 1), the midpoint load f, and blocks, the
    midpoint dissipation and transport blocks of the energy ledger, where
    the system has them."""

    V: np.ndarray
    f: np.ndarray
    blocks: dict


def _midpoint_operator(system, t_mid, dt):
    """The implicit midpoint update at one step as a step map.

    Eliminating a_{m+1} from the midpoint equations leaves a single n x n
    solve:  P v+ = Pm v- - dt K a- + dt f,  a+ = a- + dt (v- + v+) / 2,
    with P = M + dt C / 2 + dt^2 K / 4 and Pm its reflection, so
    V = P^-1 [-dt K, Pm, dt f].  A singular or non-finite P leaves V
    non-finite and raises LinearSolveFailure.
    """
    mats = system.matrices_at(t_mid)
    M, C, K = mats["M"], mats["C"], mats["K"]
    P = M + 0.5 * dt * C + 0.25 * dt * dt * K
    Pm = M - 0.5 * dt * C - 0.25 * dt * dt * K
    f = system.forcing_at(t_mid, mats)
    lu = lu_factor(P, check_finite=False)
    V = lu_solve(lu, np.column_stack([-dt * K, Pm, dt * f]), check_finite=False)
    if not np.all(np.isfinite(V)):
        raise LinearSolveFailure(f"midpoint operator is singular at t={t_mid}")
    blocks = {k: mats[k] for k in ("V_fluid", "Q") if k in mats}
    return StepOperator(V, f, blocks)


def step(operator, state, dt):
    """One implicit midpoint step of state with a step operator."""
    v1 = operator.V @ np.concatenate([state.a, state.a_dot, [1.0]])
    if not np.all(np.isfinite(v1)):
        raise LinearSolveFailure(f"non-finite update at t={state.t}")
    a1 = state.a + 0.5 * dt * (state.a_dot + v1)
    return GalerkinState(a1, v1, state.t + dt)


def poincare_map(problem, x0, record=False):
    """Integrate one period from x0; returns the final state, or the full
    trajectory (a list of n_steps + 1 states) when record is true."""
    dt = problem.dt
    state = GalerkinState(np.array(x0.a), np.array(x0.a_dot), 0.0)
    traj = [state]
    for op in problem.operators:
        state = step(op, state, dt)
        if record:
            traj.append(state)
    return traj if record else state


def _affine_period_map(problem):
    """The one-period affine map x -> A x + b in x = (a, a')."""
    dt = problem.dt
    n = problem.system.n
    Ab = np.eye(2 * n, 2 * n + 1)  # [A | b] of the steps taken so far
    for op in problem.operators:
        # v+ = V (a, a', 1) and a+ = a + dt (a' + v+) / 2
        v1 = op.V[:, :-1] @ Ab
        v1[:, -1] += op.V[:, -1]
        Ab = np.vstack([Ab[:n] + 0.5 * dt * (Ab[n:] + v1), v1])
    return Ab[:, :-1], Ab[:, -1]


def periodic_solve(problem):
    """Fixed point of the Poincare map via the monodromy factorization.

    Returns (x_star, info).  info holds the conditioning of I - A, the
    periodic orbit replayed from x_star ("trajectory", n_steps + 1 states)
    and the sup-norm gap between its end and x_star ("residual").  Raises
    SingularMonodromy when the period is resonant with an undamped mode of
    the system.
    """
    A, b = _affine_period_map(problem)
    n = problem.system.n
    I2 = np.eye(2 * n)
    F = I2 - A
    sig = np.linalg.svd(F, compute_uv=False)
    if sig[-1] <= 1e-10 * sig[0]:
        raise SingularMonodromy(
            "the period map has a unit multiplier: resonant forcing of an "
            "undamped mode"
        )
    xs = np.linalg.solve(F, b)
    x_star = GalerkinState(xs[:n], xs[n:], 0.0)
    traj = poincare_map(problem, x_star, record=True)
    gap = np.concatenate([traj[-1].a - x_star.a, traj[-1].a_dot - x_star.a_dot])
    info = {"sigma_min": float(sig[-1]), "sigma_max": float(sig[0]),
            "residual": float(np.max(np.abs(gap))), "trajectory": traj}
    return x_star, info


@dataclass
class EnergyRecord:
    t: float
    E_kin: float
    E_el: float
    E: float
    D: float
    work_rate: float
    balance_residual: float


class EnergyLedger:
    """Per-step energy bookkeeping of a trajectory.

    E = E_kin + E_el with E_kin = v' M v / 2 and E_el = a' K a / 2; the
    per-step residual tests the discrete identity

        E_{m+1} - E_m = dt [ work_rate - D ]

    with the dissipation D and the rate of work of the pressure load and the
    moving boundary evaluated at the midpoint.  For a frozen geometry the
    identity is exact for the implicit midpoint rule; for a moving geometry
    the residual is O(dt^2) per period.  dt is the step of the records, so a
    one-record ledger still integrates its dissipation.  The midpoint blocks
    and load are read from the trajectory's step operators (one StepOperator
    per step, as in PeriodicProblem.operators), not interpolated again.
    """

    def __init__(self, records, dt):
        self.records = records
        self.dt = dt

    @classmethod
    def from_trajectory(cls, system, traj, dt, operators):
        E = energies(system, traj)
        records = []
        for m in range(len(traj) - 1):
            s0, s1 = traj[m], traj[m + 1]
            op = operators[m]
            vbar = 0.5 * (s0.a_dot + s1.a_dot)
            Dm = system.dissipation_matrix(op.blocks)
            D = float(vbar @ Dm @ vbar)
            work = float(vbar @ op.f) - float(vbar @ op.blocks["Q"] @ vbar)
            e0, e1 = E[m], E[m + 1]
            resid = abs(e1.E - e0.E + dt * D - dt * work)
            records.append(EnergyRecord(s0.t, e0.E_kin, e0.E_el, e0.E, D, work, resid))
        return cls(records, dt)

    def as_arrays(self):
        names = ["t", "E_kin", "E_el", "E", "D", "work_rate", "balance_residual"]
        return {n: np.array([getattr(r, n) for r in self.records]) for n in names}

    def sup_energy(self):
        return float(max((r.E for r in self.records), default=0.0))

    def integral_dissipation(self):
        return float(sum(r.D for r in self.records) * self.dt)

    def max_balance_residual(self):
        return float(max((r.balance_residual for r in self.records), default=0.0))


@dataclass
class OuterLoopConfig:
    """Parameters of the Anderson-accelerated geometry fixed point: the
    mollification width eps, the mixing weight theta_r (the damped step when
    there is no history), the pass limit max_iter and the update tolerance
    tol.  The admissibility margin is geometry.MARGIN_FRAC R."""

    eps: float
    theta_r: float = 0.5
    max_iter: int = 50
    tol: float = 1e-9

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ValueError("mollification width eps must be positive")
        if not 0.0 < self.theta_r <= 1.0:
            raise ValueError("mixing weight theta_r must lie in (0, 1]")


@dataclass
class OuterResult:
    x_star: GalerkinState
    system: object
    iterations: int
    update: float
    periodic_residual: float
    trajectory: list = field(default_factory=list)
    problem: PeriodicProblem = None  # the periodic problem of system


def _regularize_paths(basis, a_traj, v_traj, T, eps):
    """Mollified (shell coefficient, transport coefficient) paths.

    Both paths are smoothed by circular convolution in time; the shell path is
    additionally damped in the azimuthal modes with the mollifier's transfer
    factor so the geometry stays uniformly smooth.
    """
    n_t = a_traj.shape[0]
    dt = T / n_t
    shell_c = np.array([basis.shell_coefficients(a) for a in a_traj])
    shell_s = mollify(shell_c.T, eps, dt).T
    shell_s *= azimuthal_damping(basis.shell_basis, eps)
    v_s = mollify(v_traj.T, eps, dt).T
    return shell_s, v_s


def _unstack(p, n_shell, n_t):
    """The (shell, transport) path samples of a stacked pair."""
    return p[:n_shell].reshape(n_t, -1), p[n_shell:].reshape(n_t, -1)


def _shell_violation(basis, shell, dt, cyl):
    """The first grid time at which a shell path leaves the admissible
    domain, or None when it is injective at every grid time: check_injectivity
    for all times at once, as one product with the memoized mode table."""
    sb = basis.shell_basis
    sup = np.max(np.abs(shell @ sb.eval_modes(*sup_grid(sb), 0)[:, 0]), axis=1)
    bad = np.flatnonzero(~(sup < cyl.sup_bound))
    return float(bad[0] * dt) if bad.size else None


def outer_fixed_point(assembler, T, n_t, forcing, config, n_samples=None):
    """Anderson-accelerated fixed point over the (shell motion, transport
    field) pair.

    Each pass assembles the linearized periodic system for the current pair
    p (the stacked shell and transport path samples), solves for its periodic
    orbit and regularizes the resulting paths into G(p).  The next pair is the
    Anderson (type II) mixing of the last ANDERSON_DEPTH passes with weight
    theta = config.theta_r,

        p + theta r - (dP + theta dR) gamma,    gamma = argmin |r - dR gamma|,

    where r = G(p) - p and dP, dR hold the differences of the pairs and of
    their residuals (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011).  With an
    empty history this is the damped step p + theta r; that step is also
    taken, and the history cleared, when the mixed pair is not finite or its
    shell path leaves the admissible domain.  Convergence is declared when
    theta max|r| is below config.tol, and the returned system is that of the
    last pass's pair.  A damped step beyond the injectivity
    margin raises DomainViolation and stagnation raises NoConvergence.
    """
    basis = assembler.basis
    cyl = assembler.cyl
    dt = T / n_t
    theta = config.theta_r
    p = None  # the stacked pair of this pass; None is the rest state
    prev = None  # (p, r) of the previous pass
    dP, dR = [], []
    history = []
    for it in range(1, config.max_iter + 1):
        delta_path = v_path = None
        if p is not None:
            delta_path, v_path = (TimeGridPath(T, s) for s in _unstack(p, n_shell, n_t))
        system = assemble(
            assembler, T, forcing,
            delta_path=delta_path, v_path=v_path, n_samples=n_samples,
        )
        problem = PeriodicProblem(system, T, dt)
        x_star, info = periodic_solve(problem)
        traj = info["trajectory"]
        a_traj = np.array([s.a for s in traj[:-1]])
        v_traj = np.array([s.a_dot for s in traj[:-1]])
        shell_new, v_new = _regularize_paths(basis, a_traj, v_traj, T, config.eps)
        n_shell = shell_new.size
        g = np.concatenate([shell_new.ravel(), v_new.ravel()])
        if p is None:
            p = np.zeros_like(g)
        r = g - p
        update = theta * float(np.max(np.abs(r)))
        history.append(update)
        if update <= config.tol:
            return OuterResult(x_star, system, it, update, info["residual"],
                               traj, problem)
        if prev is not None:
            dP = (dP + [p - prev[0]])[-ANDERSON_DEPTH:]
            dR = (dR + [r - prev[1]])[-ANDERSON_DEPTH:]
        prev = (p, r)
        p_next = p + theta * r
        if dR:
            DP, DR = np.column_stack(dP), np.column_stack(dR)
            gamma = np.linalg.lstsq(DR, r, rcond=None)[0]
            mixed = p_next - (DP + theta * DR) @ gamma
            if (np.all(np.isfinite(gamma)) and np.all(np.isfinite(mixed))
                    and _shell_violation(basis, _unstack(mixed, n_shell, n_t)[0],
                                         dt, cyl) is None):
                p = mixed
                continue
            dP, dR = [], []
        bad = _shell_violation(basis, _unstack(p_next, n_shell, n_t)[0], dt, cyl)
        if bad is not None:
            raise DomainViolation(
                "damped shell path breaks domain injectivity", time=bad,
            )
        p = p_next
    raise NoConvergence(
        f"outer fixed point: update {history[-1]:.3e} > tol {config.tol:.3e} "
        f"after {config.max_iter} iterations",
        iterations=config.max_iter,
        last_update=history[-1],
        history=history,
    )


@dataclass
class IvpResult:
    trajectory: list
    violation_time: float = None
    ledger: EnergyLedger = None

    @property
    def completed(self):
        return self.violation_time is None


def solve_ivp(assembler, x0, t_final, dt, forcing=None, with_ledger=True):
    """Nonlinear initial value integration with geometry lagged one step.

    At each step the domain motion and the convective transport are frozen at
    the current state (explicit in geometry), and the implicit midpoint step
    is taken in that geometry (implicit in physics).  A state that carries the
    shell beyond the injectivity margin ends the run gracefully: the result
    reports the reached time instead of raising.
    """
    basis = assembler.basis
    cyl = assembler.cyl
    n_steps = int(round(t_final / dt))
    state = GalerkinState(np.array(x0.a), np.array(x0.a_dot), 0.0)
    traj = [state]
    records = []
    for m in range(n_steps):
        eta = basis.shell_field(state.a)
        if not check_injectivity(eta, cyl):
            return IvpResult(traj, violation_time=state.t,
                             ledger=EnergyLedger(records, dt))
        sample = assembler.sample(eta, basis.shell_field(state.a_dot), state.a_dot)
        frozen = AssembledSystem.from_sample(t_final, sample, assembler, forcing)
        op = _midpoint_operator(frozen, state.t + 0.5 * dt, dt)
        new = step(op, state, dt)
        if with_ledger:
            led = EnergyLedger.from_trajectory(frozen, [state, new], dt, [op])
            records.extend(led.records)
        traj.append(new)
        state = new
    return IvpResult(traj, ledger=EnergyLedger(records, dt))
