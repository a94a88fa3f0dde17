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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assembly import AssembledSystem, GalerkinState, assemble
from .diagnostics import energies
from .errors import (
    DomainViolation,
    GridMismatch,
    LinearSolveFailure,
    NoConvergence,
    SingularMonodromy,
)
from .extension_ops import azimuthal_damping, mollify
from .geometry import admissibility, check_injectivity

ANDERSON_DEPTH = 3  # residual differences kept by the outer loop's mixing
STEP_CHUNK = 256  # steps whose maps are interpolated, solved and reduced together


def _whole_steps(span, dt, what):
    """The number of steps of size dt in span; GridMismatch unless it is a
    positive whole number (to 1e-9 relative)."""
    ratio = span / dt
    n_steps = int(round(ratio))
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * ratio:
        raise GridMismatch(f"{what} must be an integer number of steps")
    return n_steps


@dataclass
class PeriodicProblem:
    """A linear periodic system on its time grid, stacked over one period.

    On first use the period is built STEP_CHUNK steps at a time: step_maps
    gives a chunk's step maps from one interpolation and one batched solve,
    a pairwise product tree reduces them to the chunk's affine map, and the
    chunk maps compose in time order into the one-period map x -> A x + b.
    The problem keeps the step map V (n_steps, n, 2n + 1) and the midpoint
    load f (n_steps, n) of every step, which the orbit replay and the energy
    ledger read, and the monodromy; no per-step (n, n) block is kept.
    """

    system: object
    T: float
    dt: float

    def __post_init__(self):
        self.n_steps = _whole_steps(self.T, self.dt, "the period")

    @cached_property
    def _period(self):
        n, dt = self.system.n, self.dt
        V = np.empty((self.n_steps, n, 2 * n + 1))
        f = np.empty((self.n_steps, n))
        Ab = np.eye(2 * n + 1)  # the affine map of the steps built so far
        for start in range(0, self.n_steps, STEP_CHUNK):
            chunk = slice(start, min(start + STEP_CHUNK, self.n_steps))
            t_mid = (np.arange(chunk.start, chunk.stop) + 0.5) * dt
            V[chunk], f[chunk] = step_maps(self.system, t_mid, dt)
            Ab = _chunk_map(V[chunk], dt) @ Ab
        return V, f, (Ab[:-1, :-1], Ab[:-1, -1])

    @property
    def V(self):
        return self._period[0]

    @property
    def f(self):
        return self._period[1]

    @property
    def monodromy(self):
        """The one-period affine map (A, b) in x = (a, a')."""
        return self._period[2]


def step_maps(system, t_mid, dt):
    """The implicit midpoint step maps and loads at the midpoints t_mid.

    Eliminating a_{m+1} from the midpoint equations leaves a single n x n
    solve per step:  P v+ = Pm v- - dt K a- + dt f,  a+ = a- + dt (v- + v+) / 2,
    with P = M + dt C / 2 + dt^2 K / 4 and Pm its reflection, so
    V = P^-1 [-dt K, Pm, dt f].  One matrices_at and one forcing_at call
    interpolate every midpoint of the 1-D array t_mid and one batched solve
    gives every V.  Returns the step maps (len(t_mid), n, 2n + 1) and loads
    (len(t_mid), n); a singular or non-finite P raises LinearSolveFailure
    at the first such midpoint.
    """
    mats = system.matrices_at(t_mid)
    M, C, K = mats["M"], mats["C"], mats["K"]
    P = M + 0.5 * dt * C + 0.25 * dt * dt * K
    Pm = M - 0.5 * dt * C - 0.25 * dt * dt * K
    f = system.forcing_at(t_mid, mats)
    rhs = np.concatenate(
        [np.broadcast_to(-dt * K, P.shape), Pm, dt * f[..., None]], axis=-1)
    try:
        V = np.linalg.solve(P, rhs)
    except np.linalg.LinAlgError:  # an exactly singular P: find it
        V = np.array([_solve_or_nan(Pk, rk) for Pk, rk in zip(P, rhs)])
    bad = np.flatnonzero(~np.isfinite(V).all(axis=(1, 2)))
    if bad.size:
        raise LinearSolveFailure(
            f"midpoint operator is singular at t={float(t_mid[bad[0]])}")
    return V, f


def _solve_or_nan(P, rhs):
    try:
        return np.linalg.solve(P, rhs)
    except np.linalg.LinAlgError:
        return np.full(rhs.shape, np.nan)


def _chunk_map(V, dt):
    """The affine map (2n + 1, 2n + 1) in (a, a', 1) of consecutive steps
    with step maps V, reduced by a pairwise product tree."""
    k, n = V.shape[:2]
    i = np.arange(n)
    S = np.zeros((k, 2 * n + 1, 2 * n + 1))
    S[:, n:-1] = V  # v+ = V (a, a', 1)
    S[:, :n] = 0.5 * dt * V  # a+ = a + dt (a' + v+) / 2
    S[:, i, i] += 1.0
    S[:, i, n + i] += 0.5 * dt
    S[:, -1, -1] = 1.0
    while len(S) > 1:
        h = len(S) // 2
        S = np.concatenate([S[1 : 2 * h : 2] @ S[0 : 2 * h : 2], S[2 * h :]])
    return S[0]


def step(V, state, dt):
    """One implicit midpoint step of state with the step map V."""
    v1 = V @ np.concatenate([state.a, state.a_dot, [1.0]])
    if not np.all(np.isfinite(v1)):
        raise LinearSolveFailure(f"non-finite update at t={state.t}")
    a1 = state.a + 0.5 * dt * (state.a_dot + v1)
    return GalerkinState(a1, v1, state.t + dt)


def poincare_map(problem, x0):
    """Integrate one period from x0 with the stored step maps, one
    matrix-vector product per step; returns the trajectory: one
    GalerkinState of the n_steps + 1 states, a and a_dot (n_steps + 1, n) at
    the times t (n_steps + 1,), whose last row is the image of x0."""
    dt, n = problem.dt, x0.n
    X = np.empty((problem.n_steps + 1, 2 * n))
    X[0] = np.concatenate([x0.a, x0.a_dot])
    x = np.append(X[0], 1.0)
    for m, V in enumerate(problem.V):
        v1 = V @ x
        x[:n] += 0.5 * dt * (x[n:-1] + v1)
        x[n:-1] = v1
        X[m + 1] = x[:-1]
    t = np.add.accumulate(np.append(0.0, np.full(problem.n_steps, dt)))
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise LinearSolveFailure(f"non-finite update at t={t[bad[0] - 1]}")
    # contiguous copies: numpy's sums may round differently on strided views
    return GalerkinState(X[:, :n].copy(), X[:, n:].copy(), t)


def periodic_solve(problem):
    """Fixed point of the Poincare map via the monodromy factorization.

    Returns (x_star, info).  info holds the conditioning of I - A, the
    periodic orbit replayed from x_star ("trajectory", one GalerkinState of
    the n_steps + 1 states) and the sup-norm gap between its end and x_star
    ("residual").  Raises SingularMonodromy when the period is resonant with
    an undamped mode of the system.
    """
    A, b = problem.monodromy
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
    traj = poincare_map(problem, x_star)
    gap = np.concatenate([traj.a[-1] - x_star.a, traj.a_dot[-1] - x_star.a_dot])
    info = {"sigma_min": float(sig[-1]), "sigma_max": float(sig[0]),
            "residual": float(np.max(np.abs(gap))), "trajectory": traj}
    return x_star, info


@dataclass
class EnergyLedger:
    """Per-step energy bookkeeping of a trajectory, one (N,) array per column.

    Row m holds the state time t, E_kin = v' M v / 2, E_el = a' K a / 2 and
    E = E_kin + E_el of state m, and the dissipation D, the rate of work and
    the residual of the discrete identity

        E_{m+1} - E_m = dt [ work_rate - D ]

    over step m, with D and the rate of work of the pressure load and the
    moving boundary evaluated at the midpoint.  For a frozen geometry the
    identity is exact for the implicit midpoint rule; for a moving geometry
    the residual is O(dt^2) per period.  dt is the step of the rows, so a
    one-row ledger still integrates its dissipation.  The midpoint loads
    are the steps' stored loads (PeriodicProblem.f, or step_maps' f); the
    dissipation and transport forms at all midpoints come from one call of
    the system's quadratic_forms, with no (n, n) block per step.
    """

    COLUMNS = ("t", "E_kin", "E_el", "E", "D", "work_rate", "balance_residual")

    t: np.ndarray
    E_kin: np.ndarray
    E_el: np.ndarray
    E: np.ndarray
    D: np.ndarray
    work_rate: np.ndarray
    balance_residual: np.ndarray
    dt: float

    @classmethod
    def from_trajectory(cls, system, traj, dt, loads):
        E_kin, E_el = energies(system, traj)
        E = E_kin + E_el
        v = traj.a_dot
        vbar = 0.5 * (v[:-1] + v[1:])
        t_mid = traj.t[0] + (np.arange(len(traj.t) - 1) + 0.5) * dt
        D, transport = system.quadratic_forms(t_mid, vbar)
        work = np.einsum("mi,mi->m", vbar, loads) - transport
        resid = np.abs(E[1:] - E[:-1] + dt * D - dt * work)
        return cls(traj.t[:-1], E_kin[:-1], E_el[:-1], E[:-1], D, work, resid, dt)

    def sup_energy(self):
        return float(self.E.max()) if self.E.size else 0.0

    def integral_dissipation(self):
        # a left-to-right sum, as the rows were accumulated
        return float(sum(self.D.tolist()) * self.dt)

    def max_balance_residual(self):
        r = self.balance_residual
        return float(r.max()) if r.size else 0.0


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
    """The converged pass: x_star, the orbit replayed from it and the
    pass's periodic problem, whose system is that of the last pair."""

    x_star: GalerkinState
    iterations: int
    update: float
    periodic_residual: float
    trajectory: GalerkinState
    problem: PeriodicProblem


def _regularize_paths(basis, a_traj, v_traj, T, eps):
    """Mollified (shell coefficient, transport coefficient) paths.

    Both paths are smoothed by circular convolution in time; the shell path is
    additionally damped in the azimuthal modes with the mollifier's transfer
    factor so the geometry stays uniformly smooth.
    """
    dt = T / a_traj.shape[0]
    shell_s = mollify(basis.shell_coefficients(a_traj).T, eps, dt).T
    shell_s *= azimuthal_damping(basis.shell_basis, eps)
    v_s = mollify(v_traj.T, eps, dt).T
    return shell_s, v_s


def _unstack(p, n_shell, n_t):
    """The (shell, transport) path samples of a stacked pair."""
    return p[:n_shell].reshape(n_t, -1), p[n_shell:].reshape(n_t, -1)


def _shell_violation(basis, shell, dt, cyl):
    """The first grid time at which a shell path (n_t, n_modes) leaves the
    admissible domain, or None when it is admissible at every grid time."""
    bad = admissibility(cyl, basis.shell_basis, shell)[1]
    return None if bad is None else float(bad * dt)


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
        shell, transport = (None, None) if p is None else _unstack(p, n_shell, n_t)
        system = assemble(assembler, T, forcing, shell=shell, transport=transport,
                          n_samples=n_samples)
        problem = PeriodicProblem(system, T, dt)
        x_star, info = periodic_solve(problem)
        traj = info["trajectory"]
        shell_new, v_new = _regularize_paths(basis, traj.a[:-1], traj.a_dot[:-1],
                                             T, config.eps)
        n_shell = shell_new.size
        g = np.concatenate([shell_new.ravel(), v_new.ravel()])
        if p is None:
            p = np.zeros_like(g)
        r = g - p
        update = theta * float(np.max(np.abs(r)))
        history.append(update)
        if update <= config.tol:
            return OuterResult(x_star, it, update, info["residual"], traj, problem)
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
    """The states reached (one stacked GalerkinState), their energy ledger
    (one row per step taken) and the time at which the shell left the
    admissible domain, None for a completed run."""

    trajectory: GalerkinState
    ledger: EnergyLedger
    violation_time: float

    @property
    def completed(self):
        return self.violation_time is None


def solve_ivp(assembler, x0, t_final, dt, forcing=None):
    """Nonlinear initial value integration with geometry lagged one step.

    At each step the domain motion and the convective transport are frozen at
    the current state (explicit in geometry), and the implicit midpoint step
    is taken in that geometry (implicit in physics).  A state that carries the
    shell beyond the injectivity margin ends the run gracefully: the result
    reports the reached time instead of raising.  Each step's ledger row is
    that of the step's frozen system.  t_final must be a whole number of
    steps (GridMismatch otherwise).
    """
    basis = assembler.basis
    cyl = assembler.cyl
    n_steps = _whole_steps(t_final, dt, "t_final")
    state = GalerkinState(np.array(x0.a), np.array(x0.a_dot), 0.0)
    states = [state]
    ledgers = []
    violation = None
    for m in range(n_steps):
        eta = basis.shell_field(state.a)
        if not check_injectivity(eta, cyl):
            violation = state.t
            break
        sample = assembler.sample(eta, basis.shell_field(state.a_dot), state.a_dot)
        frozen = AssembledSystem.from_sample(t_final, sample, assembler, forcing)
        V, f = step_maps(frozen, np.array([state.t + 0.5 * dt]), dt)
        new = step(V[0], state, dt)
        pair = _stack([state, new])
        ledgers.append(EnergyLedger.from_trajectory(frozen, pair, dt, f))
        states.append(new)
        state = new
    # one row per step taken, none when the initial shell is outside
    columns = ([getattr(led, k) for led in ledgers] for k in EnergyLedger.COLUMNS)
    ledger = EnergyLedger(*(np.concatenate([np.empty(0), *c]) for c in columns), dt)
    return IvpResult(_stack(states), ledger, violation)


def _stack(states):
    """One trajectory GalerkinState of a list of states."""
    return GalerkinState(np.array([s.a for s in states]),
                         np.array([s.a_dot for s in states]),
                         np.array([s.t for s in states]))
