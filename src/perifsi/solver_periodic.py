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
from .geometry import admissibility

ANDERSON_DEPTH = 3  # residual differences kept by the outer loop's mixing
STEP_CHUNK = 256  # steps whose maps are interpolated and solved together; the longest lane
LANES = 16  # lanes a period of up to LANES * STEP_CHUNK steps is stepped in


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

    The period's steps split into lanes of `lane` consecutive steps,
    min(STEP_CHUNK, ceil(n_steps / LANES)), the last one possibly shorter,
    so a period of up to LANES STEP_CHUNK steps has LANES lanes or fewer.
    On first use the period is built: step_maps gives the step maps of
    STEP_CHUNK steps at a time from one interpolation and one batched
    inverse (one inverse in all for a one-sample system, which is constant
    in t); the 2n + 1 identity columns in (a, a', 1) are stepped through
    every lane at once (_replay), which gives each lane's affine map; and
    the lane maps compose in time order into the one-period map
    x -> A x + b.  The pressure signals at every midpoint come from one FFT
    of the forcing when the steps span its period (BoundaryForcing.
    midpoint_values), else from its series.  The problem keeps the step map
    V (n_steps, n, 2n + 1) and the midpoint load f (n_steps, n) of every
    step, which the orbit replay and the energy ledger read, the affine map
    of the steps before each lane (prefix_maps, which seed the replay's
    lanes) and the monodromy; no per-step (n, n) block is kept.
    """

    system: object
    T: float
    dt: float

    def __post_init__(self):
        self.n_steps = _whole_steps(self.T, self.dt, "the period")
        self.lane = min(STEP_CHUNK, -(-self.n_steps // LANES))

    @cached_property
    def _period(self):
        n, dt, N = self.system.n, self.dt, self.n_steps
        V = np.empty((N, n, 2 * n + 1))
        f = np.empty((N, n))
        pressure = self._midpoint_pressures()
        for start in range(0, N, STEP_CHUNK):
            block = slice(start, min(start + STEP_CHUNK, N))
            t_mid = (np.arange(block.start, block.stop) + 0.5) * dt
            p = None if pressure is None else tuple(q[block] for q in pressure)
            V[block], f[block] = step_maps(self.system, t_mid, dt, p)
        eye = np.eye(2 * n + 1)
        lanes = np.tile(eye, (-(-N // self.lane), 1, 1))
        _replay(V, lanes, dt, self.lane, None)
        # the affine maps of the steps before each lane, then of the period
        prefix = np.empty((len(lanes) + 1, 2 * n + 1, 2 * n + 1))
        prefix[0] = eye
        for k, lane_map in enumerate(lanes):
            prefix[k + 1] = lane_map @ prefix[k]
        return V, f, prefix

    def _midpoint_pressures(self):
        """The forcing's (p_in, p_out) at every midpoint, None unforced.
        The FFT gives them at (m + 1/2) T_f / n_steps for the forcing period
        T_f, so it stands in for the series at (m + 1/2) dt only when the
        steps span T_f to round-off (a one-step period, say, does not)."""
        forcing = self.system.forcing
        span = self.n_steps * self.dt
        if forcing is not None and abs(span - forcing.T) <= 1e-14 * forcing.T:
            return forcing.midpoint_values(self.n_steps)
        return _pressures(forcing, (np.arange(self.n_steps) + 0.5) * self.dt)

    @property
    def V(self):
        return self._period[0]

    @property
    def f(self):
        return self._period[1]

    @property
    def prefix_maps(self):
        """The affine maps (n_lanes, 2n + 1, 2n + 1) in (a, a', 1) of the
        steps before each lane; the first is I."""
        return self._period[2][:-1]

    @property
    def monodromy(self):
        """The one-period affine map (A, b) in x = (a, a')."""
        Ab = self._period[2][-1]
        return Ab[:-1, :-1], Ab[:-1, -1]


def _pressures(forcing, t):
    """The forcing's (p_in, p_out) at the times t, None without forcing."""
    return None if forcing is None else forcing.values(np.asarray(t) % forcing.T)


def step_maps(system, t_mid, dt, pressure):
    """The implicit midpoint step maps and loads at the midpoints t_mid.

    Eliminating a_{m+1} from the midpoint equations leaves a single n x n
    system per step:  P v+ = Pm v- - dt K a- + dt f,  a+ = a- + dt (v- + v+) / 2,
    with P = M + dt C / 2 + dt^2 K / 4 and Pm = 2 M - P its reflection, so
    V = [-dt P^-1 K, P^-1 Pm, dt P^-1 f].  One matrices_at call interpolates
    every midpoint of the 1-D array t_mid, the load is f = p_in qin - p_out
    qout of the interpolated flux vectors and the pressures (p_in, p_out) at
    t_mid (None: no load), and one batched inverse of P gives every V.  A
    one-sample system gives its matrices with a time axis of length 1, which
    broadcasts: P is inverted once and its first two blocks serve every
    midpoint.  This is the one step-map builder: the period calls it once
    per STEP_CHUNK steps and an IVP step once with a single midpoint.
    Returns the step maps (len(t_mid), n, 2n + 1) and loads (len(t_mid), n);
    a singular or non-finite P raises LinearSolveFailure at the first such
    midpoint.
    """
    mats = system.matrices_at(t_mid)
    M, C, K = mats["M"], mats["C"], mats["K"]
    n, k = system.n, len(t_mid)
    P = M + 0.5 * dt * C + 0.25 * dt * dt * K
    if pressure is None:
        f = np.zeros((k, n))
    else:
        p_in, p_out = pressure
        f = p_in[:, None] * mats["qin"] - p_out[:, None] * mats["qout"]
    try:
        P_inv = np.linalg.inv(P)
    except np.linalg.LinAlgError:  # an exactly singular P: find it
        P_inv = np.array([_inv_or_nan(Pk) for Pk in P])
    V = np.empty((k, n, 2 * n + 1))
    V[:, :, :n] = P_inv @ (-dt * K)
    V[:, :, n:-1] = P_inv @ (2.0 * M - P)
    V[:, :, -1] = dt * (P_inv @ f[:, :, None])[:, :, 0]
    bad = np.flatnonzero(~np.isfinite(V).all(axis=(1, 2)))
    if bad.size:
        raise LinearSolveFailure(
            f"midpoint operator is singular at t={float(t_mid[bad[0]])}")
    return V, f


def _inv_or_nan(P):
    try:
        return np.linalg.inv(P)
    except np.linalg.LinAlgError:
        return np.full(P.shape, np.nan)


def step(V, state, dt):
    """One implicit midpoint step of state with the step map V."""
    v1 = V @ np.concatenate([state.a, state.a_dot, [1.0]])
    if not np.all(np.isfinite(v1)):
        raise LinearSolveFailure(f"non-finite update at t={state.t}")
    a1 = state.a + 0.5 * dt * (state.a_dot + v1)
    return GalerkinState(a1, v1, state.t + dt)


def _replay(V, x, dt, lane, out):
    """Step every lane of the step maps V (N, n, 2n + 1) in lockstep: lane
    l is the `lane` steps from step l lane on (the last lane may be
    shorter).  x (n_lanes, 2n + 1, c) holds c columns (a, a', 1) per lane,
    its start, and is stepped in place to the lane's end; out (N, 2n, c),
    unless None, gets the state after each step.  Step j of every lane is
    one batched matrix product."""
    n = V.shape[1]
    for j in range(lane):
        Vj = V[j::lane]  # step j of each lane long enough to have one
        xj = x[: len(Vj)]
        v1 = Vj @ xj
        xj[:, :n] += 0.5 * dt * (xj[:, n:-1] + v1)
        xj[:, n:-1] = v1
        if out is not None:
            out[j::lane] = xj[:, :-1]


def poincare_map(problem, x0):
    """Integrate one period from x0 with the stored step maps; returns the
    trajectory: one GalerkinState of the n_steps + 1 states, a and a_dot
    (n_steps + 1, n) at the times t (n_steps + 1,), whose last row is the
    image of x0.

    Each lane starts from its seed, the image of x0 under the problem's
    prefix map of the steps before it, and all lanes step in lockstep
    (_replay), one batched matrix-vector product per step of a lane.  Row
    k lane holds lane k - 1's end, replayed from its seed; periodic_solve
    checks it against lane k's seed.
    """
    dt, n, N = problem.dt, x0.n, problem.n_steps
    seeds = problem.prefix_maps @ np.concatenate([x0.a, x0.a_dot, [1.0]])
    X = np.empty((N + 1, 2 * n))
    X[0] = seeds[0, :-1]
    _replay(problem.V, seeds[:, :, None], dt, problem.lane, X[1:, :, None])
    t = np.add.accumulate(np.append(0.0, np.full(N, dt)))
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise LinearSolveFailure(f"non-finite update at t={t[bad[0] - 1]}")
    # contiguous copies: numpy's sums may round differently on strided views
    return GalerkinState(X[:, :n].copy(), X[:, n:].copy(), t)


def periodic_solve(problem):
    """Fixed point of the Poincare map via the monodromy factorization.

    Returns (x_star, info).  Reading the monodromy builds the problem's
    period on first use.  info holds the conditioning of I - A
    ("sigma_min", "sigma_max"), the periodic orbit replayed from x_star
    ("trajectory", one GalerkinState of the n_steps + 1 states) and the
    whole-period check "residual": the largest sup-norm gap at a lane seam
    of the replay, between each lane's replayed end and the next lane's
    seed, and between the orbit's end and x_star.  Raises SingularMonodromy
    when the period is resonant with an undamped mode of the system.
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
    # each lane's replayed end against the next lane's seed, the last
    # lane's against x_star
    ends = np.append(np.arange(problem.lane, problem.n_steps, problem.lane),
                     problem.n_steps)
    seeds = (problem.prefix_maps @ np.append(xs, 1.0))[:, :-1]
    gap = np.hstack([traj.a[ends], traj.a_dot[ends]]) - np.vstack([seeds[1:], xs])
    info = {"sigma_min": float(sig[-1]), "sigma_max": float(sig[0]),
            "residual": float(np.max(np.abs(gap))), "trajectory": traj}
    return x_star, info


@dataclass
class EnergyLedger:
    """Per-step energy bookkeeping of a trajectory, one (N,) array per column.

    Row m holds the state time t, E_kin = v' M v / 2, E_el = a' K a / 2 and
    E = E_kin + E_el of state m, and the dissipation D and the rate of work
    of step m, both evaluated at the midpoint: the work of the pressure load
    and of the moving boundary.  E_end is the energy of the trajectory's
    last state.  The balance residual of the discrete identity

        E_{m+1} - E_m = dt [ work_rate - D ]

    over step m reads E_{m+1} from row m + 1, and from E_end for the last
    row, so it follows from the ledger's own columns.  For a frozen
    geometry the identity is exact for the implicit midpoint rule; for a
    moving geometry the residual is O(dt^2) per period.  dt is the step of
    the rows, so a one-row ledger still integrates its dissipation.  The
    midpoint loads are the steps' stored loads (PeriodicProblem.f, or
    step_maps' f); the dissipation and transport forms at all midpoints come
    from one call of the system's quadratic_forms, with no (n, n) block per
    step.
    """

    COLUMNS = ("t", "E_kin", "E_el", "E", "D", "work_rate", "balance_residual")

    t: np.ndarray
    E_kin: np.ndarray
    E_el: np.ndarray
    E: np.ndarray
    D: np.ndarray
    work_rate: np.ndarray
    E_end: float
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
        return cls(traj.t[:-1], E_kin[:-1], E_el[:-1], E[:-1], D, work,
                   float(E[-1]), dt)

    @property
    def balance_residual(self):
        E_next = np.append(self.E, self.E_end)[1:]
        return np.abs(E_next - self.E + self.dt * self.D - self.dt * self.work_rate)

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
        if not 0.0 < self.eps < np.inf:
            raise ValueError("mollification width eps must be positive and finite")
        if not 0.0 < self.theta_r <= 1.0:
            raise ValueError("mixing weight theta_r must lie in (0, 1]")
        if self.max_iter < 1:
            raise ValueError("pass limit max_iter must be at least 1")
        if not 0.0 < self.tol < np.inf:
            raise ValueError("update tolerance tol must be positive and finite")


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
    (one row per step taken) and the time of the first state reached whose
    shell is outside the admissible domain, None for a completed run."""

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
    is taken in that geometry (implicit in physics).  Every state reached,
    the final one included, is checked with geometry.admissibility; the first
    whose shell is beyond the injectivity margin ends the run gracefully: the
    result reports its time instead of raising.  Each step's ledger row books
    E with the step's frozen mass, so E_{m+1} of row m is row m + 1's E and
    the last state keeps the last step's frozen mass.  t_final must be a
    whole number of steps (GridMismatch otherwise).
    """
    basis = assembler.basis
    cyl = assembler.cyl
    n_steps = _whole_steps(t_final, dt, "t_final")
    state = GalerkinState(np.array(x0.a), np.array(x0.a_dot), 0.0)
    states = [state]
    ledgers = []
    violation = None
    for m in range(n_steps + 1):
        shell = basis.shell_coefficients(state.a)
        if admissibility(cyl, basis.shell_basis, shell)[1] is not None:
            violation = state.t
            break
        if m == n_steps:
            break
        sample = assembler.sample(shell, basis.shell_coefficients(state.a_dot),
                                  state.a_dot)
        frozen = AssembledSystem.from_sample(t_final, sample, assembler, forcing)
        t_mid = np.array([state.t + 0.5 * dt])
        V, f = step_maps(frozen, t_mid, dt, _pressures(forcing, t_mid))
        new = step(V[0], state, dt)
        pair = _stack([state, new])
        ledgers.append(EnergyLedger.from_trajectory(frozen, pair, dt, f))
        states.append(new)
        state = new
    # one row per step taken, none when the initial shell is outside; no
    # state's energy is booked then, so E_end is nan
    columns = ([getattr(led, k) for led in ledgers] for k in EnergyLedger.COLUMNS[:-1])
    E_end = ledgers[-1].E_end if ledgers else np.nan
    ledger = EnergyLedger(*(np.concatenate([np.empty(0), *c]) for c in columns), E_end, dt)
    return IvpResult(_stack(states), ledger, violation)


def _stack(states):
    """One trajectory GalerkinState of a list of states."""
    return GalerkinState(np.array([s.a for s in states]),
                         np.array([s.a_dot for s in states]),
                         np.array([s.t for s in states]))
