"""Interleaved global basis and time-sampled assembly of the Galerkin system.

The single coefficient vector a drives all three unknowns through the basis

    entry 2j   (coupled):  ( F_delta(Y_j),  Y_j,  s(r) Y_j e_r )
    entry 2j+1 (interior): ( Piola(Z_j),    0,    Z_j^S        )

so the kinematic couplings (fluid trace = shell velocity, solid trace = shell
displacement) hold structurally: u = sum a'_k X_k^F, eta = sum a_k X_k,
d = sum a_k X_k^S.

Testing the momentum balance against X_k and splitting the symmetrized moving
mass term d/dt int u.X/2 + int (du/dt.X - u.dX/dt)/2 yields the ODE system

    M(t) a'' + [ G(t) + V + B(t) + Q(t) + A_visc ] a' + [ K_sh + A_el ] a = f(t)

with G = (dM_F/dt)/2 + S/2, S_kj = int (dX_j/dt . X_k - X_j . dX_k/dt)
antisymmetric, V the fluid Dirichlet form, B the convection form linear in the
unknown with a prescribed transport field, Q the shell transport block, and
f the boundary pressure load.  Over the moving domain, with dtX_k the
Eulerian time derivative of X_k and dt_psi the domain velocity, let
D_kl = int dtX_k . X_l, E_kl = int (grad X_k dt_psi) . X_l and
W_kl = int X_k . X_l dt_det / det.  Then dM_F/dt = D + D^T + E + E^T + W
and S = D^T - D, so the D halves cancel in

    G = D^T + (E + E^T)/2 + W/2,

the form Assembler.sample builds.  All moving-domain integrals are pulled
back to the reference cylinder; the time derivative of the fluid basis is
analytic (the extension is a fixed linear operator, so its time derivative
is the extension of the product data; Piola entries differentiate through
the ALE jets).  Matrices are sampled on a coarse uniform grid over one
period and trig-interpolated in time.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis1d import trig_weights
from .errors import BasisMismatch, DomainViolation, GridMismatch
from .extension_ops import push_piola, push_piola_dt
from .fluid_basis import disk_flux
from .fluidgrid import QuadJets
from .geometry import admissibility
from .shell_solid import shell_matrices


@dataclass
class GalerkinState:
    """Shared Galerkin coefficients (a, a_dot) at time t, or a trajectory of
    them: the rows of (N, n) arrays a and a_dot at the N times of t."""

    a: np.ndarray
    a_dot: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.a_dot = np.asarray(self.a_dot, dtype=float)
        if self.a.shape != self.a_dot.shape or self.a.ndim not in (1, 2):
            raise BasisMismatch("a and a_dot must be vectors or stacks of equal shape")
        if self.a.ndim == 2:
            self.t = np.asarray(self.t, dtype=float)
            if self.t.shape != self.a.shape[:1]:
                raise BasisMismatch("a trajectory needs one time per state")
        if not (np.isfinite(self.a).all() and np.isfinite(self.a_dot).all()):
            raise ValueError("non-finite Galerkin state")

    @property
    def n(self):
        return self.a.shape[-1]

    @classmethod
    def zero(cls, n):
        return cls(np.zeros(n), np.zeros(n))


class GlobalBasis:
    """The interleaved coupled/interior basis and its stacked component
    tables.

    The slices coupled (entries 2j) and interior (entries 2j + 1) name the
    interleaved layout of a coefficient vector or of a block's rows; the
    coupled entries carry the first half shell modes, whose coefficients
    are the rows of coupled_block."""

    def __init__(self, cyl, shell_basis, solid_basis, stokes_basis, ext_op, n):
        if n % 2:
            raise ValueError("global basis size n must be even")
        half = n // 2
        if half > shell_basis.n_modes:
            raise ValueError("not enough shell modes for the coupled entries")
        if half > stokes_basis.n_modes:
            raise ValueError("not enough interior fluid modes")
        self.cyl = cyl
        self.n = n
        self.shell_basis = shell_basis
        self.solid_basis = solid_basis
        self.stokes_basis = stokes_basis
        self.ext_op = ext_op
        self.coupled_block = np.eye(half, shell_basis.n_modes)
        self.coupled = slice(0, n, 2)
        self.interior = slice(1, n, 2)

    @property
    def half(self):
        return self.n // 2

    def shell_coefficients(self, a):
        """Map global coefficients (..., n) to shell-basis coefficients
        (..., n_modes): coupled entries carry the shell modes, interior
        entries carry none."""
        a = np.asarray(a)
        c = np.zeros(a.shape[:-1] + (self.shell_basis.n_modes,))
        c[..., : self.half] = a[..., self.coupled]
        return c

    def extension_fields(self, delta):
        """The coupled fluid entries F_delta(Y_j), j < half, as one stacked
        ExtensionField of half fields."""
        return self.ext_op.extend(delta, self.coupled_block)

    def solid_tables(self, r, theta, z):
        """Stacked solid-entry tables at solid nodes, in the cylindrical
        frame: val (n, 3, Q), grad (n, 3, 3, Q) and div (n, Q).  The coupled
        entries are the lifted shell modes and the interior entries the
        interior solid modes, one stacked evaluation each."""
        lifted = self.solid_basis.lifted_tables(self.half, r, theta, z)
        interior = self.solid_basis.interior_tables(self.half, r, theta, z)
        out = {}
        for key, v in lifted.items():
            out[key] = np.empty((self.n,) + v.shape[1:])
            out[key][self.coupled] = v
            out[key][self.interior] = interior[key]
        return out

    def fluid_tables(self, jets):
        """Stacked fluid-entry tables at the jets' quadrature nodes, for the
        jets' shell motion delta and its time derivative dt_delta (shell
        coefficient vectors), each weighted by the square root of the
        jets' quadrature weight jets.weight (positive: grid.w det), so that
        every integral of a sample is one product of two tables.

        Returns (val, grad, dtX) with shapes (n, 3, Q), (n, 3, 3, Q),
        (n, 3, Q); dtX is the Eulerian time derivative at fixed physical
        points.  The coupled entries and their time derivatives are one
        stacked extension field of 2 half fields, evaluated and weighted in
        one pass that writes them in place; the interior entries are one
        stacked Piola push with weighted factors A, dA and dt_A, also
        written in place.  val and dtX are views of one buffer that holds
        each entry's value and time derivative side by side, so their rows
        are strided.  At rest (delta = dt_delta = 0) the push is the
        identity and dtX is zero.
        """
        grid = jets.grid
        Q = grid.n_nodes
        sw = np.sqrt(jets.weight)
        # side by side, the extension pass writes its fields and their
        # twins through one (S, F) view
        vd = np.empty((self.n, 2, 3, Q))
        grad = np.empty((self.n, 3, 3, Q))
        coupled, interior = self.coupled, self.interior
        zval, zgrad = self.stokes_basis.tables_on(grid)
        zval, zgrad = zval[: self.half], zgrad[: self.half]
        fields = self.extension_fields(jets.delta).stack(
            self.ext_op.extend_dt(jets.dt_delta, self.coupled_block))
        fields.tables(jets.r_phys, jets.theta, jets.z, sw,
                      out=(vd[coupled].transpose(1, 0, 2, 3), grad[coupled][None]))
        push_piola(jets.A * sw, jets.dA * sw, jets.ginv, zval, zgrad,
                   out=(vd[interior, 0], grad[interior]))
        push_piola_dt(jets.dt_A * sw, jets.dt_psi, zval, grad[interior],
                      out=vd[interior, 1])
        return vd[:, 0], grad, vd[:, 1]


class AssembledSystem:
    """Time-sampled matrices of the Galerkin ODE over one period T.

    matrices_at(t) trig-interpolates the periodic samples.  The mass and
    damping samples are summed with their constant blocks once, here, so an
    interpolation takes one product per matrix.  The system holds matrices
    only: the pressures that drive it belong to the time grid it is stepped
    on (PeriodicProblem, solve_ivp).  A one-sample system is constant in t
    and has no period (T None).
    """

    def __init__(self, T, times, stacks, constants):
        self.T = T
        self.times = times
        self.stacks = stacks  # dict name -> (S, n, n) or (S, n)
        self.constants = constants  # dict name -> (n, n)
        c = constants
        self.n = len(c["K_sh"])
        self.K = c["K_sh"] + c["A_el"]
        self._M = stacks["M"] + c["M_shell"] + c["M_solid"]
        self._C = stacks["G"] + stacks["B"] + stacks["Q"] + stacks["V"] + c["A_visc"]

    @classmethod
    def from_sample(cls, sample, assembler):
        """A constant-in-t system from one Assembler.sample: matrices_at
        gives that sample at every t, and T is None."""
        stacks = {k: v[None] for k, v in sample.items()}
        return cls(None, np.zeros(1), stacks, assembler.constants)

    def _interpolated(self, t, *stacks):
        """The stacks (S, ...) trig-interpolated at t, a time or a 1-D array
        of times (a leading time axis), in one product per stack.  A
        one-sample system is constant in t: it gives its sample itself, with
        a time axis of length 1 for an array of times, which broadcasts
        against any number of times."""
        if self.times.size == 1:
            return [v if np.ndim(t) else v[0] for v in stacks]
        w = trig_weights(np.asarray(t, dtype=float), self.T, self.times.size)
        return [(w @ v.reshape(w.shape[-1], -1)).reshape(w.shape[:-1] + v.shape[1:])
                for v in stacks]

    def matrices_at(self, t):
        """Return dict(M, C, K, qin, qout) at t, a time or a 1-D array of
        times; an array gives every entry but K a leading time axis, of
        length len(t), or 1 for a one-sample system (constant in t).  M and
        the damping C = G + V + B + Q + A_visc are interpolated from their
        summed samples, and the stiffness K = K_sh + A_el is the one array
        built with the system."""
        M, C, qin, qout = self._interpolated(
            t, self._M, self._C, self.stacks["qin"], self.stacks["qout"])
        return {"M": M, "C": C, "K": self.K, "qin": qin, "qout": qout}

    def mass_at(self, times):
        """The mass matrices M(t) (len(times), n, n) at all the given times,
        interpolated in one product; matrices_at(times)["M"], so a
        one-sample system gives its one M (1, n, n)."""
        return self._interpolated(times, self._M)[0]

    def quadratic_forms(self, times, v):
        """The dissipation v_m' (V + A_visc)(t_m) v_m and the shell transport
        form v_m' Q(t_m) v_m for each time t_m and row v_m of v.  The forms
        of the sampled blocks are weighted with the interpolation weights,
        so no (n, n) block is interpolated."""
        w = trig_weights(np.asarray(times, dtype=float), self.T, self.times.size)

        def form(B):
            return np.einsum("mi,mi->m", v @ B, v)

        def sampled(name):
            return np.einsum("ms,sm->m", w, np.array([form(B) for B in self.stacks[name]]))

        return sampled("V") + form(self.constants["A_visc"]), sampled("Q")


def _weighted_gram(x, w):
    """The symmetrized Gram sum_q w_q x[k, ..., q] x[l, ..., q] (n, n) of a
    table x (n, ..., Q) with quadrature weights w (Q,), as one product."""
    n = len(x)
    G = (x * w).reshape(n, -1) @ x.reshape(n, -1).T
    return 0.5 * (G + G.T)


class Assembler:
    """Shared immutable ingredients for assembling the system at any sample.

    Building one of these precomputes the constant shell/solid blocks; the
    disk-flux tables are built with the first sample.
    """

    def __init__(self, cyl, basis, params, grid, solid_grid):
        self.cyl = cyl
        self.basis = basis
        self.params = params
        self.grid = grid
        self.solid_grid = solid_grid
        self._shell_quad = basis.shell_basis.quadrature()
        th, zz, _ = self._shell_quad
        self._shell_modes = np.ascontiguousarray(basis.shell_basis.eval_modes(th, zz, 2)[:, 0])
        self.constants = self._constant_blocks()

    @cached_property
    def _disk_flux(self):
        """Per disk z0: the interior entries of the flux vector, and the
        table (1 + n_shell, half) that gives the coupled entries when
        contracted with the extension weights (R, c) of delta = sum c_k Y_k.

        Interior modes are identical on the disks for every admissible motion
        (the ALE map is the identity through first derivatives at the clamped
        ends), so their fluxes are constant.
        """
        basis, grid = self.basis, self.grid
        return {
            z0: (disk_flux(basis.stokes_basis, grid, z0)[: basis.half],
                 basis.ext_op.disk_flux_table(grid, z0)[:, : basis.half])
            for z0 in (0.0, self.cyl.L)
        }

    def _constant_blocks(self):
        basis = self.basis
        n = basis.n
        p = self.params
        # shell blocks live on the coupled entries only
        Msh_half, Ksh_half = shell_matrices(basis.shell_basis, range(basis.half))
        M_shell = np.zeros((n, n))
        K_sh = np.zeros((n, n))
        c = basis.coupled
        M_shell[c, c] = Msh_half
        K_sh[c, c] = Ksh_half

        g = self.solid_grid
        t = basis.solid_tables(g.r, g.theta, g.z)
        sval, sgrad, sdiv = t["val"], t["grad"], t["div"]
        M_solid = p.rho_s2 * _weighted_gram(sval, g.w)
        grad_gram = _weighted_gram(sgrad, g.w)
        div_gram = _weighted_gram(sdiv, g.w)
        A_el = p.lambda1 * grad_gram + p.lambda2 * div_gram
        A_visc = p.lambda1 * p.delta_visc * grad_gram
        return {
            "M_shell": M_shell,
            "K_sh": K_sh,
            "M_solid": M_solid,
            "A_el": A_el,
            "A_visc": A_visc,
        }

    def sample(self, delta=None, dt_delta=None, v_coeff=None):
        """Assemble the motion-dependent blocks for one time sample.

        delta / dt_delta are shell coefficient vectors (n_modes,) over
        ShellBasis and v_coeff is the transport-field coefficient vector
        over the basis; None stands for zero, so
        sample() is the rest cylinder, taken through the same moving-domain
        path at delta = dt_delta = 0 and v = 0.
        Returns dict(M, G, V, B, Q, qin, qout) — the fluid blocks only;
        constant blocks are added by AssembledSystem.

        The tables of GlobalBasis.fluid_tables come weighted by the root of
        the quadrature weight, so every integral is one product of two of
        them: M and V the Grams of the values and of the gradients, D the
        time derivatives against the values, and E and W from one product
        of the values with the transport of each entry along the node
        velocity and with the values times the weight's rate
        dt_det / det.
        """
        basis = self.basis
        n = basis.n
        shell = basis.shell_basis
        zero = np.zeros(shell.n_modes)
        delta = zero if delta is None else delta
        dt_delta = zero if dt_delta is None else dt_delta
        v_coeff = np.zeros(n) if v_coeff is None else v_coeff
        jets = QuadJets(self.grid, shell, delta, dt_delta)
        val, grad, dtX = basis.fluid_tables(jets)
        vf, gf = val.reshape(n, -1), grad.reshape(n, -1)
        M, V = vf @ vf.T, gf @ gf.T
        # E and W from one product with the values: of the transport
        # grad X_k dt_psi of each entry along the domain motion, and of the
        # values times the rate dt_det / det of the weight
        rows = np.empty((2,) + val.shape)
        np.einsum("kijq,jq->kiq", grad, jets.dt_psi, out=rows[0])
        np.multiply(val, jets.dt_det / jets.det, out=rows[1])
        E, W = (rows.reshape(2 * n, -1) @ vf.T).reshape(2, n, n)
        D = dtX.reshape(n, -1) @ vf.T
        G = D.T + 0.5 * (E + E.T) + 0.25 * (W + W.T)
        vval = (v_coeff @ vf).reshape(val.shape[1:]) / np.sqrt(jets.weight)
        conv = np.einsum("jq,kijq->kiq", vval, grad)
        cw = conv.reshape(n, -1) @ vf.T
        # B[k, j] = b(v, X_j, X_k) in the symmetrized (skew) form
        B = 0.5 * (cw.T - cw)
        wsh = self._shell_quad[2]
        dval, dlt = np.stack([dt_delta, delta]) @ self._shell_modes
        tab0 = self._shell_modes[: basis.half]
        Qh = -0.5 * ((tab0 * (wsh * dval * (self.cyl.R + dlt))) @ tab0.T)
        Q = np.zeros((n, n))
        Q[basis.coupled, basis.coupled] = Qh
        weights = np.concatenate([[self.cyl.R], delta])
        qin = self._flux_vector(0.0, weights)
        qout = self._flux_vector(self.cyl.L, weights)
        return {"M": M, "G": G, "V": V, "B": B, "Q": Q, "qin": qin, "qout": qout}

    def _flux_vector(self, z0, weights):
        basis = self.basis
        interior, coupled = self._disk_flux[z0]
        q = np.zeros(basis.n)
        q[basis.interior] = interior
        q[basis.coupled] = weights @ coupled
        return q


def assemble(assembler, T, shell, transport=None, n_samples=None):
    """Assemble the linearized periodic system for a given geometry path.

    shell (n_t, n_modes) holds the shell coefficients of the prescribed
    motion and transport (n_t, n) the Galerkin coefficients of the transport
    field (None for no transport), both sampled on the open uniform period
    grid j T / n_t.  Matrices are sampled on a coarse divisor grid of
    n_samples times and trig-interpolated; the shell at every coarse time is
    checked in one batch before any sample is built, and the first
    inadmissible one raises DomainViolation.  The rest cylinder is the
    one-sample system AssembledSystem.from_sample(assembler.sample(),
    assembler), constant in t.
    """
    basis = assembler.basis
    shell = np.asarray(shell, dtype=float)
    if shell.ndim != 2:
        raise GridMismatch("path samples must be (n_t, n_coeff)")
    n_t = shell.shape[0]
    if transport is not None and len(transport) != n_t:
        raise GridMismatch("shell and transport paths must share one time grid")
    if n_samples is None:
        n_samples = min(64, n_t)
    if n_t % n_samples:
        raise GridMismatch(
            f"matrix sample count {n_samples} must divide the grid size {n_t}")
    idx = np.arange(n_samples) * (n_t // n_samples)
    times = idx * (T / n_t)
    bad = admissibility(assembler.cyl, basis.shell_basis, shell[idx])[1]
    if bad is not None:
        raise DomainViolation("shell path breaks domain injectivity",
                              time=float(times[bad]))
    # the spectral (circular) time derivative of the shell path
    F = np.fft.rfft(shell, axis=0)
    F *= (2j * np.pi / T) * np.arange(F.shape[0])[:, None]
    dt_shell = np.fft.irfft(F, n_t, axis=0)
    stacks = None
    for s, i in enumerate(idx):
        sample = assembler.sample(
            delta=shell[i], dt_delta=dt_shell[i],
            v_coeff=None if transport is None else transport[i])
        if stacks is None:
            stacks = {k: np.empty((n_samples,) + v.shape) for k, v in sample.items()}
        for k, v in sample.items():
            stacks[k][s] = v
    return AssembledSystem(float(T), times, stacks, assembler.constants)
