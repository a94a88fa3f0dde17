"""Interior divergence-free Stokes eigenbasis on the reference cylinder, the
boundary pressure functional, and the skew-symmetrized convection form.

The interior fluid space is { v in H^1 : div v = 0, v = 0 on the lateral wall,
v x e_z = 0 on the inlet/outlet disks } — tangential components die on the
disks while the normal (axial) component is free, so pressure differences
between the disks can do work on these modes.  Per azimuthal wavenumber the
space is discretized by tensor polynomials with built-in boundary factors; the
pointwise divergence (a polynomial) is collocated on an unisolvent Gauss grid
and the generalized eigenproblem

    int grad u : grad v = lambda int u . v

is solved inside the divergence-free nullspace.  Eigenvectors come out
mass-orthonormal, ascending, with a deterministic sign convention.
"""

import numpy as np
from scipy.linalg import eigh

from .basis1d import LegFamily, gauss
from .errors import EigenFailure, GridMismatch
from .fluidgrid import azimuthal_factors, frame_tables, unit_frame_tables

NR_STOKES = 8  # radial polynomial count of the Stokes sector spaces
NZ_STOKES = 8  # axial polynomial count of the Stokes sector spaces
# closed-grid samples of a forcing given by callables: 256 per period, so a
# sinusoid of integer frequency below 128 in magnitude is interpolated exactly
FORCING_SAMPLES = 257


class _SectorSpace:
    """Tensor-product component profiles of one azimuthal sector.

    Components (r, t, z): radial factors r(R - r) for the in-plane components
    always, and for the axial component r(R - r) when m >= 1 but only (R - r)
    when m = 0 (the axial velocity may be nonzero on the axis); z factors
    z(L - z) for the in-plane components (clamped on the disks) and free
    polynomials for the axial one.  n_r and n_z, the radial and axial
    polynomial counts, also size the grids of the space's forms.
    """

    def __init__(self, cyl, m, n_r, n_z):
        R, L = cyl.R, cyl.L
        rr_fac = [R * R / 4.0, 0.0, -R * R / 4.0]  # r(R-r) in the mapped variable
        zz_fac = [L * L / 4.0, 0.0, -L * L / 4.0]  # z(L-z)
        rz_fac = rr_fac if m >= 1 else [R / 2.0, -R / 2.0]  # (R-r) for axial m=0
        self.m, self.n_r, self.n_z = m, n_r, n_z
        self.fam = {
            "r": (LegFamily.modal(n_r, (0.0, R), rr_fac), LegFamily.modal(n_z, (0.0, L), zz_fac)),
            "t": (LegFamily.modal(n_r, (0.0, R), rr_fac), LegFamily.modal(n_z, (0.0, L), zz_fac)),
            "z": (LegFamily.modal(n_r, (0.0, R), rz_fac), LegFamily.modal(n_z, (0.0, L))),
        }
        self.block = {c: fr.nfun * fz.nfun for c, (fr, fz) in self.fam.items()}
        self.comps = ["r", "t", "z"]
        self.offsets = {}
        off = 0
        for c in self.comps:
            self.offsets[c] = off
            off += self.block[c]
        self.ndof = off

    def profile_tables(self, dofs, r, z):
        """The profiles f of the r, theta and z components of the fields
        with dofs (..., ndof) and their r and z partials f_r, f_z, stacked
        as (3, ..., 3, Q): a field of parity "cos" is
        (f_r cos, f_t sin, f_z cos)(m theta) (fluidgrid.azimuthal_factors)."""
        out = np.empty((3,) + dofs.shape[:-1] + (3, len(r)))
        for i, c in enumerate(self.comps):
            fr, fz = self.fam[c]
            nr, nz = fr.nfun, fz.nfun
            sl = slice(self.offsets[c], self.offsets[c] + self.block[c])
            cm = dofs[..., sl].reshape(dofs.shape[:-1] + (nr, nz))
            Tr = fr.eval_table(r, 1)
            Tz = fz.eval_table(z, 1)
            C0, C1 = cm @ Tz[:, 0], cm @ Tz[:, 1]  # (..., nr, Q)
            out[0, ..., i, :] = np.sum(C0 * Tr[:, 0], axis=-2)
            out[1, ..., i, :] = np.sum(C0 * Tr[:, 1], axis=-2)
            out[2, ..., i, :] = np.sum(C1 * Tr[:, 0], axis=-2)
        return out


def _divergence_constraint(space, cyl):
    """Collocation matrix of r * div over the sector space (a polynomial):
    per component, r times the trig-stripped divergence of its unit fields
    (fluidgrid.unit_frame_tables) times the axial factor zeta, or zeta' for
    the axial component."""
    rc, _ = gauss(space.n_r + 4, 0.0, cyl.R)
    zc, _ = gauss(space.n_z + 4, 0.0, cyl.L)
    rows = []
    for i, c in enumerate(space.comps):
        fr, fz = space.fam[c]
        Tr = fr.eval_table(rc, 1)
        div = unit_frame_tables(space.m, i, Tr[:, 0], Tr[:, 1], rc)[1]
        ax = fz.eval_table(zc, 1)[:, int(i == 2)]
        rows.append(np.einsum("ix,jy->ijxy", rc * div, ax).reshape(space.block[c], -1))
    return np.concatenate(rows, axis=0).T


def _sector_forms(space, cyl):
    """Dirichlet and mass Gram matrices over the sector (2D quadrature with
    the exact azimuthal weight: 2 pi for m = 0, pi otherwise), by sum
    factorization.  With its trig factor stripped, every frame-gradient
    entry of a unit dof is a radial profile times its axial factor zeta, or
    zeta' in column 2 (fluidgrid.unit_frame_tables), and the entry's trig
    factor is the same for every dof.  So the block of two components is a
    sum of Kronecker products of a radial Gram int rho rho' r dr and an
    axial Gram int zeta zeta' dz, one per entry on which both have a
    nonzero profile, and the mass is one product per component."""
    m = space.m
    rq, wr = gauss(space.n_r + 6, 0.0, cyl.R)
    zq, wz = gauss(space.n_z + 6, 0.0, cyl.L)
    wr = (2.0 * np.pi if m == 0 else np.pi) * wr * rq  # r dr dtheta

    def gram(a, b, w):
        return (a * w) @ b.T

    A = np.zeros((space.ndof, space.ndof))
    M = np.zeros_like(A)
    # per component: its slice, its stripped gradients, the mask of their
    # nonzero entries and the axial factor of each gradient column
    comps = []
    for i, c in enumerate(space.comps):
        fr, fz = space.fam[c]
        Tr, Tz = fr.eval_table(rq, 1), fz.eval_table(zq, 1)
        G = unit_frame_tables(m, i, Tr[:, 0], Tr[:, 1], rq)[0]
        sl = slice(space.offsets[c], space.offsets[c] + space.block[c])
        M[sl, sl] = np.kron(gram(Tr[:, 0], Tr[:, 0], wr), gram(Tz[:, 0], Tz[:, 0], wz))
        comps.append((sl, G, np.any(G != 0.0, axis=(0, 3)), (Tz[:, 0], Tz[:, 0], Tz[:, 1])))
    for n, (sc, Gc, used_c, zeta_c) in enumerate(comps):
        for sd, Gd, used_d, zeta_d in comps[n:]:
            for i, j in zip(*np.nonzero(used_c & used_d)):
                A[sc, sd] += np.kron(gram(Gc[:, i, j], Gd[:, i, j], wr),
                                     gram(zeta_c[j], zeta_d[j], wz))
    return np.triu(A) + np.triu(A, 1).T, M


class StokesBasis:
    """The n lowest interior Stokes modes, mass-orthonormal.

    The modes come in groups of one sector space and one azimuthal parity:
    groups holds (space, parity, rows, dofs), mode rows[i] being the field
    of dofs[i] (len(rows), space.ndof) over the space.
    """

    def __init__(self, groups):
        self.groups = groups
        self.n_modes = sum(len(rows) for _, _, rows, _ in groups)
        self._grid_cache = {}

    def tables(self, r, theta, z):
        """Frame values (n, 3, Q) and frame gradients (n, 3, 3, Q) of all
        modes at reference-cylinder points, one stacked evaluation per
        group."""
        r, theta, z = (np.asarray(x, dtype=float).ravel() for x in (r, theta, z))
        val = np.empty((self.n_modes, 3, r.size))
        G = np.empty((self.n_modes, 3, 3, r.size))
        for space, parity, rows, dofs in self.groups:
            f, f_r, f_z = space.profile_tables(dofs, r, z)
            T, dT = azimuthal_factors(space.m, parity, theta)
            val[rows] = f * T
            du = np.stack([f_r * T, f * dT, f_z * T], axis=-2)
            G[rows] = frame_tables(val[rows], du, r)[0]
        return {"val": val, "grad": G}

    def tables_on(self, grid):
        """Stacked (val, grad) arrays of all modes at the grid's reference
        nodes, cached per grid.  The cache keys on the grid object itself
        and so keeps it alive: a key by id() would hand a new grid that
        reuses a freed grid's address the old grid's tables."""
        if grid not in self._grid_cache:
            t = self.tables(grid.r, grid.theta, grid.z)
            self._grid_cache[grid] = (t["val"], t["grad"])
        return self._grid_cache[grid]


def build_stokes_basis(cyl, n_interior, max_wavenumber=0):
    """Solve the constrained Stokes eigenproblem and return the lowest modes.

    Deterministic: ascending eigenvalue (ties broken by wavenumber, then
    cosine before sine), sign fixed by the first significant profile
    coefficient being positive.
    """
    if n_interior < 1:
        raise ValueError("n_interior must be at least 1")
    candidates = []
    for m in range(max_wavenumber + 1):
        space = _SectorSpace(cyl, m, NR_STOKES, NZ_STOKES)
        C = _divergence_constraint(space, cyl)
        _, s, Vt = np.linalg.svd(C, full_matrices=True)
        rank = int(np.sum(s > 1e-10 * s[0]))
        N = Vt[rank:].T
        if N.shape[1] == 0:
            continue
        A, M = _sector_forms(space, cyl)
        try:
            lam, vecs = eigh(N.T @ A @ N, N.T @ M @ N)
        except np.linalg.LinAlgError as exc:
            raise EigenFailure(f"sector m={m} eigensolve failed: {exc}") from exc
        for i in range(lam.size):
            dofs = N @ vecs[:, i]
            big = np.flatnonzero(np.abs(dofs) > 1e-8 * np.max(np.abs(dofs)))
            if dofs[big[0]] < 0:
                dofs = -dofs
            parities = ["axi"] if m == 0 else ["cos", "sin"]
            for p_i, parity in enumerate(parities):
                candidates.append((lam[i], m, p_i, space, parity, dofs))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    if len(candidates) < n_interior:
        raise EigenFailure(
            f"only {len(candidates)} interior modes available, {n_interior} requested"
        )
    if candidates and candidates[0][0] <= 0:
        raise EigenFailure("nonpositive Stokes eigenvalue: discretization broken")
    chosen = candidates[:n_interior]
    groups = []
    for m, parity in dict.fromkeys((c[1], c[4]) for c in chosen):
        rows = [k for k, c in enumerate(chosen) if c[1] == m and c[4] == parity]
        groups.append((chosen[rows[0]][3], parity, np.array(rows),
                       np.array([chosen[k][5] for k in rows])))
    return StokesBasis(groups)


# ---------------------------------------------------------------------------
# trilinear convection form


def trilinear_b(tu, tv, tw, weight):
    """Skew-symmetrized convection form

        b(u, v, w) = 1/2 int (u . grad) v . w  -  1/2 int (u . grad) w . v

    from the tables of u, v, w: dicts with "val" (3, Q) and "grad" (3, 3, Q)
    at quadrature nodes of weights (Q,); on a moving domain, physical-frame
    tables at the pulled-back nodes with the Jacobian-weighted weights.  The
    symmetrization happens pointwise before quadrature summation, so
    b(u, v, v) = 0 and b(u, v, w) = -b(u, w, v) hold exactly.
    """
    conv_v = np.einsum("jq,ijq->iq", tu["val"], tv["grad"])
    conv_w = np.einsum("jq,ijq->iq", tu["val"], tw["grad"])
    integrand = 0.5 * (
        np.einsum("iq,iq->q", conv_v, tw["val"])
        - np.einsum("iq,iq->q", conv_w, tv["val"])
    )
    return float(integrand @ weight)


# ---------------------------------------------------------------------------
# boundary pressure forcing


class BoundaryForcing:
    """Time-periodic inlet/outlet dynamic pressures over one period [0, T].

    The samples p_in and p_out live on the uniform closed grid
    t_j = j T / (n - 1), with the first and last samples equal; the pressure
    at any time is the trigonometric interpolant of the (n - 1)-point open
    grid (basis1d.trig_weights).  A time grid is a whole number N of steps
    over the period, and the pressures at its N step midpoints are one
    inverse FFT of length N (midpoint_values).
    """

    def __init__(self, T, p_in, p_out):
        p_in = np.asarray(p_in, dtype=float)
        p_out = np.asarray(p_out, dtype=float)
        if not 0.0 < T < np.inf:
            raise GridMismatch(f"the forcing period must be positive and finite, got {T}")
        if p_in.ndim != 1 or p_out.shape != p_in.shape:
            raise GridMismatch("forcing samples must share one 1D time grid")
        if p_in.size < 3:
            raise GridMismatch(
                f"forcing needs at least 3 samples over the period, got {p_in.size}")
        if abs(p_in[0] - p_in[-1]) > 1e-12 * (1 + np.max(np.abs(p_in))) or abs(
            p_out[0] - p_out[-1]
        ) > 1e-12 * (1 + np.max(np.abs(p_out))):
            raise GridMismatch("forcing signals must close the period (first = last)")
        self.T = float(T)
        self.p_in = p_in
        self.p_out = p_out
        # the interpolant of the S open-grid samples at time s is
        # Re sum_k c_k exp(2 pi i k s / T), with c_k the rfft coefficients
        # times 2 / S, but 1 / S for the mean and an even S's Nyquist mode
        S = p_in.size - 1
        c = np.fft.rfft(np.stack([p_in[:-1], p_out[:-1]], axis=-1), axis=0) * (2.0 / S)
        c[0] /= 2.0
        if S % 2 == 0:
            c[-1] /= 2.0
        self._coef = c

    @classmethod
    def from_callables(cls, f_in, f_out, T):
        t = np.linspace(0.0, T, FORCING_SAMPLES)
        return cls(T, np.array([f_in(s) for s in t]), np.array([f_out(s) for s in t]))

    def midpoint_values(self, n):
        """(P_in, P_out) at the n midpoints (m + 1/2) T / n, m < n, from one
        inverse FFT of length n.  At those times the series term of
        coefficient k is that of frequency k mod n with the half step's phase
        e^{i pi k / n}, so the shifted coefficients are folded mod n (a grid
        of fewer points than coefficients aliases them) and transformed."""
        c = self._coef
        k = np.arange(c.shape[0])
        shifted = c * np.exp(1j * np.pi * k / n)[:, None]
        shifted = np.concatenate([shifted, np.zeros((-k.size % n, 2))])
        vals = np.fft.ifft(shifted.reshape(-1, n, 2).sum(axis=0), axis=0).real * n
        return vals[:, 0], vals[:, 1]

    def l2_norm(self):
        """L2(0, T) norm of the pressure pair (trapezoid on the closed grid)."""
        t = np.linspace(0.0, self.T, self.p_in.size)
        return float(np.sqrt(np.trapezoid(self.p_in**2 + self.p_out**2, t)))


def disk_flux(q, grid, z0):
    """Net axial flux int q_z dA of a reference fluid field through a disk;
    an array of F fluxes for a stack of F fields, such as a StokesBasis.
    Each flux is one dot product of its field's axial values with the disk
    weights (a (1, Q) @ (Q, 1) product per field), so a field's flux does
    not depend on the stack it is evaluated in."""
    r, th, w, z = grid.disk(z0)
    qz = q.tables(r, th, z)["val"][..., 2, None, :]
    return (qz @ w[:, None])[..., 0, 0]
