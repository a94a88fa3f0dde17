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
from .extension_ops import azimuthal_mode_tables
from .fluidgrid import cyl_tensor_to_cart, cyl_vec_to_cart

NR_STOKES = 8  # radial polynomial count of the Stokes sector spaces
NZ_STOKES = 8  # axial polynomial count of the Stokes sector spaces


class _SectorSpace:
    """Tensor-product component profiles of one azimuthal sector.

    Components (r, t, z): radial factors r(R - r) for the in-plane components
    always, and for the axial component r(R - r) when m >= 1 but only (R - r)
    when m = 0 (the axial velocity may be nonzero on the axis); z factors
    z(L - z) for the in-plane components (clamped on the disks) and free
    polynomials for the axial one.
    """

    def __init__(self, cyl, m, n_r, n_z):
        R, L = cyl.R, cyl.L
        rr_fac = [R * R / 4.0, 0.0, -R * R / 4.0]  # r(R-r) in the mapped variable
        zz_fac = [L * L / 4.0, 0.0, -L * L / 4.0]  # z(L-z)
        rz_fac = rr_fac if m >= 1 else [R / 2.0, -R / 2.0]  # (R-r) for axial m=0
        self.m = m
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
        """Component profiles and first partials for azimuthal_mode_tables
        of the fields with dofs (..., ndof), each of shape (..., Q)."""
        out = {}
        for c in self.comps:
            fr, fz = self.fam[c]
            nr, nz = fr.nfun, fz.nfun
            sl = slice(self.offsets[c], self.offsets[c] + self.block[c])
            cm = dofs[..., sl].reshape(dofs.shape[:-1] + (nr, nz))
            Tr = fr.eval_table(r, 1)
            Tz = fz.eval_table(z, 1)
            key = {"r": "fr", "t": "ft", "z": "fz"}[c]
            C0, C1 = cm @ Tz[:, 0], cm @ Tz[:, 1]  # (..., nr, Q)
            out[key] = np.sum(C0 * Tr[:, 0], axis=-2)
            out[key + "_r"] = np.sum(C0 * Tr[:, 1], axis=-2)
            out[key + "_z"] = np.sum(C1 * Tr[:, 0], axis=-2)
        return out


def _divergence_constraint(space, cyl, n_r, n_z):
    """Collocation matrix of r * div over the sector space (a polynomial)."""
    m = space.m
    rc, _ = gauss(n_r + 4, 0.0, cyl.R)
    zc, _ = gauss(n_z + 4, 0.0, cyl.L)
    rows = {}
    for c in space.comps:
        fr, fz = space.fam[c]
        Tr = fr.eval_table(rc, 1)
        Tz = fz.eval_table(zc, 1)
        if c == "r":
            # r d_r f + f  (from (1/r) d_r (r f) times r)
            rad, ax = rc[None, :] * Tr[:, 1] + Tr[:, 0], Tz[:, 0]
        elif c == "t":
            rad, ax = float(m) * Tr[:, 0], Tz[:, 0]
        else:
            rad, ax = rc[None, :] * Tr[:, 0], Tz[:, 1]
        rows[c] = np.einsum("ix,jy->ijxy", rad, ax).reshape(space.block[c], -1)
    return np.concatenate([rows[c] for c in space.comps], axis=0).T


def _sector_forms(space, cyl, n_r, n_z):
    """Dirichlet and mass Gram matrices over the sector (2D quadrature with
    the exact azimuthal weight: 2 pi for m = 0, pi otherwise)."""
    m = space.m
    rq, wr = gauss(n_r + 6, 0.0, cyl.R)
    zq, wz = gauss(n_z + 6, 0.0, cyl.L)
    RR, ZZ = np.meshgrid(rq, zq, indexing="ij")
    WW = np.outer(wr * rq, wz).ravel()
    rr, zz = RR.ravel(), ZZ.ravel()
    weight = (2.0 * np.pi if m == 0 else np.pi) * WW
    theta0 = np.zeros(rr.size)
    # all unit dofs at once: one field per row of the identity
    prof = space.profile_tables(np.eye(space.ndof), rr, zz)
    if m == 0:
        vals, grads = azimuthal_mode_tables(0, "axi", prof, rr, theta0)
    else:
        # strip the trig factors: evaluate at theta = 0 and recover the
        # sine-carrying entries from the twin at theta = pi/(2m)
        v0, g0 = azimuthal_mode_tables(m, "cos", prof, rr, theta0)
        v1, g1 = azimuthal_mode_tables(m, "cos", prof, rr, theta0 + np.pi / (2.0 * m))
        vals, grads = v0 + v1, g0 + g1
    n = space.ndof
    A = (grads * weight).reshape(n, -1) @ grads.reshape(n, -1).T
    M = (vals * weight).reshape(n, -1) @ vals.reshape(n, -1).T
    return A, M


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
        """Cartesian values (n, 3, Q), gradients (n, 3, 3, Q) and pointwise
        divergences (n, Q) of all modes at reference-cylinder points, one
        stacked evaluation per group."""
        r, theta, z = (np.asarray(x, dtype=float).ravel() for x in (r, theta, z))
        val = np.empty((self.n_modes, 3, r.size))
        G = np.empty((self.n_modes, 3, 3, r.size))
        for space, parity, rows, dofs in self.groups:
            prof = space.profile_tables(dofs, r, z)
            val[rows], G[rows] = azimuthal_mode_tables(space.m, parity, prof, r, theta)
        return {
            "val": cyl_vec_to_cart(val[:, 0], val[:, 1], val[:, 2], theta),
            "grad": cyl_tensor_to_cart(G, theta),
            "div": np.einsum("kiiq->kq", G),
        }

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
    n_r, n_z = NR_STOKES, NZ_STOKES
    candidates = []
    for m in range(max_wavenumber + 1):
        space = _SectorSpace(cyl, m, n_r, n_z)
        C = _divergence_constraint(space, cyl, n_r, n_z)
        _, s, Vt = np.linalg.svd(C, full_matrices=True)
        rank = int(np.sum(s > 1e-10 * s[0]))
        N = Vt[rank:].T
        if N.shape[1] == 0:
            continue
        A, M = _sector_forms(space, cyl, n_r, n_z)
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

    Samples live on the uniform closed grid t_j = j T / (n - 1) with the first
    and last samples equal; values at arbitrary times come from trigonometric
    interpolation of the (n - 1)-point open grid, evaluated as a cos/sin
    series over the samples' discrete Fourier coefficients.  At the N
    midpoints of a uniform grid of N steps over the period the same series
    is one inverse FFT of length N (midpoint_values).
    """

    def __init__(self, t, p_in, p_out):
        t = np.asarray(t, dtype=float)
        p_in = np.asarray(p_in, dtype=float)
        p_out = np.asarray(p_out, dtype=float)
        if t.ndim != 1 or p_in.shape != t.shape or p_out.shape != t.shape:
            raise GridMismatch("forcing samples must share one 1D time grid")
        if t.size < 3:
            raise GridMismatch(
                f"forcing needs at least 3 samples over the period, got {t.size}")
        dt = np.diff(t)
        if not np.allclose(dt, dt[0], rtol=1e-10, atol=1e-12 * t[-1]):
            raise GridMismatch("forcing time grid must be uniform")
        if abs(p_in[0] - p_in[-1]) > 1e-12 * (1 + np.max(np.abs(p_in))) or abs(
            p_out[0] - p_out[-1]
        ) > 1e-12 * (1 + np.max(np.abs(p_out))):
            raise GridMismatch("forcing signals must close the period (first = last)")
        self.T = float(t[-1] - t[0])
        self.t = t
        self.p_in = p_in
        self.p_out = p_out
        # the interpolant of the S open-grid samples at time s is
        # Re sum_k c_k exp(2 pi i k s / T), with c_k the rfft coefficients
        # times 2 / S, but 1 / S for the mean and an even S's Nyquist mode
        S = t.size - 1
        c = np.fft.rfft(np.stack([p_in[:-1], p_out[:-1]], axis=-1), axis=0) * (2.0 / S)
        c[0] /= 2.0
        if S % 2 == 0:
            c[-1] /= 2.0
        self._coef = c

    @classmethod
    def from_callables(cls, f_in, f_out, T, n=257):
        t = np.linspace(0.0, T, n)
        return cls(t, np.array([f_in(s) for s in t]), np.array([f_out(s) for s in t]))

    def values(self, time):
        """(P_in, P_out) at arbitrary times by trigonometric interpolation."""
        c = self._coef
        phase = np.multiply.outer(np.atleast_1d(time) * (2.0 * np.pi / self.T),
                                  np.arange(c.shape[0]))
        vals = np.cos(phase) @ c.real - np.sin(phase) @ c.imag
        return vals[..., 0], vals[..., 1]

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
        return float(
            np.sqrt(np.trapezoid(self.p_in**2 + self.p_out**2, self.t))
        )

    def is_zero(self):
        return np.max(np.abs(self.p_in)) == 0.0 and np.max(np.abs(self.p_out)) == 0.0


def disk_flux(q, grid, z0):
    """Net axial flux int q_z dA of a reference fluid field through a disk;
    an array of F fluxes for a stack of F fields, such as a StokesBasis.
    Each flux is one dot product of its field's axial values with the disk
    weights (a (1, Q) @ (Q, 1) product per field), so a field's flux does
    not depend on the stack it is evaluated in."""
    r, th, w, z = grid.disk(z0)
    qz = q.tables(r, th, z)["val"][..., 2, None, :]
    return (qz @ w[:, None])[..., 0, 0]
