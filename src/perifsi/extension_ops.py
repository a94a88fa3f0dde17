"""Divergence-free extension of shell data into the fluid cylinder, the Piola
transform, and periodic mollification.

Given boundary data h(theta, z) = (R + delta) xi on the lateral shell, the
extension is assembled from three pieces in physical cylindrical coordinates:

  * outer region r >= R/2:  u = (h / r) e_r, which is exactly divergence free
    and restricts to xi e_r on the moving interface r = R + delta;
  * inner region r < R/2: a tapered radial part u_r = (4 r / R^2) h plus an
    axial plug u_z = Phi a(r) g(z) carrying the volume flux
    Phi = int_omega h dtheta dz through the inlet disk (a is a smooth bump
    supported in [0, R/4] with 2 pi int a r dr = 1, g drops smoothly from 1 at
    z = 0 to 0 at z = L);
  * minus a corrector w supported in the inner cylinder C = {r < R/2} with
    w = 0 on the boundary of C and div w = 8 h / R^2 + Phi a(r) g'(z), which is
    the residual divergence of the first two pieces.  The compatibility
    integral of that source over C vanishes identically by the flux
    normalization, so the corrector exists.

The corrector is collocated per azimuthal wavenumber as a rank-deficient
least-squares system C x = g.  Of its least-squares solutions it takes the
one of least H1-type energy x^T (A + 1e-12 I) x: with A + 1e-12 I = L L^T
that is the minimum-norm least-squares solution of the whitened system
C L^-T, whose singular values drop by about nine decades at the rank, so
the rank is well defined.  The solve is linear in the data, so the whole
extension is a fixed linear operator of h.  For xi = sum_i x_i Y_i and
delta = sum_k c_k Y_k, h = sum_i x_i (R Y_i + sum_k c_k Y_k Y_i): one table
per model over the unit data Y_i and Y_k Y_i holds every flux and corrector
dof, and an extension is that table contracted with the weights (R, c) and
x ((0, c') for its time derivative).
"""

from functools import cached_property

import numpy as np
from scipy.linalg import lstsq, solve_triangular

from .basis1d import LegFamily, PiecewiseLegFamily, composite_gauss, gauss
from .errors import DomainViolation
from .fluidgrid import cyl_tensor_to_cart, cyl_vec_to_cart
from .geometry import ShellField, check_injectivity

R_DEGREE = 10  # polynomial degree of the corrector's radial elements
NZ_MODES = 34  # axial modes of the corrector


# ---------------------------------------------------------------------------
# smooth profiles


def plug_radial_profile(cyl, r, nderiv=0):
    """Bump a(r) = (64 / (pi R^2)) (1 - (4r/R)^2)^3 on [0, R/4], zero beyond.

    Normalized so 2 pi int_0^{R/4} a(r) r dr = 1.  Returns [a] or [a, a'].
    """
    r = np.asarray(r, dtype=float)
    R = cyl.R
    u = 4.0 * r / R
    inside = u < 1.0
    amp = 64.0 / (np.pi * R * R)
    base = np.where(inside, 1.0 - u * u, 0.0)
    a = amp * base**3
    if nderiv == 0:
        return [a]
    da = amp * 3.0 * base**2 * (-2.0 * u) * (4.0 / R)
    return [a, np.where(inside, da, 0.0)]


def plug_axial_profile(cyl, z, nderiv=0):
    """Smooth ramp g(z) from g(0) = 1 to g(L) = 0 with flat ends (quintic)."""
    z = np.asarray(z, dtype=float)
    u = np.clip(z / cyl.L, 0.0, 1.0)
    g = 1.0 - (6.0 * u**5 - 15.0 * u**4 + 10.0 * u**3)
    if nderiv == 0:
        return [g]
    dg = -30.0 * u**2 * (1.0 - u) ** 2 / cyl.L
    return [g, dg]


# ---------------------------------------------------------------------------
# per-wavenumber corrector solve on C = [0, R/2] x [0, L]


def azimuthal_mode_values(m, parity, prof, theta):
    """Cylindrical values (..., 3, Q) of the single-wavenumber fields of
    azimuthal_mode_tables; only the value profiles fr, ft, fz are read."""
    fr, fz = prof["fr"], prof["fz"]
    ft = prof.get("ft", np.zeros_like(fr))
    if parity == "axi":
        if m != 0:
            raise ValueError("axisymmetric parity requires m = 0")
        return np.stack([fr, ft, fz], axis=-2)
    c, s = np.cos(m * theta), np.sin(m * theta)
    if parity == "cos":
        return np.stack([fr * c, ft * s, fz * c], axis=-2)
    return np.stack([fr * s, -ft * c, fz * s], axis=-2)


def azimuthal_mode_tables(m, parity, prof, r, theta):
    """Cylindrical values and frame gradients of single-wavenumber fields.

    prof holds full component profiles including any radial factors:
    fr, fr_r, fr_z, ft, ft_r, ft_z, fz, fz_r, fz_z, each of shape (..., Q)
    with any leading field axes (the theta entries may be absent).  For
    parity "cos" a field is (fr cos(m t), ft sin(m t), fz cos(m t)); for
    "sin" it is the rotated twin (fr sin(m t), -ft cos(m t), fz sin(m t));
    parity "axi" (m = 0 only) is the axisymmetric field (fr, ft, fz)
    carrying a swirl component.  Returns (val (..., 3, Q), G (..., 3, 3, Q))
    with G[..., i, j, :] the frame gradient (row component, column
    direction).
    """
    val = azimuthal_mode_values(m, parity, prof, theta)
    fr, fr_r, fr_z = prof["fr"], prof["fr_r"], prof["fr_z"]
    fz, fz_r, fz_z = prof["fz"], prof["fz_r"], prof["fz_z"]
    zero = np.zeros_like(fr)
    ft, ft_r, ft_z = (prof.get(k, zero) for k in ("ft", "ft_r", "ft_z"))
    inv_r = 1.0 / r

    def tensor(rows):
        G = np.empty(fr.shape[:-1] + (3, 3, fr.shape[-1]))
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                G[..., i, j, :] = entry
        return G

    if parity == "axi":
        return val, tensor([[fr_r, -ft * inv_r, fr_z],
                            [ft_r, fr * inv_r, ft_z],
                            [fz_r, zero, fz_z]])
    c, s = np.cos(m * theta), np.sin(m * theta)
    cross1 = (m * fr + ft) * inv_r
    cross2 = (m * ft + fr) * inv_r
    cross3 = m * fz * inv_r
    if parity == "cos":
        return val, tensor([[fr_r * c, -cross1 * s, fr_z * c],
                            [ft_r * s, cross2 * c, ft_z * s],
                            [fz_r * c, -cross3 * s, fz_z * c]])
    return val, tensor([[fr_r * s, cross1 * c, fr_z * s],
                        [-ft_r * c, cross2 * s, -ft_z * c],
                        [fz_r * s, cross3 * c, fz_z * s]])


class _ModeSolver:
    """Constrained divergence solve for one azimuthal wavenumber.

    Components are w_r = r Wr(r, z) trig, w_t = r Wt trig, and w_z = Wz trig
    for m = 0 or r Wz trig for m >= 1 (the extra r keeps the frame gradient
    regular on the axis).  All radial profiles vanish at r = R/2 and the
    shared z factor z(L - z) vanishes at the ends, so w = 0 on the boundary
    of C.  The divergence is then

        [2 Wr + r dWr/dr + m Wt + dz-term] trig(m theta),

    a polynomial, collocated at tensor Gauss nodes as C x = g.  The
    collocation system is rank deficient; of its least-squares solutions the
    solve takes the one that minimizes the H1-type energy x^T (A + 1e-12 I) x,
    which keeps the operator bounded.  A is block diagonal with one Kronecker
    sum Ar x Mz + Mr x Az + 1e-10 Mr x Mz per component.

    The energy is whitened: with A + 1e-12 I = L L^T and x = L^-T y the
    problem is the minimum-norm least-squares solve of B = C L^-T, taken by
    a pivoted QR (LAPACK gelsy) with the relative rank cutoff 1e-10.  The
    whitened singular values drop from about 0.2 to about 6e-11 between the
    784th and the 785th of each parity half, so any cutoff in that gap gives
    the same rank.

    The system splits exactly by parity about z = L/2.  The z function j has
    parity j % 2 (Legendre times the even factor z(L - z)) and the Gauss
    z-nodes pair up as z_k, L - z_k, so at the lower half of the nodes the
    half sum (g(z_k) + g(L - z_k)) / 2 of a source is collocated by the
    z-even dofs alone (r and t with even j, z with odd j: d/dz flips parity)
    and the half difference by the z-odd dofs.  The Gram couples equal
    parities only, so each parity is one half-size solve.
    """

    def __init__(self, cyl, m):
        self.m = m
        R, L = cyl.R, cyl.L
        # four radial elements: the exact corrector profile has a smooth
        # inverse-square tail, and shorter elements sharply improve its
        # polynomial approximation at fixed degree
        self.r_breaks = [0.0, R / 8.0, R / 4.0, 3.0 * R / 8.0, R / 2.0]
        self.fam_r = PiecewiseLegFamily(self.r_breaks, R_DEGREE, right_zero=True)
        self.fam_z = LegFamily.modal(
            NZ_MODES, (0.0, L), factor=[L * L / 4.0, 0.0, -L * L / 4.0]
        )
        nfr, nfz = self.fam_r.nfun, self.fam_z.nfun
        self.comps = ["r", "z"] if m == 0 else ["r", "t", "z"]
        self.block = nfr * nfz
        self.ndof = self.block * len(self.comps)

        # collocation nodes; an even count, so they pair up as z, L - z
        rc, _ = composite_gauss(self.r_breaks, R_DEGREE + 2)
        zc, _ = gauss(NZ_MODES + 4, 0.0, L)
        self.r_nodes, self.z_nodes = rc, zc
        Tr = self.fam_r.eval_table(rc, 1)  # (nfr, 2, nr)
        Tz = self.fam_z.eval_table(zc[: zc.size // 2], 1)  # (nfz, 2, nz / 2)

        # the Kronecker factors of the H1-type energy
        rq, wrq = composite_gauss(self.r_breaks, R_DEGREE + 3)
        zq, wzq = gauss(NZ_MODES + 4, 0.0, L)
        Trq = self.fam_r.eval_table(rq, 1)
        Tzq = self.fam_z.eval_table(zq, 1)
        Mz = np.einsum("iy,jy,y->ij", Tzq[:, 0], Tzq[:, 0], wzq)
        Az = np.einsum("iy,jy,y->ij", Tzq[:, 1], Tzq[:, 1], wzq)

        # per component: its radial collocation factor, the z-table row it
        # collocates (0 value, 1 derivative; also the parity j % 2 of its
        # dofs in the z-even half) and its radial Gram factors (Ar, Mr)
        self._comp_data = []
        for comp in self.comps:
            if comp == "r":
                rad, zrow = 2.0 * Tr[:, 0, :] + rc[None, :] * Tr[:, 1, :], 0
            elif comp == "t":
                rad, zrow = float(m) * Tr[:, 0, :], 0
            else:
                rad = Tr[:, 0, :] if m == 0 else rc[None, :] * Tr[:, 0, :]
                zrow = 1
            if comp in ("r", "t") or m > 0:
                a = rq[None, :] * Trq[:, 0]
                da = Trq[:, 0] + rq[None, :] * Trq[:, 1]
            else:
                a = Trq[:, 0]
                da = Trq[:, 1]
            Mr = np.einsum("ix,jx,x->ij", a, a, wrq * rq)
            Ar = np.einsum("ix,jx,x->ij", da, da, wrq * rq)
            self._comp_data.append((rad, zrow, Ar, Mr))
        self._Tz, self._Mz, self._Az = Tz, Mz, Az

    def _whitened(self, parity):
        """The z-parity half's dof indices, the Cholesky factor L_c of each
        component's energy block and the whitened system [C_c L_c^-T]_c.
        Built afresh per solve and dropped after it: they are tens of MB
        and the table needs one solve per wavenumber."""
        nfr, nfz = self.fam_r.nfun, self.fam_z.nfun
        Tz, Mz, Az = self._Tz, self._Mz, self._Az
        n_rows = self.r_nodes.size * Tz.shape[2]  # collocation rows of a half
        idx, chols, cols = [], [], []
        for i, (rad, zrow, Ar, Mr) in enumerate(self._comp_data):
            js = np.arange((parity + zrow) % 2, nfz, 2)
            idx.append(i * self.block + (np.arange(nfr)[:, None] * nfz + js).ravel())
            Mzj, Azj = Mz[np.ix_(js, js)], Az[np.ix_(js, js)]
            Ac = np.kron(Ar, Mzj) + np.kron(Mr, Azj) + 1e-10 * np.kron(Mr, Mzj)
            chol = np.linalg.cholesky(Ac + 1e-12 * np.eye(Ac.shape[0]))
            Ct = np.einsum("ix,jy->ijxy", rad, Tz[js, zrow, :]).reshape(-1, n_rows)
            chols.append(chol)
            cols.append(solve_triangular(chol, Ct, lower=True))
        return np.concatenate(idx), chols, np.concatenate(cols, axis=0).T

    def solve(self, g_nodes):
        """Profile dofs (ndof, S) matching div w = g at the collocation nodes
        for S sources, with g_nodes of shape (n_r_nodes, n_z_nodes, S).  Each
        call factors both whitened systems, so pass all sources at once."""
        S = g_nodes.shape[-1]
        nh = g_nodes.shape[1] // 2
        low, high = g_nodes[:, :nh], g_nodes[:, ::-1][:, :nh]  # z_k, L - z_k
        dofs = np.empty((self.ndof, S))
        for parity, g in enumerate((low + high, low - high)):
            idx, chols, B = self._whitened(parity)
            y = lstsq(B, (0.5 * g).reshape(-1, S), cond=1e-10,
                      lapack_driver="gelsy")[0]
            # x = L^-T y, one equal-size component block at a time
            dofs[idx] = np.concatenate([
                solve_triangular(chol, yc, lower=True, trans="T")
                for chol, yc in zip(chols, np.split(y, len(chols)))])
        return dofs

    def profile_tables(self, dofs, r, z, partials=True):
        """Full component profiles (with radial factors) and, unless partials
        is false, their first partials, of the fields with dofs (..., ndof)
        at the nodes (r, z), each of shape (..., Q).

        The corrector is supported in C, so the profiles are zero at nodes
        with r >= R/2.  The whole dof block is contracted once with the
        axial table at the distinct z values of the nodes in C and with the
        radial element modes.  Each node then gathers the block of its z
        line and its radial element and contracts it with that element's
        Legendre table, all nodes in one batched product; nodes sharing a z
        value, as on a FluidGrid under the radial ALE map, share the axial
        work.
        """
        r = np.asarray(r, dtype=float).ravel()
        z = np.asarray(z, dtype=float).ravel()
        lead, Q = dofs.shape[:-1], r.size
        fam_r, nc = self.fam_r, len(self.comps)
        nd = 2 if partials else 1  # z derivatives of the axial table
        p = fam_r.degree + 1
        inside = np.flatnonzero(r < self.r_breaks[-1])
        zs, line = np.unique(z[inside], return_inverse=True)
        D = dofs.reshape(-1, nc, fam_r.nfun, self.fam_z.nfun)
        n_fc, n_el = D.shape[0] * nc, fam_r.dof_basis.shape[0]
        # rows (line, radial element mode), columns ((field, component), z derivative)
        A = np.tensordot(D, self.fam_z.eval_table(zs, nd - 1), axes=1)
        A = np.tensordot(A, fam_r.dof_basis, axes=([2], [1]))
        A = A.transpose(3, 4, 0, 1, 2).reshape(zs.size * n_el, n_fc * nd)
        element, Tr = fam_r.local_table(r[inside], nd - 1)
        rows = (line * n_el + element * p)[:, None] + np.arange(p)
        # (node, r derivative, (field, component), z derivative)
        prof = (Tr @ A[rows]).reshape(inside.size, nd, n_fc, nd)
        V = np.zeros((n_fc, nd, Q))  # W, and W_z with partials
        V_r = np.zeros((n_fc, Q))
        V[:, :, inside] = prof[:, 0].transpose(1, 2, 0)
        if partials:
            V_r[:, inside] = prof[:, 1, :, 0].T
        V, V_r = V.reshape(-1, nc, nd, Q), V_r.reshape(-1, nc, Q)
        out = {}
        for i, comp in enumerate(self.comps):
            W = V[:, i, 0]
            key = {"r": "fr", "t": "ft", "z": "fz"}[comp]
            radial = comp in ("r", "t") or self.m > 0
            out[key] = r * W if radial else W
            if partials:
                W_r, W_z = V_r[:, i], V[:, i, 1]
                out[key + "_r"] = W + r * W_r if radial else W_r
                out[key + "_z"] = r * W_z if radial else W_z
        return {k: v.reshape(lead + (Q,)) for k, v in out.items()}


# ---------------------------------------------------------------------------
# the full extension operator


class ExtensionOperator:
    """Fixed linear map from shell boundary data to divergence-free fluid
    fields on the (possibly deformed) cylinder.

    The table holds the flux Phi and the corrector dofs per (m, parity) of
    every unit datum Y_i (row 0) and Y_k Y_i (row 1 + k) of the shell basis.
    It is built on the first extension; every extension after that is one
    contraction of it, with no corrector solve and no flux quadrature.
    """

    def __init__(self, cyl, shell_basis):
        self.cyl = cyl
        self.shell_basis = shell_basis
        self.max_m = shell_basis.max_azimuthal_wavenumber

    @cached_property
    def solvers(self):
        """One corrector solver per wavenumber 0..max_m."""
        return [_ModeSolver(self.cyl, m) for m in range(self.max_m + 1)]

    def source_nodes(self):
        """Flattened (theta, z) nodes at which corrector_dofs takes its
        sources: a uniform theta grid that resolves products of two shell
        modes, times the corrector's z collocation nodes (theta-major)."""
        n_th = max(8, 4 * (self.max_m + 1))
        th = np.linspace(0.0, 2.0 * np.pi, n_th, endpoint=False)
        TT, ZZ = np.meshgrid(th, self.solvers[0].z_nodes, indexing="ij")
        return TT.ravel(), ZZ.ravel()

    def corrector_dofs(self, h, flux):
        """Corrector dofs of S boundary sources, one solve per solver.

        h (n_nodes, S) holds the sources at source_nodes() and flux (S,)
        their fluxes Phi.  Returns [(solver, parity, dofs (ndof, S))].
        """
        cyl = self.cyl
        sol0 = self.solvers[0]
        rc, zc = sol0.r_nodes, sol0.z_nodes
        n_th = h.shape[0] // zc.size
        H = np.fft.rfft(h.reshape(n_th, zc.size, -1), axis=0) / n_th
        base = 8.0 / cyl.R**2 * np.ones((rc.size, 1, 1))
        plug = (plug_radial_profile(cyl, rc)[0][:, None]
                * plug_axial_profile(cyl, zc, 1)[1][None, :])[..., None] * flux
        parts = [(sol0, "cos", sol0.solve(base * H[0].real[None] + plug))]
        S = h.shape[-1]
        for sol in self.solvers[1:]:
            m = sol.m
            # the cos and sin sources of a wavenumber share one solve
            g = np.concatenate([2.0 * H[m].real, -2.0 * H[m].imag], axis=-1)
            dofs = sol.solve(base * g[None])
            parts += [(sol, "cos", dofs[:, :S]), (sol, "sin", dofs[:, S:])]
        return parts

    @cached_property
    def table(self):
        """(flux (1 + n, n), [(solver, parity, dofs (1 + n, n, ndof))]) over
        the unit data Y_i and Y_k Y_i of the n shell modes."""
        basis = self.shell_basis
        n = basis.n_modes

        def unit_data(theta, z):
            Y = basis.eval_modes(theta, z, 0)[:, 0]
            return np.concatenate([Y[None], Y[:, None] * Y[None]])

        th, zz, w = basis.quadrature(refine=2)
        flux = unit_data(th, zz) @ w
        h = unit_data(*self.source_nodes())
        parts = self.corrector_dofs(h.reshape(-1, h.shape[-1]).T, flux.ravel())
        return flux, [
            (sol, parity, dofs.T.reshape(1 + n, n, -1))
            for sol, parity, dofs in parts
        ]

    def disk_flux_table(self, grid, z0):
        """The flux table's counterpart through the grid's disk z = z0: on a
        disk the only axial part of an extension is its plug Phi a(r) g(z0),
        so this is the flux table times the disk integral of a g(z0)."""
        r, _, w, _ = grid.disk(z0)
        plug = plug_radial_profile(self.cyl, r)[0] @ w
        return plug * plug_axial_profile(self.cyl, z0)[0] * self.table[0]

    def extend(self, delta, xi, check=True):
        """Divergence-free extension of xi e_r from the interface r = R + delta.

        xi is a shell field, or an (F, n_modes) block of the shell
        coefficients of F data at once; the result is one ExtensionField of
        F fields (F = 1 for a shell field).
        """
        cyl = self.cyl
        if check and not check_injectivity(delta, cyl):
            raise DomainViolation("shell displacement breaks domain injectivity")
        return self._contract(cyl.R, delta, xi)

    def extend_dt(self, dt_delta, xi):
        """Time derivative of extend(delta, xi) for fixed xi: the extension of
        the product data dt_delta * xi (the operator itself is t-independent)."""
        return self._contract(0.0, dt_delta, xi)

    def _contract(self, base, delta, xi):
        """The extensions of h_f = (base + delta) xi_f from the table."""
        flux, parts = self.table
        w = np.concatenate([[base], delta.coefficients])
        X = np.atleast_2d(xi.coefficients if isinstance(xi, ShellField) else xi)
        dofs = [(sol, parity, X @ np.tensordot(w, d, axes=1))
                for sol, parity, d in parts]
        return ExtensionField(self.cyl, self.shell_basis, X, base, delta,
                              X @ (w @ flux), dofs)


def _radial_factors(cyl, r):
    """(f0, f1) of the radial part of an extension: its value is f0 h e_r
    and its frame gradient entries are multiples of f1 h.  Outside r = R/2
    f0 = 1/r and f1 = 1/r^2; inside f0 = 4 r / R^2 and f1 = 4 / R^2."""
    c4 = 4.0 / cyl.R**2
    out = r >= cyl.R / 2.0
    inv_r = 1.0 / np.maximum(r, cyl.R / 2.0)
    return np.where(out, inv_r, c4 * r), np.where(out, inv_r**2, c4)


class ExtensionField:
    """F assembled extensions at once, of the data h_f = (base + delta) xi_f
    with xi_f = sum_k X[f, k] Y_k: evaluates their values, gradients and
    divergences at physical cylindrical points of the closed fluid region.
    It holds the fluxes Phi (F,) and the corrector dofs
    [(solver, parity, dofs (F, ndof))]."""

    def __init__(self, cyl, shell_basis, X, base, delta, flux, dofs):
        self.cyl = cyl
        self.shell_basis = shell_basis
        self.X = X
        self.base = base
        self.delta = delta
        self.flux = flux
        self.dofs = dofs

    def _values(self, r, theta, z, partials):
        """Cylindrical values (F, 3, Q) at flat nodes, with what tables
        differentiates: the data (h, h_theta, h_z) and the corrector
        profiles of every (solver, parity), with their first partials when
        partials is true."""
        F, Q = self.X.shape[0], r.size
        cyl = self.cyl
        # the data h and its theta, z derivatives of every field, from one
        # shell-mode table and one evaluation of delta
        tab = self.shell_basis.eval_modes(theta, z, 1)
        xv, xt, xz = np.tensordot(self.X, tab, axes=1).transpose(1, 0, 2)
        dv, dt, dz = self.delta.evaluate(theta, z, 1)
        c = self.base + dv
        data = c * xv, dt * xv + c * xt, dz * xv + c * xz
        val = np.zeros((F, 3, Q))
        # the radial part: (h / r) e_r for r >= R/2, (4 r h / R^2) e_r inside
        val[:, 0] = _radial_factors(cyl, r)[0] * data[0]
        # the axial plug Phi a(r) g(z), zero for r >= R/4
        val[:, 2] = (self.flux[:, None] * plug_radial_profile(cyl, r)[0]
                     * plug_axial_profile(cyl, z)[0])
        # the corrector, supported in the inner cylinder r < R/2
        profs = []
        for sol, parity, dofs in self.dofs:
            profs.append(sol.profile_tables(dofs, r, z, partials))
            val -= azimuthal_mode_values(sol.m, parity, profs[-1], theta)
        return val, data, profs

    def tables(self, r, theta, z):
        """Cartesian values (F, 3, Q), gradients (F, 3, 3, Q) and
        divergences (F, Q)."""
        r, theta, z = (np.asarray(x, dtype=float).ravel() for x in (r, theta, z))
        cyl = self.cyl
        val, (h, ht, hz), profs = self._values(r, theta, z, partials=True)
        out = r >= cyl.R / 2.0
        f0, f1 = _radial_factors(cyl, r)
        G = np.zeros((val.shape[0], 3, 3, r.size))
        G[:, 0, 0] = np.where(out, -f1, f1) * h
        G[:, 0, 1] = f1 * ht
        G[:, 0, 2] = f0 * hz
        G[:, 1, 1] = f1 * h
        a, da = plug_radial_profile(cyl, r, 1)
        g, dg = plug_axial_profile(cyl, z, 1)
        flux = self.flux[:, None]
        G[:, 2, 0] = flux * da * g
        G[:, 2, 2] = flux * a * dg
        div = np.where(out, 0.0, 2.0 * f1) * h + flux * a * dg
        for (sol, parity, _), prof in zip(self.dofs, profs):
            wG = azimuthal_mode_tables(sol.m, parity, prof, r, theta)[1]
            G -= wG
            div -= wG[:, 0, 0] + wG[:, 1, 1] + wG[:, 2, 2]
        return {
            "val": cyl_vec_to_cart(val[:, 0], val[:, 1], val[:, 2], theta),
            "grad": cyl_tensor_to_cart(G, theta),
            "div": div,
        }

    def __call__(self, r, theta, z):
        """Cartesian values (F, 3, Q) alone: no corrector partials, no frame
        gradients and no tensor rotation."""
        r, theta, z = (np.asarray(x, dtype=float).ravel() for x in (r, theta, z))
        val = self._values(r, theta, z, partials=False)[0]
        return cyl_vec_to_cart(val[:, 0], val[:, 1], val[:, 2], theta)


# ---------------------------------------------------------------------------
# Piola transform


def push_piola(A, dA, ginv, phi_val, phi_grad):
    """Piola push-forward at reference nodes given ALE jets.

    A = grad(psi)/det, dA[i,j,a] its reference-space derivative, ginv the
    inverse deformation gradient.  Returns (val, grad) at the corresponding
    physical points with grad in physical coordinates; the reference fields
    phi_val (..., 3, Q) and phi_grad (..., 3, 3, Q) may carry leading field
    axes.
    """
    val = np.einsum("ijq,...jq->...iq", A, phi_val)
    grad_ref = np.einsum("ijaq,...jq->...iaq", dA, phi_val) + np.einsum(
        "ijq,...jaq->...iaq", A, phi_grad
    )
    grad = np.einsum("...iaq,abq->...ibq", grad_ref, ginv)
    return val, grad


def push_piola_dt(dt_A, dt_psi, phi_val, grad):
    """Eulerian time derivative of the Piola field at fixed physical points,
    given the pushed gradient grad from push_piola."""
    return np.einsum("ijq,...jq->...iq", dt_A, phi_val) - np.einsum(
        "...ibq,bq->...iq", grad, dt_psi
    )


# ---------------------------------------------------------------------------
# mollification


def mollify(signal, eps, dt):
    """Circular convolution of a periodic sample path with a wrapped Gaussian.

    signal has the time axis last with uniform spacing dt over one period.
    The kernel is non-negative and normalized, so constants are preserved and
    the sup norm never increases; as a circulant it commutes exactly with the
    discrete (circular) time derivative.
    """
    if eps <= 0.0:
        raise ValueError("mollification width must be positive")
    signal = np.asarray(signal, dtype=float)
    n = signal.shape[-1]
    period = n * dt
    j = np.arange(n) * dt
    kernel = np.zeros(n)
    for w in range(-3, 4):
        kernel += np.exp(-0.5 * ((j + w * period) / eps) ** 2)
    kernel /= kernel.sum()
    return np.fft.irfft(
        np.fft.rfft(signal, axis=-1) * np.fft.rfft(kernel), n, axis=-1
    )


def azimuthal_damping(basis, eps):
    """Per-mode transfer factors exp(-(m eps)^2 / 2) of the azimuthal
    mollifier, m the wavenumber of each shell mode.  Scaling a shell field's
    coefficients by them is convolution in theta with a wrapped Gaussian, so
    it never increases the sup norm."""
    m = np.array([basis.azimuthal_wavenumber(k) for k in range(basis.n_modes)])
    return np.exp(-0.5 * (m * eps) ** 2)
