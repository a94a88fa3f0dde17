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
one of least H1-type energy x^T A x: with a root X of the energy,
X^T A X = I, that is x = X y for the minimum-norm least-squares solution y
of the whitened system B = C X.  A is a Kronecker sum per component, so two
small generalized eigenproblems give X exactly (fast diagonalization), and
each component's block of B is then the outer product of a radial and an
axial factor.  B is never formed: its Gram B B^T is one small matrix
product of those factors, and B y and B^T z are two small products per
component.  Relative to the largest, the singular values of B drop from
about 1e-4 to round-off (about 1e-15) at the rank, so the rank is well
defined, and a pivoted Cholesky of the Gram finds it.  The extension is
a fixed linear operator of h.  For xi = sum_i x_i Y_i and
delta = sum_k c_k Y_k, h = sum_i x_i (R Y_i + sum_k c_k Y_k Y_i): one table
per model over the unit data Y_i and Y_k Y_i holds every flux and corrector
dof, and an extension is that table contracted with the weights (R, c) and
x ((0, c') for its time derivative).  The products Y_k Y_i carry
wavenumbers 0..2 max_m, max_m the largest of the shell modes, and so does
the table.  Its corrector dofs are themselves a contraction: at the
collocation nodes every source is a combination of 38 unit sources, one per
axial node, and the plug's, so each wavenumber solves those once
(ExtensionOperator.corrector_dofs).
"""

from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh, solve_triangular
from scipy.linalg.lapack import dpstrf

from .basis1d import LegFamily, PiecewiseLegFamily, composite_gauss, gauss
from .errors import LinearSolveFailure
from .fluidgrid import (azimuthal_factors, cyl_tensor_to_cart, cyl_vec_to_cart, frame_tables,
                        unit_frame_tables)

R_DEGREE = 10  # polynomial degree of the corrector's radial elements
NZ_MODES = 34  # the fewest axial modes of the corrector
GRAM_CUTOFF = 1e-13  # relative pivot cutoff of the corrector's Gram (rank)


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


def _gram(rows):
    """The Gram K = B B^T (n_rows square) of a whitened half B from its
    factors rows = [(P, Z, s)] (_ModeSolver._whitened), where component c
    has B_c[(x, y), (i, j)] = P[i, x] Z[j, y] s[i, j].  Then
    K = sum_c sum_i (p_i p_i^T) x (Z^T diag(s_i^2) Z), one product of the
    radial outer products (n_x^2, sum nfr) with the axial ones
    (sum nfr, n_y^2), turned to (x, y), (X, Y) order: for m = 0
    (2304 x 80) (80 x 361), 0.07 G multiply-adds against 1.1 G for the
    product of the dense B with its transpose."""
    nx, ny = rows[0][0].shape[1], rows[0][1].shape[1]
    PP = np.concatenate([(P[:, :, None] * P[:, None, :]).reshape(len(P), -1)
                         for P, _, _ in rows])
    ZZ = np.concatenate([(s * s) @ (Z[:, :, None] * Z[:, None, :]).reshape(len(Z), -1)
                         for _, Z, s in rows])
    K = (PP.T @ ZZ).reshape(nx, nx, ny, ny).transpose(0, 2, 1, 3)
    return K.reshape(nx * ny, nx * ny)


def _whitened_matmul(rows, y):
    """B y (n_rows, S) for the whitened half with factors rows and y
    (sum of the components' dofs, S): P^T (s y_c) Z summed over the
    components c."""
    out = 0.0
    for (P, Z, s), yc in zip(rows, np.split(y, len(rows))):
        U = P.T @ (s[..., None] * yc.reshape(s.shape + (-1,))).reshape(len(P), -1)
        out = out + Z.T @ U.reshape(P.shape[1], len(Z), -1)  # (x, y, S)
    return out.reshape(-1, y.shape[-1])


def _whitened_rmatmul(rows, z):
    """B^T z for the whitened half with factors rows and z (n_rows, S): per
    component s (P z Z^T), stacked."""
    S = z.shape[-1]
    nx = rows[0][0].shape[1]
    return np.concatenate([
        (s[..., None] * (Z @ (P @ z.reshape(nx, -1)).reshape(len(P), -1, S)))
        .reshape(-1, S) for P, Z, s in rows])


def _pivoted_gram(K):
    """Pivoted Cholesky K[p][:, p] = R^T R of a Gram K, stopped at the first
    pivot at or below GRAM_CUTOFF max diag K.  Returns (R, p, rank): the
    first rank rows of the upper triangular R are the factor [R11 R12], its
    other rows are scratch.  K is factored in place."""
    # K.T is the same symmetric K in Fortran order, so LAPACK needs no copy
    R, piv, rank, _ = dpstrf(K.T, tol=GRAM_CUTOFF * K.diagonal().max(),
                             overwrite_a=True)
    return R, piv - 1, rank


def _min_norm_solve(rows, G):
    """Minimum-norm least-squares solution y = B^+ G of a rank-deficient
    whitened half B (n, N) with factors rows, from the pivoted Cholesky of
    its Gram (_gram, _pivoted_gram); B itself is only applied, through
    _whitened_matmul and _whitened_rmatmul.

    With rank r the rows B1 = B[p[:r]] span the row space of B and the
    others are B2 = W B1, W = R12^T R11^-T.  The solution y = B1^T z lies in
    range(B^T), and B y = [I; W] v with v = R11^T R11 z, so least squares
    over v gives v = (I + W^T W)^-1 (G1 + W^T G2), taken by Woodbury with
    the Cholesky factor of the (n - r)-square I + W W^T.

    The map from v to y passes through R11^-1 R11^-T, which amplifies the
    round-off by the square of the condition number of R11 before B^T
    cancels it again, so one such solve is linear in G to only about 5e-14
    (m = 0) and 3e-13 (m = 1) relative on the corrector's sources.
    One step of iterative refinement, y += B^+ (G - B y), brings that to
    about 7e-15 and 8e-14, because those sources leave a least-squares
    residual of only 5e-5 relative or less.  y then lies within 3e-13 of a
    full SVD solve.  Sources with a large part outside
    range(B) fare worse, as forming the Gram squares the conditioning of the
    projection onto range(B) and refinement cannot mend that: on random
    sources y is up to 3e-11 (m = 0) and 2e-9 (m = 1) from the SVD solve,
    relative, where a pivoted-QR least-squares solve stays within 1e-13 and
    1e-11.
    """
    n = G.shape[0]
    R, p, r = _pivoted_gram(_gram(rows))
    R11 = R[:r, :r]
    Wt = solve_triangular(R11, R[:r, r:], check_finite=False)  # W^T
    small = cho_factor(np.eye(n - r) + Wt.T @ Wt, check_finite=False)

    def pinv(G):
        u = G[p[:r]] + Wt @ G[p[r:]]
        v = u - Wt @ cho_solve(small, Wt.T @ u, check_finite=False)
        z = np.zeros((n, G.shape[1]))
        z[p[:r]] = cho_solve((R11, False), v, check_finite=False)  # (R11^T R11)^-1 v
        return _whitened_rmatmul(rows, z)

    y = pinv(G)
    return y + pinv(G - _whitened_matmul(rows, y))


class _ModeSolver:
    """Constrained divergence solve for one azimuthal wavenumber, with an
    axial family of nz_modes modes (the sizes quoted below are for 34).

    Components are w_r = r Wr(r, z) trig, w_t = r Wt trig, and w_z = Wz trig
    for m = 0 or r Wz trig for m >= 1 (the extra r keeps the frame gradient
    regular on the axis); radial holds that factor rule per component.  All
    radial profiles vanish at r = R/2 and the shared z factor z(L - z)
    vanishes at the ends, so w = 0 on the boundary of C.  The divergence is
    then a polynomial times trig(m theta): per component, the trig-stripped
    divergence of its unit fields (fluidgrid.unit_frame_tables), times the
    axial table, or its z derivative for w_z.  It is collocated at tensor
    Gauss nodes as C x = g.  The collocation system is rank deficient; of
    its least-squares solutions the solve takes the one that minimizes the
    H1-type energy x^T A x, which keeps the operator bounded.  A is block
    diagonal with one Kronecker sum (Ar + 1e-10 Mr) x Mz + Mr x Az per
    component, Mr and Mz positive definite mass matrices.

    The energy is whitened by fast diagonalization (Lynch, Rice & Thomas,
    Numer. Math. 6, 1964): the generalized eigenvectors V, V^T Mr V = I, of
    Ar + 1e-10 Mr (eigenvalues lam) and W, W^T Mz W = I, of Az (eigenvalues
    mu) give the root X = (V x W) diag(s), s = (lam + mu)^-1/2, with
    X^T A X = I.  With x = X y the problem is the minimum-norm least-squares
    solve y = B^+ g of B = C X (912 x 1360 per parity half for m = 0,
    912 x 2040 for m >= 1), taken by _min_norm_solve from a pivoted Cholesky
    of the Gram B B^T = C A^-1 C^T.  B is never formed: component c's
    collocation rows are outer products of a radial table rad and an axial
    table Tz, so B_c[(x, y), (i, j)] = (V^T rad)_ix (W^T Tz)_jy s_ij, and the
    Gram and the products with B and B^T are taken from these factors.
    Relative to the largest, the whitened singular values of m = 0 drop from
    5e-5 to 1e-4 at the 784th of each parity half to round-off, about 1e-15,
    at the 785th (m = 1: from about 2e-6 at the 852nd to about 4e-16), so
    the rank is well defined: on cylinders with R / L from 1/8 to 1 and
    m <= 2 the Gram's kept pivots stay above 2.7e-12 and its dropped ones
    below 8e-16 of its largest diagonal, either side of GRAM_CUTOFF.

    The system splits exactly by parity about z = L/2.  The z function j has
    parity j % 2 (Legendre times the even factor z(L - z)) and the Gauss
    z-nodes pair up as z_k, L - z_k, so at the lower half of the nodes the
    half sum (g(z_k) + g(L - z_k)) / 2 of a source is collocated by the
    z-even dofs alone (r and t with even j, z with odd j: d/dz flips parity)
    and the half difference by the z-odd dofs.  The Gram couples equal
    parities only, so each parity is one half-size solve.
    """

    def __init__(self, cyl, m, nz_modes):
        self.m = m
        R, L = cyl.R, cyl.L
        # four radial elements: the exact corrector profile has a smooth
        # inverse-square tail, and shorter elements sharply improve its
        # polynomial approximation at fixed degree
        self.r_breaks = [0.0, R / 8.0, R / 4.0, 3.0 * R / 8.0, R / 2.0]
        self.fam_r = PiecewiseLegFamily(self.r_breaks, R_DEGREE)
        self.fam_z = LegFamily.modal(
            nz_modes, (0.0, L), factor=[L * L / 4.0, 0.0, -L * L / 4.0]
        )
        nfr, nfz = self.fam_r.nfun, self.fam_z.nfun
        self.comps = ["r", "z"] if m == 0 else ["r", "t", "z"]
        # the radial factor per component: r, but 1 for the axial one of m = 0
        self.radial = [c != "z" or m > 0 for c in self.comps]
        self.block = nfr * nfz
        self.ndof = self.block * len(self.comps)

        # collocation nodes; an even count, so they pair up as z, L - z
        rc, _ = composite_gauss(self.r_breaks, R_DEGREE + 2)
        zc, _ = gauss(nz_modes + 4, 0.0, L)
        self.r_nodes, self.z_nodes = rc, zc
        Tr = self.fam_r.eval_table(rc, 1)  # (nfr, 2, nr)
        Tz = self.fam_z.eval_table(zc[: zc.size // 2], 1)  # (nfz, 2, nz / 2)

        # the Kronecker factors of the H1-type energy
        rq, wrq = composite_gauss(self.r_breaks, R_DEGREE + 3)
        zq, wzq = gauss(nz_modes + 4, 0.0, L)
        Trq = self.fam_r.eval_table(rq, 1)
        Tzq = self.fam_z.eval_table(zq, 1)
        Mz = np.einsum("iy,jy,y->ij", Tzq[:, 0], Tzq[:, 0], wzq)
        Az = np.einsum("iy,jy,y->ij", Tzq[:, 1], Tzq[:, 1], wzq)

        def profiles(T, r, radial):  # a radial profile r P (or P) and its d_r
            return (r * T[:, 0], T[:, 0] + r * T[:, 1]) if radial else (T[:, 0], T[:, 1])

        # per component: its radial collocation factor, the divergence of
        # its unit fields; the z-table row it collocates (0 value, 1
        # derivative; also the parity j % 2 of its dofs in the z-even half);
        # and its radial Gram factors (Ar, Mr)
        self._comp_data = []
        for comp, radial in zip(self.comps, self.radial):
            i = "rtz".index(comp)
            rad = unit_frame_tables(m, i, *profiles(Tr, rc, radial), rc)[1]
            a, da = profiles(Trq, rq, radial)
            Mr = np.einsum("ix,jx,x->ij", a, a, wrq * rq)
            Ar = np.einsum("ix,jx,x->ij", da, da, wrq * rq)
            self._comp_data.append((rad, int(i == 2), Ar, Mr))
        self._Tz, self._Mz, self._Az = Tz, Mz, Az

    def _whitened(self, parity):
        """The z-parity half's dof indices, the fast-diagonalization root
        (V, W, s) of each component's energy block (V from the radial
        factors, W from the half's axial ones) and the factors (P, Z, s),
        P = V^T rad and Z = W^T Tz, of the component's block
        C_c X_c = [P_ix Z_jy s_ij] of the whitened system, X_c = (V x W)
        diag(s).  All of them are small (under 16 KiB per array for m = 0);
        they are built afresh per solve, as the table needs one solve per
        solver."""
        nfr, nfz = self.fam_r.nfun, self.fam_z.nfun
        Tz, Mz, Az = self._Tz, self._Mz, self._Az
        idx, roots, rows = [], [], []
        for i, (rad, zrow, Ar, Mr) in enumerate(self._comp_data):
            js = np.arange((parity + zrow) % 2, nfz, 2)
            idx.append(i * self.block + (np.arange(nfr)[:, None] * nfz + js).ravel())
            lam, V = eigh(Ar + 1e-10 * Mr, Mr, check_finite=False)
            mu, W = eigh(Az[np.ix_(js, js)], Mz[np.ix_(js, js)], check_finite=False)
            s = 1.0 / np.sqrt(lam[:, None] + mu[None, :])
            roots.append((V, W, s))
            rows.append((V.T @ rad, W.T @ Tz[js, zrow], s))
        return np.concatenate(idx), roots, rows

    def solve(self, g_nodes):
        """Profile dofs (ndof, S) matching div w = g at the collocation nodes
        for S sources, with g_nodes of shape (n_r_nodes, n_z_nodes, S).  Each
        call whitens both halves afresh, so pass all sources at once.  The
        largest arrays of a call are the Gram of one half and its factor
        (6.3 MiB for any m); a call on the 39 unit sources of m = 0
        (corrector_dofs) peaks at about 17 MiB of allocations, on the 38 of
        m = 1 at about 19 MiB.  Raises ValueError on a source that is not
        finite and LinearSolveFailure if the dofs come out not finite."""
        g_nodes = np.asarray_chkfinite(g_nodes)
        S = g_nodes.shape[-1]
        nh = g_nodes.shape[1] // 2
        low, high = g_nodes[:, :nh], g_nodes[:, ::-1][:, :nh]  # z_k, L - z_k
        dofs = np.empty((self.ndof, S))
        for parity, g in enumerate((low + high, low - high)):
            idx, roots, rows = self._whitened(parity)
            y = _min_norm_solve(rows, (0.5 * g).reshape(-1, S))
            # x = V (s y) W^T per component and source, as two products
            x = []
            for (V, W, s), yc in zip(roots, np.split(y, len(roots))):
                Y = s[..., None] * yc.reshape(s.shape + (S,))
                Y = (V @ Y.reshape(len(V), -1)).reshape(Y.shape)
                x.append((W @ Y).reshape(-1, S))
            dofs[idx] = np.concatenate(x)
        if not np.isfinite(dofs).all():
            raise LinearSolveFailure(f"corrector solve for m = {self.m} is not finite")
        return dofs

    def line_block(self, dofs, zs):
        """The table dofs (1 + n, n, ndof) of this solver contracted with
        the axial table and its z derivative at the z values zs and with the
        radial element modes: a (1 + n, zs.size, n_el, nc, 2, n) view of the
        contraction, n_el the radial family's per-element Legendre modes, so
        that joining the solvers' views is the only copy.  Component c of
        datum (s, f) is then sum_e B[s, k, e, c, 0, f] P_e(r) at z = zs[k],
        and its z derivative has B[s, k, e, c, 1, f] in its place."""
        D = dofs.reshape(-1, len(self.comps), self.fam_r.nfun, self.fam_z.nfun)
        B = np.tensordot(D, self.fam_z.eval_table(zs, 1), axes=1)  # (.., nfr, 2, zs)
        B = np.tensordot(B, self.fam_r.dof_basis, axes=([2], [1]))  # (.., 2, zs, n_el)
        return B.reshape(dofs.shape[:2] + B.shape[1:]).transpose(0, 4, 5, 2, 3, 1)


# ---------------------------------------------------------------------------
# the full extension operator


class ExtensionOperator:
    """Fixed linear map from shell boundary data to divergence-free fluid
    fields on the (possibly deformed) cylinder.

    The table holds the flux Phi and the corrector dofs per (m, parity) of
    every unit datum Y_i (row 0) and Y_k Y_i (row 1 + k) of the shell basis.
    It is built on the first evaluation of an extension; every extension
    after that is one contraction of it, with no corrector solve and no flux
    quadrature.  The corrector dofs are contracted once per set of z values
    with the axial table there (line_block): the radial ALE map moves no
    node of a FluidGrid off its z line, so every sample on a grid reuses one
    block.
    """

    def __init__(self, cyl, shell_basis):
        self.cyl = cyl
        self.shell_basis = shell_basis
        self.max_m = shell_basis.max_azimuthal_wavenumber
        self._line_blocks = {}

    @cached_property
    def solvers(self):
        """One corrector solver per wavenumber 0..2 max_m: the product data
        Y_k Y_i of two shell modes carry up to twice the largest shell
        wavenumber.  Their axial family follows the shell's: max(NZ_MODES,
        4 n_z + 2) modes resolve the products of its highest beam modes
        (34 for n_z = 8; 50 and 66 for n_z = 12 and 16)."""
        nz_modes = max(NZ_MODES, 4 * self.shell_basis.n_z + 2)
        return [_ModeSolver(self.cyl, m, nz_modes) for m in range(2 * self.max_m + 1)]

    def source_nodes(self):
        """Flattened (theta, z) nodes at which corrector_dofs takes its
        sources: a uniform theta grid that resolves products of two shell
        modes, times the corrector's z collocation nodes (theta-major)."""
        n_th = max(8, 4 * (self.max_m + 1))
        th = np.linspace(0.0, 2.0 * np.pi, n_th, endpoint=False)
        TT, ZZ = np.meshgrid(th, self.solvers[0].z_nodes, indexing="ij")
        return TT.ravel(), ZZ.ravel()

    def corrector_dofs(self, h, flux):
        """Corrector dofs of S boundary sources.

        h (n_nodes, S) holds the sources at source_nodes() and flux (S,)
        their fluxes Phi.  At the collocation nodes the wavenumber-m part of
        a source is (8 / R^2) H_m(z), constant in r, with H_m the m-th
        azimuthal Fourier coefficient of h, plus the plug's Phi a(r) g'(z)
        for m = 0.  So every source lies in the span of the unit sources
        (8 / R^2) 1_r x e_k, one per z node, and (for m = 0) the plug:
        each solver makes one solve of those (39 sources for m = 0, 38 for
        m >= 1), and the dofs are its unit dofs contracted with H_m and the
        flux, linear in h by construction.  Returns
        [(solver, parity, dofs (ndof, S))].  Raises ValueError on a source
        that is not finite.
        """
        h = np.asarray_chkfinite(h)
        cyl = self.cyl
        sol0 = self.solvers[0]
        rc, zc = sol0.r_nodes, sol0.z_nodes
        n_th = h.shape[0] // zc.size
        H = np.fft.rfft(h.reshape(n_th, zc.size, -1), axis=0) / n_th
        units = np.broadcast_to(8.0 / cyl.R**2 * np.eye(zc.size), (rc.size,) + (zc.size,) * 2)
        plug = (plug_radial_profile(cyl, rc)[0][:, None]
                * plug_axial_profile(cyl, zc, 1)[1][None, :])
        D = sol0.solve(np.concatenate([units, plug[..., None]], axis=-1))
        parts = [(sol0, "cos", D @ np.concatenate([H[0].real, flux[None]]))]
        S = h.shape[-1]
        for sol in self.solvers[1:]:
            # the cos and sin dofs of a wavenumber in one product
            dofs = sol.solve(units) @ np.concatenate(
                [2.0 * H[sol.m].real, -2.0 * H[sol.m].imag], axis=-1)
            parts += [(sol, "cos", dofs[:, :S]), (sol, "sin", dofs[:, S:])]
        return parts

    @cached_property
    def table(self):
        """(flux (1 + n, n), [(solver, parity, dofs (1 + n, n, ndof))]) over
        the unit data Y_i and Y_k Y_i of the n shell modes: the m = 0 cos
        part, then the cos and sin parts of m = 1..2 max_m, taken by
        corrector_dofs with one solve per solver."""
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

    def line_block(self, z):
        """The z line of every node, an index into the distinct values zs of
        z (Q,), and the table's corrector dofs at zs: _ModeSolver.line_block
        of every (solver, parity), joined along the component axis in table
        order, (1 + n, zs.size, n_el, C, 2, n).  Memoized on the node
        coordinates z, as ShellBasis.eval_modes memoizes its tables: every
        sample on one grid shares them (2.0 MB for the default model's 20
        grid lines, 1.3 times its table).  A node set whose nodes share no
        z line (scattered points) is not kept: its block grows with the
        node count (about 100 KB per node on the default model)."""
        key = z.tobytes()
        hit = self._line_blocks.get(key)
        if hit is not None:
            return hit
        zs, line = np.unique(z, return_inverse=True)
        views = [sol.line_block(dofs, zs) for sol, _, dofs in self.table[1]]
        shape = list(views[0].shape)
        shape[3] = sum(v.shape[3] for v in views)
        # into a C-ordered block: joined alone, the views would keep their
        # transposed layout, and every sample's reshape would copy it
        hit = line, np.concatenate(views, axis=3, out=np.empty(shape))
        if zs.size < z.size:
            if len(self._line_blocks) > 16:
                self._line_blocks.clear()
            self._line_blocks[key] = hit
        return hit

    def disk_flux_table(self, grid, z0):
        """The flux table's counterpart through the grid's disk z = z0: on a
        disk the only axial part of an extension is its plug Phi a(r) g(z0),
        so this is the flux table times the disk integral of a g(z0)."""
        r, _, w, _ = grid.disk(z0)
        plug = plug_radial_profile(self.cyl, r)[0] @ w
        return plug * plug_axial_profile(self.cyl, z0)[0] * self.table[0]

    def extend(self, delta, xi):
        """Divergence-free extension of xi e_r from the interface r = R + delta.

        delta is the shell coefficient vector (n_modes,) of the interface and
        xi the coefficients of one datum, or an (F, n_modes) block of the
        coefficients of F data at once; the result is one ExtensionField of
        F fields (F = 1 for one datum).  delta is not checked: a caller
        that needs an admissible interface decides with
        geometry.admissibility.
        """
        return self._field(self.cyl.R, delta, xi)

    def extend_dt(self, dt_delta, xi):
        """Time derivative of extend(delta, xi) for fixed xi: the extension of
        the product data dt_delta * xi (the operator itself is t-independent)."""
        return self._field(0.0, dt_delta, xi)

    def _field(self, base, delta, xi):
        """The extensions of h_f = (base + delta) xi_f."""
        W = np.concatenate([[base], delta])[None]
        X = np.atleast_2d(xi)
        return ExtensionField(self, W, X)


def _radial_factors(cyl, r):
    """(f0, f0') of the radial part f0 h e_r of an extension: f0 = 1/r
    outside r = R/2 and 4 r / R^2 inside."""
    c4 = 4.0 / cyl.R**2
    out = r >= cyl.R / 2.0
    inv_r = 1.0 / np.maximum(r, cyl.R / 2.0)
    return np.where(out, inv_r, c4 * r), np.where(out, -inv_r**2, c4)


class ExtensionField:
    """S F assembled extensions at once: field s F + f is the extension of
    the data h_sf = (w_s0 + sum_k w_sk Y_k) xi_f with xi_f = sum_k X[f, k]
    Y_k, for the weight rows w_s of W (S, 1 + n).  The rows are (R, c) for
    the extension from the interface r = R + delta, delta = sum_k c_k Y_k,
    and (0, c') for its time derivative.  Every part of an extension is
    linear in its weights and in X, so all S F fields are evaluated in one
    pass: values, gradients and divergences at physical cylindrical points
    of the closed fluid region.  The pass sums the three parts of every
    field into one set of cylindrical components and their partials
    (_values), and fluidgrid.frame_tables turns those into frame gradients.
    The fields of the last `twins` weight rows are values-only: tables
    gives their values but no gradients."""

    def __init__(self, op, W, X, twins=0):
        self.op = op
        self.W = W
        self.X = X
        self.twins = twins

    @cached_property
    def flux(self):
        """The fluxes Phi (S F,) of the fields."""
        return (self.W @ self.op.table[0] @ self.X.T).ravel()

    def stack(self, twin):
        """One field of the fields of self followed by those of twin, the
        extensions of the same data block X with other weights (as
        extend_dt gives their time derivatives), evaluated in one pass;
        tables gives the values of both and the gradients of self's only."""
        if twin.op is not self.op or not np.array_equal(twin.X, self.X):
            raise ValueError("stacked extensions must extend the same data")
        return ExtensionField(self.op, np.concatenate([self.W, twin.W]), self.X,
                              twins=len(twin.W))

    def _values(self, r, theta, z, n_diff):
        """Cylindrical components u (S F, 3, Q) of the fields at flat nodes,
        and the r, theta and z partials du (n_diff F, 3, 3, Q) of the fields
        of the first n_diff weight rows: the radial part f0 h e_r, plus the
        axial plug Phi a g e_z, minus the corrector inside C."""
        cyl, W, Q = self.op.cyl, self.W, r.size
        # the first evaluation builds the operator's table here, before any
        # array of its own is allocated
        flux = self.flux[:, None]
        # the data h and its theta, z derivatives of every field, from one
        # shell-mode table: the weights give (base + delta) and its
        # derivatives, X the xi_f
        tab = self.op.shell_basis.eval_modes(theta, z, 1)
        xv, xt, xz = np.tensordot(self.X, tab, axes=1).transpose(1, 0, 2)
        dv, dt, dz = np.tensordot(W[:, 1:], tab, axes=1).transpose(1, 0, 2)[:, :, None]
        c = W[:, :1, None] + dv
        h, ht, hz = (d.reshape(-1, Q) for d in (c * xv, dt * xv + c * xt, dz * xv + c * xz))
        n = n_diff * len(self.X)
        (f0, df0), (a, da), (g, dg) = (_radial_factors(cyl, r), plug_radial_profile(cyl, r, 1),
                                       plug_axial_profile(cyl, z, 1))
        u = np.zeros((len(h), 3, Q))
        du = np.zeros((n, 3, 3, Q))
        # the radial part: (h / r) e_r for r >= R/2, (4 r h / R^2) e_r inside
        u[:, 0] = f0 * h
        du[:, 0, 0], du[:, 0, 1], du[:, 0, 2] = df0 * h[:n], f0 * ht[:n], f0 * hz[:n]
        # the axial plug Phi a(r) g(z), zero for r >= R/4
        u[:, 2] = flux * a * g
        du[:, 2, 0] = flux[:n] * da * g
        du[:, 2, 2] = flux[:n] * a * dg
        # the corrector, supported in the inner cylinder r < R/2
        inside, w, dw = self._corrector(r, theta, z, n_diff)
        u[..., inside] -= w
        du[..., inside] -= dw.transpose(1, 2, 0, 3)
        return u, du

    def _corrector(self, r, theta, z, n_diff):
        """The nodes inside C, where the corrector is supported, and there
        the cylindrical components (S F, 3, nodes inside) of the correctors
        of all fields and their r, theta and z partials (3, n_diff F, 3,
        nodes inside) of the fields of the first n_diff weight rows.

        The weights and then X are contracted with the operator's memoized
        line block of the nodes' distinct z values.  Each node then gathers
        the block of its z line and its radial element and contracts it with
        that element's Legendre table: one batched product for all nodes and
        all fields gives the profile of every column of the block, one
        component of one (solver, parity) part.  The column's radial factor
        (_ModeSolver.radial) and theta factor
        (azimuthal_factors) make it a frame component, and one product with
        the (3, C) matrix that picks each column's frame component sums the
        columns.
        """
        parts = self.op.table[1]
        fam_r = parts[0][0].fam_r
        W, X = self.W, self.X
        S, F = W.shape[0], X.shape[0]
        nd = 2 if n_diff else 1  # derivatives of the axial and radial tables
        p, n_el = fam_r.degree + 1, fam_r.dof_basis.shape[0]
        inside = np.flatnonzero(r < parts[0][0].r_breaks[-1])
        ri, Q = r[inside], inside.size
        # per column: its frame component, whether its radial factor is r,
        # and its theta factor with that factor's derivative
        kind, radial, T, dT = [], [], [], []
        for sol, parity, _ in parts:
            Tp, dTp = azimuthal_factors(sol.m, parity, theta[inside])
            i = ["rtz".index(c) for c in sol.comps]
            kind += i
            radial += sol.radial
            T.append(Tp[i])
            dT.append(dTp[i])
        C = len(kind)
        pick = np.eye(3)[:, kind]
        T, dT = np.concatenate(T), np.concatenate(dT)
        dfac = np.array(radial, dtype=float)[:, None]  # d_r of the radial factor
        fac = np.where(dfac, ri, 1.0)
        # (s, node, r derivative, component, z derivative, f)
        shape = (S, Q, nd, C, nd, F)
        if Q:
            line, B = self.op.line_block(z)  # B: (1 + n, line, element mode, C, 2, n)
            # the weights, then X: A[s, (line, element mode), component,
            # z derivative, f]
            A = (W @ B.reshape(B.shape[0], -1)).reshape(S, -1, B.shape[-1]) @ X.T
            A = A.reshape(S, B.shape[1] * n_el, C, 2, F)[:, :, :, :nd]
            element, Tr = fam_r.local_table(ri, nd - 1)
            rows = (line[inside] * n_el + element * p)[:, None] + np.arange(p)
            prof = (Tr @ np.take(A, rows, axis=1).reshape(S, Q, p, -1)).reshape(shape)
        else:  # no line block for nodes all outside C, such as interface points
            prof = np.zeros(shape)

        def by_field(v):  # (s, node, component, f) -> ((s, f), component, node)
            return v.transpose(0, 3, 2, 1).reshape(len(v) * F, C, Q)

        V = by_field(prof[:, :, 0, :, 0])
        w = pick @ (fac * V * T)
        if not n_diff:
            return inside, w, np.zeros((3, 0, 3, Q))
        V = V[:n_diff * F]
        V_z, V_r = by_field(prof[:n_diff, :, 0, :, 1]), by_field(prof[:n_diff, :, 1, :, 0])
        return inside, w, pick @ np.stack([(fac * V_r + dfac * V) * T, fac * V * dT,
                                           fac * V_z * T])

    def tables(self, r, theta, z):
        """Cartesian values (S F, 3, Q), and gradients (G, 3, 3, Q) and
        divergences (G, Q) of the first G = (S - twins) F fields, from the
        cylindrical components of _values by frame_tables."""
        r, theta, z = (np.asarray(x, dtype=float).ravel() for x in (r, theta, z))
        u, du = self._values(r, theta, z, len(self.W) - self.twins)
        grad, div = frame_tables(u[:len(du)], du, r)
        return {
            "val": cyl_vec_to_cart(u[:, 0], u[:, 1], u[:, 2], theta),
            "grad": cyl_tensor_to_cart(grad, theta),
            "div": div,
        }


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
    if not 0.0 < eps < np.inf:
        raise ValueError("mollification width must be positive and finite")
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
