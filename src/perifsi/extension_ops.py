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
component.  The range of B lies in the tensor product of the spans of
the radial and the axial factors' rows, 44 of the 48 radial and 18 of the
19 axial node dimensions for m = 0, so the rows are taken on orthonormal
bases of those spans: 792 instead of 912 per parity half, of rank 784.
Relative to the largest, the singular values of B drop from about 1e-4 to
round-off (about 1e-15) at the rank, so the rank is well defined, and a
pivoted Cholesky of the Gram finds it.  The extension is
a fixed linear operator of h.  At the collocation nodes the wavenumber-m
part of its corrector's source is (8 / R^2) H_m(z), constant in r, with H_m
the m-th azimuthal Fourier coefficient of h, plus the plug's Phi a(r) g'(z)
for m = 0.  So every source is a combination of the unit sources
(8 / R^2) 1_r x e_k, one per axial collocation node (38 on the default
model), and the plug's.  Their dofs are solved once per model
(ExtensionOperator.unit_dofs), and each extension contracts them with the
H_m and fluxes of its own data (ExtensionField._corrector), the
offline/online split of a linear problem with affine data (Prud'homme et
al., J. Fluids Eng. 124, 2002).  The data h = (R + delta) xi carry wavenumbers
0..2 max_m, max_m the largest of the shell modes, so there is one solver
per wavenumber.  A unit source and its mirror about z = L/2 differ only in
the sign of the z-odd dofs, so each wavenumber solves those of the lower
half and the plug once.
"""

from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh, solve_triangular
from scipy.linalg.lapack import dpstrf

from .basis1d import LegFamily, PiecewiseLegFamily, composite_gauss, gauss
from .errors import LinearSolveFailure
from .fluidgrid import azimuthal_factors, frame_tables, unit_frame_tables

R_DEGREE = 10  # polynomial degree of the corrector's radial elements
NZ_MODES = 34  # the fewest axial modes of the corrector
GRAM_CUTOFF = 1e-13  # relative cutoff of the corrector Gram's pivots (rank) and rows' spans


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


def _row_span(F):
    """An orthonormal basis (n, k) of the span of the rows of F (.., n):
    its right singular vectors whose squared singular values exceed
    GRAM_CUTOFF times the largest.  A span that is all of R^n is left
    unrotated, as the identity: rotating it drops no row and lowers the
    Gram's smallest kept pivot (m >= 1 radial rows: from 2.9e-12 to 1.9e-12
    on the cylinders of test_gram_rank_is_the_svd_rank)."""
    _, sv, Vt = np.linalg.svd(F, full_matrices=False)
    k = np.count_nonzero(sv * sv > GRAM_CUTOFF * sv[0] ** 2)
    return np.eye(F.shape[1]) if k == F.shape[1] else Vt[:k].T


def _gram(rows):
    """The Gram K = B B^T (n_rows square) of a whitened half B from its
    factors rows = [(P, Z, s)] (_ModeSolver._whitened), where component c
    has B_c[(x, y), (i, j)] = P[i, x] Z[j, y] s[i, j].  Then
    K = sum_c sum_i (p_i p_i^T) x (Z^T diag(s_i^2) Z), one product of the
    radial outer products with the axial ones (sum nfr, n_y^2), turned to
    (x, y), (X, Y) order.  K is symmetric and _pivoted_gram reads only its
    lower triangle, so only the blocks x >= X that hold it are formed: the
    product takes the radial pairs x >= X alone, for m = 0 on its 44 x 18
    rows (990 x 80) (80 x 324), and the blocks x < X are left zero (4.8 MiB
    for m = 0, 5.7 MiB for m >= 1)."""
    nx, ny = rows[0][0].shape[1], rows[0][1].shape[1]
    x, X = np.tril_indices(nx)
    PP = np.concatenate([P[:, x] * P[:, X] for P, _, _ in rows])
    ZZ = np.concatenate([(s * s) @ (Z[:, :, None] * Z[:, None, :]).reshape(len(Z), -1)
                         for _, Z, s in rows])
    K = np.zeros((nx, ny, nx, ny))
    K[x, :, X] = (PP.T @ ZZ).reshape(-1, ny, ny)
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
    pivot at or below GRAM_CUTOFF max diag K.  Only the lower triangle of K
    (row >= column, as _gram fills it) is read.  Returns (R, p, rank): the
    first rank rows of the upper triangular R are the factor [R11 R12], its
    other rows are scratch.  K is factored in place."""
    # K.T is K in Fortran order, so LAPACK needs no copy, and the upper
    # triangle that dpstrf reads there is K's lower one
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

    The rows are those of _ModeSolver._whitened, on the bases of the
    factors' spans, so r is 784 of 792 rows for m = 0 and 852 of 864 for
    m >= 1: W and the Woodbury factor have 8 and 12 columns.

    The map from v to y passes through R11^-1 R11^-T, which amplifies the
    round-off by the square of the condition number of R11 before B^T
    cancels it again, so one such solve is linear in G to only about 1e-14
    (m = 0) and 2e-13 (m = 1) relative on the corrector's unit sources.
    One step of iterative refinement, y += B^+ (G - B y), brings that to
    about 5e-16 and 8e-14.  On those sources, which leave a least-squares
    residual of about 0.3 relative, y then lies within 1e-11 (m = 0) and
    4e-8 (m = 1) of the SVD solve of the dense half on all 912 rows,
    relative, and on random sources within 2e-12 and 3e-9, where a
    pivoted-QR least-squares solve stays within 3e-14: forming the Gram
    squares the conditioning of the projection onto range(B), and
    refinement cannot mend that.
    """
    n = G.shape[0]
    R, p, r = _pivoted_gram(_gram(rows))
    # the factor as contiguous arrays, which LAPACK would otherwise copy
    # from the strided views on every call
    R11, R12 = np.asfortranarray(R[:r, :r]), np.asfortranarray(R[:r, r:])
    Wt = solve_triangular(R11, R12, overwrite_b=True, check_finite=False)  # W^T
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
    solve y = B^+ g of B = C X (48 x 19 = 912 node rows per parity half,
    1360 columns for m = 0 and 2040 for m >= 1), taken by _min_norm_solve
    from a pivoted Cholesky of the Gram B B^T = C A^-1 C^T.  B is never
    formed: component c's collocation rows are outer products of a radial
    table rad and an axial table Tz, so
    B_c[(x, y), (i, j)] = (V^T rad)_ix (W^T Tz)_jy s_ij, and the Gram and the
    products with B and B^T are taken from these factors.  Hence range(B)
    lies in span(rad rows) x span(Tz rows), and the rows are taken on
    orthonormal bases of those spans (_row_span), the sources projected the
    same way: the minimum-norm least-squares solution does not change under
    an orthogonal change of row basis whose span holds range(B).  The radial
    rows of m = 0 span 44 of the 48 radial nodes' dimensions and those of
    m >= 1 all 48 (left unrotated); the axial rows of each half span 18 of
    its 19.  So the Gram has 792 rows for m = 0 and 864 for m >= 1, instead
    of 912; the spans' kept squared singular values stay above 1e-10 of the
    largest and the dropped ones below 1e-31.  Relative to the largest, the
    whitened singular values of m = 0 drop from 5e-5 to 1e-4 at the 784th of
    each parity half to round-off, about 1e-15, at the 785th (m = 1: from
    about 2e-6 at the 852nd to about 4e-16), so the rank is well defined: on
    cylinders with R / L from 1/10 to 1 and m <= 2 the Gram's kept pivots
    stay above 2.8e-12 and its dropped ones below 3e-16 of its largest
    diagonal, either side of GRAM_CUTOFF (m = 0: above 6e-10 and below
    5e-18).

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
        # per z-parity half (0 even, 1 odd): each component's z functions
        # and the half's dof indices
        self._js = [[np.arange((parity + zrow) % 2, nfz, 2)
                     for _, zrow, _, _ in self._comp_data] for parity in (0, 1)]
        self._halves = [
            np.concatenate([i * self.block + (np.arange(nfr)[:, None] * nfz + js).ravel()
                            for i, js in enumerate(self._js[parity])])
            for parity in (0, 1)]
        # orthonormal bases of the spans of the collocation rows: of the
        # components' radial tables, and per half of their axial tables
        self._span_r = _row_span(np.concatenate([rad for rad, _, _, _ in self._comp_data]))
        self._span_z = [_row_span(np.concatenate([Tz[js, zrow] for (_, zrow, _, _), js
                                                  in zip(self._comp_data, js_half)]))
                        for js_half in self._js]
        # per component, the parity-independent radial half of the
        # whitening: the eigenpairs (lam, V), V^T Mr V = I, of
        # Ar + 1e-10 Mr and the radial factor P = V^T rad span_r
        self._radial = []
        for rad, _, Ar, Mr in self._comp_data:
            lam, V = eigh(Ar + 1e-10 * Mr, Mr, check_finite=False)
            self._radial.append((lam, V, V.T @ rad @ self._span_r))

    def _whitened(self, parity):
        """The z-parity half's dof indices, the fast-diagonalization root
        (V, W, s) of each component's energy block (V from the radial
        factors, W from the half's axial ones) and the factors (P, Z, s) of
        the component's block C_c X_c = [P_ix Z_jy s_ij] of the whitened
        system, X_c = (V x W) diag(s), on the bases of the rows' spans:
        P = V^T rad span_r and Z = W^T Tz span_z.  The radial half
        (lam, V, P) and the bases are the solver's own; the axial half is
        built afresh per call, as the unit dofs need one solve per solver.
        All of them are small (under 16 KiB per array for m = 0)."""
        Tz, Mz, Az = self._Tz, self._Mz, self._Az
        span_z = self._span_z[parity]
        roots, rows = [], []
        for (_, zrow, _, _), (lam, V, P), js in zip(self._comp_data, self._radial,
                                                     self._js[parity]):
            mu, W = eigh(Az[np.ix_(js, js)], Mz[np.ix_(js, js)], check_finite=False)
            s = 1.0 / np.sqrt(lam[:, None] + mu[None, :])
            roots.append((V, W, s))
            rows.append((P, W.T @ (Tz[js, zrow] @ span_z), s))
        return self._halves[parity], roots, rows

    def solve(self, g_nodes):
        """Profile dofs (ndof, S) matching div w = g at the collocation nodes
        for S sources, with g_nodes of shape (n_r_nodes, n_z_nodes, S).  Each
        call takes the axial whitening of both halves afresh, so pass all
        sources at once.  The largest array of a call is the Gram of one
        half, factored in place (4.8 MiB for m = 0, 5.7 MiB for m >= 1); a
        call on the 19 unit sources and the plug of m = 0
        (ExtensionOperator.unit_dofs) peaks at about 12.0 MiB of
        allocations, on the 19 of m = 1 at about 14.4 MiB.
        Raises ValueError on a source that is not finite and
        LinearSolveFailure if the dofs come out not finite."""
        g_nodes = np.asarray_chkfinite(g_nodes)
        S = g_nodes.shape[-1]
        nh = g_nodes.shape[1] // 2
        low, high = g_nodes[:, :nh], g_nodes[:, ::-1][:, :nh]  # z_k, L - z_k
        dofs = np.empty((self.ndof, S))
        for parity, g in enumerate((low + high, low - high)):
            idx, roots, rows = self._whitened(parity)
            # the source on the rows' bases: span_r^T g span_z per source
            span_r, span_z = self._span_r, self._span_z[parity]
            g = span_z.T @ (span_r.T @ (0.5 * g).reshape(len(span_r), -1)).reshape(
                span_r.shape[1], -1, S)
            y = _min_norm_solve(rows, g.reshape(-1, S))
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

    def contract_units(self, D, H):
        """sum_k d_k H[k] over all n_z collocation nodes z_k, d_k the dofs
        of the unit source e_k at node z_k, from the dofs D (ndof, n_z / 2)
        of the unit sources at the lower half of the nodes only, with
        weights H (n_z, S).  The unit source at the mirror L - z_k of z_k
        has the same half sum and the opposite half difference in solve,
        so its dofs are D's column k with the z-odd dofs negated: the z-even
        dofs take D times H_low + H_high, the z-odd ones D times
        H_low - H_high, H_high the rows of the mirrors."""
        nh = D.shape[1]
        low, high = H[:nh], H[::-1][:nh]
        out = np.empty((self.ndof, H.shape[1]))
        for idx, h in zip(self._halves, (low + high, low - high)):
            out[idx] = D[idx] @ h
        return out

    def line_block(self, dofs, zs):
        """The dofs (ndof, U) of U fields of this solver contracted with the
        axial table and its z derivative at the z values zs and with the
        radial element modes: one C-ordered (2, zs.size, n_el, nc, U) block,
        n_el the radial family's per-element Legendre modes.  Component c of
        field u is then sum_e B[0, k, e, c, u] P_e(r) at z = zs[k], and its
        z derivative has B[1, k, e, c, u] in its place."""
        D = dofs.reshape(len(self.comps), self.fam_r.nfun, self.fam_z.nfun, -1)
        B = np.tensordot(self.fam_z.eval_table(zs, 1), D, axes=([0], [2]))  # (2, zs, nc, nfr, U)
        B = np.tensordot(self.fam_r.dof_basis, B, axes=([1], [3]))  # (n_el, 2, zs, nc, U)
        return np.ascontiguousarray(B.transpose(1, 2, 0, 3, 4))


# ---------------------------------------------------------------------------
# the full extension operator


class ExtensionOperator:
    """Fixed linear map from shell boundary data to divergence-free fluid
    fields on the (possibly deformed) cylinder.

    It holds the fluxes Phi of the unit data Y_i and Y_k Y_i of the shell
    basis (flux_table) and, per wavenumber, the corrector dofs of the unit
    sources (unit_dofs), both built on the first evaluation of an
    extension; every extension after that contracts them with its own
    data, with no corrector solve and no flux quadrature.  The unit dofs
    are contracted once per set of z values with the axial table there
    (line_block): the radial ALE map moves no node of a FluidGrid off its z
    line, so every sample on a grid reuses one block.
    """

    def __init__(self, cyl, shell_basis):
        self.cyl = cyl
        self.shell_basis = shell_basis
        self.max_m = shell_basis.max_azimuthal_wavenumber
        self._line_blocks = {}

    @cached_property
    def solvers(self):
        """One corrector solver per wavenumber 0..2 max_m: the data
        (R + delta) xi, products of two shell modes, carry up to twice the
        largest shell wavenumber.  Their axial family follows the shell's:
        max(NZ_MODES, 4 n_z + 2) modes resolve the products of its highest
        beam modes (34 for n_z = 8; 50 and 66 for n_z = 12 and 16)."""
        nz_modes = max(NZ_MODES, 4 * self.shell_basis.n_z + 2)
        return [_ModeSolver(self.cyl, m, nz_modes) for m in range(2 * self.max_m + 1)]

    @cached_property
    def source_nodes(self):
        """The flattened (theta, z) nodes at which an extension takes the
        azimuthal Fourier coefficients of its sources, the corrector's z
        collocation nodes times n_theta = 4 max_m + 1 uniform theta nodes
        (z-major), the fewest that resolve the wavenumbers 0..2 max_m of a
        product of two shell modes (one for an axisymmetric model); and the
        real DFT (n_theta, 4 max_m + 1) on those theta nodes that gives the
        weights of the corrector's parts: the mean (column 0), then per
        m = 1..2 max_m, one solver each, the cos part 2 Re H_m (column
        2m - 1) and the sin part -2 Im H_m (column 2m), that is 2 / n_theta
        times the sums against cos m theta and sin m theta."""
        n_th = 4 * self.max_m + 1
        th = np.linspace(0.0, 2.0 * np.pi, n_th, endpoint=False)
        ZZ, TT = np.meshgrid(self.solvers[0].z_nodes, th, indexing="ij")
        mth = np.outer(th, np.arange(1, 2 * self.max_m + 1))
        trig = np.stack([np.cos(mth), np.sin(mth)], axis=-1).reshape(n_th, -1)
        dft = np.concatenate([np.ones((n_th, 1)), 2.0 * trig], axis=1) / n_th
        return TT.ravel(), ZZ.ravel(), dft

    @cached_property
    def flux_table(self):
        """The fluxes Phi (1 + n, n) of the unit data Y_i (row 0) and
        Y_k Y_i (row 1 + k) of the n shell modes, by the shell quadrature."""
        basis = self.shell_basis
        th, zz, w = basis.quadrature(refine=2)
        Y = basis.eval_modes(th, zz, 0)[:, 0]
        return np.concatenate([Y[None], Y[:, None] * Y[None]]) @ w

    @cached_property
    def unit_dofs(self):
        """Per solver, the corrector dofs (ndof, U) of its unit sources
        (8 / R^2) 1_r x e_k at all n_z collocation nodes z_k, followed for
        m = 0 by those of the plug's source Phi a(r) g'(z) at Phi = 1
        (U = n_z + 1 for m = 0, n_z for m >= 1).  The unit source at a
        node's mirror L - z_k has the node's dofs with the z-odd ones
        negated, so each solver makes one solve, of the unit sources at the
        lower half of the nodes and (for m = 0) the plug, and
        _ModeSolver.contract_units unfolds it to all nodes."""
        cyl = self.cyl
        sol0 = self.solvers[0]
        rc, zc = sol0.r_nodes, sol0.z_nodes
        nh = zc.size // 2
        eye = np.eye(zc.size)
        units = np.broadcast_to(8.0 / cyl.R**2 * eye[:, :nh], (rc.size, zc.size, nh))
        plug = (plug_radial_profile(cyl, rc)[0][:, None]
                * plug_axial_profile(cyl, zc, 1)[1][None, :])
        D = sol0.solve(np.concatenate([units, plug[..., None]], axis=-1))
        dofs = [np.concatenate([sol0.contract_units(D[:, :nh], eye), D[:, nh:]], axis=1)]
        return dofs + [sol.contract_units(sol.solve(units), eye) for sol in self.solvers[1:]]

    def line_block(self, z):
        """The z line of every node, an index into the distinct values zs of
        z (Q,), and per solver its unit dofs at zs: _ModeSolver.line_block,
        one C-ordered (2, zs.size, n_el, C, U) block each.  The z derivative
        axis comes first, so that each half is one (zs.size n_el C, U)
        matrix, which takes an extension's weights in one product
        (ExtensionField._corrector).  Memoized on the node coordinates z,
        as ShellBasis.eval_modes memoizes its tables: every sample on one
        grid shares them (1.1 MB for the default model's 20 grid lines,
        whatever the number of shell modes).  The nodes' radial elements
        are not: the ALE map moves the radii.  A node set whose nodes share
        no z line (scattered points) is not kept: its blocks grow with the
        node count (about 55 KB per node on the default model)."""
        key = z.tobytes()
        hit = self._line_blocks.get(key)
        if hit is not None:
            return hit
        zs, line = np.unique(z, return_inverse=True)
        hit = line, [sol.line_block(D, zs) for sol, D in zip(self.solvers, self.unit_dofs)]
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
        return plug * plug_axial_profile(self.cyl, z0)[0] * self.flux_table

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


def _span(mask):
    """The slice from the first to the last true entry of mask (empty if
    there is none): on a FluidGrid, whose nodes run radius-major, the
    nodes of its inner layers."""
    idx = np.flatnonzero(mask)
    return slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)


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
        return (self.W @ self.op.flux_table @ self.X.T).ravel()

    def stack(self, twin):
        """One field of the fields of self followed by those of twin, the
        extensions of the same data block X with other weights (as
        extend_dt gives their time derivatives), evaluated in one pass;
        tables gives the values of both and the gradients of self's only."""
        if twin.op is not self.op or not np.array_equal(twin.X, self.X):
            raise ValueError("stacked extensions must extend the same data")
        return ExtensionField(self.op, np.concatenate([self.W, twin.W]), self.X,
                              twins=len(twin.W))

    def _data(self, theta, z, n_diff):
        """The data h (S, F, Q) of the fields at the nodes (theta, z), and
        the theta and z derivatives (n_diff, F, Q) of the data of the fields
        of the first n_diff weight rows, from one shell-mode table: the
        weights give (base + delta) and its derivatives, X the xi_f."""
        tab = self.op.shell_basis.eval_modes(theta, z, 1)
        x = (self.X @ tab.reshape(len(tab), -1)).reshape(-1, *tab.shape[1:])  # (F, ncomp, Q)
        d = (self.W[:, 1:] @ tab.reshape(len(tab), -1)).reshape(-1, *tab.shape[1:])[:, :, None]
        c = self.W[:, :1, None] + d[:, 0]
        h = c * x[:, 0]
        d, c = d[:n_diff], c[:n_diff]
        return h, d[:, 1] * x[:, 0] + c * x[:, 1], d[:, 2] * x[:, 0] + c * x[:, 2]

    def _values(self, u, du, r, theta, z, weight):
        """Fill u (S, F, 3, Q) with the cylindrical components of the fields
        at flat nodes, and du (n_diff, F, 3, 3, Q) with the r, theta and z
        partials of the fields of the first n_diff weight rows, all times
        the per-node weight (Q,): the radial part f0 h e_r, plus the axial
        plug Phi a g e_z over the span of the nodes with r < R/4 (_span),
        minus the corrector inside C.  u and du may be strided views."""
        cyl = self.op.cyl
        h, ht, hz = self._data(theta, z, len(du))
        f0, df0 = (f * weight for f in _radial_factors(cyl, r))
        # the radial part: (h / r) e_r for r >= R/2, (4 r h / R^2) e_r inside
        u[:, :, 0] = f0 * h
        du[:, :, 0, 0], du[:, :, 0, 1], du[:, :, 0, 2] = df0 * h[:len(du)], f0 * ht, f0 * hz
        u[:, :, 1:] = 0.0
        du[:, :, 1:] = 0.0
        # the axial plug Phi a(r) g(z), zero for r >= R/4
        plug = _span(r < cyl.R / 4.0)
        if plug.stop > plug.start:
            g, dg = plug_axial_profile(cyl, z[plug], 1)
            a, da = (f * weight[plug] for f in plug_radial_profile(cyl, r[plug], 1))
            flux = self.flux.reshape(len(u), -1, 1)
            u[:, :, 2, plug] = flux * (a * g)
            du[:, :, 2, 0, plug] = flux[:len(du)] * (da * g)
            du[:, :, 2, 2, plug] = flux[:len(du)] * (a * dg)
        # the corrector, supported in the inner cylinder r < R/2
        self._corrector(u, du, r, theta, z, weight)

    def _corrector(self, u, du, r, theta, z, weight):
        """Subtract the correctors of the fields, times the per-node weight,
        from their cylindrical components u (S, F, 3, Q) and from the
        partials du (n_diff, F, 3, 3, Q) of the fields of the first n_diff
        weight rows.

        The corrector is supported in the inner cylinder C, so the pass runs
        over the span of the nodes inside C alone (the nodes from the first
        to the last of them; on a FluidGrid, whose nodes run radius-major,
        that is its inner layers).  Its source is a combination of the
        operator's unit sources, so per (solver, parity) part the fields'
        corrector is the solver's unit dofs contracted with weights w
        (U, S F) from the fields' own data: the azimuthal Fourier
        coefficients H_m of h at the operator's source nodes, taken by one
        product with their real DFT over theta (source_nodes), as
        [Re H_0, flux] for m = 0 (the plug last) and as 2 Re H_m (cos) and
        -2 Im H_m (sin) for m = 1..2 max_m.  One product of each
        half of the solver's memoized line block (_ModeSolver.line_block)
        with w gives the part's profile columns per z line and radial
        element, the z-derivative half for the first n_diff weight rows
        only.  Their element modes are contracted with the nodes' radial
        Legendre tables (fam_r.local_table), one (z line, radial element)
        group at a time: the span's nodes are grouped by line and element
        into blocks of slots (padded to the largest group), each slot takes
        its node's radius and weight, and the tables are evaluated at the
        slots, so they need no scatter.  One batched product over the
        groups and components writes every group's rows contiguously, a
        node's value and its r derivative side by side.  A node of the span
        outside C joins its line's outer group with zero table rows.  The
        tables carry each component's radial factor (_ModeSolver.radial):
        r P and P + r P' for a radial one.  One np.take reads the span's
        rows in node order, and each array takes all components of a part
        in one subtraction; for m >= 1 the rows are first multiplied by the
        theta factors (azimuthal_factors), which for m = 0 are one and zero
        and are not applied.  The values-only twin rows take the value
        tables only.
        """
        op = self.op
        sol0 = op.solvers[0]
        fam_r, r_C = sol0.fam_r, sol0.r_breaks[-1]
        span = _span(r < r_C)
        if span.start == span.stop:  # no line block for nodes all outside C (interface points)
            return
        S, F, n_diff = len(self.W), len(self.X), len(du)
        nd = 2 if n_diff else 1
        p, n_elem = fam_r.degree + 1, fam_r.nelem
        line, blocks = op.line_block(z)  # per solver: (2, line, element mode, C, U)
        G = blocks[0].shape[1] * n_elem
        # the data at the source nodes, then per z node, field and part the
        # weight: H (z node, S F, part column of the DFT)
        th, zz, dft = op.source_nodes
        tab = op.shell_basis.eval_modes(th, zz, 0)[:, 0]
        nz = sol0.z_nodes.size
        x = (self.X @ tab).reshape(F, nz, -1)
        c = (self.W[:, :1] + self.W[:, 1:] @ tab).reshape(S, nz, -1)
        H = ((c.transpose(1, 0, 2)[:, :, None] * x.transpose(1, 0, 2)[:, None]).reshape(
            nz * S * F, -1) @ dft).reshape(nz, S * F, -1)
        rs = r[span]
        # the span's nodes grouped by (line, element), each at its slot
        group = line[span] * n_elem + fam_r.element_index(rs)
        order = np.argsort(group, kind="stable")
        count = np.bincount(group, minlength=G)
        n_slot = count.max()
        slot = np.empty_like(order)
        slot[order] = np.arange(order.size) - (np.cumsum(count) - count)[group[order]]
        at_z = group * n_slot + slot
        at = at_z + group * ((nd - 1) * n_slot) + n_slot * np.arange(nd)[:, None]
        # each slot's radius and weight, zero in the padding and outside C,
        # and its radial Legendre table (nd, p, slot), taken in slot order
        r_slot, w_slot = np.zeros((2, G * n_slot))
        r_slot[at_z], w_slot[at_z] = rs, (rs < r_C) * weight[span]
        Tr = fam_r.local_table(r_slot, nd - 1)[1].transpose(1, 2, 0) * w_slot
        # each group's block of slots holds the rows [value, r derivative]
        # of its nodes' radial (r P, P + r P') and plain (P, P') tables:
        # (G, kind, p, [value, r derivative] x slot)
        Ts = np.empty((2, p, G, nd, n_slot))
        Ts[1] = Tr.reshape(nd, p, G, n_slot).transpose(1, 2, 0, 3)
        Ts[0, :, :, 0] = (r_slot * Tr[0]).reshape(p, G, n_slot)
        if n_diff:
            Ts[0, :, :, 1] = (Tr[0] + r_slot * Tr[1]).reshape(p, G, n_slot)
        Ts = Ts.reshape(2, p, G, nd * n_slot).transpose(2, 0, 1, 3)

        def profiles(A, C, T, rows, at):  # (C, columns, node): the groups' products in node order
            V = np.empty((C, A.shape[-1], G, rows))
            np.matmul(A.reshape(G, p, C, -1).transpose(0, 2, 3, 1), T,
                      out=V.transpose(2, 0, 1, 3))
            return np.take(V.reshape(-1, G * rows), at, axis=1)

        u, du = u[..., span], du[..., span]
        for sol, B in zip(op.solvers, blocks):
            C = len(sol.comps)
            if sol.m == 0:
                # components r and z; the axial one alone has no radial factor
                parts = [("cos", np.concatenate([H[:, :, 0], self.flux[None]]))]
                k, T = slice(None, None, 2), Ts
            else:
                parts = [("cos", H[:, :, 2 * sol.m - 1]), ("sin", H[:, :, 2 * sol.m])]
                k, T = slice(None), Ts[:, :1]
            B0, B1 = B.reshape(2, -1, B.shape[-1])
            for parity, w in parts:
                # (component, s, f, [value, r derivative], node)
                V = profiles(B0 @ w, C, T, nd * n_slot, at).reshape(C, S, F, nd, -1)
                V = V.transpose(1, 2, 0, 3, 4)  # (s, f, component, .., node)
                if n_diff:
                    V_z = profiles(B1 @ w[:, :n_diff * F], C, T[..., :n_slot], n_slot, at_z)
                    V_z = V_z.reshape(C, n_diff, F, -1).transpose(1, 2, 0, 3)
                if sol.m == 0:
                    u[:, :, k] -= V[..., 0, :]
                    if n_diff:
                        du[:, :, k, 0] -= V[:n_diff, :, :, 1]
                        du[:, :, k, 2] -= V_z
                    continue
                Tk, dTk = azimuthal_factors(sol.m, parity, theta[span])
                u[:, :, k] -= V[..., 0, :] * Tk
                if n_diff:
                    du[:, :, k, 0] -= V[:n_diff, :, :, 1] * Tk
                    du[:, :, k, 1] -= V[:n_diff, :, :, 0] * dTk
                    du[:, :, k, 2] -= V_z * Tk

    def tables(self, r, theta, z, weight=1.0, out=None):
        """Frame values (S F, 3, Q), the cylindrical components of _values,
        and frame gradients (G, 3, 3, Q) and divergences (G, Q) of the first
        G = (S - twins) F fields, by frame_tables, each times weight, a
        factor per node (or one for all): the pass is linear in every
        per-node factor it applies, so the weight rides on those factors
        (GlobalBasis.fluid_tables weights by the root of the quadrature
        weight).  With out = (u, du), arrays of shapes (S, F, 3, Q) and
        (S - twins, F, 3, 3, Q) of any strides, the values and gradients
        are written there and returned in those shapes (divergences
        (S - twins, F, Q))."""
        r, theta, z = (np.asarray(x, dtype=float).ravel() for x in (r, theta, z))
        weight = np.broadcast_to(np.asarray(weight, dtype=float), r.shape)
        S, F, Q = len(self.W), len(self.X), r.size
        n_diff = S - self.twins
        if out is None:
            val, grad = np.empty((S * F, 3, Q)), np.empty((n_diff * F, 3, 3, Q))
            u, du = val.reshape(S, F, 3, Q), grad.reshape(n_diff, F, 3, 3, Q)
        else:
            val, grad = u, du = out
        self._values(u, du, r, theta, z, weight)
        div = frame_tables(u[:n_diff], du, r)[1]
        return {"val": val, "grad": grad, "div": div.reshape(grad.shape[:-3] + (Q,))}


# ---------------------------------------------------------------------------
# Piola transform


def push_piola(A, dA, ginv, phi_val, phi_grad, out=None):
    """Piola push-forward at reference nodes given ALE jets.

    A = grad(psi)/det, dA[i,j,a] its frame derivative along e_a at the
    node, ginv the inverse deformation gradient (geometry.ale_jets).  Returns (val, grad) at the corresponding
    physical points with grad in physical coordinates; the reference fields
    phi_val (..., 3, Q) and phi_grad (..., 3, 3, Q) may carry leading field
    axes.  With out = (val, grad), arrays of those shapes (any strides), the
    push is written there.
    """
    val, grad = (None, None) if out is None else out
    val = np.einsum("ijq,...jq->...iq", A, phi_val, out=val)
    grad_ref = np.einsum("ijaq,...jq->...iaq", dA, phi_val)
    grad_ref += np.einsum("ijq,...jaq->...iaq", A, phi_grad)
    grad = np.einsum("...iaq,abq->...ibq", grad_ref, ginv, out=grad)
    return val, grad


def push_piola_dt(dt_A, dt_psi, phi_val, grad, out=None):
    """Eulerian time derivative of the Piola field at fixed physical points,
    given the pushed gradient grad from push_piola: dt_A phi minus the
    transport grad dt_psi along the node velocity.  Written into out (any
    strides) when given."""
    out = np.einsum("ijq,...jq->...iq", dt_A, phi_val, out=out)
    out -= np.einsum("...ibq,bq->...iq", grad, dt_psi)
    return out


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
