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

The corrector is computed once per azimuthal wavenumber from a constrained
least-squares collocation problem on separable polynomial spaces and is linear
in the data, so the whole extension is a fixed linear operator of h.
"""

import numpy as np
from scipy.linalg import solve_triangular

from .basis1d import LegFamily, PiecewiseLegFamily, composite_gauss, gauss
from .errors import BasisMismatch, DomainViolation
from .fluidgrid import (
    _invert_grad,
    cyl_tensor_to_cart,
    cyl_vec_to_cart,
    piola_derivative,
)
from .geometry import ShellField, ale_jets, check_injectivity


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
# boundary data h = (c + delta) * xi


class BoundarySource:
    """Shell data h = (R + delta) xi, or h = a xi for a plain product.

    Evaluates h and its theta/z first derivatives; linearity in xi is manifest.
    """

    def __init__(self, cyl, xi, delta=None, add_R=True):
        self.cyl = cyl
        self.xi = xi
        self.delta = delta
        self.base = cyl.R if add_R else 0.0

    def tables(self, theta, z):
        """Return (h, dh_dtheta, dh_dz) at flattened points."""
        xv, xt, xz = self.xi.evaluate(theta, z, 1)
        if self.delta is None:
            c = self.base
            return c * xv, c * xt, c * xz
        dv, dt, dz = self.delta.evaluate(theta, z, 1)
        c = self.base + dv
        return c * xv, dt * xv + c * xt, dz * xv + c * xz

    def flux(self):
        """Phi = int_omega h dtheta dz by shell-basis quadrature."""
        th, zz, w = self.xi.basis.quadrature(refine=2)
        h, _, _ = self.tables(th, zz)
        return float(h @ w)


# ---------------------------------------------------------------------------
# per-wavenumber corrector solve on C = [0, R/2] x [0, L]


def azimuthal_mode_tables(m, parity, prof, r, theta):
    """Cylindrical value and frame gradient of a single-wavenumber field.

    prof holds full component profiles including any radial factors:
    fr, fr_r, fr_z, ft, ft_r, ft_z, fz, fz_r, fz_z (each shape (Q,); the
    theta component may be None).  For parity "cos" the field is
    (fr cos(m t), ft sin(m t), fz cos(m t)); for "sin" it is the rotated twin
    (fr sin(m t), -ft cos(m t), fz sin(m t)); parity "axi" (m = 0 only) is the
    axisymmetric field (fr, ft, fz) carrying a swirl component.  Returns
    (val(3,Q), G(3,3,Q)) with G[i, j] the frame gradient (row component,
    column direction).
    """
    fr, fr_r, fr_z = prof["fr"], prof["fr_r"], prof["fr_z"]
    fz, fz_r, fz_z = prof["fz"], prof["fz_r"], prof["fz_z"]
    Q = r.size
    zero = np.zeros(Q)
    ft = prof.get("ft", None)
    ft_r = prof.get("ft_r", zero)
    ft_z = prof.get("ft_z", zero)
    if ft is None:
        ft = zero
    inv_r = 1.0 / r
    if parity == "axi":
        if m != 0:
            raise ValueError("axisymmetric parity requires m = 0")
        val = np.stack([fr, ft, fz])
        G = np.empty((3, 3, Q))
        G[0, 0], G[0, 1], G[0, 2] = fr_r, -ft * inv_r, fr_z
        G[1, 0], G[1, 1], G[1, 2] = ft_r, fr * inv_r, ft_z
        G[2, 0], G[2, 1], G[2, 2] = fz_r, np.zeros(Q), fz_z
        return val, G
    c, s = np.cos(m * theta), np.sin(m * theta)
    cross1 = (m * fr + ft) * inv_r
    cross2 = (m * ft + fr) * inv_r
    cross3 = m * fz * inv_r
    val = np.empty((3, Q))
    G = np.empty((3, 3, Q))
    if parity == "cos":
        val[0], val[1], val[2] = fr * c, ft * s, fz * c
        G[0, 0], G[0, 1], G[0, 2] = fr_r * c, -cross1 * s, fr_z * c
        G[1, 0], G[1, 1], G[1, 2] = ft_r * s, cross2 * c, ft_z * s
        G[2, 0], G[2, 1], G[2, 2] = fz_r * c, -cross3 * s, fz_z * c
    else:
        val[0], val[1], val[2] = fr * s, -ft * c, fz * s
        G[0, 0], G[0, 1], G[0, 2] = fr_r * s, cross1 * c, fr_z * s
        G[1, 0], G[1, 1], G[1, 2] = -ft_r * c, cross2 * s, -ft_z * c
        G[2, 0], G[2, 1], G[2, 2] = fz_r * s, cross3 * c, fz_z * s
    return val, G


class _ModeSolver:
    """Constrained divergence solve for one azimuthal wavenumber.

    Components are w_r = r Wr(r, z) trig, w_t = r Wt trig, and w_z = Wz trig
    for m = 0 or r Wz trig for m >= 1 (the extra r keeps the frame gradient
    regular on the axis).  All radial profiles vanish at r = R/2 and the
    shared z factor z(L - z) vanishes at the ends, so w = 0 on the boundary
    of C.  The divergence is then

        [2 Wr + r dWr/dr + m Wt + dz-term] trig(m theta),

    a polynomial, collocated at tensor Gauss nodes; the minimum-norm solution
    of the collocation system is post-corrected inside its nullspace to
    minimize an H1-type seminorm, which keeps the operator bounded.
    """

    def __init__(self, cyl, m, r_degree, nz_modes):
        self.cyl = cyl
        self.m = m
        R, L = cyl.R, cyl.L
        # four radial elements: the exact corrector profile has a smooth
        # inverse-square tail, and shorter elements sharply improve its
        # polynomial approximation at fixed degree
        self.r_breaks = [0.0, R / 8.0, R / 4.0, 3.0 * R / 8.0, R / 2.0]
        self.fam_r = PiecewiseLegFamily(self.r_breaks, r_degree, right_zero=True)
        self.fam_z = LegFamily.modal(
            nz_modes, (0.0, L), factor=[L * L / 4.0, 0.0, -L * L / 4.0]
        )
        nfr, nfz = self.fam_r.nfun, self.fam_z.nfun
        self.comps = ["r", "z"] if m == 0 else ["r", "t", "z"]
        self.block = nfr * nfz
        self.ndof = self.block * len(self.comps)

        # collocation nodes
        rc, _ = composite_gauss(self.r_breaks, r_degree + 2)
        zc, _ = gauss(nz_modes + 4, 0.0, L)
        self.r_nodes, self.z_nodes = rc, zc
        Tr = self.fam_r.eval_table(rc, 1)  # (nfr, 2, nr)
        Tz = self.fam_z.eval_table(zc, 1)  # (nfz, 2, nz)

        cols = []
        for comp in self.comps:
            if comp == "r":
                rad = 2.0 * Tr[:, 0, :] + rc[None, :] * Tr[:, 1, :]
                ax = Tz[:, 0, :]
            elif comp == "t":
                rad = float(m) * Tr[:, 0, :]
                ax = Tz[:, 0, :]
            else:
                rad = Tr[:, 0, :] if m == 0 else rc[None, :] * Tr[:, 0, :]
                ax = Tz[:, 1, :]
            cols.append(np.einsum("ix,jy->ijxy", rad, ax).reshape(self.block, -1))
        C = np.concatenate(cols, axis=0).T  # (n_nodes, ndof)

        U, s, Vt = np.linalg.svd(C, full_matrices=True)
        tol = 1e-10 * s[0]
        rank = int(np.sum(s > tol))
        self._U = U[:, :rank]
        N = Vt[rank:].T  # (ndof, ndof - rank)

        # H1-type seminorm Gram for the nullspace correction (separable)
        rq, wrq = composite_gauss(self.r_breaks, r_degree + 3)
        zq, wzq = gauss(nz_modes + 4, 0.0, L)
        Trq = self.fam_r.eval_table(rq, 1)
        Tzq = self.fam_z.eval_table(zq, 1)
        Mz = np.einsum("iy,jy,y->ij", Tzq[:, 0], Tzq[:, 0], wzq)
        Az = np.einsum("iy,jy,y->ij", Tzq[:, 1], Tzq[:, 1], wzq)
        blocks = []
        for comp in self.comps:
            with_r = comp in ("r", "t") or m > 0
            if with_r:
                a = rq[None, :] * Trq[:, 0]
                da = Trq[:, 0] + rq[None, :] * Trq[:, 1]
            else:
                a = Trq[:, 0]
                da = Trq[:, 1]
            Mr = np.einsum("ix,jx,x->ij", a, a, wrq * rq)
            Ar = np.einsum("ix,jx,x->ij", da, da, wrq * rq)
            blk = np.kron(Ar, Mz) + np.kron(Mr, Az) + 1e-10 * np.kron(Mr, Mz)
            blocks.append(blk)
        n = self.ndof
        A = np.zeros((n, n))
        for i, blk in enumerate(blocks):
            sl = slice(i * self.block, (i + 1) * self.block)
            A[sl, sl] = blk
        chol = np.linalg.cholesky(N.T @ A @ N + 1e-12 * np.eye(N.shape[1]))
        # fold min-norm LSQ and the nullspace energy correction into a single
        # precomputed operator: dofs = PV (U^T g)
        PV = Vt[:rank].T * (1.0 / s[:rank])
        X = N.T @ (A @ PV)
        Y = solve_triangular(
            chol.T, solve_triangular(chol, X, lower=True), lower=False
        )
        self._solve_op = PV - N @ Y

    def solve(self, g_nodes):
        """Profile dofs matching div w = g at the collocation nodes, with
        g_nodes of shape (n_r_nodes, n_z_nodes)."""
        return self._solve_op @ (self._U.T @ g_nodes.ravel())

    def _node_tables(self, r, z):
        """Family tables at a node set, memoized on the node content."""
        if not hasattr(self, "_nt_cache"):
            self._nt_cache = {}
        key = (hash(r.tobytes()), hash(z.tobytes()))
        hit = self._nt_cache.get(key)
        if hit is None:
            hit = (self.fam_r.eval_table(r, 1), self.fam_z.eval_table(z, 1))
            if len(self._nt_cache) > 8:
                self._nt_cache.clear()
            self._nt_cache[key] = hit
        return hit

    def profile_tables(self, dofs, r, z):
        """Full component profiles (with radial factors) and derivatives."""
        r = np.asarray(r, dtype=float).ravel()
        z = np.asarray(z, dtype=float).ravel()
        Tr, Tz = self._node_tables(r, z)
        out = {}
        for i, comp in enumerate(self.comps):
            c = dofs[i * self.block : (i + 1) * self.block].reshape(
                self.fam_r.nfun, self.fam_z.nfun
            )
            A0 = c.T @ Tr[:, 0]
            A1 = c.T @ Tr[:, 1]
            W = np.sum(A0 * Tz[:, 0], axis=0)
            W_r = np.sum(A1 * Tz[:, 0], axis=0)
            W_z = np.sum(A0 * Tz[:, 1], axis=0)
            with_r = comp in ("r", "t") or self.m > 0
            key = {"r": "fr", "t": "ft", "z": "fz"}[comp]
            if with_r:
                out[key] = r * W
                out[key + "_r"] = W + r * W_r
                out[key + "_z"] = r * W_z
            else:
                out[key] = W
                out[key + "_r"] = W_r
                out[key + "_z"] = W_z
        return out


class DivergenceCorrector:
    """Zero-trace right inverse of the divergence on the inner cylinder C.

    Solvers are factorized once per azimuthal wavenumber and reused; correction
    of sampled data is a pair of cheap triangular/back-substitution solves, and
    the resulting operator is linear in the data.
    """

    def __init__(self, cyl, max_wavenumber=4, r_degree=10, nz_modes=None):
        self.cyl = cyl
        self.max_m = int(max_wavenumber)
        self.r_degree = int(r_degree)
        self.nz_modes = int(nz_modes) if nz_modes is not None else 34
        self._solvers = {}

    def solver(self, m):
        if m not in self._solvers:
            self._solvers[m] = _ModeSolver(self.cyl, m, self.r_degree, self.nz_modes)
        return self._solvers[m]

    def correct_modes(self, mode_rhs):
        """Build a corrector field from per-(m, parity) node samples.

        mode_rhs maps (m, parity) -> array (n_r_nodes, n_z_nodes) of the
        divergence source profile at the wavenumber-m collocation nodes.
        """
        parts = []
        for (m, parity), g in mode_rhs.items():
            if float(np.max(np.abs(g))) < 1e-15:
                continue
            sol = self.solver(m)
            parts.append((sol, parity, sol.solve(g)))
        return CorrectorField(self.cyl, parts)


class CorrectorField:
    """Vector field on C assembled from per-wavenumber corrector solves."""

    def __init__(self, cyl, parts):
        self.cyl = cyl
        self.parts = parts

    def tables(self, r, theta, z):
        """Cylindrical value and frame gradient, zero outside r < R/2."""
        r = np.asarray(r, dtype=float).ravel()
        theta = np.asarray(theta, dtype=float).ravel()
        z = np.asarray(z, dtype=float).ravel()
        Q = r.size
        val = np.zeros((3, Q))
        G = np.zeros((3, 3, Q))
        mask = r < self.cyl.R / 2.0
        if mask.any() and self.parts:
            rm, tm, zm = r[mask], theta[mask], z[mask]
            for sol, parity, dofs in self.parts:
                prof = sol.profile_tables(dofs, rm, zm)
                v, g = azimuthal_mode_tables(sol.m, parity, prof, rm, tm)
                val[:, mask] += v
                G[:, :, mask] += g
        return val, G

    def __call__(self, r, theta, z):
        val, _ = self.tables(r, theta, z)
        return val


# ---------------------------------------------------------------------------
# the full extension operator


class ExtensionOperator:
    """Fixed linear map from shell boundary data to divergence-free fluid
    fields on the (possibly deformed) cylinder.

    The corrector factorizations depend only on the reference geometry and the
    resolution, so one operator instance is shared across time steps and outer
    iterations; `extend` closes over the data and is cheap.
    """

    def __init__(self, cyl, max_wavenumber=4, r_degree=10, nz_modes=None):
        self.cyl = cyl
        self.corrector = DivergenceCorrector(cyl, max_wavenumber, r_degree, nz_modes)
        self.max_m = self.corrector.max_m

    def extend(self, delta, xi, check=True):
        """Divergence-free extension of xi e_r from the interface r = R + delta."""
        if check and delta is not None:
            if not check_injectivity(delta, 0.05 * self.cyl.R, cyl=self.cyl):
                raise DomainViolation("shell displacement breaks domain injectivity")
        return self._extend_source(BoundarySource(self.cyl, xi, delta))

    def extend_dt(self, dt_delta, xi):
        """Time derivative of extend(delta, xi) for fixed xi: the extension of
        the product data dt_delta * xi (the operator itself is t-independent)."""
        return self._extend_source(
            BoundarySource(self.cyl, xi, delta=dt_delta, add_R=False)
        )

    def _extend_source(self, src):
        cyl = self.cyl
        flux = src.flux()
        sol0 = self.corrector.solver(0)
        rc, zc = sol0.r_nodes, sol0.z_nodes
        n_th = max(8, 4 * (self.max_m + 1))
        th = np.linspace(0.0, 2.0 * np.pi, n_th, endpoint=False)
        TT, ZZ = np.meshgrid(th, zc, indexing="ij")
        h, _, _ = src.tables(TT.ravel(), ZZ.ravel())
        H = np.fft.rfft(h.reshape(n_th, -1), axis=0) / n_th  # (n_th//2+1, nz)

        c_in = 8.0 / cyl.R**2
        base = c_in * np.ones((rc.size, 1))
        plug = flux * plug_radial_profile(cyl, rc)[0][:, None] * plug_axial_profile(
            cyl, zc, 1
        )[1][None, :]
        rhs = {(0, "cos"): base * H[0].real[None, :] + plug}
        for m in range(1, min(self.max_m, n_th // 2 - 1) + 1):
            rhs[(m, "cos")] = base * (2.0 * H[m].real)[None, :]
            rhs[(m, "sin")] = base * (-2.0 * H[m].imag)[None, :]
        corrector = self.corrector.correct_modes(rhs)
        return ExtensionField(cyl, src, flux, corrector)


class ExtensionField:
    """The assembled extension: evaluates value, gradient and divergence at
    physical cylindrical points of the closed fluid region."""

    physical_frame = True

    def __init__(self, cyl, source, flux, corrector):
        self.cyl = cyl
        self.source = source
        self.flux = flux
        self.corrector = corrector

    def tables(self, r, theta, z):
        """Cartesian value (3, Q), gradient (3, 3, Q) and divergence (Q)."""
        r = np.asarray(r, dtype=float).ravel()
        theta = np.asarray(theta, dtype=float).ravel()
        z = np.asarray(z, dtype=float).ravel()
        Q = r.size
        cyl = self.cyl
        h, ht, hz = self.source.tables(theta, z)
        val = np.zeros((3, Q))
        G = np.zeros((3, 3, Q))
        div = np.zeros(Q)

        out = r >= cyl.R / 2.0
        if out.any():
            ro, ho, hto, hzo = r[out], h[out], ht[out], hz[out]
            val[0, out] = ho / ro
            G[0, 0, out] = -ho / ro**2
            G[0, 1, out] = hto / ro**2
            G[0, 2, out] = hzo / ro
            G[1, 1, out] = ho / ro**2

        inn = ~out
        if inn.any():
            c4 = 4.0 / cyl.R**2
            ri, hi, hti, hzi = r[inn], h[inn], ht[inn], hz[inn]
            val[0, inn] = c4 * ri * hi
            G[0, 0, inn] = c4 * hi
            G[0, 1, inn] = c4 * hti
            G[0, 2, inn] = c4 * ri * hzi
            G[1, 1, inn] = c4 * hi
            a, da = plug_radial_profile(cyl, ri, 1)
            g, dg = plug_axial_profile(cyl, z[inn], 1)
            val[2, inn] = self.flux * a * g
            G[2, 0, inn] = self.flux * da * g
            G[2, 2, inn] = self.flux * a * dg
            div[inn] = 2.0 * c4 * hi + self.flux * a * dg

            wv, wG = self.corrector.tables(r, theta, z)
            val -= wv
            G -= wG
            div -= np.einsum("iiq->q", wG)

        return {
            "val": cyl_vec_to_cart(val[0], val[1], val[2], theta),
            "grad": cyl_tensor_to_cart(G, theta),
            "div": div,
        }

    def tables_from_jets(self, jets):
        """Evaluate at the physical node positions of moving-domain jets."""
        return self.tables(jets.r_phys, jets.theta, jets.z)

    def __call__(self, r, theta, z):
        return self.tables(r, theta, z)["val"]


# ---------------------------------------------------------------------------
# Piola transform


def push_piola(A, dA, ginv, phi_val, phi_grad):
    """Piola push-forward at reference nodes given ALE jets.

    A = grad(psi)/det, dA[i,j,a] its reference-space derivative, ginv the
    inverse deformation gradient.  Returns (val, grad) at the corresponding
    physical points with grad in physical coordinates.
    """
    val = np.einsum("ijq,jq->iq", A, phi_val)
    grad_ref = np.einsum("ijaq,jq->iaq", dA, phi_val) + np.einsum(
        "ijq,jaq->iaq", A, phi_grad
    )
    grad = np.einsum("iaq,abq->ibq", grad_ref, ginv)
    return val, grad


def push_piola_dt(A, dA, dt_A, dt_psi, ginv, phi_val, phi_grad):
    """Eulerian time derivative of the Piola field at fixed physical points."""
    _, grad = push_piola(A, dA, ginv, phi_val, phi_grad)
    return np.einsum("ijq,jq->iq", dt_A, phi_val) - np.einsum(
        "ibq,bq->iq", grad, dt_psi
    )


class PiolaField:
    """Piola transform of a reference-cylinder field under the shell motion.

    Parameterized by reference position: tables(r, theta, z) takes reference
    cylindrical coordinates and returns the transformed field at the image
    points (Jacobian-weighted push-forward, so discrete divergence-freeness
    and zero boundary traces survive the mapping).
    """

    def __init__(self, cyl, eta, phi, margin=None):
        if eta is not None:
            m = margin if margin is not None else 0.05 * cyl.R
            if not check_injectivity(eta, m, cyl=cyl):
                raise DomainViolation("shell displacement breaks domain injectivity")
        self.cyl = cyl
        self.eta = eta
        self.phi = phi

    def tables(self, r, theta, z):
        r = np.asarray(r, dtype=float).ravel()
        theta = np.asarray(theta, dtype=float).ravel()
        z = np.asarray(z, dtype=float).ravel()
        ref = self.phi.tables(r, theta, z)
        if self.eta is None:
            return {"val": ref["val"], "grad": ref["grad"],
                    "div": np.einsum("iiq->q", ref["grad"])}
        x, y = r * np.cos(theta), r * np.sin(theta)
        jets = ale_jets(self.cyl, self.eta, x, y, z, second=True)
        g, det = jets["grad"], jets["det"]
        dA = piola_derivative(g, jets["dgrad"], det)
        val, grad = push_piola(g / det, dA, _invert_grad(g), ref["val"], ref["grad"])
        return {"val": val, "grad": grad, "div": np.einsum("iiq->q", grad)}

    def tables_from_jets(self, jets):
        """Push the reference field through precomputed jets (the jets must
        come from the same shell motion that defines this transform)."""
        grid = jets.grid
        ref = self.phi.tables(grid.r, grid.theta, grid.z)
        if not jets.moving:
            return {"val": ref["val"], "grad": ref["grad"],
                    "div": np.einsum("iiq->q", ref["grad"])}
        val, grad = push_piola(jets.A, jets.dA, jets.ginv, ref["val"], ref["grad"])
        return {"val": val, "grad": grad, "div": np.einsum("iiq->q", grad)}

    def __call__(self, r, theta, z):
        return self.tables(r, theta, z)["val"]


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


def mollify_shell(field, eps):
    """Azimuthal mollification of a shell field (periodic-theta bases only).

    Multiplies the coefficients by azimuthal_damping — exactly convolution
    with a wrapped Gaussian, hence sup-norm non-increasing.
    """
    basis = field.basis
    if basis.boundary_mode != "periodic-theta":
        raise BasisMismatch("azimuthal mollification needs a periodic theta basis")
    return ShellField(basis, field.coefficients * azimuthal_damping(basis, eps))


def azimuthal_damping(basis, eps):
    """Per-mode transfer factors exp(-(m eps)^2 / 2) of the azimuthal
    mollifier, m the wavenumber of each mode of a periodic-theta basis."""
    m = np.array([basis.azimuthal_wavenumber(k) for k in range(basis.n_modes)])
    return np.exp(-0.5 * (m * eps) ** 2)
