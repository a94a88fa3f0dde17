"""Quadrature grids on the reference fluid cylinder and pulled-back jets of
the moving domain.

All moving-domain fluid integrals are evaluated by pulling back to the fixed
reference cylinder: nodes are a tensor product of a composite Gauss rule in r
(elements [0, R/4], [R/4, R/2], [R/2, R], matching the piecewise structure of
the extension operator), a uniform periodic rule in theta and Gauss in z.
`QuadJets` binds what the moving-domain tables need at those nodes for a
given shell motion, as geometry.ale_jets gives it in closed form: physical
radii, the inverse of the deformation gradient, the Piola factor with its
spatial and time derivatives, and the Jacobian weight.

Convention everywhere: vectors and tensors are given by their components in
the orthonormal cylindrical frame (e_r, e_theta, e_z) at their node, and
grad[i, j] is the derivative of component i along e_j (row = component).
The radial ALE map moves no theta, so a reference node and its physical
image share one frame.
"""

import numpy as np

from .basis1d import gauss
from .geometry import ale_jets


def frame_tables(u, du, r):
    """Frame gradients (..., 3, 3, Q) and divergences (..., Q) of fields
    with cylindrical components u (..., 3, Q) and their partials du
    (..., 3, 3, Q), row i (d_r u_i, d_theta u_i, d_z u_i), at radii r (Q,).
    du becomes the gradient in place: row i (d_r u_i, d_theta u_i / r,
    d_z u_i), plus the turning of the frame, -u_theta / r in entry (0, 1)
    and u_r / r in entry (1, 1)."""
    inv_r = 1.0 / r
    du[..., 1, :] *= inv_r
    du[..., 0, 1, :] -= u[..., 1, :] * inv_r
    du[..., 1, 1, :] += u[..., 0, :] * inv_r
    return du, du[..., 0, 0, :] + du[..., 1, 1, :] + du[..., 2, 2, :]


def component_tables(comp, f, f_r, f_t, f_z, r):
    """Tables of F fields with one frame component each: field k is
    f[k] times the frame vector comp[k] in {0: e_r, 1: e_theta, 2: e_z},
    with partials f_r[k], f_t[k], f_z[k] (each (F, Q)).  Returns the val
    (F, 3, Q) and grad (F, 3, 3, Q) in the orthonormal cylindrical frame
    (e_r, e_theta, e_z) and the div (F, Q)."""
    F, Q = f.shape
    k = np.arange(F)
    val = np.zeros((F, 3, Q))
    val[k, comp] = f
    grad = np.zeros((F, 3, 3, Q))
    grad[k, comp, 0], grad[k, comp, 1], grad[k, comp, 2] = f_r, f_t, f_z
    grad, div = frame_tables(val, grad, r)
    return {"val": val, "grad": grad, "div": div}


def unit_frame_tables(m, comp, f, df, r):
    """Trig-stripped frame gradients (F, 3, 3, Q) and divergences (F, Q) of
    the unit fields f[k](r) zeta(z) e_comp of wavenumber m, with radial
    profiles f and their derivatives df (F, Q) at radii r (Q,).  Columns 0
    and 1 multiply zeta and column 2 zeta', so the divergence multiplies
    zeta' for the axial component and zeta for the others.  An entry of the
    cos-parity field is the entry here times cos or sin of m theta, and of
    its sin twin sin or -cos: by linearity, G_cos(0) - G_sin(0) (G_axi(0)
    for m = 0) is one call with the differences of the theta factors."""
    T, dT = azimuthal_factors(m, "cos" if m else "axi", np.zeros(1))
    if m:
        Ts, dTs = azimuthal_factors(m, "sin", np.zeros(1))
        T, dT = T - Ts, dT - dTs
    t, dt = T[comp], dT[comp]
    tab = component_tables(np.full(len(f), comp), t * f, t * df, dt * f, t * f, r)
    return tab["grad"], tab["div"]


def azimuthal_factors(m, parity, theta):
    """The theta factors T (3, Q) of the r, theta and z components of a
    field of wavenumber m, and their theta derivatives dT: a field of
    parity "cos" is (f_r cos, f_t sin, f_z cos)(m theta), its rotated twin
    "sin" is (f_r sin, -f_t cos, f_z sin)(m theta), and "axi" (m = 0 only)
    is (f_r, f_t, f_z), swirl included."""
    if parity == "axi":
        if m != 0:
            raise ValueError("axisymmetric parity requires m = 0")
        return np.ones((3, theta.size)), np.zeros((3, theta.size))
    c, s = np.cos(m * theta), np.sin(m * theta)
    if parity == "cos":
        return np.stack([c, s, c]), m * np.stack([-s, c, -s])
    return np.stack([s, -c, s]), m * np.stack([c, s, c])


class FluidGrid:
    """Tensor quadrature over the reference fluid cylinder."""

    def __init__(self, cyl, n_r=10, n_theta=4, n_z=20):
        self.cyl = cyl
        R, L = cyl.R, cyl.L
        self.breaks = np.array([0.0, R / 4.0, R / 2.0, R])
        rs, wrs = [], []
        for a, b in zip(self.breaks[:-1], self.breaks[1:]):
            x, w = gauss(n_r, a, b)
            rs.append(x)
            wrs.append(w)
        r1, wr1 = np.concatenate(rs), np.concatenate(wrs)
        th1 = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
        wt1 = np.full(n_theta, 2.0 * np.pi / n_theta)
        z1, wz1 = gauss(n_z, 0.0, L)
        RR, TT, ZZ = np.meshgrid(r1, th1, z1, indexing="ij")
        WW = (
            wr1[:, None, None] * wt1[None, :, None] * wz1[None, None, :]
        ) * RR
        self.r = RR.ravel()
        self.theta = TT.ravel()
        self.z = ZZ.ravel()
        self.w = WW.ravel()
        self.n_nodes = self.r.size
        self._r1, self._wr1 = r1, wr1
        self._th1, self._wt1 = th1, wt1

    def disk(self, z0):
        """Quadrature over the inlet/outlet disk at z = z0: (r, theta, w)."""
        RR, TT = np.meshgrid(self._r1, self._th1, indexing="ij")
        WW = (self._wr1[:, None] * self._wt1[None, :]) * RR
        return RR.ravel(), TT.ravel(), WW.ravel(), np.full(RR.size, z0)


class QuadJets:
    """ALE jets of a shell motion evaluated on a FluidGrid.

    delta and dt_delta are the coefficient vectors (n_modes,) over the
    ShellBasis shell_basis of the shell displacement and its time
    derivative; the rest cylinder is delta = dt_delta = 0, where every jet
    is exactly the identity and every time derivative exactly zero.
    Attributes: grid; delta; dt_delta; r_phys/theta/z physical cylindrical
    node coordinates; det (Q); weight (quadrature weight times det); and
    the closed forms of geometry.ale_jets at the nodes that the tables
    read: the frame tensors ginv, A = grad/det and dA[i,j,a], the frame
    derivative of A[i,j] along e_a, and the time derivatives dt_psi (the
    node velocity, a frame vector), dt_A, dt_det.  The deformation
    gradient grad and its derivatives are not kept: no table reads them,
    and geometry.ale_jets gives them.
    """

    def __init__(self, grid, shell_basis, delta, dt_delta):
        self.grid = grid
        self.delta = delta
        self.dt_delta = dt_delta
        jets = ale_jets(grid.cyl, shell_basis, delta, grid.r, grid.theta, grid.z,
                        dt_delta=dt_delta)
        self.r_phys = jets["r_phys"]
        self.theta = grid.theta
        self.z = grid.z
        self.det = jets["det"]
        self.ginv = jets["ginv"]
        self.A, self.dA, self.dt_A = jets["A"], jets["dA"], jets["dt_A"]
        self.dt_psi = jets["dt_psi"]
        self.dt_det = jets["dt_det"]
        self.weight = grid.w * self.det
