"""Quadrature grids on the reference fluid cylinder and pulled-back jets of
the moving domain.

All moving-domain fluid integrals are evaluated by pulling back to the fixed
reference cylinder: nodes are a tensor product of a composite Gauss rule in r
(elements [0, R/4], [R/4, R/2], [R/2, R], matching the piecewise structure of
the extension operator), a uniform periodic rule in theta and Gauss in z.
`QuadJets` bundles what the moving-domain tables need at those nodes for a
given shell motion: physical positions, the deformation gradient and its
inverse, the Piola factor with its spatial and time derivatives, and the
Jacobian weight.

Gradient convention everywhere: grad[i, j] = d u_i / d x_j (row = component).
"""

from functools import cached_property

import numpy as np

from .basis1d import gauss
from .geometry import ReferencePoints, ale_jets


def cyl_vec_to_cart(vr, vt, vz, theta):
    """Cartesian components of v_r e_r + v_t e_theta + v_z e_z: shape
    (..., 3, Q) for components of shape (..., Q), any leading field axes."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([vr * c - vt * s, vr * s + vt * c, vz], axis=-2)


def cyl_tensor_to_cart(G, theta):
    """Rotate frame tensors G[..., i, j, :] (i component, j direction) to
    Cartesian: R G R^T with R = [e_r e_t e_z], vectorized over the trailing
    node axis and any leading field axes."""
    c, s = np.cos(theta), np.sin(theta)
    RG = np.empty_like(G)  # rotate the rows
    RG[..., 0, :, :] = c * G[..., 0, :, :] - s * G[..., 1, :, :]
    RG[..., 1, :, :] = s * G[..., 0, :, :] + c * G[..., 1, :, :]
    RG[..., 2, :, :] = G[..., 2, :, :]
    out = np.empty_like(G)  # then the columns
    out[..., 0, :] = c * RG[..., 0, :] - s * RG[..., 1, :]
    out[..., 1, :] = s * RG[..., 0, :] + c * RG[..., 1, :]
    out[..., 2, :] = RG[..., 2, :]
    return out


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
        self.x = self.r * np.cos(self.theta)
        self.y = self.r * np.sin(self.theta)
        self.n_nodes = self.r.size
        self._r1, self._wr1 = r1, wr1
        self._th1, self._wt1 = th1, wt1

    @cached_property
    def points(self):
        """The nodes as ReferencePoints, with the motion-independent parts
        of their ALE jets; built with the first sample."""
        return ReferencePoints(self.x, self.y, self.z)

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
    node coordinates; det (Q); weight (quadrature weight times det); grad,
    ginv, A = grad/det, dA[i,j,a] = d_a A[i,j]; and the time derivatives
    dt_psi, dt_A, dt_det.
    """

    def __init__(self, grid, shell_basis, delta, dt_delta):
        self.grid = grid
        self.delta = delta
        self.dt_delta = dt_delta
        jets = ale_jets(grid.cyl, shell_basis, delta, grid.points, dt_delta=dt_delta)
        psi = jets["psi"]
        self.r_phys = np.hypot(psi[0], psi[1])
        self.theta = grid.theta
        self.z = grid.z
        self.det = jets["det"]
        g = self.grad = jets["grad"]
        self.ginv = _invert_grad(g)
        self.A = g / self.det
        self.dA = piola_derivative(g, jets["dgrad"], self.det)
        self.dt_psi = jets["dt_psi"]
        self.dt_det = jets["dt_det"]
        self.dt_A = jets["dt_grad"] / self.det - g * (self.dt_det / self.det**2)
        self.weight = grid.w * self.det


def piola_derivative(g, dgrad, det):
    """dA[i, j, a] = d_a A[i, j] of the Piola factor A = g / det, from the ALE
    gradient g (third row (0, 0, 1), so det g is its leading 2 x 2 minor),
    its derivatives dgrad[i, j, a] = d_a g[i, j] and det = det g."""
    ddet = (
        dgrad[0, 0] * g[1, 1][None]
        + g[0, 0][None] * dgrad[1, 1]
        - dgrad[0, 1] * g[1, 0][None]
        - g[0, 1][None] * dgrad[1, 0]
    )  # (3, Q): d_a det
    return dgrad / det - np.einsum("ijq,aq->ijaq", g, ddet / det**2)


def _invert_grad(g):
    """Inverse of the ALE deformation gradient (third row is (0, 0, 1))."""
    det2 = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    inv = np.zeros_like(g)
    inv[0, 0] = g[1, 1] / det2
    inv[0, 1] = -g[0, 1] / det2
    inv[1, 0] = -g[1, 0] / det2
    inv[1, 1] = g[0, 0] / det2
    inv[2, 2] = 1.0
    # third column: solve for the z-derivative part: -inv2x2 @ g[:2, 2]
    inv[0, 2] = -(inv[0, 0] * g[0, 2] + inv[0, 1] * g[1, 2])
    inv[1, 2] = -(inv[1, 0] * g[0, 2] + inv[1, 1] * g[1, 2])
    return inv
