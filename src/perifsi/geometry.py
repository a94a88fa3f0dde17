"""Reference cylinder geometry, the radial ALE map, and admissibility checks.

The deformation map sends a reference point (x, y, z) of the cylinder of
radius R to ((R+d)/R x, (R+d)/R y, z) where d is the shell displacement at the
angular coordinates of the point.  The moving-domain quadrature and the
basis transport consume the jets computed here, so the gradient and its
spatial/time derivatives are all analytic.
"""

from dataclasses import dataclass

import numpy as np

MARGIN_FRAC = 0.05  # admissibility margin, as a fraction of R


@dataclass(frozen=True)
class CylinderConfig:
    """Reference cylinder of radius R and length L with a solid annulus of
    thickness H on the outside."""

    R: float
    L: float
    H: float

    def __post_init__(self):
        if not (self.R > 0 and self.L > 0 and self.H > 0):
            raise ValueError("R, L, H must all be positive")

    @property
    def sup_bound(self):
        """The bound R - MARGIN_FRAC R that sup |eta| must stay strictly
        below for the deformed domain to be admissible."""
        return self.R - MARGIN_FRAC * self.R


def sup_grid(basis):
    """Flattened (theta, z) of the dense (4x oversampled) tensor grid on
    which sup norms of shell fields are sampled."""
    nt = max(8, 4 * basis.n_theta)
    nz = max(8, 4 * basis.n_z) + 2
    theta = np.linspace(0.0, 2.0 * np.pi, nt, endpoint=False)
    z = np.linspace(0.0, basis.L, nz)
    tt, zz = np.meshgrid(theta, z, indexing="ij")
    return tt.ravel(), zz.ravel()


def _delta_tables(cyl, basis, delta, theta, z, nderiv):
    """The scaling s = (R + delta)/R of the shell coefficients delta over
    basis, stacked with its derivatives as basis.evaluate orders them:
    [s, s_t, s_z] for nderiv 1, then s_tt, s_tz, s_zz for nderiv 2."""
    comp = basis.evaluate(delta, theta, z, nderiv)
    out = comp / cyl.R
    out[0] = (cyl.R + comp[0]) / cyl.R
    return out


class ReferencePoints:
    """Reference points of the cylinder, given in Cartesian coordinates,
    with the parts of their ALE jets that no shell motion moves: the angle
    theta = arctan2(y, x) at which delta is evaluated, its Cartesian
    gradient theta_a (3, Q), and the four tables (4, 3, 3, Q) whose
    combination with (s_tt, s_t, s_tz, s_zz) is the Cartesian Hessian of
    any s(theta, z): theta_a theta_b, theta_ab, theta_a e_b + e_a theta_b
    and e_a e_b, e = e_z."""

    def __init__(self, x, y, z):
        x, y, z = (np.asarray(v, dtype=float).ravel() for v in (x, y, z))
        self.x, self.y, self.z = x, y, z
        self.theta = np.arctan2(y, x)
        r2 = np.maximum(x * x + y * y, 1e-300)
        th = np.zeros((3, x.size))
        th[0], th[1] = -y / r2, x / r2
        ez = np.zeros((3, x.size))
        ez[2] = 1.0
        th2 = np.zeros((3, 3, x.size))
        th2[0, 0] = 2.0 * x * y / r2**2
        th2[0, 1] = th2[1, 0] = (y * y - x * x) / r2**2
        th2[1, 1] = -2.0 * x * y / r2**2
        self.theta_grad = th
        self.hessian_tables = np.stack([
            th[:, None] * th[None], th2, th[:, None] * ez[None] + ez[:, None] * th[None],
            ez[:, None] * ez[None]])


def ale_jets(cyl, basis, delta, pts, dt_delta=None):
    """Vectorized ALE jets at the ReferencePoints pts of the shell motion
    with coefficients delta (n_modes,) over the ShellBasis basis.

    Returns a dict with keys: psi (3,Q), grad (3,3,Q), det (Q) and dgrad
    (3,3,3,Q) with dgrad[i,j,a] = d_a d_j psi_i; plus dt_psi, dt_grad,
    dt_det when the coefficients dt_delta of the time derivative of delta
    are supplied.
    """
    x, y, z, theta = pts.x, pts.y, pts.z, pts.theta
    s, s_t, s_z, s_tt, s_tz, s_zz = _delta_tables(cyl, basis, delta, theta, z, 2)

    th_x, th_y = pts.theta_grad[:2]
    s_x = s_t * th_x
    s_y = s_t * th_y

    Q = x.size
    psi = np.stack([s * x, s * y, z])
    grad = np.zeros((3, 3, Q))
    grad[0, 0] = s + x * s_x
    grad[0, 1] = x * s_y
    grad[0, 2] = x * s_z
    grad[1, 0] = y * s_x
    grad[1, 1] = s + y * s_y
    grad[1, 2] = y * s_z
    grad[2, 2] = 1.0
    det = grad[0, 0] * grad[1, 1] - grad[0, 1] * grad[1, 0]

    # Cartesian Hessian of s via the chain rule through (theta, z)
    coef = np.stack([s_tt, s_t, s_tz, s_zz])
    s_ab = np.einsum("kq,kabq->abq", coef, pts.hessian_tables)
    s_a = np.stack([s_x, s_y, s_z])
    dgrad = np.zeros((3, 3, 3, Q))
    dgrad[:2] = np.stack([x, y])[:, None, None] * s_ab
    for i in range(2):
        dgrad[i, i] += s_a
        dgrad[i, :, i] += s_a

    out = {"psi": psi, "grad": grad, "det": det, "dgrad": dgrad}

    if dt_delta is not None:
        s_dot, sd_t, sd_z = _delta_tables(cyl, basis, dt_delta, theta, z, 1)
        # dt_delta enters psi and grad exactly like delta does: the entries
        # are linear in (s, s_theta, s_z)
        sd = s_dot - 1.0  # (R + ddot)/R - 1 = ddot/R
        sd_x = sd_t * th_x
        sd_y = sd_t * th_y
        dt_psi = np.stack([sd * x, sd * y, np.zeros(Q)])
        dt_grad = np.zeros((3, 3, Q))
        dt_grad[0, 0] = sd + x * sd_x
        dt_grad[0, 1] = x * sd_y
        dt_grad[0, 2] = x * sd_z
        dt_grad[1, 0] = y * sd_x
        dt_grad[1, 1] = sd + y * sd_y
        dt_grad[1, 2] = y * sd_z
        dt_det = (
            dt_grad[0, 0] * grad[1, 1]
            + grad[0, 0] * dt_grad[1, 1]
            - dt_grad[0, 1] * grad[1, 0]
            - grad[0, 1] * dt_grad[1, 0]
        )
        out["dt_psi"] = dt_psi
        out["dt_grad"] = dt_grad
        out["dt_det"] = dt_det

    return out


def admissibility(cyl, basis, coefficients):
    """sup |eta| on the sup_grid of every row of shell coefficients
    (..., n_modes), as one product with the memoized mode table, and the
    flat index of the first row whose sup is not below cyl.sup_bound (None
    when every row keeps the deformed domain admissible).

    This is the one admissibility test made in the package: assemble, the
    outer loop, solve_ivp (every state it reaches) and
    diagnostics.coupling_residuals all decide with it."""
    table = basis.eval_modes(*sup_grid(basis), 0)[:, 0]
    sup = np.max(np.abs(np.asarray(coefficients, dtype=float) @ table), axis=-1)
    bad = np.flatnonzero(~(sup < cyl.sup_bound))
    return sup, (int(bad[0]) if bad.size else None)


def check_injectivity(cyl, basis, coefficients):
    """True iff sup |eta| < cyl.sup_bound on a dense (4x oversampled) grid,
    for the shell coefficients (n_modes,) of eta over basis.  No package
    code calls it; perfbench/spans.py times it by name."""
    return admissibility(cyl, basis, coefficients)[1] is None
