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


class ShellField:
    """Scalar field on omega = (0, 2pi) x (0, L) expanded on a shell basis.

    Reused for the displacement eta, the prescribed motion delta and test
    functions xi.  The basis object supplies mode evaluation tables; see
    shell_solid.ShellBasis.
    """

    def __init__(self, basis, coefficients):
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (basis.n_modes,):
            raise ValueError(
                f"expected {basis.n_modes} coefficients, got {coefficients.shape}"
            )
        self.basis = basis
        self.coefficients = coefficients

    def evaluate(self, theta, z, nderiv=0):
        """Return derivatives stacked as (ncomp, npts): [val], [val, d_theta,
        d_z] or [val, d_theta, d_z, d_tt, d_tz, d_zz]."""
        tab = self.basis.eval_modes(theta, z, nderiv)
        return np.einsum("k,kcx->cx", self.coefficients, tab)

    def value(self, theta, z):
        return self.evaluate(theta, z, 0)[0]


def sup_grid(basis):
    """Flattened (theta, z) of the dense (4x oversampled) tensor grid on
    which sup norms of shell fields are sampled."""
    nt = max(8, 4 * basis.n_theta)
    nz = max(8, 4 * basis.n_z) + 2
    theta = np.linspace(0.0, 2.0 * np.pi, nt, endpoint=False)
    z = np.linspace(0.0, basis.L, nz)
    tt, zz = np.meshgrid(theta, z, indexing="ij")
    return tt.ravel(), zz.ravel()


def _delta_tables(cyl, delta, theta, z, nderiv):
    """Evaluate delta and scaled derivative combinations s = (R+delta)/R."""
    comp = delta.evaluate(theta, z, nderiv)
    R = cyl.R
    out = {"s": (R + comp[0]) / R}
    if nderiv >= 1:
        out["s_t"] = comp[1] / R
        out["s_z"] = comp[2] / R
    if nderiv >= 2:
        out["s_tt"] = comp[3] / R
        out["s_tz"] = comp[4] / R
        out["s_zz"] = comp[5] / R
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


def ale_jets(cyl, delta, pts, second=False, dt_delta=None):
    """Vectorized ALE jets at the ReferencePoints pts.

    Returns a dict with keys: psi (3,Q), grad (3,3,Q), det (Q); plus
    dgrad (3,3,3,Q) with dgrad[i,j,a] = d_a d_j psi_i when second=True; plus
    dt_psi, dt_grad, dt_det when the time derivative of delta is supplied.
    """
    x, y, z, theta = pts.x, pts.y, pts.z, pts.theta
    d = _delta_tables(cyl, delta, theta, z, 2 if second else 1)
    s, s_t, s_z = d["s"], d["s_t"], d["s_z"]

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

    out = {"psi": psi, "grad": grad, "det": det}

    if second:
        # Cartesian Hessian of s via the chain rule through (theta, z)
        coef = np.stack([d["s_tt"], s_t, d["s_tz"], d["s_zz"]])
        s_ab = np.einsum("kq,kabq->abq", coef, pts.hessian_tables)
        s_a = np.stack([s_x, s_y, s_z])
        dgrad = np.zeros((3, 3, 3, Q))
        dgrad[:2] = np.stack([x, y])[:, None, None] * s_ab
        for i in range(2):
            dgrad[i, i] += s_a
            dgrad[i, :, i] += s_a
        out["dgrad"] = dgrad

    if dt_delta is not None:
        dd = _delta_tables(cyl, dt_delta, theta, z, 1)
        # dt_delta enters psi and grad exactly like delta does: the entries
        # are linear in (s, s_theta, s_z)
        sd = dd["s"] - 1.0  # (R + ddot)/R - 1 = ddot/R
        sd_t, sd_z = dd["s_t"], dd["s_z"]
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

    This is the one admissibility test: check_injectivity, assemble and the
    outer loop all decide with it."""
    table = basis.eval_modes(*sup_grid(basis), 0)[:, 0]
    sup = np.max(np.abs(np.asarray(coefficients, dtype=float) @ table), axis=-1)
    bad = np.flatnonzero(~(sup < cyl.sup_bound))
    return sup, (int(bad[0]) if bad.size else None)


def check_injectivity(eta, cyl):
    """True iff sup |eta| < cyl.sup_bound on a dense (4x oversampled) grid."""
    return admissibility(cyl, eta.basis, eta.coefficients)[1] is None
