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

    def sup_norm(self):
        return float(np.max(np.abs(self.value(*sup_grid(self.basis)))))


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


def ale_jets(cyl, delta, x, y, z, second=False, dt_delta=None):
    """Vectorized ALE jets at reference points given in Cartesian coordinates.

    Returns a dict with keys: psi (3,Q), grad (3,3,Q), det (Q); plus
    dgrad (3,3,3,Q) with dgrad[i,j,a] = d_a d_j psi_i when second=True; plus
    dt_psi, dt_grad, dt_det when the time derivative of delta is supplied.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    theta = np.arctan2(y, x)
    r2 = np.maximum(x * x + y * y, 1e-300)

    d = _delta_tables(cyl, delta, theta, z, 2 if second else 1)
    s, s_t, s_z = d["s"], d["s_t"], d["s_z"]

    th_x = -y / r2
    th_y = x / r2
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

    out = {"psi": psi, "grad": grad, "det": det, "theta": theta}

    if second:
        s_tt, s_tz, s_zz = d["s_tt"], d["s_tz"], d["s_zz"]
        th = np.zeros((3, Q))  # theta_a
        th[0], th[1] = th_x, th_y
        th2 = np.zeros((3, 3, Q))  # theta_ab
        th2[0, 0] = 2.0 * x * y / r2**2
        th2[0, 1] = th2[1, 0] = (y * y - x * x) / r2**2
        th2[1, 1] = -2.0 * x * y / r2**2
        ez = np.zeros((3, Q))
        ez[2] = 1.0
        # Cartesian Hessian of s via the chain rule through (theta, z)
        s_ab = (
            np.einsum("q,aq,bq->abq", s_tt, th, th)
            + np.einsum("q,abq->abq", s_t, th2)
            + np.einsum("q,aq,bq->abq", s_tz, th, ez)
            + np.einsum("q,aq,bq->abq", s_tz, ez, th)
            + np.einsum("q,aq,bq->abq", s_zz, ez, ez)
        )
        s_a = np.stack([s_x, s_y, s_z])
        xi = np.stack([x, y])
        dgrad = np.zeros((3, 3, 3, Q))
        for i in range(2):
            for j in range(3):
                for a in range(3):
                    term = xi[i] * s_ab[j, a]
                    if i == j:
                        term = term + s_a[a]
                    if i == a:
                        term = term + s_a[j]
                    dgrad[i, j, a] = term
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


def check_injectivity(eta, cyl):
    """True iff sup |eta| < cyl.sup_bound on a dense (4x oversampled) grid."""
    return eta.sup_norm() < cyl.sup_bound
