"""Reference cylinder geometry, the radial ALE map, and admissibility checks.

The deformation map sends a reference point (r, theta, z) of the cylinder of
radius R to ((R+d)/R r, theta, z) where d is the shell displacement at
(theta, z).  It moves no theta, so the jets computed here are given in the
cylindrical frame (e_r, e_theta, e_z) shared by a node and its image, the
frame of every table in the package.  ale_jets is the one owner of the
map's structure: the gradient, its inverse, the Piola factor and their
spatial and time derivatives are closed forms in the scaling s and its
partials, which the moving-domain quadrature and the basis transport
consume as given.
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


def _delta_tables(cyl, basis, delta, theta, z):
    """The scaling s = (R + delta)/R of the shell coefficients delta over
    basis, stacked with its derivatives as basis.evaluate orders them:
    [s, s_t, s_z, s_tt, s_tz, s_zz]."""
    comp = basis.evaluate(delta, theta, z, 2)
    out = comp / cyl.R
    out[0] = (cyl.R + comp[0]) / cyl.R
    return out


def ale_jets(cyl, basis, delta, r, theta, z, dt_delta=None):
    """Vectorized ALE jets, in the cylindrical frame (e_r, e_theta, e_z), at
    reference nodes (r, theta, z) (Q,) of the shell motion with coefficients
    delta (n_modes,) over the ShellBasis basis.

    The map (r, theta, z) -> (s r, theta, z) moves no theta, so a node and
    its image share one frame, and every jet is a closed form in the
    scaling s = (R + eta) / R and its partials.  Returns a dict with keys: r_phys (Q), the
    gradient grad (3,3,Q) = [[s, s_t, r s_z], [0, s, 0], [0, 0, 1]] with
    row i (d_r, d_theta / r, d_z) of component i, det (Q) = s^2, its
    inverse ginv = [[1/s, -s_t/s^2, -r s_z/s], [0, 1/s, 0], [0, 0, 1]], the
    Piola factor A = grad / s^2, and dgrad and dA (3,3,3,Q), [..., a] the
    frame derivative along e_a: d_r, then (d_theta + [K, .]) / r with the
    frame's turning K = [[0, -1, 0], [1, 0, 0], [0, 0, 0]], then d_z.  The
    frame derivative of s is (0, s_t / r, s_z), and the turning changes no
    determinant, so dA = dgrad / s^2 - A (x) 2 (0, s_t / r, s_z) / s.  With
    the coefficients dt_delta of the time derivative of delta it adds the
    node velocity dt_psi (a frame vector), dt_grad, dt_det = 2 s s' and
    dt_A = dt_grad / s^2 - A 2 s' / s.
    """
    s, s_t, s_z, s_tt, s_tz, s_zz = _delta_tables(cyl, basis, delta, theta, z)
    Q = r.size
    inv_r = 1.0 / r
    grad = np.zeros((3, 3, Q))
    grad[0, 0] = grad[1, 1] = s
    grad[0, 1] = s_t
    grad[0, 2] = r * s_z
    grad[2, 2] = 1.0
    # d_r grad has s_z at (0, 2); the theta slot is [[0, s_tt, r s_tz],
    # [0, 2 s_t, r s_z], 0] / r; d_z grad is that of s, s_t, r s_z
    dgrad = np.zeros((3, 3, 3, Q))
    dgrad[0, 2, 0] = dgrad[0, 0, 2] = dgrad[1, 1, 2] = dgrad[1, 2, 1] = s_z
    dgrad[0, 1, 1] = s_tt * inv_r
    dgrad[0, 2, 1] = dgrad[0, 1, 2] = s_tz
    dgrad[1, 1, 1] = 2.0 * s_t * inv_r
    dgrad[0, 2, 2] = r * s_zz
    det = s * s
    inv_s = 1.0 / s
    ginv = np.zeros((3, 3, Q))
    ginv[0, 0] = ginv[1, 1] = inv_s
    ginv[0, 1] = -s_t / det
    ginv[0, 2] = -r * s_z * inv_s
    ginv[2, 2] = 1.0
    A = grad / det
    dA = dgrad / det
    dA[:, :, 1] -= A * (2.0 * s_t * inv_r * inv_s)
    dA[:, :, 2] -= A * (2.0 * s_z * inv_s)
    out = {"r_phys": s * r, "grad": grad, "det": det, "dgrad": dgrad,
           "ginv": ginv, "A": A, "dA": dA}

    if dt_delta is not None:
        # dt_delta enters grad exactly like delta does: the entries are
        # linear in (s, s_theta, s_z), and the time derivative of s is
        # ddot / R, taken as such rather than as (R + ddot) / R - 1, which
        # keeps only about 1e-16 R / |ddot| of its relative accuracy
        sd, sd_t, sd_z = basis.evaluate(dt_delta, theta, z, 1) / cyl.R
        dt_grad = np.zeros((3, 3, Q))
        dt_grad[0, 0] = dt_grad[1, 1] = sd
        dt_grad[0, 1] = sd_t
        dt_grad[0, 2] = r * sd_z
        out["dt_psi"] = np.stack([r * sd, np.zeros(Q), np.zeros(Q)])
        out["dt_grad"] = dt_grad
        out["dt_det"] = 2.0 * s * sd
        out["dt_A"] = dt_grad / det - A * (2.0 * sd * inv_s)

    return out


def admissibility(cyl, basis, coefficients):
    """sup |eta| on the sup_grid of every row of shell coefficients
    (..., n_modes), as one product with the basis's mode table there
    (ShellBasis.sup_table), and the flat index of the first row whose sup
    is not below cyl.sup_bound (None when every row keeps the deformed
    domain admissible).

    This is the one admissibility test made in the package: assemble, the
    outer loop, solve_ivp (every state it reaches) and
    diagnostics.coupling_residuals all decide with it."""
    table = basis.sup_table
    sup = np.max(np.abs(np.asarray(coefficients, dtype=float) @ table), axis=-1)
    bad = np.flatnonzero(~(sup < cyl.sup_bound))
    return sup, (int(bad[0]) if bad.size else None)


def check_injectivity(cyl, basis, coefficients):
    """True iff sup |eta| < cyl.sup_bound on a dense (4x oversampled) grid,
    for the shell coefficients (n_modes,) of eta over basis.  No package
    code calls it; perfbench/spans.py times it by name."""
    return admissibility(cyl, basis, coefficients)[1] is None
