"""Clamped shell basis with the biharmonic form, and the solid annulus basis
with the viscoelastic Lame form.

The shell is the closed lateral wall of the cylinder, so it is 2 pi-periodic
in theta and clamped at the ends z = 0, L: its modes are tensor products of a
trigonometric azimuthal family with clamped Euler-Bernoulli beam
eigenfunctions in z.  Solid modes
live on the annulus r in (R, R+H): a lifted family s(r) Y_k(theta, z) e_r that
carries the shell trace into the solid, plus interior modes vanishing on the
interface and on the solid inlet/outlet rings while leaving the outer surface
traction-free.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis1d import BeamFamily, TrigFamily, gauss
from .fluidgrid import component_tables
from .geometry import sup_grid


class ShellBasis:
    """Tensor basis of the shell displacement space on omega."""

    def __init__(self, n_theta, n_z, L):
        if n_theta < 1 or n_z < 1:
            raise ValueError("mode counts must be at least 1")
        self.n_theta = int(n_theta)
        self.n_z = int(n_z)
        self.L = float(L)
        self._theta_family = TrigFamily(self.n_theta)
        self._z_family = BeamFamily(self.n_z, self.L)
        self._tab_cache = {}

    @property
    def n_modes(self):
        return self.n_theta * self.n_z

    def mode_index(self, k):
        """Split flat mode index into (theta index, z index)."""
        if not 0 <= k < self.n_modes:
            raise IndexError(f"mode index {k} out of range [0, {self.n_modes})")
        return divmod(k, self.n_z)

    def azimuthal_wavenumber(self, k):
        """Azimuthal wavenumber m of mode k."""
        it, _ = self.mode_index(k)
        return self._theta_family.mode_m(it)

    @property
    def max_azimuthal_wavenumber(self):
        return max(self.azimuthal_wavenumber(k) for k in range(self.n_modes))

    def eval_modes(self, theta, z, nderiv=0):
        """Mode table (n_modes, ncomp, npts) with derivative components
        [val], [val, d_t, d_z] or [val, d_t, d_z, d_tt, d_tz, d_zz].

        Tables are memoized on the node bytes themselves (a hash alone could
        alias two node sets), so repeated evaluation over a fixed quadrature
        grid costs one coefficient contraction.
        """
        theta = np.asarray(theta, dtype=float).ravel()
        z = np.asarray(z, dtype=float).ravel()
        if theta.size != z.size:
            raise ValueError("theta and z node arrays must have equal length")
        key = (theta.tobytes(), z.tobytes(), nderiv)
        hit = self._tab_cache.get(key)
        if hit is not None:
            return hit
        tt = self._theta_family.eval_table(theta, nderiv)
        tz = self._z_family.eval_table(z, nderiv)
        combos = [(0, 0)]
        if nderiv >= 1:
            combos += [(1, 0), (0, 1)]
        if nderiv >= 2:
            combos += [(2, 0), (1, 1), (0, 2)]
        out = np.empty((self.n_modes, len(combos), theta.size))
        for k in range(self.n_modes):
            it, iz = self.mode_index(k)
            for c, (dt, dz) in enumerate(combos):
                out[k, c] = tt[it, dt] * tz[iz, dz]
        if len(self._tab_cache) > 16:
            self._tab_cache.clear()
        self._tab_cache[key] = out
        return out

    @cached_property
    def sup_table(self):
        """The modes (n_modes, n_sup) on geometry.sup_grid, read-only, built
        once per basis: geometry.admissibility samples sup norms with it on
        every call."""
        table = self.eval_modes(*sup_grid(self), 0)[:, 0]
        table.flags.writeable = False
        return table

    def evaluate(self, coefficients, theta, z, nderiv):
        """The field with coefficients (n_modes,) over this basis at the
        nodes (theta, z), its derivatives stacked as (ncomp, npts) like
        eval_modes' components.  ValueError for another coefficient
        count."""
        return np.einsum("k,kcx->cx", coefficients, self.eval_modes(theta, z, nderiv))

    def quadrature(self, refine=1):
        """Tensor quadrature over omega: (theta, z, w) flattened arrays.

        Exact for products of basis functions up to quadrature accuracy; the
        azimuthal rule is a uniform (trapezoidal) grid, which is spectrally
        exact for trigonometric integrands.
        """
        nt = max(4, 2 * self.n_theta + 2) * refine
        theta = np.linspace(0.0, 2.0 * np.pi, nt, endpoint=False)
        wt = np.full(nt, 2.0 * np.pi / nt)
        nz = 3 * self.n_z + 12 * refine
        z, wz = gauss(nz, 0.0, self.L)
        TT, ZZ = np.meshgrid(theta, z, indexing="ij")
        WW = np.outer(wt, wz)
        return TT.ravel(), ZZ.ravel(), WW.ravel()


def shell_matrices(basis, mode_indices=None):
    """Mass and biharmonic stiffness matrices over the selected shell modes."""
    if mode_indices is None:
        mode_indices = range(basis.n_modes)
    idx = list(mode_indices)
    theta, z, w = basis.quadrature()
    tab = basis.eval_modes(theta, z, 2)[idx]
    M = np.einsum("jx,kx,x->jk", tab[:, 0], tab[:, 0], w)
    K = (
        np.einsum("jx,kx,x->jk", tab[:, 3], tab[:, 3], w)
        + 2.0 * np.einsum("jx,kx,x->jk", tab[:, 4], tab[:, 4], w)
        + np.einsum("jx,kx,x->jk", tab[:, 5], tab[:, 5], w)
    )
    return M, K


@dataclass(frozen=True)
class SolidParams:
    """Lame constants, viscoelastic coefficient and solid density.

    Defaults give the normalized model with all coefficients set to 1.
    The paper's time-periodic existence result assumes delta_visc > 0; the
    discrete periodic solve does not need it and also runs at
    delta_visc = 0.
    """

    lambda1: float = 1.0
    lambda2: float = 1.0
    delta_visc: float = 1.0
    rho_s2: float = 1.0

    def __post_init__(self):
        if self.lambda1 <= 0:
            raise ValueError("lambda1 > 0 required")
        if self.lambda2 < 0:
            raise ValueError("lambda2 >= 0 required")
        if self.delta_visc < 0:
            raise ValueError("delta_visc >= 0 required")
        if self.rho_s2 <= 0:
            raise ValueError("rho_s2 > 0 required")


def cutoff_profile(cyl, r, nderiv=0):
    """Cubic Hermite cutoff s on [R, R+H]: s(R)=1, s'(R)=0, s(R+H)=0,
    s'(R+H)=0.  Returns stacked derivatives (nderiv+1, npts)."""
    r = np.asarray(r, dtype=float).ravel()
    u = (r - cyl.R) / cyl.H
    out = [(1.0 - u) ** 2 * (1.0 + 2.0 * u)]
    if nderiv >= 1:
        out.append(6.0 * u * (u - 1.0) / cyl.H)
    if nderiv >= 2:
        out.append((12.0 * u - 6.0) / cyl.H**2)
    return np.stack(out)


class SolidGrid:
    """Tensor quadrature over the solid annulus (r, theta, z)."""

    def __init__(self, cyl, shell_basis, n_r=12):
        self.cyl = cyl
        r, wr = gauss(n_r + 4, cyl.R, cyl.R + cyl.H)
        theta, z, wtz = shell_basis.quadrature()
        ntz = theta.size
        self.r = np.repeat(r, ntz)
        self.theta = np.tile(theta, r.size)
        self.z = np.tile(z, r.size)
        # cylindrical volume element r dr dtheta dz
        self.w = (np.repeat(wr, ntz) * np.tile(wtz, r.size)) * self.r


class SolidBasis:
    """Lifted plus interior solid modes paired with a shell basis.

    The lifted mode of shell mode Y_j is s(r) Y_j(theta, z) e_r: it carries
    the shell trace into the solid and is identically zero at the outer
    surface.  An interior mode is a tensor product of a radial
    sin((2i+1) pi (r-R)/(2H)) (zero at the interface, free value at the
    outer surface), a shell-type theta factor and sin(j pi z / L) in z,
    times one frame vector; they come in a fixed deterministic order (by
    radial index, then axial index, frame vector and theta index).  Both
    give stacked frame tables of their first `count` modes.
    """

    def __init__(self, cyl, shell_basis, n_r=4):
        self.cyl = cyl
        self.shell_basis = shell_basis
        self.n_r = int(n_r)

    def lifted_tables(self, count, r, theta, z):
        """Tables of the lifted modes of the first `count` shell modes."""
        r = np.asarray(r, dtype=float).ravel()
        s = cutoff_profile(self.cyl, r, 1)
        Y = self.shell_basis.eval_modes(theta, z, 1)[:count]
        return component_tables(np.zeros(count, dtype=int), s[0] * Y[:, 0],
                                s[1] * Y[:, 0], s[0] * Y[:, 1], s[0] * Y[:, 2], r)

    def interior_tables(self, count, r, theta, z):
        """Tables of the first `count` interior modes."""
        cyl, shell = self.cyl, self.shell_basis
        sizes = (self.n_r, shell.n_z, 3, shell.n_theta)
        available = int(np.prod(sizes))
        if count > available:
            raise ValueError(
                f"solid basis too small: {available} interior modes available, "
                f"{count} requested (increase n_r_solid or n_z)"
            )
        i_r, i_z, comp, i_t = np.unravel_index(np.arange(count), sizes)
        r, theta, z = (np.asarray(x, dtype=float).ravel() for x in (r, theta, z))
        kr = ((2 * i_r + 1) * np.pi / (2.0 * cyl.H))[:, None]
        pr = np.sin(kr * (r - cyl.R))
        dpr = kr * np.cos(kr * (r - cyl.R))
        tt = shell._theta_family.eval_table(theta, 1)[i_t]
        kz = ((i_z + 1) * np.pi / shell.L)[:, None]
        pz = np.sin(kz * z)
        dpz = kz * np.cos(kz * z)
        return component_tables(comp, pr * tt[:, 0] * pz, dpr * tt[:, 0] * pz,
                                pr * tt[:, 1] * pz, pr * tt[:, 0] * dpz, r)
