"""Shell bending forms and the solid displacement basis."""

import numpy as np
import pytest

from perifsi.geometry import CylinderConfig
from perifsi.shell_solid import (
    ShellBasis,
    SolidBasis,
    SolidGrid,
    SolidParams,
    biharmonic_form,
    cutoff_profile,
    lame_form,
    shell_matrices,
)


@pytest.fixture(scope="module")
def setup():
    cyl = CylinderConfig(R=1.0, L=2.0, H=0.5)
    shell = ShellBasis(1, 4, cyl.L)
    return cyl, shell


class TestShellBasis:
    def test_mode_clamping(self, setup):
        _, shell = setup
        th = np.linspace(0.0, 2.0 * np.pi, 7)
        for zend in (0.0, shell.L):
            tab = shell.eval_modes(th, np.full(7, zend), 1)
            assert np.max(np.abs(tab[:, 0])) < 1e-10  # values
            assert np.max(np.abs(tab[:, 2])) < 1e-8  # z-derivatives

    def test_shell_matrices_spd(self, setup):
        _, shell = setup
        M, K = shell_matrices(shell)
        assert np.max(np.abs(M - M.T)) < 1e-12
        assert np.max(np.abs(K - K.T)) < 1e-10
        assert np.all(np.linalg.eigvalsh(M) > 0.0)
        assert np.all(np.linalg.eigvalsh(K) > -1e-10 * np.max(np.abs(K)))

    def test_biharmonic_matches_matrix(self, setup, rng):
        _, shell = setup
        _, K = shell_matrices(shell)
        a = rng.standard_normal(shell.n_modes)
        b = rng.standard_normal(shell.n_modes)
        form = biharmonic_form(shell, a, b)
        assert form == pytest.approx(float(a @ K @ b), rel=1e-8, abs=1e-10)

    def test_biharmonic_symmetry(self, setup, rng):
        _, shell = setup
        a = rng.standard_normal(shell.n_modes)
        b = rng.standard_normal(shell.n_modes)
        assert biharmonic_form(shell, a, b) == pytest.approx(
            biharmonic_form(shell, b, a), rel=1e-10
        )


class TestSolidParams:
    def test_defaults_valid(self):
        SolidParams()

    @pytest.mark.parametrize(
        "kw",
        [
            {"lambda1": 0.0},
            {"lambda2": -1.0},
            {"delta_visc": -0.5},
            {"rho_s2": 0.0},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            SolidParams(**kw)


class TestCutoff:
    def test_hermite_endpoint_conditions(self, setup):
        cyl, _ = setup
        ends = np.array([cyl.R, cyl.R + cyl.H])
        s = cutoff_profile(cyl, ends, 1)
        assert s[0, 0] == pytest.approx(1.0)
        assert s[0, 1] == pytest.approx(0.0)
        assert np.max(np.abs(s[1])) < 1e-14  # s' = 0 at both ends


def _lift(cyl, shell, xi, r, theta, z):
    """Tables of the lifted field s(r) xi e_r of the shell field with
    coefficients xi, contracted with the stacked lifted modes."""
    t = SolidBasis(cyl, shell).lifted_tables(shell.n_modes, r, theta, z)
    return {k: np.tensordot(xi, v, axes=1) for k, v in t.items()}


class TestSolidFields:
    def test_lift_carries_trace(self, setup, rng):
        """At r = R the lifted field equals xi e_r in frame components and
        vanishes on the outer surface r = R + H."""
        cyl, shell = setup
        xi = rng.standard_normal(shell.n_modes)
        th = np.linspace(0.0, 2.0 * np.pi, 9)
        zz = np.linspace(0.1, 1.9, 9)
        inner = _lift(cyl, shell, xi, np.full(9, cyl.R), th, zz)["val"]
        assert np.max(np.abs(inner[0] - shell.evaluate(xi, th, zz, 0)[0])) < 1e-12
        assert np.max(np.abs(inner[1:])) < 1e-14
        outer = _lift(cyl, shell, xi, np.full(9, cyl.R + cyl.H), th, zz)["val"]
        assert np.max(np.abs(outer)) < 1e-13

    def test_interior_mode_zero_at_interface(self, setup):
        cyl, shell = setup
        th = np.linspace(0.0, 2.0 * np.pi, 9)
        zz = np.linspace(0.1, 1.9, 9)
        basis = SolidBasis(cyl, shell)
        val = basis.interior_tables(12, np.full(9, cyl.R), th, zz)["val"]
        assert np.max(np.abs(val)) < 1e-14

    def test_frame_gradient_against_finite_differences(self, setup, rng):
        """The frame gradient of a lifted field matches a Cartesian FD stencil
        rotated into the (e_r, e_theta, e_z) frame."""
        cyl, shell = setup
        xi = rng.standard_normal(shell.n_modes)
        r0, t0, z0 = 1.2, 0.7, 0.9
        tab = _lift(cyl, shell, xi, np.array([r0]), np.array([t0]), np.array([z0]))
        h = 1e-6

        def val(r, t, z):
            return _lift(cyl, shell, xi, np.array([r]), np.array([t]),
                         np.array([z]))["val"][:, 0]

        fd_r = (val(r0 + h, t0, z0) - val(r0 - h, t0, z0)) / (2 * h)
        fd_z = (val(r0, t0, z0 + h) - val(r0, t0, z0 - h)) / (2 * h)
        # covariant theta-derivative includes the frame rotation terms
        vp = val(r0, t0 + h, z0)
        vm = val(r0, t0 - h, z0)
        fd_t = (vp - vm) / (2 * h * r0)
        v0 = val(r0, t0, z0)
        fd_t += np.array([-v0[1], v0[0], 0.0]) / r0
        G = tab["grad"][:, :, 0]
        assert np.max(np.abs(G[:, 0] - fd_r)) < 1e-6
        assert np.max(np.abs(G[:, 1] - fd_t)) < 1e-6
        assert np.max(np.abs(G[:, 2] - fd_z)) < 1e-6
        assert tab["div"][0] == pytest.approx(np.trace(G), abs=1e-12)


class TestSolidBasis:
    def test_interior_mode_count_and_gram(self, setup):
        cyl, shell = setup
        basis = SolidBasis(cyl, shell)
        grid = SolidGrid(cyl, shell)
        val = basis.interior_tables(6, grid.r, grid.theta, grid.z)["val"]
        assert len(val) == 6
        gram = np.einsum("kiq,liq,q->kl", val, val, grid.w)
        assert np.all(np.linalg.eigvalsh(gram) > 0.0)

    def test_too_many_interior_modes_rejected(self, setup):
        cyl, shell = setup
        basis = SolidBasis(cyl, shell, n_r=1)
        th = z = np.zeros(1)
        assert len(basis.interior_tables(12, np.ones(1), th, z)["val"]) == 12
        with pytest.raises(ValueError, match="solid basis too small"):
            basis.interior_tables(13, np.ones(1), th, z)


class TestLameForm:
    def test_oracle_for_assembled_blocks(self, small_model):
        """Field-by-field quadrature of the Lame form reproduces the stacked
        Gram products behind the assembled A_el and A_visc blocks."""
        params, grid = small_model.params, small_model.solid_grid
        t = small_model.basis.solid_tables(grid.r, grid.theta, grid.z)
        fields = [{"grad": g, "div": d} for g, d in zip(t["grad"], t["div"])]
        c = small_model.constants
        A_el = np.array([[lame_form(fk, None, fl, params, grid.w) for fl in fields]
                         for fk in fields])
        A_visc = np.array([[lame_form(None, fk, fl, params, grid.w) for fl in fields]
                           for fk in fields])
        assert np.max(np.abs(A_el - c["A_el"])) <= 1e-12 * np.max(np.abs(c["A_el"]))
        assert np.max(np.abs(A_visc - c["A_visc"])) <= 1e-12 * np.max(
            np.abs(c["A_visc"])
        )
