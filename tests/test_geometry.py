"""Shell displacement fields, ALE jets, and domain admissibility."""

import numpy as np
import pytest

from perifsi.fluidgrid import FluidGrid, QuadJets
from perifsi.geometry import CylinderConfig, admissibility, check_injectivity
from perifsi.shell_solid import ShellBasis


@pytest.fixture(scope="module")
def geo():
    cyl = CylinderConfig(R=1.0, L=2.0, H=0.5)
    shell = ShellBasis(1, 4, cyl.L)
    return cyl, shell


class TestCylinderConfig:
    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            CylinderConfig(R=0.0, L=1.0, H=1.0)
        with pytest.raises(ValueError):
            CylinderConfig(R=1.0, L=-1.0, H=1.0)


def _value(shell, c, theta, z):
    return shell.evaluate(c, theta, z, 0)[0]


class TestShellEvaluate:
    """ShellBasis.evaluate: a shell field is its coefficient vector."""

    def test_linearity_and_sup_norm(self, geo, rng):
        cyl, shell = geo
        ca = rng.standard_normal(shell.n_modes)
        cb = rng.standard_normal(shell.n_modes)
        th = np.linspace(0.0, 2.0 * np.pi, 9)
        zz = np.linspace(0.1, 1.9, 9)
        combo = _value(shell, ca + 2.0 * cb - 0.5 * ca, th, zz)
        a, b = _value(shell, ca, th, zz), _value(shell, cb, th, zz)
        direct = a + 2.0 * b - 0.5 * a
        assert np.max(np.abs(combo - direct)) < 1e-13
        # the sup norm samples a finite grid; it should agree with an
        # independent coarse sample up to grid resolution
        sup = admissibility(cyl, shell, ca)[0]
        assert sup >= 0.9 * np.max(np.abs(a))

    def test_clamped_at_ends(self, geo, rng):
        _, shell = geo
        c = rng.standard_normal(shell.n_modes)
        th = np.linspace(0.0, 2.0 * np.pi, 9)
        assert np.max(np.abs(_value(shell, c, th, np.zeros(9)))) < 1e-10
        assert np.max(np.abs(_value(shell, c, th, np.full(9, shell.L)))) < 1e-10

    def test_wrong_coefficient_count_rejected(self, geo):
        _, shell = geo
        th = np.linspace(0.0, 2.0 * np.pi, 9)
        zz = np.linspace(0.1, 1.9, 9)
        for n in (shell.n_modes - 1, shell.n_modes + 1):
            with pytest.raises(ValueError):
                shell.evaluate(np.ones(n), th, zz, 0)
        with pytest.raises(ValueError):
            shell.evaluate(np.ones((2, shell.n_modes)), th, zz, 0)

    def test_stacks_the_mode_table(self, geo, rng):
        """Each derivative component is the coefficient-weighted sum of the
        mode table's rows, in eval_modes' component order."""
        _, shell = geo
        c = rng.standard_normal(shell.n_modes)
        th = np.linspace(0.0, 2.0 * np.pi, 9)
        zz = np.linspace(0.1, 1.9, 9)
        for nderiv, ncomp in ((0, 1), (1, 3), (2, 6)):
            out = shell.evaluate(c, th, zz, nderiv)
            assert out.shape == (ncomp, th.size)
            tab = shell.eval_modes(th, zz, nderiv)
            for k in range(ncomp):
                assert np.max(np.abs(out[k] - c @ tab[:, k])) < 1e-12


class TestInjectivity:
    def test_small_displacement_admissible(self, geo):
        cyl, shell = geo
        eta = np.zeros(shell.n_modes)
        eta[0] = 0.01
        assert check_injectivity(cyl, shell, eta)

    def test_large_displacement_rejected(self, geo):
        cyl, shell = geo
        eta = np.zeros(shell.n_modes)
        eta[0] = 5.0
        assert not check_injectivity(cyl, shell, eta)


class TestQuadJets:
    def test_identity_at_rest(self, geo):
        """At delta = dt_delta = 0 the jets are exactly the identity map: the
        rest cylinder needs no path of its own."""
        cyl, shell = geo
        grid = FluidGrid(cyl, n_r=4, n_theta=8, n_z=6)
        zero = np.zeros(shell.n_modes)
        jets = QuadJets(grid, shell, zero, zero)
        eye = np.broadcast_to(np.eye(3)[:, :, None], jets.A.shape)
        for name in ("grad", "ginv", "A"):
            assert np.array_equal(getattr(jets, name), eye), name
        assert np.array_equal(jets.det, np.ones(grid.n_nodes))
        assert np.array_equal(jets.weight, grid.w)
        for name in ("dA", "dt_psi", "dt_A", "dt_det"):
            assert not np.any(getattr(jets, name)), name
        assert np.max(np.abs(jets.r_phys - grid.r)) < 1e-14

    def test_moving_jacobian_consistency(self, geo, rng):
        """det of the assembled deformation gradient matches the stored det."""
        cyl, shell = geo
        grid = FluidGrid(cyl, n_r=4, n_theta=8, n_z=6)
        delta = 0.02 * rng.standard_normal(shell.n_modes)
        jets = QuadJets(grid, shell, delta, np.zeros(shell.n_modes))
        dets = np.linalg.det(jets.grad.transpose(2, 0, 1))
        assert np.max(np.abs(dets - jets.det)) < 1e-12
        prod = np.einsum("ikq,kjq->ijq", jets.grad, jets.ginv)
        eye = np.eye(3)[:, :, None]
        assert np.max(np.abs(prod - eye)) < 1e-12

    def test_volume_element_positive(self, geo, rng):
        cyl, shell = geo
        grid = FluidGrid(cyl, n_r=4, n_theta=8, n_z=6)
        delta = 0.03 * rng.standard_normal(shell.n_modes)
        jets = QuadJets(grid, shell, delta, np.zeros(shell.n_modes))
        assert np.all(jets.det > 0.0)
        assert np.all(jets.weight > 0.0)
