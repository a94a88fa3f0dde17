"""Shell displacement fields, ALE jets, and domain admissibility."""

import numpy as np
import pytest

from perifsi.fluidgrid import FluidGrid, QuadJets
from perifsi.geometry import CylinderConfig, check_injectivity
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


class TestShellField:
    def test_linearity_and_sup_norm(self, geo, rng):
        _, shell = geo
        ca = rng.standard_normal(shell.n_modes)
        cb = rng.standard_normal(shell.n_modes)
        a, b = shell.field(ca), shell.field(cb)
        th = np.linspace(0.0, 2.0 * np.pi, 9)
        zz = np.linspace(0.1, 1.9, 9)
        combo = shell.field(ca + 2.0 * cb - 0.5 * ca).value(th, zz)
        direct = a.value(th, zz) + 2.0 * b.value(th, zz) - 0.5 * a.value(th, zz)
        assert np.max(np.abs(combo - direct)) < 1e-13
        # sup_norm samples a finite grid; it should agree with an independent
        # coarse sample up to grid resolution
        assert a.sup_norm() >= 0.9 * np.max(np.abs(a.value(th, zz)))

    def test_clamped_at_ends(self, geo, rng):
        _, shell = geo
        f = shell.field(rng.standard_normal(shell.n_modes))
        th = np.linspace(0.0, 2.0 * np.pi, 9)
        assert np.max(np.abs(f.value(th, np.zeros(9)))) < 1e-10
        assert np.max(np.abs(f.value(th, np.full(9, shell.L)))) < 1e-10


class TestInjectivity:
    def test_small_displacement_admissible(self, geo):
        cyl, shell = geo
        eta = shell.unit_field(0, amplitude=0.01)
        assert check_injectivity(eta, cyl)

    def test_large_displacement_rejected(self, geo):
        cyl, shell = geo
        eta = shell.unit_field(0, amplitude=5.0)
        assert not check_injectivity(eta, cyl)


class TestQuadJets:
    def test_identity_at_rest(self, geo):
        """At delta = dt_delta = 0 the jets are exactly the identity map: the
        rest cylinder needs no path of its own."""
        cyl, shell = geo
        grid = FluidGrid(cyl, n_r=4, n_theta=8, n_z=6)
        zero = shell.zero_field()
        jets = QuadJets(grid, zero, zero)
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
        delta = shell.field(0.02 * rng.standard_normal(shell.n_modes))
        jets = QuadJets(grid, delta, shell.zero_field())
        dets = np.linalg.det(jets.grad.transpose(2, 0, 1))
        assert np.max(np.abs(dets - jets.det)) < 1e-12
        prod = np.einsum("ikq,kjq->ijq", jets.grad, jets.ginv)
        eye = np.eye(3)[:, :, None]
        assert np.max(np.abs(prod - eye)) < 1e-12

    def test_volume_element_positive(self, geo, rng):
        cyl, shell = geo
        grid = FluidGrid(cyl, n_r=4, n_theta=8, n_z=6)
        delta = shell.field(0.03 * rng.standard_normal(shell.n_modes))
        jets = QuadJets(grid, delta, shell.zero_field())
        assert np.all(jets.det > 0.0)
        assert np.all(jets.weight > 0.0)
