"""Energy oracles, Korn identity, and kinematic coupling residuals."""

import numpy as np
import pytest

from perifsi.assembly import GalerkinState, assemble
from perifsi.diagnostics import (
    coupling_residuals,
    diffusion_ratio,
    energies,
    korn_check,
)
from perifsi.errors import DomainViolation, ZeroForcing
from perifsi.fluidgrid import FluidGrid


class TestEnergy:
    def test_nonnegative_and_additive(self, small_model, small_forcing, rng):
        system = assemble(small_model, 1.0, small_forcing)
        n = system.n
        s = GalerkinState(rng.standard_normal((1, n)), rng.standard_normal((1, n)),
                          [0.0])
        E_kin, E_el = energies(system, s)
        assert E_kin.shape == E_el.shape == (1,)
        assert E_kin[0] > 0.0
        assert E_el[0] > 0.0
        D, _ = system.quadratic_forms(s.t, s.a_dot)
        assert D[0] > 0.0

    def test_zero_state_zero_energy(self, small_model, small_forcing):
        system = assemble(small_model, 1.0, small_forcing)
        zero = GalerkinState(np.zeros((2, system.n)), np.zeros((2, system.n)),
                             [0.0, 0.5])
        E_kin, E_el = energies(system, zero)
        assert np.array_equal(E_kin + E_el, [0.0, 0.0])


def _mode_tables(stokes, grid, *rows):
    """Table dicts of the given Stokes modes on a grid."""
    t = stokes.tables(grid.r, grid.theta, grid.z)
    return [{"val": t["val"][k], "grad": t["grad"][k]} for k in rows]


class TestKorn:
    def test_identity_on_solenoidal_fields(self, small_model):
        grid = small_model.grid
        tu, tq = _mode_tables(small_model.basis.stokes_basis, grid, 0, 1)
        resid, lhs, rhs = korn_check(tu, tq, grid.w)
        assert resid < 1e-6

    def test_residual_decreases_under_refinement(self, small_model):
        cyl = small_model.cyl
        stokes = small_model.basis.stokes_basis
        coarse = FluidGrid(cyl, n_r=3, n_theta=8, n_z=6)
        fine = FluidGrid(cyl, n_r=10, n_theta=8, n_z=20)
        (tc,), (tf,) = _mode_tables(stokes, coarse, 0), _mode_tables(stokes, fine, 0)
        rc, _, _ = korn_check(tc, tc, coarse.w)
        rf, _, _ = korn_check(tf, tf, fine.w)
        assert rf <= rc + 1e-14

    def test_negative_control_fails(self, small_model):
        """The non-solenoidal shear u = (x, 0, 0), div u = 1."""
        grid = small_model.grid
        grad = np.zeros((3, 3, grid.n_nodes))
        grad[0, 0] = 1.0
        u = {"grad": grad}
        resid, _, _ = korn_check(u, u, grid.w)
        assert resid > 1e-3


class TestCouplingResiduals:
    def test_structural_couplings_hold(self, small_model, rng):
        basis = small_model.basis
        n = basis.n
        s = GalerkinState(0.01 * rng.standard_normal(n),
                          0.01 * rng.standard_normal(n))
        res = coupling_residuals(s, basis)
        assert res["fluid_trace"] < 1e-8
        assert res["tangential_trace"] < 1e-8
        assert res["solid_trace"] < 1e-8

    def test_inadmissible_shell_rejected_at_rest(self, small_model):
        """The shell is checked whatever the velocities: a displacement far
        beyond the margin with a_dot = 0 raises."""
        a = np.zeros(small_model.basis.n)
        a[0] = 5.0
        s = GalerkinState(a, np.zeros_like(a))
        with pytest.raises(DomainViolation):
            coupling_residuals(s, small_model.basis)


class TestDiffusionRatio:
    def test_zero_forcing_rejected(self):
        with pytest.raises(ZeroForcing):
            diffusion_ratio(1.0, None)

    def test_finite_for_forced_run(self, small_forcing):
        r = diffusion_ratio(0.5, small_forcing)
        assert np.isfinite(r) and r > 0.0
