"""Shell displacement fields, ALE jets, and domain admissibility."""

import numpy as np
import pytest

from test_shell_solid import _frame

from perifsi import shell_solid
from perifsi.fluidgrid import FluidGrid, QuadJets
from perifsi.geometry import (
    CylinderConfig,
    admissibility,
    ale_jets,
    check_injectivity,
    sup_grid,
)
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


class TestSupTable:
    """admissibility reads the shell modes on the sup grid from one table
    per shell basis (ShellBasis.sup_table)."""

    def test_one_table_per_basis(self, rng, monkeypatch):
        """The table is built once, on the first call for a basis, and is
        the same object on every call after; it equals the table of a fresh
        basis on a sup grid built for the check, and admissibility's sups
        are bit for bit those of that per-call table."""
        cyl = CylinderConfig(R=1.0, L=2.0, H=0.5)
        basis = ShellBasis(3, 4, cyl.L)
        built = []
        monkeypatch.setattr(shell_solid, "sup_grid",
                            lambda b, f=shell_solid.sup_grid: built.append(b) or f(b))
        coeffs = 0.1 * rng.standard_normal((5, basis.n_modes))
        results = [admissibility(cyl, basis, coeffs) for _ in range(3)]
        table = basis.sup_table
        assert built == [basis] and basis.sup_table is table
        assert not table.flags.writeable
        fresh = ShellBasis(3, 4, cyl.L).eval_modes(*sup_grid(basis), 0)[:, 0]
        assert np.array_equal(table, fresh)
        want = np.max(np.abs(coeffs @ fresh), axis=-1)
        for sup, bad in results:
            assert np.array_equal(sup, want) and bad is None
        assert admissibility(cyl, basis, 10.0 * coeffs)[1] == 0

    def test_tables_follow_their_basis(self):
        """Two bases of other mode counts get tables of their own shapes."""
        small, large = ShellBasis(1, 4, 2.0), ShellBasis(3, 6, 2.0)
        assert small.sup_table.shape == (4, sup_grid(small)[0].size)
        assert large.sup_table.shape == (18, sup_grid(large)[0].size)


class TestQuadJets:
    def test_identity_at_rest(self, geo):
        """At delta = dt_delta = 0 the jets are exactly the identity map: the
        rest cylinder needs no path of its own."""
        cyl, shell = geo
        grid = FluidGrid(cyl, n_r=4, n_theta=8, n_z=6)
        zero = np.zeros(shell.n_modes)
        jets = QuadJets(grid, shell, zero, zero)
        eye = np.broadcast_to(np.eye(3)[:, :, None], jets.A.shape)
        grad = ale_jets(cyl, shell, zero, grid.r, grid.theta, grid.z)["grad"]
        assert np.array_equal(grad, eye)
        for name in ("ginv", "A"):
            assert np.array_equal(getattr(jets, name), eye), name
        assert np.array_equal(jets.det, np.ones(grid.n_nodes))
        assert np.array_equal(jets.weight, grid.w)
        for name in ("dA", "dt_psi", "dt_A", "dt_det"):
            assert not np.any(getattr(jets, name)), name
        assert np.max(np.abs(jets.r_phys - grid.r)) < 1e-14

    def test_moving_jacobian_consistency(self, geo, rng):
        """det of the deformation gradient of geometry.ale_jets matches the
        stored det, and the stored ginv is its inverse."""
        cyl, shell = geo
        grid = FluidGrid(cyl, n_r=4, n_theta=8, n_z=6)
        delta = 0.02 * rng.standard_normal(shell.n_modes)
        jets = QuadJets(grid, shell, delta, np.zeros(shell.n_modes))
        grad = ale_jets(cyl, shell, delta, grid.r, grid.theta, grid.z)["grad"]
        dets = np.linalg.det(grad.transpose(2, 0, 1))
        assert np.max(np.abs(dets - jets.det)) < 1e-12
        prod = np.einsum("ikq,kjq->ijq", grad, jets.ginv)
        eye = np.eye(3)[:, :, None]
        assert np.max(np.abs(prod - eye)) < 1e-12

    def test_volume_element_positive(self, geo, rng):
        cyl, shell = geo
        grid = FluidGrid(cyl, n_r=4, n_theta=8, n_z=6)
        delta = 0.03 * rng.standard_normal(shell.n_modes)
        jets = QuadJets(grid, shell, delta, np.zeros(shell.n_modes))
        assert np.all(jets.det > 0.0)
        assert np.all(jets.weight > 0.0)


class TestFrameJets:
    """ale_jets in the cylindrical frame against central differences (step
    1e-6) of the Cartesian map (s x, s y, z), to 1e-9 of the largest entry
    of each jet, at nodes off theta = 0 under a motion with cos and sin
    modes of m = 1 and m = 2."""

    H = 1e-6
    NODES = (np.array([0.6, 0.3, 0.9, 0.45]), np.array([0.7, 2.5, 4.1, 5.6]),
             np.array([0.9, 1.3, 0.4, 1.7]))

    @pytest.fixture(scope="class")
    def motion(self):
        cyl = CylinderConfig(R=1.0, L=2.0, H=0.5)
        shell = ShellBasis(5, 3, cyl.L)
        assert {shell.azimuthal_wavenumber(k) for k in range(shell.n_modes)} == {0, 1, 2}
        g = np.random.default_rng(5)
        # a unit-size velocity: the time differences of the O(1) map then
        # lose no more than round-off / h to cancellation
        delta = 0.05 * g.standard_normal(shell.n_modes)
        return cyl, shell, delta, g.standard_normal(shell.n_modes)

    def _stencil(self):
        """Cylindrical coordinates of each node followed by its six
        Cartesian neighbours x0 + h e_b, x0 - h e_b, b < 3: (3, 7, Q)."""
        r0, t0, z0 = self.NODES
        x0 = np.stack([r0 * np.cos(t0), r0 * np.sin(t0), z0])
        steps = [np.zeros(3)] + [s * self.H * e for e in np.eye(3) for s in (1.0, -1.0)]
        x, y, z = (x0[:, None] + np.array(steps).T[:, :, None])
        return np.stack([np.hypot(x, y), np.arctan2(y, x), z])

    def _map(self, cyl, shell, delta, r, theta, z):
        """The Cartesian image (3, ...) of the cylindrical nodes."""
        d = shell.evaluate(delta, theta.ravel(), z.ravel(), 0)[0].reshape(r.shape)
        s = (cyl.R + d) / cyl.R
        return np.stack([s * r * np.cos(theta), s * r * np.sin(theta), z])

    def _central(self, f):
        """Central differences (..., b, Q) along the Cartesian axes of
        values f (..., 7, Q) at the stencil."""
        return (f[..., 1::2, :] - f[..., 2::2, :]) / (2.0 * self.H)

    @staticmethod
    def _gap(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    def test_gradient_and_its_frame_derivative(self, motion):
        """r_phys is the radius of the image, grad the differences of the
        map turned into the frame and det their determinant; dgrad the
        differences of the Cartesian gradient R grad R^T, turned back."""
        cyl, shell, delta, _ = motion
        r, theta, z = self._stencil()
        jets = ale_jets(cyl, shell, delta, r[0], theta[0], z[0])
        Rm = _frame(theta[0])
        psi = self._map(cyl, shell, delta, r, theta, z)
        assert self._gap(jets["r_phys"], np.hypot(psi[0, 0], psi[1, 0])) <= 1e-14
        # grad: d psi_k / d x_b rotated into the frame, R^T D R
        want = np.einsum("kiq,kbq,bjq->ijq", Rm, self._central(psi), Rm)
        assert self._gap(jets["grad"], want) <= 1e-9
        assert self._gap(jets["det"], np.linalg.det(want.transpose(2, 0, 1))) <= 1e-9
        want = self._turned_differences(cyl, shell, delta, r, theta, z, "grad")
        assert self._gap(jets["dgrad"], want) <= 1e-9

    def _turned_differences(self, cyl, shell, delta, r, theta, z, key):
        """The frame derivative of the frame tensor jets[key] by differences:
        the Cartesian tensor R F R^T at the stencil, differenced along x_b,
        turned back, R^T (d_b Fc) R with the direction b -> e_a."""
        F = ale_jets(cyl, shell, delta, r.ravel(), theta.ravel(), z.ravel())[key]
        Rs = _frame(theta.ravel())
        Fc = np.einsum("ikq,klq,jlq->ijq", Rs, F, Rs).reshape(3, 3, 7, -1)
        Rm = _frame(theta[0])
        return np.einsum("kiq,klbq,ljq,baq->ijaq", Rm, self._central(Fc), Rm, Rm)

    def test_inverse_and_piola_factor(self, motion):
        """The closed forms ginv and dA against independent references: the
        matrix inverse of grad, and the turned differences of A = grad / det
        as for dgrad."""
        cyl, shell, delta, _ = motion
        r, theta, z = self._stencil()
        jets = ale_jets(cyl, shell, delta, r[0], theta[0], z[0])
        want = np.linalg.inv(jets["grad"].transpose(2, 0, 1)).transpose(1, 2, 0)
        assert self._gap(jets["ginv"], want) <= 1e-9
        want = self._turned_differences(cyl, shell, delta, r, theta, z, "A")
        assert self._gap(jets["dA"], want) <= 1e-9

    def test_time_derivatives(self, motion):
        """dt_psi, dt_grad, dt_det and dt_A against differences of the
        motion along delta + tau dt_delta at tau = 0."""
        cyl, shell, delta, dt_delta = motion
        r, theta, z = self.NODES
        jets = ale_jets(cyl, shell, delta, r, theta, z, dt_delta)
        Rm = _frame(theta)
        plus, minus = (ale_jets(cyl, shell, delta + t * dt_delta, r, theta, z)
                       for t in (self.H, -self.H))
        psi = [self._map(cyl, shell, delta + t * dt_delta, r, theta, z)
               for t in (self.H, -self.H)]
        want = np.einsum("kiq,kq->iq", Rm, (psi[0] - psi[1]) / (2.0 * self.H))
        assert self._gap(jets["dt_psi"], want) <= 1e-9
        for key, name in (("grad", "dt_grad"), ("det", "dt_det"), ("A", "dt_A")):
            want = (plus[key] - minus[key]) / (2.0 * self.H)
            assert self._gap(jets[name], want) <= 1e-9, name

    def test_a_small_shell_velocity_keeps_its_relative_accuracy(self, motion):
        """Under a shell velocity of size 1e-6, dt_psi[0] / r and
        dt_grad[0, 0] are within 4 ulps of ddot / R at every node: the
        time derivative of the scaling is taken as ddot / R, not as
        (R + ddot) / R - 1, which is off by about 4e-11 of the largest
        value here."""
        cyl, shell, delta, dt_delta = motion
        r, theta, z = self.NODES
        small = 1e-6 * dt_delta
        jets = ale_jets(cyl, shell, delta, r, theta, z, small)
        want = shell.evaluate(small, theta, z, 0)[0] / cyl.R
        ulps = 4.0 * np.spacing(np.abs(want))
        assert np.all(np.abs(jets["dt_psi"][0] / r - want) <= ulps)
        assert np.all(np.abs(jets["dt_grad"][0, 0] - want) <= ulps)
