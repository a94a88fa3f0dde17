"""Interior Stokes modes, the convection form, and boundary forcing."""

import numpy as np
import pytest

from perifsi.basis1d import gauss, trig_weights
from perifsi.cli import RunConfig, build_model
from perifsi.errors import GridMismatch
from perifsi.fluid_basis import (
    BoundaryForcing,
    StokesBasis,
    _divergence_constraint,
    _SectorSpace,
    _sector_forms,
    disk_flux,
    trilinear_b,
)
from perifsi.fluidgrid import FluidGrid, azimuthal_factors, frame_tables


def _mode_tables(space, parity, dofs, r, theta, z):
    """Cylindrical values, frame gradients and divergences of the fields
    with dofs (..., ndof) over the sector space, of the given parity: their
    profiles times the theta factors, through frame_tables."""
    f, f_r, f_z = space.profile_tables(dofs, r, z)
    T, dT = azimuthal_factors(space.m, parity, theta)
    return (f * T, *frame_tables(f * T, np.stack([f_r * T, f * dT, f_z * T], axis=-2), r))


def _per_dof_sector_forms(space, cyl, n_r, n_z):
    """The sector Grams one unit dof at a time, from its tabulated frame
    gradient and value: the reference for the sum factorization."""
    m = space.m
    rq, wr = gauss(n_r + 6, 0.0, cyl.R)
    zq, wz = gauss(n_z + 6, 0.0, cyl.L)
    RR, ZZ = np.meshgrid(rq, zq, indexing="ij")
    rr, zz = RR.ravel(), ZZ.ravel()
    weight = (2.0 * np.pi if m == 0 else np.pi) * np.outer(wr * rq, wz).ravel()
    vals = np.empty((space.ndof, 3, rr.size))
    grads = np.empty((space.ndof, 3, 3, rr.size))
    theta0 = np.zeros(rr.size)
    for k, unit in enumerate(np.eye(space.ndof)):
        if m == 0:
            vals[k], grads[k], _ = _mode_tables(space, "axi", unit, rr, theta0, zz)
        else:
            v0, g0, _ = _mode_tables(space, "cos", unit, rr, theta0, zz)
            v1, g1, _ = _mode_tables(space, "cos", unit, rr, theta0 + np.pi / (2.0 * m), zz)
            vals[k], grads[k] = v0 + v1, g0 + g1
    A = np.einsum("kijq,lijq,q->kl", grads, grads, weight)
    M = np.einsum("kiq,liq,q->kl", vals, vals, weight)
    return A, M


class TestStokesBasis:
    def test_modes_divergence_free(self, small_model):
        """The trace of each mode's frame gradient, its divergence, vanishes."""
        grid = small_model.grid
        tab = small_model.basis.stokes_basis.tables(grid.r, grid.theta, grid.z)
        for val, grad in zip(tab["val"], tab["grad"]):
            scale = np.max(np.abs(val)) + 1e-30
            assert np.max(np.abs(np.einsum("iiq->q", grad))) < 1e-8 * scale

    def test_zero_lateral_trace(self, small_model):
        cyl = small_model.cyl
        th = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
        z = np.linspace(0.05, cyl.L - 0.05, 16)
        val = small_model.basis.stokes_basis.tables(np.full(16, cyl.R), th, z)["val"]
        assert np.max(np.abs(val)) < 1e-8

    def test_eigenvalues_positive_sorted(self, small_model):
        """The modes come out mass-orthonormal in ascending eigenvalue order:
        on the fluid grid their Gram matrix is the identity and their
        Rayleigh quotients int |grad u|^2 / int |u|^2 are positive and
        ascending."""
        grid = small_model.grid
        val, grad = small_model.basis.stokes_basis.tables_on(grid)
        gram = np.einsum("kiq,liq,q->kl", val, val, grid.w)
        assert np.max(np.abs(gram - np.eye(len(val)))) <= 1e-12
        rq = np.einsum("kijq,kijq,q->k", grad, grad, grid.w) / np.diag(gram)
        assert np.all(rq > 0.0)
        assert np.all(np.diff(rq) >= -1e-12 * rq[1:])

    def test_flux_conserved_between_disks(self, small_model):
        """Interior modes are divergence free with zero lateral trace, so both
        disk fluxes agree."""
        grid = small_model.grid
        stokes = small_model.basis.stokes_basis
        fin = disk_flux(stokes, grid, 0.0)
        fout = disk_flux(stokes, grid, small_model.cyl.L)
        assert fin.shape == (stokes.n_modes,)
        assert fin == pytest.approx(fout, rel=1e-8, abs=1e-12)

    def test_tables_follow_the_grid_not_its_address(self, small_model):
        """Grids of alternating sizes built, used and dropped in turn: a new
        grid that reuses a freed grid's address gets tables of its own."""
        cyl = small_model.cyl
        stokes = StokesBasis(small_model.basis.stokes_basis.groups)
        for k in range(50):
            grid = FluidGrid(cyl, n_r=2, n_theta=4, n_z=4 + 2 * (k % 2))
            val, grad = stokes.tables_on(grid)
            assert val.shape[-1] == grad.shape[-1] == grid.n_nodes
            del grid


@pytest.mark.parametrize("kw", [{}, {"n_theta": 2, "n_z": 2, "n_interior": 4}],
                         ids=["default", "m1"])
def test_stacked_rows_match_one_mode_evaluations(kw):
    """Each row of the stacked tables is bitwise the evaluation of its mode
    alone: its dofs through profile_tables, azimuthal_factors and
    frame_tables."""
    model = build_model(RunConfig(**kw).validate())
    stokes, grid = model.basis.stokes_basis, model.grid
    r, theta, z = grid.r, grid.theta, grid.z
    tab = stokes.tables(r, theta, z)
    seen = []
    for space, parity, rows, dofs in stokes.groups:
        for k, d in zip(rows, dofs):
            val, G, _ = _mode_tables(space, parity, d, r, theta, z)
            assert np.array_equal(tab["val"][k], val)
            assert np.array_equal(tab["grad"][k], G)
            seen.append(k)
    assert sorted(seen) == list(range(stokes.n_modes))
    assert {p for _, p, _, _ in stokes.groups} == ({"axi"} if not kw else {"axi", "cos", "sin"})


class TestSectorForms:
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_sum_factorization_matches_the_per_dof_loop(self, cyl, m):
        """The sector Grams as sums of Kronecker products of radial and
        axial Grams equal the quadrature of every unit dof's tabulated
        frame gradient and value to 1e-13 relative, and the Dirichlet form
        is symmetric."""
        space = _SectorSpace(cyl, m, 8, 8)
        got = _sector_forms(space, cyl)
        want = _per_dof_sector_forms(space, cyl, 8, 8)
        assert np.array_equal(got[0], got[0].T)
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_collocation_is_r_times_the_tabulated_divergence(self, cyl, m):
        """The divergence collocation matrix equals r times the divergence
        of every unit dof at the collocation nodes (r-major), tabulated
        through profile_tables, azimuthal_factors and frame_tables at
        theta = 0 with cos parity (axi for m = 0), to 1e-14 relative."""
        space = _SectorSpace(cyl, m, 8, 8)
        rc, _ = gauss(space.n_r + 4, 0.0, cyl.R)
        zc, _ = gauss(space.n_z + 4, 0.0, cyl.L)
        RR, ZZ = np.meshgrid(rc, zc, indexing="ij")
        rr, zz = RR.ravel(), ZZ.ravel()
        div = _mode_tables(space, "axi" if m == 0 else "cos", np.eye(space.ndof),
                           rr, np.zeros(rr.size), zz)[2]
        got, want = _divergence_constraint(space, cyl), (rr * div).T
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestTrilinear:
    def test_pointwise_skew_symmetry(self, small_model):
        grid = small_model.grid
        val, grad = small_model.basis.stokes_basis.tables_on(grid)
        t = [{"val": v, "grad": g} for v, g in zip(val[:3], grad[:3])]
        assert trilinear_b(t[0], t[1], t[1], grid.w) == 0.0
        b1 = trilinear_b(t[0], t[1], t[2], grid.w)
        b2 = trilinear_b(t[0], t[2], t[1], grid.w)
        assert b1 == pytest.approx(-b2, abs=1e-15)


def _series_signal(T, n, g):
    """Samples on the closed grid of n points over [0, T] of a smooth random
    Fourier series (modes decaying like exp(-k / 4)) up to the Nyquist mode
    of the n - 1 open samples, and the series itself as a function of t.
    An even n - 1's Nyquist sine vanishes at the samples, so it is left
    out: the series is then the samples' trigonometric interpolant."""
    k = np.arange((n - 1) // 2 + 1)
    a, b = g.standard_normal((2, 2, k.size)) * np.exp(-k / 4.0)
    if (n - 1) % 2 == 0:
        b[:, -1] = 0.0

    def series(t):
        phase = np.multiply.outer(2.0 * np.pi * np.asarray(t) / T, k)
        return (np.cos(phase) @ a.T + np.sin(phase) @ b.T).T

    return series(np.linspace(0.0, T, n)), series


def _midpoints(T, n):
    return (np.arange(n) + 0.5) * (T / n)


class TestBoundaryForcing:
    @pytest.mark.parametrize("n", [32, 33, 100])
    def test_interpolation_reproduces_the_sampled_signal(self, n):
        """A signal of frequencies below half the 32 open samples is its own
        interpolant: the midpoint values on grids of as many, more and
        fewer points than the samples are the signal's (the outlet's zero)."""
        T = 1.0
        t = np.linspace(0.0, T, 33)

        def p(s):
            return np.sin(2 * np.pi * s) + 0.3 * np.cos(4 * np.pi * s) - 0.3

        f = BoundaryForcing(T, p(t), np.zeros_like(t))
        pin, pout = f.midpoint_values(n)
        assert np.max(np.abs(pin - p(_midpoints(T, n)))) < 1e-12
        assert np.max(np.abs(pout)) < 1e-14

    @pytest.mark.parametrize("n", [4, 5, 18, 33, 257])
    def test_values_match_the_trig_weights(self, n):
        """The midpoint values equal the trigonometric interpolant of
        trig_weights over the open samples to 1e-14 relative, for odd and
        even open-grid sample counts n - 1, on grids of fewer, as many and
        more points than the (n - 1) // 2 + 1 coefficients, odd and even."""
        g = np.random.default_rng(n)
        T = 1.3
        p, _ = _series_signal(T, n, g)
        f = BoundaryForcing(T, *p)
        c = (n - 1) // 2 + 1
        for N in sorted({1, 2, max(1, c - 1), c, c + 1, 2 * c, 2 * c + 1, 100}):
            w = trig_weights(_midpoints(T, N), T, n - 1)
            for got, q in zip(f.midpoint_values(N), p):
                assert got.shape == (N,)
                assert np.max(np.abs(got - w @ q[:-1])) <= 1e-14 * np.max(np.abs(q))

    @pytest.mark.parametrize("n", [4096, 4095, 129, 128, 64, 99])
    def test_midpoint_values_match_the_series(self, n):
        """The one-FFT evaluation at the n midpoints (m + 1/2) T / n equals
        the Fourier series that the 257 samples (129 coefficients) come
        from, to 1e-14 relative: on even and odd grids, and on grids of
        fewer points than coefficients, whose aliased coefficients fold onto
        frequency k mod n.  The modes decay like exp(-k / 4), so the modes
        above n / 2 are still some 1e-7 of the signal and the fold must be
        right."""
        g = np.random.default_rng(n)
        T = 1.3
        p, series = _series_signal(T, 257, g)
        f = BoundaryForcing(T, *p)
        for got, want in zip(f.midpoint_values(n), series(_midpoints(T, n))):
            assert got.shape == (n,)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_l2_norm_of_sine(self):
        T = 2.0
        f = BoundaryForcing.from_callables(
            lambda s: np.sin(2 * np.pi * s / T), lambda s: 0.0, T
        )
        assert f.l2_norm() == pytest.approx(np.sqrt(T / 2.0), rel=1e-6)

    @pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf])
    def test_period_must_be_positive_and_finite(self, T):
        """A period that is not positive and finite is rejected; a reversed
        time grid used to give T = -1 and a nan L2 norm."""
        with pytest.raises(GridMismatch, match="period must be positive and finite"):
            BoundaryForcing(T, np.zeros(5), np.zeros(5))

    def test_too_few_samples_rejected(self):
        for n in (1, 2):
            with pytest.raises(GridMismatch, match="at least 3 samples"):
                BoundaryForcing(1.0, np.zeros(n), np.zeros(n))

    def test_open_period_rejected(self):
        t = np.linspace(0.0, 1.0, 17)
        p = np.sin(1.5 * np.pi * t)  # p(0) != p(T)
        with pytest.raises(GridMismatch):
            BoundaryForcing(1.0, p, np.zeros_like(t))
