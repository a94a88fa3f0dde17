"""Assembled Galerkin matrices: structure, symmetries, and time sampling."""

import numpy as np
import pytest

from test_extension import per_field_extension

from perifsi.assembly import GalerkinState, GlobalBasis, TimeGridPath, assemble
from perifsi.cli import RunConfig, build_model
from perifsi.errors import BasisMismatch, DomainViolation, GridMismatch
from perifsi.extension_ops import push_piola, push_piola_dt
from perifsi.fluid_basis import disk_flux


@pytest.fixture(scope="module")
def rest_sample(small_model):
    return small_model.sample()


def _moving_inputs(small_model, rng, amp=0.02):
    shell = small_model.basis.shell_basis
    c = amp * rng.standard_normal(shell.n_modes)
    dc = amp * rng.standard_normal(shell.n_modes)
    return shell.field(c), shell.field(dc), c, dc


def _per_field_fluid_tables(basis, jets):
    """GlobalBasis.fluid_tables one entry at a time: each coupled entry and
    its time derivative by the per-field extension formula, each interior
    entry by its own Piola push.  The reference for the stacked tables."""
    delta, dt_delta = jets.delta, jets.dt_delta
    Q = jets.grid.n_nodes
    val = np.empty((basis.n, 3, Q))
    grad = np.empty((basis.n, 3, 3, Q))
    dtX = np.zeros((basis.n, 3, Q))
    zval, zgrad = basis.stokes_basis.tables_on(jets.grid)
    nodes = (jets.r_phys, jets.theta, jets.z)
    for j, Y in enumerate(basis.shell_modes):
        val[2 * j], grad[2 * j], _ = per_field_extension(
            basis.ext_op, basis.cyl.R, delta, Y, *nodes)
        val[2 * j + 1], grad[2 * j + 1] = push_piola(
            jets.A, jets.dA, jets.ginv, zval[j], zgrad[j])
        dtX[2 * j] = per_field_extension(basis.ext_op, 0.0, dt_delta, Y, *nodes)[0]
        dtX[2 * j + 1] = push_piola_dt(jets.dt_A, jets.dt_psi, zval[j],
                                       grad[2 * j + 1])
    return val, grad, dtX


def _identity_jet_rest_sample(model):
    """The rest sample by the identity-jet path: coupled tables at the
    reference nodes, interior entries as the reference Stokes tables, no
    Piola push and no time-derivative terms.  The reference for the rest
    cylinder taken as delta = 0 of the moving path."""
    basis, grid = model.basis, model.grid
    n, Q = basis.n, grid.n_nodes
    zero = basis.shell_basis.zero_field()
    t = basis.extension_fields(zero).tables(grid.r, grid.theta, grid.z)
    zval, zgrad = basis.stokes_basis.tables_on(grid)
    val = np.empty((n, 3, Q))
    grad = np.empty((n, 3, 3, Q))
    val[0::2], grad[0::2] = t["val"], t["grad"]
    val[1::2], grad[1::2] = zval[: basis.half], zgrad[: basis.half]
    M = (val * grid.w).reshape(n, -1) @ val.reshape(n, -1).T
    V = (grad * grid.w).reshape(n, -1) @ grad.reshape(n, -1).T
    weights = np.concatenate([[model.cyl.R], zero.coefficients])
    zeros = np.zeros((n, n))
    return {"M": 0.5 * (M + M.T), "G": zeros, "V": 0.5 * (V + V.T),
            "B": zeros, "Q": zeros,
            "qin": model._flux_vector(0.0, weights),
            "qout": model._flux_vector(model.cyl.L, weights)}


def _oracle_gap(model, monkeypatch, **inputs):
    """Largest gap, relative to the block's size, between the sample blocks
    and the same blocks from the per-field tables."""
    got = model.sample(**inputs)
    with monkeypatch.context() as mp:
        mp.setattr(GlobalBasis, "fluid_tables", _per_field_fluid_tables)
        want = model.sample(**inputs)
    gaps = {}
    for k in got:
        scale = np.max(np.abs(want[k]))
        gaps[k] = np.max(np.abs(got[k] - want[k])) / scale if scale else np.max(np.abs(got[k]))
    return gaps


class TestStackedSample:
    def test_blocks_match_the_per_field_oracle(self, small_model, rng, monkeypatch):
        """The rest sample and two moving samples with transport."""
        assert max(_oracle_gap(small_model, monkeypatch).values()) <= 1e-12
        for _ in range(2):
            delta, dt_delta, _, _ = _moving_inputs(small_model, rng)
            v = rng.standard_normal(small_model.basis.n)
            gaps = _oracle_gap(small_model, monkeypatch, delta=delta,
                               dt_delta=dt_delta, v_coeff=v)
            assert max(gaps.values()) <= 1e-12, gaps

    def test_m1_moving_sample_matches_the_per_field_oracle(self, rng, monkeypatch):
        """A model with an m = 1 shell mode: cos and sin corrector parts."""
        model = build_model(RunConfig(n_theta=2, n_z=2, n_interior=4).validate())
        shell = model.basis.shell_basis
        assert shell.max_azimuthal_wavenumber == 1
        delta, dt_delta, _, _ = _moving_inputs(model, rng)
        gaps = _oracle_gap(model, monkeypatch, delta=delta, dt_delta=dt_delta,
                           v_coeff=rng.standard_normal(model.basis.n))
        assert max(gaps.values()) <= 1e-12, gaps


class TestGalerkinState:
    def test_zero_and_validation(self):
        s = GalerkinState.zero(4)
        assert s.n == 4 and s.t == 0.0
        with pytest.raises(BasisMismatch):
            GalerkinState(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            GalerkinState(np.array([np.nan]), np.array([0.0]))


class TestTimeGridPath:
    def test_spectral_derivative(self):
        T = 2.0
        N = 32
        t = np.arange(N) * T / N
        path = TimeGridPath(T, np.sin(2 * np.pi * t / T)[:, None])
        d = path.derivative()
        exact = (2 * np.pi / T) * np.cos(2 * np.pi * t / T)
        assert np.max(np.abs(d.samples[:, 0] - exact)) < 1e-12

    def test_coarse_indices_divisibility(self):
        path = TimeGridPath(1.0, np.zeros((12, 1)))
        assert list(path.coarse_indices(4)) == [0, 3, 6, 9]
        with pytest.raises(GridMismatch):
            path.coarse_indices(5)


class TestRestMatrices:
    def test_mass_spd(self, rest_sample, small_model):
        M = rest_sample["M"] + small_model.constants["M_shell"] + small_model.constants["M_solid"]
        assert np.max(np.abs(M - M.T)) < 1e-12
        assert np.all(np.linalg.eigvalsh(M) > 0.0)

    def test_stiffness_symmetric_psd(self, small_model):
        K = small_model.constants["K_sh"] + small_model.constants["A_el"]
        assert np.max(np.abs(K - K.T)) < 1e-9
        assert np.all(np.linalg.eigvalsh(K) > -1e-9 * np.max(np.abs(K)))

    def test_dissipation_psd(self, rest_sample, small_model):
        D = rest_sample["V"] + small_model.constants["A_visc"]
        assert np.all(np.linalg.eigvalsh(0.5 * (D + D.T)) > -1e-10)

    def test_rest_sample_matches_the_identity_jet_path(self, rest_sample,
                                                       small_model):
        """The zero-motion sample of the moving path reproduces the
        identity-jet rest path; only the physical radius hypot(x, y) of the
        nodes rounds differently from the reference r."""
        want = _identity_jet_rest_sample(small_model)
        assert rest_sample.keys() == want.keys()
        for k, w in want.items():
            scale = np.max(np.abs(w))
            assert np.max(np.abs(rest_sample[k] - w)) <= 1e-15 * scale, k

    def test_geometry_blocks_vanish_at_rest(self, rest_sample):
        for name in ("G", "B", "Q"):
            assert np.max(np.abs(rest_sample[name])) == 0.0

    def test_flux_vectors(self, rest_sample, small_model):
        qin, qout = rest_sample["qin"], rest_sample["qout"]
        # interior entries: equal flux through both disks (flux conservation)
        assert np.max(np.abs(qin[1::2] - qout[1::2])) < 1e-8
        # coupled entries vanish at the outlet (shell modes clamped at z = L
        # and the plug profile carries no outlet flow)
        assert np.max(np.abs(qout[0::2])) < 1e-8


class TestMovingMatrices:
    def test_mass_derivative_matches_geometry_block(self, small_model, rng):
        """G + G^T equals dM/dt along the prescribed motion (the antisymmetric
        half cancels), checked against central differences in the geometry."""
        delta, dt_delta, c, dc = _moving_inputs(small_model, rng)
        shell = small_model.basis.shell_basis
        s = small_model.sample(delta=delta, dt_delta=dt_delta)
        h = 1e-4
        Mp = small_model.sample(delta=shell.field(c + h * dc))["M"]
        Mm = small_model.sample(delta=shell.field(c - h * dc))["M"]
        fd = (Mp - Mm) / (2.0 * h)
        G = s["G"]
        scale = np.max(np.abs(fd)) + 1e-30
        assert np.max(np.abs(G + G.T - fd)) < 1e-5 * scale

    def test_convection_block_skew(self, small_model, rng):
        delta, dt_delta, _, _ = _moving_inputs(small_model, rng)
        v = rng.standard_normal(small_model.basis.n)
        s = small_model.sample(delta=delta, dt_delta=dt_delta, v_coeff=v)
        B = s["B"]
        assert np.max(np.abs(B + B.T)) < 1e-12 * (1 + np.max(np.abs(B)))
        assert abs(v @ B @ v) < 1e-10 * (1 + v @ v)

    def test_flux_vectors_match_the_extension_fields(self, small_model, rng):
        """The coupled flux entries from the table equal the disk quadrature
        of the sample's own extension fields."""
        delta, dt_delta, _, _ = _moving_inputs(small_model, rng, amp=0.05)
        s = small_model.sample(delta=delta, dt_delta=dt_delta)
        fields = small_model.basis.extension_fields(delta)
        for name, z0 in (("qin", 0.0), ("qout", small_model.cyl.L)):
            direct = disk_flux(fields, small_model.grid, z0)
            assert np.max(np.abs(s[name][::2] - direct)) < 1e-12 * np.max(
                np.abs(s["qin"][::2]))

    def test_shell_transport_block_structure(self, small_model, rng):
        delta, dt_delta, _, _ = _moving_inputs(small_model, rng)
        s = small_model.sample(delta=delta, dt_delta=dt_delta)
        Q = s["Q"]
        assert np.max(np.abs(Q - Q.T)) < 1e-12 * (1 + np.max(np.abs(Q)))
        # interior rows and columns are empty: the block couples shell modes
        assert np.max(np.abs(Q[1::2, :])) == 0.0
        assert np.max(np.abs(Q[:, 1::2])) == 0.0


class TestAssemble:
    def test_rest_assembly_single_sample(self, small_model, small_forcing):
        system = assemble(small_model, 1.0, small_forcing)
        assert system.times.size == 1
        mats = system.matrices_at(0.3)
        assert np.all(np.linalg.eigvalsh(mats["M"]) > 0.0)

    def test_stiffness_is_built_once(self, small_model, small_forcing):
        system = assemble(small_model, 1.0, small_forcing)
        K0 = system.matrices_at(0.1)["K"]
        assert system.matrices_at(0.6)["K"] is K0
        c = small_model.constants
        assert np.array_equal(K0, c["K_sh"] + c["A_el"])

    def test_mass_at_is_matrices_at(self, small_model, small_forcing):
        """The batched mass interpolation equals matrices_at(t)["M"] at each
        t, on a sampled path and on a one-sample system."""
        shell = small_model.basis.shell_basis
        t = np.arange(16) / 16
        samples = np.zeros((16, shell.n_modes))
        samples[:, 0] = 0.02 * np.sin(2 * np.pi * t)
        moving = assemble(small_model, 1.0, small_forcing,
                          delta_path=TimeGridPath(1.0, samples), n_samples=8)
        times = np.linspace(0.0, 1.0, 11)
        for system in (moving, assemble(small_model, 1.0, small_forcing)):
            M = system.mass_at(times)
            for t, Mt in zip(times, M):
                want = system.matrices_at(t)["M"]
                assert np.max(np.abs(Mt - want)) <= 1e-14 * np.max(np.abs(want))

    def test_transport_requires_geometry_path(self, small_model, small_forcing):
        v_path = TimeGridPath(1.0, np.zeros((8, small_model.basis.n)))
        with pytest.raises(GridMismatch):
            assemble(small_model, 1.0, small_forcing, v_path=v_path)

    def test_interpolation_hits_samples(self, small_model, small_forcing):
        shell = small_model.basis.shell_basis
        N = 16
        t = np.arange(N) / N
        samples = np.zeros((N, shell.n_modes))
        samples[:, 0] = 0.02 * np.sin(2 * np.pi * t)
        path = TimeGridPath(1.0, samples)
        system = assemble(small_model, 1.0, small_forcing,
                          delta_path=path, n_samples=8)
        for s, ts in enumerate(system.times):
            M = system.matrices_at(float(ts))["M"]
            direct = (system.stacks["M"][s]
                      + system.constants["M_shell"]
                      + system.constants["M_solid"])
            assert np.max(np.abs(M - direct)) < 1e-10 * np.max(np.abs(direct))

    def test_inadmissible_path_reports_time(self, small_model, small_forcing):
        shell = small_model.basis.shell_basis
        N = 16
        t = np.arange(N) / N
        samples = np.zeros((N, shell.n_modes))
        samples[:, 0] = 3.0 * np.sin(2 * np.pi * t)
        path = TimeGridPath(1.0, samples)
        with pytest.raises(DomainViolation) as err:
            assemble(small_model, 1.0, small_forcing, delta_path=path,
                     n_samples=8)
        assert err.value.time is not None
