"""Assembled Galerkin matrices: structure, symmetries, and time sampling."""

import copy
import csv

import numpy as np
import pytest

from test_extension import DofsExtension, per_field_extension

from perifsi import cli
from perifsi.assembly import (
    Assembler,
    GalerkinState,
    GlobalBasis,
    assemble,
)
from perifsi.basis1d import trig_weights
from perifsi.cli import RunConfig, build_model
from perifsi.diagnostics import energies
from perifsi.errors import BasisMismatch, DomainViolation, GridMismatch
from perifsi.extension_ops import push_piola, push_piola_dt
from perifsi.fluid_basis import disk_flux
from perifsi.fluidgrid import FluidGrid, QuadJets
from perifsi.geometry import admissibility
from perifsi.solver_periodic import EnergyLedger


@pytest.fixture(scope="module")
def rest_sample(small_model):
    return small_model.sample()


def _moving_inputs(small_model, rng, amp=0.02):
    shell = small_model.basis.shell_basis
    c = amp * rng.standard_normal(shell.n_modes)
    dc = amp * rng.standard_normal(shell.n_modes)
    return c, dc


def _per_field_fluid_tables(basis, jets):
    """GlobalBasis.fluid_tables one entry at a time: each coupled entry and
    its time derivative by the per-field extension formula, each interior
    entry by its own Piola push, all weighted at the end by the root of
    the quadrature weight, as fluid_tables gives them.  The reference for
    the stacked tables."""
    delta, dt_delta = jets.delta, jets.dt_delta
    Q = jets.grid.n_nodes
    val = np.empty((basis.n, 3, Q))
    grad = np.empty((basis.n, 3, 3, Q))
    dtX = np.zeros((basis.n, 3, Q))
    zval, zgrad = basis.stokes_basis.tables_on(jets.grid)
    nodes = (jets.r_phys, jets.theta, jets.z)
    for j in range(basis.half):
        Y = np.eye(basis.shell_basis.n_modes)[j]
        val[2 * j], grad[2 * j], _ = per_field_extension(
            basis.ext_op, basis.cyl.R, delta, Y, *nodes)
        val[2 * j + 1], grad[2 * j + 1] = push_piola(
            jets.A, jets.dA, jets.ginv, zval[j], zgrad[j])
        dtX[2 * j] = per_field_extension(basis.ext_op, 0.0, dt_delta, Y, *nodes)[0]
        dtX[2 * j + 1] = push_piola_dt(jets.dt_A, jets.dt_psi, zval[j],
                                       grad[2 * j + 1])
    sw = np.sqrt(jets.weight)
    return val * sw, grad * sw, dtX * sw


def _two_call_fluid_tables(basis, jets):
    """GlobalBasis.fluid_tables by the two calls it made before the line
    block: the coupled extensions with their gradients, then the values of
    their time-derivative twins, each a per-dofs DofsExtension; the interior
    entries by the same Piola push; all weighted at the end by the root of
    the quadrature weight.  The reference for the stacked pass."""
    Q = jets.grid.n_nodes
    val = np.empty((basis.n, 3, Q))
    grad = np.empty((basis.n, 3, 3, Q))
    dtX = np.empty((basis.n, 3, Q))
    zval, zgrad = basis.stokes_basis.tables_on(jets.grid)
    zval, zgrad = zval[: basis.half], zgrad[: basis.half]
    nodes = (jets.r_phys, jets.theta, jets.z)
    X = basis.coupled_block
    t = DofsExtension.from_unit_dofs(basis.ext_op, basis.cyl.R, jets.delta, X).tables(*nodes)
    val[0::2], grad[0::2] = t["val"], t["grad"]
    val[1::2], grad[1::2] = push_piola(jets.A, jets.dA, jets.ginv, zval, zgrad)
    dtX[0::2] = DofsExtension.from_unit_dofs(basis.ext_op, 0.0, jets.dt_delta, X)(*nodes)
    dtX[1::2] = push_piola_dt(jets.dt_A, jets.dt_psi, zval, grad[1::2])
    sw = np.sqrt(jets.weight)
    return val * sw, grad * sw, dtX * sw


def _moving_mass_oracle(model, delta, dt_delta):
    """G = dM/2 + S/2 as the two halves of the symmetrized moving mass term
    are defined: dM = d/dt int X_k . X_l through the material derivative
    mat_k = dtX_k + grad X_k dt_psi and the volume change dt_det, and the
    antisymmetric S_kl = int (dtX_l . X_k - X_l . dtX_k).  The reference
    for the sample's G, which cancels the two dtX halves first."""
    jets = QuadJets(model.grid, model.basis.shell_basis, delta, dt_delta)
    w = jets.weight
    val, grad, dtX = (t / np.sqrt(w) for t in model.basis.fluid_tables(jets))
    mat = dtX + np.einsum("kijq,jq->kiq", grad, jets.dt_psi)
    T1 = np.einsum("kiq,liq,q->kl", mat, val, w)
    dM = T1 + T1.T + np.einsum("kiq,liq,q->kl", val, val, model.grid.w * jets.dt_det)
    D1 = np.einsum("kiq,liq,q->kl", dtX, val, w)
    return 0.5 * dM + 0.5 * (D1.T - D1)


@pytest.fixture(scope="module")
def m1_model():
    """A model with an m = 1 shell mode: cos and sin corrector parts."""
    model = build_model(RunConfig(n_theta=2, n_z=2, n_interior=4).validate())
    assert model.basis.shell_basis.max_azimuthal_wavenumber == 1
    return model


def _identity_jet_rest_sample(model):
    """The rest sample by the identity-jet path: coupled tables at the
    reference nodes, interior entries as the reference Stokes tables, no
    Piola push and no time-derivative terms.  The reference for the rest
    cylinder taken as delta = 0 of the moving path."""
    basis, grid = model.basis, model.grid
    n, Q = basis.n, grid.n_nodes
    zero = np.zeros(basis.shell_basis.n_modes)
    t = basis.extension_fields(zero).tables(grid.r, grid.theta, grid.z)
    zval, zgrad = basis.stokes_basis.tables_on(grid)
    val = np.empty((n, 3, Q))
    grad = np.empty((n, 3, 3, Q))
    val[0::2], grad[0::2] = t["val"], t["grad"]
    val[1::2], grad[1::2] = zval[: basis.half], zgrad[: basis.half]
    M = (val * grid.w).reshape(n, -1) @ val.reshape(n, -1).T
    V = (grad * grid.w).reshape(n, -1) @ grad.reshape(n, -1).T
    weights = np.concatenate([[model.cyl.R], zero])
    zeros = np.zeros((n, n))
    return {"M": 0.5 * (M + M.T), "G": zeros, "V": 0.5 * (V + V.T),
            "B": zeros, "Q": zeros,
            "qin": model._flux_vector(0.0, weights),
            "qout": model._flux_vector(model.cyl.L, weights)}


def _oracle_gap(model, monkeypatch, oracle=_per_field_fluid_tables, **inputs):
    """Largest gap, relative to the block's size, between the sample blocks
    and the same blocks from the oracle's tables (default: the per-field
    tables)."""
    got = model.sample(**inputs)
    with monkeypatch.context() as mp:
        mp.setattr(GlobalBasis, "fluid_tables", oracle)
        want = model.sample(**inputs)
    assert got.keys() == want.keys()
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
            delta, dt_delta = _moving_inputs(small_model, rng)
            v = rng.standard_normal(small_model.basis.n)
            gaps = _oracle_gap(small_model, monkeypatch, delta=delta,
                               dt_delta=dt_delta, v_coeff=v)
            assert max(gaps.values()) <= 1e-12, gaps

    def test_m1_moving_sample_matches_the_per_field_oracle(self, m1_model, rng,
                                                           monkeypatch):
        """Models with m = 1 shell modes, so cos and sin corrector parts:
        with n_theta = 2 the shell modes are cos modes only and the sin
        parts carry no data; with n_theta = 3 there are sin modes too."""
        sin_model = build_model(RunConfig(n_theta=3, n_z=2, n_interior=4).validate())
        for model in (m1_model, sin_model):
            delta, dt_delta = _moving_inputs(model, rng)
            gaps = _oracle_gap(model, monkeypatch, delta=delta, dt_delta=dt_delta,
                               v_coeff=rng.standard_normal(model.basis.n))
            assert max(gaps.values()) <= 1e-12, gaps

    @pytest.mark.parametrize("moving", [False, True], ids=["rest", "moving"])
    @pytest.mark.parametrize("which", ["small", "m1"])
    def test_matches_the_two_call_evaluation(self, small_model, m1_model, rng,
                                             monkeypatch, which, moving):
        """Every block M, G, V, B, Q, qin, qout of a sample equals the one
        from the two per-dofs calls it was assembled from before the line
        block (extensions with gradients, then the twins' values) to 1e-13
        relative, on the small model (m = 0) and on a model with an m = 1
        shell mode, at rest and moving with transport."""
        model = {"small": small_model, "m1": m1_model}[which]
        inputs = {}
        if moving:
            delta, dt_delta = _moving_inputs(model, rng)
            inputs = {"delta": delta, "dt_delta": dt_delta,
                      "v_coeff": rng.standard_normal(model.basis.n)}
        gaps = _oracle_gap(model, monkeypatch, _two_call_fluid_tables, **inputs)
        assert set(gaps) == {"M", "G", "V", "B", "Q", "qin", "qout"}
        assert max(gaps.values()) <= 1e-13, gaps


def _shuffled_twin(model, rng):
    """The model on its own grid with the nodes (r, theta, z, w) in a random
    order: the same quadrature, so every block is the same up to the order
    of its sums."""
    grid = copy.copy(model.grid)
    perm = rng.permutation(grid.n_nodes)
    for name in ("r", "theta", "z", "w"):
        setattr(grid, name, getattr(model.grid, name)[perm])
    return Assembler(model.cyl, model.basis, model.params, grid, model.solid_grid)


class TestNodeOrder:
    """The moving sample groups the nodes inside C by z line and radial
    element afresh per sample, whatever their order on the grid."""

    @pytest.mark.parametrize("which", ["default", "m1"])
    def test_shuffled_grid_gives_the_same_blocks(self, which, rng):
        """A moving sample with transport on a FluidGrid whose nodes are
        shuffled: every block within 1e-13 relative of the grid's own, on
        the default model and on n_theta = 2, n_z = 4, n_interior = 8."""
        cfg = {"default": RunConfig(),
               "m1": RunConfig(n_theta=2, n_z=4, n_interior=8)}[which].validate()
        model = build_model(cfg)
        twin = _shuffled_twin(model, rng)
        delta, dt_delta = _moving_inputs(model, rng)
        inputs = {"delta": delta, "dt_delta": dt_delta,
                  "v_coeff": rng.standard_normal(model.basis.n)}
        got, want = twin.sample(**inputs), model.sample(**inputs)
        assert got.keys() == want.keys()
        for k in want:
            assert _rel_gap(got[k], want[k]) <= 1e-13, k

    def test_nodes_crossing_the_corrector_breaks(self, small_model, rng, monkeypatch):
        """Two consecutive moving samples, the shell pulled in and then
        pushed out by a fifth of R, so that grid nodes cross each corrector
        element break R/8, R/4, 3R/8 and the boundary R/2 of C between the
        rest cylinder and either sample: both match the per-field oracle at
        the bar of TestStackedSample."""
        model, R = small_model, small_model.cyl.R
        shell = model.basis.shell_basis
        unit = np.eye(shell.n_modes)[0]
        unit /= admissibility(model.cyl, shell, unit)[0]
        breaks = (R / 8.0, R / 4.0, 3.0 * R / 8.0, R / 2.0)
        for sign in (-1.0, 1.0):
            delta = sign * 0.2 * R * unit
            jets = QuadJets(model.grid, shell, delta, np.zeros(shell.n_modes))
            for b in breaks:
                assert np.any((model.grid.r < b) != (jets.r_phys < b)), (sign, b)
            gaps = _oracle_gap(model, monkeypatch, delta=delta,
                               dt_delta=0.02 * rng.standard_normal(shell.n_modes),
                               v_coeff=rng.standard_normal(model.basis.n))
            assert max(gaps.values()) <= 1e-12, gaps


def _eight_node_twin(model, cfg):
    """The model on the m >= 1 theta rule max(8, 8 max_m + 4) taken at
    max_m = 0, 8 nodes: the same basis, the same r and z nodes.  The
    reference for the one-node rule of axisymmetric models."""
    grid = FluidGrid(model.cyl, n_r=cfg.n_r_fluid, n_theta=8,
                     n_z=max(12, 2 * cfg.n_z + 4))
    return Assembler(model.cyl, model.basis, model.params, grid,
                     model.solid_grid)


def _eight_node_model(cfg):
    return _eight_node_twin(build_model(cfg), cfg)


def _rel_gap(got, want):
    scale = np.max(np.abs(want))
    return np.max(np.abs(got - want)) / scale if scale else np.max(np.abs(got))


class TestOneThetaNode:
    """Axisymmetric models integrate on one theta node: every integrand of a
    sample is constant in theta, so the 8-node rule gives the same numbers."""

    def test_grid_sizes(self, small_cfg, small_model):
        n_z_grid = max(12, 2 * small_cfg.n_z + 4)
        per_theta = 3 * small_cfg.n_r_fluid * n_z_grid
        assert small_model.basis.shell_basis.max_azimuthal_wavenumber == 0
        assert small_model.grid.n_nodes == per_theta
        m1_cfg = RunConfig(n_theta=2, n_z=2, n_interior=4).validate()
        m1 = build_model(m1_cfg)
        assert m1.basis.shell_basis.max_azimuthal_wavenumber == 1
        assert m1.grid.n_nodes == 12 * 3 * m1_cfg.n_r_fluid * max(
            12, 2 * m1_cfg.n_z + 4)

    @pytest.mark.parametrize("which", ["small", "default"])
    def test_blocks_match_the_eight_node_rule(self, which, small_cfg,
                                              small_model, rng):
        """Rest, moving and transported samples on the small and the
        default model, every block within 1e-13 relative."""
        if which == "small":
            cfg, model = small_cfg, small_model
        else:
            cfg = RunConfig().validate()
            model = build_model(cfg)
        twin = _eight_node_twin(model, cfg)
        assert twin.grid.n_nodes == 8 * model.grid.n_nodes
        for x in ("r", "z"):
            assert np.array_equal(np.unique(getattr(twin.grid, x)),
                                  np.unique(getattr(model.grid, x)))
        shell = model.basis.shell_basis
        inputs = [{}]
        for v_amp in (0.0, 0.1):
            inputs.append({
                "delta": 0.02 * rng.standard_normal(shell.n_modes),
                "dt_delta": 0.05 * rng.standard_normal(shell.n_modes),
                "v_coeff": v_amp * rng.standard_normal(model.basis.n),
            })
        for kw in inputs:
            got, want = model.sample(**kw), twin.sample(**kw)
            assert got.keys() == want.keys()
            gaps = {k: _rel_gap(got[k], want[k]) for k in want}
            assert max(gaps.values()) <= 1e-13, gaps

    @pytest.mark.parametrize("run", [cli.run_periodic, cli.run_ivp])
    def test_runs_match_the_eight_node_rule(self, run, tmp_path, monkeypatch):
        """x_star (row 0 of coefficients.csv; the final state too for the
        IVP), sup_E and integral_D within 1e-12 relative, equal outer_iters."""
        cfg = RunConfig(n_z=4, n_interior=4, n_t=32, matrix_samples=4,
                        t_final=0.5, ivp_amplitude=1e-2).validate()
        outputs = []
        for tag, builder in (("one", build_model), ("eight", _eight_node_model)):
            monkeypatch.setattr(cli, "build_model", builder)
            out = tmp_path / tag
            out.mkdir()
            assert run(cfg, str(out)) == 0
            with open(out / "summary.csv") as fh:
                summary = next(csv.DictReader(fh))
            coeff = np.loadtxt(out / "coefficients.csv", delimiter=",",
                               skiprows=1)
            outputs.append((summary, coeff[:, 1:]))
        (s1, c1), (s8, c8) = outputs
        for k in ("sup_E", "integral_D"):
            assert _rel_gap(float(s1[k]), float(s8[k])) <= 1e-12, k
        assert s1["outer_iters"] == s8["outer_iters"]
        for row in (0, -1):
            assert _rel_gap(c1[row], c8[row]) <= 1e-12, row


class TestGalerkinState:
    def test_zero_and_validation(self):
        s = GalerkinState.zero(4)
        assert s.n == 4 and s.t == 0.0
        with pytest.raises(BasisMismatch):
            GalerkinState(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            GalerkinState(np.array([np.nan]), np.array([0.0]))

    def test_stacked_trajectory(self):
        a, v = np.arange(12.0).reshape(4, 3), -np.arange(12.0).reshape(4, 3)
        traj = GalerkinState(a, v, [0.0, 0.25, 0.5, 0.75])
        assert traj.n == 3
        assert traj.a.shape == traj.a_dot.shape == (4, 3)
        assert np.array_equal(traj.t, [0.0, 0.25, 0.5, 0.75])
        for t in ([0.0, 0.25, 0.5], np.zeros(5), 0.0):
            with pytest.raises(BasisMismatch):
                GalerkinState(a, v, t)
        with pytest.raises(BasisMismatch):
            GalerkinState(a, v[:, :2], np.zeros(4))
        with pytest.raises(BasisMismatch):
            GalerkinState(a[None], v[None], np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["a", "a_dot"])
    @pytest.mark.parametrize("row", [0, 2, 3])
    def test_a_non_finite_row_is_rejected(self, bad, field, row):
        x = {"a": np.ones((4, 3)), "a_dot": np.ones((4, 3))}
        x[field][row, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            GalerkinState(x["a"], x["a_dot"], np.arange(4.0))


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

    @pytest.mark.parametrize("which", ["small", "m1"])
    def test_solid_blocks_match_the_einsum_form(self, small_model, m1_model, which):
        """The constant solid blocks, each one product of the stacked solid
        table, equal the quadrature sums taken by einsum to 1e-13 relative,
        and are symmetric."""
        model = small_model if which == "small" else m1_model
        g, p, c = model.solid_grid, model.params, model.constants
        t = model.basis.solid_tables(g.r, g.theta, g.z)
        grad_gram = np.einsum("kijq,lijq,q->kl", t["grad"], t["grad"], g.w)
        div_gram = np.einsum("kq,lq,q->kl", t["div"], t["div"], g.w)
        want = {"M_solid": p.rho_s2 * np.einsum("kiq,liq,q->kl", t["val"], t["val"], g.w),
                "A_el": p.lambda1 * grad_gram + p.lambda2 * div_gram,
                "A_visc": p.lambda1 * p.delta_visc * grad_gram}
        for k, w in want.items():
            assert np.array_equal(c[k], c[k].T), k
            assert np.max(np.abs(c[k] - w)) <= 1e-13 * np.max(np.abs(w)), k

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
        delta, dt_delta = _moving_inputs(small_model, rng)
        s = small_model.sample(delta=delta, dt_delta=dt_delta)
        h = 1e-4
        Mp = small_model.sample(delta=delta + h * dt_delta)["M"]
        Mm = small_model.sample(delta=delta - h * dt_delta)["M"]
        fd = (Mp - Mm) / (2.0 * h)
        G = s["G"]
        scale = np.max(np.abs(fd)) + 1e-30
        assert np.max(np.abs(G + G.T - fd)) < 1e-5 * scale

    @pytest.mark.parametrize("which", ["small", "m1"])
    def test_moving_mass_block_matches_its_definition(self, small_model, m1_model,
                                                      rng, which):
        """The whole G, its antisymmetric half included, equals dM/2 + S/2
        built term by term from the same tables."""
        model = small_model if which == "small" else m1_model
        delta, dt_delta = _moving_inputs(model, rng)
        G = model.sample(delta=delta, dt_delta=dt_delta)["G"]
        want = _moving_mass_oracle(model, delta, dt_delta)
        assert np.max(np.abs(G - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.max(np.abs(G - G.T)) > 1e-3 * np.max(np.abs(G))

    def test_convection_block_skew(self, small_model, rng):
        delta, dt_delta = _moving_inputs(small_model, rng)
        v = rng.standard_normal(small_model.basis.n)
        s = small_model.sample(delta=delta, dt_delta=dt_delta, v_coeff=v)
        B = s["B"]
        assert np.max(np.abs(B + B.T)) < 1e-12 * (1 + np.max(np.abs(B)))
        assert abs(v @ B @ v) < 1e-10 * (1 + v @ v)

    def test_flux_vectors_match_the_extension_fields(self, small_model, rng):
        """The coupled flux entries from the table equal the disk quadrature
        of the sample's own extension fields."""
        delta, dt_delta = _moving_inputs(small_model, rng, amp=0.05)
        s = small_model.sample(delta=delta, dt_delta=dt_delta)
        fields = small_model.basis.extension_fields(delta)
        for name, z0 in (("qin", 0.0), ("qout", small_model.cyl.L)):
            direct = disk_flux(fields, small_model.grid, z0)
            assert np.max(np.abs(s[name][::2] - direct)) < 1e-12 * np.max(
                np.abs(s["qin"][::2]))

    def test_shell_transport_block_structure(self, small_model, rng):
        delta, dt_delta = _moving_inputs(small_model, rng)
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

    def test_mass_at_is_matrices_at(self, small_model, small_forcing, rng):
        """The batched mass interpolation equals matrices_at(t)["M"] at each
        t, on a sampled path and on a one-sample system, whose mass_at and
        matrices_at give their one sample with a time axis of length 1;
        the energies and the ledger of a trajectory equal their per-time
        values on both."""
        shell = small_model.basis.shell_basis
        n = small_model.basis.n
        t = np.arange(16) / 16
        samples = np.zeros((16, shell.n_modes))
        samples[:, 0] = 0.02 * np.sin(2 * np.pi * t)
        moving = assemble(small_model, 1.0, small_forcing, shell=samples,
                          n_samples=8)
        times = np.linspace(0.0, 1.0, 11)
        dt = times[1]
        traj = GalerkinState(rng.standard_normal((11, n)), rng.standard_normal((11, n)),
                             times)
        loads = rng.standard_normal((10, n))
        rest = assemble(small_model, 1.0, small_forcing)
        for system, steps in ((moving, 11), (rest, 1)):
            M = system.mass_at(times)
            mats = system.matrices_at(times)
            assert M.shape == mats["M"].shape == (steps, n, n)
            assert mats["C"].shape == (steps, n, n)
            assert mats["qin"].shape == mats["qout"].shape == (steps, n)
            for t, Mt in zip(times, np.broadcast_to(M, (11, n, n))):
                want = system.matrices_at(t)["M"]
                assert np.max(np.abs(Mt - want)) <= 1e-14 * np.max(np.abs(want))
            E_kin, E_el = energies(system, traj)
            want = np.array([[0.5 * v @ system.matrices_at(t)["M"] @ v, 0.5 * a @ system.K @ a]
                             for t, a, v in zip(times, traj.a, traj.a_dot)])
            np.testing.assert_allclose(np.column_stack([E_kin, E_el]), want,
                                       rtol=1e-14, atol=0.0)
            led = EnergyLedger.from_trajectory(system, traj, dt, loads)
            vbar = 0.5 * (traj.a_dot[:-1] + traj.a_dot[1:])
            D, work = [], []
            for m, v in enumerate(vbar):
                w = trig_weights((m + 0.5) * dt, 1.0, system.times.size)
                Vm, Qm = (np.tensordot(w, system.stacks[k], axes=1) for k in ("V", "Q"))
                D.append(v @ (Vm + system.constants["A_visc"]) @ v)
                work.append(v @ loads[m] - v @ Qm @ v)
            assert np.array_equal(led.E, E_kin[:-1] + E_el[:-1])
            np.testing.assert_allclose(led.D, D, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(led.work_rate, work, rtol=1e-13, atol=0.0)

    def test_summed_stacks_match_the_per_block_interpolation(self, small_model,
                                                              small_forcing, rng):
        """matrices_at interpolates the mass and damping samples summed with
        their constant blocks; that equals interpolating each sampled block
        on its own and adding the constants after (the trig weights sum to
        one), to 1e-14 relative, at a time and at an array of times."""
        shell = small_model.basis.shell_basis
        t = np.arange(16) / 16
        samples = np.zeros((16, shell.n_modes))
        samples[:, 0] = 0.02 * np.sin(2 * np.pi * t)
        transport = 0.05 * np.outer(np.cos(2 * np.pi * t),
                                    rng.standard_normal(small_model.basis.n))
        system = assemble(small_model, 1.0, small_forcing, shell=samples,
                          transport=transport, n_samples=8)
        c = system.constants
        for times in (0.37, rng.uniform(0.0, 1.0, 5)):
            w = trig_weights(np.asarray(times), 1.0, 8)
            blocks = {k: np.tensordot(w, v, axes=1) for k, v in system.stacks.items()}
            want = {"M": blocks["M"] + c["M_shell"] + c["M_solid"],
                    "C": blocks["G"] + blocks["B"] + blocks["Q"] + blocks["V"]
                    + c["A_visc"], "qin": blocks["qin"], "qout": blocks["qout"]}
            got = system.matrices_at(times)
            for k, v in want.items():
                assert got[k].shape == v.shape
                assert np.max(np.abs(got[k] - v)) <= 1e-14 * np.max(np.abs(v)), k

    def test_transport_requires_geometry_path(self, small_model, small_forcing):
        transport = np.zeros((8, small_model.basis.n))
        with pytest.raises(GridMismatch):
            assemble(small_model, 1.0, small_forcing, transport=transport)

    def test_transport_path_of_another_length(self, small_model, small_forcing):
        shell = np.zeros((16, small_model.basis.shell_basis.n_modes))
        transport = np.zeros((8, small_model.basis.n))
        with pytest.raises(GridMismatch):
            assemble(small_model, 1.0, small_forcing, shell=shell,
                     transport=transport)

    def test_sample_count_must_divide_the_grid(self, small_model, small_forcing):
        shell = np.zeros((12, small_model.basis.shell_basis.n_modes))
        with pytest.raises(GridMismatch):
            assemble(small_model, 1.0, small_forcing, shell=shell, n_samples=5)

    def test_spectral_derivative_on_the_coarse_grid(self, small_model,
                                                     monkeypatch):
        """The samples sit at every (n_t / n_samples)-th grid time of the
        period T, and each sees the spectral time derivative of the shell
        path: 2 pi / T cos for a sin path."""
        T, N = 2.0, 32
        t = np.arange(N) * T / N
        shell = np.zeros((N, small_model.basis.shell_basis.n_modes))
        shell[:, 0] = 0.01 * np.sin(2 * np.pi * t / T)
        seen = []
        sample = small_model.sample

        def recording(delta=None, dt_delta=None, v_coeff=None):
            seen.append((delta, dt_delta, v_coeff))
            return sample(delta, dt_delta, v_coeff)

        monkeypatch.setattr(small_model, "sample", recording)
        system = assemble(small_model, T, None, shell=shell, n_samples=4)
        idx = [0, 8, 16, 24]
        assert np.array_equal(system.times, t[idx])
        exact = (2 * np.pi / T) * 0.01 * np.cos(2 * np.pi * t[idx] / T)
        for (c, dc, v), i, want in zip(seen, idx, exact, strict=True):
            assert np.array_equal(c, shell[i]) and v is None
            assert abs(dc[0] - want) < 1e-12 and not np.any(dc[1:])

    def test_interpolation_hits_samples(self, small_model, small_forcing):
        shell = small_model.basis.shell_basis
        N = 16
        t = np.arange(N) / N
        samples = np.zeros((N, shell.n_modes))
        samples[:, 0] = 0.02 * np.sin(2 * np.pi * t)
        system = assemble(small_model, 1.0, small_forcing, shell=samples,
                          n_samples=8)
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
        with pytest.raises(DomainViolation) as err:
            assemble(small_model, 1.0, small_forcing, shell=samples,
                     n_samples=8)
        assert err.value.time is not None

    def test_inadmissible_path_builds_no_sample(self, small_model, monkeypatch):
        """The coarse samples are checked in one batch: the first
        inadmissible coarse time is reported before any sample is built,
        though earlier coarse times are admissible."""
        shell = small_model.basis.shell_basis
        samples = np.zeros((16, shell.n_modes))
        samples[6:, 0] = 3.0  # coarse (step 2) times 0, 2, 4 pass, 6 fails
        built = []
        monkeypatch.setattr(small_model, "sample", lambda *a, **k: built.append(1))
        with pytest.raises(DomainViolation) as err:
            assemble(small_model, 1.0, None, shell=samples, n_samples=8)
        assert err.value.time == 6 / 16
        assert built == []
