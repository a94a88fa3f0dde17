"""Divergence-free extension operator, Piola transform, and mollifiers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perifsi import extension_ops
from perifsi.cli import RunConfig, build_model
from perifsi.errors import LinearSolveFailure
from perifsi.extension_ops import ExtensionField, azimuthal_damping, mollify
from perifsi.fluidgrid import (
    QuadJets,
    azimuthal_factors,
    cyl_tensor_to_cart,
    cyl_vec_to_cart,
    frame_tables,
)
from perifsi.geometry import CylinderConfig, admissibility
from perifsi.shell_solid import ShellBasis


def _random_points(g, cyl, n=40):
    """Points of the closed fluid region, both inside and outside r = R/2."""
    return (g.uniform(0.01, 1.0, n) * cyl.R, g.uniform(0.0, 2 * np.pi, n),
            g.uniform(0.0, cyl.L, n))


def _rel_gap(a, b, ref=None):
    """Largest gap of the tables a and b relative to the size of ref
    (default b); the divergence, a cancelling trace, is measured against the
    gradient."""
    ref = b if ref is None else ref
    scale = {k: np.max(np.abs(ref[k])) for k in ("val", "grad")}
    scale["div"] = scale["grad"]
    return max(np.max(np.abs(a[k] - b[k])) / scale[k] for k in scale)


def _radial_and_plug(cyl, flux, h, ht, hz, r, z):
    """Cylindrical value (..., 3, Q), frame gradient (..., 3, 3, Q) and
    divergence (..., Q) of the radial part and the plug of extensions with
    data h and its theta and z derivatives ht, hz (..., Q) and fluxes flux
    (a number, or (..., 1)), written out entry by entry."""
    Q = r.size
    val, G, div = (np.zeros(h.shape[:-1] + s + (Q,)) for s in ((3,), (3, 3), ()))
    out = r >= cyl.R / 2.0
    val[..., 0, out] = h[..., out] / r[out]
    G[..., 0, 0, out] = -h[..., out] / r[out] ** 2
    G[..., 0, 1, out] = ht[..., out] / r[out] ** 2
    G[..., 0, 2, out] = hz[..., out] / r[out]
    G[..., 1, 1, out] = h[..., out] / r[out] ** 2
    inn = ~out
    c4 = 4.0 / cyl.R**2
    ri, zi = r[inn], z[inn]
    val[..., 0, inn] = c4 * ri * h[..., inn]
    G[..., 0, 0, inn] = G[..., 1, 1, inn] = c4 * h[..., inn]
    G[..., 0, 1, inn] = c4 * ht[..., inn]
    G[..., 0, 2, inn] = c4 * ri * hz[..., inn]
    a, da = extension_ops.plug_radial_profile(cyl, ri, 1)
    g, dg = extension_ops.plug_axial_profile(cyl, zi, 1)
    val[..., 2, inn] = flux * a * g
    G[..., 2, 0, inn] = flux * da * g
    G[..., 2, 2, inn] = flux * a * dg
    div[..., inn] = 2.0 * c4 * h[..., inn] + flux * a * dg
    return val, G, div


def _corrector_tables(sol, parity, f, f_r, f_z, r, theta):
    """Cylindrical value, frame gradient and divergence of the fields of a
    (solver, parity) part with component profiles f and their r and z
    partials f_r, f_z (..., 3, Q): the profiles times azimuthal_factors,
    through frame_tables."""
    T, dT = azimuthal_factors(sol.m, parity, theta)
    return (f * T, *frame_tables(f * T, np.stack([f_r * T, f * dT, f_z * T], axis=-2), r))


def per_field_extension(ext_op, base, delta, xi, r, theta, z):
    """Cartesian value (3, Q), gradient (3, 3, Q) and divergence (Q) of the
    extension of h = (base + delta) xi, one field by itself: the data from
    ShellBasis.evaluate, the corrector from its full radial and axial tables
    at every node, the frame rotated by an explicit R G R^T.  The reference
    for the stacked evaluation."""
    cyl = ext_op.cyl
    flux_table, parts = ext_op.table
    w = np.concatenate([[base], delta])
    flux = float(w @ flux_table @ xi)
    xv, xt, xz = ext_op.shell_basis.evaluate(xi, theta, z, 1)
    dv, dt, dz = ext_op.shell_basis.evaluate(delta, theta, z, 1)
    h, ht, hz = (base + dv) * xv, dt * xv + (base + dv) * xt, dz * xv + (base + dv) * xz
    Q = r.size
    val, G, div = _radial_and_plug(cyl, flux, h, ht, hz, r, z)
    inn = r < cyl.R / 2.0
    ri, zi, thi = r[inn], z[inn], theta[inn]
    for sol, parity, d in parts:
        dofs = xi @ np.tensordot(w, d, axes=1)
        Tr, Tz = sol.fam_r.eval_table(ri, 1), sol.fam_z.eval_table(zi, 1)
        prof = np.zeros((3, 3, ri.size))  # f, f_r, f_z of the components r, t, z
        for i, comp in enumerate(sol.comps):
            cm = dofs[i * sol.block:(i + 1) * sol.block].reshape(sol.fam_r.nfun, -1)
            W = np.sum((cm.T @ Tr[:, 0]) * Tz[:, 0], axis=0)
            W_r = np.sum((cm.T @ Tr[:, 1]) * Tz[:, 0], axis=0)
            W_z = np.sum((cm.T @ Tr[:, 0]) * Tz[:, 1], axis=0)
            if comp in ("r", "t") or sol.m > 0:
                W, W_r, W_z = ri * W, W + ri * W_r, ri * W_z
            prof[:, "rtz".index(comp)] = W, W_r, W_z
        wv, wG, wdiv = _corrector_tables(sol, parity, *prof, ri, thi)
        val[:, inn] -= wv
        G[:, :, inn] -= wG
        div[inn] -= wdiv
    cs, sn, zero = np.cos(theta), np.sin(theta), np.zeros(Q)
    rot = np.array([[cs, -sn, zero], [sn, cs, zero], [zero, zero, zero + 1.0]])
    return (np.einsum("ikq,kq->iq", rot, val),
            np.einsum("ikq,klq,jlq->ijq", rot, G, rot), div)


def dof_profiles(sol, dofs, r, z, partials=True):
    """Component profiles f (with radial factors) of the solver's fields
    with dofs (..., ndof) at the nodes (r, z) and, unless partials is
    false, their r and z partials f_r, f_z, stacked as (3, ..., 3, Q) by
    frame component (zero rows for a component the solver lacks, and for
    the partials when partials is false): the dof block contracted with the
    axial table at the distinct z values of the nodes in C and with the
    radial element modes, then one batched product with each node's radial
    Legendre table.  The per-dofs evaluation the package used before the
    line block of the table; the reference for it and for solves of
    arbitrary sources."""
    r = np.asarray(r, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    lead, Q = dofs.shape[:-1], r.size
    fam_r, nc = sol.fam_r, len(sol.comps)
    nd = 2 if partials else 1
    p = fam_r.degree + 1
    inside = np.flatnonzero(r < sol.r_breaks[-1])
    zs, line = np.unique(z[inside], return_inverse=True)
    D = dofs.reshape(-1, nc, fam_r.nfun, sol.fam_z.nfun)
    n_fc, n_el = D.shape[0] * nc, fam_r.dof_basis.shape[0]
    A = np.tensordot(D, sol.fam_z.eval_table(zs, nd - 1), axes=1)
    A = np.tensordot(A, fam_r.dof_basis, axes=([2], [1]))
    A = A.transpose(3, 4, 0, 1, 2).reshape(zs.size * n_el, n_fc * nd)
    element, Tr = fam_r.local_table(r[inside], nd - 1)
    rows = (line * n_el + element * p)[:, None] + np.arange(p)
    prof = (Tr @ A[rows]).reshape(inside.size, nd, n_fc, nd)
    V = np.zeros((n_fc, nd, Q))
    V_r = np.zeros((n_fc, Q))
    V[:, :, inside] = prof[:, 0].transpose(1, 2, 0)
    if partials:
        V_r[:, inside] = prof[:, 1, :, 0].T
    V, V_r = V.reshape(-1, nc, nd, Q), V_r.reshape(-1, nc, Q)
    out = np.zeros((3, len(V), 3, Q))
    for i, comp in enumerate(sol.comps):
        k = "rtz".index(comp)
        W = V[:, i, 0]
        radial = comp in ("r", "t") or sol.m > 0
        out[0, :, k] = r * W if radial else W
        if partials:
            W_r, W_z = V_r[:, i], V[:, i, 1]
            out[1, :, k] = W + r * W_r if radial else W_r
            out[2, :, k] = r * W_z if radial else W_z
    return out.reshape((3,) + lead + (3, Q))


class DofsExtension:
    """F extensions of the data h_f = (base + delta) xi_f from their fluxes
    (F,) and corrector dofs [(solver, parity, dofs (F, ndof))], each
    evaluated on its own: dof_profiles per (solver, parity), the data from
    delta.evaluate.  The two-call evaluation of a sample before the line
    block (the extensions with their gradients, then their time-derivative
    twins' values); the reference for the stacked one."""

    def __init__(self, ext_op, X, base, delta, flux, dofs):
        self.cyl = ext_op.cyl
        self.shell_basis = ext_op.shell_basis
        self.X = X
        self.base = base
        self.delta = delta
        self.flux = flux
        self.dofs = dofs

    @classmethod
    def from_table(cls, ext_op, base, delta, X):
        flux, parts = ext_op.table
        w = np.concatenate([[base], delta])
        dofs = [(sol, parity, X @ np.tensordot(w, d, axes=1))
                for sol, parity, d in parts]
        return cls(ext_op, X, base, delta, X @ (w @ flux), dofs)

    def _frame_tables(self, r, theta, z, partials):
        """Cylindrical values (F, 3, Q), frame gradients (F, 3, 3, Q) and
        divergences (F, Q); without partials the gradients and divergences
        are those of the radial parts and plugs alone."""
        tab = self.shell_basis.eval_modes(theta, z, 1)
        xv, xt, xz = np.tensordot(self.X, tab, axes=1).transpose(1, 0, 2)
        dv, dt, dz = self.shell_basis.evaluate(self.delta, theta, z, 1)
        c = self.base + dv
        val, G, div = _radial_and_plug(self.cyl, self.flux[:, None], c * xv,
                                       dt * xv + c * xt, dz * xv + c * xz, r, z)
        for sol, parity, dofs in self.dofs:
            prof = dof_profiles(sol, dofs, r, z, partials)
            wv, wG, wdiv = _corrector_tables(sol, parity, *prof, r, theta)
            val -= wv
            G -= wG
            div -= wdiv
        return val, G, div

    def tables(self, r, theta, z):
        r, theta, z = (np.asarray(x, dtype=float).ravel() for x in (r, theta, z))
        val, G, div = self._frame_tables(r, theta, z, partials=True)
        return {
            "val": cyl_vec_to_cart(val[:, 0], val[:, 1], val[:, 2], theta),
            "grad": cyl_tensor_to_cart(G, theta),
            "div": div,
        }

    def __call__(self, r, theta, z):
        r, theta, z = (np.asarray(x, dtype=float).ravel() for x in (r, theta, z))
        val = self._frame_tables(r, theta, z, partials=False)[0]
        return cyl_vec_to_cart(val[:, 0], val[:, 1], val[:, 2], theta)


class TestExtension:
    def test_linearity_in_boundary_data(self, small_model, rng):
        ext_op = small_model.basis.ext_op
        shell = small_model.basis.shell_basis
        a = rng.standard_normal(shell.n_modes)
        b = rng.standard_normal(shell.n_modes)
        r = np.linspace(0.05, 0.95, 7)
        th = np.linspace(0.0, 2 * np.pi, 7, endpoint=False)
        z = np.linspace(0.1, 1.9, 7)
        rest = np.zeros(shell.n_modes)
        fa = ext_op.extend(rest, a).tables(r, th, z)["val"]
        fb = ext_op.extend(rest, b).tables(r, th, z)["val"]
        fab = ext_op.extend(rest, a + 2.0 * b).tables(r, th, z)["val"]
        assert np.max(np.abs(fab - fa - 2.0 * fb)) < 1e-10

    def test_divergence_theorem_flux_balance(self, small_model, rng):
        """Being divergence free, the extension's net boundary flux vanishes:
        outlet minus inlet disk flux balances the lateral interface flux."""
        cyl = small_model.cyl
        ext_op = small_model.basis.ext_op
        shell = small_model.basis.shell_basis
        grid = small_model.grid
        xi = rng.standard_normal(shell.n_modes)
        f = ext_op.extend(np.zeros(shell.n_modes), xi)
        disk = {}
        for z0 in (0.0, cyl.L):
            r, th, w, z = grid.disk(z0)
            disk[z0] = float(f.tables(r, th, z)["val"][0, 2] @ w)
        th, z, w = shell.quadrature(refine=2)
        lateral = float((shell.evaluate(xi, th, z, 0)[0] * cyl.R) @ w)
        net = disk[cyl.L] - disk[0.0] + lateral
        scale = abs(lateral) + abs(disk[0.0]) + abs(disk[cyl.L]) + 1e-30
        assert abs(net) < 1e-8 * scale

    def test_m1_extensions_are_divergence_free_on_a_moving_grid(self):
        """On a model with m = 1 shell modes, the coupled extensions from an
        interface moved by 0.05 in every shell mode have max |div| below
        1e-8 of max |grad| on the moved grid's nodes (measured 2.4e-10):
        their data's products of two m = 1 modes carry m = 2, which the
        m = 2 corrector removes."""
        model = build_model(RunConfig(n_theta=2, n_z=2, n_interior=4).validate())
        shell = model.basis.shell_basis
        delta = np.full(shell.n_modes, 0.05)
        jets = QuadJets(model.grid, shell, delta, np.zeros(shell.n_modes))
        t = model.basis.extension_fields(delta).tables(jets.r_phys, jets.theta, jets.z)
        assert np.max(np.abs(t["div"])) <= 1e-8 * np.max(np.abs(t["grad"]))

    @pytest.mark.parametrize("n_z", [12, 16])
    def test_long_beams_extensions_are_divergence_free_on_a_moving_grid(self, n_z):
        """With n_z beam modes the data Y_k Y_i carry axial products the 34
        modes of NZ_MODES do not resolve (max |div| reads 4.4e-4 and 7.3e-4
        of max |grad| for n_z = 12 and 16 then); the corrector's family of
        4 n_z + 2 modes does: every coupled extension from an interface
        moved by 0.01 in every shell mode has max |div| below 1e-6 of its
        max |grad| on the moved grid (measured 1.3e-7 and 1.8e-8)."""
        model = build_model(RunConfig(n_z=n_z).validate())
        shell = model.basis.shell_basis
        delta = np.full(shell.n_modes, 0.01)
        jets = QuadJets(model.grid, shell, delta, np.zeros(shell.n_modes))
        t = model.basis.extension_fields(delta).tables(jets.r_phys, jets.theta, jets.z)
        div = np.max(np.abs(t["div"]), axis=-1)
        grad = np.max(np.abs(t["grad"]).reshape(len(div), -1), axis=-1)
        assert len(div) == model.basis.half
        assert np.all(div <= 1e-6 * grad)

    def test_time_derivative_matches_finite_difference(self, small_model, rng):
        """extend is affine in delta, so along delta(t) = delta0 + t ddelta the
        field's time derivative is extend_dt(ddelta, xi)."""
        ext_op = small_model.basis.ext_op
        shell = small_model.basis.shell_basis
        c0 = 0.02 * rng.standard_normal(shell.n_modes)
        dc = 0.01 * rng.standard_normal(shell.n_modes)
        xi = rng.standard_normal(shell.n_modes)
        r = np.linspace(0.05, 0.9, 6)
        th = np.linspace(0.0, 2 * np.pi, 6, endpoint=False)
        z = np.linspace(0.2, 1.8, 6)
        h = 1e-5
        fp = ext_op.extend(c0 + h * dc, xi).tables(r, th, z)["val"]
        fm = ext_op.extend(c0 - h * dc, xi).tables(r, th, z)["val"]
        fd = (fp - fm) / (2.0 * h)
        dt_field = ext_op.extend_dt(dc, xi).tables(r, th, z)["val"]
        assert np.max(np.abs(dt_field - fd)) < 1e-6


class TestExtensionTable:
    def test_table_matches_a_direct_solve(self, small_model, rng):
        """The contracted table equals the corrector solve of the pointwise
        data (R + delta) xi and its quadrature flux."""
        cyl = small_model.cyl
        ext_op = small_model.basis.ext_op
        shell = small_model.basis.shell_basis
        delta = 0.02 * rng.standard_normal(shell.n_modes)
        xi = rng.standard_normal(shell.n_modes)

        def data(theta, z):
            dv, xv = (shell.evaluate(c, theta, z, 0)[0] for c in (delta, xi))
            return (cyl.R + dv) * xv

        th, z, w = shell.quadrature(refine=2)
        flux = float(data(th, z) @ w)
        h = data(*ext_op.source_nodes())[:, None]
        parts = ext_op.corrector_dofs(h, np.array([flux]))
        direct = DofsExtension(ext_op, xi[None], cyl.R, delta,
                               np.array([flux]), [(sol, p, d.T) for sol, p, d in parts])
        contracted = DofsExtension.from_table(ext_op, cyl.R, delta, xi[None])
        field = ext_op.extend(delta, xi)
        assert abs(field.flux[0] - flux) <= 1e-12 * abs(flux)
        for (s1, p1, d1), (s2, p2, d2) in zip(contracted.dofs, direct.dofs):
            assert s1 is s2 and p1 == p2
            assert np.max(np.abs(d1 - d2)) <= 1e-12 * np.max(np.abs(d2))
        pts = _random_points(rng, cyl)
        assert _rel_gap(field.tables(*pts), direct.tables(*pts)) <= 1e-12

    def test_corrector_dofs_reject_a_source_that_is_not_finite(self, small_model):
        """The solves see only unit sources, so the data are checked where
        they enter."""
        ext_op = small_model.basis.ext_op
        h = np.zeros((ext_op.source_nodes()[0].size, 2))
        h[7, 1] = np.inf
        with pytest.raises(ValueError):
            ext_op.corrector_dofs(h, np.zeros(2))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_extend_is_affine_in_delta(self, small_model, seed):
        """extend(delta, xi) - extend(0, xi) == extend_dt(delta, xi), to
        round-off in extend(delta, xi)."""
        g = np.random.default_rng(seed)
        ext_op = small_model.basis.ext_op
        shell = small_model.basis.shell_basis
        delta = 0.03 * g.standard_normal(shell.n_modes)
        xi = g.standard_normal(shell.n_modes)
        pts = _random_points(g, small_model.cyl)
        moved = ext_op.extend(delta, xi).tables(*pts)
        rest = ext_op.extend(np.zeros(shell.n_modes), xi).tables(*pts)
        dt = ext_op.extend_dt(delta, xi).tables(*pts)
        diff = {k: moved[k] - rest[k] for k in moved}
        assert _rel_gap(dt, diff, moved) <= 1e-12

    def test_no_corrector_solve_after_the_first_extension(
            self, small_model, rng, monkeypatch):
        basis = small_model.basis
        shell = basis.shell_basis
        basis.ext_op.extend(np.zeros(shell.n_modes), np.eye(shell.n_modes)[0])
        small_model.sample()
        solves = []
        solve = extension_ops._ModeSolver.solve

        def counting(self, g_nodes):
            solves.append(g_nodes.shape)
            return solve(self, g_nodes)

        monkeypatch.setattr(extension_ops._ModeSolver, "solve", counting)
        delta = 0.02 * rng.standard_normal(shell.n_modes)
        dt_delta = 0.02 * rng.standard_normal(shell.n_modes)
        basis.ext_op.extend(delta, np.eye(shell.n_modes)[1])
        basis.ext_op.extend_dt(dt_delta, np.eye(shell.n_modes)[1])
        small_model.sample(delta=delta, dt_delta=dt_delta,
                           v_coeff=rng.standard_normal(basis.n))
        assert solves == []

    def test_a_moving_sample_reuses_the_line_block(self, small_model, rng,
                                                   monkeypatch):
        """After the first sample, a moving sample on the same grid takes no
        corrector axial table (the line block of the grid's z lines is
        memoized on the operator) and evaluates its extensions and their
        time-derivative twins in one ExtensionField node evaluation."""
        basis = small_model.basis
        shell = basis.shell_basis
        small_model.sample()
        calls = []

        def axial_table(*args, **kwargs):
            raise AssertionError("corrector axial table evaluated")

        for sol in basis.ext_op.solvers:
            monkeypatch.setattr(sol.fam_z, "eval_table", axial_table)
        values = ExtensionField._values

        def counting(self, *args, **kwargs):
            calls.append(len(self.W) * len(self.X))
            return values(self, *args, **kwargs)

        monkeypatch.setattr(ExtensionField, "_values", counting)
        small_model.sample(
            delta=0.02 * rng.standard_normal(shell.n_modes),
            dt_delta=0.02 * rng.standard_normal(shell.n_modes),
            v_coeff=rng.standard_normal(basis.n))
        assert calls == [2 * basis.half]

    def test_nodes_outside_the_corrector_build_no_line_block(self, small_model):
        """Nodes with r >= R/2 (such as the interface points of the coupling
        diagnostics) need no corrector, so their evaluation memoizes no line
        block for their z values."""
        ext_op = small_model.basis.ext_op
        shell = small_model.basis.shell_basis
        field = ext_op.extend(np.zeros(shell.n_modes), np.eye(shell.n_modes)[0])
        keys = set(ext_op._line_blocks)
        r = np.linspace(0.5, 1.0, 7) * small_model.cyl.R
        th, z = np.linspace(0.0, 6.0, 7), np.linspace(0.1, 1.9, 7)
        t = field.tables(r, th, z)
        assert t["val"].shape == (1, 3, 7) and t["grad"].shape == (1, 3, 3, 7)
        assert set(ext_op._line_blocks) == keys

    def test_scattered_points_keep_no_line_block(self, small_model, rng,
                                                 monkeypatch):
        """200 scattered points inside C share no z line: their evaluation
        builds a line block but the memo does not keep it, and a moving
        sample on the grid still finds the grid's block there (it builds
        none)."""
        ext_op = small_model.basis.ext_op
        shell = small_model.basis.shell_basis
        small_model.sample()
        keys = set(ext_op._line_blocks)
        built = []
        for sol in ext_op.solvers:
            line_block = sol.line_block
            monkeypatch.setattr(sol, "line_block",
                                lambda *a, f=line_block: built.append(1) or f(*a))
        field = ext_op.extend(np.zeros(shell.n_modes), np.eye(shell.n_modes)[0])
        R = small_model.cyl.R
        r = rng.uniform(0.01, 0.49, 200) * R
        th, z = rng.uniform(0.0, 2 * np.pi, 200), rng.uniform(0.0, small_model.cyl.L, 200)
        assert field.tables(r, th, z)["val"].shape == (1, 3, 200)
        assert built and set(ext_op._line_blocks) == keys
        built.clear()
        small_model.sample(
            delta=0.02 * rng.standard_normal(shell.n_modes),
            dt_delta=0.02 * rng.standard_normal(shell.n_modes))
        assert built == []

    def test_stacks_only_extensions_of_the_same_data(self, small_model, rng):
        ext_op = small_model.basis.ext_op
        shell = small_model.basis.shell_basis
        X = rng.standard_normal((2, shell.n_modes))
        ext = ext_op.extend(np.zeros(shell.n_modes), X)
        with pytest.raises(ValueError):
            ext.stack(ext_op.extend_dt(np.zeros(shell.n_modes), 2.0 * X))

    def test_build_model_builds_no_solver_and_no_table(self, small_cfg):
        model = build_model(small_cfg)
        built = vars(model.basis.ext_op)
        assert "solvers" not in built and "table" not in built
        assert "_disk_flux" not in vars(model)


class TestStackedEvaluation:
    @pytest.mark.parametrize("moving", [False, True])
    def test_each_field_matches_the_per_field_formula(self, small_model, rng, moving):
        """Every field of a stacked extension, of its time-derivative twin
        and of the two stacked into one field equals the extension of its
        own data alone, at points inside and outside r = R/2: values,
        gradients and divergences, and values alone for the twin's fields
        in the stack."""
        ext_op = small_model.basis.ext_op
        shell = small_model.basis.shell_basis
        R = small_model.cyl.R
        delta = (0.02 * rng.standard_normal(shell.n_modes) if moving
                 else np.zeros(shell.n_modes))
        X = rng.standard_normal((3, shell.n_modes))
        pts = _random_points(rng, small_model.cyl, n=60)
        ext = ext_op.extend(delta, X)
        stacks = [(ext, [R])]
        if moving:
            twin = ext_op.extend_dt(delta, X)
            stacks += [(twin, [0.0]), (ext.stack(twin), [R, 0.0])]
        for field, bases in stacks:
            got = field.tables(*pts)
            n_grad = (len(bases) - field.twins) * len(X)
            assert got["grad"].shape[0] == got["div"].shape[0] == n_grad
            for i, base in enumerate(bases):
                for f, x in enumerate(X):
                    v, g, div = per_field_extension(ext_op, base, delta, x, *pts)
                    row = i * len(X) + f
                    if row < n_grad:
                        want = {"val": v, "grad": g, "div": div}
                        assert _rel_gap({k: got[k][row] for k in got}, want) <= 1e-12
                    else:
                        ref = max(np.max(np.abs(v)), 1e-300)
                        assert np.max(np.abs(got["val"][row] - v)) <= 1e-12 * ref

    @given(st.integers(min_value=0, max_value=10**6), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_node_order_only_permutes_the_output(self, small_model, seed, scattered):
        """Shuffling the nodes of a moving grid, or of scattered random
        points, permutes the tables and changes nothing else."""
        g = np.random.default_rng(seed)
        shell = small_model.basis.shell_basis
        delta = 0.03 * g.standard_normal(shell.n_modes)
        field = small_model.basis.ext_op.extend(
            delta, g.standard_normal((2, shell.n_modes)))
        if scattered:
            pts = _random_points(g, small_model.cyl, n=200)
        else:
            jets = QuadJets(small_model.grid, shell, delta, np.zeros(shell.n_modes))
            pts = (jets.r_phys, jets.theta, jets.z)
        perm = g.permutation(pts[0].size)
        a = field.tables(*pts)
        b = field.tables(*(p[perm] for p in pts))
        assert _rel_gap(b, {k: v[..., perm] for k, v in a.items()}) <= 1e-14


def _nodal_divergence(sol, dofs):
    """div w at the collocation nodes (r-major, z) of the cos-parity field
    with the given dofs (ndof, S), read off its frame gradient at theta = 0,
    where the cos factor is 1."""
    R, Z = np.meshgrid(sol.r_nodes, sol.z_nodes, indexing="ij")
    r, z = R.ravel(), Z.ravel()
    th = np.zeros_like(r)
    out = []
    for d in dofs.T:
        out.append(_corrector_tables(sol, "cos", *dof_profiles(sol, d, r, z), r, th)[2])
    return np.stack(out, axis=-1).reshape(R.shape + (-1,))


def _collocation_and_energy(sol):
    """The whole collocation matrix C (nodes, ndof) of a solver, its nodes
    r-major, and its unshifted block-diagonal energy
    A = Ar x Mz + Mr x Az + 1e-10 Mr x Mz per component, built densely."""
    from perifsi.basis1d import composite_gauss, gauss

    m, L = sol.m, sol.fam_z.domain[1]
    rc, zc = sol.r_nodes, sol.z_nodes
    Tr, Tz = sol.fam_r.eval_table(rc, 1), sol.fam_z.eval_table(zc, 1)
    rq, wrq = composite_gauss(sol.r_breaks, extension_ops.R_DEGREE + 3)
    zq, wzq = gauss(sol.fam_z.nfun + 4, 0.0, L)
    Trq, Tzq = sol.fam_r.eval_table(rq, 1), sol.fam_z.eval_table(zq, 1)
    Mz = np.einsum("iy,jy,y->ij", Tzq[:, 0], Tzq[:, 0], wzq)
    Az = np.einsum("iy,jy,y->ij", Tzq[:, 1], Tzq[:, 1], wzq)
    cols, A = [], np.zeros((sol.ndof, sol.ndof))
    for i, comp in enumerate(sol.comps):
        if comp == "r":
            rad, ax = 2.0 * Tr[:, 0] + rc * Tr[:, 1], Tz[:, 0]
        elif comp == "t":
            rad, ax = float(m) * Tr[:, 0], Tz[:, 0]
        else:
            rad, ax = (Tr[:, 0] if m == 0 else rc * Tr[:, 0]), Tz[:, 1]
        cols.append(np.einsum("ix,jy->ijxy", rad, ax).reshape(sol.block, -1))
        if comp in ("r", "t") or m > 0:
            a, da = rq * Trq[:, 0], Trq[:, 0] + rq * Trq[:, 1]
        else:
            a, da = Trq[:, 0], Trq[:, 1]
        Mr = np.einsum("ix,jx,x->ij", a, a, wrq * rq)
        Ar = np.einsum("ix,jx,x->ij", da, da, wrq * rq)
        sl = slice(i * sol.block, (i + 1) * sol.block)
        A[sl, sl] = np.kron(Ar, Mz) + np.kron(Mr, Az) + 1e-10 * np.kron(Mr, Mz)
    return np.concatenate(cols).T, A


def _dense_solve(sol, g_nodes):
    """The corrector solve as one full SVD of the whole collocation system
    with a dense Gram and its nullspace correction: the reference for the
    parity-split, whitened solver."""
    from scipy.linalg import solve_triangular

    C, A = _collocation_and_energy(sol)
    U, s, Vt = np.linalg.svd(C, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * s[0]))
    N = Vt[rank:].T
    chol = np.linalg.cholesky(N.T @ A @ N)
    PV = Vt[:rank].T / s[:rank]
    Y = solve_triangular(chol.T, solve_triangular(chol, N.T @ (A @ PV), lower=True))
    return (PV - N @ Y) @ (U[:, :rank].T @ g_nodes.reshape(-1, g_nodes.shape[-1]))


def _dense_whitened(rows):
    """The whitened system B (n_rows, sum of the components' dofs) of one
    parity half, built densely from its factors [(P, Z, s)]:
    B[(x, y), (i, j)] = P[i, x] Z[j, y] s[i, j] per component."""
    return np.concatenate([np.einsum("ix,jy,ij->ijxy", P, Z, s).reshape(s.size, -1)
                           for P, Z, s in rows]).T


def _gelsy_solve(sol, g_nodes):
    """The corrector solve with each whitened half taken by a pivoted QR
    (LAPACK gelsy) at the relative rank cutoff 1e-10 and mapped back by the
    dense roots (V kron W) diag(s): the reference for the pivoted Cholesky
    of the Gram."""
    from scipy.linalg import lstsq

    S = g_nodes.shape[-1]
    nh = g_nodes.shape[1] // 2
    low, high = g_nodes[:, :nh], g_nodes[:, ::-1][:, :nh]
    dofs = np.empty((sol.ndof, S))
    for parity, g in enumerate((low + high, low - high)):
        idx, roots, rows = sol._whitened(parity)
        y = lstsq(_dense_whitened(rows), (0.5 * g).reshape(-1, S), cond=1e-10,
                  lapack_driver="gelsy")[0]
        dofs[idx] = np.concatenate([
            (np.kron(V, W) * s.ravel()) @ yc
            for (V, W, s), yc in zip(roots, np.split(y, len(roots)))])
    return dofs


def _recorded_solves(monkeypatch):
    """A list that records (m, number of sources) of every
    _ModeSolver.solve made from now on."""
    calls = []
    solve = extension_ops._ModeSolver.solve

    def recording(self, g_nodes):
        calls.append((self.m, g_nodes.shape[-1]))
        return solve(self, g_nodes)

    monkeypatch.setattr(extension_ops._ModeSolver, "solve", recording)
    return calls


def _table_sources(ext_op):
    """The table's corrector sources at the collocation nodes per
    wavenumber m, {m: (n_r_nodes, n_z_nodes, S)}, rebuilt from the unit data
    Y_i and Y_k Y_i at source_nodes() and their quadrature fluxes:
    (8 / R^2) H_m(z) at every radius, H_m the m-th azimuthal Fourier
    coefficient of the data, plus the plug Phi a(r) g'(z) for m = 0; for
    m >= 1 the cos sources 2 Re H_m followed by the sin sources -2 Im H_m."""
    cyl, basis = ext_op.cyl, ext_op.shell_basis

    def unit_data(theta, z):
        Y = basis.eval_modes(theta, z, 0)[:, 0]
        return np.concatenate([Y[None], Y[:, None] * Y[None]]).reshape(-1, Y.shape[-1])

    th, zz, w = basis.quadrature(refine=2)
    flux = unit_data(th, zz) @ w
    sol0 = ext_op.solvers[0]
    rc, zc = sol0.r_nodes, sol0.z_nodes
    h = unit_data(*ext_op.source_nodes()).T.reshape(-1, zc.size, flux.size)
    H = np.fft.rfft(h, axis=0) / len(h)
    base = 8.0 / cyl.R**2 * np.ones((rc.size, 1, 1))
    plug = (extension_ops.plug_radial_profile(cyl, rc)[0][:, None]
            * extension_ops.plug_axial_profile(cyl, zc, 1)[1][None, :])[..., None] * flux
    out = {0: base * H[0].real[None] + plug}
    for sol in ext_op.solvers[1:]:
        m = sol.m
        out[m] = base * np.concatenate([2.0 * H[m].real, -2.0 * H[m].imag], axis=-1)[None]
    return out


@pytest.fixture(scope="module")
def mode_solvers(small_model):
    """The m = 0 solver of the small model and an m = 1 solver on its
    cylinder (the small model has no m >= 1 shell mode)."""
    return {0: small_model.basis.ext_op.solvers[0],
            1: extension_ops._ModeSolver(small_model.cyl, 1, extension_ops.NZ_MODES)}


def _line_loop_corrector(field, r, theta, z, partials):
    """The corrector components of a stacked field and, with partials,
    their r, theta and z partials, taken one z-line at a time: the field's
    weights and data block contracted with the operator's line block of the
    distinct z values in C, as the field does, then one product with the
    radial element table per line, and each (solver, parity) part's
    profiles summed into the frame components part by part."""
    ext_op, W, X = field.op, field.W, field.X
    parts = ext_op.table[1]
    fam_r = parts[0][0].fam_r
    nd = 2 if partials else 1
    inside = np.flatnonzero(r < parts[0][0].r_breaks[-1])
    order = inside[np.argsort(z[inside], kind="stable")]
    zs = z[order]
    first = np.flatnonzero(np.diff(zs, prepend=np.nan) != 0.0)
    bounds = np.append(first, order.size)
    line, B = ext_op.line_block(z)  # B: (1 + n, line, element mode, C, 2, n)
    S, F, C = W.shape[0], X.shape[0], B.shape[3]
    A = (W @ B.reshape(B.shape[0], -1)).reshape(S, -1, B.shape[-1]) @ X.T
    # (line, (s, component, z derivative, f), element mode)
    A = A.reshape(S, B.shape[1], -1, C, 2, F)[..., :nd, :]
    A = A.transpose(1, 0, 3, 4, 5, 2).reshape(B.shape[1], -1, A.shape[2])
    Tr = fam_r.element_table(r[order], nd - 1)
    V = np.zeros((S, C, nd, F, nd, r.size))  # (.., z derivative, f, r derivative, node)
    for a, b in zip(bounds[:-1], bounds[1:]):
        idx = order[a:b]
        V[..., idx] = (A[line[idx[0]]] @ Tr[:, :, a:b].reshape(A.shape[-1], -1)).reshape(
            V.shape[:-1] + (b - a,))
    V = V.transpose(0, 3, 1, 2, 4, 5).reshape(S * F, C, nd, nd, r.size)[..., inside]
    ri, thi = r[inside], theta[inside]
    w = np.zeros((S * F, 3, inside.size))
    dw = np.zeros((3, S * F if partials else 0, 3, inside.size))
    at = 0
    for sol, parity, _ in parts:
        T, dT = azimuthal_factors(sol.m, parity, thi)
        for i, comp in enumerate(sol.comps):
            k = "rtz".index(comp)
            W, W_z = V[:, at + i, 0, 0], V[:, at + i, -1, 0]
            W_r = V[:, at + i, 0, -1]
            if comp in ("r", "t") or sol.m > 0:
                W, W_r, W_z = ri * W, W + ri * W_r, ri * W_z
            w[:, k] += W * T[k]
            if partials:
                dw[:, :, k] += W_r * T[k], W * dT[k], W_z * T[k]
        at += len(sol.comps)
    return inside, w, dw


def _array_bytes(obj):
    """Bytes of the numpy arrays an object holds in its attributes, also
    inside lists, tuples and dicts."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(_array_bytes(x) for x in obj.values())
    return 0


class TestModeSolver:
    @pytest.mark.parametrize("m", [0, 1])
    def test_reproduces_a_nodal_divergence(self, mode_solvers, rng, m):
        """A source that is the divergence of some dofs at the nodes is in
        the range of the collocation system: the solve hits it there."""
        sol = mode_solvers[m]
        g = _nodal_divergence(sol, rng.standard_normal((sol.ndof, 2)))
        got = _nodal_divergence(sol, sol.solve(g))
        assert np.max(np.abs(got - g)) <= 1e-9 * np.max(np.abs(g))

    @pytest.mark.parametrize("partials", [True, False])
    @pytest.mark.parametrize("m", [0, 1])
    def test_profiles_match_the_line_loop(self, small_model, mode_solvers, rng,
                                          m, partials):
        """A stacked field's corrector components and their partials, from
        one batched per-node contraction of its contracted line block,
        equal the one-z-line-at-a-time loop over the same block to 1e-15
        relative, on a moving grid's nodes (shared z lines) and on scattered
        points in and outside C.  The operator's table is random dofs on the m = 0
        solver and, for m = 1, on the cos and sin parts of the m = 1 solver
        too."""
        shell = small_model.basis.shell_basis
        delta = 0.03 * rng.standard_normal(shell.n_modes)
        jets = QuadJets(small_model.grid, shell, delta, np.zeros(shell.n_modes))
        scattered = _random_points(rng, small_model.cyl, n=200)
        parts = [(mode_solvers[0], "cos")]
        if m:
            parts += [(mode_solvers[1], "cos"), (mode_solvers[1], "sin")]
        ext_op = extension_ops.ExtensionOperator(small_model.cyl, shell)
        ext_op.table = (None, [(sol, parity, rng.standard_normal((3, 2, sol.ndof)))
                               for sol, parity in parts])
        field = ExtensionField(ext_op, rng.standard_normal((2, 3)),
                               rng.standard_normal((3, 2)))
        for r, theta, z in ((jets.r_phys, jets.theta, jets.z), scattered):
            inside, *got = field._corrector(r, theta, z, 2 if partials else 0)
            inside_ref, *want = _line_loop_corrector(field, r, theta, z, partials)
            assert np.array_equal(inside, inside_ref)
            assert got[1].shape == want[1].shape
            pairs = zip([got[0], *got[1]], [want[0], *want[1]]) if partials else [
                (got[0], want[0])]
            for k, (a, b) in enumerate(pairs):
                assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b)), k

    @pytest.mark.parametrize("m", [0, 1])
    def test_mirrored_source_mirrors_the_field(self, mode_solvers, rng, m):
        """g(z) -> g(L - z) maps w_r, w_t to their mirror images and w_z to
        minus its mirror image."""
        sol = mode_solvers[m]
        L = sol.fam_z.domain[1]
        g = rng.standard_normal((sol.r_nodes.size, sol.z_nodes.size, 1))
        d, d_mirror = sol.solve(np.concatenate([g, g[:, ::-1]], axis=-1)).T
        r = rng.uniform(0.01, 1.0, 50) * sol.r_breaks[-1]
        z = rng.uniform(0.0, L, 50)
        p = dof_profiles(sol, d, r, z)[0]
        q = dof_profiles(sol, d_mirror, r, L - z)[0]
        scale = np.max(np.abs(p[[0, 2]]))
        for k, sign in enumerate((1.0, 1.0, -1.0)):
            assert np.max(np.abs(q[k] - sign * p[k])) <= 1e-10 * scale

    def test_matches_the_unsplit_solve_on_the_table_sources(self, monkeypatch):
        """On the default model's 72 table sources, the table's dofs equal
        the full-SVD solve to 1e-7 relative (measured 1.1e-8 at 1 BLAS
        thread, 1.6e-8 at 2), well above the operator's own round-off (its
        table moves about 3e-14 between 1 and 2 BLAS threads).  The table
        build makes one solve, of the 38 unit sources and the plug."""
        calls = _recorded_solves(monkeypatch)
        ext_op = build_model(RunConfig().validate()).basis.ext_op
        _, parts = ext_op.table
        assert calls == [(0, 39)] and len(parts) == 1
        sources = _table_sources(ext_op)[0]
        assert sources.shape[-1] == 72
        sol, _, dofs = parts[0]
        want = _dense_solve(sol, sources)
        got = dofs.reshape(-1, sol.ndof).T
        assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want))

    def test_m1_table_sources_match_the_unsplit_solve_in_one_call(self, monkeypatch):
        """On a model with m = 1 shell modes, the table's m = 1 dofs are
        the full-SVD solve of its 40 cos and sin sources to 1e-6 relative
        (measured 4e-7 at 1 BLAS thread, 8e-8 at 2), and the table build
        makes one solve per solver, m = 0, 1 and 2 for the products of two
        m = 1 modes: 39 unit sources for m = 0 and 38 for m >= 1."""
        calls = _recorded_solves(monkeypatch)
        cfg = RunConfig(n_theta=2, n_z=2, n_interior=4).validate()
        ext_op = build_model(cfg).basis.ext_op
        _, parts = ext_op.table
        assert calls == [(0, 39), (1, 38), (2, 38)]
        assert [(sol.m, parity) for sol, parity, _ in parts] == [
            (0, "cos"), (1, "cos"), (1, "sin"), (2, "cos"), (2, "sin")]
        sources = _table_sources(ext_op)[1]
        assert sources.shape[-1] == 40
        want = _dense_solve(ext_op.solvers[1], sources)
        S = sources.shape[-1] // 2
        for sol, parity, dofs in parts[1:3]:
            got = dofs.reshape(-1, sol.ndof).T
            ref = want[:, :S] if parity == "cos" else want[:, S:]
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))

    @pytest.mark.parametrize("cfg", [{}, {"n_theta": 2, "n_z": 2, "n_interior": 4}],
                             ids=["default", "m1"])
    def test_table_matches_the_gelsy_solve(self, cfg):
        """The table dofs of the default model and of a model with m = 1
        shell modes (and so m = 2 products) are the pivoted-QR solves of
        their table sources to 1e-8 relative.  Measured 1e-13 where the
        sources carry data; the m1 model's shell modes are cos modes only, so
        its sin sources are round-off, and there the gap is 5e-10 (m = 1)
        and 1.3e-9 (m = 2) of those parts' own size."""
        ext_op = build_model(RunConfig(**cfg).validate()).basis.ext_op
        _, parts = ext_op.table
        sources = _table_sources(ext_op)
        want = {sol.m: _gelsy_solve(sol, sources[sol.m]) for sol in ext_op.solvers}
        for sol, parity, dofs in parts:
            ref = want[sol.m]
            S = ref.shape[-1] // (1 if sol.m == 0 else 2)
            ref = ref[:, S:] if parity == "sin" else ref[:, :S]
            got = dofs.reshape(-1, sol.ndof).T
            assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))

    @pytest.mark.parametrize("R, L", [(1.0, 2.0), (1.0, 8.0), (0.2, 2.0)])
    def test_gram_rank_is_the_svd_rank(self, R, L):
        """The pivoted Cholesky of each whitened half's Gram, taken from
        the system's factors, keeps exactly the singular values above 1e-10
        of the largest (SVD of the dense B built from the same factors), and
        its last kept and first dropped pivots each lie at least 10x from
        the cutoff GRAM_CUTOFF max diag K (measured: kept >= 2.7e-12,
        dropped <= 1.3e-15, relative), for m = 0, 1 and 2."""
        cutoff = extension_ops.GRAM_CUTOFF
        cyl = CylinderConfig(R=R, L=L, H=0.1)
        for m, rank in ((0, 784), (1, 852), (2, 852)):
            sol = extension_ops._ModeSolver(cyl, m, extension_ops.NZ_MODES)
            for parity in (0, 1):
                rows = sol._whitened(parity)[2]
                B = _dense_whitened(rows)
                d = np.sum(B * B, axis=1)  # the Gram's diagonal
                s = np.linalg.svd(B, compute_uv=False)
                Rf, p, r = extension_ops._pivoted_gram(extension_ops._gram(rows))
                assert r == rank == np.sum(s > 1e-10 * s[0])
                kept = Rf[r - 1, r - 1] ** 2
                dropped = np.max(d[p[r:]] - np.sum(Rf[:r, r:] ** 2, axis=0))
                assert kept >= 10.0 * cutoff * d.max()
                assert dropped <= 0.1 * cutoff * d.max()

    @pytest.mark.parametrize("m", [0, 1])
    def test_root_whitens_the_energy(self, mode_solvers, rng, monkeypatch, m):
        """Each parity half's roots X = (V kron W) diag(s), one per
        component, take the unshifted dense energy block to the identity:
        max |X^T A X - I| <= 1e-7 (measured at most 8.3e-9, on the
        r-weighted components, whose Mr has eigenvalues down to 5e-10).
        The solve itself builds no dense Kronecker block and no dense
        Cholesky factor."""
        sol = mode_solvers[m]

        def dense(*args, **kwargs):
            raise AssertionError("dense energy block or factor built")

        with monkeypatch.context() as patch:
            patch.setattr(np, "kron", dense)
            patch.setattr(np.linalg, "cholesky", dense)
            sol.solve(rng.standard_normal((sol.r_nodes.size, sol.z_nodes.size, 1)))
        A = _collocation_and_energy(sol)[1]
        for parity in (0, 1):
            idx, roots, _ = sol._whitened(parity)
            assert len(roots) == len(sol.comps)
            X = np.zeros((idx.size, idx.size))
            at = 0
            for V, W, s in roots:
                X[at:at + s.size, at:at + s.size] = np.kron(V, W) * s.ravel()
                at += s.size
            gap = X.T @ A[np.ix_(idx, idx)] @ X - np.eye(idx.size)
            assert np.max(np.abs(gap)) <= 1e-7

    @pytest.mark.parametrize("m", [0, 1])
    def test_factored_operators_match_the_dense_system(self, mode_solvers, rng, m):
        """For both parity halves, the Gram K = B B^T, B^T z and B y taken
        from the Kronecker factors of the whitened system agree with the
        dense B built from the same factors to 1e-13 relative."""
        sol = mode_solvers[m]
        for parity in (0, 1):
            rows = sol._whitened(parity)[2]
            B = _dense_whitened(rows)
            z = rng.standard_normal((B.shape[0], 3))
            y = rng.standard_normal((B.shape[1], 3))
            for got, want in ((extension_ops._gram(rows), B @ B.T),
                              (extension_ops._whitened_rmatmul(rows, z), B.T @ z),
                              (extension_ops._whitened_matmul(rows, y), B @ y)):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("m", [0, 1])
    def test_solve_forms_no_whitened_system(self, mode_solvers, rng, m):
        """One solve of 72 (m = 0) or 144 (m = 1) sources peaks below 25 or
        40 MiB of traced allocations: the dense whitened system (9.5 MiB per
        half for m = 0) and its Gram product are never formed (measured
        20.4 and 33.2 MiB; 29.8 and 47.3 MiB when they were)."""
        import tracemalloc

        sol = mode_solvers[m]
        g = rng.standard_normal((sol.r_nodes.size, sol.z_nodes.size, 72 * (1 + m)))
        tracemalloc.start()
        try:
            sol.solve(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < {0: 25, 1: 40}[m] * 2**20

    def test_rejects_a_source_that_is_not_finite(self, mode_solvers):
        sol = mode_solvers[0]
        g = np.zeros((sol.r_nodes.size, sol.z_nodes.size, 2))
        g[3, 5, 1] = np.nan
        with pytest.raises(ValueError):
            sol.solve(g)

    def test_raises_on_dofs_that_are_not_finite(self, mode_solvers, rng, monkeypatch):
        """The solve checks only its sources and its result for finiteness:
        a nan in the Gram's factor surfaces as LinearSolveFailure."""
        sol = mode_solvers[0]
        dpstrf = extension_ops.dpstrf

        def poisoned(*args, **kwargs):
            R, *rest = dpstrf(*args, **kwargs)
            R[0, -1] = np.nan
            return (R, *rest)

        monkeypatch.setattr(extension_ops, "dpstrf", poisoned)
        with pytest.raises(LinearSolveFailure):
            sol.solve(rng.standard_normal((sol.r_nodes.size, sol.z_nodes.size, 1)))

    def test_keeps_no_factors_after_the_table(self, small_model):
        """The whitened factors and the Gram's pivoted Cholesky factor
        (6.3 MiB per half for m = 0) live only inside a solve: once the table
        is built, each solver holds under 1 MiB of arrays."""
        ext_op = small_model.basis.ext_op
        ext_op.table
        for sol in ext_op.solvers:
            assert _array_bytes(vars(sol)) < 2**20


class TestPiola:
    """The interior rows of GlobalBasis.fluid_tables: the reference Stokes
    modes pushed through the ALE map by the Piola transform."""

    def test_reference_identity(self, small_model):
        """With zero displacement the transform is the identity on fields."""
        basis = small_model.basis
        zero = np.zeros(basis.shell_basis.n_modes)
        jets = QuadJets(small_model.grid, basis.shell_basis, zero, zero)
        val, grad, _ = basis.fluid_tables(jets)
        zval, zgrad = basis.stokes_basis.tables_on(small_model.grid)
        assert np.max(np.abs(val[1::2] - zval[: basis.half])) < 1e-12
        assert np.max(np.abs(grad[1::2] - zgrad[: basis.half])) < 1e-10

    def test_divergence_preserved_on_moving_domain(self, small_model, rng):
        basis = small_model.basis
        shell = basis.shell_basis
        eta = 0.03 * rng.standard_normal(shell.n_modes)
        jets = QuadJets(small_model.grid, shell, eta, np.zeros(shell.n_modes))
        val, grad, _ = basis.fluid_tables(jets)
        for v, g in zip(val[1::2], grad[1::2]):
            scale = np.max(np.abs(v)) + 1e-30
            assert np.max(np.abs(np.einsum("iiq->q", g))) < 1e-8 * scale


class TestMollify:
    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_sup_norm_nonexpansive(self, seed):
        g = np.random.default_rng(seed)
        n = g.integers(16, 128)
        sig = g.standard_normal(n)
        dt = 1.0 / n
        out = mollify(sig, g.uniform(1.0, 8.0) * dt, dt)
        assert np.max(np.abs(out)) <= np.max(np.abs(sig)) + 1e-12

    def test_nonfinite_or_nonpositive_width_rejected(self):
        """A NaN width used to give an all-NaN path; inf and NaN are
        rejected like zero and negative widths."""
        for eps in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                mollify(np.ones(16), eps, 1.0 / 16)

    def test_constants_fixed(self):
        sig = np.full(64, 0.73)
        out = mollify(sig, 5.0 / 64, 1.0 / 64)
        assert np.max(np.abs(out - 0.73)) < 1e-13

    def test_smooths_an_impulse(self):
        sig = np.zeros(64)
        sig[10] = 1.0
        out = mollify(sig, 6.0 / 64, 1.0 / 64)
        assert np.max(np.abs(out)) < 1.0
        assert np.sum(out) == pytest.approx(1.0, rel=1e-10)

    def test_shell_mollifier_nonexpansive(self, rng):
        """The azimuthal damping of the outer loop's shell path, on a basis
        with wavenumbers up to 2."""
        shell = ShellBasis(5, 4, 2.0)
        cyl = CylinderConfig(R=1.0, L=2.0, H=0.5)
        for _ in range(10):
            c = rng.standard_normal(shell.n_modes)
            damped, sup = admissibility(
                cyl, shell, [c * azimuthal_damping(shell, 0.3), c])[0]
            assert damped <= sup + 1e-12
