"""Divergence-free extension operator, Piola transform, and mollifiers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perifsi import extension_ops
from perifsi.cli import RunConfig, build_model
from perifsi.errors import LinearSolveFailure
from perifsi.extension_ops import ExtensionField, azimuthal_damping, mollify
from perifsi.fluidgrid import QuadJets, azimuthal_factors, frame_tables
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


def _unit_weights(ext_op, W, X):
    """Per (solver, parity) part, the weights (S, F, U) of its solver's
    unit dofs in the corrector of the data h_sf = (w_s0 + sum_k w_sk Y_k)
    xi_f, for the weight rows w_s of W (S, 1 + n) and xi_f = sum_k X[f, k]
    Y_k: [(solver, parity, weights)].  The azimuthal Fourier coefficients
    H_m of h at the corrector's z nodes are taken by an explicit sum over
    max(8, 4 (max_m + 1)) uniform theta nodes of ShellBasis.evaluate: H_0
    and then the flux for m = 0, 2 Re H_m (cos) and -2 Im H_m (sin) for
    m >= 1.  The reference for the DFT of ExtensionField._corrector."""
    basis = ext_op.shell_basis
    zc = ext_op.solvers[0].z_nodes
    n_th = max(8, 4 * (ext_op.max_m + 1))
    th = 2.0 * np.pi * np.arange(n_th) / n_th
    TT, ZZ = (x.ravel() for x in np.meshgrid(th, zc, indexing="ij"))
    c = np.array([w[0] + basis.evaluate(w[1:], TT, ZZ, 0)[0] for w in W])
    xi = np.array([basis.evaluate(x, TT, ZZ, 0)[0] for x in X])
    h = (c[:, None] * xi[None]).reshape(len(W), len(X), n_th, zc.size)
    parts = []
    for sol in ext_op.solvers:
        if sol.m == 0:
            flux = W @ ext_op.flux_table @ X.T
            parts.append((sol, "cos", np.concatenate([h.mean(axis=2), flux[..., None]], axis=-1)))
        else:
            cos, sin = (2.0 / n_th * np.einsum("sfjk,j->sfk", h, f(sol.m * th))
                        for f in (np.cos, np.sin))
            parts += [(sol, "cos", cos), (sol, "sin", sin)]
    return parts


def per_field_extension(ext_op, base, delta, xi, r, theta, z):
    """Cylindrical value (3, Q), frame gradient (3, 3, Q) and divergence (Q)
    of the extension of h = (base + delta) xi, one field by itself: the data
    from ShellBasis.evaluate, the corrector from its full radial and axial
    tables at every node, its dofs the unit dofs contracted with the
    weights of its own data (_unit_weights).  The reference for the stacked
    evaluation."""
    cyl = ext_op.cyl
    w = np.concatenate([[base], delta])
    flux = float(w @ ext_op.flux_table @ xi)
    xv, xt, xz = ext_op.shell_basis.evaluate(xi, theta, z, 1)
    dv, dt, dz = ext_op.shell_basis.evaluate(delta, theta, z, 1)
    h, ht, hz = (base + dv) * xv, dt * xv + (base + dv) * xt, dz * xv + (base + dv) * xz
    val, G, div = _radial_and_plug(cyl, flux, h, ht, hz, r, z)
    inn = r < cyl.R / 2.0
    ri, zi, thi = r[inn], z[inn], theta[inn]
    for sol, parity, weights in _unit_weights(ext_op, w[None], xi[None]):
        dofs = ext_op.unit_dofs[sol.m] @ weights[0, 0]
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
    return val, G, div


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
    def from_unit_dofs(cls, ext_op, base, delta, X):
        """The unit dofs contracted with the weights of the data
        (_unit_weights)."""
        w = np.concatenate([[base], delta])[None]
        dofs = [(sol, parity, weights[0] @ ext_op.unit_dofs[sol.m].T)
                for sol, parity, weights in _unit_weights(ext_op, w, X)]
        return cls(ext_op, X, base, delta, (w @ ext_op.flux_table @ X.T)[0], dofs)

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
        return {"val": val, "grad": G, "div": div}

    def __call__(self, r, theta, z):
        r, theta, z = (np.asarray(x, dtype=float).ravel() for x in (r, theta, z))
        return self._frame_tables(r, theta, z, partials=False)[0]


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
        """The unit dofs contracted with the weights of the pointwise data
        (R + delta) xi equal the corrector solve of its own source at the
        collocation nodes, (8 / R^2) H_0(z) plus the plug of its quadrature
        flux, and the extension's flux and tables match."""
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
        # the small model is axisymmetric: one solver, and h does not
        # depend on theta, so H_0 is h at theta = 0
        (sol,) = ext_op.solvers
        rc, zc = sol.r_nodes, sol.z_nodes
        H0 = data(np.zeros_like(zc), zc)
        g = (8.0 / cyl.R**2 * H0[None, :]
             + flux * extension_ops.plug_radial_profile(cyl, rc)[0][:, None]
             * extension_ops.plug_axial_profile(cyl, zc, 1)[1][None, :])
        direct = DofsExtension(ext_op, xi[None], cyl.R, delta, np.array([flux]),
                               [(sol, "cos", sol.solve(g[..., None]).T)])
        contracted = DofsExtension.from_unit_dofs(ext_op, cyl.R, delta, xi[None])
        field = ext_op.extend(delta, xi)
        assert abs(field.flux[0] - flux) <= 1e-12 * abs(flux)
        for (s1, p1, d1), (s2, p2, d2) in zip(contracted.dofs, direct.dofs, strict=True):
            assert s1 is s2 and p1 == p2
            assert np.max(np.abs(d1 - d2)) <= 1e-12 * np.max(np.abs(d2))
        pts = _random_points(rng, cyl)
        assert _rel_gap(field.tables(*pts), direct.tables(*pts)) <= 1e-12

    def test_operator_arrays_do_not_grow_with_the_shell_modes(self, rng):
        """After one moving sample, the operators of n_theta = 2 and 3 at
        n_z = 4 (8 and 12 shell modes, the same max_m and grid) hold equal
        bytes of arrays but for their flux tables' (1 + n) n floats: the
        unit dofs and the line block do not depend on the number of shell
        modes (a table over the unit data Y_i and Y_k Y_i held 19.5 and
        42.3 MB)."""
        sizes = []
        for n_theta in (2, 3):
            model = build_model(RunConfig(n_theta=n_theta, n_z=4, n_interior=8).validate())
            n = model.basis.shell_basis.n_modes
            delta, dt_delta = 0.02 * rng.standard_normal((2, n))
            model.sample(delta=delta, dt_delta=dt_delta)
            sizes.append(_array_bytes(vars(model.basis.ext_op)) - 8 * (1 + n) * n)
        assert sizes[0] == sizes[1]

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
        assert "solvers" not in built and "unit_dofs" not in built
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

    @pytest.mark.parametrize("n_theta", [1, 2])
    def test_a_moving_grids_tables_do_not_depend_on_its_node_order(self, small_model,
                                                                  rng, n_theta):
        """A sample's stacked field (the coupled extensions and their
        time-derivative twins) on a random permutation of a moving grid's
        nodes gives the permuted tables to 1e-15 relative: the per-line
        grouping of the corrector sees each node on its own.  On the small
        model (m = 0) and an m = 1 one."""
        model = small_model if n_theta == 1 else build_model(
            RunConfig(n_theta=2, n_z=2, n_interior=4).validate())
        basis = model.basis
        shell = basis.shell_basis
        delta, dt_delta = 0.03 * rng.standard_normal((2, shell.n_modes))
        jets = QuadJets(model.grid, shell, delta, dt_delta)
        field = basis.extension_fields(delta).stack(
            basis.ext_op.extend_dt(dt_delta, basis.coupled_block))
        pts = (jets.r_phys, jets.theta, jets.z)
        perm = rng.permutation(pts[0].size)
        a = field.tables(*pts)
        b = field.tables(*(p[perm] for p in pts))
        assert _rel_gap(b, {k: v[..., perm] for k, v in a.items()}) <= 1e-15


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
    with a dense energy and its nullspace correction: the reference for the
    parity-split, whitened solver.  Of the least-squares solutions x - N y
    (x the minimum-norm one, N a basis of the nullspace) it takes the one
    of least energy, min |L^T (x - N y)| with A = L L^T, by a QR of L^T N:
    a Cholesky of N^T A N would square the conditioning of that step."""
    from scipy.linalg import solve_triangular

    C, A = _collocation_and_energy(sol)
    U, s, Vt = np.linalg.svd(C, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * s[0]))
    N = Vt[rank:].T
    G = g_nodes.reshape(-1, g_nodes.shape[-1])
    x = Vt[:rank].T @ ((U[:, :rank].T @ G) / s[:rank, None])
    Lt = np.linalg.cholesky(A).T
    Q, R = np.linalg.qr(Lt @ N)
    return x - N @ solve_triangular(R, Q.T @ (Lt @ x))


def _dense_whitened(rows):
    """The whitened system B (n_rows, sum of the components' dofs) of one
    parity half, built densely from its factors [(P, Z, s)]:
    B[(x, y), (i, j)] = P[i, x] Z[j, y] s[i, j] per component."""
    return np.concatenate([np.einsum("ix,jy,ij->ijxy", P, Z, s).reshape(s.size, -1)
                           for P, Z, s in rows]).T


def _full_rows(sol, parity):
    """The factors [(V^T rad, W^T Tz, s)] of a whitened half on all its
    radial and axial node rows (48 x 19 = 912 on the default axial
    family), from the half's roots and the solver's collocation tables:
    the system before its rows are taken on the bases of their spans."""
    roots = sol._whitened(parity)[1]
    return [(V.T @ rad, W.T @ sol._Tz[js, zrow], s)
            for (rad, zrow, _, _), (V, W, s), js in zip(sol._comp_data, roots,
                                                         sol._js[parity])]


def _whitened_reference_solve(sol, g_nodes, solve):
    """The corrector solve with each whitened half B on all its node rows
    (_full_rows, built densely) taken by solve(B, G) and mapped back by the
    dense roots (V kron W) diag(s)."""
    S = g_nodes.shape[-1]
    nh = g_nodes.shape[1] // 2
    low, high = g_nodes[:, :nh], g_nodes[:, ::-1][:, :nh]
    dofs = np.empty((sol.ndof, S))
    for parity, g in enumerate((low + high, low - high)):
        idx, roots, _ = sol._whitened(parity)
        y = solve(_dense_whitened(_full_rows(sol, parity)), (0.5 * g).reshape(-1, S))
        dofs[idx] = np.concatenate([
            (np.kron(V, W) * s.ravel()) @ yc
            for (V, W, s), yc in zip(roots, np.split(y, len(roots)))])
    return dofs


def _gelsy_solve(sol, g_nodes):
    """The corrector solve with each whitened half on all its node rows
    taken by a pivoted QR (LAPACK gelsy) at the relative rank cutoff 1e-10:
    the reference for the pivoted Cholesky of the Gram on the rows'
    spans."""
    from scipy.linalg import lstsq

    return _whitened_reference_solve(
        sol, g_nodes, lambda B, G: lstsq(B, G, cond=1e-10, lapack_driver="gelsy")[0])


def _svd_solve(sol, g_nodes):
    """The corrector solve with each whitened half on all its node rows
    taken by its SVD, the singular values above 1e-10 of the largest
    kept: the minimum-norm least-squares solution."""
    def solve(B, G):
        U, s, Vt = np.linalg.svd(B, full_matrices=False)
        r = np.sum(s > 1e-10 * s[0])
        return Vt[:r].T @ ((U[:, :r].T @ G) / s[:r, None])

    return _whitened_reference_solve(sol, g_nodes, solve)


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


def _unit_sources(ext_op):
    """The unit sources at the collocation nodes per wavenumber m,
    {m: (n_r_nodes, n_z_nodes, U)}: (8 / R^2) 1_r x e_k for every z node
    z_k, followed for m = 0 by the plug's a(r) g'(z)."""
    cyl = ext_op.cyl
    sol0 = ext_op.solvers[0]
    rc, zc = sol0.r_nodes, sol0.z_nodes
    units = 8.0 / cyl.R**2 * np.broadcast_to(np.eye(zc.size), (rc.size, zc.size, zc.size))
    plug = (extension_ops.plug_radial_profile(cyl, rc)[0][:, None]
            * extension_ops.plug_axial_profile(cyl, zc, 1)[1][None, :])[..., None]
    return {sol.m: np.concatenate([units, plug], axis=-1) if sol.m == 0 else units
            for sol in ext_op.solvers}


@pytest.fixture(scope="module")
def mode_solvers(small_model):
    """The m = 0 solver of the small model and an m = 1 solver on its
    cylinder (the small model has no m >= 1 shell mode)."""
    return {0: small_model.basis.ext_op.solvers[0],
            1: extension_ops._ModeSolver(small_model.cyl, 1, extension_ops.NZ_MODES)}


def _line_loop_corrector(field, r, theta, z, n_diff):
    """The corrector components (S F, 3, Q) of a stacked field and the r,
    theta and z partials (n_diff F, 3, 3, Q) of the fields of its first
    n_diff weight rows, zero outside C, taken one z-line at a time: per
    (solver, parity) part, the solver's line block of the distinct z
    values in C contracted with the part's weights (_unit_weights), then one
    product with the radial element table per line, and the part's
    profiles summed into the frame components."""
    ext_op, W, X = field.op, field.W, field.X
    sol0 = ext_op.solvers[0]
    inside = np.flatnonzero(r < sol0.r_breaks[-1])
    order = inside[np.argsort(z[inside], kind="stable")]
    zs = z[order]
    first = np.flatnonzero(np.diff(zs, prepend=np.nan) != 0.0)
    bounds = np.append(first, order.size)
    line, blocks = ext_op.line_block(z)  # per solver: (2, line, element mode, C, U)
    S, F = W.shape[0], X.shape[0]
    Tr = sol0.fam_r.element_table(r[order], 1)
    w = np.zeros((S * F, 3, r.size))
    dw = np.zeros((S * F, 3, 3, r.size))
    for sol, parity, weights in _unit_weights(ext_op, W, X):
        B = blocks[sol.m]
        C = B.shape[3]
        # (line, (s, z derivative, component, f), element mode)
        A = np.einsum("zlecu,sfu->lszcfe", B, weights).reshape(B.shape[1], -1, B.shape[2])
        V = np.zeros((S, 2, C, F, 2, r.size))  # (.., f, r derivative, node)
        for a, b in zip(bounds[:-1], bounds[1:]):
            idx = order[a:b]
            V[..., idx] = (A[line[idx[0]]] @ Tr[:, :, a:b].reshape(A.shape[-1], -1)).reshape(
                V.shape[:-1] + (b - a,))
        # ((s, f), component, z derivative, r derivative, node)
        V = V.transpose(0, 3, 2, 1, 4, 5).reshape(S * F, C, 2, 2, r.size)
        T, dT = azimuthal_factors(sol.m, parity, theta)
        for i, comp in enumerate(sol.comps):
            k = "rtz".index(comp)
            f, f_z, f_r = V[:, i, 0, 0], V[:, i, 1, 0], V[:, i, 0, 1]
            if comp in ("r", "t") or sol.m > 0:
                f, f_r, f_z = r * f, f + r * f_r, r * f_z
            w[:, k] += f * T[k]
            dw[:, k, 0] += f_r * T[k]
            dw[:, k, 1] += f * dT[k]
            dw[:, k, 2] += f_z * T[k]
    return w, dw[:n_diff * F]


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
        """The corrector a stacked field subtracts from its components and
        their partials, from one batched product per z line and radial
        element of its contracted line block, equals the
        one-z-line-at-a-time loop over the same block to 1e-15 relative.
        With partials the stack's two weight rows take partials, or only
        the first does and the second is a values-only twin (as in every
        sample); without, neither does.  The nodes are a moving grid's
        (shared z lines), scattered points in and outside C, both together
        (groups of unequal sizes, so the slots are padded), and one z line
        with three nodes in the first radial element and two outside C (one
        group, full but for its spare slot).  The operator's unit dofs are
        random on the m = 0 solver and, for m = 1, on the m = 1 solver too,
        whose cos and sin parts take the data of a shell basis with cos and
        sin m = 1 modes (the m = 2 solver is left out)."""
        shell = small_model.basis.shell_basis
        R, L = small_model.cyl.R, small_model.cyl.L
        delta = 0.03 * rng.standard_normal(shell.n_modes)
        jets = QuadJets(small_model.grid, shell, delta, np.zeros(shell.n_modes))
        grid = (jets.r_phys, jets.theta, jets.z)
        scattered = _random_points(rng, small_model.cyl, n=200)
        ragged = tuple(np.concatenate(x) for x in zip(grid, scattered))
        one_group = (np.array([0.05, 0.7, 0.06, 0.9, 0.07]) * R,
                     rng.uniform(0.0, 2 * np.pi, 5), np.full(5, 0.3 * L))
        data_basis = ShellBasis(3, 2, L) if m else shell
        ext_op = extension_ops.ExtensionOperator(small_model.cyl, data_basis)
        ext_op.solvers = [mode_solvers[k] for k in range(m + 1)]
        nz = mode_solvers[0].z_nodes.size
        ext_op.unit_dofs = [rng.standard_normal((sol.ndof, nz + (sol.m == 0)))
                            for sol in ext_op.solvers]
        n = data_basis.n_modes
        field = ExtensionField(ext_op, rng.standard_normal((2, 1 + n)),
                               rng.standard_normal((3, n)))
        for r, theta, z in (grid, scattered, ragged, one_group):
            for n_diff in ((2, 1) if partials else (0,)):
                Q = r.size
                u, du = np.zeros((6, 3, Q)), np.zeros((3 * n_diff, 3, 3, Q))
                field._corrector(u.reshape(2, 3, 3, Q), du.reshape(n_diff, 3, 3, 3, Q),
                                 r, theta, z, np.ones(Q))
                w, dw = _line_loop_corrector(field, r, theta, z, n_diff)
                pairs = [(-u, w)] + [(-du[:, :, j], dw[:, :, j]) for j in range(3) if n_diff]
                for k, (a, b) in enumerate(pairs):
                    assert a.shape == b.shape
                    assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b)), (n_diff, k)

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

    @pytest.mark.parametrize("m", [0, 1])
    def test_mirrored_unit_dofs_match_the_direct_solve(self, mode_solvers, m):
        """The dofs of the unit sources at the upper half of the axial
        nodes, taken by contract_units from those of the lower half with
        the z-odd dofs negated, equal a direct solve of the upper-half unit
        sources to 1e-12 of each column's largest entry (measured 1.2e-14
        for m = 0 and 2.0e-13 for m = 1: the solve is linear in its sources
        only to its round-off), and the lower half's are passed through
        bitwise."""
        sol = mode_solvers[m]
        nz = sol.z_nodes.size
        nh = nz // 2
        units = np.broadcast_to(np.eye(nz), (sol.r_nodes.size, nz, nz))
        low, high = sol.solve(units[..., :nh]), sol.solve(units[..., nh:])
        got = sol.contract_units(low, np.eye(nz))
        assert got.shape == (sol.ndof, nz)
        assert np.array_equal(got[:, :nh], low)
        gap = np.max(np.abs(got[:, nh:] - high), axis=0)
        assert np.all(gap <= 1e-12 * np.max(np.abs(high), axis=0))

    def test_matches_the_unsplit_solve_on_the_table_sources(self, monkeypatch):
        """On the default model's 39 unit sources (one per axial node and
        the plug), the unit dofs equal the full-SVD solve to 2e-8 relative
        (measured 2.1e-9 at 1 BLAS thread, 1.6e-9 at 2; the pivoted-QR
        solve is within 8e-14 of them, so most of the gap is the SVD
        reference's).  They take one solve, of the 19 unit sources at the
        lower half of the 38 axial nodes and the plug."""
        calls = _recorded_solves(monkeypatch)
        ext_op = build_model(RunConfig().validate()).basis.ext_op
        (got,) = ext_op.unit_dofs
        assert calls == [(0, 20)]
        sources = _unit_sources(ext_op)[0]
        assert sources.shape[-1] == 39
        want = _dense_solve(ext_op.solvers[0], sources)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 2e-8 * np.max(np.abs(want))

    def test_m1_table_sources_match_the_unsplit_solve_in_one_call(self, monkeypatch):
        """On a model with m = 1 shell modes, the m = 1 unit dofs are the
        full-SVD solve of its 38 unit sources to 5e-7 relative (measured
        4.3e-8 at 1 BLAS thread, 9.8e-8 at 2), and the unit dofs take one
        solve per solver, m = 0, 1 and 2 for the products of two m = 1
        modes: 19 unit sources, those at the lower half of the axial nodes,
        and the plug for m = 0, and 19 for m >= 1."""
        calls = _recorded_solves(monkeypatch)
        cfg = RunConfig(n_theta=2, n_z=2, n_interior=4).validate()
        ext_op = build_model(cfg).basis.ext_op
        dofs = ext_op.unit_dofs
        assert calls == [(0, 20), (1, 19), (2, 19)]
        assert [d.shape[1] for d in dofs] == [39, 38, 38]
        sources = _unit_sources(ext_op)[1]
        want = _dense_solve(ext_op.solvers[1], sources)
        assert dofs[1].shape == want.shape
        assert np.max(np.abs(dofs[1] - want)) <= 5e-7 * np.max(np.abs(want))

    @pytest.mark.parametrize("cfg", [{}, {"n_theta": 2, "n_z": 2, "n_interior": 4}],
                             ids=["default", "m1"])
    def test_table_matches_the_gelsy_solve(self, cfg):
        """The unit dofs of the default model and of a model with m = 1
        shell modes (and so an m = 2 solver) are the pivoted-QR solves of
        their unit sources on all node rows to 1e-12 relative for m = 0, and
        4e-9 and 7e-9 for m = 1 and 2 (measured 8.1e-14, 3.6e-10 and
        6.6e-10)."""
        ext_op = build_model(RunConfig(**cfg).validate()).basis.ext_op
        sources = _unit_sources(ext_op)
        for sol, got in zip(ext_op.solvers, ext_op.unit_dofs, strict=True):
            want = _gelsy_solve(sol, sources[sol.m])
            assert got.shape == want.shape
            bound = {0: 1e-12, 1: 4e-9, 2: 7e-9}[sol.m]
            assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

    @pytest.mark.parametrize("cfg", [{}, {"n_theta": 2, "n_z": 2, "n_interior": 4}],
                             ids=["default", "m1"])
    def test_table_matches_the_svd_solve(self, cfg):
        """The same unit dofs are the minimum-norm SVD solves of their unit
        sources on all node rows to 6e-12 relative for m = 0, and 4e-9 and
        6e-9 for m = 1 and 2 (measured 5.5e-13, 4.0e-10 and 6.0e-10)."""
        ext_op = build_model(RunConfig(**cfg).validate()).basis.ext_op
        sources = _unit_sources(ext_op)
        for sol, got in zip(ext_op.solvers, ext_op.unit_dofs, strict=True):
            want = _svd_solve(sol, sources[sol.m])
            bound = {0: 6e-12, 1: 4e-9, 2: 6e-9}[sol.m]
            assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

    @pytest.mark.parametrize("R, L", [(1.0, 2.0), (1.0, 8.0), (0.2, 2.0)])
    def test_gram_rank_is_the_svd_rank(self, R, L):
        """The pivoted Cholesky of each whitened half's Gram, taken from
        the system's factors on the bases of the rows' spans as the solve
        takes it, keeps exactly the singular values above 1e-10 of the
        largest (SVD of the dense B built from the same factors), and its
        last kept and first dropped pivots each lie at least 10x from the
        cutoff GRAM_CUTOFF max diag K (measured: kept >= 2.9e-12, dropped
        <= 2.6e-16, relative), for m = 0, 1 and 2."""
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

    @pytest.mark.parametrize("m, n_rows", [(0, 44 * 18), (1, 48 * 18), (2, 48 * 18)])
    def test_rows_are_taken_on_the_spans_of_the_factors(self, small_model, m, n_rows):
        """On the default axial family each whitened half has 44 x 18 = 792
        rows for m = 0 and 48 x 18 = 864 for m >= 1, not the 48 x 19 = 912
        of its radial and axial collocation nodes: the radial tables of
        m = 0 span 44 of the 48 radial node dimensions and those of m >= 1
        all of them, and each half's axial tables 18 of its 19."""
        sol = extension_ops._ModeSolver(small_model.cyl, m, extension_ops.NZ_MODES)
        for parity in (0, 1):
            rows = sol._whitened(parity)[2]
            assert _dense_whitened(rows).shape[0] == n_rows
            assert _dense_whitened(_full_rows(sol, parity)).shape[0] == 48 * 19

    @pytest.mark.parametrize("m", [0, 1])
    def test_rows_on_the_spans_keep_the_singular_values(self, mode_solvers, m):
        """Each whitened half on the bases of its rows' spans has fewer rows
        than on all its node rows and the same singular values above 1e-10
        of the largest, to 1e-13 relative, and as many of them: an
        orthogonal change of row basis whose span holds the range."""
        sol = mode_solvers[m]
        for parity in (0, 1):
            B = _dense_whitened(sol._whitened(parity)[2])
            full = _dense_whitened(_full_rows(sol, parity))
            assert B.shape[0] < full.shape[0] and B.shape[1] == full.shape[1]
            s, want = (np.linalg.svd(A, compute_uv=False) for A in (B, full))
            r = np.sum(want > 1e-10 * want[0])
            assert np.sum(s > 1e-10 * s[0]) == r
            assert np.max(np.abs(s[:r] - want[:r])) <= 1e-13 * want[0]

    @pytest.mark.parametrize("m", [0, 1])
    def test_solve_matches_the_svd_solve_on_sources_in_the_range(self, mode_solvers,
                                                                  rng, m):
        """On random sources in the range of the collocation system (those
        of random whitened coefficients on all node rows of each half), the
        solve equals the minimum-norm SVD solve of the dense halves on all
        their node rows to 5e-14 relative for m = 0 and 1e-11 for m = 1
        (measured up to 4.6e-15 and 1.2e-12)."""
        sol = mode_solvers[m]
        nh = sol.z_nodes.size // 2
        halves = []
        for parity in (0, 1):
            B = _dense_whitened(_full_rows(sol, parity))
            halves.append((B @ rng.standard_normal((B.shape[1], 3))).reshape(-1, nh, 3))
        even, odd = halves  # the half sum and the half difference of the sources
        g = np.concatenate([even + odd, (even - odd)[:, ::-1]], axis=1)
        got, want = sol.solve(g), _svd_solve(sol, g)
        assert np.max(np.abs(got - want)) <= {0: 5e-14, 1: 1e-11}[m] * np.max(np.abs(want))

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
        """For both parity halves, the lower triangle of the Gram K = B B^T
        (all of it that _gram forms), B^T z and B y taken from the Kronecker
        factors of the whitened system agree with the dense B built from
        the same factors to 1e-13 relative."""
        sol = mode_solvers[m]
        for parity in (0, 1):
            rows = sol._whitened(parity)[2]
            B = _dense_whitened(rows)
            z = rng.standard_normal((B.shape[0], 3))
            y = rng.standard_normal((B.shape[1], 3))
            for got, want in ((np.tril(extension_ops._gram(rows)), np.tril(B @ B.T)),
                              (extension_ops._whitened_rmatmul(rows, z), B.T @ z),
                              (extension_ops._whitened_matmul(rows, y), B @ y)):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("m", [0, 1])
    def test_pivoted_gram_of_the_triangle_equals_that_of_the_full_gram(
            self, mode_solvers, m):
        """_gram forms only the blocks of the Gram that hold its lower
        triangle; the pivoted Cholesky factor, pivots and rank taken from
        it are bitwise those taken from the whole symmetric Gram, for both
        parity halves."""
        sol = mode_solvers[m]
        for parity in (0, 1):
            K = extension_ops._gram(sol._whitened(parity)[2])
            full = np.tril(K) + np.tril(K, -1).T
            R, piv, rank = extension_ops._pivoted_gram(K)
            R_full, piv_full, rank_full = extension_ops._pivoted_gram(full)
            assert rank == rank_full and np.array_equal(piv, piv_full)
            assert np.array_equal(np.triu(R), np.triu(R_full))

    @pytest.mark.parametrize("m", [0, 1])
    def test_solve_forms_no_whitened_system(self, mode_solvers, rng, m):
        """One solve of 72 (m = 0) or 144 (m = 1) sources peaks below 25 or
        40 MiB of traced allocations: the dense whitened system (8.2 MiB per
        half for m = 0) and its Gram product are never formed (measured
        18.3 and 34.5 MiB; 29.8 and 47.3 MiB on all 912 node rows when
        they were)."""
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
        (4.8 MiB per half for m = 0) live only inside a solve: once the unit
        dofs are built, each solver holds under 1 MiB of arrays."""
        ext_op = small_model.basis.ext_op
        ext_op.unit_dofs
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
        val, grad, _ = (t / np.sqrt(jets.weight) for t in basis.fluid_tables(jets))
        zval, zgrad = basis.stokes_basis.tables_on(small_model.grid)
        assert np.max(np.abs(val[1::2] - zval[: basis.half])) < 1e-12
        assert np.max(np.abs(grad[1::2] - zgrad[: basis.half])) < 1e-10

    def test_divergence_preserved_on_moving_domain(self, small_model, rng):
        basis = small_model.basis
        shell = basis.shell_basis
        eta = 0.03 * rng.standard_normal(shell.n_modes)
        jets = QuadJets(small_model.grid, shell, eta, np.zeros(shell.n_modes))
        val, grad, _ = (t / np.sqrt(jets.weight) for t in basis.fluid_tables(jets))
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
