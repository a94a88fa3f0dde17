"""Divergence-free extension operator, Piola transform, and mollifiers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perifsi import extension_ops
from perifsi.cli import RunConfig, build_model
from perifsi.errors import DomainViolation
from perifsi.extension_ops import ExtensionField, azimuthal_damping, mollify
from perifsi.fluidgrid import QuadJets
from perifsi.geometry import ShellField
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


def per_field_extension(ext_op, base, delta, xi, r, theta, z):
    """Cartesian value (3, Q), gradient (3, 3, Q) and divergence (Q) of the
    extension of h = (base + delta) xi, one field by itself: the data from
    xi.evaluate, the corrector from its full radial and axial tables at every
    node, the frame rotated by an explicit R G R^T.  The reference for the
    stacked evaluation."""
    cyl = ext_op.cyl
    flux_table, parts = ext_op.table
    w = np.concatenate([[base], delta.coefficients])
    x = xi.coefficients
    flux = float(w @ flux_table @ x)
    xv, xt, xz = xi.evaluate(theta, z, 1)
    dv, dt, dz = delta.evaluate(theta, z, 1)
    h, ht, hz = (base + dv) * xv, dt * xv + (base + dv) * xt, dz * xv + (base + dv) * xz
    Q = r.size
    val, G, div = np.zeros((3, Q)), np.zeros((3, 3, Q)), np.zeros(Q)
    out = r >= cyl.R / 2.0
    val[0, out] = h[out] / r[out]
    G[0, 0, out] = -h[out] / r[out] ** 2
    G[0, 1, out] = ht[out] / r[out] ** 2
    G[0, 2, out] = hz[out] / r[out]
    G[1, 1, out] = h[out] / r[out] ** 2
    inn = ~out
    c4 = 4.0 / cyl.R**2
    ri, zi, thi = r[inn], z[inn], theta[inn]
    val[0, inn] = c4 * ri * h[inn]
    G[0, 0, inn] = G[1, 1, inn] = c4 * h[inn]
    G[0, 1, inn] = c4 * ht[inn]
    G[0, 2, inn] = c4 * ri * hz[inn]
    a, da = extension_ops.plug_radial_profile(cyl, ri, 1)
    g, dg = extension_ops.plug_axial_profile(cyl, zi, 1)
    val[2, inn] = flux * a * g
    G[2, 0, inn] = flux * da * g
    G[2, 2, inn] = flux * a * dg
    div[inn] = 2.0 * c4 * h[inn] + flux * a * dg
    for sol, parity, d in parts:
        dofs = x @ np.tensordot(w, d, axes=1)
        Tr, Tz = sol.fam_r.eval_table(ri, 1), sol.fam_z.eval_table(zi, 1)
        prof = {}
        for i, comp in enumerate(sol.comps):
            cm = dofs[i * sol.block:(i + 1) * sol.block].reshape(sol.fam_r.nfun, -1)
            W = np.sum((cm.T @ Tr[:, 0]) * Tz[:, 0], axis=0)
            W_r = np.sum((cm.T @ Tr[:, 1]) * Tz[:, 0], axis=0)
            W_z = np.sum((cm.T @ Tr[:, 0]) * Tz[:, 1], axis=0)
            if comp in ("r", "t") or sol.m > 0:
                W, W_r, W_z = ri * W, W + ri * W_r, ri * W_z
            key = {"r": "fr", "t": "ft", "z": "fz"}[comp]
            prof[key], prof[key + "_r"], prof[key + "_z"] = W, W_r, W_z
        wv, wG = extension_ops.azimuthal_mode_tables(sol.m, parity, prof, ri, thi)
        val[:, inn] -= wv
        G[:, :, inn] -= wG
        div[inn] -= np.einsum("iiq->q", wG)
    cs, sn, zero = np.cos(theta), np.sin(theta), np.zeros(Q)
    rot = np.array([[cs, -sn, zero], [sn, cs, zero], [zero, zero, zero + 1.0]])
    return (np.einsum("ikq,kq->iq", rot, val),
            np.einsum("ikq,klq,jlq->ijq", rot, G, rot), div)


class TestExtension:
    def test_linearity_in_boundary_data(self, small_model, rng):
        ext_op = small_model.basis.ext_op
        shell = small_model.basis.shell_basis
        a = rng.standard_normal(shell.n_modes)
        b = rng.standard_normal(shell.n_modes)
        r = np.linspace(0.05, 0.95, 7)
        th = np.linspace(0.0, 2 * np.pi, 7, endpoint=False)
        z = np.linspace(0.1, 1.9, 7)
        rest = shell.zero_field()
        fa = ext_op.extend(rest, shell.field(a))(r, th, z)
        fb = ext_op.extend(rest, shell.field(b))(r, th, z)
        fab = ext_op.extend(rest, shell.field(a + 2.0 * b))(r, th, z)
        assert np.max(np.abs(fab - fa - 2.0 * fb)) < 1e-10

    def test_divergence_theorem_flux_balance(self, small_model, rng):
        """Being divergence free, the extension's net boundary flux vanishes:
        outlet minus inlet disk flux balances the lateral interface flux."""
        cyl = small_model.cyl
        ext_op = small_model.basis.ext_op
        shell = small_model.basis.shell_basis
        grid = small_model.grid
        xi = shell.field(rng.standard_normal(shell.n_modes))
        f = ext_op.extend(shell.zero_field(), xi)
        disk = {}
        for z0 in (0.0, cyl.L):
            r, th, w, z = grid.disk(z0)
            disk[z0] = float(f.tables(r, th, z)["val"][0, 2] @ w)
        th, z, w = shell.quadrature(refine=2)
        lateral = float((xi.value(th, z) * cyl.R) @ w)
        net = disk[cyl.L] - disk[0.0] + lateral
        scale = abs(lateral) + abs(disk[0.0]) + abs(disk[cyl.L]) + 1e-30
        assert abs(net) < 1e-8 * scale

    def test_time_derivative_matches_finite_difference(self, small_model, rng):
        """extend is affine in delta, so along delta(t) = delta0 + t ddelta the
        field's time derivative is extend_dt(ddelta, xi)."""
        ext_op = small_model.basis.ext_op
        shell = small_model.basis.shell_basis
        c0 = 0.02 * rng.standard_normal(shell.n_modes)
        dc = 0.01 * rng.standard_normal(shell.n_modes)
        xi = shell.field(rng.standard_normal(shell.n_modes))
        r = np.linspace(0.05, 0.9, 6)
        th = np.linspace(0.0, 2 * np.pi, 6, endpoint=False)
        z = np.linspace(0.2, 1.8, 6)
        h = 1e-5
        fp = ext_op.extend(shell.field(c0 + h * dc), xi)(r, th, z)
        fm = ext_op.extend(shell.field(c0 - h * dc), xi)(r, th, z)
        fd = (fp - fm) / (2.0 * h)
        dt_field = ext_op.extend_dt(shell.field(dc), xi)(r, th, z)
        assert np.max(np.abs(dt_field - fd)) < 1e-6

    def test_inadmissible_delta_rejected(self, small_model):
        ext_op = small_model.basis.ext_op
        shell = small_model.basis.shell_basis
        with pytest.raises(DomainViolation):
            ext_op.extend(shell.unit_field(0, amplitude=5.0), shell.unit_field(0))


class TestExtensionTable:
    def test_table_matches_a_direct_solve(self, small_model, rng):
        """The contracted table equals the corrector solve of the pointwise
        data (R + delta) xi and its quadrature flux."""
        cyl = small_model.cyl
        ext_op = small_model.basis.ext_op
        shell = small_model.basis.shell_basis
        delta = shell.field(0.02 * rng.standard_normal(shell.n_modes))
        xi = shell.field(rng.standard_normal(shell.n_modes))

        def data(theta, z):
            return (cyl.R + delta.value(theta, z)) * xi.value(theta, z)

        th, z, w = shell.quadrature(refine=2)
        flux = float(data(th, z) @ w)
        h = data(*ext_op.source_nodes())[:, None]
        parts = ext_op.corrector_dofs(h, np.array([flux]))
        direct = ExtensionField(cyl, shell, xi.coefficients[None], cyl.R, delta,
                                np.array([flux]), [(sol, p, d.T) for sol, p, d in parts])
        field = ext_op.extend(delta, xi)
        assert abs(field.flux[0] - flux) <= 1e-12 * abs(flux)
        for (s1, p1, d1), (s2, p2, d2) in zip(field.dofs, direct.dofs):
            assert s1 is s2 and p1 == p2
            assert np.max(np.abs(d1 - d2)) <= 1e-12 * np.max(np.abs(d2))
        pts = _random_points(rng, cyl)
        assert _rel_gap(field.tables(*pts), direct.tables(*pts)) <= 1e-12

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_extend_is_affine_in_delta(self, small_model, seed):
        """extend(delta, xi) - extend(0, xi) == extend_dt(delta, xi), to
        round-off in extend(delta, xi)."""
        g = np.random.default_rng(seed)
        ext_op = small_model.basis.ext_op
        shell = small_model.basis.shell_basis
        delta = shell.field(0.03 * g.standard_normal(shell.n_modes))
        xi = shell.field(g.standard_normal(shell.n_modes))
        pts = _random_points(g, small_model.cyl)
        moved = ext_op.extend(delta, xi, check=False).tables(*pts)
        rest = ext_op.extend(shell.zero_field(), xi).tables(*pts)
        dt = ext_op.extend_dt(delta, xi).tables(*pts)
        diff = {k: moved[k] - rest[k] for k in moved}
        assert _rel_gap(dt, diff, moved) <= 1e-12

    def test_no_corrector_solve_after_the_first_extension(
            self, small_model, rng, monkeypatch):
        basis = small_model.basis
        shell = basis.shell_basis
        basis.ext_op.extend(shell.zero_field(), shell.unit_field(0))
        small_model.sample()
        solves = []
        solve = extension_ops._ModeSolver.solve

        def counting(self, g_nodes):
            solves.append(g_nodes.shape)
            return solve(self, g_nodes)

        monkeypatch.setattr(extension_ops._ModeSolver, "solve", counting)
        delta = shell.field(0.02 * rng.standard_normal(shell.n_modes))
        dt_delta = shell.field(0.02 * rng.standard_normal(shell.n_modes))
        basis.ext_op.extend(delta, shell.unit_field(1))
        basis.ext_op.extend_dt(dt_delta, shell.unit_field(1))
        small_model.sample(delta=delta, dt_delta=dt_delta,
                           v_coeff=rng.standard_normal(basis.n))
        assert solves == []

    def test_build_model_builds_no_solver_and_no_table(self, small_cfg):
        model = build_model(small_cfg)
        built = vars(model.basis.ext_op)
        assert "solvers" not in built and "table" not in built
        assert "_disk_flux" not in vars(model)


class TestStackedEvaluation:
    @pytest.mark.parametrize("moving", [False, True])
    def test_each_field_matches_the_per_field_formula(self, small_model, rng, moving):
        """Every field of a stacked extension and of its time-derivative
        twin equals the extension of its own data alone, at points inside
        and outside r = R/2; the values-only call gives the values of the
        full tables."""
        ext_op = small_model.basis.ext_op
        shell = small_model.basis.shell_basis
        delta = (shell.field(0.02 * rng.standard_normal(shell.n_modes)) if moving
                 else shell.zero_field())
        X = rng.standard_normal((3, shell.n_modes))
        pts = _random_points(rng, small_model.cyl, n=60)
        stacks = [(small_model.cyl.R, delta, ext_op.extend(delta, X, check=False))]
        if moving:
            stacks.append((0.0, delta, ext_op.extend_dt(delta, X)))
        for base, d, field in stacks:
            got = field.tables(*pts)
            scale = np.max(np.abs(got["val"]))
            assert np.max(np.abs(field(*pts) - got["val"])) <= 1e-15 * scale
            for f, x in enumerate(X):
                v, g, div = per_field_extension(ext_op, base, d, shell.field(x), *pts)
                want = {"val": v, "grad": g, "div": div}
                assert _rel_gap({k: got[k][f] for k in got}, want) <= 1e-12

    @given(st.integers(min_value=0, max_value=10**6), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_node_order_only_permutes_the_output(self, small_model, seed, scattered):
        """Shuffling the nodes of a moving grid, or of scattered random
        points, permutes the tables and changes nothing else."""
        g = np.random.default_rng(seed)
        shell = small_model.basis.shell_basis
        delta = shell.field(0.03 * g.standard_normal(shell.n_modes))
        field = small_model.basis.ext_op.extend(
            delta, g.standard_normal((2, shell.n_modes)), check=False)
        if scattered:
            pts = _random_points(g, small_model.cyl, n=200)
        else:
            jets = QuadJets(small_model.grid, delta, shell.zero_field())
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
        _, G = extension_ops.azimuthal_mode_tables(
            sol.m, "cos", sol.profile_tables(d, r, z), r, th)
        out.append(np.einsum("iiq->q", G))
    return np.stack(out, axis=-1).reshape(R.shape + (-1,))


def _dense_solve(sol, g_nodes):
    """The corrector solve as one full SVD of the whole collocation system
    with a dense Gram and its nullspace correction: the reference for the
    parity-split, whitened solver."""
    from scipy.linalg import solve_triangular

    from perifsi.basis1d import composite_gauss, gauss

    m, L = sol.m, sol.fam_z.domain[1]
    rc, zc = sol.r_nodes, sol.z_nodes
    Tr, Tz = sol.fam_r.eval_table(rc, 1), sol.fam_z.eval_table(zc, 1)
    rq, wrq = composite_gauss(sol.r_breaks, extension_ops.R_DEGREE + 3)
    zq, wzq = gauss(extension_ops.NZ_MODES + 4, 0.0, L)
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
    U, s, Vt = np.linalg.svd(np.concatenate(cols).T, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * s[0]))
    N = Vt[rank:].T
    chol = np.linalg.cholesky(N.T @ A @ N + 1e-12 * np.eye(N.shape[1]))
    PV = Vt[:rank].T / s[:rank]
    Y = solve_triangular(chol.T, solve_triangular(chol, N.T @ (A @ PV), lower=True))
    return (PV - N @ Y) @ (U[:, :rank].T @ g_nodes.reshape(-1, g_nodes.shape[-1]))


@pytest.fixture(scope="module")
def mode_solvers(small_model):
    """The m = 0 solver of the small model and an m = 1 solver on its
    cylinder (the small model has no m >= 1 shell mode)."""
    return {0: small_model.basis.ext_op.solvers[0],
            1: extension_ops._ModeSolver(small_model.cyl, 1)}


def _line_loop_profiles(sol, dofs, r, z, partials):
    """The profile tables taken one z-line at a time: the dof block
    contracted with the axial table at the distinct z values, then one
    product with the radial element table per line."""
    lead, Q = dofs.shape[:-1], r.size
    nfr, nfz, nc = sol.fam_r.nfun, sol.fam_z.nfun, len(sol.comps)
    nd = 2 if partials else 1
    inside = np.flatnonzero(r < sol.r_breaks[-1])
    order = inside[np.argsort(z[inside], kind="stable")]
    zs = z[order]
    first = np.flatnonzero(np.diff(zs, prepend=np.nan) != 0.0)
    bounds = np.append(first, order.size)
    D = dofs.reshape(-1, nc, nfr, nfz)
    A = np.tensordot(D, sol.fam_z.eval_table(zs[first], nd - 1), axes=1)
    A = A.transpose(4, 0, 1, 3, 2) @ sol.fam_r.dof_basis.T
    A = A.reshape(first.size, D.shape[0] * nc, nd, A.shape[-1])
    Tr = sol.fam_r.element_table(r[order], nd - 1)
    V = np.zeros((A.shape[1], nd, Q))
    V_r = np.zeros((A.shape[1], Q))
    for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        idx = order[a:b]
        V[:, :, idx] = (A[k].reshape(-1, A.shape[-1]) @ Tr[:, 0, a:b]).reshape(
            -1, nd, b - a)
        if partials:
            V_r[:, idx] = A[k, :, 0] @ Tr[:, 1, a:b]
    V, V_r = V.reshape(-1, nc, nd, Q), V_r.reshape(-1, nc, Q)
    out = {}
    for i, comp in enumerate(sol.comps):
        key = {"r": "fr", "t": "ft", "z": "fz"}[comp]
        radial = comp in ("r", "t") or sol.m > 0
        W = V[:, i, 0]
        out[key] = r * W if radial else W
        if partials:
            W_r, W_z = V_r[:, i], V[:, i, 1]
            out[key + "_r"] = W + r * W_r if radial else W_r
            out[key + "_z"] = r * W_z if radial else W_z
    return {k: v.reshape(lead + (Q,)) for k, v in out.items()}


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
        """The batched per-node contraction equals the one-z-line-at-a-time
        loop to 1e-15 relative, on a moving grid's nodes (shared z lines)
        and on scattered points in and outside C."""
        sol = mode_solvers[m]
        shell = small_model.basis.shell_basis
        delta = shell.field(0.03 * rng.standard_normal(shell.n_modes))
        jets = QuadJets(small_model.grid, delta, shell.zero_field())
        scattered = _random_points(rng, small_model.cyl, n=200)
        dofs = rng.standard_normal((3, sol.ndof))
        for r, _, z in ((jets.r_phys, jets.theta, jets.z), scattered):
            got = sol.profile_tables(dofs, r, z, partials)
            want = _line_loop_profiles(sol, dofs, r, z, partials)
            assert got.keys() == want.keys()
            for k, v in want.items():
                assert np.max(np.abs(got[k] - v)) <= 1e-15 * np.max(np.abs(v)), k

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
        p = sol.profile_tables(d, r, z)
        q = sol.profile_tables(d_mirror, r, L - z)
        scale = max(np.max(np.abs(p[k])) for k in ("fr", "fz"))
        for key, sign in (("fr", 1.0), ("ft", 1.0), ("fz", -1.0)):
            if key in p:
                assert np.max(np.abs(q[key] - sign * p[key])) <= 1e-10 * scale

    def test_matches_the_unsplit_solve_on_the_table_sources(self, monkeypatch):
        """On the default model's table sources, the parity-split solver
        equals the full-SVD solve to 1e-7 relative, a few times the
        operator's own round-off (its table moves about 2e-8 between BLAS
        thread counts)."""
        sources = []
        solve = extension_ops._ModeSolver.solve

        def recording(self, g_nodes):
            sources.append(g_nodes)
            return solve(self, g_nodes)

        monkeypatch.setattr(extension_ops._ModeSolver, "solve", recording)
        ext_op = build_model(RunConfig().validate()).basis.ext_op
        _, parts = ext_op.table
        assert len(parts) == 1 and sources[0].shape[-1] == 72
        sol, _, dofs = parts[0]
        want = _dense_solve(sol, sources[0])
        got = dofs.reshape(-1, sol.ndof).T
        assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want))

    def test_m1_table_sources_match_the_unsplit_solve_in_one_call(self, monkeypatch):
        """On a model with m = 1 shell modes, the m = 1 solver's table
        sources are solved to 1e-6 relative of the full-SVD solve (measured
        about 2e-7), and the table build makes one solve per wavenumber:
        the cos and sin sources of m = 1 share one call."""
        calls = []
        solve = extension_ops._ModeSolver.solve

        def recording(self, g_nodes):
            calls.append((self.m, g_nodes))
            return solve(self, g_nodes)

        monkeypatch.setattr(extension_ops._ModeSolver, "solve", recording)
        cfg = RunConfig(n_theta=2, n_z=2, n_interior=4).validate()
        ext_op = build_model(cfg).basis.ext_op
        _, parts = ext_op.table
        assert [m for m, _ in calls] == [0, 1]
        assert [(sol.m, parity) for sol, parity, _ in parts] == [
            (0, "cos"), (1, "cos"), (1, "sin")]
        sources = calls[1][1]
        want = _dense_solve(ext_op.solvers[1], sources)
        S = sources.shape[-1] // 2
        for sol, parity, dofs in parts[1:]:
            got = dofs.reshape(-1, sol.ndof).T
            ref = want[:, :S] if parity == "cos" else want[:, S:]
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))

    def test_keeps_no_factors_after_the_table(self, small_model):
        """The whitened systems and Cholesky factors (tens of MB) live only
        inside a solve: once the table is built, each solver holds under
        1 MiB of arrays."""
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
        zero = basis.shell_basis.zero_field()
        jets = QuadJets(small_model.grid, zero, zero)
        val, grad, _ = basis.fluid_tables(jets)
        zval, zgrad = basis.stokes_basis.tables_on(small_model.grid)
        assert np.max(np.abs(val[1::2] - zval[: basis.half])) < 1e-12
        assert np.max(np.abs(grad[1::2] - zgrad[: basis.half])) < 1e-10

    def test_divergence_preserved_on_moving_domain(self, small_model, rng):
        basis = small_model.basis
        shell = basis.shell_basis
        eta = shell.field(0.03 * rng.standard_normal(shell.n_modes))
        jets = QuadJets(small_model.grid, eta, shell.zero_field())
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
        for _ in range(10):
            c = rng.standard_normal(shell.n_modes)
            g = ShellField(shell, c * azimuthal_damping(shell, 0.3))
            assert g.sup_norm() <= shell.field(c).sup_norm() + 1e-12
