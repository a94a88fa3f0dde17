"""Shell bending forms and the solid displacement basis.

`biharmonic_form` and `lame_form` are test-local oracles: per-field
quadratures of the shell bending form and the solid Lame form, against
which the package's factored Grams are checked."""

import numpy as np
import pytest

from perifsi.cli import RunConfig, build_model
from perifsi.geometry import CylinderConfig
from perifsi.shell_solid import (
    ShellBasis,
    SolidBasis,
    SolidGrid,
    SolidParams,
    cutoff_profile,
    shell_matrices,
)


@pytest.fixture(scope="module")
def setup():
    cyl = CylinderConfig(R=1.0, L=2.0, H=0.5)
    shell = ShellBasis(1, 4, cyl.L)
    return cyl, shell


def biharmonic_form(basis, eta, xi):
    """K(eta, xi) = int_omega Hess(eta) : Hess(xi) dA by tensor quadrature,
    for coefficient vectors eta and xi over basis."""
    theta, z, w = basis.quadrature()
    a = basis.evaluate(eta, theta, z, 2)
    b = basis.evaluate(xi, theta, z, 2)
    integrand = a[3] * b[3] + 2.0 * a[4] * b[4] + a[5] * b[5]
    return float(integrand @ w)


class TestShellBasis:
    def test_mode_clamping(self, setup):
        _, shell = setup
        th = np.linspace(0.0, 2.0 * np.pi, 7)
        for zend in (0.0, shell.L):
            tab = shell.eval_modes(th, np.full(7, zend), 1)
            assert np.max(np.abs(tab[:, 0])) < 1e-10  # values
            assert np.max(np.abs(tab[:, 2])) < 1e-8  # z-derivatives

    def test_shell_matrices_spd(self, setup):
        _, shell = setup
        M, K = shell_matrices(shell)
        assert np.max(np.abs(M - M.T)) < 1e-12
        assert np.max(np.abs(K - K.T)) < 1e-10
        assert np.all(np.linalg.eigvalsh(M) > 0.0)
        assert np.all(np.linalg.eigvalsh(K) > -1e-10 * np.max(np.abs(K)))

    def test_biharmonic_matches_matrix(self, setup, rng):
        _, shell = setup
        _, K = shell_matrices(shell)
        a = rng.standard_normal(shell.n_modes)
        b = rng.standard_normal(shell.n_modes)
        form = biharmonic_form(shell, a, b)
        assert form == pytest.approx(float(a @ K @ b), rel=1e-8, abs=1e-10)

    def test_biharmonic_symmetry(self, setup, rng):
        _, shell = setup
        a = rng.standard_normal(shell.n_modes)
        b = rng.standard_normal(shell.n_modes)
        assert biharmonic_form(shell, a, b) == pytest.approx(
            biharmonic_form(shell, b, a), rel=1e-10
        )


class TestSolidParams:
    def test_defaults_valid(self):
        SolidParams()

    @pytest.mark.parametrize(
        "kw",
        [
            {"lambda1": 0.0},
            {"lambda2": -1.0},
            {"delta_visc": -0.5},
            {"rho_s2": 0.0},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            SolidParams(**kw)


class TestCutoff:
    def test_hermite_endpoint_conditions(self, setup):
        cyl, _ = setup
        ends = np.array([cyl.R, cyl.R + cyl.H])
        s = cutoff_profile(cyl, ends)
        assert s[0, 0] == pytest.approx(1.0)
        assert s[0, 1] == pytest.approx(0.0)
        assert np.max(np.abs(s[1])) < 1e-14  # s' = 0 at both ends


def _lift(cyl, shell, xi, r, theta, z):
    """Tables of the lifted field s(r) xi e_r of the shell field with
    coefficients xi, contracted with the stacked lifted modes."""
    t = SolidBasis(cyl, shell).lifted_tables(shell.n_modes, r, theta, z)
    return {k: np.tensordot(xi, v, axes=1) for k, v in t.items()}


class TestSolidFields:
    def test_lift_carries_trace(self, setup, rng):
        """At r = R the lifted field equals xi e_r in frame components and
        vanishes on the outer surface r = R + H."""
        cyl, shell = setup
        xi = rng.standard_normal(shell.n_modes)
        th = np.linspace(0.0, 2.0 * np.pi, 9)
        zz = np.linspace(0.1, 1.9, 9)
        inner = _lift(cyl, shell, xi, np.full(9, cyl.R), th, zz)["val"]
        assert np.max(np.abs(inner[0] - shell.evaluate(xi, th, zz, 0)[0])) < 1e-12
        assert np.max(np.abs(inner[1:])) < 1e-14
        outer = _lift(cyl, shell, xi, np.full(9, cyl.R + cyl.H), th, zz)["val"]
        assert np.max(np.abs(outer)) < 1e-13

    def test_interior_mode_zero_at_interface(self, setup):
        cyl, shell = setup
        th = np.linspace(0.0, 2.0 * np.pi, 9)
        zz = np.linspace(0.1, 1.9, 9)
        basis = SolidBasis(cyl, shell)
        val = basis.interior_tables(12, np.full(9, cyl.R), th, zz)["val"]
        assert np.max(np.abs(val)) < 1e-14


def _frame(theta):
    """The rotations R = [e_r e_theta e_z] (3, 3, ...) at the azimuths
    theta (a number or an array)."""
    c, s, zero = np.cos(theta), np.sin(theta), np.zeros_like(theta)
    return np.array([[c, -s, zero], [s, c, zero], [zero, zero, zero + 1.0]])


def _stencil(r0, t0, z0, h):
    """Cylindrical coordinates (r, theta, z) of the node (r0, t0, z0)
    followed by its six Cartesian neighbours x0 + h e_j, x0 - h e_j, j < 3."""
    x0 = np.array([r0 * np.cos(t0), r0 * np.sin(t0), z0])
    x, y, z = np.array([x0] + [x0 + s * h * e for e in np.eye(3) for s in (1.0, -1.0)]).T
    return np.hypot(x, y), np.arctan2(y, x), z


@pytest.fixture(scope="module")
def fd_models():
    """The default model and a model with cos and sin m = 1 shell modes.
    The latter's Stokes modes come in parities axi (one with swirl), cos
    and sin, its cos and sin modes with all three components, and its
    extensions have sin corrector parts that do not vanish (with only the
    cos shell mode, n_theta = 2, they do)."""
    return {"default": build_model(RunConfig().validate()),
            "m1": build_model(RunConfig(n_theta=3, n_z=2, n_interior=6).validate())}


def _solid_fields(kind):
    """A random combination of the first 12 lifted or interior solid modes
    over a shell basis with azimuthal modes; frame tables."""
    cyl = CylinderConfig(R=1.0, L=2.0, H=0.5)
    shell = ShellBasis(3, 4, cyl.L)
    basis = SolidBasis(cyl, shell)
    xi = np.random.default_rng(7).standard_normal(shell.n_modes)

    def tables(r, theta, z):
        t = getattr(basis, kind + "_tables")(shell.n_modes, r, theta, z)
        return (np.tensordot(xi, t[k], axes=1)[None] for k in ("val", "grad", "div"))

    return tables, (1.2, 0.7, 0.9)


def _stokes_fields(models, parity):
    """The Stokes modes of the given parity on the m = 1 model; their tables
    carry no divergence, so the trace of the gradient stands in for it."""
    stokes = models["m1"].basis.stokes_basis
    rows = next(rows for _, p, rows, _ in stokes.groups if p == parity)

    def tables(r, theta, z):
        t = stokes.tables(r, theta, z)
        grad = t["grad"][rows]
        return t["val"][rows], grad, np.einsum("fiiq->fq", grad)

    return tables, (0.3 * models["m1"].cyl.R, 0.7, 0.37 * models["m1"].cyl.L)


def _extension_fields(models, which, where):
    """Every coupled extension from an interface moved by 0.02 times a
    random shell field, at a node inside C (r = 0.3 R) or outside it
    (r = 0.7 R)."""
    model = models[which]
    shell = model.basis.shell_basis
    delta = 0.02 * np.random.default_rng(3).standard_normal(shell.n_modes)
    field = model.basis.extension_fields(delta)

    def tables(r, theta, z):
        t = field.tables(r, theta, z)
        return t["val"], t["grad"], t["div"]

    r0 = {"inside": 0.3, "outside": 0.7}[where] * model.cyl.R
    return tables, (r0, 0.7, 0.37 * model.cyl.L)


FD_CASES = {
    "solid-lifted": lambda m: _solid_fields("lifted"),
    "solid-interior": lambda m: _solid_fields("interior"),
    **{f"stokes-{p}": (lambda m, p=p: _stokes_fields(m, p)) for p in ("axi", "cos", "sin")},
    **{f"ext-{w}-{where}": (lambda m, w=w, where=where: _extension_fields(m, w, where))
       for w in ("default", "m1") for where in ("inside", "outside")},
}


@pytest.mark.parametrize("case", list(FD_CASES))
def test_frame_gradient_against_finite_differences(fd_models, case):
    """Every tabulated frame gradient, of solid modes, of Stokes modes of
    each parity and of coupled extensions in and outside the corrector's
    cylinder C, matches central differences of the field's Cartesian values
    (its frame values turned by the frame at each stencil node) along the
    Cartesian axes, rotated into the (e_r, e_theta, e_z) frame, to 1e-9 of
    the largest entry (measured at most 1.6e-10 with the step 1e-6); and
    div is the trace of the gradient."""
    tables, node = FD_CASES[case](fd_models)
    h = 1e-6
    r, theta, z = _stencil(*node, h)
    val, grad, div = tables(r, theta, z)
    val = np.einsum("ikq,fkq->fiq", _frame(theta), val)
    fd = (val[..., 1::2] - val[..., 2::2]) / (2.0 * h)  # (F, i, j): d u_i / d x_j
    Rm = _frame(node[1])
    want = np.einsum("ki,fkl,lj->fij", Rm, fd, Rm)
    G = grad[..., 0]
    scale = np.max(np.abs(G))
    assert scale > 0.0
    assert np.max(np.abs(G - want)) <= 1e-9 * scale
    assert np.max(np.abs(div[:, 0] - np.einsum("fii->f", G))) <= 1e-14 * scale


class TestSolidBasis:
    def test_interior_mode_count_and_gram(self, setup):
        cyl, shell = setup
        basis = SolidBasis(cyl, shell)
        grid = SolidGrid(cyl, shell)
        val = basis.interior_tables(6, grid.r, grid.theta, grid.z)["val"]
        assert len(val) == 6
        gram = np.einsum("kiq,liq,q->kl", val, val, grid.w)
        assert np.all(np.linalg.eigvalsh(gram) > 0.0)

    def test_too_many_interior_modes_rejected(self, setup):
        cyl, shell = setup
        basis = SolidBasis(cyl, shell, n_r=1)
        th = z = np.zeros(1)
        assert len(basis.interior_tables(12, np.ones(1), th, z)["val"]) == 12
        with pytest.raises(ValueError, match="solid basis too small"):
            basis.interior_tables(13, np.ones(1), th, z)


def lame_form(td, tdd, tz, params, weight):
    """lambda1 int grad d : grad zeta + lambda1 delta_visc int grad d_dot :
    grad zeta + lambda2 int (div d)(div zeta) over the solid annulus, from
    the tables of d, d_dot and zeta: dicts with "grad" (3, 3, Q) and "div"
    (Q,) at quadrature nodes of weights (Q,).  None stands for a zero d or
    d_dot."""
    total = 0.0
    if td is not None:
        total += params.lambda1 * np.einsum(
            "ijq,ijq,q->", td["grad"], tz["grad"], weight
        )
        total += params.lambda2 * np.einsum("q,q,q->", td["div"], tz["div"], weight)
    if tdd is not None and params.delta_visc > 0:
        total += params.lambda1 * params.delta_visc * np.einsum(
            "ijq,ijq,q->", tdd["grad"], tz["grad"], weight
        )
    return float(total)


class TestLameForm:
    def test_oracle_for_assembled_blocks(self, small_model):
        """Field-by-field quadrature of the Lame form reproduces the stacked
        Gram products behind the assembled A_el and A_visc blocks."""
        params, grid = small_model.params, small_model.solid_grid
        t = small_model.basis.solid_tables(grid.r, grid.theta, grid.z)
        fields = [{"grad": g, "div": d} for g, d in zip(t["grad"], t["div"])]
        c = small_model.constants
        A_el = np.array([[lame_form(fk, None, fl, params, grid.w) for fl in fields]
                         for fk in fields])
        A_visc = np.array([[lame_form(None, fk, fl, params, grid.w) for fl in fields]
                           for fk in fields])
        assert np.max(np.abs(A_el - c["A_el"])) <= 1e-12 * np.max(np.abs(c["A_el"]))
        assert np.max(np.abs(A_visc - c["A_visc"])) <= 1e-12 * np.max(
            np.abs(c["A_visc"])
        )
