"""One-dimensional quadrature and basis-family tests."""

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg
from hypothesis import given, settings
from hypothesis import strategies as st

from perifsi.basis1d import (
    BeamFamily,
    LegFamily,
    PiecewiseLegFamily,
    TrigFamily,
    beam_roots,
    composite_gauss,
    gauss,
    trig_weights,
)


def _fd_check(family, x, h=1e-6):
    """Central finite differences against the family's own first derivative."""
    t0 = family.eval_table(x, 1)
    tp = family.eval_table(x + h)
    tm = family.eval_table(x - h)
    fd = (tp[:, 0] - tm[:, 0]) / (2.0 * h)
    return np.max(np.abs(t0[:, 1] - fd))


class TestBeamRoots:
    def test_newton_roots_match_the_bracketed_solver(self):
        """The k-th root is brentq's root of cos x - 1 / cosh x on the
        bracket (k pi, (k + 1) pi), to 1e-15 relative, for k = 1..40."""
        from scipy.optimize import brentq

        def f(x):
            return np.cos(x) - 1.0 / np.cosh(x)

        want = np.array([brentq(f, k * np.pi + 1e-9, (k + 1) * np.pi - 1e-9,
                                xtol=1e-15, rtol=8.9e-16) for k in range(1, 41)])
        got = beam_roots(40)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / want) <= 1e-15


class TestGauss:
    def test_interval_endpoints_and_weights(self):
        x, w = gauss(6, -1.0, 3.0)
        assert np.all((x > -1.0) & (x < 3.0))
        assert w.sum() == pytest.approx(4.0, rel=1e-14)

    @given(
        n=st.integers(min_value=1, max_value=8),
        coeffs=st.lists(
            st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=6
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_for_low_degree_polynomials(self, n, coeffs):
        # n-point Gauss integrates polynomials of degree <= 2n - 1 exactly
        deg = min(len(coeffs) - 1, 2 * n - 1)
        c = np.array(coeffs[: deg + 1])
        x, w = gauss(n, 0.0, 2.0)
        approx = np.polynomial.polynomial.polyval(x, c) @ w
        exact = sum(ck * 2.0 ** (k + 1) / (k + 1) for k, ck in enumerate(c))
        assert approx == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_mutating_a_returned_rule_leaves_the_next_one(self):
        """The rule on [-1, 1] is memoized per point count, but every call
        hands out arrays of its own: writing into one changes no later
        call's nodes or weights."""
        x0, w0 = (a.copy() for a in gauss(7, -1.0, 1.0))
        x, w = gauss(7, -1.0, 1.0)
        x[:] = 0.0
        w *= 2.0
        x1, w1 = gauss(7, -1.0, 1.0)
        assert np.array_equal(x1, x0) and np.array_equal(w1, w0)

    def test_composite_matches_single_interval(self):
        f = lambda x: np.cos(3.0 * x)
        x1, w1 = gauss(24, 0.0, 1.0)
        x2, w2 = composite_gauss([0.0, 0.3, 1.0], 16)
        assert f(x1) @ w1 == pytest.approx(f(x2) @ w2, rel=1e-12)


def _padded_rows(rows, ncoef):
    """The coefficient rows zero padded to (len(rows), ncoef)."""
    out = np.zeros((len(rows), ncoef))
    for i, c in enumerate(rows):
        out[i, : len(c)] = c
    return out


class TestLegFamily:
    @pytest.mark.parametrize("factor", [None, [1.0, 0.0, -1.0], [0.3, -1.2, 0.5, 2.0]])
    @pytest.mark.parametrize("nfun", [5, 34, 66])
    def test_modal_matches_the_per_function_product(self, nfun, factor):
        """LegFamily.modal, all functions at once by Horner's rule on the
        multiply-by-s matrix, equals each function's legmul of the factor
        in Legendre form with P_i, to 1e-15 of the largest coefficient
        (measured at most 3.5e-16, on the cubic factor)."""
        fam = LegFamily.modal(nfun, (0.0, 2.0), factor=factor)
        if factor is None:
            rows = np.eye(nfun)
        else:
            fac = npleg.poly2leg(factor)
            rows = [npleg.legmul(fac, np.eye(i + 1)[i]) for i in range(nfun)]
        want = _padded_rows(rows, fam.coef.shape[1])
        assert fam.coef.shape == want.shape
        assert np.max(np.abs(fam.coef - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("nfun", [5, 34, 66])
    def test_derivative_coefficients_match_per_row_legder(self, nfun):
        """_der_coef, one legder over the whole coefficient array, equals
        the per-row legder, zero padded, to 1e-15 of the largest
        coefficient, for derivatives 0 to 3 (also past the degree of the
        lowest functions; measured bitwise equal)."""
        L = 2.0
        fam = LegFamily.modal(nfun, (0.0, L), factor=[L * L / 4.0, 0.0, -L * L / 4.0])
        for d in range(4):
            want = _padded_rows([npleg.legder(c, d) for c in fam.coef], fam.coef.shape[1])
            got = fam._der_coef(d)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), d

    def test_modal_shapes_and_derivative(self):
        fam = LegFamily.modal(5, (0.0, 2.0))
        x = np.linspace(0.1, 1.9, 17)
        tab = fam.eval_table(x, 2)
        assert tab.shape == (5, 3, 17)
        assert _fd_check(fam, x) < 1e-7

    def test_second_derivative_of_quadratic_is_constant(self):
        fam = LegFamily.modal(4, (-1.0, 1.0))
        x = np.linspace(-0.9, 0.9, 11)
        tab = fam.eval_table(x, 2)
        # mode 2 is the quadratic Legendre polynomial: P2'' = 3
        assert np.ptp(tab[2, 2]) < 1e-12


class TestBeamFamily:
    @pytest.mark.parametrize("ell", [1.0, 2.0, 3.7])
    def test_closed_form_norm_matches_dense_quadrature(self, ell):
        """The closed-form L2 norm sqrt(ell) of every mode equals the norm
        by a Gauss rule of max(80, 6 nfun + 40) points, 136 for 16 modes,
        to 1e-14 relative (measured at most 2.4e-15)."""
        fam = BeamFamily(16, ell)
        x, w = gauss(max(80, 6 * fam.nfun + 40), 0.0, ell)
        raw = fam.eval_table(x, 0)[:, 0] * fam.norm[:, None]
        want = np.sqrt(raw**2 @ w)
        assert np.max(np.abs(fam.norm - want) / want) <= 1e-14

    def test_clamped_both_ends(self):
        fam = BeamFamily(4, 2.0)
        ends = np.array([0.0, 2.0])
        tab = fam.eval_table(ends, 1)
        assert np.max(np.abs(tab[:, 0])) < 1e-10
        assert np.max(np.abs(tab[:, 1])) < 1e-8

    def test_interior_derivative(self):
        fam = BeamFamily(4, 2.0)
        x = np.linspace(0.2, 1.8, 9)
        assert _fd_check(fam, x) < 1e-5


class TestTrigFamily:
    def test_periodicity_and_wavenumbers(self):
        fam = TrigFamily(5)
        th = np.linspace(0.0, 2.0 * np.pi, 7)
        a = fam.eval_table(th, 1)
        b = fam.eval_table(th + 2.0 * np.pi, 1)
        assert np.max(np.abs(a - b)) < 1e-12
        assert fam.mode_m(0) == 0

    def test_derivative(self):
        fam = TrigFamily(5)
        x = np.linspace(0.0, 6.0, 13)
        assert _fd_check(fam, x) < 1e-6


class TestPiecewiseLegFamily:
    @pytest.mark.parametrize("degree", [1, 3, 10])
    def test_edge_values_and_derivative_rows_match_legval_and_legder(self, degree):
        """_edge_vals(s) = s^i equals legval of each Legendre mode at
        s = -1 and +1 to 1e-14 (legval's own round-off reaches 1.3e-15 at
        degree 10), and each row i of _der_mat(d) is legder(e_i, d), zero
        padded, to 1e-15 of the row set's largest entry (measured bitwise
        equal)."""
        fam = PiecewiseLegFamily([0.0, 0.5, 1.0], degree)
        p = degree + 1
        for s in (-1.0, 1.0):
            want = np.array([npleg.legval(s, np.eye(p)[i]) for i in range(p)])
            assert np.max(np.abs(fam._edge_vals(s) - want)) <= 1e-14
        for d in range(4):
            want = _padded_rows([npleg.legder(np.eye(p)[i], d) for i in range(p)], p)
            got = fam._der_mat(d)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * max(np.max(np.abs(want)), 1.0), d

    def test_continuity_across_breaks(self):
        fam = PiecewiseLegFamily([0.0, 0.4, 1.0], 3)
        eps = 1e-9
        left = fam.eval_table(np.array([0.4 - eps]))
        right = fam.eval_table(np.array([0.4 + eps]))
        assert np.max(np.abs(left[:, 0] - right[:, 0])) < 1e-6

    def test_boundary_flags(self):
        fam = PiecewiseLegFamily([0.0, 0.5, 1.0], 3)
        left, right = fam.eval_table(np.array([0.0, 1.0]))[:, 0].T
        assert np.max(np.abs(right)) < 1e-12
        assert np.max(np.abs(left)) > 0.1

    def test_derivative_inside_elements(self):
        fam = PiecewiseLegFamily([0.0, 0.5, 1.0], 4)
        x = np.linspace(0.05, 0.45, 7)  # stay clear of the break
        assert _fd_check(fam, x) < 1e-5


def _fft_interpolant(samples, t, T):
    """Trigonometric interpolation through the real FFT of the samples."""
    S = samples.shape[0]
    F = np.fft.rfft(samples)
    k = np.arange(F.size)
    scale = np.ones(F.size)
    scale[1:] = 2.0
    if S % 2 == 0:
        scale[-1] = 1.0
    phase = scale * np.exp(2j * np.pi * np.multiply.outer(t / T, k)) / S
    return np.real(phase @ F)


class TestTrigWeights:
    T = 1.7

    @pytest.mark.parametrize("S", [1, 2, 3, 4, 7, 8, 256])
    def test_matches_the_fft_interpolant(self, S):
        rng = np.random.default_rng(S)
        samples = rng.standard_normal(S)
        grid = np.arange(S) * self.T / S
        t = np.concatenate([
            rng.uniform(0.0, self.T, 16),
            grid,
            [self.T, 2.3 * self.T, 7.9 * self.T],
        ])
        got = trig_weights(t, self.T, S) @ samples
        want = _fft_interpolant(samples, t, self.T)
        scale = np.max(np.abs(samples))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
        for s in t[:4]:
            w = trig_weights(s, self.T, S)
            assert w.shape == (S,)
            assert abs(w @ samples - _fft_interpolant(samples, s, self.T)) <= 1e-13 * scale

    @pytest.mark.parametrize("S", [1, 2, 3, 4, 7, 8, 256])
    def test_reproduces_the_samples_on_the_grid(self, S):
        grid = np.arange(S) * self.T / S
        W = trig_weights(grid, self.T, S)
        assert np.max(np.abs(W - np.eye(S))) <= 1e-13

    def test_single_sample_has_unit_weight(self):
        assert trig_weights(0.37, self.T, 1).tolist() == [1.0]
