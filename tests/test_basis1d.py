"""One-dimensional quadrature and basis-family tests."""

import numpy as np
import pytest
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


class TestLegFamily:
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
