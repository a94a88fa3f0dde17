"""One-dimensional building blocks: quadrature, Legendre families, clamped-beam
eigenfunctions, and constrained piecewise-polynomial spaces.

The clamped Euler-Bernoulli eigenfunctions

    phi_k(x) = cosh(l x) - cos(l x) - sigma (sinh(l x) - sin(l x))

are evaluated in an exponential-split form.  The textbook formula loses all
precision for l*ell beyond ~15 because cosh and sigma*sinh cancel to e^{-l x};
writing cosh t - sigma sinh t = ((1-sigma) e^t + (1+sigma) e^{-t}) / 2 with
1 - sigma computed from the identity sinh X - cosh X = -e^{-X} keeps every term
well scaled, so the clamped end conditions hold at machine precision for every
mode count used here.
"""

from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg


@lru_cache(maxsize=None)
def _leggauss(n):
    """Read-only Gauss-Legendre rule of n points on [-1, 1], memoized: a
    model's set-up asks for a few distinct n many times over."""
    x, w = npleg.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss(n, a, b):
    """Gauss-Legendre nodes and weights on [a, b], as fresh arrays."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def composite_gauss(breaks, n):
    """Gauss-Legendre with n points per element of the partition `breaks`."""
    xs, ws = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        x, w = gauss(n, a, b)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def trig_weights(t, T, S):
    """Weights w such that w @ samples is the trigonometric interpolant at t
    of S samples on the grid j T / S (one row per time for an array t).  An
    even S gives the Nyquist mode half weight; S = 1 gives [1.0]."""
    if S == 1:
        return np.ones(np.shape(t) + (1,))
    k = np.arange(S // 2 + 1)
    phase = np.exp(-2j * np.pi * np.multiply.outer(np.asarray(t, dtype=float) / T, k))
    return np.fft.irfft(phase, n=S)


def _padded_legder(coef, d):
    """The d-th derivatives of the Legendre series in the rows of coef,
    zero padded to coef's shape."""
    out = np.zeros_like(coef)
    if d < coef.shape[1]:
        out[:, : coef.shape[1] - d] = npleg.legder(coef, d, axis=1)
    return out


class LegFamily:
    """A family of 1D functions stored as Legendre series on a common domain.

    coef has shape (nfun, ncoef).  eval_table returns values and the first
    `nderiv` derivatives at arbitrary points, shape (nfun, nderiv+1, nx).
    """

    def __init__(self, coef, domain):
        self.coef = np.atleast_2d(np.asarray(coef, dtype=float))
        self.domain = (float(domain[0]), float(domain[1]))

    @property
    def nfun(self):
        return self.coef.shape[0]

    @classmethod
    def modal(cls, nfun, domain, factor=None):
        """Legendre polynomials on `domain`, optionally multiplied by `factor`.

        factor is given as a plain polynomial in the mapped variable
        s in [-1, 1] (numpy polynomial coefficients, low order first).  Row
        i of the coefficients is e_i f(X), with X the Legendre
        multiply-by-s matrix, s P_i = (i P_(i-1) + (i + 1) P_(i+1)) / (2i + 1),
        taken by Horner's rule on f for every function at once.
        """
        if factor is None:
            return cls(np.eye(nfun), domain)
        factor = np.asarray(factor, dtype=float)
        ncoef = nfun + len(factor) - 1
        i = np.arange(ncoef - 1)
        X = np.zeros((ncoef, ncoef))
        X[i, i + 1] = (i + 1) / (2.0 * i + 1.0)
        X[i + 1, i] = (i + 1) / (2.0 * i + 3.0)
        coef = factor[-1] * np.eye(nfun, ncoef)
        for a in factor[-2::-1]:
            coef = coef @ X
            coef[:, :nfun] += a * np.eye(nfun)
        return cls(coef, domain)

    def _mapped(self, x):
        a, b = self.domain
        return (2.0 * np.asarray(x, dtype=float) - (a + b)) / (b - a)

    def _der_coef(self, d):
        """Coefficients of the d-th derivative, padded to (nfun, ncoef)."""
        if not hasattr(self, "_dcache"):
            self._dcache = {}
        if d not in self._dcache:
            self._dcache[d] = _padded_legder(self.coef, d)
        return self._dcache[d]

    def eval_table(self, x, nderiv=0):
        s = self._mapped(x)
        a, b = self.domain
        scale = 2.0 / (b - a)
        flat = np.asarray(s, dtype=float).ravel()
        V = npleg.legvander(flat, self.coef.shape[1] - 1)
        out = np.empty((self.nfun, nderiv + 1, flat.size))
        for d in range(nderiv + 1):
            out[:, d, :] = (V @ self._der_coef(d).T).T * scale**d
        return out


def beam_roots(n):
    """First n positive roots of cosh(X) cos(X) = 1 (clamped-clamped beam).

    They are the zeros of f(x) = cos x - 1 / cosh x, the k-th within
    1 / cosh((k + 1/2) pi) < 0.018 of the asymptote (k + 1/2) pi, where
    |f'| = |tanh x / cosh x - sin x| is about 1.  Newton steps from the
    asymptotes, all roots at once, converge quadratically: three reach
    round-off (relative errors 8e-7, 5e-14, 2e-16 for the first root),
    and the fourth is a margin.
    """
    x = (np.arange(1, n + 1) + 0.5) * np.pi
    for _ in range(4):
        x = x - (np.cos(x) - 1.0 / np.cosh(x)) / (np.tanh(x) / np.cosh(x) - np.sin(x))
    return x


class BeamFamily:
    """Clamped-clamped beam eigenfunctions on [0, ell], L2-normalized.

    phi_k and phi_k' vanish at both ends; derivatives up to order 3 are
    analytic.  eval_table(x, nderiv) -> (nfun, nderiv+1, nx).
    """

    def __init__(self, nfun, ell):
        self.nfun = int(nfun)
        self.ell = float(ell)
        X = beam_roots(self.nfun)
        self.lam = X / self.ell
        num = -np.exp(-X) - np.sin(X) + np.cos(X)
        den = np.sinh(X) - np.sin(X)
        self.one_minus_sigma = num / den
        self.sigma = 1.0 - self.one_minus_sigma
        # L2 norms in closed form: in this form every clamped-clamped mode
        # has int_0^ell phi_k^2 = ell
        self.norm = np.full(self.nfun, np.sqrt(self.ell))

    def eval_table(self, x, nderiv=0):
        x = np.asarray(x, dtype=float).ravel()
        out = np.empty((self.nfun, nderiv + 1, x.size))
        for k in range(self.nfun):
            lam = self.lam[k]
            u = self.one_minus_sigma[k]
            sig = self.sigma[k]
            t = lam * x
            uet = u * np.exp(t)
            vmt = (2.0 - u) * np.exp(-t)
            Ep = 0.5 * (uet + vmt)
            Em = 0.5 * (uet - vmt)
            ct, st = np.cos(t), np.sin(t)
            funcs = (
                Ep - ct + sig * st,
                Em + st + sig * ct,
                Ep + ct - sig * st,
                Em - st - sig * ct,
            )
            for d in range(nderiv + 1):
                out[k, d] = lam**d * funcs[d] / self.norm[k]
        return out


class TrigFamily:
    """2pi-periodic azimuthal family: 1/sqrt(2pi), cos(m t)/sqrt(pi),
    sin(m t)/sqrt(pi), ...  Index 0 is the axisymmetric function."""

    def __init__(self, nfun):
        self.nfun = int(nfun)

    def mode_m(self, k):
        """Azimuthal wavenumber of function k."""
        return (k + 1) // 2

    def eval_table(self, x, nderiv=0):
        x = np.asarray(x, dtype=float).ravel()
        out = np.empty((self.nfun, nderiv + 1, x.size))
        for k in range(self.nfun):
            m = self.mode_m(k)
            if k == 0:
                amp = 1.0 / np.sqrt(2.0 * np.pi)
                for d in range(nderiv + 1):
                    out[k, d] = amp if d == 0 else 0.0
                continue
            amp = 1.0 / np.sqrt(np.pi)
            trig = np.cos if k % 2 == 1 else np.sin
            for d in range(nderiv + 1):
                # d-th derivative shifts the phase by d*pi/2
                out[k, d] = amp * m**d * trig(m * x + d * np.pi / 2.0)
        return out


class PiecewiseLegFamily:
    """C0 piecewise-polynomial family on a partition, zero at its right end.

    Functions are spanned by per-element Legendre modes; constraint rows act
    on the stacked coefficient vector and the family is the nullspace of the
    constraint matrix (continuity at interior breaks, plus a zero at the
    right end).
    """

    def __init__(self, breaks, degree):
        self.breaks = np.asarray(breaks, dtype=float)
        self.degree = int(degree)
        self.nelem = len(self.breaks) - 1
        p = self.degree + 1
        ndof = self.nelem * p
        rows = []
        # continuity at interior breaks
        for e in range(self.nelem - 1):
            row = np.zeros(ndof)
            row[e * p : (e + 1) * p] = self._edge_vals(+1.0)
            row[(e + 1) * p : (e + 2) * p] = -self._edge_vals(-1.0)
            rows.append(row)
        # a zero at the right end
        row = np.zeros(ndof)
        row[-p:] = self._edge_vals(+1.0)
        rows.append(row)
        _, s, vt = np.linalg.svd(np.vstack(rows))
        rank = int(np.sum(s > 1e-12 * s[0]))
        self.dof_basis = vt[rank:].T  # (ndof, nfun)
        self.nfun = self.dof_basis.shape[1]

    def _edge_vals(self, s):
        """The element's Legendre modes at the end s = -1 or +1: P_i(s) = s^i."""
        return s ** np.arange(self.degree + 1)

    def _der_mat(self, d):
        """(p, p) matrix whose row i holds legder(e_i, d), zero padded."""
        if not hasattr(self, "_dcache"):
            self._dcache = {}
        if d not in self._dcache:
            self._dcache[d] = _padded_legder(np.eye(self.degree + 1), d)
        return self._dcache[d]

    def element_index(self, x):
        """The element of each point of x (flat), the last one for points at
        or beyond the right end and the first for points before the left."""
        return np.clip(np.searchsorted(self.breaks, x, side="right") - 1, 0, self.nelem - 1)

    def local_table(self, x, nderiv=0):
        """Each point's element, (nx,), and the values and derivatives of
        that element's Legendre modes at the point, (nx, nderiv + 1,
        degree + 1): column j is element mode e * (degree + 1) + j.  The
        values are legvander's, by its recurrence
        P_i = ((2i - 1) s P_(i-1) - (i - 1) P_(i-2)) / i taken in place, and
        each derivative is one product with _der_mat."""
        x = np.asarray(x, dtype=float).ravel()
        idx = self.element_index(x)
        width = (self.breaks[1:] - self.breaks[:-1])[idx]
        s = (2.0 * x - (self.breaks[:-1] + self.breaks[1:])[idx]) / width
        table = np.empty((nderiv + 1, self.degree + 1, x.size))
        P, tmp = table[0], np.empty(x.size)
        P[0] = 1.0
        P[1] = s
        for i in range(2, self.degree + 1):
            np.multiply(P[i - 1], s, out=P[i])
            P[i] *= 2 * i - 1
            np.multiply(P[i - 2], i - 1, out=tmp)
            P[i] -= tmp
            P[i] /= i
        scale = 2.0 / width
        for d in range(1, nderiv + 1):
            np.multiply(self._der_mat(d) @ P, scale**d, out=table[d])
        return idx, table.transpose(2, 0, 1)

    def element_table(self, x, nderiv=0):
        """Values and derivatives of the per-element Legendre modes,
        (nelem * (degree + 1), nderiv + 1, nx); the family's table is
        dof_basis^T times this one."""
        idx, local = self.local_table(x, nderiv)
        p = self.degree + 1
        nx = idx.size
        dof_vals = np.zeros((self.nelem * p, nderiv + 1, nx))
        rows = idx[:, None] * p + np.arange(p)
        dof_vals[rows, :, np.arange(nx)[:, None]] = local.transpose(0, 2, 1)
        return dof_vals

    def eval_table(self, x, nderiv=0):
        return np.einsum("df,dkx->fkx", self.dof_basis, self.element_table(x, nderiv))
