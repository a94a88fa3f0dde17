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

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.optimize import brentq


def gauss(n, a, b):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
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
        s in [-1, 1] (numpy polynomial coefficients, low order first).
        """
        ncoef = nfun
        fac_leg = None
        if factor is not None:
            fac_leg = npleg.poly2leg(np.asarray(factor, dtype=float))
            ncoef = nfun + len(fac_leg) - 1
        coef = np.zeros((nfun, ncoef))
        for i in range(nfun):
            e = np.zeros(i + 1)
            e[i] = 1.0
            c = e if fac_leg is None else npleg.legmul(fac_leg, e)
            coef[i, : len(c)] = c
        return cls(coef, domain)

    def _mapped(self, x):
        a, b = self.domain
        return (2.0 * np.asarray(x, dtype=float) - (a + b)) / (b - a)

    def _der_coef(self, d):
        """Coefficients of the d-th derivative, padded to (nfun, ncoef)."""
        if not hasattr(self, "_dcache"):
            self._dcache = {}
        if d not in self._dcache:
            ncoef = self.coef.shape[1]
            C = np.zeros((self.nfun, ncoef))
            for i in range(self.nfun):
                cd = npleg.legder(self.coef[i], d) if d else self.coef[i]
                C[i, : len(cd)] = cd
            self._dcache[d] = C
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
    """First n positive roots of cosh(X) cos(X) = 1 (clamped-clamped beam)."""
    roots = []
    for k in range(1, n + 1):
        f = lambda x: np.cos(x) - 1.0 / np.cosh(x)
        a, b = k * np.pi + 1e-9, (k + 1) * np.pi - 1e-9
        roots.append(brentq(f, a, b, xtol=1e-15, rtol=8.9e-16))
    return np.array(roots)


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
        # L2 normalization by dense quadrature (one-time, exact to roundoff)
        m = max(80, 6 * self.nfun + 40)
        xq, wq = gauss(m, 0.0, self.ell)
        self.norm = np.ones(self.nfun)
        tab = self.eval_table(xq, 0)
        self.norm = np.sqrt(tab[:, 0, :] ** 2 @ wq)

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
    """C0 piecewise-polynomial family on a partition, with linear constraints.

    Functions are spanned by per-element Legendre modes; `constraints` rows act
    on the stacked coefficient vector and the family is the nullspace of the
    constraint matrix (continuity at interior breaks plus any boundary zeros).
    """

    def __init__(self, breaks, degree, left_zero=False, right_zero=False):
        self.breaks = np.asarray(breaks, dtype=float)
        self.degree = int(degree)
        self.nelem = len(self.breaks) - 1
        p = self.degree + 1
        ndof = self.nelem * p
        rows = []
        # continuity at interior breaks
        for e in range(self.nelem - 1):
            row = np.zeros(ndof)
            row[e * p : (e + 1) * p] = self._edge_vals(e, +1.0)
            row[(e + 1) * p : (e + 2) * p] = -self._edge_vals(e + 1, -1.0)
            rows.append(row)
        if left_zero:
            row = np.zeros(ndof)
            row[:p] = self._edge_vals(0, -1.0)
            rows.append(row)
        if right_zero:
            row = np.zeros(ndof)
            row[-p:] = self._edge_vals(self.nelem - 1, +1.0)
            rows.append(row)
        if rows:
            C = np.vstack(rows)
            _, s, vt = np.linalg.svd(C)
            rank = int(np.sum(s > 1e-12 * s[0]))
            basis = vt[rank:].T
        else:
            basis = np.eye(ndof)
        self.dof_basis = basis  # (ndof, nfun)
        self.nfun = basis.shape[1]

    def _edge_vals(self, elem, s):
        p = self.degree + 1
        return np.array([npleg.legval(s, np.eye(p)[i]) for i in range(p)])

    def _der_mat(self, d):
        """(p, p) matrix whose row i holds legder(e_i, d), zero padded."""
        if not hasattr(self, "_dcache"):
            self._dcache = {}
        if d not in self._dcache:
            p = self.degree + 1
            D = np.zeros((p, p))
            for i in range(p):
                cd = npleg.legder(np.eye(p)[i], d) if d else np.eye(p)[i]
                D[i, : len(cd)] = cd
            self._dcache[d] = D
        return self._dcache[d]

    def local_table(self, x, nderiv=0):
        """Each point's element, (nx,), and the values and derivatives of
        that element's Legendre modes at the point, (nx, nderiv + 1,
        degree + 1): column j is element mode e * (degree + 1) + j."""
        x = np.asarray(x, dtype=float).ravel()
        idx = np.clip(np.searchsorted(self.breaks, x, side="right") - 1, 0, self.nelem - 1)
        a, b = self.breaks[idx], self.breaks[idx + 1]
        scale = 2.0 / (b - a)
        V = npleg.legvander((2.0 * x - (a + b)) / (b - a), self.degree)
        return idx, np.stack(
            [(V @ self._der_mat(d).T) * (scale**d)[:, None] for d in range(nderiv + 1)],
            axis=1)

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
