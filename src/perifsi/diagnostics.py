"""Energy bookkeeping, identity checks, and coupling residual probes.

Everything here is an oracle over quantities the solver already produces:
energies and dissipation are the quadratic forms of the assembled matrices,
the Korn identity and the kinematic couplings are checked by independent
quadrature over the physical fields, and the diffusion ratio condenses a
converged periodic run into the single constant of the a-priori bound
int_I D <= C * ||P||^2_{L2}.
"""

import numpy as np

from .errors import DomainViolation, ZeroForcing
from .geometry import admissibility, ale_jets


def energies(system, traj):
    """The kinetic and elastic energies (E_kin, E_el) of a trajectory, one
    (N,) array each; the total energy is E_kin + E_el.

    E_kin = v' M v / 2 collects fluid, shell and solid kinetic energy;
    E_el = a' K a / 2 collects shell bending and solid elastic energy.  Both
    are nonnegative quadratic forms.  Only the mass matrix moves with t; it
    is interpolated at all state times in one product, and the forms of all
    states are taken at once.
    """
    M = system.mass_at(traj.t)
    a, v = traj.a, traj.a_dot
    E_kin = 0.5 * np.einsum("mi,mi->m", (M @ v[:, :, None])[:, :, 0], v)
    E_el = 0.5 * np.einsum("mi,mi->m", a @ system.K, a)
    return E_kin, E_el


def korn_check(tu, tq, weight):
    """Relative residual of the Korn identity on the admissible fluid space:

        int grad u : grad q  =  2 int D(u) : D(q)

    which holds for divergence-free fields with normal trace structure on the
    cylinder.  tu and tq hold the gradients "grad" (3, 3, Q) of u and q at
    quadrature nodes of weights (Q,).  Returns (residual, lhs, rhs) with
    residual normalized by 1 + |lhs|; generic non-solenoidal fields serve as
    the negative control.
    """
    gu, gq = tu["grad"], tq["grad"]
    lhs = float(np.einsum("ijq,ijq,q->", gu, gq, weight))
    su = 0.5 * (gu + gu.transpose(1, 0, 2))
    sq = 0.5 * (gq + gq.transpose(1, 0, 2))
    rhs = 2.0 * float(np.einsum("ijq,ijq,q->", su, sq, weight))
    return abs(lhs - rhs) / (1.0 + abs(lhs)), lhs, rhs


def coupling_residuals(state, basis):
    """Sup-norm defects of the kinematic couplings of a Galerkin state.

    Checks, on a tensor sample of the interface (24 uniform theta points
    over the period by 33 uniform z points from 0 to L):
      * fluid trace on the moving interface equals the shell velocity times
        the radial direction,
      * solid trace at r = R equals the shell displacement times e_r,
      * the fluid trace has no tangential part.
    All three hold structurally for the interleaved basis; the residuals
    measure evaluation error only.  Raises DomainViolation when the state's
    shell is outside the admissible domain (geometry.admissibility).
    """
    cyl, shell_basis = basis.cyl, basis.shell_basis
    shell = basis.shell_coefficients(state.a)
    if admissibility(cyl, shell_basis, shell)[1] is not None:
        raise DomainViolation("shell displacement breaks domain injectivity")
    shell_dot = basis.shell_coefficients(state.a_dot)
    th = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    zz = np.linspace(0.0, cyl.L, 33)
    TT, ZZ = np.meshgrid(th, zz, indexing="ij")
    tflat, zflat = TT.ravel(), ZZ.ravel()
    eval_eta = shell_basis.evaluate(shell, tflat, zflat, 0)[0]
    eval_etad = shell_basis.evaluate(shell_dot, tflat, zflat, 0)[0]
    r_int = cyl.R + eval_eta
    # the extension is linear in xi: the coupled trace is the extension of
    # the shell velocity itself
    uval = basis.ext_op.extend(shell, shell_dot).tables(r_int, tflat, zflat)["val"][0]
    # the interior entries: their reference trace sum_j a'_{2j+1} Z_j at
    # r = R, pushed to r = R + eta by the Piola factor A = grad / det
    rR = np.full(tflat.size, cyl.R)
    zval = basis.stokes_basis.tables(rR, tflat, zflat)["val"][: basis.half]
    phi = np.einsum("k,kiq->iq", state.a_dot[basis.interior], zval)
    A = ale_jets(cyl, shell_basis, shell, rR, tflat, zflat)["A"]
    uval += np.einsum("ijq,jq->iq", A, phi)

    # the tables carry cylindrical frame components: the fluid trace's
    # target is (eta_t, 0, 0), its tangential part is components 1 and 2,
    # and the solid trace's target is (eta, 0, 0)
    tangential_resid = float(np.max(np.abs(uval[1:])))
    uval[0] -= eval_etad
    trace_resid = float(np.max(np.abs(uval)))

    dval = np.einsum("k,kiq->iq", state.a, basis.solid_tables(rR, tflat, zflat)["val"])
    dval[0] -= eval_eta
    solid_resid = float(np.max(np.abs(dval)))
    return {
        "fluid_trace": trace_resid,
        "tangential_trace": tangential_resid,
        "solid_trace": solid_resid,
    }


def diffusion_ratio(integral_D, forcing):
    """The measured constant of int_I D <= C ||P||^2_{L2}.

    Raises ZeroForcing when the pressure signal is identically zero, since
    the ratio is undefined there.
    """
    if forcing is None or forcing.is_zero():
        raise ZeroForcing("diffusion ratio undefined for zero pressure data")
    denom = forcing.l2_norm() ** 2
    if denom == 0.0:
        raise ZeroForcing("diffusion ratio undefined for zero pressure data")
    return float(integral_D) / denom
