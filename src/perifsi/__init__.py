"""Galerkin simulator for a periodically forced fluid-shell-solid system.

A viscous incompressible fluid fills a cylinder whose lateral boundary is an
elastic shell backed by a viscoelastic solid annulus; time-periodic pressure
data drives the flow through the inlet and outlet disks.  The package builds
a divergence-free global basis coupling the three phases, assembles the
resulting second-order Galerkin ODE on the moving domain, and solves either
the time-periodic problem (via the monodromy map and an Anderson-accelerated
outer fixed point for the geometry) or the nonlinear initial value problem, with the
discrete energy balance tracked as a built-in correctness check.
"""

__version__ = "1.0.0"

from .errors import (
    BasisMismatch,
    DomainViolation,
    GridMismatch,
    LinearSolveFailure,
    NoConvergence,
    ParseError,
    SingularMonodromy,
    ValidationError,
    ZeroForcing,
    EXIT_CODES,
    exit_code_for,
)
from .geometry import CylinderConfig, admissibility, check_injectivity
from .shell_solid import ShellBasis, SolidBasis, SolidParams
from .fluid_basis import BoundaryForcing, StokesBasis, build_stokes_basis
from .extension_ops import ExtensionOperator, mollify
from .assembly import (
    Assembler,
    AssembledSystem,
    GalerkinState,
    GlobalBasis,
    assemble,
)
from .solver_periodic import (
    EnergyLedger,
    IvpResult,
    OuterLoopConfig,
    OuterResult,
    PeriodicProblem,
    outer_fixed_point,
    periodic_solve,
    poincare_map,
    solve_ivp,
    step,
)
from .diagnostics import (
    coupling_residuals,
    diffusion_ratio,
    energies,
    korn_check,
)
from .config import RunConfig, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]
