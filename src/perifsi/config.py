"""Run configuration: the RunConfig schema and its flat-text parser.

Config files are flat ``key = value`` assignments grouped under
``[section]`` headers; every key is known in advance and unknown keys are
rejected with their line number.
"""

import math
from dataclasses import dataclass, fields, replace

from .errors import ParseError, ValidationError
from .fluid_basis import FORCING_SAMPLES


@dataclass
class RunConfig:
    """Complete description of one run.

    Fixed conventions: fluid density and viscosity are 1, as is the shell
    surface density; the remaining physics is in the solid parameters.
    """

    # run
    seed: int = 0
    t_final: float = 1.0
    ivp_amplitude: float = 1e-3
    # geometry
    R: float = 1.0
    L: float = 2.0
    H: float = 0.5
    # physics
    lambda1: float = 1.0
    lambda2: float = 1.0
    delta_visc: float = 1.0
    rho_s2: float = 1.0
    # discretization
    n_theta: int = 1
    n_z: int = 8
    n_r_fluid: int = 10
    n_r_solid: int = 4
    n_interior: int = 16  # at most n_theta * n_z are built: the basis uses no more
    n_t: int = 256
    matrix_samples: int = 16
    # forcing
    T: float = 1.0
    p_in_amplitude: float = 0.1
    p_in_frequency: int = 1
    p_in_phase: float = 0.0
    p_out_amplitude: float = 0.0
    p_out_frequency: int = 1
    p_out_phase: float = 0.0
    p_in_series: tuple = ()
    p_out_series: tuple = ()
    # outer loop
    eps: float = 0.0  # 0 means the default 4 * T / n_t
    theta_r: float = 0.5
    max_iter: int = 50
    tol: float = 1e-8

    def validate(self):
        # every number and series entry must be finite, since NaN would pass
        # the sign checks below
        for f in fields(self):
            values = getattr(self, f.name)
            if not all(map(math.isfinite, values if f.type is tuple else [values])):
                raise ValidationError(f"{f.name} must be finite")
        for name in ("R", "L", "H", "T", "lambda1", "rho_s2", "t_final"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        for name in ("seed", "lambda2", "delta_visc", "eps", "ivp_amplitude"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be nonnegative")
        for name in ("n_theta", "n_z", "n_r_fluid", "n_r_solid",
                     "n_interior", "n_t", "matrix_samples", "max_iter"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be at least 1")
        if not 0.0 < self.theta_r <= 1.0:
            raise ValidationError("theta_r must lie in (0, 1]")
        if self.tol <= 0:
            raise ValidationError("tol must be positive")
        if self.n_t % self.matrix_samples:
            raise ValidationError("matrix_samples must divide n_t")
        # a sine of frequency k is sampled FORCING_SAMPLES - 1 times per
        # period, so |k| at or above half that aliases to another frequency
        limit = (FORCING_SAMPLES - 1) // 2
        for name in ("p_in_frequency", "p_out_frequency"):
            if abs(getattr(self, name)) >= limit:
                raise ValidationError(f"|{name}| must be below {limit}")
        if len(self.p_in_series) != len(self.p_out_series):
            raise ValidationError(
                "p_in_series and p_out_series must have equal length"
            )
        return self

    @property
    def eps_value(self):
        return self.eps if self.eps > 0 else 4.0 * self.T / self.n_t


_SECTIONS = {
    "run": ("seed", "t_final", "ivp_amplitude"),
    "geometry": ("R", "L", "H"),
    "physics": ("lambda1", "lambda2", "delta_visc", "rho_s2"),
    "discretization": (
        "n_theta", "n_z", "n_r_fluid", "n_r_solid", "n_interior",
        "n_t", "matrix_samples",
    ),
    "forcing": (
        "T",
        "p_in_amplitude", "p_in_frequency", "p_in_phase",
        "p_out_amplitude", "p_out_frequency", "p_out_phase",
        "p_in_series", "p_out_series",
    ),
    "outer": ("eps", "theta_r", "max_iter", "tol"),
}

_KEY_SECTION = {k: s for s, keys in _SECTIONS.items() for k in keys}


def _convert(name, raw, line_no):
    kind = RunConfig.__dataclass_fields__[name].type
    try:
        if name in ("p_in_series", "p_out_series"):
            raw = raw.strip()
            return tuple(float(x) for x in raw.split(",")) if raw else ()
        if kind in (int, "int"):
            return int(raw)
        if kind in (float, "float"):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ParseError(f"bad value for {name!r}: {raw!r}", line=line_no) from exc


def parse_config(text):
    """Parse flat key = value configuration text into a RunConfig."""
    values = {}
    section = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SECTIONS:
                raise ParseError(f"unknown section {section!r}", line=line_no)
            continue
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got {stripped!r}", line=line_no)
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key not in _KEY_SECTION:
            raise ParseError(f"unknown key {key!r}", line=line_no)
        if section is not None and _KEY_SECTION[key] != section:
            raise ParseError(
                f"key {key!r} belongs to section [{_KEY_SECTION[key]}]",
                line=line_no,
            )
        if key in values:
            raise ParseError(f"duplicate key {key!r}", line=line_no)
        values[key] = _convert(key, raw, line_no)
    return replace(RunConfig(), **values).validate()


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())
