"""Shared fixtures: small model instances reused across the unit tests."""

import numpy as np
import pytest

from perifsi.cli import RunConfig, build_forcing, build_model
from perifsi.fluid_basis import BoundaryForcing


@pytest.fixture(scope="session")
def small_cfg():
    """Eight-dimensional global basis; cheap enough for per-test assembly."""
    return RunConfig(n_z=4, n_interior=4, n_t=64, matrix_samples=8).validate()


@pytest.fixture(scope="session")
def small_model(small_cfg):
    return build_model(small_cfg)


@pytest.fixture(scope="session")
def small_forcing(small_cfg):
    return build_forcing(small_cfg)


@pytest.fixture(scope="session")
def unforced(small_cfg):
    """Zero pressure data over the small config's period."""
    return BoundaryForcing.from_callables(lambda t: 0.0, lambda t: 0.0, small_cfg.T)


@pytest.fixture(scope="session")
def cyl(small_model):
    return small_model.cyl


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
