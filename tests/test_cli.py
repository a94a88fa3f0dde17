"""Config parsing, CSV outputs, exit codes, and the CLI entry point."""

import csv
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perifsi import cli
from perifsi.cli import RunConfig, emit_config, parse_config
from perifsi.errors import (
    EXIT_CODES,
    DomainViolation,
    NoConvergence,
    ParseError,
    SingularMonodromy,
    ValidationError,
    exit_code_for,
)

TINY = """
[run]
seed = 7
t_final = 0.125
ivp_amplitude = 0.002

[discretization]
n_z = 2
n_interior = 2
n_t = 16
matrix_samples = 8

[forcing]
p_in_amplitude = 0.0
"""


class TestParse:
    def test_round_trip_default(self):
        cfg = RunConfig().validate()
        assert parse_config(emit_config(cfg)) == cfg

    @given(
        n_z=st.integers(min_value=1, max_value=12),
        amp=st.floats(min_value=0.0, max_value=1.0),
        theta=st.floats(min_value=0.01, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random(self, n_z, amp, theta, seed):
        cfg = replace(
            RunConfig(), n_z=n_z, p_in_amplitude=amp, theta_r=theta, seed=seed
        ).validate()
        assert parse_config(emit_config(cfg)) == cfg

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# header\n\n[run]\nseed = 3  # trailing\n")
        assert cfg.seed == 3

    def test_unknown_key_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("[run]\nseed = 1\nbogus = 2\n")
        assert err.value.line == 3

    def test_unknown_section(self):
        with pytest.raises(ParseError):
            parse_config("[nonsense]\n")

    def test_key_in_wrong_section(self):
        with pytest.raises(ParseError):
            parse_config("[geometry]\nseed = 1\n")

    def test_bad_value(self):
        with pytest.raises(ParseError):
            parse_config("[run]\nseed = banana\n")

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_config("[run]\nseed = 1\nseed = 2\n")

    def test_series_parsing(self):
        cfg = parse_config(
            "[forcing]\np_in_series = 0.0, 1.0, 0.0\np_out_series = 0.0,0.0,0.0\n"
        )
        assert cfg.p_in_series == (0.0, 1.0, 0.0)


class TestValidation:
    def test_sample_divisibility(self):
        with pytest.raises(ValidationError):
            RunConfig(n_t=100, matrix_samples=16).validate()

    def test_positive_geometry(self):
        with pytest.raises(ValidationError):
            RunConfig(R=-1.0).validate()

    def test_theta_range(self):
        with pytest.raises(ValidationError):
            RunConfig(theta_r=0.0).validate()

    def test_eps_default_is_four_steps(self):
        cfg = RunConfig(n_t=64).validate()
        assert cfg.eps_value == pytest.approx(4.0 / 64)
        assert RunConfig(eps=0.5).validate().eps_value == 0.5


class TestExitCodes:
    def test_mapping(self):
        assert EXIT_CODES[DomainViolation] == 2
        assert EXIT_CODES[NoConvergence] == 3
        assert EXIT_CODES[SingularMonodromy] == 4
        assert exit_code_for(SingularMonodromy("x")) == 4
        assert exit_code_for(RuntimeError("x")) == 1

    def test_main_bad_config_returns_one(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run]\nnope = 1\n")
        assert cli.main(["run-ivp", "--config", str(bad)]) == 1

    def test_main_missing_config_returns_one(self):
        assert cli.main(["run-ivp", "--config", "/no/such/file.cfg"]) == 1


class TestRunIvp:
    def test_outputs_and_determinism(self, tmp_path):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert cli.main(["run-ivp", "--config", str(cfg_path),
                         "--out-dir", str(out1)]) == 0
        assert cli.main(["run-ivp", "--config", str(cfg_path),
                         "--out-dir", str(out2)]) == 0
        for name in ("energies.csv", "coefficients.csv", "summary.csv"):
            assert (out1 / name).is_file()
            assert (out1 / name).read_text() == (out2 / name).read_text()
        with open(out1 / "energies.csv") as fh:
            header = next(csv.reader(fh))
        assert header == ["t", "E_kin", "E_el", "E", "D", "work_rate",
                          "balance_residual"]
        with open(out1 / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sup_E", "integral_D", "forcing_L2",
                           "diffusion_ratio", "periodic_residual",
                           "outer_iters"]
        assert float(rows[1][0]) > 0.0

    def test_seed_flag_changes_trajectory(self, tmp_path):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY)
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        assert cli.main(["run-ivp", "--config", str(cfg_path),
                         "--out-dir", str(out1), "--seed", "1"]) == 0
        assert cli.main(["run-ivp", "--config", str(cfg_path),
                         "--out-dir", str(out2), "--seed", "2"]) == 0
        a = (out1 / "coefficients.csv").read_text()
        b = (out2 / "coefficients.csv").read_text()
        assert a != b


class TestVerify:
    def test_tiny_verify_passes(self, tmp_path):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY.replace("p_in_amplitude = 0.0",
                                         "p_in_amplitude = 0.05"))
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", str(cfg_path),
                         "--out-dir", str(out)]) == 0
        with open(out / "verify_report.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["check", "measured", "tolerance", "pass"]
        assert all(r[3] == "true" for r in rows[1:])
        assert len(rows) >= 5
        checks = {r[0] for r in rows[1:]}
        assert {"korn_identity", "kinematic_coupling"} <= checks

