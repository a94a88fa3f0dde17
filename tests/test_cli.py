"""Config parsing, CSV outputs, exit codes, and the CLI entry point.

`emit_config` is a test-local canonical emitter, the inverse of
`parse_config` that the round-trip tests check."""

import csv
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perifsi import cli
from perifsi.config import _SECTIONS, RunConfig, parse_config
from perifsi.errors import (
    EXIT_CODES,
    DomainViolation,
    LinearSolveFailure,
    NoConvergence,
    ParseError,
    SingularMonodromy,
    ValidationError,
    exit_code_for,
)
from perifsi.solver_periodic import EnergyLedger

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


def emit_config(cfg):
    """Canonical text form; parse_config(emit_config(cfg)) == cfg."""
    lines = []
    for section, keys in _SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            v = getattr(cfg, key)
            if isinstance(v, tuple):
                v = ",".join(repr(x) for x in v)
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{key} = {v}")
        lines.append("")
    return "\n".join(lines)


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig) if f.type is float])
    def test_non_finite_float_is_rejected(self, name, bad):
        with pytest.raises(ValidationError, match=rf"^{name} must be finite$"):
            replace(RunConfig(), **{name: bad}).validate()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig) if f.type is tuple])
    def test_non_finite_series_entry_is_rejected(self, name, bad):
        series = {f.name: (0.0, 1.0, 0.0) for f in fields(RunConfig) if f.type is tuple}
        series[name] = (0.0, bad, 0.0)
        with pytest.raises(ValidationError, match=rf"^{name} must be finite$"):
            replace(RunConfig(), **series).validate()

    def test_non_finite_value_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "nan.cfg"
        cfg_path.write_text("[forcing]\nT = nan\n")
        assert cli.main(["run-ivp", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path / "out")]) == 1
        assert "ValidationError: T must be finite" in capsys.readouterr().err

    def test_negative_seed_is_rejected(self, tmp_path, capsys):
        """A negative seed is named by validate, from a config file or from
        --seed, before numpy's generator sees it."""
        with pytest.raises(ValidationError, match=r"^seed must be nonnegative$"):
            RunConfig(seed=-3).validate()
        assert RunConfig(seed=0).validate().seed == 0
        cfg_path = tmp_path / "seed.cfg"
        cfg_path.write_text("[run]\nseed = -3\n")
        for args in (["--config", str(cfg_path)], ["--seed", "-1"]):
            assert cli.main(["run-ivp", *args, "--out-dir", str(tmp_path / "out")]) == 1
            assert "ValidationError: seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["p_in_frequency", "p_out_frequency"])
    @pytest.mark.parametrize("bad", [128, -128, 200])
    def test_aliasing_frequency_is_rejected(self, name, bad):
        """The forcing samples each sine 256 times a period, so a frequency
        of magnitude 128 or more would alias to another one."""
        with pytest.raises(ValidationError, match=rf"^\|{name}\| must be below 128$"):
            replace(RunConfig(), **{name: bad}).validate()

    @pytest.mark.parametrize("name", ["p_in_frequency", "p_out_frequency"])
    def test_aliasing_frequency_exits_one(self, name, tmp_path, capsys):
        cfg_path = tmp_path / "freq.cfg"
        cfg_path.write_text(f"[forcing]\n{name} = 128\n")
        assert cli.main(["run-periodic", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"ValidationError: |{name}| must be below 128\n")

    @pytest.mark.parametrize("name", ["p_in_frequency", "p_out_frequency"])
    @pytest.mark.parametrize("k", [127, -127])
    def test_highest_frequency_is_the_sine(self, name, k):
        """At the largest accepted frequency the forcing is the configured
        sine at the step midpoints of grids of fewer, as many and more
        steps than its 256 samples, odd and even, to round-off."""
        cfg = replace(RunConfig(), p_in_amplitude=1.0, p_out_amplitude=1.0,
                      p_in_phase=0.3, p_out_phase=0.3, **{name: k}).validate()
        forcing = cli.build_forcing(cfg)
        for n_t in (255, 256, 1000, 1001):
            t = (np.arange(n_t) + 0.5) * (cfg.T / n_t)
            got = forcing.midpoint_values(n_t)[name.startswith("p_out")]
            want = np.sin(2.0 * np.pi * k * t / cfg.T + 0.3)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_eps_default_is_four_steps(self):
        cfg = RunConfig(n_t=64).validate()
        assert cfg.eps_value == pytest.approx(4.0 / 64)
        assert RunConfig(eps=0.5).validate().eps_value == 0.5


class TestExitCodes:
    def test_mapping(self):
        assert EXIT_CODES[DomainViolation] == 2
        assert EXIT_CODES[NoConvergence] == 3
        assert EXIT_CODES[SingularMonodromy] == 4
        assert EXIT_CODES[LinearSolveFailure] == 5
        assert exit_code_for(SingularMonodromy("x")) == 4
        assert exit_code_for(LinearSolveFailure("x")) == 5
        assert exit_code_for(RuntimeError("x")) == 1

    def test_main_bad_config_returns_one(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run]\nnope = 1\n")
        assert cli.main(["run-ivp", "--config", str(bad)]) == 1

    def test_main_missing_config_returns_one(self):
        assert cli.main(["run-ivp", "--config", "/no/such/file.cfg"]) == 1

    def test_module_entry_runs_without_warnings(self):
        """`python -m perifsi.cli` imports the package first; the package
        must not import cli itself, or runpy warns that it executes the
        module a second time."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        run = subprocess.run(
            [sys.executable, "-W", "error", "-m", "perifsi.cli", "--help"],
            capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert "RuntimeWarning" not in run.stderr
        assert "run-periodic" in run.stdout


class TestForcingSeries:
    """A bad p_in_series / p_out_series fails in build_forcing, before any
    model is built, with its own GridMismatch message and exit code 1.  A
    2-entry series used to be reported as samples that do not share one
    time grid, and only after the model was built."""

    @pytest.mark.parametrize("series, message", [
        ("0.0, 1.0", "forcing needs at least 3 samples over the period, got 2"),
        ("0.0, 1.0, 0.5", "forcing signals must close the period"),
    ], ids=["two_samples", "open_period"])
    @pytest.mark.parametrize("command", ["run-periodic", "run-ivp", "verify"])
    def test_bad_series_fails_before_the_model(self, tmp_path, capsys, monkeypatch,
                                               command, series, message):
        def no_model(cfg):
            raise AssertionError("model built before the forcing")

        monkeypatch.setattr(cli, "build_model", no_model)
        cfg_path = tmp_path / "series.cfg"
        cfg_path.write_text(
            f"[forcing]\np_in_series = {series}\np_out_series = {series}\n")
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg_path),
                         "--out-dir", str(out)]) == 1
        assert f"GridMismatch: {message}" in capsys.readouterr().err
        assert not any(out.iterdir())


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

    def test_unforced_summary(self, tmp_path):
        """TINY has zero pressure data: its summary writes forcing_L2 0 and
        the undefined diffusion ratio as nan, next to the dissipation."""
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY)
        assert cli.main(["run-ivp", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / "summary.csv") as fh:
            row = dict(zip(*csv.reader(fh)))
        assert row["forcing_L2"] == "0"
        assert row["diffusion_ratio"] == "nan"
        assert row["periodic_residual"] == "nan"
        assert row["outer_iters"] == "0"
        assert float(row["integral_D"]) > 0.0

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

    @staticmethod
    def _rows(path):
        with open(path) as fh:
            return list(csv.reader(fh))

    def test_leaving_the_domain_exits_two(self, tmp_path, capsys):
        """Seed 2 at amplitude 3.45 starts inside the admissible domain and
        leaves it during the second step (shell sup 0.80, 0.92, 0.98 against
        the bound 0.95 at t = 0, 1/16, 1/8): exit code 2, one energy row per
        step taken and one coefficient row per state reached."""
        cfg_path = tmp_path / "out.cfg"
        cfg_path.write_text(TINY.replace("seed = 7", "seed = 2").replace(
            "ivp_amplitude = 0.002", "ivp_amplitude = 3.45").replace(
            "t_final = 0.125", "t_final = 0.25"))
        out = tmp_path / "out"
        assert cli.main(["run-ivp", "--config", str(cfg_path),
                         "--out-dir", str(out)]) == 2
        assert "t = 0.125" in capsys.readouterr().err
        energies = self._rows(out / "energies.csv")
        coefficients = self._rows(out / "coefficients.csv")
        assert len(energies) - 1 == 2
        assert len(coefficients) - 1 == 3
        assert [float(r[0]) for r in energies[1:]] == [0.0, 0.0625]
        assert [float(r[0]) for r in coefficients[1:]] == [0.0, 0.0625, 0.125]
        summary = dict(zip(*self._rows(out / "summary.csv")))
        assert float(summary["sup_E"]) == max(float(r[3]) for r in energies[1:]) > 0.0

    def test_leaving_the_domain_at_the_start(self, tmp_path):
        """At amplitude 6 the initial shell is outside the domain (sup 1.40):
        no step is taken, energies.csv holds only its header and sup_E and
        integral_D are 0."""
        cfg_path = tmp_path / "out.cfg"
        cfg_path.write_text(TINY.replace("seed = 7", "seed = 2").replace(
            "ivp_amplitude = 0.002", "ivp_amplitude = 6.0"))
        out = tmp_path / "out"
        assert cli.main(["run-ivp", "--config", str(cfg_path),
                         "--out-dir", str(out)]) == 2
        assert self._rows(out / "energies.csv") == [list(EnergyLedger.COLUMNS)]
        coefficients = self._rows(out / "coefficients.csv")
        assert len(coefficients) == 2 and float(coefficients[1][0]) == 0.0
        summary = dict(zip(*self._rows(out / "summary.csv")))
        assert float(summary["sup_E"]) == 0.0
        assert float(summary["integral_D"]) == 0.0

    def test_off_grid_final_time_fails(self, tmp_path, capsys):
        """With n_t = 64, t_final = 0.01 used to integrate to 0.015625 and
        t_final = 0.005 to take no step at all and exit 0; a t_final that is
        not a whole number of steps is a grid mismatch: run-ivp exits 1 with
        one line on stderr and writes nothing.  run-periodic does not read
        t_final, so it runs the same config."""
        cfg_path = tmp_path / "tiny.cfg"
        for t_final in ("0.01", "0.005"):
            cfg_path.write_text(TINY.replace("n_t = 16", "n_t = 64").replace(
                "t_final = 0.125", f"t_final = {t_final}"))
            out = tmp_path / t_final
            assert cli.main(["run-ivp", "--config", str(cfg_path),
                             "--out-dir", str(out)]) == 1
            err = capsys.readouterr().err
            assert err == (f"GridMismatch: t_final {t_final} is not a whole "
                           f"number of steps of T / n_t\n")
            assert not any(out.iterdir())
            assert cli.main(["run-periodic", "--config", str(cfg_path),
                             "--out-dir", str(out)]) == 0
            assert (out / "summary.csv").is_file()


class TestCsvRows:
    """The float writers give the bytes of the csv module's writer over the
    %.17g strings of the same values."""

    VALUES = [-1.5, 1.0 / 3.0, 5e-324, -2.2e-310, 1e300, -0.0, 0.0,
              float("nan"), float("inf"), -float("inf"), 123456789.0]

    @staticmethod
    def _csv_module(path, header, rows):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([f"{x:.17g}" for x in row] for row in rows)
        return path.read_bytes()

    def test_energies(self, tmp_path):
        """The six stored columns cycle through VALUES; the residual column,
        derived from them and E_end, holds nan and inf rows too."""
        v = self.VALUES
        rows = [[v[(i + j) % len(v)] for j in range(6)] for i in range(len(v))]
        ledger = EnergyLedger(*np.array(rows).T, v[0], 0.25)
        resid = ledger.balance_residual
        assert np.isnan(resid).any() and np.isinf(resid).any()
        cli.write_energies(tmp_path / "e.csv", ledger)
        header = ["t", "E_kin", "E_el", "E", "D", "work_rate", "balance_residual"]
        rows = [row + [r] for row, r in zip(rows, resid.tolist())]
        want = self._csv_module(tmp_path / "want.csv", header, rows)
        assert (tmp_path / "e.csv").read_bytes() == want

    def test_coefficients(self, tmp_path):
        from perifsi.assembly import GalerkinState

        finite = [x for x in self.VALUES if np.isfinite(x)]
        times = [0.0, 1.0 / 3.0, float("nan"), -0.0, 1e-300]
        a = [np.roll(finite, k)[:3] for k in range(len(times))]
        a_dot = [np.roll(finite, -k)[:3] for k in range(len(times))]
        cli.write_coefficients(tmp_path / "c.csv", GalerkinState(a, a_dot, times))
        header = ["t", "a_1", "a_2", "a_3", "adot_1", "adot_2", "adot_3"]
        rows = [[t, *x, *v] for t, x, v in zip(times, a, a_dot)]
        want = self._csv_module(tmp_path / "want.csv", header, rows)
        assert (tmp_path / "c.csv").read_bytes() == want

    @pytest.mark.parametrize("outer_iters", [0, 4, 123456789])
    def test_summary(self, tmp_path, outer_iters):
        """The float values and the integer outer_iters, which %.17g writes
        as str does."""
        keys = ["sup_E", "integral_D", "forcing_L2", "diffusion_ratio", "periodic_residual"]
        v = self.VALUES
        for i in range(len(v)):
            row = [v[(i + j) % len(v)] for j in range(5)]
            cli.write_summary(tmp_path / "s.csv", **dict(zip(keys, row)),
                              outer_iters=outer_iters)
            want = self._csv_module(tmp_path / "want.csv", keys + ["outer_iters"],
                                    [row + [outer_iters]])
            assert str(outer_iters).encode() + b"\r\n" in want
            assert (tmp_path / "s.csv").read_bytes() == want


def _verify_report(tmp_path, config):
    """The rows {check: row} of the report of `perifsi verify` on the config
    text, which must exit 0."""
    cfg_path = tmp_path / "verify.cfg"
    cfg_path.write_text(config)
    out = tmp_path / "v"
    assert cli.main(["verify", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    with open(out / "verify_report.csv") as fh:
        return {r[0]: r for r in list(csv.reader(fh))[1:]}


@pytest.fixture(scope="module")
def default_report(tmp_path_factory):
    return _verify_report(tmp_path_factory.mktemp("default"), "")


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
        assert {"korn_identity", "kinematic_coupling", "coupled_extension_div"} <= checks

    def test_default_verify_bounds_the_moving_balance_order(self, default_report):
        """On the default config the report has a passing
        moving_energy_balance_order row: halving the step on a prescribed
        moving path divides the summed ledger defect by 4 within 20%
        (measured ratio 4 (1 - 0.0064))."""
        _, measured, tolerance, ok = default_report["moving_energy_balance_order"]
        assert ok == "true" and float(tolerance) == 0.2
        assert 0.0 <= float(measured) <= 0.2

    def test_default_verify_bounds_the_ivp_balance_order(self, default_report):
        """On the default config the report has a passing
        ivp_energy_balance_order row: doubling the steps of an IVP from rest
        over one period, 32 to 64, halves its summed ledger defect within
        20% (measured ratio 2 (1 - 0.068))."""
        _, measured, tolerance, ok = default_report["ivp_energy_balance_order"]
        assert ok == "true" and float(tolerance) == 0.2
        assert 0.0 <= float(measured) <= 0.2

    @pytest.mark.parametrize("config", ["n_z = 16", "n_theta = 2\nn_z = 2\nn_interior = 4"],
                             ids=["n_z_16", "n_theta_2"])
    def test_verify_passes_on_the_resolved_configs(self, tmp_path, config):
        """Every row passes on the long-beam config (66 axial corrector
        modes) and on an m = 1 config (m = 1 and 2 correctors)."""
        rows = _verify_report(tmp_path, f"[discretization]\n{config}\n")
        assert {"ivp_energy_balance_order", "moving_energy_balance_order",
                "coupled_extension_div"} <= rows.keys()
        assert all(ok == "true" for _, _, _, ok in rows.values())



class TestBuildModel:
    def test_interior_modes_beyond_the_shell_modes_are_not_built(self):
        """The global basis uses min(n_theta n_z, n_interior) Stokes modes,
        so n_interior = 16 on the default model (8 shell modes) builds the 8
        that n_interior = 8 builds and gives the same system."""
        big, small = (cli.build_model(RunConfig(n_interior=k).validate())
                      for k in (16, 8))
        assert big.basis.n == small.basis.n == 16
        assert big.basis.stokes_basis.n_modes == 8
        assert big.constants.keys() == small.constants.keys()
        for key, value in small.constants.items():
            assert np.array_equal(big.constants[key], value)
        rest_big, rest_small = big.sample(), small.sample()
        assert rest_big.keys() == rest_small.keys()
        for key, value in rest_small.items():
            assert np.array_equal(rest_big[key], value)
