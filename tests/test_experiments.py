import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from qsl_lab.cli import main
from qsl_lab.errors import ConfigError
from qsl_lab.experiments import (
    DEFAULTS,
    classify_bounds,
    execute,
    load_config,
    parse_config_text,
    run_appendix_c,
    run_fig4,
    run_fig5,
    run_swap_demo,
)


class TestConfigParsing:
    def test_defaults_resolve_for_every_experiment(self):
        for name in DEFAULTS:
            config = parse_config_text("", name)
            assert config.experiment == name
            assert config.seed == 12345

    def test_override_and_comments(self):
        text = "# a comment\n\nseed = 7\nsteps = 123\n"
        config = parse_config_text(text, "fig5")
        assert config.seed == 7
        assert config["steps"] == 123
        assert config["V"] == 1.0

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ConfigError, match=":3: unknown key 'bogus'"):
            parse_config_text("seed = 1\n# ok\nbogus = 2\n", "fig4")

    def test_bad_value_reports_line_number(self):
        with pytest.raises(ConfigError, match=":1"):
            parse_config_text("steps = plenty\n", "fig4")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n", "fig4")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("seed 1\n", "fig4")

    def test_experiment_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="expected 'fig4'"):
            parse_config_text("experiment = fig5\n", "fig4")

    def test_inapplicable_key_rejected(self):
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config_text("shots = 10\n", "fig4")

    def test_precondition_validation(self):
        with pytest.raises(ConfigError, match="purity"):
            parse_config_text("purity = 0.4\n", "fig5")
        with pytest.raises(ConfigError, match="theta_target"):
            parse_config_text("theta_target = 4.0\n", "fig5")
        with pytest.raises(ConfigError, match="T_max"):
            parse_config_text("T_max = -1\n", "fig5")
        with pytest.raises(ConfigError, match="unit"):
            parse_config_text("nx = 0.5\n", "fig4")

    def test_shots_accepts_inf_sentinel(self):
        config = parse_config_text("shots = inf\n", "swap-demo")
        assert config["shots"] is None

    def test_angles_list(self):
        config = parse_config_text("angles = 0.1,0.2,0.3\n", "fig4")
        assert config["angles"] == (0.1, 0.2, 0.3)


class TestClassification:
    def test_labels(self):
        assert classify_bounds(1.2, 1.0) == "red"
        assert classify_bounds(1.0, 1.2) == "blue"
        assert classify_bounds(None, None) == "black"
        assert classify_bounds(1.0, None) == "black"
        assert classify_bounds(1.0, 1.0 + 1e-10) == "tie"


class TestFig4:
    def test_runs_and_checks_pass(self):
        result = run_fig4(parse_config_text("", "fig4"))
        assert all(c.passed for c in result.checks)
        assert result.table.columns == ("t", "s_theta0", "s_theta1", "s_theta2")
        assert len(result.table.rows) == 2001

    def test_flat_series_for_angle_zero(self):
        result = run_fig4(parse_config_text("angles = 0.0\nsteps = 200", "fig4"))
        assert all(c.passed for c in result.checks)
        values = [row[1] for row in result.table.rows]
        assert max(abs(v) for v in values) <= 1e-7

    def test_slope_follows_sine(self):
        config = parse_config_text("angles = 1.0471975511965976\nsteps = 2000", "fig4")
        result = run_fig4(config)
        detail = result.checks[0].detail
        assert all(c.passed for c in result.checks)
        assert f"expected={math.sin(math.pi / 3):.9f}" in detail


class TestExecuteArtifacts:
    def test_fig4_writes_csv_svg_report(self, tmp_path):
        config = load_config(None, "fig4")
        result, elapsed, ok = execute(config, tmp_path)
        assert ok
        csv_text = (tmp_path / "fig4.csv").read_text()
        assert csv_text.startswith("# experiment = fig4\n# version = ")
        header = [l for l in csv_text.splitlines() if not l.startswith("#")][0]
        assert header == "t,s_theta0,s_theta1,s_theta2"
        ET.fromstring((tmp_path / "fig4.svg").read_text())
        report = (tmp_path / "report.txt").read_text()
        assert "wall_clock_seconds" in report
        assert "[PASS]" in report

    def test_fig5_schema_and_report(self, tmp_path):
        config = parse_config_text("", "fig5")
        result, elapsed, ok = execute(config, tmp_path)
        assert ok
        lines = (tmp_path / "fig5.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "t,s,theta"
        assert "tau_new" in (tmp_path / "report.txt").read_text()

    def test_byte_determinism(self, tmp_path):
        config = parse_config_text("steps = 500\nsamples = 20\n", "appendix-c")
        execute(config, tmp_path / "a")
        execute(config, tmp_path / "b")
        assert (tmp_path / "a" / "appendix-c.csv").read_bytes() == (
            tmp_path / "b" / "appendix-c.csv"
        ).read_bytes()

    def test_seed_changes_noisy_output(self, tmp_path):
        base = parse_config_text("steps = 20\nshots = 1000\n", "swap-demo")
        execute(base, tmp_path / "a")
        reseeded = load_config(None, "swap-demo", seed_override=999)
        values = dict(reseeded.values)
        values["steps"] = 20
        values["shots"] = 1000
        from qsl_lab.experiments import ExperimentConfig

        execute(ExperimentConfig("swap-demo", values), tmp_path / "b")
        assert (tmp_path / "a" / "swap-demo.csv").read_bytes() != (
            tmp_path / "b" / "swap-demo.csv"
        ).read_bytes()


class TestAppendixSweep:
    def test_parallel_matches_serial(self):
        config = parse_config_text("samples = 30\nsteps = 400\n", "appendix-c")
        serial = run_appendix_c(config, threads=1)
        parallel = run_appendix_c(config, threads=2)
        assert serial.table.rows == parallel.table.rows

    def test_directions_shared_across_purities(self):
        config = parse_config_text(
            "samples = 25\nsteps = 400\npurities = 1.0,0.7\n", "appendix-c"
        )
        rows = run_appendix_c(config).table.rows
        first = [r for r in rows if r[2] == 1.0]
        second = [r for r in rows if r[2] == 0.7]
        for a, b in zip(first, second):
            assert a[0] == b[0] and a[1] == b[1]
            assert a[5] == b[5]

    def test_schema(self):
        config = parse_config_text("samples = 10\nsteps = 300\n", "appendix-c")
        result = run_appendix_c(config)
        assert result.table.columns == ("phi", "varphi", "purity", "tau_new", "tau_existing", "class")
        assert len(result.table.rows) == 40
        assert len(result.svgs) == 4

    def test_x_direction_classification_matches_fine_grid_oracle(self):
        import sys

        sys.path.insert(0, str(Path(__file__).parent))
        from oracles import lz_bloch_oracle

        from qsl_lab import ket_dm, landau_zener, qsl_report

        theta = math.pi / 2
        rep = qsl_report(landau_zener(1.0, 1.0), ket_dm([1, 1]), theta, 10.0, 2000)
        ref_tau, ref_tilde, _ = lz_bloch_oracle(1.0, 1.0, (1.0, 0.0, 0.0), theta, 10.0, 10**6)
        assert classify_bounds(rep.tau_new, rep.tau_existing) == classify_bounds(
            ref_tau, ref_tilde
        )
        assert rep.tau_new == pytest.approx(ref_tau, abs=1e-3)
        assert rep.tau_existing == pytest.approx(ref_tilde, abs=1e-3)


class TestSwapDemo:
    def test_exact_mode_matches_fig4_series_bytes(self, tmp_path):
        fig4 = load_config(None, "fig4")
        execute(fig4, tmp_path / "fig4")
        demo = parse_config_text("shots = inf\nsteps = 2000\n", "swap-demo")
        execute(demo, tmp_path / "demo")
        fig4_lines = (tmp_path / "fig4" / "fig4.csv").read_text().splitlines()
        demo_lines = (tmp_path / "demo" / "swap-demo.csv").read_text().splitlines()
        fig4_rows = [l.split(",") for l in fig4_lines if not l.startswith("#")][1:]
        demo_rows = [l.split(",") for l in demo_lines if not l.startswith("#")][1:]
        # the pi/2 series of fig4 and the exact swap-demo path are the same bytes
        assert [r[1] for r in fig4_rows] == [r[2] for r in demo_rows]
        # and the estimate column equals the exact column
        assert [r[1] for r in demo_rows] == [r[2] for r in demo_rows]

    def test_noisy_coverage_summary(self):
        result = run_swap_demo(parse_config_text("steps = 30\nshots = 100000\n", "swap-demo"))
        assert any("coverage within 3 sigma" in line for line in result.summary)

    def test_default_run_covers_within_three_sigma(self):
        result = run_swap_demo(load_config(None, "swap-demo"))
        line = next(l for l in result.summary if "within 3 sigma" in l)
        assert float(line.rsplit(" ", 1)[1]) >= 0.99


class TestCli:
    def test_fig4_exit_zero(self, tmp_path, capsys):
        code = main(["fig4", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig4.csv").exists()
        assert "[PASS]" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        code = main(["fig4", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_config_file_exit_two(self, tmp_path, capsys):
        code = main(["fig4", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)])
        assert code == 2

    def test_failed_embedded_check_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text("steps = 3\n")  # far too coarse for the slope tolerance
        code = main(["fig4", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_seed_override(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("steps = 10\nshots = 100\n")
        code = main(
            ["swap-demo", "--config", str(cfg), "--out", str(tmp_path / "a"), "--seed", "1"]
        )
        assert code == 0
        meta = (tmp_path / "a" / "swap-demo.csv").read_text()
        assert "# seed = 1" in meta


def test_reproduce_figures_script_runs_from_a_checkout(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_figures.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(script), "--out", str(tmp_path / "out"), "--skip-sweep"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for name in ("fig4", "fig5", "swap-demo"):
        assert (tmp_path / "out" / name / f"{name}.csv").is_file()
    assert not (tmp_path / "out" / "appendix-c").exists()
