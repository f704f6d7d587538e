import json
import subprocess
import sys

import numpy as np
import pytest

from densecode.cli import (
    ConfigError,
    ResultRow,
    rows_to_csv,
    rows_to_json,
    run_scenario,
    run_sweep,
    run_verify,
)

QUICK_OPT = {"restarts": 3, "max_iters": 100}


def bell_correlated_config(mu):
    return {
        "scenario": "bell-correlated",
        "state": {"dims": [2, 2]},
        "channel": {
            "singles": [
                [[0.7, 0.1], [0.1, 0.1]],
                [[0.4, 0.3], [0.2, 0.1]],
            ],
            "mu": mu,
        },
        "optimizer": QUICK_OPT,
    }


class TestScenarios:
    def test_ghz_full_row(self):
        cfg = {
            "scenario": "ghz-full",
            "state": {"copies": 2},
            "channel": {"q": [0.4, 0.3, 0.2, 0.1]},
            "optimizer": QUICK_OPT,
        }
        rows = run_scenario(cfg)
        assert len(rows) == 1
        row = rows[0]
        assert abs(row.capacity_bits - 4.0) < 1e-9
        assert row.agreement is True

    def test_bell_diagonal_full_row(self):
        cfg = {
            "scenario": "bell-diagonal-full",
            "state": {"weights": [0.4, 0.3, 0.2, 0.1], "copies": 1},
            "channel": {"q": [0.25, 0.25, 0.25, 0.25]},
            "optimizer": QUICK_OPT,
        }
        row = run_scenario(cfg)[0]
        assert abs(row.closed_form_bits - 0.15356065532898455) < 1e-9
        assert row.agreement is True

    def test_bell_correlated_row(self):
        row = run_scenario(bell_correlated_config(0.5))[0]
        assert row.agreement is True
        assert row.closed_form_bits is not None

    def test_depolarizing_closed_form_only(self):
        cfg = {
            "scenario": "depolarizing",
            "state": {"d": 2, "copies": 2},
            "channel": {"p": 0.25},
            "run_optimizer": False,
        }
        row = run_scenario(cfg)[0]
        assert row.optimizer_bits is None
        assert row.agreement is None
        assert abs(row.capacity_bits - 2 * 0.5669349658656235) < 1e-12

    def test_custom_scenario(self):
        bell = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                bell[i, j] = 0.5
        cfg = {
            "scenario": "custom",
            "state": {
                "matrix": {"re": bell.tolist()},
                "layout": {"sender_dims": [2], "receiver_dim": 2},
            },
            "channel": {
                "parties": 2,
                "d": 2,
                "singles": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
                "mu": [[0.0, 0.0], [0.0, 0.0]],
            },
            "optimizer": QUICK_OPT,
        }
        row = run_scenario(cfg)[0]
        assert row.closed_form_bits is None
        assert abs(row.capacity_bits - 2.0) < 1e-6

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            run_scenario({"scenario": "bogus"})

    def test_missing_field_named_in_error(self):
        with pytest.raises(ConfigError, match="channel.*missing.*'q'"):
            run_scenario({"scenario": "ghz-full", "state": {"copies": 1}, "channel": {}})

    @pytest.mark.parametrize("field", ["convergence_tol", "fd_step"])
    def test_removed_optimizer_field_named_in_error(self, field):
        cfg = bell_correlated_config(0.5)
        cfg["optimizer"] = {**QUICK_OPT, field: 1e-5}
        with pytest.raises(ConfigError, match=f"optimizer: unknown fields.*'{field}'"):
            run_scenario(cfg)


class TestSweep:
    def test_depolarizing_sweep_monotone(self):
        cfg = {
            "scenario": "depolarizing",
            "state": {"d": 2, "copies": 1},
            "channel": {"p": 0.0},
            "run_optimizer": False,
        }
        rows = run_sweep(cfg, "channel.p", 0.0, 1.0, 11)
        assert len(rows) == 11
        caps = [r.capacity_bits for r in rows]
        assert caps[0] > caps[-1]
        assert all(a >= b - 1e-12 for a, b in zip(caps, caps[1:]))
        assert rows[3].param_name == "channel.p"
        assert abs(rows[3].param_value - 0.3) < 1e-12

    def test_sweep_scalar_mu(self):
        rows = run_sweep(bell_correlated_config(0.0), "channel.mu", 0.0, 1.0, 3)
        assert len(rows) == 3
        assert all(r.agreement is True for r in rows)


class TestEmission:
    def test_csv_round_trip_17_digits(self):
        rows = [
            ResultRow(
                scenario="depolarizing",
                param_name="channel.p",
                param_value=1.0 / 3.0,
                capacity_bits=0.5669349658656235,
                closed_form_bits=0.5669349658656235,
                optimizer_bits=0.566934965865625,
                receiver_entropy_bits=1.0,
                min_output_entropy_bits=1.4330650341343756,
                agreement=True,
            )
        ]
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "# densecode-lab v1"
        header = lines[1].split(",")
        values = lines[2].split(",")
        parsed = dict(zip(header, values))
        assert float(parsed["param_value"]) == 1.0 / 3.0
        assert float(parsed["capacity_bits"]) == 0.5669349658656235
        assert float(parsed["optimizer_bits"]) == 0.566934965865625
        assert parsed["agreement"] == "true"

    def test_json_mirrors_fields(self):
        rows = [ResultRow(scenario="ghz-full", capacity_bits=4.0, closed_form_bits=4.0)]
        docs = json.loads(rows_to_json(rows))
        assert docs[0]["scenario"] == "ghz-full"
        assert docs[0]["capacity_bits"] == 4.0
        assert docs[0]["optimizer_bits"] is None

    def test_agreement_flag_gates_exit_status(self):
        assert ResultRow(scenario="x").passed()
        assert ResultRow(scenario="x", agreement=True).passed()
        assert not ResultRow(scenario="x", agreement=False).passed()


class TestVerify:
    def test_all_suites_pass(self, capsys):
        assert run_verify("all", seed=42) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "verify summary" in out

    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            run_verify("bogus")


class TestCommandLine:
    def test_verify_deterministic_bytes(self, cli_env):
        cmd = [sys.executable, "-m", "densecode", "verify", "--suite", "all", "--seed", "42"]
        env = cli_env()
        first = subprocess.run(cmd, capture_output=True, check=True, env=env)
        second = subprocess.run(cmd, capture_output=True, check=True, env=env)
        assert first.stdout == second.stdout
        assert first.stdout.count(b"PASS") >= 10

    def test_capacity_command_writes_csv(self, tmp_path, cli_env):
        cfg = {
            "scenario": "ghz-full",
            "state": {"copies": 1},
            "channel": {"q": [0.4, 0.3, 0.2, 0.1]},
            "optimizer": QUICK_OPT,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "rows.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "densecode", "capacity",
                "--config", str(cfg_path), "--out", str(out_path),
            ],
            capture_output=True, env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "# densecode-lab v1"
        assert lines[2].startswith("ghz-full,")

    def test_bad_config_reports_line(self, tmp_path, cli_env):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text('{"scenario": "ghz-full",\n  broken\n}')
        proc = subprocess.run(
            [sys.executable, "-m", "densecode", "capacity", "--config", str(cfg_path)],
            capture_output=True, text=True, env=cli_env(),
        )
        assert proc.returncode == 2, proc.stderr
        assert "line 2" in proc.stderr

    def test_env_var_cap_respected(self, tmp_path, cli_env):
        cfg = {
            "scenario": "ghz-full",
            "state": {"copies": 3},
            "channel": {"q": [1, 0, 0, 0]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "densecode", "capacity", "--config", str(cfg_path)],
            capture_output=True, text=True,
            env={**cli_env({"PATH": "/usr/bin:/bin"}), "DENSECODE_MAX_DIM": "16"},
        )
        assert proc.returncode == 2, proc.stderr
        assert "exceeds cap 16" in proc.stderr
