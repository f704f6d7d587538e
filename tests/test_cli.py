import json
import math
import resource
import subprocess
import sys

import numpy as np
import pytest

from densecode import cli
from densecode.channels import (
    CorrelationSpec,
    SinglePartyPauliSpec,
    channel_to_json,
    correlated_probs,
)
from densecode.cli import (
    ConfigError,
    ResultRow,
    main,
    rows_to_csv,
    rows_to_json,
    run_scenario,
    run_sweep,
    run_verify,
)
from densecode.errors import DensecodeError

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

    # The optimizer's seed is the document's ``seed``; the block has no
    # field of its own for it.
    @pytest.mark.parametrize("field, value", [
        ("convergence_tol", 1e-5), ("fd_step", 1e-5), ("seed", -3)],
        ids=["convergence_tol", "fd_step", "seed"])
    def test_removed_optimizer_field_named_in_error(self, field, value):
        cfg = bell_correlated_config(0.5)
        cfg["optimizer"] = {**QUICK_OPT, field: value}
        with pytest.raises(ConfigError, match=f"optimizer: unknown fields.*'{field}'"):
            run_scenario(cfg)

    def test_negative_seed_rejected(self, tmp_path, capsys):
        cfg = {"scenario": "ghz-full", "seed": -1, "state": {"copies": 1},
               "channel": {"q": [0.85, 0.05, 0.05, 0.05]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["capacity", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: seed: must be >= 0, got -1\n"

    @pytest.mark.parametrize("setting, message", [
        ({"max_iters": 0}, "max_iters must be >= 1, got 0"),
        ({"max_iters": -3}, "max_iters must be >= 1, got -3"),
        ({"restarts": 0}, "need at least one restart"),
    ])
    def test_nonpositive_optimizer_setting_rejected(self, tmp_path, capsys, setting, message):
        cfg = {"scenario": "depolarizing", "state": {"d": 2, "copies": 1},
               "channel": {"p": 0.3}, "optimizer": {"restarts": 2, **setting}}
        with pytest.raises(ConfigError, match=f"optimizer: {message}"):
            run_scenario(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["capacity", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: optimizer: {message}\n"


BELL_MATRIX = {"re": [[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]]}


@pytest.mark.parametrize("cfg, field", [
    ({"scenario": "custom", "channel": {}}, "'parties'"),
    ({"scenario": "custom", "channel": {"joint": [1, 0, 0, 0]}}, "'party_dims'"),
    ({"scenario": "custom",
      "channel": {"joint": [1, 0, 0], "party_dims": [2], "shape": [4]}}, "'joint'"),
    ({"scenario": "bell-correlated", "state": {"dims": [2]},
      "channel": {"singles": [[[0.7, 0.1], [0.1, 0.1]]] * 2, "mu": 0.5}}, "'singles'"),
    # [-1, -4] has the joint's 4 entries, but numpy's reshape refuses it.
    ({"scenario": "custom",
      "channel": {"joint": [1, 0, 0, 0], "party_dims": [2], "shape": [-1, -4]}}, "'shape'"),
])
def test_malformed_channel_named_in_error(tmp_path, capsys, cfg, field):
    if cfg["scenario"] == "custom":
        cfg["state"] = {"matrix": BELL_MATRIX,
                        "layout": {"sender_dims": [2], "receiver_dim": 2}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["capacity", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: channel: ") and field in err


GHZ_CONFIG = {"scenario": "ghz-full", "state": {"copies": 1},
              "channel": {"q": [0.85, 0.05, 0.05, 0.05]}, "optimizer": QUICK_OPT}


@pytest.mark.parametrize("cfg, field", [
    ({**GHZ_CONFIG, "channel": 5}, "channel"),
    ({**GHZ_CONFIG, "state": 5}, "state"),
    ({**bell_correlated_config(0.5), "channel": {"singles": 3, "mu": 0.5}}, "channel.singles"),
    ({**GHZ_CONFIG, "channel": {"q": 0.5}}, "channel.q"),
    ({**GHZ_CONFIG, "state": {"copies": "x"}}, "state.copies"),
    ({**GHZ_CONFIG, "seed": "abc"}, "seed"),
    ({**GHZ_CONFIG, "optimizer": {"restarts": "x"}}, "optimizer.restarts"),
    ({**GHZ_CONFIG, "run_optimizer": "false"}, "run_optimizer"),
    ([GHZ_CONFIG], "config"),
])
def test_mistyped_field_named_in_error(tmp_path, capsys, cfg, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["capacity", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: expected ")


CUSTOM_CONFIG = {
    "scenario": "custom",
    "state": {"matrix": BELL_MATRIX, "layout": {"sender_dims": [2], "receiver_dim": 2}},
    "channel": {"joint": [1, 0, 0, 0] + [0] * 12, "party_dims": [2, 2], "shape": [4, 4],
                "acts_on": [0, 1]},
    "optimizer": QUICK_OPT,
}


def with_field(cfg, path, value):
    """Deep copy of ``cfg`` with the field at the dotted ``path`` set to ``value``."""
    cfg = json.loads(json.dumps(cfg))
    cli._set_path(cfg, path, value)
    return cfg


def run_cli_config(tmp_path, capsys, cfg):
    """(exit status, stderr) of ``densecode capacity`` on ``cfg``."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    status = main(["capacity", "--config", str(cfg_path)])
    return status, capsys.readouterr().err


@pytest.mark.parametrize("cfg, field", [
    (with_field(GHZ_CONFIG, "channel.q", [0.85, [0.05], 0.05, 0.05]), "channel.q"),
    (with_field(bell_correlated_config(0.5), "channel.singles",
                [[[0.7, 0.1], [0.2]], [[0.4, 0.3], [0.2, 0.1]]]), "channel.singles"),
    (with_field(bell_correlated_config(0.5), "channel.mu", [[0, 0.5], [0.5]]), "channel.mu"),
    (with_field(CUSTOM_CONFIG, "state.matrix.re", [[0.5, 0, 0, 0.5], [0, 0]]),
     "state.matrix.re"),
])
def test_ragged_array_named_in_error(tmp_path, capsys, cfg, field):
    # numpy would raise a ValueError on these, which exits 1 as if an
    # agreement had failed.
    status, err = run_cli_config(tmp_path, capsys, cfg)
    assert status == 2
    assert err.startswith(f"error: {field}: expected ")


NAN = math.nan


@pytest.mark.parametrize("cfg, message", [
    (with_field(GHZ_CONFIG, "channel.q", [NAN, 0.05, 0.05, 0.05]),
     "negative or NaN channel probability nan"),
    (with_field(bell_correlated_config(0.5), "channel.singles",
                [[[NAN, 0.1], [0.1, 0.1]], [[0.6, 0.2], [0.1, 0.1]]]),
     "negative or NaN channel probability nan"),
    (with_field(bell_correlated_config(0.5), "channel.mu", NAN),
     "correlation degrees must lie in [0, 1]"),
    (with_field(bell_correlated_config(0.5), "channel.mu", [[0, NAN], [NAN, 0]]),
     "correlation degrees must lie in [0, 1]"),
    (with_field(CUSTOM_CONFIG, "channel.joint", [NAN] + [0] * 15),
     "negative or NaN joint probability nan"),
    (with_field(CUSTOM_CONFIG, "channel.joint", [0.5, NAN] + [0] * 14),
     "negative or NaN joint probability nan"),
    ({**CUSTOM_CONFIG, "channel": {"joint": [], "party_dims": [0], "shape": [0]}},
     "party dimensions must be >= 2, got [0]"),
    # The NaN weight reached the Bell-diagonal state and failed there as
    # "factor contains non-finite entries".
    ({"scenario": "bell-diagonal-full", "state": {"weights": [0.7, NAN, 0.1, 0.1]},
      "channel": {"q": [0.85, 0.05, 0.05, 0.05]}, "optimizer": QUICK_OPT},
     "negative or NaN Bell-diagonal weight nan"),
], ids=["q", "singles", "mu", "mu-matrix", "joint", "joint-second", "party-dim-0",
        "weights"])
def test_nan_probability_rejected(tmp_path, capsys, cfg, message):
    # Every comparison with NaN is false, so checks written as "fails if
    # below 0" passed it, and the run ended in a LinAlgError traceback.  A
    # party of dimension 0 has an empty joint tensor, whose minimum numpy
    # refuses with a ValueError.
    status, err = run_cli_config(tmp_path, capsys, cfg)
    assert status == 2
    assert err.startswith("error: ") and message in err


JOINT_BELL_CONFIG = {**bell_correlated_config(0.5), "channel": CUSTOM_CONFIG["channel"]}


@pytest.mark.parametrize("cfg, path, block", [
    (GHZ_CONFIG, "mdoe", "config"),
    (bell_correlated_config(0.5), "state.dim", "state"),
    (GHZ_CONFIG, "state.copis", "state"),
    (CUSTOM_CONFIG, "state.layout.receiver", "state.layout"),
    (CUSTOM_CONFIG, "state.matrix.imag", "state.matrix"),
    (bell_correlated_config(0.5), "channel.m", "channel"),
    (bell_correlated_config(0.5), "channel.parties", "channel"),
    (JOINT_BELL_CONFIG, "channel.shap", "channel"),
    ({"scenario": "bell-diagonal-full", "state": {"weights": [0.7, 0.1, 0.1, 0.1]},
      "channel": {"q": [0.8, 0.1, 0.05, 0.05]}}, "channel.p", "channel"),
    (GHZ_CONFIG, "channel.qq", "channel"),
    ({"scenario": "depolarizing", "state": {"d": 2}, "channel": {"p": 0.3}},
     "channel.pp", "channel"),
    (CUSTOM_CONFIG, "channel.party_dim", "channel"),
    (with_field(CUSTOM_CONFIG, "channel", {"parties": 2, "d": 2, "mu": 0,
                                           "singles": [[[1, 0], [0, 0]]] * 2}),
     "channel.acts", "channel"),
], ids=["top", "state-bell", "state-ghz", "state.layout", "state.matrix",
        "channel-bell", "channel-bell-parties", "channel-bell-joint", "channel-bd",
        "channel-ghz", "channel-depolarizing", "channel-joint", "channel-correlated"])
def test_unknown_field_rejected(tmp_path, capsys, cfg, path, block):
    # A field no reader reads was ignored: "mdoe": "global" ran local mode.
    status, err = run_cli_config(tmp_path, capsys, with_field(cfg, path, 2))
    assert status == 2
    assert err == f"error: {block}: unknown fields [{path.rpartition('.')[2]!r}]\n"


@pytest.mark.parametrize("path, value", [
    ("state.layout.sender_dims", [2.5]),
    ("channel.acts_on", [0, 1.7]),
    ("channel.party_dims", [2, 2.5]),
    ("channel.shape", [4, 4.5]),
    ("state.dims", [2, 2.5]),
])
def test_non_integral_array_entry_rejected(tmp_path, capsys, path, value):
    # Read as numbers and truncated by int(), [2.5] ran as a qubit sender.
    base = bell_correlated_config(0.5) if path == "state.dims" else CUSTOM_CONFIG
    status, err = run_cli_config(tmp_path, capsys, with_field(base, path, value))
    assert status == 2
    assert err.startswith(f"error: {path}: expected an array of integers, got ")


def test_integral_numbers_accepted_in_integer_arrays():
    # sweep writes floats, so 2.0 is as good as 2.
    cfg = with_field(CUSTOM_CONFIG, "channel.shape", [4.0, 4.0])
    cfg = with_field(cfg, "state.layout.sender_dims", [2.0])
    assert run_scenario(cfg)[0].capacity_bits == run_scenario(CUSTOM_CONFIG)[0].capacity_bits
    floats = with_field(bell_correlated_config(0.5), "state.dims", [2.0, 2.0])
    floats["run_optimizer"] = False
    ints = {**bell_correlated_config(0.5), "run_optimizer": False}
    assert run_scenario(floats)[0].capacity_bits == run_scenario(ints)[0].capacity_bits


class TestBellCorrelatedChannel:
    def test_joint_form_matches_singles_form(self):
        cfg = {**bell_correlated_config(0.5), "run_optimizer": False}
        singles_row = run_scenario(cfg)[0]
        cfg["channel"] = channel_to_json(correlated_probs(
            [SinglePartyPauliSpec(2, np.array(t)) for t in cfg["channel"]["singles"]],
            CorrelationSpec.uniform(2, 0.5)))
        assert run_scenario(cfg)[0].capacity_bits == singles_row.capacity_bits

    def test_unequal_dims_rejected(self):
        cfg = bell_correlated_config(0.5)
        cfg["state"] = {"dims": [2, 3]}
        cfg["channel"]["singles"][1] = np.diag([1.0, 0, 0]).tolist()
        with pytest.raises(DensecodeError):
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

    @pytest.mark.parametrize("param", ["channel.p", "channel.q.7", "channel.q.x"])
    def test_unsettable_path_rejected(self, param):
        cfg = {**GHZ_CONFIG, "channel": 5} if param == "channel.p" else GHZ_CONFIG
        with pytest.raises(ConfigError, match=f"sweep: cannot set '{param}'"):
            run_sweep(cfg, param, 0.0, 1.0, 2)

    def test_missing_path_rejected(self, tmp_path, capsys):
        # It set a field nothing reads and printed one identical row per step.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "depolarizing", "state": {"d": 2},
                                        "channel": {"p": 0.3}, "run_optimizer": False}))
        argv = ["sweep", "--config", str(cfg_path), "--param", "channel.pp",
                "--from", "0", "--to", "1", "--steps", "3"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: channel: unknown fields ['pp']\n")

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

    def test_negative_seed_exits_2(self, capsys):
        assert main(["verify", "--suite", "twirl", "--seed", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: seed: must be >= 0, got -1\n")

    def test_failing_check_exits_1(self, monkeypatch, capsys):
        monkeypatch.setitem(cli._SUITE_RUNNERS, "twirl", lambda seed: [
            cli.VerifyCheck("twirl", "forced", 1.0, 1e-10)])
        assert main(["verify", "--suite", "twirl"]) == 1
        assert capsys.readouterr().out == (
            "[twirl] forced: max deviation 1.000e+00 (tol 1e-10) FAIL\n"
            "verify summary: 0/1 checks passed\n")


class TestUsageErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["capacity", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: No such file or directory\n"

    def test_sweep_without_steps(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(GHZ_CONFIG))
        argv = ["sweep", "--config", str(cfg_path), "--param", "channel.q.0",
                "--from", "0.5", "--to", "0.9", "--steps", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: sweep: steps must be >= 1\n"

    @pytest.mark.parametrize("target, reason", [
        ("dir", "Is a directory"), ("absent/rows.csv", "No such file or directory")])
    def test_unwritable_out_exits_2_after_the_rows(self, tmp_path, capsys, target, reason):
        # It ended in a traceback, exit 1, after the run and before any output.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "depolarizing", "state": {"d": 2},
                                        "channel": {"p": 0.3}, "run_optimizer": False}))
        (tmp_path / "dir").mkdir()
        out = tmp_path / target
        assert main(["capacity", "--config", str(cfg_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("# densecode-lab v1\n")
        assert "\ndepolarizing," in captured.out
        assert captured.err == f"error: {out}: {reason}\n"

    def test_custom_without_optimizer(self, tmp_path, capsys):
        status, err = run_cli_config(tmp_path, capsys,
                                     {**CUSTOM_CONFIG, "run_optimizer": False})
        assert status == 2
        assert err == "error: config: run_optimizer=false needs a scenario with a closed form\n"


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

    def test_import_loads_no_scipy(self, cli_env):
        # scipy.optimize alone took about 0.47 s of every CLI start.
        code = ("import sys, densecode, densecode.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

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

    @pytest.mark.parametrize("cfg", [
        {"scenario": "ghz-full", "state": {"copies": 1e12}, "channel": {"q": [1, 0, 0, 0]}},
        {"scenario": "ghz-full", "state": {"copies": 1e8}, "channel": {"q": [1, 0, 0, 0]}},
        {"scenario": "bell-diagonal-full",
         "state": {"weights": [0.7, 0.1, 0.1, 0.1], "copies": 1e12},
         "channel": {"q": [0.8, 0.1, 0.05, 0.05]}},
        {"scenario": "depolarizing", "state": {"d": 2, "copies": 1e12}, "channel": {"p": 0.3}},
        {"scenario": "bell-correlated", "state": {"dims": [2] * 20_000},
         "channel": {"singles": [[[0.7, 0.1], [0.1, 0.1]]] * 2, "mu": 0.5}},
        {"scenario": "custom",
         "state": {"matrix": {"re": [[1, 0], [0, 0]]},
                   "layout": {"sender_dims": [2] * 20_000, "receiver_dim": 2}},
         "channel": {"parties": 1, "d": 2, "singles": [[[1, 0], [0, 0]]], "mu": 0}},
    ], ids=["ghz-copies-1e12", "ghz-copies-1e8", "bell-diagonal-copies-1e12",
            "depolarizing-copies-1e12", "bell-correlated-20000-dims",
            "custom-20000-sender-dims"])
    def test_oversized_config_exits_2_before_allocating(self, tmp_path, cli_env, cfg):
        # The child's address space is capped at 4 GiB.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "densecode", "capacity", "--config", str(cfg_path)],
            capture_output=True, text=True, timeout=60, preexec_fn=address_space_cap(4 << 30),
            env={**cli_env(), "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 2, proc.stderr
        assert "exceeds cap 1024" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, cfg", [
        (["capacity"], {**GHZ_CONFIG, "optimizer": {"restarts": 1e12}}),
        (["sweep", "--param", "channel.q.0", "--from", "0.5", "--to", "0.9",
          "--steps", "1000000000"], GHZ_CONFIG),
    ], ids=["restarts-1e12", "sweep-steps-1e9"])
    def test_unbounded_count_exits_2_before_allocating(self, tmp_path, cli_env, argv, cfg):
        # Without their caps, the restarts drew start points until the
        # timeout, and the sweep's linspace raised numpy's MemoryError (exit 1).
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "densecode", argv[0], "--config", str(cfg_path), *argv[1:]],
            capture_output=True, text=True, timeout=30, preexec_fn=address_space_cap(1 << 30),
            env={**cli_env(), "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 2, proc.stderr
        assert "exceeds cap" in proc.stderr
        assert "Traceback" not in proc.stderr


def address_space_cap(limit: int):
    """A ``preexec_fn`` capping the child's address space at ``limit`` bytes,
    so a build that allocates before checking its cap fails with a
    MemoryError rather than exhausting the machine."""
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
