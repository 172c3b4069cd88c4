import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from riskenv.cli import build_parser, main
from riskenv.config import ConfigError, RunConfig, config_from_dict, load_config


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def envelope_input(tmp_path):
    def write(payload, name="input.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


class TestEnvelopeCommand:
    def test_zero_sigma_envelopes_match(self, envelope_input, capsys):
        path = envelope_input({
            "ego": {"x": 0, "y": 0, "theta": 0, "v": 17},
            "agents": [{"x": 28, "y": 0, "theta": 0, "v": 15}],
            "sigma": [0, 0, 0, 0],
            "beta": 0.1,
        })
        code, out, _ = run_cli(["envelope", "--input", path], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["deterministic_envelope"] == data["probabilistic_envelope"]
        assert data["switch_decision"] is False

    def test_empty_agent_list(self, envelope_input, capsys):
        path = envelope_input({
            "ego": {"x": 0, "y": 0, "theta": 0, "v": 17},
            "agents": [],
            "sigma": [0.04, 0.04, 0.04, 1e-4],
            "beta": 0.1,
        })
        code, out, _ = run_cli(["envelope", "--input", path], capsys)
        assert code == 0
        data = json.loads(out)
        env = data["deterministic_envelope"]
        assert env["a_lon_max"] == 8.0
        assert env["a_lat_max"] == 4.0
        assert data["probabilistic_envelope"] == env
        assert data["per_agent_violation_expectation"] == []
        assert data["switch_decision"] is False

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(["envelope", "--input", str(path)], capsys)
        assert code == 2
        assert "malformed JSON" in err

    def test_unknown_field_named(self, envelope_input, capsys):
        path = envelope_input({
            "ego": {"x": 0, "y": 0, "theta": 0, "v": 17},
            "sigma": [0, 0, 0, 0],
            "betaa": 0.1,
        })
        code, _, err = run_cli(["envelope", "--input", path], capsys)
        assert code == 2
        assert "betaa" in err

    def test_missing_sigma_named(self, envelope_input, capsys):
        path = envelope_input({"ego": {"x": 0, "y": 0, "theta": 0, "v": 17}})
        code, _, err = run_cli(["envelope", "--input", path], capsys)
        assert code == 2
        assert "sigma" in err

    def test_switch_reported_for_violating_state(self, envelope_input, capsys):
        path = envelope_input({
            "ego": {"x": 0, "y": 0, "theta": 0, "v": 17},
            "agents": [{"x": 3, "y": 0.5, "theta": 0, "v": 17}],
            "sigma": [0.04, 0.04, 0.04, 1e-4],
            "beta": 0.1,
        })
        code, out, _ = run_cli(["envelope", "--input", path], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["per_agent_violation_expectation"][0] > 0.1
        assert data["switch_decision"] is True

    @pytest.mark.parametrize("where", ["ego", "agent"])
    @pytest.mark.parametrize("key,value", [("x", float("nan")), ("y", float("inf")),
                                           ("v", float("nan")), ("v", float("inf"))])
    def test_non_finite_state_exit_2(self, envelope_input, capsys, where, key, value):
        ego = {"x": 0, "y": 0, "theta": 0, "v": 15}
        agent = {"x": 6, "y": 0, "theta": 0, "v": 15}
        (ego if where == "ego" else agent)[key] = value
        path = envelope_input({"ego": ego, "agents": [agent],
                               "sigma": [0.04, 0.04, 0.04, 1e-4]})
        code, out, err = run_cli(["envelope", "--input", path], capsys)
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("tau", [0, -1, float("nan"), float("inf"), "fast", "0.2"])
    def test_bad_tau_exit_2(self, envelope_input, capsys, tau):
        path = envelope_input({
            "ego": {"x": 0, "y": 0, "theta": 0, "v": 17},
            "agents": [{"x": 28, "y": 0, "theta": 0, "v": 15}],
            "sigma": [0.04, 0.04, 0.04, 1e-4],
            "tau": tau,
        })
        code, out, err = run_cli(["envelope", "--input", path], capsys)
        assert code == 2
        assert out == ""
        assert "tau" in err


    def test_non_finite_sigma_exit_2(self, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text('{"ego": {"v": 15}, "agents": [{"x": 20, "v": 15}], '
                        '"sigma": [Infinity, 0.04, 0.04, 1e-4]}')
        code, out, err = run_cli(["envelope", "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "sigma must be finite" in err

    @pytest.mark.parametrize("beta", ["abc", [0.1], -0.5, True])
    def test_bad_beta_exit_2(self, envelope_input, capsys, beta):
        path = envelope_input({
            "ego": {"x": 0, "y": 0, "theta": 0, "v": 17},
            "agents": [{"x": 28, "y": 0, "theta": 0, "v": 15}],
            "sigma": [0.04, 0.04, 0.04, 1e-4],
            "beta": beta,
        })
        code, out, err = run_cli(["envelope", "--input", path], capsys)
        assert code == 2
        assert out == ""
        assert "beta" in err

    @pytest.mark.parametrize("patch,key", [
        ({"contour_levels": 5}, "contour_levels"),
        ({"agents": 5}, "agents"),
        ({"agents": [{"x": [1], "v": 15}]}, "agents[0].x"),
        ({"agents": [{"x": 28, "v": True}]}, "agents[0].v"),
        ({"sigma": "abc"}, "sigma"),
        ({"sigma": [[0.04, 0, 0, 0], [0, 0.04, 0], [0, 0, 0.04, 0], [0, 0, 0, 1e-4]]},
         "sigma"),
    ])
    def test_wrong_type_exit_2(self, envelope_input, capsys, patch, key):
        payload = {
            "ego": {"x": 0, "y": 0, "theta": 0, "v": 17},
            "agents": [{"x": 28, "y": 0, "theta": 0, "v": 15}],
            "sigma": [0.04, 0.04, 0.04, 1e-4],
        }
        code, out, err = run_cli(["envelope", "--input",
                                  envelope_input(dict(payload, **patch))], capsys)
        assert code == 2
        assert out == ""
        assert key in err

    def test_non_object_input_exit_2(self, envelope_input, capsys):
        code, out, err = run_cli(["envelope", "--input", envelope_input([1, 2])], capsys)
        assert code == 2
        assert "object" in err

    @pytest.mark.parametrize("n_phi", [8.9, 2.5, True, "8", None, [8]])
    def test_non_integral_n_phi_exit_2(self, envelope_input, capsys, n_phi):
        path = envelope_input({
            "ego": {"x": 0, "y": 0, "theta": 0, "v": 17},
            "agents": [{"x": 28, "y": 0, "theta": 0, "v": 15}],
            "sigma": [0.04, 0.04, 0.04, 1e-4],
            "n_phi": n_phi,
        })
        code, out, err = run_cli(["envelope", "--input", path], capsys)
        assert code == 2
        assert out == ""
        assert "n_phi must be an integer" in err

    @pytest.mark.parametrize("n_phi", [1, 25, 400, 10 ** 400])
    def test_n_phi_out_of_range_exit_2(self, envelope_input, capsys, n_phi):
        path = envelope_input({
            "ego": {"x": 0, "y": 0, "theta": 0, "v": 17},
            "agents": [{"x": 28, "y": 0, "theta": 0, "v": 15}],
            "sigma": [0.04, 0.04, 0.04, 1e-4],
            "contour_levels": [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99],
            "n_phi": n_phi,
        })
        start = time.perf_counter()
        code, out, err = run_cli(["envelope", "--input", path], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "n_phi" in err

    def test_integral_n_phi_accepted(self, envelope_input, capsys):
        payload = {
            "ego": {"x": 0, "y": 0, "theta": 0, "v": 17},
            "agents": [{"x": 28, "y": 0, "theta": 0, "v": 15}],
            "sigma": [0.04, 0.04, 0.04, 1e-4],
        }
        outs = []
        for n_phi in (6, 6.0):
            code, out, _ = run_cli(["envelope", "--input",
                                    envelope_input(dict(payload, n_phi=n_phi))], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestParserReuse:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_consecutive_calls_share_no_state(self, envelope_input, capsys):
        path = envelope_input({
            "ego": {"x": 0, "y": 0, "theta": 0, "v": 17},
            "agents": [{"x": 3, "y": 0.5, "theta": 0, "v": 17}],
            "sigma": [0.04, 0.04, 0.04, 1e-4],
        })
        # The agent's expectation exceeds 0.1, the --beta default, but not
        # 1.0, so the switch follows the beta of each call.
        code, out, _ = run_cli(["envelope", "--input", path, "--beta", "1.0"], capsys)
        assert code == 0
        assert json.loads(out)["switch_decision"] is False
        code, out, _ = run_cli(["validate"], capsys)
        assert (code, out) == (0, "config ok\n")
        code, out, _ = run_cli(["envelope", "--input", path], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["per_agent_violation_expectation"][0] > 0.1
        assert data["switch_decision"] is True
        code, out, _ = run_cli(["envelope", "--input", path, "--beta", "1.0"], capsys)
        assert json.loads(out)["switch_decision"] is False

class TestRiskLevelFlags:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--beta", "2"],
        ["simulate", "--beta", "nan"],
        ["simulate", "--policy", "ProbabilisticSimplex", "--beta", "-0.5"],
        ["benchmark", "--betas", "abc", "--policies", "Simplex"],
        ["benchmark", "--betas", "2", "--policies", "ProbabilisticEnvelopeRestriction"],
        ["benchmark", "--betas", "nan", "--policies", "Simplex"],
    ])
    def test_bad_beta_exit_2_before_any_episode(self, tmp_path, capsys, argv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": {"n_scenarios": 2}}))
        out_dir = tmp_path / "out"
        argv = argv + ["--config", str(cfg_path), "--out", str(out_dir)]
        try:  # argparse exits by itself on a value it cannot convert
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert "beta" in capsys.readouterr().err
        assert not out_dir.exists()


class TestSimulateCommand:
    def test_trace_deterministic(self, tmp_path, capsys):
        args = ["simulate", "--scenario", "1", "--policy", "Simplex",
                "--covariance", "small", "--beta", "0.1"]
        code, out1, _ = run_cli(args + ["--out", str(tmp_path / "a")], capsys)
        assert code == 0
        code, out2, _ = run_cli(args + ["--out", str(tmp_path / "b")], capsys)
        assert code == 0
        trace_a = (tmp_path / "a" / out1.split("trace=")[1].split("/")[-1].strip())
        trace_b = (tmp_path / "b" / out2.split("trace=")[1].split("/")[-1].strip())
        assert trace_a.read_bytes() == trace_b.read_bytes()
        outcome = out1.split()[0]
        assert outcome in ("Success", "Collision", "Timeout")

    def test_trace_length_capped(self, tmp_path, capsys):
        code, out, _ = run_cli(["simulate", "--scenario", "0", "--policy",
                                "EnvelopeRestriction", "--covariance", "none",
                                "--out", str(tmp_path)], capsys)
        assert code == 0
        trace = tmp_path / out.split("trace=")[1].strip().split("/")[-1]
        lines = trace.read_text().strip().split("\n")
        assert len(lines) <= 40
        rec = json.loads(lines[0])
        assert set(rec) == {"t", "ego", "obs", "envelope", "cmd", "mode", "flags"}

    def test_bad_scenario_index(self, tmp_path, capsys):
        code, _, err = run_cli(["simulate", "--scenario", "100000",
                                "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "scenario index" in err


class TestBenchmarkCommand:
    def test_small_grid_csv(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": {"n_scenarios": 4}}))
        args = ["benchmark", "--config", str(cfg_path), "--out", str(tmp_path / "r1"),
                "--policies", "Simplex,EnvelopeRestriction", "--betas", "0.0,0.5",
                "--covariance", "none"]
        code, _, _ = run_cli(args, capsys)
        assert code == 0
        csv_text = (tmp_path / "r1" / "rates.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert len(lines) == 1 + 2 * 1 * 2
        code, _, _ = run_cli(["benchmark", "--config", str(cfg_path),
                              "--out", str(tmp_path / "r2"),
                              "--policies", "Simplex,EnvelopeRestriction",
                              "--betas", "0.0,0.5", "--covariance", "none"], capsys)
        assert code == 0
        assert (tmp_path / "r1" / "rates.csv").read_bytes() == \
            (tmp_path / "r2" / "rates.csv").read_bytes()
        assert (tmp_path / "r1" / "results.json").read_bytes() == \
            (tmp_path / "r2" / "results.json").read_bytes()

    def test_unknown_policy_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(["benchmark", "--policies", "Nope",
                                "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "Nope" in err

    def test_parallel_jobs_identical_output(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": {"n_scenarios": 3}}))
        common = ["benchmark", "--config", str(cfg_path),
                  "--policies", "Simplex,ProbabilisticSimplex",
                  "--betas", "0.1,0.5", "--covariance", "small"]
        code, _, _ = run_cli(common + ["--out", str(tmp_path / "serial"),
                                       "--jobs", "1"], capsys)
        assert code == 0
        code, _, _ = run_cli(common + ["--out", str(tmp_path / "parallel"),
                                       "--jobs", "2"], capsys)
        assert code == 0
        assert (tmp_path / "serial" / "rates.csv").read_bytes() == \
            (tmp_path / "parallel" / "rates.csv").read_bytes()


class TestValidateCommand:
    def test_default_config_ok(self, capsys):
        code, out, _ = run_cli(["validate"], capsys)
        assert code == 0
        assert "ok" in out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rss": {"rho": 0.1, "wheelbase": 2.5}}))
        code, _, err = run_cli(["validate", "--config", str(path)], capsys)
        assert code == 2
        assert "wheelbase" in err

    def test_nested_sigma_shorthand(self):
        cfg = config_from_dict({
            "uncertainty": {"small": {"sigma": [0.01, 0.01, 0.01, 1e-5]}},
        })
        assert cfg.uncertainty["small"].sigma[0, 0] == 0.01
        assert cfg.uncertainty["small"].sigma[0, 1] == 0.0
        row_major = [0.04, 0.01, 0, 0,
                     0.01, 0.04, 0, 0,
                     0, 0, 0.04, 0,
                     0, 0, 0, 1e-4]
        full = config_from_dict({"uncertainty": {"large": {"sigma": row_major}}})
        assert full.uncertainty["large"].sigma[0, 1] == 0.01
        rows = [row_major[i:i + 4] for i in range(0, 16, 4)]
        nested = config_from_dict({"uncertainty": {"large": {"sigma": rows}}})
        assert np.array_equal(nested.uncertainty["large"].sigma,
                              full.uncertainty["large"].sigma)

    @pytest.mark.parametrize("text,key", [
        ('{"tau": NaN}', "tau"),
        ('{"tau": 1e400}', "tau"),
        ('{"tau": -Infinity}', "tau"),
        ('{"tau": 1' + "0" * 400 + '}', "tau"),
        ('{"rss": {"rho": NaN}}', "rho"),
        ('{"uncertainty": {"small": {"sigma": [0.04, NaN, 0.04, 1e-4]}}}', "sigma"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, text, key):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, out, err = run_cli(["validate", "--config", str(path)], capsys)
        assert code == 2
        assert "config ok" not in out
        assert f"{key} must be finite" in err

    @pytest.mark.parametrize("data,key", [
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"tau": "0.2"}, "tau"),
        ({"scenario": {"n_scenarios": 2.5}}, "scenario.n_scenarios"),
        ({"contour_levels": 5}, "contour_levels"),
        ({"betas": 0.5}, "betas"),
        ({"simplex_samples": "abc"}, "simplex_samples"),
        ({"uncertainty": {"small": {"sigma": [0.04, 0.04, 0.04, 1e-4],
                                    "contour_levels": 5}}},
         "uncertainty.small.contour_levels"),
        ({"policies": "Simplex"}, "policies"),
    ])
    def test_wrong_type_rejected(self, tmp_path, capsys, data, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["validate", "--config", str(path)], capsys)
        assert code == 2
        assert "config ok" not in out
        assert key in err

    @pytest.mark.parametrize("argv,seed", [
        (["validate"], -1),
        (["simulate", "--seed", "-1"], 0),
        (["benchmark", "--seed", "-1", "--policies", "Simplex"], 0),
    ])
    def test_negative_seed_rejected(self, tmp_path, monkeypatch, capsys, argv, seed):
        monkeypatch.chdir(tmp_path)  # simulate and benchmark write to ./results
        (tmp_path / "cfg.json").write_text(
            json.dumps({"seed": seed, "scenario": {"n_scenarios": 2}}))
        code, _, err = run_cli(argv + ["--config", "cfg.json"], capsys)
        assert code == 2
        assert "seed" in err
        assert not (tmp_path / "results").exists()

    def test_integral_numbers_accepted(self, tmp_path, capsys):
        data = {"n_phi": 8.0, "scenario": {"n_scenarios": 7.0}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert run_cli(["validate", "--config", str(path)], capsys)[:2] == (0, "config ok\n")
        cfg = config_from_dict(data)
        assert type(cfg.scenario.n_scenarios) is int and cfg.scenario.n_scenarios == 7
        assert {spec.n_phi for spec in cfg.uncertainty.values()} == {8}

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ConfigError, match="tau"):
            RunConfig(tau=tau)

    def test_non_finite_sigma_rejected(self):
        sigma = [0.04, 0.04, float("inf"), 1e-4]
        with pytest.raises(ConfigError, match="finite"):
            config_from_dict({"uncertainty": {"small": {"sigma": sigma}}})

    def test_invalid_beta_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"betas": [0.5, 1.5]})

    @pytest.mark.parametrize("section", ["top", "case"])
    @pytest.mark.parametrize("n_phi", [8.9, True, "8"])
    def test_non_integral_n_phi_rejected(self, tmp_path, capsys, section, n_phi):
        data = ({"n_phi": n_phi} if section == "top" else
                {"uncertainty": {"small": {"sigma": [0.04, 0.04, 0.04, 1e-4],
                                           "n_phi": n_phi}}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["validate", "--config", str(path)], capsys)
        assert code == 2
        assert "config ok" not in out
        assert "n_phi must be an integer" in err

    @pytest.mark.parametrize("section", ["top", "case"])
    @pytest.mark.parametrize("n_phi", [1, 25, 400])
    def test_n_phi_out_of_range_rejected(self, tmp_path, capsys, section, n_phi):
        levels = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99]
        data = ({"n_phi": n_phi, "contour_levels": levels} if section == "top" else
                {"uncertainty": {"small": {"sigma": [0.04, 0.04, 0.04, 1e-4],
                                           "contour_levels": levels, "n_phi": n_phi}}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        code, out, err = run_cli(["validate", "--config", str(path)], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "config ok" not in out
        assert "n_phi" in err

    def test_dense_reference_grid_accepted(self):
        # n_phi = 24 over six contour levels is the densest sampling the
        # grid budget must admit.
        cfg = config_from_dict({"n_phi": 24})
        assert len(cfg.uncertainty["small"].contour_levels) == 6
        assert {spec.n_phi for spec in cfg.uncertainty.values()} == {24}
        assert config_from_dict({"n_phi": 8.0}).uncertainty["large"].n_phi == 8

    def test_invalid_sigma_shape_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"uncertainty": {"small": {"sigma": [1, 2, 3]}}})


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        env = dict(os.environ, RISKENV_LOG="error")
        proc = subprocess.run(
            [sys.executable, "-m", "riskenv.cli", "validate"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "riskenv.cli", "frobnicate"],
            capture_output=True, text=True)
        assert proc.returncode == 2
