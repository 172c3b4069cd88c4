import contextlib
import dataclasses
import io
import json
import logging
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from riskenv import bench, cli, config
from riskenv.cli import build_parser, main
from riskenv.config import (
    COVARIANCE_CASES,
    DEFAULT_SMALL_VARIANCES,
    MAX_EPISODE_STEPS,
    MAX_OTHERS,
    MAX_BETAS,
    MAX_POLICIES,
    MAX_RECORDS,
    MAX_SCENARIOS,
    ConfigError,
    RunConfig,
    ScenarioParams,
    config_from_dict,
    load_config,
)
from riskenv.rss import MAX_POSITION, MAX_SPEED, MAX_TAU, RssParams, restrictive_sentinel
from riskenv.sim import IdmParams, LateralControl, RoadParams
from riskenv.uncertainty import MAX_SIGMA, MAX_SIMPLEX_ROWS, UncertaintySpec

# Symmetric covariances with a negative eigenvalue: a 4-entry diagonal and a
# 16-entry matrix with eigenvalues 3, 1, 1 and -1.
INDEFINITE_SIGMAS = pytest.mark.parametrize("sigma", [
    [0.04, -0.04, 0.04, 1e-4],
    [1, 2, 0, 0, 2, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1],
], ids=["diagonal", "16-entry"])


def two_cpus(monkeypatch):
    """Make the process see two CPUs, whatever the host has."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


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

    def test_integer_too_long_to_convert_exit_2(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"ego": {"v": 1' + "0" * 5000 + '}, "sigma": [0, 0, 0, 0]}')
        code, out, err = run_cli(["envelope", "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
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

    @pytest.mark.parametrize("where,index", [("ego", "ego"), ("agent", "agents[0]")])
    @pytest.mark.parametrize("key,value", [
        ("v", 1e200), ("v", MAX_SPEED * (1 + 2**-52)), ("x", -1e300), ("y", 2 * MAX_POSITION)])
    def test_out_of_range_state_exit_2(self, envelope_input, capsys, where, index, key,
                                       value):
        # Before the bounds, v = 1e200 printed an overflow warning and exited 0
        # with the unrestricted envelope.
        ego = {"x": 0, "y": 0, "theta": 0, "v": 15}
        agent = {"x": 20, "y": 3.5, "theta": 0, "v": 15}
        (ego if where == "ego" else agent)[key] = value
        path = envelope_input({"ego": ego, "agents": [agent],
                               "sigma": [0.04, 0.04, 0.04, 1e-4]})
        code, out, err = run_cli(["envelope", "--input", path], capsys)
        assert (code, out) == (2, "")
        assert f"invalid {index}: {key} must be finite" in err
        assert "Warning" not in err

    def test_states_at_the_bounds_accepted(self, envelope_input, capsys):
        path = envelope_input({
            "ego": {"x": -MAX_POSITION, "y": 0, "theta": 0, "v": MAX_SPEED},
            "agents": [{"x": MAX_POSITION, "y": -MAX_POSITION, "v": 0}],
            "sigma": [0.04, 0.04, 0.04, 1e-4]})
        code, out, err = run_cli(["envelope", "--input", path], capsys)
        assert code == 0 and err == ""

    @pytest.mark.parametrize("tau", [0, -1, float("nan"), float("inf"), "fast", "0.2",
                                     1e160, math.nextafter(MAX_TAU, math.inf)])
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



    @pytest.mark.parametrize("tau", [5e-324, MAX_TAU])
    def test_tau_at_the_bounds_accepted(self, envelope_input, capsys, tau):
        path = envelope_input({
            "ego": {"x": 0, "y": 0, "theta": 0, "v": 17},
            "agents": [{"x": 28, "y": 0, "theta": 0, "v": 15}],
            "sigma": [0.04, 0.04, 0.04, 1e-4],
            "tau": tau,
        })
        code, out, err = run_cli(["envelope", "--input", path], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)
    def test_non_finite_sigma_exit_2(self, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text('{"ego": {"v": 15}, "agents": [{"x": 20, "v": 15}], '
                        '"sigma": [Infinity, 0.04, 0.04, 1e-4]}')
        code, out, err = run_cli(["envelope", "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "sigma[0] must be finite" in err

    def test_sigma_beyond_the_bound_exit_2(self, envelope_input, capsys):
        # Before the bound, a + a.T overflowed in eigendecompose and the query
        # exited 0 with NaN contour rows.
        path = envelope_input({"ego": {"v": 15}, "agents": [{"x": 20, "y": 3.5, "v": 15}],
                               "sigma": [1e308, 1e308, 1e308, 1e-4]})
        code, out, err = run_cli(["envelope", "--input", path], capsys)
        assert (code, out) == (2, "")
        assert f"invalid input: sigma entries must be finite and at most {MAX_SIGMA:g}" in err
        assert "Warning" not in err

    def test_sigma_at_the_bound_accepted(self, envelope_input, capsys):
        path = envelope_input({"ego": {"v": 15}, "agents": [{"x": 20, "y": 3.5, "v": 15}],
                               "sigma": [MAX_SIGMA] * 4})
        code, out, _ = run_cli(["envelope", "--input", path], capsys)
        assert code == 0
        assert json.loads(out)["switch_decision"] is True

    @pytest.mark.parametrize("text", ["NaN", "-Infinity", "1e400", "-1" + "0" * 400],
                             ids=["nan", "-inf", "float-overflow", "int-overflow"])
    def test_non_finite_agent_names_full_key(self, tmp_path, capsys, text):
        path = tmp_path / "input.json"
        path.write_text('{"ego": {"v": 15}, "sigma": [0.04, 0.04, 0.04, 1e-4], '
                        '"agents": [{"x": 20, "v": 15}, {"x": ' + text + ', "v": 15}]}')
        code, out, err = run_cli(["envelope", "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "agents[1].x must be finite" in err

    @INDEFINITE_SIGMAS
    def test_indefinite_sigma_exit_2(self, envelope_input, capsys, sigma):
        path = envelope_input({"ego": {"v": 15}, "agents": [{"x": 20, "v": 15}],
                               "sigma": sigma})
        code, out, err = run_cli(["envelope", "--input", path], capsys)
        assert code == 2
        assert out == ""
        assert "error: sigma must be positive semi-definite" in err

    def test_one_decomposition_per_query(self, envelope_input, capsys,
                                         eigendecompose_calls):
        path = envelope_input({"ego": {"v": 17}, "agents": [{"x": 20, "y": 3.5, "v": 15}],
                               "sigma": [0.04, 0.01, 0, 0, 0.01, 0.04, 0, 0,
                                         0, 0, 0.04, 0, 0, 0, 0, 1e-4]})
        for calls in (1, 2):
            assert run_cli(["envelope", "--input", path], capsys)[0] == 0
            assert len(eigendecompose_calls) == calls

    def test_one_kernel_call_per_row_budget(self, envelope_input, capsys, monkeypatch):
        from riskenv import prob_envelope

        rows = []
        kernel = prob_envelope.pair_analysis_batch

        def recorded(ego, ox, *args):
            rows.append(len(ox))
            return kernel(ego, ox, *args)

        monkeypatch.setattr(prob_envelope, "pair_analysis_batch", recorded)
        # Half a lane across, where the broad phase certifies none of them.
        agents = [{"x": 10.0 * j, "y": 1.0, "theta": 0, "v": 15} for j in range(1, 4)]
        for n_phi, n_agents, calls in ((8, 2, 1), (8, 3, 1), (12, 3, 2)):
            rows.clear()
            path = envelope_input({"ego": {"v": 17}, "agents": agents[:n_agents],
                                   "sigma": [0.04, 0.04, 0.04, 1e-4], "n_phi": n_phi})
            assert run_cli(["envelope", "--input", path], capsys)[0] == 0
            assert len(rows) == calls
            assert max(rows) <= prob_envelope.ROW_BUDGET

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


def _beyond(bound: float) -> float:
    return math.nextafter(bound, math.copysign(math.inf, bound))


NON_FINITE = [math.nan, math.inf, -math.inf]
POSITIONS = NON_FINITE + [_beyond(MAX_POSITION), _beyond(-MAX_POSITION), 1e300]
# (path into the envelope input, a value outside that field's range)
CORRUPTIONS = [
    *[((owner, key), value) for owner in ("ego", "agents") for key, values in (
        ("x", POSITIONS), ("y", POSITIONS),
        ("theta", NON_FINITE + [_beyond(math.pi), -math.pi, 7.0]),
        ("v", NON_FINITE + [-5e-324, -1.0, _beyond(MAX_SPEED), 1e300])) for value in values],
    *[(("sigma",), v) for v in NON_FINITE + [-1.0, _beyond(MAX_SIGMA)]],
    *[(("beta",), v) for v in NON_FINITE + [-1e-300, _beyond(1.0)]],
    *[(("tau",), v) for v in NON_FINITE + [0.0, -1.0, _beyond(MAX_TAU)]],
    *[(("n_phi",), v) for v in (1, 0, -3, 10**6)],
    *[(("contour_levels",), v) for v in NON_FINITE + [0.0, 1.0, -0.5]],
]


class TestEnvelopeFailsClosed:
    """An envelope input with a non-finite or out-of-range value exits 2, or
    gives the most restrictive envelope; it never warns and exits 0."""

    state = st.fixed_dictionaries({"x": st.floats(-50.0, 50.0), "y": st.floats(-2.0, 5.0),
                                   "theta": st.floats(-0.3, 0.3), "v": st.floats(0.0, 40.0)})

    # Every corruption, each with a few drawn inputs and maybe a second one.
    @pytest.mark.parametrize("corruption", CORRUPTIONS, ids=repr)
    @given(ego=state, agents=st.lists(state, min_size=1, max_size=3), index=st.integers(0, 3),
           more=st.lists(st.tuples(st.sampled_from(CORRUPTIONS), st.integers(0, 3)),
                         max_size=1))
    @settings(max_examples=3, deadline=None, phases=set(Phase) - {Phase.shrink})
    def test_invalid_values_exit_2_or_fail_closed(self, corruption, ego, agents, index, more):
        payload = {"ego": ego, "agents": agents, "sigma": [0.04, 0.04, 0.04, 1e-4],
                   "beta": 0.1, "tau": 0.2, "n_phi": 6, "contour_levels": [0.5, 0.9]}
        for (path, value), index in [(corruption, index), *more]:
            if path[0] in ("ego", "agents"):  # one field of one state
                target = ego if path[0] == "ego" else agents[index % len(agents)]
                target[path[1]] = value
            elif path[0] in ("sigma", "contour_levels"):  # one entry of a list
                payload[path[0]][index % len(payload[path[0]])] = value
            else:
                payload[path[0]] = value
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as seen, \
                contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            warnings.simplefilter("always")
            path = os.path.join(tmp, "input.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            code = main(["envelope", "--input", path])
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().startswith("error: ")
            return
        assert code == 0
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
        data = json.loads(out.getvalue())
        sentinel = restrictive_sentinel(RssParams())
        assert data["probabilistic_envelope"] == {
            k: getattr(sentinel, k) for k in ("a_lon_min", "a_lon_max", "a_lat_min",
                                              "a_lat_max")}


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

    def test_parallel_jobs_identical_output(self, tmp_path, capsys, monkeypatch):
        two_cpus(monkeypatch)
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


class TestJobsBound:
    @pytest.mark.parametrize("jobs", ["0", "-1", "3", "100000"])
    def test_out_of_range_exit_2_before_any_pool(self, tmp_path, monkeypatch, capsys,
                                                 jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        two_cpus(monkeypatch)
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(["benchmark", f"--jobs={jobs}", "--policies", "Simplex"],
                               capsys)
        assert code == 2
        assert f"--jobs must be in [1, 2], got {jobs}" in err
        assert not (tmp_path / "results").exists()

    def test_available_cpus_is_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        assert cli.available_cpus() == 3


class TestImportsOnDemand:
    def test_envelope_process_leaves_out_what_it_does_not_run(self, envelope_input):
        query = envelope_input({"ego": {"v": 15.0}, "agents": [{"x": 12.0, "y": 3.5, "v": 14.0}],
                                "sigma": list(DEFAULT_SMALL_VARIANCES)})
        child = ("import sys\n"
                 "from riskenv.cli import main\n"
                 "assert main(sys.argv[1:]) == 0\n"
                 "print(sorted({'multiprocessing', 'logging', 'riskenv.bench'} & set(sys.modules)),"
                 " file=sys.stderr)\n")
        env = {key: value for key, value in os.environ.items() if key != "RISKENV_LOG"}
        proc = subprocess.run([sys.executable, "-c", child, "envelope", "--input", query],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, "[]\n")
        assert set(json.loads(proc.stdout)) >= {"probabilistic_envelope", "switch_decision"}

    def test_benchmark_jobs_2_starts_its_pool(self, tmp_path, capsys, monkeypatch):
        two_cpus(monkeypatch)
        started, pool = [], multiprocessing.Pool

        def recorded(processes):
            started.append(processes)
            return pool(processes)

        monkeypatch.setattr(multiprocessing, "Pool", recorded)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": {"n_scenarios": 2}}))
        code, _, _ = run_cli(["benchmark", "--config", str(cfg_path), "--jobs", "2",
                              "--out", str(tmp_path), "--policies", "Simplex",
                              "--betas", "0.1", "--covariance", "none"], capsys)
        assert (code, started) == (0, [2])
        assert (tmp_path / "rates.csv").exists()


class TestLogLevel:
    @pytest.mark.parametrize("level", ["info", "debug"])
    def test_set_on_every_call(self, tmp_path, capsys, monkeypatch, level):
        # logging.basicConfig did nothing once the root logger had a handler,
        # so only a process's first call set the level.
        root = logging.getLogger()
        root_state = (root.level, list(root.handlers))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": {"n_scenarios": 2}}))
        argv = ["benchmark", "--config", str(cfg_path), "--out", str(tmp_path),
                "--policies", "Simplex", "--betas", "0.1", "--covariance", "none"]
        line = "INFO riskenv: benchmark: 2 scenarios, 1 policies, 1 cases, 1 betas\n"
        logger = logging.getLogger("riskenv")
        try:
            for env, logged in (("error", False), (level, True), ("error", False)):
                monkeypatch.setenv("RISKENV_LOG", env)
                code, _, err = run_cli(argv, capsys)
                assert (code, line in err) == (0, logged)
            assert (root.level, root.handlers) == root_state
        finally:
            logger.handlers.clear()
            logger.setLevel(logging.NOTSET)
            logger.propagate = True


@pytest.mark.usefixtures("fresh_memos")
class TestDefaultSpecMemo:
    def test_loads_share_the_default_specs(self):
        first, second = load_config(None), config_from_dict({"tau": 0.3})
        for key in ("rss", "idm", "road", "scenario", "lateral"):
            assert getattr(first, key) is getattr(second, key)
        assert first.uncertainty is not second.uncertainty
        for case in COVARIANCE_CASES:
            assert first.uncertainty[case] is second.uncertainty[case]
        other = config_from_dict({"n_phi": 6})
        assert other.uncertainty["small"] is not first.uncertainty["small"]
        assert other.uncertainty["small"].n_phi == 6

    def test_an_own_case_leaves_the_defaults(self):
        default = RunConfig().uncertainty
        cfg = config_from_dict({"uncertainty": {"small": {"sigma": [0.1, 0.1, 0.1, 1e-3]}}})
        assert cfg.uncertainty["small"] is not default["small"]
        assert cfg.uncertainty["large"] is default["large"]
        cfg.uncertainty.clear()  # a config's dict is its own
        assert RunConfig().uncertainty == default
        assert default["small"].sigma.diagonal().tolist() == list(DEFAULT_SMALL_VARIANCES)

    def test_bounded(self):
        memo = config._default_specs
        size = memo.cache_info().maxsize
        assert size is not None and size <= 8
        for n_phi in range(2, 2 + 2 * size):
            config_from_dict({"n_phi": n_phi})
            assert memo.cache_info().currsize <= size

    @pytest.mark.parametrize("data, message", [
        ({"n_phi": 1}, "n_phi must be in"),
        ({"contour_levels": [0.5, 0.4]}, "strictly increasing"),
        ({"contour_levels": [0.5, 1.0]}, "strictly increasing"),
    ])
    def test_invalid_raises_on_every_call(self, data, message):
        for _ in range(3):
            with pytest.raises(ConfigError, match=message):
                config_from_dict(data)
        assert config._default_specs.cache_info().currsize == 0


class TestPositiveSemiDefiniteSigma:
    @INDEFINITE_SIGMAS
    @pytest.mark.parametrize("argv", [["validate"], ["simulate"],
                                      ["benchmark", "--policies", "Simplex"]])
    def test_config_exit_2(self, tmp_path, monkeypatch, capsys, argv, sigma):
        monkeypatch.chdir(tmp_path)  # simulate and benchmark write to ./results
        (tmp_path / "cfg.json").write_text(
            json.dumps({"uncertainty": {"small": {"sigma": sigma}}}))
        code, out, err = run_cli(argv + ["--config", "cfg.json"], capsys)
        assert code == 2
        assert "config ok" not in out
        assert "uncertainty.small.sigma must be positive semi-definite" in err
        assert not (tmp_path / "results").exists()

    def test_default_specs_not_decomposed_at_load(self, eigendecompose_calls):
        # RunConfig() runs once per envelope query.
        RunConfig()
        load_config(None)
        config_from_dict({"n_phi": 6, "contour_levels": [0.5, 0.9]})
        assert eigendecompose_calls == []
        config_from_dict({"uncertainty": {"large": {"sigma": [0.1, 0.1, 0.1, 1e-3]}}})
        assert len(eigendecompose_calls) == 1


class TestScenarioBounds:
    @pytest.mark.parametrize("config,key", [
        ({"scenario": {"n_scenarios": 1000000000}}, "scenario: n_scenarios"),
        ({"scenario": {"n_scenarios": MAX_SCENARIOS + 1}}, "scenario: n_scenarios"),
        ({"scenario": {"horizon": 1e12}}, "scenario: horizon"),
        ({"scenario": {"dt": 1e-12}}, "scenario: dt"),
        ({"scenario": {"n_others": MAX_OTHERS + 1}}, "scenario: n_others"),
        ({"scenario": {"speed_max": MAX_SPEED + 0.5}}, "scenario: speed_max"),
        ({"scenario": {"speed_min": 1e200, "speed_max": 1e200}}, "scenario: speed_min"),
        # Each of these used to pass validate and then crash simulate with
        # exit 1 and a message that named no key.
        ({"road": {"lane_width": 1e300}}, "road: lane_width"),
        ({"idm": {"a": 1e300}}, "idm: a"),
        ({"idm": {"T": 1e300}}, "idm: T"),
        ({"idm": {"v0": 1e-300}}, "idm: v0"),
        ({"scenario": {"merge_lookahead": 1e300}}, "scenario: merge_lookahead"),
        ({"scenario": {"merge_lookahead": 1e7}}, "scenario: merge_lookahead"),
        ({"scenario": {"gap_max": 1e300}}, "scenario: gap_max"),
        ({"scenario": {"speed_min": 1e-300, "speed_max": 1e-300}}, "scenario: speed_min"),
        ({"scenario": {"dt": 1e5, "horizon": 1e5}}, "scenario: dt"),
    ])
    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["simulate", "--scenario", "0", "--policy", "Simplex", "--covariance", "small"],
    ], ids=["validate", "simulate"])
    def test_too_large_rejected(self, tmp_path, capsys, config, key, argv):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(argv + ["--config", str(path)], capsys)
        assert (code, out) == (2, "")
        assert f"invalid {key} must be in" in err

    def test_desired_speed_above_the_bound_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"idm": {"v0": MAX_SPEED + 1.0}}))
        code, _, err = run_cli(["validate", "--config", str(path)], capsys)
        assert code == 2 and "invalid idm: v0 must be in" in err

    @pytest.mark.parametrize("config", [
        {"scenario": {"n_scenarios": 5, "speed_min": 99.5, "speed_max": 100.0}},
        {"scenario": {"n_scenarios": 5},
         "uncertainty": {"small": {"sigma": [0.04, 0.04, 10000.0, 1e-4]}}},
    ], ids=["speeds-at-the-bound", "large-speed-variance"])
    @pytest.mark.parametrize("argv", [
        ["benchmark", "--policies", "Simplex", "--covariance", "small"],
        ["simulate", "--scenario", "1", "--policy", "Simplex", "--covariance", "small"],
    ], ids=["benchmark", "simulate"])
    def test_observed_states_stay_in_bounds(self, tmp_path, monkeypatch, capsys, config,
                                            argv):
        # An observed speed used to pass MAX_SPEED under noise, and the run
        # exited 1 on a config that validate accepts.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert run_cli(["validate", "--config", "cfg.json"], capsys)[0] == 0
        code, _, err = run_cli(argv + ["--config", "cfg.json"], capsys)
        assert (code, err) == (0, "")

    def test_sigma_beyond_the_bound_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"uncertainty": {"large": {
            "sigma": [0.04, 0.04, 2 * MAX_SIGMA, 1e-4]}}}))
        code, out, err = run_cli(["validate", "--config", str(path)], capsys)
        assert (code, out) == (2, "")
        assert "invalid uncertainty.large: sigma entries must be finite and at most" in err

    def test_bounds_admitted(self):
        sp = config_from_dict({"scenario": {
            "n_scenarios": MAX_SCENARIOS, "n_others": MAX_OTHERS,
            "dt": 0.5, "horizon": 0.5 * MAX_EPISODE_STEPS}}).scenario
        assert (sp.n_scenarios, sp.n_others) == (MAX_SCENARIOS, MAX_OTHERS)
        assert config_from_dict({"scenario": {"speed_max": MAX_SPEED}}).scenario.speed_max \
            == MAX_SPEED
        defaults = RunConfig().scenario
        assert defaults.horizon / defaults.dt <= MAX_EPISODE_STEPS


class TestRssParamBounds:
    @pytest.mark.parametrize("rss,key", [
        ({"a_lon_limit": 1e300}, "a_lon_limit"),
        ({"rho": 1e300}, "rho"),
        ({"a_max_accel_lon": 1e200}, "a_max_accel_lon"),
        ({"b_min_brake_lon": 1e-308, "b_max_brake_lon": 1e-308}, "b_min_brake_lon"),
        ({"b_max_brake_lon": 1e-308}, "b_max_brake_lon"),
        ({"width": 1e300}, "width"),
    ])
    def test_out_of_range_rejected(self, tmp_path, capsys, rss, key):
        # Before the bounds, validate printed "config ok" for each of these,
        # and the kernel overflowed on several.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rss": rss}))
        code, out, err = run_cli(["validate", "--config", str(path)], capsys)
        assert (code, out) == (2, "")
        assert f"invalid rss: {key} must be in" in err

    def test_bounds_named_by_envelope(self, tmp_path, envelope_input, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"rss": {"a_max_accel_lat": 1e200}}))
        path = envelope_input({"ego": {"v": 100}, "agents": [{"x": 20, "y": 3.5, "v": 15}],
                               "sigma": [0.04, 0.04, 0.04, 1e-4]})
        code, out, err = run_cli(["envelope", "--config", str(config), "--input", path],
                                 capsys)
        assert (code, out) == (2, "")
        assert "invalid rss: a_max_accel_lat must be in" in err and "Warning" not in err


# The parameter classes by their RunConfig field, and the declared range of
# each numeric field by its dotted key (None if it declares none).
PARAM_SECTIONS = {"rss": RssParams, "idm": IdmParams, "road": RoadParams,
                  "lateral": LateralControl, "scenario": ScenarioParams}
FIELD_BOUNDS = {f"{section}.{f.name}": f.metadata.get("bounds")
                for section, cls in PARAM_SECTIONS.items() for f in dataclasses.fields(cls)
                if f.type in ("float", "int", "float | None")}
# RunConfig's own numbers, by name.
RUN_BOUNDS = {f.name: f.metadata.get("bounds") for f in dataclasses.fields(RunConfig)
              if f.type in ("float", "int")}
# The fields declared int: a value that is not an integer, NaN and the
# infinities included, fails that rule before its range.
INT_FIELDS = ("scenario.n_scenarios", "scenario.n_others", "simplex_samples", "seed")
# The fields whose annotation admits None (idm.v0 unset: each agent desires
# its initial speed).
NONE_FIELDS = ("idm.v0",)
# The entries of the number lists a core class reads, each built as the first
# entry of its list.
LIST_ENTRIES = {
    "betas[0]": lambda value: RunConfig(betas=(value, 0.5)),
    "contour_levels[0]": lambda value: UncertaintySpec.from_diagonal(
        DEFAULT_SMALL_VARIANCES, (value, 0.9), 8),
}


def _within(lo, hi, low_open):
    """Values in [lo, hi] ((lo, hi] if ``low_open``), both ends among them."""
    if isinstance(lo, int):
        return st.integers(lo, hi)
    ends = [math.nextafter(lo, math.inf) if low_open else lo, hi]
    return st.floats(lo, hi, exclude_min=low_open) | st.sampled_from(ends)


def _params(key: str, value):
    section, name = key.split(".")
    return section, PARAM_SECTIONS[section](**{name: value})


def _declared(key: str, value):
    """The section or RunConfig that holds ``key``, built with ``value`` there."""
    return _params(key, value)[1] if "." in key else RunConfig(**{key: value})


class TestDeclaredBounds:
    """Every numeric parameter declares its range beside its default, and
    every value inside the ranges runs."""

    def test_every_numeric_field_declares_a_range(self):
        assert len(FIELD_BOUNDS) == sum(len(dataclasses.fields(cls))
                                        for cls in PARAM_SECTIONS.values())  # all numeric
        assert [key for key, bounds in FIELD_BOUNDS.items() if bounds is None] == []

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", FIELD_BOUNDS)
    def test_non_finite_rejected(self, key, value):
        # 17 of these fields accepted a non-finite value before the ranges.  On
        # a NaN scenario.horizon run_episode never returned: classify_outcome's
        # `world.time > horizon - 1e-9` never holds.
        rule = "an integer" if key in INT_FIELDS else "in "
        with pytest.raises(ConfigError, match=f"^{key.split('.')[1]} must be {rule}"):
            _params(key, value)

    def test_run_config_numbers_declare_a_range(self):
        assert RUN_BOUNDS == {"simplex_samples": (1, MAX_SIMPLEX_ROWS, False),
                              "tau": (0.0, MAX_TAU, True), "seed": (0, math.inf, False)}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", RUN_BOUNDS)
    def test_run_config_non_finite_rejected(self, name, value):
        # A NaN seed or simplex_samples passed the hand-written checks
        # (`seed < 0`, `simplex_samples < 1`) before the declared ranges.
        rule = "an integer" if name in INT_FIELDS else "in "
        with pytest.raises(ConfigError, match=f"^{name} must be {rule}"):
            RunConfig(**{name: value})

    @pytest.mark.parametrize("key", INT_FIELDS)
    def test_fraction_rejected_on_int_fields(self, key):
        # RunConfig(seed=2.5), RunConfig(simplex_samples=2.5) and
        # ScenarioParams(n_scenarios=2.5) were accepted, then crashed inside
        # numpy with TypeError; the JSON readers rejected 2.5 all along.
        with pytest.raises(ConfigError, match=f"^{key.split('.')[-1]} must be an integer, "
                                              f"got 2.5$"):
            _declared(key, 2.5)

    @pytest.mark.parametrize("key", INT_FIELDS)
    def test_integral_float_stored_as_int_on_int_fields(self, key):
        params = _declared(key, 8.0)
        value = getattr(params, key.split(".")[-1])
        assert type(value) is int and value == 8

    @pytest.mark.parametrize("value", [True, None, "0.5"])
    @pytest.mark.parametrize("key", [*FIELD_BOUNDS, *RUN_BOUNDS])
    def test_non_number_rejected(self, key, value):
        # ScenarioParams(n_others=True), RssParams(rho=True) and
        # RunConfig(seed=True) ran as 1, though the JSON readers reject true.
        # RssParams(rho=None) was accepted and failed in the kernel with a
        # TypeError, and RssParams(rho="0.5") raised a TypeError naming no field.
        if value is None and key in NONE_FIELDS:
            assert getattr(_declared(key, None), key.split(".")[-1]) is None
            return
        with pytest.raises(ConfigError, match=f"^{key.split('.')[-1]} must be an? "
                                              f"(integer|number), got {re.escape(repr(value))}$"):
            _declared(key, value)

    @pytest.mark.parametrize("value", [True, None, "0.5"])
    @pytest.mark.parametrize("key", LIST_ENTRIES)
    def test_non_number_list_entry_rejected(self, key, value):
        # RunConfig(betas=(True,)) wrote True into rates.csv, betas=("0.5",)
        # raised a TypeError naming no field, and a contour level of "0.5" was
        # accepted.
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be a number, "
                                              f"got {re.escape(repr(value))}$"):
            LIST_ENTRIES[key](value)

    @pytest.mark.parametrize("key", [key for key in (*FIELD_BOUNDS, *RUN_BOUNDS)
                                     if key not in (*INT_FIELDS, *NONE_FIELDS)])
    def test_real_stored_as_float_on_float_fields(self, key):
        # RunConfig(tau=Fraction(1, 5)) was stored as given, and run_episode
        # then failed inside numpy; RssParams(a_lon_limit=8) kept the int.
        name = key.split(".")[-1]
        default = getattr(PARAM_SECTIONS[key.split(".")[0]]() if "." in key else RunConfig(),
                          name)
        values = [Fraction(default), np.float64(default)]
        if default.is_integer():
            values.append(int(default))
        for value in values:
            stored = getattr(_declared(key, value), name)
            assert type(stored) is float and stored == default, value

    def test_episode_runs_under_fraction_tau(self):
        cfg = RunConfig(tau=Fraction(1, 5), scenario=ScenarioParams(n_scenarios=1))
        assert type(cfg.tau) is float and cfg.tau == 0.2
        scn = bench.generate_scenarios(1, cfg.seed, cfg)[0]
        got = bench.run_episode(scn, "ProbabilisticEnvelopeRestriction", 0.1, "small", cfg)
        want = bench.run_episode(scn, "ProbabilisticEnvelopeRestriction", 0.1, "small",
                                 RunConfig(scenario=cfg.scenario))
        assert (got.outcome, got.steps, got.envelope_steps) == \
            (want.outcome, want.steps, want.envelope_steps)

    def test_fraction_beta_stored_and_written_as_float(self, tmp_path):
        cfg = RunConfig(betas=(Fraction(1, 2),), policies=("Simplex",),
                        scenario=ScenarioParams(n_scenarios=1))
        assert cfg.betas == (0.5,) and type(cfg.betas[0]) is float
        scenarios = bench.generate_scenarios(1, cfg.seed, cfg)
        rows = bench.sweep(scenarios, ["none"], cfg)
        assert bench.rows_to_csv(rows).splitlines()[1].startswith("Simplex,none,0.5,")
        # The betas of a sweep are those of its RunConfig, stored as floats.
        cfg = dataclasses.replace(cfg, betas=[Fraction(1, 2), 1])
        rows = bench.sweep(scenarios, ["none"], cfg)
        assert [line.split(",")[2] for line in bench.rows_to_csv(rows).splitlines()[1:]] \
            == ["0.5", "1.0"]

    def test_every_non_negative_seed_accepted(self):
        assert RunConfig(seed=0).seed == 0
        assert RunConfig(seed=10**400).seed == 10**400

    # Examples are whole episodes: a fixed budget keeps the property to ~2 s.
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_accepted_value_runs(self, data):
        key = data.draw(st.sampled_from([k for k in FIELD_BOUNDS if not k.startswith("rss.")]),
                        label="key")
        value = data.draw(_within(*FIELD_BOUNDS[key]), label=key)
        try:
            section, params = _params(key, value)
        except ValueError:  # a cross-field rule, with the other fields at their defaults
            return
        cfg = dataclasses.replace(RunConfig(), **{section: params})
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        result = bench.run_episode(bench.generate_scenarios(1, seed, cfg)[0], "Simplex", 0.0,
                                   "none", cfg)
        assert result.outcome in ("Success", "Collision", "Timeout")
        assert result.steps <= cfg.scenario.horizon / cfg.scenario.dt + 1

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_two_accepted_values_run(self, data):
        # Two declared fields, possibly of different sections, each inside its
        # range: a cross-field rule rejects the pair at construction, or an
        # episode of any policy on the zero covariance ends in an outcome.
        bounds = FIELD_BOUNDS | {"simplex_samples": RUN_BOUNDS["simplex_samples"],
                                 "tau": RUN_BOUNDS["tau"]}  # no episode reads the seed
        keys = data.draw(st.lists(st.sampled_from(list(bounds)), min_size=2, max_size=2,
                                  unique=True), label="keys")
        values = {key: data.draw(_within(*bounds[key]), label=key) for key in keys}
        sections = {}
        for key, value in values.items():
            section, name = key.split(".") if "." in key else (None, key)
            sections.setdefault(section, {})[name] = value
        try:
            cfg = RunConfig(**sections.pop(None, {}), **{
                section: PARAM_SECTIONS[section](**fields) for section, fields in sections.items()})
        except ValueError:  # a cross-field rule
            return
        kind = data.draw(st.sampled_from(bench.POLICY_NAMES), label="policy")
        scenario = bench.generate_scenarios(1, data.draw(st.integers(0, 2**32 - 1)), cfg)[0]
        result = bench.run_episode(scenario, kind, 0.1, "none", cfg)
        assert result.outcome in ("Success", "Collision", "Timeout")
        assert result.steps <= cfg.scenario.horizon / cfg.scenario.dt + 1


class TestSequenceFields:
    """betas, policies and contour_levels take a sequence, not a string, and
    the sweep's two lists have a ceiling; errors name the field."""

    @pytest.mark.parametrize("build, field", [
        (lambda v: RunConfig(betas=v), "betas"),
        (lambda v: RunConfig(policies=v), "policies"),
        (lambda v: UncertaintySpec.from_diagonal(DEFAULT_SMALL_VARIANCES, v, 8),
         "contour_levels"),
        (lambda v: UncertaintySpec(np.diag(DEFAULT_SMALL_VARIANCES), v, 8), "contour_levels"),
    ])
    @pytest.mark.parametrize("value", [0.5, "Simplex", None, {0.5}, np.float64(0.5)])
    def test_non_sequence_names_the_field(self, build, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a sequence"):
            build(value)

    def test_sequences_are_stored_as_tuples(self):
        cfg = RunConfig(betas=[0.5, np.float64(0.25)], policies=["Simplex"])
        assert (cfg.betas, cfg.policies) == ((0.5, 0.25), ("Simplex",))
        spec = UncertaintySpec.from_diagonal(DEFAULT_SMALL_VARIANCES, np.array([0.5, 0.9]), 4)
        assert spec.contour_levels == (0.5, 0.9)

    @pytest.mark.parametrize("key, most, item", [
        ("betas", MAX_BETAS, 0.5), ("policies", MAX_POLICIES, "Simplex")])
    def test_ceiling(self, key, most, item):
        assert len(getattr(RunConfig(**{key: (item,) * most}), key)) == most
        with pytest.raises(ConfigError, match=f"^{key} must hold at most {most} entries, "
                                              f"got {most + 1}$"):
            RunConfig(**{key: (item,) * (most + 1)})

    @pytest.mark.parametrize("flag, value", [
        ("--betas", ",".join(["0.5"] * (MAX_BETAS + 1))),
        ("--policies", ",".join(["Simplex"] * (MAX_POLICIES + 1)))])
    def test_cli_ceiling_exit_2_before_any_episode(self, tmp_path, monkeypatch, capsys,
                                                   flag, value):
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")
        monkeypatch.setattr(bench, "run_episode", no_episode)
        code, out, err = run_cli(["benchmark", flag, value, "--out", str(tmp_path / "r")],
                                 capsys)
        assert (code, out) == (2, "")
        assert f"{flag[2:]} must hold at most" in err
        assert not (tmp_path / "r").exists()

    def test_record_ceiling(self):
        # The default grid of 96 cells holds at MAX_SCENARIOS; the two list
        # ceilings together (768 cells) were about 0.9 GB of results.json.
        most = ScenarioParams(n_scenarios=MAX_SCENARIOS)
        cfg = RunConfig(scenario=most)
        assert len(cfg.policies) * 3 * len(cfg.betas) * MAX_SCENARIOS == 960_000 <= MAX_RECORDS
        with pytest.raises(ConfigError, match=r"^policies x covariance cases x betas x "
                                              r"scenario.n_scenarios must be <= 1000000 "
                                              r"records, got 8 x 3 x 32 x 10000$"):
            RunConfig(scenario=most, policies=("Simplex",) * MAX_POLICIES,
                      betas=(0.5,) * MAX_BETAS)
        with pytest.raises(ConfigError, match="got 4 x 3 x 9 x 10000$"):
            dataclasses.replace(cfg, betas=cfg.betas + (0.5,))

    def test_cli_record_ceiling_exit_2_before_any_episode(self, tmp_path, monkeypatch,
                                                          capsys):
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")
        monkeypatch.setattr(bench, "run_episode", no_episode)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": {"n_scenarios": MAX_SCENARIOS}}))
        code, out, err = run_cli(["benchmark", "--config", str(path), "--betas",
                                  ",".join(["0.5"] * 9), "--out", str(tmp_path / "r")], capsys)
        assert (code, out) == (2, "")
        assert "must be <= 1000000 records, got 4 x 3 x 9 x 10000" in err
        assert not (tmp_path / "r").exists()


class TestValidateCommand:
    def test_default_config_ok(self, capsys):
        code, out, _ = run_cli(["validate"], capsys)
        assert code == 0
        assert "ok" in out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        for data, key in (({"rss": {"rho": 0.1, "wheelbase": 2.5}}, "rss.wheelbase"),
                          ({"road": {"n_lanes": 3}}, "road.n_lanes")):
            path.write_text(json.dumps(data))
            code, _, err = run_cli(["validate", "--config", str(path)], capsys)
            assert code == 2
            assert key in err

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
        ('{"uncertainty": {"small": {"sigma": [0.04, NaN, 0.04, 1e-4]}}}',
         "uncertainty.small.sigma[1]"),
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
        ({"policies": ["Simplex", "X"]}, "policies[1]"),
        ({"betas": [0.1, 2.0]}, "betas[1]"),
        ({"simplex_samples": 1000000000}, "simplex_samples"),
        ({"simplex_samples": 50001}, "simplex_samples"),
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

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0, 1e160,
                                     math.nextafter(MAX_TAU, math.inf)])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ConfigError, match="tau"):
            RunConfig(tau=tau)

    def test_tau_bound_named_by_validate(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"tau": 1e160}')
        code, out, err = run_cli(["validate", "--config", str(path)], capsys)
        assert (code, out) == (2, "")
        assert f"tau must be in (0, {MAX_TAU:g}], got 1e+160" in err
        path.write_text(json.dumps({"tau": MAX_TAU}))
        assert run_cli(["validate", "--config", str(path)], capsys)[:2] == (0, "config ok\n")

    @pytest.mark.parametrize("key", ["policies", "betas"])
    @pytest.mark.parametrize("command", ["validate", "benchmark"])
    def test_empty_list_rejected(self, tmp_path, monkeypatch, capsys, key, command):
        monkeypatch.chdir(tmp_path)  # benchmark writes to ./results
        (tmp_path / "cfg.json").write_text(
            json.dumps({key: [], "scenario": {"n_scenarios": 2}}))
        code, out, err = run_cli([command, "--config", "cfg.json"], capsys)
        assert (code, out) == (2, "")
        assert f"{key} must be non-empty" in err
        assert not (tmp_path / "results").exists()

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


class TestOrderedPairs:
    @pytest.mark.parametrize("section,lo,hi", [
        ("rss", "b_min_brake_lon", "b_max_brake_lon"),
        ("scenario", "speed_min", "speed_max"),
        ("scenario", "gap_min", "gap_max"),
        ("road", "goal_x_min", "goal_x_max"),
        ("road", "goal_speed_min", "goal_speed_max"),
    ])
    def test_inverted_pair_exit_2(self, tmp_path, capsys, section, lo, hi):
        # Each pair bounds a range: inverted, it admits nothing (an inverted
        # goal region makes in_goal unreachable).  Equal ends are a range.
        default = getattr(RunConfig(), section)
        path = tmp_path / "cfg.json"
        for low, high, code in ((getattr(default, hi), getattr(default, lo), 2),
                                (getattr(default, lo), getattr(default, lo), 0)):
            path.write_text(json.dumps({section: {lo: low, hi: high}}))
            got, _, err = run_cli(["validate", "--config", str(path)], capsys)
            assert got == code
            if code:
                assert err == f"error: invalid {section}: {lo} must not exceed {hi}\n"


class TestUnreadablePaths:
    @pytest.mark.parametrize("command", [
        ["validate", "--config"],
        ["simulate", "--config"],
        ["benchmark", "--config"],
        ["envelope", "--input", "QUERY", "--config"],
        ["envelope", "--input"],
    ])
    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_exit_2_naming_the_path(self, tmp_path, envelope_input, capsys, command, kind):
        # Any path open() refuses is a usage error, not only a missing one.
        path = str(tmp_path if kind == "directory" else tmp_path / "missing.json")
        query = envelope_input({"ego": {"v": 15.0}, "sigma": [0.0, 0.0, 0.0, 0.0]})
        argv = [query if arg == "QUERY" else arg for arg in command] + [path]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot read {path}: ")


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
