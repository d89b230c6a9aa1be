import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path
from unittest.mock import ANY

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coordsim import cli
from coordsim.simharness import MAX_SYNTHESIS_N, ScenarioConfig
from reference import default_bidirectional_config


@pytest.fixture()
def directed_path(tmp_path):
    path = tmp_path / "directed.json"
    path.write_text(json.dumps(ScenarioConfig(t_max=2.0).to_dict()))
    return str(path)


@pytest.fixture()
def bidirectional_path(tmp_path):
    path = tmp_path / "bidirectional.json"
    path.write_text(json.dumps(default_bidirectional_config(t_max=2.0).to_dict()))
    return str(path)


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg.to_dict()))
    return str(path)


class TestValidate:
    def test_default_ok(self, directed_path, capsys):
        assert cli.main(["validate", "--config", directed_path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_json_roundtrip(self, directed_path, capsys):
        assert cli.main(["validate", "--config", directed_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert any(c["name"] == "jointly_connected" for c in doc["checks"])

    def test_disconnected_family_names_assumption(self, tmp_path, capsys):
        from coordsim.digraph import Digraph

        cfg = ScenarioConfig()
        cfg.topology_family = [Digraph(5, [(1, 3)]), Digraph(5, [(2, 3)])]
        cfg.mu_list = [0.1, 0.1]
        path = write_cfg(tmp_path, "disc.json", cfg)
        assert cli.main(["validate", "--config", path]) == 1
        assert "jointly connected" in capsys.readouterr().out

    def test_mu_at_boundary_rejected(self, tmp_path, default_cert, capsys):
        cap = 1.0 / default_cert.lambda_max_p
        cfg = ScenarioConfig(mu_list=[cap, 0.2, 0.2])
        path = write_cfg(tmp_path, "mu.json", cfg)
        assert cli.main(["validate", "--config", path]) == 1
        assert "admissible interval" in capsys.readouterr().out

    def test_malformed_json_positions(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 5\n "mode": "directed-switched"}')
        assert cli.main(["validate", "--config", str(path)]) == 1
        out = capsys.readouterr().out
        assert "line" in out and "column" in out


class TestAnalyze:
    def test_human_output(self, directed_path, capsys):
        assert cli.main(["analyze", "--config", directed_path]) == 0
        out = capsys.readouterr().out
        assert "dwell time bound" in out
        assert "P spectrum" in out

    def test_json_document(self, directed_path, capsys):
        assert cli.main(["analyze", "--config", directed_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for key in (
            "p_spectrum",
            "h_spectra",
            "dwell_bound",
            "gues_overshoot",
            "max_laplacian_norm",
            "rate_bound",
            "gain_report",
        ):
            assert key in doc
        assert doc["dwell_bound"] > 0
        assert len(doc["h_spectra"]) == 3

    def test_single_topology_closed_form(self, tmp_path, capsys):
        # complete pair on two nodes: reduced Laplacian is the scalar 2,
        # so the Lyapunov solution is exactly 0.25
        from coordsim.digraph import Digraph

        cfg = ScenarioConfig(
            n=2,
            topology_family=[Digraph(2, [(1, 2), (2, 1)])],
            mu_list=[0.5],
            phi0=[1.0],
            traj_offsets=[4.0, 2.0][:2],
            traj_angles=[-1.0471975511965979, -0.5235987755982988],
        )
        path = write_cfg(tmp_path, "single.json", cfg)
        assert cli.main(["analyze", "--config", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p_spectrum"] == pytest.approx([0.25], abs=1e-12)

    def test_disconnected_family_exit_1(self, tmp_path, capsys):
        from coordsim.digraph import Digraph

        cfg = ScenarioConfig()
        cfg.topology_family = [Digraph(5, [(1, 3)]), Digraph(5, [(2, 3)])]
        cfg.mu_list = [0.1, 0.1]
        path = write_cfg(tmp_path, "nosynth.json", cfg)
        assert cli.main(["analyze", "--config", path]) == 1

    def test_json_is_strict_with_an_infinite_bound_as_null(self, tmp_path, capsys, caplog):
        # thresholds of 1e-308 are admitted, and the right side of the
        # first gain inequality, through 1 / mu, overflows to inf
        path = shipped_with(tmp_path, {"mu_list": [1e-308] * 3})
        assert cli.main(["analyze", "--config", path, "--json"]) == 0
        doc = strict_json(capsys.readouterr().out)
        failed = [c for c in doc["gain_report"]["checks"] if not c["passed"]]
        assert [c["rhs"] for c in failed] == [None]
        assert "analyze: gain_report.checks[1].rhs is inf, written as null" in caplog.text


class TestRun:
    def test_short_run_not_arrived(self, directed_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["run", "--config", directed_path, "--out", str(out), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["arrived"] is False and doc["tau_f"] is None
        for name in ("metrics.csv", "switches.csv", "summary.json"):
            assert (out / name).exists()

    def test_deterministic_outputs(self, directed_path, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["run", "--config", directed_path, "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", directed_path, "--out", str(out2)]) == 0
        for name in ("metrics.csv", "switches.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_exit_2(self, tmp_path, capsys):
        cfg = default_bidirectional_config(
            dt=0.2, t_max=50.0, kp=1e6, kd=0.0001, accel_limit=1e12, speed_limit=1e12
        )
        path = write_cfg(tmp_path, "blowup.json", cfg)
        out = tmp_path / "boom"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().out

    def test_violation_exit_1_with_first_violation(self, tmp_path, capsys):
        cfg = ScenarioConfig(t_max=0.5, gamma_ddot_max=0.3)
        path = write_cfg(tmp_path, "tight.json", cfg)
        out = tmp_path / "tight"
        assert cli.main(["run", "--config", path, "--out", str(out), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["violation_count"] > 0
        assert doc["first_violation"].startswith(
            "feasibility violation: vehicle 1 accel bound at t=0 "
        )
        assert json.loads((out / "summary.json").read_text())["violation_count"] == (
            doc["violation_count"]
        )

    def test_invalid_config_exit_1(self, tmp_path, capsys):
        path = tmp_path / "invalid.json"
        path.write_text("{not json")
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


class TestOutArgument:
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_existing_file_refused_before_running(
        self, directed_path, bidirectional_path, tmp_path, capsys, command
    ):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        argv = {
            "run": ["run", "--config", directed_path],
            "compare": ["compare", directed_path, bidirectional_path],
        }[command]
        assert cli.main(argv + ["--out", str(taken)]) == 1
        out = capsys.readouterr()
        assert "Traceback" not in out.out + out.err
        assert "--out" in out.out
        assert taken.read_text() == "not a directory"


class TestCompare:
    def test_default_pair(self, directed_path, bidirectional_path, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = cli.main(
            ["compare", directed_path, bidirectional_path, "--out", str(out), "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["directed"]["comm_amount"] < doc["bidirectional"]["comm_amount"]
        assert (out / "comparison.json").exists()
        assert (out / "directed" / "metrics.csv").exists()
        assert (out / "bidirectional" / "metrics.csv").exists()
        # summaries embedded verbatim
        on_disk = json.loads((out / "comparison.json").read_text())
        assert on_disk["directed"] == doc["directed"]
        assert on_disk["bidirectional"] == doc["bidirectional"]

    def test_identical_configs_equal_amounts(self, directed_path, tmp_path, capsys):
        out = tmp_path / "same"
        code = cli.main(["compare", directed_path, directed_path, "--out", str(out), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["comm_ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_pair_rejected(self, directed_path, tmp_path, capsys):
        cfg = default_bidirectional_config(t_max=2.0, a=0.9)
        path = write_cfg(tmp_path, "mismatch.json", cfg)
        out = tmp_path / "bad"
        assert cli.main(["compare", directed_path, path, "--out", str(out)]) == 1
        assert "differs" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failing_side_keeps_the_sides_written_before_it(self, tmp_path, capsys):
        # each side is run and written before the next side runs: a numeric
        # failure on the baseline leaves the directed side's files, gives
        # run's exit code and message, and writes no comparison.json
        directed = shipped_with(tmp_path, {"t_max": 2.0})
        cfg = default_bidirectional_config(
            dt=0.2, t_max=50.0, kp=1e6, kd=0.0001, accel_limit=1e12, speed_limit=1e12
        )
        blowup = write_cfg(tmp_path, "blowup.json", cfg)
        assert cli.main(["run", "--config", blowup, "--out", str(tmp_path / "run")]) == 2
        message = capsys.readouterr().out
        assert message.startswith("numeric failure: non-finite gamma[(0,)] at t=0.4")
        out = tmp_path / "cmp"
        assert cli.main(["compare", directed, blowup, "--out", str(out)]) == 2
        assert capsys.readouterr().out == message
        written = sorted(p.name for p in (out / "directed").iterdir())
        assert written == ["metrics.csv", "summary.json", "switches.csv"]
        assert list((out / "bidirectional").iterdir()) == []
        assert not (out / "comparison.json").exists()


class TestJsonDocuments:
    # every document on stdout is strict JSON with sorted keys and an
    # indent of two: the text is its own canonical form
    @pytest.mark.parametrize("command", ["validate", "analyze", "run", "compare", "refusal"])
    def test_stdout_is_strict_sorted_and_indented(
        self, directed_path, bidirectional_path, tmp_path, capsys, command
    ):
        out = str(tmp_path / "out")
        argv = {
            "validate": ["validate", "--config", directed_path],
            "analyze": ["analyze", "--config", directed_path],
            "run": ["run", "--config", directed_path, "--out", out],
            "compare": ["compare", directed_path, bidirectional_path, "--out", out],
            "refusal": ["run", "--config", str(tmp_path / "missing.json"), "--out", out],
        }[command]
        with warnings.catch_warnings():  # the baseline's window outlasts the run
            warnings.simplefilter("ignore", UserWarning)
            assert cli.main(argv + ["--json"]) == (1 if command == "refusal" else 0)
        text = capsys.readouterr().out
        assert text == json.dumps(strict_json(text), indent=2, sort_keys=True) + "\n"


SHIPPED = Path(__file__).resolve().parents[1] / "configs"
NAN, INF = float("nan"), float("inf")
# (field named in the refusal, override of the shipped directed config)
REFUSED = [
    ("a", {"a": NAN}),
    ("gamma_ddot_max", {"gamma_ddot_max": NAN}),
    ("t_max", {"t_max": INF}),
    ("n", {"n": "5"}),
    ("dt", {"dt": 1e-300}),
    ("t_f", {"t_f": -1}),
    ("mu_list", {"mu_list": [0.5] * 3}),
    ("phi0", {"phi0": [NAN, 1, 1, 1]}),
    ("vehicle", {"gusts": [{"vehicle": "1", "accel": [0, 1, 0], "window": [1, 2]}]}),
    pytest.param(
        "gusts[0].vehicle",
        {"gusts": [{"vehicle": 9, "accel": [0, 1, 0], "window": [1, 2]}]},
        id="gust-vehicle-outside-fleet",
    ),
    pytest.param(
        "gusts[1].window",
        {"gusts": [{"vehicle": 1, "accel": [0, 1, 0], "window": [1, 2]},
                   {"vehicle": 2, "accel": [0, 1, 0], "window": [2, 1]}]},
        id="gust-window-decreasing",
    ),
    ("kp", {"kp": True}),
    ("traj_offsets", {"traj_offsets": [1, 2]}),
    ("ramp_start", {"ramp_start": NAN}),
    # integer literals beyond the float range
    pytest.param("dt", {"dt": 10**400}, id="dt-int-overflow"),
    pytest.param("kp", {"kp": 10**400}, id="kp-int-overflow"),
    # b dt = 2.8, past RK4's stability limit 2.7853 on the rate mode -b: a
    # run diverged instead
    ("b", {"b": 2800}),
    # gust accelerations whose squared norm overflows: the first ran into a
    # non-finite velocity (exit 2), the second into a raw numpy warning
    pytest.param(
        "gusts[0].accel",
        {"gusts": [{"vehicle": 1, "accel": [1e308, 1e308, 0], "window": [1, 2]}]},
        id="gust-accel-1e308",
    ),
    pytest.param(
        "gusts[0].accel",
        {"gusts": [{"vehicle": 1, "accel": [1e160, 0, 0], "window": [1, 2]}]},
        id="gust-accel-1e160",
    ),
    # PD gains whose first-stage command overflows: kp = 1e308 ran into a
    # non-finite gamma (exit 2) after raw numpy warnings; the others ran,
    # with vehicle.saturate scaling every overflowing command to zero
    pytest.param("kp", {"kp": 1e308}, id="kp-1e308"),
    pytest.param("kp", {"kp": 1e200}, id="kp-1e200"),
    pytest.param("kd", {"kd": 1e308}, id="kd-1e308"),
    # each term's squared norm finite, their sum's not
    pytest.param("kp, kd", {"kp": 2.5e153, "kd": 1e154}, id="kp-kd-sum"),
    # the law's rate term b (1 - rate) overflows at t = 0: the run printed
    # raw numpy warnings, then exited 2 with a non-finite gamma
    pytest.param("rate_base", {"rate_base": 1e308}, id="rate-base-1e308"),
    # ... and at t_max, after the ramp: the run "arrived" at 0.051 s, exit 0
    pytest.param(
        "rate_final",
        {"rate_final": 1e308, "ramp_start": 0.05, "ramp_duration": 0.1, "t_max": 0.2},
        id="rate-final-1e308",
    ),
    # phi0^T phi0 overflows, and phi0^T P phi0 is inf - inf: refused, after
    # a raw "invalid value encountered in matmul"
    pytest.param("phi0", {"phi0": [-1e308, 1, 1, 1]}, id="phi0-minus-1e308"),
    # a first PD term overflows through one vehicle's initial state: refused
    # under the gain's name alone
    pytest.param(
        "initial_positions",
        {"initial_positions": [[1e200] * 3] + [[-2.0, y, 0.0] for y in (-0.5, 0.0, 0.5, 1.0)]},
        id="initial-positions-1e200",
    ),
    pytest.param(
        "initial_velocities",
        {"initial_velocities": [[1e200] * 3] + [[0.0] * 3] * 4},
        id="initial-velocities-1e200",
    ),
    # a / b underflows, and the guaranteed dwell time with it: admitted, the
    # run wrote "dwell_bound": Infinity, a token strict JSON lacks
    pytest.param("a", {"a": 5e-324}, id="a-5e-324"),
    pytest.param("a", {"a": 1e-320}, id="a-1e-320"),
]


# entry 0 of the shipped directed family, each refused by the topology parser
TOPOLOGY_REFUSED = {
    "float-label": {"n": 5, "edges": [[1.9, 3], [4, 2]]},
    "string-label": {"n": 5, "edges": [["1", 3], [4, 2]]},
    "bool-label": {"n": 5, "edges": [[True, 3], [4, 2]]},
    "three-labels": {"n": 5, "edges": [[1, 3, 2], [4, 2]]},
    "float-n": {"n": 5.5, "edges": [[1, 3], [4, 2]]},
    "edges-string": {"n": 5, "edges": "13"},
    "misspelt-key": {"n": 5, "edgs": [[1, 3], [4, 2]]},
}
# (field named in the refusal, override of the shipped baseline config)
BASELINE_REFUSED = [
    ("mu_list", {"mu_list": "abc"}),
    ("phi0", {"phi0": [NAN]}),
    # windows below dt overflowed the connectivity scale 1 / (n pe_window)
    # into a raw LinAlgError after the run; a subnormal dt would let a
    # window of dt do the same
    ("pe_window", {"t_max": 0.5, "pe_window": 1e-309}),
    ("pe_window", {"t_max": 0.5, "pe_window": 1e-320}),
    (
        "dt",
        {"t_max": 1e-307, "dt": 1e-310, "pe_window": 1e-310, "random_switch_period": 1e-310},
    ),
    ("b", {"b": 2800}),
    ("kp", {"kp": 1e308}),
    # a lambda overflows, so the coordination modes are not finite: the run
    # printed raw numpy warnings, then exited 2 with a non-finite gamma
    ("a", {"a": 1e308}),
    # the law's rate term overflows: raw numpy warnings, then exit 2
    ("rate_base", {"rate_base": 1e308}),
]


def shipped_with(tmp_path, override, name="directed.json"):
    raw = json.loads((SHIPPED / name).read_text())
    raw.update(override)
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(raw))
    return str(path)


def command_argv(command, path, tmp_path):
    """``command`` on the config at ``path``; ``compare`` pairs it with the
    shipped baseline."""
    out = str(tmp_path / "out")
    return {
        "validate": ["validate", "--config", path],
        "run": ["run", "--config", path, "--out", out],
        "compare": ["compare", path, str(SHIPPED / "bidirectional.json"), "--out", out],
    }[command]


def strict_json(text):
    """``text`` parsed as strict JSON: ``NaN`` and ``Infinity`` raise."""

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


def assert_refused(argv, field, capsys):
    """``argv`` exits 1 naming ``field``, with no traceback and without
    making its ``--out`` directory."""
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    out = captured.out + captured.err
    assert "Traceback" not in out
    assert re.search(rf"\b{re.escape(field)}(=| must|:| differs)", out), out
    if "--out" in argv:
        assert not Path(argv[argv.index("--out") + 1]).exists()


class TestRefusal:
    @pytest.mark.parametrize("command", ["validate", "run", "compare"])
    @pytest.mark.parametrize("field, override", REFUSED, ids=[getattr(case, "id", None) or case[0] for case in REFUSED])
    def test_refused_with_field_named(self, tmp_path, capsys, command, field, override):
        path = shipped_with(tmp_path, override)
        assert_refused(command_argv(command, path, tmp_path), field, capsys)

    @pytest.mark.parametrize("command", ["validate", "run", "compare"])
    @pytest.mark.parametrize("entry", TOPOLOGY_REFUSED.values(), ids=TOPOLOGY_REFUSED.keys())
    def test_topology_entry_refused(self, tmp_path, capsys, command, entry):
        family = json.loads((SHIPPED / "directed.json").read_text())["topology_family"]
        path = shipped_with(tmp_path, {"topology_family": [entry, *family[1:]]})
        assert_refused(command_argv(command, path, tmp_path), "topology_family[0]", capsys)

    @pytest.mark.parametrize("command", ["validate", "run", "compare"])
    @pytest.mark.parametrize(
        "field, override", BASELINE_REFUSED, ids=[f for f, _ in BASELINE_REFUSED]
    )
    def test_baseline_field_refused(self, tmp_path, capsys, command, field, override):
        path = shipped_with(tmp_path, override, "bidirectional.json")
        argv = command_argv(command, path, tmp_path)
        if command == "compare":
            # the shipped directed mission first: compare admits both configs
            # before it runs either, so the refusal comes at once
            argv[1:3] = [str(SHIPPED / "directed.json"), path]
        assert_refused(argv, field, capsys)

    @pytest.mark.parametrize("command", ["validate", "run", "compare"])
    def test_node_count_mismatch_names_entry(self, tmp_path, capsys, command):
        family = json.loads((SHIPPED / "directed.json").read_text())["topology_family"]
        family[2] = {**family[2], "n": 4}  # its edges stay inside 1..4
        path = shipped_with(tmp_path, {"topology_family": family})
        assert_refused(command_argv(command, path, tmp_path), "topology_family[2]", capsys)

    @pytest.mark.parametrize("command", ["validate", "run", "compare"])
    def test_one_way_baseline_edge_names_entry(self, tmp_path, capsys, command):
        family = json.loads((SHIPPED / "bidirectional.json").read_text())["topology_family"]
        family[1] = {**family[1], "edges": [*family[1]["edges"], [1, 4]]}
        path = shipped_with(tmp_path, {"topology_family": family}, "bidirectional.json")
        argv = command_argv(command, path, tmp_path)
        if command == "compare":
            argv[1:3] = [str(SHIPPED / "directed.json"), path]
        assert_refused(argv, "topology_family[1]", capsys)

    @pytest.mark.parametrize("command", ["analyze", "run"])
    def test_dt_above_dwell_tenth_refused(self, tmp_path, capsys, command):
        path = shipped_with(tmp_path, {"dt": 0.05})
        argv = [command, "--config", path]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert_refused(argv, "dt", capsys)

    @pytest.mark.parametrize("warn", [[], ["-W", "error"]], ids=["default", "warnings-as-errors"])
    @pytest.mark.parametrize("command", ["validate", "analyze", "run"])
    def test_extreme_gain_ratio_refuses_dt_quietly(self, tmp_path, command, warn):
        # a/b near 1e300: the dwell bound comes out tiny and dt is refused,
        # with no numpy warning
        path = shipped_with(tmp_path, {"a": 1e300})
        argv = [command, "--config", path]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        proc = subprocess.run(
            [sys.executable, *warn, "-m", "coordsim", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 1, proc.stderr
        assert re.search(r"\bdt=", proc.stdout), proc.stdout
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("shipped", ["directed.json", "bidirectional.json"])
    def test_b_dt_inside_rk4_limit_admitted(self, tmp_path, capsys, shipped):
        # b dt = 2.78, just inside RK4's stability limit 2.7853
        path = shipped_with(tmp_path, {"b": 2780}, shipped)
        assert cli.main(["validate", "--config", path]) == 0, capsys.readouterr().out

    def test_large_finite_gust_runs_quietly(self, tmp_path, capsys):
        # the squared norm of [1e150, 0, 0] is finite: admitted, and the run
        # through the gust raises no numpy warning
        gust = {"vehicle": 1, "accel": [1e150, 0, 0], "window": [0.5, 1.0]}
        path = shipped_with(tmp_path, {"gusts": [gust], "t_max": 2.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            argv = ["run", "--config", path, "--out", str(tmp_path / "out")]
            assert cli.main(argv) == 0, capsys.readouterr().out

    def test_large_finite_gains_run_quietly(self, tmp_path, capsys):
        # every first-stage PD command has a finite squared norm: admitted,
        # and the run raises no numpy warning
        path = shipped_with(tmp_path, {"kp": 1e150, "kd": 1e150, "t_max": 2.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            argv = ["run", "--config", path, "--out", str(tmp_path / "out")]
            assert cli.main(argv) == 0, capsys.readouterr().out

    @pytest.mark.parametrize("rate_base", [1e154])
    def test_huge_rate_fails_feasibility_quietly(self, tmp_path, capsys, rate_base):
        # a finite state whose sum of squares overflows, and a coordination
        # error whose squared norm does: the run ends on the feasibility
        # check, with no numpy warning on the way
        path = shipped_with(tmp_path, {"rate_base": rate_base, "t_max": 0.2})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            argv = ["run", "--config", path, "--out", str(tmp_path / "out")]
            assert cli.main(argv) == 1
        assert "feasibility violation: vehicle 1 accel bound at t=0 " in capsys.readouterr().out

    @pytest.mark.parametrize(
        "override, message",
        [
            (
                {"rate_base": 1e200, "t_max": 0.02},
                "the squared norm of row (0,), every entry finite, overflows in a "
                "saturation (largest entry 3.64e+197), in the step from t=0",
            ),
            (
                {"rate_base": 1e300, "t_max": 0.2},
                "the squared norm of row (0,), every entry finite, overflows in a "
                "saturation (largest entry 3.64e+297), in the step from t=0",
            ),
            (
                {"rate_final": 2e307, "t_f": 1e308, "ramp_start": 0.05, "ramp_duration": 0.1,
                 "t_max": 0.2},
                "the squared norm of row (0,), every entry finite, overflows in a "
                "saturation (largest entry 5.4418e+300), in the step from t=0.05",
            ),
        ],
        ids=["rate_base-1e200", "rate_base-1e300", "rate_final-2e307"],
    )
    def test_overflowing_command_is_one_numeric_failure(self, tmp_path, capsys, override, message):
        # the rate carries the target velocity, so the PD command of
        # vehicle 1 holds finite entries whose squared norm overflows: the
        # saturation refuses it (it would scale it to zero) and the run
        # ends in one numeric failure naming the row and the step's time,
        # with no numpy warning on the way
        path = shipped_with(tmp_path, override)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            argv = ["run", "--config", path, "--out", str(tmp_path / "out")]
            assert cli.main(argv) == 2
        assert capsys.readouterr().out == f"numeric failure: {message}\n"

    @pytest.mark.parametrize("rate_final, t", [(2e307, 0.129), (6e307, 0.086)])
    def test_runtime_overflow_is_one_numeric_failure(self, tmp_path, rate_final, t):
        # the rate term stays finite at t = 0 and t_max, so the config is
        # admitted; the RK4 combination overflows inside the ramp, and the
        # state check reports it: exit 2, with no numpy warning on the way.
        # Gains of 1e-160 keep every PD command's squared norm finite, which
        # the saturation would refuse first at the shipped gains (above)
        override = {"rate_final": rate_final, "t_f": 1e308, "ramp_start": 0.05}
        override.update(kp=1e-160, kd=1e-160)
        path = shipped_with(tmp_path, {**override, "ramp_duration": 0.1, "t_max": 0.2})
        argv = ["run", "--config", path, "--out", str(tmp_path / "out")]
        proc = subprocess.run(
            [sys.executable, "-m", "coordsim", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"},
        )
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stdout.startswith(f"numeric failure: non-finite gamma_dot[(0,)] at t={t}")
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr

    @pytest.mark.parametrize("as_json", [False, True])
    def test_overflowed_coordination_error_is_null(self, tmp_path, capsys, caplog, as_json):
        # rate_base 1e154: the coordination error overflows to inf, and the
        # run ends on the feasibility check; its summary is strict JSON
        path = shipped_with(tmp_path, {"rate_base": 1e154, "t_max": 0.02})
        out = tmp_path / "out"
        argv = ["run", "--config", path, "--out", str(out)]
        assert cli.main(argv + ["--json"] * as_json) == 1
        stdout = capsys.readouterr().out
        summary = strict_json((out / "summary.json").read_text())
        assert summary["final_xi_norm"] is None
        assert "final_xi_norm is inf, written as null" in caplog.text
        if as_json:
            assert strict_json(stdout) == {**summary, "first_violation": ANY}

    @pytest.mark.parametrize("as_json", [False, True])
    def test_compare_prints_overflowed_coordination_error_as_null(self, tmp_path, capsys, as_json):
        # compare does not match t_max, so the overflowed directed run pairs
        # with a short baseline; both documents are strict JSON and the
        # table prints the null, with no exception on the way; the short
        # baseline warns that its connectivity window exceeds the run
        directed = shipped_with(tmp_path, {"rate_base": 1e154, "t_max": 0.02})
        raw = json.loads((SHIPPED / "bidirectional.json").read_text())
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({**raw, "t_max": 0.02}))
        out = tmp_path / "out"
        argv = ["compare", directed, str(baseline), "--out", str(out)]
        with pytest.warns(UserWarning, match="connectivity window"):
            assert cli.main(argv + ["--json"] * as_json) == 0
        stdout = capsys.readouterr().out
        comparison = strict_json((out / "comparison.json").read_text())
        assert comparison["directed"]["final_xi_norm"] is None
        if as_json:
            assert strict_json(stdout) == comparison
        else:
            row = next(line for line in stdout.splitlines() if line.startswith("final_xi_norm"))
            assert row.split()[1] == "null", row

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_overflowing_final_rate_refused(self, tmp_path, capsys, command):
        # the rate term at t_max overflows and t_f is out of reach: the run
        # printed a raw numpy warning, then exited 2 with a non-finite gamma
        # (compare refuses the unmatched t_f first)
        override = {"rate_final": 1e308, "t_f": 1e308, "ramp_start": 0.05, "ramp_duration": 0.1}
        path = shipped_with(tmp_path, {**override, "t_max": 0.2})
        assert_refused(command_argv(command, path, tmp_path), "rate_final", capsys)

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_overflowing_phi0_refused(self, tmp_path, capsys, command):
        # every entry finite, but phi0^T P phi0 overflows
        path = shipped_with(tmp_path, {"phi0": [1e155 * x for x in (0.9, 1.7, 1.1, 0.1)]})
        argv = [command, "--config", path]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert_refused(argv, "phi0", capsys)

    @pytest.mark.parametrize(
        "command, shipped",
        [
            ("validate", "directed.json"),
            ("run", "directed.json"),
            ("validate", "bidirectional.json"),
            ("run", "bidirectional.json"),
        ],
        ids=["validate", "run", "validate-baseline", "run-baseline"],
    )
    def test_fleet_above_synthesis_cap_refused(self, tmp_path, capsys, command, shipped):
        # a jointly connected ring one vehicle past the cap (mirrored for
        # the baseline): refused naming n before its Lyapunov system or its
        # log is sized
        n = MAX_SYNTHESIS_N + 1
        ring = [[i % n + 1, i] for i in range(1, n + 1)]
        family = [ring[k::3] for k in range(3)]
        if shipped == "bidirectional.json":
            family = [[e for i, j in edges for e in ([i, j], [j, i])] for edges in family]
        override = {
            "n": n,
            "topology_family": [{"n": n, "edges": edges} for edges in family],
            "mu_list": [0.001] * 3,
            "phi0": [1.0] * (n - 1),
        }
        path = shipped_with(tmp_path, override, shipped)
        assert_refused(command_argv(command, path, tmp_path), "n", capsys)

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_config_not_utf8_refused(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n": 5, "mode": "\xff"}')
        argv = command_argv(command, str(path), tmp_path) + ["--json"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        doc = json.loads(captured.out)
        assert doc["ok"] is False and str(path) in doc["error"]
        assert not (tmp_path / "out").exists()

    def test_json_refusal_is_one_document(self, tmp_path, capsys):
        path = shipped_with(tmp_path, {"mu_list": [0.5] * 3})
        argv = ["run", "--config", path, "--out", str(tmp_path / "out"), "--json"]
        assert cli.main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False and doc["error"].startswith("mu_list: ")
        assert set(doc) == {"ok", "error"}


class TestCommandLine:
    # a malformed command line is a refused input: exit 1, and with --json
    # one document on stdout, not argparse's SystemExit(2)
    @staticmethod
    def malformed(kind, tmp_path, directed_path):
        out = str(tmp_path / "out")
        return {
            "missing-value": ["run", "--out", out, "--config"],
            "no-config": ["run", "--out", out],
            "unknown-command": ["frobnicate", "--config", directed_path],
            "unknown-flag": ["validate", "--config", directed_path, "--frobnicate"],
            "no-command": [],
        }[kind]

    KINDS = ["missing-value", "no-config", "unknown-command", "unknown-flag", "no-command"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_malformed_command_line_exits_1(self, kind, tmp_path, directed_path, capsys):
        argv = self.malformed(kind, tmp_path, directed_path)
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("invalid config: coordsim")
        assert "usage: coordsim" in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", KINDS[:4])
    def test_malformed_json_command_line_is_one_document(
        self, kind, tmp_path, directed_path, capsys
    ):
        argv = self.malformed(kind, tmp_path, directed_path) + ["--json"]
        assert cli.main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"ok", "error"} and doc["ok"] is False
        assert doc["error"].startswith("coordsim")

    @pytest.mark.parametrize("kind", ["validate", "run", "run-missing-value"])
    def test_abbreviated_json_flag_is_unknown(self, kind, tmp_path, directed_path, capsys):
        # flags are not abbreviated: --js is refused as an unknown flag on a
        # well-formed line, and a malformed line with --js is refused in text
        out = str(tmp_path / "out")
        argv = {
            "validate": ["validate", "--config", directed_path],
            "run": ["run", "--config", directed_path, "--out", out],
            "run-missing-value": ["run", "--out", out, "--config"],
        }[kind]
        assert cli.main(argv + ["--js"]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("invalid config: coordsim")
        assert ("--config" if kind == "run-missing-value" else "--js") in captured.out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: coordsim")

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_config_values_come_from_the_file_only(self, command, capsys):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        flags = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
        assert flags == {"--help", "--json", "--out"} | ({"--config"} if command == "run" else set())


class TestEntryPoint:
    def test_module_invocation(self, directed_path):
        proc = subprocess.run(
            [sys.executable, "-m", "coordsim", "validate", "--config", directed_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "valid" in proc.stdout

    @pytest.mark.parametrize("config, code", [("directed", 0), ("missing", 1)])
    def test_closed_stdout_keeps_the_exit_code(self, directed_path, tmp_path, config, code):
        # a reader that has closed its end of the pipe, as `| head -2` does:
        # no traceback, and the command's own exit code
        path = directed_path if config == "directed" else str(tmp_path / "missing.json")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "coordsim", "validate", "--config", path, "--json"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


class TestImportFootprint:
    def test_run_and_compare_never_import_numpy_random(self, tmp_path):
        # numpy.random maps about 5 MB; the baseline draws its schedule in
        # plain integer arithmetic, so no command may load it
        paths = []
        for name in ("directed.json", "bidirectional.json"):
            raw = json.loads((SHIPPED / name).read_text())
            raw["t_max"] = 2.0
            (tmp_path / name).write_text(json.dumps(raw))
            paths.append(str(tmp_path / name))
        argvs = [
            ["run", "--config", paths[0], "--out", str(tmp_path / "directed")],
            ["run", "--config", paths[1], "--out", str(tmp_path / "bidirectional")],
            ["compare", *paths, "--out", str(tmp_path / "cmp")],
        ]
        script = (
            "import json, sys\n"
            "from coordsim import cli\n"
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, 'numpy.random' in sys.modules]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        codes, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0, 0, 0]
        assert not loaded
        assert (tmp_path / "cmp" / "comparison.json").exists()


class TestLogLevel:
    @pytest.mark.parametrize("value", ["basic_format", "no-such-level"])
    def test_non_level_falls_back_to_warning(self, directed_path, value):
        # BASIC_FORMAT is an attribute of logging, but a format string
        env = {**os.environ, "COORDSIM_LOG": value}
        proc = subprocess.run(
            [sys.executable, "-m", "coordsim", "validate", "--config", directed_path],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        assert proc.stdout.strip().endswith("valid")

    def test_level_name_sets_the_level(self, directed_path, tmp_path):
        env = {**os.environ, "COORDSIM_LOG": "info"}
        argv = ["run", "--config", directed_path, "--out", str(tmp_path / "out")]
        proc = subprocess.run(
            [sys.executable, "-m", "coordsim", *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0
        assert "running directed-switched scenario" in proc.stderr


# boundary classes of a config value: NaN, signed zeros, subnormals, huge
# values, an integer beyond int64, and wrong types
EDGE_SCALARS = [NAN, 0, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2**70, 1e200, -1]
EDGE_SCALARS += ["1", True, None, {}]
# a config field named in a refusal, as assert_refused reads it
FIELD_NAMED = re.compile(
    rf"\b({'|'.join(f.name for f in fields(ScenarioConfig))})( is|=| must|:| differs|\[)"
)


def edge_vector(base):
    """``base`` with one entry set to an edge scalar, or ragged, or empty,
    or one entry too long, or all integers beyond int64."""
    one = st.tuples(st.integers(0, len(base) - 1), st.sampled_from(EDGE_SCALARS)).map(
        lambda ix: base[: ix[0]] + [ix[1]] + base[ix[0] + 1 :]
    )
    return one | st.sampled_from([[], base + base[:1], [base, base[:1]], [2**70] * len(base)])


ROWS = [[0.0, 0.0, 0.0]] * 5
edge_rows = edge_vector(ROWS) | edge_vector(ROWS[0]).map(lambda row: [row, *ROWS[1:]])
BAD_TOPOLOGIES = [
    *TOPOLOGY_REFUSED.values(),
    {"n": 5, "edges": []},
    {"n": 5, "edges": [[1, 9]]},
    {"n": 5, "edges": [[1, 1]]},
    {"n": 4, "edges": [[1, 2]]},
    "13",
]
gust_entries = st.fixed_dictionaries(
    {
        "vehicle": st.sampled_from([1, 5, 0, 6, "1", 1.5, True, NAN]),
        "accel": st.sampled_from(
            [[0, 1, 0], [1e308, 0, 0], [1e200, 1e200, 0], [1e154, 1e154, 0], [NAN, 0, 0]]
            + [[0, 2**70, 0], [0, 1], "x"]
        ),
        "window": st.sampled_from([[0.0, 0.01], [0.01, 0.0], [0.0, 1e308], [NAN, 1.0], [1.0], "x"]),
    }
) | st.sampled_from(["x", {}, {"vehicle": 1, "accel": [0, 1, 0]}])


@st.composite
def edge_overrides(draw, shipped):
    """An override of 1 to 3 fields of the shipped config ``shipped``, each
    drawn from the boundary classes of its kind."""
    raw = json.loads((SHIPPED / shipped).read_text())
    kinds = {
        "mu_list": edge_vector(raw["mu_list"]),
        "phi0": edge_vector(raw["phi0"]),
        "traj_offsets": edge_vector([0.0, 0.5, 1.0, 1.5, 2.0]),
        "traj_angles": edge_vector([0.0] * 5),
        "initial_positions": edge_rows,
        "initial_velocities": edge_rows,
        "topology_family": st.sampled_from([[], raw["topology_family"][1:]])
        | st.tuples(st.integers(0, 2), st.sampled_from(BAD_TOPOLOGIES)).map(
            lambda kx: [kx[1] if k == kx[0] else g for k, g in enumerate(raw["topology_family"])]
        ),
        "gusts": st.lists(gust_entries, max_size=2),
    }
    names = draw(st.lists(st.sampled_from(sorted(raw)), min_size=1, max_size=3, unique=True))
    return {name: draw(kinds.get(name, st.sampled_from(EDGE_SCALARS))) for name in names}


edge_cases = st.sampled_from(["directed.json", "bidirectional.json"]).flatmap(
    lambda shipped: edge_overrides(shipped).map(lambda override: (shipped, override))
)
ONE_ROW_1E200 = [[1e200] * 3, *ROWS[1:]]


class TestAdmissionProperty:
    # validate, then run for at most 20 steps, of 1 to 3 edge fields: exit 0
    # with a finite summary, or exit 1 on the feasibility check, or exit 1
    # refused naming a field with no --out made, or exit 2 from the run as
    # the saturation's refusal of a command whose squared norm overflows
    # (a rate of 1e200 carries the target velocity there within a step);
    # never a traceback or a raw numpy warning, and every document and
    # summary.json is strict JSON.  The examples are refusals of the table
    # of first evaluations in certify, of a dwell bound that is not finite,
    # an overflowed coordination error written as null and a refused
    # command.
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=edge_cases)
    @example(case=("directed.json", {"rate_base": 1e308}))
    @example(case=("bidirectional.json", {"rate_base": 1e308}))
    @example(
        case=(
            "directed.json",
            {"rate_final": 1e308, "t_f": 1e308, "ramp_start": 0.05, "ramp_duration": 0.1, "t_max": 0.2},
        )
    )
    @example(case=("directed.json", {"phi0": [-1e308, 1, 1, 1]}))
    @example(case=("directed.json", {"initial_positions": ONE_ROW_1E200}))
    @example(case=("bidirectional.json", {"initial_velocities": ONE_ROW_1E200}))
    @example(case=("directed.json", {"a": 1e-310}))
    @example(case=("directed.json", {"rate_base": 1e154}))
    @example(case=("directed.json", {"rate_base": 1e200}))
    def test_edge_config_runs_or_is_refused_naming_a_field(self, tmp_path, capsys, case):
        shipped, override = case
        raw = json.loads((SHIPPED / shipped).read_text())
        raw["t_max"] = 20 * raw["dt"]
        raw.update(override)
        with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
            path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
            Path(path).write_text(json.dumps(raw))
            docs = []
            for argv in (["validate", "--config", path], ["run", "--config", path, "--out", out]):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # tuning hints
                    warnings.simplefilter("error", RuntimeWarning)
                    code = cli.main([*argv, "--json"])
                captured = capsys.readouterr()
                assert "Traceback" not in captured.out + captured.err
                assert code in (0, 1) or (argv[0], code) == ("run", 2), captured.out
                docs.append((code, strict_json(captured.out)))
            (validated, report), (ran, summary) = docs
            if ran == 2:
                assert validated == 0, report
                assert summary["ok"] is False and re.fullmatch(
                    r"the squared norm of row \(\d+,\), every entry finite, overflows in a "
                    r"saturation \(largest entry \S+\), in the step from t=\S+",
                    summary["error"],
                ), summary
                return
            if validated == 1:
                refusal = report["checks"][0]["detail"] if "checks" in report else report["error"]
                assert FIELD_NAMED.search(refusal), refusal
                assert (ran, summary) == (1, {"ok": False, "error": refusal})
                assert not os.path.exists(out)
                return
            # a run stopped by the feasibility check may have overflowed its
            # coordination error (rate_base 1e154: final_xi_norm is null)
            assert (ran == 1) == ("first_violation" in summary) and "ok" not in summary, summary
            written = strict_json(Path(out, "summary.json").read_text())
            assert written == {k: v for k, v in summary.items() if k != "first_violation"}
            if ran == 0:
                assert all(math.isfinite(v) for v in summary.values() if isinstance(v, float)), summary
