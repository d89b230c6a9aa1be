import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from coordsim import cli
from coordsim.simharness import (
    default_bidirectional_config,
    default_directed_config,
)


@pytest.fixture()
def directed_path(tmp_path):
    path = tmp_path / "directed.json"
    path.write_text(json.dumps(default_directed_config(t_max=2.0).to_dict()))
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

        cfg = default_directed_config()
        cfg.topology_family = [Digraph(5, [(1, 3)]), Digraph(5, [(2, 3)])]
        cfg.mu_list = [0.1, 0.1]
        path = write_cfg(tmp_path, "disc.json", cfg)
        assert cli.main(["validate", "--config", path]) == 1
        assert "jointly connected" in capsys.readouterr().out

    def test_mu_at_boundary_rejected(self, tmp_path, default_cert, capsys):
        cap = 1.0 / default_cert.lambda_max_p
        cfg = default_directed_config(mu_list=[cap, 0.2, 0.2])
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

        cfg = default_directed_config(
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

        cfg = default_directed_config()
        cfg.topology_family = [Digraph(5, [(1, 3)]), Digraph(5, [(2, 3)])]
        cfg.mu_list = [0.1, 0.1]
        path = write_cfg(tmp_path, "nosynth.json", cfg)
        assert cli.main(["analyze", "--config", path]) == 1


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

    def test_dt_override(self, directed_path, tmp_path, capsys):
        out = tmp_path / "dt"
        assert (
            cli.main(
                ["run", "--config", directed_path, "--out", str(out), "--dt", "0.002", "--json"]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["dt"] == 0.002
        rows = len((out / "metrics.csv").read_text().splitlines()) - 1
        assert rows == int(2.0 / 0.002) + 1

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
        cfg = default_directed_config(t_max=0.5, gamma_ddot_max=0.3)
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
    ("kp", {"kp": True}),
    ("traj_offsets", {"traj_offsets": [1, 2]}),
    ("ramp_start", {"ramp_start": NAN}),
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
    @pytest.mark.parametrize("field, override", REFUSED, ids=[f for f, _ in REFUSED])
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
        # a/b near 1e300 overflows the dwell-time search's denominators: the
        # dwell time comes out tiny and dt is refused, with no numpy warning
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

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_overflowing_phi0_refused(self, tmp_path, capsys, command):
        # every entry finite, but phi0^T P phi0 overflows
        path = shipped_with(tmp_path, {"phi0": [1e155 * x for x in (0.9, 1.7, 1.1, 0.1)]})
        argv = [command, "--config", path]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert_refused(argv, "phi0", capsys)

    def test_json_refusal_is_one_document(self, tmp_path, capsys):
        path = shipped_with(tmp_path, {"mu_list": [0.5] * 3})
        argv = ["run", "--config", path, "--out", str(tmp_path / "out"), "--json"]
        assert cli.main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False and doc["error"].startswith("mu_list: ")
        assert set(doc) == {"ok", "error"}


class TestEntryPoint:
    def test_module_invocation(self, directed_path):
        proc = subprocess.run(
            [sys.executable, "-m", "coordsim", "validate", "--config", directed_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "valid" in proc.stdout


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
