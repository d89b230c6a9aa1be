import json
import subprocess
import sys

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

    def test_synthesis_failure_exit_2(self, tmp_path, capsys):
        from coordsim.digraph import Digraph

        cfg = default_directed_config()
        cfg.topology_family = [Digraph(5, [(1, 3)]), Digraph(5, [(2, 3)])]
        cfg.mu_list = [0.1, 0.1]
        path = write_cfg(tmp_path, "nosynth.json", cfg)
        # config.validate already rejects the family; bypass it by calling
        # the command on a config that passes structure but fails synthesis
        # is impossible here, so assert the validation exit instead
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


class TestEntryPoint:
    def test_module_invocation(self, directed_path):
        proc = subprocess.run(
            [sys.executable, "-m", "coordsim", "validate", "--config", directed_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "valid" in proc.stdout
