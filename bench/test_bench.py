"""Tests of the benchmark itself (not of coordsim).

    python3 -m pytest -q bench

Runs use ``--smoke`` (tiny horizons), so the whole file takes well under a
minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import sweep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _launch(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _launch("--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), name
    report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
    for key in ("python", "numpy", "scipy", "nproc", "cpu_model", "blas_threads",
                "loadavg_1m_before", "loadavg_1m_after"):
        assert key in report["env"]


def test_self_time_arithmetic_on_a_hand_built_tree():
    #  root [0, 100]
    #  +- f [10, 60]
    #  |  +- g [20, 30]
    #  |  +- g [35, 45]
    #  +- f [70, 90]
    names = ["root", "f", "g"]
    name_id = [0, 1, 2, 2, 1]
    start = [0, 10, 20, 35, 70]
    end = [100, 60, 30, 45, 90]
    parent = [-1, 0, 1, 1, 0]
    table = spans.self_times(names, name_id, start, end, parent)
    assert {k: (v["calls"], v["self_ns"]) for k, v in table.items()} == {
        "root": (1, 30),
        "f": (2, 50),
        "g": (2, 20),
    }
    assert sum(v["self_ns"] for v in table.values()) == 100


def test_fastest_chunk_and_setup_arithmetic():
    k = run.CHUNK_STEPS
    # three full chunks of 2, 1 and 3 ms per step; the trailing partial
    # chunk (no tick closes it) is not counted however fast it looks
    per_step = [2e-3] * k + [1e-3] * k + [3e-3] * k + [1e-6] * (k - 1)
    ticks = np.concatenate([[0.0], np.cumsum(per_step)])
    assert run.fastest_step_s(ticks) == pytest.approx(1e-3)
    assert run.fastest_step_s(ticks[:k]) is None

    tally = run.Tally()
    # two scenarios with 3 vehicles share a time per step
    tally.scenario_steps = {"a": (3, 100), "b": (5, 300), "c": (3, 50)}
    tally.best_step_s = {3: 1e-3, 5: 2e-3}
    assert run.fastest_steps_per_s(tally) == pytest.approx(450 / (0.1 + 0.6 + 0.05))

    # each scenario's fastest set-up, then the median over scenarios
    for label, seconds in [("a", 0.03), ("a", 0.02), ("b", 0.05), ("c", 0.01), ("b", 0.07)]:
        tally.add_setup(label, seconds)
    assert run.end_to_end(tally)["setup_s"]["value"] == pytest.approx(0.02)


def test_recorder_spans_nest_and_sum_to_the_root():
    rec = spans.Recorder()

    def leaf():
        return sum(range(1000))

    wrapped_leaf = rec.wrap(leaf, "leaf")
    mid = rec.wrap(lambda: [wrapped_leaf() for _ in range(3)], "mid")
    root = rec.wrap(lambda: (mid(), wrapped_leaf()), "root")
    root()
    arr = rec.arrays()
    table = spans.self_times(rec.names, arr["name_id"], arr["start_ns"], arr["end_ns"], arr["parent"])
    assert table["leaf"]["calls"] == 4 and table["mid"]["calls"] == 1
    root_ns = int(table["root"]["dur_ns"][0])
    assert sum(v["self_ns"] for v in table.values()) == root_ns


def test_install_patches_every_binding_and_uninstall_restores():
    _, simharness = run.import_coordsim()
    from coordsim import coordalg, vehicle

    before = (coordalg.build_certificate, simharness.build_certificate,
              vehicle.LaneSweepFamily.__dict__["pos_vel_all"])
    rec = spans.Recorder()
    patched = spans.install(rec.wrap)
    try:
        assert coordalg.build_certificate is simharness.build_certificate
        assert coordalg.build_certificate is not before[0]
        assert vehicle.LaneSweepFamily.__dict__["pos_vel_all"] is not before[2]
    finally:
        spans.uninstall(patched)
    after = (coordalg.build_certificate, simharness.build_certificate,
             vehicle.LaneSweepFamily.__dict__["pos_vel_all"])
    assert after == before


@pytest.mark.parametrize("workload", ["directed-mission", run.SWEEP])
def test_tampered_reference_is_a_failure(workload):
    first = run.run(workload, 5, seconds=0, trace=False, smoke=True, references={})
    assert first["result"]["correct"]
    key = run.reference_key(workload, 5, smoke=True)
    table = {key: first["headlines"]}

    again = run.run(workload, 5, seconds=0, trace=False, smoke=True, references=table)
    assert again["result"]["correct"] and again["result"]["failed"] == 0

    tampered = copy.deepcopy(table)
    tampered[key][-1]["comm_amount"] *= 1 + 1e-6
    bad = run.run(workload, 5, seconds=0, trace=False, smoke=True, references=tampered)
    assert bad["result"]["correct"] is False
    assert bad["result"]["failed"] >= 1
    assert any("comm_amount differs" in f for f in bad["report"]["failures"])


def test_sweep_generator_is_deterministic_and_jointly_connected():
    run.import_coordsim()
    from coordsim.digraph import Digraph, jointly_connected

    a = sweep.generate(11, 30, 50)
    assert a == sweep.generate(11, 30, 50)
    assert a != sweep.generate(12, 30, 50)
    for cfg in a:
        n, family = cfg["n"], cfg["topology_family"]
        assert sweep.N_RANGE[0] <= n <= sweep.N_RANGE[1]
        assert sweep.M_RANGE[0] <= len(family) <= sweep.M_RANGE[1]
        assert sweep.union_has_spanning_tree(cfg)
        assert jointly_connected([Digraph(n, [tuple(e) for e in g["edges"]]) for g in family])
    sizes = sorted((c["n"], len(c["topology_family"])) for c in sweep.generate(4, 40, 50))
    assert sizes == [(n, m) for n in range(3, 11) for m in range(2, 7)]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "traces"))
    proc = _launch("--workload", "directed-mission", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
