#!/usr/bin/env python3
"""coordsim benchmark: one command, three workloads, end-to-end and per-layer.

    python3 bench/run.py --workload directed-mission --seed 1 --seconds 36 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``directed-mission``: ``coordsim run`` on ``configs/directed.json``;
- ``baseline-mission``: ``coordsim run`` on ``configs/bidirectional.json``;
- ``family-sweep``: ``SWEEP_SCENARIOS`` seeded random directed scenarios,
  one per size (n, m), each validated (``coordsim validate``) and then run
  for ``SWEEP_STEPS`` steps without output files.

The missions are fixed inputs, so ``--seed`` only changes the sweep.  A run
repeats passes of its workload back to back (closed loop, one thread) while
the next pass is expected to end within ``--seconds``; one pass always runs.
Every scenario's outputs are checked (``checks.py``); a failed check counts
in ``failed``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

- ``steps_per_s``: throughput of the closed-loop RK4 loop (one
  ``simharness.step`` plus its log row and feasibility check per step).
  Every scenario's loop is cut into chunks of ``CHUNK_STEPS`` consecutive
  steps.  The time per step of a fleet size n is the fastest chunk of any
  scenario with n vehicles over the whole run (a step's cost follows n; the
  number of topologies m barely moves it), and the metric is the steps of
  one pass divided by the sum over its scenarios of steps times the time
  per step of their n.  A shared 2-vCPU Xeon host slowed every process by
  up to 1.8x for tens of seconds at a time, which moves any average over a
  run by far more than a code change would; even a slow stretch leaves
  moments at full speed, so the fastest chunk of a run stays within a few
  percent from run to run;
- ``setup_s``: seconds from a config file to a world ready to step
  (``load_config`` then ``init_world``, which validates and synthesizes the
  certificate), sampled once per scenario run and, for the missions, over
  and over for ``SETUP_SECONDS`` before the first pass and after each.  A
  scenario's set-up time is its fastest set-up in the run, for the same
  reason as above: a set-up's typical time flips between two levels (about
  22 and 39 ms for the directed mission on that Xeon) as the host's state
  changes, so a median over one run's set-ups moved by up to 1.6x from run
  to run, while the fastest one stayed within a few percent.  The metric
  is the median of that time over the workload's scenarios;
- ``peak_rss_mb``: peak resident set of the process.

The wall time of each pass (one ``coordsim run`` call including its output
files, or one whole sweep) and its median ``run_s`` are in the report; they
are not among the metrics because on that host they move with its speed.

With ``--trace 1`` half of the budget runs untraced and half traced, with a
span around every call into the functions listed in ``spans.TRACED``; the
last line carries the per-layer metrics, per pass.  The spans are saved to
``bench/traces/<workload>-seed<seed>.npz``.

The line before the last is a report: environment stamp, every pass time,
failures, and in traced runs the full per-function table.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402
import sweep  # noqa: E402

MISSIONS = {
    "directed-mission": "configs/directed.json",
    "baseline-mission": "configs/bidirectional.json",
}
SWEEP = "family-sweep"
WORKLOADS = (*MISSIONS, SWEEP)
SWEEP_SCENARIOS = 40
SWEEP_STEPS = 50
# Steps per timed chunk of a scenario's loop, for steps_per_s.
CHUNK_STEPS = 5
# Seconds of extra mission set-ups before the first pass and after each
# pass: host speed drifts within seconds, so setup_s samples a spread of time.
SETUP_SECONDS = 1.0
# --smoke: same code paths with tiny horizons, for the benchmark's tests
SMOKE_MISSION_T_MAX = 0.2
SMOKE_SWEEP_SCENARIOS = 3
SMOKE_SWEEP_STEPS = 20

REFERENCES = BENCH / "references.json"
TRACES = BENCH / "traces"
WORK = BENCH / ".work"

# Functions called on every workload; only these get a self time among the
# per-layer metrics, so that no per-layer time is zero by construction.
EVERYWHERE = (
    "cli.main",
    "simharness.load_config",
    "simharness.ScenarioConfig.validate",
    "simharness.init_world",
    "simharness.run_scenario",
    "simharness.step",
    "coordctrl.MissionRateProfile.validate",
    "coordctrl.path_error_feedback_all",
    "coordctrl.coordination_accel_matrix",
    "vehicle.pos_vel_all",
    "vehicle.velocity_all",
    "vehicle.pf_control_all",
    "digraph.jointly_connected",
)
# Per-call percentiles for the functions of the RK4 loop.
HOT = (
    "simharness.step",
    "vehicle.pos_vel_all",
    "vehicle.pf_control_all",
    "coordctrl.path_error_feedback_all",
    "coordctrl.coordination_accel_matrix",
)
LAYERS = ("cli", "simharness", "coordctrl", "vehicle", "digraph")

_CERT = ("coordalg.build_certificate", "coordalg.solve_lyapunov")
# Functions that must record calls on a workload, and ones that must not.
EXPECTED = {
    "directed-mission": EVERYWHERE + _CERT + ("switchlaw.advance", "simharness.write_outputs"),
    "baseline-mission": EVERYWHERE + ("simharness.pe_connectivity", "simharness.write_outputs"),
    SWEEP: EVERYWHERE + _CERT + ("switchlaw.advance", "simharness.validation_report"),
}
FORBIDDEN = {
    "directed-mission": ("simharness.pe_connectivity", "vehicle.apply_disturbance"),
    "baseline-mission": ("switchlaw.advance", "vehicle.apply_disturbance"),
    SWEEP: ("simharness.pe_connectivity", "simharness.write_outputs"),
}
ROOT_SPAN = "bench.root"
PROBED = ("simharness.load_config", "simharness.init_world", "simharness.run_scenario")
STEP = "simharness.step"


def import_coordsim():
    """Import the package from this checkout's ``src``; exit non-zero if it
    is missing, whatever else is installed."""
    src = (ROOT / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import coordsim.cli
        import coordsim.simharness
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import coordsim from {src}: {exc}")
    if Path(coordsim.__file__).resolve().parent.parent != src:
        raise SystemExit(f"bench: coordsim imported from {coordsim.__file__}, not {src}")
    return coordsim.cli, coordsim.simharness


class Probe:
    """Wall time and result of each call to the functions the end-to-end
    metrics and the output checks need (``PROBED``), and the start time of
    each RK4 step (``STEP``)."""

    def __init__(self) -> None:
        self.records: list[tuple[str, float, object]] = []
        self.ticks: list[float] = []

    def wrap(self, fn, name):
        records = self.records

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            records.append((name, perf_counter() - t0, out))
            return out

        return probed

    def tick(self, fn, name):
        ticks = self.ticks

        @functools.wraps(fn)
        def ticked(*args, **kwargs):
            ticks.append(perf_counter())
            return fn(*args, **kwargs)

        return ticked

    def take(self) -> list[tuple[str, float, object]]:
        out = list(self.records)
        self.records.clear()
        return out

    def take_ticks(self) -> np.ndarray:
        out = np.array(self.ticks)
        self.ticks.clear()
        return out


def fastest_step_s(ticks: np.ndarray) -> float | None:
    """Seconds per step of the fastest ``CHUNK_STEPS`` consecutive steps;
    ``None`` if the loop was shorter than one chunk.  The start of step
    ``i + CHUNK_STEPS`` ends the chunk that step ``i`` starts."""
    chunks = np.diff(ticks[::CHUNK_STEPS])
    return float(chunks.min()) / CHUNK_STEPS if len(chunks) else None


def env_stamp() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {k: os.environ[k] for k in BLAS_ENV},
        "loadavg_1m_before": os.getloadavg()[0],
    }


def prepare(workload: str, seed: int, smoke: bool, work: Path) -> list[Path]:
    """Config files of the workload's scenarios."""
    if workload in MISSIONS:
        path = ROOT / MISSIONS[workload]
        if not smoke:
            return [path]
        cfg = json.loads(path.read_text(encoding="utf-8"))
        cfg["t_max"] = SMOKE_MISSION_T_MAX
        configs = [cfg]
    elif smoke:
        configs = sweep.generate(seed, SMOKE_SWEEP_SCENARIOS, SMOKE_SWEEP_STEPS)
    else:
        configs = sweep.generate(seed, SWEEP_SCENARIOS, SWEEP_STEPS)
    paths = []
    for i, cfg in enumerate(configs):
        paths.append(work / f"scenario-{i:03d}.json")
        paths[-1].write_text(json.dumps(cfg), encoding="utf-8")
    return paths


def reference_key(workload: str, seed: int, smoke: bool) -> str:
    """Key of a run's inputs in the references table; the missions ignore
    the seed."""
    key = workload if workload in MISSIONS else f"{workload}/seed={seed}"
    return f"smoke/{key}" if smoke else key


class Tally:
    """Everything one block of passes measured."""

    def __init__(self) -> None:
        self.pass_s: list[float] = []
        self.setup_s: list[float] = []
        # fastest set-up so far of each scenario
        self.best_setup_s: dict[str, float] = {}
        self.steps = 0
        self.loop_s = 0.0
        # fleet size and steps of one run of each scenario; fastest seconds
        # per step so far of each fleet size
        self.scenario_steps: dict[str, tuple[int, int]] = {}
        self.best_step_s: dict[int, float] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.headlines: list[dict] = []
        self.switches = 0
        self.violations = 0
        self.pe_samples = 0
        self.write_bytes = 0
        self.log_bytes = 0

    def add_setup(self, label: str, seconds: float) -> None:
        self.setup_s.append(seconds)
        self.best_setup_s[label] = min(seconds, self.best_setup_s.get(label, seconds))

    def scenario(self, label: str, records, ticks, problems: list[str], ref, summary=None) -> None:
        """Account one scenario run from its probe records and step ticks.
        ``summary`` is the CLI's JSON output; its fields replace the log's,
        so the check covers what the user reads."""
        self.attempted += 1
        by_name: dict[str, list] = {}
        for name, dt, out in records:
            by_name.setdefault(name, []).append((dt, out))
        if "simharness.init_world" in by_name:
            self.add_setup(
                label,
                sum(dt for dt, _ in by_name.get("simharness.load_config", []))
                + sum(dt for dt, _ in by_name["simharness.init_world"]),
            )
        runs = by_name.get("simharness.run_scenario", [])
        if len(runs) != 1:
            problems.append(f"expected one run_scenario call, saw {len(runs)}")
        else:
            dt, log = runs[0]
            self.steps += len(log.t) - 1
            self.loop_s += dt
            best = fastest_step_s(ticks)
            if best is not None:
                n = log.config.n
                self.scenario_steps[label] = (n, len(ticks))
                self.best_step_s[n] = min(best, self.best_step_s.get(n, best))
            self.switches += len(log.switch_log) if log.certificate is not None else 0
            self.violations += len(log.violations)
            self.pe_samples += 0 if log.lambda_hat is None else len(log.lambda_hat)
            self.log_bytes += _allocated_bytes(log)
            observed = checks.headline(log)
            if summary is not None:
                observed.update({k: summary[k] for k in checks.HEADLINE if k in summary})
            problems += checks.invariants(log)
            if ref is not None:
                problems += [f"{k} differs from reference" for k in checks.compare(observed, ref)]
            self.headlines.append(observed)
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))


def _allocated_bytes(log) -> int:
    bases = {}
    for v in vars(log).values():
        if isinstance(v, np.ndarray):
            base = v if v.base is None else v.base
            bases[id(base)] = base.nbytes
    return sum(bases.values())


def setup_reps(simharness, path: Path, probe: Probe, tally: Tally, seconds: float) -> None:
    """Set up the world from ``path`` again and again for ``seconds``."""
    t_end = perf_counter() + seconds
    while perf_counter() < t_end:
        simharness.init_world(simharness.load_config(str(path)))
        tally.add_setup(path.name, sum(dt for _, dt, _ in probe.take()))


def mission_pass(cli, simharness, path: Path, out: Path, probe: Probe, tally: Tally, ref) -> None:
    argv = ["run", "--config", str(path), "--out", str(out), "--json"]
    stdout = io.StringIO()
    problems: list[str] = []
    summary = None
    with contextlib.redirect_stdout(stdout):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed scenario, not a benchmark crash
            code = None
            problems.append(traceback.format_exc(limit=3))
        wall = perf_counter() - t0
    tally.pass_s.append(wall)
    records = probe.take()
    ticks = probe.take_ticks()
    if code != 0:
        problems.append(f"coordsim run exited {code}")
    else:
        summary = json.loads(stdout.getvalue())
        for name in ("metrics.csv", "switches.csv", "summary.json"):
            if not (out / name).is_file():
                problems.append(f"{name} not written")
        tally.write_bytes += sum(f.stat().st_size for f in out.iterdir())
    tally.scenario(path.name, records, ticks, problems, ref, summary)
    shutil.rmtree(out, ignore_errors=True)


def sweep_pass(cli, simharness, paths, probe: Probe, tally: Tally, refs, rec) -> None:
    t0 = perf_counter()
    results = []
    for i, path in enumerate(paths):
        if rec is not None:
            rec.scenario = i
        problems: list[str] = []
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(["validate", "--config", str(path), "--json"])
            if code != 0 or not json.loads(stdout.getvalue())["ok"]:
                problems.append(f"coordsim validate exited {code}")
            probe.take()
            probe.take_ticks()
            simharness.run_scenario(simharness.load_config(str(path)))
        except Exception:
            problems.append(traceback.format_exc(limit=3))
        results.append((path.name, probe.take(), probe.take_ticks(), problems))
    tally.pass_s.append(perf_counter() - t0)
    for i, (label, records, ticks, problems) in enumerate(results):
        tally.scenario(label, records, ticks, problems, None if refs is None else refs[i])


def run_block(workload, paths, refs, budget, cli, simharness, probe, work, rec=None) -> Tally:
    """Passes back to back while the next one is expected to end within
    ``budget`` seconds; at least one.  A traced block runs under one root
    span and skips the extra mission set-ups, so its per-pass counts are
    those of the passes alone."""
    tally = Tally()
    extra_setup = SETUP_SECONDS if workload in MISSIONS and rec is None else 0.0

    def passes():
        t_start = perf_counter()
        if extra_setup:
            setup_reps(simharness, paths[0], probe, tally, extra_setup)
        while True:
            if workload in MISSIONS:
                mission_pass(
                    cli, simharness, paths[0], work / "out", probe, tally,
                    None if refs is None else refs[0],
                )
                if extra_setup:
                    setup_reps(simharness, paths[0], probe, tally, extra_setup)
            else:
                sweep_pass(cli, simharness, paths, probe, tally, refs, rec)
            if perf_counter() - t_start + max(tally.pass_s) > budget:
                break

    if rec is None:
        passes()
    else:
        rec.scenario = 0
        rec.wrap(passes, ROOT_SPAN)()
    return tally


def fastest_steps_per_s(tally: Tally) -> float:
    """Steps of one pass over the seconds they take when every step runs
    as fast as the fastest chunk of its fleet size."""
    runs = tally.scenario_steps.values()
    return sum(k for _, k in runs) / sum(k * tally.best_step_s[n] for n, k in runs)


def end_to_end(tally: Tally) -> dict:
    return {
        "steps_per_s": {"value": fastest_steps_per_s(tally), "unit": "1/s"},
        "setup_s": {"value": statistics.median(tally.best_setup_s.values()), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def per_layer(rec: spans.Recorder, traced: Tally, untraced: Tally, workload: str, paths) -> tuple[dict, dict, list[str]]:
    """Per-pass per-layer metrics, the full per-function table and the
    trace's own consistency failures."""
    arr = rec.arrays()
    table = spans.self_times(rec.names, arr["name_id"], arr["start_ns"], arr["end_ns"], arr["parent"])
    passes = len(traced.pass_s)
    root = table.pop(ROOT_SPAN)
    root_ns = int(root["dur_ns"].sum())
    self_sum = root["self_ns"] + sum(t["self_ns"] for t in table.values())
    problems = []
    if self_sum != root_ns:
        problems.append(f"self times sum to {self_sum} ns, root span lasts {root_ns} ns")
    expected = set(EXPECTED[workload])
    if workload == SWEEP and any(json.loads(p.read_text())["gusts"] for p in paths):
        expected.add("vehicle.apply_disturbance")
    for name in sorted(expected):
        if table[name]["calls"] == 0:
            problems.append(f"{name} recorded no calls on {workload}")
    for name in FORBIDDEN[workload]:
        if table[name]["calls"] != 0:
            problems.append(f"{name} recorded {table[name]['calls']} calls on {workload}")

    detail = {}
    for name, t in table.items():
        detail[name] = {"calls": t["calls"], "self_s": t["self_ns"] / 1e9}
        if t["calls"]:
            p50, p99 = np.percentile(t["dur_ns"], [50, 99]) / 1e3
            detail[name].update(samples=t["calls"], us_p50=float(p50), us_p99=float(p99))

    m: dict[str, dict] = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name, t in table.items():
        put(f"{name}.calls", t["calls"] / passes, "count")
    for name in EVERYWHERE:
        put(f"{name}.self_s", table[name]["self_ns"] / 1e9 / passes, "s")
    for name in HOT:
        put(f"{name}.us_p50", detail[name]["us_p50"], "us")
        put(f"{name}.us_p99", detail[name]["us_p99"], "us")
    for layer in LAYERS:
        ns = sum(t["self_ns"] for n, t in table.items() if n.split(".")[0] == layer)
        put(f"layer.{layer}.self_s", ns / 1e9 / passes, "s")
    put("simharness.steps", traced.steps / passes, "count")
    put("switchlaw.switches", traced.switches / passes, "count")
    put("coordctrl.violations", traced.violations / passes, "count")
    checks_ = table["coordctrl.feasibility_check"]["calls"]
    put("coordctrl.violations_per_check", traced.violations / checks_ if checks_ else 0.0, "ratio")
    put("simharness.pe_samples", traced.pe_samples / passes, "count")
    put("simharness.write_bytes", traced.write_bytes / passes, "B")
    put("simharness.log_bytes", traced.log_bytes / passes, "B")
    put("trace.root_s", root_ns / 1e9 / passes, "s")
    put("trace.unattributed_s", root["self_ns"] / 1e9 / passes, "s")
    traced_run = statistics.median(traced.pass_s)
    untraced_run = statistics.median(untraced.pass_s)
    put("trace.overhead_pct", 100.0 * (traced_run - untraced_run) / untraced_run, "%")

    detail[ROOT_SPAN] = {"calls": root["calls"], "duration_s": root_ns / 1e9, "self_s": root["self_ns"] / 1e9}
    return m, detail, problems


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False, references: dict | None = None) -> dict:
    """One benchmark run; returns ``{"report", "result", "headlines"}``, the
    last being the first pass's headline outputs, one per scenario."""
    cli, simharness = import_coordsim()
    stamp = env_stamp()
    if references is None:
        references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    work = WORK / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    probe = Probe()
    patched = spans.install(probe.wrap, [t for t in spans.TRACED if t[2] in PROBED])
    patched += spans.install(probe.tick, [t for t in spans.TRACED if t[2] == STEP])
    try:
        paths = prepare(workload, seed, smoke, work)
        refs = references.get(reference_key(workload, seed, smoke))
        if refs is not None and len(refs) != len(paths):
            raise SystemExit(f"bench: {len(refs)} references for {len(paths)} scenarios")
        budget = seconds / 2 if trace else seconds
        untraced = run_block(workload, paths, refs, budget, cli, simharness, probe, work)
        report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "smoke": smoke}
        problems = list(untraced.failures)
        attempted, failed = untraced.attempted, len(untraced.failures)
        if trace:
            rec = spans.Recorder()
            traced_patches = spans.install(rec.wrap)
            try:
                traced = run_block(workload, paths, refs, budget, cli, simharness, probe, work, rec)
            finally:
                spans.uninstall(traced_patches)
            metrics, detail, trace_problems = per_layer(rec, traced, untraced, workload, paths)
            problems += traced.failures + trace_problems
            attempted += traced.attempted
            failed += len(traced.failures)
            TRACES.mkdir(exist_ok=True)
            rec.save(TRACES / f"{workload}-seed{seed}.npz")
            report["spans"] = len(rec.start)
            report["functions"] = detail
            report["traced_pass_s"] = traced.pass_s
        else:
            metrics = end_to_end(untraced)
        report["pass_s"] = untraced.pass_s
        report["run_s"] = statistics.median(untraced.pass_s)
        report["loop_steps_per_s"] = untraced.steps / untraced.loop_s
        report["setup_samples"] = len(untraced.setup_s)
        report["setup_median_of_all_s"] = statistics.median(untraced.setup_s)
        report["steps"] = untraced.steps
        report["error_rate"] = failed / attempted
        report["failures"] = problems
        stamp["loadavg_1m_after"] = os.getloadavg()[0]
        report["env"] = stamp
        result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        return {"report": report, "result": result, "headlines": untraced.headlines[: len(paths)]}
    finally:
        spans.uninstall(patched)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny horizons, for the tests")
    args = parser.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
