"""Command-line entry point: validate / analyze / run / compare.

Exit codes: 0 success, 1 refused input (a malformed command line too), 2
numeric failure; ``main`` holds the one map from error type to exit code.
With ``--json`` exactly one JSON document goes to stdout, ``{"ok": false,
"error": ...}`` when the command fails; human-readable text otherwise.
The ``COORDSIM_LOG`` environment variable sets the logging level (e.g.
DEBUG, INFO, WARNING); anything that is not a level name means WARNING.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import simharness
from .coordalg import convergence_rate_bound, validate_gains
from .errors import ConfigError, NumericError, SynthesisError

log = logging.getLogger("coordsim")


@dataclass
class CommandOutcome:
    exit_code: int
    payload: str


def _emit(outcome: CommandOutcome) -> int:
    """Print the payload and return the command's exit code, also when the
    reader has closed stdout: the rest of the output then goes to
    ``os.devnull``, so the flush at exit cannot fail again."""
    try:
        if outcome.payload:
            print(outcome.payload, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return outcome.exit_code


def _load(path: str, dt: float | None, seed: int | None) -> simharness.ScenarioConfig:
    cfg = simharness.load_config(path)
    if dt is not None:
        cfg.dt = dt
    if seed is not None:
        cfg.rng_seed = seed
    return cfg


def _make_outdir(path: str) -> None:
    """Create an output directory before any simulation runs; a path that
    cannot be one is a refused input."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path!r}: {exc}") from exc


def cmd_validate(config_path: str, as_json: bool) -> CommandOutcome:
    report = simharness.validation_report(simharness.load_config(config_path))
    if as_json:
        return CommandOutcome(0 if report["ok"] else 1, json.dumps(report, indent=2))
    lines = []
    for c in report["checks"]:
        lines.append(f"[{'ok' if c['ok'] else 'FAIL'}] {c['name']}: {c['detail']}")
    lines.append("valid" if report["ok"] else "invalid")
    return CommandOutcome(0 if report["ok"] else 1, "\n".join(lines))


def cmd_analyze(config_path: str, as_json: bool) -> CommandOutcome:
    cfg = simharness.load_config(config_path)
    cert = simharness.certify(cfg)
    if cert is None:
        raise ConfigError("analyze requires a directed-switched scenario with n >= 2")
    gains = validate_gains(cfg.a, cfg.b, cert)
    doc = {
        "n": cert.n,
        "m": cert.m,
        "p_spectrum": sorted(np.linalg.eigvalsh(cert.p).tolist()),
        "h_spectra": [
            sorted(np.linalg.eigvalsh(h).tolist()) for h in cert.h_matrices
        ],
        "lambda_max_p": cert.lambda_max_p,
        "lambda_min_p": cert.lambda_min_p,
        "mu_admissible_interval": [0.0, 1.0 / cert.lambda_max_p],
        "mu_list": list(cert.mu_list),
        "dwell_bound": cert.dwell_bound,
        "gues_overshoot": cert.gues_overshoot,
        "max_laplacian_norm": cert.max_laplacian_norm,
        "mu_min": cert.mu_min,
        "rate_bound": convergence_rate_bound(cfg.a, cfg.b, cert),
        "gain_report": gains.to_dict(),
        "dt_check": {"dt": cfg.dt, "dwell_over_10": cert.dwell_bound / 10.0},
    }
    if as_json:
        return CommandOutcome(0, json.dumps(doc, indent=2))
    lines = [
        f"family: m={cert.m} topologies on n={cert.n} nodes",
        f"P spectrum: {['%.6g' % x for x in doc['p_spectrum']]}",
    ]
    for i, spec in enumerate(doc["h_spectra"], start=1):
        lines.append(f"H_{i} spectrum: {['%.6g' % x for x in spec]}")
    lines += [
        f"admissible mu interval: (0, {1.0 / cert.lambda_max_p:.6g})",
        f"dwell time bound: {cert.dwell_bound:.6g} s",
        f"overshoot k = {cert.gues_overshoot:.6g}, max |L_i| = {cert.max_laplacian_norm:.6g}, mu = {cert.mu_min:.6g}",
        f"convergence rate bound: {doc['rate_bound']:.6g} 1/s",
    ]
    for c in gains.checks:
        lines.append(
            f"[{'ok' if c.passed else 'FAIL'}] {c.name}: lhs={c.lhs:.6g} rhs={c.rhs:.6g}"
        )
    lines.append(f"[ok] dt {cfg.dt} <= dwell/10 {cert.dwell_bound / 10.0:.6g}")
    return CommandOutcome(0, "\n".join(lines))


def cmd_run(
    config_path: str, outdir: str, as_json: bool, dt: float | None, seed: int | None
) -> CommandOutcome:
    cfg = _load(config_path, dt, seed)
    simharness.certify(cfg)  # admit the config before any output exists
    _make_outdir(outdir)
    log.info("running %s scenario, dt=%g, t_max=%g", cfg.mode, cfg.dt, cfg.t_max)
    log_ = simharness.run_scenario(cfg)
    log.info("run finished at t=%g with %d switches", log_.t_end, len(log_.switch_log))
    summary = simharness.write_outputs(log_, outdir)
    if log_.violations:
        first = log_.violations[0]
        msg = (
            f"feasibility violation: vehicle {first.vehicle} {first.bound} bound at "
            f"t={first.time:.6g} (value {first.value:.6g}); {len(log_.violations)} total"
        )
        if not as_json:
            return CommandOutcome(1, msg)
        summary["first_violation"] = msg
    if as_json:
        doc = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
        return CommandOutcome(1 if log_.violations else 0, doc)
    lines = [f"{k}: {summary[k]}" for k in sorted(summary)]
    lines.append(f"outputs written to {outdir}")
    return CommandOutcome(0, "\n".join(lines))


def cmd_compare(
    directed_path: str,
    bidirectional_path: str,
    outdir: str,
    as_json: bool,
    dt: float | None,
    seed: int | None,
) -> CommandOutcome:
    cfg_d = _load(directed_path, dt, seed)
    cfg_b = _load(bidirectional_path, dt, seed)
    for name in ("n", "a", "b", "delta", "t_f", "traj_offsets", "traj_angles"):
        want, got = getattr(cfg_d, name), getattr(cfg_b, name)
        if want != got:
            raise ConfigError(
                f"compare needs matched scenarios: {name} differs ({want!r} vs {got!r})"
            )
    # admit both configs before the first run and before any output exists
    simharness.certify(cfg_d)
    simharness.certify(cfg_b)
    out_d = os.path.join(outdir, "directed")
    out_b = os.path.join(outdir, "bidirectional")
    _make_outdir(out_d)
    _make_outdir(out_b)
    log_d = simharness.run_scenario(cfg_d)
    log_b = simharness.run_scenario(cfg_b)
    sum_d = simharness.write_outputs(log_d, out_d)
    sum_b = simharness.write_outputs(log_b, out_b)
    doc = {
        "directed": sum_d,
        "bidirectional": sum_b,
        "comm_ratio": (
            sum_d["comm_amount"] / sum_b["comm_amount"]
            if sum_b["comm_amount"]
            else None
        ),
    }
    with open(os.path.join(outdir, "comparison.json"), "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
    if as_json:
        return CommandOutcome(0, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))
    xi_d, xi_b = sum_d["final_xi_norm"], sum_b["final_xi_norm"]
    rows = [
        ("", "directed", "bidirectional"),
        ("comm_amount", f"{sum_d['comm_amount']:.4f}", f"{sum_b['comm_amount']:.4f}"),
        ("tau_f", str(sum_d["tau_f"]), str(sum_b["tau_f"])),
        # an overflowed coordination error is null in the summaries
        ("final_xi_norm", *("null" if x is None else f"{x:.3e}" for x in (xi_d, xi_b))),
    ]
    width = max(len(r[0]) for r in rows) + 2
    lines = [f"{r[0]:<{width}}{r[1]:>16}{r[2]:>16}" for r in rows]
    lines.append(f"outputs written to {outdir}")
    return CommandOutcome(0, "\n".join(lines))


class _Parser(argparse.ArgumentParser):
    """An argument parser, and subcommand parser, whose errors raise
    ConfigError: ``main`` refuses a malformed command line with exit 1.
    Flags are never abbreviated, so ``--json`` is known before parsing."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coordsim",
        description="Multi-vehicle time coordination over switched directed topologies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        p.add_argument("--dt", type=float, default=None, help="override step size")
        p.add_argument("--seed", type=int, default=None, help="override rng seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("validate", help="check a scenario config")
    p.add_argument("--config", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("analyze", help="print the switching certificate")
    p.add_argument("--config", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("run", help="simulate one scenario")
    p.add_argument("--config", required=True)
    common(p)

    p = sub.add_parser("compare", help="directed vs bidirectional communication cost")
    p.add_argument("directed", help="directed scenario config")
    p.add_argument("bidirectional", help="bidirectional baseline config")
    common(p)
    return parser


def _dispatch(args) -> CommandOutcome:
    if args.command == "validate":
        return cmd_validate(args.config, args.json)
    if args.command == "analyze":
        return cmd_analyze(args.config, args.json)
    if args.command == "run":
        return cmd_run(args.config, args.out, args.json, args.dt, args.seed)
    if args.command == "compare":
        return cmd_compare(
            args.directed, args.bidirectional, args.out, args.json, args.dt, args.seed
        )
    raise AssertionError("unreachable")


# the one map from a refused input or failed computation to its exit code
_FAILURES = {
    ConfigError: (1, "invalid config"),
    SynthesisError: (1, "synthesis failed"),
    NumericError: (2, "numeric failure"),
}


def main(argv=None) -> int:
    level = getattr(logging, os.environ.get("COORDSIM_LOG", "WARNING").upper(), None)
    if not isinstance(level, int):  # not a level name, e.g. BASIC_FORMAT
        level = logging.WARNING
    logging.basicConfig(level=level, stream=sys.stderr)
    argv = sys.argv[1:] if argv is None else list(argv)
    as_json = "--json" in argv  # until the command line parses; flags are not abbreviated
    try:
        args = build_parser().parse_args(argv)
        as_json = args.json
        outcome = _dispatch(args)
    except tuple(_FAILURES) as exc:
        code, label = next(v for t, v in _FAILURES.items() if isinstance(exc, t))
        error = json.dumps({"ok": False, "error": str(exc)})
        outcome = CommandOutcome(code, error if as_json else f"{label}: {exc}")
    return _emit(outcome)


if __name__ == "__main__":
    raise SystemExit(main())
