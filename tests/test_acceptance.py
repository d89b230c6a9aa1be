"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy closed-loop
scenarios are shared module-scoped fixtures so the whole suite stays
within its runtime budget.
"""

import math
import time

import numpy as np
import pytest

from coordsim.coordalg import (
    build_certificate,
    build_projection,
    check_spectrum_reduction,
    convergence_rate_bound,
    reduced_laplacian,
    solve_lyapunov,
)
from coordsim.digraph import Digraph, contains_spanning_tree, laplacian
from coordsim.simharness import (
    default_bidirectional_config,
    default_directed_config,
    default_directed_family,
    run_scenario,
    write_outputs,
)
from coordsim.switchlaw import advance, init_switching
from conftest import random_digraph, random_jointly_connected_family

A, B, MU = 0.75, 1.82, 0.2638
PHI0 = [0.9, 1.7, 1.1, 0.1]


@pytest.fixture(scope="module")
def directed_run():
    t0 = time.perf_counter()
    log = run_scenario(default_directed_config())
    return log, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bidirectional_run():
    return run_scenario(default_bidirectional_config())


def test_criterion_01_projection_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 11):
        q = build_projection(n).q
        worst = max(
            worst,
            float(np.abs(q @ np.ones(n)).max()),
            float(np.linalg.norm(q @ q.T - np.eye(n - 1))),
            float(np.linalg.norm(q.T @ q - (np.eye(n) - np.ones((n, n)) / n))),
        )
        assert np.abs(q @ np.ones(n)).max() <= 1e-12
        assert np.linalg.norm(q @ q.T - np.eye(n - 1)) <= 1e-12
        assert np.linalg.norm(q.T @ q - (np.eye(n) - np.ones((n, n)) / n)) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[criterion 1] projection identities: PASS (worst residual {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_spectrum_reduction_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst_gap = 0.0
    for _ in range(100):
        d = random_digraph(rng)
        report = check_spectrum_reduction(laplacian(d), build_projection(d.n), d)
        worst_gap = max(worst_gap, report.max_pair_gap)
        assert report.spectra_match, f"spectrum gap {report.max_pair_gap:.2e}"
        assert report.hurwitz == contains_spanning_tree(d)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(
        f"[criterion 2] reduced-spectrum suite (100 digraphs): PASS "
        f"(worst pairing gap {worst_gap:.2e}, {elapsed:.2f}s)"
    )


def test_criterion_03_lyapunov_synthesis():
    families = [default_directed_family()]
    rng = np.random.default_rng(7)
    families += [random_jointly_connected_family(rng) for _ in range(20)]
    worst_res = 0.0
    worst_sum = 0.0
    for family in families:
        n, m = family[0].n, len(family)
        q = build_projection(n)
        lbar_union = sum(reduced_laplacian(q, laplacian(d)) for d in family)
        p = solve_lyapunov(lbar_union, m)
        res = np.linalg.norm((-lbar_union).T @ p + p @ (-lbar_union) + m * np.eye(n - 1))
        assert res <= 1e-10
        assert np.linalg.eigvalsh(p)[0] > 0
        cert = build_certificate(family, [0.05] * m, A, B)
        h_sum = sum(cert.h_matrices)
        gap = np.linalg.norm(h_sum + m * np.eye(n - 1))
        assert gap <= 1e-10
        worst_res = max(worst_res, float(res))
        worst_sum = max(worst_sum, float(gap))
    print(
        f"[criterion 3] Lyapunov synthesis (default + 20 random families): PASS "
        f"(worst residual {worst_res:.2e}, worst sum identity {worst_sum:.2e})"
    )


def test_criterion_04_auxiliary_exponential_stability():
    cert = build_certificate(default_directed_family(), [MU] * 3, A, B)
    dt = 1e-3
    t0 = time.perf_counter()
    state = init_switching(np.array(PHI0), cert, A, B)
    v0 = float(state.phi @ cert.p @ state.phi)
    rate = (A / B) * cert.mu_min
    worst_ratio = 0.0
    for _ in range(int(round(50.0 / dt))):
        advance(state, dt, cert)
        v = float(state.phi @ cert.p @ state.phi)
        bound = v0 * math.exp(-rate * state.t) * (1.0 + 1e-6)
        worst_ratio = max(worst_ratio, v / bound)
        assert v <= bound
    elapsed = time.perf_counter() - t0
    times = [t for t, _, _ in state.switch_log]
    assert len(times) >= 2
    min_gap = min(b_ - a_ for a_, b_ in zip(times, times[1:]))
    assert min_gap >= cert.dwell_bound - dt
    assert elapsed < 10.0
    print(
        f"[criterion 4] auxiliary exponential stability: PASS "
        f"(worst V ratio {worst_ratio:.6f}, {len(times)} switches, "
        f"min gap {min_gap:.3f}s >= {cert.dwell_bound - dt:.3f}s, {elapsed:.2f}s)"
    )


def test_criterion_05_dwell_time_oracle():
    # scalar single-topology family: the decay matrix is exactly -identity,
    # the first dwell term is infinite, and the supremum saturates at the
    # theta-grid cap, giving the closed form ln(1e4) / ((a/b) |Lbar|)
    family = [Digraph(2, [(2, 1)])]
    cert = build_certificate(family, [0.5], A, B)
    closed_form = math.log(1e4) / ((A / B) * 1.0)
    rel = abs(cert.dwell_bound - closed_form) / closed_form
    assert rel <= 1e-4
    print(
        f"[criterion 5] dwell-time oracle (scalar family): PASS "
        f"(grid {cert.dwell_bound:.6f} vs closed form {closed_form:.6f}, rel {rel:.2e})"
    )


def test_criterion_06_directed_end_to_end(directed_run):
    log, elapsed = directed_run
    t = log.t

    # (a) coordination error stays small once converged
    max_xi_late = float(log.xi_norm[t >= 25.0].max())
    assert max_xi_late <= 0.05

    # (b) fitted decay of the initial transient beats half the rate bound
    rate_floor = convergence_rate_bound(A, B, log.certificate)
    early = t <= 25.0
    peak = int(np.argmax(log.xi_norm[early]))
    xi = log.xi_norm
    below = np.nonzero((np.arange(len(t)) > peak) & (xi < 1e-3))[0]
    fit_end = below[0] if len(below) else int(early.sum()) - 1
    window = slice(peak, fit_end + 1)
    slope = np.polyfit(t[window], np.log(xi[window]), 1)[0]
    fitted_rate = -float(slope)
    assert fitted_rate >= 0.5 * rate_floor

    # (c) feasibility holds throughout
    assert log.violations == []

    # (d) arrival window
    assert log.tau_f is not None
    assert 46.0 <= log.tau_f <= 50.0

    # (e) stacked path-following error after the catch-up transient
    stacked = np.sqrt((log.epf_norm**2).sum(axis=1))
    max_epf_late = float(stacked[t >= 10.0].max())
    assert max_epf_late <= 0.5

    assert elapsed < 60.0
    print(
        f"[criterion 6] directed end-to-end: PASS "
        f"(max xi(t>=25) {max_xi_late:.4f}, fitted rate {fitted_rate:.3f} >= "
        f"{0.5 * rate_floor:.5f}, 0 violations, tau_f {log.tau_f:.2f}s, "
        f"max |e_pf|(t>=10) {max_epf_late:.4f}m, {elapsed:.1f}s)"
    )


def test_criterion_07_communication_comparison(directed_run, bidirectional_run):
    log_d, _ = directed_run
    log_b = bidirectional_run
    ratio = log_d.comm_amount / log_b.comm_amount
    assert log_d.comm_amount < 0.8 * log_b.comm_amount
    assert 0.4 < ratio < 0.8

    # similar coordination performance: terminal errors within a factor of
    # two, or both already below the 1e-3 coordinated threshold (terminal
    # values of two converged runs are noise-scale residues)
    f_d, f_b = log_d.final_xi_norm, log_b.final_xi_norm
    similar = (0.5 <= f_d / f_b <= 2.0) or max(f_d, f_b) <= 1e-3
    assert similar
    print(
        f"[criterion 7] communication comparison: PASS "
        f"(directed {log_d.comm_amount:.2f} vs bidirectional {log_b.comm_amount:.2f}, "
        f"ratio {ratio:.3f}; final xi {f_d:.2e} vs {f_b:.2e})"
    )


def test_criterion_08_pe_connectivity_positive(bidirectional_run):
    log = bidirectional_run
    assert log.lambda_hat is not None and len(log.lambda_hat) > 0
    lam_min = float(log.lambda_hat.min())
    assert np.all(log.lambda_hat_t >= log.config.pe_window - 1e-9)
    assert lam_min > 0.0
    print(
        f"[criterion 8] windowed connectivity on baseline: PASS "
        f"(lambda_hat_min {lam_min:.4f} > 0 over t >= {log.config.pe_window}s)"
    )


def test_criterion_09_integrator_order():
    # switch-free smooth segment: single-topology family, vehicles started
    # near their targets with matched velocity, horizon before the ramp
    family = [Digraph(5, [(1, 3), (2, 3), (4, 2), (5, 2)])]
    base = default_directed_config()
    fam = base.trajectory_family()
    p0, v0 = fam.pos_vel_all(np.zeros(5))
    p0 = p0 + np.array([0.11, -0.07, 0.05])

    def run_at(dt):
        cfg = default_directed_config(
            topology_family=family,
            mu_list=[0.3],
            dt=dt,
            t_max=10.0,
            initial_positions=p0.tolist(),
            initial_velocities=v0.tolist(),
        )
        log = run_scenario(cfg)
        assert log.switch_log == []
        s = log.final_state
        return np.concatenate(
            [s["gamma"], s["gamma_dot"], s["p"].ravel(), s["v"].ravel()]
        )

    coarse = run_at(1e-3)
    fine = run_at(5e-4)
    diff = float(np.linalg.norm(coarse - fine))
    assert diff < 1e-6
    print(f"[criterion 9] integrator order (step halving): PASS (terminal diff {diff:.2e})")


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    import json as _json

    cfg = default_directed_config(t_max=1.5)
    cfg_path.write_text(_json.dumps(cfg.to_dict()))
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        log = run_scenario(default_directed_config(t_max=1.5))
        write_outputs(log, str(out))
        outs.append(out)
    identical = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("metrics.csv", "switches.csv", "summary.json")
    )
    assert identical
    print("[criterion 10] determinism: PASS (byte-identical metrics, switches, summary)")
