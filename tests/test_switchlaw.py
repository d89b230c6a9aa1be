import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_jointly_connected_family
from coordsim.coordalg import SwitchingCertificate, build_certificate, build_projection
from coordsim.digraph import Digraph
from coordsim.switchlaw import advance, schedule


def make_cert(h_matrices, mu_list, lambda_max_p, n, reduced=None):
    """Hand-built certificate for unit tests; synthesis invariants are
    deliberately not enforced here."""
    k = n - 1
    if reduced is None:
        reduced = tuple(np.zeros((k, k)) for _ in h_matrices)
    return SwitchingCertificate(
        q=build_projection(n),
        laplacians=np.zeros((len(h_matrices), n, n)),
        reduced_laplacians=tuple(reduced),
        p=np.eye(k),
        h_matrices=tuple(h_matrices),
        mu_list=tuple(mu_list),
        dwell_bound=1.0,
        gues_overshoot=1.0,
        max_laplacian_norm=1.0,
        mu_min=min(mu_list),
        lambda_max_p=lambda_max_p,
        lambda_min_p=1.0,
        n=n,
        m=len(h_matrices),
    )


def initial_index(phi0, cert):
    return int(schedule(phi0, cert, 1.0, 1.0, 1e-3, 0)[0][0])


class TestInit:
    def test_single_topology(self):
        cert = make_cert([-np.eye(2)], [0.5], 1.0, 3)
        assert initial_index(np.array([1.0, 0.0]), cert) == 1

    def test_picks_most_negative_form(self):
        cert = make_cert([np.zeros((2, 2)), -np.eye(2)], [0.5, 0.5], 1.0, 3)
        assert initial_index(np.array([0.3, -0.2]), cert) == 2

    def test_tie_break_smallest_index(self):
        cert = make_cert([-np.eye(2), -np.eye(2)], [0.5, 0.5], 1.0, 3)
        assert initial_index(np.array([1.0, 1.0]), cert) == 1

    def test_default_scenario_initial_index(self, default_cert):
        sigma, _ = schedule(np.array([0.9, 1.7, 1.1, 0.1]), default_cert, 0.75, 1.82, 1e-3, 0)
        assert sigma[0] == 1  # reproducible for the default family

    def test_rejects_zero_phi(self, default_cert):
        with pytest.raises(ValueError, match="nonzero"):
            schedule(np.zeros(4), default_cert, 0.75, 1.82, 1e-3, 10)

    def test_rejects_bad_dimension(self, default_cert):
        with pytest.raises(ValueError, match="dimension"):
            schedule(np.ones(3), default_cert, 0.75, 1.82, 1e-3, 10)


def run_law(cert, phi0, a, b, dt, t_end):
    """The law stepped by hand with ``advance``: the final ``phi``, the
    switch log and one ``(t, V, phi^T H_sigma phi, threshold, sigma)``
    sample per step.  The per-step ``sigma`` and ``V`` must be those of
    ``schedule``."""
    n_steps = int(round(t_end / dt))
    sigma, aux_v = schedule(phi0, cert, a, b, dt, n_steps)
    mats = tuple(-(a / b) * lbar for lbar in cert.reduced_laplacians)
    phi, sig = np.asarray(phi0, float), int(sigma[0])
    switch_log, samples = [], []
    for k in range(1, n_steps + 1):
        t = k * dt
        phi, new = advance(phi, sig, mats, cert, dt)
        if new != sig:
            switch_log.append((t, sig, new))
            sig = new
        h = cert.h_matrices[sig - 1]
        mu = cert.mu_list[sig - 1]
        samples.append(
            (
                t,
                float(phi @ cert.p @ phi),
                float(phi @ h @ phi),
                -mu * cert.lambda_max_p * float(phi @ phi),
                sig,
            )
        )
    assert sigma.tolist() == [int(sigma[0])] + [s[4] for s in samples]
    assert aux_v.tolist() == [float(aux_v[0])] + [s[1] for s in samples]
    return phi, switch_log, samples


def scheduled_switches(cert, phi0, a, b, dt, t_end):
    """``(t, old, new)`` of every change of the scheduled topology."""
    sigma, _ = schedule(phi0, cert, a, b, dt, int(round(t_end / dt)))
    ks = np.flatnonzero(np.diff(sigma)) + 1
    return [(k * dt, int(sigma[k - 1]), int(sigma[k])) for k in ks]


class TestAdvance:
    def test_single_topology_never_switches(self):
        family = [Digraph(3, [(2, 1), (3, 1)])]
        cert = build_certificate(family, [0.3], 0.75, 1.82)
        _, switch_log, samples = run_law(cert, np.array([0.7, -0.4]), 0.75, 1.82, 1e-3, 5.0)
        assert samples[-1][4] == 1
        assert switch_log == []

    def test_threshold_equality_does_not_switch(self):
        # H = -I with mu * lambda_max = 1 puts every state exactly on the
        # boundary; the strict inequality must keep the topology
        reduced = (np.zeros((2, 2)), np.zeros((2, 2)))
        cert = make_cert(
            [-np.eye(2), -0.5 * np.eye(2)], [1.0, 1.0], 1.0, 3, reduced=reduced
        )
        sigma, _ = schedule(np.array([0.5, 0.5]), cert, 1.0, 1.0, 1e-3, 1)
        assert sigma.tolist() == [1, 1]

    def test_gues_envelope_and_threshold_invariant(self, default_cert):
        a, b, dt = 0.75, 1.82, 1e-3
        phi0 = np.array([0.9, 1.7, 1.1, 0.1])
        v0 = float(phi0 @ default_cert.p @ phi0)
        _, switch_log, samples = run_law(default_cert, phi0, a, b, dt, 20.0)
        rate = (a / b) * default_cert.mu_min
        switch_times = {t for t, _, _ in switch_log}
        for t, v, quad, threshold, _sigma in samples:
            assert v <= v0 * np.exp(-rate * t) * (1 + 1e-6)
            if t not in switch_times:
                # between switches the decay certificate holds at samples
                assert quad <= threshold
        assert len(switch_log) >= 3

    def test_law_holds_at_small_scale(self, default_family):
        # a = 3 drives phi^T phi far below 1e-12 within the run: the law must
        # keep switching on the exact argmin, whose forms then differ by
        # far less than any fixed absolute tolerance
        a, b = 3.0, 1.82
        cert = build_certificate(default_family, [0.2638] * 3, a, b)
        dt = cert.dwell_bound / 10
        phi0 = np.array([0.9, 1.7, 1.1, 0.1])
        v0 = float(phi0 @ cert.p @ phi0)
        _, switch_log, samples = run_law(cert, phi0, a, b, dt, 100.0)
        assert len(samples) == 34965
        rate = (a / b) * cert.mu_min
        for t, v, quad, threshold, _sigma in samples:
            assert v <= v0 * np.exp(-rate * t) * (1 + 1e-6), t
            assert quad <= threshold, t
        assert switch_log[-1][0] > 25.0

    def test_dwell_time_respected(self, default_cert):
        dt = 1e-3
        switch_log = scheduled_switches(
            default_cert, np.array([0.9, 1.7, 1.1, 0.1]), 0.75, 1.82, dt, 30.0
        )
        times = [t for t, _, _ in switch_log]
        gaps = np.diff(times)
        assert gaps.min() >= default_cert.dwell_bound - dt
        first_gap = times[0]
        assert first_gap >= default_cert.dwell_bound - dt

    def test_deterministic(self, default_cert):
        phi0 = np.array([0.9, 1.7, 1.1, 0.1])
        phi1, log1, samples1 = run_law(default_cert, phi0, 0.75, 1.82, 1e-3, 10.0)
        phi2, log2, samples2 = run_law(default_cert, phi0, 0.75, 1.82, 1e-3, 10.0)
        assert log1 == log2 and samples1 == samples2
        assert np.array_equal(phi1, phi2)

    def test_switch_log_strictly_increasing(self, default_cert):
        switch_log = scheduled_switches(
            default_cert, np.array([0.9, 1.7, 1.1, 0.1]), 0.75, 1.82, 1e-3, 30.0
        )
        times = [t for t, _, _ in switch_log]
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        for _t, old, new in switch_log:
            assert old != new
            assert 1 <= new <= default_cert.m

    def test_rejects_nonpositive_dt(self, default_cert):
        with pytest.raises(ValueError):
            schedule(np.array([0.9, 1.7, 1.1, 0.1]), default_cert, 0.75, 1.82, 0.0, 1)

    def test_rk4_matches_linear_propagator(self, default_cert):
        # one step of the generic RK4 equals the 4th-order Taylor propagator
        # of the frozen linear system
        dt = 1e-3
        phi0 = np.array([0.9, 1.7, 1.1, 0.1])
        sigma = initial_index(phi0, default_cert)
        mats = tuple(-(0.75 / 1.82) * lbar for lbar in default_cert.reduced_laplacians)
        a_mat = -(0.75 / 1.82) * default_cert.reduced_laplacians[sigma - 1]
        expected = (
            np.eye(4)
            + dt * a_mat
            + dt**2 / 2 * a_mat @ a_mat
            + dt**3 / 6 * a_mat @ a_mat @ a_mat
            + dt**4 / 24 * a_mat @ a_mat @ a_mat @ a_mat
        ) @ phi0
        phi, _ = advance(phi0, sigma, mats, default_cert, dt)
        assert np.allclose(phi, expected, atol=1e-15)


class TestRandomizedInvariants:
    """The certificate's and the law's guarantees on random jointly
    connected families, each run for ``STEPS`` steps of a tenth of its
    dwell bound.  Only runs that switch at least once are kept: a run that
    never switches tests nothing of the law (with ``m = 1`` it cannot)."""

    STEPS = 2000

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 10),
        m=st.integers(1, 6),
        mu_frac=st.floats(0.05, 0.95),
    )
    def test_law_invariants(self, seed, n, m, mu_frac):
        assume(m > 1)  # one topology: nothing to switch to
        rng = np.random.default_rng(seed)
        family = random_jointly_connected_family(rng, n=n, m=m)
        a, b = 0.75, 1.82
        # mu is admissible below 1 / lambda_max(P), and P does not depend on mu
        lambda_max_p = build_certificate(family, [1e-9] * m, a, b).lambda_max_p
        cert = build_certificate(family, [mu_frac / lambda_max_p] * m, a, b)

        assert np.array_equal(cert.p, cert.p.T)
        assert np.linalg.eigvalsh(cert.p)[0] > 0
        assert np.linalg.norm(sum(cert.h_matrices) + m * np.eye(n - 1)) <= 1e-10
        assert 0 < cert.dwell_bound < np.inf

        dt = cert.dwell_bound / 10
        phi0 = rng.uniform(-2.0, 2.0, size=n - 1)
        _, switch_log, samples = run_law(cert, phi0, a, b, dt, self.STEPS * dt)
        assume(switch_log)
        times = [0.0] + [t for t, _, _ in switch_log]
        assert np.diff(times).min(initial=np.inf) >= cert.dwell_bound - dt
        aux_v = np.array([float(phi0 @ cert.p @ phi0)] + [s[1] for s in samples])
        assert np.diff(aux_v).max() <= 1e-9 * aux_v[0]
        # at a switch the new topology is the argmin, which meets its own
        # threshold too; so every sample does
        for _t, _v, quad, threshold, _sigma in samples:
            assert quad <= threshold
