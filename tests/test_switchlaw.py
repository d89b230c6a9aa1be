import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_jointly_connected_family
from coordsim.coordalg import SwitchingCertificate, build_certificate, build_projection
from coordsim.digraph import Digraph
from coordsim.simharness import certify, load_config
from coordsim.switchlaw import CHUNK, _powers, advance, schedule


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
    """The law stepped by hand with ``advance``, chunk by chunk as
    ``schedule`` steps it: the final ``phi``, the switch log and one
    ``(t, V, phi^T H_sigma phi, threshold, sigma)`` sample per step.  V and
    the threshold test's two forms are taken with the einsums of
    ``schedule`` and ``advance``; at a switch, the argmin's own form and
    threshold as ``_argmin_quadratic`` evaluates them.  The per-step
    ``sigma`` and ``V`` must be those of ``schedule``."""
    n_steps = int(round(t_end / dt))
    sigma, aux_v = schedule(phi0, cert, a, b, dt, n_steps)
    powers = _powers(cert, a, b, dt, min(CHUNK, n_steps))
    phi, sig = np.asarray(phi0, float), int(sigma[0])
    switch_log, samples = [], []
    while len(samples) < n_steps:
        phis, new = advance(phi, sig, powers[:, : n_steps - len(samples)], cert)
        v = np.einsum("ki,ij,kj->k", phis, cert.p, phis)
        quad = np.einsum("ki,ij,kj->k", phis, cert.h_matrices[sig - 1], phis)
        norm2 = np.einsum("ki,ki->k", phis, phis)
        threshold = -cert.mu_list[sig - 1] * cert.lambda_max_p * norm2
        phi = phis[-1]
        if new != sig:
            switch_log.append(((len(samples) + len(phis)) * dt, sig, new))
            quad[-1] = float(phi @ cert.h_matrices[new - 1] @ phi)
            threshold[-1] = -cert.mu_list[new - 1] * cert.lambda_max_p * float(phi @ phi)
        sigmas = [sig] * (len(phis) - 1) + [new]
        for row in zip(v.tolist(), quad.tolist(), threshold.tolist(), sigmas):
            samples.append(((len(samples) + 1) * dt, *row))
        sig = new
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
        # advance's first sample, one power of the 4th-order Taylor
        # propagator of the frozen linear system, equals one classical RK4
        # step evaluated stage by stage
        a, b, dt = 0.75, 1.82, 1e-3
        phi0 = np.array([0.9, 1.7, 1.1, 0.1])
        sigma = initial_index(phi0, default_cert)
        mat = -(a / b) * default_cert.reduced_laplacians[sigma - 1]
        k1 = mat @ phi0
        k2 = mat @ (phi0 + 0.5 * dt * k1)
        k3 = mat @ (phi0 + 0.5 * dt * k2)
        k4 = mat @ (phi0 + dt * k3)
        expected = phi0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        phis, _ = advance(phi0, sigma, _powers(default_cert, a, b, dt, 1), default_cert)
        assert phis.shape == (1, 4)
        assert np.allclose(phis[0], expected, atol=1e-15)


class TestSwitchTimeDrift:
    """Switches take effect at step boundaries, so their times drift with
    ``dt``: about first order, the k-th switch within ``k dt`` of its time
    at a fine step.  Checked on the shipped directed family to its arrival
    time; the plain ``k dt`` bound fails at ``dt`` 2e-3 (ratio 0.97) and
    4e-3 (1.15), so it is asserted only at the shipped step and below."""

    T_END = 48.942

    def switches(self, cert, dt):
        sigma, _ = schedule(
            np.array([0.9, 1.7, 1.1, 0.1]), cert, 0.75, 1.82, dt, int(round(self.T_END / dt))
        )
        ks = np.flatnonzero(np.diff(sigma)) + 1
        return ks * dt, [(int(sigma[k - 1]), int(sigma[k])) for k in ks]

    @pytest.mark.parametrize("dt", [1e-3, 5e-4])
    def test_kth_switch_within_k_steps(self, dt, default_cert):
        ref_times, ref_pairs = self.switches(default_cert, 2.5e-4)
        times, pairs = self.switches(default_cert, dt)
        assert len(ref_pairs) == 37 and pairs == ref_pairs
        k = np.arange(1, len(times) + 1)
        assert np.all(np.abs(times - ref_times) <= k * dt)


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


def sigma_pin_cases():
    """``(cert, phi0, a, b, dt, n_steps)`` of the schedules ``SIGMA_DIGEST``
    pins: 40 seeded random jointly connected families (n 3-10, m 2-6, 2,000
    steps of a tenth of the dwell bound), the 60,000 steps of
    ``configs/directed.json``, and the ``a = 3`` schedule of
    ``test_law_holds_at_small_scale``."""
    rng = np.random.default_rng(1999)
    a, b = 0.75, 1.82
    for _ in range(40):
        n, m = int(rng.integers(3, 11)), int(rng.integers(2, 7))
        family = random_jointly_connected_family(rng, n=n, m=m)
        lambda_max_p = build_certificate(family, [1e-9] * m, a, b).lambda_max_p
        mu = float(rng.uniform(0.05, 0.95)) / lambda_max_p
        cert = build_certificate(family, [mu] * m, a, b)
        phi0 = rng.uniform(-2.0, 2.0, size=n - 1)
        yield cert, phi0, a, b, cert.dwell_bound / 10, 2000
    config = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "directed.json"))
    n_steps = int(round(config.t_max / config.dt))
    yield certify(config), np.array(config.phi0), config.a, config.b, config.dt, n_steps
    cert = build_certificate(config.topology_family, [0.2638] * 3, 3.0, 1.82)
    dt = cert.dwell_bound / 10
    yield cert, np.array(config.phi0), 3.0, 1.82, dt, int(round(100.0 / dt))


# sha256 of the sigma arrays of sigma_pin_cases, recorded with the law that
# integrated the auxiliary system one staged RK4 step at a time: the
# schedule's topology at every step boundary is part of every directed run,
# so this is never re-recorded
SIGMA_DIGEST = "56f229a683bc47fcf230b2fc2ca5fe020486df80470a6369cec740eca12f9404"


class TestSigmaPin:
    def test_sigma_bits_pinned(self):
        h = hashlib.sha256()
        switches = []
        for cert, phi0, a, b, dt, n_steps in sigma_pin_cases():
            sigma, _ = schedule(phi0, cert, a, b, dt, n_steps)
            h.update(sigma.astype("<i8").tobytes())
            switches.append(int(np.count_nonzero(np.diff(sigma))))
        assert len(switches) == 42
        assert switches[-2:] == [46, 317]
        assert h.hexdigest() == SIGMA_DIGEST
