import numpy as np
import pytest

from coordsim.coordalg import SwitchingCertificate, build_certificate, build_projection
from coordsim.digraph import Digraph
from coordsim.switchlaw import advance, init_switching


def make_cert(h_matrices, mu_list, lambda_max_p, n, reduced=None):
    """Hand-built certificate for unit tests; synthesis invariants are
    deliberately not enforced here."""
    k = n - 1
    if reduced is None:
        reduced = tuple(np.zeros((k, k)) for _ in h_matrices)
    return SwitchingCertificate(
        q=build_projection(n),
        reduced_laplacians=tuple(reduced),
        reduced_union=sum(reduced),
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


class TestInit:
    def test_single_topology(self):
        cert = make_cert([-np.eye(2)], [0.5], 1.0, 3)
        assert init_switching(np.array([1.0, 0.0]), cert, 1.0, 1.0).sigma == 1

    def test_picks_most_negative_form(self):
        cert = make_cert([np.zeros((2, 2)), -np.eye(2)], [0.5, 0.5], 1.0, 3)
        assert init_switching(np.array([0.3, -0.2]), cert, 1.0, 1.0).sigma == 2

    def test_tie_break_smallest_index(self):
        cert = make_cert([-np.eye(2), -np.eye(2)], [0.5, 0.5], 1.0, 3)
        assert init_switching(np.array([1.0, 1.0]), cert, 1.0, 1.0).sigma == 1

    def test_default_scenario_initial_index(self, default_cert):
        st = init_switching(np.array([0.9, 1.7, 1.1, 0.1]), default_cert, 0.75, 1.82)
        assert st.sigma == 1  # reproducible for the default family

    def test_rejects_zero_phi(self, default_cert):
        with pytest.raises(ValueError, match="nonzero"):
            init_switching(np.zeros(4), default_cert, 0.75, 1.82)

    def test_rejects_bad_dimension(self, default_cert):
        with pytest.raises(ValueError, match="dimension"):
            init_switching(np.ones(3), default_cert, 0.75, 1.82)


def run_law(cert, phi0, a, b, dt, t_end):
    st = init_switching(phi0, cert, a, b)
    samples = []
    n_steps = int(round(t_end / dt))
    for _ in range(n_steps):
        advance(st, dt, cert)
        h = cert.h_matrices[st.sigma - 1]
        mu = cert.mu_list[st.sigma - 1]
        phi = st.phi
        samples.append(
            (
                st.t,
                float(phi @ cert.p @ phi),
                float(phi @ h @ phi),
                -mu * cert.lambda_max_p * float(phi @ phi),
                st.sigma,
            )
        )
    return st, samples


class TestAdvance:
    def test_single_topology_never_switches(self):
        family = [Digraph(3, [(2, 1), (3, 1)])]
        cert = build_certificate(family, [0.3], 0.75, 1.82)
        st, _ = run_law(cert, np.array([0.7, -0.4]), 0.75, 1.82, 1e-3, 5.0)
        assert st.sigma == 1
        assert st.switch_log == []

    def test_threshold_equality_does_not_switch(self):
        # H = -I with mu * lambda_max = 1 puts every state exactly on the
        # boundary; the strict inequality must keep the topology
        reduced = (np.zeros((2, 2)), np.zeros((2, 2)))
        cert = make_cert(
            [-np.eye(2), -0.5 * np.eye(2)], [1.0, 1.0], 1.0, 3, reduced=reduced
        )
        st = init_switching(np.array([0.5, 0.5]), cert, 1.0, 1.0)
        advance(st, 1e-3, cert)
        assert st.sigma == 1
        assert st.switch_log == []

    def test_gues_envelope_and_threshold_invariant(self, default_cert):
        a, b, dt = 0.75, 1.82, 1e-3
        phi0 = np.array([0.9, 1.7, 1.1, 0.1])
        v0 = float(phi0 @ default_cert.p @ phi0)
        st, samples = run_law(default_cert, phi0, a, b, dt, 20.0)
        rate = (a / b) * default_cert.mu_min
        switch_times = {t for t, _, _ in st.switch_log}
        for t, v, quad, threshold, _sigma in samples:
            assert v <= v0 * np.exp(-rate * t) * (1 + 1e-6)
            if t not in switch_times:
                # between switches the decay certificate holds at samples
                assert quad <= threshold + 1e-12
        assert len(st.switch_log) >= 3

    def test_dwell_time_respected(self, default_cert):
        dt = 1e-3
        st, _ = run_law(
            default_cert, np.array([0.9, 1.7, 1.1, 0.1]), 0.75, 1.82, dt, 30.0
        )
        times = [t for t, _, _ in st.switch_log]
        gaps = np.diff(times)
        assert gaps.min() >= default_cert.dwell_bound - dt
        first_gap = times[0]
        assert first_gap >= default_cert.dwell_bound - dt

    def test_deterministic(self, default_cert):
        st1, _ = run_law(default_cert, np.array([0.9, 1.7, 1.1, 0.1]), 0.75, 1.82, 1e-3, 10.0)
        st2, _ = run_law(default_cert, np.array([0.9, 1.7, 1.1, 0.1]), 0.75, 1.82, 1e-3, 10.0)
        assert st1.switch_log == st2.switch_log
        assert np.array_equal(st1.phi, st2.phi)

    def test_switch_log_strictly_increasing(self, default_cert):
        st, _ = run_law(
            default_cert, np.array([0.9, 1.7, 1.1, 0.1]), 0.75, 1.82, 1e-3, 30.0
        )
        times = [t for t, _, _ in st.switch_log]
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        for _t, old, new in st.switch_log:
            assert old != new
            assert 1 <= new <= default_cert.m

    def test_rejects_nonpositive_dt(self, default_cert):
        st = init_switching(np.array([0.9, 1.7, 1.1, 0.1]), default_cert, 0.75, 1.82)
        with pytest.raises(ValueError):
            advance(st, 0.0, default_cert)

    def test_rk4_matches_linear_propagator(self, default_cert):
        # one step of the generic RK4 equals the 4th-order Taylor propagator
        # of the frozen linear system
        dt = 1e-3
        st = init_switching(np.array([0.9, 1.7, 1.1, 0.1]), default_cert, 0.75, 1.82)
        a_mat = -(0.75 / 1.82) * default_cert.reduced_laplacians[st.sigma - 1]
        expected = (
            np.eye(4)
            + dt * a_mat
            + dt**2 / 2 * a_mat @ a_mat
            + dt**3 / 6 * a_mat @ a_mat @ a_mat
            + dt**4 / 24 * a_mat @ a_mat @ a_mat @ a_mat
        ) @ st.phi
        advance(st, dt, default_cert)
        assert np.allclose(st.phi, expected, atol=1e-15)
