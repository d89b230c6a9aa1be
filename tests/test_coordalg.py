import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.special import lambertw

from coordsim.coordalg import (
    ProjectionMatrix,
    _kronecker_sum,
    _spectral_norms,
    build_certificate,
    build_projection,
    check_spectrum_reduction,
    convergence_rate_bound,
    reduced_laplacian,
    solve_lyapunov,
    validate_gains,
)
from coordsim.digraph import Digraph, contains_spanning_tree, laplacian
from coordsim.errors import SynthesisError
from conftest import random_digraph, random_jointly_connected_family


class TestProjection:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_identities(self, n):
        q = build_projection(n).q
        assert np.abs(q @ np.ones(n)).max() <= 1e-12
        assert np.linalg.norm(q @ q.T - np.eye(n - 1)) <= 1e-12
        assert np.linalg.norm(q.T @ q - (np.eye(n) - np.ones((n, n)) / n)) <= 1e-12

    def test_n2_closed_form(self):
        q = build_projection(2).q
        r = 1.0 / math.sqrt(2.0)
        assert np.allclose(q, [[r, -r]], atol=1e-15)

    def test_deterministic(self):
        assert np.array_equal(build_projection(6).q, build_projection(6).q)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_projection(1)

    def test_type_validates(self):
        with pytest.raises(ValueError):
            ProjectionMatrix(np.ones((2, 3)))


class TestReducedLaplacian:
    def test_zero(self):
        q = build_projection(3)
        assert np.array_equal(reduced_laplacian(q, np.zeros((3, 3))), np.zeros((2, 2)))

    def test_n2_hand_value(self):
        q = build_projection(2)
        lbar = reduced_laplacian(q, np.array([[0, 0], [-1, 1]]))
        assert lbar.shape == (1, 1)
        assert abs(lbar[0, 0] - 1.0) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reduced_laplacian(build_projection(3), np.zeros((4, 4)))

    def test_spectrum_preserved_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = random_digraph(rng)
            q = build_projection(d.n)
            report = check_spectrum_reduction(laplacian(d), q, d)
            assert report.spectra_match, f"gap {report.max_pair_gap}"


class TestSpectrumReduction:
    def test_complete_digraph(self):
        edges = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
        d = Digraph(3, edges)
        q = build_projection(3)
        lbar = reduced_laplacian(q, laplacian(d))
        assert np.allclose(sorted(np.linalg.eigvals(lbar).real), [3.0, 3.0], atol=1e-9)
        report = check_spectrum_reduction(laplacian(d), q, d)
        assert report.hurwitz and report.spectra_match and report.connectivity_consistent

    def test_empty_digraph_marginal(self):
        d = Digraph(3)
        report = check_spectrum_reduction(laplacian(d), build_projection(3), d)
        assert not report.hurwitz
        assert report.connectivity_consistent

    def test_hurwitz_iff_spanning_tree(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            d = random_digraph(rng)
            report = check_spectrum_reduction(laplacian(d), build_projection(d.n), d)
            assert report.connectivity_consistent
            assert report.hurwitz == contains_spanning_tree(d)

    def test_rejects_non_laplacian(self):
        with pytest.raises(ValueError, match="not a Laplacian"):
            check_spectrum_reduction(np.eye(3), build_projection(3))


class TestLyapunov:
    def test_identity_case(self):
        p = solve_lyapunov(np.eye(2), 3)
        assert np.allclose(p, 1.5 * np.eye(2), atol=1e-12)

    def test_diagonal_case(self):
        p = solve_lyapunov(np.diag([1.0, 2.0]), 1)
        assert np.allclose(p, np.diag([0.5, 0.25]), atol=1e-12)

    def test_matches_scipy_on_random_families(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            family = random_jointly_connected_family(rng)
            n, m = family[0].n, len(family)
            q = build_projection(n)
            lbar_union = sum(reduced_laplacian(q, laplacian(d)) for d in family)
            p = solve_lyapunov(lbar_union, m)
            expected = scipy.linalg.solve_continuous_lyapunov(
                (-lbar_union).T, -m * np.eye(n - 1)
            )
            assert np.allclose(p, expected, atol=1e-9)

    def test_not_hurwitz_raises(self):
        # two empty digraphs: union has no spanning tree, reduced sum is 0
        q = build_projection(3)
        with pytest.raises(SynthesisError, match="jointly connected"):
            solve_lyapunov(np.zeros((2, 2)), 2)


class TestKernels:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_kronecker_sum_same_bytes_as_kron(self, k):
        rng = np.random.default_rng(k)
        eye = np.eye(k)
        for _ in range(20):
            b = rng.normal(size=(k, k)) * (rng.random((k, k)) < 0.6)
            b[rng.random((k, k)) < 0.3] *= -1.0  # turns some zeros into -0.0
            expected = np.kron(eye, b) + np.kron(b, eye)
            assert _kronecker_sum(b).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", range(1, 8))
    def test_stacked_spectral_norms_equal_norm_2(self, k):
        rng = np.random.default_rng(100 + k)
        mats = [np.zeros((k, k)), *rng.normal(size=(6, k, k))]
        norms = _spectral_norms(mats)
        expected = np.array([np.linalg.norm(x, 2) for x in mats])
        assert norms.tobytes() == expected.tobytes()
        assert norms[0] == 0.0


class TestCertificate:
    def test_default_family_invariants(self, default_family, default_cert):
        cert = default_cert
        m = cert.m
        assert np.linalg.norm(cert.p - cert.p.T) <= 1e-12
        assert cert.lambda_min_p > 0
        a_mat = -sum(cert.reduced_laplacians)
        residual = np.linalg.norm(a_mat.T @ cert.p + cert.p @ a_mat + m * np.eye(cert.n - 1))
        assert residual <= 1e-10
        for h in cert.h_matrices:
            assert np.linalg.norm(h - h.T) <= 1e-12
        total = sum(cert.h_matrices)
        assert np.linalg.norm(total + m * np.eye(cert.n - 1)) <= 1e-10
        assert cert.dwell_bound > 0
        assert 0 < cert.mu_min < 1.0 / cert.lambda_max_p
        # spectral norms of the two-edge Laplacians are known analytically
        assert abs(cert.max_laplacian_norm - math.sqrt(3.0)) < 1e-12

    def test_empty_member_gives_zero_h(self):
        # the other member is the union of two default topologies
        family = [Digraph(5), Digraph(5, [(1, 3), (4, 2), (2, 3), (5, 2)])]
        cert = build_certificate(family, [0.1, 0.1], 1.0, 2.0)
        assert np.allclose(cert.h_matrices[0], 0.0, atol=1e-15)

    def test_random_families_invariants(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            family = random_jointly_connected_family(rng)
            m, n = len(family), family[0].n
            cert = build_certificate(family, [0.05] * m, 0.5, 1.5)
            assert cert.lambda_min_p > 0
            total = sum(cert.h_matrices)
            assert np.linalg.norm(total + m * np.eye(n - 1)) <= 1e-10

    def test_mu_out_of_range(self, default_family):
        with pytest.raises(ValueError, match="admissible interval"):
            build_certificate(default_family, [0.2638, 0.2638, 9.9], 0.75, 1.82)

    def test_mu_boundary_rejected(self, default_family, default_cert):
        cap = 1.0 / default_cert.lambda_max_p
        with pytest.raises(ValueError, match="admissible interval"):
            build_certificate(default_family, [cap, 0.2, 0.2], 0.75, 1.82)

    def test_not_jointly_connected(self):
        with pytest.raises(SynthesisError):
            build_certificate([Digraph(3), Digraph(3)], [0.1, 0.1], 1.0, 1.0)

    def test_bad_gains_and_lengths(self, default_family):
        with pytest.raises(ValueError, match="positive"):
            build_certificate(default_family, [0.1] * 3, -1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            build_certificate(default_family, [0.1] * 3, 1.0, 0.0)
        with pytest.raises(ValueError, match="one mu per topology"):
            build_certificate(default_family, [0.1], 1.0, 1.0)


def digest_families():
    """43 fixed jointly connected families: n 2-10 and m 1-6, n = 2 among
    them, and several with an empty member topology (the last one by
    construction)."""
    families = [
        random_jointly_connected_family(np.random.default_rng(k), n=2 + k % 9, m=1 + k // 7)
        for k in range(42)
    ]
    families.append(
        random_jointly_connected_family(np.random.default_rng(42), n=5, m=2) + [Digraph(5)]
    )
    return families


class TestCertificateBits:
    # sha256 over every array and scalar of the certificates synthesized for
    # digest_families(); a change to the synthesis that moves any bit of
    # P, H_i, the reduced Laplacians or the derived bounds changes it
    DIGEST = "dd59f87409b0516a5c0c23097f74c4a2458fa7b24fd8158900a44454da459eb7"

    def test_certificate_digest(self):
        sha = hashlib.sha256()
        families = digest_families()
        assert any(not d.edges for d in families[-1])
        assert {f[0].n for f in families} == set(range(2, 11))
        assert {len(f) for f in families} >= set(range(1, 7))
        for family in families:
            cert = build_certificate(family, [0.01] * len(family), 0.75, 1.82)
            for arr in (cert.p, *cert.h_matrices, *cert.reduced_laplacians):
                sha.update(arr.tobytes())
            scalars = (
                cert.dwell_bound,
                cert.max_laplacian_norm,
                cert.lambda_min_p,
                cert.lambda_max_p,
                cert.gues_overshoot,
            )
            sha.update(np.array(scalars, dtype=float).tobytes())
        assert sha.hexdigest() == self.DIGEST


def scalar_family_quantities(family, mu_list, a, b):
    """Closed-form dwell time for scalar reduced Laplacians via the
    crossing of the two terms (Lambert W), independent of the grid
    implementation."""
    n = family[0].n
    m = len(family)
    q = build_projection(n)
    lbars = [float(reduced_laplacian(q, laplacian(d))[0, 0]) for d in family]
    p = m / (2.0 * sum(lbars))
    hs = [-2.0 * lb * p for lb in lbars]
    nus = [abs(2.0 * lb * (h + 1.0)) for lb, h in zip(lbars, hs)]
    a_coef = min(
        (1.0 - mu * p) / ((a / b) * nu)
        for mu, nu in zip(mu_list, nus)
        if nu > 0
    )
    b_coef = min(1.0 / ((a / b) * lb) for lb in lbars if lb > 0)
    x = float(lambertw(2.0 * a_coef / b_coef).real) / 2.0
    return b_coef * x


class TestDwellTime:
    def test_scalar_two_topology_lambertw_oracle(self):
        family = [Digraph(2, [(2, 1)]), Digraph(2, [(1, 2), (2, 1)])]
        mu_list = [0.5, 0.5]
        a, b = 0.75, 1.82
        cert = build_certificate(family, mu_list, a, b)
        expected = scalar_family_quantities(family, mu_list, a, b)
        assert abs(cert.dwell_bound - expected) / expected <= 1e-4

    def test_scalar_single_topology_cap_form(self):
        # one topology: H = -I exactly, the first term is infinite and the
        # supremum saturates at the grid cap theta = 1e4
        family = [Digraph(2, [(2, 1)])]
        a, b = 0.75, 1.82
        cert = build_certificate(family, [0.5], a, b)
        norm_lbar = 1.0
        expected = math.log(1e4) / ((a / b) * norm_lbar)
        assert abs(cert.dwell_bound - expected) / expected <= 1e-4

    def test_monotone_in_gain_ratio(self, default_family):
        etas = [
            build_certificate(default_family, [0.2638] * 3, a, 1.82).dwell_bound
            for a in (1.5, 0.75, 0.375, 0.1)
        ]
        assert all(e2 > e1 for e1, e2 in zip(etas, etas[1:]))

    def test_permutation_invariant(self, default_family):
        mu = [0.2638, 0.2, 0.25]
        cert1 = build_certificate(default_family, mu, 0.75, 1.82)
        perm = [default_family[2], default_family[0], default_family[1]]
        cert2 = build_certificate(perm, [mu[2], mu[0], mu[1]], 0.75, 1.82)
        assert abs(cert1.dwell_bound - cert2.dwell_bound) <= 1e-9

    def test_rejects_bad_gains(self, default_family):
        with pytest.raises(ValueError, match="gain a must be positive"):
            build_certificate(default_family, [0.2638] * 3, 0.0, 1.0)

    @pytest.mark.parametrize(
        "a, b, finite", [(1e300, 1.0, True), (1e-320, 1.0, False), (5e-324, 10.0, False)]
    )
    def test_extreme_gain_ratio_without_numpy_warnings(self, default_family, a, b, finite):
        # a/b so large that the search's denominators overflow to inf, or so
        # small that they are subnormal or 0: the terms go to 0 or inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dwell = build_certificate(default_family, [0.2638] * 3, a, b).dwell_bound
        assert (0.0 < dwell < 1e-290) if finite else dwell == math.inf

    def test_pinned_default_family(self, default_cert):
        assert default_cert.dwell_bound == 0.11440062225253914

    def test_pinned_six_topology_family(self):
        family = [
            Digraph(5, [(2, 1)]),
            Digraph(5, [(3, 2)]),
            Digraph(5, [(4, 3)]),
            Digraph(5, [(5, 4)]),
            Digraph(5, [(1, 5), (3, 1)]),
            Digraph(5, [(4, 2)]),
        ]
        cert = build_certificate(family, [0.1, 0.2, 0.3, 0.05, 0.25, 0.15], 0.75, 1.82)
        assert cert.dwell_bound == 0.03881090173290789


class TestGainValidation:
    def test_tiny_a_passes(self, default_family):
        cert = build_certificate(default_family, [0.2638] * 3, 1e-9, 1.0)
        assert validate_gains(1e-9, 1.0, cert).passed

    def test_boundary_failure_named(self, default_cert):
        report = validate_gains(0.75, 1.82, default_cert)
        sqrt_check = report.checks[1]
        assert "sqrt" in sqrt_check.name
        # recompute the floor independently
        mn = default_cert.max_laplacian_norm
        k2 = default_cert.gues_overshoot**2
        mu = default_cert.mu_min
        floor = math.sqrt((mn + 4 * mn**2 * k2 / mu + mu / (4 * k2)) * 0.75)
        assert abs(sqrt_check.rhs - floor) < 1e-12
        assert sqrt_check.passed == (1.82 >= floor)

    def test_just_below_floor_fails(self, default_cert):
        mn = default_cert.max_laplacian_norm
        k2 = default_cert.gues_overshoot**2
        mu = default_cert.mu_min
        a = 1e-4
        floor = math.sqrt((mn + 4 * mn**2 * k2 / mu + mu / (4 * k2)) * a)
        report = validate_gains(a, floor - 1e-6, default_cert)
        assert not report.checks[1].passed
        assert not report.passed
        report_ok = validate_gains(a, floor + 1e-6, default_cert)
        assert report_ok.passed

    def test_dict_shape(self, default_cert):
        d = validate_gains(0.75, 1.82, default_cert).to_dict()
        assert {"checks", "passed"} <= set(d)
        assert all({"name", "lhs", "rhs", "passed"} <= set(c) for c in d["checks"])


class TestRateBound:
    def test_zero_at_zero_a(self, default_cert):
        assert convergence_rate_bound(0.0, 1.82, default_cert) == 0.0

    def test_linear_in_mu(self, default_family):
        c1 = build_certificate(default_family, [0.1] * 3, 0.75, 1.82)
        c2 = build_certificate(default_family, [0.2] * 3, 0.75, 1.82)
        r1 = convergence_rate_bound(0.75, 1.82, c1)
        r2 = convergence_rate_bound(0.75, 1.82, c2)
        assert abs(r2 / r1 - 2.0) < 1e-12

    def test_default_value_positive(self, default_cert):
        r = convergence_rate_bound(0.75, 1.82, default_cert)
        assert r > 0
        expected = (0.75 / (6 * 1.82)) * (
            default_cert.mu_min / default_cert.gues_overshoot**2
        )
        assert abs(r - expected) < 1e-15
