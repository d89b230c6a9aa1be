import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import lambertw

from coordsim import coordalg
from coordsim.coordalg import (
    THETA_CAP,
    ProjectionMatrix,
    _kronecker_sum,
    _lambert_w,
    _spectral_norms,
    build_certificate,
    build_projection,
    convergence_rate_bound,
    reduced_laplacian,
    solve_lyapunov,
    validate_gains,
)
from coordsim.digraph import Digraph, contains_spanning_tree
from coordsim.errors import SynthesisError
from coordsim.simharness import MAX_SYNTHESIS_N
from conftest import random_digraph, random_jointly_connected_family
from reference import adjacency, check_spectrum_reduction, laplacian


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
    DIGEST = "c15e8b975d376bddbd255f63a3e65e170561b99f9ba83ed2694faef63921ec5e"

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


class TestSynthesisStructure:
    """Synthesis computes each object once, on stacks, and only when read."""

    def test_laplacian_norms_on_first_read_only(self, default_family, monkeypatch):
        calls = []

        def counted(matrices):
            calls.append(len(matrices))
            return _spectral_norms(matrices)

        monkeypatch.setattr(coordalg, "_spectral_norms", counted)
        cert = build_certificate(default_family, [0.2638] * 3, 0.75, 1.82)
        assert calls == [6]  # the dwell bound's one SVD: 3 Lbar_i and 3 nu_i
        first = cert.max_laplacian_norm
        assert calls == [6, 3]
        assert cert.max_laplacian_norm == first
        assert calls == [6, 3]

    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_projection_built_once_per_size(self, n):
        q = build_projection(n)
        assert build_projection(n) is q
        assert not q.q.flags.writeable
        with pytest.raises(ValueError):
            q.q[0, 0] = 1.0

    def test_certificate_stacks_are_read_only(self, default_cert):
        for name in ("h_matrices", "reduced_laplacians"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(default_cert, name)[0][0, 0] = 1.0
        for arr in (default_cert.p, default_cert.laplacians):
            assert not arr.flags.writeable


class TestSynthesisProperties:
    """The certificate's guarantees on random jointly connected families
    (no law run), and its Laplacian stack against the edge lists."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10), m=st.integers(1, 6))
    def test_certificate_invariants(self, seed, n, m):
        family = random_jointly_connected_family(np.random.default_rng(seed), n=n, m=m)
        cert = build_certificate(family, [0.01] * m, 0.75, 1.82)

        assert np.array_equal(cert.p, cert.p.T)
        assert np.linalg.eigvalsh(cert.p)[0] > 0
        assert np.linalg.norm(sum(cert.h_matrices) + m * np.eye(n - 1)) <= 1e-10
        assert 0 < cert.dwell_bound < math.inf
        expected = dwell_oracle(family, [0.01] * m, 0.75, 1.82, cert.p)
        assert abs(cert.dwell_bound - expected) <= 1e-13 * expected

        # diag(in-degrees) - adjacency from the edge loop of adjacency(),
        # widened to float: +0.0 off the edges and on empty rows
        by_topology = []
        for d in family:
            a = adjacency(d)
            by_topology.append((np.diag(a.sum(axis=1)) - a).astype(float))
        assert cert.laplacians.shape == (m, n, n) and cert.laplacians.dtype == float
        assert cert.laplacians.tobytes() == np.stack(by_topology).tobytes()
        widened = [laplacian(d).astype(float) for d in family]
        assert cert.laplacians.tobytes() == np.stack(widened).tobytes()


class TestSynthesisCap:
    def test_synthesis_at_the_cap_stays_small(self):
        # a directed ring of MAX_SYNTHESIS_N vehicles dealt over three
        # topologies; the (n-1)^2 x (n-1)^2 Lyapunov system is the peak
        n = MAX_SYNTHESIS_N
        assert n >= 10
        ring = [(i % n + 1, i) for i in range(1, n + 1)]
        family = [Digraph(n, ring[k::3]) for k in range(3)]
        tracemalloc.start()
        try:
            cert = build_certificate(family, [0.001] * 3, 0.75, 1.82)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < cert.dwell_bound < math.inf
        assert peak < 100 * 2**20


def dwell_oracle(family, mu_list, a, b, p):
    """The closed-form dwell bound ``min(W(2 c r) / 2, ln 1e4) / ((a/b) r)``
    of the family under the Lyapunov solution ``p``, with the spectral
    norms of ``np.linalg.norm(., 2)`` and scipy's Lambert W: independent of
    ``_spectral_norms`` and ``_lambert_w``."""
    q = build_projection(family[0].n)
    eye = np.eye(len(p))
    lambda_max_p = np.linalg.eigvalsh(p)[-1]
    c, r = math.inf, 0.0
    for d, mu in zip(family, mu_list):
        lbar = reduced_laplacian(q, laplacian(d))
        h = (-lbar).T @ p + p @ (-lbar)
        h = 0.5 * (h + h.T)
        nu = np.linalg.norm(lbar.T @ (h + eye) + (h + eye) @ lbar, 2)
        if nu > 0:
            c = min(c, (1.0 - mu * lambda_max_p) / nu)
        r = max(r, np.linalg.norm(lbar, 2))
    u = min(float(lambertw(2.0 * c * r).real) / 2.0, math.log(1e4))
    return float(u / ((a / b) * r))


def scalar_lyapunov(family):
    """``P`` of a two-node family in closed form: ``2 P sum(lbar_i) = m``."""
    q = build_projection(2)
    lbars = [float(reduced_laplacian(q, laplacian(d))[0, 0]) for d in family]
    return np.array([[len(family) / (2.0 * sum(lbars))]])


class TestDwellTime:
    def test_scalar_two_topology_lambertw_oracle(self):
        family = [Digraph(2, [(2, 1)]), Digraph(2, [(1, 2), (2, 1)])]
        mu_list = [0.5, 0.5]
        a, b = 0.75, 1.82
        cert = build_certificate(family, mu_list, a, b)
        expected = dwell_oracle(family, mu_list, a, b, scalar_lyapunov(family))
        assert abs(cert.dwell_bound - expected) / expected <= 1e-13

    def test_scalar_single_topology_cap_form(self):
        # one topology: H = -I exactly, the first term is infinite and the
        # supremum saturates at the cap theta = 1e4
        family = [Digraph(2, [(2, 1)])]
        a, b = 0.75, 1.82
        cert = build_certificate(family, [0.5], a, b)
        norm_lbar = 1.0
        expected = math.log(1e4) / ((a / b) * norm_lbar)
        assert abs(cert.dwell_bound - expected) / expected <= 1e-13

    def test_lambert_w_matches_scipy(self):
        # from 1e-300 up to the argument at which the crossing reaches the cap
        cutoff = 2.0 * THETA_CAP**2 * math.log(THETA_CAP)
        xs = [0.0, 1.0, math.e, cutoff, *np.geomspace(1e-300, cutoff, 4000).tolist()]
        for x in xs:
            w, ref = _lambert_w(x), float(lambertw(x).real)
            assert type(w) is float and abs(w - ref) <= 2 * math.ulp(ref), x
        assert _lambert_w(math.e) == 1.0

    @pytest.mark.parametrize(
        "a, b, bound",
        [
            # a/b underflows to 0: the bound's denominator (a/b) r is 0
            (1e-300, 1e300, math.inf),
            # a/b overflows to inf: the bound is 0
            (1e300, 1e-300, 0.0),
            (1e-300, 1.0, float.fromhex("0x1.2056aaace8e58p+992")),
            (1e300, 1.0, float.fromhex("0x1.02a210eb8ebe1p-1001")),
        ],
    )
    def test_extreme_gain_ratio_bits(self, default_family, a, b, bound):
        # a Python float in each case, with no ZeroDivisionError where the
        # denominator is 0
        dwell = build_certificate(default_family, [0.2638] * 3, a, b).dwell_bound
        assert type(dwell) is float and dwell.hex() == bound.hex()

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
        # a/b so large that the bound is tiny, or so small that its
        # denominator is subnormal or 0: the bound is then inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dwell = build_certificate(default_family, [0.2638] * 3, a, b).dwell_bound
        assert (0.0 < dwell < 1e-290) if finite else dwell == math.inf

    def test_pinned_default_family(self, default_cert):
        assert default_cert.dwell_bound == 0.11440066678206048

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
        assert cert.dwell_bound == 0.03881090351057806


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
