import math

import numpy as np
import pytest

from squeeze import (
    Direction,
    NumericalError,
    PointC2,
    ValidationError,
    caratheodory_lower_search,
    caratheodory_upper_slices,
    kobayashi_upper_search,
    monomial_disc_oracle,
    annulus_model_domain,
    reference_metric,
)
from squeeze.estimate import BallModel, PolydiscModel

from helpers import MonomialModel, coefficient_bound_check, unpruned_disc_oracle

P0C = PointC2(0.0j, 0.0j)
XI11 = Direction(1.0 + 0.0j, 1.0 + 0.0j)
XI10 = Direction(1.0 + 0.0j, 0.0j)


class TestReference:
    def test_ball_center(self):
        k, c = reference_metric("ball", P0C, XI11)
        assert k == c == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_bidisc_center(self):
        k, c = reference_metric("bidisc", P0C, XI11)
        assert k == c == 1.0

    def test_disc_mobius(self):
        k, c = reference_metric("disc", 0.5, 1.0)
        assert k == c == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_outside_rejected(self):
        with pytest.raises(ValidationError):
            reference_metric("disc", 1.5, 1.0)
        with pytest.raises(ValidationError):
            reference_metric("ball", PointC2(1.0 + 0.0j, 1.0 + 0.0j), XI11)


class TestKobayashiSearch:
    def test_bidisc_center(self):
        b = kobayashi_upper_search(PolydiscModel(), P0C, XI11, seed=1)
        assert b.value <= 1.05
        assert not b.certified

    def test_disc_factor(self):
        b = kobayashi_upper_search(PolydiscModel(), P0C, XI10, seed=1)
        assert b.value == pytest.approx(1.0, rel=5e-2)

    def test_monomial_model_respects_lower_bound(self):
        b = kobayashi_upper_search(MonomialModel(8), PointC2(1.0 + 0.0j, 0.0j),
                                   XI11, seed=2, budget=60, restarts=3)
        assert b.value >= 2.0 - 1e-9

    def test_deterministic(self):
        b1 = kobayashi_upper_search(BallModel(), P0C, XI11, seed=5)
        b2 = kobayashi_upper_search(BallModel(), P0C, XI11, seed=5)
        assert b1.value == b2.value

    def test_candidate_disc_structure(self):
        b, disc, _trace = kobayashi_upper_search(
            PolydiscModel(), P0C, XI11, seed=1, return_trace=True)
        cz, cw = disc.coefficients()
        # f(0) = p and f'(0) = tau * xi hold exactly by construction
        assert cz[0] == P0C.z and cw[0] == P0C.w
        assert cz[1] == disc.tau * XI11.xi_z
        assert cw[1] == disc.tau * XI11.xi_w
        assert disc.alpha() == b.value
        zeta = np.exp(2j * math.pi * np.arange(64) / 64)
        zs, ws = disc.evaluate(zeta)
        assert np.all(PolydiscModel().defect(zs, ws) < 0.0)

    def test_staircase_point(self, p0):
        _, domain, cert = p0
        rec = cert.row(1)
        beta = math.exp(domain.profile.eval(math.log(rec.a_k)))
        xi = Direction(complex(rec.a_k, 0.0), complex(beta, 0.0))
        b = kobayashi_upper_search(domain, PointC2(complex(rec.a_k, 0), 0.0j),
                                   xi, seed=3, budget=60, restarts=2)
        assert b.value >= math.sqrt(rec.m_k / 2.0) * (1.0 - 1e-9)


class TestCaratheodorySearch:
    def test_disc_identity(self):
        b = caratheodory_lower_search(PolydiscModel(), P0C, XI10, seed=1)
        assert b.value >= 1.0 / 1.01 - 1e-9
        assert b.value <= 1.0 + 1e-9

    def test_bidisc_center(self):
        b = caratheodory_lower_search(PolydiscModel(), P0C, XI11, seed=1)
        assert b.value == pytest.approx(1.0, rel=5e-2)

    def test_prime_model_sandwich(self):
        model = annulus_model_domain(0.5, 2.0, 6)
        p = PointC2(1.0 + 0.0j, 0.0j)
        upper = caratheodory_upper_slices(model, p, XI11)
        assert upper.value == pytest.approx(3.0, rel=1e-12)
        lower = caratheodory_lower_search(model, p, XI11, seed=4)
        assert lower.value <= upper.value * (1.0 + 1e-9)
        assert lower.value > 0.1

    def test_empty_index_set_rejected(self):
        with pytest.raises(ValidationError):
            caratheodory_lower_search(PolydiscModel(), P0C, XI11, index_set=[])

    def test_candidate_structure(self):
        b, cand, trace = caratheodory_lower_search(
            BallModel(), P0C, XI11, seed=2, return_trace=True)
        assert cand.basepoint == P0C
        assert len(cand.indices) == len(cand.coefficients)
        assert len(trace) == 3
        assert max(t[1] for t in trace) == pytest.approx(b.value, rel=1e-12)

    def test_laurent_rejected_at_origin(self):
        with pytest.raises(ValidationError):
            caratheodory_lower_search(BallModel(), P0C, XI11,
                                      index_set=[(-1, 0)], seed=1)


class TestCoefficientCheck:
    def test_identity_map(self):
        n = 256
        zeta = 0.7 * np.exp(2j * math.pi * np.arange(n) / n)
        rep = coefficient_bound_check(zeta, 0.7)
        assert rep.ok
        assert rep.scaled_coefficients[1] == pytest.approx(0.7, abs=1e-12)

    def test_blaschke_fft_oracle(self):
        # coefficients of (z - a)/(1 - a z): c_0 = -a, c_j = (1 - a^2) a^(j-1)
        a = 0.3
        n = 512
        r = 0.8
        zeta = r * np.exp(2j * math.pi * np.arange(n) / n)
        samples = (zeta - a) / (1.0 - a * zeta)
        rep = coefficient_bound_check(samples, r, sup_bound=1.0)
        assert rep.ok
        assert rep.scaled_coefficients[0] == pytest.approx(a, abs=1e-12)
        for j in range(1, 6):
            want = (1 - a * a) * a ** (j - 1) * r**j
            assert rep.scaled_coefficients[j] == pytest.approx(want, abs=1e-12)

    def test_scaled_violation(self):
        n = 128
        r = 0.9
        zeta = r * np.exp(2j * math.pi * np.arange(n) / n)
        rep = coefficient_bound_check(2.0 * zeta, r, sup_bound=1.0)
        assert not rep.ok
        assert rep.violations[0][0] == 1

    def test_aliasing_detected(self):
        n = 64
        zeta = np.exp(2j * math.pi * np.arange(n) / n)
        # conjugate samples are anti-holomorphic: all energy in top modes
        with pytest.raises(NumericalError):
            coefficient_bound_check(np.conj(zeta) * 0.5, 0.5)


class TestOracle:
    def test_small_run_respects_bound(self):
        res = monomial_disc_oracle(2, count=2000, seed=11)
        assert res.min_alpha >= 1.0 - 1e-9
        assert res.coefficient_bound == 1.0

    def test_deterministic(self):
        r1 = monomial_disc_oracle(4, count=1500, seed=3)
        r2 = monomial_disc_oracle(4, count=1500, seed=3)
        assert r1.min_alpha == r2.min_alpha

    def test_rejects_bad_m(self):
        with pytest.raises(ValidationError):
            monomial_disc_oracle(0)

    # (32, 6, 2500) spans two chunks, so pruning against an earlier
    # chunk's best scale is exercised too
    @pytest.mark.parametrize("m, degree, count", [
        (1, 3, 1000), (2, 6, 1000), (8, 3, 1000), (8, 6, 1000), (32, 6, 2500),
    ])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_pruning_matches_unpruned_reference(self, m, degree, count, seed):
        res = monomial_disc_oracle(m, count=count, degree=degree, seed=seed)
        assert (res.min_alpha, res.count) == unpruned_disc_oracle(
            m, count=count, degree=degree, seed=seed)

    def test_pruning_skips_scale_tests(self):
        res = monomial_disc_oracle(2, count=2000, seed=11)
        assert 0 < res.scale_tests < 30 * res.count
