import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from squeeze import (
    CertificationError,
    ConstructionParams,
    HarmonicSchedule,
    MarginSchedule,
    RadialProfile,
    ReinhardtDomain,
    ValidationError,
    build,
    choose_exponent,
    level_constant,
    verify_model_annulus_inclusion,
)
from squeeze.construct import (_model_edges, assemble_certificate, certify_levels,
                               verify_construction)
from squeeze.metrics import (LevelModel, bound_to_record, kobayashi_lower_shear,
                             squeezing_upper_at_breakpoint)

from helpers import model_annulus_inclusion_nodes, perturb_value, row


class TestLevelConstant:
    def test_p0_level1(self, p0):
        params, _, _ = p0
        assert level_constant(params, 1) == Fraction(7)

    def test_p0_level2(self, p0):
        params, _, _ = p0
        assert level_constant(params, 2) == Fraction(15)

    def test_symmetric_toy(self):
        # ratios 1/2 both sides: min(1/2, 1) = 1/2, constant 3
        params = ConstructionParams(a="9", levels=1, a_sequence=["2", "4"])
        assert level_constant(params, 1) == Fraction(3)

    def test_degenerate_rejected(self):
        params = ConstructionParams(a="2", levels=2,
                                    a_sequence=["1.5", "1.5", "1.6"])
        with pytest.raises(ValidationError):
            params.radii()


class TestChooseExponent:
    def test_p0_exponents(self, p0):
        params, _, _ = p0
        assert choose_exponent(params, 1, Fraction(7), 0) == 99
        assert choose_exponent(params, 2, Fraction(15), 99) == 1900

    def test_margin_schedule(self):
        params = ConstructionParams(a="2", levels=2,
                                    schedule=MarginSchedule("0.1"))
        inc = choose_exponent(params, 2, Fraction(15), 0)
        assert inc == 45001

    def test_exponent_limit(self):
        # n_1 = floor(2 (7 / 1e-9)^2) + 1 exceeds EXPONENT_LIMIT = 2^62
        params = ConstructionParams(a="2", levels=1,
                                    schedule=MarginSchedule("1e-9"))
        with pytest.raises(ValidationError):
            choose_exponent(params, 1, Fraction(7), 0)


class TestBuild:
    def test_p0_certificate_rows(self, p0):
        _, _, cert = p0
        expect = {1: (7, 99, 99), 2: (15, 1801, 1900), 3: (31, 17299, 19199)}
        for rec in cert.levels:
            c, m, nn = expect[rec.k]
            assert rec.c_k == c and rec.m_k == m and rec.n_k == nn
            assert rec.s_upper.value == pytest.approx(
                float(c) * math.sqrt(2.0 / m), rel=1e-13)
            assert rec.target_met

    def test_margin_schedule_targets(self, headline):
        _, _, cert = headline
        for rec in cert.levels:
            assert rec.s_upper.value < 0.05

    def test_mirror_bitexact(self, p0):
        _, _, cert = p0
        for rec in cert.levels:
            assert rec.s_upper.value == rec.s_upper_mirror.value
            assert abs(rec.s_upper_mirror.basepoint.z) == pytest.approx(
                1.0 / rec.a_k, rel=1e-15)

    @pytest.mark.parametrize("schedule, levels", [
        (HarmonicSchedule(), 3), (MarginSchedule("0.05"), 2),
        (MarginSchedule("0.02"), 6), (HarmonicSchedule(), 4)],
        ids=["p0", "headline", "u0.02-L6", "harmonic-L4"])
    def test_mirror_rows_equal_the_mirror_index_call(self, schedule, levels):
        params = ConstructionParams(a="2", levels=levels, schedule=schedule)
        domain, cert = build(params)
        radii = params.radii()
        n = len(domain.profile.breakpoints)
        for rec in cert.levels:
            k = rec.k
            idx = domain.profile.breakpoints.index(math.log(rec.a_k))
            lo, hi = _model_edges(k, levels, radii[k - 1] / radii[k],
                                  radii[k + 1] / radii[k])
            mirror = squeezing_upper_at_breakpoint(
                domain, n - 1 - idx, lo, hi, exact_model=LevelModel(rec.c_k, rec.m_k))
            assert bound_to_record(rec.s_upper_mirror) == bound_to_record(mirror)

    def test_deterministic(self, p0):
        params, _, cert = p0
        _, cert2 = build(params)
        assert cert2.to_doc() == cert.to_doc()

    def test_zero_levels(self):
        domain, cert = build(ConstructionParams(a="2", levels=0))
        assert cert.levels == ()
        assert not cert.violation
        assert cert.s_lower.value > 0.0
        assert domain.contains((1.0, 0.99))

    def test_profile_shape(self, p0):
        _, domain, cert = p0
        ks = len(cert.levels)
        bps = domain.profile.breakpoints
        assert len(bps) == 2 * ks + 2
        assert bps[0] == domain.t_min and bps[-1] == domain.t_max
        assert domain.profile.symmetric and domain.profile.pseudoconvex

    def test_monotone_exponents(self, p0):
        _, _, cert = p0
        ns = [rec.n_k for rec in cert.levels]
        assert ns == sorted(ns)
        for rec in cert.levels:
            # harmonic schedule: increment beats 2 k^2 C_k^2
            assert rec.m_k >= 2 * rec.k**2 * rec.c_k**2

    def test_violation_headline(self, headline):
        _, _, cert = headline
        assert cert.violation
        assert cert.violation_level == 1
        assert cert.margin is not None and cert.margin >= 0.01

    def test_no_violation_p0(self, p0):
        _, _, cert = p0
        assert not cert.violation


class TestLevelVerdict:
    @pytest.mark.parametrize("u, levels", [("0.02", 8), ("0.02", 10), ("0.05", 10)])
    def test_exact_at_depth(self, u, levels):
        # from L8 on the relative gap ~ 1/(2 m_k) between a level bound and
        # its target falls below 1e-10; the verdict 2 C_k^2 < u^2 m_k is exact
        params = ConstructionParams(a="2", levels=levels, schedule=MarginSchedule(u))
        _, records = certify_levels(params)
        assert len(records) == levels
        for rec in records:
            assert rec.target_met and 2 * rec.c_k**2 < rec.target**2 * rec.m_k
        assert any(rec.s_upper.value > float(rec.target) * (1.0 - 1e-10)
                   for rec in records)

    def test_bound_on_the_target_misses_it(self):
        class OnTarget(MarginSchedule):
            def increment(self, k, c_k):
                return math.floor(2 * (c_k / self.u) ** 2)

        # m_1 = 9800 puts C_1 / sqrt(m_1 / 2) = 7 / 70 exactly on the target
        params = ConstructionParams(a="2", levels=1, schedule=OnTarget("1/10"))
        with pytest.raises(CertificationError, match="misses target 1/10"):
            certify_levels(params)


def test_assembled_certificate_runs_the_sandwich_check(headline):
    _, _, cert = headline
    rec = cert.levels[0]
    # an upper at the center below the certified center lower bound
    below = replace(rec, s_upper=replace(rec.s_upper, basepoint=cert.s_lower.basepoint,
                                         value=cert.s_lower.value / 2))
    with pytest.raises(CertificationError, match="sandwich violated in construction"):
        assemble_certificate((below,), cert.s_lower, cert.margin_guard)
    with pytest.raises(CertificationError, match="sandwich violated in smoothed"):
        assemble_certificate((below,), cert.s_lower, cert.margin_guard, smoothed=True)


def test_violation_verdict_keeps_its_guard_band(headline):
    """A level bound within ``GUARD_COMPARE`` below the center bound less the
    margin guard is no violation; one 1e-9 relative below it is."""
    _, _, cert = headline
    rec, s_lower, guard = cert.levels[0], cert.s_lower, cert.margin_guard

    def level_at(value):
        return replace(rec, s_upper=replace(rec.s_upper, value=value),
                       s_upper_mirror=replace(rec.s_upper_mirror, value=value))

    edge = s_lower.value - guard
    inside = assemble_certificate((level_at(edge * (1.0 - 1e-11)),), s_lower, guard)
    assert not inside.violation and inside.violation_level is None
    below = assemble_certificate((level_at(edge * (1.0 - 1e-9)),), s_lower, guard)
    assert below.violation_level == rec.k


class TestPrimeInclusion:
    def test_p0_levels_contained(self, p0):
        _, domain, cert = p0
        for rec in cert.levels:
            idx = domain.profile.breakpoints.index(math.log(rec.a_k))
            assert verify_model_annulus_inclusion(domain, idx, m=rec.m_k)

    def test_perturbed_fails(self, p0):
        _, domain, cert = p0
        idx = domain.profile.breakpoints.index(math.log(row(cert, 1).a_k))
        bad = ReinhardtDomain(perturb_value(domain.profile, idx + 1, -1e-6),
                              domain.t_min, domain.t_max)
        # lowering the right-neighbour height pulls the sheared profile
        # below the model's monomial line
        assert not verify_model_annulus_inclusion(bad, idx, m=row(cert, 1).m_k)

    def test_edge_past_the_adjacent_breakpoint_is_not_verified(self, p0):
        """The documented contract: an edge past an adjacent interior
        breakpoint returns False, even where the node-wise check on the shear
        image holds because the slope does not change there."""
        _, domain, cert = p0
        idx = domain.profile.breakpoints.index(math.log(row(cert, 2).a_k))
        eb = domain.profile.exact_breakpoints
        lo, hi = float(eb[idx - 1] - eb[idx]), float(eb[idx + 1] - eb[idx])
        m = row(cert, 2).m_k
        assert verify_model_annulus_inclusion(domain, idx, lo, hi, m=m)
        assert not verify_model_annulus_inclusion(domain, idx, 1.5 * lo, hi, m=m)
        assert not verify_model_annulus_inclusion(domain, idx, lo, 1.5 * hi, m=m)
        # slopes 0, 0, -5, -5: psi is 0 and -5 s out to both annulus edges
        flat = RadialProfile((-2.0, -1.0, 0.0, 1.0, 2.0), (0.0, 0.0, 0.0, -5.0, -10.0))
        d = ReinhardtDomain(flat, -3.0, 3.0)
        assert verify_model_annulus_inclusion(d, 2, -1.0, 1.0, m=5)
        for lo, hi in ((-1.5, 1.0), (-1.0, 1.5)):
            assert model_annulus_inclusion_nodes(d, 2, lo, hi, m=5)
            assert not verify_model_annulus_inclusion(d, 2, lo, hi, m=5)


def _polynomial_staircase(levels: int):
    """The u = 0.05 staircase with radii a_k = 2 - 1/(k + 1)."""
    params = ConstructionParams(a="2", levels=levels, schedule=MarginSchedule("0.05"),
                                a_sequence=[Fraction(2 * k + 1, k + 1)
                                            for k in range(1, levels + 1)])
    return build(params)


class TestVerifyConstruction:
    def test_passes_clean(self, p0):
        _, domain, cert = p0
        verify_construction(domain, cert)

    def test_catches_every_height(self, headline):
        _, domain, cert = headline
        n = len(domain.profile.breakpoints)
        for idx in range(n):
            bad = ReinhardtDomain(perturb_value(domain.profile, idx, 1e-6),
                                  domain.t_min, domain.t_max)
            with pytest.raises(CertificationError):
                verify_construction(bad, cert)

    def test_polynomial_radii_at_depth(self):
        # radii a_k = 2 - 1/(k + 1) certify 60 levels, where halving radii
        # stop at 22; every single-height change still fails the recheck
        domain, cert = _polynomial_staircase(60)
        assert len(cert.levels) == 60
        verify_construction(domain, cert)
        for idx in range(len(domain.profile.breakpoints)):
            bad = ReinhardtDomain(perturb_value(domain.profile, idx, 1e-6),
                                  domain.t_min, domain.t_max)
            with pytest.raises(CertificationError):
                verify_construction(bad, cert)

    def test_decides_concavity_and_symmetry_once_per_profile(self, monkeypatch):
        """build, then verify_construction: every profile object decides its
        concavity and its mirror symmetry at most once, and the staircase's
        profile decides both."""
        calls = Counter()
        profiles = []  # keeps each counted profile alive, so ids stay unique
        for name in ("_concavity", "_asymmetry"):
            prop = RadialProfile.__dict__[name]
            def counted(profile, _decide=prop.func, _name=name):
                calls[_name, id(profile)] += 1
                profiles.append(profile)
                return _decide(profile)
            monkeypatch.setattr(prop, "func", counted)
        domain, cert = _polynomial_staircase(8)
        verify_construction(domain, cert)
        assert set(calls.values()) == {1}
        assert {("_concavity", id(domain.profile)),
                ("_asymmetry", id(domain.profile))} <= set(calls)

    @pytest.mark.parametrize("fixture", ["p0", "headline"])
    def test_mirror_shear_decided_by_the_direct_one(self, fixture, request):
        """verify_construction shears each level at t_k only: under exact
        inversion symmetry the containment at -t_k holds exactly when the
        one at t_k does.  Checked on every symmetric 1e-6 perturbation."""
        _, domain, cert = request.getfixturevalue(fixture)
        n = len(domain.profile.breakpoints)
        outcomes = set()
        for rec in cert.levels:
            idx = domain.profile.breakpoints.index(math.log(rec.a_k))
            for i in range((n + 1) // 2):
                prof = perturb_value(domain.profile, i, 1e-6)
                if n - 1 - i != i:
                    prof = perturb_value(prof, n - 1 - i, 1e-6)
                bad = ReinhardtDomain(prof, domain.t_min, domain.t_max)
                raised = []
                for k in (idx, n - 1 - idx):
                    try:
                        kobayashi_lower_shear(bad, k, m=rec.m_k)
                        raised.append(False)
                    except (CertificationError, ValidationError):
                        raised.append(True)
                assert raised[0] == raised[1], (rec.k, i)
                outcomes.add(raised[0])
        assert outcomes == {True, False}


def test_default_sequence_matches_acceptance_schedule():
    params = ConstructionParams(a="2", levels=3)
    assert params.radii() == [Fraction(1), Fraction(3, 2), Fraction(7, 4),
                              Fraction(15, 8), Fraction(31, 16)]


def test_params_validation():
    with pytest.raises(ValidationError):
        ConstructionParams(a="1", levels=1)
    with pytest.raises(ValidationError):
        ConstructionParams(a="2", levels=-1)
    with pytest.raises(ValidationError):
        MarginSchedule("1.5")
    for text in ("abc", "1/0", ""):
        with pytest.raises(ValidationError):
            MarginSchedule(text)
        with pytest.raises(ValidationError):
            ConstructionParams(a=text, levels=1)
