import math

import pytest

from squeeze import (
    CertificationError,
    ConstructionParams,
    Direction,
    MarginSchedule,
    PointC2,
    RadialProfile,
    ReinhardtDomain,
    ValidationError,
    caratheodory_upper_slices,
    check_sandwich,
    kobayashi_lower_shear,
    annulus_model_domain,
    shear_normalize,
    squeezing_lower_inclusion,
    squeezing_upper_at_breakpoint,
    squeezing_upper_quotient,
)
from squeeze.construct import _model_edges, verify_model_annulus_inclusion
from squeeze.metrics import Bound, LevelModel

from helpers import (apply, apply_exact, eval_exact, flat_annulus, invert_exact,
                     kobayashi_lower_shear_nodes, model_annulus_inclusion_nodes, outcome,
                     perturb_value, row, staircase, squeezing_upper_slice_path)

P = PointC2(1.0 + 0.0j, 0.0 + 0.0j)
XI = Direction(1.0 + 0.0j, 1.0 + 0.0j)


class TestSliceBound:
    def test_flat_monomial_model_half_two(self):
        model = annulus_model_domain(0.5, 2.0, 7)
        b = caratheodory_upper_slices(model, P, XI)
        assert b.value == pytest.approx(3.0, rel=1e-12)
        assert b.certified

    def test_flat_monomial_model_schedule_ratios(self):
        # min(1 - 2/3, 7/6 - 1) = 1/6, constant 7
        model = annulus_model_domain(2.0 / 3.0, 7.0 / 6.0, 99)
        b = caratheodory_upper_slices(model, P, XI)
        assert b.value == pytest.approx(7.0, rel=1e-12)

    def test_vertical_direction_only(self):
        model = annulus_model_domain(0.5, 2.0, 3)
        b = caratheodory_upper_slices(model, P, Direction(0.0j, 1.0 + 0.0j))
        assert b.value == pytest.approx(1.0, rel=1e-12)

    def test_scaling_linearity(self):
        model = annulus_model_domain(0.5, 2.0, 3)
        b1 = caratheodory_upper_slices(model, P, XI)
        b2 = caratheodory_upper_slices(model, P, Direction(2.5j * XI.xi_z, 2.5j * XI.xi_w))
        assert b2.value == pytest.approx(2.5 * b1.value, rel=1e-12)

    def test_rejects_off_axis(self):
        model = annulus_model_domain(0.5, 2.0, 3)
        with pytest.raises(ValidationError):
            caratheodory_upper_slices(model, PointC2(1.0 + 0.0j, 0.1 + 0.0j), XI)


class TestShear:
    def test_breakpoint_to_origin(self, p0):
        _, domain, _ = p0
        for k in range(len(domain.profile.breakpoints)):
            image, _ = shear_normalize(domain, k)
            assert 0.0 in image.profile.breakpoints
            idx = image.profile.breakpoints.index(0.0)
            assert image.profile.values[idx] == 0.0

    def test_affine_formula_level2(self, p0):
        # (t_3, phi(t_3)) maps to (t_3 - t_2, -m_2 (t_3 - t_2))
        _, domain, cert = p0
        t2 = math.log(row(cert, 2).a_k)
        t3 = math.log(row(cert, 3).a_k)
        k2 = domain.profile.breakpoints.index(t2)
        image, _ = shear_normalize(domain, k2)
        k3 = domain.profile.breakpoints.index(t3)
        m2 = row(cert, 2).m_k
        s = image.profile.exact_breakpoints[k3]
        assert image.profile.exact_values[k3] == -m2 * s

    def test_flat_point_under_first_shear(self, p0):
        # the shear at t_1 is a pure translation (left slope 0)
        _, domain, cert = p0
        t1 = math.log(row(cert, 1).a_k)
        k1 = domain.profile.breakpoints.index(t1)
        _, mp = shear_normalize(domain, k1)
        t_img, lam_img = apply(mp, 0.0, 0.0)
        assert t_img == -t1
        assert lam_img == 0.0

    def test_inverse_recovers_bitexact(self, p0):
        _, domain, _ = p0
        prof = domain.profile
        for k in (2, 5):
            image, mp = shear_normalize(domain, k)
            for tb, vb, ti, vi in zip(prof.exact_breakpoints, prof.exact_values,
                                      image.profile.exact_breakpoints,
                                      image.profile.exact_values):
                assert invert_exact(mp, ti, vi) == (tb, vb)
                assert apply_exact(mp, tb, vb) == (ti, vi)

    def test_image_evaluation_matches_map(self, p0):
        _, domain, _ = p0
        image, mp = shear_normalize(domain, 3)
        for tb, vb in zip(domain.profile.exact_breakpoints,
                          domain.profile.exact_values):
            ti, vi = apply_exact(mp, tb, vb)
            assert eval_exact(image.profile, ti) == vi


class TestKobayashiLower:
    def test_small_drops(self):
        for m, want in ((2, 1.0), (8, 2.0)):
            d = ReinhardtDomain(RadialProfile((-1, 0, 1), (0, 0, -m)), -1.0, 1.0)
            b = kobayashi_lower_shear(d, 1)
            assert b.value == want

    def test_schedule_level2(self, p0):
        _, domain, cert = p0
        t2 = math.log(row(cert, 2).a_k)
        k2 = domain.profile.breakpoints.index(t2)
        b = kobayashi_lower_shear(domain, k2)
        assert b.value == math.sqrt(1801.0 / 2.0)
        assert b.value == pytest.approx(30.008, abs=1e-3)

    def test_no_drop_is_rejected(self, p0):
        _, domain, _ = p0
        with pytest.raises(ValidationError):
            kobayashi_lower_shear(domain, 0)  # edge node, no slope drop

    def test_perturbed_profile_caught(self, p0):
        # with the level exponent pinned, raising the right-neighbour height
        # breaks the equality-riding segment of the sheared profile
        _, domain, cert = p0
        n = len(domain.profile.breakpoints)
        mid = n // 2  # first positive breakpoint t_1
        bad = ReinhardtDomain(perturb_value(domain.profile, mid + 1, 1e-6),
                              domain.t_min, domain.t_max)
        with pytest.raises(CertificationError) as err:
            kobayashi_lower_shear(bad, mid, m=row(cert, 1).m_k)
        assert "breakpoint" in str(err.value)


class TestAgainstTheShearImage:
    """The slope-drop decisions equal the node-wise checks on the full shear
    image (``tests/helpers.py``)."""

    @pytest.mark.parametrize("fixture", ["p0", "headline", "u0.02-L6"])
    def test_mutation_sweep(self, fixture, request):
        """Every single-height +-1e-6 perturbation, at every breakpoint index,
        with m one below, at and one above the slope drop there; and the
        inclusion with each level's own model edges at t_k and -t_k."""
        if fixture == "u0.02-L6":
            params = ConstructionParams(a="2", levels=6, schedule=MarginSchedule("0.02"))
            domain = staircase("0.02", 6)
        else:
            params, domain, _ = request.getfixturevalue(fixture)
        n = len(domain.profile.breakpoints)
        radii = params.radii()
        level_edges = []
        for k in range(1, params.levels + 1):
            idx = domain.profile.breakpoints.index(math.log(float(radii[k])))
            edges = _model_edges(k, params.levels, radii[k - 1] / radii[k],
                                 radii[k + 1] / radii[k])
            level_edges += [(idx, edges), (n - 1 - idx, edges)]
        seen = set()
        seen_edges = set()
        for i in range(n):
            for delta in (1e-6, -1e-6):
                bad = ReinhardtDomain(perturb_value(domain.profile, i, delta),
                                      domain.t_min, domain.t_max)
                for k in range(n):
                    drop = domain.profile.slope_drop(k)
                    for m in (drop - 1, drop, drop + 1):
                        got = outcome(kobayashi_lower_shear, bad, k, m)
                        want = outcome(kobayashi_lower_shear_nodes, bad, k, m)
                        assert got == want, (i, delta, k, m)
                        inside = verify_model_annulus_inclusion(bad, k, m=m)
                        assert inside == model_annulus_inclusion_nodes(bad, k, m=m)
                        seen.add((isinstance(got, Bound), inside))
                for k, edges in level_edges:
                    drop = domain.profile.slope_drop(k)
                    for m in (drop - 1, drop, drop + 1):
                        inside = verify_model_annulus_inclusion(bad, k, *edges, m=m)
                        assert inside == model_annulus_inclusion_nodes(bad, k, *edges, m=m), (
                            i, delta, k, m)
                        seen_edges.add(inside)
        assert {kind for kind, _ in seen} == {True, False}
        assert {inside for _, inside in seen} == {True, False}
        assert seen_edges == {True, False}

    @pytest.mark.parametrize("fixture", ["p0", "headline"])
    def test_slice_path(self, fixture, request):
        """Value and provenance at every interior breakpoint, mirrored ones
        included, with the default and with the exact model edges."""
        params, domain, cert = request.getfixturevalue(fixture)
        n = len(domain.profile.breakpoints)
        for k in range(1, n - 1):
            got = squeezing_upper_at_breakpoint(domain, k)
            want = squeezing_upper_slice_path(domain, k)
            assert (got.value, got.provenance) == (want.value, want.provenance)
        radii = params.radii()
        for rec in cert.levels:
            idx = domain.profile.breakpoints.index(math.log(rec.a_k))
            edges = _model_edges(rec.k, len(cert.levels), radii[rec.k - 1] / radii[rec.k],
                                 radii[rec.k + 1] / radii[rec.k])
            model = LevelModel(rec.c_k, rec.m_k)
            for k in (idx, n - 1 - idx):
                got = squeezing_upper_at_breakpoint(domain, k, *edges, exact_model=model)
                want = squeezing_upper_slice_path(domain, k, *edges, exact_model=model)
                assert (got.value, got.provenance) == (want.value, want.provenance)


class TestQuotientBound:
    def test_level1_composition(self):
        c = Bound("caratheodory", "upper", 7.0, P, XI, True, "slices")
        k = Bound("kobayashi", "lower", math.sqrt(99.0 / 2.0), P, XI, True, "shear")
        s = squeezing_upper_quotient(c, k)
        assert s.value == pytest.approx(7.0 * math.sqrt(2.0 / 99.0), rel=1e-12)
        assert s.value == pytest.approx(0.9949, abs=1e-4)
        assert s.direction is None

    def test_level2_composition(self):
        c = Bound("caratheodory", "upper", 15.0, P, XI, True, "slices")
        k = Bound("kobayashi", "lower", math.sqrt(1801.0 / 2.0), P, XI, True, "shear")
        s = squeezing_upper_quotient(c, k)
        assert s.value == pytest.approx(15.0 * math.sqrt(2.0 / 1801.0), rel=1e-12)
        assert s.value == pytest.approx(0.49986, abs=1e-5)

    def test_clamp(self):
        c = Bound("caratheodory", "upper", 1.0, P, XI, True, "slices")
        k = Bound("kobayashi", "lower", 1.0, P, XI, True, "shear")
        assert squeezing_upper_quotient(c, k).value == 1.0

    def test_mismatch_rejected(self):
        c = Bound("caratheodory", "upper", 7.0, P, XI, True, "slices")
        other = PointC2(1.5 + 0.0j, 0.0j)
        k = Bound("kobayashi", "lower", 2.0, other, XI, True, "shear")
        with pytest.raises(ValidationError):
            squeezing_upper_quotient(c, k)
        k0 = Bound("kobayashi", "lower", 0.0, P, XI, True, "shear")
        with pytest.raises(ValidationError):
            squeezing_upper_quotient(c, k0)


class TestSqueezingLower:
    def test_bidisc_center(self):
        d = flat_annulus()
        b = squeezing_lower_inclusion(d, P)
        # dist = 1/2 (the hole) and outer radius sqrt(10) by box geometry
        assert b.value <= 0.5 / math.sqrt(10.0) + 1e-9
        assert b.value >= 0.5 / math.sqrt(10.0) - 1e-4
        assert b.certified

    def test_p0_center(self, p0):
        _, domain, _ = p0
        b = squeezing_lower_inclusion(domain, P)
        assert b.value >= 0.08
        assert b.value <= 1.0


class TestSqueezingUpperAtBreakpoint:
    def test_exact_model_must_agree(self, p0):
        params, domain, cert = p0
        rec = row(cert, 1)
        radii = params.radii()
        idx = domain.profile.breakpoints.index(math.log(rec.a_k))
        lo, hi = _model_edges(1, len(cert.levels), radii[0] / radii[1],
                              radii[2] / radii[1])
        for model, message in ((LevelModel(rec.c_k + 1, rec.m_k), "slice constant"),
                               (LevelModel(rec.c_k, rec.m_k - 1), "slope drop")):
            with pytest.raises(CertificationError, match=message):
                squeezing_upper_at_breakpoint(domain, idx, lo, hi, exact_model=model)

    def test_p0_values(self, p0):
        _, domain, cert = p0
        t1 = math.log(row(cert, 1).a_k)
        k1 = domain.profile.breakpoints.index(t1)
        b = squeezing_upper_at_breakpoint(domain, k1)
        # standalone call uses adjacent breakpoints for the model annulus;
        # t_0 = -t_1 widens only the flat side, so the constant is unchanged
        assert b.value == pytest.approx(7.0 * math.sqrt(2.0 / 99.0), rel=1e-9)

    def test_symmetric_mirror_bitexact(self, p0):
        _, domain, _ = p0
        n = len(domain.profile.breakpoints)
        for k in range(1, n - 1):
            b_pos = squeezing_upper_at_breakpoint(domain, k)
            b_neg = squeezing_upper_at_breakpoint(domain, n - 1 - k)
            assert b_pos.value == b_neg.value


def test_sandwich_checker():
    lo = Bound("squeezing", "lower", 0.5, P, None, True, "inclusion")
    hi = Bound("squeezing", "upper", 0.4, P, None, True, "quotient")
    with pytest.raises(CertificationError):
        check_sandwich([lo, hi])
    ok_hi = Bound("squeezing", "upper", 0.6, P, None, True, "quotient")
    check_sandwich([lo, ok_hi])


def test_sandwich_check_keeps_its_guard_band():
    """A certified lower bound within ``GUARD_COMPARE`` (1e-10 relative)
    above its upper bound passes the check; one 2e-10 above it does not."""
    hi = Bound("squeezing", "upper", 0.5, P, None, True, "quotient")
    check_sandwich([Bound("squeezing", "lower", 0.5 * (1.0 + 5e-11), P, None, True,
                          "inclusion"), hi])
    with pytest.raises(CertificationError, match="sandwich violated"):
        check_sandwich([Bound("squeezing", "lower", 0.5 * (1.0 + 2e-10), P, None, True,
                              "inclusion"), hi])


def test_slice_radii_monotone_under_growth(p0):
    # growing the domain grows both slice radii
    _, domain, _ = p0
    bigger = ReinhardtDomain(domain.profile, domain.t_min - 0.1, domain.t_max + 0.1)
    r_h1, r_v1 = domain.slice_radii(1.0)
    r_h2, r_v2 = bigger.slice_radii(1.0)
    assert r_h2 >= r_h1 and r_v2 >= r_v1
