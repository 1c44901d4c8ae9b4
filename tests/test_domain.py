import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from squeeze import (
    ConstructionParams,
    PointC2,
    LogPoint,
    MarginSchedule,
    RadialProfile,
    ReinhardtDomain,
    ValidationError,
    CertificationError,
    annulus_model_domain,
    build,
)
from squeeze.domain import GUARD_REL, box_distance, domain_from_doc, domain_to_doc, fmt
from squeeze.schema import validate_doc

from helpers import (STAIRCASES, boundary_distance_brute, flat_annulus, perturb_value,
                     stacked_box_distance, staircase, to_point)


def test_profile_eval_flat_region(p0):
    _, domain, _ = p0
    assert domain.profile.eval(0.0) == 0.0


def test_profile_eval_matches_schedule(p0):
    # independent recomputation: heights follow phi(t_{k+1}) = phi(t_k) - n_k dt
    _, domain, _ = p0
    t1, t2 = math.log(1.5), math.log(1.75)
    expected = -99.0 * (t2 - t1)
    got = domain.profile.eval(math.log(1.75))
    assert math.isclose(got, expected, rel_tol=1e-13)
    assert math.isclose(got, -15.261, rel_tol=1e-4)


def test_profile_eval_symmetric(p0):
    _, domain, _ = p0
    for t in domain.profile.breakpoints:
        assert domain.profile.eval(-t) == domain.profile.eval(t)


def test_profile_eval_linear_extension():
    prof = RadialProfile((0.0, 1.0), (0.0, -2.0))
    assert prof.eval(2.0) == pytest.approx(-4.0)
    assert prof.eval(-1.0) == pytest.approx(2.0)


@pytest.mark.parametrize("u, levels", STAIRCASES)
def test_eval_many_is_interp_between_the_ends(u, levels):
    prof = staircase(u, levels).profile
    bps, vals = np.asarray(prof.breakpoints), np.asarray(prof.values)
    rng = np.random.default_rng(levels)
    # random points and every breakpoint, the last one included
    t = np.concatenate([rng.uniform(bps[0], bps[-1], 4000), bps])
    assert np.array_equal(prof.eval_many(t), np.interp(t, bps, vals))
    # beyond the ends: the end height plus the exact end slope times the offset
    s = prof.exact_slopes()
    left = bps[0] - rng.uniform(0.0, 1.0, 200)
    right = bps[-1] + rng.uniform(0.0, 1.0, 200)
    assert np.array_equal(prof.eval_many(left), vals[0] + float(s[0]) * (left - bps[0]))
    assert np.array_equal(prof.eval_many(right), vals[-1] + float(s[-1]) * (right - bps[-1]))


def test_contains_flat_region(p0):
    _, domain, _ = p0
    assert domain.contains((1.0, 0.5))


def test_contains_monomial_region(p0):
    _, domain, _ = p0
    phi = domain.profile.eval(math.log(1.75))
    assert not domain.contains((1.75, math.exp(phi) * 1.01))
    assert domain.contains((1.75, math.exp(phi) * 0.99))


def test_contains_outside_annulus(p0):
    _, domain, _ = p0
    assert not domain.contains((2.1, 0.0))
    assert domain.contains((0.51, 0.0))
    assert not domain.contains((0.49, 0.0))


def test_contains_axis_is_inside_everywhere(p0):
    _, domain, _ = p0
    for r in np.linspace(0.51, 1.99, 41):
        assert domain.contains((r, 0.0))


def test_slice_radii_prime_model():
    model = annulus_model_domain(0.5, 2.0, 5)
    r_h, r_v = model.slice_radii(1.0)
    assert r_h == pytest.approx(0.5, rel=1e-12)
    assert r_v == pytest.approx(1.0, rel=1e-12)


def test_slice_radii_at_breakpoints(p0):
    _, domain, cert = p0
    for rec in cert.levels:
        t_k = math.log(rec.a_k)
        _r_h, r_v = domain.slice_radii(rec.a_k)
        assert r_v == math.exp(domain.profile.eval(t_k))


def test_slice_radii_bidisc():
    # the flat annulus {1/2 < |z| < 2, |w| < 1} at (1, 0): the hole is 1/2 away
    d = flat_annulus()
    r_h, r_v = d.slice_radii(1.0)
    assert r_h == pytest.approx(0.5, rel=1e-12)
    assert r_v == pytest.approx(1.0, rel=1e-12)


def test_slice_radii_rejects_outside():
    d = flat_annulus()
    for z0 in (0.0, 0.25, 2.5):  # the centre, the hole, beyond the outer circle
        with pytest.raises(ValidationError):
            d.slice_radii(z0)


def test_boundary_distance_bidisc_center():
    # the nearest boundary point of the flat annulus from (1, 0) is (1/2, 0)
    # on the inner end cap
    d = flat_annulus()
    val = d.boundary_distance_lower((1.0, 0.0))
    assert val <= 0.5
    assert val >= 0.5 * (1.0 - 1e-9)


def test_boundary_distance_below_brute_force(p0):
    _, domain, _ = p0
    d_cert = domain.boundary_distance_lower((1.0, 0.0), resolution=2048)
    d_brute = boundary_distance_brute(domain, (1.0, 0.0), 10 * 2048)
    assert 0.0 < d_cert <= d_brute


def test_boundary_distance_near_inner_edge():
    # approaching the inner circle of a flat annulus domain
    flat = ReinhardtDomain(RadialProfile((-0.5, 0.5), (0.0, 0.0)),
                           math.log(0.5), math.log(2.0))
    eps = 1e-3
    p = (math.exp(flat.t_min + eps), 0.0)
    val = flat.boundary_distance_lower(p)
    assert 0.0 < val < 2 * eps * math.exp(flat.t_min + eps)


def test_boundary_distance_refuses_degenerate():
    # razor-thin staircase region: certified distance collapses to zero
    prof = RadialProfile((-0.5, 0.0, 0.1, 0.5), (0.0, 0.0, -500.0, -2500.0))
    d = ReinhardtDomain(prof, -0.5, 0.5)
    with pytest.raises(CertificationError):
        d.boundary_distance_lower((math.exp(0.3), 0.0), resolution=64)


def test_distance_cells_reused_across_points_and_resolutions():
    # one domain object serves every call; each value must be the one a
    # fresh domain computes
    def outcome(d, p, resolution):
        try:
            return repr(d.boundary_distance_lower(p, resolution))
        except CertificationError:
            return "CertificationError"

    for domain in (staircase("0.05", 3), flat_annulus()):
        points = [(math.exp(t), rw) for t in np.linspace(domain.t_min, domain.t_max, 8)[1:-1]
                  for rw in (0.0, 0.3 * math.exp(domain.profile.eval(t)))]
        seen = set()
        for resolution in (2048, 16384, 2048):
            for p in points:
                fresh = ReinhardtDomain(domain.profile, domain.t_min, domain.t_max)
                got = outcome(domain, p, resolution)
                assert got == outcome(fresh, p, resolution)
                seen.add(got)
        assert len(seen - {"CertificationError"}) >= 6


def test_box_distance_equals_the_stacked_maxima():
    # points inside, on the edges of and outside the cells, where the gaps
    # are +0, -0 or positive
    rng = np.random.default_rng(4)
    u0 = np.sort(rng.uniform(0.0, 2.0, 64))
    u1 = u0 + rng.uniform(0.0, 0.1, 64)
    r_lo = rng.uniform(0.0, 1.0, 64)
    r_hi = r_lo + rng.uniform(0.0, 0.5, 64)
    points = [(u0[3], r_lo[3]), (u1[9], r_hi[9]), (0.5 * (u0[5] + u1[5]), r_hi[5]),
              (-0.0, 0.0), (3.0, 2.0)] + list(zip(rng.uniform(0.0, 2.5, 50),
                                                   rng.uniform(0.0, 1.8, 50)))
    for rz, rw in points:
        for cells in ((u0, u1, r_lo, r_hi), (u0[3:4], u1[3:4], r_lo[3:4], r_hi[3:4])):
            got = box_distance(*cells, float(rz), float(rw))
            assert repr(got) == repr(stacked_box_distance(*cells, float(rz), float(rw)))


def test_outer_radius_bidisc():
    # the circumscribed box of the flat annulus from (1, 0): hypot(2 + 1, 1)
    d = flat_annulus()
    assert d.outer_radius_upper((1.0, 0.0)) == pytest.approx(math.sqrt(10.0), rel=1e-9)


def test_outer_radius_p0(p0):
    _, domain, _ = p0
    assert domain.outer_radius_upper((1.0, 0.0)) == pytest.approx(math.sqrt(10.0), rel=1e-9)


def test_outer_radius_dominates_samples(p0):
    _, domain, _ = p0
    r = domain.outer_radius_upper((1.0, 0.0))
    t = np.linspace(domain.t_min, domain.t_max, 20001)
    u = np.exp(t)
    h = np.exp(domain.profile.eval_many(t))
    # sample the surface at the extremal phases
    worst = np.max(np.hypot(u + 1.0, h))
    assert r >= worst - 1e-12


def test_is_pseudoconvex(p0):
    _, domain, _ = p0
    assert domain.profile.is_concave()
    assert domain.profile.is_concave(strict=True)


def test_is_pseudoconvex_convex_corner():
    prof = RadialProfile((-1.0, 0.0, 1.0), (0.0, 0.0, 1.0))
    d = ReinhardtDomain(prof, -2.0, 2.0)
    assert not d.profile.is_concave()


def test_is_pseudoconvex_single_segment():
    d = ReinhardtDomain(RadialProfile((-1.0, 1.0), (0.0, 0.0)), -2.0, 2.0)
    assert d.profile.is_concave()
    assert d.profile.is_concave(strict=True)


def test_logpoint_roundtrip():
    p = PointC2(0.5 + 0.0j, 0.25 + 0.0j)
    lp = LogPoint.from_point(p)
    assert lp.t == math.log(0.5)
    assert lp.lam == math.log(0.25)
    q = to_point(lp)
    assert abs(q.z) == pytest.approx(0.5, rel=1e-15)
    assert LogPoint.from_point(PointC2(1.0 + 0.0j, 0.0j)).lam == -math.inf


def test_serialization_roundtrip_bitexact(p0):
    _, domain, _ = p0
    doc = domain_to_doc(domain)
    doc2 = json.loads(json.dumps(doc))
    d2 = domain_from_doc(doc2)
    assert d2.profile == domain.profile
    assert d2.t_min == domain.t_min and d2.t_max == domain.t_max
    # the document holds the exact heights, not their doubles
    assert d2.profile.exact_values == domain.profile.exact_values
    assert domain_to_doc(d2) == doc


def test_serialization_rejects_bad_version(p0):
    _, domain, _ = p0
    doc = domain_to_doc(domain)
    doc["version"] = 99
    with pytest.raises(ValidationError):
        domain_from_doc(doc)


def test_profile_validation():
    with pytest.raises(ValidationError):
        RadialProfile((0.0, 0.0), (0.0, 0.0))  # not increasing
    with pytest.raises(ValidationError):
        RadialProfile((0.0,), (0.0,))  # too short
    with pytest.raises(ValidationError, match="must be finite"):
        RadialProfile((0, 1), (0, Fraction(10) ** 400))  # exact, but no double


def test_profile_from_doubles_equals_profile_from_their_exact_values(p0):
    _, domain, _ = p0
    prof = domain.profile
    doubles = RadialProfile(prof.breakpoints, prof.values)
    exact = RadialProfile(tuple(map(Fraction, prof.breakpoints)),
                          tuple(map(Fraction, prof.values)))
    assert doubles == exact and hash(doubles) == hash(exact)
    assert exact.exact_values == doubles.exact_values == tuple(map(Fraction, prof.values))
    # equality and hashing are on the doubles: the staircase's exact heights
    # are not doubles, yet it equals the profile of its doubles
    assert prof.exact_values != exact.exact_values
    assert prof == exact and hash(prof) == hash(exact)
    assert perturb_value(prof, 2, 1e-6) != prof


def test_flags_are_decided_from_the_exact_data(p0):
    _, domain, _ = p0
    prof = domain.profile
    assert prof.symmetric and prof.pseudoconvex
    raised = perturb_value(prof, 2, 1e-6)  # one-sided: the mirror height stays
    assert not raised.symmetric and raised.pseudoconvex
    flat_corner = RadialProfile((-1.0, 0.0, 1.0), (0.0, 0.0, 0.0))
    assert flat_corner.symmetric and not flat_corner.pseudoconvex
    # a flat corner at a kink: the height at -t_k on the chord of its neighbours
    eb, ev = prof.exact_breakpoints, list(prof.exact_values)
    ev[2] = ev[1] + (ev[3] - ev[1]) * (eb[2] - eb[1]) / (eb[3] - eb[1])
    cornered = RadialProfile(eb, ev)
    assert not cornered.symmetric and not cornered.pseudoconvex
    assert cornered.is_concave()


@pytest.mark.parametrize("flag, bps, vals", [
    ("pseudoconvex", (0.0, 1.0, 2.0), (0.0, 0.0, 0.0)),
    ("symmetric", (0.0, 1.0), (0.0, -1.0)),
])
def test_doc_flags_must_hold(flag, bps, vals):
    doc = domain_to_doc(ReinhardtDomain(RadialProfile(bps, vals), bps[0], bps[-1]))
    assert doc["flags"][flag] is False
    doc["flags"][flag] = True
    validate_doc("domain", doc)  # the schema does not read the data
    with pytest.raises(ValidationError, match=f"claims {flag}"):
        domain_from_doc(doc)


def test_doc_with_false_flags_loads_with_its_true_flags(p0):
    _, domain, _ = p0
    doc = domain_to_doc(domain)
    doc["flags"] = {"symmetric": False, "pseudoconvex": False}
    loaded = domain_from_doc(doc)
    assert loaded.profile.symmetric and loaded.profile.pseudoconvex
    assert domain_to_doc(loaded) == domain_to_doc(domain)


def _benchmark_staircase(schedule: str, levels: int):
    if schedule == "harmonic":
        return build(ConstructionParams(a="2", levels=levels))[0]
    if schedule == "radii":  # a_k = 2 - 1/(k + 1) at margin 0.05
        radii = [Fraction(2 * k + 1, k + 1) for k in range(1, levels + 1)]
        return build(ConstructionParams(a="2", levels=levels, a_sequence=radii,
                                        schedule=MarginSchedule("0.05")))[0]
    return staircase(schedule, levels)


# at the last three depths the heights' doubles do not determine the exact heights
@pytest.mark.parametrize("schedule, levels",
                         STAIRCASES + [("harmonic", levels) for levels in range(1, 5)]
                         + [("0.02", 19), ("0.02", 20), ("radii", 200)])
def test_doc_round_trip_on_the_benchmark_grid(schedule, levels):
    domain = _benchmark_staircase(schedule, levels)
    doc = json.loads(json.dumps(domain_to_doc(domain)))
    assert doc["flags"] == {"symmetric": True, "pseudoconvex": True}
    loaded = domain_from_doc(doc)
    assert domain_to_doc(loaded) == doc
    assert loaded.profile.exact_values == domain.profile.exact_values


def test_a_height_moved_by_one_ulp_loads_as_written(p0):
    # the text is the height: no repair toward the construction's integer
    # slopes, and the document writes back byte for byte
    _, domain, _ = p0
    doc = json.loads(json.dumps(domain_to_doc(domain)))
    n = len(doc["breakpoints"])
    moved = math.nextafter(domain.profile.values[2], -math.inf)
    for i in (2, n - 3):  # both mirrors, so the symmetric flag still holds
        doc["breakpoints"][i][1] = format(Decimal(moved), "f")  # its exact expansion
    loaded = domain_from_doc(doc)
    assert loaded.profile.values[2] == moved
    assert loaded.profile.exact_values[2] == Fraction(moved)
    assert json.dumps(domain_to_doc(loaded)) == json.dumps(doc)


def test_a_document_with_rounded_heights_is_refused(p0):
    # documents written before heights were exact hold each height's double
    # to 17 significant digits, a decimal that is not a dyadic rational
    _, domain, _ = p0
    doc = json.loads(json.dumps(domain_to_doc(domain)))
    for pair, v in zip(doc["breakpoints"], domain.profile.values):
        pair[1] = fmt(v)
    validate_doc("domain", doc)  # the schema only asks for strings
    with pytest.raises(ValidationError, match="height 0 = -[0-9.]+ is not an exact height"):
        domain_from_doc(doc)


def test_a_height_that_is_not_dyadic_is_not_written():
    # no decimal text holds 1/3 exactly
    domain = ReinhardtDomain(RadialProfile((-1, 0, 1), (0, Fraction(-1, 3), -1)), -1.0, 1.0)
    with pytest.raises(ValidationError, match="not a dyadic rational"):
        domain_to_doc(domain)


def _malformed_doc(kind: str):
    doc = json.loads(json.dumps(domain_to_doc(flat_annulus())))
    if kind == "no t_min":
        del doc["t_min"]
    elif kind == "one-element pair":
        doc["breakpoints"][0] = doc["breakpoints"][0][:1]
    elif kind.startswith("height "):
        doc["breakpoints"][0][1] = kind.removeprefix("height ")
    elif kind == "list":
        return [doc]
    elif kind == "null breakpoints":
        doc["breakpoints"] = None
    return doc


@pytest.mark.parametrize("kind, match", [
    ("no t_min", "lacks t_min"),
    ("one-element pair", "breakpoints must be a list"),
    ("height x", "heights must be decimal strings"),
    # float reads these; read exactly, the first two would build 10^99999999
    ("height 1e-99999999", "height 0 = 1e-99999999 is not a decimal numeral"),
    ("height 0e99999999", "height 0 = 0e99999999 is not a decimal numeral"),
    ("height 1_0", "height 0 = 1_0 is not a decimal numeral"),
    ("list", "must be an object, not list"),
    ("null breakpoints", "breakpoints must be a list"),
])
def test_malformed_doc_raises_validation_error(kind, match):
    with pytest.raises(ValidationError, match=match):
        domain_from_doc(_malformed_doc(kind))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_profile_data_rejected(p0, bad):
    # checked before the exact values are built: Fraction raises ValueError
    # on nan and OverflowError on an infinity
    for bps, vals in (((0.0, 1.0), (0.0, float(bad))), ((0.0, float(bad)), (0.0, 0.0))):
        with pytest.raises(ValidationError, match="must be finite"):
            RadialProfile(bps, vals)
    _, domain, _ = p0
    for column in (0, 1):
        doc = json.loads(json.dumps(domain_to_doc(domain)))
        doc["breakpoints"][3][column] = bad
        validate_doc("domain", doc)  # the schema only asks for strings
        with pytest.raises(ValidationError, match="must be finite"):
            domain_from_doc(doc)


@pytest.mark.parametrize("t_min, t_max", [(-math.inf, 0.7), (-0.7, math.inf),
                                          (math.nan, 0.7), (-0.7, math.nan)])
def test_annulus_edges_must_be_finite(t_min, t_max):
    # every domain lies over an annulus: no full-disc edge, no unbounded one
    with pytest.raises(ValidationError, match="edges must be finite"):
        ReinhardtDomain(flat_annulus().profile, t_min, t_max)
    doc = json.loads(json.dumps(domain_to_doc(flat_annulus())))
    doc["t_min"], doc["t_max"] = str(t_min), str(t_max)
    validate_doc("domain", doc)  # the schema only asks for strings
    with pytest.raises(ValidationError, match="edges must be finite"):
        domain_from_doc(doc)


def test_inner_radius_must_not_underflow():
    # exp(-800) is 0 in doubles: a punctured disc, not an annulus
    with pytest.raises(ValidationError, match="underflows to 0"):
        ReinhardtDomain(flat_annulus().profile, -800.0, 0.7)


def test_outer_radius_must_not_overflow():
    # exp(800) is past the largest double: the distances would need it
    profile = RadialProfile((-1.0, 1.0), (0.0, 0.0))
    with pytest.raises(ValidationError, match="exp\\(t_max\\) overflows"):
        ReinhardtDomain(profile, -1.0, 800.0)
    doc = json.loads(json.dumps(domain_to_doc(ReinhardtDomain(profile, -1.0, 700.0))))
    assert domain_from_doc(doc).outer_radius() == math.exp(700.0)
    doc["t_max"] = "800"
    validate_doc("domain", doc)  # the schema only asks for strings
    with pytest.raises(ValidationError, match="exp\\(t_max\\) overflows"):
        domain_from_doc(doc)


def test_heights_whose_radius_overflows_a_double():
    # exp(800) is past the largest double: the domain constructs, and the
    # radii that need it refuse
    domain = ReinhardtDomain(RadialProfile((-1.0, 1.0), (800.0, 800.0)), -1.0, 1.0)
    with pytest.raises(ValidationError, match="overflows a double"):
        domain.outer_radius_upper((1, 0))
    with pytest.raises(ValidationError, match="overflows a double"):
        domain.slice_radii(1.0)


@pytest.mark.filterwarnings("error")
def test_distance_under_heights_whose_radius_overflows():
    # the surface radii exp(800) are infinite, which only moves the surface
    # away: the bound is the hole's, as under finite heights, with no warning
    high = ReinhardtDomain(RadialProfile((-1.0, 1.0), (800.0, 800.0)), -1.0, 1.0)
    finite = ReinhardtDomain(RadialProfile((-1.0, 1.0), (700.0, 700.0)), -1.0, 1.0)
    got = high.boundary_distance_lower((1, 0))
    assert got == finite.boundary_distance_lower((1, 0))
    assert got == (1.0 - math.exp(-1.0)) * (1.0 - GUARD_REL)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_profile_eval_rejects_non_finite(t):
    with pytest.raises(ValidationError, match="must be finite"):
        flat_annulus().profile.eval(t)


def test_overflowing_slope_rejected_by_the_profile():
    # finite data whose exact slope is too large for a double
    with pytest.raises(ValidationError, match="overflows a double"):
        RadialProfile((0.0, 1e-300), (1e300, -1e300)).slopes()


def test_overflowing_slope_rejected_by_domain_from_doc():
    doc = {"version": 1, "breakpoints": [["0", "1e308"], ["0.5", "-1e308"]],
           "t_min": "-1", "t_max": "1", "flags": {"symmetric": False, "pseudoconvex": False}}
    validate_doc("domain", doc)  # finite decimal strings pass the schema
    with pytest.raises(ValidationError, match="overflows a double"):
        domain_from_doc(doc)


def test_exact_heights_past_the_largest_double_must_be_finite():
    # 2^1024, exact and dyadic, but past every double
    for height in (str(2 ** 1024), str(-2 ** 1024)):
        doc = {"version": 1, "breakpoints": [["0", "0"], ["1", height]],
               "t_min": "0", "t_max": "1", "flags": {"symmetric": False, "pseudoconvex": False}}
        validate_doc("domain", doc)  # the schema only asks for strings
        with pytest.raises(ValidationError, match="must be finite"):
            domain_from_doc(doc)


def test_domain_validation():
    prof = RadialProfile((0.0, 1.0), (0.0, -1.0))
    with pytest.raises(ValidationError):
        ReinhardtDomain(prof, 0.5, 0.9)  # breakpoints outside range
    with pytest.raises(ValidationError):
        ReinhardtDomain(prof, 2.0, 1.0)


def test_inversion_invariance_of_membership(p0):
    # symmetric profile: (z, w) is a member iff (1/z, w) is
    _, domain, _ = p0
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 400:
        t = rng.uniform(domain.t_min + 0.02, domain.t_max - 0.02)
        lam = domain.profile.eval(t)
        if lam < -600.0:
            continue
        for offset, inside in ((-0.5, True), (0.5, False)):
            z = math.exp(t)
            w = math.exp(lam + offset)
            assert domain.contains((z, w)) == inside
            assert domain.contains((1.0 / z, w)) == inside
        checked += 1


def test_slice_discs_verify_against_contains(p0):
    # sampled points of the reported discs are members; inflating a disc by
    # 1e-9 relative exposes a sampled point outside
    _, domain, _ = p0
    for z0 in (1.0, 1.2, 0.8):
        r_h, r_v = domain.slice_radii(z0)
        angles = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        for th in angles:
            dz = (r_h * (1.0 - 1e-12)) * complex(math.cos(th), math.sin(th))
            assert domain.contains((z0 + dz, 0.0))
            assert domain.contains((z0, r_v * (1.0 - 1e-12) *
                                    complex(math.cos(th), math.sin(th))))
        inflated_h = any(
            not domain.contains((z0 + r_h * (1.0 + 1e-9) *
                                 complex(math.cos(th), math.sin(th)), 0.0))
            for th in angles)
        assert inflated_h
        assert not domain.contains((z0, r_v * (1.0 + 1e-9)))


def test_perturb_value_is_exact(p0):
    _, domain, _ = p0
    prof2 = perturb_value(domain.profile, 2, 1e-6)
    diff = prof2.exact_values[2] - domain.profile.exact_values[2]
    assert diff == Fraction(1e-6)


def _recomputed_slopes(prof):
    bs, vs = prof.exact_breakpoints, prof.exact_values
    return tuple((vs[i + 1] - vs[i]) / (bs[i + 1] - bs[i]) for i in range(len(bs) - 1))


def test_exact_slope_table_is_built_once(p0):
    _, domain, cert = p0
    prof = domain.profile
    s = prof.exact_slopes()
    assert prof.exact_slopes() is s
    assert s == _recomputed_slopes(prof)
    assert prof.slopes() == tuple(float(x) for x in s)
    # the end breakpoints take their extension's slope on the outer side
    assert prof.adjacent_slopes(0) == (s[0], s[0])
    assert prof.adjacent_slopes(len(s)) == (s[-1], s[-1])
    n = len(prof.breakpoints)
    for rec in cert.levels:
        idx = prof.breakpoints.index(math.log(rec.a_k))
        assert prof.slope_drop(idx) == prof.slope_drop(n - 1 - idx) == rec.m_k
    # a perturbed copy gets its own table: the two slopes next to the raised
    # height change, the others stay
    copy = perturb_value(prof, 2, 1e-6)
    s2 = copy.exact_slopes()
    assert s2 == _recomputed_slopes(copy)
    assert [i for i in range(len(s)) if s2[i] != s[i]] == [1, 2]
    assert prof.exact_slopes() is s
