"""Property-based checks of the geometric invariants."""

import json
import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from squeeze import (
    Direction,
    PointC2,
    RadialProfile,
    ReinhardtDomain,
    caratheodory_upper_slices,
    kobayashi_lower_shear,
)
from squeeze.construct import verify_model_annulus_inclusion
from squeeze.domain import domain_from_doc, domain_to_doc

from helpers import (eval_exact, kobayashi_lower_shear_nodes, model_annulus_inclusion_nodes,
                     outcome)


@st.composite
def concave_profiles(draw):
    n_seg = draw(st.integers(min_value=1, max_value=5))
    t0 = draw(st.floats(-2.0, -0.5))
    gaps = [draw(st.floats(0.1, 1.0)) for _ in range(n_seg)]
    slopes = sorted(
        {draw(st.integers(min_value=-40, max_value=40)) for _ in range(n_seg)},
        reverse=True,
    )
    while len(slopes) < n_seg:
        slopes.append(slopes[-1] - 1)
    bps = [t0]
    for g in gaps:
        bps.append(bps[-1] + g)
    vals = [0.0]
    for s, g in zip(slopes, gaps):
        vals.append(vals[-1] + s * g)
    return RadialProfile(tuple(bps), tuple(vals))


@st.composite
def dyadic_profiles(draw):
    """Profiles whose heights are random dyadic rationals ``n / 2^E``, ``E <=
    80``, most of which are not doubles."""
    bps = draw(concave_profiles()).breakpoints
    vals = [Fraction(draw(st.integers(-2**90, 2**90)), 2 ** draw(st.integers(0, 80)))
            for _ in bps]
    return RadialProfile(bps, tuple(vals))


def domain_of(profile: RadialProfile) -> ReinhardtDomain:
    return ReinhardtDomain(profile, profile.breakpoints[0] - 0.5,
                           profile.breakpoints[-1] + 0.5)


@given(concave_profiles(),
       st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi),
       st.floats(-3.0, 1.0), st.floats(-30.0, 5.0))
@settings(max_examples=150, deadline=None)
# on the outer end cap: rotation moves |z| one ulp inside the annulus
@example(RadialProfile((-0.5, -0.03125), (0.0, 0.0)), 3.0, 0.0, 0.46875, -1.0)
# on the profile surface: rotation moves |w| one ulp inside
@example(RadialProfile((-1.0, 0.0), (0.0, 0.0)), 0.0, 0.9999999999999999, 0.0, 0.0)
def test_rotation_invariance_of_membership(profile, th, ps, t, lam):
    d = domain_of(profile)
    z = math.exp(t)
    w = math.exp(lam)
    base = d.contains((z, w))
    rotated = d.contains((z * complex(math.cos(th), math.sin(th)),
                          w * complex(math.cos(ps), math.sin(ps))))
    # |z e^{i th}| and |w e^{i ps}| can differ from |z| and |w| in the last
    # ulp; in the boundary cases (profile surface and both annulus end caps)
    # the rotated point is compared with the real point of its own moduli
    zr = abs(z * complex(math.cos(th), math.sin(th)))
    wr = abs(w * complex(math.cos(ps), math.sin(ps)))
    tz = math.log(z)
    on_boundary = (abs(d.profile.eval(tz) - lam) < 1e-12
                   or min(abs(tz - d.t_min), abs(tz - d.t_max)) < 1e-12)
    if (zr != z or wr != w) and on_boundary:
        assert rotated == d.contains((zr, wr))
        return
    assert base == rotated


@given(concave_profiles(), st.floats(0.05, 0.95), st.floats(0.0, 2 * math.pi),
       st.complex_numbers(max_magnitude=5.0), st.complex_numbers(max_magnitude=5.0))
@settings(max_examples=100, deadline=None)
def test_direction_scaling(profile, pos, phase, xi_z, xi_w):
    if abs(xi_z) + abs(xi_w) < 1e-3:
        return
    d = domain_of(profile)
    t = d.t_min + (d.t_max - d.t_min) * pos
    p = PointC2(complex(math.exp(t), 0.0), 0.0j)
    xi = Direction(xi_z, xi_w)
    c = complex(math.cos(phase), math.sin(phase)) * 2.5
    b1 = caratheodory_upper_slices(d, p, xi)
    b2 = caratheodory_upper_slices(d, p, Direction(c * xi_z, c * xi_w))
    assert abs(b2.value - abs(c) * b1.value) <= 1e-12 * max(1.0, abs(b2.value))


@given(concave_profiles())
@settings(max_examples=100, deadline=None)
def test_symmetrized_profile_eval(profile):
    # symmetrize: breakpoints and values mirrored exactly
    bps = profile.breakpoints
    vals = profile.values
    sym_bps = tuple(sorted({-t for t in bps} | set(bps)))
    prof2 = RadialProfile(
        sym_bps,
        tuple(min(profile.eval(t), profile.eval(-t)) for t in sym_bps),
    )
    for t in prof2.breakpoints:
        assert prof2.eval(-t) == prof2.eval(t)


@given(concave_profiles())
@settings(max_examples=100, deadline=None)
# at breakpoint 2 the default right edge, float(0.6 - 0.1), rounds past 0.6
@example(RadialProfile((-0.5, 0.0, 0.1, 0.6, 1.6), (0.0, 0.0, -0.1, -1.1, -4.1)))
def test_containment_by_slope_drop_equals_the_node_check(profile):
    # every interior breakpoint, m from 1 to one past the slope drop; the
    # model-annulus inclusion at the default edges, too, which round each
    # exact breakpoint difference toward t_k and so never pass the breakpoint
    d = domain_of(profile)
    for k in range(1, len(profile.breakpoints) - 1):
        for m in range(1, profile.slope_drop(k) + 2):
            assert (outcome(kobayashi_lower_shear, d, k, m)
                    == outcome(kobayashi_lower_shear_nodes, d, k, m)), (k, m)
            assert (verify_model_annulus_inclusion(d, k, m=m)
                    == model_annulus_inclusion_nodes(d, k, m=m)), (k, m)


@given(concave_profiles(), st.floats(0.01, 0.5))
@settings(max_examples=100, deadline=None)
def test_slice_radii_monotone_under_growth(profile, pad):
    d1 = domain_of(profile)
    d2 = ReinhardtDomain(profile, d1.t_min - pad, d1.t_max + pad)
    z0 = math.exp(0.5 * (d1.t_min + d1.t_max))
    r1 = d1.slice_radii(z0)
    r2 = d2.slice_radii(z0)
    assert r2[0] >= r1[0] and r2[1] >= r1[1]


@given(st.one_of(concave_profiles(), dyadic_profiles()))
@settings(max_examples=100, deadline=None)
def test_serialization_roundtrip(profile):
    d = domain_of(profile)
    doc = domain_to_doc(d)
    d2 = domain_from_doc(json.loads(json.dumps(doc)))
    assert d2.profile == d.profile
    assert d2.profile.exact_values == d.profile.exact_values
    assert d2.t_min == d.t_min and d2.t_max == d.t_max
    assert domain_to_doc(d2) == doc


@given(concave_profiles(), st.floats(-4.0, 4.0))
@settings(max_examples=150, deadline=None)
def test_eval_within_ulps_of_exact(profile, t):
    # slope * (t - t_i) + phi(t_i) rounds a handful of times, each by at most
    # one ulp of the largest term
    exact = float(eval_exact(profile, Fraction(t)))
    scale = (max(abs(v) for v in profile.values)
             + max(abs(s) for s in profile.slopes())
             * max(abs(t - b) for b in profile.breakpoints))
    assert abs(profile.eval(t) - exact) <= 8 * math.ulp(scale)


@given(concave_profiles(), st.floats(-4.0, 4.0))
@settings(max_examples=150, deadline=None)
def test_eval_between_fraction_and_float(profile, t):
    exact = float(eval_exact(profile, Fraction(t)))
    approx = profile.eval(t)
    assert math.isclose(exact, approx, rel_tol=1e-9, abs_tol=1e-9)
