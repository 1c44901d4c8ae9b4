import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from squeeze import (
    CertificationError,
    ConstructionParams,
    PointC2,
    RadialProfile,
    ReinhardtDomain,
    ValidationError,
    build,
    certify_smoothed,
    levi_verify,
    smooth,
    squeezing_lower_inclusion,
)
from squeeze.smooth import (
    BUMP_ABS_MOMENT,
    BUMP_NORM,
    MollifiedProfile,
    bump,
    bump_cdf,
    bump_first_moment,
    default_widths,
)

from helpers import (STAIRCASES, dense_deriv1, dense_deriv2, dense_gap, dense_levi_face,
                     face_radius, hessian_entries, levi_on_tangent, row, sample_interior,
                     smoothed_boundary_samples, staircase, sup_gap_bound)


def flat_domain(height=0.0, half=0.6931471805599453):
    prof = RadialProfile((-half / 2, half / 2), (height, height))
    return ReinhardtDomain(prof, -half, half)


def corner_domain(m: int):
    prof = RadialProfile((-1.0, 0.0, 1.0), (0.0, 0.0, -float(m)))
    return ReinhardtDomain(prof, -1.0, 1.0)


# the margin staircases and the harmonic staircases at 1-4 levels
PROFILES = [pytest.param(u, levels, id=f"margin{u}-L{levels}") for u, levels in STAIRCASES]
PROFILES += [pytest.param(None, levels, id=f"harmonic-L{levels}") for levels in range(1, 5)]


def probe_points(prof, rng):
    """Every kink, kink +- width and +- width/2, the float neighbours of those,
    points beyond both end kinks, and 4000 random points (half of them within
    1.5 widths of a kink)."""
    k, w = prof.kinks, prof.widths
    pts = np.concatenate([k, k - w, k + w, k - w / 2, k + w / 2])
    pts = np.concatenate([pts, np.nextafter(pts, -np.inf), np.nextafter(pts, np.inf)])
    bps = prof.base.breakpoints
    lo, hi = bps[0] - 1.0, bps[-1] + 1.0
    j = rng.integers(0, k.size, 2000)
    return np.concatenate([pts, [lo, bps[0], bps[-1], hi],
                           rng.uniform(lo, hi, 2000),
                           k[j] + w[j] * rng.uniform(-1.5, 1.5, 2000)])


def support_edges(prof):
    """The floats within 3 ulps of each support edge ``t_j +- h_j``: among
    them the t with ``|t - t_j| == h_j`` exactly (where one exists) and the
    first t inside the support."""
    pts = []
    for edge in np.concatenate([prof.kinks - prof.widths, prof.kinks + prof.widths]):
        lo = hi = edge
        for _ in range(3):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            pts += [lo, hi]
        pts.append(edge)
    return np.asarray(pts)


def profile_pair(u, levels):
    """The default-width profile of a staircase and the same staircase with
    one width just below the narrowest room, where (from two levels on)
    neighbouring supports overlap."""
    if u is None:
        domain, _ = build(ConstructionParams(a="2", levels=levels))
    else:
        domain = staircase(u, levels)
    eps = 1e-5
    base = domain.profile
    default = MollifiedProfile(base, default_widths(base, eps), eps)
    return default, MollifiedProfile(base, np.nextafter(default.room.min(), 0.0), eps)


def assert_equals_dense(prof, t):
    """gap and jet against the all-kink sums, byte for byte on float64
    arrays and scalars, by value and sign on longdouble."""
    pairs = ((prof.gap, dense_gap), (lambda x: prof.jet(x)[1], dense_deriv1),
             (lambda x: prof.jet(x)[2], dense_deriv2))
    for i in (0, t.size // 2, t.size - 1):
        for scalar in (float(t[i]), t[i:i + 1].reshape(())):
            for new, dense in pairs:
                assert new(scalar).tobytes() == dense(prof, scalar).tobytes()
    for new, dense in pairs:
        assert new(t).tobytes() == dense(prof, t).tobytes()
    value, d1, d2 = prof.jet(t)
    assert value.tobytes() == (prof.base.eval_many(t) - dense_gap(prof, t)).tobytes()
    assert d1.tobytes() == dense_deriv1(prof, t).tobytes()
    assert d2.tobytes() == dense_deriv2(prof, t).tobytes()
    ld = t.astype(np.longdouble) + np.longdouble(2.0) ** -60 * t
    for got, want in ((prof.gap(ld), dense_gap(prof, ld)),
                      (prof.value(ld), prof.base.eval_many(ld) - dense_gap(prof, ld))):
        assert got.dtype == want.dtype == np.longdouble
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestKernel:
    def test_bump_normalized(self):
        # the closed-form CDF must integrate the bump to exactly one
        assert bump_cdf(1.0) == pytest.approx(1.0, abs=1e-15)
        assert bump_cdf(-1.0) == pytest.approx(0.0, abs=1e-15)
        x = np.linspace(-1, 1, 20001)
        riemann = np.trapezoid(bump(x), x)
        assert riemann == pytest.approx(1.0, abs=1e-8)

    def test_abs_moment(self):
        x = np.linspace(-1, 1, 20001)
        riemann = np.trapezoid(np.abs(x) * bump(x), x)
        assert riemann == pytest.approx(BUMP_ABS_MOMENT, abs=1e-8)

    def test_kink_correction_is_nonnegative_exactly(self):
        """The unit kink correction ``K(x) = x Z(x) - M(x) - relu(x)``, with
        ``bump_cdf`` and ``bump_first_moment`` as polynomials in exact
        rationals, is at least 0 at rational ``x`` in ``[-1, 1]`` and 0 at
        both ends; a kink's term of the gap is ``drop h K((t - t_j) / h)``
        (to float rounding), so ``phi_tilde <= phi`` needs no check."""
        norm = Fraction(315, 256)
        assert BUMP_NORM == norm

        def cdf(x):
            y = x * x
            return Fraction(1, 2) + norm * x * (1 + y * (Fraction(-4, 3) + y * (
                Fraction(6, 5) + y * (Fraction(-4, 7) + y / 9))))

        def first_moment(x):
            return -norm / 10 * (1 - x * x) ** 5

        def kink(x):
            return x * cdf(x) - first_moment(x) - max(x, 0)

        edges = [1 - Fraction(1, 10**k) for k in range(1, 31)]
        edges += [Fraction(1, 10**k) for k in range(1, 31)]
        xs = [Fraction(k, 1000) for k in range(-1000, 1001)] + edges + [-x for x in edges]
        assert all(kink(x) >= 0 for x in xs)
        assert kink(Fraction(1)) == kink(Fraction(-1)) == 0
        for x in xs[::50]:
            assert bump_cdf(float(x)) == pytest.approx(float(cdf(x)), abs=1e-15)
            assert bump_first_moment(float(x)) == pytest.approx(float(first_moment(x)), abs=1e-15)
        m, h = 7, 0.25
        prof = smooth(corner_domain(m), h=h, eps=0.0).profile
        xs = xs[::10]
        want = [m * h * float(kink(x)) for x in xs]
        assert prof.gap(h * np.asarray(xs, dtype=float)) == pytest.approx(want, abs=1e-14)


class TestMollifiedProfile:
    def test_flat_profile_is_parabola(self):
        d = flat_domain()
        sd = smooth(d, eps=1e-4)
        t = np.linspace(d.t_min, d.t_max, 101)
        np.testing.assert_allclose(sd.profile.value(t), -1e-4 * t * t, atol=1e-18)

    def test_corner_sag_quadrature_oracle(self):
        # independent oracle: Riemann quadrature of the convolution at the corner
        m, h = 5, 0.125
        d = corner_domain(m)
        sd = smooth(d, h=h, eps=0.0)
        s = np.linspace(-1.0, 1.0, 400001)
        phi_vals = np.minimum(0.0, -m * (0.0 - h * s))
        quad = np.trapezoid(phi_vals * bump(s), s)
        assert float(sd.profile.value(np.asarray(0.0))) == pytest.approx(quad, abs=1e-9)
        # closed form: -(m/2) h E
        assert quad == pytest.approx(-(m / 2.0) * h * BUMP_ABS_MOMENT, abs=1e-9)

    def test_convolution_matches_quadrature_everywhere(self):
        m, h = 7, 0.25
        d = corner_domain(m)
        sd = smooth(d, h=h, eps=0.0)
        s = np.linspace(-1.0, 1.0, 200001)
        weights = bump(s)
        for t0 in (-0.3, -0.07, 0.0, 0.11, 0.4):
            phi_vals = np.minimum(0.0, -m * (t0 - h * s))
            quad = np.trapezoid(phi_vals * weights, s)
            assert float(sd.profile.value(np.asarray(t0))) == pytest.approx(quad, abs=1e-8)

    def test_below_base_and_gap_bound(self, headline):
        _, domain, _ = headline
        sd = smooth(domain)
        t = np.linspace(domain.t_min, domain.t_max, 4001)
        gap = sd.profile.gap(t)
        assert np.all(gap >= 0.0)
        bound = sup_gap_bound(sd.profile, domain.t_min, domain.t_max)
        assert np.max(gap) <= bound + 1e-12

    def test_strict_concavity_second_differences(self, headline):
        _, domain, _ = headline
        sd = smooth(domain)
        t = np.linspace(domain.t_min + 0.01, domain.t_max - 0.01, 2001)
        v = sd.profile.value(t)
        dt = t[1] - t[0]
        second = (v[2:] - 2 * v[1:-1] + v[:-2]) / (dt * dt)
        assert np.all(second <= -2.0 * sd.eps + 1e-6 * np.maximum(1.0, np.abs(v[1:-1])))

    def test_derivatives_match_finite_differences(self):
        d = corner_domain(9)
        sd = smooth(d, h=0.2, eps=1e-4)
        for t0 in (-0.5, -0.13, 0.0, 0.07, 0.44):
            dlt = 1e-6
            vm, v0, vp = (float(sd.profile.value(np.asarray(t0 + k * dlt)))
                          for k in (-1, 0, 1))
            _, d1, d2 = (float(v) for v in sd.profile.jet(t0))
            assert (vp - vm) / (2 * dlt) == pytest.approx(d1, abs=1e-4)
            assert (vp - 2 * v0 + vm) / (dlt * dlt) == pytest.approx(d2, rel=1e-3, abs=1e-3)

    @pytest.mark.parametrize("u, levels", STAIRCASES)
    def test_longdouble_in_longdouble_out(self, u, levels):
        domain = staircase(u, levels)
        sd = smooth(domain)
        t = np.linspace(domain.t_min, domain.t_max, 4001)
        tol = 1e-15 * max(abs(v) for v in domain.profile.values)
        for f in (domain.profile.eval_many, sd.profile.value):
            ld = f(t.astype(np.longdouble))
            assert ld.dtype == np.longdouble
            assert np.all(np.abs(ld - f(t)) <= tol)

    @pytest.mark.parametrize("u, levels", PROFILES)
    def test_near_kink_sums_equal_the_dense_sums(self, u, levels):
        rng = np.random.default_rng(levels)
        for prof in profile_pair(u, levels):
            assert_equals_dense(prof, probe_points(prof, rng))

    @pytest.mark.parametrize("u, levels", PROFILES)
    def test_support_edges_equal_the_dense_sums(self, u, levels):
        # the widths as chosen, and moved down so that t_j + h_j is a float
        for prof in profile_pair(u, levels):
            k = prof.kinks
            up = (k + prof.widths) - k  # exact: both terms are close
            exact = MollifiedProfile(prof.base, np.where(
                up <= prof.widths, up, np.nextafter(k + prof.widths, -np.inf) - k), prof.eps)
            for p in (prof, exact):
                t = support_edges(p)
                diffs = np.abs(t[:, None] - p.kinks)
                # every support has a float inside it within 3 ulps of its edge
                assert np.all(np.any((diffs < p.widths) & (diffs > p.widths - 1e-15), axis=0))
                assert_equals_dense(p, t)
            assert np.all(np.any(np.abs(support_edges(exact)[:, None] - k) == exact.widths,
                                 axis=0))

    def test_no_kinks_equal_the_dense_sums(self):
        base = flat_domain(height=0.25).profile
        prof = MollifiedProfile(base, 0.1, 1e-4)
        assert prof.kinks.size == 0 and prof.h == 0.0
        assert_equals_dense(prof, np.linspace(-2.0, 2.0, 101))

    @pytest.mark.parametrize("u, levels", STAIRCASES)
    def test_levi_face_equals_the_dense_face(self, u, levels):
        sd = smooth(staircase(u, levels))
        lo, hi = sd.axis_log_range()
        rep = levi_verify(sd, grid_points=10000)
        t = np.linspace(lo, hi, 10000)
        values, r = sd._levi_face(t)
        want_values, want_r = dense_levi_face(sd, t)
        assert values.tobytes() == want_values.tobytes()
        assert r.tobytes() == want_r.tobytes()
        # the closing circles, as levi_verify appends them
        edges = [math.exp(min(-2.0 * float(sd.profile.base.eval_many(te)
                                            - dense_gap(sd.profile, te)), 700.0))
                 for te in (lo, hi)]
        all_vals = np.concatenate([want_values, edges])
        i = int(np.argmin(all_vals))
        assert repr(rep.min_value) == repr(float(all_vals[i]))
        assert (rep.argmin_t, rep.argmin_w) == (
            float(np.concatenate([t, [lo, hi]])[i]),
            float(np.concatenate([want_r, [0.0, 0.0]])[i]))

    def test_widths_fit_the_gaps_next_to_their_kink(self):
        # harmonic, 4 levels: the kernels at +-t_1 are wider than the narrowest
        # gap (at the annulus edges) but fit the two gaps next to their kink
        domain, _ = build(ConstructionParams(a="2", levels=4))
        prof = smooth(domain).profile
        assert prof.widths.max() > np.diff(domain.profile.breakpoints).min()
        widest = prof.widths == prof.widths.max()
        with pytest.raises(ValidationError):
            smooth(domain, h=np.where(widest, prof.room, prof.widths))

    def test_scalar_width_stops_at_the_gap_next_to_a_kink(self, headline):
        _, domain, _ = headline
        gap = float(np.min(np.diff(domain.profile.breakpoints)))
        smooth(domain, h=np.nextafter(gap, 0.0))
        with pytest.raises(ValidationError):
            smooth(domain, h=np.nextafter(gap, 1.0))

    def test_widths_validation(self, headline):
        _, domain, _ = headline
        with pytest.raises(ValidationError):
            smooth(domain, h=1.0)  # exceeds the minimal breakpoint gap
        with pytest.raises(ValidationError):
            smooth(domain, eps=-1.0)
        with pytest.raises(ValidationError):
            smooth(domain, kappa=0.0)

    @pytest.mark.parametrize("kwargs", [{"eps": math.nan}, {"eps": math.inf},
                                        {"kappa": math.nan}, {"kappa": math.inf},
                                        {"h": math.nan}, {"h": math.inf}])
    def test_non_finite_parameters_rejected(self, headline, kwargs):
        # NaN passes an "eps < 0" or "kappa <= 0" test
        _, domain, _ = headline
        with pytest.raises(ValidationError, match="must be finite"):
            smooth(domain, **kwargs)
        if "eps" in kwargs:
            with pytest.raises(ValidationError, match="must be finite"):
                MollifiedProfile(domain.profile, 1e-3, kwargs["eps"])


class TestDefiningFunction:
    def test_sign_structure(self, headline_smoothed):
        sd, _, _ = headline_smoothed
        assert sd.rho_moduli(1.0, 0.0) < 0.0
        assert sd.contains((1.0, 0.5))
        assert not sd.contains((1.0, 1.5))
        assert not sd.contains((2.5, 0.0))
        assert not sd.contains((0.0, 0.0))

    def test_inside_base(self, headline, headline_smoothed):
        _, domain, _ = headline
        sd, _, _ = headline_smoothed
        rng = np.random.default_rng(11)
        z, w = sample_interior(sd, 20000, rng)
        assert all(domain.contains((zz, ww)) for zz, ww in zip(z, w))

    def test_face_radius_solves_rho(self, headline_smoothed):
        sd, _, _ = headline_smoothed
        lo, hi = sd.axis_log_range()
        for t in np.linspace(lo + 0.05, hi - 0.05, 7):
            r = float(face_radius(sd, t))
            if r > 1e-200:
                assert abs(float(sd.rho_moduli(math.exp(t), r))) < 1e-9


class TestLevi:
    def test_unit_ball_harness(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            v = rng.standard_normal(4)
            z = complex(v[0], v[1])
            w = complex(v[2], v[3])
            n = math.hypot(abs(z), abs(w))
            z, w = z / n, w / n
            val = levi_on_tangent(np.conj(z), np.conj(w), 1.0, 0.0, 1.0)
            assert val == pytest.approx(1.0, rel=1e-12)

    def test_flat_domain_positive(self):
        sd = smooth(flat_domain(), eps=1e-4)
        rep = levi_verify(sd, grid_points=2000)
        assert rep.min_value > 0.0
        assert rep.strictly_pseudoconvex_reported

    def test_eps_zero_flagged(self):
        # a Levi-flat stretch: minimum collapses below tolerance
        sd = smooth(flat_domain(), eps=0.0)
        rep = levi_verify(sd, grid_points=2000, tolerance=1e-7)
        assert rep.min_value < 1e-7
        assert not rep.strictly_pseudoconvex_reported

    def test_verdict_is_strict_at_the_tolerance(self, headline_smoothed):
        """A tolerance equal to the scan's own minimum is not cleared; the
        next float below it is."""
        sd, rep, _ = headline_smoothed
        at = levi_verify(sd, grid_points=rep.grid_points, tolerance=rep.min_value)
        assert at.min_value == rep.min_value and not at.strictly_pseudoconvex_reported
        below = levi_verify(sd, grid_points=rep.grid_points,
                            tolerance=math.nextafter(rep.min_value, 0.0))
        assert below.strictly_pseudoconvex_reported

    def test_headline_reported(self, headline_smoothed):
        _, rep, _ = headline_smoothed
        assert rep.min_value > 1e-7
        assert rep.strictly_pseudoconvex_reported

    def test_face_formula_matches_hessian_reference(self, headline, headline_smoothed):
        # the closed-form face values against the Levi form of the analytic
        # Hessian on the tangent; the reference loses digits just past the
        # kinks, where exp(-2 phi_tilde) is large and its terms cancel
        _, _, cert = headline
        sd, _, _ = headline_smoothed
        lo, hi = sd.axis_log_range()
        t = np.linspace(lo, hi, 4001)
        t = t[sd.profile.value(t) > -150.0]
        face, r = sd._levi_face(t)
        ref = np.array([levi_on_tangent(*hessian_entries(sd, float(ti), float(ri)))
                        for ti, ri in zip(t, r)])
        rel = np.abs(face - ref) / np.abs(ref)
        t_1 = math.log(row(cert, 1).a_k)
        h_1 = float(sd.profile.widths[sd.profile.kinks == t_1][0])
        flat = np.abs(t) < t_1 - 5.0 * h_1
        assert flat.sum() > 1000
        assert np.max(rel[flat]) <= 1e-12
        assert np.max(rel) <= 1e-2

    def test_analytic_matches_fd(self, headline_smoothed):
        from helpers import fd_hessian_mismatch

        sd, _, _ = headline_smoothed
        worst = fd_hessian_mismatch(sd, np.random.default_rng(5), 30)
        assert worst <= 1e-6


class TestCertifySmoothed:
    def test_headline_violation(self, headline_smoothed):
        _, _, smoothed = headline_smoothed
        assert smoothed.violation
        assert smoothed.margin is not None and smoothed.margin >= 0.01
        assert smoothed.smoothed

    def test_level2_increase_small(self, headline, headline_smoothed):
        _, _, cert = headline
        _, _, smoothed = headline_smoothed
        base = row(cert, 2).s_upper.value
        after = row(smoothed, 2).s_upper.value
        assert after >= base
        assert (after - base) / base < 0.05

    def test_bound_on_its_target_misses_it(self, headline, headline_smoothed):
        """A level whose target is exactly its own smoothed bound misses it;
        the other level keeps its verdict."""
        sd, _, smoothed = headline_smoothed
        _, _, cert = headline
        on_target = Fraction(smoothed.levels[0].s_upper.value)
        levels = (replace(cert.levels[0], target=on_target),) + cert.levels[1:]
        again = certify_smoothed(sd, levels, cert.margin_guard)
        assert again.levels[0].s_upper.value == float(on_target)
        assert not again.levels[0].target_met
        assert [rec.target_met for rec in again.levels[1:]] == [
            rec.target_met for rec in smoothed.levels[1:]]

    def test_center_bound_is_the_inclusion_bound(self, headline, headline_smoothed):
        """The smoothed center bound is ``squeezing_lower_inclusion`` on the
        smoothed domain, whose outer radius is the base's, and its provenance
        says why that radius holds."""
        sd, _, smoothed = headline_smoothed
        _, domain, _ = headline
        p = PointC2(1.0 + 0.0j, 0.0 + 0.0j)
        assert sd.outer_radius_upper(p) == domain.outer_radius_upper(p)
        assert smoothed.s_lower == squeezing_lower_inclusion(sd, p)
        assert smoothed.s_lower.provenance.endswith(
            "(base circumscribed box; the smoothed domain lies inside the base)")
        assert squeezing_lower_inclusion(domain, p).provenance.endswith("(circumscribed box)")

    def test_mirror_values_equal(self, headline_smoothed):
        _, _, smoothed = headline_smoothed
        for rec in smoothed.levels:
            assert rec.s_upper.value == rec.s_upper_mirror.value

    def test_schema_matches_base(self, headline, headline_smoothed):
        _, _, cert = headline
        _, _, smoothed = headline_smoothed
        assert set(cert.to_doc()) == set(smoothed.to_doc())

    def test_degenerate_limit_recovers_base(self, headline):
        _, domain, cert = headline
        base_vals = {rec.k: rec.s_upper.value for rec in cert.levels}
        prev_err = math.inf
        for h, eps, kappa in ((1e-4, 1e-5, 50.0), (1e-6, 1e-7, 200.0),
                              (1e-8, 1e-9, 800.0)):
            sd = smooth(domain, h=h, eps=eps, kappa=kappa)
            sc = certify_smoothed(sd, cert.levels, cert.margin_guard)
            err = max(abs(rec.s_upper.value - base_vals[rec.k]) / base_vals[rec.k]
                      for rec in sc.levels)
            assert err < prev_err or err < 1e-6
            prev_err = err
        assert prev_err < 1e-4

    def test_raised_exponent_rejected(self, headline, headline_smoothed):
        # sqrt(4 m_1 / 2) would halve the level-1 bound, but the base domain
        # is not contained in the model with exponent 4 m_1
        _, _, cert = headline
        sd, _, _ = headline_smoothed
        raised = tuple(replace(rec, m_k=4 * rec.m_k) if rec.k == 1 else rec
                       for rec in cert.levels)
        with pytest.raises(CertificationError, match="model containment violated"):
            certify_smoothed(sd, raised, cert.margin_guard)

    def test_distance_grid_too_small_rejected(self, headline_smoothed):
        sd, _, _ = headline_smoothed
        p = (1.0, 0.0)
        assert sd.boundary_distance_lower(p, 8) > 0.0
        for resolution in (7, 4, 0, -3):
            with pytest.raises(ValidationError):
                sd.boundary_distance_lower(p, resolution)

    @pytest.mark.parametrize("domain, t_max", [(staircase("0.05", 2), 0.4),
                                               (staircase("0.02", 4), 0.4),
                                               (flat_domain(), 0.68)],
                             ids=["u0.05-L2", "u0.02-L4", "flat"])
    def test_distance_below_sampled_boundary(self, domain, t_max):
        # 10^5 boundary points; aligned phases realise each moduli distance,
        # so none may lie closer than the certified distance.  The points
        # lie on the axis and off it, on the staircases' flat part and up
        # to the caps of the flat domain
        sd = smooth(domain)
        u_b, r_b = smoothed_boundary_samples(sd, 100_000)
        for t_p in np.linspace(-t_max, t_max, 9):
            for frac in (0.0, 0.5, 0.95):
                rz, rw = math.exp(t_p), frac * float(face_radius(sd, t_p))
                d = sd.boundary_distance_lower((rz, rw))
                assert 0.0 < d <= float(np.min(np.hypot(u_b - rz, r_b - rw)))

    def test_basepoint_leaves_domain_rejected(self, headline):
        _, domain, _ = headline
        # caps this soft reach inside the outer kinks and pull (a_2, 0) out
        # already at construction time
        with pytest.raises(ValidationError, match=r"circle at t=-0\.5596\d+ out"):
            smooth(domain, kappa=1.2)
