"""Certified one-sided bounds on invariant metrics and the squeezing function.

Three mechanisms produce certified bounds at points of the ``w = 0`` axis:

* a Schwarz-lemma slice bound gives Carathéodory uppers from the radii of the
  largest horizontal and vertical discs through the basepoint;
* a shear normalization (affine in log coordinates) places a profile
  breakpoint at the origin; containment of the sheared domain in the model
  ``{|w| < 1, |w| < |z|^-m}`` yields the Kobayashi lower ``sqrt(m/2)``,
  where ``m`` is the slope drop at the breakpoint;
* the quotient of a Carathéodory upper by a Kobayashi lower bounds the
  squeezing function from above, and an inclusion argument (domain between
  two balls) bounds it from below.

Certified comparisons never trust raw float comparisons: values produced by
float arithmetic are compared under a relative guard band, while structural
checks run on exact dyadic rationals without building the shear image: it
is concave, vanishes at the origin and has slopes ``0`` and ``-D`` beside
it, ``D`` the exact slope drop, so containment is ``D >= m``, and on a
model annulus inside the segments beside the origin it is ``-D max(s, 0)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .domain import (
    DEFAULT_GRID,
    PointC2,
    RadialProfile,
    ReinhardtDomain,
    _as_point,
    fmt,
)
from .errors import CertificationError, ValidationError

# Relative guard band for certified float comparisons: subtracted from lower
# bounds, added to upper bounds, to absorb rounding errors below that size.
GUARD_COMPARE = 1e-10


@dataclass(frozen=True)
class Direction:
    """A nonzero tangent vector of C^2."""

    xi_z: complex
    xi_w: complex

    def __post_init__(self):
        if abs(self.xi_z) == 0.0 and abs(self.xi_w) == 0.0:
            raise ValidationError("direction must be nonzero")


_QUANTITIES = ("kobayashi", "caratheodory", "squeezing")
_SIDES = ("upper", "lower")


@dataclass(frozen=True)
class Bound:
    """A one-sided inequality on K, C or S at a basepoint.

    ``certified`` distinguishes rigorous bounds (produced by the mechanisms in
    this module) from numerical estimates (the ``estimate`` module).
    ``provenance`` is a human-readable trace of the producing rule.
    ``sheared`` is set on a bound moved to a breakpoint by ``at_breakpoint``:
    the bound at ``(1, 0)`` of the sheared domain that it was moved from.
    """

    quantity: str
    side: str
    value: float
    basepoint: PointC2
    direction: Direction | None
    certified: bool
    provenance: str
    sheared: Bound | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.quantity not in _QUANTITIES:
            raise ValidationError(f"unknown quantity {self.quantity!r}")
        if self.side not in _SIDES:
            raise ValidationError(f"unknown side {self.side!r}")
        if not (self.value >= 0.0):
            raise ValidationError("bound values are nonnegative")
        if self.quantity == "squeezing":
            if self.direction is not None:
                raise ValidationError("squeezing bounds carry no direction")
            if self.value > 1.0:
                raise ValidationError("squeezing bounds must be clamped to [0, 1]")
        if self.certified and not self.provenance:
            raise ValidationError("certified bounds must cite a producing operation")


def bound_to_record(b: Bound) -> dict:
    """JSON record with values as decimal strings."""
    return {
        "quantity": b.quantity,
        "side": b.side,
        "value": fmt(b.value),
        "basepoint": [fmt(b.basepoint.z.real), fmt(b.basepoint.z.imag),
                      fmt(b.basepoint.w.real), fmt(b.basepoint.w.imag)],
        "direction": None if b.direction is None else
            [fmt(b.direction.xi_z.real), fmt(b.direction.xi_z.imag),
             fmt(b.direction.xi_w.real), fmt(b.direction.xi_w.imag)],
        "certified": b.certified,
        "provenance": b.provenance,
    }


def check_sandwich(bounds: list[Bound], context: str = "") -> None:
    """Assert lower <= upper for every certified squeezing pair at a basepoint."""
    lows = [b for b in bounds if b.quantity == "squeezing" and b.side == "lower" and b.certified]
    ups = [b for b in bounds if b.quantity == "squeezing" and b.side == "upper" and b.certified]
    for lo in lows:
        for up in ups:
            if lo.basepoint == up.basepoint and lo.value > up.value * (1.0 + GUARD_COMPARE):
                raise CertificationError(
                    f"sandwich violated{' in ' + context if context else ''}: "
                    f"certified lower {lo.value} > certified upper {up.value} "
                    f"at {lo.basepoint}"
                )


# --------------------------------------------------------------- slice bound
def caratheodory_upper_slices(domain: ReinhardtDomain, p, xi: Direction) -> Bound:
    """Certified Carathéodory upper bound from Schwarz on the two slice discs.

    Any map to the unit disc vanishing at ``p = (z0, 0)`` restricts to the
    horizontal disc of radius ``r_h`` and the vertical disc of radius ``r_v``,
    so ``|f'(p)(xi)| <= |xi_z|/r_h + |xi_w|/r_v``.
    """
    p = _as_point(p)
    if abs(p.w) != 0.0:
        raise ValidationError("slice bound requires a basepoint on the w = 0 axis")
    if not domain.contains(p):
        raise ValidationError("basepoint must lie in the domain")
    return _slice_bound(p, xi, *domain.slice_radii(p.z))


def _slice_bound(p: PointC2, xi: Direction, r_h: float, r_v: float) -> Bound:
    """``|xi_z|/r_h + |xi_w|/r_v`` at ``p``, from its slice disc radii."""
    if not (r_h > 0.0 and r_v > 0.0):
        raise ValidationError("degenerate slice radii")
    return Bound(
        quantity="caratheodory",
        side="upper",
        value=abs(xi.xi_z) / r_h + abs(xi.xi_w) / r_v,
        basepoint=p,
        direction=xi,
        certified=True,
        provenance=f"schwarz slice discs: r_h={r_h!r}, r_v={r_v!r}",
    )


# ------------------------------------------------------------------ shearing
@dataclass(frozen=True)
class AffineLogMap:
    """The log-coordinate form of a shear biholomorphism.

    ``(t, lam) -> (t + t_shift, lam + lam_shift + shear * (t + t_shift))``.
    Parameters are exact rationals so applying the inverse recovers inputs
    bit-exactly.
    """

    t_shift: Fraction
    lam_shift: Fraction
    shear: Fraction


def shear_normalize(domain: ReinhardtDomain, k: int) -> tuple[ReinhardtDomain, AffineLogMap]:
    """Image domain under the shear that moves breakpoint ``k`` to ``(0, 0)``
    and flattens the segment on its left.

    In log coordinates the map is ``(t, lam) -> (t - t_k, lam - phi(t_k) +
    n_left (t - t_k))`` where ``-n_left`` is the slope left of ``t_k``.
    """
    profile = domain.profile
    n = len(profile.breakpoints)
    if not 0 <= k < n:
        raise ValidationError(f"breakpoint index {k} out of range (profile has {n})")
    t_k = profile.exact_breakpoints[k]
    v_k = profile.exact_values[k]
    s_left, _ = profile.adjacent_slopes(k)
    n_left = -s_left
    mp = AffineLogMap(t_shift=-t_k, lam_shift=-v_k, shear=n_left)
    eb = tuple(t - t_k for t in profile.exact_breakpoints)
    ev = tuple(
        v - v_k + n_left * (t - t_k)
        for t, v in zip(profile.exact_breakpoints, profile.exact_values)
    )
    return ReinhardtDomain(RadialProfile(eb, ev), *shear_edges(domain, t_k)), mp


def shear_edges(domain: ReinhardtDomain, t_k: Fraction) -> tuple[float, float]:
    """The annulus edges ``(t_min, t_max)`` of ``domain`` sheared at ``t_k``."""
    return float(Fraction(domain.t_min) - t_k), float(Fraction(domain.t_max) - t_k)


def adjacent_edge(profile: RadialProfile, k: int, j: int) -> float:
    """The default model edge of breakpoint ``k`` at its neighbour ``j``: the
    exact difference ``t_j - t_k`` as a float rounded toward 0, so that it
    never lies past ``t_j``."""
    eb = profile.exact_breakpoints
    gap = eb[j] - eb[k]
    edge = float(gap)
    return math.nextafter(edge, 0.0) if abs(Fraction(edge)) > abs(gap) else edge


# ----------------------------------------------------- Kobayashi lower bound
def kobayashi_lower_shear(domain: ReinhardtDomain, k: int,
                          m: int | None = None) -> Bound:
    """Certified ``K >= sqrt(m/2)`` at ``(1, 0)``, direction ``(1, 1)``, of the
    sheared domain, where ``m`` is the integer slope drop at breakpoint ``k``
    (or a caller-pinned model exponent, e.g. from a certificate being
    re-verified).

    The sheared profile ``psi`` must satisfy ``psi(s) <= min(0, -m s)``
    everywhere, i.e. the image lies in the model ``{|w| < 1, |w| < |z|^-m}``.
    ``psi`` is concave with ``psi(0) = 0`` and slopes ``0`` and ``-D`` beside
    the origin, ``D`` the exact slope drop, so it lies below both supporting
    lines there: ``psi(s) <= min(0, -D s)``, with equality out to the
    neighbouring breakpoints.  When ``k`` is interior, the inequality holds
    exactly when ``D >= m``.
    """
    profile = domain.profile
    if not profile.is_concave():
        raise ValidationError("profile must be pseudoconvex (nonincreasing slopes)")
    if m is None:
        m = profile.slope_drop(k)
    if m < 1:
        raise ValidationError(
            f"slope drop at breakpoint {k} gives model exponent {m}; need m >= 1"
        )
    if not 0 < k < len(profile.breakpoints) - 1:
        raise CertificationError("sheared breakpoints must straddle the origin")
    s_left, s_right = profile.adjacent_slopes(k)
    if not s_left - s_right >= m:
        raise CertificationError(
            f"model containment violated at breakpoint {k}: exact slope drop "
            f"{float(s_left - s_right)!r} < m = {m}"
        )
    value = math.sqrt(m / 2.0)
    return Bound(
        quantity="kobayashi",
        side="lower",
        value=value,
        basepoint=PointC2(1.0 + 0.0j, 0.0 + 0.0j),
        direction=Direction(1.0 + 0.0j, 1.0 + 0.0j),
        certified=True,
        provenance=(
            f"shear at breakpoint {k} (shear slope {float(-s_left)!r}); exact "
            f"containment in {{|w|<1, |w|<|z|^-{m}}}; coefficient bound "
            f"sqrt(m/2), m={m}"
        ),
    )


# ------------------------------------------------------- squeezing composites
def squeezing_upper_quotient(c_upper: Bound, k_lower: Bound) -> Bound:
    """S(p) <= C(p, xi) / K(p, xi): combine matching certified bounds."""
    if c_upper.quantity != "caratheodory" or c_upper.side != "upper":
        raise ValidationError("first argument must be a Caratheodory upper bound")
    if k_lower.quantity != "kobayashi" or k_lower.side != "lower":
        raise ValidationError("second argument must be a Kobayashi lower bound")
    if c_upper.basepoint != k_lower.basepoint:
        raise ValidationError("bounds must share the basepoint")
    if c_upper.direction != k_lower.direction:
        raise ValidationError("bounds must share the direction")
    if not k_lower.value > 0.0:
        raise ValidationError("Kobayashi lower bound must be positive")
    raw = c_upper.value / k_lower.value
    value = min(1.0, raw)
    clamp_note = " (clamped to 1)" if raw > 1.0 else ""
    return Bound(
        quantity="squeezing",
        side="upper",
        value=value,
        basepoint=c_upper.basepoint,
        direction=None,
        certified=c_upper.certified and k_lower.certified,
        provenance=(
            f"S*K<=C with C<={c_upper.value!r}, K>={k_lower.value!r}{clamp_note}; "
            f"[C] {c_upper.provenance} [K] {k_lower.provenance}"
        ),
    )


def squeezing_lower_inclusion(domain: ReinhardtDomain, p,
                              resolution: int = DEFAULT_GRID) -> Bound:
    """Certified squeezing lower bound dist(p, bD) / R.

    ``q -> (q - p)/R`` embeds the domain in the unit ball and the image
    contains the ball of radius ``dist(p, bD)/R``.
    """
    p = _as_point(p)
    d = domain.boundary_distance_lower(p, resolution)
    r = domain.outer_radius_upper(p)
    value = min(1.0, d / r)
    return Bound(
        quantity="squeezing",
        side="lower",
        value=value,
        basepoint=p,
        direction=None,
        certified=True,
        provenance=(
            f"inclusion bound: certified dist>= {d!r} (grid {resolution}, per-cell "
            f"moduli boxes), outer radius <= {r!r} (circumscribed box)"
        ),
    )


@dataclass(frozen=True)
class LevelModel:
    """Exact model data injected by the construction for one breakpoint level.

    ``c_constant`` is the exact slice constant, which replaces the float slice
    bound it agrees with; ``m`` is the slope drop the profile must show.
    """

    c_constant: Fraction
    m: int


def at_breakpoint(sheared: Bound, t: float, mirrored: bool) -> Bound:
    """``sheared``, a squeezing upper at ``(1, 0)`` of the domain sheared at
    breakpoint ``t`` (at ``-t`` of a symmetric profile if ``mirrored``), moved
    to ``(exp(t), 0)`` of the source domain by biholomorphic invariance."""
    note = "; mirrored by inversion symmetry" if mirrored else ""
    return replace(
        sheared,
        basepoint=PointC2(complex(math.exp(t), 0.0), 0.0 + 0.0j),
        provenance=(f"biholomorphic invariance under shear at breakpoint t={t!r}"
                    f"{note}; " + sheared.provenance),
        sheared=sheared,
    )


def squeezing_upper_at_breakpoint(
    domain: ReinhardtDomain,
    k: int,
    model_lo_log: float | None = None,
    model_hi_log: float | None = None,
    exact_model: LevelModel | None = None,
) -> Bound:
    """Certified squeezing upper bound at the breakpoint ``t_k`` axis point.

    Composition: shear-normalize at ``t_k``; slice the restriction of the
    sheared domain to a model annulus around the peak for the Carathéodory
    upper at ``(1, 0)``, direction ``(1, 1)``; certify the Kobayashi lower by
    model containment; combine; report at ``(exp(t_k), 0)`` of the source
    domain, valid by biholomorphic invariance of the squeezing function.
    The shear sends ``(t_k, phi(t_k))`` to the origin, so no image is built:
    the slice radii are ``min(1 - e^lo, e^hi - 1)`` and ``e^0 = 1``.

    For symmetric profiles the computation canonicalizes to the mirror
    breakpoint ``|t_k|`` (the inversion ``z -> 1/z`` is an automorphism), so
    values at ``t_k`` and ``-t_k`` agree bit-exactly.  The model annulus
    defaults to the adjacent breakpoints (``adjacent_edge``), their exact
    differences rounded toward ``t_k``; the construction passes the exact
    schedule edges where they differ.
    """
    profile = domain.profile
    n = len(profile.breakpoints)
    if not 0 <= k < n:
        raise ValidationError(f"breakpoint index {k} out of range")
    t_k = profile.breakpoints[k]
    mirrored = profile.symmetric and t_k < 0.0
    if mirrored:
        k = n - 1 - k

    eb = profile.exact_breakpoints
    t_lo, t_hi = shear_edges(domain, eb[k])
    if model_lo_log is None:
        if k == 0:
            raise ValidationError("no breakpoint left of the peak; pass model_lo_log")
        model_lo_log = adjacent_edge(profile, k, k - 1)
    if model_hi_log is None:
        model_hi_log = t_hi if k + 1 >= n else adjacent_edge(profile, k, k + 1)
    if not model_lo_log < 0.0 < model_hi_log:
        raise ValidationError("model annulus must contain the peak")
    if not t_lo <= model_lo_log < model_hi_log <= t_hi:
        raise ValidationError("restriction range must lie within the annulus")

    r_h = min(1.0 - math.exp(model_lo_log), math.exp(model_hi_log) - 1.0)
    c_slice = _slice_bound(PointC2(1.0 + 0.0j, 0.0 + 0.0j),
                           Direction(1.0 + 0.0j, 1.0 + 0.0j), r_h, 1.0)
    k_low = kobayashi_lower_shear(domain, k)

    if exact_model is not None:
        c_exact = float(exact_model.c_constant)
        if abs(c_slice.value - c_exact) > 1e-9 * c_exact:
            raise CertificationError(
                f"slice constant {c_slice.value!r} disagrees with exact model "
                f"constant {c_exact!r}"
            )
        m_img = profile.slope_drop(k)
        if m_img != exact_model.m:
            raise CertificationError(
                f"slope drop {m_img} disagrees with exact model m={exact_model.m}"
            )
        c_used = replace(
            c_slice,
            value=c_exact,
            provenance=c_slice.provenance + "; exact rational slice constant substituted",
        )
    else:
        c_used = c_slice

    return at_breakpoint(squeezing_upper_quotient(c_used, k_low), t_k, mirrored)
