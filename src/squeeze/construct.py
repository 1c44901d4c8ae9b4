"""Inductive construction of the staircase domain and its certificates.

Level by level, a slice constant ``C_k`` is computed from the ratios of
consecutive radii, the exponent ``n_k`` is the smallest integer making the
certified squeezing upper bound at the breakpoint beat the schedule target,
and the profile gains a mirrored pair of breakpoints.  All schedule
arithmetic runs on exact rationals: the ``C_k`` and ``n_k`` of a given
parameter set are exact integers/fractions, reproducible bit-for-bit.

The certificate records, per level, the certified squeezing upper bound at
``(a_k, 0)`` and ``(1/a_k, 0)`` (equal by inversion symmetry), a certified
squeezing lower bound at ``(1, 0)``, and the resulting maximum-principle
violation verdict: when some circle bound drops below the center bound by
more than the margin guard, no function satisfying the maximum principle on
analytic discs is compatible with the certified values.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .domain import RadialProfile, ReinhardtDomain, PointC2, _EXPONENT_DIGITS, fmt
from .errors import CertificationError, ValidationError
from .metrics import (
    Bound,
    GUARD_COMPARE,
    LevelModel,
    adjacent_edge,
    at_breakpoint,
    bound_to_record,
    check_sandwich,
    kobayashi_lower_shear,
    shear_edges,
    squeezing_lower_inclusion,
    squeezing_upper_at_breakpoint,
)

EXPONENT_LIMIT = 2**62
# The decimal exponent of a rational's text, as Fraction reads it: refused past
# _EXPONENT_DIGITS digits, as in a domain document's heights.
_EXPONENT = re.compile(r"[eE][-+]?([\d_]*)")


def _to_fraction(x) -> Fraction:
    """Exact coercion; floats go through their shortest decimal repr so that
    human inputs like 0.05 mean 1/20."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        exponent = _EXPONENT.search(x)
        if exponent and len(exponent[1].replace("_", "")) > _EXPONENT_DIGITS:
            raise ValidationError(f"cannot read {x!r} as an exact rational: its "
                                  "exponent has more than four digits")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"cannot read {x!r} as an exact rational") from None
    if isinstance(x, float):
        return Fraction(repr(x))
    raise ValidationError(f"cannot coerce {x!r} to an exact rational")


@dataclass(frozen=True)
class HarmonicSchedule:
    """Target S(p_k) < 1/k at level k; smallest admissible integer increment."""

    name: str = "harmonic"

    def target(self, k: int) -> Fraction:
        return Fraction(1, k)

    def increment(self, k: int, c_k: Fraction) -> int:
        return math.floor(2 * k * k * c_k * c_k) + 1


@dataclass(frozen=True)
class MarginSchedule:
    """Target S(p_k) < u at every level, for a fixed margin u in (0, 1)."""

    u: Fraction
    name: str = "margin"

    def __post_init__(self):
        object.__setattr__(self, "u", _to_fraction(self.u))
        if not 0 < self.u < 1:
            raise ValidationError("margin u must lie in (0, 1)")

    def target(self, k: int) -> Fraction:
        return self.u

    def increment(self, k: int, c_k: Fraction) -> int:
        return math.floor(2 * (c_k / self.u) ** 2) + 1


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters of the staircase construction.

    ``a_sequence`` may be an explicit sequence of radii, or None for the
    default rule ``a_k = a - a 2^{-(k+1)}`` (halving gaps; at ``a = 2`` this
    is ``2 - 2^{-k}``).  ``a_0`` is fixed to 1.  One radius beyond the last
    level is consumed as the outer model edge of the final level.
    """

    a: Fraction
    levels: int
    a_sequence: Sequence | None = None
    schedule: HarmonicSchedule | MarginSchedule = field(default_factory=HarmonicSchedule)
    margin_guard: float = 0.01
    distance_resolution: int = 2048

    def __post_init__(self):
        object.__setattr__(self, "a", _to_fraction(self.a))
        if not self.a > 1:
            raise ValidationError("annulus radius a must exceed 1")
        if self.levels < 0:
            raise ValidationError("levels must be nonnegative")
        if not 0.0 <= self.margin_guard < 1.0:
            raise ValidationError("margin_guard must lie in [0, 1)")

    def radius(self, k: int) -> Fraction:
        """Exact a_k; a_0 = 1, and k may run one past ``levels``."""
        if k == 0:
            return Fraction(1)
        if self.a_sequence is None:
            return self.a - self.a * Fraction(1, 2 ** (k + 1))
        seq = self.a_sequence
        if k <= len(seq):
            return _to_fraction(seq[k - 1])
        if k == len(seq) + 1:
            # model edge beyond an explicit list: midpoint toward the annulus edge
            return (_to_fraction(seq[-1]) + self.a) / 2
        raise ValidationError(f"a_sequence does not provide a_{k}")

    def radii(self) -> list[Fraction]:
        """[a_0, a_1, ..., a_{K+1}], validated strictly increasing in (1, a)."""
        ks = self.levels
        out = [self.radius(k) for k in range(ks + 2)]
        for k in range(1, ks + 2):
            if not out[k - 1] < out[k]:
                raise ValidationError(f"a_sequence not strictly increasing at k={k}")
            if not (1 < out[k] < self.a):
                raise ValidationError(f"a_{k} = {out[k]} outside (1, a)")
        return out


def level_constant(params: ConstructionParams, k: int) -> Fraction:
    """Exact slice constant C_k = 1/min(1 - a_{k-1}/a_k, a_{k+1}/a_k - 1) + 1."""
    if not 1 <= k <= params.levels:
        raise ValidationError(f"level {k} out of range 1..{params.levels}")
    return _level_constant(params.radii(), k)


def _level_constant(radii: list[Fraction], k: int) -> Fraction:
    """``level_constant`` from the validated radii ``[a_0, ..., a_{K+1}]``."""
    gap = min(1 - radii[k - 1] / radii[k], radii[k + 1] / radii[k] - 1)
    if not gap > 0:
        raise ValidationError(f"degenerate model annulus at level {k}")
    return 1 / gap + 1


def choose_exponent(params: ConstructionParams, k: int, c_k: Fraction, n_prev: int) -> int:
    """Smallest admissible integer exponent for level ``k``."""
    if n_prev < 0:
        raise ValidationError("previous exponent must be nonnegative")
    n_k = n_prev + params.schedule.increment(k, c_k)
    if n_k > EXPONENT_LIMIT:
        raise ValidationError(
            f"exponent n_{k} = {n_k} exceeds the limit {EXPONENT_LIMIT}; "
            "relax the schedule target"
        )
    return n_k


@dataclass(frozen=True)
class LevelRecord:
    """One certificate row."""

    k: int
    a_k: float
    a_k_exact: Fraction
    a_prev: float
    a_next: float
    c_k: Fraction
    m_k: int
    n_k: int
    s_upper: Bound
    s_upper_mirror: Bound
    target: Fraction
    target_met: bool


@dataclass(frozen=True)
class ConstructionCertificate:
    """Per-level certified squeezing uppers, the center lower bound, and the
    maximum-principle-violation verdict with its margin."""

    levels: tuple[LevelRecord, ...]
    s_lower: Bound
    violation: bool
    violation_level: int | None
    margin: float | None
    margin_guard: float
    smoothed: bool = False

    def to_doc(self) -> dict:
        return {
            "schema": "construction-certificate/1",
            "smoothed": self.smoothed,
            "levels": [
                {
                    "k": rec.k,
                    "a_k": fmt(rec.a_k),
                    "a_k_exact": str(rec.a_k_exact),
                    "C_k": str(rec.c_k),
                    "m_k": rec.m_k,
                    "n_k": rec.n_k,
                    "s_upper": fmt(rec.s_upper.value),
                    "target": str(rec.target),
                    "target_met": rec.target_met,
                    "bound": bound_to_record(rec.s_upper),
                    "bound_mirror": bound_to_record(rec.s_upper_mirror),
                }
                for rec in self.levels
            ],
            "s_lower": bound_to_record(self.s_lower),
            "violation": self.violation,
            "violation_level": self.violation_level,
            "margin": None if self.margin is None else fmt(self.margin),
            "margin_guard": fmt(self.margin_guard),
        }

    def to_csv_rows(self) -> list[list[str]]:
        rows = [["k", "a_k", "C_k", "m_k", "n_k", "s_upper_k", "target"]]
        for rec in self.levels:
            rows.append([
                str(rec.k),
                fmt(rec.a_k),
                str(rec.c_k),
                str(rec.m_k),
                str(rec.n_k),
                fmt(rec.s_upper.value),
                str(rec.target),
            ])
        return rows


def assemble_certificate(levels: tuple[LevelRecord, ...], s_lower: Bound,
                         margin_guard: float, smoothed: bool = False) -> ConstructionCertificate:
    """Violation verdict: smallest level whose circle bound is certifiably
    below the center bound minus the margin guard, after the sandwich check."""
    bounds = [rec.s_upper for rec in levels] + [rec.s_upper_mirror for rec in levels]
    check_sandwich(bounds + [s_lower], context="smoothed certificate" if smoothed
                   else "construction certificate")
    violation_level = None
    for rec in levels:
        lhs = max(rec.s_upper.value, rec.s_upper_mirror.value)
        if lhs * (1.0 + GUARD_COMPARE) < s_lower.value * (1.0 - GUARD_COMPARE) - margin_guard:
            violation_level = rec.k
            break
    if violation_level is not None:
        rec = next(r for r in levels if r.k == violation_level)
        margin = s_lower.value - max(rec.s_upper.value, rec.s_upper_mirror.value)
    elif levels:
        margin = s_lower.value - min(
            max(r.s_upper.value, r.s_upper_mirror.value) for r in levels
        )
    else:
        margin = None
    return ConstructionCertificate(
        levels=levels,
        s_lower=s_lower,
        violation=violation_level is not None,
        violation_level=violation_level,
        margin=margin,
        margin_guard=margin_guard,
        smoothed=smoothed,
    )


def _model_edges(k: int, ks: int, a_lo: Fraction,
                 a_hi: Fraction) -> tuple[float | None, float | None]:
    """Float representatives of the level-k model annulus edges in sheared
    coordinates, None where the edge is the adjacent profile breakpoint.

    None selects the default edge of ``squeezing_upper_at_breakpoint`` and
    ``verify_model_annulus_inclusion``: the exact breakpoint difference
    rounded toward ``t_k`` (``adjacent_edge``), where a log-of-ratio float
    can land a hair past the breakpoint, outside the segment the model
    relies on.  The remaining edges (a_0 = 1 on the left of level 1, the
    schedule continuation on the right of the last level) fall strictly
    inside a segment, where ulp-level placement cannot matter.
    """
    return (math.log(float(a_lo)) if k < 2 else None,
            math.log(float(a_hi)) if k >= ks else None)


def _staircase_profile(params: ConstructionParams, radii: list[Fraction],
                       exponents: list[int]) -> RadialProfile:
    """Symmetric staircase profile with exact dyadic heights.

    Breakpoints are ``-t_max, -t_K, ..., -t_1, t_1, ..., t_K, t_max`` with
    heights 0 on the flat region and exact accumulation
    ``phi(t_{k+1}) = phi(t_k) - n_k (t_{k+1} - t_k)`` outward; the edge nodes
    carry the last exponent's slope out to the annulus boundary.
    """
    te_max = Fraction(math.log(float(params.a)))
    ks = params.levels
    if ks == 0:
        eb, ev = (-te_max, te_max), (0, 0)
    else:
        te = [Fraction(math.log(float(radii[k]))) for k in range(1, ks + 1)]
        ve = [Fraction(0)]
        for j in range(ks - 1):
            ve.append(ve[j] - exponents[j] * (te[j + 1] - te[j]))
        v_edge = ve[-1] - exponents[ks - 1] * (te_max - te[-1])
        eb = [-te_max] + [-t for t in reversed(te)] + te + [te_max]
        ev = [v_edge] + ve[::-1] + ve + [v_edge]
    profile = RadialProfile(eb, ev)
    if not (profile.symmetric and profile.pseudoconvex):
        raise ValidationError("staircase profile is not symmetric and strictly concave")
    return profile


def certify_levels(params: ConstructionParams) -> tuple[ReinhardtDomain, tuple[LevelRecord, ...]]:
    """Run the inductive construction and certify every level's circle bounds.

    Deterministic: identical parameters produce bit-identical domains and
    level records.
    """
    radii = params.radii()
    ks = params.levels

    constants: list[Fraction] = []
    exponents: list[int] = []
    n_prev = 0
    for k in range(1, ks + 1):
        c_k = _level_constant(radii, k)
        n_k = choose_exponent(params, k, c_k, n_prev)
        constants.append(c_k)
        exponents.append(n_k)
        n_prev = n_k

    profile = _staircase_profile(params, radii, exponents)
    t_max = math.log(float(params.a))
    domain = ReinhardtDomain(profile, -t_max, t_max)

    records: list[LevelRecord] = []
    n_bp = len(profile.breakpoints)
    for k in range(1, ks + 1):
        # positive-side breakpoint t_k sits at index (edge node + K mirrors) + k - 1
        idx = 1 + ks + (k - 1)
        c_k = constants[k - 1]
        m_k = exponents[k - 1] - (exponents[k - 2] if k >= 2 else 0)
        lo_log, hi_log = _model_edges(k, ks, radii[k - 1] / radii[k],
                                      radii[k + 1] / radii[k])
        s_up = squeezing_upper_at_breakpoint(
            domain,
            idx,
            model_lo_log=lo_log,
            model_hi_log=hi_log,
            exact_model=LevelModel(c_constant=c_k, m=m_k),
        )
        # the profile is symmetric, so z -> 1/z carries the bound to -t_k
        s_up_mirror = at_breakpoint(s_up.sheared, profile.breakpoints[n_bp - 1 - idx],
                                    mirrored=True)
        target = params.schedule.target(k)
        # the certified bound is C_k / sqrt(m_k / 2): decided in exact rationals
        if not 2 * c_k * c_k < target * target * m_k:
            raise CertificationError(
                f"level {k}: certified upper {s_up.value!r} misses target {target} "
                f"(n_{k} = {exponents[k - 1]})"
            )
        records.append(LevelRecord(
            k=k,
            a_k=float(radii[k]),
            a_k_exact=radii[k],
            a_prev=float(radii[k - 1]),
            a_next=float(radii[k + 1]),
            c_k=c_k,
            m_k=m_k,
            n_k=exponents[k - 1],
            s_upper=s_up,
            s_upper_mirror=s_up_mirror,
            target=target,
            target_met=True,
        ))
    return domain, tuple(records)


def certify_center(domain: ReinhardtDomain, levels: tuple[LevelRecord, ...],
                   params: ConstructionParams) -> ConstructionCertificate:
    """The certified squeezing lower bound at the center ``(1, 0)`` and the
    certificate of ``levels``, the rows ``certify_levels`` returned for ``domain``."""
    p_center = PointC2(1.0 + 0.0j, 0.0 + 0.0j)
    s_lower = squeezing_lower_inclusion(domain, p_center, params.distance_resolution)
    return assemble_certificate(levels, s_lower, params.margin_guard)


def build(params: ConstructionParams) -> tuple[ReinhardtDomain, ConstructionCertificate]:
    """``certify_levels``, then ``certify_center``."""
    domain, records = certify_levels(params)
    return domain, certify_center(domain, records, params)


def verify_construction(domain: ReinhardtDomain, cert: ConstructionCertificate) -> None:
    """Re-run every exact structural check backing a certificate.

    Raises CertificationError on the first failure.  Checks: exact mirror
    symmetry of breakpoints and heights and strict concavity, each decided
    once per profile; then per level, from the two exact slopes beside
    ``t_k``, the shear containment against the certificate's pinned exponent
    and the model-annulus inclusion; so the recheck is linear in the levels.
    A 1e-6 perturbation of any single height fails at least one of these.
    """
    prof = domain.profile
    if prof._asymmetry is not None:
        raise CertificationError(
            f"inversion symmetry broken at breakpoint index {prof._asymmetry[0]}")
    if not prof.is_concave(strict=True):
        raise CertificationError("profile is not strictly concave")
    ks = len(cert.levels)
    for rec in cert.levels:
        t_k = math.log(rec.a_k)
        try:
            idx = prof.breakpoints.index(t_k)
        except ValueError:
            raise CertificationError(f"level {rec.k}: breakpoint t={t_k!r} missing")
        lo, hi = _model_edges(rec.k, ks, Fraction(rec.a_prev) / Fraction(rec.a_k),
                              Fraction(rec.a_next) / Fraction(rec.a_k))
        # The containment is the exact D >= m, D the slope drop at t_k (see
        # kobayashi_lower_shear); by the symmetry above, -t_k has the same D.
        kobayashi_lower_shear(domain, idx, m=rec.m_k)
        if not verify_model_annulus_inclusion(domain, idx, model_lo_log=lo,
                                             model_hi_log=hi, m=rec.m_k):
            raise CertificationError(
                f"level {rec.k}: model annulus escapes the sheared domain"
            )


def verify_model_annulus_inclusion(
        domain: ReinhardtDomain, k: int, model_lo_log: float | None = None,
        model_hi_log: float | None = None, m: int | None = None) -> bool:
    """Check (exactly) that the flat-then-monomial model annulus sits inside
    the domain sheared at breakpoint ``k``.

    The model profile is ``min(0, -m s)`` restricted to ``(lo, hi)``; the
    sheared profile ``psi(s) = phi(t_k + s) - phi(t_k) - s_left s`` must
    dominate it there.  On the two segments beside ``t_k`` (on into the end
    extensions beside an end breakpoint) ``psi`` is exactly ``0`` on the left
    and ``-D s`` on the right, ``D`` the exact slope drop from
    ``adjacent_slopes(k)``; with both edges in them, the inclusion holds
    exactly when ``D <= m``.  An edge past an adjacent interior breakpoint
    (neither ``_model_edges`` nor the default ``adjacent_edge`` gives one)
    and a profile that is not concave are not verified: the result is False.
    """
    profile = domain.profile
    eb = profile.exact_breakpoints
    n = len(eb)
    if not 0 <= k < n:
        raise ValidationError(f"breakpoint index {k} out of range (profile has {n})")
    t_k = eb[k]
    t_lo, t_hi = shear_edges(domain, t_k)
    if model_lo_log is None:
        model_lo_log = adjacent_edge(profile, k, k - 1) if k > 0 else t_lo
    if model_hi_log is None:
        model_hi_log = adjacent_edge(profile, k, k + 1) if k + 1 < n else t_hi
    if m is None:
        m = profile.slope_drop(k)
    if not (t_lo <= model_lo_log < 0 < model_hi_log <= t_hi and profile.is_concave()):
        return False
    s_left, s_right = profile.adjacent_slopes(k)
    return ((k < 2 or Fraction(model_lo_log) >= eb[k - 1] - t_k)
            and (k > n - 3 or Fraction(model_hi_log) <= eb[k + 1] - t_k)
            and s_left - s_right <= m)
