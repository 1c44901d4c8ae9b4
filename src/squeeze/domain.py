"""Log-coordinate model of circular (Reinhardt) domains fibered over an annulus.

A domain is described by a piecewise-linear concave profile ``phi`` in log
coordinates: ``t = log|z|``, ``phi(t) = log`` of the ``w``-radius at ``|z| = e^t``.
The point set is::

    { (z, w) : t_min < log|z| < t_max,  log|w| < phi(log|z|) }

together with the ``w = 0`` axis over the same annulus.  All membership and
slice geometry is evaluated in log space, so astronomically large monomial
coefficients (the heights drop by thousands of log units) never overflow.

Profiles hold their breakpoints and heights once, as exact dyadic rationals
(``fractions.Fraction``), with the nearest doubles derived for the float
paths.  Certified containment checks run on the exact data, which makes
equality-riding comparisons (a profile segment lying exactly on a model
boundary) decidable with no tolerance.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import CertificationError, ValidationError

# Relative guard applied to certified geometric quantities so double rounding
# can never flip a certificate.
GUARD_REL = 1e-12

# Default number of cells per axis for certified grid minimizations.
DEFAULT_GRID = 2048

_NEG_INF = float("-inf")


def as_float(t) -> np.ndarray:
    """``t`` as an array of its own float dtype (float64 for integers)."""
    t = np.asarray(t)
    return t.astype(np.promote_types(t.dtype, np.float64), copy=False)


def fmt(x) -> str:
    """Decimal text of a real with 17 significant digits (round-trips exactly)."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class PointC2:
    """A point of C^2."""

    z: complex
    w: complex

    def __post_init__(self):
        for part in (self.z.real, self.z.imag, self.w.real, self.w.imag):
            if not math.isfinite(part):
                raise ValidationError(f"non-finite point component: {part!r}")

    def moduli(self) -> tuple[float, float]:
        return abs(self.z), abs(self.w)


@dataclass(frozen=True)
class LogPoint:
    """Log moduli of a point; -inf encodes z = 0 (off every annulus) or w = 0."""

    t: float
    lam: float

    @classmethod
    def from_point(cls, p: PointC2) -> "LogPoint":
        rz, rw = p.moduli()
        t = math.log(rz) if rz > 0.0 else _NEG_INF
        lam = math.log(rw) if rw > 0.0 else _NEG_INF
        return cls(t, lam)


def _as_point(p) -> PointC2:
    if isinstance(p, PointC2):
        return p
    if isinstance(p, (tuple, list)) and len(p) == 2:
        return PointC2(complex(p[0]), complex(p[1]))
    raise ValidationError(f"cannot interpret {p!r} as a point of C^2")


@dataclass(frozen=True)
class RadialProfile:
    """Piecewise-linear concave log-radius profile.

    ``values[i]`` is ``phi(breakpoints[i])``; between breakpoints the profile
    interpolates linearly and beyond the first/last breakpoint it continues
    with the adjacent slope.  Each datum is given once, as a double or an
    exact rational, and kept exactly in ``exact_breakpoints`` /
    ``exact_values``; ``breakpoints`` / ``values`` are their nearest doubles,
    on which equality and hashing rest.  ``symmetric`` and ``pseudoconvex``
    are decided from the exact data.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    exact_breakpoints: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    exact_values: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eb = tuple(map(_exact, self.breakpoints))
        ev = tuple(map(_exact, self.values))
        if len(eb) < 2:
            raise ValidationError("profile needs at least two breakpoints")
        if len(eb) != len(ev):
            raise ValidationError("breakpoints and values length mismatch")
        for a, b in zip(eb, eb[1:]):
            if not a < b:
                raise ValidationError("breakpoints must be strictly increasing")
        try:
            bps, vals = tuple(map(float, eb)), tuple(map(float, ev))
        except OverflowError:
            raise ValidationError("profile breakpoints and values must be finite") from None
        for name, value in (("exact_breakpoints", eb), ("exact_values", ev),
                            ("breakpoints", bps), ("values", vals)):
            object.__setattr__(self, name, value)

    @property
    def symmetric(self) -> bool:
        """Exact mirror symmetry of breakpoints and heights under ``t -> -t``."""
        return self._asymmetry is None

    @property
    def pseudoconvex(self) -> bool:
        """Strictly decreasing exact slopes."""
        return self.is_concave(strict=True)

    # ------------------------------------------------------------------ float
    def slopes(self) -> tuple[float, ...]:
        return self._float_slopes

    @cached_property
    def _float_slopes(self) -> tuple[float, ...]:
        try:
            return tuple(float(s) for s in self.exact_slopes())
        except OverflowError:
            raise ValidationError("profile slope overflows a double") from None

    @cached_property
    def _pieces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(breakpoints, anchor t, anchor value, slope) of the n + 1 linear
        pieces: the left extension, the n - 1 segments and the right
        extension.  Segment slopes are rounded as numpy's ``interp`` rounds
        them; the extensions carry the exact end slopes."""
        bps = np.asarray(self.breakpoints)
        vals = np.asarray(self.values)
        s = self.slopes()
        t0 = np.concatenate([bps[:1], bps])
        v0 = np.concatenate([vals[:1], vals])
        slope = np.concatenate([s[:1], np.diff(vals) / np.diff(bps), s[-1:]])
        return bps, t0, v0, slope

    def eval(self, t: float) -> float:
        """phi(t): linear interpolation, linear extension outside the breakpoints."""
        if not math.isfinite(t):
            raise ValidationError(f"profile argument must be finite, got {t!r}")
        return float(self.eval_many(t))

    def eval_many(self, t) -> np.ndarray:
        """Vectorized ``eval`` for finite inputs, in the float dtype of ``t``.

        ``t`` in ``[t_i, t_{i+1})`` is evaluated on the piece anchored at
        ``t_i``, so breakpoints return their stored heights and the result
        equals numpy's ``interp`` between the end breakpoints bit for bit.
        """
        t = as_float(t)
        bps, t0, v0, slope = self._pieces
        i = np.searchsorted(bps, t, side="right")
        return slope[i] * (t - t0[i]) + v0[i]

    def max_value(self, t_lo: float, t_hi: float) -> float:
        """sup of phi over [t_lo, t_hi] (concavity: attained at a breakpoint or an end)."""
        cands = [self.eval(t_lo), self.eval(t_hi)]
        for t, v in zip(self.breakpoints, self.values):
            if t_lo <= t <= t_hi:
                cands.append(v)
        return max(cands)

    # ------------------------------------------------------------------ exact
    def exact_slopes(self) -> tuple[Fraction, ...]:
        return self._exact_slopes

    @cached_property
    def _exact_slopes(self) -> tuple[Fraction, ...]:
        bs, vs = self.exact_breakpoints, self.exact_values
        return tuple(
            (vs[i + 1] - vs[i]) / (bs[i + 1] - bs[i]) for i in range(len(bs) - 1)
        )

    def adjacent_slopes(self, k: int) -> tuple[Fraction, Fraction]:
        """Exact (left, right) slopes at breakpoint ``k``, the extensions' at the ends."""
        slopes = self.exact_slopes()
        return slopes[max(k - 1, 0)], slopes[min(k, len(slopes) - 1)]

    def slope_drop(self, k: int) -> int:
        """The integer slope drop ``floor(s_left - s_right)`` at breakpoint ``k``."""
        s_left, s_right = self.adjacent_slopes(k)
        return math.floor(s_left - s_right)

    def is_concave(self, strict: bool = False) -> bool:
        """Nonincreasing exact slopes (decreasing if ``strict``), decided once per profile."""
        return self._concavity[strict]

    @cached_property
    def _concavity(self) -> tuple[bool, bool]:
        """(concave, strictly concave), each exact slope against its left neighbour."""
        s = self.exact_slopes()
        strict = all(b < a for a, b in zip(s, s[1:]))
        return strict or all(b <= a for a, b in zip(s, s[1:])), strict

    @cached_property
    def _asymmetry(self) -> tuple[int, str] | None:
        """First index ``i`` whose exact breakpoint (checked first) or height is
        not the mirror of index ``n - 1 - i``'s, and which; None if symmetric."""
        eb, ev = self.exact_breakpoints, self.exact_values
        for i, (t, v, t_mirror, v_mirror) in enumerate(zip(eb, ev, eb[::-1], ev[::-1])):
            if t != -t_mirror:
                return i, "breakpoints"
            if v != v_mirror:
                return i, "values"
        return None


@dataclass(frozen=True)
class ReinhardtDomain:
    """Reinhardt domain over the z-annulus ``t_min < log|z| < t_max``,
    described by a radial profile; both edges are finite."""

    profile: RadialProfile
    t_min: float
    t_max: float

    def __post_init__(self):
        if not (math.isfinite(self.t_min) and math.isfinite(self.t_max)):
            raise ValidationError("annulus edges must be finite")
        if not self.t_min < self.t_max:
            raise ValidationError("t_min must be strictly below t_max")
        if not self.inner_radius() > 0.0:
            raise ValidationError("inner annulus radius exp(t_min) underflows to 0")
        self.outer_radius()  # raises ValidationError if exp(t_max) overflows
        bps = self.profile.breakpoints
        if bps[0] < self.t_min or bps[-1] > self.t_max:
            raise ValidationError("profile breakpoints must lie within [t_min, t_max]")

    # ------------------------------------------------------------- membership
    def contains_log(self, t: float, lam: float) -> bool:
        if math.isnan(t) or math.isnan(lam):
            return False
        if not self.t_min < t < self.t_max:
            return False
        if lam == _NEG_INF:  # w = 0 axis: only the annulus condition applies
            return True
        return lam < self.profile.eval(t)

    def contains(self, p) -> bool:
        lp = LogPoint.from_point(_as_point(p))
        return self.contains_log(lp.t, lp.lam)

    # --------------------------------------------------------------- geometry
    def inner_radius(self) -> float:
        return math.exp(self.t_min)

    def outer_radius(self) -> float:
        return _exp(self.t_max, "outer annulus radius exp(t_max)")

    def slice_radii(self, z0: complex) -> tuple[float, float]:
        """Radii of the largest horizontal/vertical discs through ``(z0, 0)``."""
        z0 = complex(z0)
        if not self.contains(PointC2(z0, 0.0)):
            raise ValidationError(f"(z0, 0) with z0 = {z0!r} is not in the domain")
        rz = abs(z0)
        r_v = _exp(self.profile.eval(math.log(rz)), "vertical slice radius")
        r_h = min(rz - self.inner_radius(), self.outer_radius() - rz)
        return r_h, r_v

    def max_log_height(self) -> float:
        """sup of phi over the annulus range."""
        return self.profile.max_value(self.t_min, self.t_max)

    def outer_radius_upper(self, p) -> float:
        """Certified ``R >= sup_{q in D} |q - p|`` via the circumscribed box."""
        p = _as_point(p)
        if not self.contains(p):
            raise ValidationError("basepoint must lie in the domain")
        rz, rw = p.moduli()
        phi_max = self.max_log_height()
        r = math.hypot(self.outer_radius() + rz, _exp(phi_max, "largest w-radius") + rw)
        return r * (1.0 + GUARD_REL)

    def boundary_distance_lower(self, p, resolution: int = DEFAULT_GRID) -> float:
        """Certified lower bound on the Euclidean distance from ``p`` to the boundary.

        The boundary splits into the profile surface and two end caps.
        Rotation invariance reduces the distance to moduli: for any boundary
        point ``q``, ``|q - p| >= hypot(||z_q|-|z_p||, ||w_q|-|w_p||)`` with
        equality at aligned phases.  The surface is covered by
        breakpoint-free cells in ``u = |z|``; per cell the moduli ranges give
        an exact box lower bound (no Lipschitz slack needed).
        """
        p = _as_point(p)
        if not self.contains(p):
            raise ValidationError("basepoint must lie in the domain")
        return _distance_lower(self._cells, resolution, *p.moduli())

    @cached_property
    def _cell_cache(self) -> dict:
        return {}

    def _cells(self, resolution: int) -> tuple[np.ndarray, ...]:
        """The moduli boxes ``(u0, u1, r_lo, r_hi)`` that cover the boundary
        at ``resolution``, built once per domain and resolution.

        The surface cells split ``[inner_radius, outer_radius]`` evenly and
        at every breakpoint, so no cell contains a breakpoint and the radius
        range over a cell is exactly the range of its endpoint values.  The
        two end caps ``{|z| = edge, |w| <= radius(edge)}`` follow as the
        last two boxes; the exp cap at 709 keeps huge cap heights finite and
        only ever shrinks the claimed distance.
        """
        cells = self._cell_cache.get(resolution)
        if cells is None:
            u_lo = self.inner_radius()
            u_hi = self.outer_radius()
            grid = np.linspace(u_lo, u_hi, resolution + 1)
            knots_u = np.exp(np.asarray(self.profile.breakpoints))
            knots_u = knots_u[(knots_u > u_lo) & (knots_u < u_hi)]
            u = np.unique(np.concatenate([grid, knots_u]))
            # a height past 709 gives an infinite radius: that only moves
            # the surface away from any point of the domain
            with np.errstate(over="ignore"):
                r = np.exp(self.profile.eval_many(np.log(u)))
            cap_u = [u_lo, u_hi]
            cap_r = [math.exp(min(self.profile.eval(t), 709.0)) for t in (self.t_min, self.t_max)]
            cells = (np.concatenate([u[:-1], cap_u]), np.concatenate([u[1:], cap_u]),
                     np.concatenate([np.minimum(r[:-1], r[1:]), [0.0, 0.0]]),
                     np.concatenate([np.maximum(r[:-1], r[1:]), cap_r]))
            for a in cells:
                a.flags.writeable = False
            self._cell_cache[resolution] = cells
        return cells


# ------------------------------------------------------------------ module ops
def _exact(x) -> Fraction:
    """A profile datum as an exact rational: an int or a ``Fraction`` as
    given, anything else as its nearest double, which must be finite."""
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, int):
        x = float(x)
        if not math.isfinite(x):
            raise ValidationError("profile breakpoints and values must be finite")
    return Fraction(x)


def _exp(x: float, what: str) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        raise ValidationError(f"{what} overflows a double") from None


def box_distance(u0, u1, r_lo, r_hi, rz: float, rw: float) -> float:
    """Smallest Euclidean distance from the moduli point ``(rz, rw)`` to the
    cells ``[u0, u1] x [r_lo, r_hi]`` (arrays, one entry per cell)."""
    dz = np.maximum(np.maximum(u0 - rz, rz - u1), 0.0)
    dw = np.maximum(np.maximum(r_lo - rw, rw - r_hi), 0.0)
    return float(np.min(np.hypot(dz, dw)))


def _distance_lower(boxes, resolution: int, rz: float, rw: float) -> float:
    """Certified lower bound on the distance from the moduli point ``(rz,
    rw)`` to a boundary covered by the moduli boxes ``boxes(resolution)``:
    their box distance shrunk by ``GUARD_REL``, refused unless positive."""
    if resolution < 8:
        raise ValidationError("resolution too small")
    d = box_distance(*boxes(resolution), rz, rw) * (1.0 - GUARD_REL)
    if not d > 0.0:
        raise CertificationError(
            "certified boundary distance is not positive at resolution "
            f"{resolution}; refine the grid"
        )
    return d


def boundary_distance_lower(domain: ReinhardtDomain, p, resolution: int = DEFAULT_GRID) -> float:
    return domain.boundary_distance_lower(p, resolution)


# ------------------------------------------------------------- model builders
def annulus_model_domain(a_ratio: float, b_ratio: float, m: int) -> ReinhardtDomain:
    """The flat-then-monomial annulus model

        { a < |z| < b, |w| < 1, |w| < |z|^-m }     (0 < a < 1 < b)

    as a ReinhardtDomain: profile 0 on [log a, 0], slope -m on [0, log b].
    """
    if not (0.0 < a_ratio < 1.0 < b_ratio):
        raise ValidationError("model needs 0 < a < 1 < b")
    if m < 1:
        raise ValidationError("model exponent must be >= 1")
    ta = math.log(a_ratio)
    tb = math.log(b_ratio)
    profile = RadialProfile((ta, 0, tb), (0, 0, -m * Fraction(tb)))
    return ReinhardtDomain(profile, ta, tb)


# ---------------------------------------------------------------- persistence
_DOC_VERSION = 1


def domain_to_doc(domain: ReinhardtDomain) -> dict:
    """Versioned JSON document, every real a decimal string: breakpoints and
    edges as ``fmt`` doubles, each height as its exact decimal text."""
    return {
        "version": _DOC_VERSION,
        "t_min": fmt(domain.t_min),
        "t_max": fmt(domain.t_max),
        "breakpoints": [
            [fmt(t), _exact_decimal(v)]
            for t, v in zip(domain.profile.breakpoints, domain.profile.exact_values)
        ],
        "flags": {
            "symmetric": domain.profile.symmetric,
            "pseudoconvex": domain.profile.pseudoconvex,
        },
    }


def _exact_decimal(x: Fraction) -> str:
    """The terminating decimal text of a dyadic rational ``x = n / 2^E``: the
    digits of ``|n| 5^E`` with the point ``E`` places from the right."""
    e = x.denominator.bit_length() - 1
    if x.denominator != 1 << e:
        raise ValidationError(f"height {x} is not a dyadic rational, so no decimal holds it")
    digits = str(abs(x.numerator) * 5 ** e).rjust(e + 1, "0")
    return ("-" if x < 0 else "") + (f"{digits[:-e]}.{digits[-e:]}" if e else digits)


def _doc_reals(what: str, items) -> tuple[float, ...]:
    try:
        return tuple(map(float, items))
    except (TypeError, ValueError):
        raise ValidationError(f"domain document {what} must be decimal strings") from None


# The most digits of a decimal exponent read exactly: Fraction builds
# 10^|exponent| before any check, so reading one builds no power of ten past
# 10^9999 (10^10000000: seconds).
_EXPONENT_DIGITS = 4
# A height's text: a decimal numeral with an exponent of at most _EXPONENT_DIGITS digits.
_HEIGHT_TEXT = re.compile(rf"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d{{1,{_EXPONENT_DIGITS}}})?")


def _doc_heights(texts) -> tuple[Fraction, ...]:
    """A document's heights, exactly, each the decimal text of a dyadic rational.
    A nan or an infinity raises before any exact value is built; rounded
    heights, which documents written before heights were exact hold, raise."""
    heights = []
    for i, (text, v) in enumerate(zip(texts, _doc_reals("heights", texts))):
        _exact(v)  # a nan or an infinity raises: must be finite
        if not _HEIGHT_TEXT.fullmatch(str(text)):
            raise ValidationError(f"domain document height {i} = {text} is not a decimal "
                                  "numeral with an exponent of at most four digits")
        height = Fraction(text)
        if height.denominator & (height.denominator - 1):
            raise ValidationError(f"domain document height {i} = {text} is not an exact "
                                  "height: its denominator is not a power of two")
        heights.append(height)
    return tuple(heights)


def domain_from_doc(doc: dict) -> ReinhardtDomain:
    """The domain of a ``domain_to_doc`` document.  Its flags are checked as
    outside input: one that claims a symmetry or a strict concavity the data
    lack raises ``ValidationError``; the domain's own flags are derived."""
    if not isinstance(doc, dict):
        raise ValidationError(f"domain document must be an object, not {type(doc).__name__}")
    if doc.get("version") != _DOC_VERSION:
        raise ValidationError(f"unsupported domain document version: {doc.get('version')!r}")
    missing = [key for key in ("t_min", "t_max", "breakpoints") if key not in doc]
    if missing:
        raise ValidationError(f"domain document lacks {', '.join(missing)}")
    pairs, flags = doc["breakpoints"], doc.get("flags", {})
    if not (isinstance(pairs, (list, tuple))
            and all(isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs)):
        raise ValidationError("domain document breakpoints must be a list of [t, phi(t)] pairs")
    if not isinstance(flags, dict):
        raise ValidationError("domain document flags must be an object")
    bps = _doc_reals("breakpoints", (t for t, _ in pairs))
    heights = _doc_heights([v for _, v in pairs])
    t_min, t_max = _doc_reals("annulus edges", (doc["t_min"], doc["t_max"]))
    profile = RadialProfile(bps, heights)
    profile.slopes()  # a slope that overflows a double raises ValidationError
    for name in ("symmetric", "pseudoconvex"):
        if flags.get(name) and not getattr(profile, name):
            raise ValidationError(f"domain document claims {name}, which its profile is not")
    return ReinhardtDomain(profile, t_min, t_max)
