"""Inner smoothing of a staircase domain and direct certification on it.

The smooth profile is ``phi_tilde = (phi * zeta_h) - eps t^2`` where
``zeta_h`` is a normalized compactly supported bump of width ``h``.  The
kernel is the polynomial bump ``c (1 - x^2)^4`` on ``[-1, 1]``, whose
convolution with a piecewise-linear concave function has a closed form: the
profile is an affine function minus a sum of kink terms ``m_j relu(t - t_j)``,
and ``relu * zeta_h`` is an explicit degree-10 piecewise polynomial.  The
convolution is therefore evaluated exactly (no quadrature), is C^5 in ``t``,
and the correction to ``phi`` is local to each kink::

    phi_tilde(t) = phi(t) - sum_j m_j * K_h(t - t_j) - eps t^2,

with ``K_h`` supported on ``|x| < h`` and ``K_h >= 0``, so ``phi_tilde <=
phi`` holds structurally (Jensen), and ``phi_tilde'' <= -2 eps`` everywhere.

The domain is closed off by exponential end caps inside a single defining
function::

    rho(z, w) = |w|^2 exp(-2 phi_tilde(log|z|)) + exp(kappa (log|z| - t_+))
                + exp(-kappa (log|z| - t_-)) - 1,

with ``t_-`` and ``t_+`` the edges of the base annulus, so ``{rho < 0}``
is an open, smoothly bounded, circular subdomain of the staircase domain.
On the boundary face the Levi form restricted to the complex tangent has
the closed form

    L = F (-2 phi_tilde'' F^2 + g'' F + g'^2) / ((r A)^2 + 4 z^2 F^2),

``F = 1 - g`` the cap slack, ``r`` the face radius, ``A = -2 phi_tilde' F +
g'``; every factor is moderate even where ``exp(-2 phi_tilde)`` itself would
overflow, and positivity is manifest (``-phi_tilde'' >= 2 eps``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .domain import (
    DEFAULT_GRID,
    PointC2,
    RadialProfile,
    ReinhardtDomain,
    _as_point,
    _distance_lower,
    as_float,
    fmt,
)
from .errors import CertificationError, NumericalError, ValidationError
from .metrics import Bound, squeezing_lower_inclusion
from .construct import (
    ConstructionCertificate,
    LevelRecord,
    assemble_certificate,
    kobayashi_lower_shear,
)

# bump kernel c (1 - x^2)^4 on [-1, 1]
BUMP_NORM = 315.0 / 256.0
# integral of |x| * bump(x): the corner sag of a unit kink at width h is
# (m/2) * h * BUMP_ABS_MOMENT
BUMP_ABS_MOMENT = BUMP_NORM / 5.0


def bump(x):
    x = np.asarray(x)
    inside = np.abs(x) < 1.0
    y = np.where(inside, 1.0 - x * x, 0.0)
    return BUMP_NORM * y**4


def bump_cdf(x):
    """Z(x) = integral of the bump from -1 to x."""
    x = np.asarray(x)
    xc = np.clip(x, -1.0, 1.0)
    p = xc * (1.0 + xc * xc * (-4.0 / 3.0 + xc * xc * (6.0 / 5.0 + xc * xc * (-4.0 / 7.0 + xc * xc / 9.0))))
    return 0.5 + BUMP_NORM * p


def bump_first_moment(x):
    """M(x) = integral of s*bump(s) from -1 to x (vanishes at both ends)."""
    x = np.asarray(x)
    xc = np.clip(x, -1.0, 1.0)
    y = 1.0 - xc * xc
    return -(BUMP_NORM / 10.0) * y**5


def _check_smoothing(h=None, eps: float = 0.0, kappa: float = 1.0) -> None:
    """``ValidationError`` unless ``eps`` is finite and nonnegative, ``kappa``
    finite and positive, and a single kernel width ``h`` finite."""
    if not 0.0 <= eps < math.inf:
        raise ValidationError(f"concavity boost eps must be finite and nonnegative, not {eps!r}")
    if not 0.0 < kappa < math.inf:
        raise ValidationError(f"cap stiffness kappa must be finite and positive, not {kappa!r}")
    if h is not None and np.ndim(h) == 0 and not math.isfinite(h):
        raise ValidationError(f"mollifier width h must be finite, not {h!r}")


def _kinks(base: RadialProfile) -> list[tuple[int, float, float]]:
    """(breakpoint index, slope drop, room) of every concave kink of ``base``;
    the room is the shorter of the two segments that meet at the kink."""
    s, bps = base.slopes(), base.breakpoints
    return [(j, s[j - 1] - s[j], min(bps[j] - bps[j - 1], bps[j + 1] - bps[j]))
            for j in range(1, len(s)) if s[j - 1] - s[j] > 0.0]


class MollifiedProfile:
    """Closed-form mollification of a piecewise-linear concave profile.

    Each kink carries its own kernel width; this is what lets the staircase
    smoothing serve two masters at once: wide kernels where the tangential
    Levi form needs curvature coverage past a corner, narrow kernels where a
    large slope drop must not sag the profile.

    Every width stays below its kink's ``room``, the shorter of the two
    segments that meet there, so each kernel's support ends before the next
    breakpoint on either side and a ``t`` lies inside at most two supports.
    Outside every support each kink's term is exact and constant between two
    kinks: no gap or curvature, and ``drop * bump_cdf(+-1)`` in the slope.
    The kernels are evaluated only at the ``t`` inside some support, found by
    one ``searchsorted`` over the support edges; the gap, slope and curvature
    sums equal the sums over all kinks bit for bit.
    """

    def __init__(self, base: RadialProfile, widths, eps: float):
        _check_smoothing(eps=eps)
        self.base = base
        self.eps = float(eps)
        kinks = _kinks(base)
        self.kinks = np.asarray([base.breakpoints[j] for j, _, _ in kinks])
        self.drops = np.asarray([drop for _, drop, _ in kinks])
        self.room = np.asarray([room for _, _, room in kinks])
        widths = np.broadcast_to(np.asarray(widths, dtype=float),
                                 self.kinks.shape).copy()
        if self.kinks.size and not np.all(widths > 0.0):
            raise ValidationError("mollifier widths must be positive")
        # each kernel must stay inside the two segments next to its kink
        for t_j, h_j, room_j in zip(self.kinks, widths, self.room):
            if not h_j < room_j:
                raise ValidationError(
                    f"mollifier width {float(h_j)!r} at the kink t={float(t_j)!r} "
                    f"must stay below the adjacent breakpoint gap {float(room_j)!r}"
                )
        self.widths = widths
        self._slope0 = base.slopes()[0]
        # slope terms between kinks i - 1 and i (row i): the kinks left of
        # t add drop * bump_cdf(1), the others drop * bump_cdf(-1)
        n = self.kinks.size
        self._d1_rows = np.where(np.arange(n) < np.arange(n + 1)[:, None],
                                 self.drops * bump_cdf(1.0), self.drops * bump_cdf(-1.0))
        # the stretches (a_i, b_i] between kinks i - 1 and i that no support
        # reaches, their edges rounded outward so that every t inside has
        # |t - t_j| >= h_j in any float dtype; overlapping supports can
        # leave a stretch empty, and it is dropped.  A searchsorted position
        # 2k + 1 names the k-th stretch kept; even positions lie in supports.
        a = np.concatenate([[-np.inf], np.nextafter(self.kinks + widths, np.inf)])
        b = np.concatenate([np.nextafter(self.kinks - widths, -np.inf), [np.inf]])
        free = a < b
        self._free_edges = np.stack([a[free], b[free]], axis=-1).ravel()
        self._d1_by_pos = np.zeros(self._free_edges.size + 1)
        self._d1_by_pos[1::2] = np.sum(self._d1_rows[free], axis=-1)

    @property
    def h(self) -> float:
        """Largest kernel width (reporting; per-kink values in ``widths``)."""
        return float(np.max(self.widths)) if self.kinks.size else 0.0

    def _sums(self, t):
        """The gap and the sums over all kinks of the kernel slope and
        curvature terms at the array ``t``, in its float dtype.  The kernels
        run only at the ``t`` inside a support, on the (at most two) kinks
        whose support holds it; each such row of slope terms is summed
        whole, as over all kinks."""
        flat = t.reshape(-1)
        gap = np.zeros_like(flat)
        d2 = np.zeros_like(flat)
        # a t on a left stretch edge counts as near a kink, which only adds
        # an exact evaluation
        pos = np.searchsorted(self._free_edges, flat)
        d1 = self._d1_by_pos[pos]
        near = np.flatnonzero(pos % 2 == 0)
        if near.size and self.kinks.size:
            tn = flat[near]
            seg = np.searchsorted(self.kinks, tn)
            rows = self._d1_rows[seg]
            for j in (seg - 1, seg):
                ok = (j >= 0) & (j < self.kinks.size)
                j = np.where(ok, j, 0)
                diffs = tn - self.kinks[j]
                widths = self.widths[j]
                inside = np.flatnonzero(ok & (np.abs(diffs) < widths))
                j, diffs, widths = j[inside], diffs[inside], widths[inside]
                drops = self.drops[j]
                x = diffs / widths
                cdf = bump_cdf(x)
                gap[near[inside]] += drops * (diffs * cdf
                                              - widths * bump_first_moment(x)
                                              - np.maximum(diffs, 0.0))
                rows[inside, j] = drops * cdf
                d2[near[inside]] += drops * bump(x) / widths
            d1[near] = np.sum(rows, axis=-1)
        return (gap.reshape(t.shape) + self.eps * t * t,
                d1.reshape(t.shape), d2.reshape(t.shape))

    def gap(self, t):
        """phi(t) - phi_tilde(t), in the float dtype of ``t``.

        Each kink contributes ``drop h K((t - t_j) / h)``, with the kink
        correction of the unit bump ``K(x) = (relu * zeta)(x) - relu(x) = x
        Z(x) - M(x) - relu(x)`` (``bump_cdf``, ``bump_first_moment``)
        supported on ``|x| < 1``, and ``eps t^2`` is added.  So ``phi_tilde
        <= phi`` holds by construction, with no check needed: ``K(x) =
        int_|x|^1 (s - |x|) zeta(s) ds >= 0``, every drop is positive
        (``_kinks``), every width lies in ``(0, room)`` and ``eps >= 0``,
        all checked on construction.  The float value is not free of
        cancellation: near ``|x| = 1`` the parts of ``K`` nearly cancel, and
        a kink's float term can read an ulp or so of its parts below 0.
        """
        return self._sums(as_float(t))[0]

    def value(self, t):
        """phi_tilde(t), in the float dtype of ``t``."""
        t = as_float(t)
        return self.base.eval_many(t) - self.gap(t)

    def jet(self, t):
        """``(phi_tilde, phi_tilde', phi_tilde'')`` at ``t`` as float64, from
        one kernel evaluation."""
        t = np.asarray(t, dtype=float)
        gap, d1, d2 = self._sums(t)
        return (self.base.eval_many(t) - gap,
                np.full(t.shape, self._slope0) - 2.0 * self.eps * t - d1,
                np.full(t.shape, -2.0 * self.eps) - d2)


# target for the tangential Levi floor left uncovered by kernels (an order
# above the default verification tolerance 1e-7)
LEVI_FLOOR_TARGET = 1e-6
# largest tolerated corner sag in log units: exp(0.35) ~ 1.42x slice-bound cost
SAG_BUDGET = 0.35


def default_widths(base: RadialProfile, eps: float) -> np.ndarray:
    """Per-kink kernel widths balancing Levi coverage against corner sag.

    Past a corner at height ``r`` with adjacent slope ``-n``, the tangential
    Levi form behaves like ``4 eps / (2 n r e^{-n d})^2`` at distance ``d``
    once the kernel support has ended; requiring the floor ``LEVI_FLOOR_TARGET``
    at ``d = h`` gives ``h >= ln(2 n r / sqrt(4 eps / target)) / n``.  Where no
    coverage is needed the width is capped so the corner sag
    ``(drop/2) h E`` stays within ``SAG_BUDGET``.
    """
    slopes = base.slopes()
    denom = math.sqrt(4.0 * max(eps, 1e-12) / LEVI_FLOOR_TARGET)
    widths = []
    for j, drop, room in _kinks(base):
        r_j = math.exp(base.values[j])
        need = 0.0
        for n in (abs(slopes[j - 1]), abs(slopes[j])):
            if n > 0.0:
                arg = 2.0 * n * r_j / denom
                if arg > 1.0:
                    need = max(need, math.log(arg) / n)
        sag_cap = SAG_BUDGET / (BUMP_ABS_MOMENT * drop)
        h_j = max(need, min(sag_cap, 1e-3))
        h_j = min(h_j, 0.45 * room)
        widths.append(h_j)
    return np.asarray(widths)


@dataclass(frozen=True)
class LeviReport:
    """Result of the numerical strict-pseudoconvexity verification."""

    grid_points: int
    tolerance: float
    min_value: float
    argmin_t: float
    argmin_w: float
    face_range: tuple[float, float]
    strictly_pseudoconvex_reported: bool
    provenance: str

    def to_doc(self) -> dict:
        return {
            "schema": "levi-report/1",
            "grid_points": self.grid_points,
            "tolerance": fmt(self.tolerance),
            "min_value": fmt(self.min_value),
            "argmin": [fmt(self.argmin_t), fmt(self.argmin_w)],
            "face_range": [fmt(self.face_range[0]), fmt(self.face_range[1])],
            "strictly_pseudoconvex_reported": self.strictly_pseudoconvex_reported,
            "provenance": self.provenance,
        }


class SmoothDomain:
    """Mollified inner approximation with end caps and a closed-form defining
    function; immutable after construction."""

    def __init__(self, base: ReinhardtDomain, h=None,
                 eps: float = 1e-5, kappa: float = 50.0):
        _check_smoothing(h, eps, kappa)
        self.base = base
        prof = base.profile
        widths = default_widths(prof, eps) if h is None else h
        self.profile = MollifiedProfile(prof, widths, eps)
        self.eps = float(eps)
        self.kappa = float(kappa)

        mid = 0.5 * (base.t_max + base.t_min)
        if not self.g(mid) < 1.0:
            raise ValidationError("caps so stiff that the smoothed domain is empty")
        self._axis_lo_in, self._axis_lo_out = self._root_bracket(left=True)
        self._axis_hi_in, self._axis_hi_out = self._root_bracket(left=False)

        # key points must stay inside: the center circle and the kink circles
        for t_check in [0.0] + list(self.profile.kinks):
            if not (self._axis_lo_in < t_check < self._axis_hi_in
                    and self.g(t_check) < 1.0):
                raise ValidationError(
                    f"cap configuration pushes the circle at t={float(t_check)!r} "
                    "out of the smoothed domain"
                )

    @property
    def h(self) -> float:
        return self.profile.h

    # ------------------------------------------------------------ cap profile
    def g(self, t):
        """Cap term, in the float dtype of ``t``."""
        return self._caps(as_float(t))[0]

    def _caps(self, t):
        """``(g, g', g'')`` from one evaluation of the two cap exponentials,
        centred on the annulus edges."""
        e_plus = np.exp(self.kappa * (t - self.base.t_max))
        e_minus = np.exp(-self.kappa * (t - self.base.t_min))
        g = e_plus + e_minus
        return g, self.kappa * (e_plus - e_minus), self.kappa * self.kappa * g

    def _root_bracket(self, left: bool) -> tuple[float, float]:
        """Conservative bracket of the axis-edge root of g = 1.

        Returns (inner, outer): g(inner) < 1 < g(outer), inner strictly inside.
        """
        mid = 0.5 * (self.base.t_max + self.base.t_min)
        outside = self.base.t_min if left else self.base.t_max
        # the cap term can underflow, leaving g(outside) == 1 exactly; beyond
        # the cap centers g > 1 structurally, so >= is the right sentinel
        if not (self.g(outside) >= 1.0 and self.g(mid) < 1.0):
            raise NumericalError("axis root bracketing failed")
        inner, outer = mid, outside
        for _ in range(200):
            m = 0.5 * (inner + outer)
            if m == inner or m == outer:
                break  # adjacent floats: no later step can move the bracket
            if self.g(m) < 1.0:
                inner = m
            else:
                outer = m
        return inner, outer

    def axis_log_range(self) -> tuple[float, float]:
        """Conservative open t-range of the smoothed axis {rho(z, 0) < 0}."""
        return self._axis_lo_in, self._axis_hi_in

    # ------------------------------------------------------ defining function
    def rho_moduli(self, rz, rw):
        """rho at |z| = rz, |w| = rw (rotation invariance); dtype-preserving.

        The w-term is computed in log form, ``exp(2 log rw - 2 phi_tilde)``,
        so that deep staircase corners (where ``exp(-2 phi_tilde)`` alone
        overflows) and the axis ``rw = 0`` are both handled; the exponent cap
        only engages far outside the domain where only the sign matters.
        """
        rz = np.asarray(rz)
        rw = np.asarray(rw)
        with np.errstate(divide="ignore"):
            t = np.log(rz)
            log_rw = np.where(rw > 0.0, np.log(np.where(rw > 0.0, rw, 1.0)), -np.inf)
        arg = np.minimum(2.0 * log_rw - 2.0 * self.profile.value(t), 709.0)
        w_term = np.where(np.isneginf(arg), 0.0, np.exp(np.where(np.isneginf(arg), 0.0, arg)))
        return w_term + self.g(t) - 1.0

    def contains(self, p) -> bool:
        p = _as_point(p)
        rz, rw = p.moduli()
        if rz <= 0.0:
            return False
        return bool(self.rho_moduli(rz, rw) < 0.0)

    # ------------------------------------------------------------ Levi form
    def _levi_face(self, t):
        """``(L, r)`` along the boundary face: the Levi form on the complex
        tangent, cancellation-free, and the face radius it uses:

            L = F (-2 phi'' F^2 + g'' F + g'^2) / ((r A)^2 + 4 e^{2t} F^2)

        with F = 1 - g, r the face radius, A = -2 phi' F + g'.
        """
        t = np.asarray(t, dtype=float)
        g, g1, g2 = self._caps(t)
        f = 1.0 - g
        if np.any(f <= 0.0):
            raise ValidationError("face values requested outside the face range")
        phi, d1, d2 = self.profile.jet(t)
        r = _radius(phi, f)
        a = -2.0 * d1 * f + g1
        num = f * (-2.0 * d2 * f * f + g2 * f + g1 * g1)
        den = (r * a) ** 2 + 4.0 * np.exp(2.0 * t) * f * f
        return num / den, r

    # ------------------------------------------------------------- geometry
    def boundary_distance_lower(self, p, resolution: int = DEFAULT_GRID) -> float:
        """Certified distance lower bound to the smooth boundary.

        Same per-cell moduli-box strategy as the base domain; cell radius
        ranges use endpoint values (log-concavity: minima at endpoints) and
        tangent caps (concavity: maxima under either endpoint tangent).  The
        two closing strips beyond the conservative face range are covered by
        coarse boxes.
        """
        p = _as_point(p)
        if not self.contains(p):
            raise ValidationError("basepoint must lie inside the smoothed domain")
        return _distance_lower(self._boxes, resolution, *p.moduli())

    outer_radius_basis = "base circumscribed box; the smoothed domain lies inside the base"

    def outer_radius_upper(self, p) -> float:
        """Certified ``R >= sup_{q in D~} |q - p|``: the base's bound, as the
        smoothed domain lies inside the base."""
        return self.base.outer_radius_upper(p)

    def _boxes(self, resolution: int) -> tuple[np.ndarray, ...]:
        """The moduli boxes ``(u0, u1, r_lo, r_hi)`` of the face cells at
        ``resolution``, then of the two closing strips."""
        lo, hi = self._axis_lo_in, self._axis_hi_in
        t = np.linspace(lo, hi, resolution + 1)
        phi, d1, _ = self.profile.jet(t)
        g, g1, _ = self._caps(t)
        slack = 1.0 - g
        r = _radius(phi, slack)
        phi_s = np.log(np.maximum(r, 1e-300))
        with np.errstate(divide="ignore"):
            d_phi_s = d1 - g1 / (2.0 * slack)
        t0, t1 = t[:-1], t[1:]
        dt = t1 - t0
        u0, u1 = np.exp(t0), np.exp(t1)
        r_lo = np.minimum(r[:-1], r[1:])
        cap0 = phi_s[:-1] + np.maximum(0.0, d_phi_s[:-1]) * dt
        cap1 = phi_s[1:] + np.maximum(0.0, -d_phi_s[1:]) * dt
        r_hi = np.exp(np.minimum(cap0, cap1))
        r_hi = np.maximum(r_hi, np.maximum(r[:-1], r[1:]))

        # closing strips: all boundary beyond the conservative face range lies
        # between the face range and the cap centers
        ua = [math.exp(self.base.t_min), math.exp(hi)]
        ub = [math.exp(lo), math.exp(self.base.t_max)]
        r_global = math.exp(self.base.max_log_height())
        return (np.concatenate([u0, ua]), np.concatenate([u1, ub]),
                np.concatenate([r_lo, [0.0, 0.0]]), np.concatenate([r_hi, [r_global] * 2]))


def _radius(phi, slack):
    """Face radius from the smoothed profile value and the cap slack."""
    return np.exp(phi) * np.sqrt(np.maximum(slack, 0.0))


def smooth(domain: ReinhardtDomain, h=None, eps: float = 1e-5,
           kappa: float = 50.0) -> SmoothDomain:
    """Build the mollified inner approximation of ``domain``.

    ``h`` is a single kernel width, a per-kink sequence, or None for the
    adaptive per-kink policy of ``default_widths``.
    """
    return SmoothDomain(domain, h=h, eps=eps, kappa=kappa)


def levi_verify(sd: SmoothDomain, grid_points: int = 10000,
                tolerance: float = 1e-7) -> LeviReport:
    """Scan the boundary for the minimal tangential Levi value.

    Face points come from the closed-form radius (the analytic root of
    ``rho = 0`` in the w-modulus for fixed t); the two closing circles are
    appended with their tangent value ``exp(-2 phi_tilde)``.  Strict
    pseudoconvexity is reported, not proven, when the minimum clears the
    tolerance.
    """
    if grid_points < 16:
        raise ValidationError("grid too small")
    lo, hi = sd.axis_log_range()
    t = np.linspace(lo, hi, grid_points)
    values, rw = sd._levi_face(t)
    # closing circles (w -> 0): tangent (0, 1), L = u = exp(-2 phi_tilde)
    edge_l = [math.exp(min(-2.0 * float(sd.profile.value(te)), 700.0)) for te in (lo, hi)]
    all_vals = np.concatenate([values, np.asarray(edge_l)])
    all_t = np.concatenate([t, np.asarray([lo, hi])])
    all_w = np.concatenate([rw, np.asarray([0.0, 0.0])])
    i = int(np.argmin(all_vals))
    min_val = float(all_vals[i])
    report = LeviReport(
        grid_points=grid_points,
        tolerance=tolerance,
        min_value=min_val,
        argmin_t=float(all_t[i]),
        argmin_w=float(all_w[i]),
        face_range=(lo, hi),
        strictly_pseudoconvex_reported=bool(min_val > tolerance),
        provenance=(
            f"face grid of {grid_points} t-points on [{lo!r}, {hi!r}] plus the two "
            f"closing circles; h={sd.h!r}, eps={sd.eps!r}, kappa={sd.kappa!r}; "
            "rotation invariance reduces the scan to real-positive phases"
        ),
    )
    return report


def certify_smoothed(sd: SmoothDomain, base_levels: Sequence[LevelRecord],
                     margin_guard: float,
                     resolution: int = DEFAULT_GRID) -> ConstructionCertificate:
    """Recompute the level certificates of ``base_levels`` (the rows
    ``construct.certify_levels`` returns for ``sd.base``) directly on the
    smoothed domain, and assemble their verdict against ``margin_guard``.

    Carathéodory uppers: slice bound at ``(a_k, 0)`` in the pulled-back shear
    direction ``(a_k, e^{phi(t_k)})``; the vertical radius shrinks by the
    mollification gap and the cap slack, the horizontal radius is the model
    annulus clipped by the smoothed axis range.  Kobayashi lowers transfer by
    monotonicity: the smoothed domain sits inside the base (structural
    ``phi_tilde <= phi`` plus caps), whose shear containment in the model of
    exponent ``m_k`` is re-verified from the exact slope drop at ``t_k``.
    The squeezing lower at ``(1, 0)`` is ``squeezing_lower_inclusion`` on the
    smoothed domain.
    """
    base = sd.base
    if not base.profile.symmetric or base.t_max != -base.t_min:
        raise ValidationError(
            "smoothed certification mirrors by inversion symmetry and needs the "
            "symmetric setup"
        )
    lo_ax, hi_ax = sd.axis_log_range()
    records: list[LevelRecord] = []
    for rec in base_levels:
        t_k = math.log(rec.a_k)
        try:
            idx = base.profile.breakpoints.index(t_k)
        except ValueError:
            raise ValidationError(f"level {rec.k}: breakpoint t={t_k!r} not in the base profile")
        if not sd.contains(PointC2(complex(rec.a_k, 0.0), 0.0 + 0.0j)):
            raise ValidationError(
                f"level {rec.k}: basepoint ({rec.a_k}, 0) left the smoothed domain"
            )
        # exact re-verification of the base shear containment behind the
        # Kobayashi lower sqrt(m_k / 2) used below, from the exact slope drop
        k_low = kobayashi_lower_shear(base, idx, m=rec.m_k)

        slack = float(1.0 - sd.g(t_k))
        gap = float(sd.profile.gap(np.asarray(t_k)))
        vertical_term = math.exp(gap) / math.sqrt(slack)
        lo_edge = max(rec.a_prev, math.exp(lo_ax))
        hi_edge = min(rec.a_next, math.exp(hi_ax))
        r_h = min(rec.a_k - lo_edge, hi_edge - rec.a_k)
        if not r_h > 0.0:
            raise CertificationError(
                f"level {rec.k}: smoothed horizontal radius degenerate (caps too stiff)"
            )
        c_smooth = rec.a_k / r_h + vertical_term
        s_val = min(1.0, c_smooth * math.sqrt(2.0 / rec.m_k))
        prov = (
            f"smoothed slice bound at (a_{rec.k}, 0): C <= {c_smooth!r} "
            f"(r_h={r_h!r}, vertical factor={vertical_term!r}, gap={gap!r}); "
            f"Kobayashi lower sqrt({rec.m_k}/2) transfers by inclusion in the "
            f"base domain; [base K] {k_low.provenance}"
        )
        s_up = Bound(
            quantity="squeezing", side="upper", value=s_val,
            basepoint=PointC2(complex(rec.a_k, 0.0), 0.0 + 0.0j),
            direction=None, certified=True, provenance=prov,
        )
        s_up_mirror = replace(
            s_up, basepoint=PointC2(complex(1.0 / rec.a_k, 0.0), 0.0 + 0.0j),
            provenance=prov + "; mirrored by inversion symmetry of the smoothed domain",
        )
        records.append(replace(rec, s_upper=s_up, s_upper_mirror=s_up_mirror,
                               target_met=bool(s_val < float(rec.target))))

    s_lower = squeezing_lower_inclusion(sd, PointC2(1.0 + 0.0j, 0.0 + 0.0j), resolution)
    return assemble_certificate(tuple(records), s_lower, margin_guard, smoothed=True)
