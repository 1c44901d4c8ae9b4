"""Non-certified numerical estimates sandwiching the certified bounds.

Kobayashi upper estimates come from optimizing polynomial analytic discs
(feasibility enforced on boundary samples of the unit circle); Carathéodory
lower estimates from optimizing finite monomial combinations against a
sampled sup norm; classical disc/polydisc/ball values calibrate both.  A
vectorized random-disc oracle checks the coefficient-based Kobayashi lower
bound on the monomial model domains with rigorously feasible discs
(Bernstein-margined circle sampling).

Estimates are tagged ``certified = False`` and never merged into
certificates.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import numbers
import operator
import os
from dataclasses import dataclass

import numpy as np

from .domain import PointC2, ReinhardtDomain, _as_point
from .errors import NumericalError, ValidationError
from .metrics import Bound, Direction

log = logging.getLogger(__name__)

_LOG_FLOOR = -745.0  # log of the smallest positive double
# the adapters' boundary grids: profile heights (or ball radii) and phases
_BOUNDARY_HEIGHTS = 48
_BOUNDARY_PHASES = 16


def _log_moduli(z, w) -> tuple[np.ndarray, np.ndarray]:
    """``(log|z|, log|w|)``; ``z = 0`` maps to ``_LOG_FLOOR``, ``w = 0`` to -inf.

    The zero guards run only when some ``|z| < 1e-320`` or ``|w| = 0`` (or a
    NaN, which fails both tests); otherwise they select ``np.log`` of every
    modulus, so the plain logs are the same bits."""
    az = np.abs(z)
    aw = np.abs(w)
    if az.min(initial=math.inf) >= 1e-320 and aw.min(initial=math.inf) > 0.0:
        return np.log(az), np.log(aw)
    t = np.where(az > 0.0, np.log(np.maximum(az, 1e-320)), _LOG_FLOOR)
    lam = np.where(aw > 0.0, np.log(np.where(aw > 0.0, aw, 1.0)), -np.inf)
    return t, lam


def _circle(n: int) -> np.ndarray:
    """The ``n`` roots of unity ``exp(2 pi i k / n)``, ``k = 0, ..., n - 1``."""
    return np.exp(2j * math.pi * np.arange(n) / n)


def _int_at_least(name: str, value, least: int = 1) -> int:
    """``value`` as an ``int``; ``ValidationError`` unless it is an integer
    of at least ``least`` (1 or 0)."""
    try:
        n = operator.index(value)
    except TypeError:
        n = least - 1
    if n < least:
        kind = "positive" if least == 1 else "non-negative"
        raise ValidationError(f"{name} must be a {kind} integer, not {value!r}")
    return n


# ------------------------------------------------------------------ adapters
class ReinhardtAdapter:
    """Membership defect and boundary samples for a profile domain."""

    def __init__(self, domain: ReinhardtDomain):
        self.domain = domain

    def defect(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Positive outside, negative inside; log-coordinate units.

        ``w = 0`` carries lam = -inf (the axis is inside wherever the annulus
        condition holds, however deep the profile drops).
        """
        t, lam = _log_moduli(z, w)
        d = lam - self.domain.profile.eval_many(t)
        d = np.maximum(d, t - self.domain.t_max)
        return np.maximum(d, self.domain.t_min - t)

    def polydisc_radii(self, p: PointC2):
        return self.domain.slice_radii(p.z)

    def has_hole(self) -> bool:
        return True

    def boundary_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """(t, theta, psi) grid on the profile surface plus end-cap tori."""
        dom = self.domain
        nphase = _BOUNDARY_PHASES
        t = np.linspace(dom.t_min, dom.t_max, _BOUNDARY_HEIGHTS)
        r = np.exp(dom.profile.eval_many(t))
        th = _circle(nphase)
        ones = np.ones(nphase)
        zz = (np.exp(t)[:, None, None] * th[None, :, None] * ones[None, None, :]).ravel()
        ww = (r[:, None, None] * ones[None, :, None] * th[None, None, :]).ravel()
        out_z = [zz]
        out_w = [ww]
        for edge_t in (dom.t_min, dom.t_max):
            re = math.exp(dom.profile.eval(edge_t))
            levels = np.linspace(0.0, re, 6)
            ez = math.exp(edge_t) * th
            for lev in levels:
                out_z.append(np.repeat(ez, nphase))
                out_w.append(np.tile(lev * th, nphase))
        return np.concatenate(out_z), np.concatenate(out_w)


class BallModel:
    """The unit ball of C^2."""

    def defect(self, z, w):
        return np.abs(z) ** 2 + np.abs(w) ** 2 - 1.0

    def polydisc_radii(self, p: PointC2):
        rz, rw = p.moduli()
        s = math.sqrt(max(1.0 - rz * rz - rw * rw, 0.0) / 2.0)
        return s, s

    def has_hole(self) -> bool:
        return False

    def boundary_samples(self):
        nphase = _BOUNDARY_PHASES
        mu = np.linspace(0.0, 1.0, _BOUNDARY_HEIGHTS)
        th = _circle(nphase)
        z = np.repeat((np.sqrt(mu)[:, None] * th[None, :]), nphase, axis=1).ravel()
        w = np.tile((np.sqrt(1.0 - mu)[:, None] * th[None, :]), (1, nphase)).ravel()
        return z, w


class PolydiscModel:
    """The unit bidisc of C^2."""

    def defect(self, z, w):
        return np.maximum(np.abs(z), np.abs(w)) - 1.0

    def polydisc_radii(self, p: PointC2):
        rz, rw = p.moduli()
        return 1.0 - rz, 1.0 - rw

    def has_hole(self) -> bool:
        return False

    def boundary_samples(self):
        th = _circle(4 * _BOUNDARY_PHASES)
        return np.repeat(th, th.size), np.tile(th, th.size)


def _as_adapter(domain):
    if isinstance(domain, ReinhardtDomain):
        return ReinhardtAdapter(domain)
    if hasattr(domain, "defect"):
        return domain
    raise ValidationError(f"cannot interpret {domain!r} as a searchable domain")


def _as_direction(xi) -> Direction:
    """``xi`` as a ``Direction``: a ``Direction`` or a pair of numbers;
    ``ValidationError`` otherwise."""
    if isinstance(xi, Direction):
        return xi
    if (isinstance(xi, (tuple, list)) and len(xi) == 2
            and all(isinstance(x, numbers.Number) for x in xi)):
        return Direction(complex(xi[0]), complex(xi[1]))
    raise ValidationError(f"cannot interpret {xi!r} as a direction of C^2")


def _check_basepoint(domain, adapter, p: PointC2) -> None:
    """Raise unless ``p`` lies in the domain: ``contains`` on a profile
    domain, a negative defect otherwise (a NaN defect is outside)."""
    if isinstance(domain, ReinhardtDomain):
        inside = domain.contains(p)
    else:
        inside = bool(adapter.defect(np.array([p.z]), np.array([p.w]))[0] < 0.0)
    if not inside:
        raise ValidationError("basepoint must lie in the domain")


# --------------------------------------------------------------- references
def reference_metric(model: str, p, xi) -> tuple[float, float]:
    """Classical (K, C) values of the unit bidisc and the unit ball."""
    p = _as_point(p)
    xi = _as_direction(xi)
    if model == "bidisc":
        if not (abs(p.z) < 1.0 and abs(p.w) < 1.0):
            raise ValidationError("point outside the unit bidisc")
        v = max(abs(xi.xi_z) / (1.0 - abs(p.z) ** 2),
                abs(xi.xi_w) / (1.0 - abs(p.w) ** 2))
        return v, v
    if model == "ball":
        p2 = abs(p.z) ** 2 + abs(p.w) ** 2
        if not p2 < 1.0:
            raise ValidationError("point outside the unit ball")
        inner = xi.xi_z * p.z.conjugate() + xi.xi_w * p.w.conjugate()
        xi2 = abs(xi.xi_z) ** 2 + abs(xi.xi_w) ** 2
        v = math.sqrt(xi2 / (1.0 - p2) + abs(inner) ** 2 / (1.0 - p2) ** 2)
        return v, v
    raise ValidationError(f"unknown reference model {model!r}")


# ------------------------------------------------------------- disc candidate
@dataclass(frozen=True)
class DiscCandidate:
    """Polynomial analytic disc with f(0) = p and f'(0) = tau * xi."""

    basepoint: PointC2
    direction: Direction
    tau: float
    tails_z: tuple[complex, ...]
    tails_w: tuple[complex, ...]


def _polyval(coeffs: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Horner's rule in one buffer: ``acc *= zeta; acc += c`` are the
    operations of ``acc = acc * zeta + c`` in the same order, so every value
    is the same bit for bit."""
    acc = np.full_like(zeta, coeffs[-1], dtype=complex)
    for c in coeffs[-2::-1]:
        acc *= zeta
        acc += c
    return acc


def _disc_coordinate(out: np.ndarray, base: complex, slope: complex,
                     zeta: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """``base + slope * zeta + tail`` written into ``out`` and returned: the
    operations of that expression in the same order, so every sample is the
    same bit for bit."""
    np.multiply(slope, zeta, out=out)
    np.add(base, out, out=out)
    out += tail
    return out


# ------------------------------------------------------- shared local search
def _adaptive_search(objective, x0: np.ndarray, rng: np.random.Generator, iters: int):
    """Seeded coordinate search with multiplicative step adaptation.

    A proposal is kept only if it scores above the incumbent, so
    ``objective(x, bar)`` gets the incumbent as ``bar`` and may return any
    value ``<= bar`` for a proposal that does not beat it; a value above
    ``bar`` must be exact.  The start point is scored with ``bar = -inf``.
    """
    x = x0.copy()
    f = objective(x, -math.inf)
    step = 0.25
    for _ in range(iters):
        if x.size == 0:
            break
        i = int(rng.integers(x.size))
        xp = x.copy()
        xp[i] += step * rng.standard_normal()
        fp = objective(xp, f)
        if fp > f:
            x, f = xp, fp
            step = min(step * 1.4, 10.0)
        else:
            step = max(step * 0.7, 1e-6)
    return x, f


# ------------------------------------------------------ Kobayashi upper search
_TAU_START = 1e-6  # first rung of the disc-scale ladder


def _ladder(fails) -> float:
    """The disc-scale ladder on the predicate ``fails``: 0.0 if
    ``fails(1e-6)``, else double from 1e-6 up to the first failing scale (at
    most 80 times), bisect that bracket 40 times and return its feasible end."""
    tau = _TAU_START
    if fails(tau):
        return 0.0
    for _ in range(80):
        if fails(2.0 * tau):
            break
        tau *= 2.0
    lo, hi = tau, 2.0 * tau
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if fails(mid):
            hi = mid
        else:
            lo = mid
    return lo


@functools.lru_cache(maxsize=64)
def _edge_above(bar: float) -> float:
    """The edge of ``bar >= 1e-6``: the smallest scale above ``bar`` that the
    full ladder tests when every scale above ``bar`` fails (inf if it tests
    none).  That ladder's path depends on ``bar`` alone, and every scale it
    tests above ``bar`` is a failing rung or midpoint, each below the last."""
    tested = []
    _ladder(lambda t: tested.append(t) or t > bar)  # record t, fail it above bar
    return min((t for t in tested if t > bar), default=math.inf)


def _false_position(lo: float, f_lo: float, hi: float, f_hi: float):
    """The regula-falsi point ``lo + s (hi - lo)``, ``s = -f_lo / (f_hi -
    f_lo)``, of the bracket ``(lo, hi)`` whose excesses are ``f_lo <= 0 <
    f_hi``; a point that rounds onto an end moves to the adjacent float
    inside.  None if a value is NaN or infinite, the denominator is zero,
    ``s`` is 0 (the point is ``lo``) or no float lies strictly inside."""
    den = f_hi - f_lo
    if not (den > 0.0 and math.isfinite(den)):
        return None
    s = -f_lo / den
    if not s > 0.0:
        return None
    c = min(max(lo + (hi - lo) * s, math.nextafter(lo, hi)), math.nextafter(hi, lo))
    return c if lo < c < hi else None


def _largest_feasible_tau(excess, bar: float, counts: list) -> float:
    """The disc-scale ladder (``_ladder``) on the verdict ``excess(t) > 0``.

    ``excess(t)`` is the worst sampled defect of the disc of scale ``t``
    plus the margin: exact when it is ``<= 0`` (feasible), otherwise any
    value above 0, NaN and +inf included.  Everything below assumes that
    the feasible scales form an interval.  That is proven on ``BallModel``
    and ``PolydiscModel``, whose sampled constraints are convex in the
    scale, and assumed, not proven, on a profile domain.

    Only a result above ``bar`` matters to the caller.  For ``bar > 1e-6``
    the edge of ``bar`` (``_edge_above``) is tested first, and 0.0 is
    returned if it is infeasible: the full ladder follows the path on which
    every scale above ``bar`` fails until its first feasible test above
    ``bar``, every such test is at or above the edge, so its result is above
    ``bar`` exactly when the edge (and 1e-6) is feasible.  Then 1e-6 is
    tested as always.  From there on the function keeps a bracket: the
    largest scale tested feasible and the smallest tested infeasible.  The
    interval holds 1e-6 and the feasible end, so a ladder query at or below
    that end is feasible and one at or above the infeasible end is not,
    without a test.  A query inside the bracket narrows it by Illinois
    regula falsi on the excess (``_false_position``; Dowell & Jarratt,
    BIT 11, 1971) until the query is decided.  The query itself, the
    ladder's own midpoint, is tested instead (a midpoint step) when there is
    no regula-falsi point, after two regula-falsi steps in a row that each
    failed to halve the bracket, and when one more step could bring the
    checks above two per ladder query so far.  The Illinois state carries
    over a midpoint step.

    So each answer is the one its test would give: the result equals the
    full ladder's bit for bit whenever either is above ``bar`` (and is
    ``<= bar`` exactly when the full ladder's is), with at most twice the
    full ladder's checks.  ``counts`` gains the ladder queries answered
    from the bracket, with or without regula-falsi steps, at index
    0 and the regula-falsi steps at index 1.
    """
    lo, f_lo = -math.inf, -math.inf  # the largest scale tested feasible
    hi, f_hi = math.inf, math.inf  # the smallest scale tested infeasible
    tests = queries = answered = steps = 0
    moved = 0  # the end the last regula-falsi step moved: -1 lo, 1 hi
    stalls = 0  # regula-falsi steps in a row that failed to halve the bracket

    def test(t: float) -> bool:
        nonlocal lo, f_lo, hi, f_hi, tests
        v = excess(t)
        tests += 1
        if v <= 0.0:
            if t > lo:
                lo, f_lo = t, v
            return False
        if t < hi:
            hi, f_hi = t, v
        return True

    def fails(t: float) -> bool:
        nonlocal queries, answered, steps, moved, stalls, f_lo, f_hi
        queries += 1
        if t == _TAU_START:
            return test(t)
        while lo < t < hi:
            c = None
            if stalls < 2 and tests + 2 <= 2 * queries:
                c = _false_position(lo, f_lo, hi, f_hi)
            if c is None:  # the midpoint step
                stalls = 0
                return test(t)
            width = hi - lo
            side = 1 if test(c) else -1
            steps += 1
            if side == moved:  # Illinois: halve the excess of the end kept twice
                if side > 0:
                    f_lo *= 0.5
                else:
                    f_hi *= 0.5
            moved = side
            stalls = stalls + 1 if hi - lo > 0.5 * width else 0
        answered += 1
        return t >= hi

    if bar > _TAU_START:
        edge = _edge_above(bar)
        if edge == math.inf or test(edge):
            return 0.0
    tau = _ladder(fails)
    counts[0] += answered
    counts[1] += steps
    return tau


_MARGIN = 1e-6  # a disc is feasible where its sampled defect is at most -_MARGIN
_SEARCH_BLOCK = 256  # circle samples per block in the disc search
_TAIL_MEMO = 4  # tail polynomials the disc search keeps, the most recently used


class _Tail:
    """One tail polynomial ``sum_j c_j zeta^(j+2)`` on the circle samples:
    its coefficients, its values per block (``None`` until built) and on
    all samples (``None`` until built)."""

    __slots__ = ("coeffs", "blocks", "full")

    def __init__(self, coeffs: np.ndarray, n_blocks: int):
        self.coeffs = coeffs
        self.blocks = [None] * n_blocks
        self.full = None


class _DiscTails:
    """Tail values of the disc search on its circle samples ``zeta``.

    The samples are split into contiguous blocks of ``_SEARCH_BLOCK`` (the
    last one may be shorter), copied once.  A tail is built on a block only
    when a check first needs that block, and the tails of the last
    ``_TAIL_MEMO`` coefficient vectors used are kept, keyed by their bytes.
    ``_polyval`` is elementwise in ``zeta``, so a block's values equal that
    slice of the values on all samples bit for bit."""

    def __init__(self, zeta: np.ndarray):
        self.zeta = zeta
        self.slices = [slice(i, min(i + _SEARCH_BLOCK, zeta.size))
                       for i in range(0, zeta.size, _SEARCH_BLOCK)]
        self.zeta_blocks = [zeta[s].copy() for s in self.slices]
        self.memo: dict[bytes, _Tail] = {}

    def tail(self, tail_coeffs: np.ndarray) -> _Tail:
        """The tail with coefficients ``c_2, c_3, ...``, kept or new."""
        key = tail_coeffs.tobytes()
        t = self.memo.pop(key, None)
        if t is None:
            if len(self.memo) >= _TAIL_MEMO:
                del self.memo[next(iter(self.memo))]  # least recently used
            t = _Tail(np.concatenate([[0.0, 0.0], tail_coeffs]), len(self.slices))
        self.memo[key] = t
        return t

    def block(self, t: _Tail, b: int) -> np.ndarray:
        if t.blocks[b] is None:
            t.blocks[b] = _polyval(t.coeffs, self.zeta_blocks[b])
        return t.blocks[b]

    def full(self, t: _Tail) -> np.ndarray:
        if t.full is None:
            t.full = _polyval(t.coeffs, self.zeta)
            t.blocks = [t.full[s] for s in self.slices]
        return t.full


def kobayashi_upper_search(domain, p, xi, degree: int = 6, budget: int = 150, seed: int = 0,
                           samples: int = 2048, restarts: int = 4):
    """Best polynomial-disc upper estimate of K(p, xi); not certified.

    Returns ``(bound, candidate, trace)``: the ``Bound``, the best disc
    (``DiscCandidate``) and per restart ``(restart, 1 / scale, scale)``.
    ``p`` is a ``PointC2`` or a pair of numbers, ``xi`` a ``Direction`` or a
    pair of numbers.

    Feasibility of a disc is enforced as ``defect <= -_MARGIN`` (1e-6) on
    ``samples`` boundary points of the unit circle; the returned disc
    additionally passes a 10x finer sampling at ``-_MARGIN / 2`` (the scale
    backs off until it does).  A NaN defect fails both checks.  The
    basepoint must lie in the domain.

    Each proposal of the search is first tested at the edge of the
    incumbent scale, the smallest scale above it that the ladder would test
    if every scale above the incumbent failed, and rejected with that one
    sampled check if it is infeasible there.  For a proposal feasible there
    the ladder answers each query outside the bracket of scales tested so
    far without a check, and narrows the bracket by regula falsi on the
    excess (the worst sampled defect plus the margin) to decide a query
    inside it (``_largest_feasible_tau``).  Both assume that the feasible
    scales along a disc's ray form an interval.  The sampled constraints
    are convex in the scale on ``BallModel`` and ``PolydiscModel``, so
    there this is proven and the search keeps and returns exactly what the
    full ladder on every proposal would; on a profile domain it is assumed,
    not proven.

    A sampled check first evaluates the defect on the witness block only:
    the block of ``_SEARCH_BLOCK`` samples that held the worst sample of the
    last check over all samples that failed (block 0 at the start).  If some
    sample there fails, the check fails; otherwise it runs over all samples.
    The defect and the tails are elementwise in the sample, so each sample's
    value on a block equals its value on all samples bit for bit, and the
    verdict is that of the check over all samples.
    """
    adapter = _as_adapter(domain)
    p = _as_point(p)
    xi = _as_direction(xi)
    _check_basepoint(domain, adapter, p)
    degree = _int_at_least("degree", degree)
    budget = _int_at_least("budget", budget)
    samples = _int_at_least("samples", samples)
    restarts = _int_at_least("restarts", restarts)
    seed = _int_at_least("seed", seed, 0)
    zeta = _circle(samples)
    n_tail = degree - 1
    tails = _DiscTails(zeta)
    witness = 0

    def tail_arrays(x: np.ndarray):
        c = x.view(complex)
        return c[:n_tail], c[n_tail:]

    # objective calls, proposals rejected at the edge, defect calls,
    # checks settled on the witness block, checks over all samples
    counts = [0, 0, 0, 0, 0]
    ladder_counts = [0, 0]  # ladder queries answered from the bracket, regula-falsi steps
    disc = np.empty((2, samples), dtype=complex)  # the disc's z and w on the samples

    def defect(tau: float, zeta: np.ndarray, tail_z: np.ndarray, tail_w: np.ndarray):
        """The defect of the disc of scale ``tau`` on the samples ``zeta``."""
        counts[2] += 1
        n = zeta.size
        return adapter.defect(_disc_coordinate(disc[0, :n], p.z, tau * xi.xi_z, zeta, tail_z),
                              _disc_coordinate(disc[1, :n], p.w, tau * xi.xi_w, zeta, tail_w))

    def excess(tz: _Tail, tw: _Tail, tau: float) -> float:
        """The worst sampled defect plus the margin; a lower bound if the
        witness block fails.  A float sum is 0 only when the exact sum is,
        and keeps its sign, so ``excess <= 0`` exactly when the worst
        defect is ``<= -_MARGIN``."""
        nonlocal witness
        d = defect(tau, tails.zeta_blocks[witness], tails.block(tz, witness),
                   tails.block(tw, witness))
        worst = float(d[d.argmax()]) + _MARGIN  # argmax finds a NaN first
        if not worst <= 0.0 or len(tails.slices) == 1:
            counts[3] += 1  # the block fails, or it holds every sample
            return worst
        counts[4] += 1
        d = defect(tau, zeta, tails.full(tz), tails.full(tw))
        i = d.argmax()
        worst = float(d[i]) + _MARGIN
        if not worst <= 0.0:
            witness = int(i) // _SEARCH_BLOCK
        return worst

    def feasible_tau(x: np.ndarray, bar: float) -> float:
        tz, tw = (tails.tail(c) for c in tail_arrays(x))
        before = counts[3] + counts[4]
        tau = _largest_feasible_tau(lambda t: excess(tz, tw, t), bar, ladder_counts)
        counts[0] += 1
        if bar > _TAU_START and counts[3] + counts[4] - before <= 1:
            counts[1] += 1  # the test at the edge failed, or there is no edge
        return tau

    best_tau = 0.0
    best_x = np.zeros(4 * n_tail)
    trace = []
    for ridx in range(restarts):
        rng = np.random.default_rng([seed, 7, ridx])
        if ridx == 0:
            x0 = np.zeros(4 * n_tail)
        else:
            scale = 0.05 / (1.0 + np.repeat(np.arange(2 * n_tail) % max(n_tail, 1), 2))
            x0 = rng.standard_normal(4 * n_tail) * scale
        x, tau = _adaptive_search(feasible_tau, x0, rng, budget)
        trace.append((ridx, 1.0 / tau if tau > 0.0 else math.inf, tau))
        if tau > best_tau:
            best_tau, best_x = tau, x

    fallback = False
    if best_tau <= 0.0:
        try:
            r_h, r_v = adapter.polydisc_radii(p)
            scale = max(abs(xi.xi_z) / r_h if r_h > 0 else math.inf,
                        abs(xi.xi_w) / r_v if r_v > 0 else math.inf)
            best_tau = 0.98 / scale  # best_x is still the zero tail
            fallback = True
        except Exception as exc:
            raise NumericalError("no feasible disc found and no polydisc fallback") from exc

    # honesty pass: the returned disc must clear a 10x finer sampling
    zeta_fine = _circle(10 * samples)
    disc = np.empty((2, zeta_fine.size), dtype=complex)  # defect's buffers from here on
    fine_z, fine_w = (_polyval(tails.tail(c).coeffs, zeta_fine) for c in tail_arrays(best_x))
    for _ in range(200):
        fine_defect = float(np.max(defect(best_tau, zeta_fine, fine_z, fine_w)))
        if fine_defect <= -0.5 * _MARGIN:
            break
        best_tau *= 0.999
    else:
        raise NumericalError("could not stabilize the returned disc on the fine grid")

    log.debug("disc search: %d objective calls, %d proposals rejected at the edge, "
              "%d defect calls, %d checks settled on the witness block, "
              "%d checks over all samples, %d ladder queries answered from the "
              "bracket, %d regula-falsi steps", *counts, *ladder_counts)
    value = 1.0 / best_tau
    bound = Bound(
        quantity="kobayashi", side="upper", value=value, basepoint=p, direction=xi,
        certified=False,
        provenance=(
            f"polynomial disc search: degree={degree}, budget={budget}, seed={seed}, "
            f"samples={samples}, restarts={restarts}, margin={_MARGIN!r}, "
            f"fine-grid defect={fine_defect!r}"
            + ("; inscribed polydisc fallback" if fallback else "")
        ),
    )
    tz_best, tw_best = tail_arrays(best_x)
    candidate = DiscCandidate(basepoint=p, direction=xi, tau=best_tau,
                              tails_z=tuple(tz_best.tolist()), tails_w=tuple(tw_best.tolist()))
    return bound, candidate, trace


# --------------------------------------------------- Caratheodory lower search
DEFAULT_ANNULUS_INDEXES = ((1, 0), (0, 1), (-1, 0), (2, 0), (0, 2), (1, 1), (-1, 1), (-2, 0))
DEFAULT_DISC_INDEXES = ((1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (2, 1))


@dataclass(frozen=True)
class FunctionCandidate:
    """Monomial combination g = sum c_ij (z^i w^j - p^i p^j); g(p) = 0 exactly."""

    indices: tuple[tuple[int, int], ...]
    coefficients: tuple[complex, ...]
    basepoint: PointC2


def _boundary_matrix(indices, z, w, p: PointC2) -> np.ndarray:
    """The search's matrix ``b``: row ``r``, column ``(i, j)`` holds
    ``z_r^i w_r^j - p.z^i p.w^j``.  It is one array: each column is built
    contiguously, with the factors of the monomial in the same order, and
    the values at ``p`` are subtracted in place."""
    out = np.empty((z.size, len(indices)), dtype=complex)
    for k, (i, j) in enumerate(indices):
        col = np.ones_like(z)
        if i != 0:
            col = col * z ** i
        if j != 0:
            col = col * w ** j
        out[:, k] = col
    out -= _monomial_at(indices, p)
    return out


def _monomial_at(indices, p: PointC2):
    # p.w ** j with p.w = 0 and j >= 1 is exactly 0; j = 0 is skipped
    vals = []
    for (i, j) in indices:
        v = 1.0 + 0.0j
        if i != 0:
            v *= p.z ** i
        if j != 0:
            v *= p.w ** j
        vals.append(v)
    return np.asarray(vals)


def _monomial_grad(indices, p: PointC2, xi: Direction):
    out = []
    pz, pw = p.z, p.w
    for (i, j) in indices:
        dz = 0.0 + 0.0j
        dw = 0.0 + 0.0j
        if i != 0:
            dz = i * pz ** (i - 1) * (pw ** j if j != 0 else 1.0)
        if j != 0:
            dw = j * (pz ** i if i != 0 else 1.0) * (pw ** (j - 1) if j != 1 else 1.0)
        out.append(xi.xi_z * dz + xi.xi_w * dw)
    return np.asarray(out)


_SAFETY = 1.01  # the sampled sup is inflated by this factor
_SLACK = 1e-13  # relative slack of the subset bounds
_STRIDE = 16  # the strided subset holds every 16th boundary row


def _caratheodory_objective(b: np.ndarray, d: np.ndarray):
    """The objective ``|d.c| / (_SAFETY * max |b @ c|)`` of the Carathéodory
    search for ``_adaptive_search``, and its counts: objective calls,
    proposals settled on the incumbent's worst row, on the witness block and
    on the strided subset, and evaluations over all rows.

    For ``bar > 0`` the objective first tries to show that the value cannot
    exceed ``bar`` without the product over all rows, and returns 0.0 if it
    can.  The incumbent is the last evaluation that beat its bar.

    - **The incumbent's worst row** ``r``.  If the incumbent's value is at
      most ``bar``, ``|d.c|`` is at most the incumbent's, and ``c`` equals
      the incumbent's coefficients wherever ``b[r]`` is not zero, then the
      value cannot exceed ``bar``.  A zero entry adds only a signed zero to
      row ``r``'s product, so, with BLAS summing a row's terms in an order
      fixed by the shapes (as every reproducible run already needs), row
      ``r``'s modulus is the incumbent's sup bit for bit; the sup is at
      least that, and each rounding of the quotient is monotone.  This
      settles proposals that move only coefficients whose monomials vanish
      at ``r``, which would tie the incumbent.
    - **A subset** ``S`` of the rows, with ``v = max |b[S] @ c|``.  Summed in
      any order, a row's product is off by less than ``slack = 1e-13 *
      max_{i in S} |b_i| * |c|`` (N. J. Higham, *Accuracy and Stability of
      Numerical Algorithms*, 2nd ed., SIAM 2002, section 3.1), so the full
      sup is at least ``v - slack`` whichever rows BLAS evaluates together.
      If ``|d.c| <= bar * _SAFETY * (v - slack) * (1 - 1e-13)``, the full
      value cannot exceed ``bar`` even after its three roundings.  The
      subsets are tried in turn: the witness block, the block of
      ``_SEARCH_BLOCK`` contiguous rows that holds ``r``, then the strided
      subset ``b[::_STRIDE]``, copied once.

    Otherwise the value over all rows is computed exactly as without these
    bounds."""
    blocks = [b[i:i + _SEARCH_BLOCK] for i in range(0, len(b), _SEARCH_BLOCK)]
    block_norms = [float(np.max(np.linalg.norm(blk, axis=1))) for blk in blocks]
    strided = b[::_STRIDE].copy()
    strided_norm = float(np.max(np.linalg.norm(strided, axis=1)))
    witness = 0
    held = None  # the incumbent: value, |d.c|, b[r] != 0, c where b[r] != 0
    counts = [0, 0, 0, 0, 0]

    def objective(x: np.ndarray, bar: float = -math.inf) -> float:
        nonlocal witness, held
        counts[0] += 1
        c = x.view(complex)
        dc = abs(np.dot(d, c))
        if bar > 0.0:
            if (held is not None and held[0] <= bar and dc <= held[1]
                    and np.array_equal(c[held[2]], held[3])):
                counts[1] += 1
                return 0.0
            c_norm = float(np.linalg.norm(c))
            for k, rows, norm in ((2, blocks[witness], block_norms[witness]),
                                  (3, strided, strided_norm)):
                v = float(np.max(np.abs(rows @ c)))
                if dc <= bar * _SAFETY * (v - _SLACK * norm * c_norm) * (1.0 - _SLACK):
                    counts[k] += 1
                    return 0.0
        counts[4] += 1
        a = np.abs(b @ c)
        worst = int(a.argmax())
        sup = float(a[worst])
        if sup <= 0.0:
            return 0.0
        value = float(dc / (_SAFETY * sup))
        if value > bar:
            witness = worst // _SEARCH_BLOCK
            live = b[worst] != 0.0
            held = (value, dc, live, c[live])
        return value

    return objective, counts


def _top_seeds(objective, seeds: list[np.ndarray]) -> list[int]:
    """The indices of the three best seeds by ``(value, index)``, best
    first: those of ``sorted(((objective(s), i) ...), reverse=True)[:3]``
    for values that are not NaN.

    Once three seeds are held, seed ``i`` is scored with ``bar`` just below
    the third-best value.  It enters by ``(value, index)`` exactly when its
    value is at least that one (its index is the latest), that is, above
    ``bar``, and then the value returned is exact; a seed that cannot enter
    may be settled on a subset of the samples."""
    top: list[tuple[float, int]] = []
    for i, c in enumerate(seeds):
        bar = math.nextafter(top[-1][0], -math.inf) if len(top) == 3 else -math.inf
        value = objective(c.view(float), bar)
        if value > bar:
            top = sorted(top + [(value, i)], reverse=True)[:3]
    return [i for _, i in top]


def caratheodory_lower_search(domain, p, xi, budget: int = 200, seed: int = 0):
    """Best monomial-combination lower estimate of C(p, xi); not certified.

    Returns ``(bound, candidate, trace)``: the ``Bound``, the best
    combination (``FunctionCandidate``) and per polished seed ``(run,
    value, 0.0)``.  ``p`` is a ``PointC2`` or a pair of numbers, ``xi`` a
    ``Direction`` or a pair of numbers.

    Maximizes |g'(p)(xi)| / (_SAFETY * sampled sup |g|) over coefficient
    vectors; the sup is sampled on the distinguished boundary grid of the
    adapter and inflated by ``_SAFETY`` (1.01).  The monomials are
    ``DEFAULT_ANNULUS_INDEXES`` on a domain with a hole (``has_hole()``),
    Laurent z-powers included, and ``DEFAULT_DISC_INDEXES`` otherwise; an
    adapter with a hole needs a basepoint off z = 0.  The basepoint must lie
    in the domain.

    A proposal that cannot beat the incumbent, and a seed that cannot enter
    the three kept (``_top_seeds``), may be rejected on the incumbent's
    worst row, the witness block or the strided subset alone
    (``_caratheodory_objective``): each bound is rigorous, so the search
    keeps and returns exactly what it would with every call evaluated over
    all boundary samples.
    """
    adapter = _as_adapter(domain)
    p = _as_point(p)
    xi = _as_direction(xi)
    _check_basepoint(domain, adapter, p)
    budget = _int_at_least("budget", budget)
    seed = _int_at_least("seed", seed, 0)
    indices = DEFAULT_ANNULUS_INDEXES if adapter.has_hole() else DEFAULT_DISC_INDEXES
    if p.z == 0 and any(i < 0 for i, _j in indices):
        raise ValidationError("Laurent z-powers need a basepoint off z = 0")
    zs, ws = adapter.boundary_samples()
    b = _boundary_matrix(indices, zs, ws, p)
    d = _monomial_grad(indices, p, xi)
    objective, counts = _caratheodory_objective(b, d)

    # seed pool: single monomials, signed/rotated pairs, random mixtures;
    # polish the strongest seeds with the adaptive search
    n = len(indices)
    seeds = []
    for j in range(n):
        c = np.zeros(n, dtype=complex)
        c[j] = 1.0
        seeds.append(c)
    for j in range(n):
        for k in range(j + 1, n):
            for factor in (1.0, -1.0, 1j, -1j):
                c = np.zeros(n, dtype=complex)
                c[j] = 1.0
                c[k] = factor
                seeds.append(c)
    rng0 = np.random.default_rng([seed, 11])
    for _ in range(4):
        seeds.append(rng0.standard_normal(n) + 1j * rng0.standard_normal(n))

    top = _top_seeds(objective, seeds)
    seed_passes = counts[4]
    best_val = 0.0
    best_c = np.zeros(n, dtype=complex)
    trace = []
    for ridx, sidx in enumerate(top):
        rng = np.random.default_rng([seed, 11, ridx])
        x, val = _adaptive_search(objective, seeds[sidx].view(float), rng, budget)
        trace.append((ridx, val, 0.0))
        if val > best_val:
            best_val, best_c = val, x.view(complex).copy()

    log.debug("function search: %d objective calls, %d settled on the incumbent's "
              "worst row, %d on the witness block, %d on the strided subset, %d "
              "evaluations over all samples (%d of them scoring seeds)", *counts, seed_passes)
    bound = Bound(
        quantity="caratheodory", side="lower", value=best_val, basepoint=p,
        direction=xi, certified=False,
        provenance=(
            f"monomial candidate search: indices={indices}, budget={budget}, "
            f"seed={seed}, boundary samples={len(zs)}, safety={_SAFETY}"
        ),
    )
    candidate = FunctionCandidate(indices=indices, coefficients=tuple(best_c.tolist()),
                                  basepoint=p)
    return bound, candidate, trace


# ------------------------------------------------------- parallel plumbing
# openblas_get_num_threads and openblas_set_num_threads as named by OpenBLAS
# builds: plain, with 64-bit integers, and numpy's (scipy-openblas)
_OPENBLAS_THREADS = [(f"{pre}openblas_get_num_threads{suf}", f"{pre}openblas_set_num_threads{suf}")
                     for pre in ("", "scipy_") for suf in ("", "64_")]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on (its affinity mask, which
    ``taskset`` sets); 1 where the platform cannot name them."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


@functools.cache
def _openblas_threads():
    """``(get, set)``: ``openblas_get_num_threads`` and
    ``openblas_set_num_threads`` of the OpenBLAS this process has loaded
    (numpy's BLAS), found among the mapped libraries once per process; None
    if there is none."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({fields[5].strip() for fields in (line.split(None, 5) for line in fh)
                            if len(fields) == 6 and "openblas" in fields[5].lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREADS:
            getter, setter = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


@contextlib.contextmanager
def _parallel_cpus(jobs: int):
    """The number of CPUs to run ``jobs`` independent jobs on: one per usable
    CPU (``_usable_cpus``), at most one per job, or 1 where fewer than two
    CPUs are usable or no OpenBLAS can be held (``_openblas_threads``).

    While more than one is in use, numpy's OpenBLAS is held to one thread,
    and a DEBUG line says so: with a BLAS thread per CPU, a matrix product
    waits for threads that spin on the CPUs the other jobs need, and the
    estimate searches ran several times slower than in process.  A process
    forked inside the block inherits the hold.  On exit the thread count is
    restored, also on an error."""
    cpus = min(_usable_cpus(), jobs)
    blas = _openblas_threads() if cpus > 1 else None
    if blas is None:
        yield 1
        return
    get_blas_threads, set_blas_threads = blas
    before = get_blas_threads()
    set_blas_threads(1)
    log.debug("OpenBLAS held to one thread (from %d) for %d CPUs", before, cpus)
    try:
        yield cpus
    finally:
        set_blas_threads(before)


# ------------------------------------------------------------- disc oracle
_ORACLE_STEPS = 30  # scale tests per disc: 30 bracket steps from sqrt(2/m)
_COARSE = 8  # the coarse stage tests every 8th circle sample
_FULL_ROWS = 256  # discs per block in the full stage
# relative margin (the haircut) on the Bernstein threshold for the float32
# evaluation: it leaves 2e-4 relative on the squared threshold, and a disc's
# float32 value is within 5e-5 relative of its exact value at the exact roots
# for m <= 32 and degree <= 6 (under 1e-5 seen), so an accepted disc is
# feasible; the oracle refuses m and degrees past that range;
# tests/test_estimate.py::TestOracle::test_haircut_covers_float32_error
_HAIRCUT = 1e-4


def _gamma(n: int) -> float:
    """Higham's ``gamma_n = n u / (1 - n u)`` for float32, ``u = 2^-24``: a
    value rounded ``n`` times is within ``gamma_n`` relative of its exact
    value (N. J. Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., SIAM 2002, Lemma 3.1)."""
    return n * 2.0**-24 / (1.0 - n * 2.0**-24)


def _sum_bound_error(m: int, degree: int) -> float:
    """Relative bound on how far the float32 scale test (``_circle_samples``,
    then ``_bad``) can read above the coefficient-sum bound ``c^2 S_w^2 (1 +
    c S_z)^(2m)`` of ``_proven``.

    A sample part is a dot product of ``K = 2 degree - 1`` terms, each a row
    entry times a root column entry rounded to float32; in any summation
    order each term is rounded at most ``K + 2`` times (the float64 roots'
    own error, under 1e-15, fits in one of them), so the part is within
    ``gamma_{K+2}`` times the sum of its terms' moduli of its exact value.
    Both parts together are within ``gamma_{K+2} T``, ``T = 1 + sum_j (|Re
    a_j| + |Im a_j|) <= sqrt(2) S``, so ``|Z| <= (1 + sqrt(2) gamma_{K+2})
    S_z`` and likewise ``|W|``.  In ``_bad`` (``cc`` the float32 scale)
    ``|cc w|^2`` is rounded 6 times, ``|1 + cc z|^2`` is within ``(1 +
    gamma_10) (1 + c |Z|)^2``, its ``m``-th power is rounded ``m - 1`` more
    times (binary powering), and the product once: the tested value is at
    most ``(1 + gamma_{11 m + 6}) (1 + sqrt(2) gamma_{K+2})^(2 m + 2)``
    times the bound.  Gradual underflow adds at most ``2^-150`` per
    operation, absolute, and the float64 bound's own rounding under 1e-13
    relative: at the oracle's scales (at least ``2^-30``) and thresholds
    both are far inside the margin."""
    return ((1.0 + _gamma(11 * m + 6))
            * (1.0 + math.sqrt(2.0) * _gamma(2 * degree + 1)) ** (2 * m + 2) - 1.0)


# relative margin of the coefficient-sum bound under the float32 threshold:
# the next power of ten above 10 times its float32 error at the oracle's
# range limit, m = 32 and degree = 6 (9.4e-5), so a disc the bound proves
# passes the sampled test on every sample
_SUM_MARGIN = 10.0 ** math.ceil(math.log10(10.0 * _sum_bound_error(32, 6)))


@dataclass(frozen=True)
class OracleResult:
    m: int
    count: int
    degree: int
    samples: int
    min_alpha: float
    coefficient_bound: float
    feasibility_factor: float
    scale_tests: int  # per-disc feasibility evaluations, after pruning


def _int_power(base: np.ndarray, m: int) -> np.ndarray:
    """``base ** m`` elementwise by binary powering (m >= 1), the running
    square formed in place in ``base``, so ``base`` is overwritten.  The
    products are those of ``out = 1; out *= b where bit; b *= b`` in the same
    order, without the first product by one and the square after the top
    bit, so the result is the same float bit for bit."""
    out = None
    while True:
        if m & 1:
            if out is None:
                out = base if m == 1 else base.copy()
            else:
                out *= base
        m >>= 1
        if not m:
            return out
        base *= base


def _coarse_first(samples: int) -> np.ndarray:
    """Sample order that puts the samples ``i % _COARSE == 0`` first."""
    return np.argsort(np.arange(samples) % _COARSE != 0, kind="stable")


def _draw_rows(rng: np.random.Generator, discs: int, degree: int) -> np.ndarray:
    """The coefficient rows of ``discs`` random discs of the given degree:
    float32 of shape ``(2, discs, 2 degree - 1)``, per disc the rows ``1, Re
    a_j, -Im a_j`` of its z plane and of its w plane (the left factors of
    ``_circle_samples``).  ``a_j = (x_j + i y_j) s_j``, ``s_j = 0.35 /
    (j + 2)^2``, from four standard normal draws ``x, y`` (z plane) and
    ``x, y`` (w plane), in that order: ``Re a_j = x_j s_j`` and ``-Im a_j =
    -(y_j s_j)``, each rounded once from float64, which is what the complex
    ``(x + 1j y) * s`` gives part by part, without its complex
    temporaries."""
    scales = 0.35 / (np.arange(2, degree + 1) ** 2)
    a = np.empty((2, discs, 2 * degree - 1), dtype=np.float32)
    a[:, :, 0] = 1.0
    draw = np.empty((discs, degree - 1))
    for plane in a:
        for part, s in ((plane[:, 1::2], scales), (plane[:, 2::2], -scales)):
            rng.standard_normal(out=draw)
            np.multiply(draw, s, out=part, casting="same_kind")
    return a


def _coefficient_sums(a: np.ndarray) -> np.ndarray:
    """Per disc, ``S = 1 + sum_j |a_j|`` of its z and of its w coefficients,
    from its float32 coefficient rows ``a``, in float64: shape ``(2,
    discs)``.  On the whole circle ``|Z| <= S_z`` and ``|W| <= S_w``.  The
    squares of float32 parts are exact in float64, so each ``|a_j|`` is off
    by two float64 roundings at most."""
    square = np.square(a[:, :, 1:], dtype=np.float64)
    modulus = square[:, :, 0::2] + square[:, :, 1::2]
    return 1.0 + np.sqrt(modulus, out=modulus).sum(axis=2)


def _root_columns(order: np.ndarray, samples: int, degree: int) -> np.ndarray:
    """The right factors of ``_circle_samples`` for the circle samples
    ``zeta = exp(2 pi i k / samples)``, ``k = order[i]`` in column ``i``:
    float32 of shape ``(2, 2 degree - 1, order.size)``, the real and the
    imaginary parts of ``zeta`` and of each ``zeta^(j+2)``, each power the
    root of unity of index ``(j+2) k mod samples`` rounded once to float32,
    so no power accumulates rounding."""
    roots = _circle(samples)[np.outer(np.arange(1, degree + 1), order) % samples]
    p = np.empty((2, 2 * degree - 1, order.size), dtype=np.float32)
    p[0, 0], p[0, 1::2], p[0, 2::2] = roots[0].real, roots[1:].real, roots[1:].imag
    p[1, 0], p[1, 1::2], p[1, 2::2] = roots[0].imag, roots[1:].imag, -roots[1:].real
    return p


def _circle_samples(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The planar samples ``z.real, z.imag, w.real, w.imag`` of ``zeta +
    sum_j a_j zeta^(j+2)``, float32 of shape ``(4, rows, columns)``, for the
    discs whose coefficient rows are ``a`` (``_draw_rows``, or any
    subset of its rows) at the circle samples whose columns are ``p``
    (``_root_columns`` of any subset of the samples).

    Each plane is one float32 matrix product ``A @ P``.  Each sample is
    within ``(2 degree + 1) 2^-24 (1 + sum_j (|Re a_j| + |Im a_j|))`` of its
    exact value, an error the ``_HAIRCUT`` test covers.  The last bits
    depend on the BLAS kernel's summation order: OpenBLAS's Prescott sgemm
    gives the last row of a product with an odd row count other bits, so an
    odd row count is padded by one row (dropped from the result) and every
    product has an even one; its Haswell and Zen sgemm's bits also depend
    on the product's shape."""
    rows = a.shape[1]
    if rows % 2:
        a = np.concatenate((a, a[:, :1]), axis=1)
    out = np.empty((4, a.shape[1], p.shape[2]), dtype=np.float32)
    for plane in (0, 1):
        np.matmul(a[plane], p[0], out=out[2 * plane])
        np.matmul(a[plane], p[1], out=out[2 * plane + 1])
    return out[:, :rows]


def _bad(c: np.ndarray, s: np.ndarray, m: int, thr2: np.float32) -> np.ndarray:
    """Per row of the planar samples ``s``: does |w| or |w z^m| exceed the
    margined threshold on some sample at scale ``c``?  On finite samples
    ``cc * x`` and ``1 + cc * x`` equal the complex64 ``(cc + 0j) * (x + iy)``
    and ``1 + (cc + 0j) * (x + iy)`` component by component.

    ``s`` may be any view of samples (the live discs' coarse samples, a
    part of their rows, a full-stage block's other samples).
    ``max(aw2, aw2 * az2^m)`` is written in place in three float32 arrays of
    the rows' shape (four when m is not a power of 2): the float32 operations
    of ``aw2 = (cc wr)^2 + (cc wi)^2``, ``az2 = (1 + cc zr)^2 + (cc zi)^2``
    and the power, in the same order, so the verdict is the same bit for
    bit.  ``np.maximum`` keeps a NaN product (``0 * inf``), which does not
    exceed."""
    with np.errstate(over="ignore", invalid="ignore"):
        cc = c.astype(np.float32)[:, None]
        zr, zi, wr, wi = s
        aw2 = np.multiply(cc, wr)
        aw2 *= aw2
        t = np.multiply(cc, wi)
        t *= t
        aw2 += t
        az2 = np.multiply(cc, zr)
        az2 += 1.0
        az2 *= az2
        np.multiply(cc, zi, out=t)
        t *= t
        az2 += t
        v = _int_power(az2, m)
        np.multiply(aw2, v, out=v)
        np.maximum(aw2, v, out=v)
        return np.any(v > thr2, axis=1)


def _proven(c: np.ndarray, sums: np.ndarray, m: int, thr2: np.float32) -> np.ndarray:
    """Per disc: does the coefficient-sum bound prove it feasible at scale
    ``c``, with no sample?  On the whole circle ``|W| <= S_w`` and ``|1 +
    cZ| <= 1 + c S_z`` (``sums``, ``_coefficient_sums``), so ``c^2 S_w^2
    (1 + c S_z)^(2m)`` bounds the sup of the test value ``c^2 |W|^2 max(1,
    |1 + cZ|^(2m))``.  Where that is at most ``thr2 (1 - _SUM_MARGIN)``,
    every float32 sample passes ``_bad`` (``_sum_bound_error``), so the
    verdict is the sampled one.  An infinite or NaN sum, or a bound that
    overflows, proves nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        sz, sw = sums
        cw = c * sw
        bound = _int_power(1.0 + c * sz, 2 * m)
        bound *= cw * cw
        return bound <= float(thr2) * (1.0 - _SUM_MARGIN)


def _feasible(c: np.ndarray, s: np.ndarray, a: np.ndarray, sums: np.ndarray, p: np.ndarray,
              m: int, thr2: np.float32, pool=None, threads: int = 1) -> tuple[np.ndarray, int, int]:
    """Per disc ``i``: is it feasible at scale ``c[i]``?  Row ``i`` of ``s``
    holds the disc's coarse samples, every ``_COARSE``-th circle sample (the
    first columns of the ``_coarse_first`` order), row ``i`` of ``a`` its
    coefficient rows and column ``i`` of ``sums`` their sums; ``p`` holds
    the root columns of the other samples.  Also returns how many discs the
    coefficient-sum bound proved and how many reached the full stage.

    With a thread ``pool`` and at least ``2 * _FULL_ROWS`` rows, the rows
    are split into ``min(threads, rows // _FULL_ROWS)`` contiguous parts.
    Helpers test all parts but the first, the calling thread tests the
    first (``_feasible_rows``), each part building its own full-stage
    samples, and the verdicts are joined in order.  A disc's verdict depends
    on its own rows and scale alone, so it is that of the unsplit call bit
    for bit."""
    parts = 1 if pool is None else min(threads, c.size // _FULL_ROWS)
    if parts < 2:
        return _feasible_rows(c, s, a, sums, p, m, thr2)
    cuts = [c.size * i // parts for i in range(parts + 1)]
    others = [pool.submit(_feasible_rows, c[lo:hi], s[:, lo:hi], a[:, lo:hi], sums[:, lo:hi],
                          p, m, thr2)
              for lo, hi in zip(cuts[1:-1], cuts[2:])]
    cut = cuts[1]
    done = [_feasible_rows(c[:cut], s[:, :cut], a[:, :cut], sums[:, :cut], p, m, thr2)]
    done += [part.result() for part in others]
    oks, proven, full = zip(*done)
    return np.concatenate(oks), sum(proven), sum(full)


def _feasible_rows(c: np.ndarray, s: np.ndarray, a: np.ndarray, sums: np.ndarray,
                   p: np.ndarray, m: int, thr2: np.float32) -> tuple[np.ndarray, int, int]:
    """``_feasible`` of one part of the rows, unsplit.

    Every disc is tested on its coarse samples ``s``; a failure there is a
    failure.  A survivor that the coefficient-sum bound proves (``_proven``)
    is feasible: every other sample would pass too.  Only the rest are
    tested on the other samples, ``_FULL_ROWS`` discs at a time, each
    block's samples built from its coefficient rows (``_circle_samples(a[:,
    block], p)``).  The tests are elementwise in the sample, so the verdict
    is that of one pass over all samples."""
    ok = ~_bad(c, s, m, thr2)
    survivors = np.flatnonzero(ok)
    full = survivors[~_proven(c[survivors], sums[:, survivors], m, thr2)]
    for i in range(0, full.size, _FULL_ROWS):
        blk = full[i:i + _FULL_ROWS]
        ok[blk] = ~_bad(c[blk], _circle_samples(a[:, blk], p), m, thr2)
    return ok, survivors.size - full.size, full.size


def monomial_disc_oracle(m: int, count: int = 34000, degree: int = 6,
                       seed: int = 1234) -> OracleResult:
    """Minimum |alpha| over random rigorously feasible polynomial discs in the
    model {|w| < 1, |w| < |z|^-m} through (1, 0) with f'(0) = tau (1, 1).

    Feasibility is certified: a polynomial of degree d on the unit circle
    satisfies sup <= grid_max / (1 - pi d / N), so requiring grid_max <=
    1 - pi d / N guarantees sup <= 1 for both |w| and |w z^m|, and the open
    image condition follows from the maximum principle.  Every reported disc
    is genuinely inside the model, so min |alpha| can never undercut the true
    Kobayashi infimum.

    Each disc brackets its largest feasible scale tau in [lo, hi) over 30
    steps (quadrupling until the first failure, then bisecting), and only
    the maximum final ``lo`` over all discs is reported.  The bracketing is
    pruned by branch and bound without changing that maximum by a bit:
    ``lo < hi`` holds at every step, ``hi`` never grows and every later
    ``lo`` is a tested scale below the current ``hi``, so a disc whose
    ``hi`` has fallen to the best ``lo`` seen so far (this chunk and earlier
    ones) ends strictly below it and is dropped.  A disc that has not yet
    found any feasible scale (``lo <= 0``) keeps bisecting whatever its
    ``hi``, for all 30 steps if need be, so the check that every disc has
    a feasible scale sees exactly what the unpruned loop would.
    ``scale_tests`` counts the per-disc feasibility evaluations made.

    The bracket closes on the end of an interval.  Per sample the test value
    ``G(c) = c^2 |W|^2 max(1, |1 + cZ|^(2m))`` is nondecreasing in ``c >=
    0``: where ``|1 + cZ| > 1``, ``2c Re Z + c^2 |Z|^2 > 0``, so ``d/dc |1 +
    cZ|^2 = 2 Re Z + 2c |Z|^2 > c |Z|^2 >= 0``.  So in exact arithmetic each
    disc's feasible scales form an interval from 0.

    The circle holds ``samples = 128 * 2^j`` samples, the fewest of that
    form with ``samples >= 5 d_eff``, ``d_eff = degree (m + 1)``; so the
    Bernstein threshold ``1 - pi d_eff / samples`` is at least ``1 - pi /
    5``.  A scale test runs in stages.  The coarse stage tests every disc on
    every ``_COARSE``-th circle sample, ``samples / _COARSE`` of them.
    A survivor whose coefficient-sum bound ``c^2 S_w^2 (1 + c S_z)^(2m)``
    (``S = 1 + sum_j |a_j|``, ``_coefficient_sums``) is at most the float32
    threshold less ``_SUM_MARGIN`` is feasible with no further sample
    (``_proven``): the bound is at least the test value's sup over the whole
    circle, and the float32 samples and test read at most
    ``_sum_bound_error`` above it, under a tenth of the margin, so every
    sample would pass.  The full stage tests only the other survivors, on
    the rest of the samples.  All exact: a sample's test depends on that
    sample alone, a disc fails if any sample fails, and the stages compute
    the same float32 values as one pass over all samples would, so
    ``min_alpha`` and ``scale_tests`` do not change by a bit.  A chunk keeps
    only its coarse samples, its discs' coefficient rows (``_draw_rows``)
    and their sums; the full stage builds a block's other samples from its
    rows when the block gets there.  When pruning drops discs, only the
    survivors' coarse samples, rows and sums are kept.

    The samples are float32 matrix products (``_circle_samples``), so their
    last bits, and ``min_alpha`` in its last digits, depend on the BLAS
    kernel, with some kernels also on the product's shape.  Rigor does not:
    the ``_HAIRCUT`` margin on the threshold covers the float32 error of the
    samples and of the test, for the range it is checked on, ``m <= 32``
    and ``degree <= 6``; the oracle refuses larger ones with
    ``ValidationError``.  A disc the coefficient-sum bound proves is
    feasible by that bound alone, with no sampling or haircut behind it.

    A call runs on the threads ``_parallel_cpus`` gives a chunk's
    ``rows // _FULL_ROWS`` parts, the calling thread included, with numpy's
    OpenBLAS held to one thread for the call; so a call whose chunks hold
    fewer than ``2 * _FULL_ROWS`` discs runs in the calling thread alone.
    On more threads each scale test over at least ``2 * _FULL_ROWS`` live
    discs is split by rows (``_feasible``), each part building its own
    full-stage samples.  Every value is computed
    by the same kernel on the same operands as in one thread, so the result
    is the same bit for bit.
    """
    m = _int_at_least("m", m)
    count = _int_at_least("count", count)
    degree = _int_at_least("degree", degree)
    seed = _int_at_least("seed", seed, 0)
    if m > 32 or degree > 6:
        raise ValidationError("the float32 haircut is checked for m <= 32 and "
                              "degree <= 6 only")
    d_eff = degree * (m + 1)
    samples = 128
    while samples < 5 * d_eff:
        samples *= 2
    thr = 1.0 - math.pi * d_eff / samples
    order = _coarse_first(samples)
    k = samples // _COARSE
    coarse_p = _root_columns(order[:k], samples, degree)
    other_p = _root_columns(order[k:], samples, degree)
    chunk = max(256, (1 << 21) // samples)
    thr2 = np.float32((thr * (1.0 - _HAIRCUT)) ** 2)

    best_tau = 0.0
    scale_tests = 0
    proven_tests = 0
    full_tests = 0
    done = 0
    ci = 0
    from concurrent.futures import ThreadPoolExecutor

    with (_parallel_cpus(min(chunk, count) // _FULL_ROWS) as threads,
          ThreadPoolExecutor(threads - 1) if threads > 1 else contextlib.nullcontext() as pool):
        while done < count:
            b = min(chunk, count - done)
            a = _draw_rows(np.random.default_rng([seed, m, ci]), b, degree)
            sums = _coefficient_sums(a)
            s = _circle_samples(a, coarse_p)
            lo = np.zeros(b)
            hi = np.full(b, np.inf)
            c = np.full(b, math.sqrt(2.0 / m))
            for _ in range(_ORACLE_STEPS):
                ok, n_proven, n_full = _feasible(c, s, a, sums, other_p, m, thr2, pool, threads)
                scale_tests += c.size
                proven_tests += n_proven
                full_tests += n_full
                lo = np.where(ok, np.maximum(lo, c), lo)
                hi = np.where(ok, hi, np.minimum(hi, c))
                c = np.where(np.isinf(hi), 4.0 * c, 0.5 * (lo + hi))
                best_tau = max(best_tau, float(np.max(lo)))
                keep = (hi > best_tau) | (lo <= 0.0)
                if not keep.all():
                    lo, hi, c = lo[keep], hi[keep], c[keep]
                    if lo.size == 0:
                        break
                    s, a, sums = s[:, keep], a[:, keep], sums[:, keep]
            if not np.all(lo > 0.0):
                raise NumericalError("oracle found a disc with no feasible scale")
            done += b
            ci += 1

    log.debug("disc oracle m=%d: %d discs, %d scale tests (%d settled by the "
              "coefficient-sum bound, %d reached the full stage), %.1f%% pruned; "
              "%d thread(s)", m, count, scale_tests, proven_tests, full_tests,
              100.0 * (1.0 - scale_tests / (_ORACLE_STEPS * count)), threads)
    return OracleResult(
        m=m, count=count, degree=degree, samples=samples,
        min_alpha=1.0 / best_tau,
        coefficient_bound=math.sqrt(m / 2.0),
        feasibility_factor=thr,
        scale_tests=scale_tests,
    )
