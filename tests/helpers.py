"""Shared test oracles."""

import csv
import functools
import io
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from squeeze import ConstructionParams, MarginSchedule, build
from squeeze.errors import CertificationError, NumericalError, ValidationError
from squeeze.domain import (_NEG_INF, PointC2, RadialProfile, ReinhardtDomain,
                            _as_point, as_float, fmt)
from squeeze.estimate import (_LOG_FLOOR, DEFAULT_ANNULUS_INDEXES, DEFAULT_DISC_INDEXES,
                              DiscCandidate, FunctionCandidate, _as_adapter, _circle_samples,
                              _coarse_first, _log_moduli, _monomial_at, _monomial_grad,
                              _monomial_matrix, _validate_indices)
from squeeze.metrics import (Bound, Direction, at_breakpoint, caratheodory_upper_slices,
                             shear_normalize, squeezing_upper_quotient)
from squeeze.smooth import _radius, bump, bump_cdf, bump_first_moment

# (margin u, levels) of the margin-schedule staircases the benchmark builds
STAIRCASES = [(u, levels) for u in ("0.02", "0.05", "0.1") for levels in range(1, 7)]


@functools.cache
def staircase(u: str, levels: int):
    """The margin-u staircase domain with ``levels`` levels at a = 2."""
    return build(ConstructionParams(a="2", levels=levels, schedule=MarginSchedule(u)))[0]


def flat_annulus() -> ReinhardtDomain:
    """The flat annulus {1/2 < |z| < 2, |w| < 1}: at (1, 0) its slice radii
    are (1/2, 1), its boundary distance 1/2 (the hole) and its circumscribed
    radius hypot(2 + 1, 1) = sqrt(10)."""
    t = math.log(2.0)
    return ReinhardtDomain(RadialProfile((-t, t), (0.0, 0.0)), -t, t)


def fd_hessian_mismatch(sd, rng, n_points: int) -> float:
    """Worst relative mismatch between the analytic complex Hessian of rho and
    central finite differences, over random boundary points.

    The FD step adapts to the local profile slope (the fourth derivative along
    z scales like slope^4), and sampling avoids the kernel bands around the
    smoothed corners and the belt where exp(-2 phi) overflows; both regions
    are measure ~1e-3 of the face and carry enormous, manifestly positive
    curvature.
    """
    lo, hi = sd.axis_log_range()
    kinks = np.asarray(sd.profile.kinks)
    widths = np.asarray(sd.profile.widths)
    worst = 0.0
    checked = 0
    while checked < n_points:
        t = float(rng.uniform(lo + 0.01, hi - 0.01))
        if float(sd.profile.value(t)) < -150.0:
            continue
        if kinks.size and np.any(np.abs(t - kinks) < 5.0 * widths):
            continue
        rw = float(face_radius(sd, t))
        rho_z, rho_w, rho_zz, rho_zw, rho_ww = hessian_entries(sd, t, rw)
        z0 = math.exp(t)
        slope = abs(float(sd.profile.jet(t)[1]))
        delta = np.longdouble(min(1e-5, 3e-4 / max(1.0, slope)))

        def fd(vz, vw):
            tot = np.longdouble(0.0)
            for eta in (delta, -delta, 1j * delta, -1j * delta):
                zz = np.asarray(abs(z0 + eta * vz), dtype=np.longdouble)
                ww = np.asarray(abs(rw + eta * vw), dtype=np.longdouble)
                tot += sd.rho_moduli(zz, ww)
            base = sd.rho_moduli(np.asarray(z0, dtype=np.longdouble),
                                 np.asarray(rw, dtype=np.longdouble))
            return float((tot - 4.0 * base) / (4.0 * delta * delta))

        scale = max(abs(rho_zz), abs(rho_ww), abs(rho_zw))
        worst = max(
            worst,
            abs(fd(1.0, 0.0) - rho_zz) / scale,
            abs(fd(0.0, 1.0) - rho_ww) / scale,
            abs((fd(1.0, 1.0) - fd(1.0, 0.0) - fd(0.0, 1.0)) / 2.0 - rho_zw) / scale,
        )
        checked += 1
    return worst


def single_pass_samples(az, bw, samples: int):
    """The disc oracle's circle samples ``(base_z, base_w)``, the float32
    planes of ``_circle_samples`` joined into complex64, in natural order.

    They are built in the oracle's ``_coarse_first`` column order and put
    back: with some BLAS kernels (OpenBLAS Haswell, Prescott) a sample's last
    bit depends on its column in the matrix product, so a natural-order build
    need not hold the oracle's samples."""
    order = _coarse_first(samples)
    s = _circle_samples(order, az, bw, np.empty((4, len(az), samples), dtype=np.float32))
    base = np.empty((2, len(az), samples), dtype=np.complex64)
    base.real[:, :, order], base.imag[:, :, order] = s[0::2], s[1::2]
    return base[0], base[1]


def int_power_reference(base: np.ndarray, m: int) -> np.ndarray:
    """``base ** m`` elementwise by binary powering from ``out = 1``, every
    product formed; ``estimate._int_power`` must agree bit for bit."""
    out = np.ones_like(base)
    b = base
    e = m
    while e > 0:
        if e & 1:
            out = out * b
        b = b * b
        e >>= 1
    return out


def single_pass_feasible(c: np.ndarray, base_z: np.ndarray, base_w: np.ndarray,
                         m: int, thr2: np.float32) -> np.ndarray:
    """Per disc (row): are both |w| and |w z^m| within the margined threshold
    on every circle sample at scale ``c``?  The disc oracle's verdict in one
    pass over all samples, before the two-stage verdict."""
    with np.errstate(over="ignore", invalid="ignore"):
        cc = c.astype(np.float32)[:, None]
        w = cc * base_w
        z = 1.0 + cc * base_z
        aw2 = w.real**2 + w.imag**2
        az2 = z.real**2 + z.imag**2
        bad = np.maximum(aw2, aw2 * int_power_reference(az2, m)) > thr2
        return ~np.any(bad, axis=1)


def unpruned_disc_oracle(m: int, count: int = 34000, degree: int = 6,
                         seed: int = 1234, samples: int | None = None):
    """The disc oracle without branch-and-bound pruning: every disc runs
    all 30 bracket steps.  Returns ``(min_alpha, count)``; the pruned
    ``monomial_disc_oracle`` must agree bit for bit."""
    if m < 1:
        raise ValidationError("m must be a positive integer")
    d_eff = degree * (m + 1)
    if samples is None:
        samples = 128
        while samples < 5 * d_eff:
            samples *= 2
    thr = 1.0 - math.pi * d_eff / samples
    if thr <= 0.0:
        raise ValidationError("not enough circle samples for the Bernstein margin")
    chunk = max(256, (1 << 21) // samples)
    thr2 = np.float32((thr * (1.0 - 1e-4)) ** 2)

    best_tau = 0.0
    done = 0
    ci = 0
    while done < count:
        b = min(chunk, count - done)
        rng = np.random.default_rng([seed, m, ci])
        scales = 0.35 / (np.arange(2, degree + 1) ** 2)
        az = (rng.standard_normal((b, degree - 1)) + 1j * rng.standard_normal((b, degree - 1))) * scales
        bw = (rng.standard_normal((b, degree - 1)) + 1j * rng.standard_normal((b, degree - 1))) * scales

        base_z, base_w = single_pass_samples(az, bw, samples)
        lo = np.zeros(b)
        hi = np.full(b, np.inf)
        c = np.full(b, math.sqrt(2.0 / m))
        for _ in range(30):
            ok = single_pass_feasible(c, base_z, base_w, m, thr2)
            lo = np.where(ok, np.maximum(lo, c), lo)
            hi = np.where(ok, hi, np.minimum(hi, c))
            c = np.where(np.isinf(hi), 4.0 * c, 0.5 * (lo + hi))
        if not np.all(lo > 0.0):
            raise NumericalError("oracle found a disc with no feasible scale")
        best_tau = max(best_tau, float(np.max(lo)))
        done += b
        ci += 1

    return 1.0 / best_tau, count


def unpruned_adaptive_search(objective, x0: np.ndarray, rng: np.random.Generator,
                             iters: int, step0: float = 0.25):
    """Seeded coordinate search with multiplicative step adaptation."""
    x = x0.copy()
    f = objective(x)
    step = step0
    for _ in range(iters):
        if x.size == 0:
            break
        i = int(rng.integers(x.size))
        xp = x.copy()
        xp[i] += step * rng.standard_normal()
        fp = objective(xp)
        if fp > f:
            x, f = xp, fp
            step = min(step * 1.4, 10.0)
        else:
            step = max(step * 0.7, 1e-6)
    return x, f


def polyval_reference(coeffs: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Horner's rule with a new array per step: the reference for the
    in-place ``estimate._polyval``."""
    acc = np.full_like(zeta, coeffs[-1], dtype=complex)
    for c in coeffs[-2::-1]:
        acc = acc * zeta + c
    return acc


def unpruned_largest_feasible_tau(infeasible_at) -> float:
    """The disc-scale ladder with every rung tested: the reference for
    ``estimate._largest_feasible_tau``."""
    tau = 1e-6
    if infeasible_at(tau):
        return 0.0
    for _ in range(80):
        if infeasible_at(2.0 * tau):
            break
        tau *= 2.0
    lo, hi = tau, 2.0 * tau
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if infeasible_at(mid):
            hi = mid
        else:
            lo = mid
    return lo


def unpruned_kobayashi_upper_search(domain, p, xi: Direction, degree: int = 6,
                                    budget: int = 150, seed: int = 0,
                                    samples: int = 2048, restarts: int = 4,
                                    margin: float = 1e-6, return_trace: bool = False):
    """``kobayashi_upper_search`` running the full ladder on every proposal;
    the pruned search must agree bit for bit."""
    adapter = _as_adapter(domain)
    p = _as_point(p)
    if isinstance(domain, ReinhardtDomain) and not domain.contains(p):
        raise ValidationError("basepoint must lie in the domain")
    if degree < 1:
        raise ValidationError("degree must be at least 1")
    zeta = np.exp(2j * math.pi * np.arange(samples) / samples)
    n_tail = max(degree - 1, 0)

    def tail_arrays(x: np.ndarray):
        c = x.view(complex) if x.size else np.zeros(0, dtype=complex)
        return c[:n_tail], c[n_tail:]

    def max_defect(tz_val, tw_val, tau):
        z = p.z + tau * xi.xi_z * zeta + tz_val
        w = p.w + tau * xi.xi_w * zeta + tw_val
        return float(np.max(adapter.defect(z, w)))

    def feasible_tau(x: np.ndarray) -> float:
        tz, tw = tail_arrays(x)
        tz_val = polyval_reference(np.concatenate([[0.0, 0.0], tz]), zeta) if n_tail else 0.0
        tw_val = polyval_reference(np.concatenate([[0.0, 0.0], tw]), zeta) if n_tail else 0.0
        tau = 1e-6
        if max_defect(tz_val, tw_val, tau) > -margin:
            return 0.0
        for _ in range(80):
            if max_defect(tz_val, tw_val, 2.0 * tau) > -margin:
                break
            tau *= 2.0
        lo, hi = tau, 2.0 * tau
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if max_defect(tz_val, tw_val, mid) > -margin:
                hi = mid
            else:
                lo = mid
        return lo

    best_tau = 0.0
    best_x = np.zeros(4 * n_tail)
    trace = []
    for ridx in range(restarts):
        rng = np.random.default_rng([seed, 7, ridx])
        if ridx == 0:
            x0 = np.zeros(4 * n_tail)
        else:
            scale = 0.05 / (1.0 + np.repeat(np.arange(2 * n_tail) % max(n_tail, 1), 2))
            x0 = rng.standard_normal(4 * n_tail) * np.concatenate([scale, scale])[: 4 * n_tail]
        x, tau = unpruned_adaptive_search(feasible_tau, x0, rng, budget)
        trace.append((ridx, 1.0 / tau if tau > 0.0 else math.inf, tau))
        if tau > best_tau:
            best_tau, best_x = tau, x

    fallback = False
    if best_tau <= 0.0:
        try:
            r_h, r_v = adapter.polydisc_radii(p)
            scale = max(abs(xi.xi_z) / r_h if r_h > 0 else math.inf,
                        abs(xi.xi_w) / r_v if r_v > 0 else math.inf)
            best_tau = 0.98 / scale
            best_x = np.zeros(4 * n_tail)
            fallback = True
        except Exception as exc:
            raise NumericalError("no feasible disc found and no polydisc fallback") from exc

    # honesty pass: the returned disc must clear a 10x finer sampling
    zeta_fine = np.exp(2j * math.pi * np.arange(10 * samples) / (10 * samples))
    tz, tw = tail_arrays(best_x)
    cz_t = np.concatenate([[0.0, 0.0], tz]) if n_tail else np.asarray([0.0, 0.0])
    cw_t = np.concatenate([[0.0, 0.0], tw]) if n_tail else np.asarray([0.0, 0.0])
    for _ in range(200):
        z = p.z + best_tau * xi.xi_z * zeta_fine + polyval_reference(cz_t, zeta_fine)
        w = p.w + best_tau * xi.xi_w * zeta_fine + polyval_reference(cw_t, zeta_fine)
        fine_defect = float(np.max(adapter.defect(z, w)))
        if fine_defect <= -0.5 * margin:
            break
        best_tau *= 0.999
    else:
        raise NumericalError("could not stabilize the returned disc on the fine grid")

    value = 1.0 / best_tau
    bound = Bound(
        quantity="kobayashi", side="upper", value=value, basepoint=p, direction=xi,
        certified=False,
        provenance=(
            f"polynomial disc search: degree={degree}, budget={budget}, seed={seed}, "
            f"samples={samples}, restarts={restarts}, margin={margin!r}, "
            f"fine-grid defect={fine_defect!r}"
            + ("; inscribed polydisc fallback" if fallback else "")
        ),
    )
    if return_trace:
        tz_best, tw_best = tail_arrays(best_x)
        candidate = DiscCandidate(
            basepoint=p, direction=xi, tau=best_tau,
            tails_z=tuple(tz_best.tolist()), tails_w=tuple(tw_best.tolist()))
        return bound, candidate, trace
    return bound


def guarded_log_moduli(z, w):
    """``estimate._log_moduli`` with its zero guards always applied: the
    reference for the unguarded path."""
    az = np.abs(z)
    aw = np.abs(w)
    t = np.where(az > 0.0, np.log(np.maximum(az, 1e-320)), _LOG_FLOOR)
    lam = np.where(aw > 0.0, np.log(np.where(aw > 0.0, aw, 1.0)), -np.inf)
    return t, lam

def unpruned_caratheodory_lower_search(domain, p, xi: Direction, index_set=None,
                                       budget: int = 200, seed: int = 0,
                                       safety: float = 1.01, return_trace: bool = False,
                                       scores: list | None = None):
    """``caratheodory_lower_search`` evaluating every proposal over all
    boundary samples; the pruned search must agree bit for bit.  ``scores``,
    if given, gains the seed pool's ``(value, index)`` pairs, best first."""
    adapter = _as_adapter(domain)
    p = _as_point(p)
    if index_set is None:
        index_set = (DEFAULT_ANNULUS_INDEXES if adapter.has_hole()
                     else DEFAULT_DISC_INDEXES)
    indices = tuple((int(i), int(j)) for i, j in index_set)
    _validate_indices(indices, p)
    zs, ws = adapter.boundary_samples()
    b = _monomial_matrix(indices, zs, ws)
    b = b - _monomial_at(indices, p)[None, :]
    d = _monomial_grad(indices, p, xi)

    def objective(x: np.ndarray) -> float:
        c = x.view(complex)
        sup = float(np.max(np.abs(b @ c)))
        if sup <= 0.0:
            return 0.0
        return float(abs(np.dot(d, c)) / (safety * sup))

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

    def as_real(c):
        out = np.empty(2 * n)
        out[0::2] = c.real
        out[1::2] = c.imag
        return out

    scored = sorted(((objective(as_real(c)), i) for i, c in enumerate(seeds)), reverse=True)
    if scores is not None:
        scores.extend(scored)
    best_val = 0.0
    best_c = np.zeros(n, dtype=complex)
    trace = []
    for ridx, (_, sidx) in enumerate(scored[:3]):
        rng = np.random.default_rng([seed, 11, ridx])
        x, val = unpruned_adaptive_search(objective, as_real(seeds[sidx]), rng, budget)
        trace.append((ridx, val, 0.0))
        if val > best_val:
            best_val, best_c = val, x.view(complex).copy()

    bound = Bound(
        quantity="caratheodory", side="lower", value=best_val, basepoint=p,
        direction=xi, certified=False,
        provenance=(
            f"monomial candidate search: indices={indices}, budget={budget}, "
            f"seed={seed}, boundary samples={len(zs)}, safety={safety}"
        ),
    )
    candidate = FunctionCandidate(indices=indices, coefficients=tuple(best_c.tolist()),
                                  basepoint=p)
    if return_trace:
        return bound, candidate, trace
    return bound


def dense_gap(prof, t):
    """``MollifiedProfile.gap`` summed over every kink: the near-kink
    evaluator must agree bit for bit."""
    t = as_float(t)
    out = np.zeros_like(t)
    if prof.kinks.size:
        diffs = t[..., None] - prof.kinks
        corr = np.where(
            np.abs(diffs) < prof.widths,
            diffs * bump_cdf(diffs / prof.widths)
            - prof.widths * bump_first_moment(diffs / prof.widths)
            - np.maximum(diffs, 0.0),
            0.0,
        )
        out = np.sum(prof.drops * corr, axis=-1)
    return out + prof.eps * t * t


def dense_deriv1(prof, t):
    """The slope of ``MollifiedProfile.jet`` summed over every kink."""
    t = np.asarray(t, dtype=float)
    out = np.full(t.shape, prof.base.slopes()[0]) - 2.0 * prof.eps * t
    if prof.kinks.size:
        diffs = t[..., None] - prof.kinks
        out = out - np.sum(prof.drops * bump_cdf(diffs / prof.widths), axis=-1)
    return out


def dense_deriv2(prof, t):
    """The curvature of ``MollifiedProfile.jet`` summed over every kink."""
    t = np.asarray(t, dtype=float)
    out = np.full(t.shape, -2.0 * prof.eps)
    if prof.kinks.size:
        diffs = t[..., None] - prof.kinks
        out = out - np.sum(prof.drops * bump(diffs / prof.widths) / prof.widths,
                           axis=-1)
    return out


def dense_levi_face(sd, t):
    """``SmoothDomain._levi_face`` on the all-kink sums, with the cap terms
    and the face radius written out in full."""
    t = np.asarray(t, dtype=float)
    prof = sd.profile
    e_plus = np.exp(sd.kappa * (t - sd.base.t_max))
    e_minus = np.exp(-sd.kappa * (t - sd.base.t_min))
    g = e_plus + e_minus
    g1 = sd.kappa * (e_plus - e_minus)
    g2 = sd.kappa * sd.kappa * g
    f = 1.0 - g
    d1 = dense_deriv1(prof, t)
    d2 = dense_deriv2(prof, t)
    r = np.exp(prof.base.eval_many(t) - dense_gap(prof, t)) * np.sqrt(np.maximum(f, 0.0))
    a = -2.0 * d1 * f + g1
    num = f * (-2.0 * d2 * f * f + g2 * f + g1 * g1)
    den = (r * a) ** 2 + 4.0 * np.exp(2.0 * t) * f * f
    return num / den, r


def perturb_value(profile: RadialProfile, index: int, delta: float) -> RadialProfile:
    """Copy of ``profile`` with breakpoint height ``index`` raised by ``delta``.

    The perturbation is applied to the exact height, so certified checks see
    it exactly.  Used by the mutation tests.
    """
    exact = list(profile.exact_values)
    exact[index] += Fraction(delta)
    return RadialProfile(profile.exact_breakpoints, exact)


def boundary_distance_brute(domain, p, resolution: int) -> float:
    """Plain sampled distance minimum (test oracle, not certified)."""
    p = _as_point(p)
    rz, rw = p.moduli()
    u = np.linspace(domain.inner_radius(), domain.outer_radius(), resolution + 1)
    r = np.exp(domain.profile.eval_many(np.log(u)))
    d = float(np.min(np.hypot(u - rz, r - rw)))
    for edge_t in (domain.t_min, domain.t_max):
        ue = math.exp(edge_t)
        re = math.exp(domain.profile.eval(edge_t))
        ws = np.linspace(0.0, re, 256)
        d = min(d, float(np.min(np.hypot(abs(rz - ue), np.abs(ws - rw)))))
    return d


def stacked_box_distance(u0, u1, r_lo, r_hi, rz: float, rw: float) -> float:
    """``domain.box_distance`` with each gap taken as the largest of three
    stacked rows, zero first: the reference for the two-step maxima."""
    dz = np.maximum.reduce([np.zeros_like(u0), u0 - rz, rz - u1])
    dw = np.maximum.reduce([np.zeros_like(r_lo), r_lo - rw, rw - r_hi])
    return float(np.min(np.hypot(dz, dw)))


def sup_gap_bound(prof, t_lo: float, t_hi: float) -> float:
    """max width * max|slope| + eps * max(t^2) on [t_lo, t_hi]."""
    max_slope = max(abs(s) for s in prof.base.slopes())
    return prof.h * max_slope + prof.eps * max(t_lo * t_lo, t_hi * t_hi)


def hessian_entries(sd, t: float, rw: float):
    """Analytic complex Hessian of rho at the real-positive representative
    (e^t, rw).  Overflows where exp(-2 phi_tilde) does; the closed-form face
    formula ``SmoothDomain._levi_face`` scans whole faces.
    """
    z = math.exp(t)
    phi = float(sd.profile.value(t))
    _, d1, d2 = (float(v) for v in sd.profile.jet(t))
    u = math.exp(-2.0 * phi)
    u1 = -2.0 * d1 * u
    u2 = (4.0 * d1 * d1 - 2.0 * d2) * u
    _, g1, g2 = (float(v) for v in sd._caps(np.asarray(t, dtype=float)))
    w2 = rw * rw
    rho_z = (u1 * w2 + g1) / (2.0 * z)
    rho_w = u * rw
    rho_zz = (u2 * w2 + g2) / (4.0 * z * z)
    rho_zw = u1 * rw / (2.0 * z)
    rho_ww = u
    return rho_z, rho_w, rho_zz, rho_zw, rho_ww


def levi_on_tangent(rho_z, rho_w, rho_zz, rho_zw, rho_ww) -> float:
    """Levi form of a defining function on the canonical complex tangent
    ``v = (-rho_w, rho_z)``, normalized to a unit vector."""
    vz = -rho_w
    vw = rho_z
    norm2 = abs(vz) ** 2 + abs(vw) ** 2
    if norm2 == 0.0:
        raise ValidationError("vanishing gradient: not a boundary point")
    raw = (rho_zz * abs(vz) ** 2
           + 2.0 * (rho_zw * vz * np.conj(vw)).real
           + rho_ww * abs(vw) ** 2)
    return float(raw / norm2)


def face_radius(sd, t):
    """Radius of the vertical disc {|w| < r(t)} inscribed at log|z| = t."""
    t = np.asarray(t, dtype=float)
    return _radius(sd.profile.value(t), 1.0 - sd.g(t))


def smoothed_boundary_samples(sd, n: int) -> tuple[np.ndarray, np.ndarray]:
    """About ``n`` moduli points ``(|z|, |w|)`` on or beyond the boundary of
    the smoothed domain ``sd``: the face ``|w| = face_radius(t)`` at ``t``
    spread evenly over the face range and, for the steep walls, spread
    geometrically on both sides of every kink, and the two axis points just
    past the face range, where the face closes."""
    lo, hi = sd.axis_log_range()
    kinks = np.asarray(sd.profile.kinks)
    offsets = np.geomspace(1e-12, 1.0, n // (4 * max(kinks.size, 1)))
    near = (kinks[:, None] + np.concatenate([-offsets, offsets])).ravel()
    t = np.concatenate([np.linspace(lo, hi, n - near.size), near[(near > lo) & (near < hi)]])
    u = np.concatenate([np.exp(t), np.exp([sd._axis_lo_out, sd._axis_hi_out])])
    return u, np.concatenate([face_radius(sd, t), [0.0, 0.0]])


def sample_interior(sd, n: int, rng: np.random.Generator):
    """n random points of {rho < 0} (moduli sampled, phases uniform).

    Where the face radius falls into the subnormal range its logarithm
    carries almost no precision, so such samples are snapped to the axis
    (which is inside wherever the caps admit any fiber at all).
    """
    lo, hi = sd.axis_log_range()
    t = rng.uniform(lo, hi, n)
    frac = rng.uniform(0.0, 1.0, n)
    r_v = face_radius(sd, t)
    rw = np.where(r_v < 1e-300, 0.0, frac * r_v * (1.0 - 1e-12))
    if not np.all(sd.rho_moduli(np.exp(t), rw) < 0.0):
        raise NumericalError("interior sampler produced a boundary point")
    th = rng.uniform(0.0, 2.0 * math.pi, n)
    ps = rng.uniform(0.0, 2.0 * math.pi, n)
    z = np.exp(t) * np.exp(1j * th)
    w = rw * np.exp(1j * ps)
    return z, w


class MonomialModel:
    """The model {|w| < 1, |w| < |z|^-m} (unbounded in z; z = 0 allowed)."""

    def __init__(self, m: int):
        if m < 1:
            raise ValidationError("m must be a positive integer")
        self.m = int(m)

    def defect(self, z, w):
        t, lam = _log_moduli(z, w)
        return np.maximum(lam, lam + self.m * t)

    def polydisc_radii(self, p: PointC2):
        rz, rw = p.moduli()
        cap = min(1.0, rz ** (-self.m)) if rz > 0 else 1.0
        return math.inf, cap - rw

    def has_hole(self) -> bool:
        return False

    def boundary_samples(self, nt: int = 48, nphase: int = 16):
        t = np.linspace(-2.0, 2.0, nt)
        r = np.exp(np.minimum(0.0, -self.m * t))
        th = np.exp(2j * math.pi * np.arange(nphase) / nphase)
        ones = np.ones(nphase)
        z = (np.exp(t)[:, None, None] * th[None, :, None] * ones[None, None, :]).ravel()
        w = (r[:, None, None] * ones[None, :, None] * th[None, None, :]).ravel()
        return z, w


@dataclass(frozen=True)
class CoefficientCheck:
    ok: bool
    violations: tuple[tuple[int, float, float], ...]
    alias_level: float
    scaled_coefficients: tuple[float, ...]


def coefficient_bound_check(samples: np.ndarray, r: float,
                            sup_bound: float | None = None,
                            tol: float = 1e-9,
                            alias_threshold: float = 1e-8) -> CoefficientCheck:
    """Cauchy-estimate check |c_j| r^j <= sup|g| + tol from circle samples.

    ``samples`` are values of a holomorphic function on the uniform grid of
    the circle of radius ``r < 1``.  The DFT recovers ``c_j r^j``; the top
    (negative-frequency) modes must carry no energy, otherwise the samples
    alias and the check aborts.
    """
    samples = np.asarray(samples, dtype=complex)
    n = samples.size
    if n < 8:
        raise ValidationError("need at least 8 samples")
    if not 0.0 < r < 1.0:
        raise ValidationError("sample circle radius must lie in (0, 1)")
    coeffs = np.fft.fft(samples) / n
    mags = np.abs(coeffs)
    scale = float(np.max(mags)) if np.max(mags) > 0 else 1.0
    # a holomorphic function adequately sampled leaves the whole
    # negative-frequency band empty
    alias = float(np.max(mags[n // 2:])) / scale
    if alias > alias_threshold:
        raise NumericalError(
            f"aliasing detected: top-mode energy {alias!r} above threshold"
        )
    sup = float(np.max(np.abs(samples))) if sup_bound is None else float(sup_bound)
    violations = []
    for j in range(n // 2):
        if mags[j] > sup + tol:
            violations.append((j, float(mags[j]), sup + tol))
    return CoefficientCheck(
        ok=not violations,
        violations=tuple(violations),
        alias_level=alias,
        scaled_coefficients=tuple(mags[: n // 2].tolist()),
    )


def disc_coefficients(disc) -> tuple[np.ndarray, np.ndarray]:
    """The Taylor coefficients of a ``DiscCandidate`` in z and in w."""
    cz = np.concatenate([[disc.basepoint.z, disc.tau * disc.direction.xi_z],
                         np.asarray(disc.tails_z, dtype=complex)])
    cw = np.concatenate([[disc.basepoint.w, disc.tau * disc.direction.xi_w],
                         np.asarray(disc.tails_w, dtype=complex)])
    return cz, cw


def evaluate(disc, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cz, cw = disc_coefficients(disc)
    return polyval_reference(cz, zeta), polyval_reference(cw, zeta)


def to_point(lp) -> PointC2:
    """Representative point with both phases zero."""
    rz = math.exp(lp.t) if lp.t != _NEG_INF else 0.0
    rw = math.exp(lp.lam) if lp.lam != _NEG_INF else 0.0
    return PointC2(complex(rz, 0.0), complex(rw, 0.0))


def apply_exact(mp, t: Fraction, lam: Fraction) -> tuple[Fraction, Fraction]:
    t2 = t + mp.t_shift
    return t2, lam + mp.lam_shift + mp.shear * t2


def invert_exact(mp, t2: Fraction, lam2: Fraction) -> tuple[Fraction, Fraction]:
    return t2 - mp.t_shift, lam2 - mp.lam_shift - mp.shear * t2


def apply(mp, t: float, lam: float) -> tuple[float, float]:
    t2, l2 = apply_exact(mp, Fraction(t), Fraction(lam))
    return float(t2), float(l2)


def row(cert, k: int):
    for rec in cert.levels:
        if rec.k == k:
            return rec
    raise KeyError(f"no level {k} in certificate")


def fmt_csv_table(header, columns) -> bytes:
    """A float table written value by value: ``fmt`` on each value of the
    columns, rows through ``csv.writer``; the reference for the one-pass
    float table writer."""
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([fmt(x) for x in row] for row in zip(*columns))
    return fh.getvalue().encode()


# ----------------------------------------------- shear-image references
# The node-wise checks on the full shear image, and the exact evaluator they
# use, that the slope-drop decisions of ``kobayashi_lower_shear``,
# ``verify_model_annulus_inclusion`` and ``squeezing_upper_at_breakpoint``
# replace; the equivalence tests compare the two.
def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type of the certification or validation
    error it raises."""
    try:
        return fn(*args, **kwargs)
    except (CertificationError, ValidationError) as exc:
        return type(exc)


def eval_exact(profile: RadialProfile, t: Fraction) -> Fraction:
    """Exact piecewise-linear evaluation of ``profile`` on its exact data."""
    bs, vs = profile.exact_breakpoints, profile.exact_values
    slopes = profile.exact_slopes()
    if t <= bs[0]:
        return vs[0] + slopes[0] * (t - bs[0])
    if t >= bs[-1]:
        return vs[-1] + slopes[-1] * (t - bs[-1])
    for i in range(len(bs) - 1):
        if t <= bs[i + 1]:
            return vs[i] + slopes[i] * (t - bs[i])
    raise AssertionError("unreachable")


def kobayashi_lower_shear_nodes(domain, k: int, m=None):
    """``kobayashi_lower_shear`` by the node loop and the two tail slopes of
    the image from ``shear_normalize``."""
    profile = domain.profile
    if not profile.is_concave():
        raise ValidationError("profile must be pseudoconvex (nonincreasing slopes)")
    if m is None:
        m = profile.slope_drop(k)
    if m < 1:
        raise ValidationError(f"slope drop at breakpoint {k} gives model exponent {m}")
    image, mp = shear_normalize(domain, k)
    prof = image.profile
    for j, (s, v) in enumerate(zip(prof.exact_breakpoints, prof.exact_values)):
        if v > min(Fraction(0), -m * s):
            raise CertificationError(f"model containment violated at breakpoint index {j}")
    img_slopes = prof.exact_slopes()
    if prof.exact_breakpoints[0] >= 0 or prof.exact_breakpoints[-1] <= 0:
        raise CertificationError("sheared breakpoints must straddle the origin")
    if img_slopes[0] < 0:
        raise CertificationError("left tail of sheared profile increases leftwards")
    if img_slopes[-1] > -m:
        raise CertificationError("right tail of sheared profile is shallower than the model")
    return Bound(
        quantity="kobayashi", side="lower", value=math.sqrt(m / 2.0),
        basepoint=PointC2(1.0 + 0.0j, 0.0 + 0.0j),
        direction=Direction(1.0 + 0.0j, 1.0 + 0.0j), certified=True,
        provenance=(
            f"shear at breakpoint {k} (shear slope {float(mp.shear)!r}); exact "
            f"containment in {{|w|<1, |w|<|z|^-{m}}}; coefficient bound "
            f"sqrt(m/2), m={m}"
        ),
    )


def model_annulus_inclusion_nodes(domain, k: int, model_lo_log=None,
                                  model_hi_log=None, m=None) -> bool:
    """``verify_model_annulus_inclusion`` by comparing the image from
    ``shear_normalize`` with the model at the edges, the origin and every
    image breakpoint between the edges.  A default edge is the image's
    adjacent breakpoint, the float next to it on the side of 0 if it is
    not a double."""
    image = shear_normalize(domain, k)[0]
    eb = image.profile.exact_breakpoints
    n = len(eb)

    def inner_float(s: Fraction) -> float:
        x = float(s)
        return x if abs(Fraction(x)) <= abs(s) else math.nextafter(x, 0.0)

    if model_lo_log is None:
        model_lo_log = inner_float(eb[k - 1]) if k > 0 else image.t_min
    if model_hi_log is None:
        model_hi_log = inner_float(eb[k + 1]) if k + 1 < n else image.t_max
    if m is None:
        m = domain.profile.slope_drop(k)
    lo_e, hi_e = Fraction(model_lo_log), Fraction(model_hi_log)
    if not (Fraction(image.t_min) <= lo_e < 0 < hi_e <= Fraction(image.t_max)):
        return False
    check_pts = [lo_e, Fraction(0), hi_e]
    check_pts += [s for s in image.profile.exact_breakpoints if lo_e < s < hi_e]
    return all(eval_exact(image.profile, s) >= min(Fraction(0), -m * s)
               for s in check_pts)


def restrict_to_annulus(domain, lo: float, hi: float):
    """Sub-domain over ``lo < t < hi`` (profile trimmed, heights kept exact)."""
    if not (domain.t_min <= lo < hi <= domain.t_max):
        raise ValidationError("restriction range must lie within the annulus")
    prof = domain.profile
    lo_e, hi_e = Fraction(lo), Fraction(hi)
    eb, ev = [lo_e], [eval_exact(prof, lo_e)]
    for t, v in zip(prof.exact_breakpoints, prof.exact_values):
        if lo_e < t < hi_e:
            eb.append(t)
            ev.append(v)
    eb.append(hi_e)
    ev.append(eval_exact(prof, hi_e))
    return ReinhardtDomain(RadialProfile(eb, ev), lo, hi)


def squeezing_upper_slice_path(domain, k: int, model_lo_log=None, model_hi_log=None,
                               exact_model=None):
    """``squeezing_upper_at_breakpoint`` through the full image: the slice
    bound of the image restricted to the model annulus, and the node-wise
    containment.  The consistency checks against ``exact_model`` are left
    out; its constant is substituted as there."""
    profile = domain.profile
    n = len(profile.breakpoints)
    t_k = profile.breakpoints[k]
    mirrored = profile.symmetric and t_k < 0.0
    if mirrored:
        k = n - 1 - k
    image = shear_normalize(domain, k)[0]
    if model_lo_log is None:
        model_lo_log = image.profile.breakpoints[k - 1]
    if model_hi_log is None:
        model_hi_log = image.t_max if k + 1 >= n else image.profile.breakpoints[k + 1]
    restriction = restrict_to_annulus(image, model_lo_log, model_hi_log)
    xi = Direction(1.0 + 0.0j, 1.0 + 0.0j)
    c_slice = caratheodory_upper_slices(restriction, PointC2(1.0 + 0.0j, 0.0 + 0.0j), xi)
    k_low = kobayashi_lower_shear_nodes(domain, k)
    if exact_model is not None:
        c_slice = replace(
            c_slice, value=float(exact_model.c_constant),
            provenance=c_slice.provenance + "; exact rational slice constant substituted")
    return at_breakpoint(squeezing_upper_quotient(c_slice, k_low), t_k, mirrored)
