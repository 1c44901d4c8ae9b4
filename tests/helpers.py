"""Shared test oracles."""

import functools
import math

import numpy as np

from squeeze import ConstructionParams, MarginSchedule, build
from squeeze.errors import NumericalError, ValidationError
from squeeze.domain import as_float
from squeeze.estimate import _int_power
from squeeze.smooth import bump, bump_cdf, bump_first_moment

# (margin u, levels) of the margin-schedule staircases the benchmark builds
STAIRCASES = [(u, levels) for u in ("0.02", "0.05", "0.1") for levels in range(1, 7)]


@functools.cache
def staircase(u: str, levels: int):
    """The margin-u staircase domain with ``levels`` levels at a = 2."""
    return build(ConstructionParams(a="2", levels=levels, schedule=MarginSchedule(u)))[0]


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
        rw = float(sd.face_radius(t))
        rho_z, rho_w, rho_zz, rho_zw, rho_ww = sd.hessian_entries(t, rw)
        z0 = math.exp(t)
        slope = abs(float(sd.profile.deriv1(t)))
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
    zeta = np.exp(2j * math.pi * np.arange(samples) / samples).astype(np.complex64)
    chunk = max(256, (1 << 21) // samples)
    # float32 evaluation: the Bernstein margin is ~0.2-0.8, so a 1e-4 relative
    # haircut swallows single-precision rounding with orders to spare
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

        base_z = np.broadcast_to(zeta, (b, samples)).astype(np.complex64)
        base_w = base_z.copy()
        pw = zeta.copy()
        for j in range(degree - 1):
            pw = pw * zeta
            base_z = base_z + az[:, j:j + 1].astype(np.complex64) * pw
            base_w = base_w + bw[:, j:j + 1].astype(np.complex64) * pw

        def feasible(c):
            with np.errstate(over="ignore", invalid="ignore"):
                cc = c.astype(np.float32)[:, None]
                w = cc * base_w
                z = 1.0 + cc * base_z
                aw2 = w.real**2 + w.imag**2
                az2 = z.real**2 + z.imag**2
                bad = np.maximum(aw2, aw2 * _int_power(az2, m)) > thr2
                return ~np.any(bad, axis=1)

        lo = np.zeros(b)
        hi = np.full(b, np.inf)
        c = np.full(b, math.sqrt(2.0 / m))
        for _ in range(30):
            ok = feasible(c)
            lo = np.where(ok, np.maximum(lo, c), lo)
            hi = np.where(ok, hi, np.minimum(hi, c))
            c = np.where(np.isinf(hi), 4.0 * c, 0.5 * (lo + hi))
        if not np.all(lo > 0.0):
            raise NumericalError("oracle found a disc with no feasible scale")
        best_tau = max(best_tau, float(np.max(lo)))
        done += b
        ci += 1

    return 1.0 / best_tau, count


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
    """``MollifiedProfile.deriv1`` summed over every kink."""
    t = np.asarray(t, dtype=float)
    out = np.full(t.shape, prof.base.slopes()[0]) - 2.0 * prof.eps * t
    if prof.kinks.size:
        diffs = t[..., None] - prof.kinks
        out = out - np.sum(prof.drops * bump_cdf(diffs / prof.widths), axis=-1)
    return out


def dense_deriv2(prof, t):
    """``MollifiedProfile.deriv2`` summed over every kink."""
    t = np.asarray(t, dtype=float)
    out = np.full(t.shape, -2.0 * prof.eps)
    if prof.kinks.size:
        diffs = t[..., None] - prof.kinks
        out = out - np.sum(prof.drops * bump(diffs / prof.widths) / prof.widths,
                           axis=-1)
    return out
