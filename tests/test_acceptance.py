"""Acceptance suite: one test per criterion, at the stated tolerances.

Expected values are recomputed here from scratch (exact rational schedule
arithmetic, brute-force oracles) rather than read back from the library.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import fd_hessian_mismatch, perturb_value, row, sample_interior
from squeeze import (
    CertificationError,
    ConstructionParams,
    ReinhardtDomain,
    build,
    caratheodory_upper_slices,
    monomial_disc_oracle,
)
from squeeze.cli import EXIT_OK, RunConfig, cmd_certify_smoothed, main
from squeeze.construct import verify_construction
from squeeze.domain import PointC2
from squeeze.estimate import (BallModel, PolydiscModel,
                              caratheodory_lower_search,
                              kobayashi_upper_search)
from squeeze.metrics import Direction, shear_normalize
from squeeze.cli import _estimate_payload


def independent_schedule(a: Fraction, ks: int):
    """Recompute C_k, n_k, m_k directly from the rules, outside the library."""
    radii = [Fraction(1)] + [a - a / 2 ** (k + 1) for k in range(1, ks + 2)]
    out = []
    n_prev = 0
    for k in range(1, ks + 1):
        gap = min(1 - radii[k - 1] / radii[k], radii[k + 1] / radii[k] - 1)
        c_k = 1 / gap + 1
        n_k = n_prev + math.floor(2 * k * k * c_k * c_k) + 1
        out.append((c_k, n_k, n_k - n_prev))
        n_prev = n_k
    return out


def test_criterion_1_schedule_reproduction():
    t0 = time.perf_counter()
    domain, cert = build(ConstructionParams(a="2", levels=3))
    elapsed = time.perf_counter() - t0

    oracle = independent_schedule(Fraction(2), 3)
    assert [(c, n) for c, n, _m in oracle] == [
        (Fraction(7), 99), (Fraction(15), 1900), (Fraction(31), 19199)]
    for rec, (c_k, n_k, m_k) in zip(cert.levels, oracle):
        assert rec.c_k == c_k            # exact integers
        assert rec.n_k == n_k
        assert rec.m_k == m_k
        want = float(c_k) * math.sqrt(2.0 / m_k)
        assert abs(rec.s_upper.value - want) <= 1e-12 * want
        assert rec.s_upper.value < 1.0 / rec.k  # strictly below the target
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"


def test_criterion_2_headline_nonpsh_certificate(tmp_path):
    t0 = time.perf_counter()
    cfg = RunConfig(levels=2, schedule="margin", margin_u="0.05",
                    out=str(tmp_path / "headline"))
    code = cmd_certify_smoothed(cfg)
    elapsed = time.perf_counter() - t0
    assert code == EXIT_OK

    cert = json.loads((tmp_path / "headline" / "smoothed_certificate.json").read_text())
    level2 = next(l for l in cert["levels"] if l["k"] == 2)
    s_up_circles = max(float(level2["bound"]["value"]),
                       float(level2["bound_mirror"]["value"]))
    s_low = float(cert["s_lower"]["value"])
    assert s_up_circles < s_low
    assert s_low - s_up_circles >= 0.01

    rep = json.loads((tmp_path / "headline" / "levi_report.json").read_text())
    assert rep["grid_points"] >= 10_000
    assert float(rep["min_value"]) > 1e-7
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_3_containment_exactness(headline, p0):
    for _params, domain, cert in (p0, headline):
        n = len(domain.profile.breakpoints)
        # exact breakpoint check, recomputed here on the exact data
        for rec in cert.levels:
            idx = domain.profile.breakpoints.index(math.log(rec.a_k))
            image, _ = shear_normalize(domain, idx)
            for s, v in zip(image.profile.exact_breakpoints,
                            image.profile.exact_values):
                assert v <= min(Fraction(0), -rec.m_k * s)
        # every single height mutation of 1e-6 is caught by re-verification
        verify_construction(domain, cert)
        for idx in range(n):
            mutated = ReinhardtDomain(
                perturb_value(domain.profile, idx, 1e-6),
                domain.t_min, domain.t_max)
            with pytest.raises(CertificationError):
                verify_construction(mutated, cert)


def test_criterion_4_disc_search_oracle():
    t0 = time.perf_counter()
    total = 0
    for m in (2, 8, 32):
        res = monomial_disc_oracle(m, count=34000, degree=6, seed=20240501)
        total += res.count
        assert res.min_alpha >= math.sqrt(m / 2.0) - 1e-9, (
            f"m={m}: observed {res.min_alpha} under the bound")
    elapsed = time.perf_counter() - t0
    assert total >= 100_000
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s"


def test_criterion_5_calibration_and_sandwich():
    p0c = PointC2(0.0j, 0.0j)
    xi11 = Direction(1.0 + 0.0j, 1.0 + 0.0j)
    xi10 = Direction(1.0 + 0.0j, 0.0j)
    cases = [
        (PolydiscModel(), p0c, xi11, 1.0),
        (BallModel(), p0c, xi11, math.sqrt(2.0)),
        (PolydiscModel(), p0c, xi10, 1.0),  # disc factor
    ]
    for model, p, xi, ref in cases:
        k_est, _disc, _trace = kobayashi_upper_search(model, p, xi, seed=20240501)
        c_est, _function, _trace = caratheodory_lower_search(model, p, xi, seed=20240501)
        assert abs(k_est.value - ref) <= 0.05 * ref
        assert abs(c_est.value - ref) <= 0.05 * ref

    doc, _rows, sandwich_ok = _estimate_payload(RunConfig(out="unused"))
    assert sandwich_ok
    for point in doc["points"]:
        for q in ("kobayashi", "caratheodory"):
            if q in point:
                assert point[q]["sandwich_ok"]
    for row in doc["calibration"]:
        assert row["kobayashi_within_5pct"] and row["caratheodory_within_5pct"]


def test_criterion_6_symmetry_invariance_determinism(tmp_path, p0, headline,
                                                     headline_smoothed):
    # (a) bit-exact circle pairs, base and smoothed certificates
    for _params, _domain, cert in (p0, headline):
        for rec in cert.levels:
            assert rec.s_upper.value == rec.s_upper_mirror.value
    _sd, _rep, smoothed = headline_smoothed
    for rec in smoothed.levels:
        assert rec.s_upper.value == rec.s_upper_mirror.value

    # (b) rotation invariance of membership on 10^3 random rotations;
    # sampled in the band where the face height is representable in doubles
    _params, domain, cert = p0
    rng = np.random.default_rng(20240501)
    pts = []
    while len(pts) < 1000:
        t = rng.uniform(domain.t_min + 0.02, domain.t_max - 0.02)
        lam = domain.profile.eval(t)
        if lam < -600.0:
            continue
        pts.append((math.exp(t), math.exp(lam - rng.uniform(0.1, 3.0)), True))
        pts.append((math.exp(t), math.exp(lam + rng.uniform(0.1, 3.0)), False))
    for (rz, rw, inside) in pts:
        th, ps = rng.uniform(0.0, 2 * math.pi, 2)
        rotated = (rz * complex(math.cos(th), math.sin(th)),
                   rw * complex(math.cos(ps), math.sin(ps)))
        assert domain.contains((rz, rw)) == inside
        assert domain.contains(rotated) == inside

    # rotation invariance of the slice bound at rotated basepoints
    # (|z e^{i th}| reconstructs |z| only to the last ulp, hence 1e-12)
    xi = Direction(1.0 + 0.0j, 1.0 + 0.0j)
    a1 = row(cert, 1).a_k
    base = caratheodory_upper_slices(domain, (a1, 0.0), xi)
    for _ in range(1000):
        th = rng.uniform(0.0, 2 * math.pi)
        p_rot = (a1 * complex(math.cos(th), math.sin(th)), 0.0)
        rotated = caratheodory_upper_slices(domain, p_rot, xi)
        assert abs(rotated.value - base.value) <= 1e-12 * base.value

    # (c) determinism: two runs of the same config are byte-identical
    cfg = {"levels": 1, "schedule": "margin", "margin_u": "0.05",
           "est_budget": 40, "est_samples": 512, "est_restarts": 2,
           "levi_points": 2000}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("d1", "d2"):
        assert main(["all", "--out", str(tmp_path / name),
                     "--config", str(cfg_path)]) == EXIT_OK
        outs.append(tmp_path / name)
    names1 = sorted(p.name for p in outs[0].iterdir())
    assert names1 == sorted(p.name for p in outs[1].iterdir())
    for name in names1:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_criterion_7_inner_approximation(headline, headline_smoothed):
    _params, domain, _cert = headline
    sd, _rep, _smoothed = headline_smoothed

    # 10^5 random interior samples of {rho < 0} all satisfy membership
    rng = np.random.default_rng(20240501)
    z, w = sample_interior(sd, 100_000, rng)
    inside = np.fromiter(
        (domain.contains((zz, ww)) for zz, ww in zip(z, w)),
        dtype=bool, count=len(z))
    assert np.all(inside)

    # phi_tilde <= phi with zero violations on a dense grid
    t = np.linspace(domain.t_min, domain.t_max, 100_001)
    assert int(np.sum(sd.profile.gap(t) < 0.0)) == 0

    # analytic Levi Hessian vs central finite differences at 100 points
    worst = fd_hessian_mismatch(sd, np.random.default_rng(7), 100)
    assert worst <= 1e-6, f"worst FD mismatch {worst}"
