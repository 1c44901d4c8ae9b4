import inspect
import logging
import math
import os
import random
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from squeeze import (
    ConstructionParams,
    Direction,
    NumericalError,
    PointC2,
    ValidationError,
    caratheodory_lower_search,
    caratheodory_upper_slices,
    kobayashi_upper_search,
    monomial_disc_oracle,
    annulus_model_domain,
    reference_metric,
)
from squeeze.construct import certify_levels
from squeeze import estimate
from squeeze.estimate import (_COARSE, _FULL_ROWS, _HAIRCUT, _SEARCH_BLOCK, _SLACK, _STRIDE,
                              _SUM_MARGIN, _TAIL_MEMO, BallModel, DEFAULT_ANNULUS_INDEXES,
                              DEFAULT_DISC_INDEXES, PolydiscModel,
                              ReinhardtAdapter, _bad, _boundary_matrix,
                              _caratheodory_objective, _circle_samples, _coarse_first,
                              _coefficient_sums, _disc_coordinate, _DiscTails, _draw_rows,
                              _edge_above, _feasible, _int_power, _ladder,
                              _largest_feasible_tau, _log_moduli, _monomial_grad, _polyval,
                              _proven, _root_columns, _sum_bound_error, _top_seeds)

from helpers import (MonomialModel, coefficient_bound_check, coefficient_rows,
                     disc_coefficients, evaluate, guarded_log_moduli, int_power_reference,
                     polyval_reference, random_disc_coefficients, row, single_pass_feasible,
                     single_pass_samples, stacked_boundary_matrix,
                     unpruned_caratheodory_lower_search, unpruned_disc_oracle,
                     unpruned_kobayashi_upper_search, unpruned_largest_feasible_tau)

P0C = PointC2(0.0j, 0.0j)
XI11 = Direction(1.0 + 0.0j, 1.0 + 0.0j)
XI10 = Direction(1.0 + 0.0j, 0.0j)


class TestReference:
    def test_ball_center(self):
        k, c = reference_metric("ball", P0C, XI11)
        assert k == c == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_bidisc_center(self):
        k, c = reference_metric("bidisc", P0C, XI11)
        assert k == c == 1.0

    def test_outside_rejected(self):
        with pytest.raises(ValidationError):
            reference_metric("bidisc", PointC2(0.0j, 1.5 + 0.0j), XI11)
        with pytest.raises(ValidationError):
            reference_metric("ball", PointC2(1.0 + 0.0j, 1.0 + 0.0j), XI11)

    @pytest.mark.parametrize("model", ["disc", "polydisc", "annulus"])
    def test_only_the_unit_bidisc_and_ball(self, model):
        with pytest.raises(ValidationError, match="unknown reference model"):
            reference_metric(model, P0C, XI11)


class TestKobayashiSearch:
    def test_bidisc_center(self):
        b, _disc, _trace = kobayashi_upper_search(PolydiscModel(), P0C, XI11, seed=1)
        assert b.value <= 1.05
        assert not b.certified

    def test_disc_factor(self):
        b, _disc, _trace = kobayashi_upper_search(PolydiscModel(), P0C, XI10, seed=1)
        assert b.value == pytest.approx(1.0, rel=5e-2)

    def test_monomial_model_respects_lower_bound(self):
        b, _disc, _trace = kobayashi_upper_search(MonomialModel(8), PointC2(1.0 + 0.0j, 0.0j),
                                                  XI11, seed=2, budget=60, restarts=3)
        assert b.value >= 2.0 - 1e-9

    def test_deterministic(self):
        b1, _disc, _trace = kobayashi_upper_search(BallModel(), P0C, XI11, seed=5)
        b2, _disc, _trace = kobayashi_upper_search(BallModel(), P0C, XI11, seed=5)
        assert b1.value == b2.value

    def test_candidate_disc_structure(self):
        b, disc, _trace = kobayashi_upper_search(PolydiscModel(), P0C, XI11, seed=1)
        cz, cw = disc_coefficients(disc)
        # f(0) = p and f'(0) = tau * xi hold exactly by construction
        assert cz[0] == P0C.z and cw[0] == P0C.w
        assert cz[1] == disc.tau * XI11.xi_z
        assert cw[1] == disc.tau * XI11.xi_w
        assert 1.0 / disc.tau == b.value
        zeta = np.exp(2j * math.pi * np.arange(64) / 64)
        zs, ws = evaluate(disc, zeta)
        assert np.all(PolydiscModel().defect(zs, ws) < 0.0)

    @pytest.mark.parametrize("kwargs", [
        {"samples": 3.5}, {"samples": 0}, {"degree": 2.5}, {"degree": 0},
        {"budget": 0}, {"budget": 1.5}, {"restarts": 0}, {"restarts": "2"},
        {"seed": -1}, {"seed": 1.5},
    ], ids=["samples3.5", "samples0", "degree2.5", "degree0", "budget0", "budget1.5",
            "restarts0", "restarts-str", "seed-1", "seed1.5"])
    def test_rejects_bad_inputs(self, kwargs):
        with pytest.raises(ValidationError):
            kobayashi_upper_search(PolydiscModel(), P0C, XI11, **{"budget": 5, **kwargs})

    def test_staircase_point(self, p0):
        _, domain, cert = p0
        rec = row(cert, 1)
        beta = math.exp(domain.profile.eval(math.log(rec.a_k)))
        xi = Direction(complex(rec.a_k, 0.0), complex(beta, 0.0))
        b, _disc, _trace = kobayashi_upper_search(domain, PointC2(complex(rec.a_k, 0), 0.0j),
                                                  xi, seed=3, budget=60, restarts=2)
        assert b.value >= math.sqrt(rec.m_k / 2.0) * (1.0 - 1e-9)


@st.composite
def ladder_cases(draw):
    """A feasible interval ``[a, b]`` of disc scales and a bar.  The ends
    range over both sides of the ladder's start 1e-6, and the bar is often
    drawn within a few ulps to a few percent of an end, of the start or of
    the full ladder's result, where a wrong skip or probe would show."""
    a = draw(st.sampled_from([0.0, 1e-6]) | st.floats(-9.0, 1.0).map(lambda e: 10.0 ** e))
    b = a + draw(st.floats(-9.0, 2.0).map(lambda e: 10.0 ** e))
    ref = unpruned_largest_feasible_tau(lambda t: not a <= t <= b)
    near = st.tuples(st.sampled_from([a, b, ref, 1e-6]),
                     st.sampled_from([-1.0, 1.0]),
                     st.sampled_from([0, 2, 6, 9, 10, 11, 12, 13, 14, 15, 16]))
    bar = draw(st.sampled_from([-math.inf, 0.0])
               | st.floats(-9.0, 2.0).map(lambda e: 10.0 ** e)
               | near.map(lambda n: n[0] * (1.0 + n[1] * 10.0 ** -n[2])))
    return a, b, bar


def excess_function(a, b, kind, scale, power, above=(), below=()):
    """An excess whose feasible scales are ``[a, b]`` (see ``excess_cases``)."""
    def excess(t):
        if above and t > above[1]:
            return math.nan if above[0] == "nan" else math.inf
        if below and a <= t <= below[1]:
            return -math.inf if below[0] == "-inf" else -0.0
        d = max(a - t, t - b)  # above 0 exactly outside [a, b]
        if kind == "flat":
            return scale if d > 0.0 else -1.0 / scale
        v = d * scale * (1.0 + min(t / b, 1e6) ** power)  # |v| >= |d|: no underflow
        if kind == "smooth":
            return v
        u = random.Random(f"{t!r}:{scale!r}").random()
        if kind == "noisy":
            return v * (1.0 + 9.0 * u)
        return max(v * u, 5e-324) if v > 0.0 else v  # "lower": any value in (0, v]
    return excess


@st.composite
def excess_cases(draw):
    """``ladder_cases`` with an excess on the feasible interval ``[a, b]``:
    smooth (the signed distance to ``[a, b]`` times ``scale`` and a power of
    ``t``), noisy within its sign, only a lower bound above 0, or flat
    (``-1 / scale`` and ``scale``); and optionally NaN or +inf above some scale
    ``>= b``, and -inf or -0.0 on ``[a, s]`` for some ``s`` in ``[a, b]``."""
    a, b, bar = draw(ladder_cases())
    kind = draw(st.sampled_from(["smooth", "noisy", "lower", "flat"]))
    scale = draw(st.floats(0.0, 6.0).map(lambda e: 10.0 ** e))
    power = draw(st.floats(0.0, 4.0))
    fraction = st.floats(0.0, 1.0)
    above = draw(st.just(()) | st.tuples(st.sampled_from(["nan", "inf"]),
                                         fraction.map(lambda f: b * (1.0 + f))))
    below = draw(st.just(()) | st.tuples(st.sampled_from(["-inf", "-0.0"]),
                                         fraction.map(lambda f: min(b, a + (b - a) * f))))
    return a, b, bar, kind, scale, power, above, below


class TestLadder:
    # each example separates one faulty pruning from the full ladder: no test
    # of the start (interval off the start); a probe just above the bar, and
    # rungs just above the bar counted as feasible (bar just under the result)
    @example(case=(1e-3, 1.0, 0.5))
    @example(case=(1e-6, 1.0, 0.999999999999))
    @example(case=(1e-6, 1e-5, 9.9999999e-6))
    @given(case=ladder_cases())
    @settings(max_examples=400, deadline=None)
    def test_bar_pruning_matches_full_ladder(self, case):
        a, b, bar = case

        def infeasible_at(t):
            return not a <= t <= b

        want = unpruned_largest_feasible_tau(infeasible_at)
        got = _largest_feasible_tau(infeasible_at, bar, [0, 0])
        assert (got > bar) == (want > bar)
        if want > bar:
            assert got == want

    @example(case=(1e-6, 1.0, 2.0 ** -52))
    @given(case=st.tuples(
        st.sampled_from([0.0, 1e-6]) | st.floats(-9.0, -6.0).map(lambda e: 10.0 ** e),
        st.floats(-6.0, 2.0).map(lambda e: 10.0 ** e),
        st.sampled_from([0.0, 1e-15, 1e-9, 1e-3, 1.0, 1e3])
        | st.integers(1, 8).map(lambda k: k * 2.0 ** -52)))
    @settings(max_examples=300, deadline=None)
    def test_losing_proposal_costs_one_check(self, case):
        """With the start 1e-6 feasible, a proposal whose full ladder ends
        at or below a bar above 1e-6 is settled by the test at the edge."""
        a, b, rel = case
        calls = []

        def infeasible_at(t):
            calls.append(t)
            return not a <= t <= b

        want = unpruned_largest_feasible_tau(infeasible_at)
        bar = want * (1.0 + rel)
        assume(bar > 1e-6)
        calls.clear()
        assert _largest_feasible_tau(infeasible_at, bar, [0, 0]) == 0.0
        assert calls == [_edge_above(bar)]

    # a smooth excess, a flat one with a bar, and a flat one that is NaN
    # above 0.5 (where it is infeasible) and -0.0 on [1e-6, 0.5]
    @example(case=(1e-6, 0.9276101963282215, -math.inf, "smooth", 1.0, 1.0, (), ()))
    @example(case=(1e-6, 0.5, 0.25, "flat", 1.0, 1.0, (), ()))
    @example(case=(1e-6, 0.5, -math.inf, "flat", 1.0, 1.0, ("nan", 0.5), ("-0.0", 0.5)))
    @given(case=excess_cases())
    @settings(max_examples=500, deadline=None)
    def test_bracket_matches_full_ladder_within_twice_its_checks(self, case):
        a, b, bar = case[:3]
        excess = excess_function(a, b, *case[3:])
        calls, calls_ref = [], []
        got = _largest_feasible_tau(lambda t: calls.append(t) or excess(t), bar, [0, 0])
        want = unpruned_largest_feasible_tau(lambda t: calls_ref.append(t) or not excess(t) <= 0.0)
        assert (got > bar) == (want > bar)
        if want > bar:
            assert got.hex() == want.hex()
        assert len(calls) <= 2 * len(calls_ref)

    def test_bracket_answers_queries_and_counts_them(self):
        """A smooth excess: the bracket answers most of the 40 bisection
        queries, and the counts say how many and how many regula-falsi
        steps it took."""
        calls, calls_ref, counts = [], [], [0, 0]
        got = _largest_feasible_tau(lambda t: calls.append(t) or t * t - 0.1, 0.0, counts)
        assert got == unpruned_largest_feasible_tau(lambda t: calls_ref.append(t) or t * t > 0.1)
        assert counts[0] >= 30 and counts[1] >= 1
        assert len(calls) == len(calls_ref) - counts[0] + counts[1]


def _ulps(x: float, n: int) -> float:
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


# bars across the doubling rungs, and within two ulps of each rung
_EDGE_BARS = (st.floats(-6.0, 20.0).map(lambda e: 10.0 ** e)
              | st.tuples(st.integers(0, 82), st.sampled_from([-2, -1, 0, 1, 2])).map(
                  lambda n: _ulps(1e-6 * 2.0 ** n[0], n[1])))


@example(bar=1e-6)
@example(bar=1e-6 * 2.0 ** 81)
@given(bar=_EDGE_BARS.filter(lambda bar: bar >= 1e-6))
@settings(max_examples=300, deadline=None)
def test_edge_is_the_smallest_scale_tested_above_the_bar(bar):
    tested = []

    def infeasible_at(t):
        tested.append(t)
        return t > bar

    unpruned_largest_feasible_tau(infeasible_at)
    above = [t for t in tested if t > bar]
    assert _edge_above(bar) == (min(above) if above else math.inf)


@st.composite
def failing_scales(draw):
    """A predicate on disc scales: a union of intervals, its complement, or
    scattered scales, so the feasible scales need not form an interval."""
    kind = draw(st.sampled_from(["union", "complement", "scattered"]))
    if kind == "scattered":
        salt, share = draw(st.integers(0, 2**32)), draw(st.floats(0.0, 1.0))
        return lambda t: random.Random(f"{salt}:{t!r}").random() < share
    ends = st.sampled_from([1e-6, 2e-6]) | st.floats(-9.0, 3.0).map(lambda e: 10.0 ** e)
    spans = [sorted(pair) for pair in draw(st.lists(st.tuples(ends, ends), max_size=4))]

    def inside(t):
        return any(a <= t <= b for a, b in spans)

    return inside if kind == "union" else (lambda t: not inside(t))


@given(fails=failing_scales())
@settings(max_examples=300, deadline=None)
def test_ladder_is_the_unpruned_ladder(fails):
    tested, tested_ref = [], []
    got = _ladder(lambda t: tested.append(t) or fails(t))
    want = unpruned_largest_feasible_tau(lambda t: tested_ref.append(t) or fails(t))
    assert got == want
    assert tested == tested_ref


def _assert_same_search(got, want):
    (bound, cand, trace), (bound_ref, cand_ref, trace_ref) = got, want
    assert repr(bound.value) == repr(bound_ref.value)
    assert bound.provenance == bound_ref.provenance
    assert cand == cand_ref
    assert trace == trace_ref


CALIBRATION = {"bidisc": (PolydiscModel(), XI11), "ball": (BallModel(), XI11),
               "disc": (PolydiscModel(), XI10)}


def _with_samples(cases):
    """``cases`` at 512 circle samples (ids unchanged) and at 200 (fewer
    than one block) and 1000 (three full blocks and a short one)."""
    return [pytest.param(*case, samples,
                         id="-".join(map(str, case)) + ("" if samples == 512 else f"-samples{samples}"))
            for samples in (512, 200, 1000) for case in cases]


@pytest.mark.parametrize("case, seed, samples",
                         _with_samples([(case, seed) for case in sorted(CALIBRATION) for seed in (0, 7)]))
def test_pruned_search_matches_unpruned_reference_calibration(case, seed, samples):
    model, xi = CALIBRATION[case]
    kw = dict(seed=seed, budget=60, samples=samples)
    _assert_same_search(kobayashi_upper_search(model, P0C, xi, **kw),
                        unpruned_kobayashi_upper_search(model, P0C, xi, **kw))


@pytest.mark.parametrize("case, most", [("ball", 2000), ("bidisc", 1300)])
def test_pruned_search_defect_calls_on_the_calibration_models(case, most):
    """The bracket keeps the calibration searches (seed 0, budget 60, 512
    samples) under these counts of adapter ``defect`` calls; the full
    ladder behind the edge test made 3885 and 2547."""
    model = type(CALIBRATION[case][0])()
    calls = []
    defect = model.defect
    model.defect = lambda z, w: calls.append(1) or defect(z, w)
    kobayashi_upper_search(model, P0C, CALIBRATION[case][1], seed=0, budget=60, samples=512)
    assert len(calls) <= most


def _staircase_calls(levels):
    """Per level of the L-level staircase: (domain, basepoint, direction, k)."""
    domain, records = certify_levels(ConstructionParams(a="2", levels=levels))
    for rec in records:
        beta = math.exp(domain.profile.eval(math.log(rec.a_k)))
        yield (domain, PointC2(complex(rec.a_k, 0.0), 0.0j),
               Direction(complex(rec.a_k, 0.0), complex(beta, 0.0)), rec.k)


@pytest.mark.parametrize("levels, seed, samples",
                         _with_samples([(levels, seed) for levels in (1, 2, 3) for seed in (1, 31)]))
def test_pruned_search_matches_unpruned_reference_staircase(levels, seed, samples):
    for domain, p, xi, k in _staircase_calls(levels):
        kw = dict(seed=seed + k, budget=60, samples=samples)
        _assert_same_search(kobayashi_upper_search(domain, p, xi, **kw),
                            unpruned_kobayashi_upper_search(domain, p, xi, **kw))


def test_pruned_search_witness_reaches_the_short_block(monkeypatch):
    """At 1000 samples the witness block moves off block 0, and also to the
    short last block (samples 768-999), on a model and on a staircase."""
    visited = set()
    block = _DiscTails.block

    def spy(self, t, b):
        visited.add((len(self.slices), b))
        return block(self, t, b)

    monkeypatch.setattr(_DiscTails, "block", spy)
    kobayashi_upper_search(PolydiscModel(), P0C, XI11, seed=0, budget=60, samples=1000)
    assert visited == {(4, 0), (4, 1), (4, 2), (4, 3)}
    visited.clear()
    domain, p, xi, k = next(_staircase_calls(3))
    kobayashi_upper_search(domain, p, xi, seed=1 + k, budget=60, samples=1000)
    assert (4, 3) in visited and len(visited) > 1


def _block_cases():
    domain, p, xi, _k = next(_staircase_calls(3))
    return {"staircase": (ReinhardtAdapter(domain), p, xi),
            "polydisc": (PolydiscModel(), P0C, XI11),
            "ball": (BallModel(), P0C, XI11)}


@pytest.mark.parametrize("samples", [130, 200, 256, 300, 1000, 2048])
@pytest.mark.parametrize("case", ["staircase", "polydisc", "ball"])
def test_block_tails_and_defects_equal_full_slices(case, samples):
    adapter, p, xi = _block_cases()[case]
    zeta = np.exp(2j * math.pi * np.arange(samples) / samples)
    tails = _DiscTails(zeta)
    sizes = [s.stop - s.start for s in tails.slices]
    assert sum(sizes) == samples and all(n == _SEARCH_BLOCK for n in sizes[:-1])
    rng = np.random.default_rng(samples)
    for _ in range(3):
        tz, tw = (0.05 * (rng.standard_normal(5) + 1j * rng.standard_normal(5)) for _ in "zw")
        full_z = _polyval(np.concatenate([[0.0, 0.0], tz]), zeta)
        full_w = _polyval(np.concatenate([[0.0, 0.0], tw]), zeta)
        t_z, t_w = tails.tail(tz), tails.tail(tw)
        # scales from well inside to well outside, so the defects change sign
        for tau in (1e-6, 0.05, 0.3, 0.9, 3.0):
            d = adapter.defect(p.z + tau * xi.xi_z * zeta + full_z,
                               p.w + tau * xi.xi_w * zeta + full_w)
            for b, s in enumerate(tails.slices):
                bz, bw = tails.block(t_z, b), tails.block(t_w, b)
                assert bz.tobytes() == full_z[s].tobytes()
                assert bw.tobytes() == full_w[s].tobytes()
                zb = tails.zeta_blocks[b]
                assert zb.tobytes() == zeta[s].tobytes()
                db = adapter.defect(p.z + tau * xi.xi_z * zb + bz,
                                    p.w + tau * xi.xi_w * zb + bw)
                assert db.tobytes() == d[s].tobytes()
        assert tails.full(t_z).tobytes() == full_z.tobytes()
        assert tails.full(t_w).tobytes() == full_w.tobytes()


@pytest.mark.parametrize("samples", [256, 2048, 20480, 1000])
def test_polyval_and_disc_coordinates_equal_the_expressions(samples):
    """The in-place Horner rule and disc build give the bits of the
    expressions they replace, on all samples and on every block of the disc
    search, the short last one included (1000 samples: 232)."""
    zeta = np.exp(2j * math.pi * np.arange(samples) / samples)
    tails = _DiscTails(zeta)
    rng = np.random.default_rng(samples)
    points = [(p, xi) for _adapter, p, xi in _block_cases().values()]
    points.append((PointC2(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))),
                   Direction(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))))
    for _ in range(3):
        coeffs = np.concatenate([[0.0, 0.0], rng.standard_normal(5) + 1j * rng.standard_normal(5)])
        for zb in [zeta] + tails.zeta_blocks:
            tail = _polyval(coeffs, zb)
            assert tail.tobytes() == polyval_reference(coeffs, zb).tobytes()
            out = np.empty_like(zb)
            for p, xi in points:
                for tau in (1e-6, 0.3, 3.0):
                    for base, x in ((p.z, xi.xi_z), (p.w, xi.xi_w)):
                        got = _disc_coordinate(out, base, tau * x, zb, tail)
                        assert got is out
                        assert got.tobytes() == (base + tau * x * zb + tail).tobytes()


def test_block_tail_memo_is_exact_and_bounded():
    zeta = np.exp(2j * math.pi * np.arange(1000) / 1000)
    tails = _DiscTails(zeta)
    rng = np.random.default_rng(3)
    kept = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    t_kept = tails.tail(kept)
    for _ in range(4 * _TAIL_MEMO):
        # a proposal: one coefficient vector kept from the incumbent, one new
        assert tails.tail(kept.copy()) is t_kept
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        t = tails.tail(coeffs)
        assert tails.tail(coeffs.copy()) is t
        assert len(tails.memo) <= _TAIL_MEMO
        fresh = _polyval(np.concatenate([[0.0, 0.0], coeffs]), zeta)
        for b in (3, 1):
            assert tails.block(t, b).tobytes() == fresh[tails.slices[b]].tobytes()
        assert tails.full(t).tobytes() == fresh.tobytes()
        assert all(tails.block(t, b).tobytes() == fresh[s].tobytes()
                   for b, s in enumerate(tails.slices))
    assert len(tails.memo) == _TAIL_MEMO
    assert tails.tail(kept) is t_kept
    # a vector not used for _TAIL_MEMO others is dropped and rebuilt
    first = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    t_first = tails.tail(first)
    for _ in range(_TAIL_MEMO):
        tails.tail(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    assert tails.tail(first) is not t_first


class TestCaratheodorySearch:
    def test_disc_identity(self):
        b, _cand, _trace = caratheodory_lower_search(PolydiscModel(), P0C, XI10, seed=1)
        assert b.value >= 1.0 / 1.01 - 1e-9
        assert b.value <= 1.0 + 1e-9

    def test_bidisc_center(self):
        b, _cand, _trace = caratheodory_lower_search(PolydiscModel(), P0C, XI11, seed=1)
        assert b.value == pytest.approx(1.0, rel=5e-2)

    def test_prime_model_sandwich(self):
        model = annulus_model_domain(0.5, 2.0, 6)
        p = PointC2(1.0 + 0.0j, 0.0j)
        upper = caratheodory_upper_slices(model, p, XI11)
        assert upper.value == pytest.approx(3.0, rel=1e-12)
        lower, _cand, _trace = caratheodory_lower_search(model, p, XI11, seed=4)
        assert lower.value <= upper.value * (1.0 + 1e-9)
        assert lower.value > 0.1

    def test_candidate_structure(self):
        b, cand, trace = caratheodory_lower_search(BallModel(), P0C, XI11, seed=2)
        assert cand.basepoint == P0C
        assert len(cand.indices) == len(cand.coefficients)
        assert len(trace) == 3
        assert max(t[1] for t in trace) == pytest.approx(b.value, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"budget": 0}, {"budget": 2.5}, {"seed": -1}, {"seed": 1.5},
    ], ids=["budget0", "budget2.5", "seed-1", "seed1.5"])
    def test_rejects_bad_inputs(self, kwargs):
        with pytest.raises(ValidationError):
            caratheodory_lower_search(PolydiscModel(), P0C, XI11, **{"budget": 5, **kwargs})

    def test_laurent_rejected_at_origin(self):
        """An adapter with a hole gets the annulus monomials, Laurent
        z-powers included, so its basepoint must lie off z = 0."""
        class HoledBall(BallModel):
            def has_hole(self):
                return True

        with pytest.raises(ValidationError, match="Laurent z-powers"):
            caratheodory_lower_search(HoledBall(), P0C, XI11, seed=1)


def _caratheodory_calls(levels):
    """The Carathéodory searches of ``squeeze estimate`` on the L-level
    staircase: per level and at (1, 0)."""
    calls = [(domain, p, xi, k) for domain, p, xi, k in _staircase_calls(levels)]
    return calls + [(calls[0][0], PointC2(1.0 + 0.0j, 0.0j), XI11, 0)]


@pytest.mark.parametrize("case", sorted(CALIBRATION))
@pytest.mark.parametrize("seed", [0, 7])
def test_pruned_caratheodory_matches_unpruned_reference_calibration(case, seed):
    model, xi = CALIBRATION[case]
    kw = dict(seed=seed, budget=150)
    _assert_same_search(caratheodory_lower_search(model, P0C, xi, **kw),
                        unpruned_caratheodory_lower_search(model, P0C, xi, **kw))


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("seed", [1, 31])
def test_pruned_caratheodory_matches_unpruned_reference_staircase(levels, seed):
    for domain, p, xi, k in _caratheodory_calls(levels):
        kw = dict(seed=seed + k, budget=150)
        _assert_same_search(caratheodory_lower_search(domain, p, xi, **kw),
                            unpruned_caratheodory_lower_search(domain, p, xi, **kw))


@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, math.nextafter(0.5, 1.0), 1.0]), max_size=12),
       st.randoms(use_true_random=False))
def test_top_seeds_rank_as_the_sorted_pool(values, rnd):
    """With tied values, and any value at or below the bar for a seed that
    does not beat it, the seeds kept are those of ``sorted(..., reverse=True)[:3]``."""
    def objective(x, bar=-math.inf):
        v = x[0]
        return v if v > bar else rnd.choice([v, bar, min(0.0, bar), -math.inf])

    seeds = [np.array([complex(v, i)]) for i, v in enumerate(values)]
    want = sorted(((v, i) for i, v in enumerate(values)), reverse=True)[:3]
    assert _top_seeds(objective, seeds) == [i for _v, i in want]


@pytest.mark.parametrize("model", [PolydiscModel(), BallModel()], ids=["bidisc", "ball"])
def test_seed_pool_with_tied_scores_matches_unpruned_reference(model, monkeypatch):
    """With each monomial listed twice, four seeds tie for the best score
    bit for bit, so the cut at three falls inside the tie: the search keeps
    the seeds the reference's sort keeps, the later index first."""
    kept = []
    top_seeds = estimate._top_seeds
    monkeypatch.setattr(estimate, "_top_seeds", lambda *a: kept.extend(top_seeds(*a)) or kept)
    monkeypatch.setattr(estimate, "DEFAULT_DISC_INDEXES", ((1, 0), (0, 1), (1, 0), (0, 1)))
    scores = []
    want = unpruned_caratheodory_lower_search(model, P0C, XI11, seed=0, budget=150, scores=scores)
    assert scores[0][0] == scores[3][0] > scores[4][0]
    _assert_same_search(caratheodory_lower_search(model, P0C, XI11, seed=0, budget=150), want)
    assert kept == [i for _v, i in scores[:3]]


def test_caratheodory_full_passes_on_a_staircase_call(monkeypatch):
    """The incumbent's worst row, the seed pool scored against the third-best
    seed and the strided subset keep the function search at the second
    level of the L3 staircase (seed 3, budget 150) under 120 evaluations
    over all samples; with only the witness block it made 407, and now
    makes 109, three of them the starts of the polish runs."""
    made = []
    objective = estimate._caratheodory_objective
    monkeypatch.setattr(estimate, "_caratheodory_objective",
                        lambda *a: made.append(objective(*a)) or made[-1])
    domain, p, xi, k = list(_staircase_calls(3))[1]
    caratheodory_lower_search(domain, p, xi, seed=1 + k, budget=150)
    calls, worst_row, witness, strided, full = made[0][1]
    assert calls == 577 and worst_row + witness + strided + full == calls
    assert min(worst_row, witness, strided) > 0
    assert full <= 120


def test_worst_row_rule_settles_only_losers(monkeypatch):
    """Every proposal of the function searches of ``squeeze estimate`` on
    the L3 staircase that is settled on the incumbent's worst row has a
    value over all rows at most its bar."""
    settled = []
    make = estimate._caratheodory_objective

    def spy(b, d):
        objective, counts = make(b, d)
        reference, _ = make(b, d)

        def checked(x, bar=-math.inf):
            before = counts[1]
            got = objective(x, bar)
            if counts[1] > before:
                settled.append(reference(x) <= bar)
            return got

        return checked, counts

    monkeypatch.setattr(estimate, "_caratheodory_objective", spy)
    for domain, p, xi, k in _caratheodory_calls(3):
        caratheodory_lower_search(domain, p, xi, seed=1 + k, budget=150)
    assert len(settled) > 100 and all(settled)


def test_worst_row_rule_on_moves_where_the_worst_row_vanishes():
    """Moves of the coefficients whose monomials vanish at the incumbent's
    worst row, with ``|d.c|`` up or down, and of other coefficients: a
    move that beats the incumbent gets its value over all rows exactly, and
    one settled on the worst row does not beat it."""
    settled = 0
    for domain, p, xi, _k in _caratheodory_calls(3):
        b, d = _caratheodory_problem(domain, p, xi)
        reference, _ = _caratheodory_objective(b, d)
        rng = np.random.default_rng(6)
        for c in _coefficients(rng, b.shape[1], 20):
            zero = np.flatnonzero(b[int(np.abs(b @ c).argmax())] == 0.0)
            if zero.size == 0:
                continue
            objective, counts = _caratheodory_objective(b, d)
            bar = objective(c.view(float))
            for _ in range(10):
                moved = c.copy()
                j = rng.choice(zero) if rng.random() < 0.8 else rng.integers(c.size)
                moved[j] += abs(c[j]) * 10.0 ** rng.uniform(-16, 0) * np.exp(2j * math.pi * rng.random())
                before = counts[1]
                got = objective(moved.view(float), bar)
                full = reference(moved.view(float))
                assert got == full if full > bar else got <= bar
                if counts[1] > before:
                    assert full <= bar
                    settled += 1
    assert settled > 0


def _caratheodory_problem(domain, p, xi):
    """The matrix ``b`` and gradient ``d`` of the search at ``p`` with the
    annulus index set."""
    zs, ws = ReinhardtAdapter(domain).boundary_samples()
    b = _boundary_matrix(DEFAULT_ANNULUS_INDEXES, zs, ws, p)
    return b, _monomial_grad(DEFAULT_ANNULUS_INDEXES, p, xi)


def test_boundary_matrix_matches_the_stacked_columns():
    """The matrix written into one array, the values at the basepoint
    subtracted in place, equals ``np.stack`` of the columns minus those
    values byte for byte: on the staircase's searches (the annulus index
    set, Laurent powers included), on both calibration models, and at a
    basepoint with ``w != 0``."""
    cases = [(ReinhardtAdapter(domain), DEFAULT_ANNULUS_INDEXES, p)
             for domain, p, _xi, _k in _caratheodory_calls(3)]
    cases += [(model, DEFAULT_DISC_INDEXES, p) for model in (PolydiscModel(), BallModel())
              for p in (P0C, PointC2(0.3 - 0.1j, -0.2 + 0.4j))]
    for adapter, indices, p in cases:
        zs, ws = adapter.boundary_samples()
        b = _boundary_matrix(indices, zs, ws, p)
        assert b.flags.c_contiguous and b.shape == (zs.size, len(indices))
        assert b.tobytes() == stacked_boundary_matrix(indices, zs, ws, p).tobytes()


def _coefficients(rng, n, count):
    """Random coefficient vectors with entries over nine decades."""
    return [(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            * 10.0 ** rng.uniform(-4.0, 5.0, n) for _ in range(count)]


def test_witness_block_slack_covers_every_block():
    for domain, p, xi, _k in _caratheodory_calls(3):
        b, _d = _caratheodory_problem(domain, p, xi)
        assert len(b) % _SEARCH_BLOCK == 0
        for c in _coefficients(np.random.default_rng(3), b.shape[1], 20):
            full = b @ c
            for i in range(0, len(b), _SEARCH_BLOCK):
                w = b[i:i + _SEARCH_BLOCK]
                slack = _SLACK * np.max(np.linalg.norm(w, axis=1)) * np.linalg.norm(c)
                assert np.all(np.abs(w @ c - full[i:i + _SEARCH_BLOCK]) <= slack)


def test_strided_subset_slack_covers_every_row():
    """The strided subset's slack, from its own largest row norm, covers
    each of its rows' products against that row's product over all rows."""
    for domain, p, xi, _k in _caratheodory_calls(3):
        b, _d = _caratheodory_problem(domain, p, xi)
        strided = b[::_STRIDE].copy()
        norm = np.max(np.linalg.norm(strided, axis=1))
        assert len(strided) == -(-len(b) // _STRIDE)
        for c in _coefficients(np.random.default_rng(4), b.shape[1], 20):
            slack = _SLACK * norm * np.linalg.norm(c)
            assert np.all(np.abs(strided @ c - (b @ c)[::_STRIDE]) <= slack)


def test_witness_block_bound_never_rejects_a_winner():
    """A proposal whose full value beats the bar by an ulp or more gets that
    value exactly, whatever block is the witness; one at or below the bar
    gets at most the bar.  The incumbent's worst row (when the proposal is
    the incumbent itself), the witness block and the strided subset each
    settle some proposals."""
    rejected = [0, 0, 0]
    for domain, p, xi, _k in _caratheodory_calls(3):
        b, d = _caratheodory_problem(domain, p, xi)
        reference, _ = _caratheodory_objective(b, d)
        rng = np.random.default_rng(5)
        xs = [c.view(float) for c in _coefficients(rng, b.shape[1], 12)]
        for x in xs:
            full = reference(x)
            bars = [_ulps(full, n) for n in (-4, -2, -1, 0, 1)] + [0.5 * full, 1.01 * full, 2.0 * full]
            # the witness: the worst block of x itself (the tightest case),
            # or of another vector
            for incumbent in (x, xs[0], xs[-1]):
                for bar in bars:
                    objective, counts = _caratheodory_objective(b, d)
                    objective(incumbent)
                    got = objective(x, bar)
                    assert got == full if full > bar else got <= bar
                    rejected = [n + k for n, k in zip(rejected, counts[1:4])]
    assert min(rejected) > 0


@pytest.mark.parametrize("special", [None, 0.0, 1e-321, math.nan, math.inf])
@pytest.mark.parametrize("where", ["z", "w", "both"])
def test_log_moduli_equals_guarded_path(special, where):
    rng = np.random.default_rng(2)
    z = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    w = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    if special is not None:
        for arr, name in ((z, "z"), (w, "w")):
            if where in (name, "both"):
                arr[[0, 17, 299]] = special
                arr[5] = complex(0.0, special)
    for got, want in zip(_log_moduli(z, w), guarded_log_moduli(z, w)):
        assert got.tobytes() == want.tobytes()


def _outside_cases():
    domain, _records = certify_levels(ConstructionParams(a="2", levels=2))
    return {"staircase": (domain, PointC2(5.0 + 0.0j, 0.0j)),
            "ball": (BallModel(), PointC2(2.0 + 0.0j, 0.0j)),
            "ball-boundary": (BallModel(), PointC2(0.6 + 0.0j, 0.8 + 0.0j)),
            "bidisc": (PolydiscModel(), PointC2(0.0j, 1.5 + 0.0j)),
            "bidisc-boundary": (PolydiscModel(), PointC2(1.0 + 0.0j, 0.0j))}


@pytest.mark.parametrize("search", [kobayashi_upper_search, caratheodory_lower_search],
                         ids=["kobayashi", "caratheodory"])
@pytest.mark.parametrize("case", sorted(_outside_cases()))
def test_search_rejects_basepoint_outside_domain(search, case):
    domain, p = _outside_cases()[case]
    with pytest.raises(ValidationError, match="basepoint must lie in the domain"):
        search(domain, p, XI11, budget=5)


# each entry point's value at (p, xi); the searches return their bound
DIRECTION_ENTRY_POINTS = {
    "kobayashi": lambda p, xi: kobayashi_upper_search(BallModel(), p, xi, budget=5, restarts=1,
                                                      samples=256)[0],
    "caratheodory": lambda p, xi: caratheodory_lower_search(BallModel(), p, xi, budget=5)[0],
    "reference": lambda p, xi: reference_metric("ball", p, xi),
}


@pytest.mark.parametrize("entry", sorted(DIRECTION_ENTRY_POINTS))
@pytest.mark.parametrize("xi", [(1, 1), [1.0, 1.0 + 0.0j], (np.float64(1.0), 1 + 0j)],
                         ids=["tuple", "list", "numpy"])
def test_direction_given_as_a_pair(entry, xi):
    run = DIRECTION_ENTRY_POINTS[entry]
    p = PointC2(0.1 + 0.0j, 0.0j)
    assert run((0.1, 0), xi) == run(p, Direction(1.0 + 0.0j, 1.0 + 0.0j))


@pytest.mark.parametrize("entry", sorted(DIRECTION_ENTRY_POINTS))
@pytest.mark.parametrize("xi", [1.0, [1], (1, 1, 1), "11", (1, "1"), None, (0, 0)],
                         ids=["scalar", "one", "three", "str", "str-entry", "none", "zero"])
def test_direction_not_a_pair_rejected(entry, xi):
    with pytest.raises(ValidationError):
        DIRECTION_ENTRY_POINTS[entry]((0.1, 0), xi)


def test_search_constants_in_the_provenance():
    """The fixed margin, safety factor and index set show in the provenance
    that ``squeeze estimate`` writes to ``estimates.json``."""
    k_bound, _disc, _trace = kobayashi_upper_search(BallModel(), P0C, XI11, seed=3, budget=20,
                                                    restarts=1, samples=256)
    prefix = ("polynomial disc search: degree=6, budget=20, seed=3, samples=256, "
              "restarts=1, margin=1e-06, fine-grid defect=")
    assert k_bound.provenance.startswith(prefix)
    assert float(k_bound.provenance[len(prefix):]) <= -0.5e-6
    c_bound, _function, _trace = caratheodory_lower_search(BallModel(), P0C, XI11, seed=3,
                                                           budget=20)
    assert c_bound.provenance == (
        "monomial candidate search: indices=((1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (2, 1)), "
        "budget=20, seed=3, boundary samples=12288, safety=1.01")


class TestCoefficientCheck:
    def test_identity_map(self):
        n = 256
        zeta = 0.7 * np.exp(2j * math.pi * np.arange(n) / n)
        rep = coefficient_bound_check(zeta, 0.7)
        assert rep.ok
        assert rep.scaled_coefficients[1] == pytest.approx(0.7, abs=1e-12)

    def test_blaschke_fft_oracle(self):
        # coefficients of (z - a)/(1 - a z): c_0 = -a, c_j = (1 - a^2) a^(j-1)
        a = 0.3
        n = 512
        r = 0.8
        zeta = r * np.exp(2j * math.pi * np.arange(n) / n)
        samples = (zeta - a) / (1.0 - a * zeta)
        rep = coefficient_bound_check(samples, r, sup_bound=1.0)
        assert rep.ok
        assert rep.scaled_coefficients[0] == pytest.approx(a, abs=1e-12)
        for j in range(1, 6):
            want = (1 - a * a) * a ** (j - 1) * r**j
            assert rep.scaled_coefficients[j] == pytest.approx(want, abs=1e-12)

    def test_scaled_violation(self):
        n = 128
        r = 0.9
        zeta = r * np.exp(2j * math.pi * np.arange(n) / n)
        rep = coefficient_bound_check(2.0 * zeta, r, sup_bound=1.0)
        assert not rep.ok
        assert rep.violations[0][0] == 1

    def test_aliasing_detected(self):
        n = 64
        zeta = np.exp(2j * math.pi * np.arange(n) / n)
        # conjugate samples are anti-holomorphic: all energy in top modes
        with pytest.raises(NumericalError):
            coefficient_bound_check(np.conj(zeta) * 0.5, 0.5)


def test_int_power_matches_the_loop_reference():
    """The in-place power against the loop that forms every product, bit for
    bit, on float32 values with 0, subnormals, powers that overflow to inf,
    and inf."""
    rng = np.random.default_rng(8)
    x = np.concatenate([rng.uniform(0.0, 2.0, 300), 10.0 ** rng.uniform(-45.0, 38.0, 300),
                        [0.0, 1e-45, 3e-39, 1e-30, 1.0, 1.5, 1e10, 3e38, np.inf]])
    x = x.astype(np.float32).reshape(3, -1)
    assert np.any((x > 0) & (x < np.finfo(np.float32).tiny))
    with np.errstate(over="ignore", under="ignore"):
        for m in range(1, 65):
            want = int_power_reference(x, m)
            assert _int_power(x.copy(), m).tobytes() == want.tobytes(), m


class TestOracle:
    def test_small_run_respects_bound(self):
        res = monomial_disc_oracle(2, count=2000, seed=11)
        assert res.min_alpha >= 1.0 - 1e-9
        assert res.coefficient_bound == 1.0

    def test_deterministic(self):
        r1 = monomial_disc_oracle(4, count=1500, seed=3)
        r2 = monomial_disc_oracle(4, count=1500, seed=3)
        assert r1 == r2

    def test_rejects_bad_m(self):
        with pytest.raises(ValidationError):
            monomial_disc_oracle(0)

    @pytest.mark.parametrize("kwargs", [
        {"count": 0}, {"count": -5}, {"degree": 0}, {"degree": -1},
        {"m": 2.5}, {"m": 2.0}, {"m": "2"},
        {"seed": -1}, {"seed": 1.5}, {"m": 33}, {"degree": 7},
    ], ids=["count0", "count-5", "degree0", "degree-1", "m2.5", "m2.0", "m-str",
            "seed-1", "seed1.5", "m33", "degree7"])
    def test_rejects_bad_inputs(self, kwargs):
        with pytest.raises(ValidationError):
            monomial_disc_oracle(**{"m": 2, "count": 300, **kwargs})

    @staticmethod
    def _thresholds(m, degree, samples=None):
        """Sample count, Bernstein threshold and margined float32 threshold
        as the oracle sets them."""
        d_eff = degree * (m + 1)
        if samples is None:
            samples = 128
            while samples < 5 * d_eff:
                samples *= 2
        thr = 1.0 - math.pi * d_eff / samples
        return samples, thr, np.float32((thr * (1.0 - _HAIRCUT)) ** 2)

    @classmethod
    def _discs(cls, m, degree, b, seed, samples=None):
        """Sample count, coefficients, Bernstein threshold and margined float32
        threshold as the oracle draws them for its first chunk."""
        samples, thr, thr2 = cls._thresholds(m, degree, samples)
        az, bw = random_disc_coefficients(np.random.default_rng([seed, m, 0]), b, degree)
        return samples, az, bw, thr, thr2

    @staticmethod
    def _samples(order, az, bw):
        """All samples of all discs, columns in ``order``."""
        return _circle_samples(coefficient_rows(az, bw),
                               _root_columns(order, order.size, az.shape[1] + 1))

    @staticmethod
    def _stages(az, bw, samples):
        """What ``_feasible`` reads, as the oracle builds it: the coarse
        samples, the coefficient rows and the root columns of the other
        samples."""
        order = _coarse_first(samples)
        k = samples // _COARSE
        a = coefficient_rows(az, bw)
        degree = az.shape[1] + 1
        return (_circle_samples(a, _root_columns(order[:k], samples, degree)), a,
                _root_columns(order[k:], samples, degree))

    @staticmethod
    def _exact(az, bw, samples):
        """``zeta + sum_j a_j zeta^(j+2)`` per disc in float64, at the roots
        of unity of index ``(j+2) k mod samples``: the disc's (z, w) samples
        in natural order."""
        k = np.arange(samples)
        powers = np.exp(2j * math.pi * (np.outer(np.arange(2, az.shape[1] + 2), k) % samples)
                        / samples)
        zeta = np.exp(2j * math.pi * k / samples)
        return zeta + az @ powers, zeta + bw @ powers

    @pytest.mark.parametrize("m, degree, b, samples", [
        (1, 1, 10, None), (2, 6, 150, None), (8, 3, 64, None), (32, 6, 129, None),
        (2, 6, 70, 130), (2, 6, 70, 200),
    ])
    def test_blocked_build_matches_single_pass(self, m, degree, b, samples):
        """Built in natural order and in the oracle's coarse-first order, each
        sample is within the float32 bound of its float64 value at the exact
        root.  (Not bit for bit across orders: with OpenBLAS's Haswell and
        Prescott kernels a sample's last bit depends on its column.)

        The bound: a dot product of ``K = 2 degree - 1`` float32 terms, each a
        product of two rounded inputs, is off by at most ``(K + 2) u`` times
        the sum of the terms' moduli, ``u = 2^-24``; that sum is at most
        ``1 + sum_j (|Re a_j| + |Im a_j|)``."""
        samples, az, bw, _, _ = self._discs(m, degree, b, 5, samples)
        perm = _coarse_first(samples)
        assert sorted(perm[:-(-samples // _COARSE)]) == list(range(0, samples, _COARSE))
        exact = self._exact(az, bw, samples)
        for order in (np.arange(samples), perm):
            s = self._samples(order, az, bw)
            for plane, coeffs, ex in zip((0, 2), (az, bw), exact):
                terms = 1.0 + np.abs(coeffs.real).sum(axis=1) + np.abs(coeffs.imag).sum(axis=1)
                bound = (2 * degree + 1) * 2.0**-24 * 1.001 * terms[:, None]
                assert np.all(np.abs(s[plane] - ex.real[:, order]) <= bound)
                assert np.all(np.abs(s[plane + 1] - ex.imag[:, order]) <= bound)

    @pytest.mark.parametrize("m", [1, 2, 8, 32])
    def test_haircut_covers_float32_error(self, m):
        """The oracle accepts a (disc, scale) when the float32 value of
        ``max(|cw|^2, |cw|^2 |1 + cz|^(2m))`` over the samples is within the
        margined threshold ``(thr (1 - _HAIRCUT))^2``; the Bernstein argument
        needs the exact value at the exact roots within ``thr^2``.  Bisected
        to each disc's float32 feasibility edge, every accepted scale meets
        that, and the float32 value is within 5e-5 relative of the float64
        one, against the 2e-4 the haircut leaves."""
        samples, az, bw, thr, thr2 = self._discs(m, 6, 200, 17)
        order = _coarse_first(samples)
        s = self._samples(order, az, bw)
        z64, w64 = (x[:, order] for x in self._exact(az, bw, samples))
        lo, hi = np.zeros(len(az)), np.full(len(az), 4.0)
        assert np.all(_bad(hi, s, m, thr2))
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            ok = ~_bad(mid, s, m, thr2)
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
            c = mid[ok, None]
            cc = c.astype(np.float32)
            aw2 = (cc * s[2, ok])**2 + (cc * s[3, ok])**2
            az2 = (1.0 + cc * s[0, ok])**2 + (cc * s[1, ok])**2
            v32 = np.max(np.maximum(aw2, aw2 * _int_power(az2, m)), axis=1).astype(float)
            aw2 = np.abs(c * w64[ok])**2
            v64 = np.max(np.maximum(aw2, aw2 * np.abs(1.0 + c * z64[ok])**(2 * m)), axis=1)
            assert np.all(v64 <= thr**2)
            assert np.all(np.abs(v32 - v64) <= 5e-5 * v64)
        assert np.all(lo > 0.0)

    @pytest.mark.parametrize("degree", [1, 2, 6])
    def test_draw_rows_match_the_complex_draw(self, degree):
        """The rows drawn part by part are those of the complex coefficients
        drawn from the same stream, bit for bit."""
        want = coefficient_rows(*random_disc_coefficients(np.random.default_rng([5, 2, 0]),
                                                          3000, degree))
        got = _draw_rows(np.random.default_rng([5, 2, 0]), 3000, degree)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    def test_sum_margin_covers_the_float32_error(self):
        """The margin is at least ten times the error bound at the oracle's
        range limit, which bounds every m <= 32 and degree <= 6."""
        worst = _sum_bound_error(32, 6)
        assert 10.0 * worst <= _SUM_MARGIN <= 1e-3
        assert all(_sum_bound_error(m, d) <= worst for m in range(1, 33) for d in range(1, 7))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 32), st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.booleans(), st.floats(0.05, 20.0))
    @example(32, 6, 0, True, 1.0)
    @example(1, 1, 0, False, 1.0)
    def test_sum_bound_proves_only_discs_every_sample_passes(self, m, degree, seed, aligned,
                                                              size):
        """Random discs, their coefficients ``size`` times the oracle's
        scale, at scales up to the edge of the coefficient-sum bound: every
        disc the bound proves passes ``_bad`` on all its float32 samples.
        With ``aligned`` coefficients (all real and positive) the bound is
        the test value at ``zeta = 1``, a coarse sample, so just past the
        edge that sample fails: the margin is not loose by more than 2e-3."""
        samples, _, thr2 = self._thresholds(m, degree)
        rng = np.random.default_rng(seed)
        discs = 24
        scale = size * 0.35 / (np.arange(2, degree + 1) ** 2)
        mod = rng.exponential(size=(2, discs, degree - 1)) * scale
        phase = 0.0 if aligned else rng.uniform(0.0, 2.0 * math.pi, mod.shape)
        az, bw = mod * np.exp(1j * phase)
        a = coefficient_rows(az, bw)
        sz, sw = sums = _coefficient_sums(a)

        lo, hi = np.zeros(discs), 1.0 / sw
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            ok = _proven(mid, sums, m, thr2)
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
        # the edge is that of c^2 S_w^2 (1 + c S_z)^(2m) <= thr2 (1 - margin)
        limit = float(thr2) * (1.0 - _SUM_MARGIN)
        past = lo * (1.0 + 2e-3)
        for c, below in ((lo * (1.0 - 1e-12), True), (past, False)):
            assert np.all((c**2 * sw**2 * (1.0 + c * sz)**(2 * m) <= limit) == below)
        s = _circle_samples(a, _root_columns(_coarse_first(samples), samples, degree))
        for u in (1.0, 1.0 - 1e-12, 1.0 - 1e-6, 0.999, 0.9, 0.5, 0.1, 1e-3):
            c = lo * u
            assert np.all(_proven(c, sums, m, thr2))
            assert not np.any(_bad(c, s, m, thr2))
        assert not np.any(_proven(past, sums, m, thr2))
        if aligned:
            assert np.all(_bad(past, s[:, :, :1], m, thr2))

    def test_sum_bound_proves_nothing_infinite_nan_or_overflowing(self):
        """Coefficient rows holding an infinity or a NaN, and scales whose
        bound overflows (or that are themselves infinite or NaN), are never
        proven; the clean discs at small scales are."""
        m = 8
        _, az, bw, _, thr2 = self._discs(m, 6, 8, 4)
        a = coefficient_rows(az, bw)
        a[0, 1, 3] = np.inf
        a[1, 2, 2] = -np.inf
        a[0, 3, 1] = np.nan
        a[1, 4, 4] = np.nan
        a[1, 5, 4], a[1, 5, 3] = np.nan, np.inf
        sums = _coefficient_sums(a)
        c = np.full(8, 1e-3)
        assert _proven(c, sums, m, thr2).tolist() == [True] + [False] * 5 + [True] * 2
        for big in (1e5, 1e40, 1e154, 1e160, 1e300, np.inf, np.nan):
            assert not np.any(_proven(np.full(3, big), sums[:, [0, 6, 7]], m, thr2))

    @staticmethod
    def _coarse_edges(base_z, base_w, m, thr2):
        """Per disc, a scale at the edge of feasibility on the coarse samples
        alone: most of these pass the coarse stage and fail the full one."""
        lo, hi = np.zeros(len(base_z)), np.full(len(base_z), 1e3)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            ok = single_pass_feasible(mid, base_z[:, ::_COARSE], base_w[:, ::_COARSE], m, thr2)
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
        return lo

    @pytest.mark.parametrize("m", [1, 2, 8, 32])
    def test_two_stage_verdict_matches_single_pass(self, m):
        samples, az, bw, _, thr2 = self._discs(m, 6, 60, 5)
        base_z, base_w = single_pass_samples(az, bw, samples)
        lo = self._coarse_edges(base_z, base_w, m, thr2)
        # and a grid from 1e-3 into the float32 overflow range (c^2 > 3.4e38)
        grid = np.concatenate([np.geomspace(1e-3, 1e30, 34),
                               math.sqrt(2.0 / m) * np.geomspace(0.25, 4.0, 24)])
        rows = np.concatenate([np.arange(len(az)), np.repeat(np.arange(len(az)), grid.size)])
        c = np.concatenate([lo, np.tile(grid, len(az))])

        want = single_pass_feasible(c, base_z[rows], base_w[rows], m, thr2)
        s, a, p = self._stages(az, bw, samples)
        got, n_proven, n_full = _feasible(c, s[:, rows], a[:, rows],
                                          _coefficient_sums(a)[:, rows], p, m, thr2)
        assert np.array_equal(got, want)
        coarse_ok = ~_bad(c, s[:, rows], m, thr2)
        assert np.any(coarse_ok & ~want)
        assert np.any(want) and not np.any(want[c > 1e19])
        # the full stage tests the coarse survivors the coefficient-sum
        # bound does not prove; the bound proves only feasible discs, and
        # the grid's small scales
        sz, sw = (1.0 + np.abs(coeffs).sum(axis=1)[rows]
                  for coeffs in (a[0, :, 1::2] - 1j * a[0, :, 2::2].astype(float),
                                 a[1, :, 1::2] - 1j * a[1, :, 2::2].astype(float)))
        with np.errstate(over="ignore"):
            proven = c**2 * sw**2 * (1.0 + c * sz)**(2 * m) <= float(thr2) * (1.0 - _SUM_MARGIN)
        assert np.all(want[proven])
        assert n_proven == np.count_nonzero(coarse_ok & proven)
        assert n_full == np.count_nonzero(coarse_ok & ~proven)
        assert np.all(proven[c <= 1e-2]) and n_full > 0

    @pytest.mark.parametrize("m", [2, 32])
    def test_full_stage_blocks_of_consecutive_and_gapped_rows(self, m):
        """The first ``_FULL_ROWS`` coarse survivors are consecutive rows,
        the next ones skip every other row; each block's samples are built
        from its coefficient rows, and both verdicts are the single pass's.

        The scales lie 1e-5 relative inside the coarse edges, far above the
        last-bit differences of samples built in products of other shapes
        (OpenBLAS's Haswell and Zen sgemm), so the verdicts do not depend
        on the kernel."""
        samples, az, bw, _, thr2 = self._discs(m, 6, 3 * _FULL_ROWS, 7)
        base_z, base_w = single_pass_samples(az, bw, samples)
        c = self._coarse_edges(base_z, base_w, m, thr2) * (1.0 - 1e-5)
        c[_FULL_ROWS + 1::2] = 1e3  # fails the coarse stage
        s, a, p = self._stages(az, bw, samples)
        coarse_ok = ~_bad(c, s, m, thr2)
        survivors = np.flatnonzero(coarse_ok)
        assert np.array_equal(survivors[:_FULL_ROWS], np.arange(_FULL_ROWS))
        assert np.all(np.diff(survivors[_FULL_ROWS:2 * _FULL_ROWS]) == 2)

        want = single_pass_feasible(c, base_z, base_w, m, thr2)
        got, n_proven, n_full = _feasible(c, s, a, _coefficient_sums(a), p, m, thr2)
        assert np.array_equal(got, want)
        assert (n_proven, n_full) == (0, survivors.size)
        for blk in (survivors[:_FULL_ROWS], survivors[_FULL_ROWS:2 * _FULL_ROWS]):
            assert np.any(want[blk]) and not np.all(want[blk])

    @pytest.mark.parametrize("m", [2, 32])
    def test_odd_row_products_are_padded(self, monkeypatch, m):
        """Every sample product has an even row count: an odd block is
        padded by one row, which the samples drop, so an odd block's samples
        are those of its rows in an even block bit for bit (OpenBLAS's
        Prescott sgemm gives the last row of an odd-row product other bits).
        The full stage of 3 coarse survivors builds a 4-row product (their
        scales 1e-5 relative inside their coarse edges, as above)."""
        samples, az, bw, _, thr2 = self._discs(m, 6, 8, 3)
        s, a, p = self._stages(az, bw, samples)
        for rows in (1, 3, 7):
            odd = _circle_samples(a[:, :rows], p)
            assert odd.shape == (4, rows, p.shape[2])
            assert odd.tobytes() == _circle_samples(a[:, :rows + 1], p)[:, :rows].tobytes()

        base_z, base_w = single_pass_samples(az, bw, samples)
        c = self._coarse_edges(base_z, base_w, m, thr2) * (1.0 - 1e-5)
        c[3:] = 1e3  # fails the coarse stage
        shapes = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda x, *args, **kwargs:
                            shapes.append(x.shape) or matmul(x, *args, **kwargs))
        got, n_proven, n_full = _feasible(c, s, a, _coefficient_sums(a), p, m, thr2)
        assert (n_proven, n_full) == (0, 3) and shapes == [(4, p.shape[1])] * 4
        assert np.array_equal(got, single_pass_feasible(c, base_z, base_w, m, thr2))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-3, 4.0), st.floats(-math.pi, math.pi), st.floats(-4.0, 4.0),
           st.floats(-4.0, 4.0), st.integers(1, 32), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    @example(1.0, math.pi, 1.0, 0.0, 1, 0.5, 0.9)  # where |1 + cZ| falls below 1
    def test_scale_test_value_nondecreasing(self, r, theta, wr, wi, m, u1, u2):
        """Per sample, ``G(c) = c^2 |W|^2 max(1, |1 + cZ|^(2m))`` does not
        fall as ``c >= 0`` grows, so a disc's feasible scales are an interval
        from 0 and the bracket closes on its end (float64, to within its
        rounding).  ``Z = r e^(i theta)`` and ``c = u / r``, so ``|cZ| = u``
        covers the scales where ``|1 + cZ| < 1``."""
        zr, zi = r * math.cos(theta), r * math.sin(theta)
        c1, c2 = sorted((u1 / r, u2 / r))

        def g(c):
            return c * c * (wr * wr + wi * wi) * max(1.0, ((1.0 + c * zr)**2 + (c * zi)**2)**m)

        assert g(c1) <= g(c2) * (1.0 + 1e-12)

    def test_derived_sample_count(self):
        """For every m <= 32 and degree <= 6 the circle holds the fewest
        samples of the form ``128 * 2^j`` that are at least ``5 d_eff``, a
        multiple of ``_COARSE``, so the coarse stage takes every
        ``_COARSE``-th sample exactly and the Bernstein threshold is at
        least ``1 - pi / 5``."""
        for m in range(1, 33):
            for degree in range(1, 7):
                res = monomial_disc_oracle(m, count=1, degree=degree, seed=0)
                d_eff = degree * (m + 1)
                n = res.samples // 128
                assert res.samples == 128 * n and n & (n - 1) == 0
                assert res.samples >= 5 * d_eff and (n == 1 or res.samples < 10 * d_eff)
                assert res.samples % _COARSE == 0
                assert res.feasibility_factor == 1.0 - math.pi * d_eff / res.samples
                assert res.feasibility_factor >= 1.0 - math.pi / 5.0

    # (32, 6, 2500) spans two chunks, so pruning against an earlier
    # chunk's best scale is exercised too
    @pytest.mark.parametrize("m, degree, count", [
        (1, 3, 1000), (2, 6, 1000), (8, 3, 1000), (8, 6, 1000), (32, 6, 2500),
    ])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_pruning_matches_unpruned_reference(self, m, degree, count, seed):
        res = monomial_disc_oracle(m, count=count, degree=degree, seed=seed)
        assert (res.min_alpha, res.count) == unpruned_disc_oracle(
            m, count=count, degree=degree, seed=seed)

    def test_debug_line_counts_the_bound_and_the_full_stage(self, caplog):
        """The debug line counts the scale tests, those the coefficient-sum
        bound settled and those that reached the full stage."""
        with caplog.at_level(logging.DEBUG, logger="squeeze.estimate"):
            res = monomial_disc_oracle(8, count=2000, seed=11)
        found = re.search(r"(\d+) scale tests \((\d+) settled by the coefficient-sum bound, "
                          r"(\d+) reached the full stage\)", caplog.records[-1].getMessage())
        tests, settled, full = map(int, found.groups())
        assert tests == res.scale_tests and settled > 0 and full > 0
        assert settled + full <= tests

    def test_pruning_skips_scale_tests(self):
        res = monomial_disc_oracle(2, count=2000, seed=11)
        assert 0 < res.scale_tests < 30 * res.count

    def test_keeps_only_coarse_samples(self):
        """A chunk keeps its coarse samples and coefficient rows, and a block
        of full-stage discs builds its other samples when it gets there: the
        traced peak of a two-chunk m = 2 call stays at or below 20 MB (all
        samples of one of its chunks would take 32 MB)."""
        tracemalloc.start()
        try:
            monomial_disc_oracle(2, count=32768, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20e6

    @pytest.fixture
    def blas(self):
        """``(get, set)`` of numpy's OpenBLAS thread count; the threaded
        oracle needs it."""
        blas = estimate._openblas_threads()
        if blas is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS whose threads can be held")
        return blas

    # m = 1..32 at degree 3 and 6; (2, 6, 17084) and (32, 6, 2500) end in a
    # partial chunk that is split, (8, 6, 4396) in one below the split size,
    # and (2, 6, 400) has one chunk below it, so it runs in the calling thread
    @pytest.mark.parametrize("m, degree, count", [
        (1, 3, 2000), (2, 6, 16384 + 700), (8, 3, 1000), (8, 6, 4096 + 300), (32, 3, 1200),
        (32, 6, 2500), (2, 6, 400),
    ])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_threads_match_one_thread(self, monkeypatch, caplog, blas, m, degree, count, cpus):
        """On ``cpus`` threads the whole result is the one-thread result bit
        for bit, and the debug lines name the threads and the BLAS hold,
        taken only on more than one thread."""
        monkeypatch.setattr(estimate, "_usable_cpus", lambda: 1)
        with caplog.at_level(logging.DEBUG, logger="squeeze.estimate"):
            want = monomial_disc_oracle(m, count=count, degree=degree, seed=8)
            monkeypatch.setattr(estimate, "_usable_cpus", lambda: cpus)
            got = monomial_disc_oracle(m, count=count, degree=degree, seed=8)
        assert got == want
        assert float.hex(got.min_alpha) == float.hex(want.min_alpha)
        lines = [r.getMessage() for r in caplog.records
                 if "disc oracle" in r.getMessage() or "OpenBLAS" in r.getMessage()]
        threads = 1 if count < 2 * _FULL_ROWS else cpus
        assert len(lines) == (3 if threads > 1 else 2)
        assert lines[0].endswith("pruned; 1 thread(s)")
        if threads > 1:
            assert lines[1].startswith("OpenBLAS held to one thread (from ")
            assert lines[1].endswith(f") for {cpus} CPUs")
        assert lines[-1].endswith(f"pruned; {threads} thread(s)")

    def test_one_thread_where_no_cpus_are_named(self, monkeypatch, caplog):
        """Where the platform names no CPUs the oracle runs on one thread and
        leaves OpenBLAS's thread count alone."""
        set_to = []
        monkeypatch.setattr(estimate, "_openblas_threads", lambda: (lambda: 4, set_to.append))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert estimate._usable_cpus() == 1
        with caplog.at_level(logging.DEBUG, logger="squeeze.estimate"):
            monomial_disc_oracle(2, count=1000, seed=8)
        assert set_to == [] and "OpenBLAS held" not in caplog.text
        assert caplog.records[-1].getMessage().endswith("pruned; 1 thread(s)")

    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_feasible_on_parts_matches_unsplit(self, threads):
        """Split into ``min(threads, rows // _FULL_ROWS)`` parts, on rows
        whose samples hold infinities and NaNs in the coarse samples and,
        through their coefficient rows, in the full-stage samples and the
        coefficient sums, the verdicts and the counts of the discs the bound
        proved and of those that reached the full stage are the unsplit
        call's."""
        m = 8
        samples, az, bw, _, thr2 = self._discs(m, 6, 3 * _FULL_ROWS + 17, 9)
        base_z, base_w = single_pass_samples(az, bw, samples)
        c = self._coarse_edges(base_z, base_w, m, thr2)
        s, a, p = self._stages(az, bw, samples)
        s[2, 5, 0] = np.inf
        a[0, 300, 3] = -np.inf  # full-stage z samples of row 300
        s[1, 301, 1] = np.nan
        a[1, 600, 1] = np.nan  # full-stage w samples of row 600
        s[:, 700] = np.nan
        a[:, 700] = np.nan
        s[3, 100] = np.inf
        a[1, 100, 0] = np.inf
        c[::7] *= 0.01  # proven by the coefficient-sum bound
        sums = _coefficient_sums(a)
        want, *want_counts = _feasible(c, s, a, sums, p, m, thr2)
        with ThreadPoolExecutor(threads - 1) as pool:
            submit, submitted = pool.submit, []
            pool.submit = lambda *args: submitted.append(args) or submit(*args)
            got, *got_counts = _feasible(c, s, a, sums, p, m, thr2, pool, threads)
        assert len(submitted) == min(threads, 3) - 1
        assert np.array_equal(got, want) and got_counts == want_counts
        want_proven, want_full = want_counts
        assert want[700] and not want[5] and not want[100] and not want[300]
        assert np.all(~_bad(c[[300, 600, 700]], s[:, [300, 600, 700]], m, thr2))
        assert np.any(want) and not np.all(want) and 0 < want_full < c.size
        assert 0 < want_proven < c.size

    def test_blas_threads_restored(self, monkeypatch, blas):
        """OpenBLAS is held to one thread during a threaded call and its
        count restored after it, also after a call that raises; the pool's
        threads are joined either way."""
        get_threads, set_threads = blas
        original = get_threads()
        monkeypatch.setattr(estimate, "_usable_cpus", lambda: 2)
        real = estimate._circle_samples
        during = []

        def recording(*args, **kwargs):
            during.append(get_threads())
            return real(*args, **kwargs)

        def failing(*args, **kwargs):
            during.append(get_threads())
            raise NumericalError("sample build failed")

        threads = threading.active_count()
        try:
            set_threads(2)
            monkeypatch.setattr(estimate, "_circle_samples", recording)
            monomial_disc_oracle(8, count=1000, seed=2)
            assert get_threads() == 2
            monkeypatch.setattr(estimate, "_circle_samples", failing)
            with pytest.raises(NumericalError, match="sample build failed"):
                monomial_disc_oracle(8, count=1000, seed=2)
            assert get_threads() == 2
        finally:
            set_threads(original)
        assert len(during) > 2 and set(during) == {1}
        assert threading.active_count() == threads

    def test_helpers_run_no_public_function(self, monkeypatch, blas):
        """perfbench's tracer wraps the package's public functions and
        methods and keeps one call stack, so the helper threads may run
        private code only: no public squeeze function or method is called
        off the calling thread, and the helpers do run the scale test and
        the full stage's sample builds."""
        public = set()
        for name, mod in list(sys.modules.items()):
            if not name.startswith("squeeze."):
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                    continue
                if inspect.isfunction(obj):
                    public.add(obj.__code__)
                elif inspect.isclass(obj):
                    methods = (getattr(f, "__func__", f) for a, f in vars(obj).items()
                               if not a.startswith("_"))
                    public.update(f.__code__ for f in methods if inspect.isfunction(f))
        assert estimate.monomial_disc_oracle.__code__ in public
        caller = threading.get_ident()
        seen = set()

        def profile(frame, event, arg):
            if event == "call" and threading.get_ident() != caller:
                seen.add(frame.f_code)

        monkeypatch.setattr(estimate, "_usable_cpus", lambda: 2)
        threading.setprofile(profile)
        try:
            monomial_disc_oracle(2, count=3000, seed=4)
        finally:
            threading.setprofile(None)
        assert not seen & public
        ran = {code.co_name for code in seen if code.co_filename == _bad.__code__.co_filename}
        assert {"_feasible_rows", "_bad", "_circle_samples"} <= ran
