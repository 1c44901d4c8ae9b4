"""
Numerical estimates sandwiching the certified bounds
====================================================

Nothing here is certified; everything is cross-checked against bounds that
are.  Kobayashi upper estimates come from optimizing polynomial analytic
discs, Carathéodory lower estimates from optimizing monomial combinations,
and a vectorized random-disc oracle stress-tests the coefficient bound
sqrt(m/2) on the monomial models.  Run with SQUEEZE_LOG=DEBUG to see how
many disc scale tests the oracle's branch-and-bound pruning skips.
"""

import math

from squeeze import (
    Direction,
    PointC2,
    caratheodory_lower_search,
    kobayashi_upper_search,
    monomial_disc_oracle,
    reference_metric,
)
from squeeze.cli import configure_logging
from squeeze.estimate import BallModel, PolydiscModel

configure_logging()

p0 = PointC2(0.0j, 0.0j)
xi = Direction(1.0 + 0.0j, 1.0 + 0.0j)

############################################################
# Calibration on domains with classical closed forms.

for name, model in (("bidisc", PolydiscModel()), ("ball", BallModel())):
    k_ref, c_ref = reference_metric(name, p0, xi)
    k_est, _disc, _trace = kobayashi_upper_search(model, p0, xi, seed=1)
    c_est, _function, _trace = caratheodory_lower_search(model, p0, xi, seed=1)
    print(f"{name:>6}: K ref {k_ref:.4f}, disc-search estimate {k_est.value:.4f};"
          f" C ref {c_ref:.4f}, function-search estimate {c_est.value:.4f}")

############################################################
# The disc oracle: over tens of thousands of rigorously feasible
# random polynomial discs in {|w| < 1, |w| < |z|^-m}, no disc may
# undercut the certified lower bound sqrt(m/2).  Feasibility is
# certified through a Bernstein margin on circle samples, so the
# observed minimum is a true upper-bound witness set.

for m in (2, 8):
    res = monomial_disc_oracle(m, count=5000, seed=7)
    print(f"m={m}: min |alpha| over {res.count} feasible discs = "
          f"{res.min_alpha:.4f} >= sqrt({m}/2) = {math.sqrt(m/2):.4f}")
