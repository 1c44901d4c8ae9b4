"""
The three certified bound mechanisms, one at a time
===================================================

1. Carathéodory uppers from Schwarz on slice discs.
2. Kobayashi lowers from exact containment of the sheared domain in the
   monomial model, via Taylor-coefficient estimates.
3. Squeezing bounds by combining the two (upper) and by the two-ball
   inclusion (lower).
"""

import math

from squeeze import (
    Direction,
    PointC2,
    RadialProfile,
    ReinhardtDomain,
    caratheodory_upper_slices,
    kobayashi_lower_shear,
    annulus_model_domain,
    squeezing_lower_inclusion,
    squeezing_upper_quotient,
)

p = PointC2(1.0 + 0.0j, 0.0j)
xi = Direction(1.0 + 0.0j, 1.0 + 0.0j)

############################################################
# Slice bound on the flat-then-monomial model annulus
# {1/2 < |z| < 2, |w| < 1, |w| < |z|^-m}: the horizontal disc
# has radius min(1 - 1/2, 2 - 1) = 1/2, the vertical disc radius 1.

model = annulus_model_domain(0.5, 2.0, 6)
c_up = caratheodory_upper_slices(model, p, xi)
print(f"C(p, xi) <= {c_up.value:.6f}   [expected 1/0.5 + 1 = 3]")

############################################################
# Kobayashi lower at the model's corner: the exact slope drop is
# m = 6. The sheared profile is concave and vanishes at the corner,
# so it lies below its supporting lines 0 and -6 s there, and the
# containment in {|w| < 1, |w| < |z|^-6} follows exactly.

k_low = kobayashi_lower_shear(model, 1)
print(f"K(p, xi) >= {k_low.value:.6f}   [expected sqrt(6/2) = {math.sqrt(3):.6f}]")

############################################################
# Their quotient bounds the squeezing function from above.

s_up = squeezing_upper_quotient(c_up, k_low)
print(f"S(p)     <= {s_up.value:.6f}")

############################################################
# And the inclusion bound: the domain sits between the ball of
# radius dist(p, boundary) and the circumscribed ball.

s_low = squeezing_lower_inclusion(model, p)
print(f"S(p)     >= {s_low.value:.6f}")
print(f"\nprovenance of the lower bound:\n  {s_low.provenance}")

############################################################
# Sanity model: the flat annulus {1/2 < |z| < 2, |w| < 1} at (1, 0),
# where the box geometry is checked by hand: dist = 1/2 (the hole),
# outer radius hypot(2 + 1, 1) = sqrt(10), so S >= 1/(2 sqrt(10)).

t = math.log(2.0)
flat = ReinhardtDomain(RadialProfile((-t, t), (0.0, 0.0)), -t, t)
s_flat = squeezing_lower_inclusion(flat, p)
print(f"\nflat annulus at (1, 0): S >= {s_flat.value:.6f}   "
      f"[1/(2 sqrt(10)) = {0.5 / math.sqrt(10):.6f}]")
