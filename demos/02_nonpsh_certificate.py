"""
A machine-checkable maximum-principle violation
===============================================

The squeezing function of a bounded domain is 1 near the boundary and at
most C sqrt(2/m) at the staircase circles.  When a certified upper bound on
two concentric circles drops below a certified lower bound at an interior
point of the annulus between them, no function obeying the maximum
principle on analytic discs is compatible with the certificate: the
squeezing function of this domain is not plurisubharmonic.
"""

from squeeze import (
    ConstructionParams,
    MarginSchedule,
    build,
    certify_smoothed,
    levi_verify,
    smooth,
)

############################################################
# Margin schedule: every level targets S < u = 0.05, which sits
# well below the certified center bound ~ 0.105.

params = ConstructionParams(a="2", levels=2, schedule=MarginSchedule("0.05"))
domain, cert = build(params)

print("staircase certificate:")
for rec in cert.levels:
    print(f"  level {rec.k}: S(a_{rec.k}) <= {rec.s_upper.value:.6f}  "
          f"(n_{rec.k} = {rec.n_k})")
print(f"  S(1, 0) >= {cert.s_lower.value:.6f}")
print(f"  violation: {cert.violation} at level {cert.violation_level}, "
      f"margin {cert.margin:.4f}")

############################################################
# The staircase has corners; the theorem wants a smooth, strictly
# pseudoconvex domain.  Mollify the profile (closed-form kernel,
# per-corner widths), close the annulus ends with exponential caps,
# and re-certify everything directly on the smoothed domain.

sd = smooth(domain)
print(f"\nsmoothing: kernel widths {sd.profile.widths}, eps={sd.eps}, "
      f"kappa={sd.kappa}")

report = levi_verify(sd, grid_points=10_000)
print(f"Levi form minimum on the boundary grid: {report.min_value:.3g} "
      f"(tolerance {report.tolerance:.0e}) -> strictly pseudoconvex "
      f"reported: {report.strictly_pseudoconvex_reported}")

smoothed = certify_smoothed(sd, cert.levels, params.margin_guard)
print("\nsmoothed certificate:")
for rec in smoothed.levels:
    print(f"  level {rec.k}: S(a_{rec.k}) <= {rec.s_upper.value:.6f}")
print(f"  S(1, 0) >= {smoothed.s_lower.value:.6f}")
print(f"  violation: {smoothed.violation}, margin {smoothed.margin:.4f}")

assert smoothed.violation and smoothed.margin >= 0.01
print("\nmax-principle violation survives smoothing: the squeezing function")
print("of this smooth strictly pseudoconvex domain is not plurisubharmonic.")
