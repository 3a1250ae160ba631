"""Build a function whose orbit visits chosen targets at minimal growth.

The construction places sparse coefficient blocks so that the k-th orbit
snapshot lands within eps_k of the k-th target polynomial, while the
function itself stays inside the envelope ln(e+r) e^r / r^(alpha+1). That
exponent is critical: growing any slower makes such orbits impossible.

Run with: python3 demos/build_at_critical_growth.py
"""

import time

import mpmath
from mpmath import mp, mpf

from dunkldyn import (
    DunklWeights,
    P_INF,
    RateEnvelope,
    build_hypercyclic,
    growth_profile,
    poly_label,
    rate_exponent,
    standard_r_grid,
    thm3b_bound_check,
    verify_orbit_hits,
    windowed_c_star,
)

mp.prec = 256  # importing dunkldyn leaves the precision at mpmath's 53 bits

alpha = mpf(0)
w = DunklWeights(alpha, n_max=4096)
env = RateEnvelope.log_growth()

t0 = time.time()
f, plan = build_hypercyclic(w, env, K=6)
print(f"built a 6-target function in {time.time() - t0:.1f}s "
      f"({f.n_nonzero()} nonzero coefficients, degree {max(n for n, _ in f.items())})")

print("\nblock placements:")
for k, (q, m_k, eps) in enumerate(zip(plan.targets, plan.positions, plan.budgets), 1):
    print(f"  step {m_k:4d} reproduces {poly_label(q):>5s} within {mpmath.nstr(eps, 3)}")

report = verify_orbit_hits(f, plan, w)
print(f"\nall orbit snapshots inside their budgets: {report.all_passed()}")
# the last block has an empty tail and hence a zero budget, so compare
# against budget plus rounding floor
worst = max(
    d / (b + nf)
    for d, b, nf in zip(report.deltas, report.budgets, report.noise_floors)
)
print(f"worst delta as a fraction of its allowance: {mpmath.nstr(worst, 3)}")

# The profile divides the measured maximum modulus by the envelope. Ratios
# below 1 from some radius on certify the critical growth rate.
a = rate_exponent(P_INF, alpha, "hc")
profile = growth_profile(f, P_INF, a, env, standard_r_grid(points=64))
print(f"\ngrowth envelope exponent a = {mpmath.nstr(a, 4)}")
print(f"profile satisfied from grid index {profile.satisfied_from}, "
      f"peak ratio {mpmath.nstr(max(profile.ratios), 4)}")

# Restricting the radius sweep to growing windows shows the growth constant
# creeping upward, the quantitative face of the same phenomenon.
ladder = windowed_c_star(f, w, standard_r_grid(), tuple(map(mpf, (50, 100, 200, 400))))
print("\nwindowed growth constants:")
for r_max, c in zip((50, 100, 200, 400), ladder):
    print(f"  r <= {r_max:3d}: C = {mpmath.nstr(c, 8)}")

check = thm3b_bound_check(f, w, standard_r_grid(), N=600)
print(f"\nper-step orbit bound from the growth constant holds: {check.consistent}")
