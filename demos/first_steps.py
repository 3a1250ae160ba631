"""A first tour: weights, one operator step, and an orbit you can predict.

Run with: python3 demos/first_steps.py
"""

import mpmath
from mpmath import mp, mpf

from dunkldyn import (
    DunklWeights,
    TruncatedSeries,
    apply_dunkl,
    orbit_at_zero,
    right_inverse,
)

mp.prec = 256  # importing dunkldyn leaves the precision at mpmath's 53 bits

# The operator acts on entire functions through a weight ladder d_n that
# depends on a single parameter alpha > -1/2. Step ratios alternate between
# n (even) and n + 2 alpha + 1 (odd), so d_n outruns n! once alpha > 0.
alpha = mpf("0.5")
w = DunklWeights(alpha, n_max=64)

print(f"alpha = {alpha}")
print("first weights d_0..d_6:")
for n in range(7):
    print(f"  d_{n} = {mpmath.nstr(w.weight(n), 12)}")

# One application maps z^n to (d_n / d_{n-1}) z^(n-1). Applied to z^2 the
# result is a_2 z = 2 z regardless of alpha, since a_2 = 2 is an even step.
f = TruncatedSeries({2: mpf(1)}, trunc_degree=64)
g = apply_dunkl(f, w, 1)
print(f"\noperator applied to z^2: coefficient of z is "
      f"{mpmath.nstr(mpmath.re(g.coeff(1)), 8)}")

# The right inverse undoes that step exactly.
h = right_inverse(g, w)
print(f"right inverse brings it back: coefficient of z^2 is "
      f"{mpmath.nstr(mpmath.re(h.coeff(2)), 8)}")

# Orbit values at the origin are coefficient times weight. A spike at
# degree 10 with coefficient 1/d_10 therefore produces a single orbit value
# of exactly 1 at step 10 and zeros everywhere else.
spike = TruncatedSeries({10: mpmath.exp(-w.log_weight(10))}, trunc_degree=64)
report = orbit_at_zero(spike, w, 40)
print("\norbit of the normalized degree-10 spike:")
print(f"  largest value at step {report.sup_index}")
print(f"  value there: {mpmath.nstr(report.orbit_sup(), 8)}")
print(f"  orbit flagged bounded: {report.bounded}")
